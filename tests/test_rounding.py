"""The written rounding bounds: each keeps the bits of the expression it was
written as before its constants moved to ``tsphnn._rounding``, and the
bounds with no other direct check hold in exact arithmetic on adversarial
inputs: wide spreads, ties and sums near overflow."""

import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tsphnn as T
from tsphnn import _kernels, annealing, baselines, hopfield, pipeline
from tsphnn.annealing import MAX_ITERATIONS, TEMPERATURE_FLOOR

# The bounds' expressions as they were written with inline constants: the
# reference for their bits.


def old_temperature_bounds(cfg, first, count):
    steps = np.arange(first, first + count, dtype=np.float64)
    with np.errstate(over="ignore", under="ignore"):
        bounds = cfg.t0 * (np.power(cfg.cooling_rate, steps) + 2.0**-1060) * (1 + 2.0**-40)
    return np.maximum(bounds, TEMPERATURE_FLOOR)


def old_screen_band(m, k):
    n = m.n
    d_max = float(m.d.max())
    if not 2.0 * n * d_max < np.inf:
        return np.inf
    return 2.0**-51 * (n * n + 4 * k * (4 * k + 1)) * d_max


def old_rejection_cuts(bounds, uniforms):
    e = 2.0**-40
    with np.errstate(divide="ignore", over="ignore"):
        x = -np.log(uniforms) * (1 + e) + e
        return np.where(uniforms < 2.0**-53, np.inf, x * bounds * (1 + e) + 2.0**-1022)


def old_guard_band(m, p, f):
    return 4 * (m.n + 1) * 2.0**-53 * (p.d_pen * f + abs(p.threshold))


def old_check_finite_refuses(m, p, f):
    n = m.n
    a, b, c, d = p.a_pen, p.b_pen, p.c_pen, p.d_pen
    net = c * (n - 0.5) + (a + b) * (n - 1) + c * (n * n - 1) + d * f
    e = (a + b) / 2 * n**3 + c / 2 * n**4 + d / 2 * n * n * f
    return not math.isfinite(2 * (net + abs(p.threshold))) or not math.isfinite(2 * e)


def old_min_gain(d):
    return max(1e-12, 8 * np.finfo(np.float64).eps * float(d.max()))


def old_optimal_limit(n, optimum):
    return optimum + n * 2.0**-51 * optimum


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


def _matrix(n, d_max):
    """What the bounds read of a distance matrix: its size and largest entry."""
    return SimpleNamespace(n=n, d=np.array([d_max]))


D_MAX = [
    0.0, 5e-324, 1e-310, 2.0**-1022, 1e-300, 2.0**-53, 1e-12, 0.1, 1.0, 562.9, 563.0, 1e5,
    1e200, 1e300, 8.9e307, 1.7976931348623157e308,
]
UNIFORMS = np.array(
    [0.0, 5e-324, 1e-310, 2.0**-54, 2.0**-53, 2.0**-53 + 2.0**-105, 1e-300, 0.5, 1 - 2.0**-53]
)


def test_screen_band_and_min_gain_keep_their_bits():
    for n, d_max in itertools.product(range(3, 201), D_MAX):
        m = _matrix(n, d_max)
        if 2.0 * n * d_max < np.inf:  # DistanceMatrix refuses the rest
            for k in range(1, n // 2 + 1):
                band = annealing._screen_band(m, k)
                assert float(band).hex() == float(old_screen_band(m, k)).hex()
        d = np.array([d_max])
        assert float(baselines._min_gain(d)).hex() == float(old_min_gain(d)).hex()


def test_temperature_bounds_and_rejection_cuts_keep_their_bits():
    t0s = [TEMPERATURE_FLOOR, 5e-324, 1e-300, 1e-6, 1.0, 37.5, 1e300, 1.7976931348623157e308]
    rates = [5e-324, 1e-300, 0.5, 0.9, 0.999, 1 - 2.0**-53]
    firsts = [0, 1, 1000, 2**20, MAX_ITERATIONS - 16]
    for t0, rate, first in itertools.product(t0s, rates, firsts):
        cfg = T.SaConfig(t0=t0, cooling_rate=rate, iterations=1)
        bounds = annealing._temperature_bounds(cfg, first, 16)
        assert _hex(bounds) == _hex(old_temperature_bounds(cfg, first, 16))
        pairs_b = np.repeat(bounds, len(UNIFORMS))
        pairs_u = np.tile(UNIFORMS, len(bounds))
        cuts = annealing._rejection_cuts(pairs_b, pairs_u)
        assert _hex(cuts) == _hex(old_rejection_cuts(pairs_b, pairs_u))


def test_guard_band_finite_check_and_optimal_limit_keep_their_bits():
    penalties = [0.0, 5e-324, 1e-300, 0.5, 10.0, 100.0, 1e300]
    thresholds = [0.0, -1.0, 0.5, 1e-300, -1e300, 1e300]
    fields = [2.0, 3.7, 398.0, 1e10, 1e300, math.inf]
    optima = [0.0, 5e-324, 1e-310, 2.0**-1022, 1e-300, 1e-12, 1.0, 7.123456789, 1e300, 1.7e308]
    bands = [
        SimpleNamespace(d_pen=d, threshold=t) for d, t in itertools.product(penalties, thresholds)
    ]
    params = [
        T.HopfieldParams(a_pen=ab, b_pen=ab, c_pen=c, d_pen=d, threshold=t)
        for ab, c, d, t in itertools.product([100.0, 1e300], [90.0, 1e300], penalties, thresholds)
    ]
    for n in range(3, 201):
        m = _matrix(n, 1.0)
        for p, f in itertools.product(bands, fields):
            assert float(hopfield._guard_band(m, p, f)).hex() == old_guard_band(m, p, f).hex()
        for o in optima:
            assert pipeline._optimal_limit(n, o).hex() == old_optimal_limit(n, o).hex()
    for n, p, f in itertools.product((3, 4, 10, 50, 200), params, fields):
        try:
            hopfield._check_finite(_matrix(n, 1.0), p, f)
            refused = False
        except T.TsphnnError:
            refused = True
        assert refused == old_check_finite_refuses(_matrix(n, 1.0), p, f)


@st.composite
def distances(draw, count, top_exponent):
    """``count`` adversarial distances: full-precision mantissas whose
    exponents spread from the largest's down by up to 0, 2, 60 or 2,100
    binades (into subnormals and 0), with ties drawn from earlier values;
    the largest below 2^top_exponent, which may be near overflow."""
    top = draw(st.integers(-1074, top_exponent) | st.just(top_exponent), label="top exponent")
    spread = draw(st.sampled_from([0, 2, 60, 2100]), label="spread")
    values = []
    for _ in range(count):
        if values and draw(st.integers(0, 3)) == 0:
            values.append(draw(st.sampled_from(values)))
        else:
            mantissa = draw(st.floats(0.5, 1.0, exclude_max=True))
            values.append(math.ldexp(mantissa, max(-1075, top - draw(st.integers(0, spread)))))
    return values


def _gamma(j):
    """gamma_j = j*u / (1 - j*u), exactly."""
    ju = Fraction(j, 2**53)
    return ju / (1 - ju)


def _in_order(terms):
    total = 0.0
    for term in terms:
        total += term
    return total


@settings(max_examples=250, deadline=None)
@given(n=st.integers(3, 30), data=st.data())
def test_guard_band_covers_two_summation_orders_of_a_field_entry(n, data):
    """A field entry summed in order, reversed, in a drawn order, by BLAS
    and by NumPy's pairwise sum gives net inputs P - D * field.  Whenever
    the threshold lies between two of them, so that they may decide
    differently, they differ by at most ``_guard_band``, and each sum lies
    within the summation lemma's gamma_{n-2} of the exact one.  The band
    assumes no product D * field is subnormal."""
    row = data.draw(distances(n - 1, 1017), label="distances from city 0")
    weights = data.draw(st.lists(st.sampled_from([0, 1, 2]), min_size=n - 1, max_size=n - 1))
    d = np.zeros((n, n))
    d[0, 1:] = d[1:, 0] = row
    m = T.DistanceMatrix(d)
    f = hopfield._field_bound(m)
    terms = [x * w for x, w in zip(row, weights)]
    order = data.draw(st.permutations(range(n - 1)), label="order")
    sums = [
        _in_order(terms),
        _in_order(terms[::-1]),
        _in_order([terms[i] for i in order]),
        float(np.dot(np.array(row), np.array(weights, dtype=np.float64))),
        float(np.sum(terms)),
    ]
    exact = sum(map(Fraction, terms), Fraction(0))
    for total in sums:
        assert abs(Fraction(total) - exact) <= _gamma(n - 2) * exact
    d_pen = data.draw(st.sampled_from([1e-200, 0.5, 1.0, 10.0, 100.0, 1e200]), label="D")
    products = [d_pen * total for total in sums]
    assume(all(math.isfinite(q) and (q == 0 or q >= 2.0**-1022) for q in products))
    rest = data.draw(
        st.sampled_from([0.0, products[0], -products[0], 1.0, 1e10 * products[0]]), label="P"
    )
    nets = [rest - q for q in products]
    assume(all(math.isfinite(net) for net in nets))
    low, high = min(nets), max(nets)
    threshold = data.draw(st.sampled_from([low, high, low / 2 + high / 2]), label="threshold")
    p = T.HopfieldParams(d_pen=d_pen, threshold=threshold)
    try:
        hopfield._check_finite(m, p, f)  # the run refuses first where a net input may overflow
    except T.TsphnnError:
        assume(False)
    band = hopfield._guard_band(m, p, f)
    assert Fraction(high) - Fraction(low) <= Fraction(band)


@settings(max_examples=400, deadline=None)
@given(three=st.booleans(), data=st.data())
def test_min_gain_bounds_the_error_of_a_local_search_delta(three, data):
    """A 2-opt delta ((x1 + x2) - x3) - x4 and a 3-opt delta
    ((x1 + x2) + x3) - ((y1 + y2) + y3), the scans' own expressions, lie
    within 13*u*M of the exact delta, M the largest distance, as
    ``_min_gain``'s proof states; so a finite delta below ``-_min_gain``
    is exactly negative.  Sums may overflow, which no finite delta shows."""
    x = data.draw(distances(6 if three else 4, 1023), label="distances")
    if three:
        new = x[0] + x[1]
        new += x[2]
        base = x[3] + x[4]
        base += x[5]
        delta = new - base
        exact = sum(map(Fraction, x[:3])) - sum(map(Fraction, x[3:]))
    else:
        delta = x[0] + x[1] - x[2] - x[3]
        exact = Fraction(x[0]) + Fraction(x[1]) - Fraction(x[2]) - Fraction(x[3])
    assume(math.isfinite(delta))
    top = max(x)
    assert abs(Fraction(delta) - exact) <= 13 * Fraction(top) / 2**53
    if delta < -baselines._min_gain(np.array(x)):
        assert exact < 0


@settings(max_examples=200, deadline=None)
@given(n=st.integers(3, 40), data=st.data())
def test_optimal_limit_covers_every_rotation_and_direction_of_a_cycle(n, data):
    """The 2n edge-by-edge sums of one cycle, from each start city in each
    direction, as ``tour_length`` sums them, differ by at most the sweep's
    tolerance: the largest is within ``_optimal_limit`` of the smallest.
    Each lies within gamma_{n-1} of the exact length, the summation lemma
    that the tolerance rests on."""
    edges = data.draw(distances(n, 1023 - n.bit_length()), label="edges")
    d = np.zeros((n, n))
    for i, length in enumerate(edges):
        d[i, (i + 1) % n] = d[(i + 1) % n, i] = length
    rows = d.tolist()
    forward = list(range(n))
    backward = forward[::-1]
    sums = [
        _kernels.closed_tour_length(rows, cycle[r:] + cycle[:r])
        for cycle in (forward, backward)
        for r in range(n)
    ]
    assert max(sums) <= pipeline._optimal_limit(n, min(sums))
    exact = sum(map(Fraction, edges), Fraction(0))
    for total in sums:
        assert abs(Fraction(total) - exact) <= _gamma(n - 1) * exact
