"""Output parsing, contract checks and the 1-tree lower bound.

Everything here is computed by the benchmark itself from the instance
files and the CLI's stdout, never by calling the solvers, so a change to
the program cannot change the yardstick it is checked against.
"""

import csv
import hashlib
import io
import math

import numpy as np

REL_TOL = 1e-9


def distances(inst: dict) -> np.ndarray:
    """Distance matrix of an instance payload (explicit matrix or Euclidean)."""
    if inst.get("matrix") is not None:
        return np.asarray(inst["matrix"], dtype=np.float64)
    pts = np.array([[c["x"], c["y"]] for c in inst["cities"]], dtype=np.float64)
    diff = pts[:, None, :] - pts[None, :, :]
    d = np.hypot(diff[..., 0], diff[..., 1])
    np.fill_diagonal(d, 0.0)
    return d


def closed_length(d: np.ndarray, order) -> float:
    total = 0.0
    for a, b in zip(order, order[1:] + order[:1]):
        total += float(d[a, b])
    return total


def _mst_weight(d: np.ndarray) -> float:
    """Prim's algorithm on a dense symmetric matrix."""
    n = d.shape[0]
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = d[0].copy()
    total = 0.0
    for _ in range(n - 1):
        cand = np.where(in_tree, np.inf, best)
        v = int(np.argmin(cand))
        total += float(cand[v])
        in_tree[v] = True
        best = np.minimum(best, d[v])
    return total


def one_tree_bound(d: np.ndarray) -> float:
    """Best 1-tree lower bound over every choice of the special city.

    A closed tour minus one city is a spanning path of the rest, so it
    costs at least an MST of the rest plus the two cheapest edges back.
    """
    n = d.shape[0]
    best = 0.0
    for k in range(n):
        rest = np.delete(np.delete(d, k, axis=0), k, axis=1)
        two = np.sort(np.delete(d[k], k))[:2].sum()
        best = max(best, _mst_weight(rest) + float(two))
    return best


def digest(stdout: str, csv_text: str) -> str:
    h = hashlib.sha256()
    h.update(stdout.encode())
    h.update(b"\0")
    h.update(csv_text.encode())
    return h.hexdigest()[:12]


def parse_record(stdout: str) -> dict:
    """The ``key=value`` record printed by ``tsphnn solve``."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key] = value
    return out


def parse_csv(csv_text: str):
    return list(csv.DictReader(io.StringIO(csv_text)))


def _le(a: float, b: float) -> bool:
    return a <= b + REL_TOL * max(1.0, abs(b))


def check_solve(cmd, code, stdout, d, bound):
    """Contract checks on one ``solve`` result.

    Returns (problems, parsed) where ``parsed`` holds the lengths later
    cross-checked between methods on the same instance.
    """
    problems = []
    rec = parse_record(stdout)
    valid = rec.get("valid") == "true"
    if code == 1 and (cmd.method != "hnn" or valid):
        problems.append("exit 1 is only an outcome for an invalid hnn grid")
    elif code not in (0, 1):
        problems.append(f"exit code {code}")
    if code == 0 and not valid:
        problems.append("exit 0 without a valid tour")
    if rec.get("method") != cmd.method or int(rec.get("n", -1)) != d.shape[0]:
        problems.append("record does not echo the method and instance size")
    parsed = {"valid": valid}
    if valid:
        order = [int(v) for v in rec["tour"].split(",")]
        if sorted(order) != list(range(d.shape[0])):
            problems.append("tour is not a permutation")
            return problems, parsed
        length = float(rec["length"])
        if not math.isclose(length, closed_length(d, order), rel_tol=REL_TOL):
            problems.append("reported length differs from the re-scored tour")
        if not _le(bound, length):
            problems.append("length below the 1-tree lower bound")
        parsed["length"] = length
    if cmd.method == "hybrid" and valid:
        sa_len = float(rec["sa_length"])
        start_len = float(rec["sa_start_length"])
        if not (_le(parsed["length"], sa_len) and _le(sa_len, start_len)):
            problems.append("hybrid chain final <= sa <= sa_start broken")
        parsed["hnn_valid"] = rec.get("hnn_valid") == "true"
    return problems, parsed


def check_sweep(cmd, code, stdout, csv_text, bound):
    """Contract checks on one ``sweep`` result and its CSV rows."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    rows = parse_csv(csv_text)
    if len(rows) != cmd.cells:
        problems.append(f"{len(rows)} CSV rows for {cmd.cells} cells")
    for row in rows:
        if int(row["trials"]) != cmd.trials:
            problems.append(f"{row['cell']}: trials {row['trials']}")
        if not 0.0 <= float(row["success_rate"]) <= 1.0:
            problems.append(f"{row['cell']}: success rate out of range")
        if row["best"]:
            best, mean, worst = (float(row[k]) for k in ("best", "mean", "worst"))
            if not (_le(best, mean) and _le(mean, worst)):
                problems.append(f"{row['cell']}: best <= mean <= worst broken")
            if not _le(bound, best):
                problems.append(f"{row['cell']}: best below the 1-tree lower bound")
        if not stdout.count(f"{float(row['C']):>6g} {float(row['D']):>6g} "):
            problems.append(f"{row['cell']}: missing from the table")
    return problems, rows


def cross_check(results):
    """exact <= every method, and 2opt, 3opt <= greedy, on one instance.

    ``results`` is a list of (cmd, parsed) for the solve commands of one
    instance; returns {command id: [problem, ...]}.
    """
    lengths = {}
    for cmd, parsed in results:
        if "length" in parsed:
            lengths.setdefault(cmd.method, []).append((cmd, parsed["length"]))
    problems = {}
    for _, optimum in lengths.get("exact", []):
        for entries in lengths.values():
            for cmd, length in entries:
                if not _le(optimum, length):
                    problems.setdefault(cmd.cid, []).append("shorter than exact")
    for _, greedy in lengths.get("greedy", []):
        for method in ("2opt", "3opt"):
            for cmd, length in lengths.get(method, []):
                if not _le(length, greedy):
                    problems.setdefault(cmd.cid, []).append("longer than greedy")
    return problems
