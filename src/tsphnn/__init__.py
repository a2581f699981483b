"""Euclidean TSP toolkit: Hopfield network, simulated annealing, hybrid
pipeline, exact and local-search baselines, and a benchmark harness."""

import types as _types

from .annealing import (
    SaConfig,
    SaTrace,
    acceptance_probability,
    anneal,
    swap_cities,
    temperature_at,
)
from .baselines import greedy_nearest_neighbor, three_opt, two_opt
from .builtin import BUILTIN_INSTANCES, get_builtin
from .errors import (
    DegenerateInstanceError,
    EnumerationTooLargeError,
    InstanceSizeError,
    InvalidArgumentError,
    InvalidTemperatureError,
    InvalidTourError,
    InvalidTourMatrixError,
    ParseError,
    TsphnnError,
)
from .hopfield import (
    HopfieldParams,
    HopfieldResult,
    WeightMatrix,
    build_weights,
    decode,
    energy,
    energy_terms,
    unit_update,
)
from .hopfield import run as run_hopfield
from .instance import (
    City,
    DistanceMatrix,
    Instance,
    distance_matrix,
    generate_random_instance,
    load_instance,
    normalize_distances,
    save_instance,
)
from .pipeline import (
    BenchmarkReport,
    CellStats,
    HybridReport,
    SolveReport,
    render_report,
    solve,
    solve_hybrid,
    sweep,
)
from .tour import (
    Tour,
    brute_force_optimum,
    canonicalize,
    is_valid_permutation_matrix,
    matrix_to_tour,
    tour_length,
    tour_to_matrix,
)

__version__ = "0.1.0"
__all__ = sorted(
    name for name, value in globals().items()
    if not (name.startswith("_") or isinstance(value, _types.ModuleType))
)
