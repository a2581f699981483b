"""Euclidean TSP toolkit: Hopfield network, simulated annealing, hybrid
pipeline, exact and local-search baselines, and a benchmark harness."""

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
    tour_length,
)
from .pipeline import (
    BenchmarkReport,
    CellStats,
    HybridReport,
    render_report,
    solve_hybrid,
    sweep,
)
from .tour import (
    Tour,
    brute_force_optimum,
    canonicalize,
    is_valid_permutation_matrix,
    matrix_to_tour,
    tour_to_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_INSTANCES",
    "BenchmarkReport",
    "CellStats",
    "City",
    "DegenerateInstanceError",
    "DistanceMatrix",
    "EnumerationTooLargeError",
    "HopfieldParams",
    "HopfieldResult",
    "HybridReport",
    "Instance",
    "InstanceSizeError",
    "InvalidArgumentError",
    "InvalidTemperatureError",
    "InvalidTourError",
    "InvalidTourMatrixError",
    "ParseError",
    "SaConfig",
    "SaTrace",
    "Tour",
    "TsphnnError",
    "WeightMatrix",
    "acceptance_probability",
    "anneal",
    "brute_force_optimum",
    "build_weights",
    "canonicalize",
    "decode",
    "distance_matrix",
    "energy",
    "energy_terms",
    "generate_random_instance",
    "get_builtin",
    "greedy_nearest_neighbor",
    "is_valid_permutation_matrix",
    "load_instance",
    "matrix_to_tour",
    "normalize_distances",
    "render_report",
    "run_hopfield",
    "save_instance",
    "solve_hybrid",
    "swap_cities",
    "sweep",
    "temperature_at",
    "three_opt",
    "tour_length",
    "tour_to_matrix",
    "two_opt",
    "unit_update",
]
