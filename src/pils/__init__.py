"""Latin squares with prescribed pairwise disjoint subsquares.

Construction engine and verifier: build realizations of integer partitions
(including every partition whose three largest parts agree), reduce squares
to outline rectangles and lift them back, and cross-check against an
exhaustive small-order oracle.
"""

from .core import (
    Existence,
    GridError,
    InternalError,
    LatinSquare,
    OutlineRectangle,
    OutlineViolation,
    Partition,
    PartitionError,
    PreconditionError,
    RealizationError,
    SubsquareBlock,
    SubsquareCertificate,
    exists,
    is_latin,
    reduce,
    validate_outline,
    verify_realization,
    verify_subsquares,
)
from .lift import (
    ExtractionInfeasible,
    lift,
    lift_labels_to_realization,
    lift_to_realization,
)
from .circulant import (
    build_circulant_outline,
    even_r_outline,
    odd_r_outline,
)
from .compose import (
    add_on_outline,
    blow_up,
    sum_outline_arrays,
)
from .base import idempotent_square, ls_one_big, ls_uniform, two_size_fallback
from .engine import (
    ConstructionTrace,
    construct_ils,
    construct_m_equal,
    construct_main,
    construct_one_big,
    select_t,
)
from .oracle import enumerate_partitions, find_realization_bruteforce

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
