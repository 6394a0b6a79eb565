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
    BipartiteMultigraph,
    ExtractionInfeasible,
    extract_exact_degree_subgraph,
    lift,
    lift_labels_to_realization,
    lift_to_realization,
    split_column,
    split_row,
    split_symbol,
)
from .circulant import (
    back_circulant_cell,
    build_circulant_outline,
    even_r_outline,
    odd_r_outline,
)
from .compose import (
    add_on_outline,
    amalgamate_outline_array,
    blow_up,
    sum_outline_arrays,
)
from .base import idempotent_square, ls_one_big, ls_uniform, two_size_fallback
from .engine import (
    ConstructionTrace,
    construct_ils,
    construct_m_equal,
    construct_main,
    select_t,
)
from .oracle import enumerate_partitions, find_realization_bruteforce

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
