"""Double cyclic codes of length (r, s) over Z4.

Exact tooling for the quaternary double cyclic code family: canonical
generator quintuples, minimal generating sets and sizes, Gray map and
Lee weight analytics, dual-code construction (by theorem, for every
code), and exhaustive generator-space search.  All arithmetic is
exact.
"""

from .code import (
    CodeVector,
    DoubleCyclicCode,
    canonicalize_ideal,
    code_size,
    contains,
    from_spec_dict,
    generator_matrix,
    minimal_generating_set,
    shift_T,
    spec_dict,
    tau,
    tau_inv,
    validate,
)
from .dual import (
    DualReport,
    dual_brute_force,
    dual_free,
    dual_report,
    inner_product,
    orthogonal_all_shifts,
    phi_map,
    residue_dual_check,
)
from .errors import NotFree
from .gray import (
    GrayImageParams,
    LeeEnumerator,
    gray_image_params,
    gray_map,
    lee_enumerator,
    lee_weight,
)
from .linalg import HowellForm, MatZ4, howell, kernel, membership, span_equal
from .search import SearchReport, SearchResult, divisor_lattice
from .search import search as search_codes

__version__ = "0.1.0"

__all__ = [
    "CodeVector", "DoubleCyclicCode", "DualReport", "GrayImageParams",
    "HowellForm", "LeeEnumerator", "MatZ4", "NotFree", "SearchReport",
    "SearchResult", "canonicalize_ideal", "code_size", "contains",
    "divisor_lattice", "dual_brute_force", "dual_free", "dual_report",
    "from_spec_dict", "generator_matrix", "gray_image_params", "gray_map",
    "howell", "inner_product", "kernel", "lee_enumerator", "lee_weight",
    "membership", "minimal_generating_set", "orthogonal_all_shifts", "phi_map",
    "residue_dual_check", "search_codes", "shift_T", "span_equal", "spec_dict",
    "tau", "tau_inv", "validate",
]
