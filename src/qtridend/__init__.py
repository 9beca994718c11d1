"""Exact computation in q-tridendriform bialgebras.

Four basis families are provided: surjection words ("st"), parking
functions ("pqsym"), planar reduced trees ("tree") and big
multipermutations ("mperm").  Each carries three partial products
(left, middle, right) whose sum with a q-weighted middle is
associative, together with a compatible coproduct.  All coefficients
are integer polynomials in q, held as their values at q = 2^64
(`qpoly`), or plain integers after specialization.
"""

from types import ModuleType as _ModuleType

from .qpoly import QPoly
from .linear import (
    Element,
    Tensor2,
    UNIT,
    LEFT,
    MIDDLE,
    RIGHT,
    STAR,
    KINDS,
    bilinear_extend,
    tensor_of,
    tensor_flatten,
    is_coassociative,
)
from .words import (
    std,
    park,
    is_parking,
    is_surjection,
    surjections,
    parking_functions,
    ndpf,
    run_compress,
)
from .st import st_product, st_product_oracle, st_coproduct, st_basis
from .pqsym import (
    pf_product,
    pf_product_oracle,
    pf_coproduct,
    alpha,
    iota,
    pirr_count,
    pf_basis,
)
from .trees import (
    LEAF,
    graft,
    corolla,
    leaves,
    tree_degree,
    enumerate_trees,
    tree_product,
    tree_coproduct,
)
from .mperm import (
    std_m,
    mpermutations,
    mperm_product,
    mperm_product_oracle,
    mperm_coproduct,
    phi,
    phi_element,
    lift_word,
)
from .algebras import (
    AlgebraHandle,
    get_algebra,
    ALGEBRA_NAMES,
    el_product,
    el_star,
    el_rtilde,
    el_coproduct,
    reduced_coproduct,
    compat_rhs,
    compat_holds,
)
from .brace import (
    brace,
    check_gvq,
    brace_relation_check,
    e_tri,
    e_tri_basis,
    e_tri_oracle,
    filtration_degree,
    is_primitive,
    reconstruct,
    omega_coproduct_check,
    primitive_rank,
    primitive_kernel_basis,
)
from .grammar import (
    parse_basis,
    parse_element,
    parse_tensor2,
    render_basis,
    render_element,
    render_tensor2,
    element_to_json,
    tensor2_to_json,
)

from .memo import CACHES as _CACHES

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every memo and enumeration cache of the package (the registry
    `qtridend.memo.CACHES`), so a long-lived process can bound its memory.
    Results computed afterwards are equal to those computed before."""
    for cache in _CACHES:
        cache.cache_clear()


# The public API is what the imports above bind: every public name, no submodule.
__all__ = [
    n for n, v in globals().items() if not n.startswith("_") and not isinstance(v, _ModuleType)
]
