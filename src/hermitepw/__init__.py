"""Exact computation with Hermite pseudo-Wronskians and Maya diagrams:
shift-equivalence constants, minimal-order determinants, exceptional
Hermite families, and rational Painleve IV solutions."""

from .determinant import det
from .hermite import (
    conj_hermite_poly,
    equivalence_factor,
    hermite_poly,
    pseudo_wronskian,
    pure_conjugate_wronskian,
    verify_equivalence,
)
from .maya import BentPoint, MayaDiagram, Partition, rim
from .minorder import (
    durfee_symbol,
    inside_corners,
    min_order_after_insert,
    minimal_girth,
)
from .painleve import (
    gh_maya,
    min_order_gh,
    min_order_o,
    o_maya,
    piv_catalog,
    piv_solution_gh,
    piv_solution_o,
    three_cycle,
    verify_piv,
)
from .polys import IntPoly, RatFunc, count_real_roots, poly_gcd
from .xhermite import (
    XHermiteFamily,
    eigen_check,
    exceptional_hermite,
    min_order_form,
    weight_and_norm_check,
)

__version__ = "0.1.0"

__all__ = [
    "BentPoint", "IntPoly", "MayaDiagram", "Partition", "RatFunc",
    "XHermiteFamily", "conj_hermite_poly", "count_real_roots", "det",
    "durfee_symbol", "eigen_check", "equivalence_factor",
    "exceptional_hermite", "gh_maya", "hermite_poly",
    "inside_corners", "min_order_after_insert", "min_order_form",
    "min_order_gh", "min_order_o", "minimal_girth", "o_maya", "piv_catalog",
    "piv_solution_gh", "piv_solution_o", "poly_gcd",
    "pseudo_wronskian", "pure_conjugate_wronskian", "rim", "three_cycle",
    "verify_equivalence", "verify_piv", "weight_and_norm_check",
]
