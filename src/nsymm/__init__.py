"""Exact-arithmetic calculator for noncommutative symmetric functions.

Core layers: free-algebra words and polynomials over exact rationals
(poly, words), the two coproducts and primitivity (hopf), Newton
primitives and generator expansions (newton), the exp/log change of
generators (explog), the Hasse-Schmidt derivation calculus on concrete
test algebras (hsops), the quasi-shuffle dual (qsymm), serialization
(serialize), verification suites (suites), and a CLI (cli).

Every layer, the Hasse-Schmidt calculus and the JSON codecs included,
stores exact rationals one way: normalized (num, den) int pairs in term
maps, merged by one pure-Python kernel module (nsymm._core_py);
fractions.Fraction appears only at the public face.
"""

from ._backend import BACKEND, backend_name
from .config import (
    DEFAULT_MAX_DEGREE,
    DegreeOverflowError,
    degree_limit,
    max_degree,
    set_max_degree,
)
from .explog import expand_u_in_z, expand_z_in_u, u_of_z, verify_iso, z_of_u
from .hopf import (
    HopfFamily,
    coassociativity_defect,
    coproduct,
    counit,
    counit_law_defects,
    is_primitive,
    primitivity_defect,
)
from .hsops import (
    HSFamily,
    LinMap,
    NotADerivationError,
    TestAlgebra,
    d_from_delta,
    d_from_partial,
    delta_from_d,
    derivation_defect,
    free_hs_extend,
    free_word_algebra,
    hs_defect,
    inner_derivation,
    is_derivation,
    is_hs,
    operator_from_word_poly,
    partial_from_d,
    taylor_hs,
    truncated_polynomial_algebra,
    upper_triangular_algebra,
)
from .newton import (
    PBasisPoly,
    c_coeff,
    newton_p_explicit,
    newton_p_left,
    newton_p_right,
    z_in_pprime,
    z_in_pprime_via_c,
)
from .poly import NCPoly, Tensor2, is_integral, ncp_add, ncp_mul, ncp_scale, tensor_mul
from .qsymm import (
    QSPoly,
    alpha,
    d_qsymm,
    deconcat,
    pairing,
    quasi_shuffle,
    quasi_shuffle_by_duality,
    verify_hs_qsymm,
)
from .reports import Check, Report
from .words import Composition, compositions_of, compositions_up_to, term_order_key, weight

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "backend_name",
    "DEFAULT_MAX_DEGREE",
    "DegreeOverflowError",
    "degree_limit",
    "max_degree",
    "set_max_degree",
    "Composition",
    "compositions_of",
    "compositions_up_to",
    "term_order_key",
    "weight",
    "NCPoly",
    "Tensor2",
    "is_integral",
    "ncp_add",
    "ncp_mul",
    "ncp_scale",
    "tensor_mul",
    "HopfFamily",
    "coproduct",
    "counit",
    "is_primitive",
    "primitivity_defect",
    "coassociativity_defect",
    "counit_law_defects",
    "PBasisPoly",
    "c_coeff",
    "newton_p_left",
    "newton_p_right",
    "newton_p_explicit",
    "z_in_pprime",
    "z_in_pprime_via_c",
    "z_of_u",
    "u_of_z",
    "expand_z_in_u",
    "expand_u_in_z",
    "verify_iso",
    "TestAlgebra",
    "LinMap",
    "HSFamily",
    "NotADerivationError",
    "is_derivation",
    "derivation_defect",
    "is_hs",
    "hs_defect",
    "taylor_hs",
    "delta_from_d",
    "d_from_delta",
    "partial_from_d",
    "d_from_partial",
    "free_hs_extend",
    "free_word_algebra",
    "truncated_polynomial_algebra",
    "upper_triangular_algebra",
    "inner_derivation",
    "operator_from_word_poly",
    "QSPoly",
    "pairing",
    "quasi_shuffle",
    "quasi_shuffle_by_duality",
    "deconcat",
    "alpha",
    "d_qsymm",
    "verify_hs_qsymm",
    "Check",
    "Report",
    "__version__",
]
