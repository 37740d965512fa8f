"""The exp/log change of generators between the two Hopf structures.

Matching coefficients in  1 + Z_1 t + Z_2 t^2 + ... = exp(U_1 t + U_2 t^2 + ...)
gives, summing over compositions (r_1, ..., r_m) of n:

    z_of_u(n) = sum  U_{r_1}...U_{r_m} / m!
    u_of_z(n) = sum  (-1)^(m+1) Z_{r_1}...Z_{r_m} / m

Over the rationals these are mutually inverse and turn the generator-
primitive coproduct into the binomial one; :func:`verify_iso` checks
both facts mechanically at bounded degree.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .config import check_index
from .hopf import HopfFamily, coproduct
from .poly import NCPoly, Tensor2
from .reports import Report
from .words import compositions_of


@lru_cache(maxsize=None)
def _z_of_u(n: int) -> NCPoly:
    terms = {}
    for word in compositions_of(n):
        terms[word] = (1, factorial(len(word)))
    return NCPoly(terms)


@lru_cache(maxsize=None)
def _u_of_z(n: int) -> NCPoly:
    terms = {}
    for word in compositions_of(n):
        m = len(word)
        terms[word] = (1 if m % 2 else -1, m)
    return NCPoly(terms)


def z_of_u(n: int, max_degree=None) -> NCPoly:
    """The degree-n generator of the binomial family, in the U alphabet."""
    check_index(n, max_degree)
    return _z_of_u(n)


def u_of_z(n: int, max_degree=None) -> NCPoly:
    """The degree-n primitive generator, in the Z alphabet."""
    check_index(n, max_degree)
    return _u_of_z(n)


def expand_z_in_u(p: NCPoly, max_degree=None) -> NCPoly:
    """Apply the morphism Z_n -> z_of_u(n) to a Z-alphabet polynomial."""
    bound = check_index(max(p.degree, 1), max_degree, what="polynomial degree")
    return p.substitute(lambda k: z_of_u(k, bound))


def expand_u_in_z(p: NCPoly, max_degree=None) -> NCPoly:
    """Apply the inverse morphism U_n -> u_of_z(n) to a U-alphabet polynomial."""
    bound = check_index(max(p.degree, 1), max_degree, what="polynomial degree")
    return p.substitute(lambda k: u_of_z(k, bound))


def verify_iso(max_degree: int) -> Report:
    """Check, degree by degree, that the change of generators is a Hopf iso.

    For every n <= max_degree: (a) substituting one direction into the
    other returns the generator exactly, both ways; (b) the coproduct of
    z_of_u(n) in the primitive-generator family equals the image of the
    binomial coproduct of Z_n under both legs of the morphism.  Failures
    are report content with witness terms, not exceptions.
    """
    check_index(max_degree, max_degree, what="max_degree")
    report = Report(suite="iso", max_degree=max_degree)
    for n in range(1, max_degree + 1):
        report.timed(
            "round-trip Z->U->Z",
            n,
            lambda: expand_u_in_z(z_of_u(n, max_degree), max_degree) - NCPoly.generator(n),
        )
        report.timed(
            "round-trip U->Z->U",
            n,
            lambda: expand_z_in_u(u_of_z(n, max_degree), max_degree) - NCPoly.generator(n),
        )
        report.timed("coalgebra morphism", n, lambda: _coalgebra_defect(n, max_degree))
    return report


def _coalgebra_defect(n: int, max_degree: int) -> Tensor2:
    """Primitive-generator coproduct of z_of_u(n) minus the image of the binomial one."""
    lhs = coproduct(z_of_u(n, max_degree), HopfFamily.LIEHOPF, max_degree)
    # the outer products have disjoint keys, since their left weights i differ
    rhs: dict = {}
    for i in range(n + 1):
        left = z_of_u(i, max_degree) if i else NCPoly.one()
        right = z_of_u(n - i, max_degree) if n - i else NCPoly.one()
        rhs.update(Tensor2.outer(left, right)._terms)
    return lhs - Tensor2._raw(rhs)
