"""The exp/log change of generators between the two Hopf structures.

Matching coefficients in  1 + Z_1 t + Z_2 t^2 + ... = exp(U_1 t + U_2 t^2 + ...)
gives, summing over compositions (r_1, ..., r_m) of n:

    z_of_u(n) = sum  U_{r_1}...U_{r_m} / m!
    u_of_z(n) = sum  (-1)^(m+1) Z_{r_1}...Z_{r_m} / m

Over the rationals these are mutually inverse and turn the generator-
primitive coproduct into the binomial one; :func:`verify_iso` checks
both facts mechanically at bounded degree.  A coefficient depends only
on the length m of its word, so the quotients of z_of_u(n) below one
first letter take 12 distinct values over n <= 12, and one shared
evaluation of the family takes 353 products where one evaluation per
degree takes 1,024.  Both expansions are built straight from their
coefficient pairs, which are in lowest terms.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from ._backend import kernels as _k
from .config import check_index
from .hopf import HopfFamily, _coproducts, _tensor_residue
from .poly import NCPoly, Tensor2, _substitutions
from .reports import Report
from .words import compositions_of


@lru_cache(maxsize=None)
def _z_of_u(n: int) -> NCPoly:
    # (1, m!) is in lowest terms
    return NCPoly._raw({word: (1, factorial(len(word))) for word in compositions_of(n)})


@lru_cache(maxsize=None)
def _u_of_z(n: int) -> NCPoly:
    # (+-1, m) is in lowest terms
    return NCPoly._raw(
        {word: (1 if len(word) % 2 else -1, len(word)) for word in compositions_of(n)}
    )


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

    Each of the three families (the two round trips and the coproducts)
    is evaluated in one shared evaluation over every n <= max_degree, so
    the record of degree n times only the quotients that degree n is the
    first to need.
    """
    check_index(max_degree, max_degree, what="max_degree")
    report = Report(suite="iso", max_degree=max_degree)
    degrees = range(1, max_degree + 1)
    zs = [z_of_u(n, max_degree) for n in degrees]
    us = [u_of_z(n, max_degree) for n in degrees]
    z_round_trips = _substitutions(zs, lambda k: u_of_z(k, max_degree))
    u_round_trips = _substitutions(us, lambda k: z_of_u(k, max_degree))
    lhs = _coproducts(zs, HopfFamily.LIEHOPF, max_degree)
    for n in degrees:
        report.timed(
            "round-trip Z->U->Z", n, lambda: next(z_round_trips) - NCPoly.generator(n)
        )
        report.timed(
            "round-trip U->Z->U", n, lambda: next(u_round_trips) - NCPoly.generator(n)
        )
        report.timed(
            "coalgebra morphism", n, lambda: _coalgebra_defect(n, next(lhs), max_degree)
        )
    return report


def _coalgebra_defect(n: int, lhs: Tensor2, max_degree: int) -> Tensor2:
    """lhs minus the image of the binomial coproduct of Z_n.

    lhs is the primitive-generator coproduct of z_of_u(n); the image is
    the sum over i of z_of_u(i) (x) z_of_u(n - i), with z_of_u(0) = 1,
    whose terms have disjoint keys, since their left weights i differ.
    """
    factors = [NCPoly.one()] + [z_of_u(i, max_degree) for i in range(1, n + 1)]

    def expected():
        for i in range(n + 1):
            right = factors[n - i]._terms
            for left_word, left_pair in factors[i]._terms.items():
                for right_word, right_pair in right.items():
                    yield (left_word, right_word), _k.rat_mul(left_pair, right_pair)

    return _tensor_residue(lhs._terms, expected)
