"""The exp/log change of generators between the two Hopf structures.

Matching coefficients in  1 + Z_1 t + Z_2 t^2 + ... = exp(U_1 t + U_2 t^2 + ...)
gives, summing over compositions (r_1, ..., r_m) of n:

    z_of_u(n) = sum  U_{r_1}...U_{r_m} / m!
    u_of_z(n) = sum  (-1)^(m+1) Z_{r_1}...Z_{r_m} / m

Over the rationals these are mutually inverse and turn the generator-
primitive coproduct into the binomial one; :func:`verify_iso` checks
both facts mechanically at bounded degree.  A coefficient depends only
on the length m of its word, so the quotient of z_of_u(n) below a prefix
of length L and weight n - r depends only on (L, r).  These quotients,
shared across n, are the nodes of the quotient graph that
:func:`verify_iso` hands to the evaluator (``poly._evaluate``): over
n <= 12 it has 90 nodes, and the 12 with r = 1 are multiples of one
another, so each of iso's three evaluations takes 353 products, where
one evaluation per degree takes 1,024, and walks no word.  The
evaluator keeps each image as an integer map with one denominator, so
the round trips, which cancel to Z_n, take no gcd but one per term of
each root, and the coalgebra check reads the coproducts unreduced.  The
term maps are built straight from their coefficient pairs, which are in
lowest terms, and stay the independent closed forms of the graphs.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from ._backend import kernels as _k
from .config import check_index
from .hopf import HopfFamily, _graph_int_coproducts
from .poly import NCPoly, Tensor2, _graph_substitutions
from .reports import Report
from .words import compositions_of

_ONE = (1, 1)


def _exp_coefficient(m: int):
    # 1 / m!, in lowest terms
    return (1, factorial(m))


def _log_coefficient(m: int):
    # (-1)^(m+1) / m, in lowest terms
    return (1 if m % 2 else -1, m)


@lru_cache(maxsize=None)
def _z_of_u(n: int) -> NCPoly:
    return NCPoly._raw({word: _exp_coefficient(len(word)) for word in compositions_of(n)})


@lru_cache(maxsize=None)
def _u_of_z(n: int) -> NCPoly:
    return NCPoly._raw({word: _log_coefficient(len(word)) for word in compositions_of(n)})


def _graph(coefficient, top: int):
    """The quotient graph of the expansions of degrees 1..top (see ``poly._evaluate``).

    Below a prefix of length L and weight n - r, the quotient of the
    degree-n expansion is node (L, r): the sum over the compositions w of
    r of coefficient(L + len(w)) w.  It reads (L + 1, r - a) below the
    letter a, and node (L, 0) is the constant coefficient(L).  The nodes
    are shared across n and ordered by (L + r, -L), so each comes right
    before the first root that reads it, and root n is node (0, n).
    """
    ids: dict = {}
    nodes: list = []
    for total in range(1, top + 1):
        for length in range(total, -1, -1):
            left = total - length
            ids[length, left] = len(nodes)
            if left:
                edges = ((a, ids[length + 1, left - a], _ONE) for a in range(1, left + 1))
                nodes.append((None, *edges))
            else:
                nodes.append((coefficient(length),))
    return False, nodes, [ids[0, n] for n in range(1, top + 1)]


def _z_of_u_graph(top: int):
    return _graph(_exp_coefficient, top)


def _u_of_z_graph(top: int):
    return _graph(_log_coefficient, top)


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
    is evaluated in one shared evaluation over every n <= max_degree,
    from the quotient graph of the expansions, so the record of degree n
    times only the quotients that degree n is the first to need.  The
    letter images and the factors of the binomial coproduct are built
    before the evaluations start.  The round trips are reduced to term
    maps as they are yielded; the coproducts stay integer maps
    ``(ints, den)``, which :func:`_coalgebra_defect` compares with the
    image term by term, without a gcd.  At degree 15, in a fresh
    process, ``nsymm verify iso`` takes about 1.2-1.6 s and 86.2-86.5 MB
    of own peak (``VmHWM``), against 1.8-2.6 s and 96.5-96.9 MB when every
    product reduced its terms; at 16 it takes 3.0-3.2 s and 166 MB.
    """
    check_index(max_degree, max_degree, what="max_degree")
    report = Report(suite="iso", max_degree=max_degree)
    degrees = range(1, max_degree + 1)
    zs = [z_of_u(n, max_degree) for n in degrees]
    us = [u_of_z(n, max_degree) for n in degrees]
    z_round_trips = _graph_substitutions(_z_of_u_graph(max_degree), lambda k: us[k - 1])
    u_round_trips = _graph_substitutions(_u_of_z_graph(max_degree), lambda k: zs[k - 1])
    lhs = _graph_int_coproducts(_z_of_u_graph(max_degree), HopfFamily.LIEHOPF)
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


def _coalgebra_defect(n: int, lhs, max_degree: int) -> Tensor2:
    """lhs minus the image of the binomial coproduct of Z_n.

    lhs is the primitive-generator coproduct of z_of_u(n) as an integer
    map with one denominator, ``(ints, den)``; the image is the sum over
    i of z_of_u(i) (x) z_of_u(n - i), with z_of_u(0) = 1, whose terms
    have disjoint keys, since their left weights i differ.  A term of the
    image with coefficient num / d matches its lhs term ``have`` when
    have * d == den * num, which takes no gcd; num is 1 and d = a! b! on
    a key of words of lengths a and b.  Only a mismatch is reduced, into
    the residue, which is a normalized term map.  When every key of lhs is
    matched, the residue holds only the mismatched coefficients;
    otherwise the unmatched keys are found in a second walk of the image.
    """
    ints, den = lhs
    factors = [NCPoly.one()] + [z_of_u(i, max_degree) for i in range(1, n + 1)]

    def expected():
        for i in range(n + 1):
            right = factors[n - i]._terms
            for left_word, (left_num, left_den) in factors[i]._terms.items():
                for right_word, (right_num, right_den) in right.items():
                    yield (left_word, right_word), left_num * right_num, left_den * right_den

    residue: dict = {}
    matched = 0
    for key, num, d in expected():
        have = ints.get(key)
        if have is None:
            residue[key] = _k.rat_norm(-num, d)
        else:
            matched += 1
            if have * d != den * num:
                residue[key] = _k.rat_norm(have * d - den * num, den * d)
    if matched < len(ints):
        keys = {key for key, _, _ in expected()}
        residue.update(
            (key, _k.rat_norm(have, den)) for key, have in ints.items() if key not in keys
        )
    return Tensor2._raw(residue)
