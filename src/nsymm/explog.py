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
evaluator runs it over dense blocks with one denominator (see "Image
forms" in ``poly._evaluate``), so no product takes a gcd; the letter
images are built straight from the length coefficients, n!/m! over n!
and (-1)^(m+1) lcm(1..n)/m over lcm(1, ..., n), and the coalgebra check
reads the coproducts as blocks, against the outer products of those
blocks.  The term maps z_of_u(n) and u_of_z(n), which iso does not
build, are built straight from their coefficient pairs, which are in
lowest terms, and stay the independent closed forms of the graphs.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, repeat
from math import comb, factorial, lcm
from operator import mul

from .config import check_index
from .hopf import HopfFamily, _graph_coproducts
from .poly import NCPoly, Tensor2, _block_substitutions
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


def _blocks_by_length(n: int, coefficient):
    """The expansion of degree n with coefficient(m) on each word of length m, as dense blocks.

    ``(blocks, den)`` in word blocks (``kernels.to_word_blocks``), built
    from the m coefficients over the lcm of their denominators: n!/m! over
    n! for z_of_u, and (-1)^(m+1) lcm(1..n)/m over lcm(1, ..., n) for
    u_of_z.
    """
    pairs = [coefficient(m) for m in range(1, n + 1)]
    den = lcm(*(d for _, d in pairs))
    nums = [0] + [num * (den // d) for num, d in pairs]
    return {n: list(map(nums.__getitem__, map(len, compositions_of(n))))}, den


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
    evaluations run over dense blocks, with the letter images built from
    the length coefficients (:func:`_blocks_by_length`), so no term map of
    an expansion is built.  The round trips are decoded to term maps as
    they are yielded, which costs one term each when they hold; the
    coproducts stay in blocks, which :func:`_coalgebra_defect` compares
    with the image block by block.  At degree 16, in a fresh process,
    ``nsymm verify iso`` takes 0.7-1.0 s and 49 MB of own peak
    (``VmHWM``).
    """
    check_index(max_degree, max_degree, what="max_degree")
    report = Report(suite="iso", max_degree=max_degree)
    degrees = range(1, max_degree + 1)
    exps = {k: _blocks_by_length(k, _exp_coefficient) for k in degrees}
    logs = {k: _blocks_by_length(k, _log_coefficient) for k in degrees}
    z_round_trips = _block_substitutions(_z_of_u_graph(max_degree), logs.__getitem__)
    u_round_trips = _block_substitutions(_u_of_z_graph(max_degree), exps.__getitem__)
    lhs = _graph_coproducts(_z_of_u_graph(max_degree), HopfFamily.LIEHOPF)
    for n in degrees:
        report.timed(
            "round-trip Z->U->Z",
            n,
            lambda: NCPoly._from_blocks(next(z_round_trips)) - NCPoly.generator(n),
        )
        report.timed(
            "round-trip U->Z->U",
            n,
            lambda: NCPoly._from_blocks(next(u_round_trips)) - NCPoly.generator(n),
        )
        report.timed("coalgebra morphism", n, lambda: _coalgebra_defect(n, next(lhs)))
    return report


def _coalgebra_defect(n: int, lhs) -> Tensor2:
    """lhs minus the image of the binomial coproduct of Z_n.

    lhs is the primitive-generator coproduct of z_of_u(n) in dense tensor
    blocks, ``(blocks, den)``.  The image is the sum over i of
    z_of_u(i) (x) z_of_u(n - i), with z_of_u(0) = 1.  Over n! it has one
    block per i, of weights (i, n - i), with n!/(a! b!) on a pair of words
    of lengths a and b: the outer product of the blocks of the two factors
    over i! and (n - i)!, times C(n, i).  Row p of that block is
    C(n, i) * left[p] * right, and left[p] takes one value per word length,
    so each block is built from at most i distinct rows.
    ``Tensor2._block_residue`` compares the two block by block and decodes
    only the mismatches.
    """
    factors = [[1]] + [_blocks_by_length(i, _exp_coefficient)[0][i] for i in range(1, n + 1)]

    def expected():
        for i in range(n + 1):
            left, right = factors[i], factors[n - i]
            scale = comb(n, i)
            rows = {value: list(map(mul, right, repeat(scale * value))) for value in set(left)}
            yield (i, n - i), list(chain.from_iterable(map(rows.__getitem__, left)))

    return Tensor2._block_residue(lhs, expected(), factorial(n))
