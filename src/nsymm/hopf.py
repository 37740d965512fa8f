"""The two coproducts, the counit, and primitivity testing.

NSYMM sends the degree-n generator to sum_{i+j=n} Z_i (x) Z_j (index 0
meaning the unit); LIEHOPF makes every generator primitive.  Both
extend to words multiplicatively and to polynomials linearly.
:func:`coproduct` evaluates that morphism with ``poly._evaluate``: its
first pass finds the quotient graph of the support, read from the
prefix, so words that share a prefix share its work and the quotients
below prefixes that are equal up to a scalar are evaluated once, and
its second pass keeps each image as a term map of (num, den) pairs,
multiplied by ``kernels.mul_tensor_into``.  The coproducts of several
polynomials can be taken in one evaluation (``_coproducts``), so the
quotients are shared across them too.  The suites hand over the quotient
graph of a family's recursion instead (``_graph_coproducts``), which
walks no word and keeps each image as dense blocks indexed by
composition rank.  :func:`primitivity_defect` subtracts
p (x) 1 + 1 (x) p from a fresh coproduct in place.  On blocks
(``_primitive_block_residue``), p's block of weight n is itself the
block (n, 0) of p (x) 1 and (0, n) of 1 (x) p, so the suites compare
whole blocks and decode only a mismatch.  The word-by-word coproduct
``_word_coproduct`` serves the coassociativity check and the
quasi-shuffle duality.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache

from ._backend import kernels as _k
from .config import resolve_limit, DegreeOverflowError
from .poly import NCPoly, Tensor2, _block_morphism, _evaluate, _evaluate_graph, _scaled_product


class HopfFamily(enum.Enum):
    NSYMM = "nsymm"
    LIEHOPF = "liehopf"


@lru_cache(maxsize=None)
def _generator_coproduct(n: int, family: HopfFamily) -> dict:
    if family is HopfFamily.NSYMM:
        terms = {}
        for i in range(n + 1):
            left = (i,) if i else ()
            right = (n - i,) if n - i else ()
            terms[(left, right)] = (1, 1)
        return terms
    return {((n,), ()): (1, 1), ((), (n,)): (1, 1)}


@lru_cache(maxsize=65536)
def _word_coproduct(word, family: HopfFamily) -> dict:
    if not word:
        return {((), ()): (1, 1)}
    out = _generator_coproduct(word[0], family)
    for letter in word[1:]:
        out = _k.mul_tensor_terms(out, _generator_coproduct(letter, family))
    return out


def _check_degree(p: NCPoly, max_degree):
    bound = resolve_limit(max_degree)
    if p.degree > bound:
        raise DegreeOverflowError(
            f"polynomial degree {p.degree} exceeds the degree limit {bound}"
        )


def _tensor_unit(c):
    # the unit of the pair form on tensors: c times the empty pair of words
    return {((), ()): c} if c else {}


def _generator_coproduct_blocks(n: int, family: HopfFamily):
    """The coproduct of Z_n as a letter by shape ``(shapes, 1)``: its blocks' weights.

    Each term Z_i (x) Z_j is the tensor block of weights (i, j) with a
    single 1 in its last slot, where both one-part compositions come last,
    so only the shapes are returned: (i, n - i) for i = 0..n for NSYMM, and
    (0, n) and (n, 0) for LIEHOPF.  ``kernels.place_letter_blocks_into``
    places the other factor of a product at that slot; no dense block of
    the letter is built.
    """
    if family is HopfFamily.NSYMM:
        return [(i, n - i) for i in range(n + 1)], 1
    return [(0, n), (n, 0)], 1


def _coproducts(polys, family: HopfFamily, max_degree=None):
    """The coproducts of the polynomials, in order, from one shared evaluation.

    A quotient that several of the polynomials share, up to a scalar, is
    evaluated once; each coproduct is yielded as soon as it is formed.
    """

    def checked():
        for p in polys:
            _check_degree(p, max_degree)
            yield p._terms

    yield from map(
        Tensor2._raw,
        _evaluate(
            checked(),
            lambda letter: _generator_coproduct(letter, family),
            _scaled_product(_k.mul_tensor_into),
            _tensor_unit,
        ),
    )


def _graph_coproducts(graph, family: HopfFamily):
    """The coproducts of the roots of a quotient graph, in order, as dense blocks.

    ``graph`` is in the format of ``poly._evaluate``, built by a family
    from its recursion up to a degree it has checked; no word is walked.
    Each coproduct is yielded as pass 2 forms it, ``(blocks, den)``
    (``kernels.to_tensor_blocks``); ``Tensor2._from_blocks`` decodes one.
    The letters' coproducts are built by rank
    (:func:`_generator_coproduct_blocks`).
    """
    return _evaluate_graph(
        graph,
        lambda letter: _generator_coproduct_blocks(letter, family),
        *_block_morphism(_k.mul_tensor_blocks_into, (0, 0)),
    )


def coproduct(p: NCPoly, family: HopfFamily, max_degree=None) -> Tensor2:
    """Comultiplication, as an algebra morphism into the tensor square."""
    (result,) = _coproducts([p], family, max_degree)
    return result


def counit(p: NCPoly) -> Fraction:
    """The coefficient of the empty word."""
    return p.constant_term()


def _primitive_block_residue(p, delta) -> Tensor2:
    """delta - p (x) 1 - 1 (x) p, for delta the coproduct of p, both in dense blocks.

    p is ``(blocks, den)`` in word blocks.  Its block of weight g > 0 is
    also the block of p (x) 1 of weights (g, 0), one column, and the block
    of 1 (x) p of weights (0, g), one row; its constant term counts twice.
    """
    words, den = p

    def expected():
        for weight, block in words.items():
            if weight:
                yield (weight, 0), block
                yield (0, weight), block
            else:
                yield (0, 0), [2 * block[0]]

    return Tensor2._block_residue(delta, expected(), den)


def primitivity_defect(p: NCPoly, family: HopfFamily, max_degree=None) -> Tensor2:
    """coproduct(p) - p (x) 1 - 1 (x) p; zero exactly when p is primitive.

    The coproduct is fresh, so p (x) 1 + 1 (x) p, in which p's constant
    term counts twice, is subtracted from it in place.
    """
    delta = coproduct(p, family, max_degree)
    expected: dict = {}
    for word, pair in p._terms.items():
        if word:
            expected[(word, ())] = expected[((), word)] = pair
        else:
            expected[((), ())] = _k.rat_add(pair, pair)
    _k.add_scaled_into(delta._terms, expected, (-1, 1))
    return delta


def is_primitive(p: NCPoly, family: HopfFamily, max_degree=None) -> bool:
    return not primitivity_defect(p, family, max_degree)


def coassociativity_defect(p: NCPoly, family: HopfFamily, max_degree=None) -> dict:
    """(mu (x) id)mu(p) - (id (x) mu)mu(p) on triple-word keys.

    Returns a dict (a, b, c) -> Fraction of the nonzero discrepancies;
    empty means coassociativity holds for p.
    """
    two = coproduct(p, family, max_degree)
    acc: dict = {}
    for (left, right), pair in two._terms.items():
        for (a, b), inner in _word_coproduct(left, family).items():
            _k.add_scaled_into(acc, {(a, b, right): inner}, pair)
        for (b, c), inner in _word_coproduct(right, family).items():
            _k.add_scaled_into(acc, {(left, b, c): (-inner[0], inner[1])}, pair)
    return {key: Fraction(*pair) for key, pair in acc.items()}


def counit_law_defects(p: NCPoly, family: HopfFamily, max_degree=None):
    """Residuals of (eps (x) id)mu(p) = p = (id (x) eps)mu(p).

    Returns the pair of NCPoly residuals (left law, right law); both are
    zero exactly when the counit laws hold for p.
    """
    terms = coproduct(p, family, max_degree)._terms.items()
    # each (left, right) key is unique, so no two terms land on one word
    recovered_left = NCPoly._raw({right: pair for (left, right), pair in terms if not left})
    recovered_right = NCPoly._raw({left: pair for (left, right), pair in terms if not right})
    return recovered_left - p, recovered_right - p
