import random
from fractions import Fraction

import pytest

from nsymm import NCPoly
from nsymm.poly import _quotient_graph

_COEFFS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3))


def _trie_poly(rng, max_weight=8):
    """A polynomial with a constant term whose words share a few prefixes."""
    terms = {(): rng.choice(_COEFFS)}
    for _ in range(3):
        stem = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 2)))
        for _ in range(rng.randint(1, 5)):
            word = stem + tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 3)))
            if sum(word) <= max_weight:
                terms[word] = terms.get(word, 0) + rng.choice(_COEFFS)
    return NCPoly(terms)


@pytest.fixture(scope="session")
def trie_polys():
    """Forty seeded polynomials of degree at most 8 with shared prefixes.

    Repeated words add up, so some coefficients cancel to zero.
    """
    rng = random.Random(20111)
    return [_trie_poly(rng) for _ in range(40)]


def _stemmed(tail, *stems):
    """The terms of the sum over the stems s of s * tail: one quotient below each stem."""
    return {stem + word: coeff for stem in stems for word, coeff in tail.items()}


_TAIL = {(): 1, (2,): 2, (1, 2): Fraction(1, 2), (1, 2, 1): 3, (2, 1, 1): -1}


@pytest.fixture(scope="session")
def near_twin_polys():
    """Polynomials whose quotients below some prefixes are equal but for one term.

    Each repeats the quotient ``_TAIL`` below several prefixes and then
    changes one deep coefficient, or drops one word, below one of them,
    so a shared evaluation that merges quotients too eagerly goes wrong.
    """
    exact = _stemmed(_TAIL, (1,), (2,), (3, 1))
    deep_coefficient = dict(exact)
    deep_coefficient[(2, 1, 2, 1)] = 4
    missing_word = dict(exact)
    del missing_word[(3, 1, 2, 1, 1)]
    # the same quotient at two depths, and a prefix whose own coefficient differs
    nested = _stemmed(_TAIL, (1,), (1, 3), (2, 1))
    nested[(2, 1)] = Fraction(-5, 3)
    # the quotient below (1, 1) and (2, 1) is read by the different parents (1,) and (2,)
    shared_child = {(1, 1, 2): 1, (1, 3): 1, (2, 1, 2): 1, (2, 2): 1}
    return [
        NCPoly(terms)
        for terms in (exact, deep_coefficient, missing_word, nested, shared_child)
    ]


_MULTIPLES = (-1, 3, Fraction(-2, 7), Fraction(5, 2))
_STEMS = ((1,), (2,), (3,), (1, 2), (3, 1))


def _scaled_twins(rng):
    """Roots whose quotients below different stems are multiples of one another.

    Two seeded tails each sit below two stems, scaled by -1, 3, -2/7 or
    5/2, so some quotients are negative, integer and rational multiples
    of others.  After them come a multiple of a tail (a quotient of the
    roots before it), a multiple of the first root, a root that is a
    multiple of a tail but for one coefficient, the zero root and a
    constant root.
    """
    tails = [_trie_poly(rng, max_weight=4) for _ in range(2)]
    roots = []
    for _ in range(3):
        terms = {}
        for tail in tails:
            for stem in rng.sample(_STEMS, 2):
                scale = rng.choice(_MULTIPLES)
                for word, coeff in tail.items():
                    terms[stem + word] = terms.get(stem + word, 0) + scale * coeff
        roots.append(NCPoly(terms))
    near_miss = dict(tails[1].scale(rng.choice(_MULTIPLES)).items())
    near_miss[max(near_miss)] += 1
    roots += [
        tails[0].scale(rng.choice(_MULTIPLES)),
        roots[0].scale(rng.choice(_MULTIPLES)),
        NCPoly(near_miss),
        NCPoly.zero(),
        NCPoly.scalar(rng.choice(_COEFFS)),
    ]
    return roots


@pytest.fixture(scope="session")
def scaled_twin_roots():
    """Eight seeded root lists for one shared evaluation each (see _scaled_twins)."""
    rng = random.Random(20118)
    return [_scaled_twins(rng) for _ in range(8)]


@pytest.fixture
def suffix_graph():
    """The quotient graph of term maps read from the suffix, for pass 2.

    Pass 1 reads words from the prefix; this hands it the reversed words
    and flags its graph ``from_suffix``, so pass 2 evaluates the roots
    themselves with each child as the left factor of its product.
    """

    def graph(roots):
        _, nodes, root_ids = _quotient_graph(
            {word[::-1]: pair for word, pair in terms.items()} for terms in roots
        )
        return True, nodes, root_ids

    return graph


@pytest.fixture
def record_scalars(monkeypatch):
    """Patch module.name, a product_into(acc, x, y, c), to record each scalar c."""

    def record(module, name):
        scalars = []
        real = getattr(module, name)

        def product_into(acc, x, y, c=(1, 1)):
            scalars.append(c)
            return real(acc, x, y, c)

        monkeypatch.setattr(module, name, product_into)
        return scalars

    return record


@pytest.fixture
def record_ratios(monkeypatch):
    """Patch module.name, a morphism of pass 2, to record each product's ratio.

    ``module.name(...)`` returns ``(image, combine, finish)``, or
    ``(combine, finish)`` over dense blocks, and ``combine`` takes one
    factor ``(x, y, ratio)`` per edge.  The wrapper records the ratio of
    each factor whose two images are nonzero: one per product.  An image
    is a term map in the pair form and ``(blocks, den)`` over dense
    blocks.
    """

    def nonzero(image):
        return bool(image[0] if type(image) is tuple else image)

    def record(module, name):
        ratios = []
        real = getattr(module, name)

        def morphism(*args):
            *image, combine, finish = real(*args)

            def recording(constant, factors):
                ratios.extend(ratio for x, y, ratio in factors if nonzero(x) and nonzero(y))
                return combine(constant, factors)

            return *image, recording, finish

        monkeypatch.setattr(module, name, morphism)
        return ratios

    return record


@pytest.fixture
def scalar_kinds():
    """The kinds of the scalars: negative, integer other than +-1, non-integer."""

    def kinds(scalars):
        found = set()
        for n, d in scalars:
            if n < 0:
                found.add("negative")
            if d == 1 and abs(n) > 1:
                found.add("integer")
            if d > 1:
                found.add("fraction")
        return found

    return kinds
