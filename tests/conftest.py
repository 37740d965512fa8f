import random
from fractions import Fraction

import pytest

from nsymm import NCPoly

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
