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
