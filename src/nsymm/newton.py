"""Newton primitives and the expansion of the generators in them.

The left and right primitives are defined by the recursions

    P_n  = n*Z_n - (Z_{n-1} P_1 + Z_{n-2} P_2 + ... + Z_1 P_{n-1})
    P'_n = n*Z_n - (P'_1 Z_{n-1} + P'_2 Z_{n-2} + ... + P'_{n-1} Z_1)

with the closed form for the left one summing (-1)^(m+1) * (last part)
over all compositions of n.  Inverting the right recursion expresses
Z_n in the P' alphabet; the same expansion has a closed form whose
coefficient on a word is the product of reciprocal suffix sums
(:func:`c_coeff`).  Both expansion paths are exposed and must agree.

Outputs of the two ``z_in_pprime`` operations are plain NCPoly whose
words are read in the P' alphabet (PBasisPoly); everything else is in
the Z alphabet.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from ._backend import kernels as _k
from .config import check_index
from .poly import NCPoly
from .words import check_composition, compositions_of

# Words of these polynomials are read in the P' alphabet.
PBasisPoly = NCPoly

_MINUS_ONE = (-1, 1)


@lru_cache(maxsize=None)
def _p_left(n: int) -> NCPoly:
    acc = {(n,): (n, 1)}
    for k in range(1, n):
        _k.mul_word_into(acc, {(n - k,): _MINUS_ONE}, _p_left(k)._terms)
    return NCPoly._raw(acc)


@lru_cache(maxsize=None)
def _p_right(n: int) -> NCPoly:
    acc = {(n,): (n, 1)}
    for k in range(1, n):
        _k.mul_word_into(acc, _p_right(k)._terms, {(n - k,): _MINUS_ONE})
    return NCPoly._raw(acc)


@lru_cache(maxsize=None)
def _z_in_pprime(n: int) -> PBasisPoly:
    # solve the right recursion for Z_n:  Z_n = (P'_n + sum P'_i Z_{n-i}) / n
    acc = {(n,): (1, 1)}
    for i in range(1, n):
        _k.mul_word_into(acc, {(i,): (1, 1)}, _z_in_pprime(n - i)._terms)
    return NCPoly._raw(acc) / n


def newton_p_left(n: int, max_degree=None) -> NCPoly:
    check_index(n, max_degree)
    return _p_left(n)


def newton_p_right(n: int, max_degree=None) -> NCPoly:
    check_index(n, max_degree)
    return _p_right(n)


def newton_p_explicit(n: int, max_degree=None) -> NCPoly:
    """Closed form of the left primitive, one term per composition of n."""
    check_index(n, max_degree)
    terms = {}
    for word in compositions_of(n):
        sign = 1 if len(word) % 2 else -1
        terms[word] = (sign * word[-1], 1)
    return NCPoly._raw(terms)


def c_coeff(word) -> Fraction:
    """Product of reciprocal suffix sums of a nonempty composition."""
    word = check_composition(word)
    if not word:
        raise ValueError("c_coeff is undefined for the empty composition")
    coefficient = Fraction(1)
    suffix = sum(word)
    for part in word:
        coefficient /= suffix
        suffix -= part
    return coefficient


def z_in_pprime(n: int, max_degree=None) -> PBasisPoly:
    """Z_n expanded in the P' alphabet by recursive inversion."""
    check_index(n, max_degree)
    return _z_in_pprime(n)


def z_in_pprime_via_c(n: int, max_degree=None) -> PBasisPoly:
    """Z_n expanded in the P' alphabet by the closed-form coefficients."""
    check_index(n, max_degree)
    terms = {}
    for word in compositions_of(n):
        # c_coeff(word) is 1 over the product of the suffix sums: an integer
        # pair already in lowest terms, so no division is needed
        denominator, suffix = 1, n
        for part in word:
            denominator *= suffix
            suffix -= part
        terms[word] = (1, denominator)
    return NCPoly._raw(terms)
