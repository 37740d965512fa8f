"""Newton primitives and the expansion of the generators in them.

The left and right primitives are defined by the recursions

    P_n  = n*Z_n - (Z_{n-1} P_1 + Z_{n-2} P_2 + ... + Z_1 P_{n-1})
    P'_n = n*Z_n - (P'_1 Z_{n-1} + P'_2 Z_{n-2} + ... + P'_{n-1} Z_1)

with the closed form for the left one summing (-1)^(m+1) * (last part)
over all compositions of n.  Inverting the right recursion expresses
Z_n in the P' alphabet; the same expansion has a closed form whose
coefficient on a word is the product of reciprocal suffix sums
(:func:`c_coeff`).  Both expansion paths are exposed and must agree.

Each recursion is also a quotient graph in the format of
``poly._evaluate``, with two nodes per degree: the quotient of P_n below
its first letter a < n is -P_{n-a} (above its last letter, for P'_n),
and that of z_in_pprime(n) below i < n is z_in_pprime(n - i) / n.  The
suites hand these graphs to the evaluator, which then runs the
recursion's n(n + 1)/2 products without walking the 2^(n-1) words of a
degree.  The term maps read the same steps off the graph, node by node,
with each letter as itself; the closed forms stay independent of both,
and the primitivity suite checks the coproducts of the graphs against
the closed form of P_n as a dense block (:func:`_explicit_blocks`).

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

_ONE = (1, 1)
_MINUS_ONE = (-1, 1)


# Each family is given by its recursion, as a quotient graph (the format
# of ``poly._evaluate``): below its first letter a < n (above its last, for
# the right primitives) member n has ratio(n) times member n - a as its
# quotient, and below the letter n the constant(n).  ``step(n)`` gives
# (constant(n), ratio(n)).


def _primitive_step(n: int):
    # P_n = n Z_n - sum_a Z_a P_{n-a}, and the same read from the suffix
    return (n, 1), _MINUS_ONE


def _inversion_step(n: int):
    # Z_n = (P'_n + sum_i P'_i Z_{n-i}) / n, the right recursion solved for Z_n
    return (1, n), (1, n)


def _graph(step, top: int, from_suffix: bool = False):
    """The quotient graph of a family's members 1..top, as its recursion gives it.

    Node 2n - 2 is the constant(n) and node 2n - 1 member n, so each
    member comes right after the nodes it reads.
    """
    nodes: list = []
    members: list = []
    for n in range(1, top + 1):
        constant, ratio = step(n)
        nodes.append((constant,))
        edges = [(a, members[n - a - 1], ratio) for a in range(1, n)]
        nodes.append((None, *edges, (n, len(nodes) - 1, _ONE)))
        members.append(len(nodes) - 1)
    return from_suffix, nodes, members


def _p_left_graph(top: int):
    return _graph(_primitive_step, top)


def _p_right_graph(top: int):
    return _graph(_primitive_step, top, from_suffix=True)


def _z_in_pprime_graph(top: int):
    return _graph(_inversion_step, top)


def _member(step, family, n: int, from_suffix: bool = False) -> NCPoly:
    """Member n of a family: node n of its graph with each letter read as itself.

    The children are the family's cached lower members, taken in
    increasing degree, so the recursion stays one level deep.
    """
    constant, ratio = step(n)
    acc = {(n,): constant}
    for a in range(n - 1, 0, -1):
        letter, child = {(a,): ratio}, family(n - a)._terms
        if from_suffix:
            _k.mul_word_into(acc, child, letter)
        else:
            _k.mul_word_into(acc, letter, child)
    return NCPoly._raw(acc)


@lru_cache(maxsize=None)
def _p_left(n: int) -> NCPoly:
    return _member(_primitive_step, _p_left, n)


@lru_cache(maxsize=None)
def _p_right(n: int) -> NCPoly:
    return _member(_primitive_step, _p_right, n, from_suffix=True)


@lru_cache(maxsize=None)
def _z_in_pprime(n: int) -> PBasisPoly:
    return _member(_inversion_step, _z_in_pprime, n)


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


def _explicit_blocks(n: int, from_suffix: bool = False):
    """The closed form of a primitive of degree n as dense word blocks ``(blocks, 1)``.

    On each composition w of n, in the order of ``compositions_of``, the
    left primitive has (-1)^(m+1) times the last part of w, m its length,
    and the right one, its reversal, the same times the first part.
    """
    end = 0 if from_suffix else -1
    return {n: [(1 if len(w) % 2 else -1) * w[end] for w in compositions_of(n)]}, 1


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
