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
degree.  The graph is the one source of each family: the term maps are
the expansion of a member's graph, each letter read as itself, decoded
from dense blocks, and the suites read the same expansion as blocks.
The closed forms stay independent of the graphs: as term maps
(:func:`newton_p_explicit`, :func:`z_in_pprime_via_c`), and as dense
blocks built by a recursion on the first part (:func:`_explicit_blocks`,
:func:`_c_blocks`), which the suites compare block by block.

Outputs of the two ``z_in_pprime`` operations are plain NCPoly whose
words are read in the P' alphabet (PBasisPoly); everything else is in
the Z alphabet.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import factorial
from operator import mul

from ._backend import kernels as _k
from .config import check_index
from .poly import NCPoly, _graph_substitutions
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


def _top_member(graph) -> NCPoly:
    """The last member of a family's graph, expanded: each letter read as itself."""
    from_suffix, nodes, members = graph
    (member,) = _graph_substitutions((from_suffix, nodes, members[-1:]), NCPoly.generator)
    return member


# Each member is its graph's expansion on its own; these bounded caches only
# serve repeated calls.
@lru_cache(maxsize=16)
def _p_left(n: int) -> NCPoly:
    return _top_member(_p_left_graph(n))


@lru_cache(maxsize=16)
def _p_right(n: int) -> NCPoly:
    return _top_member(_p_right_graph(n))


@lru_cache(maxsize=16)
def _z_in_pprime(n: int) -> PBasisPoly:
    return _top_member(_z_in_pprime_graph(n))


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


def _block_by_first_part(n: int, factor):
    """The dense word block of weight n that is 1 on the empty word, and factor(m, f) times v on f v.

    The compositions f v of m are listed by their first part f, so the
    block of m is the blocks of m - f, each times factor(m, f), in turn;
    each block is built from the lower ones without listing a word.
    """
    blocks = [[1]]
    for m in range(1, n + 1):
        block = []
        for f in range(1, m + 1):
            block += map(mul, blocks[m - f], repeat(factor(m, f)))
        blocks.append(block)
    return blocks[n]


def _explicit_blocks(n: int, from_suffix: bool = False):
    """The closed form of a primitive of degree n as dense word blocks ``(blocks, 1)``.

    On each composition w of n, in the order of ``compositions_of``, the
    left primitive has (-1)^(m+1) times the last part of w, m its length,
    so minus the entry of v on f v, and m on (m); the right one is its
    reversal (``kernels.reverse_word_blocks``), the same times the first
    part.
    """
    left = {n: _block_by_first_part(n, lambda m, f: m if f == m else -1)}
    return (_k.reverse_word_blocks(left) if from_suffix else left), 1


def _c_blocks(n: int):
    """z_in_pprime_via_c(n) as dense word blocks ``(blocks, n!)``: n!/prod(suffix sums).

    The suffix sums of f v, of weight m, are m and those of v, so its
    entry is (m - 1)!/(m - f)! times that of v.  Every entry is an
    integer: the suffix sums are distinct elements of {1, ..., n}.
    """
    block = _block_by_first_part(n, lambda m, f: factorial(m - 1) // factorial(m - f))
    return {n: block}, factorial(n)


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
