"""Compositions: finite words of positive integers.

A composition doubles as a monomial index (the word Z_{i1}...Z_{im},
or its U- / P'- / M-basis reading) and as a composition of its weight.
The empty tuple is the unit monomial.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain

Composition = tuple[int, ...]


def check_composition(parts) -> Composition:
    """Coerce to a tuple and validate that every part is an int >= 1."""
    word = tuple(parts)
    for p in word:
        if not isinstance(p, int) or isinstance(p, bool) or p < 1:
            raise ValueError(f"composition parts must be integers >= 1, got {p!r}")
    return word


def weight(word: Composition) -> int:
    return sum(word)


def is_lyndon(word: Composition) -> bool:
    """Whether a composition is a Lyndon word over the ordered positive integers.

    That is: nonempty and lexicographically smaller than each of its proper
    suffixes, where a proper prefix counts as smaller than the word.
    """
    return bool(word) and all(word < word[i:] for i in range(1, len(word)))


def term_order_key(word: Composition):
    """The term order: by weight, then word length, then lexicographic.

    This is the one order used for serialization and rendering; it puts
    Z3 before Z1·Z2 before Z2·Z1 before Z1·Z1·Z1 within weight 3.
    """
    return (sum(word), len(word), word)


@lru_cache(maxsize=None)
def compositions_of(n: int) -> tuple[Composition, ...]:
    """All compositions of n, lexicographically ascending.

    2^(n-1) of them for n >= 1; just the empty composition for n = 0.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"compositions_of expects an integer >= 0, got {n!r}")
    if n == 0:
        return ((),)
    return tuple(
        (first,) + rest
        for first in range(1, n + 1)
        for rest in compositions_of(n - first)
    )


def composition_of_rank(n: int, rank: int) -> Composition:
    """``compositions_of(n)[rank]``, without listing the others.

    A composition of n is the subset of {1, ..., n-1} of the positions
    after which it is cut (Gelfand et al. 1995; Gessel 1984), and in
    lexicographic order it is cut after position s exactly when bit
    n-1-s of 2^(n-1) - 1 - rank is set.
    """
    count = 1 << (n - 1) if n else 1
    if not 0 <= rank < count:
        raise IndexError(f"rank {rank} outside the {count} compositions of {n}")
    if n == 0:
        return ()
    cuts = count - 1 - rank
    word, start = [], 0
    for s in range(1, n):
        if cuts >> (n - 1 - s) & 1:
            word.append(s - start)
            start = s
    word.append(n - start)
    return tuple(word)


def compositions_up_to(n: int) -> tuple[Composition, ...]:
    """All compositions of weight 0..n, in (weight, lex) order."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"compositions_up_to expects an integer >= 0, got {n!r}")
    return tuple(chain.from_iterable(compositions_of(k) for k in range(n + 1)))
