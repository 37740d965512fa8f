"""Noncommutative polynomials and tensor squares over exact rationals.

An :class:`NCPoly` is a finite rational-linear combination of words
(compositions); the product is bilinear word concatenation, so this is
the free associative algebra.  The same container serves every word
alphabet in this package (Z, U, P'); which alphabet a value lives in is
a property of the operation that produced it, not of the container.

A :class:`Tensor2` is a combination of *pairs* of words: an element of
the tensor square, with the componentwise product
(v (x) w)(v' (x) w') = vv' (x) ww'.

Values are immutable after construction; all operations return fresh
objects.  Internally coefficients are normalized (num, den) int pairs
handled by the kernel backend; the public face is fractions.Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from ._backend import kernels as _k
from .words import check_composition, term_order_key, weight


def coeff_pair(value) -> tuple[int, int]:
    """Coerce an int / Fraction / "n/d" string / (num, den) pair."""
    if isinstance(value, int) and not isinstance(value, bool):
        return (value, 1)
    if isinstance(value, Fraction):
        return (value.numerator, value.denominator)
    if isinstance(value, str):
        f = Fraction(value)
        return (f.numerator, f.denominator)
    if isinstance(value, tuple) and len(value) == 2:
        num, den = value
        if not all(isinstance(c, int) and not isinstance(c, bool) for c in value):
            raise TypeError(f"(num, den) components must be ints: {value!r}")
        return _k.rat_norm(num, den)
    raise TypeError(f"not an exact rational: {value!r}")


def _fraction(pair) -> Fraction:
    # pairs are already normalized; Fraction re-checks cheaply
    return Fraction(pair[0], pair[1])


class _TermMap:
    """Shared plumbing for canonical linear combinations."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        mapping = {} if terms is None else dict(terms)
        clean = {}
        for key, value in mapping.items():
            pair = coeff_pair(value)
            if pair[0] != 0:
                clean[self._check_key(key)] = pair
        self._terms = clean

    @classmethod
    def _raw(cls, terms: dict):
        # internal fast path: terms already canonical
        self = object.__new__(cls)
        self._terms = terms
        return self

    @classmethod
    def zero(cls):
        return cls._raw({})

    @staticmethod
    def _check_key(key):
        raise NotImplementedError

    @staticmethod
    def _sort_key(key):
        raise NotImplementedError

    def items(self):
        """Term-ordered list of (key, Fraction) pairs."""
        return [
            (key, _fraction(self._terms[key]))
            for key in sorted(self._terms, key=self._sort_key)
        ]

    def support(self):
        return tuple(sorted(self._terms, key=self._sort_key))

    def coeff(self, key) -> Fraction:
        pair = self._terms.get(self._check_key(key))
        return _fraction(pair) if pair is not None else Fraction(0)

    def is_integral(self) -> bool:
        """True iff every coefficient has denominator 1."""
        return all(pair[1] == 1 for pair in self._terms.values())

    def __len__(self):
        return len(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash((type(self).__name__, frozenset(self._terms.items())))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)._raw(_k.add_terms(self._terms, other._terms))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)._raw(_k.sub_terms(self._terms, other._terms))

    def __neg__(self):
        return type(self)._raw(_k.neg_terms(self._terms))

    def scale(self, value):
        return type(self)._raw(_k.scale_terms(self._terms, coeff_pair(value)))

    def __rmul__(self, value):
        if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
            return self.scale(value)
        return NotImplemented

    def __truediv__(self, value):
        pair = coeff_pair(value)
        if pair[0] == 0:
            raise ZeroDivisionError("division of a polynomial by zero")
        return self.scale((pair[1], pair[0]))

    def __repr__(self):
        body = " + ".join(
            f"{coeff}*{list(key)}" for key, coeff in self.items()
        )
        return f"{type(self).__name__}({body or '0'})"


class NCPoly(_TermMap):
    """Element of the free associative algebra on positive-integer letters."""

    __slots__ = ()

    @staticmethod
    def _check_key(key):
        return check_composition(key)

    @staticmethod
    def _sort_key(key):
        return term_order_key(key)

    @classmethod
    def one(cls):
        return cls._raw({(): (1, 1)})

    @classmethod
    def scalar(cls, value):
        pair = coeff_pair(value)
        return cls._raw({(): pair} if pair[0] else {})

    @classmethod
    def word(cls, parts, coefficient=1):
        pair = coeff_pair(coefficient)
        if pair[0] == 0:
            return cls.zero()
        return cls._raw({check_composition(parts): pair})

    @classmethod
    def generator(cls, n: int):
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"generator index must be an integer >= 1, got {n!r}")
        return cls._raw({(n,): (1, 1)})

    @property
    def degree(self) -> int:
        """Max weight over stored words; -1 for the zero polynomial."""
        return max(map(weight, self._terms), default=-1)

    def __mul__(self, other):
        if isinstance(other, NCPoly):
            return NCPoly._raw(_k.mul_word_terms(self._terms, other._terms))
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be an integer >= 0")
        result = NCPoly.one()
        for _ in range(exponent):
            result = result * self
        return result

    def constant_term(self) -> Fraction:
        return self.coeff(())

    def reverse_words(self) -> "NCPoly":
        """Reverse every word (the concatenation anti-automorphism)."""
        return NCPoly._raw({key[::-1]: pair for key, pair in self._terms.items()})

    def substitute(self, images) -> "NCPoly":
        """Apply the algebra morphism sending letter n to images(n).

        ``images`` is a callable or mapping from letter to NCPoly; the
        image of a word is the product of its letters' images.  Words
        that share a prefix share its work, and equal quotients below
        different prefixes are evaluated once (see :func:`_evaluate`).
        """
        (result,) = _substitutions([self], images)
        return result


def _substitutions(polys, images):
    """The images of the polynomials under one substitution, in order.

    All of them come from one :func:`_evaluate` call, so a quotient that
    several of them share is evaluated once; each image is yielded as
    soon as it is formed.
    """
    lookup = images.__getitem__ if isinstance(images, Mapping) else images
    return map(
        NCPoly._raw,
        _evaluate(
            (p._terms for p in polys),
            lambda letter: lookup(letter)._terms,
            _k.mul_word_into,
            lambda c: {(): c} if c else {},
        ),
    )


def _walks_from_suffix(roots) -> bool:
    """Whether the roots have fewer distinct one-letter suffix than prefix quotients."""
    below_first: set = set()
    below_last: set = set()
    for terms in roots:
        firsts: dict = {}
        lasts: dict = {}
        for word, pair in terms.items():
            if word:
                firsts.setdefault(word[0], []).append((word[1:], pair))
                lasts.setdefault(word[-1], []).append((word[:-1], pair))
        below_first.update(map(frozenset, firsts.values()))
        below_last.update(map(frozenset, lasts.values()))
    return len(below_last) < len(below_first)


def _evaluate(roots, image, product_into, unit):
    """Images of word-keyed term maps under one algebra morphism, in order.

    ``roots`` is a sequence of term maps and ``image(letter)`` gives a
    letter's image.  ``unit(c)`` returns a fresh accumulator holding c
    times the image of the empty word (an empty one for ``c`` None), and
    ``product_into(acc, x, y)`` adds x * y to an accumulator in place.
    Images need not be term maps (``hsops`` uses lists of map columns).
    This is a generator: it yields the image of each root in order, as
    soon as that image is formed.

    Writing Q_w for the quotient of a root below the prefix w (the terms
    c_{wv} v), the image is computed by the Horner rule

        image(Q_w) = unit(c_w) + sum_a image(a) * image(Q_{wa})

    over the trie of the support, with cancellation at every node.  Equal
    quotients have equal images, so each distinct quotient is evaluated
    once, across all the roots, in two passes:

    1. The words of each root are walked in lexicographic order, so that
       the subtree of each node is contiguous; ``path`` holds the letters
       from the root to the current node and ``frames[d]`` the node below
       ``path[:d]`` built so far, as ``[c_w or None, (letter, child id),
       ...]``.  Each closed node is interned by that key, children first,
       in one table for all the roots, so two nodes get one id exactly
       when their quotients are equal; ``uses`` counts the distinct
       parents that read each id, and each time a root is yielded.
    2. The distinct nodes are evaluated in id order, so children come
       first, by the Horner rule: one product per edge of the shared
       graph instead of one per trie edge.  The nodes that root k added
       to the table come after those of the roots before it, so root k is
       yielded once they are evaluated, before any node that only a later
       root needs.  An image is dropped after its last use, so only images
       still to be read stay alive.

    The same rule works from the other end: writing R_w for the quotient
    above the suffix w (the terms c_{vw} v),

        image(R_w) = unit(c_w) + sum_a image(R_{aw}) * image(a).

    The walk takes the suffix end only when the roots' one-letter suffix
    quotients (the R_a) take fewer distinct values than their one-letter
    prefix quotients (the Q_a), and the prefix end on a tie.  It then
    walks the reversed words and multiplies as ``product_into(acc, child,
    letter)``.  A lone homogeneous root of weight n whose words start and
    end with every letter up to n ties (n quotients at each end), so a
    single ``coproduct`` or ``substitute`` of the Newton primitives or
    the exp/log expansions walks from the prefix.  The distinct one-letter
    quotients of the families the suites evaluate, over n <= 12, and the
    end that measured faster:

        family            prefix  suffix  end walked  faster end
        newton_p_left         23      78  prefix      prefix
        newton_p_right        78      23  suffix      suffix
        z_of_u, u_of_z        12      12  prefix      prefix
        z_in_pprime           78      78  prefix      prefix

    Counting all the distinct quotients at each end instead would pick
    the suffix for ``z_in_pprime`` under the right primitives (1,874
    quotients against 2,695, the roots included), which is the slower end
    there: the quotient of z_in_pprime(n) below its first letter i is
    z_in_pprime(n - i) / n, whose image is the single word Z_{n-i} / n.
    It would also take a second interning pass.

    The Newton primitives and the exp/log expansions give each word a
    coefficient that depends on a few statistics of the word, so their
    4,096 words of degree 12 have only 44 to 134 distinct quotients.
    Across n <= 12 the coproducts of the left primitives take 144
    products in all, since the quotient of P_n below its first letter a
    is -P_{n-a}: the table runs the Newton recursion.  Only the fresh
    accumulators from ``unit`` are written to; the letter images (often
    cached) and the images of shared quotients are only read, and a yielded
    image is never written again.  The walk keeps its own stack, so a word
    may be longer than the interpreter's recursion limit.
    """
    roots = list(roots)
    from_suffix = _walks_from_suffix(roots)
    if from_suffix:
        roots = [{word[::-1]: pair for word, pair in terms.items()} for terms in roots]

    ids: dict = {}
    nodes: list = []
    uses: list = []
    path: list = []
    frames: list = [[None]]

    def intern(frame):
        key = tuple(frame)
        node = ids.get(key)
        if node is None:
            node = ids[key] = len(nodes)
            nodes.append(key)
            uses.append(0)
            for _, child in key[1:]:
                uses[child] += 1
        return node

    def close(depth):
        # intern the nodes below depth and hand each id to its parent
        while len(path) > depth:
            node = intern(frames.pop())
            frames[-1].append((path.pop(), node))

    def intern_root(terms):
        for word in sorted(terms):
            depth = 0
            shared = min(len(path), len(word))
            while depth < shared and path[depth] == word[depth]:
                depth += 1
            close(depth)
            for letter in word[depth:]:
                path.append(letter)
                frames.append([None])
            frames[-1][0] = terms[word]
        close(0)
        root = intern(frames.pop())
        frames.append([None])
        uses[root] += 1
        return root

    # (root id, number of nodes once the root is interned)
    ends = [(root, len(nodes)) for root in map(intern_root, roots)]
    del roots
    ids.clear()
    nodes.reverse()
    images: list = []

    def read(node):
        # an image, dropped here after its last use
        node_image = images[node]
        uses[node] -= 1
        if not uses[node]:
            images[node] = None
        return node_image

    def evaluate(coefficient, *edges):
        acc = unit(coefficient)
        for letter, child in edges:
            child_image = read(child)
            letter_image = image(letter)
            if child_image and letter_image:
                if from_suffix:
                    product_into(acc, child_image, letter_image)
                else:
                    product_into(acc, letter_image, child_image)
        return acc

    # No image is held in a local of this frame and each node key is dropped
    # once read, so while paused between roots the generator keeps only the
    # images that later roots still read.
    for root, end in ends:
        while len(images) < end:
            images.append(evaluate(*nodes.pop()))
        yield read(root)


class Tensor2(_TermMap):
    """Element of the tensor square of the free algebra."""

    __slots__ = ()

    @staticmethod
    def _check_key(key):
        left, right = key
        return (check_composition(left), check_composition(right))

    @staticmethod
    def _sort_key(key):
        return (term_order_key(key[0]), term_order_key(key[1]))

    @classmethod
    def one(cls):
        return cls._raw({((), ()): (1, 1)})

    @classmethod
    def outer(cls, left: NCPoly, right: NCPoly):
        """The tensor product left (x) right."""
        out: dict = {}
        for lw, lp in left._terms.items():
            for rw, rp in right._terms.items():
                out[(lw, rw)] = _k.rat_mul(lp, rp)
        return cls._raw(out)

    @property
    def degree(self) -> int:
        """Max total weight over stored pairs; -1 for zero."""
        return max((weight(l) + weight(r) for l, r in self._terms), default=-1)

    def __mul__(self, other):
        if isinstance(other, Tensor2):
            return Tensor2._raw(_k.mul_tensor_terms(self._terms, other._terms))
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self.scale(other)
        return NotImplemented


def ncp_add(p: NCPoly, q: NCPoly) -> NCPoly:
    return p + q


def ncp_scale(value, p: NCPoly) -> NCPoly:
    return p.scale(value)


def ncp_mul(p: NCPoly, q: NCPoly) -> NCPoly:
    return p * q


def tensor_mul(s: Tensor2, t: Tensor2) -> Tensor2:
    return s * t


def is_integral(p) -> bool:
    return p.is_integral()
