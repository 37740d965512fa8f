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
from math import gcd
from typing import Mapping

from ._backend import kernels as _k
from .words import check_composition, composition_of_rank, term_order_key, weight

_ONE = (1, 1)


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

    @classmethod
    def _block_residue(cls, image, expected, expected_den):
        """image minus the term map that ``expected`` gives over ``expected_den``.

        image is ``(blocks, den)`` in dense blocks, and ``expected`` yields
        (shape, block) pairs in the same form, each shape once.  The blocks
        of a shape are compared entry by entry by cross-multiplying, so no
        gcd is taken, and only a mismatched entry is decoded to its key
        (``_block_key(shape, slot)``) and reduced, into the residue.  A
        shape of image that ``expected`` lacks is residue as it is.
        """
        blocks, den = image
        residue: dict = {}
        shapes = set()
        for shape, want in expected:
            shapes.add(shape)
            have = blocks.get(shape) or [0] * len(want)
            for k in _k.block_mismatches(have, expected_den, want, den):
                residue[cls._block_key(shape, k)] = _k.rat_norm(
                    have[k] * expected_den - want[k] * den, den * expected_den
                )
        for shape, have in blocks.items():
            if shape not in shapes:
                residue.update(
                    (cls._block_key(shape, k), _k.rat_norm(value, den))
                    for k, value in _k.nonzero_entries(have)
                )
        return cls._raw(residue)

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

    _block_key = staticmethod(composition_of_rank)

    @classmethod
    def one(cls):
        return cls._raw({(): (1, 1)})

    @classmethod
    def _from_blocks(cls, image):
        # dense word blocks (blocks, den) of pass 2, decoded and reduced
        return cls._raw(_k.from_word_blocks(*image))

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
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
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
        that share a prefix share its work, and quotients below
        different prefixes that are equal up to a scalar are evaluated
        once (see :func:`_evaluate`).
        """
        (result,) = _substitutions([self], images)
        return result


def _lookup(images):
    # a letter's image under ``images``, a mapping or a callable
    return images.__getitem__ if isinstance(images, Mapping) else images


def _word_unit(c):
    # the unit of the pair form on words: c times the empty word
    return {(): c} if c else {}


def _scaled_product(mul_into):
    """The ``product_into`` of the pair form, from a term-map product ``mul_into(acc, x, y)``.

    An edge whose ratio is not 1 scales the shorter factor
    (``kernels.scale_terms``) and then multiplies.
    """

    def product_into(acc, x, y, ratio):
        if ratio != _ONE:
            if len(x) <= len(y):
                x = _k.scale_terms(x, ratio)
            else:
                y = _k.scale_terms(y, ratio)
        mul_into(acc, x, y)

    return product_into


def _generator_blocks(n: int):
    """Z_n as a letter by shape ``([n], 1)``: its block of weight n holds a single 1.

    The 1 is in the slot of the word (n), which comes last in the order
    of ``compositions_of``; ``kernels.place_letter_blocks_into`` places
    the other factor of a product there, so no dense block is built.
    """
    return [n], 1


def _generator_residue(image, n: int) -> NCPoly:
    """image - Z_n, for image in dense word blocks; only a mismatch is decoded to words.

    Z_n is given over image's den, so its block is compared as it is.
    """
    den = image[1]
    return NCPoly._block_residue(image, [(n, [0] * (_k.block_length(n) - 1) + [den])], den)


def _block_morphism(one):
    """(combine, finish) of a morphism into term maps, over dense blocks.

    The letters' images are dense word blocks ``(blocks, den)``, or
    letters by shape ``(shapes, 1)``, whose shapes are a list.  A product
    with a letter by shape goes to ``kernels.place_letter_blocks_into``,
    on words and tensors alike, and a product of two dense images to
    ``kernels.mul_word_blocks_into``.  ``one`` is the key of the unit's
    block, of one entry.  The blocks that cancel to zero are dropped once
    a node's products are done.  See "Image forms" in :func:`_evaluate`.
    """

    def combine(constant, factors):
        den = constant[1] if constant else 1
        for (x, dx), (y, dy), (_, r) in factors:
            if x and y:
                d = dx * dy * r
                if den % d:
                    den = den // gcd(den, d) * d
        acc = {}
        if constant:
            acc[one] = [constant[0] * (den // constant[1])]
        # pop each factor, so an image read for the last time goes with its product
        factors.reverse()
        while factors:
            (x, dx), (y, dy), (rn, rd) = factors.pop()
            if x and y:
                m = rn * (den // (dx * dy * rd))
                if type(x) is list:
                    _k.place_letter_blocks_into(acc, x, y, m, True)
                elif type(y) is list:
                    _k.place_letter_blocks_into(acc, y, x, m, False)
                else:
                    _k.mul_word_blocks_into(acc, x, y, m)
        _k.drop_zero_blocks(acc)
        return acc, den

    def finish(node_image, ratio, shared):
        if ratio == _ONE and not shared:
            return node_image
        (blocks, den), (rn, rd) = node_image, ratio
        return _k.scale_blocks(blocks, rn), den * rd

    return combine, finish


def _pair_morphism(image, product_into, unit):
    """(image, combine, finish) of a morphism given as (image, product_into, unit).

    ``unit(c)`` returns a fresh accumulator holding c times the image of
    the empty word (an empty one for ``c`` None), and
    ``product_into(acc, x, y, c)`` adds c * x * y to it in place.  A root
    that is a multiple of its node, or that a later root reads, is
    handed over through ``kernels.scale_terms``.
    """

    def combine(constant, factors):
        acc = unit(constant)
        factors.reverse()
        while factors:
            x, y, ratio = factors.pop()
            if x and y:
                product_into(acc, x, y, ratio)
        return acc

    def finish(node_image, ratio, shared):
        if ratio != _ONE or shared:
            return _k.scale_terms(node_image, ratio)
        return node_image

    return image, combine, finish


def _substitutions(polys, images):
    """The images of the polynomials under one substitution, in order.

    All of them come from one evaluation (see :func:`_evaluate`), so a
    quotient that several of them share, up to a scalar, is evaluated
    once; each image is yielded as soon as it is formed.
    """
    lookup = _lookup(images)
    yield from map(
        NCPoly._raw,
        _evaluate(
            (p._terms for p in polys),
            lambda letter: lookup(letter)._terms,
            _scaled_product(_k.mul_word_into),
            _word_unit,
        ),
    )


def _block_substitutions(graph, letter_image):
    """The images of the roots of a quotient graph under one substitution, as dense blocks.

    ``graph`` is in the format of :func:`_evaluate`; no word is walked.
    ``letter_image(letter)`` gives the image of a letter as dense word
    blocks ``(blocks, den)`` (``kernels.to_word_blocks``), or, for Z_n
    itself, as the letter by shape :func:`_generator_blocks`; each root's
    image is yielded as dense blocks, in order.
    """
    return _evaluate_graph(graph, letter_image, *_block_morphism(0))


def _graph_expansions(graph):
    """The roots of a quotient graph as term maps, in order: each letter read as itself.

    Each Z_n is a letter by shape (:func:`_generator_blocks`), so every
    product places a child, and each root is decoded as it is yielded.
    """
    return map(NCPoly._from_blocks, _block_substitutions(graph, _generator_blocks))


def _evaluate(roots, image, product_into, unit):
    """Images of word-keyed term maps under one algebra morphism, in order.

    ``roots`` is a sequence of term maps and ``image(letter)`` gives a
    letter's image.  ``unit(c)`` returns a fresh accumulator holding c
    times the image of the empty word (an empty one for ``c`` None),
    ``product_into(acc, x, y, c)`` adds c * x * y to an accumulator in
    place.  Images need not be term maps (``hsops`` uses lists of map
    columns) as long as no root is a multiple of an earlier quotient or
    read by a later root, since such a root is yielded through
    ``kernels.scale_terms``; a lone root never is.  This is a generator:
    it yields the image of each root in order, as soon as that image is
    formed.  This pair form serves ``substitute``, ``coproduct`` and the
    ``hsops`` bridge; the suites run pass 2 alone over dense blocks, see
    "Image forms" below.

    Writing Q_w for the quotient of a root below the prefix w (the terms
    c_{wv} v), the image is computed by the Horner rule

        image(Q_w) = unit(c_w) + sum_a image(a) * image(Q_{wa})

    over the quotients of the roots, with cancellation at every node.
    Quotients that are equal up to a nonzero scalar have images equal up
    to that scalar, so each class of them is evaluated once, across all
    the roots.  The work is split in two passes that meet in a quotient
    graph, a triple ``(from_suffix, nodes, roots)``:

    - ``nodes`` lists exact quotients, children first, each as
      ``(c or None, (letter, child, ratio), ...)``: its constant term,
      then one edge per letter, in letter order, that reads the quotient
      below that letter as ratio times the node ``nodes[child]``;
    - ``roots`` gives the node of each root, in order, and the nodes
      that root k reads come before those that only a later root reads;
    - ``from_suffix`` names the end the words are read from (below).

    1. :func:`_quotient_graph` finds the graph of arbitrary term maps,
       the input of ``coproduct``, ``substitute`` and the ``hsops``
       bridge, read from the prefix.  It walks the words of each root in
       lexicographic order, so that the subtree of each trie node is
       contiguous; ``path`` holds the letters from the root to the
       current trie node and ``frames[d]`` the node below ``path[:d]``
       built so far.  Each closed node is interned by that key, children
       first, in one table for all the roots, so two trie nodes get one
       node exactly when their quotients are equal, and every edge has
       ratio 1.  A family whose recursion is known hands its graph over
       directly (``newton`` and ``explog``), and this pass, which walks
       all 2^(n-1) words of a root of weight n, is skipped.
    2. :func:`_evaluate_graph` places each node in turn: ``where[id] =
       (node, ratio)`` says that its quotient is ratio times that of a
       node to evaluate, read through the ``where`` of its children
       times the ratios on its edges.  Its key with every child read as
       a multiple of a node or as a constant, divided by its first
       coefficient, names its class in ``classes``; the first quotient
       of a class is the class's node, with its own coefficients and
       ratio 1, and a later one is read as (that node, ratio).  A
       constant is a node of its own, since its image costs no product;
       reading it as a multiple would only move scalars onto the edges
       above it.  Once every node is placed, ``uses`` counts the reads
       of each node to evaluate: one each time a root is yielded, and
       one per edge of a node that is read itself.  Then the nodes to
       evaluate are evaluated in order, so children come first, by the
       Horner rule: one product per edge, each with the ratio of the
       child it reads (see "Image forms").  The nodes that root k added
       come after those of the roots before it, so root k is yielded
       once they are evaluated, before any node that only a later root
       needs.  A node
       that nothing reads is skipped (from pass 1, a constant child of a
       quotient that joined an earlier class; in a graph, also a node
       that no root reaches), and an image is dropped after its last
       use, so only images still to be read stay alive.  Each
       yielded image belongs to the caller alone: a root that is a
       multiple of its node is yielded scaled, and one that a later root
       still reads as a copy.  Pass 2 looks up each letter's image once
       and keeps it until every node is evaluated; then it drops the
       letter images, before it yields the last roots.

    Image forms.  Pass 2 takes its morphism as ``(image, combine,
    finish)``: ``combine(c, factors)`` forms the image of a node from
    its constant term and one factor ``(x, y, ratio)`` per edge, x the
    left factor of its product, and ``finish(image, ratio, shared)``
    hands a root over, scaled by ratio, and copied when ``shared`` says
    that a later root still reads it.  Two forms exist, and the entry
    point chooses one by what it is given:

    - the pair form (``_pair_morphism``) of this function's arguments,
      for term maps given as input: one ``product_into(acc, x, y,
      ratio)`` per edge into ``unit(c)``, and ``kernels.scale_terms`` for
      a scaled or shared root.  ``substitute`` and ``coproduct`` (and so
      the samples of hopf-laws) take each letter's image as its term
      map, and ``kernels.mul_word_into`` or ``mul_tensor_into`` as the
      product, through ``_scaled_product``, which scales the shorter
      factor first when the ratio is not 1; each root comes out a
      canonical term map.  The input is sparse, so its images stay
      sparse: a word of weight 20 is one term here, where a block would
      hold 2^19 slots.  The ``hsops`` bridge uses lists of map columns as
      images.
    - dense blocks (``_block_morphism``), for a quotient graph given as
      input, the families of the suites (:func:`_block_substitutions`,
      ``hopf._graph_coproducts``): each image is ``(blocks, den)``, one
      denominator for the whole image, and blocks maps each weight (a
      pair of weights for tensors) to one list of integer numerators, a
      slot per composition in the order of ``words.compositions_of``,
      and a tensor block row-major, a row per left word.  A node's den
      is fixed before its products, as the lcm over its edges of
      den(x) * den(y) * den(ratio) and its constant's den, so a product
      adds m * x * y with the integer
      m = num(ratio) * den / (den(x) den(y) den(ratio)) and takes no gcd.
      The rank of u v is rank(u) * 2^|v| + rank(v), so a product is a few
      slice multiply-adds, which run in C, where a term map makes a dict
      probe per pair of terms.  The suites' letters are letters by shape
      ``(shapes, 1)``: Z_n, and each tensor Z_i (x) Z_j of its coproduct,
      is a block with a single 1 in its last slot, that of the one-part
      composition, so only its weights are listed (``_generator_blocks``,
      ``hopf._generator_coproduct_blocks``).  A product with one places
      the child's blocks at the slot that the rank identity gives
      (``kernels.place_letter_blocks_into``): a run per row when the
      letter comes first, as in the graphs read from the prefix, and
      strided runs when it comes last; no zero is scanned and no dense
      letter is built.  The expansion of a graph, each letter read as
      itself (:func:`_graph_expansions`), runs on these letters too.
      Only word substitutions take dense letter images (the round trips
      of iso, the substitution of newton-consistency), built dense or
      converted (``kernels.to_word_blocks``), and a product of two dense
      word images adds the other factor's block for each nonzero of one
      factor (``kernels.mul_word_blocks_into``).  A coproduct's letters
      are always letters by shape, so no dense tensor product exists.
      The blocks that cancel to zero are dropped as each node finishes.
      The families are dense, so their blocks hold few zeros: the
      coproduct of z_of_u(16), (n + 3) * 2^(n-2) = 311,296 terms, is 17
      blocks of 311,296 slots in all.  The suites read the blocks as they
      are, against dense closed forms, and decode only a mismatch to its
      words (``_TermMap._block_residue``; against Z_n,
      :func:`_generator_residue`); ``_TermMap._from_blocks`` decodes a
      whole image.

    No node is reduced, so a den may exceed the reduced one: at most 30
    bits in iso at 12 and 45 at 15.

    Keeping the first quotient of a class as its node, instead of
    normalizing every quotient, leaves a ratio other than 1 only on the
    edges into a class that two quotients share.  Normalizing every node
    would put a rational scalar on almost every edge of families whose
    quotients merge with nothing, such as the exp/log expansions, and
    take the products off their unit fast paths.

    The same rule works from the other end: writing R_w for the quotient
    above the suffix w (the terms c_{vw} v),

        image(R_w) = unit(c_w) + sum_a image(R_{aw}) * image(a).

    A graph read from the suffix is evaluated with the child as the left
    factor and the letter as the right one.  Pass 1 always reads from the
    prefix; the graph of the right Newton primitives' recursion is read
    from the suffix (``newton._p_right_graph``).

    The Newton families run their recursions: the quotient of P_n below
    its first letter a is -P_{n-a} (above its last letter, for P'_n), and
    that of z_in_pprime(n) below i is z_in_pprime(n - i) / n, so each is a
    multiple of an earlier root and root n takes n products,
    1 + 2 + ... + 12 = 78 over n <= 12.  Few quotients of the exp/log
    expansions are multiples of one another, so an evaluation of either
    over n <= 12 takes 353 products, against 364 one degree at a time.
    The graph of a recursion has the same classes as the graph that pass 1
    finds when it reads the words from the same end, so it takes the same
    products without walking the 4,095 trie edges of each root of degree
    12.  Read from the prefix, the right primitives share fewer
    quotients: pass 1 gives their coproducts over n <= 12 143 products.

    Only the fresh accumulators of ``combine`` are written to; the letter
    images (often cached) and the images of shared quotients are only
    read, and a yielded image is never written again.  Pass 1 keeps its
    own stack, so a word may be longer than the interpreter's recursion
    limit.
    """
    yield from _evaluate_graph(
        _quotient_graph(roots), *_pair_morphism(image, product_into, unit)
    )


def _quotient_graph(roots):
    """Pass 1 of :func:`_evaluate`: the quotient graph of term maps, read from the prefix."""
    ids: dict = {}
    path: list = []
    frames: list = [[None]]

    def intern(frame):
        key = tuple(frame)
        exact = ids.get(key)
        if exact is None:
            exact = ids[key] = len(ids)
        return exact

    def close(depth):
        # intern the nodes below depth and hand each id to its parent
        while len(path) > depth:
            exact = intern(frames.pop())
            frames[-1].append((path.pop(), exact, _ONE))

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
        return root

    root_ids = list(map(intern_root, roots))
    return False, list(ids), root_ids


def _evaluate_graph(graph, image, combine, finish):
    """Pass 2 of :func:`_evaluate`: the images of a quotient graph's roots, in order.

    The morphism is ``(image, combine, finish)``, in one of the image
    forms that :func:`_evaluate` describes.
    """
    from_suffix, exact, root_ids = graph
    where: list = []
    classes: dict = {}
    nodes: list = []

    def add(node):
        # a node to evaluate, read with ratio 1
        nodes.append(node)
        return len(nodes) - 1, _ONE

    def place(key):
        # (node, ratio) of a new exact quotient: a multiple of the
        # representative of its class, or the first of a new class
        coefficient = key[0]
        if len(key) == 1:
            # a constant, or the zero root, is a node of its own: its image
            # costs no product
            return add(key)
        # each child as a multiple of a node (edges), and as a multiple of
        # a node with edges or as a constant (values)
        edges, values = [], []
        for letter, child, ratio in key[1:]:
            node, scale = where[child]
            if ratio != _ONE:
                scale = _k.rat_mul(scale, ratio)
            edges.append((letter, node, scale))
            if len(nodes[node]) > 1:
                values.append((letter, node, scale))
            else:
                constant = nodes[node][0]
                if scale != _ONE:
                    constant = _k.rat_mul(constant, scale)
                values.append((letter, None, constant))
        num, den = first = coefficient or values[0][2]
        inverse = (den, num) if num > 0 else (-den, -num)
        normal = (coefficient and _ONE,) + tuple(
            (letter, node, _k.rat_mul(ratio, inverse)) for letter, node, ratio in values
        )
        found = classes.get(normal)
        if found is not None:
            node, scale = found
            return node, _k.rat_mul(first, scale)
        classes[normal] = (len(nodes), inverse)
        return add((coefficient, *edges))

    # (node to evaluate, its ratio, number of nodes once the root is placed)
    ends = []
    for root_id in root_ids:
        while len(where) <= root_id:
            where.append(place(exact[len(where)]))
        ends.append((*where[root_id], len(nodes)))
    del graph, exact, root_ids
    where.clear()
    classes.clear()
    # the reads of each node: once per yield of a root, and once per edge of
    # a node that is read itself, so a node that no root reaches is read
    # by none
    uses = [0] * len(nodes)
    for root, _, _ in ends:
        uses[root] += 1
    for node in range(len(nodes) - 1, -1, -1):
        if uses[node]:
            for _, child, _ in nodes[node][1:]:
                uses[child] += 1
    nodes.reverse()
    images: list = []
    letters: dict = {}

    def letter_image(letter):
        # each letter's image, looked up once per evaluation
        found = letters.get(letter)
        if found is None:
            found = letters[letter] = image(letter)
        return found

    def read(node):
        # an image, dropped here after its last use
        node_image = images[node]
        uses[node] -= 1
        if not uses[node]:
            images[node] = None
        return node_image

    def evaluate(constant, *edges):
        # the factors of each edge's product, in order; combine takes the list
        # over, so no image in it outlives its product here
        if from_suffix:
            return combine(constant, [(read(c), letter_image(a), r) for a, c, r in edges])
        return combine(constant, [(letter_image(a), read(c), r) for a, c, r in edges])

    def release(node, ratio):
        # a root's image, owned by the caller alone
        root_image = read(node)
        return finish(root_image, ratio, images[node] is not None)

    # No image is held in a local of this frame and each node is dropped
    # once read, so while paused between roots the generator keeps only the
    # images that later roots still read.
    for root, ratio, end in ends:
        while len(images) < end:
            node = nodes.pop()
            images.append(evaluate(*node) if uses[len(images)] else None)
        if not nodes:
            # every node is evaluated: the letter images are read no more
            letters.clear()
            image = combine = None
        yield release(root, ratio)


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

    @staticmethod
    def _block_key(shape, k):
        return _k.tensor_block_key(shape, k)

    @classmethod
    def one(cls):
        return cls._raw({((), ()): (1, 1)})

    @classmethod
    def _from_blocks(cls, image):
        # dense tensor blocks (blocks, den) of pass 2, decoded and reduced
        return cls._raw(_k.from_tensor_blocks(*image))

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
