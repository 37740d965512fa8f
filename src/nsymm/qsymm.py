"""The graded dual at bounded degree: monomial basis, quasi-shuffle,
deconcatenation, and the derivation family it carries.

The monomial basis element M_c pairs to 1 against the word c and to 0
against every other word.  Dualizing the binomial coproduct gives the
overlapping-shuffle product; dualizing concatenation gives the
deconcatenation coproduct.  Both the direct combinatorial product and
the duality-defined one are implemented — the latter is the ground
truth and the test suite holds them equal.

d_n drops a trailing part equal to n: the composite of deconcatenation
with the functional reading off the coefficient of M_(n) on the right
leg.  ``_last_parts`` reads every d_n off a term map in one pass, and
``d_qsymm`` takes one of them.  The family (d_1, d_2, ...) satisfies the
convolution Leibniz law against quasi-shuffle.  verify_hs_qsymm proves
the law up to a degree by checking it on the pairs whose left factor is
the unit or M_l with l a Lyndon composition: these generate the algebra,
and its docstring gives the argument.

Each check rests on the last-letter form of Hoffman's quasi-shuffle
recursion (Hoffman, *Quasi-shuffle products*, J. Algebraic Combin. 11,
2000): d_k(M_u) is nonzero only for k = 0 and k = last(u), so for every
n the right side of the law on (M_u, M_v) has at most three terms, and
the left side for every n comes from the one product M_u * M_v.  The
product kernel is built by the first-letter recursion, so the check
does not reduce to the kernel's own definition.  A walk memoizes its
word products only while it reads them again, and only reads them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from ._backend import kernels as _k
from .config import check_index, resolve_limit, DegreeOverflowError
from .hopf import HopfFamily, _word_coproduct
from .poly import NCPoly, Tensor2, _TermMap, coeff_pair
from .reports import Report
from .words import (
    check_composition,
    compositions_of,
    compositions_up_to,
    is_lyndon,
    term_order_key,
    weight,
)

_ONE = (1, 1)


class QSPoly(_TermMap):
    """Rational combination of monomial basis elements M_c."""

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
    def monomial(cls, parts, coefficient=1):
        pair = coeff_pair(coefficient)
        if pair[0] == 0:
            return cls.zero()
        return cls._raw({check_composition(parts): pair})

    @property
    def degree(self) -> int:
        return max(map(weight, self._terms), default=-1)

    def __mul__(self, other):
        if isinstance(other, QSPoly):
            return quasi_shuffle(self, other)
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self.scale(other)
        return NotImplemented


def pairing(q: QSPoly, p: NCPoly) -> Fraction:
    """The duality pairing: <M_a, word w> = [a == w], extended bilinearly."""
    total = (0, 1)
    small, large = (q._terms, p._terms) if len(q) <= len(p) else (p._terms, q._terms)
    for key, pair in small.items():
        other = large.get(key)
        if other is not None:
            total = _k.rat_add(total, _k.rat_mul(pair, other))
    return Fraction(*total)


def _bilinear(a: QSPoly, b: QSPoly, max_degree, word_product) -> QSPoly:
    """Extend a product of basis elements bilinearly, within the degree limit."""
    if not a or not b:
        return QSPoly.zero()
    bound = resolve_limit(max_degree)
    if a.degree + b.degree > bound:
        raise DegreeOverflowError(
            f"product weight {a.degree + b.degree} exceeds the degree limit {bound}"
        )
    acc: dict = {}
    for u, up in a._terms.items():
        for v, vp in b._terms.items():
            _k.add_scaled_into(acc, word_product(u, v), _k.rat_mul(up, vp))
    return QSPoly._raw(acc)


def quasi_shuffle(a: QSPoly, b: QSPoly, max_degree=None) -> QSPoly:
    """The overlapping-shuffle product."""
    return _bilinear(a, b, max_degree, _k.quasi_shuffle_words)


@lru_cache(maxsize=None)
def _dual_product_words(u, v) -> dict:
    """Quasi-shuffle of two basis elements computed purely by duality.

    The coefficient of M_w is the coefficient of u (x) v in the binomial
    coproduct of the word w; only words of the right total weight can
    contribute.
    """
    terms = {}
    for w in compositions_of(weight(u) + weight(v)):
        pair = _word_coproduct(w, HopfFamily.NSYMM).get((u, v))
        if pair is not None:
            terms[w] = pair
    return terms


def quasi_shuffle_by_duality(a: QSPoly, b: QSPoly, max_degree=None) -> QSPoly:
    """The same product defined by pairing against the binomial coproduct."""
    return _bilinear(a, b, max_degree, _dual_product_words)


def deconcat(q: QSPoly) -> Tensor2:
    """The coproduct dual to concatenation: sum of all splits of each key."""
    acc: dict = {}
    for word, pair in q._terms.items():
        splits = {(word[:i], word[i:]): (1, 1) for i in range(len(word) + 1)}
        _k.add_scaled_into(acc, splits, pair)
    return Tensor2._raw(acc)


def alpha(n: int, q: QSPoly) -> Fraction:
    """The functional dual to the degree-n generator: coefficient of M_(n)."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"functional index must be an integer >= 1, got {n!r}")
    return q.coeff((n,))


def d_qsymm(n: int, q: QSPoly) -> QSPoly:
    """(id (x) alpha_n) after deconcatenation: drop a trailing part equal to n."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"derivation index must be an integer >= 1, got {n!r}")
    return QSPoly._raw(_last_parts(q._terms, n).get(n, {}))


def _last_parts(terms: dict, top: int) -> dict:
    """{n: d_n(terms)} for every n <= top with a nonzero image, in one pass.

    Each key with last part n <= top lands, without that part, in the
    image of n.  Distinct keys with one last part keep distinct prefixes,
    so every image is canonical.
    """
    images: dict = {}
    for word, pair in terms.items():
        if word and word[-1] <= top:
            image = images.get(word[-1])
            if image is None:
                images[word[-1]] = {word[:-1]: pair}
            else:
                image[word[:-1]] = pair
    return images


class _ProductMemo(dict):
    """The kernel's word products, keyed by (left, right), for one walk.

    A miss calls the kernel.  The walk empties the memo at each new left
    factor u, since the pairs of u read only the products of u and of u'
    (u without its last part).  Callers only read the stored dicts.
    """

    __slots__ = ()

    def __missing__(self, key):
        product = self[key] = _k.quasi_shuffle_words(*key)
        return product


def _law_walk(max_degree: int, lefts, ns, close_above=False) -> tuple[dict, int]:
    """Check the law for each n in ns on the pairs (M_u, M_v), u in lefts.

    v runs over every composition of weight <= max_degree - weight(u), in
    (weight, lex) order.  The left side for every n is read off the one
    product M_u * M_v by ``_last_parts``.  The right side for n sums the
    products d_k1(M_u) * d_k2(M_v) with k1 + k2 = n over the nonzero
    images d_k(M_c), listed once per composition c with d_0(M_c) = M_c.
    Since d_k(M_c) vanishes unless k = last(c), the products are the
    three that Hoffman's last-letter rule names, (u, v'), (u', v) and
    (u', v'), where ' drops the last part.

    Each n stops at its first failing pair, its witness, and the walk
    ends once every n has failed.  With ``close_above``, a failing n also
    stops every larger n, since only the first failing n is read.
    Returns the witnesses by n and the number of (pair, n) checks made.
    """
    open_ns = set(ns)
    witnesses = {}
    checks = 0
    memo = _ProductMemo()
    images = {}

    def nonzero_images(c):
        listed = images.get(c)
        if listed is None:
            monomial = {c: _ONE}
            listed = images[c] = [(0, monomial), *_last_parts(monomial, max_degree).items()]
        return listed

    for u in lefts:
        memo.clear()
        images_u = nonzero_images(u)
        for v in compositions_up_to(max_degree - weight(u)):
            images_v = nonzero_images(v)
            left_sides = _last_parts(memo[u, v], max_degree)
            right_parts = {}
            for k1, a in images_u:
                for k2, b in images_v:
                    n = k1 + k2
                    if n in open_ns:
                        for x, xc in a.items():
                            for y, yc in b.items():
                                right_parts.setdefault(n, []).append((memo[x, y], _k.rat_mul(xc, yc)))
            checks += len(open_ns)
            failed = [
                n
                for n in open_ns
                if (n in left_sides or n in right_parts)
                and left_sides.get(n, {}) != _sum(right_parts.get(n, ()))
            ]
            for n in failed:
                witnesses[n] = {"n": n, "left": list(u), "right": list(v)}
                open_ns.remove(n)
            if failed and close_above:
                open_ns = {n for n in open_ns if n < min(failed)}
            if not open_ns:
                return witnesses, checks
    return witnesses, checks


def _sum(parts) -> dict:
    """sum c * terms over (terms, c) in parts; a lone unit-scaled term map is returned as is."""
    if len(parts) == 1 and parts[0][1] == _ONE:
        return parts[0][0]
    acc: dict = {}
    for terms, c in parts:
        _k.add_scaled_into(acc, terms, c)
    return acc


def verify_hs_qsymm(max_degree: int) -> Report:
    """Prove the convolution Leibniz law for (d_1, d_2, ...) up to max_degree.

    Write L_n(x, y) for d_n(x * y) == sum_{k=0..n} d_k(x) * d_{n-k}(y),
    with d_0 the identity.  The suite decides, for every n <= max_degree,
    whether L_n holds on every pair of monomial basis elements of total
    weight <= max_degree.  It walks only the pairs (M_u, M_v) whose u is
    the empty composition or a Lyndon composition, with every v that
    fits.  Once these pairs satisfy L_p for every p <= n, every pair
    satisfies L_n.  Call a homogeneous x good if L_p(x, y) holds for
    every p <= n and every y with weight(x) + weight(y) <= max_degree:

    - The unit M_() is walked, so it is good, and the good x of one
      weight form a subspace, since L_p(x, y) is linear in x.
    - A product of good a and b is good.  For every w that fits and
      p <= n, with d_k lowering weight by k:
        d_p((a * b) * w) = d_p(a * (b * w))             associativity
          = sum_{i+j+m=p} d_i(a) * d_j(b) * d_m(w)      L_p(a, b * w), L_(p-i)(b, w)
          = sum_{q<=p} d_q(a * b) * d_(p-q)(w)          associativity, L_q(a, b)
      and every product stays within the bound, since the product is
      graded.
    - The M_l with l Lyndon are walked, so they are good, and over Q they
      generate the algebra (Hoffman, *Quasi-shuffle products*, 2000,
      section 2; Reutenauer, *Free Lie Algebras*, 1993, ch. 5-6): if
      l_1 >= ... >= l_k is the Lyndon factorization of w, the product of
      the M_(l_i) is a positive multiple of M_w plus words that are
      shorter, or as long and lexicographically smaller, so by induction
      on that order each M_w is a polynomial in them, and good.

    The argument rests on the kernel being associative, as used above,
    and commutative, so that the generators' products need no fixed
    order.  The tests hold the kernel to the product defined by duality,
    which has both properties, on every pair of total weight <= 8
    (test_duality_oracle_agrees); they check commutativity directly on
    every pair, and associativity on every triple, of total weight <= 6,
    and that the Lyndon M's generate every M_w of weight <= 8
    (test_lyndon_monomials_generate).  The suite runs to 13 (its verify
    ceiling), so above those weights the premises are untested.

    So the walk over the generators decides every n below n0, its first
    failing n, and those n pass; it stops every n at or above a failing n
    at once, since nothing else is read from it.  Every n >= n0 is walked
    again over all pairs, in (weight, lex) order of u and then of v.  Each
    n then fails at the pair where a walk over every pair first fails it,
    so each record, pass or witness, is the one that walk gives.  A
    failing run therefore costs both walks.

    ``meta["pairs_checked"]`` counts the (pair, n) checks of both walks.
    The walks are shared, so their whole time is charged to the n = 1
    check; the other checks record only the lookup of their outcome.
    """
    check_index(max_degree, max_degree, what="max_degree")
    report = Report(suite="qsymm-hs", max_degree=max_degree)
    witnesses = {}

    def walk():
        every_u = compositions_up_to(max_degree)
        generators = [u for u in every_u if not u or is_lyndon(u)]
        ns = range(1, max_degree + 1)
        found, checks = _law_walk(max_degree, generators, ns, close_above=True)
        if found:
            found, more = _law_walk(max_degree, every_u, range(min(found), max_degree + 1))
            checks += more
        witnesses.update(found)
        report.meta["pairs_checked"] = checks
        return witnesses.get(1)

    law = "convolution Leibniz law vs quasi-shuffle"
    report.timed(law, 1, walk)
    for n in range(2, max_degree + 1):
        report.timed(law, n, lambda: witnesses.get(n))
    return report
