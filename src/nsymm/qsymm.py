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
leg.  The family (d_1, d_2, ...) satisfies the convolution Leibniz law
against quasi-shuffle, which verify_hs_qsymm checks exhaustively.

That check rests on the last-letter form of Hoffman's quasi-shuffle
recursion (Hoffman, *Quasi-shuffle products*, J. Algebraic Combin. 11,
2000): d_k(M_u) is nonzero only for k = 0 and k = last(u), so for every
n the right side of the law on (M_u, M_v) has at most three terms, and
the left side for every n comes from the one product M_u * M_v.  The
check therefore walks the basis pairs once and tests every n on each.
The product kernel is built by the first-letter recursion, so the check
does not reduce to the kernel's own definition.  Word-pair products are
memoized; the cached dicts are never handed out, only merged into
fresh accumulators.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from ._backend import kernels as _k
from .config import check_index, resolve_limit, DegreeOverflowError
from .hopf import HopfFamily, _word_coproduct
from .poly import NCPoly, Tensor2, _TermMap, coeff_pair
from .reports import Report
from .words import check_composition, compositions_of, compositions_up_to, term_order_key, weight


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
    return _bilinear(a, b, max_degree, _product_words)


@lru_cache(maxsize=None)
def _product_words(u, v) -> dict:
    """Quasi-shuffle of two basis elements, memoized; read-only for callers."""
    return _k.quasi_shuffle_words(u, v)


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
    return QSPoly._raw({w[:-1]: pair for w, pair in q._terms.items() if w and w[-1] == n})


def verify_hs_qsymm(max_degree: int) -> Report:
    """Exhaustively check the convolution Leibniz law for (d_1, d_2, ...).

    The law is d_n(M_u * M_v) == sum_{k=0..n} d_k(M_u) * d_{n-k}(M_v),
    with d_0 the identity, for all ordered pairs of monomial basis
    elements with total weight <= max_degree and every n <= max_degree.

    One walk over the pairs checks every n: the product M_u * M_v is
    formed once per pair and each d_n is read off it, while the right
    side for n sums the products d_k1(M_u) * d_k2(M_v) with k1 + k2 = n
    over the nonzero images d_k(M_c), listed once per composition c.
    Since d_k(M_c) vanishes unless k = last(c), that list has at most
    two entries, and each n gets at most three products.

    Each n stops at its first failing pair in walk order, which is that
    n's witness, and the walk ends once every n has failed.
    ``meta["pairs_checked"]`` sums over n the pairs checked for that n.
    The walk is shared, so its whole time is charged to the n = 1 check;
    the other checks record only the lookup of their outcome.
    """
    check_index(max_degree, max_degree, what="max_degree")
    report = Report(suite="qsymm-hs", max_degree=max_degree)
    pairs_checked = dict.fromkeys(range(1, max_degree + 1), 0)
    witnesses = {}
    images = {}

    def nonzero_images(c):
        """[(k, d_k(M_c))] for k = 0 and every nonzero d_k(M_c), 1 <= k <= max_degree."""
        listed = images.get(c)
        if listed is None:
            mc = QSPoly.monomial(c)
            listed = [(0, mc)]
            for k in range(1, max_degree + 1):
                image = d_qsymm(k, mc)
                if image:
                    listed.append((k, image))
            images[c] = listed
        return listed

    def walk():
        open_ns = list(pairs_checked)
        zero = QSPoly.zero()
        pairs = (
            (u, v)
            for u in compositions_up_to(max_degree)
            for v in compositions_up_to(max_degree - weight(u))
        )
        for u, v in pairs:
            images_u, images_v = nonzero_images(u), nonzero_images(v)
            # the k = 0 entries are M_u and M_v themselves
            product = quasi_shuffle(images_u[0][1], images_v[0][1], max_degree)
            rhs = {}
            for k1, a in images_u:
                for k2, b in images_v:
                    n = k1 + k2
                    if n in open_ns:
                        term = quasi_shuffle(a, b, max_degree)
                        rhs[n] = rhs[n] + term if n in rhs else term
            still_open = []
            for n in open_ns:
                pairs_checked[n] += 1
                if d_qsymm(n, product) == rhs.get(n, zero):
                    still_open.append(n)
                else:
                    witnesses[n] = {"n": n, "left": list(u), "right": list(v)}
            open_ns = still_open
            if not open_ns:
                break
        return witnesses.get(1)

    law = "convolution Leibniz law vs quasi-shuffle"
    report.timed(law, 1, walk)
    for n in range(2, max_degree + 1):
        report.timed(law, n, lambda: witnesses.get(n))
    report.meta["pairs_checked"] = sum(pairs_checked.values())
    return report
