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
    return QSPoly._raw({w[:-1]: pair for w, pair in q._terms.items() if w and w[-1] == n})


def _leibniz_holds(n: int, mu: QSPoly, mv: QSPoly, max_degree: int) -> bool:
    """d_n(mu * mv) == sum_{k=0..n} d_k(mu) * d_{n-k}(mv), with d_0 = id."""
    lhs = d_qsymm(n, quasi_shuffle(mu, mv, max_degree))
    rhs = QSPoly.zero()
    for k in range(n + 1):
        left = mu if k == 0 else d_qsymm(k, mu)
        right = mv if k == n else d_qsymm(n - k, mv)
        rhs = rhs + quasi_shuffle(left, right, max_degree)
    return lhs == rhs


def verify_hs_qsymm(max_degree: int) -> Report:
    """Exhaustively check the convolution Leibniz law for (d_1, d_2, ...).

    All ordered pairs of monomial basis elements with total weight
    <= max_degree are checked against the quasi-shuffle product for
    every n <= max_degree; each n stops at its first failing pair, which
    is the check's witness.  ``meta["pairs_checked"]`` counts the pairs
    actually checked.
    """
    check_index(max_degree, max_degree, what="max_degree")
    report = Report(suite="qsymm-hs", max_degree=max_degree)
    pairs_checked = 0

    def first_failure(n):
        nonlocal pairs_checked
        for u in compositions_up_to(max_degree):
            mu = QSPoly.monomial(u)
            for v in compositions_up_to(max_degree - weight(u)):
                pairs_checked += 1
                if not _leibniz_holds(n, mu, QSPoly.monomial(v), max_degree):
                    return {"n": n, "left": list(u), "right": list(v)}
        return None

    for n in range(1, max_degree + 1):
        report.timed("convolution Leibniz law vs quasi-shuffle", n, lambda: first_failure(n))
    report.meta["pairs_checked"] = pairs_checked
    return report
