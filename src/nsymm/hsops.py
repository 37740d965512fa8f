"""Hasse-Schmidt derivations on concrete finite-dimensional algebras.

A test algebra is given by structure constants over exact rationals and
is checked associative and unital on construction.  A family
(d_1, ..., d_L) of linear maps (d_0 = identity, implicit) is
Hasse-Schmidt when d_n(ab) = sum_{k=0..n} d_k(a) d_{n-k}(b); that law
and the plain Leibniz law are proved on ALL basis pairs, which by
bilinearity is a complete proof at the given dimension.  One walk over
the nonzero structure constants e_a e_b (_law_walk) proves all three
laws: Leibniz is the law of order 1, and associativity is the law
L_i(xy) = L_i(x) y of the left multiplications L_i(x) = e_i x, the sum
cut to its k = n term.  A pair that no nonzero product reaches has both
sides zero, so skipping it leaves the proof complete.

Each algebra computes once a generating set through its single-term
products e_a e_b = c e_u, and each law is walked from the generators
only: associativity for their left multiplications L_g (the proof is in
TestAlgebra.__post_init__), and a family, an algebra morphism from A to
A[t]/(t^(L+1)), on the pairs whose left index is a generator (the proof
is in _law_defect).  Only a failing input pays for a second walk, so
each witness is the one that a walk over every index would name first.

The conversions both ways between families and sequences of ordinary
derivations mirror the symbolic layer, by recursions that share work
instead of sums over the 2^(n-1) compositions of n:

* Newton: delta_n = n d_n - sum_{k<n} delta_k d_{n-k}, inverted as
  n d_n = sum_{k=1..n} delta_k d_{n-k} with d_0 = id (O(n^2) map
  products; the composition sum with c_coeff weights is the same map).
* log/exp: with E_1(n) = M_n and E_m(n) = sum_k M_k E_{m-1}(n-k), E_m(n)
  is the sum of M_{r_1}...M_{r_m} over the compositions of n into m
  parts, so partial_n = sum_m (-1)^(m+1)/m E_m(n) over d, and
  d_n = sum_m E_m(n)/m! over partial.
* A word polynomial acts by the algebra morphism of the free algebra
  fixed by Z_k -> d_k (Reutenauer, ch. 1), so operator_from_word_poly is
  one poly._evaluate call on lists of map columns.  That call shares
  quotients that are equal up to a scalar, and the quotient of
  z_in_pprime(n) below its first letter i is z_in_pprime(n - i) / n, so
  on z_in_pprime(n) it runs the Newton inversion in n(n + 1)/2 map
  products, where the trie has 2^n - 1 edges.
* partial_from_d and d_from_partial are the morphisms of u_of_z(n) and
  z_of_u(n), and d_from_delta that of z_in_pprime(n), so the graphs of
  those families (explog, newton) would evaluate them without walking a
  word.  They keep _length_graded and the Newton recursions because on a
  graph the coefficients enter at the leaves, so every map product
  carries a rational ratio, where the recursions add unit-weight
  products and scale each sum once.  Evaluated through the graphs with
  _compose_into as the product, the results were exact but slower (in
  process, best of 3 or 7, Python 3.11.7, 2 vCPUs): partial_from_d on
  taylor_hs(40, 40) 127-144 ms by hand against 329-363 ms, d_from_partial
  there 64 ms against 208-211 ms, and on the benchmark's free(5) family
  partial_from_d 6.3 against 8.7 ms and d_from_delta 5.4 against 7.1 ms.

A word of derivations acts with its rightmost factor applied first,
matching the module convention (Z_i Z_j) . a = Z_i (Z_j . a); the exact
round-trips on noncommutative algebras pin that convention down.

Storage is the kernel term-map format of nsymm.poly: the unit, each
structure constant e_a e_b and each LinMap column is a sparse
{basis index: (num, den)} map of normalized pairs with no zero entries,
merged by the backend's add_scaled_into, so "is zero" is "is empty".
The law walk and the map product _compose_into are the exception: each
writes the rational multiply-add inline, add_scaled_into's integer fast
paths included.  A catalog structure constant is one basis term, so a
kernel call there merges a one-term map, and the two calls per term
(rat_mul, add_scaled_into) cost more than the arithmetic.
Stored term maps are never mutated, so maps and algebras may share them.
The catalog builds them directly and nsymm.serialize reads and writes
them.  Fraction appears only in the dense tuples of the public face
(TestAlgebra(labels, unit, table), from_products, .unit, .table, mul,
element, basis, zero; LinMap(columns), .columns, apply), whose inputs
coeff_pair coerces, refusing floats and bools.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd
from typing import Iterable, Mapping, Sequence

from ._backend import kernels as _k
from .config import check_index
from .poly import NCPoly, _evaluate, coeff_pair

Vector = tuple[Fraction, ...]
Terms = dict  # {basis index: (num, den)}, normalized, no zero entries

_ONE = (1, 1)
_MINUS_ONE = (-1, 1)


class NotADerivationError(ValueError):
    """An input map failed the Leibniz law it was required to satisfy."""


def _terms(values) -> Terms:
    """The nonzero coordinates as pairs; a zero int or Fraction is skipped uncoerced."""
    out = {}
    for k, c in enumerate(values):
        if c or type(c) not in (int, Fraction):
            pair = coeff_pair(c)
            if pair[0]:
                out[k] = pair
    return out


def _dense(terms: Terms, dim: int) -> Vector:
    out = [Fraction(0)] * dim
    for k, (num, den) in terms.items():
        out[k] = Fraction(num, den)
    return tuple(out)


def _coordinates(dim: int, unit, products: Mapping) -> tuple[Terms, dict]:
    """A dense unit and {(i, j): vector} products as term maps, shapes checked."""
    if len(unit) != dim:
        raise ValueError("structure data does not match the basis size")
    terms = {}
    for key, vec in products.items():
        pair = isinstance(key, tuple) and len(key) == 2
        if not (pair and all(type(i) is int and 0 <= i < dim for i in key)):
            raise ValueError(f"product index pair {key!r} is outside the basis of size {dim}")
        if len(vec) != dim:
            raise ValueError(f"product vector for {key} has wrong length")
        terms[key] = _terms(vec)
    return _terms(unit), terms


def _mul_into(acc: Terms, table, u: Terms, v: Terms, sign: int = 1) -> Terms:
    """acc += sign * u v through the structure constants; returns acc."""
    right = v.items()
    for i, (num, den) in u.items():
        row, a = table[i], (sign * num, den)
        for j, b in right:
            prod = row.get(j)
            if prod:
                _k.add_scaled_into(acc, prod, _k.rat_mul(a, b))
    return acc


def _apply_into(acc: Terms, columns, v: Terms) -> Terms:
    """acc += the map with these columns applied to v; returns acc."""
    for j, c in v.items():
        _k.add_scaled_into(acc, columns[j], c)
    return acc


def _compose_into(acc: list, x, y, c=_ONE) -> list:
    """Adds c times x after y, given as columns, to the columns acc; returns acc."""
    cn, cd = c
    for acc_col, col in zip(acc, y):
        for j, (yn, yd) in col.items():
            if cd == 1 and yd == 1:
                wn, wd = cn * yn, 1
            else:
                g1, g2 = gcd(cn, yd), gcd(yn, cd)
                wn, wd = (cn // g1) * (yn // g2), (cd // g2) * (yd // g1)
            for l, (xn, xd) in x[j].items():
                if wd == 1 and xd == 1:
                    tn, td = wn * xn, 1
                else:
                    g1, g2 = gcd(wn, xd), gcd(xn, wd)
                    tn, td = (wn // g1) * (xn // g2), (wd // g2) * (xd // g1)
                p = acc_col.get(l)
                if p is None:
                    acc_col[l] = (tn, td)
                elif td == 1 and p[1] == 1:
                    s = p[0] + tn
                    if s:
                        acc_col[l] = (s, 1)
                    else:
                        del acc_col[l]
                else:
                    s = p[0] * td + tn * p[1]
                    if s:
                        d = p[1] * td
                        g = gcd(s, d)
                        acc_col[l] = (s // g, d // g)
                    else:
                        del acc_col[l]
    return acc


class TestAlgebra:
    """A finite-dimensional associative unital algebra via structure constants.

    ``TestAlgebra(labels, unit, table)`` takes dense coordinates with
    table[i][j] = e_i * e_j; ``from_products`` takes the nonzero products.
    """

    __test__ = False  # keep pytest from collecting this as a test class
    __slots__ = ("labels", "_unit", "_table", "_generators")

    def __init__(self, labels, unit, table):
        dim = len(labels)
        if len(table) != dim or any(len(row) != dim for row in table):
            raise ValueError("structure data does not match the basis size")
        products = {(i, j): vec for i, row in enumerate(table) for j, vec in enumerate(row)}
        self._build(labels, *_coordinates(dim, unit, products))

    @classmethod
    def from_products(cls, labels, unit, products: Mapping) -> "TestAlgebra":
        """Build from a sparse {(i, j): vector} table; missing products are zero."""
        return cls._raw(labels, *_coordinates(len(labels), unit, products))

    @classmethod
    def _raw(cls, labels, unit: Terms, products: Mapping) -> "TestAlgebra":
        self = cls.__new__(cls)
        self._build(labels, unit, products)
        return self

    def _build(self, labels, unit: Terms, products: Mapping) -> None:
        self.labels = tuple(labels)
        dim = len(self.labels)
        if len(set(self.labels)) < dim:
            repeated = next(l for k, l in enumerate(self.labels) if l in self.labels[:k])
            raise ValueError(f"repeated basis label {repeated!r}")
        self._unit = unit
        # _table[a]: {b: e_a e_b} for the nonzero products in b order, the nonzero columns of L_a
        rows = [{} for _ in range(dim)]
        for (a, b), prod in sorted(products.items()):
            if prod:
                rows[a][b] = prod
        self._table = tuple(rows)
        # the left factors on which associativity and the laws are walked
        self._generators = _generating_set(self._table)
        self.__post_init__()

    def __post_init__(self):
        """Check the unit law on every basis element and associativity on every basis triple.

        Associativity is the law L_i(e_j e_k) = L_i(e_j) e_k of the left
        multiplications L_i(x) = e_i x, whose columns are the table rows,
        walked by _law_walk on every pair (j, k) for the generators i only.
        That proves it on every triple.  Write A(x, y, z) = (xy)z - x(yz),
        and let e_u = c^-1 e_a e_b with A(a, ., .) = A(b, ., .) = 0.  Then

            ((ab)y)z = (a(by))z    by A(a, b, y)
                     = a((by)z)    by A(a, by, z)
                     = a(b(yz))    by A(b, y, z)
                     = (ab)(yz)    by A(a, b, yz),

        so A(u, ., .) = 0, and by induction along the covering order of
        _generating_set, A = 0.  The step uses only which single-term
        products cover which index, not associativity.  If the walk fails
        at the generator g0, it is run again for L_0, ..., L_g0; g0 fails,
        so the first failing L_i names the first failing triple in i-j-k
        order.
        """
        dim, table = self.dim, self._table
        for i in range(dim):
            e = {i: _ONE}
            if _mul_into({}, table, self._unit, e) != e or _mul_into({}, table, e, self._unit) != e:
                raise ValueError(f"unit law fails on basis element {self.labels[i]!r}")

        def walk(left_factors):
            maps = [LinMap._raw(table[i].get(j, {}) for j in range(dim)) for i in left_factors]
            return _law_walk(self, maps, range(dim), one_sided=True)

        defect = walk(self._generators)
        if defect is not None:
            n, j, k = walk(range(self._generators[defect[0] - 1] + 1))
            raise ValueError(
                "associativity fails on basis triple "
                f"({self.labels[n - 1]}, {self.labels[j]}, {self.labels[k]})"
            )

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def unit(self) -> Vector:
        return _dense(self._unit, self.dim)

    @property
    def table(self) -> tuple[tuple[Vector, ...], ...]:
        dim = self.dim
        return tuple(tuple(_dense(row.get(j, {}), dim) for j in range(dim)) for row in self._table)

    def __eq__(self, other):
        if type(other) is not TestAlgebra:
            return NotImplemented
        return (self.labels, self._unit, self._table) == (other.labels, other._unit, other._table)

    def __hash__(self):
        return hash((self.labels, frozenset(self._unit.items())))

    def __repr__(self):
        return f"TestAlgebra({self.labels!r}, {self.unit!r}, {self.table!r})"

    def zero(self) -> Vector:
        return _dense({}, self.dim)

    def basis(self, i: int) -> Vector:
        return _dense({i: _ONE}, self.dim)

    def mul(self, u: Vector, v: Vector) -> Vector:
        return _dense(_mul_into({}, self._table, _terms(u), _terms(v)), self.dim)

    def element(self, value) -> Vector:
        """Coerce a {label: coeff} mapping or a coordinate sequence."""
        return _dense(self._element_terms(value), self.dim)

    def _element_terms(self, value) -> Terms:
        if isinstance(value, Mapping):
            coords = [0] * self.dim
            index = {label: i for i, label in enumerate(self.labels)}
            for label, c in value.items():
                if label not in index:
                    raise ValueError(f"unknown basis label {label!r}")
                coords[index[label]] = c
        else:
            coords = tuple(value)
            if len(coords) != self.dim:
                raise ValueError(f"expected {self.dim} coordinates, got {len(coords)}")
        return _terms(coords)


class LinMap:
    """Rational matrix acting on a test algebra; column j = image of e_j."""

    __slots__ = ("_columns",)

    def __init__(self, columns):
        columns = tuple(columns)
        if any(len(col) != len(columns) for col in columns):
            raise ValueError("matrix is not square")
        self._columns = tuple(_terms(col) for col in columns)

    @classmethod
    def _raw(cls, columns: Iterable[Terms]) -> "LinMap":
        # internal fast path: columns already sparse and canonical
        self = cls.__new__(cls)
        self._columns = tuple(columns)
        return self

    @property
    def dim(self) -> int:
        return len(self._columns)

    @property
    def columns(self) -> tuple[Vector, ...]:
        return tuple(_dense(col, self.dim) for col in self._columns)

    @classmethod
    def zero(cls, dim: int) -> "LinMap":
        return cls._raw({} for _ in range(dim))

    @classmethod
    def identity(cls, dim: int) -> "LinMap":
        return cls._raw({i: _ONE} for i in range(dim))

    def apply(self, v: Vector) -> Vector:
        return _dense(_apply_into({}, self._columns, _terms(v)), self.dim)

    def __matmul__(self, other: "LinMap") -> "LinMap":
        # self after other
        columns = self._columns
        return LinMap._raw(_compose_into([{} for _ in columns], columns, other._columns))

    def __add__(self, other: "LinMap") -> "LinMap":
        return LinMap._raw(_combine(((_ONE, self._columns), (_ONE, other._columns)), self.dim))

    def __sub__(self, other: "LinMap") -> "LinMap":
        return LinMap._raw(_combine(((_ONE, self._columns), (_MINUS_ONE, other._columns)), self.dim))

    def scale(self, value) -> "LinMap":
        return LinMap._raw(_combine(((coeff_pair(value), self._columns),), self.dim))

    def __rmul__(self, value) -> "LinMap":
        return self.scale(value)

    def is_zero(self) -> bool:
        return not any(self._columns)

    def __eq__(self, other):
        if type(other) is not LinMap:
            return NotImplemented
        return self._columns == other._columns

    def __hash__(self):
        return hash(tuple(frozenset(col.items()) for col in self._columns))

    def __repr__(self):
        return f"LinMap({self.columns!r})"


def _combine(terms: Iterable[tuple], dim: int) -> list:
    """The columns of the sum of c * m over (c, m) pairs of a (num, den) pair and map columns."""
    columns = [{} for _ in range(dim)]
    for c, m in terms:
        for acc, col in zip(columns, m):
            _k.add_scaled_into(acc, col, c)
    return columns


def _generating_set(table) -> tuple[int, ...]:
    """Basis indices from which single-term products reach every other one.

    A single-term product e_a e_b = c e_u (c != 0, a != u != b) covers u
    once a and b are covered.  The indices that no such product reaches
    are generators; the rest are covered by a worklist keyed by factor,
    so each product is looked at once per factor, and when that stalls
    the smallest uncovered index becomes a generator too.
    """
    dim = len(table)
    target, pending = [], []  # per single-term product: e_u, and its uncovered factors
    uses = [[] for _ in range(dim)]  # uses[x]: the single-term products with factor e_x
    for a, row in enumerate(table):
        for b, prod in row.items():
            if len(prod) == 1:
                (u,) = prod
                if a != u != b:
                    factors = {a, b}
                    for x in factors:
                        uses[x].append(len(target))
                    target.append(u)
                    pending.append(len(factors))
    reached = set(target)
    generators = [u for u in range(dim) if u not in reached]
    covered = [u not in reached for u in range(dim)]
    work, nxt = list(generators), 0
    while True:
        while work:
            for p in uses[work.pop()]:
                pending[p] -= 1
                u = target[p]
                if not (pending[p] or covered[u]):
                    covered[u] = True
                    work.append(u)
        while nxt < dim and covered[nxt]:
            nxt += 1
        if nxt == dim:
            return tuple(sorted(generators))
        generators.append(nxt)
        covered[nxt] = True
        work.append(nxt)


def _law_rows(columns, indices) -> dict:
    """{a: [(i, num, den)]} for i in indices: e_a has num/den in the column of e_i."""
    rows = {}
    for i in indices:
        for a, (num, den) in columns[i].items():
            row = rows.get(a)
            if row is None:
                rows[a] = [(i, num, den)]
            else:
                row.append((i, num, den))
    return rows


def _law_walk(
    algebra: TestAlgebra, maps: Sequence[LinMap], left, one_sided: bool = False
) -> tuple[int, int, int] | None:
    """First (n, i, j) with i in left and d_n(e_i e_j) != sum_k d_k(e_i) d_{n-k}(e_j), or None.

    d_n is maps[n-1], and d_0 the identity.  With one_sided the sum is cut
    to its k = n term, d_n(e_i e_j) = d_n(e_i) e_j: associativity when the
    d_n are left multiplications (see TestAlgebra.__post_init__).  Each n
    is one walk over the nonzero products e_a e_b, grouped by their left
    factor: it adds d_n(e_a e_b) into the accumulator of the pair (a, b)
    for a in left, then subtracts c_i c_j e_a e_b from that of (i, j)
    whenever e_a has coefficient c_i in d_k(e_i), i in left, and e_b has
    c_j in d_{n-k}(e_j).  A pair that no product reaches has both sides
    zero, so by bilinearity this is a complete proof over the pairs
    (i, j) with i in left; the witness is the smallest failing pair at
    the first failing n.
    """
    dim, left, table = algebra.dim, tuple(left), algebra._table
    cols = [LinMap.identity(dim)._columns] + [d._columns for d in maps]
    # only the rows of the maps the law reads: with one_sided, d_n on the
    # left and the identity on the right
    if one_sided:
        lefts = [None] + [_law_rows(columns, left) for columns in cols[1:]]
        rights = [_law_rows(cols[0], range(dim))]
    else:
        rights = [_law_rows(columns, range(dim)) for columns in cols]
        lefts = rights if len(left) == dim else [_law_rows(columns, left) for columns in cols]
    for n in range(1, len(cols)):
        # one flat accumulator: (i dim + j) dim + l holds the e_l coordinate
        # of the defect on the pair (i, j)
        acc = {}
        for a in left:
            for b, prod in table[a].items():
                base = (a * dim + b) * dim
                if len(prod) == 1 and _ONE in prod.values():  # e_a e_b = e_m: d_n(e_m) as stored
                    (m,) = prod
                    image = cols[n][m]
                else:
                    image = _apply_into({}, cols[n], prod)
                for l, c in image.items():
                    acc[base + l] = c
        for k in (n,) if one_sided else range(n + 1):
            right = rights[n - k]
            for a, row_a in lefts[k].items():
                for b, prod in table[a].items():
                    row_b = right.get(b)
                    if row_b is None:
                        continue
                    terms = prod.items()
                    for i, an, ad in row_a:
                        base_i = i * dim
                        for j, bn, bd in row_b:
                            # acc -= c_i c_j e_a e_b, merged as add_scaled_into
                            # does; integer factors need no gcd
                            if ad == 1 and bd == 1:
                                cn, cd = -an * bn, 1
                            else:
                                g1, g2 = gcd(an, bd), gcd(bn, ad)
                                cn, cd = -(an // g1) * (bn // g2), (ad // g2) * (bd // g1)
                            base = (base_i + j) * dim
                            for l, (pn, pd) in terms:
                                if cd == 1 and pd == 1:
                                    wn, wd = cn * pn, 1
                                else:
                                    g1, g2 = gcd(cn, pd), gcd(pn, cd)
                                    wn, wd = (cn // g1) * (pn // g2), (cd // g2) * (pd // g1)
                                key = base + l
                                p = acc.get(key)
                                if p is None:
                                    acc[key] = (wn, wd)
                                elif wd == 1 and p[1] == 1:
                                    s = p[0] + wn
                                    if s:
                                        acc[key] = (s, 1)
                                    else:
                                        del acc[key]
                                else:
                                    s = p[0] * wd + wn * p[1]
                                    if s:
                                        d = p[1] * wd
                                        g = gcd(s, d)
                                        acc[key] = (s // g, d // g)
                                    else:
                                        del acc[key]
        if acc:
            return (n, *divmod(min(acc) // dim, dim))
    return None


def _law_defect(algebra: TestAlgebra, maps: Sequence[LinMap]) -> tuple[int, int, int] | None:
    """First (n, i, j) with d_n(e_i e_j) != sum_k d_k(e_i) d_{n-k}(e_j), or None.

    The law is walked on the pairs (g, j) whose left index g is one of the
    algebra's generators only.  That is a complete proof over every basis
    pair.  Write L(u, w) for the law on (u, w) at every n; it is linear in
    each argument.  Let e_u = c^-1 e_a e_b with L(a, .) and L(b, .) known.
    By associativity, which TestAlgebra.__post_init__ proved on
    construction without this law, L(a, e_b e_w) and L(b, w),

        d_n(e_a e_b e_w) = sum_k d_k(e_a) d_{n-k}(e_b e_w)
                         = sum_p (sum_{k+m=p} d_k(e_a) d_m(e_b)) d_{n-p}(e_w)
                         = sum_p d_p(e_a e_b) d_{n-p}(e_w),

    the last step by L(a, b); so L(u, w) holds, and by induction along
    the covering order of _generating_set the law holds on every pair.
    Each step uses the law at degrees <= n only, so the first n at which
    a generator pair fails is the first n at which any pair fails; the
    walk over every left index is then rerun up to that n, and the
    witness is the smallest failing pair at the first failing n.  A basis
    element that is the unit and has an empty column in every map
    satisfies the law, d_n(1 e_w) = d_0(1) d_n(e_w), so it is not walked.
    """
    dim, generators = algebra.dim, algebra._generators
    if any(d.dim != dim for d in maps):
        raise ValueError("map and algebra dimensions differ")
    walked = generators
    if len(algebra._unit) == 1:
        ((unit, c),) = algebra._unit.items()
        if c == _ONE and not any(d._columns[unit] for d in maps):
            walked = tuple(g for g in generators if g != unit)
    defect = _law_walk(algebra, maps, walked)
    if defect is None or len(generators) == dim:
        return defect
    return _law_walk(algebra, tuple(maps)[: defect[0]], range(dim))


def derivation_defect(d: LinMap, algebra: TestAlgebra):
    """First basis pair (i, j) violating the Leibniz law, or None.

    The Leibniz law is the convolution law of order 1, so this is the
    same complete proof over every basis pair as hs_defect.
    """
    defect = _law_defect(algebra, (d,))
    return None if defect is None else defect[1:]


def is_derivation(d: LinMap, algebra: TestAlgebra) -> bool:
    return derivation_defect(d, algebra) is None


def hs_defect(algebra: TestAlgebra, maps: Sequence[LinMap]):
    """First violated (n, i, j) of the convolution Leibniz law, or None.

    Complete check over every degree n <= len(maps) and every basis
    pair, in exact arithmetic, walked from the generators of the algebra
    (see _law_defect); the witness is the smallest failing pair at the
    first failing n.
    """
    return _law_defect(algebra, maps)


def is_hs(algebra: TestAlgebra, maps: Sequence[LinMap]) -> bool:
    return hs_defect(algebra, maps) is None


class HSFamily:
    """A validated Hasse-Schmidt family (d_1, ..., d_L) on one algebra.

    Immutable, compared and hashed by its algebra and maps.
    """

    __slots__ = ("algebra", "maps")

    def __init__(self, algebra: TestAlgebra, maps: Sequence[LinMap]):
        maps = tuple(maps)
        defect = hs_defect(algebra, maps)
        if defect is not None:
            n, i, j = defect
            raise ValueError(
                f"not a Hasse-Schmidt family: law fails at n={n} on basis pair "
                f"({algebra.labels[i]!r}, {algebra.labels[j]!r})"
            )
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "maps", maps)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable HSFamily")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable HSFamily")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.algebra, self.maps) == (other.algebra, other.maps)

    def __hash__(self):
        return hash((self.algebra, self.maps))

    def __repr__(self):
        return f"HSFamily(algebra={self.algebra!r}, maps={self.maps!r})"

    @property
    def order(self) -> int:
        return len(self.maps)

    def d(self, n: int) -> LinMap:
        """d_n, with d_0 the identity, for 0 <= n <= order."""
        if not 0 <= n <= self.order:
            raise ValueError(f"d_{n} is not in the family: n must be in 0..{self.order}")
        if n == 0:
            return LinMap.identity(self.algebra.dim)
        return self.maps[n - 1]


# ---------------------------------------------------------------------------
# algebra catalog


@lru_cache(maxsize=None)
def truncated_polynomial_algebra(trunc: int) -> TestAlgebra:
    """Rational polynomials in one variable modulo x^(trunc+1)."""
    if trunc < 1:
        raise ValueError("truncation order must be >= 1")
    labels = tuple("1" if k == 0 else ("x" if k == 1 else f"x^{k}") for k in range(trunc + 1))
    products = {(i, j): {i + j: _ONE} for i in range(trunc + 1) for j in range(trunc + 1 - i)}
    return TestAlgebra._raw(labels, {0: _ONE}, products)


@lru_cache(maxsize=None)
def upper_triangular_algebra(size: int) -> TestAlgebra:
    """Upper-triangular size x size rational matrices, basis E_ij (i <= j)."""
    if not 2 <= size:
        raise ValueError("matrix size must be >= 2")
    pairs = [(i, j) for i in range(1, size + 1) for j in range(i, size + 1)]
    index = {p: t for t, p in enumerate(pairs)}
    labels = tuple(f"E{i}{j}" for i, j in pairs)
    products = {
        (a, b): {index[(i, l)]: _ONE}
        for a, (i, j) in enumerate(pairs)
        for b, (k, l) in enumerate(pairs)
        if j == k
    }
    unit = {t: _ONE for t, (i, j) in enumerate(pairs) if i == j}
    return TestAlgebra._raw(labels, unit, products)


@lru_cache(maxsize=None)
def free_word_algebra(depth: int, letters: tuple[str, ...] = ("x", "y")) -> TestAlgebra:
    """The free algebra on the given letters, truncated beyond word length depth.

    Basis: all words of length <= depth (label "1" for the empty word);
    the product of two words is their concatenation, or zero when it
    overflows the cutoff.
    """
    if not isinstance(depth, int) or isinstance(depth, bool) or depth < 1:
        raise ValueError(f"depth must be an integer >= 1, got {depth!r}")
    if any(len(l) != 1 for l in letters):
        raise ValueError("letters must be single characters")
    words = [""]
    frontier = [""]
    for _ in range(depth):
        frontier = [w + l for w in frontier for l in letters]
        words.extend(frontier)
    index = {w: i for i, w in enumerate(words)}
    products = {
        (i, j): {index[u + v]: _ONE}
        for i, u in enumerate(words)
        for j, v in enumerate(words)
        if len(u) + len(v) <= depth
    }
    labels = tuple("1" if w == "" else w for w in words)
    return TestAlgebra._raw(labels, {0: _ONE}, products)


def inner_derivation(algebra: TestAlgebra, element) -> LinMap:
    """ad(m): v -> m*v - v*m, always a derivation."""
    m, table = algebra._element_terms(element), algebra._table
    columns = []
    for j in range(algebra.dim):
        e = {j: _ONE}
        columns.append(_mul_into(_mul_into({}, table, m, e), table, e, m, -1))
    return LinMap._raw(columns)


def taylor_hs(trunc: int, max_degree=None) -> HSFamily:
    """The Taylor family of the substitution f(x) -> f(x/(1-tx)).

    d_n(x^k) = C(n+k-1, n) x^(k+n) — the exponential of the derivation
    x^2 d/dx.  The naive shift x -> x+t does not survive the cutoff
    (x^(trunc+1) = 0 forces every d_n(x) into the ideal (x), so d/dx is
    not even a derivation here); substituting x/(1-tx) is its
    truncation-compatible counterpart and is the canonical nontrivial
    family on this algebra.
    """
    check_index(trunc, max_degree, what="truncation order")
    return _taylor_family(trunc)


@lru_cache(maxsize=None)
def _taylor_family(trunc: int) -> HSFamily:
    algebra = truncated_polynomial_algebra(trunc)
    maps = []
    for n in range(1, trunc + 1):
        # column k: C(n+k-1, n) x^(k+n), zero for k = 0 and past the cutoff
        maps.append(
            LinMap._raw(
                {k + n: (comb(n + k - 1, n), 1)} if k and k + n <= trunc else {}
                for k in range(trunc + 1)
            )
        )
    return HSFamily(algebra, tuple(maps))


def ddx_matrix(trunc: int) -> LinMap:
    """Plain differentiation on the x-power basis (NOT a derivation here)."""
    return LinMap._raw({k - 1: (k, 1)} if k else {} for k in range(trunc + 1))


# ---------------------------------------------------------------------------
# conversions between families and derivation sequences


def delta_from_d(family: HSFamily) -> tuple[LinMap, ...]:
    """Extract ordinary derivations by the Newton-style recursion.

    delta_n = n*d_n - delta_1 d_{n-1} - ... - delta_{n-1} d_1.
    """
    dim, d = family.algebra.dim, [m._columns for m in family.maps]
    deltas: list[list] = []
    for n in range(1, family.order + 1):
        acc = _combine((((n, 1), d[n - 1]),), dim)
        for k in range(1, n):
            _compose_into(acc, deltas[k - 1], d[n - k - 1], _MINUS_ONE)
        deltas.append(acc)
    return tuple(LinMap._raw(columns) for columns in deltas)


def _require_derivations(maps: Sequence[LinMap], algebra: TestAlgebra, what: str):
    for n, d in enumerate(maps, start=1):
        defect = derivation_defect(d, algebra)
        if defect is not None:
            i, j = defect
            raise NotADerivationError(
                f"{what} {n} is not a derivation: Leibniz fails on basis pair "
                f"({algebra.labels[i]!r}, {algebra.labels[j]!r})"
            )


def d_from_delta(deltas: Sequence[LinMap], algebra: TestAlgebra) -> HSFamily:
    """Rebuild the family by the Newton inversion.

    n*d_n = delta_1 d_{n-1} + ... + delta_{n-1} d_1 + delta_n, which equals
    the sum over compositions r of n of c_coeff(r) * delta_r.  The sum is
    taken with unit weights and then scaled by 1/n once.
    """
    deltas = tuple(deltas)
    _require_derivations(deltas, algebra, "delta")
    delta = [m._columns for m in deltas]
    maps: list[list] = []
    for n in range(1, len(delta) + 1):
        acc = _combine(((_ONE, delta[n - 1]),), algebra.dim)
        for k in range(1, n):
            _compose_into(acc, delta[k - 1], maps[n - k - 1])
        # scaled by 1/n once, in place, so each column keeps its key order
        for column in acc:
            for i, (num, den) in column.items():
                g = gcd(num, n)
                column[i] = (num // g, den * (n // g))
        maps.append(acc)
    return HSFamily(algebra, tuple(LinMap._raw(columns) for columns in maps))


def _length_graded(maps: Sequence[LinMap], dim: int) -> dict[tuple[int, int], list]:
    """E[m, n] = sum of M_{r_1}...M_{r_m} over compositions of n into m parts, as columns.

    E[1, n] = M_n and E[m, n] = sum_k M_k E[m-1, n-k].
    """
    order, columns = len(maps), [m._columns for m in maps]
    graded = {(1, n): columns[n - 1] for n in range(1, order + 1)}
    for m in range(2, order + 1):
        for n in range(m, order + 1):
            acc = [{} for _ in range(dim)]
            for k in range(1, n - m + 2):
                _compose_into(acc, columns[k - 1], graded[(m - 1, n - k)])
            graded[(m, n)] = acc
    return graded


def partial_from_d(family: HSFamily) -> tuple[LinMap, ...]:
    """Extract derivations by the logarithm series.

    partial_n = sum over compositions (r_1..r_m) of (-1)^(m+1)/m * d_{r_1}...d_{r_m},
    summed by length m as sum_m (-1)^(m+1)/m E[m, n].
    """
    dim = family.algebra.dim
    graded = _length_graded(family.maps, dim)
    return tuple(
        LinMap._raw(
            _combine((((1 if m % 2 else -1, m), graded[(m, n)]) for m in range(1, n + 1)), dim)
        )
        for n in range(1, family.order + 1)
    )


def d_from_partial(partials: Sequence[LinMap], algebra: TestAlgebra) -> HSFamily:
    """Exponentiate any derivation sequence into a Hasse-Schmidt family.

    d_n = sum over compositions (r_1..r_m) of partial_{r_1}...partial_{r_m} / m!,
    summed by length m as sum_m E[m, n] / m!.
    """
    partials = tuple(partials)
    _require_derivations(partials, algebra, "partial")
    dim = algebra.dim
    graded = _length_graded(partials, dim)
    maps = tuple(
        LinMap._raw(_combine((((1, factorial(m)), graded[(m, n)]) for m in range(1, n + 1)), dim))
        for n in range(1, len(partials) + 1)
    )
    return HSFamily(algebra, maps)


# ---------------------------------------------------------------------------
# free extension and the symbolic/operator bridge


def _basis_words(algebra: TestAlgebra) -> list[str]:
    words = ["" if label == "1" else label for label in algebra.labels]
    have = set(words)
    if "" not in have or any(w and w[1:] not in have for w in words):
        raise ValueError("algebra is not a truncated free word algebra")
    return words


def free_hs_extend(
    generator_images: Mapping, algebra: TestAlgebra, nmaps: int | None = None
) -> HSFamily:
    """Extend prescribed generator values to a family on a free word algebra.

    ``generator_images`` maps (letter, n) to an element (coordinate
    sequence or {label: coeff}); missing pairs mean zero.  Values are
    extended to every basis word by the left-to-right splitting
    d_n(x.v) = sum_k d_k(x) d_{n-k}(v).  Images may not load the unit
    coordinate: on a truncated algebra that breaks the law this family
    must satisfy.
    """
    words = _basis_words(algebra)
    depth = max(len(w) for w in words)
    letters = sorted({w for w in words if len(w) == 1})
    index = {w: i for i, w in enumerate(words)}
    if nmaps is None:
        nmaps = depth

    images: dict[tuple[str, int], Terms] = {}
    for (letter, n), value in generator_images.items():
        if letter not in letters:
            raise ValueError(f"unknown generator {letter!r}")
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"generator image level must be an integer >= 1, got {n!r}")
        if n > nmaps:
            raise ValueError(f"generator image level {n} exceeds the family order {nmaps}")
        vec = algebra._element_terms(value)
        if 0 in vec:
            raise ValueError(
                f"image of ({letter!r}, {n}) has a component on the unit; "
                "truncation makes such families violate the convolution law"
            )
        images[(letter, n)] = vec

    table = algebra._table
    value: dict[tuple[int, str], Terms] = {}

    def d_of(n: int, word: str) -> Terms:
        if n == 0:
            return {index[word]: _ONE}
        got = value.get((n, word))
        if got is not None:
            return got
        if len(word) <= 1:
            out = images.get((word, n), {})
        else:
            head, rest = word[0], word[1:]
            out = {}
            for k in range(n + 1):
                a = {index[head]: _ONE} if k == 0 else images.get((head, k), {})
                _mul_into(out, table, a, d_of(n - k, rest))
        value[(n, word)] = out
        return out

    maps = tuple(LinMap._raw(d_of(n, w) for w in words) for n in range(1, nmaps + 1))
    return HSFamily(algebra, maps)


def operator_from_word_poly(p: NCPoly, maps: Sequence[LinMap], dim: int) -> LinMap:
    """Evaluate a word polynomial with letter k acting as maps[k-1].

    Words compose with the rightmost factor applied first; the empty
    word is the identity.  This is the algebra morphism fixed by
    Z_k -> maps[k-1]; poly._evaluate computes it with one map product per
    edge between the quotients of the support that are distinct up to a
    scalar (n(n + 1)/2 of them for z_in_pprime(n)).  Its single root is
    never yielded scaled or copied, so the column lists never reach
    ``kernels.scale_terms``.
    """
    for m in maps:
        if m.dim != dim:
            raise ValueError(f"map dimension {m.dim} differs from dim {dim}")
    top = max((max(word) for word in p._terms if word), default=0)
    if top > len(maps):
        raise ValueError(f"letter {top} has no map: only {len(maps)} maps given")
    (columns,) = _evaluate(
        [p._terms],
        lambda letter: maps[letter - 1]._columns,
        _compose_into,
        lambda c: [{i: c} for i in range(dim)] if c else [{} for _ in range(dim)],
    )
    return LinMap._raw(columns)
