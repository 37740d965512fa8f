"""Hasse-Schmidt derivations on concrete finite-dimensional algebras.

A test algebra is given by structure constants over exact rationals and
is checked associative and unital on construction.  A family
(d_1, ..., d_L) of linear maps (d_0 = identity, implicit) is
Hasse-Schmidt when d_n(ab) = sum_{k=0..n} d_k(a) d_{n-k}(b); that law
and the plain Leibniz law are verified on ALL basis pairs, which by
bilinearity is a complete proof at the given dimension.

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
* A word polynomial is evaluated over the trie of its support: each
  distinct prefix costs one map product.

A word of derivations acts with its rightmost factor applied first,
matching the module convention (Z_i Z_j) . a = Z_i (Z_j . a); the exact
round-trips on noncommutative algebras pin that convention down.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Iterable, Mapping, Sequence

from .config import check_index
from .poly import NCPoly

Vector = tuple[Fraction, ...]


class NotADerivationError(ValueError):
    """An input map failed the Leibniz law it was required to satisfy."""


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


_ZERO = Fraction(0)


@dataclass(frozen=True)
class TestAlgebra:
    """A finite-dimensional associative unital algebra via structure constants."""

    __test__ = False  # keep pytest from collecting this as a test class

    labels: tuple[str, ...]
    unit: Vector
    table: tuple[tuple[Vector, ...], ...]  # table[i][j] = e_i * e_j

    def __post_init__(self):
        dim = len(self.labels)
        if len(self.unit) != dim or len(self.table) != dim:
            raise ValueError("structure data does not match the basis size")
        for row in self.table:
            if len(row) != dim or any(len(v) != dim for v in row):
                raise ValueError("structure data does not match the basis size")
        # sparse views; also cached basis vectors (validation touches them a lot)
        object.__setattr__(
            self,
            "_sparse",
            tuple(
                tuple(tuple((k, s) for k, s in enumerate(vec) if s) for vec in row)
                for row in self.table
            ),
        )
        object.__setattr__(
            self,
            "_basis",
            tuple(
                tuple(Fraction(int(i == j)) for j in range(dim)) for i in range(dim)
            ),
        )
        for i in range(dim):
            e = self.basis(i)
            if self.mul(self.unit, e) != e or self.mul(e, self.unit) != e:
                raise ValueError(f"unit law fails on basis element {self.labels[i]!r}")
        # (e_i e_j) e_k == e_i (e_j e_k) on every basis triple, expanded
        # through the sparse table
        sp = self._sparse
        for i in range(dim):
            row_i = sp[i]
            for j in range(dim):
                left, row_j = row_i[j], sp[j]
                for k in range(dim):
                    right = row_j[k]
                    if not (left or right):
                        continue
                    acc: dict = {}
                    for l, c in left:
                        for m, s in sp[l][k]:
                            acc[m] = acc.get(m, _ZERO) + c * s
                    for l, c in right:
                        for m, s in row_i[l]:
                            acc[m] = acc.get(m, _ZERO) - c * s
                    if any(acc.values()):
                        raise ValueError(
                            "associativity fails on basis triple "
                            f"({self.labels[i]}, {self.labels[j]}, {self.labels[k]})"
                        )

    @property
    def dim(self) -> int:
        return len(self.labels)

    def zero(self) -> Vector:
        return (_ZERO,) * self.dim

    def basis(self, i: int) -> Vector:
        return self._basis[i]

    def mul(self, u: Vector, v: Vector) -> Vector:
        acc = [_ZERO] * self.dim
        right = [(j, b) for j, b in enumerate(v) if b]
        for i, a in enumerate(u):
            if not a:
                continue
            srow = self._sparse[i]
            for j, b in right:
                prod = srow[j]
                if not prod:
                    continue
                ab = a * b
                for k, s in prod:
                    acc[k] += ab * s
        return tuple(acc)

    def element(self, value) -> Vector:
        """Coerce a {label: coeff} mapping or a coordinate sequence."""
        if isinstance(value, Mapping):
            coords = [_ZERO] * self.dim
            index = {label: i for i, label in enumerate(self.labels)}
            for label, c in value.items():
                if label not in index:
                    raise ValueError(f"unknown basis label {label!r}")
                coords[index[label]] = _as_fraction(c)
            return tuple(coords)
        coords = tuple(_as_fraction(c) for c in value)
        if len(coords) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {len(coords)}")
        return coords

    @classmethod
    def from_products(cls, labels, unit, products: Mapping) -> "TestAlgebra":
        """Build from a sparse {(i, j): vector} table; missing products are zero."""
        labels = tuple(labels)
        dim = len(labels)
        zero = (_ZERO,) * dim
        table = [[zero] * dim for _ in range(dim)]
        for (i, j), vec in products.items():
            row = tuple(_as_fraction(c) for c in vec)
            if len(row) != dim:
                raise ValueError(f"product vector for ({i}, {j}) has wrong length")
            table[i][j] = row
        unit_vec = tuple(_as_fraction(c) for c in unit)
        return cls(labels, unit_vec, tuple(tuple(row) for row in table))


@dataclass(frozen=True)
class LinMap:
    """Rational matrix acting on a test algebra; column j = image of e_j."""

    columns: tuple[Vector, ...]

    @property
    def dim(self) -> int:
        return len(self.columns)

    @classmethod
    def zero(cls, dim: int) -> "LinMap":
        return cls(((_ZERO,) * dim,) * dim)

    @classmethod
    def identity(cls, dim: int) -> "LinMap":
        return cls(tuple(tuple(Fraction(int(i == j)) for i in range(dim)) for j in range(dim)))

    @classmethod
    def from_columns(cls, columns) -> "LinMap":
        cols = tuple(tuple(_as_fraction(c) for c in col) for col in columns)
        dim = len(cols)
        if any(len(col) != dim for col in cols):
            raise ValueError("matrix is not square")
        return cls(cols)

    def _sparse_columns(self):
        cached = getattr(self, "_sparse", None)
        if cached is None:
            cached = tuple(
                tuple((i, s) for i, s in enumerate(col) if s) for col in self.columns
            )
            object.__setattr__(self, "_sparse", cached)
        return cached

    def _apply_sparse(self, entries) -> Vector:
        acc = [_ZERO] * self.dim
        sparse = self._sparse_columns()
        for j, c in entries:
            for i, s in sparse[j]:
                acc[i] += c * s
        return tuple(acc)

    def apply(self, v: Vector) -> Vector:
        return self._apply_sparse((j, c) for j, c in enumerate(v) if c)

    def __matmul__(self, other: "LinMap") -> "LinMap":
        # self after other
        return LinMap(tuple(self._apply_sparse(col) for col in other._sparse_columns()))

    def __add__(self, other: "LinMap") -> "LinMap":
        return _combine(((1, self), (1, other)), self.dim)

    def __sub__(self, other: "LinMap") -> "LinMap":
        return _combine(((1, self), (-1, other)), self.dim)

    def scale(self, value) -> "LinMap":
        return _combine(((_as_fraction(value), self),), self.dim)

    def __rmul__(self, value) -> "LinMap":
        return self.scale(value)

    def is_zero(self) -> bool:
        return not any(self._sparse_columns())


def _combine(terms: Iterable[tuple], dim: int) -> LinMap:
    """sum of c * m over (c, m) pairs of a rational and a map, on the nonzero entries."""
    acc = [[_ZERO] * dim for _ in range(dim)]
    for c, m in terms:
        if not c:
            continue
        for col, entries in zip(acc, m._sparse_columns()):
            for i, s in entries:
                col[i] += c * s
    return LinMap(tuple(tuple(col) for col in acc))


def derivation_defect(d: LinMap, algebra: TestAlgebra):
    """First basis pair (i, j) violating the Leibniz law, or None.

    Checked on every basis pair, which by bilinearity is a complete
    proof at this dimension.
    """
    if d.dim != algebra.dim:
        raise ValueError("map and algebra dimensions differ")
    sp = algebra._sparse
    cols = d._sparse_columns()
    for i in range(algebra.dim):
        for j in range(algebra.dim):
            acc: dict = {}
            for l, c in sp[i][j]:  # d(e_i e_j)
                for t, s in cols[l]:
                    acc[t] = acc.get(t, _ZERO) + c * s
            for t, s in cols[j]:  # - e_i d(e_j)
                for m, c in sp[i][t]:
                    acc[m] = acc.get(m, _ZERO) - s * c
            for t, s in cols[i]:  # - d(e_i) e_j
                for m, c in sp[t][j]:
                    acc[m] = acc.get(m, _ZERO) - s * c
            if any(acc.values()):
                return (i, j)
    return None


def is_derivation(d: LinMap, algebra: TestAlgebra) -> bool:
    return derivation_defect(d, algebra) is None


def hs_defect(algebra: TestAlgebra, maps: Sequence[LinMap]):
    """First violated (n, i, j) of the convolution Leibniz law, or None.

    Complete check over every degree n <= len(maps) and every basis
    pair, in exact arithmetic.
    """
    dim = algebra.dim
    for d in maps:
        if d.dim != dim:
            raise ValueError("map and algebra dimensions differ")
    sp = algebra._sparse
    identity = tuple(((i, Fraction(1)),) for i in range(dim))
    cols = [identity] + [d._sparse_columns() for d in maps]
    for n in range(1, len(maps) + 1):
        dn = cols[n]
        for i in range(dim):
            for j in range(dim):
                acc: dict = {}
                for l, c in sp[i][j]:  # d_n(e_i e_j)
                    for t, s in dn[l]:
                        acc[t] = acc.get(t, _ZERO) + c * s
                for k in range(n + 1):  # - sum d_k(e_i) d_{n-k}(e_j)
                    right = cols[n - k][j]
                    if not right:
                        continue
                    for a, ca in cols[k][i]:
                        row = sp[a]
                        for b, cb in right:
                            prod = row[b]
                            if not prod:
                                continue
                            cab = ca * cb
                            for t, s in prod:
                                acc[t] = acc.get(t, _ZERO) - cab * s
                if any(acc.values()):
                    return (n, i, j)
    return None


def is_hs(algebra: TestAlgebra, maps: Sequence[LinMap]) -> bool:
    return hs_defect(algebra, maps) is None


@dataclass(frozen=True)
class HSFamily:
    """A validated Hasse-Schmidt family (d_1, ..., d_L) on one algebra."""

    algebra: TestAlgebra
    maps: tuple[LinMap, ...]

    def __post_init__(self):
        object.__setattr__(self, "maps", tuple(self.maps))
        defect = hs_defect(self.algebra, self.maps)
        if defect is not None:
            n, i, j = defect
            raise ValueError(
                f"not a Hasse-Schmidt family: law fails at n={n} on basis pair "
                f"({self.algebra.labels[i]!r}, {self.algebra.labels[j]!r})"
            )

    @property
    def order(self) -> int:
        return len(self.maps)

    def d(self, n: int) -> LinMap:
        """d_n, with d_0 the identity."""
        if n == 0:
            return LinMap.identity(self.algebra.dim)
        return self.maps[n - 1]


# ---------------------------------------------------------------------------
# algebra catalog


@lru_cache(maxsize=None)
def _binomial(k: int, n: int) -> int:
    if n < 0 or n > k:
        return 0
    out = 1
    for t in range(n):
        out = out * (k - t) // (t + 1)
    return out


@lru_cache(maxsize=None)
def truncated_polynomial_algebra(trunc: int) -> TestAlgebra:
    """Rational polynomials in one variable modulo x^(trunc+1)."""
    if trunc < 1:
        raise ValueError("truncation order must be >= 1")
    labels = tuple("1" if k == 0 else ("x" if k == 1 else f"x^{k}") for k in range(trunc + 1))
    products = {}
    for i in range(trunc + 1):
        for j in range(trunc + 1):
            if i + j <= trunc:
                products[(i, j)] = tuple(int(k == i + j) for k in range(trunc + 1))
    unit = tuple(int(k == 0) for k in range(trunc + 1))
    return TestAlgebra.from_products(labels, unit, products)


@lru_cache(maxsize=None)
def upper_triangular_algebra(size: int) -> TestAlgebra:
    """Upper-triangular size x size rational matrices, basis E_ij (i <= j)."""
    if not 2 <= size:
        raise ValueError("matrix size must be >= 2")
    pairs = [(i, j) for i in range(1, size + 1) for j in range(i, size + 1)]
    index = {p: t for t, p in enumerate(pairs)}
    labels = tuple(f"E{i}{j}" for i, j in pairs)
    dim = len(pairs)
    products = {}
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            if j == k:
                products[(a, b)] = tuple(int(t == index[(i, l)]) for t in range(dim))
    unit = tuple(int(i == j) for i, j in pairs)
    return TestAlgebra.from_products(labels, unit, products)


@lru_cache(maxsize=None)
def free_word_algebra(depth: int, letters: tuple[str, ...] = ("x", "y")) -> TestAlgebra:
    """The free algebra on the given letters, truncated beyond word length depth.

    Basis: all words of length <= depth (label "1" for the empty word);
    the product of two words is their concatenation, or zero when it
    overflows the cutoff.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if any(len(l) != 1 for l in letters):
        raise ValueError("letters must be single characters")
    words = [""]
    frontier = [""]
    for _ in range(depth):
        frontier = [w + l for w in frontier for l in letters]
        words.extend(frontier)
    index = {w: i for i, w in enumerate(words)}
    dim = len(words)
    products = {}
    for i, u in enumerate(words):
        for j, v in enumerate(words):
            if len(u) + len(v) <= depth:
                products[(i, j)] = tuple(int(t == index[u + v]) for t in range(dim))
    labels = tuple("1" if w == "" else w for w in words)
    unit = tuple(int(i == 0) for i in range(dim))
    return TestAlgebra.from_products(labels, unit, products)


def inner_derivation(algebra: TestAlgebra, element) -> LinMap:
    """ad(m): v -> m*v - v*m, always a derivation."""
    m = algebra.element(element)
    columns = []
    for j in range(algebra.dim):
        e = algebra.basis(j)
        left = algebra.mul(m, e)
        right = algebra.mul(e, m)
        columns.append(tuple(a - b for a, b in zip(left, right)))
    return LinMap(tuple(columns))


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
        columns = []
        for k in range(trunc + 1):
            columns.append(
                tuple(
                    Fraction(_binomial(n + k - 1, n)) if t == k + n else _ZERO
                    for t in range(trunc + 1)
                )
            )
        maps.append(LinMap(tuple(columns)))
    return HSFamily(algebra, tuple(maps))


def ddx_matrix(trunc: int) -> LinMap:
    """Plain differentiation on the x-power basis (NOT a derivation here)."""
    columns = []
    for k in range(trunc + 1):
        columns.append(
            tuple(Fraction(k) if t == k - 1 else _ZERO for t in range(trunc + 1))
        )
    return LinMap(tuple(columns))


# ---------------------------------------------------------------------------
# conversions between families and derivation sequences


def delta_from_d(family: HSFamily) -> tuple[LinMap, ...]:
    """Extract ordinary derivations by the Newton-style recursion.

    delta_n = n*d_n - delta_1 d_{n-1} - ... - delta_{n-1} d_1.
    """
    deltas: list[LinMap] = []
    for n in range(1, family.order + 1):
        acc = family.d(n).scale(n)
        for k in range(1, n):
            acc = acc - (deltas[k - 1] @ family.d(n - k))
        deltas.append(acc)
    return tuple(deltas)


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
    the sum over compositions r of n of c_coeff(r) * delta_r.
    """
    deltas = tuple(deltas)
    _require_derivations(deltas, algebra, "delta")
    maps: list[LinMap] = []
    for n in range(1, len(deltas) + 1):
        w = Fraction(1, n)
        terms = [(w, deltas[k - 1] @ maps[n - k - 1]) for k in range(1, n)]
        terms.append((w, deltas[n - 1]))
        maps.append(_combine(terms, algebra.dim))
    return HSFamily(algebra, tuple(maps))


def _length_graded(maps: Sequence[LinMap], dim: int) -> dict[tuple[int, int], LinMap]:
    """E[m, n] = sum of M_{r_1}...M_{r_m} over compositions of n into m parts.

    E[1, n] = M_n and E[m, n] = sum_k M_k E[m-1, n-k].
    """
    order = len(maps)
    graded = {(1, n): maps[n - 1] for n in range(1, order + 1)}
    for m in range(2, order + 1):
        for n in range(m, order + 1):
            graded[(m, n)] = _combine(
                ((1, maps[k - 1] @ graded[(m - 1, n - k)]) for k in range(1, n - m + 2)), dim
            )
    return graded


def partial_from_d(family: HSFamily) -> tuple[LinMap, ...]:
    """Extract derivations by the logarithm series.

    partial_n = sum over compositions (r_1..r_m) of (-1)^(m+1)/m * d_{r_1}...d_{r_m},
    summed by length m as sum_m (-1)^(m+1)/m E[m, n].
    """
    dim = family.algebra.dim
    graded = _length_graded(family.maps, dim)
    return tuple(
        _combine(
            ((Fraction(1 if m % 2 else -1, m), graded[(m, n)]) for m in range(1, n + 1)), dim
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
        _combine(((Fraction(1, factorial(m)), graded[(m, n)]) for m in range(1, n + 1)), dim)
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

    images: dict[tuple[str, int], Vector] = {}
    for (letter, n), value in generator_images.items():
        if letter not in letters:
            raise ValueError(f"unknown generator {letter!r}")
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"generator image level must be an integer >= 1, got {n!r}")
        if n > nmaps:
            raise ValueError(f"generator image level {n} exceeds the family order {nmaps}")
        vec = algebra.element(value)
        if vec[0]:
            raise ValueError(
                f"image of ({letter!r}, {n}) has a component on the unit; "
                "truncation makes such families violate the convolution law"
            )
        images[(letter, n)] = vec

    zero = algebra.zero()
    value: dict[tuple[int, str], Vector] = {}

    def d_of(n: int, word: str) -> Vector:
        if n == 0:
            return algebra.basis(index[word])
        got = value.get((n, word))
        if got is not None:
            return got
        if word == "":
            out = zero
        elif len(word) == 1:
            out = images.get((word, n), zero)
        else:
            head, rest = word[0], word[1:]
            acc = [_ZERO] * algebra.dim
            for k in range(n + 1):
                a = algebra.basis(index[head]) if k == 0 else images.get((head, k), zero)
                prod = algebra.mul(a, d_of(n - k, rest))
                for t, s in enumerate(prod):
                    if s:
                        acc[t] += s
            out = tuple(acc)
        value[(n, word)] = out
        return out

    maps = []
    for n in range(1, nmaps + 1):
        maps.append(LinMap(tuple(d_of(n, w) for w in words)))
    return HSFamily(algebra, tuple(maps))


def operator_from_word_poly(p: NCPoly, maps: Sequence[LinMap], dim: int) -> LinMap:
    """Evaluate a word polynomial with letter k acting as maps[k-1].

    Words compose with the rightmost factor applied first; the empty
    word is the identity.  The support is walked in lexicographic order,
    depth first through its trie: each distinct prefix costs one map
    product, and only the products along the current path are kept.
    """

    def products():
        path: list[int] = []
        stack = [LinMap.identity(dim)]  # stack[t] = product of path[:t]
        for word, coefficient in sorted(p.items()):
            common = 0
            while common < min(len(path), len(word)) and path[common] == word[common]:
                common += 1
            del path[common:], stack[common + 1 :]
            for letter in word[common:]:
                step = maps[letter - 1]
                stack.append(stack[-1] @ step if path else step)
                path.append(letter)
            yield coefficient, stack[-1]

    return _combine(products(), dim)
