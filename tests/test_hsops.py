import random
import re
from fractions import Fraction
from functools import lru_cache
from math import factorial

import pytest

from nsymm import (
    HSFamily,
    LinMap,
    NCPoly,
    NotADerivationError,
    TestAlgebra,
    d_from_delta,
    d_from_partial,
    delta_from_d,
    derivation_defect,
    free_hs_extend,
    free_word_algebra,
    hs_defect,
    inner_derivation,
    is_derivation,
    is_hs,
    operator_from_word_poly,
    partial_from_d,
    newton_p_right,
    taylor_hs,
    truncated_polynomial_algebra,
    upper_triangular_algebra,
    u_of_z,
    z_in_pprime,
)
from nsymm import hsops, poly
from nsymm.hsops import ddx_matrix
from nsymm.newton import c_coeff
from nsymm.words import compositions_of

F = Fraction


# --- oracles: dense loops and composition sums --------------------------------
#
# The library checks laws on the sparse structure constants and builds
# families by recursions; these are the direct definitions, kept as
# independent references for exact comparison.


def _dense_mul(table, u, v):
    dim = len(table)
    acc = [F(0)] * dim
    right = [(j, b) for j, b in enumerate(v) if b]
    for i, a in enumerate(u):
        if not a:
            continue
        for j, b in right:
            for k, s in enumerate(table[i][j]):
                if s:
                    acc[k] += a * b * s
    return tuple(acc)


def _unit_vector(dim, i):
    return tuple(F(int(i == t)) for t in range(dim))


def oracle_associativity_failures(table):
    """Every basis triple (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k), in i-j-k order."""
    dim = len(table)
    basis = [_unit_vector(dim, i) for i in range(dim)]
    return [
        (i, j, k)
        for i in range(dim)
        for j in range(dim)
        for k in range(dim)
        if _dense_mul(table, table[i][j], basis[k]) != _dense_mul(table, basis[i], table[j][k])
    ]


def _dense_apply(columns, v):
    acc = [F(0)] * len(columns)
    for l, c in enumerate(v):
        if c:
            acc = [a + c * s for a, s in zip(acc, columns[l])]
    return tuple(acc)


def oracle_hs_failures(algebra, maps):
    """Every (n, i, j) violating d_n(e_i e_j) = sum_k d_k(e_i) d_{n-k}(e_j), in order."""
    dim = algebra.dim
    table = algebra.table
    cols = [[_unit_vector(dim, i) for i in range(dim)]] + [list(m.columns) for m in maps]

    failures = []
    for n in range(1, len(maps) + 1):
        for i in range(dim):
            for j in range(dim):
                lhs = _dense_apply(cols[n], table[i][j])
                rhs = [F(0)] * dim
                for k in range(n + 1):
                    prod = _dense_mul(table, cols[k][i], cols[n - k][j])
                    rhs = [a + b for a, b in zip(rhs, prod)]
                if lhs != tuple(rhs):
                    failures.append((n, i, j))
    return failures


def oracle_derivation_failures(algebra, d):
    """Every basis pair (i, j) with d(e_i e_j) != d(e_i) e_j + e_i d(e_j), in i-j order."""
    dim, table, cols = algebra.dim, algebra.table, d.columns
    basis = [_unit_vector(dim, i) for i in range(dim)]
    failures = []
    for i in range(dim):
        for j in range(dim):
            rhs = zip(_dense_mul(table, cols[i], basis[j]), _dense_mul(table, basis[i], cols[j]))
            if _dense_apply(cols, table[i][j]) != tuple(a + b for a, b in rhs):
                failures.append((i, j))
    return failures


def _word_compose(maps, word, dim):
    # rightmost letter applied first: fold the matrix product left to right
    out = LinMap.identity(dim)
    for letter in word:
        out = out @ maps[letter - 1]
    return out


def oracle_d_from_delta(deltas, dim):
    """d_n = sum over compositions of c_coeff(r) * delta_r."""
    maps = []
    for n in range(1, len(deltas) + 1):
        acc = LinMap.zero(dim)
        for word in compositions_of(n):
            acc = acc + _word_compose(deltas, word, dim).scale(c_coeff(word))
        maps.append(acc)
    return tuple(maps)


def oracle_partial_from_d(maps, dim):
    """partial_n = sum over compositions (r_1..r_m) of (-1)^(m+1)/m * d_{r_1}...d_{r_m}."""
    partials = []
    for n in range(1, len(maps) + 1):
        acc = LinMap.zero(dim)
        for word in compositions_of(n):
            m = len(word)
            sign = 1 if m % 2 else -1
            acc = acc + _word_compose(maps, word, dim).scale(Fraction(sign, m))
        partials.append(acc)
    return tuple(partials)


def oracle_d_from_partial(partials, dim):
    """d_n = sum over compositions (r_1..r_m) of partial_{r_1}...partial_{r_m} / m!."""
    maps = []
    for n in range(1, len(partials) + 1):
        acc = LinMap.zero(dim)
        for word in compositions_of(n):
            acc = acc + _word_compose(partials, word, dim).scale(Fraction(1, factorial(len(word))))
        maps.append(acc)
    return tuple(maps)


def oracle_operator_from_word_poly(p, maps, dim):
    total = LinMap.zero(dim)
    for word, coefficient in p.items():
        total = total + _word_compose(maps, word, dim).scale(coefficient)
    return total


def free_word_family():
    """An order-3 free extension on the dim-15 free word algebra; every d_n nonzero."""
    A = free_word_algebra(3)
    return free_hs_extend(
        {("x", 1): {"y": 1}, ("x", 2): {"x": 1, "yy": -2}, ("y", 1): {"xy": 1}, ("y", 3): {"x": "1/2"}},
        A,
    )


def inner_sequence(size):
    """Five seeded inner derivations of the upper-triangular algebra."""
    A = upper_triangular_algebra(size)
    rng = random.Random(f"inner-{size}")
    seq = []
    for _ in range(5):
        element = {label: rng.randint(-3, 3) for label in rng.sample(A.labels, 3)}
        seq.append(inner_derivation(A, element))
    return A, tuple(seq)


# --- algebra construction ---------------------------------------------------


def test_truncated_polynomial_algebra():
    A = truncated_polynomial_algebra(3)
    assert A.dim == 4
    assert A.labels == ("1", "x", "x^2", "x^3")
    x = A.element({"x": 1})
    x2 = A.mul(x, x)
    assert x2 == A.element({"x^2": 1})
    assert A.mul(x2, x2) == A.zero()  # x^4 == 0


def test_upper_triangular_algebra():
    A = upper_triangular_algebra(2)
    assert A.dim == 3
    e12 = A.element({"E12": 1})
    assert A.mul(e12, e12) == A.zero()
    assert A.mul(A.element({"E11": 1}), e12) == e12
    assert A.mul(e12, A.element({"E11": 1})) == A.zero()


def test_free_word_algebra():
    A = free_word_algebra(2)
    assert A.dim == 7  # 1, x, y, xx, xy, yx, yy
    xy = A.mul(A.element({"x": 1}), A.element({"y": 1}))
    assert xy == A.element({"xy": 1})
    assert A.mul(xy, A.element({"x": 1})) == A.zero()  # overflows the cutoff


def test_association_failure_is_caught():
    # a*a = b, a*b = 1 is not associative: (aa)b = b^2 = 0 but a(ab) = a
    products = {
        (0, 0): (1, 0, 0), (0, 1): (0, 1, 0), (0, 2): (0, 0, 1),
        (1, 0): (0, 1, 0), (2, 0): (0, 0, 1),
        (1, 1): (0, 0, 1), (1, 2): (1, 0, 0),
    }
    with pytest.raises(ValueError, match="associativity"):
        TestAlgebra.from_products(("1", "a", "b"), (1, 0, 0), products)


def test_association_failure_names_first_triple():
    # the algebra above fails on several triples; the error names the first
    labels = ("1", "a", "b")
    products = {
        (0, 0): (1, 0, 0), (0, 1): (0, 1, 0), (0, 2): (0, 0, 1),
        (1, 0): (0, 1, 0), (2, 0): (0, 0, 1),
        (1, 1): (0, 0, 1), (1, 2): (1, 0, 0),
    }
    table = [[(F(0),) * 3 for _ in range(3)] for _ in range(3)]
    for (i, j), vec in products.items():
        table[i][j] = tuple(F(c) for c in vec)
    failures = oracle_associativity_failures(table)
    assert len(failures) >= 2
    first = "({}, {}, {})".format(*(labels[t] for t in failures[0]))
    with pytest.raises(ValueError, match=re.escape(f"associativity fails on basis triple {first}")):
        TestAlgebra.from_products(labels, (1, 0, 0), products)


def test_perturbed_word_algebra_names_first_triple():
    # y*x := yx + xy keeps the unit law but breaks associativity on four
    # triples; in j-i-k order the first would be (y, x, x), not (x, y, x)
    A = free_word_algebra(3)
    x, y, xy, yx = (A.labels.index(label) for label in ("x", "y", "xy", "yx"))
    table = [list(row) for row in A.table]
    table[y][x] = tuple(F(int(t in (xy, yx))) for t in range(A.dim))
    table = tuple(tuple(row) for row in table)
    failures = oracle_associativity_failures(table)
    assert len(failures) == 4 and failures[0] == (x, y, x)
    first = "({}, {}, {})".format(*(A.labels[t] for t in failures[0]))
    with pytest.raises(ValueError, match=re.escape(f"associativity fails on basis triple {first}")):
        TestAlgebra(A.labels, A.unit, table)


def test_association_failure_with_zero_left_product_names_first_triple():
    # E23 * E12 := E12 keeps the unit law; the first failing triple is
    # (E11, E23, E12), where E11 E23 = 0 but E23 E12 is not
    A = upper_triangular_algebra(3)
    e11, e12, e23 = (A.labels.index(label) for label in ("E11", "E12", "E23"))
    table = [list(row) for row in A.table]
    table[e23][e12] = A.basis(e12)
    table = tuple(tuple(row) for row in table)
    failures = oracle_associativity_failures(table)
    i, j, k = failures[0]
    assert (i, j, k) == (e11, e23, e12)
    assert not any(table[i][j]) and any(table[j][k])
    with pytest.raises(ValueError, match=re.escape("associativity fails on basis triple (E11, E23, E12)")):
        TestAlgebra(A.labels, A.unit, table)


def test_rational_basis_association_failure_names_first_triple():
    # the structure constants and the unit have several rational terms; the
    # change (f_1 f_2, f_1 f_3, f_2 f_2, f_2 f_3) += f_4 (u_2, -u_1) (u_3, -u_2)
    # is orthogonal to the unit u on both sides, so the unit law still holds
    A, _ = rational_basis_family()
    assert oracle_associativity_failures(A.table) == []
    u, v = A.unit, A.basis(4)
    table = [list(row) for row in A.table]
    for i, a in ((1, u[2]), (2, -u[1])):
        for j, b in ((2, u[3]), (3, -u[2])):
            table[i][j] = tuple(s + a * b * t for s, t in zip(table[i][j], v))
    failures = oracle_associativity_failures(table)
    assert len(failures) >= 2
    first = "({}, {}, {})".format(*(A.labels[t] for t in failures[0]))
    with pytest.raises(ValueError, match=re.escape(f"associativity fails on basis triple {first}")):
        TestAlgebra(A.labels, A.unit, table)


def _single_entry_perturbations(algebra):
    """Every table with e_a e_b += e_t that keeps the unit law.

    The change adds u_a e_t to u e_b and u_b e_t to e_a u, where u_a is the
    coefficient of e_a in the unit u, so the unit law survives exactly
    when u_a = u_b = 0.
    """
    base = algebra.table
    outside = [i for i, c in enumerate(algebra.unit) if not c]
    for a in outside:
        for b in outside:
            for t in range(algebra.dim):
                table = [list(row) for row in base]
                table[a][b] = tuple(c + int(s == t) for s, c in enumerate(table[a][b]))
                yield tuple(tuple(row) for row in table)


@pytest.mark.parametrize(
    "algebra",
    [upper_triangular_algebra(3), upper_triangular_algebra(4), free_word_algebra(2), truncated_polynomial_algebra(3)],
    ids=lambda A: f"dim{A.dim}-{A.labels[1]}",
)
def test_single_entry_perturbations_name_the_oracle_triple(algebra):
    # associativity is walked for the left multiplications of the generators
    # only; a failing walk reruns for every left factor up to the failing
    # generator, so the error names the oracle's first triple in i-j-k order
    broken = 0
    for table in _single_entry_perturbations(algebra):
        failures = oracle_associativity_failures(table)
        if not failures:
            assert TestAlgebra(algebra.labels, algebra.unit, table).table == table
            continue
        broken += 1
        first = "({}, {}, {})".format(*(algebra.labels[s] for s in failures[0]))
        with pytest.raises(ValueError, match=re.escape(f"associativity fails on basis triple {first}")):
            TestAlgebra(algebra.labels, algebra.unit, table)
    assert broken


def test_failing_generator_multiplication_reruns_over_every_left_factor():
    # E23 E12 += E33 first fails on (E13, E23, E12); E13 = E12 E23 is not a
    # generator, and the walk over the generators alone fails first at
    # (E22, E23, E12)
    A = upper_triangular_algebra(3)
    e13, e22, e23, e12, e33 = (A.labels.index(label) for label in ("E13", "E22", "E23", "E12", "E33"))
    assert e13 not in A._generators and e22 in A._generators
    table = [list(row) for row in A.table]
    table[e23][e12] = A.basis(e33)
    failures = oracle_associativity_failures(table)
    assert failures[0] == (e13, e23, e12) and (e22, e23, e12) in failures
    with pytest.raises(ValueError, match=re.escape("associativity fails on basis triple (E13, E23, E12)")):
        TestAlgebra(A.labels, A.unit, table)


@pytest.mark.parametrize("build", ["init", "from_products"])
def test_repeated_basis_label_is_rejected(build):
    # 1, a, b with every product of a and b zero, labelled 1, a, a:
    # element({"a": 1}) would pick one of the two, and a witness naming 'a'
    # could mean either
    zero = (0, 0, 0)
    table = [[(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 0), zero, zero], [(0, 0, 1), zero, zero]]
    with pytest.raises(ValueError, match=re.escape("repeated basis label 'a'")):
        if build == "init":
            TestAlgebra(("1", "a", "a"), (1, 0, 0), table)
        else:
            products = {(i, j): vec for i, row in enumerate(table) for j, vec in enumerate(row)}
            TestAlgebra.from_products(("1", "a", "a"), (1, 0, 0), products)


@pytest.mark.parametrize(
    "algebra",
    [truncated_polynomial_algebra(t) for t in (1, 3, 5)]
    + [upper_triangular_algebra(s) for s in (2, 3, 4)]
    + [free_word_algebra(d) for d in (1, 2, 3)],
    ids=lambda A: f"dim{A.dim}-{A.labels[1]}",
)
def test_catalog_algebras_pass_dense_associativity_oracle(algebra):
    assert oracle_associativity_failures(algebra.table) == []


def test_unit_failure_is_caught():
    products = {(0, 0): (1, 0), (0, 1): (0, 1), (1, 0): (0, 1), (1, 1): (0, 0)}
    with pytest.raises(ValueError, match="unit"):
        TestAlgebra.from_products(("1", "a"), (0, 1), products)


@pytest.mark.parametrize(
    "bad", [(-1, 0), (0, -1), (2, 0), (0, 2), (True, 0), (0.0, 0), (0,), (0, 0, 0), 0], ids=repr
)
def test_from_products_rejects_pairs_outside_the_basis(bad):
    # a negative index must not wrap around to the end of the basis; the bad key
    # comes first, so a key equal to it, such as (1, 0) to (True, 0), keeps it
    products = {bad: (0, 0), (0, 0): (1, 0), (0, 1): (0, 1), (1, 0): (0, 1)}
    with pytest.raises(ValueError, match=re.escape(f"product index pair {bad!r} is outside")):
        TestAlgebra.from_products(("1", "a"), (1, 0), products)


def test_element_coercion():
    A = truncated_polynomial_algebra(2)
    assert A.element(["1/2", 0, 3]) == (F(1, 2), F(0), F(3))
    with pytest.raises(ValueError):
        A.element({"nope": 1})
    with pytest.raises(ValueError):
        A.element([1, 2])


# --- derivation checks ------------------------------------------------------


def test_zero_map_is_derivation():
    A = upper_triangular_algebra(3)
    assert is_derivation(LinMap.zero(A.dim), A)


def test_identity_is_not_derivation():
    A = truncated_polynomial_algebra(2)
    d = LinMap.identity(A.dim)
    assert not is_derivation(d, A)
    assert derivation_defect(d, A) == (0, 0)  # id(1*1) = 1 but the law gives 2


def test_inner_derivations():
    A = upper_triangular_algebra(2)
    for element in ({"E12": 1}, {"E11": 2, "E12": -1}, {"E22": "1/3"}):
        assert is_derivation(inner_derivation(A, element), A)


def test_plain_ddx_is_not_a_derivation_on_the_quotient():
    # the top-degree Leibniz pair breaks: d(x * x^t) = 0 but the law gives
    # (t+1) x^t != 0, which is why the shipped Taylor family uses x^2 d/dx
    for trunc in (1, 4, 6):
        A = truncated_polynomial_algebra(trunc)
        assert not is_derivation(ddx_matrix(trunc), A)


# --- the Taylor family ------------------------------------------------------


def symbolic_substitution_family(trunc, n, k):
    """Oracle: coefficient of t^n in (x/(1-tx))^k, truncated at x^trunc."""
    # (x/(1-tx))^k = sum_{m>=0} C(k+m-1, m) x^(k+m) t^m
    from math import comb

    if k == 0:
        return {0: F(1)} if n == 0 else {}
    degree = k + n
    if degree > trunc:
        return {}
    return {degree: F(comb(k + n - 1, n))}


def test_taylor_values_match_oracle():
    fam = taylor_hs(6)
    for n in range(1, 7):
        for k in range(7):
            column = fam.d(n).columns[k]
            expected = symbolic_substitution_family(6, n, k)
            assert {i: c for i, c in enumerate(column) if c} == expected


def test_taylor_small_values():
    fam = taylor_hs(6)
    x2 = fam.algebra.element({"x^2": 1})
    assert fam.d(1).apply(x2) == fam.algebra.element({"x^3": 2})
    assert fam.d(2).apply(x2) == fam.algebra.element({"x^4": 3})
    assert fam.d(1).apply(fam.algebra.unit) == fam.algebra.zero()


def test_taylor_is_hs():
    fam = taylor_hs(5)
    assert is_hs(fam.algebra, fam.maps)


def test_perturbed_family_reports_witness():
    fam = taylor_hs(6)
    maps = list(fam.maps)
    columns = [list(col) for col in maps[1].columns]
    columns[3] = tuple(c + 1 for c in columns[3])
    maps[1] = LinMap(tuple(tuple(col) for col in [tuple(c) for c in columns]))
    defect = hs_defect(fam.algebra, maps)
    assert defect is not None
    n, i, j = defect
    assert n >= 1 and 0 <= i < 7 and 0 <= j < 7
    with pytest.raises(ValueError, match="law fails"):
        HSFamily(fam.algebra, tuple(maps))


def test_hs_family_is_immutable_and_compared_by_value():
    fam = taylor_hs(4)
    same = HSFamily(algebra=fam.algebra, maps=list(fam.maps))
    assert same == fam and hash(same) == hash(fam)
    assert isinstance(same.maps, tuple)
    assert same != HSFamily(fam.algebra, fam.maps[:2])
    with pytest.raises(AttributeError):
        same.maps = ()
    with pytest.raises(AttributeError):
        del same.algebra
    with pytest.raises(AttributeError):
        same.extra = 1


def test_hs_defect_reports_oracle_first_witness():
    for fam, perturb in ((taylor_hs(6), (1, 3)), (taylor_hs(6), (2, 0)), (free_word_family(), (1, 5))):
        maps = list(fam.maps)
        level, column = perturb
        cols = [list(col) for col in maps[level].columns]
        cols[column] = [c + 1 for c in cols[column]]
        cols[column + 1] = [c - F(1, 2) for c in cols[column + 1]]
        maps[level] = LinMap(tuple(tuple(col) for col in cols))
        failures = oracle_hs_failures(fam.algebra, maps)
        assert len(failures) >= 2
        assert hs_defect(fam.algebra, maps) == failures[0]


def test_hs_defect_agrees_with_oracle_on_valid_families():
    for fam in (taylor_hs(4), free_word_family()):
        assert oracle_hs_failures(fam.algebra, fam.maps) == []
        assert hs_defect(fam.algebra, fam.maps) is None


# --- the law walk against the per-pair oracles --------------------------------
#
# hs_defect and derivation_defect walk only the nonzero products e_a e_b,
# while the oracles test every basis pair densely.  Besides seeded
# perturbations, the cases below pin what a shortcut in the walk would
# lose: a failing pair whose product is zero, a defect that only the
# middle terms 0 < k < n carry, failures at several n and several failing
# pairs at one n.


def _perturbed(maps, changes):
    """The maps with delta added to entry (row, column) of d_level, for each (level, column, row, delta)."""
    cols = [[list(col) for col in m.columns] for m in maps]
    for level, column, row, delta in changes:
        cols[level - 1][column][row] += delta
    return [LinMap(tuple(map(tuple, c))) for c in cols]


LAW_FAMILIES = ("free-3", "truncated-6", "upper-3", "upper-4", "rational-6")


@lru_cache(maxsize=None)
def rational_basis_family(trunc=6):
    """The Taylor family on Q[x]/(x^(trunc+1)) in the basis f_k = x^k + x^(k+1)/2.

    Every catalog structure constant is one basis term with coefficient 1;
    here most products have several rational terms and the unit is
    sum_k (-1/2)^k f_k, so the law and associativity walks take their
    rational and multi-term branches.
    """
    A, dim = truncated_polynomial_algebra(trunc), trunc + 1
    to_x = LinMap([[F(int(r == k)) + F(int(r == k + 1), 2) for r in range(dim)] for k in range(dim)])
    from_x = LinMap([[F(-1, 2) ** (r - k) if r >= k else F(0) for r in range(dim)] for k in range(dim)])
    assert from_x @ to_x == LinMap.identity(dim)
    f = to_x.columns
    table = [[from_x.apply(A.mul(f[i], f[j])) for j in range(dim)] for i in range(dim)]
    algebra = TestAlgebra(tuple(f"f{k}" for k in range(dim)), from_x.apply(A.unit), table)
    return algebra, tuple(from_x @ d @ to_x for d in taylor_hs(trunc).maps)


@lru_cache(maxsize=None)
def law_family(name):
    """(algebra, maps) of a valid family on a catalog algebra or on the rational basis."""
    if name == "free-3":
        family = free_word_family()
        return family.algebra, family.maps
    if name == "truncated-6":
        return taylor_hs(6).algebra, taylor_hs(6).maps
    if name == "rational-6":
        return rational_basis_family()
    size, length = {"upper-3": (3, 4), "upper-4": (4, 3)}[name]
    A, seq = inner_sequence(size)
    return A, d_from_partial(seq[:length], A).maps


def _seeded_changes(rng, order, dim, levels):
    return [
        (level, rng.randrange(dim), rng.randrange(dim), F(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2))))
        for level in rng.sample(range(1, order + 1), min(levels, order))
        for _ in range(rng.randint(1, 3))
    ]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("name", LAW_FAMILIES)
def test_hs_defect_matches_oracle_on_seeded_perturbations(name, seed):
    algebra, maps = law_family(name)
    rng = random.Random(f"hs-{name}-{seed}")
    bad = _perturbed(maps, _seeded_changes(rng, len(maps), algebra.dim, 1 + seed % 2))
    failures = oracle_hs_failures(algebra, bad)
    assert hs_defect(algebra, bad) == (failures[0] if failures else None)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("name", LAW_FAMILIES)
def test_derivation_defect_matches_oracle_on_seeded_perturbations(name, seed):
    algebra, maps = law_family(name)
    rng = random.Random(f"leibniz-{name}-{seed}")
    d = (maps[0], LinMap.zero(algebra.dim))[seed % 2]  # d_1 of a family is a derivation
    assert oracle_derivation_failures(algebra, d) == []
    bad = _perturbed([d], _seeded_changes(rng, 1, algebra.dim, 1))[0]
    failures = oracle_derivation_failures(algebra, bad)
    assert derivation_defect(bad, algebra) == (failures[0] if failures else None)


def test_law_walk_catches_a_failing_pair_whose_product_is_zero():
    # d_1(yxx) += y: the first failure is (x, yxx), where x yxx overflows
    # the cutoff, so that pair is in no nonzero product; later failures,
    # such as (y, xx), are
    algebra, maps = law_family("free-3")
    x, y, xx, yxx = (algebra.labels.index(label) for label in ("x", "y", "xx", "yxx"))
    bad = _perturbed(maps, [(1, yxx, y, F(1))])
    failures = oracle_hs_failures(algebra, bad)
    assert failures[0] == (1, x, yxx) and not any(algebra.table[x][yxx])
    assert (1, y, xx) in failures and any(algebra.table[y][xx])
    assert hs_defect(algebra, bad) == failures[0]
    leibniz = oracle_derivation_failures(algebra, bad[0])
    assert leibniz[0] == (x, yxx) and len(leibniz) >= 2
    assert derivation_defect(bad[0], algebra) == leibniz[0]


@pytest.mark.parametrize(
    "name, extra",
    [
        ("truncated-6", lambda A: x2ddx(6)),
        ("upper-3", lambda A: inner_derivation(A, {"E12": 1})),
        ("upper-4", lambda A: inner_derivation(A, {"E23": 2, "E34": -1})),
        ("free-3", lambda A: inner_derivation(A, {"x": 1})),
    ],
)
def test_law_walk_catches_a_defect_of_the_middle_terms_only(name, extra):
    # d_1 + delta is still a derivation, so the law holds at n = 1; at every
    # n >= 2 the k = 0 and k = n terms are unchanged, and only the middle
    # terms, which hold d_1, differ
    algebra, maps = law_family(name)
    bad = [maps[0] + extra(algebra)] + list(maps[1:])
    failures = oracle_hs_failures(algebra, bad)
    assert failures and failures[0][0] >= 2
    assert hs_defect(algebra, bad[:1]) is None
    assert hs_defect(algebra, bad) == failures[0]


@pytest.mark.parametrize("name", ["truncated-6", "upper-3", "free-3", "rational-6"])
def test_law_walk_reports_the_first_of_failures_at_several_n(name):
    algebra, maps = law_family(name)
    rng = random.Random(f"several-{name}")
    changes = [(level, rng.randrange(1, algebra.dim), rng.randrange(1, algebra.dim), F(1)) for level in (2, 3)]
    bad = _perturbed(maps, changes)
    failures = oracle_hs_failures(algebra, bad)
    first_n = failures[0][0]
    assert len({n for n, _, _ in failures}) >= 2
    assert sum(1 for n, _, _ in failures if n == first_n) >= 2  # several pairs at one n
    assert hs_defect(algebra, bad) == failures[0]
    assert hs_defect(algebra, bad[:first_n]) == failures[0]
    # with d_(first_n) restored, the witness moves to the next failing n
    fixed = list(bad)
    fixed[first_n - 1] = maps[first_n - 1]
    later = oracle_hs_failures(algebra, fixed)
    assert later[0][0] > first_n
    assert hs_defect(algebra, fixed) == later[0]


# --- the law walk on a generating set -----------------------------------------
#
# _law_defect walks only the pairs whose left index is a generator of the
# algebra, and reruns the walk over every left index when that finds a
# defect.  The tests below pin the generating sets, check independently
# that they generate, and hold the restricted proof to the full walk.


@pytest.mark.parametrize(
    "make, generators",
    [
        (lambda: free_word_algebra(2), ["1", "x", "y"]),
        (lambda: free_word_algebra(3), ["1", "x", "y"]),
        (lambda: free_word_algebra(4), ["1", "x", "y"]),
        (lambda: truncated_polynomial_algebra(2), ["1", "x"]),
        (lambda: truncated_polynomial_algebra(3), ["1", "x"]),
        (lambda: truncated_polynomial_algebra(4), ["1", "x"]),
        (lambda: upper_triangular_algebra(2), ["E11", "E12", "E22"]),
        (lambda: upper_triangular_algebra(3), ["E11", "E12", "E22", "E23", "E33"]),
        (lambda: upper_triangular_algebra(4), ["E11", "E12", "E22", "E23", "E33", "E34", "E44"]),
    ],
)
def test_catalog_generating_sets(make, generators):
    A = make()
    assert [A.labels[g] for g in A._generators] == generators


def _covering_order(algebra):
    """{u: (a, b)} covering each non-generator by e_a e_b = c e_u, a and b covered earlier.

    Rescans the dense table until nothing changes, independently of the
    worklist in hsops._generating_set.
    """
    table, dim = algebra.table, algebra.dim
    covered = {g: None for g in algebra._generators}
    changed = True
    while changed:
        changed = False
        for a in list(covered):
            for b in list(covered):
                support = [u for u, c in enumerate(table[a][b]) if c]
                if len(support) == 1 and support[0] not in covered and support[0] not in (a, b):
                    covered[support[0]] = (a, b)
                    changed = True
    return covered


@pytest.mark.parametrize("name", LAW_FAMILIES + ("free-4",))
def test_every_non_generator_is_a_product_of_indices_covered_earlier(name):
    algebra = free_word_algebra(4) if name == "free-4" else law_family(name)[0]
    order = _covering_order(algebra)
    assert sorted(order) == list(range(algebra.dim))
    seen = set(algebra._generators)
    for u, factors in order.items():
        if factors is not None:
            a, b = factors
            assert a in seen and b in seen and u not in seen
            seen.add(u)
    assert len(algebra._generators) < algebra.dim  # the covering is exercised


def _leibniz(defect):
    """The pair of an order-1 law defect, as derivation_defect names it."""
    return None if defect is None else defect[1:]


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("name", LAW_FAMILIES)
def test_generator_proof_agrees_with_the_full_walk(name, seed):
    algebra, maps = law_family(name)
    rng = random.Random(f"generators-{name}-{seed}")
    bad = _perturbed(maps, _seeded_changes(rng, len(maps), algebra.dim, 1 + seed % 3))
    full = range(algebra.dim)
    assert hs_defect(algebra, bad) == hsops._law_walk(algebra, bad, full)
    assert derivation_defect(bad[0], algebra) == _leibniz(hsops._law_walk(algebra, bad[:1], full))
    assert hs_defect(algebra, maps) is None and hsops._law_walk(algebra, maps, full) is None


def test_law_walk_catches_a_defect_in_a_non_generator_column():
    # d_2(xy) += y: xy = x y is not a generator, so no walked pair reads that
    # column on the left; the law still fails, at (x, y), as with every left
    # index walked
    algebra, maps = law_family("free-3")
    x, y, xy = (algebra.labels.index(label) for label in ("x", "y", "xy"))
    assert xy not in algebra._generators
    bad = _perturbed(maps, [(2, xy, y, F(1))])
    assert hs_defect(algebra, bad) == (2, x, y) == oracle_hs_failures(algebra, bad)[0]


def test_failing_generator_walk_reruns_over_every_left_index():
    # d_1(E33) += E33 first fails on (E13, E33); E13 = E12 E23 is not a
    # generator, and the generator walk alone names the later pair (E23, E33)
    algebra, maps = law_family("upper-4")
    E13, E23, E33 = (algebra.labels.index(label) for label in ("E13", "E23", "E33"))
    bad = _perturbed(maps, [(1, E33, E33, F(1))])
    assert hsops._law_walk(algebra, bad, algebra._generators) == (1, E23, E33)
    assert hs_defect(algebra, bad) == (1, E13, E33) == oracle_hs_failures(algebra, bad)[0]
    assert derivation_defect(bad[0], algebra) == (E13, E33)


@pytest.mark.parametrize("name", ["free-3", "truncated-6"])
def test_a_unit_column_is_walked_when_a_map_loads_it(name):
    # the unit is skipped only while every map kills it
    algebra, maps = law_family(name)
    bad = _perturbed(maps, [(1, 0, 1, F(1))])
    failures = oracle_hs_failures(algebra, bad)
    assert failures[0][1] == 0
    assert hs_defect(algebra, bad) == failures[0]


def x2ddx(trunc):
    # the derivation x^2 d/dx: x^k -> k x^(k+1)
    return LinMap(
        tuple(
            tuple(F(k) if t == k + 1 else F(0) for t in range(trunc + 1))
            for k in range(trunc + 1)
        )
    )


def test_delta_extraction_on_taylor():
    fam = taylor_hs(6)
    deltas = delta_from_d(fam)
    assert deltas[0] == x2ddx(6)
    assert all(d.is_zero() for d in deltas[1:])
    assert all(is_derivation(d, fam.algebra) for d in deltas)


def test_partial_extraction_on_taylor():
    fam = taylor_hs(6)
    partials = partial_from_d(fam)
    assert partials[0] == x2ddx(6)
    assert all(d.is_zero() for d in partials[1:])


def test_build_from_single_derivation_recovers_taylor():
    A = truncated_polynomial_algebra(6)
    deltas = (x2ddx(6),) + tuple(LinMap.zero(7) for _ in range(5))
    assert d_from_delta(deltas, A) == taylor_hs(6)
    assert d_from_partial(deltas, A) == taylor_hs(6)


def test_zero_inputs_give_zero_family():
    A = upper_triangular_algebra(3)
    zeros = tuple(LinMap.zero(A.dim) for _ in range(4))
    fam = d_from_delta(zeros, A)
    assert all(m.is_zero() for m in fam.maps)
    assert delta_from_d(fam) == zeros
    assert partial_from_d(fam) == zeros
    assert d_from_partial(zeros, A) == fam


def test_non_derivation_is_rejected():
    A = truncated_polynomial_algebra(4)
    bad = (ddx_matrix(4),)
    with pytest.raises(NotADerivationError):
        d_from_delta(bad, A)
    with pytest.raises(NotADerivationError):
        d_from_partial(bad, A)


# --- round-trips on noncommutative algebras ---------------------------------


@pytest.fixture(scope="module")
def inner_family():
    A = upper_triangular_algebra(3)
    ad1 = inner_derivation(A, {"E12": 1})
    ad2 = inner_derivation(A, {"E23": 1, "E11": 2})
    assert ad1 @ ad2 != ad2 @ ad1  # order sensitivity is really exercised
    return d_from_partial((ad1, ad2, ad1, ad2), A)


def test_arbitrary_derivations_exponentiate_to_hs(inner_family):
    assert is_hs(inner_family.algebra, inner_family.maps)


def test_delta_round_trip(inner_family):
    deltas = delta_from_d(inner_family)
    assert all(is_derivation(d, inner_family.algebra) for d in deltas)
    assert d_from_delta(deltas, inner_family.algebra) == inner_family


def test_partial_round_trip(inner_family):
    partials = partial_from_d(inner_family)
    assert all(is_derivation(d, inner_family.algebra) for d in partials)
    assert d_from_partial(partials, inner_family.algebra) == inner_family


def test_degree_one_extractions_agree(inner_family):
    assert delta_from_d(inner_family)[0] == inner_family.d(1)
    assert partial_from_d(inner_family)[0] == inner_family.d(1)


# --- free extension ---------------------------------------------------------


def test_free_extend_zero():
    A = free_word_algebra(3)
    fam = free_hs_extend({}, A)
    assert fam.order == 3
    assert all(m.is_zero() for m in fam.maps)


def test_free_extend_exponential_sample():
    # d_1(x) = y and nothing else: the family is exp of one derivation,
    # so the second Newton extraction vanishes
    A = free_word_algebra(4)
    fam = free_hs_extend({("x", 1): {"y": 1}}, A)
    deltas = delta_from_d(fam)
    assert not deltas[0].is_zero()
    assert deltas[1].is_zero()
    d1 = fam.d(1)
    xx = A.element({"xx": 1})
    assert d1.apply(xx) == A.element({"yx": 1, "xy": 1})


def test_free_extend_non_exponential_sample():
    A = free_word_algebra(4)
    fam = free_hs_extend({("x", 1): {"y": 1}, ("x", 2): {"x": 1}}, A)
    deltas = delta_from_d(fam)
    assert not deltas[1].is_zero()
    assert all(is_derivation(d, A) for d in deltas)
    assert d_from_delta(deltas, A) == fam


def test_free_extend_rejects_unit_component():
    A = free_word_algebra(3)
    with pytest.raises(ValueError, match="unit"):
        free_hs_extend({("x", 1): {"1": 1}}, A)


def test_free_extend_rejects_non_word_algebra():
    A = truncated_polynomial_algebra(3)
    with pytest.raises(ValueError, match="word algebra"):
        free_hs_extend({}, A)


def test_free_extend_rejects_unknown_generator():
    A = free_word_algebra(3)
    with pytest.raises(ValueError, match="unknown generator"):
        free_hs_extend({("z", 1): {"x": 1}}, A)


# --- symbolic/operator bridge -----------------------------------------------


@pytest.fixture(scope="module")
def bridge_family():
    A = free_word_algebra(4)
    return free_hs_extend(
        {("x", 1): {"y": 1}, ("x", 2): {"x": 1}, ("y", 1): {"xy": 1}, ("y", 3): {"x": 2}},
        A,
    )


def test_operator_words_reproduce_family(bridge_family):
    deltas = delta_from_d(bridge_family)
    dim = bridge_family.algebra.dim
    for n in range(1, 5):
        assert operator_from_word_poly(z_in_pprime(n), deltas, dim) == bridge_family.d(n)


def test_log_series_acts_like_partial_extraction(bridge_family):
    partials = partial_from_d(bridge_family)
    dim = bridge_family.algebra.dim
    for n in range(1, 5):
        assert operator_from_word_poly(u_of_z(n), bridge_family.maps, dim) == partials[n - 1]


def test_right_primitives_act_like_delta_extraction(bridge_family):
    deltas = delta_from_d(bridge_family)
    dim = bridge_family.algebra.dim
    for n in range(1, 5):
        assert operator_from_word_poly(newton_p_right(n), bridge_family.maps, dim) == deltas[n - 1]


def _evaluate_from_the_suffix(monkeypatch, suffix_graph):
    """Make the bridge hand pass 2 the graph of its root read from the suffix."""

    def evaluate(roots, image, product_into, unit):
        return poly._evaluate_graph(
            suffix_graph(roots), *poly._pair_morphism(image, product_into, unit)
        )

    monkeypatch.setattr(hsops, "_evaluate", evaluate)


def test_operator_walked_from_the_suffix_composes_in_order(monkeypatch, suffix_graph):
    # one distinct one-letter suffix quotient against two prefix ones, on
    # maps that do not commute
    A, seq = inner_sequence(3)
    p = NCPoly({(): 2, (1, 3): 1, (2, 2, 3): "-1/2"})
    _evaluate_from_the_suffix(monkeypatch, suffix_graph)
    got = operator_from_word_poly(p, seq, A.dim)
    assert got != oracle_operator_from_word_poly(p.reverse_words(), seq, A.dim)
    assert got == oracle_operator_from_word_poly(p, seq, A.dim)


@pytest.mark.parametrize("from_suffix", [False, True])
def test_operator_matches_oracle_on_scaled_quotients(
    monkeypatch, record_scalars, scalar_kinds, suffix_graph, from_suffix, scaled_twin_roots
):
    A, seq = inner_sequence(3)
    if from_suffix:
        _evaluate_from_the_suffix(monkeypatch, suffix_graph)
    scalars = record_scalars(hsops, "_compose_into")
    for roots in scaled_twin_roots:
        for p in roots:
            expected = oracle_operator_from_word_poly(p, seq, A.dim)
            assert operator_from_word_poly(p, seq, A.dim) == expected
    assert scalar_kinds(scalars) == {"negative", "integer", "fraction"}


def test_bridge_products_count(monkeypatch, record_scalars):
    # the quotient of z_in_pprime(n) below i is z_in_pprime(n - i) / n, so the
    # bridge runs the Newton inversion: n(n + 1)/2 map products, 286 over n <= 11
    family = taylor_hs(40, 40)
    deltas = delta_from_d(family)
    scalars = record_scalars(hsops, "_compose_into")
    # unit images: one per class z_in_pprime(k), k <= n, and one per distinct
    # constant that those classes read, n - 1 of them for n >= 2 (the classes
    # of k = 1 and 2 read the same one); a constant below a later multiple of
    # a class is read by no node and never evaluated
    units = []
    real = hsops._evaluate

    def counting(roots, image, product_into, unit):
        return real(roots, image, product_into, lambda c: (units.append(c), unit(c))[1])

    monkeypatch.setattr(hsops, "_evaluate", counting)
    for n in range(1, 12):
        before, units_before = len(scalars), len(units)
        assert operator_from_word_poly(z_in_pprime(n, 11), deltas, 41) == family.d(n)
        assert len(scalars) - before == n * (n + 1) // 2
        assert len(units) - units_before == max(2 * n - 1, 2)
    assert len(scalars) == 286
    assert len(units) == 122


def test_operator_rejects_a_letter_without_a_map():
    A, seq = inner_sequence(3)
    with pytest.raises(ValueError, match=r"letter 6 .* 5 maps"):
        operator_from_word_poly(NCPoly({(1,): 1, (2, 6): 1}), seq, A.dim)


@pytest.mark.parametrize("dim", [5, 7])
def test_operator_rejects_maps_of_another_dimension(dim):
    _, seq = inner_sequence(3)
    with pytest.raises(ValueError, match=f"map dimension 6 differs from dim {dim}"):
        operator_from_word_poly(u_of_z(2), seq, dim)


def test_family_accessors(inner_family):
    assert inner_family.order == 4
    assert inner_family.d(0) == LinMap.identity(inner_family.algebra.dim)
    assert inner_family.d(2) == inner_family.maps[1]


@pytest.mark.parametrize("n", [-1, -4, 5])
def test_family_accessor_rejects_levels_outside_the_family(n):
    fam = taylor_hs(4)
    with pytest.raises(ValueError, match=r"n must be in 0\.\.4"):
        fam.d(n)


# --- recursions against the composition sums ---------------------------------


def _check_family_conversions(family):
    dim = family.algebra.dim
    deltas = delta_from_d(family)
    partials = partial_from_d(family)
    assert partials == oracle_partial_from_d(family.maps, dim)
    assert d_from_delta(deltas, family.algebra).maps == oracle_d_from_delta(deltas, dim)
    assert d_from_partial(partials, family.algebra).maps == oracle_d_from_partial(partials, dim)
    for n in range(1, family.order + 1):
        z = z_in_pprime(n)
        assert operator_from_word_poly(z, deltas, dim) == oracle_operator_from_word_poly(z, deltas, dim)


@pytest.mark.parametrize("trunc", [2, 3, 4, 5, 6])
def test_taylor_conversions_match_composition_sums(trunc):
    _check_family_conversions(taylor_hs(trunc))


def test_free_extension_conversions_match_composition_sums():
    family = free_word_family()
    assert not any(m.is_zero() for m in family.maps)
    _check_family_conversions(family)


@pytest.mark.parametrize("size", [3, 4])
def test_inner_sequences_match_composition_sums(size):
    A, seq = inner_sequence(size)
    assert seq[0] @ seq[1] != seq[1] @ seq[0]
    built = d_from_partial(seq, A)
    assert built.maps == oracle_d_from_partial(seq, A.dim)
    assert d_from_delta(seq, A).maps == oracle_d_from_delta(seq, A.dim)
    assert partial_from_d(built) == oracle_partial_from_d(built.maps, A.dim)
    _check_family_conversions(built)
    for n in range(1, 6):
        for p in (z_in_pprime(n), u_of_z(n)):
            assert operator_from_word_poly(p, seq, A.dim) == oracle_operator_from_word_poly(p, seq, A.dim)


def test_operator_of_empty_word_and_zero_poly():
    A, seq = inner_sequence(3)
    p = NCPoly({(): 2, (1, 2): -1})
    assert operator_from_word_poly(p, seq, A.dim) == oracle_operator_from_word_poly(p, seq, A.dim)
    assert operator_from_word_poly(NCPoly.zero(), seq, A.dim) == LinMap.zero(A.dim)


def test_linmap_arithmetic_matches_dense_model():
    rng = random.Random(7)
    dim = 5

    def rand_columns():
        return tuple(
            tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.4 else F(0) for _ in range(dim))
            for _ in range(dim)
        )

    for _ in range(20):
        a, b = rand_columns(), rand_columns()
        A, B = LinMap(a), LinMap(b)
        c = F(rng.randint(-4, 4), rng.randint(1, 4))
        assert (A + B).columns == tuple(tuple(x + y for x, y in zip(u, v)) for u, v in zip(a, b))
        assert (A - B).columns == tuple(tuple(x - y for x, y in zip(u, v)) for u, v in zip(a, b))
        assert A.scale(c).columns == tuple(tuple(c * x for x in u) for u in a)
        product = tuple(
            tuple(sum((a[l][i] * col[l] for l in range(dim)), F(0)) for i in range(dim)) for col in b
        )
        assert (A @ B).columns == product
        assert (A - A).is_zero() and A.is_zero() == all(not x for u in a for x in u)


# --- exact inputs and canonical storage ----------------------------------------


@pytest.mark.parametrize("bad", [0.5, 0.0, True, False], ids=repr)
def test_entries_reject_floats_and_bools(bad):
    A = truncated_polynomial_algebra(2)
    entries = [
        lambda: LinMap(((bad, 0), (0, 1))),
        lambda: TestAlgebra(("1",), (bad,), (((1,),),)),
        lambda: TestAlgebra(("1",), (1,), (((bad,),),)),
        lambda: TestAlgebra.from_products(("1",), (bad,), {(0, 0): (1,)}),
        lambda: TestAlgebra.from_products(("1",), (1,), {(0, 0): (bad,)}),
        lambda: A.element([bad, 0, 1]),
        lambda: A.element({"x": bad}),
        lambda: A.mul(A.unit, (0, bad, 0)),
        lambda: LinMap.identity(3).apply((bad, 0, 0)),
        lambda: LinMap.identity(3).scale(bad),
        lambda: free_hs_extend({("x", 1): {"y": bad}}, free_word_algebra(2)),
    ]
    for entry in entries:
        with pytest.raises(TypeError):
            entry()


@pytest.mark.parametrize("bad", [True, False, 2.0, 0], ids=repr)
def test_free_word_algebra_rejects_bool_and_non_int_depths(bad):
    # a bool is an int to isinstance: True was read as depth 1, of dim 3
    with pytest.raises(ValueError, match="integer >= 1"):
        free_word_algebra(bad)


def test_float_matrix_and_bool_unit_are_rejected():
    with pytest.raises(TypeError):
        LinMap(((0.5, 0.0), (0.0, 0.5)))
    with pytest.raises(TypeError):
        TestAlgebra(("1",), (True,), (((True,),),))


def _is_canonical(m):
    return LinMap(m.columns) == m and (m - m).is_zero()


def test_noncanonical_storage_fails_the_canonical_check():
    assert _is_canonical(LinMap(((0, F(2, 4)), (F(-3), 0))))
    assert not _is_canonical(LinMap._raw([{0: (0, 1)}]))  # a stored zero
    assert not _is_canonical(LinMap._raw([{0: (2, 2)}]))  # an unreduced pair


def test_returned_maps_are_canonical():
    family = free_word_family()
    algebra, dim = family.algebra, family.algebra.dim
    A, seq = inner_sequence(3)
    deltas = delta_from_d(family)
    partials = partial_from_d(family)
    maps = {
        "free_hs_extend": family.maps,
        "delta_from_d": deltas,
        "d_from_delta": d_from_delta(deltas, algebra).maps,
        "partial_from_d": partials,
        "d_from_partial": d_from_partial(partials, algebra).maps + d_from_partial(seq, A).maps,
        "inner_derivation": seq,
        "operator_from_word_poly": tuple(
            operator_from_word_poly(p, ms, dim)
            for p, ms in ((z_in_pprime(3), deltas), (u_of_z(3), family.maps), (NCPoly({(): "1/2"}), deltas))
        ),
        "taylor_hs": taylor_hs(5).maps,
    }
    for name, ms in maps.items():
        assert ms and all(_is_canonical(m) for m in ms), name
