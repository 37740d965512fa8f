from itertools import product

import pytest

from nsymm import (
    DegreeOverflowError,
    NCPoly,
    QSPoly,
    Report,
    Tensor2,
    alpha,
    compositions_up_to,
    d_qsymm,
    deconcat,
    newton_p_left,
    pairing,
    quasi_shuffle,
    quasi_shuffle_by_duality,
    verify_hs_qsymm,
    weight,
)
from nsymm import qsymm
from nsymm._backend import kernels

M = QSPoly.monomial
BASIS6 = compositions_up_to(6)


def test_pairing_examples():
    assert pairing(M((2, 1)), NCPoly.word((2, 1))) == 1
    assert pairing(M((3,)), NCPoly.word((1, 2))) == 0
    assert pairing(M((1,)), newton_p_left(2)) == 0
    assert pairing(M((1, 1)), newton_p_left(2)) == -1
    assert pairing(2 * M((1,)) + M((2,)), NCPoly.word((1,), "1/2")) == 1


def test_quasi_shuffle_examples():
    assert quasi_shuffle(M((1,)), M((1,))) == 2 * M((1, 1)) + M((2,))
    assert quasi_shuffle(QSPoly.one(), M((3, 1))) == M((3, 1))
    assert quasi_shuffle(M((1,)), M((2,))) == M((1, 2)) + M((2, 1)) + M((3,))


def test_quasi_shuffle_operator_is_the_product():
    assert M((1,)) * M((2,)) == quasi_shuffle(M((1,)), M((2,)))
    assert 2 * M((1,)) == M((1,)).scale(2)


@pytest.mark.parametrize("a", [c for c in BASIS6 if weight(c) <= 3])
def test_duality_oracle_agrees(a):
    for b in BASIS6:
        if weight(a) + weight(b) > 6:
            continue
        assert quasi_shuffle(M(a), M(b)) == quasi_shuffle_by_duality(M(a), M(b))


def test_quasi_shuffle_commutative_and_unital():
    for a, b in product(BASIS6, repeat=2):
        if weight(a) + weight(b) > 6:
            continue
        assert quasi_shuffle(M(a), M(b)) == quasi_shuffle(M(b), M(a))
    for a in BASIS6:
        assert quasi_shuffle(QSPoly.one(), M(a)) == M(a)


def test_quasi_shuffle_associative_up_to_weight_6():
    smalls = [c for c in BASIS6 if 1 <= weight(c) <= 4]
    for a, b, c in product(smalls, repeat=3):
        if weight(a) + weight(b) + weight(c) > 6:
            continue
        left = quasi_shuffle(quasi_shuffle(M(a), M(b)), M(c))
        right = quasi_shuffle(M(a), quasi_shuffle(M(b), M(c)))
        assert left == right


def test_deconcat_examples():
    assert deconcat(M((2, 1))) == Tensor2(
        {((2, 1), ()): 1, ((2,), (1,)): 1, ((), (2, 1)): 1}
    )
    assert deconcat(QSPoly.one()) == Tensor2.one()
    for n in range(1, 6):
        assert deconcat(M((n,))) == Tensor2({((n,), ()): 1, ((), (n,)): 1})


def split_triples(c):
    # oracle for coassociativity of deconcatenation
    out = {}
    for i in range(len(c) + 1):
        for j in range(i, len(c) + 1):
            key = (c[:i], c[i:j], c[j:])
            out[key] = out.get(key, 0) + 1
    return out


@pytest.mark.parametrize("c", BASIS6)
def test_deconcat_coassociative(c):
    left = {}
    for (a, b), coeff in deconcat(M(c)).items():
        for (a1, a2), inner in deconcat(M(a)).items():
            key = (a1, a2, b)
            left[key] = left.get(key, 0) + coeff * inner
    right = {}
    for (a, b), coeff in deconcat(M(c)).items():
        for (b1, b2), inner in deconcat(M(b)).items():
            key = (a, b1, b2)
            right[key] = right.get(key, 0) + coeff * inner
    expected = split_triples(c)
    assert left == right == expected


def test_deconcat_is_dual_to_concatenation():
    words = [c for c in compositions_up_to(5)]
    for q in words:
        dq = deconcat(M(q))
        for w in words:
            for wp in words:
                if weight(w) + weight(wp) > 5:
                    continue
                lhs = dq.coeff((w, wp))
                rhs = pairing(M(q), NCPoly.word(w) * NCPoly.word(wp))
                assert lhs == rhs


def test_alpha():
    assert alpha(2, M((2,))) == 1
    assert alpha(2, M((1, 1))) == 0
    assert alpha(3, 5 * M((3,)) + M((1, 2))) == 5
    assert alpha(1, QSPoly.zero()) == 0


def test_d_qsymm_examples():
    assert d_qsymm(2, M((1, 2))) == M((1,))
    assert d_qsymm(1, M((1, 2))) == QSPoly.zero()
    assert d_qsymm(3, M((3,))) == QSPoly.one()
    assert d_qsymm(1, QSPoly.one()) == QSPoly.zero()


@pytest.mark.parametrize("n", range(1, 7))
def test_d_qsymm_matches_last_part_rule(n):
    for c in BASIS6:
        expected = M(c[:-1]) if c and c[-1] == n else QSPoly.zero()
        assert d_qsymm(n, M(c)) == expected


def d_qsymm_by_deconcat(n, q):
    # oracle: (id (x) alpha_n) applied to the deconcatenation of q
    acc = QSPoly.zero()
    for (left, right), coeff in deconcat(q).items():
        if right == (n,):
            acc = acc + M(left, coeff)
    return acc


@pytest.mark.parametrize("n", range(1, 9))
def test_d_qsymm_equals_deconcat_oracle(n):
    for c in compositions_up_to(8):
        assert d_qsymm(n, M(c)) == d_qsymm_by_deconcat(n, M(c))


@pytest.mark.parametrize(
    "q",
    [
        M((1, 2)) + 3 * M((1, 2, 2)) - M((2,)) + QSPoly.one(),
        M((2, 2), "1/2") + M((3, 2), "-5/3") + M((4,), 7) + M((2, 1, 2)),
        quasi_shuffle(M((1,)), M((2,))) + quasi_shuffle(M((2,)), M((1, 2))),
        QSPoly.zero(),
    ],
)
def test_d_qsymm_equals_deconcat_oracle_on_combinations(q):
    for n in range(1, 9):
        assert d_qsymm(n, q) == d_qsymm_by_deconcat(n, q)


def test_d1_satisfies_plain_leibniz():
    for a, b in product(BASIS6, repeat=2):
        if weight(a) + weight(b) > 6:
            continue
        lhs = d_qsymm(1, quasi_shuffle(M(a), M(b)))
        rhs = quasi_shuffle(d_qsymm(1, M(a)), M(b)) + quasi_shuffle(M(a), d_qsymm(1, M(b)))
        assert lhs == rhs


def test_verify_hs_qsymm():
    report = verify_hs_qsymm(4)
    assert report.passed
    assert report.meta["pairs_checked"] > 0
    assert len(report.checks) == 4


# Oracle for verify_hs_qsymm: one walk over the basis pairs per n, with
# the full convolution sum over k = 0..n for every pair.  It looks up
# d_qsymm and quasi_shuffle on the module at call time, so a patched one
# reaches both the oracle and the suite.


def leibniz_holds(n, mu, mv, max_degree):
    """d_n(mu * mv) == sum_{k=0..n} d_k(mu) * d_{n-k}(mv), with d_0 = id."""
    lhs = qsymm.d_qsymm(n, qsymm.quasi_shuffle(mu, mv, max_degree))
    rhs = QSPoly.zero()
    for k in range(n + 1):
        left = mu if k == 0 else qsymm.d_qsymm(k, mu)
        right = mv if k == n else qsymm.d_qsymm(n - k, mv)
        rhs = rhs + qsymm.quasi_shuffle(left, right, max_degree)
    return lhs == rhs


def verify_hs_qsymm_per_n(max_degree):
    report = Report(suite="qsymm-hs", max_degree=max_degree)
    pairs_checked = 0

    def first_failure(n):
        nonlocal pairs_checked
        for u in compositions_up_to(max_degree):
            mu = M(u)
            for v in compositions_up_to(max_degree - weight(u)):
                pairs_checked += 1
                if not leibniz_holds(n, mu, M(v), max_degree):
                    return {"n": n, "left": list(u), "right": list(v)}
        return None

    for n in range(1, max_degree + 1):
        report.timed("convolution Leibniz law vs quasi-shuffle", n, lambda: first_failure(n))
    report.meta["pairs_checked"] = pairs_checked
    return report


def untimed(report):
    data = report.to_data()
    for record in data["checks"]:
        del record["elapsed_us"]
    return data


def assert_matches_oracle(max_degree):
    expected = untimed(verify_hs_qsymm_per_n(max_degree))
    assert untimed(verify_hs_qsymm(max_degree)) == expected
    return expected


@pytest.mark.parametrize("max_degree", range(1, 8))
def test_verify_hs_qsymm_matches_per_n_oracle(max_degree):
    expected = assert_matches_oracle(max_degree)
    assert expected["passed"]


def witnesses(data):
    return {
        r["degree"]: (tuple(r["witness"]["left"]), tuple(r["witness"]["right"]))
        for r in data["checks"]
        if not r["pass"]
    }


def test_oracle_agrees_when_n_fail_at_different_pairs(monkeypatch):
    real = qsymm.d_qsymm

    def d_qsymm(n, q):
        # d_n also drops a leading part equal to n from length-2 keys
        out = real(n, q)
        extra = {w[1:]: c for w, c in q.items() if len(w) == 2 and w[0] == n}
        return out + QSPoly(extra) if extra else out

    monkeypatch.setattr(qsymm, "d_qsymm", d_qsymm)
    data = assert_matches_oracle(6)
    # n = 6 holds, so the walk runs to the end (256 pairs at degree 6)
    # while n = 1..5 stop early
    assert witnesses(data) == {n: ((1,), (n,)) for n in range(1, 6)}
    assert data["meta"]["pairs_checked"] < 6 * 256


def test_oracle_agrees_when_every_n_fails_and_the_walk_ends_early(monkeypatch):
    real = qsymm.d_qsymm

    def d_qsymm(n, q):
        # d_n(1) = 1 breaks the law for every n on the first pair (1, 1)
        return real(n, q) + QSPoly.one().scale(q.coeff(()))

    monkeypatch.setattr(qsymm, "d_qsymm", d_qsymm)
    for max_degree in (1, 3, 5):
        data = assert_matches_oracle(max_degree)
        assert witnesses(data) == {n: ((), ()) for n in range(1, max_degree + 1)}
        assert data["meta"]["pairs_checked"] == max_degree

    real_product = qsymm.quasi_shuffle
    factors = []

    def quasi_shuffle(a, b, max_degree=None):
        factors.append((a.degree, b.degree))
        return real_product(a, b, max_degree)

    monkeypatch.setattr(qsymm, "quasi_shuffle", quasi_shuffle)
    verify_hs_qsymm(5)
    # the walk ends after the first pair, so it multiplies only units
    assert factors and set(factors) == {(0, 0)}


def test_oracle_agrees_under_a_broken_quasi_shuffle(monkeypatch):
    real = qsymm.quasi_shuffle

    def quasi_shuffle(a, b, max_degree=None):
        # a bilinear perturbation: M_(1) * M_(1) gains an extra M_(1,1)
        out = real(a, b, max_degree)
        c = a.coeff((1,)) * b.coeff((1,))
        return out + M((1, 1), c) if c else out

    monkeypatch.setattr(qsymm, "quasi_shuffle", quasi_shuffle)
    data = assert_matches_oracle(5)
    assert witnesses(data)[1] == ((1,), (1,))
    assert not data["passed"]


def test_memoized_product_keeps_the_degree_check():
    qsymm._product_words((5,), (4,))  # cached at weight 9
    assert quasi_shuffle(M((5,)), M((4,)), max_degree=9).coeff((9,)) == 1
    with pytest.raises(DegreeOverflowError):
        quasi_shuffle(M((5,)), M((4,)))
    with pytest.raises(DegreeOverflowError):
        M((5,)) * M((4,))


@pytest.mark.parametrize("u, v", [((2, 1), (1, 2)), ((1,), (1,)), ((), (3, 1)), ((1, 1, 1), (2,))])
def test_arithmetic_leaves_the_memoized_product_unchanged(u, v):
    cached = qsymm._product_words(u, v)
    fresh = kernels.quasi_shuffle_words(u, v)
    assert cached == fresh
    product = M(u) * M(v)
    assert product._terms is not cached
    results = [
        product + product,
        product + M((1,)),
        product - product,
        product - M(u),
        product.scale(-3),
        product.scale(0),
        product * M((1,)),
        M((1,)) * product,
        2 * product,
        -product,
    ]
    assert all(isinstance(r, QSPoly) for r in results)
    assert qsymm._product_words(u, v) is cached
    assert cached == fresh == kernels.quasi_shuffle_words(u, v)
    assert M(u) * M(v) == QSPoly(cached)


def test_memoized_products_agree_with_duality():
    for a, b in product(BASIS6, repeat=2):
        if weight(a) + weight(b) > 6:
            continue
        for _ in range(2):  # a miss, then a hit
            assert quasi_shuffle(M(a), M(b)) == quasi_shuffle_by_duality(M(a), M(b))


def test_degree_overflow():
    with pytest.raises(DegreeOverflowError):
        quasi_shuffle(M((5,)), M((4,)))  # total weight 9 > default 8
    with pytest.raises(DegreeOverflowError):
        quasi_shuffle_by_duality(M((5,)), M((4,)), max_degree=8)
    assert quasi_shuffle(M((5,)), M((4,)), max_degree=9).coeff((9,)) == 1
