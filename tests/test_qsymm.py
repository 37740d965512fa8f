from itertools import product

import pytest

from nsymm import (
    DegreeOverflowError,
    NCPoly,
    QSPoly,
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


def test_degree_overflow():
    with pytest.raises(DegreeOverflowError):
        quasi_shuffle(M((5,)), M((4,)))  # total weight 9 > default 8
    with pytest.raises(DegreeOverflowError):
        quasi_shuffle_by_duality(M((5,)), M((4,)), max_degree=8)
    assert quasi_shuffle(M((5,)), M((4,)), max_degree=9).coeff((9,)) == 1
