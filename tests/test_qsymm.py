import random
from itertools import product
from math import factorial, prod

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
from nsymm.words import is_lyndon

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


# Every pair of total weight <= 8: verify_hs_qsymm's proof rests on the
# kernel's product being this associative, commutative one.
@pytest.mark.parametrize("a", compositions_up_to(8))
def test_duality_oracle_agrees(a):
    for b in compositions_up_to(8 - weight(a)):
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


@pytest.mark.parametrize("bad", [True, False, 2.0, 0], ids=repr)
def test_d_qsymm_rejects_bool_and_non_int_indices(bad):
    # a bool is an int to isinstance: d_qsymm(True, q) was d_1(q)
    with pytest.raises(ValueError, match="integer >= 1"):
        d_qsymm(bad, M((1, 2)))


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


# Oracle for verify_hs_qsymm: one walk over every basis pair per n, with
# the full convolution sum over k = 0..n for every pair.  It looks up
# d_qsymm and quasi_shuffle on the module at call time.  The suite reads
# every d_n through qsymm._last_parts, which d_qsymm also calls, and forms
# every product with the kernel's quasi_shuffle_words, which quasi_shuffle
# also calls: a perturbation patched into either reaches both.


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
    """The report's data without timings or pairs_checked, which the suite counts its own way."""
    data = report.to_data()
    for record in data["checks"]:
        del record["elapsed_us"]
    del data["meta"]["pairs_checked"]
    return data


def assert_matches_oracle(max_degree):
    """Check that the suite's records equal the oracle's; return them and the suite's pairs_checked."""
    expected = untimed(verify_hs_qsymm_per_n(max_degree))
    report = verify_hs_qsymm(max_degree)
    assert untimed(report) == expected
    return expected, report.meta["pairs_checked"]


def is_lyndon_by_rotations(w):
    """Lyndon: nonempty and strictly smaller than each proper rotation."""
    return bool(w) and all(w < w[i:] + w[:i] for i in range(1, len(w)))


def generator_pairs(max_degree):
    """The pairs (u, v) whose u is empty or Lyndon, of total weight <= max_degree."""
    return sum(
        len(compositions_up_to(max_degree - weight(u)))
        for u in compositions_up_to(max_degree)
        if not u or is_lyndon_by_rotations(u)
    )


@pytest.mark.parametrize("max_degree", range(1, 8))
def test_verify_hs_qsymm_matches_per_n_oracle(max_degree):
    expected, pairs_checked = assert_matches_oracle(max_degree)
    assert expected["passed"]
    # a passing run walks only the generator pairs, once for every n
    assert pairs_checked == max_degree * generator_pairs(max_degree)


def test_generator_pairs_pinned():
    assert is_lyndon((1, 2)) and not is_lyndon((2, 1)) and not is_lyndon((1, 1))
    assert [generator_pairs(d) for d in (8, 12)] == [710, 12911]
    assert verify_hs_qsymm(8).meta["pairs_checked"] == 8 * 710


def lyndon_factorization(w):
    """The factors of w, each the longest Lyndon prefix of what is left."""
    factors = []
    while w:
        k = max(i for i in range(1, len(w) + 1) if is_lyndon_by_rotations(w[:i]))
        factors.append(w[:k])
        w = w[k:]
    return factors


def test_lyndon_monomials_generate():
    """The Lyndon M's generate: each M_w leads the product over its Lyndon factors.

    The order: longer words lead, then lexicographically larger ones.  With
    factors l_1 >= ... >= l_k the product is prod(m!) M_w plus earlier words,
    where m runs over the multiplicities of the factors; by induction on
    this order every M_w of weight <= 8 is a polynomial in the Lyndon M's.
    """
    for w in compositions_up_to(8):
        assert is_lyndon(w) == is_lyndon_by_rotations(w)
        if not w:
            continue
        factors = lyndon_factorization(w)
        assert all(a >= b for a, b in zip(factors, factors[1:]))
        generated = QSPoly.one()
        for factor in factors:
            generated = quasi_shuffle(generated, M(factor))
        leading = max(generated.support(), key=lambda word: (len(word), word))
        multiplicity = prod(factorial(factors.count(f)) for f in set(factors))
        assert leading == w
        assert generated.coeff(w) == multiplicity


def perturb_d(monkeypatch, extra):
    """Patch d_n to d_n + extra(n, terms), for the suite and the oracle alike.

    extra(n, terms) gives a term map added to the image of the term map
    ``terms`` under d_n.
    """
    real = qsymm._last_parts

    def last_parts(terms, top):
        images = real(terms, top)
        for n in range(1, top + 1):
            added = extra(n, terms)
            if added:
                image = kernels.add_terms(images.get(n, {}), added)
                if image:
                    images[n] = image
                else:
                    images.pop(n, None)
        return images

    monkeypatch.setattr(qsymm, "_last_parts", last_parts)


def witnesses(data):
    return {
        r["degree"]: (tuple(r["witness"]["left"]), tuple(r["witness"]["right"]))
        for r in data["checks"]
        if not r["pass"]
    }


def test_oracle_agrees_when_n_fail_at_different_pairs(monkeypatch):
    # d_n also drops a leading part equal to n from length-2 keys
    perturb_d(monkeypatch, lambda n, terms: {w[1:]: c for w, c in terms.items() if len(w) == 2 and w[0] == n})
    data, pairs_checked = assert_matches_oracle(6)
    # n = 6 holds, so the full walk runs to the end (256 pairs at degree 6)
    # while n = 1..5 stop early
    assert witnesses(data) == {n: ((1,), (n,)) for n in range(1, 6)}
    # the generator walk checks every n on the 64 pairs of u = () and on
    # ((1,), ()) and ((1,), (1,)), where n = 1 fails and closes every n
    # (396 checks); the full walk then runs again for every n (638 checks,
    # as many as the oracle's)
    assert pairs_checked == 66 * 6 + 638


def test_oracle_agrees_when_every_n_fails_and_the_walk_ends_early(monkeypatch):
    # d_n(1) = 1 breaks the law for every n on the first pair (1, 1)
    perturb_d(monkeypatch, lambda n, terms: {(): terms[()]} if () in terms else {})
    for max_degree in (1, 3, 5):
        data, pairs_checked = assert_matches_oracle(max_degree)
        assert witnesses(data) == {n: ((), ()) for n in range(1, max_degree + 1)}
        # one pair in each walk, checked for every n
        assert pairs_checked == 2 * max_degree

    real_product = kernels.quasi_shuffle_words
    factors = []

    def quasi_shuffle_words(u, v):
        factors.append((u, v))
        return real_product(u, v)

    monkeypatch.setattr(kernels, "quasi_shuffle_words", quasi_shuffle_words)
    verify_hs_qsymm(5)
    # the walks end after the first pair, so they multiply only units
    assert factors and set(factors) == {((), ())}


def test_oracle_agrees_under_a_broken_quasi_shuffle(monkeypatch):
    real = kernels.quasi_shuffle_words

    def quasi_shuffle_words(u, v):
        # a bilinear perturbation: M_(1) * M_(1) gains an extra M_(1,1)
        out = real(u, v)
        return kernels.add_terms(out, {(1, 1): (1, 1)}) if u == v == (1,) else out

    monkeypatch.setattr(kernels, "quasi_shuffle_words", quasi_shuffle_words)
    data, _ = assert_matches_oracle(5)
    assert witnesses(data)[1] == ((1,), (1,))
    assert not data["passed"]


def random_perturbation(rng, max_degree):
    """A few entries d_n(M_w) += c M_x, every w of length >= 2 and not Lyndon."""
    non_lyndon = [w for w in compositions_up_to(max_degree) if len(w) >= 2 and not is_lyndon(w)]
    table = {}
    for _ in range(rng.randint(1, 3)):
        w = rng.choice(non_lyndon)
        n = rng.randint(1, max_degree)
        x = rng.choice(compositions_up_to(max(weight(w) - n, 0)))
        table.setdefault((n, w), {})[x] = (rng.choice([-2, -1, 1, 3]), 1)
    return table


def test_lyndon_walk_and_full_walk_agree_on_perturbed_d(monkeypatch):
    """Perturb d_n on non-Lyndon M_w only: both walks give the same records for every n.

    The generator walk alone must also fail first at the same n as the
    oracle's full walk, as the argument in verify_hs_qsymm's docstring says.
    """
    rng = random.Random(20001)
    cases = [{(2, (1, 1)): {(): (1, 1)}}]  # d_2(M_(1,1)) += 1: n = 1 still holds
    cases += [random_perturbation(rng, 6) for _ in range(12)]
    generators = [u for u in compositions_up_to(6) if not u or is_lyndon(u)]
    first_failures = []
    non_generator_witnesses = 0
    for table in cases:

        def extra(n, terms, table=table):
            added = {}
            for (m, w), image in table.items():
                if m == n and w in terms:
                    kernels.add_scaled_into(added, image, terms[w])
            return added

        with monkeypatch.context() as patch:
            perturb_d(patch, extra)
            data, _ = assert_matches_oracle(6)
            found, _ = qsymm._law_walk(6, generators, range(1, 7), close_above=True)
        failed = [r["degree"] for r in data["checks"] if not r["pass"]]
        assert min(found, default=None) == min(failed, default=None)
        first_failures.append(min(failed, default=None))
        non_generator_witnesses += sum(1 for u, _ in witnesses(data).values() if u not in generators)
    assert first_failures[0] == 2
    assert None not in first_failures
    # some witnesses exist only in the full walk, so the rerun is exercised
    assert non_generator_witnesses > 0


def test_memoized_product_keeps_the_degree_check():
    qsymm._ProductMemo()[(5,), (4,)]  # memoized at weight 9
    assert quasi_shuffle(M((5,)), M((4,)), max_degree=9).coeff((9,)) == 1
    with pytest.raises(DegreeOverflowError):
        quasi_shuffle(M((5,)), M((4,)))
    with pytest.raises(DegreeOverflowError):
        M((5,)) * M((4,))


@pytest.mark.parametrize("u, v", [((2, 1), (1, 2)), ((1,), (1,)), ((), (3, 1)), ((1, 1, 1), (2,))])
def test_arithmetic_leaves_the_memoized_product_unchanged(u, v):
    memo = qsymm._ProductMemo()
    cached = memo[u, v]
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
    assert memo[u, v] is cached
    assert cached == fresh == kernels.quasi_shuffle_words(u, v)
    assert M(u) * M(v) == QSPoly(cached)


def test_memoized_products_agree_with_duality():
    memo = qsymm._ProductMemo()
    for a, b in product(BASIS6, repeat=2):
        if weight(a) + weight(b) > 6:
            continue
        for _ in range(2):  # a miss, then a hit
            assert QSPoly(memo[a, b]) == quasi_shuffle_by_duality(M(a), M(b))


def test_degree_overflow():
    with pytest.raises(DegreeOverflowError):
        quasi_shuffle(M((5,)), M((4,)))  # total weight 9 > default 8
    with pytest.raises(DegreeOverflowError):
        quasi_shuffle_by_duality(M((5,)), M((4,)), max_degree=8)
    assert quasi_shuffle(M((5,)), M((4,)), max_degree=9).coeff((9,)) == 1
