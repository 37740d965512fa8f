"""The kernel module against a fractions.Fraction model."""

from fractions import Fraction
from itertools import product as cartesian

import pytest
from hypothesis import given, strategies as st

from nsymm import HopfFamily, NCPoly, coproduct, newton_p_right, u_of_z, z_in_pprime, z_of_u
from nsymm._backend import kernels as K
from nsymm.hopf import _generator_coproduct
from nsymm.poly import _scaled_product
from nsymm.words import compositions_of

pairs = st.tuples(
    st.integers(min_value=-(10**18), max_value=10**18),
    st.integers(min_value=1, max_value=10**18),
).map(lambda nd: K.rat_norm(nd[0], nd[1]))

nonzero_pairs = pairs.filter(lambda p: p[0] != 0)


def as_fraction(pair):
    return Fraction(pair[0], pair[1])


def test_rat_norm_basics():
    assert K.rat_norm(2, 4) == (1, 2)
    assert K.rat_norm(0, 7) == (0, 1)
    assert K.rat_norm(3, -6) == (-1, 2)
    assert K.rat_norm(-3, -6) == (1, 2)
    with pytest.raises(ZeroDivisionError):
        K.rat_norm(1, 0)


@given(pairs)
def test_rat_norm_idempotent(p):
    assert K.rat_norm(*p) == p


@given(pairs, pairs)
def test_add_mul_match_fraction(a, b):
    assert as_fraction(K.rat_add(a, b)) == as_fraction(a) + as_fraction(b)
    assert as_fraction(K.rat_mul(a, b)) == as_fraction(a) * as_fraction(b)


@given(pairs, pairs)
def test_results_are_normalized(a, b):
    for r in (K.rat_add(a, b), K.rat_mul(a, b)):
        assert K.rat_norm(*r) == r
        assert r[1] >= 1


@given(pairs, nonzero_pairs)
def test_arithmetic_round_trips(a, b):
    # (a + b) - b == a and (a * b) / b == a, exactly
    s = K.rat_add(a, b)
    assert K.rat_add(s, (-b[0], b[1])) == a
    p = K.rat_mul(a, b)
    inverse = K.rat_norm(b[1], b[0])
    assert K.rat_mul(p, inverse) == a


words = st.lists(st.integers(1, 4), max_size=3).map(tuple)
term_maps = st.dictionaries(words, pairs, max_size=5).map(
    lambda d: {k: v for k, v in d.items() if v[0] != 0}
)


def model(terms):
    return {k: as_fraction(v) for k, v in terms.items()}


def check_same(raw, frac_model):
    assert {k: as_fraction(v) for k, v in raw.items()} == {
        k: v for k, v in frac_model.items() if v
    }
    assert all(v[0] != 0 and v[1] >= 1 and K.rat_norm(*v) == v for v in raw.values())


@given(term_maps, term_maps)
def test_add_terms_model(a, b):
    expected = model(a)
    for k, v in model(b).items():
        expected[k] = expected.get(k, Fraction(0)) + v
    check_same(K.add_terms(a, b), expected)


@given(term_maps, term_maps)
def test_sub_terms_model(a, b):
    expected = model(a)
    for k, v in model(b).items():
        expected[k] = expected.get(k, Fraction(0)) - v
    check_same(K.sub_terms(a, b), expected)


@given(term_maps)
def test_neg_terms_model(a):
    check_same(K.neg_terms(a), {k: -v for k, v in model(a).items()})


@given(term_maps, pairs)
def test_scale_terms_model(a, c):
    expected = {k: v * as_fraction(c) for k, v in model(a).items()}
    check_same(K.scale_terms(a, c), expected)


@given(term_maps, term_maps)
def test_mul_word_terms_model(a, b):
    expected = {}
    for ka, va in model(a).items():
        for kb, vb in model(b).items():
            k = ka + kb
            expected[k] = expected.get(k, Fraction(0)) + va * vb
    check_same(K.mul_word_terms(a, b), expected)


@given(term_maps, term_maps, pairs)
def test_add_scaled_into_model(acc, terms, c):
    expected = model(acc)
    for k, v in model(terms).items():
        expected[k] = expected.get(k, Fraction(0)) + v * as_fraction(c)
    got = dict(acc)
    K.add_scaled_into(got, terms, c)
    check_same(got, expected)


# (acc, terms, c, acc afterwards), one case per branch of add_scaled_into:
# the +-1 fast path (new key, reduced sum, cancellation) and the general
# cross-cancelled multiply, including coefficients just off the fast path.
ADD_SCALED_BRANCHES = {
    "plus one into a new key": (
        {(2,): (1, 1)}, {(1,): (3, 2)}, (1, 1), {(2,): (1, 1), (1,): (3, 2)}
    ),
    "minus one into a new key": ({}, {(1,): (3, 2)}, (-1, 1), {(1,): (-3, 2)}),
    "plus one, sum reduces": ({(1,): (1, 2)}, {(1,): (1, 6)}, (1, 1), {(1,): (2, 3)}),
    "minus one, sum reduces": ({(1,): (1, 2)}, {(1,): (-1, 6)}, (-1, 1), {(1,): (2, 3)}),
    "plus one cancels": ({(1,): (-3, 2)}, {(1,): (3, 2)}, (1, 1), {}),
    "minus one cancels": ({(1,): (3, 2), (2,): (1, 1)}, {(1,): (3, 2)}, (-1, 1), {(2,): (1, 1)}),
    "minus two": ({}, {(1,): (1, 2)}, (-2, 1), {(1,): (-1, 1)}),
    "minus one half": ({(1,): (1, 1)}, {(1,): (1, 1)}, (-1, 2), {(1,): (1, 2)}),
    "rational sum reduces": ({(1,): (1, 2)}, {(1,): (2, 3)}, (3, 4), {(1,): (1, 1)}),
}


@pytest.mark.parametrize("case", sorted(ADD_SCALED_BRANCHES))
def test_add_scaled_into_on_each_branch(case):
    acc, terms, c, after = ADD_SCALED_BRANCHES[case]
    terms_before = dict(terms)
    got = dict(acc)
    K.add_scaled_into(got, terms, c)
    assert got == after
    assert terms == terms_before
    if c in ((1, 1), (-1, 1)):
        expected = (K.add_terms if c == (1, 1) else K.sub_terms)(acc, terms)
        assert expected == after


def test_quasi_shuffle_words_small():
    assert K.quasi_shuffle_words((1,), (1,)) == {(1, 1): (2, 1), (2,): (1, 1)}
    assert K.quasi_shuffle_words((), (3, 1)) == {(3, 1): (1, 1)}
    assert K.quasi_shuffle_words((1,), (2,)) == {
        (1, 2): (1, 1),
        (2, 1): (1, 1),
        (3,): (1, 1),
    }


# --- the in-place products ------------------------------------------------

# Coefficients that reach every branch of the in-place products: the unit
# pair, small integers (their sums cancel often) and small rationals.
small_pairs = st.one_of(
    st.just((1, 1)),
    st.integers(-3, 3).filter(bool).map(lambda n: (n, 1)),
    st.tuples(st.integers(-3, 3).filter(bool), st.integers(2, 4)).map(
        lambda nd: K.rat_norm(*nd)
    ),
)
short_words = st.lists(st.integers(1, 2), max_size=2).map(tuple)


def small_maps(keys, min_size=0):
    return st.dictionaries(keys, small_pairs, min_size=min_size, max_size=5)


def into_model(acc, a, b, concat, c=(1, 1)):
    expected = model(acc)
    for ka, va in model(a).items():
        for kb, vb in model(b).items():
            k = concat(ka, kb)
            expected[k] = expected.get(k, Fraction(0)) + as_fraction(c) * va * vb
    return expected


def check_into(kernel, acc, a, b, concat):
    """kernel(acc, a, b) against the model; a and b stay untouched."""
    expected = into_model(acc, a, b, concat)
    a_before, b_before = dict(a), dict(b)
    got = dict(acc)
    assert kernel(got, a, b) is None
    check_same(got, expected)
    assert a == a_before and b == b_before


def check_scaled_into(mul_into, acc, a, b, concat, c):
    """acc + c * a * b through the pair form's product against the model.

    The product is ``poly._scaled_product(mul_into)``, as the evaluator
    forms it for ``substitute`` and ``coproduct``; a and b stay untouched,
    also when the ratio scales one of them.
    """
    expected = into_model(acc, a, b, concat, c)
    a_before, b_before = dict(a), dict(b)
    got = dict(acc)
    assert _scaled_product(mul_into)(got, a, b, c) is None
    check_same(got, expected)
    assert a == a_before and b == b_before


def concat_words(u, v):
    return u + v


def concat_pairs(u, v):
    return (u[0] + v[0], u[1] + v[1])


@given(small_maps(short_words, min_size=1), small_maps(short_words), small_maps(short_words))
def test_mul_word_into_model(acc, a, b):
    check_into(K.mul_word_into, acc, a, b, concat_words)


short_pairs = st.tuples(short_words, short_words)


@given(small_maps(short_pairs, min_size=1), small_maps(short_pairs), small_maps(short_pairs))
def test_mul_tensor_into_model(acc, a, b):
    check_into(K.mul_tensor_into, acc, a, b, concat_pairs)


# the scalar of a scaled product: the unit, a sign, an integer and a
# rational.  The pair products take none; the evaluator's adapter
# (poly._scaled_product) scales the shorter factor by it first
SCALARS = [(1, 1), (-1, 1), (3, 1), (-2, 7)]


@pytest.mark.parametrize("c", SCALARS)
@given(small_maps(short_words, min_size=1), small_maps(short_words), small_maps(short_words))
def test_mul_word_into_scaled_model(c, acc, a, b):
    check_scaled_into(K.mul_word_into, acc, a, b, concat_words, c)


@pytest.mark.parametrize("c", SCALARS)
@given(small_maps(short_pairs, min_size=1), small_maps(short_pairs), small_maps(short_pairs))
def test_mul_tensor_into_scaled_model(c, acc, a, b):
    check_scaled_into(K.mul_tensor_into, acc, a, b, concat_pairs, c)


@given(term_maps, term_maps)
def test_mul_tensor_terms_model(a, b):
    pa = {(k, k[::-1]): v for k, v in a.items()}
    pb = {(k[::-1], k): v for k, v in b.items()}
    check_same(K.mul_tensor_terms(pa, pb), into_model({}, pa, pb, concat_pairs))


# (acc, a, b, acc afterwards) on word keys, one case per branch of the
# in-place products; the tensor kernel runs them on the keys (w, w).
INTO_BRANCHES = {
    "unit outer, rational sum": (
        {(1, 2): (1, 2)}, {(1,): (1, 1)}, {(2,): (3, 2)}, {(1, 2): (2, 1)}
    ),
    "unit outer, integer sum cancels": (
        {(1, 2): (-5, 1)}, {(1,): (1, 1)}, {(2,): (5, 1)}, {}
    ),
    "unit outer, integer plus rational": (
        {(1, 2): (1, 1)}, {(1,): (1, 1)}, {(2,): (1, 2)}, {(1, 2): (3, 2)}
    ),
    "integer times integer": (
        {(1, 2): (1, 1)}, {(1,): (2, 1)}, {(2,): (3, 1)}, {(1, 2): (7, 1)}
    ),
    "integer sum cancels": (
        {(1, 2): (-6, 1), (3,): (1, 1)}, {(1,): (2, 1)}, {(2,): (3, 1)}, {(3,): (1, 1)}
    ),
    "integer into a new key": (
        {(3,): (1, 2)}, {(1,): (-2, 1)}, {(2,): (3, 1)}, {(3,): (1, 2), (1, 2): (-6, 1)}
    ),
    "mixed rationals": (
        {(1, 2): (1, 2)}, {(1,): (2, 3)}, {(2,): (3, 4)}, {(1, 2): (1, 1)}
    ),
    "mixed rationals cancel": (
        {(1, 2): (-1, 2)}, {(1,): (-2, 3)}, {(2,): (-3, 4)}, {}
    ),
}


def doubled(terms):
    return {(k, k): v for k, v in terms.items()}


@pytest.mark.parametrize("case", sorted(INTO_BRANCHES))
def test_in_place_products_on_each_branch(case):
    acc, a, b, after = INTO_BRANCHES[case]
    got = dict(acc)
    K.mul_word_into(got, a, b)
    assert got == after
    got = doubled(acc)
    K.mul_tensor_into(got, doubled(a), doubled(b))
    assert got == doubled(after)


@pytest.mark.parametrize("c", SCALARS)
@pytest.mark.parametrize("case", sorted(INTO_BRANCHES))
def test_scaled_products_on_each_branch(case, c):
    acc, a, b, _ = INTO_BRANCHES[case]
    check_scaled_into(K.mul_word_into, acc, a, b, concat_words, c)
    check_scaled_into(K.mul_tensor_into, doubled(acc), doubled(a), doubled(b), concat_pairs, c)


# (a, b) per shape of the two factors.  The products loop over the shorter
# factor outside, so these take both loop bodies; their coefficients mix
# units, integers and rationals, so each body takes each fast path.
LONG = {(1, 2): (1, 1), (2,): (-3, 1), (1,): (2, 5)}
SHAPES = {
    "left longer": (LONG, {(3,): (2, 1), (): (-1, 3)}),
    "right longer": ({(3,): (2, 1), (): (-1, 3)}, LONG),
    "equal lengths": (LONG, {(3,): (1, 1), (1,): (-2, 1), (): (5, 6)}),
    "one-term left": ({(3,): (1, 1)}, LONG),
    "one-term right": (LONG, {(3,): (1, 1)}),
    "empty left": ({}, LONG),
    "empty right": (LONG, {}),
}
# keys that (1, 2)(3,), (3,)(1, 2) and (1, 2)() reach; at c = 1 some sums
# cancel, in each loop body, and some do not
SHAPE_ACC = {(1, 2, 3): (-1, 1), (3, 1, 2): (-2, 1), (1, 2): (1, 3), (9,): (1, 1)}


@pytest.mark.parametrize("c", SCALARS)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_products_on_each_shape(shape, c):
    # the pair products at c = 1; c * a * b, every c, through the evaluator's adapter
    a, b = SHAPES[shape]
    pa = {(k, k[::-1]): v for k, v in a.items()}
    pb = {(k[::-1], k): v for k, v in b.items()}
    if c == (1, 1):
        check_into(K.mul_word_into, SHAPE_ACC, a, b, concat_words)
        check_into(K.mul_tensor_into, doubled(SHAPE_ACC), doubled(a), doubled(b), concat_pairs)
        check_into(K.mul_tensor_into, {}, pa, pb, concat_pairs)
    check_scaled_into(K.mul_word_into, SHAPE_ACC, a, b, concat_words, c)
    check_scaled_into(K.mul_tensor_into, doubled(SHAPE_ACC), doubled(a), doubled(b), concat_pairs, c)
    check_scaled_into(K.mul_tensor_into, {}, pa, pb, concat_pairs, c)


@pytest.mark.parametrize("shorter", ["left", "right"])
def test_scaled_product_scales_the_shorter_factor(monkeypatch, shorter):
    # a ratio other than 1 scales the shorter factor alone, on the left or on
    # the right, for word and for tensor keys; the unit scales nothing
    scaled = []
    real = K.scale_terms
    monkeypatch.setattr(K, "scale_terms", lambda terms, c: (scaled.append(terms), real(terms, c))[1])
    short = {(3,): (2, 1), (): (-1, 3)}
    a, b = (short, LONG) if shorter == "left" else (LONG, short)
    cases = [
        (K.mul_word_into, SHAPE_ACC, a, b, concat_words),
        (K.mul_tensor_into, doubled(SHAPE_ACC), doubled(a), doubled(b), concat_pairs),
    ]
    for mul_into, acc, x, y, concat in cases:
        for c in SCALARS:
            scaled.clear()
            check_scaled_into(mul_into, acc, x, y, concat, c)
            if c == (1, 1):
                assert scaled == []
            else:
                (factor,) = scaled
                assert factor is (x if shorter == "left" else y)


@pytest.mark.parametrize("pad", ["none", "left", "right"])
def test_products_keep_the_factor_order(pad):
    # (1, 2)(3,) and (3,)(1, 2) differ, so a body that swaps the factors fails
    left, right = {(1, 2): (1, 1)}, {(3,): (2, 1)}
    if pad == "left":
        left[(4,)] = (1, 1)
    elif pad == "right":
        right[(4,)] = (1, 1)
    expected = into_model({}, left, right, concat_words)
    assert expected != into_model({}, left, right, lambda u, v: v + u)
    check_same(K.mul_word_terms(left, right), expected)
    check_same(K.mul_word_terms(right, left), into_model({}, right, left, concat_words))
    for pl, pr in ((doubled(left), doubled(right)), (doubled(right), doubled(left))):
        check_same(K.mul_tensor_terms(pl, pr), into_model({}, pl, pr, concat_pairs))


def test_evaluator_leaves_cached_images_unchanged():
    families = tuple(HopfFamily)
    images = {
        "generator coproducts": [_generator_coproduct(n, f) for f in families for n in range(1, 7)],
        "z_of_u": [z_of_u(n, 6)._terms for n in range(1, 7)],
        "u_of_z": [u_of_z(n, 6)._terms for n in range(1, 7)],
        "newton_p_right": [newton_p_right(n, 6)._terms for n in range(1, 7)],
    }
    before = {name: [dict(t) for t in terms] for name, terms in images.items()}

    # nested words with unit coefficients, so an accumulator could alias an image
    nested = NCPoly({(): 1, (1,): 1, (1, 2): 1, (1, 2, 1): -1, (2,): 1})
    polys = [z_of_u(6, 6), u_of_z(6, 6), newton_p_right(6, 6), nested]
    for p in polys:
        for family in families:
            coproduct(p, family, 12)
        p.substitute(lambda k: z_of_u(k, 6))
        p.substitute(lambda k: u_of_z(k, 6))
    for n in range(1, 7):
        z_in_pprime(n, 6).substitute(lambda k: newton_p_right(k, 6))

    assert {name: [dict(t) for t in terms] for name, terms in images.items()} == before


# --- the integer products of pass 2 ------------------------------------------

# integer maps, taken to dense blocks over den 1 (check_blocks_into): (a, b)
# per shape, with the left factor longer, the right longer, one-term and
# empty factors
INT_LONG = {(1, 2): 1, (2,): -3, (1,): 2, (): 4}
INT_SHAPES = {
    "left longer": (INT_LONG, {(3,): 2, (): -1}),
    "right longer": ({(3,): 2, (): -1}, INT_LONG),
    "one-term left": ({(3,): 5}, INT_LONG),
    "one-term right": (INT_LONG, {(3,): 5}),
    "empty left": ({}, INT_LONG),
    "empty right": (INT_LONG, {}),
}
# the multiplier: the unit, a sign, an integer and a large negative one
MULTIPLIERS = [1, -1, 6, -(10**20 + 1)]
multipliers = st.one_of(st.sampled_from(MULTIPLIERS), st.integers(-(10**30), 10**30).filter(bool))


def as_pairs(ints):
    """An integer map as a term map."""
    return {k: (v, 1) for k, v in ints.items()}


def cancelling_acc(kind, a, b, m, own):
    """An accumulator whose first product term cancels, with the term own of its own."""
    acc = {own: 7}
    product = into_model({}, as_pairs(a), as_pairs(b), BLOCK_KERNELS[kind][3], (m, 1))
    product = [(k, v) for k, v in product.items() if v]
    if product:
        first, value = product[0]
        acc[first] = -int(value)
    return acc


@pytest.mark.parametrize("m", MULTIPLIERS)
@pytest.mark.parametrize("shape", sorted(INT_SHAPES))
def test_integer_products_on_each_shape(shape, m):
    # the block products, against the Fraction model
    a, b = INT_SHAPES[shape]
    pa = {(k, k[::-1]): v for k, v in a.items()}
    pb = {(k[::-1], k): v for k, v in b.items()}
    cases = [
        ("words", a, b, (5,)),
        ("tensors", doubled(a), doubled(b), ((5,), ())),
        ("tensors", pa, pb, ((5,), ())),
    ]
    for kind, x, y, own in cases:
        check_blocks_into(kind, {}, x, y, m)
        acc = cancelling_acc(kind, x, y, m, own)
        got = BLOCK_KERNELS[kind][2](check_blocks_into(kind, acc, x, y, m), 1)
        # the cancelled term is gone, and acc's own term stays
        assert not acc.keys() - {own} & got.keys()
        assert got[own] == (7, 1)


@pytest.mark.parametrize("pad", ["none", "left", "right"])
def test_integer_products_keep_the_factor_order(pad):
    # the block products: (1, 2)(3,) and (3,)(1, 2) land on different ranks
    left, right = {(1, 2): 1}, {(3,): 2}
    if pad == "left":
        left[(4,)] = 1
    elif pad == "right":
        right[(4,)] = 1
    for x, y in ((left, right), (right, left)):
        check_blocks_into("words", {}, x, y, -3)
        check_blocks_into("tensors", {}, doubled(x), doubled(y), -3)


@given(term_maps)
def test_int_map_round_trip(terms):
    ints, den = K.to_int_map(terms)
    assert den >= 1 and all(type(v) is int and v for v in ints.values())
    assert all(den % d == 0 for _, d in terms.values())
    assert {k: Fraction(v, den) for k, v in ints.items()} == model(terms)
    check_same(K.from_int_map(ints, den), model(terms))


def test_from_int_map_reduces_in_place_and_shares_denominators():
    den = 6 * 10**30
    ints = {(1,): 2, (2,): 4, (3,): -2, (4,): den, (5,): -3 * den}
    got = K.from_int_map(ints, den)
    assert got is ints
    assert got == {
        (1,): (1, den // 2),
        (2,): (1, den // 4),
        (3,): (-1, den // 2),
        (4,): (1, 1),
        (5,): (-3, 1),
    }
    # each distinct reduced denominator is one int object
    assert got[(1,)][1] is got[(3,)][1]
    assert K.from_int_map({(): -3}, 1) == {(): (-3, 1)}
    assert K.from_int_map({}, 5) == {}


# --- the dense block kernels of pass 2 on a graph ----------------------------


def test_rank_identity():
    # rank(u v) = rank(u) * 2^|v| + rank(v) for every u and v up to weight 8
    words = [w for n in range(9) for w in compositions_of(n)]
    ranks = {w: i for n in range(17) for i, w in enumerate(compositions_of(n))}
    for u, v in cartesian(words, words):
        assert ranks[u + v] == ranks[u] * 2 ** sum(v) + ranks[v]
    assert [K.block_length(n) for n in range(6)] == [len(compositions_of(n)) for n in range(6)]


def test_decoding_follows_compositions_of():
    for n in range(7):
        words = compositions_of(n)
        blocks = {n: list(range(1, len(words) + 1))}
        assert K.from_word_blocks(blocks, 1) == {w: (k + 1, 1) for k, w in enumerate(words)}
        assert K.to_word_blocks({w: (k + 1, 1) for k, w in enumerate(words)}) == (blocks, 1)
        for j in range(4):
            rights = compositions_of(j)
            pairs = list(cartesian(words, rights))
            shape = (n, j)
            assert [K.tensor_block_key(shape, k) for k in range(len(pairs))] == pairs
            terms = {pair: K.rat_norm(k + 1, 3) for k, pair in enumerate(pairs)}
            assert K.to_tensor_blocks(terms) == ({shape: list(range(1, len(pairs) + 1))}, 3)
            assert K.from_tensor_blocks(*K.to_tensor_blocks(terms)) == terms


def word_blocks(ints):
    """An integer map on words as dense blocks, over den 1."""
    return K.to_word_blocks(as_pairs(ints))[0]


def tensor_blocks(ints):
    """An integer map on pairs of words as dense blocks, over den 1."""
    return K.to_tensor_blocks(as_pairs(ints))[0]


BLOCK_KERNELS = {
    "words": (K.mul_word_blocks_into, word_blocks, K.from_word_blocks, concat_words),
    "tensors": (K.mul_tensor_blocks_into, tensor_blocks, K.from_tensor_blocks, concat_pairs),
}


def check_blocks_into(kind, acc, a, b, m):
    """The block kernel, decoded, against the Fraction model; a and b stay untouched.

    acc, a and b are integer maps, taken to dense blocks over den 1, and
    m an int.  Every block the kernel writes has the length of its
    weights, and a and b, the factors, are not written.
    """
    kernel, to_blocks, decode, concat = BLOCK_KERNELS[kind]
    expected = into_model(as_pairs(acc), as_pairs(a), as_pairs(b), concat, (m, 1))
    x, y = to_blocks(a), to_blocks(b)
    x_before, y_before = {k: list(v) for k, v in x.items()}, {k: list(v) for k, v in y.items()}
    got = to_blocks(acc)
    assert kernel(got, x, y, m) is None
    for key, block in got.items():
        i, j = (key, 0) if kind == "words" else key
        assert len(block) == K.block_length(i) * K.block_length(j)
        assert all(type(v) is int for v in block)
    assert x == x_before and y == y_before
    check_same(decode(got, 1), expected)
    K.drop_zero_blocks(got)
    assert all(any(block) for block in got.values())
    return got


def record_runs(monkeypatch):
    """Record, per grid that a product adds, the factor it comes from and its runs.

    Each entry is (side, runs): side "right" when the loop ran over the
    left factor's nonzeros and added blocks of the right one, and each run
    (step, length) of one slice multiply-add.
    """
    grids = []
    real_grid, real_run = K._add_grid, K._add_run

    def _add_grid(out, base, src, *rest):
        grids.append((src, []))
        return real_grid(out, base, src, *rest)

    def _add_run(out, start, step, src, v):
        grids[-1][1].append((step, len(src)))
        return real_run(out, start, step, src, v)

    monkeypatch.setattr(K, "_add_grid", _add_grid)
    monkeypatch.setattr(K, "_add_run", _add_run)
    return grids


def dense(shape, start=1):
    """Every pair of words of the weights, with distinct nonzero values."""
    i, j = shape
    return {pair: start + k for k, pair in enumerate(cartesian(compositions_of(i), compositions_of(j)))}


# (left factor, right factor, the factor whose nonzeros the loop runs over,
# the runs of each grid: (step, length) each), one case per branch of
# _add_grid in each loop
BLOCK_BRANCHES = {
    # the left factor's right word is empty: the right block is one contiguous run
    "left loop, whole run": ({((2,), ()): 3}, dense((2, 2)), "left", [(1, 4)]),
    # one column: the right block, of weights (2, 0), is one run at the row stride C(2 + 0)
    "left loop, one column": ({((1,), (2,)): 3}, dense((2, 0)), "left", [(2, 2)]),
    # C(2) = 2 rows of C(3) = 4 columns: two contiguous runs
    "left loop, rows": ({((1,), (1,)): 3}, dense((2, 3)), "left", [(1, 4)] * 2),
    # C(3) = 4 rows of C(2) = 2 columns: two runs at the row stride C(1 + 2)
    "left loop, columns": ({((1,), (1,)): 3}, dense((3, 2)), "left", [(4, 4)] * 2),
    # the right factor's left word is empty: the left block is one run at 2^l
    "right loop, whole run": (dense((2, 2)), {((), (2,)): 3}, "right", [(4, 4)]),
    # C(2) rows of C(3) columns, right factor of weights (1, 1): two runs at 2^1
    "right loop, rows": (dense((2, 3)), {((1,), (1,)): 3}, "right", [(2, 4)] * 2),
    # C(3) rows of C(2) columns: two runs at the row stride C(2 + 1) << 1
    "right loop, columns": (dense((3, 2)), {((1,), (1,)): 3}, "right", [(8, 4)] * 2),
    # blocks of weight 0 on either side
    "left loop, weight 0": ({((), ()): 3}, dense((2, 1)), "left", [(1, 2)]),
    "right loop, weight 0": (dense((2, 1)), {((), ()): 3}, "right", [(1, 2)]),
}
BLOCK_MULTIPLIERS = [1, -1, 10**20 + 1, -(10**20 + 1)]


@pytest.mark.parametrize("m", BLOCK_MULTIPLIERS)
@pytest.mark.parametrize("case", sorted(BLOCK_BRANCHES))
def test_tensor_block_products_on_each_branch(monkeypatch, case, m):
    a, b, loop, runs = BLOCK_BRANCHES[case]
    grids = record_runs(monkeypatch)
    acc = {((), (9,)): 7}
    check_blocks_into("tensors", acc, a, b, m)
    ((src, got_runs),) = grids
    assert src in tensor_blocks(b if loop == "left" else a).values()
    assert got_runs == runs


# word blocks: the left factor sparse, the right dense, and the reverse, with
# blocks of weight 0
WORD_BRANCHES = {
    "left loop": ({(3,): 2}, {w: k + 1 for k, w in enumerate(compositions_of(3))}, "left", [(1, 4)]),
    "right loop": ({w: k + 1 for k, w in enumerate(compositions_of(3))}, {(3,): 2}, "right", [(8, 4)]),
    "left loop, weight 0": ({(): 2}, {w: k + 1 for k, w in enumerate(compositions_of(3))}, "left", [(1, 4)]),
    "right loop, weight 0": ({w: k + 1 for k, w in enumerate(compositions_of(3))}, {(): 2}, "right", [(1, 4)]),
}


@pytest.mark.parametrize("m", BLOCK_MULTIPLIERS)
@pytest.mark.parametrize("case", sorted(WORD_BRANCHES))
def test_word_block_products_on_each_branch(monkeypatch, case, m):
    a, b, loop, runs = WORD_BRANCHES[case]
    grids = record_runs(monkeypatch)
    check_blocks_into("words", {(1,): 5, (3, 3): -1}, a, b, m)
    ((src, got_runs),) = grids
    factor = word_blocks(b if loop == "left" else a)
    assert src in factor.values()
    assert got_runs == runs


def test_block_product_that_cancels_is_dropped():
    a = {((1,), ()): 1, ((), (1,)): 1}
    acc = {((1, 1), ()): 2, ((1,), (1,)): 4, ((), (1, 1)): 2}
    got = check_blocks_into("tensors", acc, a, a, -2)
    assert got == {}


# words up to weight 6, and pairs of words up to weight 3, so that no product
# block has more than 2^11 or 2^10 entries
block_words = st.lists(st.integers(1, 3), max_size=3).map(tuple).filter(lambda w: sum(w) <= 6)
block_pairs = st.tuples(*[st.sampled_from([w for n in range(4) for w in compositions_of(n)])] * 2)
block_ints = st.integers(-3, 3).filter(bool)


@given(
    st.dictionaries(block_words, block_ints, max_size=6),
    st.dictionaries(block_words, block_ints, max_size=12),
    st.dictionaries(block_words, block_ints, max_size=12),
    multipliers,
)
def test_mul_word_blocks_into_model(acc, a, b, m):
    check_blocks_into("words", acc, a, b, m)


@given(
    st.dictionaries(block_pairs, block_ints, max_size=6),
    st.dictionaries(block_pairs, block_ints, max_size=12),
    st.dictionaries(block_pairs, block_ints, max_size=12),
    multipliers,
)
def test_mul_tensor_blocks_into_model(acc, a, b, m):
    check_blocks_into("tensors", acc, a, b, m)


@given(small_maps(block_words), small_maps(block_words), small_maps(block_pairs), small_maps(block_pairs))
def test_block_products_match_the_fraction_model(a, b, s, t):
    # rational factors over their dens: the product's den is the product of theirs
    for kind, x, y, concat in (("words", a, b, concat_words), ("tensors", s, t, concat_pairs)):
        kernel, _, decode, _ = BLOCK_KERNELS[kind]
        to_blocks = K.to_word_blocks if kind == "words" else K.to_tensor_blocks
        (bx, dx), (by, dy) = to_blocks(x), to_blocks(y)
        acc = {}
        if bx and by:
            kernel(acc, bx, by, 1)
        check_same(decode(acc, dx * dy), into_model({}, x, y, concat))


@given(st.dictionaries(block_pairs, small_pairs, max_size=8), st.integers(-5, 5).filter(bool))
def test_block_helpers(terms, n):
    blocks, den = K.to_tensor_blocks(terms)
    check_same(K.from_tensor_blocks(blocks, den), model(terms))
    scaled = K.scale_blocks(blocks, n)
    assert all(scaled[k] is not blocks[k] for k in blocks)
    check_same(K.from_tensor_blocks(scaled, den), {k: n * v for k, v in model(terms).items()})
    for shape, block in blocks.items():
        assert list(K.nonzero_entries(block)) == [(k, v) for k, v in enumerate(block) if v]
        other = list(block)
        other[0] += 1
        assert list(K.block_mismatches(block, 2, other, 2)) == [0]
        assert list(K.block_mismatches(block, 3, [3 * v for v in block], 1)) == []
