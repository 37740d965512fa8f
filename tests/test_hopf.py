import sys
from fractions import Fraction
from itertools import combinations
from math import comb, gcd

import pytest
from hypothesis import given, settings, strategies as st

from nsymm import (
    DegreeOverflowError,
    HopfFamily,
    NCPoly,
    Tensor2,
    coassociativity_defect,
    coproduct,
    counit,
    counit_law_defects,
    degree_limit,
    is_primitive,
    newton_p_explicit,
    newton_p_left,
    newton_p_right,
    primitivity_defect,
    u_of_z,
    z_in_pprime,
    z_of_u,
)
from nsymm import _core_py as _k
from nsymm import hopf, poly
from nsymm.explog import _u_of_z_graph, _z_of_u_graph
from nsymm.hopf import (
    _coproducts,
    _generator_coproduct,
    _graph_coproducts,
    _primitive_block_residue,
    _word_coproduct,
)
from nsymm.newton import _explicit_blocks, _p_left_graph, _p_right_graph
from nsymm.poly import _evaluate_graph, _graph_expansions

NS, LH = HopfFamily.NSYMM, HopfFamily.LIEHOPF


def t(left, right, coeff=1):
    return Tensor2({(tuple(left), tuple(right)): coeff})


def test_coproduct_generator_nsymm():
    assert coproduct(NCPoly.generator(2), NS) == t((2,), ()) + t((1,), (1,)) + t((), (2,))


def test_coproduct_generator_liehopf():
    assert coproduct(NCPoly.generator(7), LH) == t((7,), ()) + t((), (7,))


def test_coproduct_word_is_multiplicative():
    # square of the degree-1 coproduct, expanded by hand
    expected = t((1, 1), ()) + 2 * t((1,), (1,)) + t((), (1, 1))
    assert coproduct(NCPoly.word((1, 1)), NS) == expected
    assert coproduct(NCPoly.word((1, 1)), LH) == expected


def test_coproduct_linear():
    p = 3 * NCPoly.generator(1) + NCPoly.scalar("1/2")
    assert coproduct(p, NS) == 3 * (t((1,), ()) + t((), (1,))) + Fraction(1, 2) * Tensor2.one()


def test_counit():
    assert counit(NCPoly.one() + 3 * NCPoly.generator(2)) == 1
    assert counit(NCPoly.word((1, 3))) == 0
    assert counit(NCPoly.scalar("5/2")) == Fraction(5, 2)


def test_primitive_examples():
    assert is_primitive(NCPoly.generator(4), LH)
    assert not is_primitive(NCPoly.generator(2), NS)
    witness = primitivity_defect(NCPoly.generator(2), NS)
    assert witness.coeff(((1,), (1,))) == 1
    p2 = 2 * NCPoly.generator(2) - NCPoly.word((1, 1))
    assert is_primitive(p2, NS)


def test_zero_and_scalars():
    assert is_primitive(NCPoly.zero(), NS)
    assert not is_primitive(NCPoly.one(), NS)


@pytest.mark.parametrize("family", [NS, LH])
@pytest.mark.parametrize("n", range(1, 7))
def test_coassociativity_generators(family, n):
    assert coassociativity_defect(NCPoly.generator(n), family) == {}


@pytest.mark.parametrize("family", [NS, LH])
@pytest.mark.parametrize("n", range(1, 7))
def test_counit_laws_generators(family, n):
    left, right = counit_law_defects(NCPoly.generator(n), family)
    assert not left and not right


words = st.lists(st.integers(1, 3), max_size=3).map(tuple).filter(lambda w: sum(w) <= 5)
coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=6)
small_polys = st.dictionaries(words, coeffs, max_size=3).map(NCPoly)


@settings(max_examples=30, deadline=None)
@given(small_polys, st.sampled_from([NS, LH]))
def test_coassociativity_random(p, family):
    assert coassociativity_defect(p, family) == {}


@settings(max_examples=30, deadline=None)
@given(small_polys, st.sampled_from([NS, LH]))
def test_counit_laws_random(p, family):
    left, right = counit_law_defects(p, family)
    assert not left and not right


tiny_words = st.lists(st.integers(1, 3), max_size=2).map(tuple).filter(lambda w: sum(w) <= 3)
tiny_polys = st.dictionaries(tiny_words, coeffs, max_size=2).map(NCPoly)


@settings(max_examples=40, deadline=None)
@given(tiny_polys, tiny_polys, st.sampled_from([NS, LH]))
def test_coproduct_is_algebra_morphism(p, q, family):
    assert coproduct(p * q, family) == coproduct(p, family) * coproduct(q, family)


def test_commutator_of_primitives_is_primitive():
    ps = [newton_p_left(n) for n in range(1, 5)]
    for a, b in combinations(ps, 2):
        assert is_primitive(a * b - b * a, NS)


def test_degree_overflow():
    big = NCPoly.generator(5) * NCPoly.generator(4)  # degree 9
    with pytest.raises(DegreeOverflowError):
        coproduct(big, NS)
    with degree_limit(10):
        assert counit_law_defects(big, NS) == (NCPoly.zero(), NCPoly.zero())
    assert coproduct(big, NS, max_degree=9).degree == 9


# --- coproduct against the word-by-word sum ----------------------------------


def _coproduct_oracle(p, family):
    """Sum over the words w of p of c_w times the coproduct of w."""
    acc = Tensor2.zero()
    for word, coefficient in p.items():
        acc = acc + coefficient * Tensor2(_word_coproduct(word, family))
    return acc


@pytest.mark.parametrize("family", [NS, LH])
@pytest.mark.parametrize("n", range(1, 9))
def test_coproduct_matches_oracle_on_expansions(family, n):
    for p in (newton_p_left(n), newton_p_right(n), z_of_u(n), u_of_z(n)):
        assert coproduct(p, family) == _coproduct_oracle(p, family)


@pytest.mark.parametrize("family", [NS, LH])
@pytest.mark.parametrize("n", range(1, 7))
def test_coproduct_matches_oracle_on_pprime_expansion(family, n):
    p = z_in_pprime(n).substitute(newton_p_right)
    assert coproduct(p, family) == _coproduct_oracle(p, family)


@pytest.mark.parametrize("family", [NS, LH])
def test_coproduct_matches_oracle_on_random_tries(family, trie_polys):
    for p in trie_polys:
        assert coproduct(p, family) == _coproduct_oracle(p, family)


@pytest.mark.parametrize("family", [NS, LH])
def test_coproduct_of_primitives_cancels_inside_the_trie(family):
    # primitive, so nearly all terms cancel; in the primitive-generator
    # family, the primitives are carried over by Z_k -> z_of_u(k)
    for n, c in zip(range(2, 8), (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3))):
        p = c * newton_p_left(n) - newton_p_right(n) + u_of_z(n)
        if family is LH:
            p = p.substitute(z_of_u)
        expected = Tensor2.outer(p, NCPoly.one()) + Tensor2.outer(NCPoly.one(), p)
        assert coproduct(p, family) == _coproduct_oracle(p, family) == expected


@pytest.mark.parametrize("family", [NS, LH])
def test_coproduct_of_zero_and_constants(family):
    assert coproduct(NCPoly.zero(), family) == Tensor2.zero()
    assert coproduct(NCPoly.scalar("-3/4"), family) == Fraction(-3, 4) * Tensor2.one()


def _frame_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.parametrize("family", [NS, LH])
def test_coproduct_word_longer_than_recursion_limit(family):
    limit = _frame_depth() + 50
    n = limit + 50
    expected = Tensor2({((1,) * k, (1,) * (n - k)): comb(n, k) for k in range(n + 1)})
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        got = coproduct(NCPoly.word((1,) * n), family, max_degree=n)
    finally:
        sys.setrecursionlimit(old)
    assert got == expected


# --- the hash-consed evaluator -----------------------------------------------


@pytest.mark.parametrize("family", [NS, LH])
def test_coproduct_matches_oracle_on_near_twin_quotients(family, near_twin_polys):
    for p in near_twin_polys:
        assert coproduct(p, family) == _coproduct_oracle(p, family)


# products per coproduct at degree 12, one per edge between quotients that are
# distinct up to a scalar (the trie of the 4,096 compositions has 4,095
# edges); below the prefix (a) the left primitive has the quotient -P_{12-a},
# so the evaluation runs the Newton recursion in 12 + 11 + ... + 1 products
PRODUCT_COUNTS = {
    "newton_p_left": (newton_p_left, NS, 78),
    "newton_p_right": (newton_p_right, NS, 78),
    "z_of_u": (z_of_u, LH, 288),
}


def _binomial_coproduct(n):
    """Sum over i of z_of_u(i) (x) z_of_u(n - i), with z_of_u(0) = 1."""
    z = [NCPoly.one()] + [z_of_u(i, max_degree=n) for i in range(1, n + 1)]
    acc = Tensor2.zero()
    for i in range(n + 1):
        acc = acc + Tensor2.outer(z[i], z[n - i])
    return acc


@pytest.mark.parametrize("name", sorted(PRODUCT_COUNTS))
def test_coproduct_products_count_distinct_quotients(monkeypatch, name):
    make, family, products = PRODUCT_COUNTS[name]
    p = make(12, max_degree=12)
    calls = []
    real = _k.mul_tensor_into
    monkeypatch.setattr(_k, "mul_tensor_into", lambda *args: (calls.append(1), real(*args))[1])
    got = coproduct(p, family, max_degree=12)
    assert len(calls) == products
    if family is LH:
        assert got == _binomial_coproduct(12)
    else:
        assert got == Tensor2.outer(p, NCPoly.one()) + Tensor2.outer(NCPoly.one(), p)


# --- many roots in one evaluation --------------------------------------------


def _tensor_pair_morphism(family):
    # the morphism of pass 2 that _coproducts evaluates, in the pair form
    return poly._pair_morphism(
        lambda k: _generator_coproduct(k, family),
        poly._scaled_product(_k.mul_tensor_into),
        hopf._tensor_unit,
    )


@pytest.mark.parametrize("family", [NS, LH])
def test_shared_coproducts_match_oracle_on_near_twin_quotients(family, near_twin_polys, suffix_graph):
    twins = near_twin_polys
    for roots in (twins, twins[::-1], twins[:3] + twins[1:2] + twins[3:]):
        got = list(_coproducts(roots, family))
        assert got == [_coproduct_oracle(p, family) for p in roots]
    # near twins above suffixes, with the right primitives, read from the suffix
    roots = [newton_p_right(n) for n in range(1, 9)] + [p.reverse_words() for p in twins]
    graph = suffix_graph([p._terms for p in roots])
    got = list(map(Tensor2._raw, _evaluate_graph(graph, *_tensor_pair_morphism(family))))
    assert got == [_coproduct_oracle(p, family) for p in roots]


# products for the coproducts of every n <= 12 in one evaluation, read from
# the prefix.  The quotients of each left primitive are multiples of the
# primitives before it, so the family takes the 78 products of its top degree
# alone; the right primitives repeat their quotients above a suffix instead
SHARED_PRODUCT_COUNTS = {
    "newton_p_left": (newton_p_left, NS, 78),
    "newton_p_right": (newton_p_right, NS, 143),
    "z_of_u": (z_of_u, LH, 353),
}


@pytest.mark.parametrize("name", sorted(SHARED_PRODUCT_COUNTS))
def test_shared_coproducts_products_count(monkeypatch, name):
    make, family, products = SHARED_PRODUCT_COUNTS[name]
    roots = [make(n, max_degree=12) for n in range(1, 13)]
    calls = []
    real = _k.mul_tensor_into
    monkeypatch.setattr(_k, "mul_tensor_into", lambda *args: (calls.append(1), real(*args))[1])
    got = list(_coproducts(roots, family, max_degree=12))
    assert len(calls) == products
    assert got == [coproduct(p, family, max_degree=12) for p in roots]


@pytest.mark.parametrize("from_suffix", [False, True])
@pytest.mark.parametrize("family", [NS, LH])
def test_shared_coproducts_match_oracle_on_scaled_quotients(
    record_ratios, scalar_kinds, suffix_graph, from_suffix, family, scaled_twin_roots
):
    scalars = record_ratios(poly, "_pair_morphism")
    for roots in scaled_twin_roots:
        if from_suffix:
            graph = suffix_graph([p._terms for p in roots])
            got = list(map(Tensor2._raw, _evaluate_graph(graph, *_tensor_pair_morphism(family))))
        else:
            got = list(_coproducts(roots, family))
        assert got == [_coproduct_oracle(p, family) for p in roots]
        assert len({id(image._terms) for image in got}) == len(got)
    assert scalar_kinds(scalars) == {"negative", "integer", "fraction"}


def _scaled_edges_oracle(roots):
    """How many products of the shared evaluation carry a scalar other than 1.

    The quotients are visited as the evaluator interns them: root by root,
    children first, in letter order.  The first nonconstant quotient of
    each class up to a scalar represents the class and takes one product
    per child; that product carries a scalar other than 1 exactly when
    the child is nonconstant and not itself the representative of its
    class, that is, where two quotients merged.
    """
    seen, first = set(), {}
    scaled = 0

    def normal(q):
        # q divided by the coefficient of its least word
        c = q[min(q)]
        return frozenset((word, coeff / c) for word, coeff in q.items())

    def visit(q):
        nonlocal scaled
        children = {}
        for word, coeff in q.items():
            if word:
                children.setdefault(word[0], {})[word[1:]] = coeff
        for letter in sorted(children):
            visit(children[letter])
        exact = frozenset(q.items())
        if not children or exact in seen:
            return
        seen.add(exact)
        if first.setdefault(normal(q), exact) == exact:
            scaled += sum(
                1
                for child in children.values()
                if any(child) and first[normal(child)] != frozenset(child.items())
            )

    for p in roots:
        visit(dict(p.items()))
    return scaled


@pytest.mark.parametrize("make", [z_of_u, u_of_z])
def test_exp_log_products_scale_only_where_quotients_merge(record_ratios, make):
    roots = [make(n, max_degree=10) for n in range(1, 11)]
    scalars = record_ratios(poly, "_pair_morphism")
    list(_coproducts(roots, LH, max_degree=10))
    merged = _scaled_edges_oracle(roots)
    assert merged > 0
    assert sum(c != (1, 1) for c in scalars) == merged


def test_shared_coproducts_check_every_degree():
    roots = [NCPoly.generator(2), NCPoly.generator(9)]
    stream = _coproducts(roots, NS)
    with pytest.raises(DegreeOverflowError):
        next(stream)


def _old_primitivity_defect(p, delta):
    """The defect as the tensor subtraction it replaced."""
    one = NCPoly.one()
    return delta - Tensor2.outer(p, one) - Tensor2.outer(one, p)


def _perturbed(delta):
    """delta with one term changed, one missing, one extra, and each alone."""
    terms = delta._terms
    first = next(iter(terms))
    changed = dict(terms)
    changed[first] = _k.rat_add(terms[first], (1, 1009))
    missing = dict(terms)
    del missing[first]
    extra = dict(terms)
    extra[((1,), (1,))] = (3, 7)
    both = dict(missing)
    both[((2,), (2, 1))] = (-1, 2)
    return [Tensor2._raw(t) for t in (terms, changed, missing, extra, both)]


@pytest.mark.parametrize("family", [NS, LH])
@pytest.mark.parametrize("n", range(1, 7))
def test_primitive_residue_matches_the_tensor_subtraction(monkeypatch, family, n):
    # on term maps, through primitivity_defect with each perturbed coproduct
    # handed over fresh, and on dense blocks, where only mismatches are
    # decoded; p may have a constant term and a denominator
    for p in (newton_p_left(n), u_of_z(n), newton_p_right(n) + NCPoly.scalar(3), NCPoly.scalar("-1/2")):
        blocks = _k.to_word_blocks(p._terms)
        for delta in _perturbed(coproduct(p, family)):
            with monkeypatch.context() as patch:
                patch.setattr(hopf, "coproduct", lambda *args: Tensor2._raw(dict(delta._terms)))
                got = primitivity_defect(p, family)
            assert got == _old_primitivity_defect(p, delta)
            assert all(gcd(*pair) == 1 and pair[1] >= 1 for pair in got._terms.values())
            got = _primitive_block_residue(blocks, _k.to_tensor_blocks(delta._terms))
            assert got == _old_primitivity_defect(p, delta)
            assert all(gcd(*pair) == 1 and pair[1] >= 1 for pair in got._terms.values())
        assert primitivity_defect(p, family) == _old_primitivity_defect(p, coproduct(p, family))


@pytest.mark.parametrize("family", [NS, LH])
@pytest.mark.parametrize("make", [newton_p_left, u_of_z])
def test_primitivity_defect_writes_only_its_own_coproduct(family, make):
    # the defect is subtracted in place from a fresh coproduct: a cached
    # member of a family is read, never written, and no call hands out a
    # map that p, the other call or a cache holds
    p = make(6)
    before = dict(p._terms)
    first = primitivity_defect(p, family)
    second = primitivity_defect(p, family)
    assert first == second == _old_primitivity_defect(p, coproduct(p, family))
    assert make(6) is p and p._terms == before
    held = [make(k)._terms for k in range(1, 7)]
    held += [_generator_coproduct(k, family) for k in range(1, 7)]
    for defect, other in ((first, second), (second, first)):
        assert all(defect._terms is not terms for terms in [other._terms, *held])


@pytest.mark.parametrize("from_suffix", [False, True])
def test_explicit_blocks_are_the_closed_form(from_suffix):
    for n in range(1, 11):
        expected = newton_p_explicit(n, max_degree=10)
        if from_suffix:
            expected = expected.reverse_words()
        assert NCPoly._from_blocks(_explicit_blocks(n, from_suffix)) == expected


@pytest.mark.parametrize("graph", [_p_left_graph, _p_right_graph])
def test_primitive_coproducts_keep_no_mixed_block(monkeypatch, graph):
    # the products of each member of the graph form mixed blocks (i, n - i),
    # which cancel to zero and are dropped as the member finishes, so each
    # member keeps only (n, 0) and (0, n), and each constant its unit block
    formed, kept = [], []
    real = _k.drop_zero_blocks

    def drop_zero_blocks(blocks):
        formed.append(sorted(blocks))
        real(blocks)
        kept.append(sorted(blocks))

    monkeypatch.setattr(_k, "drop_zero_blocks", drop_zero_blocks)
    for n, (blocks, den) in enumerate(_graph_coproducts(graph(12), NS), 1):
        assert sorted(blocks) == [(0, n), (n, 0)]
        assert den == 1
    members = [shapes for shapes in kept if shapes != [(0, 0)]]
    assert members == [[(0, n), (n, 0)] for n in range(1, 13)]
    mixed = [shapes for shapes in formed if any(i and j for i, j in shapes)]
    assert len(mixed) == 11


# --- the graphs of the families' recursions -----------------------------------

# products of the graph path over n <= 12, with no word walked: the same as
# pass 1 takes on the expanded maps (SHARED_PRODUCT_COUNTS), but for the right
# primitives, whose graph is read from the suffix
GRAPH_PRODUCT_COUNTS = {
    "newton_p_left": (_p_left_graph, NS, 78),
    "newton_p_right": (_p_right_graph, NS, 78),
    "z_of_u": (_z_of_u_graph, LH, 353),
}


@pytest.mark.parametrize("name", sorted(GRAPH_PRODUCT_COUNTS))
def test_graph_coproducts_products_count(monkeypatch, name):
    graph, family, products = GRAPH_PRODUCT_COUNTS[name]
    roots = list(_graph_expansions(graph(12)))
    expected = list(_coproducts(roots, family, max_degree=12))
    # each letter is a letter by shape, so every product is a placement
    calls = []
    real = _k.place_letter_blocks_into
    monkeypatch.setattr(_k, "place_letter_blocks_into", lambda *args: (calls.append(1), real(*args))[1])
    monkeypatch.setattr(_k, "mul_word_blocks_into", None)

    def no_walk(roots):
        raise AssertionError("the graph path walked the words")

    monkeypatch.setattr(poly, "_quotient_graph", no_walk)
    got = list(map(Tensor2._from_blocks, _graph_coproducts(graph(12), family)))
    assert len(calls) == products
    assert got == expected


@pytest.mark.parametrize("family", [NS, LH])
@pytest.mark.parametrize("graph", [_p_left_graph, _p_right_graph, _z_of_u_graph, _u_of_z_graph])
def test_graph_coproducts_match_the_oracle(family, graph):
    roots = list(_graph_expansions(graph(7)))
    got = list(map(Tensor2._from_blocks, _graph_coproducts(graph(7), family)))
    assert got == [_coproduct_oracle(p, family) for p in roots]
