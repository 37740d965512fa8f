from fractions import Fraction
from math import factorial, prod

import pytest

from nsymm import (
    DegreeOverflowError,
    HopfFamily,
    NCPoly,
    c_coeff,
    compositions_of,
    is_primitive,
    newton_p_explicit,
    newton_p_left,
    newton_p_right,
    z_in_pprime,
    z_in_pprime_via_c,
)
from nsymm import _core_py as _k
from nsymm import newton
from nsymm.newton import _c_blocks, _p_left_graph, _p_right_graph, _z_in_pprime_graph
from nsymm.poly import _graph_expansions

Z = NCPoly.generator
W = NCPoly.word


def test_p_left_small():
    assert newton_p_left(1) == Z(1)
    assert newton_p_left(2) == 2 * Z(2) - W((1, 1))
    assert newton_p_left(3) == 3 * Z(3) - 2 * W((1, 2)) - W((2, 1)) + W((1, 1, 1))


def test_p_right_small():
    assert newton_p_right(1) == Z(1)
    assert newton_p_right(2) == newton_p_left(2)
    assert newton_p_right(3) == 3 * Z(3) - W((1, 2)) - 2 * W((2, 1)) + W((1, 1, 1))


def test_explicit_small():
    assert newton_p_explicit(1) == Z(1)
    assert newton_p_explicit(3) == newton_p_left(3)
    assert len(newton_p_explicit(4)) == 8  # one term per composition of 4


@pytest.mark.parametrize("n", range(1, 11))
def test_explicit_equals_recursion(n):
    assert newton_p_explicit(n, max_degree=10) == newton_p_left(n, max_degree=10)


def brute_c(word):
    # independent oracle: product of reciprocal suffix sums
    return prod(Fraction(1, sum(word[k:])) for k in range(len(word)))


def test_c_coeff_examples():
    assert c_coeff((2,)) == Fraction(1, 2)
    assert c_coeff((1, 1)) == Fraction(1, 2)
    assert c_coeff((1, 2)) == Fraction(1, 6)
    assert c_coeff((2, 1)) == Fraction(1, 3)
    with pytest.raises(ValueError):
        c_coeff(())


@pytest.mark.parametrize("n", range(1, 8))
def test_c_coeff_matches_oracle(n):
    for word in compositions_of(n):
        assert c_coeff(word) == brute_c(word)


def test_z_in_pprime_small():
    assert z_in_pprime(1) == NCPoly.generator(1)
    assert z_in_pprime(2) == NCPoly({(2,): "1/2", (1, 1): "1/2"})
    assert z_in_pprime(3) == NCPoly(
        {(3,): "1/3", (1, 2): "1/6", (2, 1): "1/3", (1, 1, 1): "1/6"}
    )


@pytest.mark.parametrize("n", range(1, 9))
def test_two_expansion_paths_agree(n):
    assert z_in_pprime_via_c(n) == z_in_pprime(n)


@pytest.mark.parametrize("n", range(1, 11))
def test_closed_form_matches_c_coeff(n):
    # the integer pairs (1, product of suffix sums) against the Fraction divisions
    terms = z_in_pprime_via_c(n, max_degree=10)._terms
    assert set(terms) == set(compositions_of(n))
    for word, pair in terms.items():
        c = c_coeff(word)
        assert pair == (c.numerator, c.denominator)


@pytest.mark.parametrize("n", range(1, 9))
def test_round_trip_recovers_generator(n):
    assert z_in_pprime(n).substitute(newton_p_right) == Z(n)


@pytest.mark.parametrize("n", range(2, 9))
def test_denominators_are_needed(n):
    assert not z_in_pprime(n).is_integral()


@pytest.mark.parametrize("n", range(1, 11))
def test_newton_polynomials_are_integral(n):
    assert newton_p_explicit(n, max_degree=10).is_integral()


@pytest.mark.parametrize("n", range(1, 9))
def test_word_reversal_swaps_left_right(n):
    assert newton_p_left(n).reverse_words() == newton_p_right(n)


@pytest.mark.parametrize("n", range(1, 9))
def test_leading_term_congruence(n):
    tail = newton_p_right(n) - n * Z(n)
    assert all(len(word) >= 2 for word in tail.support())


@pytest.mark.parametrize("n", range(1, 7))
def test_primitivity(n):
    assert is_primitive(newton_p_left(n), HopfFamily.NSYMM)
    assert is_primitive(newton_p_right(n), HopfFamily.NSYMM)


def test_index_bounds():
    for fn in (newton_p_left, newton_p_right, newton_p_explicit, z_in_pprime, z_in_pprime_via_c):
        with pytest.raises(ValueError):
            fn(0)
        with pytest.raises(DegreeOverflowError):
            fn(9)  # default limit is 8
        fn(9, max_degree=9)


@pytest.mark.parametrize("n", range(1, 11))
def test_c_blocks_are_the_closed_form(n):
    # built by the first part, against the suffix-sum products of each word
    assert NCPoly._from_blocks(_c_blocks(n)) == z_in_pprime_via_c(n, max_degree=10)
    assert _c_blocks(n)[1] == factorial(n)


# --- the recursions as quotient graphs ---------------------------------------

GRAPHS = {
    "left": (_p_left_graph, newton_p_left, lambda n: newton_p_explicit(n, max_degree=12)),
    "right": (
        _p_right_graph,
        newton_p_right,
        lambda n: newton_p_explicit(n, max_degree=12).reverse_words(),
    ),
    "z_in_pprime": (_z_in_pprime_graph, z_in_pprime, lambda n: z_in_pprime_via_c(n, max_degree=12)),
}


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_graph_expansion_equals_the_closed_form(name):
    # the identity substitution reads each root of the graph as its term map
    graph, member, closed_form = GRAPHS[name]
    expansion = list(_graph_expansions(graph(12)))
    assert expansion == [closed_form(n) for n in range(1, 13)]
    assert expansion == [member(n, max_degree=12) for n in range(1, 13)]


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_members_expand_their_graphs_by_letters_by_shape(monkeypatch, name):
    # each Z_n is placed by its shape: no letter is converted to a dense
    # block and no product of two dense images is taken
    graph, member, closed_form = GRAPHS[name]
    for cache in (newton._p_left, newton._p_right, newton._z_in_pprime):
        cache.cache_clear()

    def dense(*args):
        raise AssertionError("a member was expanded through dense letters")

    monkeypatch.setattr(_k, "to_word_blocks", dense)
    monkeypatch.setattr(_k, "mul_word_blocks_into", dense)
    assert [member(n) for n in range(1, 9)] == [closed_form(n) for n in range(1, 9)]


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_graph_lists_children_first(name):
    from_suffix, nodes, roots = GRAPHS[name][0](12)
    assert from_suffix is (name == "right")
    assert len(nodes) == 24 and roots == list(range(1, 24, 2))
    for k, (_, *edges) in enumerate(nodes):
        assert [letter for letter, _, _ in edges] == sorted({letter for letter, _, _ in edges})
        assert all(child < k for _, child, _ in edges)


def test_graph_of_one_degree():
    assert _p_left_graph(1) == (False, [((1, 1),), (None, (1, 0, (1, 1)))], [1])
    assert _z_in_pprime_graph(2)[1][3] == (None, (1, 1, (1, 2)), (2, 2, (1, 1)))


def test_member_caches_are_bounded():
    # each member is its graph's expansion on its own, so a cache only serves
    # repeated calls; the benchmark's tracer reads cache_info() by these names
    from nsymm import newton

    for cache in (newton._p_left, newton._p_right, newton._z_in_pprime):
        assert cache.cache_info().maxsize is not None
