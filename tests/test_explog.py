from fractions import Fraction
from math import factorial, gcd, lcm

import pytest

from nsymm import (
    DegreeOverflowError,
    HopfFamily,
    NCPoly,
    expand_u_in_z,
    expand_z_in_u,
    is_primitive,
    u_of_z,
    verify_iso,
    z_of_u,
)
from nsymm import Tensor2, coproduct
from nsymm import _core_py as _k
from nsymm.explog import (
    _blocks_by_length,
    _coalgebra_defect,
    _exp_coefficient,
    _log_coefficient,
    _u_of_z_graph,
    _z_of_u_graph,
)
from nsymm.hopf import _graph_coproducts
from nsymm.poly import _graph_expansions
from nsymm.words import compositions_of


def test_z_of_u_small():
    assert z_of_u(1) == NCPoly.generator(1)
    assert z_of_u(2) == NCPoly({(2,): 1, (1, 1): "1/2"})
    assert z_of_u(3) == NCPoly(
        {(3,): 1, (1, 2): "1/2", (2, 1): "1/2", (1, 1, 1): "1/6"}
    )


def test_u_of_z_small():
    assert u_of_z(1) == NCPoly.generator(1)
    assert u_of_z(2) == NCPoly({(2,): 1, (1, 1): "-1/2"})
    assert u_of_z(3) == NCPoly(
        {(3,): 1, (1, 2): "-1/2", (2, 1): "-1/2", (1, 1, 1): "1/3"}
    )


@pytest.mark.parametrize("n", range(1, 9))
def test_round_trip_both_directions(n):
    g = NCPoly.generator(n)
    assert expand_u_in_z(z_of_u(n, 8), 8) == g
    assert expand_z_in_u(u_of_z(n, 8), 8) == g


@pytest.mark.parametrize("n", range(1, 9))
def test_u_of_z_is_primitive_in_nsymm(n):
    assert is_primitive(u_of_z(n, 8), HopfFamily.NSYMM, 8)


@pytest.mark.parametrize("n", range(1, 9))
def test_denominator_divides_factorial(n):
    denominators = [c.denominator for _, c in z_of_u(n, 8).items()]
    assert factorial(n) % lcm(*denominators) == 0


def test_verify_iso_trivial_degrees():
    report = verify_iso(1)
    assert report.passed and len(report.checks) == 3
    report = verify_iso(2)
    assert report.passed


def test_verify_iso_full():
    report = verify_iso(6)
    assert report.passed
    assert len(report.checks) == 18
    laws = {check.law for check in report.checks}
    assert laws == {"round-trip Z->U->Z", "round-trip U->Z->U", "coalgebra morphism"}
    assert all(check.witness is None for check in report.checks)
    assert all(check.elapsed_us >= 0 for check in report.checks)
    data = report.to_data()
    assert data["passed"] is True
    assert all("witness" not in record for record in data["checks"])


def test_coalgebra_law_statement_by_hand():
    # at degree 2 the law reduces to bookkeeping around U2 + U1^2/2
    from nsymm import Tensor2, coproduct

    lhs = coproduct(z_of_u(2), HopfFamily.LIEHOPF)
    one = NCPoly.one()
    rhs = (
        Tensor2.outer(z_of_u(2), one)
        + Tensor2.outer(z_of_u(1), z_of_u(1))
        + Tensor2.outer(one, z_of_u(2))
    )
    assert lhs == rhs


def test_degree_bounds():
    with pytest.raises(ValueError):
        z_of_u(0)
    with pytest.raises(DegreeOverflowError):
        u_of_z(9)
    assert u_of_z(9, max_degree=9).coeff((9,)) == Fraction(1)


@pytest.mark.parametrize("n", range(1, 11))
def test_expansions_equal_the_validated_build(n):
    words = compositions_of(n)
    assert z_of_u(n, max_degree=10) == NCPoly({w: Fraction(1, factorial(len(w))) for w in words})
    assert u_of_z(n, max_degree=10) == NCPoly(
        {w: Fraction(1 if len(w) % 2 else -1, len(w)) for w in words}
    )


def _old_coalgebra_defect(n, lhs):
    """lhs minus the binomial image, as the tensor subtraction it replaced."""
    z = [NCPoly.one()] + [z_of_u(i) for i in range(1, n + 1)]
    rhs = Tensor2.zero()
    for i in range(n + 1):
        rhs = rhs + Tensor2.outer(z[i], z[n - i])
    return lhs - rhs


@pytest.mark.parametrize("n", range(1, 7))
def test_coalgebra_residue_matches_the_tensor_subtraction(n):
    lhs = coproduct(z_of_u(n), HopfFamily.LIEHOPF)
    terms = lhs._terms
    first = next(iter(terms))
    changed = dict(terms)
    changed[first] = (-terms[first][0], terms[first][1])
    missing = dict(terms)
    del missing[first]
    extra = dict(terms)
    extra[((n,), (1,))] = (5, 1)
    both = dict(missing)
    both[((), (n + 1,))] = (-1, 3)
    for variant in (terms, changed, missing, extra, both):
        delta = Tensor2._raw(variant)
        got = _coalgebra_defect(n, _k.to_tensor_blocks(variant))
        assert got == _old_coalgebra_defect(n, delta)
    assert not _coalgebra_defect(n, _k.to_tensor_blocks(terms))


def _canonical(terms):
    return all(num and den >= 1 and gcd(num, den) == 1 for num, den in terms.values())


@pytest.mark.parametrize("n", range(1, 8))
def test_coalgebra_check_on_a_perturbed_integer_map(n):
    # the dense blocks that pass 2 yields, put over 7 * den, with one entry
    # off by 1/7, one entry zeroed, and one entry in a block of the wrong
    # weights, each alone and all together
    *_, (blocks, den) = _graph_coproducts(_z_of_u_graph(n), HopfFamily.LIEHOPF)
    assert not _coalgebra_defect(n, (blocks, den))
    first, last = min(blocks), max(blocks)
    gone_at = len(blocks[last]) - 1
    off, gone = _k.tensor_block_key(first, 0), _k.tensor_block_key(last, gone_at)
    extra = ((n,), (n,))
    for parts in ({"off"}, {"gone"}, {"extra"}, {"off", "gone", "extra"}):
        lhs = _k.scale_blocks(blocks, 7)
        if "off" in parts:
            lhs[first][0] += den
        if "gone" in parts:
            lhs[last][gone_at] = 0
        if "extra" in parts:
            lhs[n, n] = [0] * (len(compositions_of(n)) ** 2 - 1) + [-3 * den]
        got = _coalgebra_defect(n, (lhs, 7 * den))
        assert got == _old_coalgebra_defect(n, Tensor2._from_blocks((lhs, 7 * den)))
        assert _canonical(got._terms)
        expected = {
            "off": (off, (1, 7)),
            "gone": (gone, _k.rat_norm(-blocks[last][gone_at], den)),
            "extra": (extra, (-3, 7)),
        }
        assert got._terms == dict(expected[part] for part in parts)


def test_letter_blocks_follow_the_length_coefficients():
    # each dense letter image holds coefficient(len(w)) on the w of rank k
    for n in range(1, 11):
        for member, coefficient in ((z_of_u, _exp_coefficient), (u_of_z, _log_coefficient)):
            blocks, den = _blocks_by_length(n, coefficient)
            assert list(blocks) == [n]
            assert NCPoly._from_blocks((blocks, den)) == member(n, max_degree=10)
    assert _blocks_by_length(12, _exp_coefficient)[1] == factorial(12)
    assert _blocks_by_length(12, _log_coefficient)[1] == lcm(*range(1, 13))


# --- the expansions as one shared quotient graph ------------------------------

GRAPHS = {
    "z_of_u": (_z_of_u_graph, z_of_u, lambda m: Fraction(1, factorial(m))),
    "u_of_z": (_u_of_z_graph, u_of_z, lambda m: Fraction(1 if m % 2 else -1, m)),
}


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_graph_expansion_equals_the_composition_sum(name):
    # the identity substitution reads each root of the graph as its term map
    graph, member, coefficient = GRAPHS[name]
    expansion = list(_graph_expansions(graph(12)))
    assert expansion == [
        NCPoly({w: coefficient(len(w)) for w in compositions_of(n)}) for n in range(1, 13)
    ]
    assert expansion == [member(n, max_degree=12) for n in range(1, 13)]


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_graph_nodes_are_shared_across_degrees(name):
    # node (L, r) for L + r <= 12, but (0, 0): 90 nodes, children first
    from_suffix, nodes, roots = GRAPHS[name][0](12)
    assert not from_suffix
    assert len(nodes) == sum(total + 1 for total in range(1, 13)) == 90
    assert [len(nodes[root]) - 1 for root in roots] == list(range(1, 13))
    for k, (_, *edges) in enumerate(nodes):
        assert all(child < k for _, child, _ in edges)
    # the root of degree n comes right after the nodes of weight n
    assert roots == [sum(total + 1 for total in range(1, n + 1)) - 1 for n in range(1, 13)]
