import gc
import random
from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from nsymm import (
    NCPoly,
    Tensor2,
    is_integral,
    ncp_add,
    ncp_mul,
    ncp_scale,
    newton_p_left,
    newton_p_right,
    tensor_mul,
    u_of_z,
    z_in_pprime,
    z_of_u,
)
from nsymm import HopfFamily
from nsymm import _core_py as _k
from nsymm import hopf, poly
from nsymm.explog import _u_of_z_graph, _z_of_u_graph
from nsymm.newton import _p_left_graph, _z_in_pprime_graph
from nsymm.poly import (
    _evaluate,
    _evaluate_graph,
    _graph_substitutions,
    _substitutions,
    _word_unit,
)

Z1 = NCPoly.generator(1)
Z2 = NCPoly.generator(2)

words = st.lists(st.integers(1, 4), max_size=3).map(tuple)
coeffs = st.fractions(min_value=-40, max_value=40, max_denominator=12)
polys = st.dictionaries(words, coeffs, max_size=4).map(NCPoly)


def test_add_cancels_to_zero():
    assert Z1 + (-1) * Z1 == NCPoly.zero()
    assert not (Z1 - Z1)
    assert len(Z1 - Z1) == 0


def test_scale():
    assert ncp_scale(Fraction(1, 2), 2 * Z2) == Z2
    assert ncp_scale(0, Z2) == NCPoly.zero()
    assert (2 * Z2) / 2 == Z2
    with pytest.raises(ZeroDivisionError):
        Z1 / 0


def test_mixed_degrees():
    p = Z1 + Z1 * Z1
    assert len(p) == 2
    assert p.degree == 2
    assert sorted(map(len, p.support())) == [1, 2]


def test_mul_is_concatenation():
    assert Z1 * Z2 == NCPoly.word((1, 2))
    q = NCPoly.one() + Z1
    assert q * q == NCPoly.one() + 2 * Z1 + NCPoly.word((1, 1))


def test_noncommutativity_witness():
    assert Z1 * Z2 != Z2 * Z1


def test_canonical_form_idempotent():
    p = NCPoly({(1,): Fraction(1, 3), (2, 1): Fraction(-4, 6)})
    again = NCPoly(dict(p.items()))
    assert again == p
    assert p.coeff((2, 1)) == Fraction(-2, 3)
    # zero coefficients are never stored
    q = NCPoly({(1,): 0, (2,): 1})
    assert q.support() == ((2,),)


def test_degree_of_zero_and_scalar():
    assert NCPoly.zero().degree == -1
    assert NCPoly.scalar("5/2").degree == 0
    assert NCPoly.scalar("5/2").constant_term() == Fraction(5, 2)


def test_is_integral():
    assert is_integral(NCPoly({(2,): 2, (1, 1): -1}))
    assert not is_integral(NCPoly({(2,): "1/2"}))
    assert is_integral(NCPoly.zero())


def test_pow():
    p = NCPoly.one() + Z1
    assert p**0 == NCPoly.one()
    assert p**2 == p * p


def test_reverse_words():
    p = NCPoly({(1, 2): 1, (3,): 2})
    assert p.reverse_words() == NCPoly({(2, 1): 1, (3,): 2})


def test_substitute_identity_and_doubling():
    p = NCPoly({(1, 2): 3, (2,): "1/2", (): 1})
    assert p.substitute(NCPoly.generator) == p
    doubled = p.substitute(lambda k: 2 * NCPoly.generator(k))
    assert doubled.coeff((1, 2)) == 12
    assert doubled.coeff((2,)) == 1
    assert doubled.coeff(()) == 1


def test_bad_inputs():
    with pytest.raises(ValueError):
        NCPoly({(0,): 1})
    with pytest.raises(TypeError):
        NCPoly({(1,): 1.5})
    with pytest.raises(ValueError):
        NCPoly.generator(0)


@pytest.mark.parametrize("bad", [True, False, 2.0, "1"], ids=repr)
def test_generator_rejects_bools_and_non_ints(bad):
    # a bool is an int to isinstance: True was read as the letter 1
    with pytest.raises(ValueError, match="integer >= 1"):
        NCPoly.generator(bad)


@pytest.mark.parametrize("pair", [(1.5, 2), (3, 2.9), (True, 2), (1, True), (Fraction(1, 2), 3), ("1", 2)])
def test_pair_coefficient_rejects_non_int_components(pair):
    # int() would truncate (1.5, 2) to 1/2 and (3, 2.9) to 3/2
    with pytest.raises(TypeError):
        NCPoly({(1,): pair})


def test_pair_coefficient_normalizes():
    assert NCPoly({(1,): (2, -4)}).coeff((1,)) == Fraction(-1, 2)
    with pytest.raises(ZeroDivisionError):
        NCPoly({(1,): (1, 0)})


@settings(max_examples=60)
@given(polys, polys, polys)
def test_mul_associative_and_unital(p, q, r):
    assert (p * q) * r == p * (q * r)
    one = NCPoly.one()
    assert one * p == p
    assert p * one == p


@given(polys, polys)
def test_add_commutes_mul_distributes(p, q):
    assert p + q == q + p
    r = Z1 + Z2
    assert r * (p + q) == r * p + r * q


# --- tensor square ---------------------------------------------------------


def t(left, right, coeff=1):
    return Tensor2({(tuple(left), tuple(right)): coeff})


def test_tensor_products():
    assert t((1,), ()) * t((), (1,)) == t((1,), (1,))
    assert t((), (1,)) * t((1,), ()) == t((1,), (1,))
    s = t((1,), ()) + t((), (1,))
    assert s * s == t((1, 1), ()) + 2 * t((1,), (1,)) + t((), (1, 1))


def test_tensor_outer_and_unit():
    p = Z1 + 2 * Z2
    assert Tensor2.outer(p, NCPoly.one()) == t((1,), ()) + 2 * t((2,), ())
    assert tensor_mul(Tensor2.one(), t((2,), (1,))) == t((2,), (1,))
    assert t((2,), (1,)).degree == 3


tensors = st.dictionaries(st.tuples(words, words), coeffs, max_size=3).map(Tensor2)


@settings(max_examples=40)
@given(tensors, tensors, tensors)
def test_tensor_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


def test_functional_aliases():
    assert ncp_add(Z1, Z2) == Z1 + Z2
    assert ncp_mul(Z1, Z2) == Z1 * Z2


# --- substitute against the word-by-word sum ---------------------------------


def _substitute_oracle(p, images):
    """Sum over the words w of p of c_w times the product of w's letter images."""
    lookup = images.__getitem__ if isinstance(images, Mapping) else images
    acc = NCPoly.zero()
    for word, coefficient in p.items():
        image = NCPoly.one()
        for letter in word:
            image = image * lookup(letter)
        acc = acc + coefficient * image
    return acc


# letter 2 goes to the square of letter 1's image and letter 3 to zero, so
# Z2 - Z1*Z1 and every word holding a 3 map to zero
CANCELLING = {1: Z1, 2: Z1 * Z1, 3: NCPoly.zero()}
IMAGE_FAMILIES = {
    "z_of_u": z_of_u,
    "u_of_z": u_of_z,
    "newton_p_right": newton_p_right,
    "affine": lambda k: NCPoly.one() - 2 * NCPoly.generator(k) + Z1 * NCPoly.generator(k),
    "cancelling": CANCELLING,
    "cancelling, read-only mapping": MappingProxyType(CANCELLING),
}


@pytest.mark.parametrize("family", ["z_of_u", "u_of_z", "newton_p_right"])
@pytest.mark.parametrize("n", range(1, 9))
def test_substitute_matches_oracle_on_expansions(family, n):
    images = IMAGE_FAMILIES[family]
    for p in (newton_p_left(n), newton_p_right(n), z_of_u(n), u_of_z(n)):
        assert p.substitute(images) == _substitute_oracle(p, images)


@pytest.mark.parametrize("n", range(1, 9))
def test_substitute_change_of_generators_round_trips(n):
    generator = NCPoly.generator(n)
    assert z_of_u(n).substitute(u_of_z) == _substitute_oracle(z_of_u(n), u_of_z) == generator
    assert u_of_z(n).substitute(z_of_u) == _substitute_oracle(u_of_z(n), z_of_u) == generator


@pytest.mark.parametrize("n", range(1, 7))
def test_substitute_primitives_into_pprime_expansion(n):
    p = z_in_pprime(n)
    expected = NCPoly.generator(n)
    assert p.substitute(newton_p_right) == _substitute_oracle(p, newton_p_right) == expected


@pytest.mark.parametrize("family", sorted(IMAGE_FAMILIES))
def test_substitute_matches_oracle_on_random_tries(family, trie_polys):
    images = IMAGE_FAMILIES[family]
    for p in trie_polys:
        assert p.substitute(images) == _substitute_oracle(p, images)


def test_substitute_cancels_inside_the_trie(trie_polys):
    for left, right in zip(trie_polys[::2], trie_polys[1::2]):
        p = left * (NCPoly.generator(2) - Z1 * Z1) * right + NCPoly.word((1, 3, 1), 5)
        assert p
        assert p.substitute(CANCELLING) == NCPoly.zero()
        assert _substitute_oracle(p, CANCELLING) == NCPoly.zero()


def test_substitute_zero_and_constants():
    for images in IMAGE_FAMILIES.values():
        assert NCPoly.zero().substitute(images) == NCPoly.zero()
        assert NCPoly.scalar("-3/4").substitute(images) == NCPoly.scalar("-3/4")


def test_substitute_mapping_and_callable_agree():
    p = NCPoly({(): 1, (1,): 2, (1, 2): -1, (2, 1, 1): "1/3", (3, 1): 4})
    by_mapping = p.substitute(CANCELLING)
    assert by_mapping == p.substitute(CANCELLING.__getitem__)
    assert by_mapping == p.substitute(MappingProxyType(CANCELLING))
    assert by_mapping == NCPoly({(): 1, (1,): 2, (1, 1, 1): -1, (1, 1, 1, 1): "1/3"})


def test_substitute_looks_up_each_letter_once():
    # u_of_z(12) has 2,048 words over 12 letters; one evaluation reads each
    # letter's image once, however many edges carry it
    calls = []

    def image(k):
        calls.append(k)
        return z_of_u(k, max_degree=12)

    assert u_of_z(12, max_degree=12).substitute(image) == NCPoly.generator(12)
    assert sorted(calls) == list(range(1, 13))


@pytest.mark.parametrize("n", range(1, 9))
def test_rank_built_letters_equal_the_converters(n):
    # the suites build each letter's image by rank, a single 1 in the last
    # slot of each block; the converters from term maps are the oracle
    expected = _k.to_word_blocks(NCPoly.generator(n)._terms)
    assert poly._generator_blocks(n) == expected
    for family in HopfFamily:
        built = hopf._generator_coproduct_blocks(n, family)
        expected = _k.to_tensor_blocks(hopf._generator_coproduct(n, family))
        assert built == expected and list(built[0]) == list(expected[0])


def test_substitute_missing_letter_still_raises():
    with pytest.raises(KeyError):
        NCPoly.word((1, 4)).substitute(CANCELLING)


def test_substitute_word_longer_than_recursion_limit():
    word = NCPoly.word((1,) * 3000)
    assert word.substitute(NCPoly.generator) == word


# --- the hash-consed evaluator -----------------------------------------------


@pytest.mark.parametrize("family", sorted(IMAGE_FAMILIES))
def test_substitute_matches_oracle_on_near_twin_quotients(family, near_twin_polys):
    images = IMAGE_FAMILIES[family]
    for p in near_twin_polys:
        assert p.substitute(images) == _substitute_oracle(p, images)


def _scaled_word_into(acc, x, y, c):
    # the product_into of the pair form: acc += c * x * y
    _k.add_scaled_into(acc, _k.mul_word_terms(x, y), c)


def test_shared_quotient_is_evaluated_once_and_only_read():
    # the quotient Z2 below (1, 1) and (2, 1) has the parents (1,) and (2,),
    # whose quotients differ
    p = NCPoly({(1, 1, 2): 1, (1, 3): 1, (2, 1, 2): 1, (2, 2): 1})
    images = {1: Z1 + Z2, 2: NCPoly.one() - Z1, 3: Z2 * Z1}
    reads = []

    def product_into(acc, letter_image, child_image, c):
        reads.append((acc, child_image, dict(child_image)))
        _scaled_word_into(acc, letter_image, child_image, c)

    (got,) = _evaluate([p._terms], lambda k: images[k]._terms, product_into, _word_unit)
    assert NCPoly._raw(got) == _substitute_oracle(p, images)
    # every child image comes out as it went in
    assert all(child == before for _, child, before in reads)
    shared = [
        (acc, child) for acc, child, _ in reads if child == (NCPoly.one() - Z1)._terms
    ]
    assert len(shared) == 2
    (first_acc, first), (second_acc, second) = shared
    assert first is second and first_acc is not second_acc


def test_substitute_products_count_distinct_quotients(monkeypatch):
    calls = []
    real = _k.mul_word_into
    monkeypatch.setattr(_k, "mul_word_into", lambda *args: (calls.append(1), real(*args))[1])
    # the quotients below (1,), (2,) and (3,) are all Z1*Z1, evaluated once:
    # two products down that chain and three at the root, against nine trie edges
    p = NCPoly({(1, 1, 1): 1, (2, 1, 1): 1, (3, 1, 1): 1})
    assert p.substitute(NCPoly.generator) == p
    assert len(calls) == 5


# --- many roots in one evaluation --------------------------------------------


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(_k, name)
    monkeypatch.setattr(_k, name, lambda *args: (calls.append(1), real(*args))[1])
    return calls


def _word_pair_morphism(images):
    # the morphism of pass 2 that _substitutions evaluates, in the pair form
    lookup = poly._lookup(images)
    return poly._pair_morphism(
        lambda k: lookup(k)._terms, poly._scaled_product(_k.mul_word_into), _word_unit
    )


@pytest.mark.parametrize("family", sorted(IMAGE_FAMILIES))
def test_shared_substitution_matches_oracle_on_near_twin_quotients(
    family, near_twin_polys, suffix_graph
):
    images = IMAGE_FAMILIES[family]
    twins = near_twin_polys
    for roots in (twins, twins[::-1], twins[:3] + twins[1:2] + twins[3:]):
        got = list(_substitutions(roots, images))
        assert got == [_substitute_oracle(p, images) for p in roots]
    # near twins above suffixes, with the right primitives on the letters that
    # have images, read from the suffix
    top = max(images) if isinstance(images, Mapping) else 8
    roots = [newton_p_right(n) for n in range(1, top + 1)] + [p.reverse_words() for p in twins]
    graph = suffix_graph([p._terms for p in roots])
    got = list(map(NCPoly._raw, _evaluate_graph(graph, *_word_pair_morphism(images))))
    assert got == [_substitute_oracle(p, images) for p in roots]


def test_shared_substitution_products_count(monkeypatch):
    # Z_n in the P' alphabet, with the right primitives put back, over n <= 12:
    # the quotient of z_in_pprime(n) below i is z_in_pprime(n - i) / n, a
    # multiple of an earlier root, so z_in_pprime(n) takes n products and
    # the family 1 + 2 + ... + 12 = 78
    roots = [z_in_pprime(n, max_degree=12) for n in range(1, 13)]
    images = {k: newton_p_right(k, max_degree=12) for k in range(1, 13)}
    calls = _count_calls(monkeypatch, "mul_word_into")
    got = list(_substitutions(roots, images))
    assert len(calls) == 78
    assert got == [NCPoly.generator(n) for n in range(1, 13)]


@pytest.mark.parametrize("from_suffix", [False, True])
@pytest.mark.parametrize("family", ["affine", "z_of_u", "newton_p_right"])
def test_shared_substitution_matches_oracle_on_scaled_quotients(
    record_ratios, scalar_kinds, suffix_graph, from_suffix, family, scaled_twin_roots
):
    images = IMAGE_FAMILIES[family]
    scalars = record_ratios(poly, "_pair_morphism")
    for roots in scaled_twin_roots:
        if from_suffix:
            graph = suffix_graph([p._terms for p in roots])
            got = list(map(NCPoly._raw, _evaluate_graph(graph, *_word_pair_morphism(images))))
        else:
            got = list(_substitutions(roots, images))
        assert got == [_substitute_oracle(p, images) for p in roots]
        # every yielded image is a map of its own
        assert len({id(image._terms) for image in got}) == len(got)
    assert scalar_kinds(scalars) == {"negative", "integer", "fraction"}


class _ReadEvenIfEmpty(dict):
    """An accumulator that the evaluator reads even when it cancels to zero."""

    def __bool__(self):
        return True


@pytest.mark.parametrize("from_suffix", [False, True])
def test_every_evaluated_image_is_read(monkeypatch, suffix_graph, from_suffix, scaled_twin_roots):
    # a constant below a quotient that joins an earlier class is read by no
    # node, so it is skipped: every accumulator from unit is read by a
    # product, scaled at release or yielded
    made, read = [], {}
    real_scale = _k.scale_terms

    def unit(c):
        made.append(_ReadEvenIfEmpty(_word_unit(c)))
        return made[-1]

    def product_into(acc, x, y, c):
        read.update({id(x): x, id(y): y})
        _scaled_word_into(acc, x, y, c)

    def scale_terms(terms, c):
        read[id(terms)] = terms
        return real_scale(terms, c)

    monkeypatch.setattr(_k, "scale_terms", scale_terms)
    images = IMAGE_FAMILIES["affine"]
    z_family = [z_in_pprime(n, max_degree=12) for n in range(1, 13)]
    for roots in [*scaled_twin_roots, z_family]:
        made.clear()
        read.clear()
        terms = [p._terms for p in roots]
        morphism = (lambda k: images(k)._terms, product_into, unit)
        if from_suffix:
            got = list(_evaluate_graph(suffix_graph(terms), *poly._pair_morphism(*morphism)))
        else:
            got = list(_evaluate(terms, *morphism))
        assert [NCPoly._raw(dict(g)) for g in got] == [_substitute_oracle(p, images) for p in roots]
        read.update((id(g), g) for g in got)
        assert all(read.get(id(acc)) is acc for acc in made)


def test_yielded_image_is_not_written_later():
    # the image of q is yielded first, then read as a child of the second root
    # and yielded again
    q = NCPoly({(): 2, (1,): 1, (2, 1): -1})
    roots = [q, Z1 * q + Z2 * q - NCPoly.generator(3) * q, q]
    images = IMAGE_FAMILIES["affine"]
    seen = []
    for image in _substitutions(roots, images):
        seen.append((image, dict(image._terms)))
    assert [image for image, _ in seen] == [_substitute_oracle(p, images) for p in roots]
    assert all(image._terms == before for image, before in seen)


def _held_by(stream):
    """What the frames of a paused chain of generators hold: locals and the images of pass 2.

    A ``map`` in the chain has no frame; the generator it reads is
    followed through ``gc.get_referents``.
    """
    held, todo = [], [stream]
    while todo:
        it = todo.pop()
        frame = getattr(it, "gi_frame", None)
        if frame is None:
            todo += [r for r in gc.get_referents(it) if hasattr(r, "gi_frame")]
            continue
        f_locals = frame.f_locals
        held += f_locals.values()
        if isinstance(f_locals.get("images"), list):
            held += f_locals["images"]
        if it.gi_yieldfrom is not None:
            todo.append(it.gi_yieldfrom)
    return held


def _holds(held, terms):
    # the term map itself, or an image (blocks, den) around it; for dense
    # blocks, also any image that shares one of its block lists
    lists = {id(block) for block in terms.values() if type(block) is list}
    for value in held:
        inner = value[0] if type(value) is tuple and len(value) == 2 else value
        if inner is terms:
            return True
        if lists and isinstance(inner, dict) and any(id(b) in lists for b in inner.values()):
            return True
    return False


def test_paused_evaluation_keeps_no_yielded_image():
    # z_of_u(n) has no constant term and every quotient below a nonempty
    # prefix has one, so no root of its graph reads another; a root that a
    # later root does read is yielded as a copy.  Once a root's image is
    # yielded, only the caller holds it: in the pair form, in the dense
    # blocks that pass 2 yields on a graph and the suites read, and reduced
    # to a term map, for word and for tensor keys.
    roots = [z_of_u(n)._terms for n in range(1, 8)]
    images = IMAGE_FAMILIES["affine"]
    graph = _z_of_u_graph(7)
    streams = {
        "pair form": _evaluate(roots, lambda k: images(k)._terms, _scaled_word_into, _word_unit),
        "words": _substitutions([z_of_u(n) for n in range(1, 8)], images),
        "graph words": _graph_substitutions(graph, images),
        "word blocks": poly._block_substitutions(graph, lambda k: _k.to_word_blocks(images(k)._terms)),
        "tensors": hopf._coproducts([z_of_u(n) for n in range(1, 8)], HopfFamily.LIEHOPF),
        "graph tensors": map(Tensor2._from_blocks, hopf._graph_coproducts(graph, HopfFamily.NSYMM)),
        "tensor blocks": hopf._graph_coproducts(graph, HopfFamily.LIEHOPF),
    }
    for name, stream in streams.items():
        count = 0
        for image in stream:
            terms = image[0] if name.endswith("blocks") else getattr(image, "_terms", image)
            assert terms, name
            assert not _holds(_held_by(stream), terms), name
            count += 1
        assert count == 7, name


def test_paused_evaluation_keeps_no_shared_block():
    # in the graph of the left primitives, P_n reads P_(n-1), ..., P_1, so
    # each root but the last is yielded as a copy, and no list of its blocks
    # stays with the generator
    graph = _p_left_graph(7)
    streams = {
        "word blocks": poly._block_substitutions(graph, lambda k: _k.to_word_blocks(u_of_z(k)._terms)),
        "tensor blocks": hopf._graph_coproducts(graph, HopfFamily.NSYMM),
    }
    for name, stream in streams.items():
        for blocks, _ in stream:
            assert blocks, name
            assert not _holds(_held_by(stream), blocks), name


def test_paused_evaluation_drops_the_letter_images_before_its_last_root(monkeypatch):
    # over dense blocks, pass 2 looks up each letter image once: a converted
    # term map, or a coproduct of a generator built by rank; once every
    # node is evaluated, before the last root is yielded, nothing holds
    # those images.  Term maps given as input (substitute, coproduct) are
    # evaluated in the pair form, which converts no letter image: it reads
    # the caller's term maps as they are
    converted = []

    def recording(module, name):
        real = getattr(module, name)

        def convert(*args):
            converted.append(real(*args))
            return converted[-1]

        monkeypatch.setattr(module, name, convert)

    recording(_k, "to_word_blocks")
    recording(hopf, "_generator_coproduct_blocks")
    images = IMAGE_FAMILIES["affine"]
    graph = _z_of_u_graph(7)
    for make in (
        lambda: _graph_substitutions(graph, images),
        lambda: hopf._graph_coproducts(graph, HopfFamily.LIEHOPF),
    ):
        converted.clear()
        stream = make()
        for _ in range(6):
            next(stream)
        # the last root still needs its nodes, so the letter images are alive
        assert any(gc.get_referrers(letter) != [converted] for letter in converted)
        last = next(stream)
        assert last
        assert all(gc.get_referrers(letter) == [converted] for letter in converted)


@pytest.mark.parametrize("make", [newton_p_left, z_in_pprime, z_of_u])
def test_each_root_is_yielded_before_later_work(monkeypatch, make):
    roots = [make(n, max_degree=10) for n in range(1, 11)]
    images = {k: u_of_z(k, max_degree=10) for k in range(1, 11)}
    calls = _count_calls(monkeypatch, "mul_word_into")
    alone = []
    for k in range(1, len(roots) + 1):
        before = len(calls)
        list(_substitutions(roots[:k], images))
        alone.append(len(calls) - before)
    # the counted kernel is the one the evaluation calls
    assert all(alone)
    calls.clear()
    # when the k-th root is yielded, exactly the products the first k roots need are done
    for k, _ in enumerate(_substitutions(roots, images), 1):
        assert len(calls) == alone[k - 1]


# --- quotient graphs handed over by a family ---------------------------------


def _expand_nodes(graph):
    """Every node of a quotient graph as a polynomial, node by node: the oracle."""
    from_suffix, nodes, _ = graph
    polys = []
    for constant, *edges in nodes:
        p = NCPoly.scalar(Fraction(*constant)) if constant else NCPoly.zero()
        for letter, child, ratio in edges:
            z = NCPoly.generator(letter)
            p = p + (polys[child] * z if from_suffix else z * polys[child]).scale(Fraction(*ratio))
        polys.append(p)
    return polys


def _expand_graph(graph):
    """The roots of a quotient graph as polynomials."""
    polys = _expand_nodes(graph)
    return [polys[root] for root in graph[2]]


def _class_edges(graph):
    """The edges of one node per class of the nodes that the roots read.

    Two nodes are in one class when their expansions are equal up to a
    scalar; a constant costs no product.
    """
    _, nodes, roots = graph
    polys = _expand_nodes(graph)
    reached, todo = set(), list(roots)
    while todo:
        k = todo.pop()
        if k not in reached:
            reached.add(k)
            todo += [child for _, child, _ in nodes[k][1:]]
    classes = {}
    for k in reached:
        if len(nodes[k]) > 1:
            first = polys[k].items()[0][1]
            classes[frozenset((w, c / first) for w, c in polys[k].items())] = len(nodes[k]) - 1
    return sum(classes.values())


_RATIOS = ((1, 1), (-1, 1), (3, 1), (-2, 7), (5, 2))


def _random_graph(rng, from_suffix):
    """A seeded graph in which many nodes are multiples of earlier ones.

    After three constants, each node either copies an earlier node's
    constant and edges with everything scaled by one ratio, a multiple of
    that node, or gets its own constant and one to three edges, each into
    an earlier node with a ratio.  Five roots are drawn from the nodes
    that have edges, in increasing order.
    """
    nodes = [((1, 1),), ((-2, 1),), ((1, 3),)]
    for _ in range(14):
        inner = [k for k, node in enumerate(nodes) if len(node) > 1]
        if inner and rng.random() < 0.5:
            constant, *edges = nodes[rng.choice(inner)]
            scale = rng.choice(_RATIOS[1:])
            constant = constant and _k.rat_mul(constant, scale)
            nodes.append((constant, *((a, c, _k.rat_mul(r, scale)) for a, c, r in edges)))
        else:
            constant = rng.choice([None, *_RATIOS])
            letters = sorted(rng.sample(range(1, 4), rng.randint(1, 3)))
            edges = [(a, rng.randrange(len(nodes)), rng.choice(_RATIOS)) for a in letters]
            nodes.append((constant, *edges))
    inner = [k for k, node in enumerate(nodes) if len(node) > 1]
    return from_suffix, nodes, sorted(rng.sample(inner, 5))


@pytest.mark.parametrize("from_suffix", [False, True])
@pytest.mark.parametrize("family", ["affine", "cancelling", "newton_p_right"])
def test_graph_substitutions_match_the_oracle_on_scaled_edges(
    monkeypatch, record_ratios, scalar_kinds, from_suffix, family
):
    # the ratio on an edge multiplies into the ratio of the node it reads, so
    # a node whose edges are all scaled joins the class of the node it copies
    images = IMAGE_FAMILIES[family]
    rng = random.Random(20121)
    scalars = record_ratios(poly, "_word_block_morphism")
    kinds, merged = set(), 0
    for _ in range(10):
        graph = _random_graph(rng, from_suffix)
        expected = [_substitute_oracle(p, images) for p in _expand_graph(graph)]
        scalars.clear()
        got = list(_graph_substitutions(graph, images))
        assert got == expected
        assert len({id(image._terms) for image in got}) == len(got)
        kinds |= scalar_kinds(scalars)
        if family == "newton_p_right":
            # no image is zero, so one product per edge of each class
            products = len(scalars)
            assert products == _class_edges(graph)
            merged += sum(len(node) - 1 for node in graph[1]) - products
    assert kinds == {"negative", "integer", "fraction"}
    assert family != "newton_p_right" or merged > 0


@pytest.mark.parametrize("from_suffix", [False, True])
def test_pass_one_finds_the_graph_of_the_expansion(from_suffix):
    # evaluating a graph and evaluating its expansion, which pass 1 turns back
    # into a graph, give the same images
    images = IMAGE_FAMILIES["affine"]
    rng = random.Random(20122)
    for _ in range(10):
        graph = _random_graph(rng, from_suffix)
        expansion = _expand_graph(graph)
        assert list(_graph_substitutions(graph, images)) == list(_substitutions(expansion, images))
        assert list(_graph_substitutions(graph, NCPoly.generator)) == expansion


def test_node_denominator_is_the_lcm_of_its_edges():
    # over dense blocks, pass 2 fixes a node's denominator before its
    # products: here the lcm of its constant's 7, 2 * 4 * 1 on the first
    # edge and 3 * 1 * 6 on the second; an edge into a zero image adds no
    # product and no factor.  The pair form fixes no denominator: each
    # product reduces its own sums
    letters = {1: {(1,): (1, 2)}, 2: {(2,): (1, 3), (): (1, 1)}}
    image, combine, _ = poly._word_block_morphism(lambda k: _k.to_word_blocks(letters[k]))
    first = {(3,): (1, 4), (): (3, 2)}
    second = {(1,): (2, 1)}
    factors = [
        (image(1), _k.to_word_blocks(first), (1, 1)),
        (image(1), ({}, 11), (1, 13)),
        (image(2), _k.to_word_blocks(second), (-5, 6)),
    ]
    blocks, den = combine((1, 7), factors)
    assert den == 504 == lcm(7, 2 * 4, 3 * 6)
    assert all(type(value) is int for block in blocks.values() for value in block)
    assert all(any(block) for block in blocks.values())
    word = NCPoly._raw
    expected = (
        NCPoly.scalar(Fraction(1, 7))
        + word(letters[1]) * word(first)
        + (word(letters[2]) * word(second)).scale(Fraction(-5, 6))
    )
    assert NCPoly._from_blocks((blocks, den)) == expected


@pytest.mark.parametrize("graph, letter", [(_z_of_u_graph, u_of_z), (_u_of_z_graph, z_of_u)])
def test_round_trips_yield_canonical_maps(graph, letter):
    # each round trip cancels to Z_n, so pass 2 forms its roots over
    # denominators far above the reduced ones; every yielded map is
    # canonical: lowest terms, den >= 1 and no zero
    images = {k: letter(k, max_degree=12) for k in range(1, 13)}
    raw = list(poly._block_substitutions(graph(12), lambda k: _k.to_word_blocks(images[k]._terms)))
    assert max(den for _, den in raw) > 1
    for n, (p, image) in enumerate(zip(_graph_substitutions(graph(12), images), raw), 1):
        assert list(image[0]) == [n]
        for got in (p, NCPoly._from_blocks(image)):
            assert got == NCPoly.generator(n)
            assert all(num and den >= 1 and gcd(num, den) == 1 for num, den in got._terms.values())


# products of the graph path over n <= 12, with no word walked: the same as
# pass 1 takes on the expanded maps (test_shared_substitution_products_count)
GRAPH_SUBSTITUTIONS = {
    "z_in_pprime under P'": (_z_in_pprime_graph, newton_p_right, 78),
    "z_of_u under u_of_z": (_z_of_u_graph, u_of_z, 353),
    "u_of_z under z_of_u": (_u_of_z_graph, z_of_u, 353),
}


@pytest.mark.parametrize("name", sorted(GRAPH_SUBSTITUTIONS))
def test_graph_substitutions_products_count(monkeypatch, name):
    graph, letter_image, products = GRAPH_SUBSTITUTIONS[name]
    images = {k: letter_image(k, max_degree=12) for k in range(1, 13)}
    roots = list(_graph_substitutions(graph(12), NCPoly.generator))
    expected = list(_substitutions(roots, images))
    calls = _count_calls(monkeypatch, "mul_word_blocks_into")

    def no_walk(roots):
        raise AssertionError("the graph path walked the words")

    monkeypatch.setattr(poly, "_quotient_graph", no_walk)
    got = list(_graph_substitutions(graph(12), images))
    assert len(calls) == products
    assert got == expected
    if name.startswith("z_in_pprime"):
        assert got == [NCPoly.generator(n) for n in range(1, 13)]
