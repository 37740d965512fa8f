"""The suites' reports, pinned: which laws they check, that a rerun gives the
same report, and the exact record of each kind of failure."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from nsymm import NCPoly, QSPoly, Tensor2, explog, hopf, poly, qsymm, suites
from nsymm import _core_py as _k
from nsymm.hopf import HopfFamily
from nsymm.poly import _graph_substitutions
from nsymm.suites import run_suite
from nsymm.words import compositions_of

LAWS = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "laws.json").read_text())
SUITE_NAMES = sorted(LAWS)


def records(report):
    """The report's check records without their timings."""
    return [
        {key: value for key, value in record.items() if key != "elapsed_us"}
        for record in report.to_data()["checks"]
    ]


def untimed(report):
    data = report.to_data()
    data["checks"] = records(report)
    return data


@pytest.mark.parametrize("degree", [5, 6])
@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_suite_checks_the_recorded_laws(suite, degree):
    expected = {(law, d) for law, d in LAWS[suite][str(degree)]}
    report = run_suite(suite, degree)
    assert {(check.law, check.degree) for check in report.checks} == expected
    assert report.passed


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_suite_reruns_give_identical_reports(suite):
    first = untimed(run_suite(suite, 6))
    second = untimed(run_suite(suite, 6))
    assert first == second


def failure_records(monkeypatch, suite, degree, target, name, fake):
    """Run a suite clean, then with ``target.name`` replaced by ``fake(real)``.

    Returns the failing records; every other record must equal its clean
    counterpart, so the checks after a failure still run.
    """
    clean = records(run_suite(suite, degree))
    monkeypatch.setattr(target, name, fake(getattr(target, name)))
    patched = records(run_suite(suite, degree))
    assert len(patched) == len(clean)
    failing = []
    for before, after in zip(clean, patched):
        assert (before["law"], before["degree"]) == (after["law"], after["degree"])
        if not after["pass"]:
            failing.append(after)
        else:
            assert after == before
    return failing


def coeff(num, den=1):
    return {"num": str(num), "den": str(den)}


def _plus(image, extra):
    """Dense word blocks (blocks, den) plus an NCPoly, as dense word blocks."""
    return _k.to_word_blocks((NCPoly._from_blocks(image) + extra)._terms)


def test_poly_defect_record(monkeypatch):
    def fake(real):
        def _explicit_blocks(n, from_suffix=False):
            # the closed form, in dense blocks, with 3/2 (2, 1) added at degree 3
            image = real(n, from_suffix)
            return _plus(image, NCPoly.word((2, 1), "3/2")) if n == 3 else image

        return _explicit_blocks

    failing = failure_records(monkeypatch, "newton-consistency", 5, suites, "_explicit_blocks", fake)
    assert failing == [
        {
            "degree": 3,
            "law": "closed form equals left recursion",
            "pass": False,
            "witness": {"word": [2, 1], "coeff": coeff(3, 2)},
        }
    ]


def test_substitution_defect_record(monkeypatch):
    def fake(real):
        def _block_substitutions(graph, letter_image):
            images = real(graph, letter_image)
            if letter_image is poly._generator_blocks:
                return images
            # the right primitives substituted back: -1/3 (2, 2) added at degree 4
            extra = NCPoly.word((2, 2), "-1/3")
            return (
                _plus(image, extra) if n == 4 else image for n, image in enumerate(images, 1)
            )

        return _block_substitutions

    failing = failure_records(
        monkeypatch, "newton-consistency", 5, suites, "_block_substitutions", fake
    )
    assert failing == [
        {
            "degree": 4,
            "law": "substituting the primitives back recovers the generator",
            "pass": False,
            "witness": {"word": [2, 2], "coeff": coeff(-1, 3)},
        }
    ]


def test_reversal_defect_record(monkeypatch):
    def fake(real):
        def reverse_word_blocks(blocks):
            # the reversed left primitive, over its denominator 1: 2 (1, 3)
            # added at degree 4
            out = real(blocks)
            if 4 in out:
                out[4][compositions_of(4).index((1, 3))] += 2
            return out

        return reverse_word_blocks

    failing = failure_records(
        monkeypatch, "newton-consistency", 5, _k, "reverse_word_blocks", fake
    )
    assert failing == [
        {
            "degree": 4,
            "law": "word reversal swaps left and right primitives",
            "pass": False,
            "witness": {"word": [1, 3], "coeff": coeff(2)},
        }
    ]


def test_leading_term_check_record(monkeypatch):
    def fake(real):
        def _leading_term_defect(p, n):
            # P'_3 with its (3) lowered by 1, and P'_5 with a constant term
            blocks, den = p
            if n == 3:
                blocks = {**blocks, 3: blocks[3][:-1] + [blocks[3][-1] - den]}
            if n == 5:
                blocks = {**blocks, 0: [den]}
            return real((blocks, den), n)

        return _leading_term_defect

    failing = failure_records(
        monkeypatch, "newton-consistency", 5, suites, "_leading_term_defect", fake
    )
    assert failing == [
        {"degree": n, "law": "right primitive is n*Z_n modulo longer words", "pass": False}
        for n in (3, 5)
    ]


def test_iso_poly_defect_record(monkeypatch):
    def fake(real):
        def _block_substitutions(graph, letter_image):
            # only the Z->U->Z round trip of degree 3 starts from z_of_u(3); the
            # identity substitution expands the graph's roots; iso reads the
            # round trips as dense blocks (blocks, den)
            polys = _graph_substitutions(graph, NCPoly.generator)
            for p, image in zip(polys, real(graph, letter_image)):
                extra = NCPoly.word((1, 1, 1), -2) if p == explog.z_of_u(3) else NCPoly.zero()
                yield _k.to_word_blocks((NCPoly._from_blocks(image) + extra)._terms)

        return _block_substitutions

    failing = failure_records(monkeypatch, "iso", 5, explog, "_block_substitutions", fake)
    assert failing == [
        {
            "degree": 3,
            "law": "round-trip Z->U->Z",
            "pass": False,
            "witness": {"word": [1, 1, 1], "coeff": coeff(-2)},
        }
    ]


def test_tensor_defect_record(monkeypatch):
    def fake(real):
        def _primitive_block_residue(p, delta):
            # p and delta are dense blocks; p is homogeneous
            defect = real(p, delta)
            if list(p[0]) == [4]:
                defect = defect + Tensor2.outer(NCPoly.word((2,)), NCPoly.word((1,)))
            return defect

        return _primitive_block_residue

    failing = failure_records(
        monkeypatch, "primitivity", 5, suites, "_primitive_block_residue", fake
    )
    witness = {"left_word": [2], "right_word": [1], "coeff": coeff(1)}
    assert failing == [
        {
            "degree": 4,
            "law": f"{side} Newton primitive is primitive",
            "pass": False,
            "witness": witness,
        }
        for side in ("left", "right")
    ]


def test_iso_tensor_defect_record(monkeypatch):
    def fake(real):
        def _graph_coproducts(graph, family):
            # iso reads the coproducts as dense blocks (blocks, den)
            polys = _graph_substitutions(graph, NCPoly.generator)
            for p, out in zip(polys, real(graph, family)):
                if p.degree == 3:
                    extra = Tensor2.outer(NCPoly.word((1,)), NCPoly.word((1, 1), "1/4"))
                    out = _k.to_tensor_blocks((Tensor2._from_blocks(out) + extra)._terms)
                yield out

        return _graph_coproducts

    failing = failure_records(monkeypatch, "iso", 5, explog, "_graph_coproducts", fake)
    assert failing == [
        {
            "degree": 3,
            "law": "coalgebra morphism",
            "pass": False,
            "witness": {"left_word": [1], "right_word": [1, 1], "coeff": coeff(1, 4)},
        }
    ]


def test_primitivity_runs_its_sides_in_turn_and_files_them_by_degree(monkeypatch):
    real = suites._graph_coproducts
    calls = []

    def _graph_coproducts(graph, family):
        side = "right" if graph[0] else "left"
        for n, delta in enumerate(real(graph, family), 1):
            calls.append((side, n))
            yield delta

    monkeypatch.setattr(suites, "_graph_coproducts", _graph_coproducts)
    report = run_suite("primitivity", 5)
    assert calls == [(side, n) for side in ("left", "right") for n in range(1, 6)]
    assert [(check.degree, check.law) for check in report.checks] == [
        (n, f"{side} Newton primitive is primitive")
        for n in range(1, 6)
        for side in ("left", "right")
    ]


def _perturbed(graph, rng):
    """The graph with one edge ratio or one constant, drawn by rng, raised by 1/7."""
    from_suffix, nodes, roots = graph
    nodes = list(nodes)
    k = rng.randrange(len(nodes))
    constant, *edges = nodes[k]
    if edges:
        e = rng.randrange(len(edges))
        letter, child, ratio = edges[e]
        edges[e] = (letter, child, _raised(ratio))
    else:
        constant = _raised(constant)
    nodes[k] = (constant, *edges)
    return from_suffix, nodes, roots


def _raised(pair):
    f = Fraction(*pair) + Fraction(1, 7)
    return (f.numerator, f.denominator)


def _expansion(graph):
    return list(_graph_substitutions(graph, NCPoly.generator))


def graph_and_term_map_records(monkeypatch, suite, degree, module, builder, paths, seed):
    """The records of a suite run on a perturbed graph, on its graph path and on its term maps.

    ``module.builder`` is made to return the graph of degree ``degree``
    with one seeded change; the second run replaces each graph entry
    point named in ``paths`` by the term-map path on that graph's
    expansion.
    """
    perturbed = _perturbed(getattr(module, builder)(degree), random.Random(seed))
    monkeypatch.setattr(module, builder, lambda top: perturbed if top == degree else None)
    graph_path = records(run_suite(suite, degree))
    for name in paths:
        monkeypatch.setattr(module, name, TERM_MAP_PATHS[name])
    return graph_path, records(run_suite(suite, degree))


# the graph entry points as the term-map path on the graph's expansion, each
# image converted to the form that the entry point yields
TERM_MAP_PATHS = {
    "_graph_coproducts": lambda graph, family: (
        _k.to_tensor_blocks(delta._terms) for delta in hopf._coproducts(_expansion(graph), family)
    ),
    "_block_substitutions": lambda graph, letter_image: (
        _k.to_word_blocks(p._terms)
        for p in poly._substitutions(
            _expansion(graph), lambda k: NCPoly._from_blocks(letter_image(k))
        )
    ),
}

GRAPH_SUITES = {
    "primitivity, left": ("primitivity", suites, "_p_left_graph", ["_graph_coproducts"]),
    "primitivity, right": ("primitivity", suites, "_p_right_graph", ["_graph_coproducts"]),
    "newton-consistency": (
        "newton-consistency",
        suites,
        "_z_in_pprime_graph",
        ["_block_substitutions"],
    ),
    "newton-consistency, left": (
        "newton-consistency",
        suites,
        "_p_left_graph",
        ["_block_substitutions"],
    ),
    "newton-consistency, right": (
        "newton-consistency",
        suites,
        "_p_right_graph",
        ["_block_substitutions"],
    ),
    "iso, exp": ("iso", explog, "_z_of_u_graph", ["_block_substitutions", "_graph_coproducts"]),
    "iso, log": ("iso", explog, "_u_of_z_graph", ["_block_substitutions", "_graph_coproducts"]),
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", sorted(GRAPH_SUITES))
def test_perturbed_graph_records_equal_the_term_map_path(monkeypatch, name, seed):
    suite, module, builder, paths = GRAPH_SUITES[name]
    graph_path, term_map_path = graph_and_term_map_records(
        monkeypatch, suite, 6, module, builder, paths, seed
    )
    assert graph_path == term_map_path
    assert not all(record["pass"] for record in graph_path)


def test_coassociativity_triple_record(monkeypatch):
    def fake(real):
        def coassociativity_defect(p, family, max_degree=None):
            if family is HopfFamily.LIEHOPF and p.degree == 2:
                return {((1,), (), (2,)): Fraction(1)}
            return real(p, family, max_degree)

        return coassociativity_defect

    failing = failure_records(monkeypatch, "hopf-laws", 5, suites, "coassociativity_defect", fake)
    assert failing == [
        {
            "degree": 2,
            "law": "coassociativity on a generator [liehopf]",
            "pass": False,
            "witness": {"triple": [[1], [], [2]]},
        }
    ]


def test_counit_defect_record(monkeypatch):
    def fake(real):
        def counit_law_defects(p, family, max_degree=None):
            left, right = real(p, family, max_degree)
            if family is HopfFamily.NSYMM and p.degree == 3:
                return left, right + NCPoly.word((2,))
            if family is HopfFamily.LIEHOPF and p.degree == 1:
                return left + NCPoly.word((1,)), right + NCPoly.word((2,))
            return left, right

        return counit_law_defects

    failing = failure_records(monkeypatch, "hopf-laws", 5, suites, "counit_law_defects", fake)
    assert failing == [
        {
            "degree": 3,
            "law": "counit laws on a generator [nsymm]",
            "pass": False,
            "witness": {"word": [2], "coeff": coeff(1)},
        },
        {
            "degree": 1,
            "law": "counit laws on a generator [liehopf]",
            "pass": False,
            "witness": {"word": [1], "coeff": coeff(1)},
        },
    ]


def test_boolean_check_record(monkeypatch):
    failing = failure_records(
        monkeypatch,
        "newton-consistency",
        5,
        _k,
        "blocks_integral",
        lambda real: lambda blocks, den: True,
    )
    assert failing == [
        {"degree": n, "law": "generator expansion needs denominators", "pass": False}
        for n in range(2, 6)
    ]


def test_qsymm_pair_record(monkeypatch):
    def fake(real):
        def last_parts(terms, top):
            # d_3 sends M_(3) to twice the unit: the law then fails for n >= 3
            images = real(terms, top)
            if top >= 3 and (3,) in terms:
                images[3] = (QSPoly._raw(images.get(3, {})) + QSPoly._raw({(): terms[(3,)]}))._terms
            return images

        return last_parts

    failing = failure_records(monkeypatch, "qsymm-hs", 5, qsymm, "_last_parts", fake)
    assert failing == [
        {
            "degree": n,
            "law": "convolution Leibniz law vs quasi-shuffle",
            "pass": False,
            "witness": {"n": n, "left": left, "right": right},
        }
        for n, left, right in ((3, [1], [2]), (4, [1], [3]), (5, [2], [3]))
    ]
