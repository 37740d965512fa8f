"""The suites' reports, pinned: which laws they check, that a rerun gives the
same report, and the exact record of each kind of failure."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from nsymm import NCPoly, QSPoly, Tensor2, explog, qsymm, suites
from nsymm.hopf import HopfFamily
from nsymm.suites import run_suite

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


def test_poly_defect_record(monkeypatch):
    def fake(real):
        def newton_p_explicit(n, max_degree=None):
            extra = NCPoly.word((2, 1), "3/2") if n == 3 else NCPoly.zero()
            return real(n, max_degree) + extra

        return newton_p_explicit

    failing = failure_records(
        monkeypatch, "newton-consistency", 5, suites, "newton_p_explicit", fake
    )
    assert failing == [
        {
            "degree": 3,
            "law": "closed form equals left recursion",
            "pass": False,
            "witness": {"word": [2, 1], "coeff": coeff(3, 2)},
        }
    ]


def test_iso_poly_defect_record(monkeypatch):
    def fake(real):
        def _substitutions(polys, images):
            # only the Z->U->Z round trip of degree 3 starts from z_of_u(3)
            polys = list(polys)
            for p, image in zip(polys, real(polys, images)):
                extra = NCPoly.word((1, 1, 1), -2) if p == explog.z_of_u(3) else NCPoly.zero()
                yield image + extra

        return _substitutions

    failing = failure_records(monkeypatch, "iso", 5, explog, "_substitutions", fake)
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
        def _primitive_residue(p, delta):
            defect = real(p, delta)
            if p.degree == 4:
                defect = defect + Tensor2.outer(NCPoly.word((2,)), NCPoly.word((1,)))
            return defect

        return _primitive_residue

    failing = failure_records(monkeypatch, "primitivity", 5, suites, "_primitive_residue", fake)
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
        def _coproducts(polys, family, max_degree=None):
            polys = list(polys)
            for p, out in zip(polys, real(polys, family, max_degree)):
                if p.degree == 3:
                    out = out + Tensor2.outer(NCPoly.word((1,)), NCPoly.word((1, 1), "1/4"))
                yield out

        return _coproducts

    failing = failure_records(monkeypatch, "iso", 5, explog, "_coproducts", fake)
    assert failing == [
        {
            "degree": 3,
            "law": "coalgebra morphism",
            "pass": False,
            "witness": {"left_word": [1], "right_word": [1, 1], "coeff": coeff(1, 4)},
        }
    ]


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
        monkeypatch, "newton-consistency", 5, NCPoly, "is_integral", lambda real: lambda self: True
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
