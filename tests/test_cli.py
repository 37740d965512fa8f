import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nsymm import (
    LinMap,
    TestAlgebra,
    free_word_algebra,
    inner_derivation,
    newton_p_explicit,
    taylor_hs,
    upper_triangular_algebra,
)
from nsymm import hsops
from nsymm import cli
from nsymm.cli import main
from nsymm.reports import Check, Report
from nsymm.suites import CEILINGS, SUITES
from nsymm.serialize import derivations_to_data, family_to_data, poly_from_data, poly_to_data


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_newton_z_in_p_golden(capsys):
    code, out, _ = run_cli(capsys, "newton", "2", "--variant", "z-in-p")
    assert code == 0
    assert out.strip() == "(1/2)·P'2 + (1/2)·P'1·P'1"


def test_newton_left_golden(capsys):
    code, out, _ = run_cli(capsys, "newton", "1", "--variant", "left")
    assert code == 0 and out.strip() == "Z1"


def test_newton_explicit_json(capsys):
    code, out, _ = run_cli(capsys, "newton", "3", "--variant", "explicit", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["basis"] == "Z"
    assert len(data["terms"]) == 4
    poly, _ = poly_from_data(data)
    assert poly.coeff((1, 1, 1)) == 1


def test_newton_deterministic(capsys):
    first = run_cli(capsys, "newton", "4", "--variant", "z-in-p-via-c", "--format", "json")
    second = run_cli(capsys, "newton", "4", "--variant", "z-in-p-via-c", "--format", "json")
    assert first == second


def test_newton_out_file(tmp_path, capsys):
    target = tmp_path / "p2.json"
    code, out, _ = run_cli(capsys, "newton", "2", "--format", "json", "--out", str(target))
    assert code == 0 and out == ""
    data = json.loads(target.read_text())
    assert data["terms"][0]["word"] == [2]


@pytest.mark.parametrize(
    "argv, data",
    [
        (["newton", "3", "--variant", "explicit"], lambda: poly_to_data(newton_p_explicit(3), "Z")),
        (["qsymm", "pairing", "2,1", "2,1"], lambda: {"value": {"num": "1", "den": "1"}}),
    ],
)
def test_json_output_bytes(tmp_path, capsys, argv, data):
    expected = json.dumps(data(), indent=2) + "\n"
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0 and out == expected
    target = tmp_path / "out.json"
    assert run_cli(capsys, *argv, "--format", "json", "--out", str(target))[:2] == (0, "")
    assert target.read_text(encoding="utf-8") == expected


# each request with the owner and names of its text and JSON builders; str()
# builds the text of a pairing, so only its JSON builder can be watched
OUTPUT_BUILDERS = {
    "newton": (["newton", "4", "--variant", "z-in-p"], cli, "render_poly", "poly_to_data"),
    "explog": (["explog", "3"], cli, "render_poly", "poly_to_data"),
    "verify": (["verify", "iso", "--max-degree", "3"], Report, "render", "to_data"),
    "qsymm shuffle": (["qsymm", "shuffle", "1,2", "2"], cli, "render_poly", "poly_to_data"),
    "qsymm deconcat": (["qsymm", "deconcat", "1,2"], cli, "render_tensor", "tensor_to_data"),
    "qsymm dn": (["qsymm", "dn", "2", "1,2"], cli, "render_poly", "poly_to_data"),
    "qsymm pairing": (["qsymm", "pairing", "2,1", "2,1"], cli, None, "_coeff_data"),
}


@pytest.mark.parametrize("output_format", ["text", "json"])
@pytest.mark.parametrize("request_name", sorted(OUTPUT_BUILDERS))
def test_only_the_requested_form_is_built(monkeypatch, capsys, request_name, output_format):
    argv, owner, text_builder, data_builder = OUTPUT_BUILDERS[request_name]
    calls = []
    for name in filter(None, (text_builder, data_builder)):
        real = getattr(owner, name)

        def spy(*args, _name=name, _real=real):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(owner, name, spy)
    code, out, _ = run_cli(capsys, *argv, "--format", output_format)
    assert code == 0 and out
    built = text_builder if output_format == "text" else data_builder
    assert calls == ([built] if built else [])


def test_newton_rejects_out_of_range(capsys):
    code, _, err = run_cli(capsys, "newton", "12")
    assert code == 2
    assert "exceeds" in err
    code, _, _ = run_cli(capsys, "newton", "12", "--max-degree", "12")
    assert code == 0


def test_newton_rejects_zero():
    with pytest.raises(SystemExit) as exc:
        main(["newton", "0"])
    assert exc.value.code == 2


def test_explog(capsys):
    code, out, _ = run_cli(capsys, "explog", "2", "--direction", "u-of-z")
    assert code == 0 and out.strip() == "Z2 - (1/2)·Z1·Z1"
    code, out, _ = run_cli(capsys, "explog", "2", "--direction", "z-of-u")
    assert code == 0 and out.strip() == "U2 + (1/2)·U1·U1"


@pytest.mark.parametrize("suite", ["primitivity", "newton-consistency", "iso", "qsymm-hs", "hopf-laws"])
def test_verify_suites_pass(capsys, suite):
    code, out, _ = run_cli(capsys, "verify", suite, "--max-degree", "3")
    assert code == 0
    assert "all passed" in out


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "iso", "--max-degree", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["suite"] == "iso" and data["passed"] is True
    assert {c["law"] for c in data["checks"]} == {
        "round-trip Z->U->Z",
        "round-trip U->Z->U",
        "coalgebra morphism",
    }


def test_verify_rejects_bad_degree():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "primitivity", "--max-degree", "0"])
    assert exc.value.code == 2


@pytest.fixture()
def no_suite_runs(monkeypatch):
    """Fail fast instead of running a suite far above its ceiling."""

    def run_suite(name, max_degree):
        raise AssertionError(f"{name} ran at degree {max_degree}")

    monkeypatch.setattr(cli, "run_suite", run_suite)


def test_verify_rejects_degree_30(no_suite_runs, capsys):
    code, out, err = run_cli(capsys, "verify", "primitivity", "--max-degree", "30")
    assert code == 2 and out == ""
    assert "exceeds the suite's ceiling 17" in err


def test_verify_ceilings_cover_every_suite():
    assert set(CEILINGS) == set(SUITES)
    assert min(CEILINGS[s] for s in ("primitivity", "iso", "newton-consistency")) >= 12
    assert CEILINGS["qsymm-hs"] >= 13
    # iso's dense blocks hold its degree-16 coproducts under 100 MB,
    # primitivity's its degree-17 ones, and newton-consistency's its
    # degree-18 families
    assert CEILINGS["iso"] >= 16
    assert CEILINGS["primitivity"] >= 17
    assert CEILINGS["newton-consistency"] >= 18


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_verify_rejects_degree_above_ceiling(no_suite_runs, capsys, suite):
    ceiling = CEILINGS[suite]
    code, out, err = run_cli(capsys, "verify", suite, "--max-degree", str(ceiling + 1))
    assert code == 2 and out == ""
    assert err == (
        f"error: verify {suite}: --max-degree {ceiling + 1} exceeds the suite's ceiling {ceiling}\n"
    )


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_verify_accepts_degree_at_ceiling(monkeypatch, capsys, suite):
    calls = []

    def run_suite(name, max_degree):
        calls.append((name, max_degree))
        return Report(suite=name, max_degree=max_degree)

    monkeypatch.setattr(cli, "run_suite", run_suite)
    code, _, err = run_cli(capsys, "verify", suite, "--max-degree", str(CEILINGS[suite]))
    assert code == 0 and err == ""
    assert calls == [(suite, CEILINGS[suite])]


def test_verify_help_lists_the_ceilings(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    for suite, ceiling in CEILINGS.items():
        assert f"{suite} {ceiling}" in out


# One cheap request per capped command, so a missing ceiling fails fast.
CAPPED_REQUESTS = {
    "newton": ["newton", "1"],
    "explog": ["explog", "1"],
    "hs": ["hs", "validate", "FAMILY"],
    "qsymm": ["qsymm", "shuffle", "1", "1"],
}


def capped_request(command, tmp_path):
    """The command's CAPPED_REQUESTS argv, FAMILY a Taylor family file under tmp_path."""
    family = tmp_path / "family.json"
    fam = taylor_hs(3)
    family.write_text(json.dumps(family_to_data(fam.algebra, fam.maps)))
    return [str(family) if arg == "FAMILY" else arg for arg in CAPPED_REQUESTS[command]]


def test_command_ceilings_admit_the_default_bound():
    assert set(cli.COMMAND_CEILINGS) == set(CAPPED_REQUESTS)
    assert min(cli.COMMAND_CEILINGS.values()) >= cli.DEFAULT_MAX_DEGREE


@pytest.mark.parametrize("command", sorted(CAPPED_REQUESTS))
def test_command_rejects_degree_above_ceiling(tmp_path, capsys, command):
    ceiling = cli.COMMAND_CEILINGS[command]
    argv = capped_request(command, tmp_path)
    code, out, err = run_cli(capsys, *argv, "--max-degree", str(ceiling + 1))
    assert code == 2 and out == ""
    assert err == (
        f"error: {command}: --max-degree {ceiling + 1} exceeds the command's ceiling {ceiling}\n"
    )


@pytest.mark.parametrize("command", sorted(CAPPED_REQUESTS))
def test_command_accepts_degree_at_ceiling(tmp_path, capsys, command):
    ceiling = cli.COMMAND_CEILINGS[command]
    argv = capped_request(command, tmp_path)
    code, out, err = run_cli(capsys, *argv, "--max-degree", str(ceiling))
    assert code == 0 and out and err == ""


@pytest.mark.parametrize("command", sorted(CAPPED_REQUESTS))
def test_command_help_lists_its_ceiling(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    out = " ".join(capsys.readouterr().out.split())
    assert f"--max-degree is capped at {cli.COMMAND_CEILINGS[command]}" in out


def test_verify_rejects_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


# --- hs subcommand ----------------------------------------------------------


@pytest.fixture()
def taylor_file(tmp_path):
    fam = taylor_hs(6)
    path = tmp_path / "taylor6.json"
    path.write_text(json.dumps(family_to_data(fam.algebra, fam.maps)))
    return path


def test_hs_validate(taylor_file, capsys):
    code, out, _ = run_cli(capsys, "hs", "validate", str(taylor_file))
    assert code == 0
    assert "valid" in out


def test_hs_validate_rejects_invalid_family(taylor_file, tmp_path, capsys):
    data = json.loads(taylor_file.read_text())
    data["maps"][0]["columns"][1][0] = "7"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "hs", "validate", str(bad))
    assert code == 1
    assert "INVALID" in out


def test_hs_extract_and_rebuild(taylor_file, tmp_path, capsys):
    deltas = tmp_path / "deltas.json"
    code, _, _ = run_cli(capsys, "hs", "extract-delta", str(taylor_file), str(deltas))
    assert code == 0
    payload = json.loads(deltas.read_text())
    nonzero = [
        any(c != "0" for col in m["columns"] for c in col) for m in payload["derivations"]
    ]
    assert nonzero == [True, False, False, False, False, False]

    rebuilt = tmp_path / "rebuilt.json"
    code, _, _ = run_cli(capsys, "hs", "build-from-delta", str(deltas), str(rebuilt))
    assert code == 0
    assert json.loads(rebuilt.read_text()) == json.loads(taylor_file.read_text())


def test_hs_build_from_partial_then_validate(tmp_path, capsys):
    A = upper_triangular_algebra(3)
    derivs = (inner_derivation(A, {"E12": 1}), inner_derivation(A, {"E23": 1}))
    source = tmp_path / "derivs.json"
    source.write_text(json.dumps(derivations_to_data(A, derivs)))
    built = tmp_path / "family.json"
    assert run_cli(capsys, "hs", "build-from-partial", str(source), str(built))[0] == 0
    assert run_cli(capsys, "hs", "validate", str(built))[0] == 0


def test_hs_build_rejects_non_derivation(tmp_path, capsys):
    A = upper_triangular_algebra(2)
    source = tmp_path / "notder.json"
    source.write_text(json.dumps(derivations_to_data(A, (LinMap.identity(A.dim),))))
    code, _, err = run_cli(capsys, "hs", "build-from-delta", str(source), str(tmp_path / "out.json"))
    assert code == 1
    assert "not a derivation" in err


def test_hs_parse_error_is_line_anchored(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text('{"algebra": [,]}')
    code, _, err = run_cli(capsys, "hs", "validate", str(broken))
    assert code == 2
    assert "line 1" in err


def test_hs_missing_file(capsys):
    code, _, err = run_cli(capsys, "hs", "validate", "/nonexistent/f.json")
    assert code == 2


def test_hs_requires_output(taylor_file, capsys):
    code, _, err = run_cli(capsys, "hs", "extract-delta", str(taylor_file))
    assert code == 2
    assert "output" in err


def test_hs_validate_rejects_an_output_file(taylor_file, tmp_path, capsys):
    target = tmp_path / "verdict.json"
    code, out, err = run_cli(capsys, "hs", "validate", str(taylor_file), str(target))
    assert code == 2 and out == ""
    assert f"hs validate writes no OUT.json, got {str(target)!r}" in err
    assert not target.exists()


@pytest.mark.parametrize(
    "action", ["extract-delta", "extract-partial", "build-from-delta", "build-from-partial"]
)
def test_hs_writers_reject_out(taylor_file, tmp_path, capsys, action):
    target, other = tmp_path / "written.json", tmp_path / "other.json"
    code, out, err = run_cli(
        capsys, "hs", action, str(taylor_file), str(target), "--out", str(other)
    )
    assert code == 2 and out == ""
    assert err == f"error: hs {action} writes OUT.json; --out {str(other)!r} is not used\n"
    assert not target.exists() and not other.exists()


def test_hs_validate_writes_its_verdict_to_out(taylor_file, tmp_path, capsys):
    target = tmp_path / "verdict.json"
    argv = ["hs", "validate", str(taylor_file), "--format", "json", "--out", str(target)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (0, "", "")
    assert json.loads(target.read_text()) == {"kind": "family", "valid": True, "witness": None}


def test_hs_schema_error(tmp_path, capsys):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"algebra": {"labels": ["1"], "unit": ["1"]}, "maps": []}))
    code, _, err = run_cli(capsys, "hs", "validate", str(path))
    assert code == 2
    assert "structure_constants" in err


@pytest.fixture()
def taylor_deltas_file(tmp_path):
    fam = taylor_hs(6)
    path = tmp_path / "taylor6_deltas.json"
    path.write_text(json.dumps(derivations_to_data(fam.algebra, fam.maps[:1] * 6)))
    return path


@pytest.mark.parametrize(
    "action, source",
    [
        ("validate", "family"),
        ("validate", "derivations"),
        ("extract-delta", "family"),
        ("extract-partial", "family"),
        ("build-from-delta", "derivations"),
        ("build-from-partial", "derivations"),
    ],
)
def test_hs_actions_enforce_degree_limit(
    taylor_file, taylor_deltas_file, tmp_path, capsys, action, source
):
    path = taylor_file if source == "family" else taylor_deltas_file
    out_file = tmp_path / "out.json"
    argv = ["hs", action, str(path)] + ([] if action == "validate" else [str(out_file)])
    code, out, err = run_cli(capsys, *argv, "--max-degree", "3")
    assert code == 2 and out == ""
    assert "order 6 exceeds the degree limit 3" in err
    assert not out_file.exists()
    assert run_cli(capsys, *argv, "--max-degree", "6")[0] == 0


def test_hs_empty_sequence_within_any_limit(tmp_path, capsys):
    A = upper_triangular_algebra(2)
    for key, data in (
        ("maps", family_to_data(A, ())),
        ("derivations", derivations_to_data(A, ())),
    ):
        path = tmp_path / f"empty_{key}.json"
        path.write_text(json.dumps(data))
        code, out, _ = run_cli(capsys, "hs", "validate", str(path), "--max-degree", "1")
        assert code == 0 and "valid" in out


def test_hs_extract_checks_the_law_once_on_a_valid_family(taylor_file, tmp_path, capsys, monkeypatch):
    calls = []

    def counted(algebra, maps):
        calls.append(len(maps))
        return original(algebra, maps)

    original = hsops.hs_defect
    monkeypatch.setattr(hsops, "hs_defect", counted)
    monkeypatch.setattr(cli, "hs_defect", counted)
    code, _, err = run_cli(capsys, "hs", "extract-delta", str(taylor_file), str(tmp_path / "d.json"))
    assert code == 0 and err == ""
    assert calls == [6]


def test_hs_extract_names_the_witness_of_an_invalid_family(taylor_file, tmp_path, capsys):
    data = json.loads(taylor_file.read_text())
    data["maps"][0]["columns"][1][0] = "7"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "hs", "extract-partial", str(bad), str(tmp_path / "p.json"))
    assert code == 1 and out == ""
    assert err == (
        f"error: {bad}: input family fails the convolution law at n=1 on basis pair ('x', 'x')\n"
    )
    assert not (tmp_path / "p.json").exists()


def _square_zero_data(dim, key):
    """1 + N with N N = 0 in dimension dim, and one zero map: cheap to check at any size."""

    def e(t):
        return ["1" if s == t else "0" for s in range(dim)]

    constants = [[0, t, e(t)] for t in range(dim)] + [[t, 0, e(t)] for t in range(1, dim)]
    algebra = {"labels": ["1"] + [f"n{t}" for t in range(1, dim)], "unit": e(0), "structure_constants": constants}
    return {"algebra": algebra, key: [{"columns": [["0"] * dim for _ in range(dim)]}]}


HS_REQUESTS = [
    ("validate", "maps"),
    ("validate", "derivations"),
    ("extract-delta", "maps"),
    ("extract-partial", "maps"),
    ("build-from-delta", "derivations"),
    ("build-from-partial", "derivations"),
]


@pytest.mark.parametrize("action, key", HS_REQUESTS)
def test_hs_rejects_dimension_above_the_cap(tmp_path, capsys, monkeypatch, action, key):
    def no_law_check(*args):
        raise AssertionError("a law was checked above the cap")

    monkeypatch.setattr(TestAlgebra, "__post_init__", no_law_check)
    monkeypatch.setattr(hsops, "_law_defect", no_law_check)
    cap = cli.HS_MAX_DIM
    path = tmp_path / "big.json"
    path.write_text(json.dumps(_square_zero_data(cap + 1, key)))
    out_file = tmp_path / "out.json"
    argv = ["hs", action, str(path)] + ([] if action == "validate" else [str(out_file)])
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {path}: algebra dimension {cap + 1} exceeds the hs cap {cap}\n"
    assert not out_file.exists()


@pytest.mark.parametrize("action, key", [HS_REQUESTS[0], HS_REQUESTS[1], HS_REQUESTS[2]])
def test_hs_accepts_dimension_at_the_cap(tmp_path, capsys, action, key):
    path = tmp_path / "at-cap.json"
    path.write_text(json.dumps(_square_zero_data(cli.HS_MAX_DIM, key)))
    out_file = tmp_path / "out.json"
    argv = ["hs", action, str(path)] + ([] if action == "validate" else [str(out_file)])
    code, _, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""


# The algebras of the benchmark's cli-requests workload: dims 6, 7, 10, 15, 31.
CLI_REQUEST_ALGEBRAS = [
    lambda: upper_triangular_algebra(3),
    lambda: free_word_algebra(2),
    lambda: upper_triangular_algebra(4),
    lambda: free_word_algebra(3),
    lambda: free_word_algebra(4),
]


@pytest.mark.parametrize("make", CLI_REQUEST_ALGEBRAS, ids=["dim6", "dim7", "dim10", "dim15", "dim31"])
def test_hs_accepts_every_benchmark_request_size(tmp_path, capsys, make):
    A = make()
    d = inner_derivation(A, {A.labels[1]: 1, A.labels[-1]: "1/2"})
    for name, data in (("family", family_to_data(A, (d,))), ("derivations", derivations_to_data(A, (d, d)))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "hs", "validate", str(path))
        assert err == ""
        assert out.startswith(f"{name} ")  # a verdict, not a refusal


def test_hs_help_lists_the_dimension_cap(capsys):
    with pytest.raises(SystemExit):
        main(["hs", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    assert f"The algebra dimension is capped at {cli.HS_MAX_DIM}." in out


# --- qsymm subcommand -------------------------------------------------------


def test_qsymm_shuffle(capsys):
    code, out, _ = run_cli(capsys, "qsymm", "shuffle", "1", "1")
    assert code == 0 and out.strip() == "M(2) + 2·M(1,1)"


def test_qsymm_shuffle_unit(capsys):
    code, out, _ = run_cli(capsys, "qsymm", "shuffle", "e", "3,1")
    assert code == 0 and out.strip() == "M(3,1)"


def test_qsymm_deconcat(capsys):
    code, out, _ = run_cli(capsys, "qsymm", "deconcat", "2,1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["terms"]) == 3


def test_qsymm_dn(capsys):
    code, out, _ = run_cli(capsys, "qsymm", "dn", "2", "1,2")
    assert code == 0 and out.strip() == "M(1)"
    code, out, _ = run_cli(capsys, "qsymm", "dn", "1", "1,2")
    assert code == 0 and out.strip() == "0"


def test_qsymm_pairing(capsys):
    code, out, _ = run_cli(capsys, "qsymm", "pairing", "2,1", "2,1")
    assert code == 0 and out.strip() == "1"


def test_qsymm_bad_args(capsys):
    assert run_cli(capsys, "qsymm", "shuffle", "1")[0] == 2
    assert run_cli(capsys, "qsymm", "shuffle", "0", "1")[0] == 2
    assert run_cli(capsys, "qsymm", "shuffle", "5", "5")[0] == 2  # overflows default limit
    assert run_cli(capsys, "qsymm", "dn", "x", "1")[0] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("deconcat", "30"),
        ("dn", "1", "9,9"),
        ("pairing", "3,2", "1"),
        ("pairing", "1", "2,3"),
    ],
)
def test_qsymm_actions_enforce_degree_limit(capsys, argv):
    code, out, err = run_cli(capsys, "qsymm", *argv, "--max-degree", "4")
    assert code == 2 and out == ""
    assert "exceeds the degree limit 4" in err


def test_qsymm_actions_accept_weight_at_limit(capsys):
    assert run_cli(capsys, "qsymm", "deconcat", "2,2", "--max-degree", "4")[0] == 0
    assert run_cli(capsys, "qsymm", "dn", "1", "1,3", "--max-degree", "4")[0] == 0
    assert run_cli(capsys, "qsymm", "pairing", "4", "4", "--max-degree", "4")[0] == 0


# --- the cyclic collector ---------------------------------------------------


def _passing(name, max_degree):
    return Report(suite=name, max_degree=max_degree)


def _failing(name, max_degree):
    return Report(suite=name, max_degree=max_degree, checks=[Check("law", 1, False)])


def _usage_error(name, max_degree):
    raise cli.CliError("stub usage error")


def _broken_pipe(name, max_degree):
    raise BrokenPipeError


def _crash(name, max_degree):
    raise RuntimeError("stub crash")


# stub suite -> the exit code main returns, or the exception that leaves it
GC_EXITS = {
    "exit 0": (_passing, 0),
    "failing suite": (_failing, 1),
    "CliError": (_usage_error, 2),
    "BrokenPipeError": (_broken_pipe, 0),
    "unexpected exception": (_crash, RuntimeError),
}


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector_state(request):
    """Start the test with the collector in the given state; restore it after."""
    before = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if before else gc.disable)()


@pytest.mark.parametrize("exit_path", sorted(GC_EXITS))
def test_main_pauses_the_collector_and_restores_it(monkeypatch, capsys, collector_state, exit_path):
    stub, outcome = GC_EXITS[exit_path]
    seen = []

    def run_suite(name, max_degree):
        seen.append(gc.isenabled())
        return stub(name, max_degree)

    monkeypatch.setattr(cli, "run_suite", run_suite)
    argv = ["verify", "primitivity", "--max-degree", "3"]
    if isinstance(outcome, int):
        assert main(argv) == outcome
    else:
        with pytest.raises(outcome):
            main(argv)
    assert seen == [False]
    assert gc.isenabled() is collector_state


def test_main_rejected_by_argparse_leaves_the_collector_alone(collector_state, monkeypatch, capsys):
    paused = []
    monkeypatch.setattr(gc, "disable", lambda: paused.append(True))
    with pytest.raises(SystemExit) as exc:
        main(["verify", "no-such-suite"])
    assert exc.value.code == 2
    assert paused == []
    assert gc.isenabled() is collector_state


# --- installed entry point --------------------------------------------------


def test_console_script_runs():
    result = subprocess.run(
        [sys.executable, "-m", "nsymm.cli", "newton", "2", "--variant", "z-in-p"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "(1/2)·P'2 + (1/2)·P'1·P'1"


def test_cli_import_loads_no_dataclasses():
    # every CLI request is a fresh process, so its import cost is paid each time
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, nsymm.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))",
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_benchmark_tracer_installs():
    # the benchmark's traced mode rebinds names across nsymm and reads its
    # caches; a change that removes one of them fails here, not in a traced run
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]))
    result = subprocess.run(
        [sys.executable, "-c", "import nsymm.cli; import tracer; tracer.install().read_caches()"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0, result.stderr
