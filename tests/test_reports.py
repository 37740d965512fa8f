import json

import pytest

from nsymm import NCPoly, Tensor2
from nsymm.cli import main
from nsymm.reports import Check, Report, poly_witness, tensor_witness


def failing_report():
    report = Report(suite="iso", max_degree=2)
    report.add(Check(law="round-trip Z->U->Z", degree=1, passed=True, elapsed_us=3))
    report.add(
        Check(
            law="coalgebra morphism",
            degree=2,
            passed=False,
            witness={"left_word": [1], "right_word": [1], "coeff": {"num": "1", "den": "2"}},
            elapsed_us=7,
        )
    )
    return report


def test_report_accessors():
    report = failing_report()
    assert not report.passed
    assert len(report.failures) == 1
    assert report.failures[0].degree == 2


def test_report_render_carries_witness():
    text = failing_report().render()
    assert "[FAIL]" in text and "[PASS]" in text
    assert "witness=" in text
    assert "1 FAILED" in text


def test_report_data_shape():
    data = failing_report().to_data()
    assert data["passed"] is False
    assert "witness" not in data["checks"][0]
    assert data["checks"][1]["witness"]["left_word"] == [1]
    json.dumps(data)  # must be JSON-able as-is


def test_witness_formatters():
    p = NCPoly({(2, 1): "-3/4"})
    assert poly_witness(p) == {"word": [2, 1], "coeff": {"num": "-3", "den": "4"}}
    t = Tensor2({((1,), ()): 5})
    assert tensor_witness(t) == {
        "left_word": [1],
        "right_word": [],
        "coeff": {"num": "5", "den": "1"},
    }


def test_cli_verify_exits_1_on_failing_report(monkeypatch, capsys):
    import nsymm.cli as cli

    monkeypatch.setitem(cli.__dict__, "run_suite", lambda name, k: failing_report())
    code = main(["verify", "iso", "--max-degree", "2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def test_check_is_immutable_and_compared_by_value():
    check = Check("law", 3, True)
    assert check == Check(law="law", degree=3, passed=True, witness=None, elapsed_us=0)
    assert check != Check("law", 3, True, elapsed_us=1)
    assert hash(check) == hash(Check("law", 3, True))
    assert check.witness is None and check.elapsed_us == 0
    with pytest.raises(AttributeError):
        check.passed = False
    with pytest.raises(AttributeError):
        del check.law
    with pytest.raises(AttributeError):
        check.extra = 1
    assert "degree=3" in repr(check)


def test_report_defaults_are_fresh_and_compared_by_value():
    first, second = Report("iso", 2), Report(suite="iso", max_degree=2)
    assert first == second
    first.add(Check("law", 1, True))
    first.meta["k"] = 1
    assert second.checks == [] and second.meta == {}
    assert first != second
    assert failing_report() == failing_report()
    assert failing_report() != Report("iso", 2)
    with pytest.raises(TypeError):
        hash(first)
    with pytest.raises(AttributeError):
        first.extra = 1
