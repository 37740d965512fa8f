"""No float may reach a coefficient: the package source has no float literal and no float() call."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "nsymm").glob("*.py"))


def float_uses(path):
    """(line, what) of every float or complex literal and every float()/complex() call."""
    uses = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            uses.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("float", "complex"):
            uses.append((node.lineno, f"{node.func.id}() call"))
    return uses


def test_every_module_is_scanned():
    assert {"hsops.py", "poly.py", "serialize.py", "_core_py.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_float_in_source(path):
    assert float_uses(path) == []


def test_scanner_finds_floats(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("x = 0.5\ny = float(3)\nz = 2j\nw = 7\n", encoding="utf-8")
    assert [line for line, _ in float_uses(sample)] == [1, 2, 3]
