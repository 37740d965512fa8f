"""Text rendering and JSON-able data forms for every documented schema.

Polynomials serialize as {"basis": tag, "terms": [{"word": [...],
"coeff": {"num": "...", "den": "..."}}]} with terms in the term order
(weight, length, lex); numerators and denominators travel as decimal
strings so round-trips are bit-exact.  Tensors carry left_word and
right_word instead; one codec serves both, over the fields of the key,
and nsymm.reports defines the term record that it and the witnesses write.
Test algebras and map families write each coordinate as an exact rational
string ("-3/2", "0"); both codecs read and write (num, den) term maps, and
Fraction appears only in text rendering.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .hsops import LinMap, TestAlgebra
from .poly import NCPoly, Tensor2
from .qsymm import QSPoly
from .reports import _POLY_FIELDS, _TENSOR_FIELDS, _term_record

BASIS_PREFIX = {"Z": "Z", "U": "U", "Pprime": "P'"}
KNOWN_BASES = ("Z", "U", "Pprime", "M")


class FormatError(ValueError):
    """Input data does not match a documented schema."""


def _check_basis(basis: str) -> str:
    if basis not in KNOWN_BASES:
        raise FormatError(f"unknown basis tag {basis!r}; expected one of {KNOWN_BASES}")
    return basis


# ---------------------------------------------------------------------------
# text rendering


def render_word(word, basis: str = "Z") -> str | None:
    """One monomial, or None for the empty word of a letter basis."""
    _check_basis(basis)
    if basis == "M":
        return f"M({','.join(str(p) for p in word)})" if word else None
    if not word:
        return None
    prefix = BASIS_PREFIX[basis]
    return "·".join(f"{prefix}{p}" for p in word)


def _coefficient_chunk(coefficient: Fraction, body: str | None) -> str:
    a = abs(coefficient)
    if body is None:
        return str(a)
    if a == 1:
        return body
    if a.denominator == 1:
        return f"{a}·{body}"
    return f"({a})·{body}"


def _join_signed(chunks) -> str:
    out = []
    for negative, chunk in chunks:
        if not out:
            out.append(f"-{chunk}" if negative else chunk)
        else:
            out.append(f" - {chunk}" if negative else f" + {chunk}")
    return "".join(out)


def _render(t, basis: str, body) -> str:
    _check_basis(basis)
    if not t:
        return "0"
    return _join_signed(
        (coefficient < 0, _coefficient_chunk(coefficient, body(key, basis)))
        for key, coefficient in t.items()
    )


def _tensor_body(key, basis: str) -> str:
    return "⊗".join(render_word(word, basis) or "1" for word in key)


def render_poly(p, basis: str = "Z") -> str:
    return _render(p, basis, render_word)


def render_tensor(t: Tensor2, basis: str = "Z") -> str:
    return _render(t, basis, _tensor_body)


# ---------------------------------------------------------------------------
# polynomials and tensors as data


def _coeff_from_data(data, path: str) -> tuple[int, int]:
    if not isinstance(data, dict) or set(data) != {"num", "den"}:
        raise FormatError(f"{path}: expected a {{num, den}} object")
    try:
        num = int(str(data["num"]), 10)
        den = int(str(data["den"]), 10)
    except ValueError as exc:
        raise FormatError(f"{path}: not a decimal integer: {exc}") from None
    if den < 1:
        raise FormatError(f"{path}: denominator must be >= 1, got {den}")
    return num, den


def _word_from_data(data, path: str) -> tuple:
    if not isinstance(data, list) or not all(type(p) is int and p >= 1 for p in data):
        raise FormatError(f"{path}: expected a list of integers >= 1")
    return tuple(data)


def _terms_to_data(t, basis: str, fields) -> dict:
    _check_basis(basis)
    return {"basis": basis, "terms": [_term_record(fields, k, t._terms[k]) for k in t.support()]}


def _terms_from_data(data, fields):
    """Parse {basis, terms} into {key: (num, den)}, not yet normalized; returns (dict, basis)."""
    if not isinstance(data, dict) or "basis" not in data or "terms" not in data:
        raise FormatError("$: expected an object with 'basis' and 'terms'")
    basis = _check_basis(data["basis"])
    if not isinstance(data["terms"], list):
        raise FormatError("$.terms: expected a list")
    wanted = {*fields, "coeff"}
    named = ", ".join(repr(field) for field in fields)
    terms = {}
    for t, record in enumerate(data["terms"]):
        path = f"$.terms[{t}]"
        if not isinstance(record, dict) or not wanted <= set(record):
            raise FormatError(f"{path}: expected an object with {named} and 'coeff'")
        words = tuple(_word_from_data(record[field], f"{path}.{field}") for field in fields)
        key = words[0] if len(fields) == 1 else words
        if key in terms:
            shown = ", ".join(f"{field} {list(word)}" for field, word in zip(fields, words))
            raise FormatError(f"{path}: duplicate {shown}")
        terms[key] = _coeff_from_data(record["coeff"], f"{path}.coeff")
    return terms, basis


def poly_to_data(p, basis: str) -> dict:
    return _terms_to_data(p, basis, _POLY_FIELDS)


def poly_from_data(data):
    """Rebuild a polynomial, a QSPoly for the "M" basis; returns (poly, basis_tag)."""
    terms, basis = _terms_from_data(data, _POLY_FIELDS)
    return (QSPoly if basis == "M" else NCPoly)(terms), basis


def tensor_to_data(t: Tensor2, basis: str) -> dict:
    return _terms_to_data(t, basis, _TENSOR_FIELDS)


def tensor_from_data(data):
    terms, basis = _terms_from_data(data, _TENSOR_FIELDS)
    return Tensor2(terms), basis


# ---------------------------------------------------------------------------
# test algebras and map families as data


@lru_cache(maxsize=4096)
def _parse_rational(text: str) -> tuple[int, int]:
    # a family file repeats a few strings ("0", "1") thousands of times;
    # a failed parse raises and is not cached
    return Fraction(text).as_integer_ratio()


def _vector_data(terms, dim: int) -> list[str]:
    out = ["0"] * dim
    for k, (num, den) in terms.items():
        out[k] = str(num) if den == 1 else f"{num}/{den}"  # the bytes of str(Fraction)
    return out


def _vector_from_data(data, dim: int, path: str) -> dict:
    if not isinstance(data, list) or len(data) != dim:
        raise FormatError(f"{path}: expected a list of {dim} rational strings")
    terms = {}
    for k, text in enumerate(data):
        if not isinstance(text, str):
            raise FormatError(f"{path}[{k}]: scalars must be exact rational strings like '-3/2'")
        try:
            pair = _parse_rational(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"{path}[{k}]: {exc}") from None
        if pair[0]:
            terms[k] = pair
    return terms


def algebra_to_data(algebra: TestAlgebra) -> dict:
    dim = algebra.dim
    constants = [
        [a, b, _vector_data(prod, dim)] for a, row in enumerate(algebra._table) for b, prod in row.items()
    ]
    return {
        "labels": list(algebra.labels),
        "unit": _vector_data(algebra._unit, dim),
        "structure_constants": constants,
    }


def algebra_from_data(data) -> TestAlgebra:
    if not isinstance(data, dict) or not {"labels", "unit", "structure_constants"} <= set(data):
        raise FormatError("$.algebra: expected labels, unit, and structure_constants")
    labels = data["labels"]
    if not isinstance(labels, list) or not labels or not all(isinstance(l, str) for l in labels):
        raise FormatError("$.algebra.labels: expected a nonempty list of strings")
    first = {}
    for k, label in enumerate(labels):
        if label in first:
            raise FormatError(f"$.algebra.labels[{k}]: label {label!r} repeats labels[{first[label]}]")
        first[label] = k
    dim = len(labels)
    unit = _vector_from_data(data["unit"], dim, "$.algebra.unit")
    products = {}
    if not isinstance(data["structure_constants"], list):
        raise FormatError("$.algebra.structure_constants: expected a list")
    for t, entry in enumerate(data["structure_constants"]):
        path = f"$.algebra.structure_constants[{t}]"
        if not (isinstance(entry, list) and len(entry) == 3):
            raise FormatError(f"{path}: expected [i, j, vector]")
        i, j, vec = entry
        if not (type(i) is int and type(j) is int and 0 <= i < dim and 0 <= j < dim):
            raise FormatError(f"{path}: basis indices out of range")
        if (i, j) in products:
            raise FormatError(f"{path}: duplicate product entry ({i}, {j})")
        products[(i, j)] = _vector_from_data(vec, dim, f"{path}[2]")
    try:
        return TestAlgebra._raw(labels, unit, products)
    except ValueError as exc:
        raise FormatError(f"$.algebra: {exc}") from None


def _matrix_data(linmap: LinMap) -> dict:
    return {"columns": [_vector_data(col, linmap.dim) for col in linmap._columns]}


def _matrix_from_data(data, dim: int, path: str) -> LinMap:
    if not isinstance(data, dict) or "columns" not in data:
        raise FormatError(f"{path}: expected an object with 'columns'")
    cols = data["columns"]
    if not isinstance(cols, list) or len(cols) != dim:
        raise FormatError(f"{path}.columns: expected {dim} columns")
    return LinMap._raw(
        _vector_from_data(col, dim, f"{path}.columns[{k}]") for k, col in enumerate(cols)
    )


def family_to_data(algebra: TestAlgebra, maps) -> dict:
    return {"algebra": algebra_to_data(algebra), "maps": [_matrix_data(m) for m in maps]}


def derivations_to_data(algebra: TestAlgebra, maps) -> dict:
    return {"algebra": algebra_to_data(algebra), "derivations": [_matrix_data(m) for m in maps]}


def _algebra_and_matrices(data, key: str):
    if not isinstance(data, dict) or "algebra" not in data or key not in data:
        raise FormatError(f"$: expected an object with 'algebra' and {key!r}")
    algebra = algebra_from_data(data["algebra"])
    if not isinstance(data[key], list):
        raise FormatError(f"$.{key}: expected a list of matrices")
    maps = tuple(
        _matrix_from_data(m, algebra.dim, f"$.{key}[{t}]") for t, m in enumerate(data[key])
    )
    return algebra, maps


def family_from_data(data):
    """Parse {algebra, maps}; returns (TestAlgebra, tuple[LinMap]) unvalidated."""
    return _algebra_and_matrices(data, "maps")


def derivations_from_data(data):
    """Parse {algebra, derivations}; returns (TestAlgebra, tuple[LinMap]) unvalidated."""
    return _algebra_and_matrices(data, "derivations")
