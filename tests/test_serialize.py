import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nsymm import (
    LinMap,
    NCPoly,
    QSPoly,
    Tensor2,
    TestAlgebra,
    coproduct,
    free_hs_extend,
    free_word_algebra,
    HopfFamily,
    inner_derivation,
    newton_p_left,
    taylor_hs,
    truncated_polynomial_algebra,
    upper_triangular_algebra,
    z_in_pprime,
)
from nsymm.reports import _POLY_FIELDS, _TENSOR_FIELDS
from nsymm.serialize import (
    FormatError,
    algebra_from_data,
    algebra_to_data,
    derivations_from_data,
    derivations_to_data,
    family_from_data,
    family_to_data,
    poly_from_data,
    poly_to_data,
    render_poly,
    render_tensor,
    tensor_from_data,
    tensor_to_data,
)


# --- golden text ------------------------------------------------------------


def test_render_golden_pprime():
    assert render_poly(z_in_pprime(2), "Pprime") == "(1/2)·P'2 + (1/2)·P'1·P'1"


def test_render_golden_newton():
    assert render_poly(newton_p_left(1), "Z") == "Z1"
    assert render_poly(newton_p_left(2), "Z") == "2·Z2 - Z1·Z1"
    assert (
        render_poly(newton_p_left(3), "Z")
        == "3·Z3 - 2·Z1·Z2 - Z2·Z1 + Z1·Z1·Z1"
    )


def test_render_corner_cases():
    assert render_poly(NCPoly.zero()) == "0"
    assert render_poly(NCPoly.scalar("5/2")) == "5/2"
    assert render_poly(NCPoly.scalar(-3)) == "-3"
    assert render_poly(-1 * NCPoly.generator(1)) == "-Z1"
    assert render_poly(NCPoly({(1,): -1, (2,): "1/2"})) == "-Z1 + (1/2)·Z2"
    assert render_poly(NCPoly({(): 1, (1,): 1})) == "1 + Z1"


def test_render_m_basis():
    q = QSPoly({(1, 1): 2, (2,): 1, (): "1/3"})
    assert render_poly(q, "M") == "1/3 + M(2) + 2·M(1,1)"


def test_render_u_basis():
    assert render_poly(NCPoly({(2, 7): "-2/3"}), "U") == "-(2/3)·U2·U7"


def test_render_tensor():
    t = coproduct(NCPoly.generator(2), HopfFamily.NSYMM)
    assert render_tensor(t, "Z") == "1⊗Z2 + Z1⊗Z1 + Z2⊗1"


def test_render_rejects_unknown_basis():
    with pytest.raises(FormatError):
        render_poly(NCPoly.zero(), "Q")


# --- polynomial data --------------------------------------------------------


def test_poly_data_round_trip_bit_exact():
    p = z_in_pprime(4)
    data = poly_to_data(p, "Pprime")
    text = json.dumps(data, sort_keys=True)
    back, basis = poly_from_data(json.loads(text))
    assert basis == "Pprime"
    assert back == p
    assert json.dumps(poly_to_data(back, basis), sort_keys=True) == text


def test_poly_data_is_term_ordered():
    data = poly_to_data(newton_p_left(3), "Z")
    assert [t["word"] for t in data["terms"]] == [[3], [1, 2], [2, 1], [1, 1, 1]]


def test_m_basis_revives_as_qspoly():
    q = QSPoly({(1, 2): "1/2"})
    back, basis = poly_from_data(poly_to_data(q, "M"))
    assert isinstance(back, QSPoly)
    assert back == q and basis == "M"


words = st.lists(st.integers(1, 5), max_size=4).map(tuple)
coeffs = st.fractions(min_value=-30, max_value=30, max_denominator=40).filter(bool)


@given(st.dictionaries(words, coeffs, max_size=6))
def test_poly_round_trip_random(terms):
    p = NCPoly(terms)
    back, _ = poly_from_data(poly_to_data(p, "Z"))
    assert back == p


@pytest.mark.parametrize(
    "data",
    [
        {"terms": []},
        {"basis": "Q", "terms": []},
        {"basis": "Z", "terms": [{"word": [0], "coeff": {"num": "1", "den": "1"}}]},
        {"basis": "Z", "terms": [{"word": [1], "coeff": {"num": "1", "den": "0"}}]},
        {"basis": "Z", "terms": [{"word": [1], "coeff": {"num": "x", "den": "1"}}]},
        {"basis": "Z", "terms": [{"word": [1]}]},
        {
            "basis": "Z",
            "terms": [
                {"word": [1], "coeff": {"num": "1", "den": "1"}},
                {"word": [1], "coeff": {"num": "2", "den": "1"}},
            ],
        },
    ],
)
def test_poly_bad_data_rejected(data):
    with pytest.raises(FormatError):
        poly_from_data(data)


def test_tensor_data_round_trip():
    t = coproduct(NCPoly.word((2, 1)), HopfFamily.NSYMM)
    data = tensor_to_data(t, "Z")
    back, basis = tensor_from_data(data)
    assert back == t and basis == "Z"
    pairs = [(tuple(r["left_word"]), tuple(r["right_word"])) for r in data["terms"]]
    assert pairs == sorted(pairs, key=lambda lr: (
        (sum(lr[0]), len(lr[0]), lr[0]), (sum(lr[1]), len(lr[1]), lr[1])
    ))


@pytest.mark.parametrize("parse", [poly_from_data, tensor_from_data])
@pytest.mark.parametrize("terms", [5, None, {"word": [1]}])
def test_non_list_terms_rejected_at_their_path(parse, terms):
    with pytest.raises(FormatError, match=r"^\$\.terms: expected a list$"):
        parse({"basis": "Z", "terms": terms})


ONE = {"num": "1", "den": "1"}


@pytest.mark.parametrize(
    "terms, message",
    [
        ([{"left_word": [1], "coeff": ONE}], r"^\$\.terms\[0\]: expected an object with"),
        ([{"left_word": [1], "right_word": [0], "coeff": ONE}], r"^\$\.terms\[0\]\.right_word:"),
        (
            [{"left_word": [1], "right_word": [], "coeff": ONE}] * 2,
            r"^\$\.terms\[1\]: duplicate left_word \[1\], right_word \[\]$",
        ),
    ],
)
def test_tensor_bad_data_rejected(terms, message):
    with pytest.raises(FormatError, match=message):
        tensor_from_data({"basis": "Z", "terms": terms})


def test_poly_and_tensor_data_bytes():
    p = NCPoly({(): "-1/2", (2, 1): 3})
    t = coproduct(NCPoly.word((2,)), HopfFamily.NSYMM)
    assert json.dumps(poly_to_data(p, "Z")) == (
        '{"basis": "Z", "terms": [{"word": [], "coeff": {"num": "-1", "den": "2"}}, '
        '{"word": [2, 1], "coeff": {"num": "3", "den": "1"}}]}'
    )
    assert json.dumps(tensor_to_data(t, "Z")) == (
        '{"basis": "Z", "terms": ['
        '{"left_word": [], "right_word": [2], "coeff": {"num": "1", "den": "1"}}, '
        '{"left_word": [1], "right_word": [1], "coeff": {"num": "1", "den": "1"}}, '
        '{"left_word": [2], "right_word": [], "coeff": {"num": "1", "den": "1"}}]}'
    )


# --- algebras and families --------------------------------------------------


def test_algebra_round_trip():
    A = upper_triangular_algebra(3)
    back = algebra_from_data(algebra_to_data(A))
    assert back == A


def test_family_round_trip():
    fam = taylor_hs(4)
    algebra, maps = family_from_data(family_to_data(fam.algebra, fam.maps))
    assert algebra == fam.algebra
    assert maps == fam.maps


def test_derivations_round_trip():
    A = upper_triangular_algebra(2)
    d = inner_derivation(A, {"E12": "2/3"})
    algebra, maps = derivations_from_data(derivations_to_data(A, (d,)))
    assert algebra == A and maps == (d,)


def test_algebra_data_is_sparse():
    A = upper_triangular_algebra(2)
    data = algebra_to_data(A)
    assert all(any(c != "0" for c in entry[2]) for entry in data["structure_constants"])


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("labels"),
        lambda d: d["unit"].append("1"),
        lambda d: d["structure_constants"].append([0, 99, ["1", "0", "0"]]),
        lambda d: d["structure_constants"].append(d["structure_constants"][0]),
        lambda d: d["structure_constants"][0][2].__setitem__(0, "1/0"),
    ],
)
def test_algebra_bad_data_rejected(mutate):
    data = algebra_to_data(upper_triangular_algebra(2))
    mutate(data)
    with pytest.raises(FormatError):
        algebra_from_data(data)


def test_repeated_label_names_its_path():
    data = algebra_to_data(upper_triangular_algebra(3))
    data["labels"][4] = "E12"
    with pytest.raises(FormatError, match=r"^\$\.algebra\.labels\[4\]: label 'E12' repeats labels\[1\]$"):
        algebra_from_data(data)


def test_nonassociative_data_rejected():
    data = {
        "labels": ["1", "a", "b"],
        "unit": ["1", "0", "0"],
        "structure_constants": [
            [0, 0, ["1", "0", "0"]], [0, 1, ["0", "1", "0"]], [0, 2, ["0", "0", "1"]],
            [1, 0, ["0", "1", "0"]], [2, 0, ["0", "0", "1"]],
            [1, 1, ["0", "0", "1"]], [1, 2, ["1", "0", "0"]],
        ],
    }
    with pytest.raises(FormatError, match="associativity"):
        algebra_from_data(data)


def test_family_bad_matrix_shape():
    fam = taylor_hs(3)
    data = family_to_data(fam.algebra, fam.maps)
    data["maps"][0]["columns"] = data["maps"][0]["columns"][:-1]
    with pytest.raises(FormatError, match="columns"):
        family_from_data(data)


def test_family_with_repeated_strings_round_trips_exactly():
    # maps whose columns repeat "0" and a few fractions many times over
    fam = taylor_hs(6)
    algebra = fam.algebra
    dim = algebra.dim
    scaled = tuple(m.scale(Fraction(-3, 2)) for m in fam.maps)
    text = json.dumps(family_to_data(algebra, fam.maps + scaled))
    assert text.count('"0"') > 500 and text.count('"-3/2"') >= 5
    back_algebra, back_maps = family_from_data(json.loads(text))
    assert back_algebra == algebra
    assert back_maps == fam.maps + scaled
    assert json.dumps(family_to_data(back_algebra, back_maps)) == text
    assert all(len(col) == dim for m in back_maps for col in m.columns)


@pytest.mark.parametrize("bad", ["1/0", "2/x", "", "0x1"])
def test_bad_coordinate_string_names_its_path(bad):
    fam = taylor_hs(4)
    for t, k, s in ((1, 2, 3), (0, 4, 0), (3, 0, 4)):
        data = family_to_data(fam.algebra, fam.maps)
        data["maps"][t]["columns"][k][s] = bad
        with pytest.raises(FormatError) as info:
            family_from_data(data)
        assert str(info.value).startswith(f"$.maps[{t}].columns[{k}][{s}]: ")


@pytest.mark.parametrize(
    "parse, field", [(poly_from_data, "word"), (tensor_from_data, "left_word")]
)
@pytest.mark.parametrize("word", [[True], [1, True], [False]])
def test_bool_in_word_names_its_path(parse, field, word):
    # a JSON true is an int to Python, but it is not a letter
    record = {"word": word, "left_word": word, "right_word": [], "coeff": ONE}
    with pytest.raises(FormatError, match=rf"^\$\.terms\[0\]\.{field}: "):
        parse({"basis": "Z", "terms": [record]})


# --- oracle: the same data through the public dense face --------------------
#
# The codec reads and writes term maps; these reference codecs go through
# .unit, .table, .columns, .items(), str(Fraction) and the public
# constructors instead, so both must give the same data and the same values.


def _ref_vector(vec):
    return [str(c) for c in vec]


def _ref_algebra_to_data(algebra):
    return {
        "labels": list(algebra.labels),
        "unit": _ref_vector(algebra.unit),
        "structure_constants": [
            [i, j, _ref_vector(vec)]
            for i, row in enumerate(algebra.table)
            for j, vec in enumerate(row)
            if any(vec)
        ],
    }


def _ref_maps_to_data(algebra, maps, key):
    return {
        "algebra": _ref_algebra_to_data(algebra),
        key: [{"columns": [_ref_vector(col) for col in m.columns]} for m in maps],
    }


def _ref_maps_from_data(data, key):
    raw = data["algebra"]
    algebra = TestAlgebra.from_products(
        raw["labels"],
        [Fraction(s) for s in raw["unit"]],
        {(i, j): [Fraction(s) for s in vec] for i, j, vec in raw["structure_constants"]},
    )
    maps = tuple(LinMap([[Fraction(s) for s in col] for col in m["columns"]]) for m in data[key])
    return algebra, maps


def _ref_terms_to_data(t, basis, fields):
    return {
        "basis": basis,
        "terms": [
            {
                **dict(zip(fields, map(list, (key,) if len(fields) == 1 else key))),
                "coeff": {"num": str(c.numerator), "den": str(c.denominator)},
            }
            for key, c in t.items()
        ],
    }


def _ref_terms_from_data(data, fields, kind):
    terms = {}
    for record in data["terms"]:
        words = tuple(tuple(record[field]) for field in fields)
        coeff = record["coeff"]
        terms[words[0] if len(fields) == 1 else words] = Fraction(
            int(coeff["num"]), int(coeff["den"])
        )
    return kind(terms)


def _oracle_families():
    fam = taylor_hs(6)
    scaled = tuple(m.scale(Fraction(-3, 2)) for m in fam.maps)
    free = free_word_algebra(4)  # dim 31
    images = {("x", 1): {"y": 1}, ("x", 2): {"x": -2}, ("y", 1): {"xy": "3/4"}, ("y", 3): {"yy": 2}}
    yield "taylor-6", fam.algebra, fam.maps, "maps"
    yield "taylor-6-scaled", fam.algebra, scaled, "maps"
    yield "free-31", free, free_hs_extend(images, free, nmaps=6).maps, "maps"
    for algebra in (
        truncated_polynomial_algebra(4),
        upper_triangular_algebra(3),
        free_word_algebra(2),
    ):
        elements = [
            {label: Fraction(p, q) for label, p, q in zip(algebra.labels[1:], (-3, 5, 2), (2, 1, 7))},
            {algebra.labels[-1]: Fraction(-1, 3)},
        ]
        inner = tuple(inner_derivation(algebra, m) for m in elements)
        yield f"inner-dim{algebra.dim}", algebra, inner, "derivations"


ORACLE_FAMILIES = {name: rest for name, *rest in _oracle_families()}


@pytest.mark.parametrize("name", sorted(ORACLE_FAMILIES))
def test_family_codec_matches_the_dense_reference(name):
    algebra, maps, key = ORACLE_FAMILIES[name]
    write, read = (
        (family_to_data, family_from_data)
        if key == "maps"
        else (derivations_to_data, derivations_from_data)
    )
    data = write(algebra, maps)
    assert json.dumps(data) == json.dumps(_ref_maps_to_data(algebra, maps, key))
    text = json.loads(json.dumps(data))
    assert read(text) == _ref_maps_from_data(text, key) == (algebra, maps)


ORACLE_TERMS = [
    (NCPoly({(): "-1/2", (2, 1): 3, (1, 1, 1): "-7/3", (4,): "22/15"}), "Z", _POLY_FIELDS, NCPoly),
    (z_in_pprime(5), "Pprime", _POLY_FIELDS, NCPoly),
    (newton_p_left(4), "U", _POLY_FIELDS, NCPoly),
    (QSPoly({(1, 2): "-5/6", (3,): 4, (): "1/9"}), "M", _POLY_FIELDS, QSPoly),
    (coproduct(newton_p_left(3), HopfFamily.NSYMM), "Z", _TENSOR_FIELDS, Tensor2),
    (Tensor2({((1,), (2, 1)): "-3/2", ((), ()): "1/4", ((3,), ()): -6}), "Z", _TENSOR_FIELDS, Tensor2),
]


@pytest.mark.parametrize("t, basis, fields, kind", ORACLE_TERMS)
def test_term_codec_matches_the_dense_reference(t, basis, fields, kind):
    write, read = (
        (poly_to_data, poly_from_data)
        if fields == _POLY_FIELDS
        else (tensor_to_data, tensor_from_data)
    )
    data = write(t, basis)
    assert json.dumps(data) == json.dumps(_ref_terms_to_data(t, basis, fields))
    text = json.loads(json.dumps(data))
    back, back_basis = read(text)
    assert back_basis == basis and type(back) is kind
    assert back == _ref_terms_from_data(text, fields, kind) == t
