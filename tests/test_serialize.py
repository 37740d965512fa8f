import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nsymm import (
    NCPoly,
    QSPoly,
    coproduct,
    HopfFamily,
    inner_derivation,
    newton_p_left,
    taylor_hs,
    upper_triangular_algebra,
    z_in_pprime,
)
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
