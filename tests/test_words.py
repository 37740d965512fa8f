import pytest

from nsymm.words import (
    check_composition,
    composition_of_rank,
    compositions_of,
    compositions_up_to,
    term_order_key,
    weight,
)


def test_compositions_of_zero_and_one():
    assert compositions_of(0) == ((),)
    assert compositions_of(1) == ((1,),)


def test_compositions_of_three_exact_order():
    assert compositions_of(3) == ((1, 1, 1), (1, 2), (2, 1), (3,))


@pytest.mark.parametrize("n", range(1, 13))
def test_compositions_count_distinct_weight(n):
    comps = compositions_of(n)
    assert len(comps) == 2 ** (n - 1)
    assert len(set(comps)) == len(comps)
    assert all(weight(c) == n for c in comps)
    assert all(all(p >= 1 for p in c) for c in comps)


def test_compositions_lex_sorted():
    for n in range(8):
        comps = compositions_of(n)
        assert list(comps) == sorted(comps)


def test_compositions_negative_rejected():
    with pytest.raises(ValueError):
        compositions_of(-1)
    with pytest.raises(ValueError):
        compositions_of("3")


@pytest.mark.parametrize("n", range(13))
def test_composition_of_rank_is_the_listed_one(n):
    comps = compositions_of(n)
    assert [composition_of_rank(n, r) for r in range(len(comps))] == list(comps)
    for rank in (-1, len(comps)):
        with pytest.raises(IndexError):
            composition_of_rank(n, rank)


def test_compositions_up_to():
    everything = compositions_up_to(3)
    assert everything == ((),) + compositions_of(1) + compositions_of(2) + compositions_of(3)


@pytest.mark.parametrize("bad", [True, False, 2.0], ids=repr)
def test_compositions_of_rejects_bool_and_non_int_weights(bad):
    # a bool is an int to isinstance: True was read as weight 1
    compositions_of(1)
    with pytest.raises(ValueError, match="integer >= 0"):
        compositions_of(bad)


@pytest.mark.parametrize("bad", [True, False, -1, 2.0], ids=repr)
def test_compositions_up_to_rejects_bool_negative_and_non_int_weights(bad):
    # True was read as weight <= 1, and -1 gave no composition at all
    with pytest.raises(ValueError, match="integer >= 0"):
        compositions_up_to(bad)


def test_term_order_weight_then_length_then_lex():
    words = [(1, 1, 1), (3,), (1, 2), (2, 1), (), (2,), (1, 1)]
    ordered = sorted(words, key=term_order_key)
    assert ordered == [(), (2,), (1, 1), (3,), (1, 2), (2, 1), (1, 1, 1)]


def test_check_composition():
    assert check_composition([2, 1]) == (2, 1)
    assert check_composition(()) == ()
    for bad in ([0], [-1], [1.5], [True]):
        with pytest.raises(ValueError):
            check_composition(bad)
