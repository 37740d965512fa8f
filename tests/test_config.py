import threading

import pytest

from nsymm import DegreeOverflowError, degree_limit, max_degree, newton_p_left, set_max_degree
from nsymm.config import DEFAULT_MAX_DEGREE, check_index


@pytest.fixture(autouse=True)
def restore_limit():
    yield
    set_max_degree(DEFAULT_MAX_DEGREE)


def test_degree_limit_is_lexical():
    assert max_degree() == DEFAULT_MAX_DEGREE
    with degree_limit(3):
        assert max_degree() == 3
        with pytest.raises(DegreeOverflowError):
            check_index(4)
        with degree_limit(10):
            assert check_index(10) == 10
        assert max_degree() == 3
    assert max_degree() == DEFAULT_MAX_DEGREE


def test_degree_limit_rejects_bad_values():
    # a bool is an int to isinstance, but neither a degree nor a limit
    for bad in (0, -1, 2.0, "3", None, True, False):
        with pytest.raises(ValueError):
            with degree_limit(bad):
                pass
        with pytest.raises(ValueError):
            set_max_degree(bad)
        with pytest.raises(ValueError, match="integer >= 1"):
            check_index(bad)
        with pytest.raises(ValueError, match="integer >= 1"):
            newton_p_left(bad)
    assert max_degree() == DEFAULT_MAX_DEGREE


def test_degree_limit_does_not_leak_into_another_thread():
    inside = threading.Event()
    release = threading.Event()
    seen = []

    def hold_limit():
        with degree_limit(3):
            inside.set()
            release.wait(10)

    def read_limit():
        inside.wait(10)
        seen.append(max_degree())
        release.set()

    holder = threading.Thread(target=hold_limit)
    reader = threading.Thread(target=read_limit)
    holder.start()
    reader.start()
    reader.join(10)
    holder.join(10)
    assert seen == [DEFAULT_MAX_DEGREE]
    assert max_degree() == DEFAULT_MAX_DEGREE


def test_set_max_degree_stays_in_its_thread():
    seen = []

    def set_and_read():
        set_max_degree(4)
        seen.append(max_degree())

    worker = threading.Thread(target=set_and_read)
    worker.start()
    worker.join(10)
    assert seen == [4]
    assert max_degree() == DEFAULT_MAX_DEGREE
