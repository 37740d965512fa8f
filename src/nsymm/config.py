"""Global degree limit.

The algebra has countably many generators; this artifact works at a
bounded degree.  Operations indexed by a degree reject requests above
the limit instead of truncating silently.  The limit defaults to 8 and
can be overridden per call (``max_degree=``), for the current context
(:func:`set_max_degree`), or lexically (:func:`degree_limit`).  The
limit lives in a context variable, so a thread or task that changes it
does not change it for the others.
"""

from contextlib import contextmanager
from contextvars import ContextVar

DEFAULT_MAX_DEGREE = 8

_max_degree = ContextVar("nsymm_max_degree", default=DEFAULT_MAX_DEGREE)


class DegreeOverflowError(ValueError):
    """A request exceeded the configured maximum degree."""


def max_degree():
    return _max_degree.get()


def _checked_limit(n):
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"max degree must be an integer >= 1, got {n!r}")
    return n


def set_max_degree(n):
    _max_degree.set(_checked_limit(n))


@contextmanager
def degree_limit(n):
    """Temporarily raise or lower the degree limit of the current context."""
    token = _max_degree.set(_checked_limit(n))
    try:
        yield
    finally:
        _max_degree.reset(token)


def resolve_limit(limit=None):
    if limit is None:
        return _max_degree.get()
    return _checked_limit(limit)


def check_index(n, limit=None, what="generator index"):
    """Validate a degree-indexed request: 1 <= n <= limit."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"{what} must be an integer >= 1, got {n!r}")
    bound = resolve_limit(limit)
    if n > bound:
        raise DegreeOverflowError(f"{what} {n} exceeds the degree limit {bound}")
    return n
