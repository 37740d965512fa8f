"""Verification report containers shared by the check suites and the CLI.

Every suite records its checks through :meth:`Report.timed`: it runs one
check, times it, and files the result with the witness that
:func:`witness` derives from the check's defect.  A suite that runs its
checks in another order than it reports them makes each with
:func:`timed_check` and files it later with :meth:`Report.add`.
"""

from __future__ import annotations

import time

from .poly import Tensor2

# The fields that name the words of a term's key: a polynomial is keyed
# by one word, a tensor by a (left, right) pair of words.
_POLY_FIELDS = ("word",)
_TENSOR_FIELDS = ("left_word", "right_word")


def _coeff_data(pair: tuple[int, int]) -> dict:
    return {"num": str(pair[0]), "den": str(pair[1])}


def _term_record(fields, key, pair: tuple[int, int]) -> dict:
    """One term as {word | left_word, right_word, coeff: {num, den}}."""
    record = dict(zip(fields, map(list, (key,) if len(fields) == 1 else key)))
    record["coeff"] = _coeff_data(pair)
    return record


def poly_witness(defect) -> dict:
    """First nonzero term of a nonzero polynomial defect, as a record."""
    key = defect.support()[0]
    return _term_record(_POLY_FIELDS, key, defect._terms[key])


def tensor_witness(defect) -> dict:
    """First nonzero term of a nonzero tensor defect, as a record."""
    key = defect.support()[0]
    return _term_record(_TENSOR_FIELDS, key, defect._terms[key])


def witness(defect) -> dict | None:
    """The record that shows a check's defect, or None.

    A nonzero polynomial or tensor gives its first term and a ready-made
    record dict is used as it is; no defect and a bare ``True`` (a failed
    yes/no check) give none.
    """
    if not defect or defect is True:
        return None
    if isinstance(defect, dict):
        return defect
    if isinstance(defect, Tensor2):
        return tensor_witness(defect)
    return poly_witness(defect)


class Check:
    """One verified law: what was checked, at which degree, and the outcome.

    Immutable, compared and hashed by its five fields.
    """

    __slots__ = ("law", "degree", "passed", "witness", "elapsed_us")

    def __init__(
        self,
        law: str,
        degree: int,
        passed: bool,
        witness: dict | None = None,
        elapsed_us: int = 0,
    ):
        for name, value in zip(self.__slots__, (law, degree, passed, witness, elapsed_us)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable Check")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable Check")

    def _fields(self) -> tuple:
        return (self.law, self.degree, self.passed, self.witness, self.elapsed_us)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = zip(self.__slots__, self._fields())
        return "Check(" + ", ".join(f"{name}={value!r}" for name, value in fields) + ")"

    def to_record(self) -> dict:
        record = {
            "degree": self.degree,
            "law": self.law,
            "pass": self.passed,
            "elapsed_us": self.elapsed_us,
        }
        if self.witness is not None:
            record["witness"] = self.witness
        return record


def timed_check(law: str, degree: int, run) -> Check:
    """Time ``run()`` and make its result the defect of one check.

    A falsy defect means the law holds; any other value fails the check,
    with the witness that :func:`witness` derives from it.
    """
    start = time.perf_counter_ns()
    defect = run()
    elapsed_us = (time.perf_counter_ns() - start) // 1000
    return Check(
        law=law,
        degree=degree,
        passed=not defect,
        witness=witness(defect),
        elapsed_us=elapsed_us,
    )


class Report:
    """The checks of one suite run up to a degree bound, plus free-form meta."""

    __slots__ = ("suite", "max_degree", "checks", "meta")

    def __init__(
        self,
        suite: str,
        max_degree: int,
        checks: list[Check] | None = None,
        meta: dict | None = None,
    ):
        self.suite = suite
        self.max_degree = max_degree
        self.checks = [] if checks is None else checks
        self.meta = {} if meta is None else meta

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # mutable

    def _fields(self) -> tuple:
        return (self.suite, self.max_degree, self.checks, self.meta)

    def __repr__(self):
        fields = zip(self.__slots__, self._fields())
        return "Report(" + ", ".join(f"{name}={value!r}" for name, value in fields) + ")"

    def add(self, check: Check):
        self.checks.append(check)

    def timed(self, law: str, degree: int, run) -> None:
        """Time ``run()`` and record its result as the defect of one check."""
        self.add(timed_check(law, degree, run))

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    @property
    def failures(self) -> list[Check]:
        return [check for check in self.checks if not check.passed]

    def to_data(self) -> dict:
        data = {
            "suite": self.suite,
            "max_degree": self.max_degree,
            "passed": self.passed,
            "checks": [check.to_record() for check in self.checks],
        }
        if self.meta:
            data["meta"] = dict(self.meta)
        return data

    def render(self) -> str:
        lines = []
        for check in self.checks:
            status = "PASS" if check.passed else "FAIL"
            line = f"[{status}] degree={check.degree} {check.law} ({check.elapsed_us} us)"
            if check.witness is not None:
                line += f" witness={check.witness}"
            lines.append(line)
        for key, value in self.meta.items():
            lines.append(f"# {key}: {value}")
        verdict = "all passed" if self.passed else f"{len(self.failures)} FAILED"
        lines.append(
            f"suite {self.suite}: {len(self.checks)} checks up to degree {self.max_degree}: {verdict}"
        )
        return "\n".join(lines)
