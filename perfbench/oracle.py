"""Correctness gates: what each op must return.

An op fails on a wrong output, an unexpected exit code, a crash or a
timeout.  Every ``check_*`` function returns (reason, report): reason
is None when the op passed, else one line; report is the parsed verify
report, or None.

* verify: exit 0, every record passes, and every (law, degree) pair
  recorded in ``laws.json`` at the commit that defined the benchmark is
  still reported.  A suite may add checks but not drop them.
* cli-requests: the output equals the answer computed through the
  library API in the harness process, before timing starts; every
  ``hs build-from-*`` round trip returns the input family.
* hs-calculus: the child checks its own results (see hs_pipeline.py).

Run ``python3 perfbench/oracle.py`` from the root of a checkout to
rewrite ``laws.json`` from its suites.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
LAWS_FILE = os.path.join(HERE, "laws.json")
# The verify-suites workload: (suite, degree), each in its own process.
VERIFY_SUITES = (("primitivity", 12), ("iso", 12), ("newton-consistency", 12), ("qsymm-hs", 8))


def load_laws() -> dict:
    with open(LAWS_FILE, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _laws(report: dict) -> set:
    return {(r["law"], r["degree"]) for r in report["checks"]}


def _strip_timing(report: dict) -> dict:
    out = dict(report)
    out["checks"] = [{k: v for k, v in r.items() if k != "elapsed_us"} for r in report["checks"]]
    return out


def check_verify(suite: str, degree: int, code: int, stdout: bytes, laws: dict):
    """Gate of one verify request."""
    if code != 0:
        return f"exit code {code}", None
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return f"output is not JSON: {exc}", None
    if not report.get("passed") or not all(r.get("pass") for r in report.get("checks", ())):
        return "a check failed", report
    missing = {tuple(pair) for pair in laws[suite][str(degree)]} - _laws(report)
    if missing:
        return f"dropped {len(missing)} recorded checks, e.g. {sorted(missing)[0]}", report
    return None, report


# ---------------------------------------------------------------------------
# cli-requests


def expected_outputs(requests, objects) -> list:
    """The answer to each request, computed through the library API."""
    import nsymm
    from nsymm import cli, serialize
    from nsymm.suites import run_suite

    out = []
    for request in requests:
        argv = request["argv"]
        name = request["name"]
        if name == "newton":
            compute, basis = cli.NEWTON_VARIANTS[argv[3]]
            poly = compute(int(argv[1]), nsymm.DEFAULT_MAX_DEGREE)
            out.append(serialize.poly_to_data(poly, basis))
        elif name == "explog":
            n = int(argv[1])
            if argv[3] == "z-of-u":
                out.append(serialize.poly_to_data(nsymm.z_of_u(n), "U"))
            else:
                out.append(serialize.poly_to_data(nsymm.u_of_z(n), "Z"))
        elif name == "qsymm":
            out.append(_qsymm_answer(argv[1], argv[2:-2]))
        elif name == "verify":
            out.append(_strip_timing(run_suite(argv[1], int(argv[3])).to_data()))
        else:
            out.append(_hs_answer(request, *objects[request["algebra"]]))
    return out


def _composition(text: str) -> tuple:
    return () if text == "e" else tuple(int(p) for p in text.split(","))


def _qsymm_answer(action: str, args) -> dict:
    import nsymm
    from nsymm import serialize

    if action == "shuffle":
        a, b = (nsymm.QSPoly.monomial(_composition(t)) for t in args)
        return serialize.poly_to_data(nsymm.quasi_shuffle(a, b), "M")
    if action == "deconcat":
        return serialize.tensor_to_data(nsymm.deconcat(nsymm.QSPoly.monomial(_composition(args[0]))), "M")
    if action == "dn":
        result = nsymm.d_qsymm(int(args[0]), nsymm.QSPoly.monomial(_composition(args[1])))
        return serialize.poly_to_data(result, "M")
    value = nsymm.pairing(
        nsymm.QSPoly.monomial(_composition(args[0])), nsymm.NCPoly.word(_composition(args[1]))
    )
    return {"value": {"num": str(value.numerator), "den": str(value.denominator)}}


def _hs_answer(request, family, inner) -> dict:
    import nsymm
    from nsymm import serialize

    algebra = family.algebra
    action, source = request["action"], request["source"]
    if action == "validate":
        kind = "family" if source == "family" else "derivations"
        return {"kind": kind, "valid": True, "witness": None}
    if action == "extract-delta":
        return serialize.derivations_to_data(algebra, nsymm.delta_from_d(family))
    if action == "extract-partial":
        return serialize.derivations_to_data(algebra, nsymm.partial_from_d(family))
    if source == "inner":
        built = nsymm.d_from_partial(inner, algebra)
        return serialize.family_to_data(algebra, built.maps)
    return serialize.family_to_data(algebra, family.maps)


def check_request(request, expected, code: int, stdout: bytes, laws: dict):
    """Gate of one cli request."""
    argv = request["argv"]
    if request["name"] == "verify":
        reason, report = check_verify(argv[1], int(argv[3]), code, stdout, laws)
        if reason is None and _strip_timing(report) != expected:
            reason = "report differs from the library's"
        return reason, report
    if code != 0:
        return f"exit code {code}", None
    try:
        if "out" in request:
            with open(request["out"], "r", encoding="utf-8") as handle:
                got = json.load(handle)
        else:
            got = json.loads(stdout)
    except (OSError, ValueError) as exc:
        return f"unreadable output: {exc}", None
    if got != expected:
        return "output differs from the library's answer", None
    if request.get("target", "").startswith("family-via-"):
        with open(request["family_file"], "r", encoding="utf-8") as handle:
            if got != json.load(handle):
                return "round trip did not return the input family", None
    return None, None


def record_laws() -> dict:
    """(law, degree) pairs of every suite run by the benchmark, by suite and degree."""
    from nsymm.suites import run_suite

    import gen

    wanted = set(VERIFY_SUITES) | set(gen.VERIFY_REQUESTS)
    laws: dict = {}
    for suite, degree in sorted(wanted):
        report = run_suite(suite, degree).to_data()
        laws.setdefault(suite, {})[str(degree)] = sorted(_laws(report))
    return laws


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    with open(LAWS_FILE, "w", encoding="utf-8") as handle:
        json.dump(record_laws(), handle, indent=1)
        handle.write("\n")
