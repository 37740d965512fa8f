"""Per-layer metrics of one traced pass, computed from the span dumps.

A layer's self time is its span's duration minus the time of its child
spans.  Counts and self times are summed over the pass's processes;
hit ratios pool the hits and misses of every process; ``entries``,
``max_coeff_bits`` and ``family_nnz`` take the largest value seen.  The
``cli.*`` metrics describe one request, so they are medians over the
pass's processes.
"""

from __future__ import annotations

import statistics

import tracer

_PEAKS = ("entries", "max_coeff_bits", "family_nnz")

_UNITS = {"calls": "count", "self_s": "s", "terms_out": "count"}


def _span(name, *fields):
    return [(f"{name}.{field}", _UNITS[field], "lower") for field in fields]


_CS = ("calls", "self_s")
SUITES = ("primitivity", "newton-consistency", "iso", "qsymm-hs", "hopf-laws")

# (name, unit, better) of every per-layer metric, layer by layer.
METRICS = tuple(
    _span("kernels.mul_word_terms", *_CS, "terms_out")
    + _span("kernels.mul_tensor_terms", *_CS, "terms_out")
    + _span("kernels.add_scaled_into", *_CS)
    + _span("kernels.add_sub_scale", *_CS)
    + _span("kernels.quasi_shuffle_words", *_CS)
    + [("kernels.rat_scalar.calls", "count", "lower"), ("kernels.max_coeff_bits", "bits", "lower")]
    + [("words.compositions_of.hit_ratio", "ratio", "higher")]
    + _span("poly.NCPoly.mul", *_CS)
    + _span("poly.NCPoly.substitute", *_CS)
    + _span("poly.Tensor2.mul", *_CS)
    + _span("poly.Tensor2.outer", *_CS)
    + _span("hopf.coproduct", *_CS, "terms_out")
    + [("hopf.word_coproduct.hit_ratio", "ratio", "higher")]
    + [("hopf.word_coproduct.entries", "count", "lower")]
    + _span("hopf.primitivity_defect", "self_s")
    + _span("newton.primitives", "self_s")
    + _span("newton.expansions", "self_s")
    + [("newton.cache.hit_ratio", "ratio", "higher")]
    + _span("explog.generators", "self_s")
    + _span("explog.expand", *_CS)
    + _span("qsymm.quasi_shuffle", *_CS)
    + _span("qsymm.d_qsymm", *_CS)
    + _span("qsymm.deconcat", *_CS, "terms_out")
    + [("qsymm.pairs_checked", "count", "higher")]
    + _span("hsops.TestAlgebra.init", *_CS)
    + _span("hsops.TestAlgebra.mul", *_CS)
    + _span("hsops.hs_defect", *_CS)
    + _span("hsops.derivation_defect", *_CS)
    + _span("hsops.LinMap.matmul", *_CS)
    + _span("hsops.LinMap.linear", *_CS)
    + _span("hsops.free_hs_extend", "self_s")
    + _span("hsops.delta_from_d", "self_s")
    + _span("hsops.d_from_delta", "self_s")
    + _span("hsops.partial_from_d", "self_s")
    + _span("hsops.d_from_partial", "self_s")
    + _span("hsops.operator_from_word_poly", "self_s")
    + [("hsops.family_nnz", "count", "lower")]
    + _span("serialize.load", *_CS)
    + _span("serialize.dump", *_CS)
    + [("serialize.bytes", "bytes", "lower")]
    + [(f"suites.{suite}.check_s", "s", "lower") for suite in SUITES]
    + [
        ("suites.checks", "count", "higher"),
        ("suites.check_share", "ratio", "higher"),
        ("cli.import_s", "s", "lower"),
        ("cli.main.self_s", "s", "lower"),
        ("cli.spawn_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
)


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def self_times(names, name_id, parent, start, end) -> tuple[dict, dict]:
    """Per span name: (number of spans, summed self time)."""
    count = len(name_id)
    child = [0.0] * count
    for i in range(count):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    calls: dict[str, int] = {}
    own: dict[str, float] = {}
    for i in range(count):
        name = names[name_id[i]]
        calls[name] = calls.get(name, 0) + 1
        own[name] = own.get(name, 0.0) + (end[i] - start[i]) - child[i]
    return calls, own


def pass_metrics(ops) -> tuple[dict, dict]:
    """(per-layer metrics except trace.*, self seconds per layer) of one traced pass.

    Each op carries its child's ``status`` (with the ``spans`` dump path),
    ``latency``, ``import_s``, ``spawn_s``, ``out_bytes`` and, for verify
    requests, the parsed ``report``.
    """
    calls: dict[str, int] = {}
    own: dict[str, float] = {}
    counters: dict[str, int] = {}
    main_own = []
    for op in ops:
        names, counted, *columns = tracer.load(op["status"]["spans"])
        op_calls, op_own = self_times(names, *columns)
        main_own.append(op_own.get("cli.main", 0.0))
        for name, value in op_calls.items():
            calls[name] = calls.get(name, 0) + value
        for name, value in op_own.items():
            own[name] = own.get(name, 0.0) + value
        for key, value in counted.items():
            if key.endswith(_PEAKS):
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value

    def hit_ratio(*prefixes):
        hits = sum(counters.get(f"{p}.hits", 0) for p in prefixes)
        misses = sum(counters.get(f"{p}.misses", 0) for p in prefixes)
        return hits / (hits + misses) if hits + misses else 0.0

    reports = [op["report"] for op in ops if op.get("report") is not None]
    check_s = {suite: 0.0 for suite in SUITES}
    for report in reports:
        check_s[report["suite"]] += sum(r["elapsed_us"] for r in report["checks"]) / 1e6
    suite_wall = sum(op["latency"] for op in ops if op.get("report") is not None)
    values = {
        "words.compositions_of.hit_ratio": hit_ratio("words.compositions_of"),
        "hopf.word_coproduct.hit_ratio": hit_ratio("hopf.word_coproduct"),
        "newton.cache.hit_ratio": hit_ratio("newton.p_left", "newton.p_right", "newton.z_in_pprime"),
        "qsymm.pairs_checked": sum(r.get("meta", {}).get("pairs_checked", 0) for r in reports),
        "serialize.bytes": sum(op.get("out_bytes", 0) for op in ops),
        "suites.checks": sum(len(r["checks"]) for r in reports),
        "suites.check_share": sum(check_s.values()) / suite_wall if suite_wall else 0.0,
        "cli.import_s": median_or_zero(op["import_s"] for op in ops),
        "cli.main.self_s": median_or_zero(main_own),
        "cli.spawn_s": median_or_zero(op["spawn_s"] for op in ops),
    }
    values.update((f"suites.{suite}.check_s", s) for suite, s in check_s.items())
    for name, _unit, _better in METRICS:
        if name in values or name.startswith("trace."):
            continue
        span, field = name.rsplit(".", 1)
        if name in counters or field not in ("calls", "self_s"):
            values[name] = counters.get(name, 0)
        else:
            values[name] = calls.get(span, 0) if field == "calls" else own.get(span, 0.0)

    groups: dict[str, float] = {}
    for name, seconds in own.items():
        group = name.split(".", 1)[0]
        groups[group] = groups.get(group, 0.0) + seconds
    return values, groups
