#!/usr/bin/env python3
"""Fast self-check of the harness; needs no nsymm and spawns nothing.

    python3 perfbench/selfcheck.py

Checks the self-time arithmetic on a hand-built span tree and through
the recorder's dump, the percentile rule, the calibration of op
latencies by the reference loop, the gates on deliberately
wrong outputs, and that BENCHMARK.json names exactly the metrics the
harness reports.  Exits 1 on the first mismatch.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import layers
import oracle
import run
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(os.path.dirname(HERE), ".perfbench_work")


def expect(label: str, got, want) -> None:
    if got != want:
        print(f"FAIL {label}: got {got!r}, want {want!r}")
        sys.exit(1)
    print(f"ok   {label}")


def check_self_times() -> None:
    # a[0,10] holds b[1,4] and c[5,9]; c holds d[6,7]; a second root e[11,12]
    names = ["a", "b", "c", "d", "e"]
    spans = [(0, -1, 0, 10), (1, 0, 1, 4), (2, 0, 5, 9), (3, 2, 6, 7), (4, -1, 11, 12)]
    calls, own = layers.self_times(names, *zip(*spans))
    expect("self time = duration - child time", own, {"a": 3, "b": 3, "c": 3, "d": 1, "e": 1})
    expect("one call per span", calls, {name: 1 for name in names})

    recorder = tracer.Recorder()
    inner = recorder.wrap(lambda n: n, "inner")
    outer = recorder.wrap(lambda n: sum(inner(k) for k in range(n)), "outer")
    expect("wrapped functions return their results", outer(4), 6)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        path = os.path.join(workdir, "check.spans")
        recorder.dump(path)
        names, _counters, *columns = tracer.load(path)
    finally:
        shutil.rmtree(workdir)
    calls, own = layers.self_times(names, *columns)
    expect("recorded call counts", calls, {"outer": 1, "inner": 4})
    total = columns[3][0] - columns[2][0]
    expect("self times add up to the root span", abs(own["outer"] + own["inner"] - total) < 1e-12, True)
    expect("parents point at the enclosing span", list(columns[1]), [-1, 0, 0, 0, 0])


def check_percentiles() -> None:
    values = list(range(1, 101))
    expect("p50 of 1..100", run.percentile(values, 50), 50.5)
    expect("p90 of 1..100", run.percentile(values, 90), 90.1)
    expect("p90 of 1..11", run.percentile(list(range(1, 12)), 90), 10)
    expect("p90 of one value", run.percentile([7.0], 90), 7.0)
    expect("100 samples support p90", run.supported_percentile(100), 90)
    expect("99 samples support only p50", run.supported_percentile(99), 50)
    expect("19 samples support nothing", run.supported_percentile(19), None)
    # three passes of two ops; the second pass ran slow
    passes = [{"ops": [{"latency": a}, {"latency": b}]} for a, b in ((1.0, 2.0), (1.6, 3.1), (1.1, 2.2))]
    expect("each op's median over the passes", run.op_latencies(passes, "latency"), [1.1, 2.2])


def check_calibration() -> None:
    client = run.Client.__new__(run.Client)
    # (end, seconds, blocks): blocks of 0.1 s, 0.3 s, 0.5 s and, 36 s later, 1 s
    client.references = [(1.0, 0.1, 1), (3.0, 0.6, 2), (4.0, 0.5, 1), (40.0, 1.0, 1)]
    ops = [{"spawned": 1.5, "exited": 2.5, "latency": 1.0}, {"spawned": 30.5, "exited": 31.0, "latency": 0.6}]
    client.calibrate(ops)
    expect("an op in blocks of the reference runs within the window", ops[0]["relative"], 1.0 / 0.3)
    expect("and at least the runs just before and after it", ops[1]["relative"], 0.6 / 0.75)


def check_gates() -> None:
    laws = oracle.load_laws()
    pairs = laws["hopf-laws"]["5"]
    good = {
        "suite": "hopf-laws",
        "max_degree": 5,
        "passed": True,
        "checks": [{"law": law, "degree": d, "pass": True, "elapsed_us": 1} for law, d in pairs],
    }
    encode = lambda report: json.dumps(report).encode()  # noqa: E731
    expect("a complete passing report passes", oracle.check_verify("hopf-laws", 5, 0, encode(good), laws)[0], None)
    failing = json.loads(json.dumps(good))
    failing["checks"][0]["pass"] = False
    expect("a failed record fails", oracle.check_verify("hopf-laws", 5, 1, encode(failing), laws)[0], "exit code 1")
    expect(
        "a failed record fails even with exit 0",
        oracle.check_verify("hopf-laws", 5, 0, encode(failing), laws)[0],
        "a check failed",
    )
    dropped = dict(good, checks=good["checks"][1:])
    reason = oracle.check_verify("hopf-laws", 5, 0, encode(dropped), laws)[0]
    expect("a dropped check fails", reason is not None and reason.startswith("dropped 1"), True)

    request = {"name": "newton", "argv": ["newton", "2", "--variant", "left", "--format", "json"]}
    answer = {"basis": "Z", "terms": [{"word": [2], "coeff": {"num": "2", "den": "1"}}]}
    expect("the right answer passes", oracle.check_request(request, answer, 0, encode(answer), laws)[0], None)
    wrong = json.loads(json.dumps(answer))
    wrong["terms"][0]["coeff"]["num"] = "3"
    expect(
        "a wrong coefficient fails",
        oracle.check_request(request, answer, 0, encode(wrong), laws)[0],
        "output differs from the library's answer",
    )
    expect("a nonzero exit fails", oracle.check_request(request, answer, 2, b"", laws)[0], "exit code 2")

    hs = run.HsCalculus.__new__(run.HsCalculus)
    op = {"failure": None, "code": 0, "status": {"inputs": {}, "checks": dict.fromkeys(hs.STEPS, True)}}
    expect("hs-calculus passes when every check holds", hs.gate([op]), (4, []))
    op["status"]["checks"]["round-trips"] = False
    expect("a failed round trip fails", hs.gate([op]), (4, ["hs-calculus round-trips: check failed"]))


def check_benchmark_json() -> None:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    expect(
        "BENCHMARK.json per_layer matches the harness",
        [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
        list(layers.METRICS),
    )
    expect(
        "BENCHMARK.json end_to_end matches the harness",
        [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        list(run.END_TO_END),
    )
    expect("BENCHMARK.json workloads match the harness", [w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    check_self_times()
    check_percentiles()
    check_calibration()
    check_gates()
    check_benchmark_json()
    print("selfcheck passed")
