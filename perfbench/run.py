#!/usr/bin/env python3
"""Layered benchmark of nsymm: three seeded workloads, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it uses the package under ``src/``
as it stands.  One client runs one op at a time (a closed loop), and
every op is a fresh interpreter, as a user's ``nsymm`` call would be:

* ``verify-suites``: ``verify primitivity``, ``iso`` and
  ``newton-consistency`` at degree 12, then ``qsymm-hs`` at 8.
* ``hs-calculus``: one process builds the depth-5 free word algebra,
  extends seeded generator images to a family, runs the criterion-10
  pipeline and the two round trips (see hs_pipeline.py).
* ``cli-requests``: 101 seeded CLI requests over every subcommand.

A pass runs the workload once.  Passes repeat, with the same inputs,
until the next one would end after ``--seconds``.  With ``--trace 0``
the last line reports the end-to-end metrics; with ``--trace 1`` one
untraced pass is followed by traced ones, and the last line reports the
per-layer metrics.  Every op is checked (oracle.py); the last line is
``{"correct", "attempted", "failed", "metrics"}``.  Lines before it,
prefixed ``#``, carry the run metadata, the input properties, the
failed-op ratio and the latencies in seconds.

Op latencies are reported in reference units: an op's spawn-to-exit time
over the time of a fixed loop (``reference_loop``) run on the same vCPU
just before and just after it.  On a shared host the speed of a vCPU can
drift by up to 2x within minutes; the ratio cancels that drift, and seconds
do not (see BASELINE.md).
"""

from __future__ import annotations

import argparse
import bisect
import compileall
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import gen
import layers
import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
OP_TIMEOUT = 120  # seconds; an op that runs longer fails
SETUP_PROBES = 10  # import-only processes per run, pooled into setup_s
REFERENCE_GAP = 1.5  # seconds, at least, between two runs of the reference loop before ops
REFERENCE_SHARE = 0.1  # of the time since it last ran, that the reference loop runs for
REFERENCE_WINDOW = 10.0  # seconds before and after an op whose reference runs calibrate it
END_TO_END = (
    ("wall_ref", "ref"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("req_p50_ref", "ref"),
    ("req_p90_ref", "ref"),
)


def reference_loop(seconds: float) -> tuple[float, int]:
    """Blocks of fixed pure-Python work, repeated for about ``seconds``: (seconds, blocks).

    A block sums 5000 exact fractions into a dict, the kind of work nsymm
    does.  On a shared host the speed of a vCPU drifts by up to 2x within
    minutes, and two vCPUs drift independently.  A run pins itself and
    its ops to one vCPU and runs this loop there between ops, so an op's
    time over a block's time around it cancels the drift.
    """
    blocks = 0
    started = time.perf_counter()
    while True:
        totals = {}
        for i in range(5000):
            key = (i % 97, i % 13)
            totals[key] = totals.get(key, 0) + Fraction(i % 7 + 1, i % 5 + 1)
        blocks += 1
        elapsed = time.perf_counter() - started
        if elapsed >= seconds:
            return elapsed, blocks


def percentile(values, p: float) -> float:
    """The p-th percentile, interpolated linearly between order statistics.

    Interpolation keeps the value steady when the number of passes in a
    run, and so the rank that p falls on, changes from run to run.
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * p / 100
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def supported_percentile(n: int, candidates=(50, 90, 99, 99.9)):
    """The highest candidate percentile with at least ten samples beyond it."""
    best = None
    for p in candidates:
        if n - math.ceil(p / 100 * n) >= 10:
            best = p
    return best


class Client:
    """Spawns one op at a time and records what each process reports."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
        self.references = []  # (monotonic time at its end, seconds, blocks) per run of the loop
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})  # the ops inherit it

    def reference(self, always: bool = False) -> None:
        """Run the reference loop for a share of the time since it last ran, unless that is under REFERENCE_GAP."""
        since = time.monotonic() - self.references[-1][0] if self.references else REFERENCE_GAP
        if always or since >= REFERENCE_GAP:
            seconds, blocks = reference_loop(REFERENCE_SHARE * since)
            self.references.append((time.monotonic(), seconds, blocks))

    def calibrate(self, ops) -> None:
        """Give each op its latency in reference blocks.

        A block's time is the mean over the reference runs within
        REFERENCE_WINDOW of the op, and at least the last run before it
        and the first after it.
        """
        ends = [end for end, _seconds, _blocks in self.references]
        for op in ops:
            first = min(bisect.bisect_left(ends, op["spawned"] - REFERENCE_WINDOW),
                        bisect.bisect_right(ends, op["spawned"]) - 1)
            last = max(bisect.bisect_right(ends, op["exited"] + REFERENCE_WINDOW),
                       bisect.bisect_left(ends, op["exited"]) + 1)
            runs = self.references[first:last]
            op["relative"] = op["latency"] * sum(r[2] for r in runs) / sum(r[1] for r in runs)

    def spawn(self, mode: str, args, traced: bool = False) -> dict:
        self.reference()
        self.count += 1
        status_path = os.path.join(self.workdir, f"op{self.count}.json")
        command = [sys.executable, CHILD, status_path, "1" if traced else "0", mode, *args]
        spawned = time.monotonic()
        proc = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=self.env,
            cwd=self.workdir,
        )
        try:
            stdout, stderr = proc.communicate(timeout=OP_TIMEOUT)
            failure = None
        except subprocess.TimeoutExpired:
            proc.kill()
            stdout, stderr = proc.communicate()
            failure = f"timed out after {OP_TIMEOUT} s"
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        exited = time.monotonic()
        op = {
            "spawned": spawned,
            "exited": exited,
            "latency": exited - spawned,
            "code": proc.returncode,
            "stdout": stdout,
            "failure": failure,
        }
        try:
            with open(status_path, "r", encoding="utf-8") as handle:
                status = json.load(handle)
        except (OSError, ValueError):
            op["failure"] = failure or f"crashed (exit {proc.returncode}): {stderr[-300:]!r}"
            return op
        import_s = status["ready"] - status["started"]
        op.update(
            status=status,
            setup=status["ready"] - spawned,
            import_s=import_s,
            spawn_s=op["latency"] - import_s - (status["finished"] - status["begun"]),
            rss_kb=status["rss_kb"],
        )
        return op


# ---------------------------------------------------------------------------
# workloads: each lists its ops and gates the ops of a finished pass


class VerifySuites:
    name = "verify-suites"

    def __init__(self, seed: int, workdir: str):
        self.laws = oracle.load_laws()
        self.inputs = {"suites": [f"{s}@{d}" for s, d in oracle.VERIFY_SUITES]}

    def ops(self):
        for suite, degree in oracle.VERIFY_SUITES:
            yield "cli", ["verify", suite, "--max-degree", str(degree), "--format", "json"], None

    def gate(self, ops) -> tuple[int, list]:
        failures = []
        for (suite, degree), op in zip(oracle.VERIFY_SUITES, ops):
            reason = op["failure"]
            if reason is None:
                reason, op["report"] = oracle.check_verify(suite, degree, op["code"], op["stdout"], self.laws)
            if reason:
                failures.append(f"verify {suite}@{degree}: {reason}")
        return len(ops), failures


class HsCalculus:
    name = "hs-calculus"
    STEPS = ("algebra", "extend", "criterion-10", "round-trips")

    def __init__(self, seed: int, workdir: str):
        self.path = os.path.join(workdir, "hs-calculus.json")
        with open(self.path, "w", encoding="utf-8") as handle:
            json.dump(gen.hs_calculus_inputs(seed), handle)
        self.inputs = {}

    def ops(self):
        yield "hs", [self.path], None

    def gate(self, ops) -> tuple[int, list]:
        (op,) = ops
        reason = op["failure"] or (f"exit code {op['code']}" if op["code"] else None)
        if reason:
            return len(self.STEPS), [f"hs-calculus {step}: {reason}" for step in self.STEPS]
        self.inputs = op["status"]["inputs"]
        checks = op["status"]["checks"]
        return len(self.STEPS), [f"hs-calculus {s}: check failed" for s in self.STEPS if not checks.get(s)]


class CliRequests:
    name = "cli-requests"

    def __init__(self, seed: int, workdir: str):
        self.laws = oracle.load_laws()
        self.requests, self.inputs, objects = gen.cli_requests(seed, workdir)
        self.expected = oracle.expected_outputs(self.requests, objects)

    def ops(self):
        for request in self.requests:
            yield "cli", request["argv"], request.get("out")

    def gate(self, ops) -> tuple[int, list]:
        failures = []
        for request, expected, op in zip(self.requests, self.expected, ops):
            reason = op["failure"]
            if reason is None:
                reason, op["report"] = oracle.check_request(
                    request, expected, op["code"], op["stdout"], self.laws
                )
            if reason:
                label = " ".join(os.path.basename(arg) for arg in request["argv"][:3])
                failures.append(f"{label}: {reason}")
        return len(ops), failures


WORKLOAD_CLASSES = {cls.name: cls for cls in (VerifySuites, HsCalculus, CliRequests)}
WORKLOADS = tuple(WORKLOAD_CLASSES)


def run_pass(workload, client: Client, traced: bool) -> dict:
    """One closed-loop pass, gated after its last op has exited."""
    ops = []
    for mode, args, out in workload.ops():
        if out and os.path.exists(out):
            os.remove(out)  # a stale file must not pass for this pass's output
        op = client.spawn(mode, args, traced)
        op["out_bytes"] = len(op["stdout"]) + (os.path.getsize(out) if out and os.path.exists(out) else 0)
        ops.append(op)
    attempted, failures = workload.gate(ops)
    return {
        "ops": ops,
        "wall": ops[-1]["exited"] - ops[0]["spawned"],
        "attempted": attempted,
        "failures": failures,
        "traced": traced,
    }


# ---------------------------------------------------------------------------
# metrics and the run


def op_latencies(passes, key: str = "relative") -> list:
    """Each op's median latency over the passes, in the order of a pass.

    Every pass runs the same ops, so the k-th op of each pass is one
    request measured several times.  Its median drops a pass slowed by
    the machine; pooling every latency instead would put the extremes
    of two neighbouring ops at the percentile.
    """
    return [statistics.median(p["ops"][k][key] for p in passes) for k in range(len(passes[0]["ops"]))]


def pass_total(p, key: str = "relative") -> float:
    """The latencies of a pass's ops, summed: the pass without the harness's time between ops."""
    return sum(op[key] for op in p["ops"])


def end_to_end(passes, probes) -> tuple[dict, dict]:
    """The metrics in reference units, and the same in seconds for the record."""
    ops = [op for p in passes for op in p["ops"]]
    relative, seconds = op_latencies(passes), op_latencies(passes, "latency")
    peaks = [max(op.get("rss_kb", 0) for op in p["ops"]) for p in passes]
    values = {
        "wall_ref": statistics.median(pass_total(p) for p in passes),
        "setup_s": layers.median_or_zero(op["setup"] for op in probes + ops if "setup" in op),
        "peak_rss_mb": layers.median_or_zero(peaks) / 1024,
        "req_p50_ref": statistics.median(relative),
        "req_p90_ref": percentile(relative, 90),
    }
    raw = {
        "wall_s": statistics.median(pass_total(p, "latency") for p in passes),
        "req_p50_ms": statistics.median(seconds) * 1000,
        "req_p90_ms": percentile(seconds, 90) * 1000,
    }
    return values, raw


def per_layer(untraced, traced) -> tuple[dict, dict]:
    """Medians over the traced passes, and the self seconds per layer of the last one."""
    runs = [layers.pass_metrics([op for op in p["ops"] if "spans" in op.get("status", {})]) for p in traced]
    values = {
        name: statistics.median(r[0][name] for r in runs)
        for name, _unit, _better in layers.METRICS
        if not name.startswith("trace.")
    }
    values["trace.overhead_ratio"] = statistics.median(pass_total(p) for p in traced) / pass_total(untraced)
    return values, runs[-1][1]


def source_identity() -> dict:
    """The commit, when the checkout has git metadata, and a digest of the package source."""
    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head, "r", encoding="utf-8") as handle:
            commit = handle.read().strip()
        ref = os.path.join(ROOT, ".git", commit[len("ref: "):]) if commit.startswith("ref: ") else None
        if ref and os.path.exists(ref):
            with open(ref, "r", encoding="utf-8") as handle:
                commit = handle.read().strip()
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(os.path.join(SRC, "nsymm"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith((".py", ".pyx")):
                with open(os.path.join(folder, name), "rb") as handle:
                    digest.update(name.encode() + b"\0" + handle.read())
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def note(label: str, data) -> None:
    print(f"# {label} {json.dumps(data, sort_keys=True)}")


def run(workload_name: str, seed: int, seconds: int, trace: bool) -> dict:
    workdir = os.path.join(ROOT, ".perfbench_work", f"{workload_name}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        # Byte-compile first, so every timed import reads cached bytecode.
        compileall.compile_dir(os.path.join(SRC, "nsymm"), quiet=1)
        compileall.compile_dir(HERE, quiet=1)
        sys.path.insert(0, SRC)
        import nsymm

        workload = WORKLOAD_CLASSES[workload_name](seed, workdir)
        client = Client(workdir)
        probes = [client.spawn("ready", []) for _ in range(SETUP_PROBES)]
        deadline = time.monotonic() + seconds
        passes = []
        while True:
            passes.append(run_pass(workload, client, traced=trace and bool(passes)))
            if trace and len(passes) < 2:
                continue
            if time.monotonic() + passes[-1]["wall"] > deadline:
                break
        client.reference(always=True)  # the run after the last op
        client.calibrate(op for p in passes for op in p["ops"])

        attempted = sum(p["attempted"] for p in passes)
        failures = [f for p in passes for f in p["failures"]]
        failures += [f"setup probe: {op['failure']}" for op in probes if op["failure"]]
        note("meta", {
            "workload": workload_name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "python": platform.python_version(),
            "backend": nsymm.backend_name(),
            "nproc": os.cpu_count(),
            "pythonhashseed": client.env["PYTHONHASHSEED"],
            "pass_walls_s": [round(p["wall"], 3) for p in passes],
            **source_identity(),
        })
        note("inputs", workload.inputs)
        for failure in failures[:20]:
            print(f"# FAILED {failure}")
        note("ops", {"attempted": attempted, "failed": len(failures),
                     "ops_failed_ratio": len(failures) / attempted})
        untraced = [p for p in passes if not p["traced"]]
        if trace:
            values, groups = per_layer(untraced[0], [p for p in passes if p["traced"]])
            process_wall = sum(op["latency"] for op in passes[-1]["ops"])
            note("layer_self_share", {g: round(s / process_wall, 4) for g, s in sorted(groups.items())})
            units = {name: unit for name, unit, _better in layers.METRICS}
        else:
            values, raw = end_to_end(untraced, probes)
            n = len(untraced[0]["ops"])
            note("samples", {"requests": n, "passes": len(untraced),
                             "highest_supported_percentile": supported_percentile(n)})
            blocks = sum(r[2] for r in client.references)
            note("seconds", {**{k: round(v, 4) for k, v in raw.items()},
                             "reference_block_s": round(sum(r[1] for r in client.references) / blocks, 5),
                             "reference_blocks": blocks})
            if n <= 8:
                note("op_latencies_s", [round(x, 4) for x in op_latencies(untraced, "latency")])
            units = dict(END_TO_END)
        for name, value in values.items():
            print(f"{name} {value:.6g} {units[name]}")
        return {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(SRC, "nsymm", "cli.py")):
        print(f"perfbench: no nsymm package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
