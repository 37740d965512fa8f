"""One benchmark process: a fresh interpreter that imports nsymm and runs one op.

    python3 perfbench/child.py STATUS.json TRACE MODE [ARGS...]

MODE is ``ready`` (import only), ``cli`` (ARGS go to ``nsymm.cli.main``,
as the ``nsymm`` entry point would pass them) or ``hs`` (ARGS[0] is the
hs-calculus input file).  With TRACE=1 the spans go to STATUS.spans.
STATUS.json receives the clock readings, exit code and max RSS; the
process exits with the op's exit code.  Only ``sys`` and ``time`` load
before ``nsymm``, so the import is timed as a user's call pays it.
"""

import sys
import time

started = time.monotonic()


def main() -> int:
    status_path, trace, mode, *args = sys.argv[1:]
    import nsymm.cli

    ready = time.monotonic()
    recorder = None
    if trace == "1":
        import tracer

        recorder = tracer.install()
    begun = time.monotonic()
    status = {"mode": mode}
    if mode == "cli":
        try:
            code = nsymm.cli.main(args)
        except SystemExit as exc:  # argparse rejects a request this way
            code = exc.code if isinstance(exc.code, int) else 2
        sys.stdout.flush()
    elif mode == "hs":
        import hs_pipeline

        status.update(hs_pipeline.run(args[0]))
        code = 0
    else:
        code = 0
    finished = time.monotonic()

    import json
    import resource

    if recorder is not None:
        status["spans"] = status_path[: -len(".json")] + ".spans"
        recorder.read_caches()
        recorder.dump(status["spans"])
    status.update(
        started=started,
        ready=ready,
        begun=begun,
        finished=finished,
        code=code,
        rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    with open(status_path, "w", encoding="utf-8") as handle:
        json.dump(status, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
