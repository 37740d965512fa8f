"""Command-line front end.

Subcommands: newton, explog, verify, hs, qsymm.  Exit codes are a
stable contract: 0 success / all checks passed, 1 verification failure,
2 usage or parse error.  Output is text by default or JSON with
--format json; --out writes to a file instead of stdout.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import sys
from contextlib import nullcontext
from itertools import islice

from .config import DEFAULT_MAX_DEGREE, DegreeOverflowError, check_index
from .explog import u_of_z, z_of_u
from .hsops import (
    HSFamily,
    NotADerivationError,
    d_from_delta,
    d_from_partial,
    delta_from_d,
    derivation_defect,
    hs_defect,
    partial_from_d,
)
from .newton import (
    newton_p_explicit,
    newton_p_left,
    newton_p_right,
    z_in_pprime,
    z_in_pprime_via_c,
)
from .qsymm import QSPoly, d_qsymm, deconcat, pairing, quasi_shuffle
from .poly import NCPoly
from .reports import _coeff_data
from .serialize import (
    FormatError,
    derivations_from_data,
    derivations_to_data,
    family_from_data,
    family_to_data,
    poly_to_data,
    render_poly,
    render_tensor,
    tensor_to_data,
)
from .suites import CEILINGS, SUITES, run_suite


class CliError(Exception):
    def __init__(self, message, code=2):
        super().__init__(message)
        self.code = code


def _positive_int(text):
    try:
        value = int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _common_flags():
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--max-degree",
        type=_positive_int,
        default=DEFAULT_MAX_DEGREE,
        help=f"degree bound for this command (default {DEFAULT_MAX_DEGREE})",
    )
    parent.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="output_format",
        help="output format (default text)",
    )
    parent.add_argument("--out", metavar="FILE", default=None, help="write output to FILE")
    return parent


def _emit(args, text, data, path=None) -> None:
    """Write text() (--format text, unless text is None) or data() as indented JSON.

    ``text`` and ``data`` are builders, and only the one whose form is
    written is called.  The output, and a newline after it, goes to path,
    else to --out, else to stdout.  The JSON has the bytes of
    json.dump(data(), handle, indent=2), streamed in blocks of chunks:
    never held as one string, and one write per block even when stdout is
    unbuffered (PYTHONUNBUFFERED).
    """
    path = path or args.out
    with open(path, "w", encoding="utf-8") if path else nullcontext(sys.stdout) as handle:
        if text is not None and args.output_format == "text":
            handle.write(text())
        else:
            chunks = json.JSONEncoder(indent=2).iterencode(data())
            for block in iter(lambda: "".join(islice(chunks, 4096)), ""):
                handle.write(block)
        handle.write("\n")


def _emit_poly(args, poly, basis) -> None:
    _emit(args, lambda: render_poly(poly, basis), lambda: poly_to_data(poly, basis))


def _check_n(n, args):
    try:
        check_index(n, args.max_degree, what="n")
    except (DegreeOverflowError, ValueError) as exc:
        raise CliError(str(exc)) from None


NEWTON_VARIANTS = {
    "left": (newton_p_left, "Z"),
    "right": (newton_p_right, "Z"),
    "explicit": (newton_p_explicit, "Z"),
    "z-in-p": (z_in_pprime, "Pprime"),
    "z-in-p-via-c": (z_in_pprime_via_c, "Pprime"),
}


# The largest --max-degree that newton, explog, qsymm and hs accept: the
# highest degree at which the costliest request of the command took under
# 5 s and 100 MB peak RSS in process, with --format json (Python 3.11.7,
# 2 vCPUs).  Measured there: every newton variant and explog direction
# with n at the bound, at most 1.3 s and 61 MB at 15, 2.3 s and 109 MB at
# 16; qsymm shuffle of the all-ones compositions that split the bound,
# 1.1 s and 77 MB at 21, 2.0 s and 117 MB at 22.  For hs the degree bounds
# the family order: every action on a family of that order on each algebra
# kind at the dimension cap below, median of 3: at most 2.2 s and 85 MB at
# order 11 (the Taylor family at dim 160; the free word algebra of dim 127
# 1.5 s and 41 MB).  At 12 those families took 2.8 s and 2.5 s, but a free
# extension with two- and three-term images at every level took 33 s and
# 112 MB in extract-partial (21 s and 96 MB at 11), so 12 stays out.
COMMAND_CEILINGS = {"newton": 15, "explog": 15, "qsymm": 21, "hs": 11}

# The largest algebra dimension that hs accepts, measured the same way on
# its costliest actions (validate, extract-partial, build-from-partial and
# the delta pair) with families of order 8 and 11.  The truncated
# polynomial algebras, the densest tables of the catalog, cost the most:
# at most 2.1 s and 83 MB at dim 160 (2.2 s and 85 MB at order 11), and
# 2.8 s but 104 MB at 176, where the builds fail the memory bound.
# Upper-triangular algebras took 0.3 s and 25 MB at 153 (0.5 s and 27 MB
# at 171); free word algebras 0.7 s and 28 MB at 127 (2.2 s and 59 MB at
# 255).
HS_MAX_DIM = 160


def _check_ceiling(args):
    ceiling = COMMAND_CEILINGS[args.command]
    if args.max_degree > ceiling:
        raise CliError(
            f"{args.command}: --max-degree {args.max_degree} "
            f"exceeds the command's ceiling {ceiling}"
        )


def _cmd_newton(args) -> int:
    _check_ceiling(args)
    _check_n(args.n, args)
    compute, basis = NEWTON_VARIANTS[args.variant]
    poly = compute(args.n, args.max_degree)
    _emit_poly(args, poly, basis)
    return 0


def _cmd_explog(args) -> int:
    _check_ceiling(args)
    _check_n(args.n, args)
    if args.direction == "z-of-u":
        poly, basis = z_of_u(args.n, args.max_degree), "U"
    else:
        poly, basis = u_of_z(args.n, args.max_degree), "Z"
    _emit_poly(args, poly, basis)
    return 0


def _cmd_verify(args) -> int:
    ceiling = CEILINGS[args.suite]
    if args.max_degree > ceiling:
        raise CliError(
            f"verify {args.suite}: --max-degree {args.max_degree} "
            f"exceeds the suite's ceiling {ceiling}"
        )
    report = run_suite(args.suite, args.max_degree)
    _emit(args, report.render, report.to_data)
    return 0 if report.passed else 1


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from None


def _parsed(path, data, parse, max_degree):
    """Parse a family or derivation file; bound its dimension first, then its order."""
    raw = data.get("algebra") if isinstance(data, dict) else None
    labels = raw.get("labels") if isinstance(raw, dict) else None
    if isinstance(labels, list) and len(labels) > HS_MAX_DIM:
        # refused before parsing, whose associativity check is itself a law check
        raise CliError(f"{path}: algebra dimension {len(labels)} exceeds the hs cap {HS_MAX_DIM}")
    try:
        algebra, maps = parse(data)
    except FormatError as exc:
        raise CliError(f"{path}: {exc}") from None
    if len(maps) > max_degree:
        raise CliError(f"{path}: order {len(maps)} exceeds the degree limit {max_degree}")
    return algebra, maps


def _validated_family(path, max_degree) -> HSFamily:
    algebra, maps = _parsed(path, _load_json(path), family_from_data, max_degree)
    try:
        return HSFamily(algebra, maps)  # checks the law once
    except ValueError:
        # only a failing family pays for the second walk that names the witness
        n, i, j = hs_defect(algebra, maps)
        raise CliError(
            f"{path}: input family fails the convolution law at n={n} on basis pair "
            f"({algebra.labels[i]!r}, {algebra.labels[j]!r})",
            code=1,
        ) from None


def _cmd_hs(args) -> int:
    _check_ceiling(args)
    action = args.action
    if action == "validate":
        if args.output is not None:
            raise CliError(
                f"hs validate writes no OUT.json, got {args.output!r}; use --out for its verdict"
            )
        data = _load_json(args.input)
        if isinstance(data, dict) and "maps" in data:
            algebra, maps = _parsed(args.input, data, family_from_data, args.max_degree)
            defect = hs_defect(algebra, maps)
            ok = defect is None
            witness = None if ok else {"n": defect[0], "i": defect[1], "j": defect[2]}
            kind = "family"
        elif isinstance(data, dict) and "derivations" in data:
            algebra, maps = _parsed(args.input, data, derivations_from_data, args.max_degree)
            witness = None
            for t, d in enumerate(maps):
                bad = derivation_defect(d, algebra)
                if bad is not None:
                    witness = {"derivation": t + 1, "i": bad[0], "j": bad[1]}
                    break
            ok = witness is None
            kind = "derivations"
        else:
            raise CliError(f"{args.input}: $: expected an object with 'maps' or 'derivations'")
        verdict = "valid" if ok else "INVALID"
        text = f"{kind} {verdict}" + (f" witness={witness}" if witness else "")
        _emit(args, lambda: text, lambda: {"kind": kind, "valid": ok, "witness": witness})
        return 0 if ok else 1

    if args.output is None:
        raise CliError(f"hs {action} requires an output file")
    if args.out is not None:
        raise CliError(f"hs {action} writes OUT.json; --out {args.out!r} is not used")

    if action in ("extract-delta", "extract-partial"):
        family = _validated_family(args.input, args.max_degree)
        extract = delta_from_d if action == "extract-delta" else partial_from_d
        maps = extract(family)
        _emit(args, None, lambda: derivations_to_data(family.algebra, maps), args.output)
        return 0

    # build-from-delta / build-from-partial
    algebra, maps = _parsed(
        args.input, _load_json(args.input), derivations_from_data, args.max_degree
    )
    build = d_from_delta if action == "build-from-delta" else d_from_partial
    try:
        family = build(maps, algebra)
    except NotADerivationError as exc:
        raise CliError(f"{args.input}: {exc}", code=1) from None
    _emit(args, None, lambda: family_to_data(family.algebra, family.maps), args.output)
    return 0


def _parse_composition(text, what="composition"):
    if text in ("e", ""):
        return ()
    try:
        parts = tuple(int(piece, 10) for piece in text.split(","))
    except ValueError:
        raise CliError(f"{what} must be comma-separated integers or 'e', got {text!r}") from None
    if any(p < 1 for p in parts):
        raise CliError(f"{what} parts must be >= 1, got {text!r}")
    return parts


def _check_weight(total, args, what="weight"):
    if total > args.max_degree:
        raise CliError(f"{what} {total} exceeds the degree limit {args.max_degree}")


def _cmd_qsymm(args) -> int:
    _check_ceiling(args)
    action = args.action
    values = args.args
    if action == "shuffle":
        if len(values) != 2:
            raise CliError("qsymm shuffle takes two compositions")
        a, b = (_parse_composition(v) for v in values)
        _check_weight(sum(a) + sum(b), args, "total weight")
        product = quasi_shuffle(QSPoly.monomial(a), QSPoly.monomial(b), args.max_degree)
        _emit_poly(args, product, "M")
        return 0
    if action == "deconcat":
        if len(values) != 1:
            raise CliError("qsymm deconcat takes one composition")
        a = _parse_composition(values[0])
        _check_weight(sum(a), args)
        tensor = deconcat(QSPoly.monomial(a))
        _emit(args, lambda: render_tensor(tensor, "M"), lambda: tensor_to_data(tensor, "M"))
        return 0
    if action == "dn":
        if len(values) != 2:
            raise CliError("qsymm dn takes an index and a composition")
        try:
            n = int(values[0], 10)
        except ValueError:
            raise CliError(f"dn index must be an integer, got {values[0]!r}") from None
        if n < 1:
            raise CliError(f"dn index must be >= 1, got {n}")
        a = _parse_composition(values[1])
        _check_weight(sum(a), args)
        result = d_qsymm(n, QSPoly.monomial(a))
        _emit_poly(args, result, "M")
        return 0
    # pairing
    if len(values) != 2:
        raise CliError("qsymm pairing takes a monomial composition and a word")
    a = _parse_composition(values[0], "monomial composition")
    w = _parse_composition(values[1], "word")
    _check_weight(sum(a), args, "monomial weight")
    _check_weight(sum(w), args, "word weight")
    value = pairing(QSPoly.monomial(a), NCPoly.word(w))
    _emit(args, lambda: str(value), lambda: {"value": _coeff_data(value.as_integer_ratio())})
    return 0


def _capped(summary, command):
    return f"{summary}. --max-degree is capped at {COMMAND_CEILINGS[command]}."


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsymm",
        description="Exact calculator for noncommutative symmetric functions and the Hasse-Schmidt derivation calculus.",
    )
    common = _common_flags()
    sub = parser.add_subparsers(dest="command", required=True)

    p_newton = sub.add_parser(
        "newton",
        parents=[common],
        help="Newton primitives and generator expansions",
        description=_capped("Newton primitives and generator expansions", "newton"),
    )
    p_newton.add_argument("n", type=_positive_int)
    p_newton.add_argument("--variant", choices=sorted(NEWTON_VARIANTS), default="left")
    p_newton.set_defaults(handler=_cmd_newton)

    p_explog = sub.add_parser(
        "explog",
        parents=[common],
        help="exp/log change of generators",
        description=_capped("The exp/log change of generators", "explog"),
    )
    p_explog.add_argument("n", type=_positive_int)
    p_explog.add_argument("--direction", choices=("z-of-u", "u-of-z"), default="z-of-u")
    p_explog.set_defaults(handler=_cmd_explog)

    p_verify = sub.add_parser(
        "verify",
        parents=[common],
        help="run a named verification suite",
        description="Run a named verification suite. --max-degree is capped per suite: "
        + ", ".join(f"{name} {CEILINGS[name]}" for name in sorted(CEILINGS))
        + ".",
    )
    p_verify.add_argument("suite", choices=sorted(SUITES))
    p_verify.set_defaults(handler=_cmd_verify)

    p_hs = sub.add_parser(
        "hs",
        parents=[common],
        help="Hasse-Schmidt family conversions on test algebras",
        description=_capped("Hasse-Schmidt family conversions on test algebras", "hs")
        + f" The algebra dimension is capped at {HS_MAX_DIM}.",
    )
    p_hs.add_argument(
        "action",
        choices=(
            "validate",
            "extract-delta",
            "extract-partial",
            "build-from-delta",
            "build-from-partial",
        ),
    )
    p_hs.add_argument("input", metavar="IN.json")
    p_hs.add_argument("output", metavar="OUT.json", nargs="?", default=None)
    p_hs.set_defaults(handler=_cmd_hs)

    p_qsymm = sub.add_parser(
        "qsymm",
        parents=[common],
        help="quasi-shuffle algebra operations",
        description=_capped("Quasi-shuffle algebra operations", "qsymm"),
    )
    p_qsymm.add_argument("action", choices=("shuffle", "deconcat", "dn", "pairing"))
    p_qsymm.add_argument("args", nargs="*")
    p_qsymm.set_defaults(handler=_cmd_qsymm)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # The command runs with the cyclic collector paused.  Its term maps are
    # dicts of tuples with no reference cycles, so reference counting frees
    # them, yet the collector would rescan the growing accumulators every
    # few hundred allocations.  The pause spans the whole command: pausing
    # each evaluation alone still runs the pending collection over the
    # image just yielded, each time the collector is switched back on.
    # At interpreter exit, one handler freezes the generations, so the
    # final collection of finalization skips every object still alive
    # (the exit of `verify iso --max-degree 12` went 9.4 to 2.6 ms, median
    # of 21, Python 3.11.7, 2 vCPUs); a caller that stays in process, such
    # as a test run, sees no freeze until its own exit.
    enabled = gc.isenabled()
    gc.disable()
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    try:
        return args.handler(args)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    except BrokenPipeError:
        return 0
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
