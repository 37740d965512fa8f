"""The hs-calculus pass, run inside one benchmark child process.

Four ops, each timed and then checked outside its timed region:

1. ``algebra``: build the free word algebra of the input depth.
2. ``extend``: ``free_hs_extend`` on the seeded generator images.
3. ``criterion-10``: ``delta_from_d``, then ``operator_from_word_poly``
   of ``z_in_pprime(n)`` for every n up to the order, which must equal
   d_n; every extracted delta must be a derivation.
4. ``round-trips``: ``d_from_delta`` must rebuild the family exactly, and
   ``partial_from_d`` must recover a seeded sequence of inner derivations
   over the upper-triangular algebra from ``d_from_partial`` of it.
"""

from __future__ import annotations

import json
import time

import nsymm
from gen import input_properties


def run(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    clock = time.perf_counter
    seconds = {}

    def timed(step, fn):
        start = clock()
        result = fn()
        seconds[step] = seconds.get(step, 0.0) + clock() - start
        return result

    depth = spec["depth"]
    algebra = timed("algebra", lambda: nsymm.free_word_algebra(depth))
    images = {(letter, level): terms for letter, level, terms in spec["images"]}
    family = timed("extend", lambda: nsymm.free_hs_extend(images, algebra))
    deltas = timed("criterion-10", lambda: nsymm.delta_from_d(family))
    operators = timed(
        "criterion-10",
        lambda: [
            nsymm.operator_from_word_poly(nsymm.z_in_pprime(n, family.order), deltas, algebra.dim)
            for n in range(1, family.order + 1)
        ],
    )
    rebuilt = timed("round-trips", lambda: nsymm.d_from_delta(deltas, algebra))
    upper = nsymm.upper_triangular_algebra(spec["ut_size"])
    inner = tuple(nsymm.inner_derivation(upper, element) for element in spec["inner"])
    built = timed("round-trips", lambda: nsymm.d_from_partial(inner, upper))
    partials = timed("round-trips", lambda: nsymm.partial_from_d(built))

    checks = {
        "algebra": algebra.dim == 2 ** (depth + 1) - 1,
        "extend": family.order == depth and all(not m.is_zero() for m in family.maps),
        "criterion-10": all(op == family.d(n) for n, op in enumerate(operators, start=1))
        and all(nsymm.is_derivation(d, algebra) for d in deltas),
        "round-trips": rebuilt == family
        and partials == inner
        and all(nsymm.is_derivation(p, upper) for p in partials),
    }
    return {
        "step_s": seconds,
        "checks": checks,
        "inputs": {
            "family": input_properties(algebra, family.maps),
            "inner": input_properties(upper, inner),
        },
    }
