"""Seeded input generator for the three workloads.

The seed picks only words and values.  The shape of every input is
fixed here: which levels get generator images, how many terms each
image has, the word length of each term, and the largest coefficient.
So two seeds give inputs of the same size and density, and a run-to-run
difference in cost comes from the program, not from the input.

Everything written goes into one work directory; ``input_properties``
records dim, order, nonzeros and the largest coefficient bit length of
each generated family so they travel with the results.
"""

from __future__ import annotations

import json
import os
import random

# Generator images of the hs-calculus family: criterion 10's pattern,
# (letter, level) -> the words of its terms.  Depth 5, dim 63.  The seed
# picks the letters up to the swap x <-> y, an automorphism of the free
# algebra, so every seed gives a family with the same support.  Drawing
# each word freely from the words of its length moved the family from
# 444 to 2053 nonzeros, and the pass from 7.1 s to 13.0 s.
IMAGE_WORDS = (
    (("x", 1), ("y",)),
    (("x", 2), ("x",)),
    (("y", 1), ("xy",)),
    (("y", 3), ("x", "yy")),
)
HS_DEPTH = 5
COEFF_BOUND = 3  # image coefficients are integers in [1, 3]: no cancellation
# Inner derivations ad(m): each m has TERMS_PER_ELEMENT basis terms on
# fixed labels (see inner_elements), with coefficients p/q, |p| <= 3,
# q in {1, 2}.
UT_SIZE = 4
UT_ORDER = 5
TERMS_PER_ELEMENT = 2

# The cli-requests mix.  Counts, weights and composition lengths are
# fixed; the seed picks the compositions and the order.  Drawing weights
# and lengths from the seed moved the p90 latency from seed to seed.
NEWTON_REQUESTS = 16
EXPLOG_REQUESTS = 10
QSYMM_REQUESTS = {"shuffle": 8, "deconcat": 6, "dn": 8, "pairing": 8}
VERIFY_REQUESTS = tuple(
    (suite, degree)
    for suite in ("primitivity", "newton-consistency", "iso", "qsymm-hs", "hopf-laws")
    for degree in (5, 6)
)
# (name, kind, size, family order): algebras of dim 6, 7, 10, 15 and 31.
CLI_ALGEBRAS = (
    ("ut3", "upper", 3, 3),
    ("fw2", "free", 2, 2),
    ("ut4", "upper", 4, 4),
    ("fw3", "free", 3, 3),
    ("fw4", "free", 4, 4),
)
# The hs requests on each algebra, in order: (action, input file, output
# file).  build-from-* on an extracted sequence must return the family.
HS_STEPS = (
    ("validate", "family", None),
    ("extract-delta", "family", "delta"),
    ("build-from-delta", "delta", "family-via-delta"),
    ("extract-partial", "family", "partial"),
    ("build-from-partial", "partial", "family-via-partial"),
    ("validate", "inner", None),
    ("build-from-partial", "inner", "inner-family"),
)
HS_FILES = ("family", "inner", "delta", "family-via-delta", "partial", "family-via-partial", "inner-family")
CLI_WEIGHT = 8  # every qsymm/newton/explog request stays within the default bound
NEWTON_VARIANTS = ("left", "right", "explicit", "z-in-p", "z-in-p-via-c")


def _rational(rng: random.Random) -> str:
    return f"{rng.choice((-3, -2, -1, 1, 2, 3))}/{rng.choice((1, 2))}"


def generator_images(rng: random.Random, depth: int) -> list:
    """[letter, level, {word: coeff}] of the fixed pattern, levels up to `depth`."""
    swap = str.maketrans("xy", "yx") if rng.random() < 0.5 else str.maketrans("", "")
    return [
        [letter.translate(swap), level, {w.translate(swap): rng.randint(1, COEFF_BOUND) for w in words}]
        for (letter, level), words in IMAGE_WORDS
        if level <= depth
    ]


def mirror(labels) -> dict:
    """A relabelling that is a symmetry of the algebra, so it keeps every derivation's support.

    Words: the swap x <-> y, an automorphism.  Upper triangular matrix
    units: E_ij -> E_(n+1-j)(n+1-i), the transpose along the
    anti-diagonal, an anti-automorphism; ad(m) becomes -ad(m') up to
    relabelling.
    """
    if labels[-1].startswith("E"):
        n = int(labels[-1][-1])
        return {label: f"E{n + 1 - int(label[2])}{n + 1 - int(label[1])}" for label in labels}
    return {label: label.translate(str.maketrans("xy", "yx")) for label in labels}


def inner_elements(rng: random.Random, labels, count: int) -> list:
    """`count` algebra elements of TERMS_PER_ELEMENT terms each.

    Element k takes the labels after the first, TERMS_PER_ELEMENT at a
    time and cycling; the seed picks the coefficients and whether the
    labels are mirrored.  Drawing labels from the seed moved a sequence
    of four derivations over the dim-31 algebra from 8 to 40 nonzeros.
    """
    relabel = mirror(labels) if rng.random() < 0.5 else {label: label for label in labels}
    pool = labels[1:]
    return [
        {relabel[pool[(TERMS_PER_ELEMENT * k + t) % len(pool)]]: _rational(rng) for t in range(TERMS_PER_ELEMENT)}
        for k in range(count)
    ]


def _weight(k: int, low: int = 3) -> int:
    """The weight of the k-th request of a kind: low, low + 1, ..., CLI_WEIGHT, low, ..."""
    return low + k % (CLI_WEIGHT - low + 1)


def _composition(rng: random.Random, weight: int) -> tuple:
    """A composition of `weight` into (weight + 1) // 2 parts; the seed picks which."""
    cuts = sorted(rng.sample(range(1, weight), (weight + 1) // 2 - 1))
    return tuple(b - a for a, b in zip([0, *cuts], [*cuts, weight]))


def _comp_text(parts) -> str:
    return ",".join(str(p) for p in parts) if parts else "e"


# ---------------------------------------------------------------------------
# input properties


def coeff_bits(value) -> int:
    return max(abs(value.numerator).bit_length(), value.denominator.bit_length())


def input_properties(algebra, maps) -> dict:
    entries = [s for m in maps for col in m.columns for s in col if s]
    return {
        "dim": algebra.dim,
        "order": len(maps),
        "nonzeros": len(entries),
        "max_coeff_bits": max(map(coeff_bits, entries), default=0),
    }


# ---------------------------------------------------------------------------
# workload inputs


def hs_calculus_inputs(seed: int) -> dict:
    """The generator images and the inner-derivation sequence of one hs-calculus pass."""
    from nsymm import upper_triangular_algebra

    rng = random.Random(f"hs-calculus/{seed}")
    labels = upper_triangular_algebra(UT_SIZE).labels
    return {
        "depth": HS_DEPTH,
        "images": generator_images(rng, HS_DEPTH),
        "ut_size": UT_SIZE,
        "inner": inner_elements(rng, labels, UT_ORDER),
    }


def _cli_family(rng: random.Random, kind: str, size: int, order: int):
    import nsymm

    if kind == "free":
        algebra = nsymm.free_word_algebra(size)
        images = {
            (letter, level): terms for letter, level, terms in generator_images(rng, size)
        }
        family = nsymm.free_hs_extend(images, algebra, order)
    else:
        algebra = nsymm.upper_triangular_algebra(size)
        derivs = [
            nsymm.inner_derivation(algebra, m) for m in inner_elements(rng, algebra.labels, order)
        ]
        family = nsymm.d_from_partial(derivs, algebra)
    inner = [
        nsymm.inner_derivation(algebra, m) for m in inner_elements(rng, algebra.labels, order)
    ]
    return family, tuple(inner)


def cli_requests(seed: int, workdir: str) -> tuple[list, dict, dict]:
    """Write the family files; return (requests, input properties, objects).

    ``objects`` maps each algebra name to the (family, inner derivations)
    written for it, for the oracle.

    A request is {"name", "argv"}; an hs request that writes a file also
    has "out", "target" and "family_file", the family it started from.
    Requests that read another request's output come after it, so the
    closed loop keeps them in order.
    """
    from nsymm.serialize import derivations_to_data, family_to_data

    rng = random.Random(f"cli-requests/{seed}")
    simple = []
    for k in range(NEWTON_REQUESTS):
        simple.append(["newton", str(_weight(k)), "--variant", NEWTON_VARIANTS[k % len(NEWTON_VARIANTS)]])
    for k in range(EXPLOG_REQUESTS):
        simple.append(["explog", str(_weight(k)), "--direction", ("z-of-u", "u-of-z")[k % 2]])
    for action, count in QSYMM_REQUESTS.items():
        for k in range(count):
            weight = _weight(k, 4)
            if action == "shuffle":
                args = [_comp_text(_composition(rng, weight // 2)), _comp_text(_composition(rng, weight - weight // 2))]
            elif action == "deconcat":
                args = [_comp_text(_composition(rng, weight))]
            elif action == "dn":
                args = [str(1 + k % 3), _comp_text(_composition(rng, weight))]
            else:
                word = _composition(rng, _weight(k))
                other = word if k % 2 else _composition(rng, sum(word))
                args = [_comp_text(word), _comp_text(other)]
            simple.append(["qsymm", action, *args])
    for suite, degree in VERIFY_REQUESTS:
        simple.append(["verify", suite, "--max-degree", str(degree)])
    rng.shuffle(simple)
    queues = [[{"name": argv[0], "argv": argv + ["--format", "json"]} for argv in simple]]

    properties, objects = {}, {}
    for name, kind, size, order in CLI_ALGEBRAS:
        family, inner = _cli_family(rng, kind, size, order)
        objects[name] = (family, inner)
        files = {stem: os.path.join(workdir, f"{name}.{stem}.json") for stem in HS_FILES}
        with open(files["family"], "w", encoding="utf-8") as handle:
            json.dump(family_to_data(family.algebra, family.maps), handle)
        with open(files["inner"], "w", encoding="utf-8") as handle:
            json.dump(derivations_to_data(family.algebra, inner), handle)
        properties[f"{name}.family"] = input_properties(family.algebra, family.maps)
        properties[f"{name}.inner"] = input_properties(family.algebra, inner)
        queue = []
        for action, source, target in HS_STEPS:
            request = {"name": "hs", "algebra": name, "action": action, "source": source}
            argv = ["hs", action, files[source]]
            if target is not None:
                argv.append(files[target])
                request.update(out=files[target], target=target, family_file=files["family"])
            request["argv"] = argv + ["--format", "json"]
            queue.append(request)
        queues.append(queue)
    return _interleave(rng, queues), properties, objects


def _interleave(rng: random.Random, queues) -> list:
    """A seeded interleaving that keeps the order within each queue."""
    queues = [list(reversed(q)) for q in queues if q]
    out = []
    while queues:
        pick = rng.choices(range(len(queues)), weights=[len(q) for q in queues])[0]
        out.append(queues[pick].pop())
        if not queues[pick]:
            del queues[pick]
    return out
