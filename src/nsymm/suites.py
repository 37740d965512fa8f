"""Named verification suites behind the CLI's `verify` subcommand.

Each suite runs a family of exact identities up to a degree bound and
returns a Report; failures carry witness terms.  The iso and qsymm-hs
suites live with their subject modules and are re-exported here.

A suite that applies a morphism to a family of polynomials, one per
degree, does so in one shared evaluation for the whole family and reads
the images off it in degree order: the first record of the family also
carries its set-up, and the record of degree n the quotients that degree
n is the first to need.  The evaluation starts from the quotient graph
that the family's recursion gives (``newton`` and ``explog``), so no
word of the 2^(n-1) of a degree is walked, and it shares quotients that
are equal up to a scalar: over n <= 12 each side of primitivity and the
substitution of newton-consistency take 78 products, 1 + 2 + ... + 12,
against 364 one degree at a time (and 5,266 for newton-consistency when
only equal quotients were shared); each family of iso takes 353, against
1,024.  The evaluations on a graph run over dense blocks indexed by
composition rank (see "Image forms" in ``poly._evaluate``), and
primitivity and iso compare them block by block with dense closed
forms, decoding only a mismatch to words.  Primitivity runs its left
side to its end before its right one, so the two families' images are
never alive at once, and files the records interleaved by degree.
"""

from __future__ import annotations

import random

from .config import check_index
from .explog import verify_iso
from .hopf import (
    HopfFamily,
    _graph_coproducts,
    _primitive_block_residue,
    coassociativity_defect,
    coproduct,
    counit_law_defects,
)
from .newton import (
    _explicit_blocks,
    _p_left_graph,
    _p_right_graph,
    _z_in_pprime_graph,
    newton_p_explicit,
    newton_p_left,
    newton_p_right,
    z_in_pprime,
    z_in_pprime_via_c,
)
from .poly import NCPoly, _graph_substitutions
from .qsymm import verify_hs_qsymm
from .reports import Report, timed_check
from .words import composition_of_rank

_SEED = 0x5EED


def primitivity_suite(max_degree: int) -> Report:
    """Both Newton primitives are primitive at every degree up to the bound.

    The left primitives over every n <= max_degree share one evaluation of
    their coproducts, from the graph of their recursion, and the right
    ones another, so the record of degree n times only the quotients that
    degree n is the first to need.  Each coproduct, in dense blocks, is
    checked against the closed form of P_n (``newton._explicit_blocks``).
    The left side runs to its end before the right one starts; the
    records are filed by degree, left then right.
    """
    check_index(max_degree, max_degree, what="max_degree")
    report = Report(suite="primitivity", max_degree=max_degree)
    degrees = range(1, max_degree + 1)
    sides = []
    for label, graph, from_suffix in (
        ("left Newton primitive", _p_left_graph, False),
        ("right Newton primitive", _p_right_graph, True),
    ):
        coproducts = _graph_coproducts(graph(max_degree), HopfFamily.NSYMM)
        law = f"{label} is primitive"
        sides.append(
            [
                timed_check(
                    law,
                    n,
                    lambda: _primitive_block_residue(
                        _explicit_blocks(n, from_suffix), next(coproducts)
                    ),
                )
                for n in degrees
            ]
        )
    for checks in zip(*sides):
        for check in checks:
            report.add(check)
    return report


def newton_consistency_suite(max_degree: int) -> Report:
    """The closed forms, recursions, and expansions agree with one another.

    The primitives are substituted back into the expansions of every
    n <= max_degree in one shared evaluation, from the graph of the
    inverted recursion, so the record of degree n times only the
    quotients that degree n is the first to need.
    """
    check_index(max_degree, max_degree, what="max_degree")
    report = Report(suite="newton-consistency", max_degree=max_degree)
    degrees = range(1, max_degree + 1)
    recovered = _graph_substitutions(
        _z_in_pprime_graph(max_degree), lambda k: newton_p_right(k, max_degree)
    )
    for n in degrees:
        report.timed(
            "closed form equals left recursion",
            n,
            lambda: newton_p_explicit(n, max_degree) - newton_p_left(n, max_degree),
        )
        report.timed(
            "suffix-sum coefficients equal recursive inversion",
            n,
            lambda: z_in_pprime_via_c(n, max_degree) - z_in_pprime(n, max_degree),
        )
        report.timed(
            "substituting the primitives back recovers the generator",
            n,
            lambda: next(recovered) - NCPoly.generator(n),
        )
        report.timed(
            "word reversal swaps left and right primitives",
            n,
            lambda: newton_p_left(n, max_degree).reverse_words() - newton_p_right(n, max_degree),
        )
        report.timed(
            "right primitive is n*Z_n modulo longer words",
            n,
            lambda: any(
                len(word) < 2
                for word in (
                    newton_p_right(n, max_degree) - NCPoly.generator(n).scale(n)
                ).support()
            ),
        )
        if n >= 2:
            report.timed(
                "generator expansion needs denominators",
                n,
                lambda: z_in_pprime(n, max_degree).is_integral(),
            )
    return report


def _random_poly(rng: random.Random, max_weight: int) -> NCPoly:
    terms = {}
    for _ in range(rng.randint(1, 3)):
        w = rng.randint(0, max_weight)
        # the draw that rng.choice(compositions_of(w)) makes, without the list
        word = composition_of_rank(w, rng.randrange(1 << (w - 1) if w else 1))
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        terms[word] = terms.get(word, 0) + c
    return NCPoly(terms)


def _first_triple(defect: dict):
    """The first discrepant key of a coassociativity defect, as a record."""
    return {"triple": [list(w) for w in next(iter(defect))]} if defect else None


def hopf_laws_suite(max_degree: int) -> Report:
    """Coassociativity, counit laws, and multiplicativity, both families."""
    check_index(max_degree, max_degree, what="max_degree")
    report = Report(suite="hopf-laws", max_degree=max_degree)
    families = (HopfFamily.NSYMM, HopfFamily.LIEHOPF)
    for family in families:
        for n in range(1, max_degree + 1):
            g = NCPoly.generator(n)
            report.timed(
                f"coassociativity on a generator [{family.value}]",
                n,
                lambda: _first_triple(coassociativity_defect(g, family, max_degree)),
            )
            report.timed(
                f"counit laws on a generator [{family.value}]",
                n,
                lambda: next(filter(None, counit_law_defects(g, family, max_degree)), None),
            )

    rng = random.Random(_SEED)
    for family in families:
        for trial in range(8):
            p = _random_poly(rng, max_degree // 2)
            q = _random_poly(rng, max_degree - max(p.degree, 0))
            report.timed(
                f"coproduct is multiplicative on a sampled pair [{family.value}]",
                max(p.degree, 0) + max(q.degree, 0),
                lambda: coproduct(p * q, family, max_degree)
                - coproduct(p, family, max_degree) * coproduct(q, family, max_degree),
            )
    return report


SUITES = {
    "primitivity": primitivity_suite,
    "newton-consistency": newton_consistency_suite,
    "iso": verify_iso,
    "qsymm-hs": verify_hs_qsymm,
    "hopf-laws": hopf_laws_suite,
}


# The largest degree `nsymm verify` accepts for each suite: a degree at
# which one run took under 5 s and 100 MB of own peak (VmHWM) in a fresh
# process (Python 3.11.7, pure-Python kernels, 2 vCPUs), raised one
# measured step at a time.  Measured there, three fresh processes each:
# primitivity, whose graphs are evaluated over dense blocks, 0.6-0.9 s
# and 47 MB at 17, and 1.3 s and 80 MB at 18 in one run; iso 0.7-1.0 s
# and 49 MB at 16, 1.4-2.1 s and 87 MB at 17, which passes the rule but
# keeps a 13% memory margin that is unmeasured on Python 3.10 and 3.12;
# newton-consistency 0.36-0.55 s and 72 MB at 16, 0.75-1.16 s and 131 MB
# at 17; qsymm-hs, which walks only the Lyndon left factors, 1.6-2.2 s
# and 35 MB at 13, 4.6-5.1 s and 60 MB at 14; hopf-laws, which samples
# each word by its rank without listing the compositions of its weight,
# 0.3 s and 55 MB at 20.
CEILINGS = {
    "primitivity": 17,
    "newton-consistency": 16,
    "iso": 16,
    "qsymm-hs": 13,
    "hopf-laws": 20,
}


def run_suite(name: str, max_degree: int) -> Report:
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name](max_degree)
