"""Named verification suites behind the CLI's `verify` subcommand.

Each suite runs a family of exact identities up to a degree bound and
returns a Report; failures carry witness terms.  The iso and qsymm-hs
suites live with their subject modules and are re-exported here.
"""

from __future__ import annotations

import random

from .config import check_index
from .explog import verify_iso
from .hopf import (
    HopfFamily,
    coassociativity_defect,
    coproduct,
    counit_law_defects,
    primitivity_defect,
)
from .newton import (
    newton_p_explicit,
    newton_p_left,
    newton_p_right,
    z_in_pprime,
    z_in_pprime_via_c,
)
from .poly import NCPoly
from .qsymm import verify_hs_qsymm
from .reports import Report
from .words import compositions_of

_SEED = 0x5EED


def primitivity_suite(max_degree: int) -> Report:
    """Both Newton primitives are primitive at every degree up to the bound."""
    check_index(max_degree, max_degree, what="max_degree")
    report = Report(suite="primitivity", max_degree=max_degree)
    for n in range(1, max_degree + 1):
        for label, poly in (
            ("left Newton primitive", newton_p_left(n, max_degree)),
            ("right Newton primitive", newton_p_right(n, max_degree)),
        ):
            report.timed(
                f"{label} is primitive",
                n,
                lambda: primitivity_defect(poly, HopfFamily.NSYMM, max_degree),
            )
    return report


def newton_consistency_suite(max_degree: int) -> Report:
    """The closed forms, recursions, and expansions agree with one another."""
    check_index(max_degree, max_degree, what="max_degree")
    report = Report(suite="newton-consistency", max_degree=max_degree)
    for n in range(1, max_degree + 1):
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
            lambda: z_in_pprime(n, max_degree).substitute(
                lambda k: newton_p_right(k, max_degree)
            )
            - NCPoly.generator(n),
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
        word = rng.choice(compositions_of(w))
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


# The largest degree `nsymm verify` accepts for each suite: the highest
# degree at which one run took under 5 s and 100 MB peak RSS in process
# (Python 3.11.7, pure-Python kernels, 2 vCPUs).  Measured there:
# primitivity 4.4 s at 14, 9.7 s at 15; iso 3.9 s at 14, 10.9 s at 15;
# newton-consistency 4.5 s at 16, 9.4 s and 142 MB at 17; qsymm-hs 2.6 s
# at 11, 11.2 s and 170 MB at 12; hopf-laws, which samples, 0.9 s and
# 85 MB at 20, where the compositions it samples from double per degree.
CEILINGS = {
    "primitivity": 14,
    "newton-consistency": 16,
    "iso": 14,
    "qsymm-hs": 11,
    "hopf-laws": 20,
}


def run_suite(name: str, max_degree: int) -> Report:
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name](max_degree)
