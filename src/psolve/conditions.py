"""Fast incomplete criteria: each check either settles the instance
definitively or reports Unknown.

* all_large_subsets_check: over an odd universe of 2k+1 vertices, an
  instance whose E/F intersection contains every (k+1)-subset must fail
  (one partition cell has at least k+1 vertices and so swallows one of
  those subsets whole).
* upset_bound_check: counting the subsets of V that contain some E- or
  F-set; strictly fewer than 2^(|V|-1) of them guarantees HasS.
* weight_check: sum of 2^(-|A|) over the distinct sets of both families;
  strictly below 1/2 guarantees HasS.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .core import Antichain, Bihypergraph, Verdict, family_intersection

CRITERION_ALL_LARGE_SUBSETS = "all-large-subsets"
CRITERION_UPSET_BOUND = "upset-bound"
CRITERION_WEIGHT_SUM = "weight-sum"

DEFAULT_COMBINATION_CAP = 1_000_000
DEFAULT_UPSET_VERTEX_CAP = 24


@dataclass(frozen=True)
class ConditionReport:
    """One criterion's verdict with the measured quantity behind it."""

    criterion: str
    verdict: Verdict
    computed: Any = None
    threshold: Any = None
    note: str = ""


def all_large_subsets_check(b: Bihypergraph,
                            max_combinations: int = DEFAULT_COMBINATION_CAP) -> ConditionReport:
    """FailsS when |V| = 2k+1 and every (k+1)-subset of V lies in both
    families; Unknown otherwise (including even |V| and capped instances)."""
    n = b.vertex_count
    crit = CRITERION_ALL_LARGE_SUBSETS
    if n % 2 == 0:
        return ConditionReport(crit, Verdict.UNKNOWN,
                               note=f"|V| = {n} is not of the form 2k+1")
    k = (n - 1) // 2
    needed = math.comb(n, k + 1)
    if needed > max_combinations:
        return ConditionReport(
            crit, Verdict.UNKNOWN, computed=k,
            note=f"C({n},{k + 1}) = {needed} exceeds the cap {max_combinations}")
    common = {vs.mask for vs in family_intersection(b.e_sets, b.f_sets)}
    for combo in itertools.combinations(range(n), k + 1):
        mask = 0
        for v in combo:
            mask |= 1 << v
        if mask not in common:
            missing = "{" + ", ".join(b.names[v] for v in combo) + "}"
            return ConditionReport(
                crit, Verdict.UNKNOWN, computed=k,
                note=f"{missing} is not in both families")
    return ConditionReport(
        crit, Verdict.FAILS_S, computed=k,
        note=f"both families contain all {needed} subsets of {k + 1} vertices")


def upset_bound_check(b: Bihypergraph,
                      max_vertices: int = DEFAULT_UPSET_VERTEX_CAP) -> ConditionReport:
    """HasS when the number of subsets of V containing some E- or F-set is
    strictly below 2^(|V|-1); counted exactly by enumerating all subsets."""
    n = b.vertex_count
    crit = CRITERION_UPSET_BOUND
    if n > max_vertices:
        return ConditionReport(
            crit, Verdict.UNKNOWN,
            note=f"|V| = {n} exceeds the enumeration cap {max_vertices}")
    minimal = Antichain()
    for s in itertools.chain(b.e_sets, b.f_sets):
        if not minimal.has_subset(s.mask):
            minimal.add(s.mask)
    count = sum(1 for mask in range(1 << n) if minimal.has_subset(mask))
    # Strict comparison against 2^(n-1), kept integral as 2*count < 2^n.
    verdict = Verdict.HAS_S if 2 * count < (1 << n) else Verdict.UNKNOWN
    threshold = (1 << (n - 1)) if n else Fraction(1, 2)
    return ConditionReport(crit, verdict, computed=count, threshold=threshold)


def weight_check(b: Bihypergraph) -> ConditionReport:
    """HasS when the sum of 2^(-|A|) over the distinct sets of E union F is
    strictly below 1/2; computed in exact rational arithmetic."""
    union = {s.mask for s in b.e_sets} | {s.mask for s in b.f_sets}
    total = sum((Fraction(1, 1 << m.bit_count()) for m in union), Fraction(0))
    verdict = Verdict.HAS_S if total < Fraction(1, 2) else Verdict.UNKNOWN
    return ConditionReport(CRITERION_WEIGHT_SUM, verdict,
                           computed=total, threshold=Fraction(1, 2))


def analyze(b: Bihypergraph,
            max_combinations: int = DEFAULT_COMBINATION_CAP,
            max_vertices: int = DEFAULT_UPSET_VERTEX_CAP) -> tuple[ConditionReport, ...]:
    """Run all three criteria."""
    return (all_large_subsets_check(b, max_combinations),
            upset_bound_check(b, max_vertices),
            weight_check(b))
