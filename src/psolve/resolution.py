"""Generalized n-ary resolution over vertex sets.

The rule: from clauses c1..cn and a pivot set d = {v1..vn} with vi in ci,
derive the resolvent e = union of (ci minus {vi}).  Closing one family under
resolution on pivots drawn from the other decides property S: the instance
fails iff the empty set is derivable.  This module implements single steps,
closures with subsumption reduction, alternating closures, refutation
extraction, and an independent refutation checker.  Each kept set carries
its own derivation (see ``_run_closure``), so a refutation is unwound from
the empty set alone, and a subsumed set's derivation is freed with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterable, Sequence

from .core import Antichain, Bihypergraph, Certificate, Verdict, VertexSet


class ResourceLimitError(Exception):
    """Closure limits were exhausted before the answer was known.

    The result is indeterminate: it must never be reported as HasS.
    """


@dataclass(frozen=True)
class Limits:
    """Caps on closure work, nonnegative.

    ``max_sets`` caps the kept sets of a closure and also the distinct
    unions that one level of a pivot's union DP forms, before they are
    reduced; a state that holds one of the member's contributions forms
    only itself (see ``_pivot_resolvents``).  There is no separate fan-out
    cap and no work or time budget.
    """

    max_sets: int = 1_000_000

    def __post_init__(self) -> None:
        if self.max_sets < 0:
            raise ValueError(f"limits must be nonnegative, got {self}")


DEFAULT_LIMITS = Limits()

MODE_E_OVER_F = "E-over-F"
MODE_F_OVER_E = "F-over-E"


@dataclass(frozen=True)
class ResolutionStep:
    """One resolution inference, annotated as (premises / pivot).

    ``premises`` and ``pivot`` are references: family labels or ids of
    earlier steps.  ``pairing`` maps each pivot element (ascending vertex id)
    to a position in ``premises``; None means the pairing was not recorded
    (e.g. a transcribed proof) and the checker must find one.
    """

    step_id: str
    conclusion: VertexSet
    premises: tuple[str, ...]
    pivot: str
    pairing: tuple[tuple[int, int], ...] | None = None


@dataclass(frozen=True)
class Refutation:
    """A derivation of the empty set: topologically ordered steps, the last
    concluding the empty set, under one closure discipline (``mode``)."""

    mode: str
    steps: tuple[ResolutionStep, ...]


@dataclass(frozen=True)
class ClosureStats:
    generated: int
    kept: int
    subsumed: int
    rounds: int


@dataclass(frozen=True)
class ClosureResult:
    """Subsumption-reduced closure: an antichain of sets.

    ``contains_empty`` answers empty-set membership for the true, unreduced
    closure; subsumption reduction does not change that answer.  When true,
    ``sets`` is exactly (the empty set,).
    """

    sets: tuple[VertexSet, ...]
    contains_empty: bool
    stats: ClosureStats


@dataclass(frozen=True)
class CheckResult:
    """Outcome of refutation checking; falsy with the first failing step."""

    ok: bool
    step_id: str | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _pairing_union(prem_masks: Sequence[int], pivot_mask: int,
                   pairing: Iterable[tuple[int, int]]) -> int:
    """``resolve`` on masks: the resolvent mask, or a ValueError naming the
    first fault of the pairing."""
    covered = 0
    out = 0
    for v, idx in pairing:
        if v < 0 or not (pivot_mask >> v) & 1:
            raise ValueError(f"pairing vertex {v} is not in the pivot")
        bit = 1 << v
        if covered & bit:
            raise ValueError(f"pivot element {v} paired more than once")
        covered |= bit
        if not 0 <= idx < len(prem_masks):
            raise ValueError(f"premise index {idx} out of range")
        if not prem_masks[idx] & bit:
            raise ValueError(f"paired vertex {v} is absent from premise {idx}")
        out |= prem_masks[idx] & ~bit
    if covered != pivot_mask:
        raise ValueError("pivot element left unpaired")
    return out


def resolve(premises: Sequence[VertexSet], pivot: VertexSet,
            pairing: Iterable[tuple[int, int]]) -> VertexSet:
    """Apply one resolution step and return the resolvent.

    ``pairing`` lists (pivot vertex, premise index) pairs; every pivot
    element must be paired exactly once with a premise containing it.
    Premises may repeat: one set may serve several pivot elements.
    """
    return VertexSet(_pairing_union([p.mask for p in premises], pivot.mask,
                                    pairing))


class _Stats:
    __slots__ = ("generated", "kept", "subsumed", "rounds")

    def __init__(self) -> None:
        self.generated = 0
        self.kept = 0
        self.subsumed = 0
        self.rounds = 0

    def freeze(self) -> ClosureStats:
        return ClosureStats(self.generated, self.kept, self.subsumed, self.rounds)


def _minimal_masks(masks: Iterable[int], known: set[int]) -> set[int]:
    """The subset-minimal members of a collection of distinct masks, given
    ``known``, members already known to be minimal among them all.

    The known masks are kept and filed with no subset scan.  The others are
    visited by size, so no later mask is a subset of a kept one and nothing
    kept is ever evicted: a mask is kept iff no kept mask is a subset of it.
    The kept masks are filed in plain lists under their lowest member, so
    the masks must be nonempty.  The union DP forms the empty mask only as
    an absorbed state ``0``, its level's only state, and then makes no call.
    """
    by_low: dict[int, list[int]] = {}
    kept = set(known)
    for u in known:
        by_low.setdefault(u & -u, []).append(u)
    for u in sorted((u for u in masks if u not in known), key=int.bit_count):
        rest = u
        while rest:
            bit = rest & -rest
            rest ^= bit
            bucket = by_low.get(bit)
            if bucket is not None:
                for k in bucket:
                    if k & u == k:
                        break
                else:
                    continue
                break
        else:
            kept.add(u)
            low = u & -u
            if low in by_low:
                by_low[low].append(u)
            else:
                by_low[low] = [u]
    return kept


def _pivot_resolvents(working: Iterable[tuple[int, object]] | Antichain,
                      pivot_mask: int, limits: Limits, stats: _Stats,
                      prune_against: Antichain | None = None):
    """All resolvents of ``working`` on one pivot, subsumption-reduced.

    Runs a union DP over the pivot elements in ascending id order: the
    states of a level are the minimal achievable unions of contributions so
    far.  Reducing each level preserves the minimal resolvents exactly (a
    dominated partial union can only lead to a dominated resolvent) and
    keeps the fan-out polynomial in practice where literal pairing
    enumeration is exponential in the pivot size.  Each level is one batch
    pass over its pivot member:

    1. A state ``s`` that holds some contribution ``cm``, so that
       ``s | cm == s``, is absorbed: it goes into the candidate dict once,
       with the payload ``(s, v, ref)`` of its first such contribution,
       and forms none of its other unions.
    2. Every other state's unions ``s | cm`` go into the dict in
       generation order; each keeps the payload ``(s, v, ref)`` of its
       first occurrence.  More than ``limits.max_sets`` distinct unions
       formed raise ``ResourceLimitError``; the count is checked after
       each state.
    3. Keep the subset-minimal candidates (``_minimal_masks``, told that
       the absorbed states are minimal; it is skipped when every state is
       absorbed).
    4. Drop those that are supersets of a mask of ``prune_against``.  An
       absorbed state passed that test at the previous level and takes it
       only at level 0, where the state ``0`` has taken none.
    5. The level's states are the kept candidates in first-occurrence
       order, each with its first payload; the candidate dict is dropped.

    This is exactly what feeding every union one by one through an
    antichain gives.  A dominated candidate stays dominated, so that
    antichain ends with the minimal candidates, each inserted at its first
    occurrence with that occurrence's pairing.  The states are an
    antichain, so a union ``t | cm`` inside an absorbed state ``s`` has
    ``t`` inside ``s``, so ``t == s``: ``s`` is minimal, occurs first at
    its own first contribution inside it, and dominates all its other
    unions, which are thus never formed.  And the prune is upward closed,
    so pruning the minimal candidates keeps the same set as taking the
    minimal members of the unpruned ones.

    ``working`` is any family of (mask, payload) pairs, or the
    ``Antichain`` that is also ``prune_against``: the closure's own call.
    Then the first level's candidates ``m - v`` are distinct, pairwise
    incomparable and contain no kept mask, so they are taken as the level's
    states as they are; the level cap still applies.

    Returns a list of (mask, pairing); a pairing is a tuple of (vertex,
    payload) pairs in ascending vertex order, the payload being that of the
    ``working`` set paired with the vertex.  The closure loop inserts the
    finals with no further subsumption test; the public enumeration must
    not prune.
    """
    own = working is prune_against
    items = list(prune_against.sets.items() if own else working)
    members = VertexSet(pivot_mask).members
    states: dict[int, tuple | None] = {0: None}
    level_maps: list[dict[int, tuple]] = []
    pruned = prune_against.has_subset if prune_against is not None else None
    for i, v in enumerate(members):
        bit = 1 << v
        choices = [(m & ~bit, ref) for m, ref in items if m & bit]
        if not choices:
            return []
        if own and i == 0:
            if len(choices) > limits.max_sets:
                raise ResourceLimitError(
                    f"pivot fan-out exceeded max_sets={limits.max_sets}")
            states = {cm: (0, v, ref) for cm, ref in choices}
        else:
            candidates: dict[int, tuple] = {}
            absorbed: set[int] = set()
            for s in states:
                for cm, ref in choices:
                    if s | cm == s:
                        candidates[s] = (s, v, ref)
                        absorbed.add(s)
                        break
                else:
                    for cm, ref in choices:
                        u = s | cm
                        if u not in candidates:
                            candidates[u] = (s, v, ref)
                if len(candidates) > limits.max_sets:
                    raise ResourceLimitError(
                        f"pivot fan-out exceeded max_sets={limits.max_sets}")
            keep = (absorbed if len(absorbed) == len(candidates)
                    else _minimal_masks(candidates, absorbed))
            passed = absorbed if i else ()
            states = {u: payload for u, payload in candidates.items()
                      if u in keep and (u in passed or pruned is None
                                        or not pruned(u))}
            del candidates
        if not states:
            return []
        level_maps.append(states)

    finals = []
    for final_mask in states:
        pairing = []
        cur = final_mask
        for level in reversed(level_maps):
            prev, v, ref = level[cur]
            pairing.append((v, ref))
            cur = prev
        pairing.reverse()
        finals.append((final_mask, tuple(pairing)))
    stats.generated += len(finals)
    return finals


def all_resolvents(working: Iterable[VertexSet], pivot: VertexSet,
                   limits: Limits | None = None) -> tuple[VertexSet, ...]:
    """Every resolvent obtainable from ``working`` by resolving on ``pivot``,
    deduplicated and subsumption-reduced against each other.

    ``working`` may be any family: repeated sets and sets containing others
    are allowed.  The empty pivot yields the single resolvent {} (the empty
    union over zero premises).
    """
    limits = limits or DEFAULT_LIMITS
    items = [(vs.mask, None) for vs in working]
    finals = _pivot_resolvents(items, pivot.mask, limits, _Stats())
    return tuple(sorted((VertexSet(m) for m, _ in finals), key=lambda v: v.members))


def _member_bits(mask: int) -> list[int]:
    """The single-bit masks of ``mask``'s members, lowest first."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low)
        mask ^= low
    return bits


def _cheapest_first(pivots: dict[int, object], antichain: Antichain):
    """Yield the (mask, ref) items of ``pivots``, each time the one of least
    cost against ``antichain`` as it stands at that moment.

    A pivot's cost is the product, over its members, of the number of kept
    sets that hold the member: the number of pairings its DP could make,
    Davis-Putnam's |pos|*|neg| estimate and SatELite's elimination cost
    (Een & Biere 2005).  Ties go to the first in ``pivots``' order.  A pivot
    of cost 0 has a member that no kept set holds, and never gets one, since
    a resolvent lies inside the union of the sets it resolves: it would
    derive nothing, so it is dropped unyielded.  Every pick recomputes the
    costs of the pivots left.
    """
    occurrences = antichain.occurrences
    left = [(dmask, dref, _member_bits(dmask)) for dmask, dref in pivots.items()]
    while left:
        costs = [prod(map(occurrences, bits)) for _, _, bits in left]
        if 0 in costs:
            left = [item for item, cost in zip(left, costs) if cost]
            if not left:
                return
            costs = [cost for cost in costs if cost]
        dmask, dref, _ = left.pop(costs.index(min(costs)))
        yield dmask, dref


def _run_closure(base_items: Iterable[tuple[int, object]],
                 pivot_items: Iterable[tuple[int, object]],
                 limits: Limits, stats: _Stats):
    """Close ``base_items`` under resolution on ``pivot_items``.

    Maintains the kept sets as an indexed ``Antichain`` (only subset-minimal
    sets survive), which is both the working family and the prune of each
    pivot's union DP, and stops as soon as the empty set is derived.

    One pass over the distinct pivots saturates, as in Davis-Putnam
    elimination done one pivot at a time (Davis & Putnam 1960; Dechter &
    Rish 1994).  Let Phi_i say "X meets every base set and contains none of
    the pivots d_1..d_i".  After d_i's DP, the antichain has a subset of
    every S that Phi_i implies (every X satisfying Phi_i meets S).  For
    i = 0 that S contains a base set.  For i > 0 and v in d_i, Phi_(i-1)
    implies S + {v}, so by induction some kept a_v lies inside it; either
    some a_v lies inside S, or the resolvent of the a_v on d_i does, and
    the DP keeps it or a subset of it.  A kept set is only ever replaced by
    a subset of itself, so at the end every resolvent, which Phi_k implies,
    contains a kept set: a second pass would derive nothing.

    The argument holds for every order of the pivots, and Phi_k and its
    prime implicates do not depend on it, so the pivots go cheapest first
    (``_cheapest_first``): each time, the one whose members the fewest kept
    sets hold, by product.  The kept sets are the same under any order of
    the input sets; the derivations, the refutations and the stats are not.

    Items are (mask, payload) pairs; an input set's payload is its label
    (None from ``closure``, whose refs nobody reads).  A derived set is
    kept with its derivation ``(number, mask, pivot_ref, pairing)``:
    ``number`` is ``stats.kept`` at its insertion, so numbers follow
    derivation order across a whole chain, and the refs are the payloads
    of its pivot and of the sets in its pairing.

    Returns (antichain, contains_empty) where antichain maps each kept mask
    to its payload, in insertion order; when contains_empty, the empty mask
    is its only key.
    """
    antichain = Antichain()

    def insert(mask: int, ref) -> None:
        stats.subsumed += len(antichain.add(mask, ref))
        stats.kept += 1
        if stats.kept > limits.max_sets:
            raise ResourceLimitError(f"kept-set limit {limits.max_sets} exceeded")

    for mask, ref in base_items:
        if antichain.has_subset(mask):
            stats.subsumed += 1
            continue
        insert(mask, ref)
        if mask == 0:
            return antichain.sets, True

    pivots: dict[int, object] = {}
    for mask, ref in pivot_items:
        pivots.setdefault(mask, ref)
    if pivots:
        stats.rounds += 1
    for dmask, dref in _cheapest_first(pivots, antichain):
        finals = _pivot_resolvents(antichain, dmask, limits, stats,
                                   prune_against=antichain)
        # No final needs a subsumption test: the DP pruned each against this
        # antichain, and the finals are an antichain themselves.
        for mask, pairing in finals:
            insert(mask, (stats.kept, mask, dref, pairing))
            if mask == 0:
                return antichain.sets, True
    return antichain.sets, False


def _family_items(b: Bihypergraph, side: str) -> list[tuple[int, str]]:
    sets, labels = ((b.e_sets, b.e_labels) if side == "E"
                    else (b.f_sets, b.f_labels))
    return [(vs.mask, label) for vs, label in zip(sets, labels)]


def _closure_result(antichain, contains_empty, stats: _Stats) -> ClosureResult:
    sets = tuple(sorted((VertexSet(m) for m in antichain), key=lambda v: v.members))
    return ClosureResult(sets, contains_empty, stats.freeze())


def closure(a_family: Iterable[VertexSet], d_family: Iterable[VertexSet],
            limits: Limits | None = None) -> ClosureResult:
    """The closure of ``a_family`` under resolution on pivots from
    ``d_family``, subsumption-reduced, with early exit once {} is derived."""
    limits = limits or DEFAULT_LIMITS
    stats = _Stats()
    base = [(vs.mask, None) for vs in a_family]
    pivots = [(vs.mask, None) for vs in d_family]
    antichain, has_empty = _run_closure(base, pivots, limits, stats)
    return _closure_result(antichain, has_empty, stats)


def _alternating_items(b: Bihypergraph, n: int, side: str, limits: Limits,
                       stats: _Stats):
    """Iterated closure chain: level 0 is the (reduced) base family, level 1
    closes the base family over the other family's input sets, and level k
    closes it over the level k-1 closure of the other side.

    Level 1 resolves on input sets (``_run_closure`` drops repeated pivot
    masks), so level 0 is computed, and counted in ``stats``, only when it
    is the level asked for.  Every level k >= 2 runs as level 2: level 1
    from the other side, C, then the side closed over C.  A complete C is
    the minimal sets inside no X that meets the side's sets and holds none
    of the other's (``_run_closure``); each of those holds a set of C, so
    these X are exactly those that meet the side's sets and hold none of C.
    So closing over C is level 1 again, and by induction so is level k.  A
    C that holds {} is {} alone, and its empty pivot derives {} again.

    Returns (antichain, contains_empty) of the requested level.
    """
    other = "F" if side == "E" else "E"
    pivots: Iterable[tuple[int, object]] = _family_items(b, other) if n else ()
    if n > 1:
        antichain, _ = _run_closure(pivots, _family_items(b, side), limits, stats)
        pivots = antichain.items()
    return _run_closure(_family_items(b, side), pivots, limits, stats)


def alternating_closure(b: Bihypergraph, n: int, side: str = "E",
                        limits: Limits | None = None) -> ClosureResult:
    """The depth-n alternating closure starting from the given family.

    side='E' computes the chain whose level 1 closes E over the input
    F-sets and whose level k closes E over the level k-1 closure of F, and
    symmetrically for side='F'.  n=0 returns the reduced base family; each
    n >= 1 gives level 1's sets, its stats counting no level-0 pass.
    """
    if side not in ("E", "F"):
        raise ValueError("side must be 'E' or 'F'")
    if n < 0:
        raise ValueError("depth must be nonnegative")
    limits = limits or DEFAULT_LIMITS
    stats = _Stats()
    antichain, has_empty = _alternating_items(b, n, side, limits, stats)
    return _closure_result(antichain, has_empty, stats)


def _parse_strategy(strategy: str) -> str:
    """A strategy's proof mode label; ``_parse_mode`` gives its chain."""
    if strategy == "ef":
        return MODE_E_OVER_F
    if strategy == "fe":
        return MODE_F_OVER_E
    if strategy.startswith("alt:"):
        depth = strategy[4:]
        if depth.isascii() and depth.isdigit() and int(depth) > 0:
            return f"alternating {int(depth)}"
    raise ValueError(f"unknown strategy {strategy!r} (expected ef, fe or alt:N)")


def _fresh_step_ids(count: int, taken: set[str]) -> list[str]:
    prefix = "r"
    while any(f"{prefix}{k + 1}" in taken for k in range(count)):
        prefix += "r"
    return [f"{prefix}{k + 1}" for k in range(count)]


def _extract_refutation(b: Bihypergraph, final: tuple, mode: str) -> Refutation:
    """Unwind the derivation ``final`` (a derived set's payload) into steps
    in derivation order; input refs are named by their own labels."""
    needed: dict[int, tuple] = {}
    stack = [final]
    while stack:
        record = stack.pop()
        if record[0] in needed:
            continue
        needed[record[0]] = record
        _, _, pivot_ref, pairing = record
        stack.extend(ref for ref in (pivot_ref, *(r for _, r in pairing))
                     if not isinstance(ref, str))
    order = sorted(needed)
    taken = set(b.e_labels) | set(b.f_labels)
    ids = dict(zip(order, _fresh_step_ids(len(order), taken)))

    def ref_str(ref) -> str:
        return ref if isinstance(ref, str) else ids[ref[0]]

    steps = []
    for j in order:
        _, mask, pivot_ref, pairing = needed[j]
        premises: list[str] = []
        position: dict[str, int] = {}
        pairs = []
        for v, ref in pairing:
            name = ref_str(ref)
            if name not in position:
                position[name] = len(premises)
                premises.append(name)
            pairs.append((v, position[name]))
        steps.append(ResolutionStep(ids[j], VertexSet(mask), tuple(premises),
                                    ref_str(pivot_ref), tuple(pairs)))
    return Refutation(mode, tuple(steps))


def decide_by_resolution(b: Bihypergraph, strategy: str = "ef",
                         limits: Limits | None = None) -> Certificate:
    """Decide property S by the chosen closure discipline.

    The strategy names a proof mode, whose rule (``_parse_mode``) fixes the
    alternating chain: 'ef' runs its depth-1 level from E (E closed over the
    input F-sets), 'fe' its depth-1 level from F, and 'alt:N' its depth-N
    level from E: 'ef''s verdict, by proofs of depth <= 2.  A fixed point
    without {} certifies HasS; otherwise {}'s derivation is unwound into a
    Refutation, or, when {} is an input set, FailsS has no derivation.
    """
    limits = limits or DEFAULT_LIMITS
    mode = _parse_strategy(strategy)
    side, depth = _parse_mode(mode)
    stats = _Stats()
    antichain, has_empty = _alternating_items(b, depth, side or "E", limits,
                                              stats)
    if not has_empty:
        return Certificate(Verdict.HAS_S, None, "resolution", stats.freeze())
    ref = antichain[0]  # the empty mask, by now the only kept one
    witness = None
    if not isinstance(ref, str):
        witness = _extract_refutation(b, ref, mode)
    return Certificate(Verdict.FAILS_S, witness, "resolution", stats.freeze())


def _parse_mode(mode: str) -> tuple[str | None, int]:
    """A proof mode's rule: (the side every step must close, or None for
    either, and the alternation depth cap)."""
    if mode == MODE_E_OVER_F:
        return "E", 1
    if mode == MODE_F_OVER_E:
        return "F", 1
    parts = mode.split()
    if (len(parts) == 2 and parts[0] == "alternating" and parts[1].isascii()
            and parts[1].isdigit()):
        return None, int(parts[1])
    raise ValueError(f"unknown proof mode {mode!r}")


_PAIRING_SEARCH_CAP = 1 << 16


def _find_pairing(conclusion: int, prem_masks: list[int], pivot_mask: int):
    """Is some assignment of premises to pivot elements a valid derivation
    of ``conclusion``?  Returns an error reason or None.

    Premise lists in transcribed proofs are unordered and may serve several
    pivot elements, so this searches over achievable unions (contributions
    outside the conclusion can never participate and are dropped first).
    """
    states = {0}
    for v in VertexSet(pivot_mask).members:
        bit = 1 << v
        options = {pm & ~bit for pm in prem_masks
                   if pm & bit and (pm & ~bit) & ~conclusion == 0}
        if not options:
            return f"no listed premise both contains pivot vertex {v} and stays inside the conclusion"
        states = {s | o for s in states for o in options}
        if len(states) > _PAIRING_SEARCH_CAP:
            return "pairing search exceeded its cap"
    if conclusion not in states:
        return "no pairing of premises to pivot elements yields the conclusion"
    return None


def check_refutation(b: Bihypergraph, refutation: Refutation) -> CheckResult:
    """Validate a refutation against an instance.

    Every step must be a correct resolution inference under one rule.  Its
    side is the mode's side when the mode fixes one (E-over-F, F-over-E),
    else its premises' common side; its pivot comes from the opposite side;
    its depth is the largest of its premises' depths and its pivot's depth
    plus one, input sets having depth 0.  The final conclusion must be the
    empty set, at a depth within the mode's cap (1 for E-over-F and
    F-over-E, N for alternating N).  Returns a falsy CheckResult naming
    the first failing step instead of raising.
    """
    try:
        mode_side, depth_cap = _parse_mode(refutation.mode)
    except ValueError as exc:
        return CheckResult(False, None, str(exc))
    if not refutation.steps:
        return CheckResult(False, None, "proof has no steps")

    e_tbl = {lab: b.e_sets[i].mask for i, lab in enumerate(b.e_labels)}
    f_tbl = {lab: b.f_sets[i].mask for i, lab in enumerate(b.f_labels)}
    # info per reference: (mask, side, depth)
    step_infos: dict[str, tuple[int, str, int]] = {}

    def resolve_ref(token: str):
        if token in step_infos:
            return step_infos[token]
        in_e, in_f = token in e_tbl, token in f_tbl
        if in_e and in_f:
            return f"ambiguous reference {token!r} (a label in both families)"
        if in_e:
            return (e_tbl[token], "E", 0)
        if in_f:
            return (f_tbl[token], "F", 0)
        return f"unknown reference {token!r}"

    last_info = None
    for step in refutation.steps:
        sid = step.step_id
        if sid in step_infos:
            return CheckResult(False, sid, "duplicate step id")
        if sid in e_tbl or sid in f_tbl:
            return CheckResult(False, sid, "step id shadows an instance label")
        if step.conclusion.mask >> b.vertex_count:
            return CheckResult(False, sid, "conclusion member out of range")

        prem_infos = []
        for token in step.premises:
            info = resolve_ref(token)
            if isinstance(info, str):
                return CheckResult(False, sid, info)
            prem_infos.append(info)
        pivot_info = resolve_ref(step.pivot)
        if isinstance(pivot_info, str):
            return CheckResult(False, sid, pivot_info)

        pivot_side = pivot_info[1]
        if mode_side is not None:
            side = mode_side
            for token, info in zip(step.premises, prem_infos):
                if info[1] != side:
                    return CheckResult(
                        False, sid,
                        f"premise {token!r} is not available in mode {refutation.mode}")
        else:
            sides = {info[1] for info in prem_infos}
            if len(sides) > 1:
                return CheckResult(False, sid, "premises mix both closure sides")
            side = sides.pop() if sides else ("E" if pivot_side == "F" else "F")
        if pivot_side == side:
            return CheckResult(
                False, sid, "pivot must come from the opposite closure side")
        step_depth = max([info[2] for info in prem_infos] + [pivot_info[2] + 1])

        prem_masks = [info[0] for info in prem_infos]
        if step.pairing is None:
            reason = _find_pairing(step.conclusion.mask, prem_masks, pivot_info[0])
        else:
            try:
                resolvent = _pairing_union(prem_masks, pivot_info[0], step.pairing)
            except ValueError as exc:
                reason = str(exc)
            else:
                reason = (None if resolvent == step.conclusion.mask else
                          "conclusion differs from the resolvent of the pairing")
        if reason is not None:
            return CheckResult(False, sid, reason)

        step_infos[sid] = (step.conclusion.mask, side, step_depth)
        last_info = (sid, step.conclusion.mask, step_depth)

    sid, mask, step_depth = last_info  # type: ignore[misc]
    if mask != 0:
        return CheckResult(False, sid, "final conclusion is not the empty set")
    if step_depth > depth_cap:
        return CheckResult(
            False, sid,
            f"final step needs alternation depth {step_depth}, mode allows {depth_cap}")
    return CheckResult(True)
