"""Independent reference implementations and generators used only by tests.

Everything here avoids the library's hot paths on purpose: plain Python
sets, itertools enumeration, and no subsumption anywhere, so the production
code has something genuinely different to be checked against.
"""

from __future__ import annotations

import itertools
import random
import sys

from psolve import (Bihypergraph, Certificate, ResourceLimitError, Verdict,
                    VertexSet, build, resolution)
from psolve.core import Antichain, check_token

_FORBIDDEN_CHARS = set(" \t\r\n\f\v#:,/<")


def reference_check_token(token, what: str = "name"):
    """Reference for ``psolve.core.check_token``: the same rules, with the
    forbidden characters found by a per-character scan."""
    if not isinstance(token, str) or not token:
        raise ValueError(f"empty {what} token")
    if token == "{}" or not token.isprintable() or any(c in _FORBIDDEN_CHARS for c in token):
        raise ValueError(
            f"invalid {what} {token!r}: tokens may not be '{{}}' or contain "
            "whitespace or any of '#:,/<'"
        )
    return token


def reference_check_distinct(tokens, what: str, repeat: str | None = None) -> dict[str, int]:
    """Reference for ``psolve.core.check_distinct``: the per-token walk it
    falls back to, and once was, with no test of the whole family."""
    index: dict[str, int] = {}
    for i, token in enumerate(tokens):
        check_token(token, what)
        if token in index:
            raise ValueError(f"duplicate {repeat or what} {token!r}")
        index[token] = i
    return index


def reference_build(names=(), e_sets=(), f_sets=(), e_labels=None,
                    f_labels=None) -> Bihypergraph:
    """Reference for ``psolve.build``: the version that checked each name
    itself, with ``check_token`` and a duplicate test, as it interned it,
    before ``Bihypergraph`` checked everything again."""
    interned: dict[str, int] = {}
    order: list[str] = []
    for name in names:
        check_token(name, "vertex name")
        if name in interned:
            raise ValueError(f"duplicate vertex name {name!r}")
        interned[name] = len(order)
        order.append(name)

    def masks(sets):
        out = []
        for s in sets:
            mask = 0
            for name in s:
                i = interned.get(name) if isinstance(name, str) else None
                if i is None:
                    check_token(name, "vertex name")
                    i = interned[name] = len(order)
                    order.append(name)
                mask |= 1 << i
            out.append(VertexSet(mask))
        return tuple(out)

    e_vs = masks(e_sets)
    f_vs = masks(f_sets)
    e_lab = tuple(e_labels) if e_labels is not None else tuple(f"E{i + 1}" for i in range(len(e_vs)))
    f_lab = tuple(f_labels) if f_labels is not None else tuple(f"F{i + 1}" for i in range(len(f_vs)))
    return Bihypergraph(tuple(order), e_vs, f_vs, e_lab, f_lab)


def all_s_partitions(b: Bihypergraph) -> list[frozenset[int]]:
    """Every X subseteq V forming an S-partition, via plain Python sets."""
    universe = set(range(b.vertex_count))
    e_fam = [set(s.members) for s in b.e_sets]
    f_fam = [set(s.members) for s in b.f_sets]
    found = []
    for r in range(len(universe) + 1):
        for combo in itertools.combinations(sorted(universe), r):
            x = set(combo)
            rest = universe - x
            if all(x & a for a in e_fam) and all(rest & a for a in f_fam):
                found.append(frozenset(x))
    return found


def reference_search_witness(b: Bihypergraph) -> int | None:
    """Reference for ``psolve.search._search_witness``: the mask of the
    first S-partition a plain depth-first search finds, or None.

    No propagation: vertices are placed in id order, "in X" first, vertices
    in no set go out, and a set is tested only once all its members are
    placed.  The first partition found is the lexicographically greatest.
    """
    n = b.vertex_count
    e_fam = [set(s.members) for s in b.e_sets]
    f_fam = [set(s.members) for s in b.f_sets]
    if not all(e_fam) or not all(f_fam):
        return None
    touched = set().union(*e_fam, *f_fam)
    completed_by: list[list[tuple[set, bool]]] = [[] for _ in range(n)]
    for family, met in ((e_fam, True), (f_fam, False)):
        for members in family:
            completed_by[max(members)].append((members, met))
    x: set[int] = set()

    def extend(v: int) -> bool:
        if v == n:
            return True
        for inside in ((True, False) if v in touched else (False,)):
            if inside:
                x.add(v)
            if (all(any((w in x) == met for w in members)
                    for members, met in completed_by[v])
                    and extend(v + 1)):
                return True
            x.discard(v)
        return False

    return sum(1 << v for v in x) if extend(0) else None


def unit_propagate(b: Bihypergraph, partial: dict[int, int]) -> dict[int, int] | None:
    """``partial`` (vertex -> 1 in X, 0 out) closed under the search's unit
    rules, by rescanning every set until nothing changes: an E-set with no
    member in X and one unassigned member puts it in, an F-set with no
    member out and one unassigned member puts it out.  None when some set
    has every member assigned and is not met."""
    assigned = dict(partial)
    changed = True
    while changed:
        changed = False
        for family, met in ((b.e_sets, 1), (b.f_sets, 0)):
            for s in family:
                if any(assigned.get(v) == met for v in s.members):
                    continue
                free = [v for v in s.members if v not in assigned]
                if not free:
                    return None
                if len(free) == 1:
                    assigned[free[0]] = met
                    changed = True
    return assigned


def count_calls(code_name: str, fn, *args):
    """``fn(*args)`` and the number of calls made during it to functions
    whose code is named ``code_name``, counted through ``sys.setprofile``."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == code_name:
            calls += 1

    sys.setprofile(count)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return result, calls


def has_s(b: Bihypergraph) -> bool:
    return bool(all_s_partitions(b))


def _pivot_bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def unreduced_resolvents(masks: set[int], pivot: int) -> set[int]:
    """Every resolvent of the working sets on one pivot, no reduction."""
    states = {0}
    for v in _pivot_bits(pivot):
        bit = 1 << v
        choices = [m & ~bit for m in masks if m & bit]
        if not choices:
            return set()
        states = {s | c for s in states for c in choices}
    return states


def level_candidate_counts(masks, pivot: int,
                           prune=()) -> list[tuple[int, int]]:
    """For each level of the reduced union DP on one pivot, by plain sets:
    the number of distinct unions the level forms and the number of its
    absorbed states.  A state is absorbed when some contribution is a
    subset of it; it then forms only itself.  Every other state forms its
    union with each contribution.  A level keeps the minimal unions that
    contain no mask of ``prune``, and the DP stops at a pivot member no mask
    contains or at a level with nothing kept."""
    counts = []
    states = {0}
    for v in _pivot_bits(pivot):
        bit = 1 << v
        choices = {m & ~bit for m in masks if m & bit}
        if not choices:
            break
        absorbed = {s for s in states if any(c & s == c for c in choices)}
        candidates = absorbed | {s | c for s in states - absorbed
                                 for c in choices}
        counts.append((len(candidates), len(absorbed)))
        states = {u for u in candidates
                  if not any(w != u and w & u == w for w in candidates)
                  and not any(p & u == p for p in prune)}
        if not states:
            break
    return counts


def naive_closure_contains_empty(e_sets, f_sets) -> bool:
    """Empty-set membership in the plain, unreduced closure."""
    derived = {s.mask for s in e_sets}
    pivots = [s.mask for s in f_sets]
    if 0 in derived:
        return True
    changed = True
    while changed:
        changed = False
        for d in pivots:
            new = unreduced_resolvents(derived, d) - derived
            if new:
                derived |= new
                changed = True
                if 0 in derived:
                    return True
    return False


def cnf_is_satisfiable(formula) -> bool:
    """Brute-force CNF satisfiability over all assignments."""
    n = formula.variable_count
    for values in itertools.product((False, True), repeat=n):
        assignment = {i + 1: values[i] for i in range(n)}
        if formula.is_satisfied_by(assignment):
            return True
    return False


def greatest_cnf_assignment(formula) -> dict | None:
    """The lexicographically greatest satisfying assignment, True above
    False in variable order, by plain backtracking that tests a clause only
    once all its variables are set; None if unsatisfiable.

    Under ``from_cnf`` it is the greatest S-partition: a variable with both
    literals out of X can always put its negative literal in."""
    n = formula.variable_count
    completed_by: list[list] = [[] for _ in range(n + 1)]
    for clause in formula.clauses:
        completed_by[max(abs(l) for l in clause)].append(clause)
    assignment: dict[int, bool] = {}

    def extend(v: int) -> bool:
        if v > n:
            return True
        for value in (True, False):
            assignment[v] = value
            if (all(any(assignment[abs(l)] == (l > 0) for l in clause)
                    for clause in completed_by[v])
                    and extend(v + 1)):
                return True
        del assignment[v]
        return False

    return dict(assignment) if extend(1) else None


def coloring_search(vertices, edges, available) -> dict | None:
    """Backtracking proper-coloring search with per-vertex color choices."""
    order = list(vertices)
    adjacency = {v: [] for v in order}
    for a1, a2 in edges:
        adjacency[a1].append(a2)
        adjacency[a2].append(a1)
    chosen: dict = {}

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for color in available[i]:
            if any(chosen.get(w) == color for w in adjacency[v]):
                continue
            chosen[v] = color
            if extend(i + 1):
                return True
            del chosen[v]
        return False

    return dict(chosen) if extend(0) else None


def greatest_color_sets(vertices, edges, palette) -> dict | None:
    """``greatest_list_color_sets`` with ``palette`` as every vertex's list,
    for ``from_graph_coloring``."""
    return greatest_list_color_sets(vertices, edges, [palette] * len(vertices))


def greatest_list_color_sets(vertices, edges, lists) -> dict | None:
    """The color sets that the lexicographically greatest S-partition of
    ``from_list_coloring`` gives each vertex, or None if the graph has no
    proper coloring from its lists.

    There X may give a vertex several colors of its list, but no color to
    both ends of an edge.  The pairs (vertex, color) are decided in order,
    "in" whenever some extension exists: the vertices with no color yet
    must be properly colorable with colors of their lists not excluded for
    them and not taken by a neighbour, which ``coloring_search`` decides.
    """
    available = dict(zip(vertices, lists))
    inside = {a: set() for a in vertices}
    excluded = {a: set() for a in vertices}
    neighbours = {a: set() for a in vertices}
    for a1, a2 in edges:
        neighbours[a1].add(a2)
        neighbours[a2].add(a1)

    def extendable() -> bool:
        rest = [a for a in vertices if not inside[a]]
        rest_lists = [[c for c in available[a] if c not in excluded[a]
                       and not any(c in inside[w] for w in neighbours[a])]
                      for a in rest]
        rest_edges = [(a1, a2) for a1, a2 in edges
                      if not inside[a1] and not inside[a2]]
        return coloring_search(rest, rest_edges, rest_lists) is not None

    if not extendable():
        return None
    for a in vertices:
        for c in available[a]:
            if not any(c in inside[w] for w in neighbours[a]):
                inside[a].add(c)
                if extendable():
                    continue
                inside[a].discard(c)
            excluded[a].add(c)
    return inside


def greatest_sdr_sets(labels, families) -> dict | None:
    """The elements that the lexicographically greatest S-partition of
    ``from_sdr`` gives each index, or None if the family has no system of
    distinct representatives.

    There X may give an index several of its elements, but no element to
    two indices.  The pairs (element, index) are decided in order, "in"
    whenever some extension exists: the indices with no element yet must
    have distinct representatives among their elements not excluded for
    them and not taken by another index, which ``sdr_search`` decides.
    """
    inside = {label: set() for label in labels}
    excluded = {label: set() for label in labels}

    def taken(elem, label) -> bool:
        return any(elem in inside[other] for other in labels if other != label)

    def extendable() -> bool:
        rest = [label for label in labels if not inside[label]]
        return sdr_search(rest, [[e for e in elems if e not in excluded[label]
                                  and not taken(e, label)]
                                 for label, elems in zip(labels, families)
                                 if not inside[label]]) is not None

    if not extendable():
        return None
    for label, elems in zip(labels, families):
        for e in elems:
            if not taken(e, label):
                inside[label].add(e)
                if extendable():
                    continue
                inside[label].discard(e)
            excluded[label].add(e)
    return inside


def sdr_search(labels, families) -> dict | None:
    """Backtracking search for a system of distinct representatives."""
    chosen: dict = {}
    used: set = set()

    def extend(i: int) -> bool:
        if i == len(labels):
            return True
        for elem in families[i]:
            if elem in used:
                continue
            chosen[labels[i]] = elem
            used.add(elem)
            if extend(i + 1):
                return True
            used.discard(elem)
            del chosen[labels[i]]
        return False

    return dict(chosen) if extend(0) else None


def rand_instance(rng: random.Random, max_vertices: int = 10,
                  max_sets: int = 8, max_size: int = 4,
                  min_size: int = 1) -> Bihypergraph:
    n = rng.randint(1, max_vertices)
    names = [f"v{i}" for i in range(n)]

    def family():
        return [rng.sample(names, rng.randint(min_size, min(max_size, n)))
                for _ in range(rng.randint(0, max_sets))]

    return build(names, family(), family())


def shuffled_sets(b: Bihypergraph, rng: random.Random) -> Bihypergraph:
    """``b`` with its E-sets and its F-sets each in a random order, every
    set keeping its label."""
    e = list(zip(b.e_sets, b.e_labels))
    f = list(zip(b.f_sets, b.f_labels))
    rng.shuffle(e)
    rng.shuffle(f)
    return Bihypergraph(b.names, tuple(vs for vs, _ in e),
                        tuple(vs for vs, _ in f), tuple(lab for _, lab in e),
                        tuple(lab for _, lab in f))


def exhaustive_small_instances(max_vertices: int = 4, max_sets: int = 2,
                               max_size: int = 2):
    """All instances over up to max_vertices vertices whose families hold at
    most max_sets distinct sets of at most max_size members (the empty set
    included); families are unordered, so combinations suffice."""
    for n in range(max_vertices + 1):
        names = [f"v{i}" for i in range(n)]
        pool = []
        for k in range(min(max_size, n) + 1):
            pool.extend(itertools.combinations(names, k))
        family_choices = []
        for k in range(max_sets + 1):
            family_choices.extend(itertools.combinations(pool, k))
        for e_fam in family_choices:
            for f_fam in family_choices:
                yield build(names, e_fam, f_fam)


def six_clause_instance() -> Bihypergraph:
    """Unsatisfiable 3-variable CNF over literal vertices: six clauses in E,
    the three complementary pairs in F."""
    names = ["p", "-p", "q", "-q", "r", "-r"]
    clauses = [["p", "q"], ["p", "-q", "r"], ["p", "-q", "-r"],
               ["-p", "q", "r"], ["-p", "q", "-r"], ["-p", "-q"]]
    pairs = [["p", "-p"], ["q", "-q"], ["r", "-r"]]
    return build(names, clauses, pairs,
                 e_labels=[str(i) for i in range(1, 7)],
                 f_labels=["A", "B", "C"])


GRID_VERTICES = ("1", "2", "3", "4", "5", "6")
GRID_EDGES = (("1", "2"), ("2", "3"), ("4", "5"), ("5", "6"),
              ("1", "4"), ("2", "5"), ("3", "6"))
GRID_LISTS = (("g", "r"), ("b", "g"), ("b", "r"),
              ("b", "r"), ("b", "g"), ("g", "r"))


def grid_lists_instance() -> Bihypergraph:
    """The 2x3 grid with two-color lists, encoded over color@vertex names
    (not list-colorable, though the grid itself is 2-colorable)."""
    names = ["g1", "r1", "b2", "g2", "b3", "r3",
             "b4", "r4", "b5", "g5", "g6", "r6"]
    e_sets = [["g1", "r1"], ["b2", "g2"], ["b3", "r3"],
              ["b4", "r4"], ["b5", "g5"], ["g6", "r6"]]
    f_sets = [["r1", "r4"], ["g1", "g2"], ["b4", "b5"], ["b2", "b5"],
              ["g2", "g5"], ["b2", "b3"], ["r3", "r6"], ["g5", "g6"]]
    return build(names, e_sets, f_sets,
                 e_labels=[str(i) for i in range(1, 7)],
                 f_labels=["A", "B", "C", "D", "E", "F", "G", "H"])


class LinearAntichain:
    """Reference for ``psolve.core.Antichain`` with the same interface:
    every query scans all kept masks, as the engine did before the
    subsumption index."""

    def __init__(self) -> None:
        self.sets: dict = {}

    def has_subset(self, u: int) -> bool:
        return any(k & u == k for k in self.sets)

    def supersets(self, u: int) -> list[int]:
        return [k for k in self.sets if u & k == u]

    def occurrences(self, bit: int) -> int:
        return sum(1 for k in self.sets if k & bit)

    def add(self, mask: int, payload=None) -> list[int]:
        removed = self.supersets(mask)
        for k in removed:
            del self.sets[k]
        self.sets[mask] = payload
        return removed


def incremental_pivot_resolvents(working, pivot_mask: int, limits, stats,
                                 prune_against=None):
    """Reference for ``psolve.resolution._pivot_resolvents``: the union DP
    as the engine ran it before batch levels.  Each candidate union goes
    through the level's ``Antichain`` in generation order, so a level holds
    the live antichain of the candidates so far, and ``max_sets`` caps that
    antichain."""
    states = {0: None}
    level_maps = []
    pruned = prune_against.has_subset if prune_against is not None else None
    for v in VertexSet(pivot_mask).members:
        bit = 1 << v
        choices = [(m & ~bit, ref) for m, ref in working if m & bit]
        if not choices:
            return []
        nxt = Antichain()
        dominated = nxt.has_subset
        for s in states:
            for cm, ref in choices:
                u = s | cm
                if dominated(u) or (pruned is not None and pruned(u)):
                    continue
                nxt.add(u, (s, v, ref))
                if len(nxt.sets) > limits.max_sets:
                    raise ResourceLimitError(
                        f"pivot fan-out exceeded max_sets={limits.max_sets}")
        if not nxt.sets:
            return []
        states = nxt.sets
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


def direct_closure_certificate(b: Bihypergraph, side: str, limits=None):
    """Reference for ``decide_by_resolution(b, "ef")`` (side 'E') and
    ``"fe"`` (side 'F'): the path they took before they ran as the depth-1
    level of the alternating chain.  One ``_run_closure`` of the side's
    family over the other family's input sets, then extraction under the
    E-over-F / F-over-E mode label.  It reuses the closure engine on
    purpose: what it pins is the dispatch around it."""
    other, mode = ("F", "E-over-F") if side == "E" else ("E", "F-over-E")
    stats = resolution._Stats()
    antichain, has_empty = resolution._run_closure(
        resolution._family_items(b, side), resolution._family_items(b, other),
        limits or resolution.DEFAULT_LIMITS, stats)
    if not has_empty:
        return Certificate(Verdict.HAS_S, None, "resolution", stats.freeze())
    ref = antichain[0]
    witness = None
    if not isinstance(ref, str):
        witness = resolution._extract_refutation(b, ref, mode)
    return Certificate(Verdict.FAILS_S, witness, "resolution", stats.freeze())


def reference_alternating_closure(b: Bihypergraph, n: int, side: str,
                                  limits=None):
    """Reference for ``psolve.alternating_closure(b, n, side)``: the chain
    run level by level, as it ran before every level k >= 2 became level
    2.  Level 1 closes the side of n's parity over the other family's input
    sets, and each further level closes the other side over the level
    before, so level n closes ``side``.  It reuses the closure engine on
    purpose: what it pins is the chain around it."""
    limits = limits or resolution.DEFAULT_LIMITS
    stats = resolution._Stats()
    if n == 0:
        return resolution._closure_result(*resolution._run_closure(
            resolution._family_items(b, side), (), limits, stats), stats)
    flip = {"E": "F", "F": "E"}
    s = side if n % 2 else flip[side]
    pivots = resolution._family_items(b, flip[s])
    for _ in range(n):
        antichain, has_empty = resolution._run_closure(
            resolution._family_items(b, s), pivots, limits, stats)
        pivots, s = antichain.items(), flip[s]
    return resolution._closure_result(antichain, has_empty, stats)


def prime_implicates(n: int, a_family, d_family) -> set[int]:
    """Reference for ``psolve.resolution.closure(a_family, d_family)``, by
    brute force over all 2^n vertex sets: the subset-minimal masks S that
    every model X meets, where a model meets every ``a_family`` set and
    contains no ``d_family`` set; {0} (the empty set) when there is no
    model.  S is met by every model iff no model lies inside V - S."""
    a_masks = [vs.mask for vs in a_family]
    d_masks = [vs.mask for vs in d_family]
    full = (1 << n) - 1
    inside: list[bool] = []   # inside[y]: some model is a subset of y
    for y in range(1 << n):
        inside.append(any(y >> v & 1 and inside[y & ~(1 << v)]
                          for v in range(n))
                      or (all(y & a for a in a_masks)
                          and not any(d & y == d for d in d_masks)))
    implied = [not inside[full & ~s] for s in range(1 << n)]
    return {s for s in range(1 << n) if implied[s]
            and not any(s >> v & 1 and implied[s & ~(1 << v)] for v in range(n))}


def full_rounds_closure(base_items, pivot_items, limits, stats):
    """Reference for ``psolve.resolution._run_closure``: the naive fixed
    point.  Every round resolves each pivot over all kept sets, through the
    DP's general path (a separate working family, level 1 reduced and
    pruned), until a round derives nothing, so it repeats every union of
    the round before.  The first round takes the pivots in the engine's
    order (``_cheapest_first``), the later rounds in input order."""
    antichain = Antichain()

    def insert(mask, ref):
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

    pivots = {}
    for mask, ref in pivot_items:
        pivots.setdefault(mask, ref)

    changed = bool(pivots)
    order = resolution._cheapest_first(pivots, antichain)
    while changed:
        stats.rounds += 1
        changed = False
        for dmask, dref in order:
            finals = resolution._pivot_resolvents(
                antichain.sets.items(), dmask, limits, stats,
                prune_against=antichain)
            for mask, pairing in finals:
                insert(mask, (stats.kept, mask, dref, pairing))
                changed = True
                if mask == 0:
                    return antichain.sets, True
        order = pivots.items()
    return antichain.sets, False
