"""Independent reference implementations and generators used only by tests.

Everything here avoids the library's hot paths on purpose: plain Python
sets, itertools enumeration, and no subsumption anywhere, so the production
code has something genuinely different to be checked against.
"""

from __future__ import annotations

import itertools
import random

from psolve import Bihypergraph, build

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
                  max_sets: int = 8, max_size: int = 4) -> Bihypergraph:
    n = rng.randint(1, max_vertices)
    names = [f"v{i}" for i in range(n)]

    def family():
        return [rng.sample(names, rng.randint(1, min(max_size, n)))
                for _ in range(rng.randint(0, max_sets))]

    return build(names, family(), family())


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

    def add(self, mask: int, payload=None) -> list[int]:
        removed = self.supersets(mask)
        for k in removed:
            del self.sets[k]
        self.sets[mask] = payload
        return removed
