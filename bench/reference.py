"""Independent reference checks for the benchmark.

Nothing here imports psolve or shares code with it.  Every check works on
the benchmark's own problem data: clause lists over signed integers, graphs
as edge lists with colour lists, set families, and all-pairs instances as
pairs of names.  Verdicts come from methods psolve does not use: a DPLL
with most-occurrences branching, Kuhn's augmenting-path matching, and the
limited-backtracking 2-SAT method of Even, Itai and Shamir (1976) in place
of strongly connected components.
"""

from __future__ import annotations

from collections import Counter, deque


def cnf_satisfied(clauses, assignment) -> bool:
    """True iff ``assignment`` (variable -> bool) satisfies every clause."""
    return all(any(assignment.get(abs(l)) == (l > 0) for l in clause)
               for clause in clauses)


def _assign(clauses, lit):
    """Clauses simplified by making ``lit`` true; None on an empty clause."""
    out = []
    for clause in clauses:
        if lit in clause:
            continue
        if -lit in clause:
            clause = clause - {-lit}
            if not clause:
                return None
        out.append(clause)
    return out


def _dpll(clauses) -> bool:
    while True:
        if not clauses:
            return True
        unit = next((c for c in clauses if len(c) == 1), None)
        if unit is None:
            break
        clauses = _assign(clauses, next(iter(unit)))
        if clauses is None:
            return False
    shortest = min(len(c) for c in clauses)
    counts = Counter(l for c in clauses if len(c) == shortest for l in c)
    var = max(counts, key=lambda l: (counts[l] + counts[-l], l))
    for lit in (var, -var):
        reduced = _assign(clauses, lit)
        if reduced is not None and _dpll(reduced):
            return True
    return False


def dpll_satisfiable(clauses) -> bool:
    """Satisfiability of a CNF over nonzero signed integers, by DPLL."""
    return _dpll([frozenset(c) for c in clauses])


def coloring_cnf(vertices, edges, lists):
    """List colouring as CNF: one variable per (vertex, colour) choice."""
    var = {}
    for v in vertices:
        for c in lists[v]:
            var[v, c] = len(var) + 1
    clauses = [[var[v, c] for c in lists[v]] for v in vertices]
    for a, b in edges:
        for c in lists[a]:
            if (b, c) in var:
                clauses.append([-var[a, c], -var[b, c]])
    return clauses


def coloring_valid(edges, lists, coloring) -> bool:
    """A colouring is proper and takes every colour from its vertex's list."""
    return (set(coloring) == set(lists)
            and all(coloring[v] in lists[v] for v in lists)
            and all(coloring[a] != coloring[b] for a, b in edges))


def two_colorable(vertices, edges) -> bool:
    """Bipartiteness by breadth-first search."""
    adjacency = {v: [] for v in vertices}
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    side = {}
    for root in vertices:
        if root in side:
            continue
        side[root] = 0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in adjacency[v]:
                if w not in side:
                    side[w] = 1 - side[v]
                    queue.append(w)
                elif side[w] == side[v]:
                    return False
    return True


def sdr_valid(families, chosen) -> bool:
    """Representatives are distinct and each belongs to its own set."""
    return (set(chosen) == set(families)
            and all(chosen[label] in families[label] for label in families)
            and len(set(chosen.values())) == len(chosen))


def sdr_exists(families) -> bool:
    """Hall's condition via maximum bipartite matching (Kuhn's method)."""
    owner = {}

    def augment(label, seen) -> bool:
        for e in families[label]:
            if e in seen:
                continue
            seen.add(e)
            if e not in owner or augment(owner[e], seen):
                owner[e] = label
                return True
        return False

    return all(augment(label, set()) for label in families)


def two_sat_satisfiable(clauses) -> bool:
    """2-SAT by limited backtracking: set a free variable, propagate, and
    try the other value only if that conflicts.  Each committed choice is
    final, so the run is polynomial; no component analysis is involved."""
    watch = {}
    for clause in clauses:
        if len(clause) == 1:
            clause = (clause[0], clause[0])
        a, b = clause
        watch.setdefault(-a, []).append(b)
        watch.setdefault(-b, []).append(a)
    value = {}

    def propagate(lit, trail) -> bool:
        stack = [lit]
        while stack:
            l = stack.pop()
            if value.get(abs(l)) is not None:
                if value[abs(l)] != (l > 0):
                    return False
                continue
            value[abs(l)] = l > 0
            trail.append(abs(l))
            stack.extend(watch.get(l, ()))
        return True

    for clause in clauses:
        if len(clause) == 1 and not propagate(clause[0], []):
            return False
    for v in sorted({abs(l) for c in clauses for l in c}):
        if v in value:
            continue
        for lit in (v, -v):
            trail = []
            if propagate(lit, trail):
                break
            for u in trail:
                del value[u]
        else:
            return False
    return True


def partition_valid(e_sets, f_sets, x) -> bool:
    """``x`` (a set of names) meets every E-set and misses part of every
    F-set: the definition of an S-partition, over names."""
    return (all(x.intersection(s) for s in e_sets)
            and all(not x.issuperset(s) for s in f_sets))
