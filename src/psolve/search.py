"""Complete deciders with certificate extraction.

decide() is the front door: a unit-propagating backtracking search over
"is vertex v in X?" decisions, with dispatch to the resolution engine, the
all-pairs implication-graph method, and the brute-force oracle.  An E-set
with all but one member placed outside X forces the last member in; an
F-set with all but one member inside X forces the last member out.

The search finds those sets by watching two members of each set that can
still meet it (two watched literals, as in Chaff): assigning a vertex visits
only the sets in which it is watched and can no longer meet, moves each
such watch to another member that can, and forces the other watch when no
member is left.  Watches need no repair when assignments are undone, so
backtracking only clears the assignments on the trail.
"""

from __future__ import annotations

from dataclasses import replace

from .core import (Bihypergraph, Certificate, SPartition, Verdict, VertexSet,
                   check_s_partition)
from .oracle import brute_force_decide
from .resolution import Limits, decide_by_resolution


class SetTooLargeError(Exception):
    """A set exceeds what the requested method can handle."""


def _search_witness(b: Bihypergraph) -> VertexSet | None:
    """The lexicographically greatest S-partition X, or None if there is none.

    Vertices touched by no set are left out of X.  The others are compared
    by membership in id order, "in X" above "out": the depth-first search
    branches on the lowest unassigned vertex id, trying "in X" first, and
    unit propagation only assigns what every extension of the current
    assignment shares, so the first complete assignment it reaches is the
    greatest one.  ``decide`` relies on this to make witnesses deterministic.
    """
    n = b.vertex_count
    assign = [-1] * n  # -1 unknown, 1 in X, 0 out
    # A set is met by a member in X (E) or out of X (F).  Each set with two
    # or more members keeps its two watched members at positions 0 and 1 of
    # its member list, which is filed in watches[2*w + val] for each watch w,
    # val being the value that leaves w unable to meet the set.
    watches: list[list[list[int]]] = [[] for _ in range(2 * n)]
    units: list[tuple[int, int]] = []
    touched = 0
    for false_val, family in ((0, b.e_sets), (1, b.f_sets)):
        for s in family:
            members = list(s.members)
            if not members:
                return None  # an empty set can never be met
            touched |= s.mask
            if len(members) == 1:
                units.append((members[0], 1 - false_val))
            else:
                watches[2 * members[0] + false_val].append(members)
                watches[2 * members[1] + false_val].append(members)
    for v in range(n):
        if not (touched >> v) & 1:
            assign[v] = 0
    trail: list[int] = []

    def place(v: int, val: int) -> bool:
        """Assign v and propagate to a fixed point; False on conflict.
        Every assignment goes on the trail for unwind(), and every watch
        list stays valid, also after a conflict."""
        if assign[v] != -1:
            return assign[v] == val
        assign[v] = val
        trail.append(v)
        queue = [v]
        while queue:
            v = queue.pop()
            val = assign[v]
            met = 1 - val
            lit = 2 * v + val
            kept: list[list[int]] = []
            sets = iter(watches[lit])
            for members in sets:
                other = members[0]
                if other == v:
                    other = members[1]
                    members[0] = other
                    members[1] = v
                if assign[other] == met:
                    kept.append(members)
                    continue
                for k in range(2, len(members)):
                    w = members[k]
                    if assign[w] != val:
                        members[1] = w
                        members[k] = v
                        watches[2 * w + val].append(members)
                        break
                else:
                    kept.append(members)
                    if assign[other] != -1:
                        kept.extend(sets)
                        watches[lit] = kept
                        return False
                    assign[other] = met
                    trail.append(other)
                    queue.append(other)
            watches[lit] = kept
        return True

    def unwind(mark: int) -> None:
        for v in trail[mark:]:
            assign[v] = -1
        del trail[mark:]

    for v, val in units:  # root assignments, never unwound
        if not place(v, val):
            return None
    decisions: list[tuple[int, int, bool]] = []  # (vertex, trail mark, tried out-branch)
    cursor = 0
    while True:
        while cursor < n and assign[cursor] != -1:
            cursor += 1
        if cursor == n:
            return VertexSet.of(v for v in range(n) if assign[v] == 1)
        decisions.append((cursor, len(trail), False))
        ok = place(cursor, 1)
        while not ok:
            while decisions and decisions[-1][2]:
                _, mark, _ = decisions.pop()
                unwind(mark)
            if not decisions:
                return None
            v, mark, _ = decisions.pop()
            unwind(mark)
            decisions.append((v, mark, True))
            ok = place(v, 0)
            cursor = v


def _tarjan_components(node_count: int, adjacency: list[list[int]]) -> list[int]:
    """Iterative Tarjan SCC; returns a component id per node, components
    numbered in reverse topological order of the condensation."""
    UNSEEN = -1
    index = [UNSEEN] * node_count
    low = [0] * node_count
    comp = [UNSEEN] * node_count
    on_stack = [False] * node_count
    scc_stack: list[int] = []
    counter = 0
    comp_count = 0
    for root in range(node_count):
        if index[root] != UNSEEN:
            continue
        work = [(root, 0)]
        while work:
            v, edge_pos = work[-1]
            if edge_pos == 0:
                index[v] = low[v] = counter
                counter += 1
                scc_stack.append(v)
                on_stack[v] = True
            if edge_pos < len(adjacency[v]):
                work[-1] = (v, edge_pos + 1)
                w = adjacency[v][edge_pos]
                if index[w] == UNSEEN:
                    work.append((w, 0))
                elif on_stack[w]:
                    if index[w] < low[v]:
                        low[v] = index[w]
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == index[v]:
                    while True:
                        w = scc_stack.pop()
                        on_stack[w] = False
                        comp[w] = comp_count
                        if w == v:
                            break
                    comp_count += 1
    return comp


def decide_2sat(b: Bihypergraph) -> Certificate:
    """Polynomial decision for all-pairs instances (every set has <= 2
    members) via the implication graph and strongly connected components.

    One boolean per vertex, true meaning "in X": an E-set {a, b} becomes the
    clause (a or b), an F-set {a, b} becomes (not-a or not-b).  Size-1 sets
    are propagated as forced assignments before the component analysis.
    """
    n = b.vertex_count
    for family in (b.e_sets, b.f_sets):
        for s in family:
            if len(s) > 2:
                raise SetTooLargeError(
                    f"set {s!r} has {len(s)} members; the 2-SAT path needs <= 2")

    fails = Certificate(Verdict.FAILS_S, None, method="2sat")
    touched = 0
    for family in (b.e_sets, b.f_sets):
        for s in family:
            touched |= s.mask
    assign = [-1] * n
    for v in range(n):  # vertices in no set go to V-X
        if not (touched >> v) & 1:
            assign[v] = 0
    # Literals: 2*v is "v in X", 2*v + 1 is "v out of X".
    clauses: list[tuple[int, int]] = []
    units: list[int] = []
    for s in b.e_sets:
        members = s.members
        if not members:
            return fails
        if len(members) == 1:
            units.append(2 * members[0])
        else:
            clauses.append((2 * members[0], 2 * members[1]))
    for s in b.f_sets:
        members = s.members
        if not members:
            return fails
        if len(members) == 1:
            units.append(2 * members[0] + 1)
        else:
            clauses.append((2 * members[0] + 1, 2 * members[1] + 1))

    occurrence: list[list[int]] = [[] for _ in range(2 * n)]
    for ci, (l1, l2) in enumerate(clauses):
        occurrence[l1].append(ci)
        occurrence[l2].append(ci)
    satisfied = [False] * len(clauses)

    queue = list(units)
    while queue:
        lit = queue.pop()
        v, val = lit >> 1, 1 - (lit & 1)
        if assign[v] != -1:
            if assign[v] != val:
                return fails
            continue
        assign[v] = val
        for ci in occurrence[lit]:
            satisfied[ci] = True
        for ci in occurrence[lit ^ 1]:
            if satisfied[ci]:
                continue
            satisfied[ci] = True
            l1, l2 = clauses[ci]
            other = l2 if l1 == (lit ^ 1) else l1
            ov, oval = other >> 1, 1 - (other & 1)
            if assign[ov] == -1:
                queue.append(other)
            elif assign[ov] != oval:
                return fails

    adjacency: list[list[int]] = [[] for _ in range(2 * n)]
    for ci, (l1, l2) in enumerate(clauses):
        if satisfied[ci]:
            continue
        adjacency[l1 ^ 1].append(l2)
        adjacency[l2 ^ 1].append(l1)
    comp = _tarjan_components(2 * n, adjacency)
    for v in range(n):
        if assign[v] != -1:
            continue
        if comp[2 * v] == comp[2 * v + 1]:
            return fails
        # Earlier-emitted component = deeper in the implication order = true.
        assign[v] = 1 if comp[2 * v] < comp[2 * v + 1] else 0

    x = VertexSet.of(v for v in range(n) if assign[v] == 1)
    if not check_s_partition(b, x):
        raise RuntimeError("2-SAT assignment is not an S-partition")
    return Certificate(Verdict.HAS_S, SPartition(x), method="2sat")


_METHODS = ("search", "resolution", "2sat", "oracle")


def decide(b: Bihypergraph, method: str = "search", strategy: str = "ef",
           limits: Limits | None = None, proof_on_fail: bool = False) -> Certificate:
    """Decide property S and return a checkable certificate.

    HasS certificates carry the method's canonical witness partition.
    FailsS certificates carry a Refutation when the resolution engine
    produced one; other methods report bare exhaustion unless
    ``proof_on_fail`` asks for ``with_refutation`` (whose resource limits
    then apply).
    """
    if method == "search":
        x = _search_witness(b)
        cert = (Certificate(Verdict.HAS_S, SPartition(x), "search")
                if x is not None else Certificate(Verdict.FAILS_S, None, "search"))
    elif method == "resolution":
        cert = decide_by_resolution(b, strategy, limits)
        if cert.verdict is Verdict.HAS_S:
            x = _search_witness(b)
            if x is None:
                raise RuntimeError("resolution said HasS but no partition exists")
            cert = replace(cert, witness=SPartition(x))
    elif method == "2sat":
        cert = decide_2sat(b)
    elif method == "oracle":
        cert = brute_force_decide(b)
    else:
        raise ValueError(f"unknown method {method!r} (expected one of {_METHODS})")

    if proof_on_fail:
        cert = with_refutation(b, cert, strategy, limits)

    if cert.verdict is Verdict.HAS_S and cert.witness is not None:
        if not check_s_partition(b, cert.witness.x_side):
            raise RuntimeError(f"{method} returned a witness that is not an S-partition")
    return cert


def with_refutation(b: Bihypergraph, cert: Certificate, strategy: str = "ef",
                    limits: Limits | None = None) -> Certificate:
    """A FailsS certificate from search, 2sat or the oracle, with the witness
    of a follow-up resolution run (None when the empty set is an input set);
    other certificates come back as they are.  The run may raise
    ``ResourceLimitError``; a HasS from it is a RuntimeError."""
    if cert.verdict is not Verdict.FAILS_S or cert.method == "resolution":
        return cert
    follow_up = decide_by_resolution(b, strategy, limits)
    if follow_up.verdict is not Verdict.FAILS_S:
        raise RuntimeError(f"{cert.method} said FailsS but resolution said HasS")
    return replace(cert, witness=follow_up.witness)
