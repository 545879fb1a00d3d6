"""Complete deciders with certificate extraction.

decide() is the front door: a unit-propagating backtracking search over
"is vertex v in X?" decisions, with dispatch to the resolution engine, the
all-pairs method (the same search, size-checked), and the brute-force
oracle.  An E-set with all but one member placed outside X forces the last
member in; an F-set with all but one member inside X forces the last member
out.

The search finds those sets without scanning them.  A pair lists each of its
members as the partner of the other, under the assignment that leaves the
other unable to meet the pair: making that assignment forces every partner
on its list to meet its pair, and fails if one already cannot.  A longer set
is found by watching two members that can still meet it (two watched
literals, as in Chaff): assigning a vertex visits only the sets in which it
is watched and can no longer meet, moves each such watch to another member
that can, and forces the other watch when no member is left.  Neither needs
repair when assignments are undone, so backtracking only clears the
assignments on the trail, which is also the propagation queue.

The refuted-in rule goes past propagation.  Once "v in X" is refuted below
an assignment P, any S-partition X extending P with v out holds an F-set f
with f - {v} inside X, since X | {v} meets every E-set and extends the
refuted branch.  So if every F-set holding v is a pair, v's out-branch fails
when every F-partner of v is out, and puts the partner in X when just one is
not out (the clause "v or a partner in X" is RAT on v).

The search also remembers the nodes it has refuted, as formula caching
does (Beame, Impagliazzo, Pitassi & Segerlind 2003).  At a node, after
propagation, let U be the unassigned vertices and M the sets already met.
A completion X of the node is an S-partition exactly when X & U is one of
the residual instance {s & U : s not in M} on U: a set in M is met already,
and a set not in M can be met only inside U.  The residual instance depends
on U and M alone, so once a node is refuted both ways, a later node with
the same U and M has no S-partition below it either, and the search counts
it as a conflict.  Propagation without conflict meets every set of at most
two members that has an assigned member, so U and the met sets of three or
more members fix M, and a node's key packs just those two masks into one
int.  On pigeonhole encodings, placements that differ only in hole order
leave the same key.  A hit cuts only a subtree with no S-partition, so the
search still reaches the greatest witness first, and the refuted-in rule
and the all-pairs stop stay sound.

When every set has at most two members, the search stops at the first
decision refuted both ways, as Even, Itai and Shamir's 2-SAT procedure does,
so it decides such instances in O(|V| * sum of |set|) time.
"""

from __future__ import annotations

from dataclasses import replace

from .core import (Bihypergraph, Certificate, SPartition, Verdict, VertexSet,
                   check_s_partition)
from .oracle import brute_force_decide
from .resolution import Limits, decide_by_resolution


# The most keys of refuted nodes _search_witness holds; one more empties
# its cache.  Random 3-CNF adds keys and never hits them; PHP(9) via
# from_sdr files about 13,000.
_REFUTED_CAP = 1 << 16


class SetTooLargeError(Exception):
    """A set exceeds what the requested method can handle."""


def _search_witness(b: Bihypergraph) -> VertexSet | None:
    """The lexicographically greatest S-partition X, or None if there is none.

    Vertices touched by no set are left out of X.  The others are compared
    by membership in id order, "in X" above "out": the depth-first search
    branches on the lowest unassigned vertex id, trying "in X" first, and
    propagation and the refuted-in rule (module docstring) assign only what
    every S-partition below the node shares, so the first complete
    assignment it reaches is the greatest one.  ``decide`` relies on this to
    make witnesses deterministic.

    A decision node refuted both ways files its key, the pair (assigned
    vertices, met sets of three or more members), in a cache; a later node
    with the same key has the same residual instance and so no S-partition
    below it (module docstring), and counts as a conflict.  The key of a
    node ORs the per-literal masks ``fold`` over the trail since the last
    decision onto that decision's key, so ``place`` does no extra work.
    The cache is emptied when it would exceed ``_REFUTED_CAP`` keys.

    When every set has at most two members, a decision refuted both ways
    refutes the instance, so the search returns None there without
    backtracking further, and builds no keys; a HasS instance never
    refutes a decision both ways, so its search and witness are unchanged.

    A set of at most two members is read from its mask's end bits, the
    lowest and the highest, rather than by walking every bit below its top
    (a pair of an all-pairs instance of 3,000 vertices is a 3,000-bit
    mask).  Those are its members in ``members`` order, so each pair is
    filed in the same set order, with the same append to each partner list,
    and the partner lists, the propagation order and the witness are those
    of a member walk.
    """
    n = b.vertex_count
    assign = [0] * n  # -1 unknown, 1 in X, 0 out; vertices in no set stay out
    # A set is met by a member in X (E) or out of X (F), so giving a member
    # w the value false_val (0 for E, 1 for F) leaves w unable to meet it;
    # the literal 2*w + false_val names that assignment.  A pair files each
    # member in partners under the other member's literal, which forces it
    # to meet the pair.  A longer set keeps its two watched members at
    # positions 0 and 1 of its member list, which is filed in watches under
    # the literal of each watch.
    partners: list[list[int]] = [[] for _ in range(2 * n)]
    watches: list[list[list[int]]] = [[] for _ in range(2 * n)]
    units: list[tuple[int, int]] = []
    wide: set[int] = set()  # vertices in an F-set of three or more members
    pairs_only = True
    longer: list[tuple[list[int], int]] = []  # (members, value meeting it)
    for false_val, family in ((0, b.e_sets), (1, b.f_sets)):
        for s in family:
            m = s.mask
            if not m:
                return None  # an empty set can never be met
            size = m.bit_count()
            if size <= 2:
                # its members are its lowest and highest bits, u <= w
                u = (m & -m).bit_length() - 1
                w = m.bit_length() - 1
                assign[u] = assign[w] = -1
                if size == 1:
                    units.append((u, 1 - false_val))
                else:
                    partners[2 * u + false_val].append(w)
                    partners[2 * w + false_val].append(u)
            else:
                members = list(s.members)
                for w in members:
                    assign[w] = -1
                pairs_only = False
                longer.append((members, 1 - false_val))
                if false_val:
                    wide.update(members)
                watches[2 * members[0] + false_val].append(members)
                watches[2 * members[1] + false_val].append(members)
    trail: list[int] = []
    if not pairs_only:
        # fold[2*w + val] has w's bit and, above the n vertex bits, the bit
        # of each longer set that w = val meets.  OR-ing it over the trail
        # gives a node's key: its assigned vertices and its met longer sets.
        fold = [1 << (lit >> 1) for lit in range(2 * n)]
        bit = 1 << n
        for members, met_val in longer:
            for w in members:
                fold[2 * w + met_val] |= bit
            bit <<= 1
    refuted: set[int] = set()  # keys of nodes refuted both ways

    def place(v: int, val: int) -> bool:
        """Assign v and propagate to a fixed point; False on conflict.
        Every assignment goes on the trail for unwind(), and the trail past
        ``head`` is the queue of assignments still to propagate.  Every
        watch list stays valid, also after a conflict."""
        if assign[v] != -1:
            return assign[v] == val
        assign[v] = val
        head = len(trail)
        trail.append(v)
        while head < len(trail):
            v = trail[head]
            head += 1
            val = assign[v]
            met = 1 - val
            lit = 2 * v + val
            for w in partners[lit]:
                got = assign[w]
                if got == -1:
                    assign[w] = met
                    trail.append(w)
                elif got == val:
                    return False
            if not watches[lit]:
                continue
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
            watches[lit] = kept
        return True

    def unwind(mark: int) -> None:
        for v in trail[mark:]:
            assign[v] = -1
        del trail[mark:]

    for v, val in units:  # root assignments, never unwound
        if not place(v, val):
            return None
    # (vertex, trail mark, tried out-branch, key of the node it branches)
    decisions: list[tuple[int, int, bool, int]] = []
    cursor = 0
    key = 0
    while True:
        while cursor < n and assign[cursor] != -1:
            cursor += 1
        if cursor == n:
            # every value is now 0 or 1: read them as binary digits
            return VertexSet(int("0" + "".join(map(str, reversed(assign))), 2))
        if not pairs_only:
            # fold in what was assigned since the last decision's node
            _, mark, _, key = decisions[-1] if decisions else (0, 0, False, 0)
            for w in trail[mark:]:
                key |= fold[2 * w + assign[w]]
        if pairs_only or key not in refuted:
            decisions.append((cursor, len(trail), False, key))
            ok = place(cursor, 1)
        else:
            ok = False  # this residual instance was refuted before
        while not ok:
            while decisions and decisions[-1][2]:
                if pairs_only:
                    # Propagation that ends without conflict leaves every
                    # pair it touched met, so the sets not yet met are input
                    # sets on unassigned vertices alone, and a model of them
                    # completes this node to an S-partition.  Both branches
                    # of this vertex, the rule included, exclude every such
                    # completion, so there is none, nor any S-partition.
                    return None
                _, mark, _, key = decisions.pop()
                refuted.add(key)
                if len(refuted) > _REFUTED_CAP:
                    refuted.clear()
                unwind(mark)
            if not decisions:
                return None
            v, mark, _, key = decisions.pop()
            unwind(mark)
            decisions.append((v, mark, True, key))
            ok = place(v, 0)
            if ok and v not in wide:
                # "v in X" is refuted, so an F-partner of v is in X
                held = {w for w in partners[2 * v + 1] if assign[w] != 0}
                if not held:
                    ok = False
                elif len(held) == 1:
                    w = held.pop()
                    ok = assign[w] == 1 or place(w, 1)
            cursor = v


def decide_2sat(b: Bihypergraph) -> Certificate:
    """Polynomial decision for all-pairs instances (every set has <= 2
    members): the search of ``_search_witness``, which stops at the first
    decision refuted both ways on such instances, in O(|V| * sum of |set|)
    time.  The refuted-in rule may refute a decision's out-branch; it cuts
    only subtrees holding no S-partition, so the stop stays sound.  Its HasS
    witness is the search's, the lexicographically greatest
    S-partition.  A set of three or more members is a ``SetTooLargeError``.
    """
    for family in (b.e_sets, b.f_sets):
        for s in family:
            if len(s) > 2:
                raise SetTooLargeError(
                    f"set {s!r} has {len(s)} members; the 2-SAT path needs <= 2")
    x = _search_witness(b)
    if x is None:
        return Certificate(Verdict.FAILS_S, None, method="2sat")
    if not check_s_partition(b, x):
        raise RuntimeError("2-SAT assignment is not an S-partition")
    return Certificate(Verdict.HAS_S, SPartition(x), method="2sat")


_METHODS = ("search", "resolution", "2sat", "oracle")


def decide(b: Bihypergraph, method: str = "search", strategy: str = "ef",
           limits: Limits | None = None) -> Certificate:
    """Decide property S and return a checkable certificate.

    HasS certificates carry the method's canonical witness partition.
    FailsS certificates carry a Refutation when the resolution engine
    produced one; other methods report bare exhaustion, which
    ``with_refutation`` can back with a follow-up resolution run.
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
