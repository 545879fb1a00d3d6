"""The four workloads: seeded input generators and the timed operation.

Generators build plain data (clause lists, graphs, set families, .bhg text
for the random all-pairs instances) from a ``random.Random`` and import
nothing from psolve.  Families whose workload fixes the verdict (refute
keeps FailsS instances, saturate keeps HasS ones) are filtered through
``reference`` while they are generated; the other families get their
expected verdicts from ``reference`` before their round is timed.

``run_op`` takes one instance through psolve, routing every call into the
program through ``tracer.call`` so that a traced run can time each layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import reference
from psolve import cli, core, encodings, resolution, search

PALETTE = ("r", "g", "b")


@dataclass
class Instance:
    family: str
    kind: str          # cnf | sdr | coloring | listcoloring | pairs
    data: dict
    expected: bool | None = None   # has property S, per the reference
    strategy: str = "ef"           # resolution strategy (refute, saturate)


# ---------------------------------------------------------------------------
# Generators (no psolve)

def random_3cnf(rng, n, m):
    return [tuple(v if rng.random() < 0.5 else -v
                  for v in rng.sample(range(1, n + 1), 3))
            for _ in range(m)]


def cnf_instance(family, n, clauses):
    return Instance(family, "cnf", {"n": n, "clauses": clauses})


def cnf_filtered(rng, family, n, ratio, satisfiable):
    """A random 3-CNF whose DPLL verdict is ``satisfiable``."""
    while True:
        clauses = random_3cnf(rng, n, round(ratio * n))
        if reference.dpll_satisfiable(clauses) == satisfiable:
            inst = cnf_instance(family, n, clauses)
            inst.expected = satisfiable
            return inst


def sdr_instance(family, labels, sets):
    return Instance(family, "sdr", {"labels": labels, "sets": sets})


def pigeonhole(rng, k):
    """PHP(k): k + 1 pigeons, each choosing among the same k holes."""
    holes = [f"h{j}" for j in range(k)]
    sets = [tuple(rng.sample(holes, k)) for _ in range(k + 1)]
    inst = sdr_instance(f"php{k}", [f"p{i}" for i in range(k + 1)], sets)
    inst.expected = False
    return inst


def complete_sdr(rng, k):
    """k sets, each the whole k-element ground set, in shuffled order."""
    elements = [f"x{j}" for j in range(k)]
    sets = [tuple(rng.sample(elements, k)) for _ in range(k)]
    inst = sdr_instance(f"complete_sdr{k}", [f"s{i}" for i in range(k)], sets)
    inst.expected = True
    return inst


def random_graph(rng, n, m):
    vertices = [f"a{i}" for i in range(n)]
    edges = set()
    while len(edges) < m:
        a, b = rng.sample(range(n), 2)
        edges.add((min(a, b), max(a, b)))
    return vertices, [(vertices[a], vertices[b]) for a, b in sorted(edges)]


def bipartite_graph(rng, n, m):
    """A random graph on n vertices with m edges across a random cut."""
    vertices = [f"a{i}" for i in range(n)]
    side = [rng.random() < 0.5 for _ in range(n)]
    edges = set()
    while len(edges) < m:
        a, b = rng.sample(range(n), 2)
        if side[a] != side[b]:
            edges.add((min(a, b), max(a, b)))
    return vertices, [(vertices[a], vertices[b]) for a, b in sorted(edges)]


def coloring_instance(family, vertices, edges, colors):
    lists = {v: tuple(str(c) for c in range(1, colors + 1)) for v in vertices}
    return Instance(family, "coloring",
                    {"vertices": vertices, "edges": edges, "colors": colors,
                     "lists": lists})


def list_coloring_instance(family, vertices, edges, lists):
    return Instance(family, "listcoloring",
                    {"vertices": vertices, "edges": edges, "lists": lists})


def colorable_graph(rng, n, m):
    """A random graph with a proper 3-colouring, per the reference."""
    while True:
        vertices, edges = random_graph(rng, n, m)
        inst = coloring_instance(f"col3_{n}", vertices, edges, 3)
        if _coloring_reference(inst.data):
            inst.expected = True
            return inst


def odd_cycle_lists(rng, length):
    """An odd cycle whose vertices all share one 2-colour list."""
    vertices = [f"c{i}" for i in range(length)]
    edges = [(vertices[i], vertices[(i + 1) % length]) for i in range(length)]
    pair = tuple(rng.sample(PALETTE, 2))
    inst = list_coloring_instance(f"cycle{length}", vertices, edges,
                                  {v: pair for v in vertices})
    inst.expected = False
    return inst


def grid_lists(rng, rows, cols):
    """A grid with random 2-colour lists that admit no list colouring."""
    vertices = [f"v{r}_{c}" for r in range(rows) for c in range(cols)]
    edges = ([(f"v{r}_{c}", f"v{r}_{c + 1}")
              for r in range(rows) for c in range(cols - 1)]
             + [(f"v{r}_{c}", f"v{r + 1}_{c}")
                for r in range(rows - 1) for c in range(cols)])
    while True:
        lists = {v: tuple(rng.sample(PALETTE, 2)) for v in vertices}
        inst = list_coloring_instance(f"grid{rows}x{cols}", vertices, edges, lists)
        if not _coloring_reference(inst.data):
            inst.expected = False
            return inst


def sparse_list_coloring(rng, n, m):
    vertices, edges = random_graph(rng, n, m)
    lists = {v: tuple(rng.sample(PALETTE, 2)) for v in vertices}
    return list_coloring_instance(f"lists2_{n}", vertices, edges, lists)


def all_pairs(rng, n, pairs_e, pairs_f):
    """A random all-pairs instance written as .bhg text by the benchmark.

    Vertices are declared first, in order, so vertex id i is name v{i}."""
    names = [f"v{i}" for i in range(n)]
    e_sets = [tuple(rng.sample(names, 2)) for _ in range(pairs_e)]
    f_sets = [tuple(rng.sample(names, 2)) for _ in range(pairs_f)]
    lines = [f"v {name}" for name in names]
    lines += [f"e E{i + 1}: {a} {b}" for i, (a, b) in enumerate(e_sets)]
    lines += [f"f F{i + 1}: {a} {b}" for i, (a, b) in enumerate(f_sets)]
    return Instance(f"pairs{n}", "pairs",
                    {"names": names, "e_sets": e_sets, "f_sets": f_sets,
                     "text": "\n".join(lines) + "\n"})


# ---------------------------------------------------------------------------
# Workload make-up

@dataclass(frozen=True)
class Workload:
    decide: str                 # resolution | saturate | search | 2sat
    tail: float                 # percentile reported as verdict_s.tail
    make_round: object = field(repr=False)


STRATEGIES = ("ef", "fe", "alt:2")


def refute_round(rng, short):
    sizes = (8, 9) if short else (9, 9, 10, 10)
    base = [cnf_filtered(rng, f"unsat3cnf{n}", n, 6.0, False) for n in sizes]
    base.append(pigeonhole(rng, 3 if short else 4))
    base.append(pigeonhole(rng, 3))
    base.append(odd_cycle_lists(rng, 9))
    base.append(grid_lists(rng, 4, 5))
    return [Instance(inst.family, inst.kind, inst.data, inst.expected, strategy)
            for inst in base for strategy in STRATEGIES]


def saturate_round(rng, short):
    return [cnf_filtered(rng, "sat3cnf9", 9, 4.26, True),
            cnf_filtered(rng, "sat3cnf10", 10, 4.26, True),
            complete_sdr(rng, 3 if short else 4),
            complete_sdr(rng, 2 if short else 3),
            colorable_graph(rng, 5, 7)]


def search_round(rng, short):
    n, nv = (20, 20) if short else (35, 25)
    out = []
    for _ in range(4):
        out.append(cnf_instance(f"3cnf{n}", n, random_3cnf(rng, n, round(4.26 * n))))
        vertices, edges = random_graph(rng, nv, round(2.3 * nv))
        out.append(coloring_instance(f"col3_{nv}", vertices, edges, 3))
    out.append(pigeonhole(rng, 4 if short else 6))
    return out


def allpairs_round(rng, short):
    n = 100 if short else 1500
    vertices, edges = bipartite_graph(rng, n, n)
    bipartite = coloring_instance(f"col2_{n}", vertices, edges, 2)
    vertices, edges = random_graph(rng, n, n)
    general = coloring_instance(f"col2_{n}", vertices, edges, 2)
    return [bipartite, sparse_list_coloring(rng, n, round(0.9 * n)), general,
            sparse_list_coloring(rng, n, round(0.9 * n)), all_pairs(rng, 2 * n, n, n)]


WORKLOADS = {
    "refute": Workload("resolution", 95.0, refute_round),
    "saturate": Workload("saturate", 95.0, saturate_round),
    "search": Workload("search", 98.0, search_round),
    "allpairs": Workload("2sat", 90.0, allpairs_round),
}


# ---------------------------------------------------------------------------
# Reference verdicts and witness checks (no psolve)

def _coloring_reference(data) -> bool:
    clauses = reference.coloring_cnf(data["vertices"], data["edges"], data["lists"])
    if all(len(c) <= 2 for c in clauses):
        return reference.two_sat_satisfiable(clauses)
    return reference.dpll_satisfiable(clauses)


def expected_verdict(inst: Instance) -> bool:
    """Whether the instance has property S, by a method psolve does not use."""
    d = inst.data
    if inst.kind == "cnf":
        return reference.dpll_satisfiable(d["clauses"])
    if inst.kind == "sdr":
        return reference.sdr_exists(dict(zip(d["labels"], d["sets"])))
    if inst.kind == "coloring" and d["colors"] == 2:
        return reference.two_colorable(d["vertices"], d["edges"])
    if inst.kind in ("coloring", "listcoloring"):
        return _coloring_reference(d)
    clauses = ([(int(a[1:]) + 1, int(b[1:]) + 1) for a, b in d["e_sets"]]
               + [(-int(a[1:]) - 1, -int(b[1:]) - 1) for a, b in d["f_sets"]])
    return reference.two_sat_satisfiable(clauses)


def witness_valid(inst: Instance, witness) -> bool:
    """A HasS witness, translated to the instance's own domain, is valid."""
    d = inst.data
    if inst.kind == "cnf":
        return reference.cnf_satisfied(d["clauses"], witness)
    if inst.kind == "sdr":
        return reference.sdr_valid(dict(zip(d["labels"], d["sets"])), witness)
    if inst.kind in ("coloring", "listcoloring"):
        return reference.coloring_valid(d["edges"], d["lists"], witness)
    return reference.partition_valid(d["e_sets"], d["f_sets"], witness)


# ---------------------------------------------------------------------------
# The timed operation: instance -> .bhg text -> verdict -> evidence -> check

@dataclass
class Outcome:
    has_s: bool | None            # None: resource limit (Indeterminate)
    witness: object = None        # HasS witness in the instance's domain
    proof_ok: bool | None = None  # refute: check_refutation after the round trip
    proof_empty: bool = False     # refute: the proof ends in {}
    steps: int = 0
    stats: tuple = (0, 0, 0, 0)   # generated, kept, subsumed, rounds
    nbytes: int = 0


def _from_cnf(d):
    return encodings.from_cnf(encodings.CnfFormula(d["n"], tuple(d["clauses"])))


def _from_sdr(d):
    return encodings.from_sdr(
        encodings.SdrInstance(tuple(d["labels"]), tuple(d["sets"])))


def _from_graph_coloring(d):
    return encodings.from_graph_coloring(encodings.ColoringInstance(
        tuple(d["vertices"]), tuple(d["edges"]), colors=d["colors"]))


def _from_list_coloring(d):
    vertices = tuple(d["vertices"])
    return encodings.from_list_coloring(encodings.ColoringInstance(
        vertices, tuple(d["edges"]), lists=tuple(d["lists"][v] for v in vertices)))


ENCODERS = {
    "cnf": ("encodings.from_cnf", _from_cnf),
    "sdr": ("encodings.from_sdr", _from_sdr),
    "coloring": ("encodings.from_graph_coloring", _from_graph_coloring),
    "listcoloring": ("encodings.from_list_coloring", _from_list_coloring),
}


def _translate(tracer, inst, encoding, x):
    if inst.kind == "pairs":
        names = inst.data["names"]
        return {names[i] for i in x.members}
    if inst.kind == "cnf":
        return tracer.call("encodings.assignment_from_partition",
                           encoding.assignment_from_partition, x)
    if inst.kind == "sdr":
        return tracer.call("encodings.representatives_from_partition",
                           encoding.representatives_from_partition, x)
    return tracer.call("encodings.coloring_from_partition",
                       encoding.coloring_from_partition, x)


def run_op(tracer, workload: Workload, inst: Instance) -> Outcome:
    encoding = None
    if inst.kind == "pairs":
        text = inst.data["text"]
    else:
        name, encode = ENCODERS[inst.kind]
        encoding = tracer.call(name, encode, inst.data)
        text = tracer.call("cli.format_instance", cli.format_instance,
                           encoding.bihypergraph)
    b = tracer.call("cli.parse_instance_text", cli.parse_instance_text, text)
    out = Outcome(None, nbytes=len(text))
    try:
        if workload.decide in ("resolution", "saturate"):
            cert = tracer.call("resolution.decide_by_resolution",
                               resolution.decide_by_resolution, b, inst.strategy)
            s = cert.stats
            out.stats = (s.generated, s.kept, s.subsumed, s.rounds)
            if workload.decide == "saturate" and cert.verdict.value == "HasS":
                cert = tracer.call("search.decide", search.decide, b, method="search")
        elif workload.decide == "search":
            cert = tracer.call("search.decide", search.decide, b, method="search")
        else:
            cert = tracer.call("search.decide_2sat", search.decide_2sat, b)
    except resolution.ResourceLimitError:
        return out
    out.has_s = cert.verdict.value == "HasS"
    if isinstance(cert.witness, core.SPartition):
        x = cert.witness.x_side
        if tracer.call("core.check_s_partition", core.check_s_partition, b, x):
            out.witness = _translate(tracer, inst, encoding, x)
    elif isinstance(cert.witness, resolution.Refutation):
        proof = tracer.call("cli.format_proof", cli.format_proof, b, cert.witness)
        out.nbytes += len(proof)
        mode, raw = tracer.call("cli.parse_proof_text", cli.parse_proof_text, proof)
        bound = tracer.call("cli.bind_proof", cli.bind_proof, b, mode, raw)
        out.steps = len(bound.steps)
        out.proof_empty = raw[-1][1] is None
        out.proof_ok = tracer.call("resolution.check_refutation",
                                   resolution.check_refutation, b, bound).ok
    return out


def op_correct(workload: Workload, inst: Instance, out: Outcome) -> bool:
    """Check one answered operation against the independent reference."""
    if out.has_s != inst.expected:
        return False
    if out.has_s:
        return out.witness is not None and witness_valid(inst, out.witness)
    if workload.decide == "resolution":
        return bool(out.proof_ok) and out.proof_empty
    return True
