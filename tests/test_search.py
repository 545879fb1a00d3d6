import itertools
import pathlib
import random
import subprocess
import sys

import pytest

from psolve import (CnfFormula, ColoringInstance, Refutation, SdrInstance,
                    Verdict, VertexSet, brute_force_decide, build,
                    check_refutation, check_s_partition, decide, decide_2sat,
                    decide_by_resolution, from_cnf, from_graph_coloring,
                    from_list_coloring, from_sdr, search)
from psolve.search import SetTooLargeError, _search_witness, with_refutation

from helpers import (all_s_partitions, count_calls, exhaustive_small_instances,
                     greatest_cnf_assignment, greatest_color_sets,
                     greatest_list_color_sets, greatest_sdr_sets,
                     rand_instance, reference_search_witness, shuffled_sets,
                     six_clause_instance, unit_propagate)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


class TestDecide:
    def test_six_clause_instance_all_methods(self):
        b = six_clause_instance()
        for method in ("search", "resolution", "oracle"):
            assert decide(b, method).verdict is Verdict.FAILS_S

    def test_empty_instance(self):
        b = build(["a"], [], [])
        cert = decide(b, "search")
        assert cert.verdict is Verdict.HAS_S
        assert cert.witness.x_side == VertexSet()

    def test_singleton_clash(self):
        b = build(["1", "2"], [["1"]], [["1"]])
        assert all_s_partitions(b) == []
        for method in ("search", "resolution", "2sat", "oracle"):
            assert decide(b, method).verdict is Verdict.FAILS_S

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            decide(six_clause_instance(), "guess")

    def test_witnesses_always_validate(self):
        rng = random.Random(43)
        for _ in range(300):
            b = rand_instance(rng, max_vertices=8, max_sets=6, max_size=4)
            cert = decide(b, "search")
            if cert.verdict is Verdict.HAS_S:
                assert check_s_partition(b, cert.witness.x_side)
            else:
                assert cert.witness is None

    def test_method_agreement(self):
        rng = random.Random(47)
        for _ in range(200):
            b = rand_instance(rng, max_vertices=7, max_sets=5, max_size=4)
            verdicts = {decide(b, m).verdict
                        for m in ("search", "resolution", "oracle")}
            if all(len(s) <= 2 for s in list(b.e_sets) + list(b.f_sets)):
                verdicts.add(decide(b, "2sat").verdict)
            assert len(verdicts) == 1

    def test_with_refutation_backs_search_fails(self):
        b = six_clause_instance()
        cert = with_refutation(b, decide(b, "search"))
        assert cert.method == "search"
        assert cert.verdict is Verdict.FAILS_S
        assert isinstance(cert.witness, Refutation)
        assert check_refutation(b, cert.witness)

    def test_resolution_has_s_gets_witness(self):
        b = build(["a", "b", "c"], [["a", "b"]], [["b", "c"]])
        cert = decide(b, "resolution")
        assert cert.verdict is Verdict.HAS_S
        assert check_s_partition(b, cert.witness.x_side)

    def test_unconstrained_vertices_left_out(self):
        b = build(["a", "b", "c"], [["b"]], [])
        for method in ("search", "2sat"):
            cert = decide(b, method)
            assert cert.witness.x_side == b.set_of_names(["b"]), method


class TestSearchWitness:
    def test_exhaustive_agreement_tiny(self):
        # every instance on <= 4 vertices with <= 3 sets of <= 2 members
        # per family, empty set included
        from helpers import exhaustive_small_instances
        for b in exhaustive_small_instances(max_vertices=4, max_sets=3,
                                            max_size=2):
            x = _search_witness(b)
            expected = bool(all_s_partitions(b))
            assert (x is not None) == expected
            if x is not None:
                assert check_s_partition(b, x)

    def test_propagation_rule_soundness(self):
        # whatever the unit rules force is shared by every completion:
        # an E-set with all other members out forces its last member in,
        # an F-set with all other members in forces its last member out
        rng = random.Random(53)
        for _ in range(300):
            b = rand_instance(rng, max_vertices=7, max_sets=5, max_size=3)
            n = b.vertex_count
            partial = {v: rng.choice((0, 1)) for v in range(n)
                       if rng.random() < 0.4}
            forced: dict[int, int] = {}
            for s in b.e_sets:
                members = s.members
                unset = [v for v in members if v not in partial]
                if (len(unset) == 1
                        and all(partial.get(v) == 0 for v in members if v in partial)
                        and not any(partial.get(v) == 1 for v in members)):
                    forced[unset[0]] = 1
            for s in b.f_sets:
                members = s.members
                unset = [v for v in members if v not in partial]
                if (len(unset) == 1
                        and all(partial.get(v) == 1 for v in members if v in partial)):
                    forced[unset[0]] = 0
            extensions = [x for x in all_s_partitions(b)
                          if all((v in x) == bool(val)
                                 for v, val in partial.items())]
            for x in extensions:
                for v, val in forced.items():
                    if v in partial:
                        continue
                    assert (v in x) == bool(val)

    def test_refuted_in_rule_soundness(self):
        # Once no S-partition extends P with v in X, every one that extends
        # P with v out holds an F-set f with v in f and f - {v} inside X: an
        # F-partner of v when every F-set holding v is a pair, and none at
        # all when v is in no F-set.  The search uses the rule for such v.
        rng = random.Random(59)
        seen = {"pairs": 0, "no_f_set": 0}
        for _ in range(400):
            b = rand_instance(rng, max_vertices=7, max_sets=6, max_size=3)
            f_sets = [set(s.members) for s in b.f_sets]
            partial = {v: rng.choice((0, 1)) for v in range(b.vertex_count)
                       if rng.random() < 0.3}
            extensions = [x for x in all_s_partitions(b)
                          if all((v in x) == bool(val)
                                 for v, val in partial.items())]
            for v in range(b.vertex_count):
                holding = [f for f in f_sets if v in f]
                if v in partial or any(v in x for x in extensions):
                    continue
                if any(len(f) >= 3 for f in holding):
                    continue
                partners = set().union(*holding) - {v}
                if holding and all(len(f) == 2 for f in holding):
                    seen["pairs"] += 1
                elif not holding:
                    seen["no_f_set"] += 1
                    assert extensions == []
                for x in extensions:
                    assert any(f - {v} <= x for f in holding)
                    if all(len(f) == 2 for f in holding):
                        assert partners & x
        assert min(seen.values()) > 50, seen

    def test_refuted_node_key_soundness(self):
        # The search files a refuted node under its key: the vertices
        # assigned and the sets of three or more members met, after
        # propagation.  Propagated assignments with equal keys meet the same
        # sets, pairs and units included, so they leave the same residual
        # instance on the unassigned vertices, and brute force finds them
        # the same S-partition completions there.  Random assignments cover
        # small random instances; pigeons placed in the same holes in other
        # orders share keys too, with completions when there are as many
        # holes as pigeons and without when there is one hole fewer.
        rng = random.Random(61)
        candidates = []
        for made in range(150):
            if made % 3 == 0:
                b = rand_instance(rng, max_vertices=8, max_sets=7, max_size=4)
            elif made % 3 == 1:
                elements = [f"e{j}" for j in range(rng.randint(2, 3))]
                labels = tuple(f"s{i}" for i in range(rng.randint(2, 4)))
                b = from_sdr(SdrInstance(labels, tuple(
                    tuple(rng.sample(elements, rng.randint(1, len(elements))))
                    for _ in labels))).bihypergraph
            else:
                n = rng.randint(3, 4)
                b = from_cnf(CnfFormula(n, tuple(
                    tuple(v if rng.random() < 0.5 else -v
                          for v in rng.sample(range(1, n + 1), rng.randint(2, 3)))
                    for _ in range(rng.randint(n, 3 * n))))).bihypergraph
            partials = []
            for _ in range(8):
                chosen = rng.sample(range(b.vertex_count),
                                    rng.randint(1, min(b.vertex_count, 4)))
                partials += [{v: values >> i & 1 for i, v in enumerate(chosen)}
                             for values in range(1 << len(chosen))]
            candidates.append((b, partials))
        for pigeons, holes in ((5, 4), (6, 5), (4, 4), (5, 5)):
            b = from_sdr(SdrInstance(tuple(f"p{i}" for i in range(pigeons)),
                                     (tuple(f"h{j}" for j in range(holes)),) * pigeons)
                         ).bihypergraph
            partials = [{b.id_of(f"h{j}@p{i}"): int(j == hole)
                         for i, hole in enumerate(placed) for j in range(holes)}
                        for placed_count in range(1, pigeons)
                        for placed in itertools.permutations(range(holes), placed_count)]
            candidates.append((b, partials))
        shared = {"with_completions": 0, "without": 0}
        for b, partials in candidates:
            n = b.vertex_count
            sets = [(s.mask, 1) for s in b.e_sets] + [(s.mask, 0) for s in b.f_sets]
            groups: dict[tuple, dict[tuple, frozenset[int]]] = {}
            for partial in partials:
                assigned = unit_propagate(b, partial)
                if assigned is None:
                    continue
                inside = sum(1 << v for v, val in assigned.items() if val)
                outside = sum(1 << v for v, val in assigned.items() if not val)
                met = frozenset(i for i, (mask, val) in enumerate(sets)
                                if mask & (inside if val else outside))
                key = (inside | outside,
                       frozenset(i for i in met if sets[i][0].bit_count() >= 3))
                groups.setdefault(key, {})[(inside, outside)] = met
            for (done, _), found in groups.items():
                if len(found) < 2:
                    continue
                assert len(set(found.values())) == 1
                free = [v for v in range(n) if not done >> v & 1]
                completions = set()
                for inside, _ in found:
                    completions.add(frozenset(
                        extra for extra in (sum(1 << v for v in subset)
                                            for r in range(len(free) + 1)
                                            for subset in itertools.combinations(free, r))
                        if all(mask & (inside | extra) if val
                               else mask & ~(inside | extra)
                               for mask, val in sets)))
                assert len(completions) == 1
                shared["with_completions" if completions.pop() else "without"] += 1
        assert min(shared.values()) > 20, shared

    def test_matches_reference_search(self):
        # The witness is the lexicographically greatest S-partition with
        # set-free vertices out, whatever the propagation does.
        rng = random.Random(71)
        verdicts = set()
        for i in range(3000):
            b = rand_instance(rng, max_vertices=14, max_sets=10, max_size=5,
                              min_size=0 if i % 10 == 0 else 1)
            x = _search_witness(b)
            expected = reference_search_witness(b)
            assert (None if x is None else x.mask) == expected
            verdicts.add(expected is None)
        assert verdicts == {True, False}
        for b in exhaustive_small_instances(max_vertices=4, max_sets=3,
                                            max_size=2):
            x = _search_witness(b)
            expected = reference_search_witness(b)
            assert (None if x is None else x.mask) == expected
            touched = set()
            for s in list(b.e_sets) + list(b.f_sets):
                touched.update(s.members)
            candidates = [p for p in all_s_partitions(b) if p <= touched]
            if candidates:
                greatest = max(candidates, key=lambda p: [v in p for v in
                                                          range(b.vertex_count)])
                assert expected == sum(1 << v for v in greatest)
            else:
                assert expected is None


def _mask(x: VertexSet | None) -> int | None:
    return None if x is None else x.mask


def _witness_everywhere(b, rng, shuffles: int = 3) -> int | None:
    """The search's witness mask, after checking that it is the same on
    ``shuffles`` seeded reorderings of the sets, which file the partner and
    watch lists in other orders, and equal to ``reference_search_witness``
    when ``b`` is small enough for it."""
    x = _mask(_search_witness(b))
    for _ in range(shuffles):
        assert _mask(_search_witness(shuffled_sets(b, rng))) == x
    if b.vertex_count <= 14:
        assert x == reference_search_witness(b)
    return x


def _backtracking_corpus(rng, count: int):
    """``count`` each of: SDR families of 2 to 5 elements with up to two
    more sets than elements, random 3-CNF on 4 to 8 variables at clause
    ratios 3 to 6, and ``rand_instance``s.  The search backtracks on many of
    them and revisits residual instances it has refuted."""
    for _ in range(count):
        k = rng.randint(2, 5)
        elements = [f"e{j}" for j in range(k)]
        labels = tuple(f"s{i}" for i in range(rng.randint(2, k + 2)))
        yield from_sdr(SdrInstance(labels, tuple(
            tuple(rng.sample(elements, rng.randint(1, k))) for _ in labels))).bihypergraph
        n = rng.randint(4, 8)
        yield from_cnf(CnfFormula(n, tuple(
            tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3))
            for _ in range(round(rng.uniform(3, 6) * n))))).bihypergraph
        yield rand_instance(rng, max_vertices=12, max_sets=10, max_size=4)


def _pigeonhole(rng, holes: int):
    """PHP(holes) via from_sdr: one more pigeon than holes, each listing
    every hole in a seeded order."""
    names = tuple(f"h{j}" for j in range(holes))
    return from_sdr(SdrInstance(tuple(f"p{i}" for i in range(holes + 1)),
                                tuple(tuple(rng.sample(names, holes))
                                      for _ in range(holes + 1)))).bihypergraph


def _place_calls(instances) -> int:
    return count_calls("place", lambda: [_search_witness(b) for b in instances])[1]


class TestDeepBacktracking:
    """Instances on which the search backtracks often (about a hundred
    times per formula), so that watch lists are reordered and partner lists
    are read across many backtracks, and instances made mostly of pairs,
    which propagate through partner lists alone.  Each is checked against a
    plain backtracking search in its own domain, which finds the greatest
    S-partition far sooner than ``reference_search_witness``, and by the
    domain's own test of the witness; bare pair instances are checked
    against the oracle and ``reference_search_witness``."""

    def test_random_3cnf(self):
        rng = random.Random(73)
        verdicts = set()
        for _ in range(12):
            n = rng.randint(20, 25)
            clauses = tuple(tuple(v if rng.random() < 0.5 else -v
                                  for v in rng.sample(range(1, n + 1), 3))
                            for _ in range(round(4.26 * n)))
            formula = CnfFormula(n, clauses)
            enc = from_cnf(formula)
            cert = decide(enc.bihypergraph, method="search")
            expected = greatest_cnf_assignment(formula)
            verdicts.add(cert.verdict)
            if expected is None:
                assert cert.verdict is Verdict.FAILS_S
            else:
                x = cert.witness.x_side
                assert x == enc.partition_from_assignment(expected)
                assert formula.is_satisfied_by(enc.assignment_from_partition(x))
        assert verdicts == {Verdict.HAS_S, Verdict.FAILS_S}

    def test_refuted_in_rule_prunes(self, monkeypatch):
        """The search's ``place`` calls over the formulas of
        ``test_random_3cnf`` (whose witnesses are pinned there) and over
        twelve 3-colourings of random graphs on 20 vertices and 44 edges
        (whose witnesses are checked here).  The refuted-in rule cuts them
        from 1,317 to 689 and from 1,971 to 1,399.  Only the colourings reach
        the rule's conflict, where every F-partner of the flipped vertex is
        already out: without it they take 1,943 calls.  The cache of refuted
        nodes then takes the colourings from 1,399 to 1,377; with the cache
        off (a cap of 0) the counts are the rule's alone."""
        rng = random.Random(73)
        formulas = []
        for _ in range(12):
            n = rng.randint(20, 25)
            clauses = tuple(tuple(v if rng.random() < 0.5 else -v
                                  for v in rng.sample(range(1, n + 1), 3))
                            for _ in range(round(4.26 * n)))
            formulas.append(from_cnf(CnfFormula(n, clauses)).bihypergraph)
        rng = random.Random(83)
        palette = ("1", "2", "3")
        vertices = tuple(f"a{i}" for i in range(20))
        graphs = []
        for _ in range(12):
            edges = set()
            while len(edges) < 44:
                edges.add(tuple(sorted(rng.sample(vertices, 2))))
            edges = tuple(sorted(edges))
            b = from_graph_coloring(
                ColoringInstance(vertices, edges, colors=3)).bihypergraph
            graphs.append((b, greatest_color_sets(vertices, edges, palette)))
        found, calls = count_calls(
            "place", lambda: [_search_witness(b) for b, _ in graphs])
        assert (_place_calls(formulas), calls) == (689, 1377)
        for (b, expected), x in zip(graphs, found):
            if expected is None:
                assert x is None
            else:
                assert expected == {a: {c for c in palette
                                        if b.id_of(f"{a}@{c}") in x}
                                    for a in vertices}
        assert sum(x is None for x in found) == 9
        monkeypatch.setattr(search, "_REFUTED_CAP", 0)
        assert (_place_calls(formulas),
                _place_calls([b for b, _ in graphs])) == (689, 1399)

    def test_refuted_node_cache_prunes_pigeonhole(self, monkeypatch):
        """Placements that differ only in hole order leave the same residual
        instance, so the cache refutes each such instance once.  PHP(7)
        takes 3,400 ``place`` calls and PHP(6) 1,114; with the cache off,
        PHP(6) takes 6,490."""
        rng = random.Random(113)
        php6, php7 = _pigeonhole(rng, 6), _pigeonhole(rng, 7)
        assert _search_witness(php6) is None and _search_witness(php7) is None
        assert (_place_calls([php6]), _place_calls([php7])) == (1114, 3400)
        monkeypatch.setattr(search, "_REFUTED_CAP", 0)
        assert _place_calls([php6]) == 6490

    def test_refuted_node_cache_matches_reference(self, monkeypatch):
        # Witnesses equal the plain search's on 3,000 instances that revisit
        # refuted residual instances: the search makes fewer place calls
        # with the cache than with it off, so the cache was hit.  A key
        # missing its met sets, or its assigned vertices, gives mismatches.
        corpus = list(_backtracking_corpus(random.Random(113), 1000))
        verdicts = set()
        for b in corpus:
            expected = reference_search_witness(b)
            assert _mask(_search_witness(b)) == expected
            verdicts.add(expected is None)
        assert verdicts == {True, False}
        cached = _place_calls(corpus)
        monkeypatch.setattr(search, "_REFUTED_CAP", 0)
        assert _place_calls(corpus) > cached

    def test_small_refuted_cap_clears(self, monkeypatch):
        # A cache that empties whenever it would pass the cap loses hits,
        # so PHP(6) takes more place calls than under the real cap, and
        # still the witnesses equal the plain search's.
        monkeypatch.setattr(search, "_REFUTED_CAP", 64)
        assert _place_calls([_pigeonhole(random.Random(113), 6)]) == 4310
        monkeypatch.setattr(search, "_REFUTED_CAP", 3)
        for b in _backtracking_corpus(random.Random(127), 300):
            assert _mask(_search_witness(b)) == reference_search_witness(b)

    def test_random_graph_3_coloring(self):
        rng = random.Random(79)
        palette = ("1", "2", "3")
        verdicts = set()
        for _ in range(12):
            vertices = tuple(f"a{i}" for i in range(15))
            edges = set()
            count = rng.randint(26, 36)
            while len(edges) < count:
                edges.add(tuple(sorted(rng.sample(vertices, 2))))
            edges = tuple(sorted(edges))
            enc = from_graph_coloring(ColoringInstance(vertices, edges, colors=3))
            b = enc.bihypergraph
            cert = decide(b, method="search")
            expected = greatest_color_sets(vertices, edges, palette)
            verdicts.add(cert.verdict)
            if expected is None:
                assert cert.verdict is Verdict.FAILS_S
            else:
                x = cert.witness.x_side
                assert expected == {a: {c for c in palette if b.id_of(f"{a}@{c}") in x}
                                    for a in vertices}
                coloring = enc.coloring_from_partition(x)
                assert all(coloring[a1] != coloring[a2] for a1, a2 in edges)
        assert verdicts == {Verdict.HAS_S, Verdict.FAILS_S}

    def test_pigeonhole_5_fails(self):
        holes = tuple(f"h{j}" for j in range(5))
        instance = SdrInstance(tuple(f"p{i}" for i in range(6)), (holes,) * 6)
        cert = decide(from_sdr(instance).bihypergraph, method="search")
        assert cert.verdict is Verdict.FAILS_S

    @staticmethod
    def _check_sdr(labels, families, rng) -> bool:
        enc = from_sdr(SdrInstance(labels, families))
        b = enc.bihypergraph
        x = _witness_everywhere(b, rng)
        expected = greatest_sdr_sets(labels, families)
        if expected is None:
            assert x is None
            return False
        x = VertexSet(x)
        assert {label: {e for e in elems if b.id_of(f"{e}@{label}") in x}
                for label, elems in zip(labels, families)} == expected
        chosen = enc.representatives_from_partition(x)
        assert len(set(chosen.values())) == len(labels)
        return True

    def test_pigeonhole_pairs(self):
        # PHP(4) and PHP(5) via from_sdr: one E-set per pigeon, all else
        # F-pairs, as encoded and with their sets shuffled; with as many
        # holes as pigeons, or more, they have property S.
        rng = random.Random(89)
        verdicts = set()
        for pigeons, holes in ((5, 4), (6, 5), (4, 4), (5, 5), (3, 4),
                               (4, 5), (3, 3), (2, 3)):
            labels = tuple(f"p{i}" for i in range(pigeons))
            families = (tuple(f"h{j}" for j in range(holes)),) * pigeons
            verdicts.add(self._check_sdr(labels, families, rng))
        assert verdicts == {True, False}

    def test_random_sdr_families(self):
        # Lists of one to four elements: unit E-sets, E-pairs, F-pairs.
        rng = random.Random(97)
        verdicts = set()
        for _ in range(40):
            elements = [f"e{j}" for j in range(rng.randint(3, 6))]
            labels = tuple(f"s{i}" for i in range(rng.randint(3, 6)))
            families = tuple(
                tuple(rng.sample(elements, rng.randint(1, min(4, len(elements)))))
                for _ in labels)
            verdicts.add(self._check_sdr(labels, families, rng))
        assert verdicts == {True, False}

    def test_list_coloring_grids_and_odd_cycles(self):
        # One E-set per graph vertex, of one to three colours, and F-pairs
        # along the edges.
        rng = random.Random(101)
        palette = ("r", "g", "b")
        graphs = []
        for length in (3, 5, 7, 9, 11):
            cycle = [f"c{i}" for i in range(length)]
            edges = [(cycle[i], cycle[(i + 1) % length]) for i in range(length)]
            pair = tuple(rng.sample(palette, 2))
            graphs.append((cycle, edges, [pair] * length))
            graphs.append((cycle, edges, [pair] * (length - 1) + [palette]))
            graphs.append((cycle, edges, [tuple(rng.sample(palette, 2))
                                          for _ in cycle]))
        for rows, cols in ((2, 3), (3, 3), (3, 4), (4, 4), (4, 5)):
            grid = [f"v{r}_{c}" for r in range(rows) for c in range(cols)]
            edges = ([(f"v{r}_{c}", f"v{r}_{c + 1}")
                      for r in range(rows) for c in range(cols - 1)]
                     + [(f"v{r}_{c}", f"v{r + 1}_{c}")
                        for r in range(rows - 1) for c in range(cols)])
            for _ in range(4):
                graphs.append((grid, edges,
                               [tuple(rng.sample(palette, rng.choice((1, 2, 2, 2, 3))))
                                for _ in grid]))
        verdicts = set()
        for vertices, edges, lists in graphs:
            enc = from_list_coloring(ColoringInstance(tuple(vertices), tuple(edges),
                                                      lists=tuple(lists)))
            b = enc.bihypergraph
            x = _witness_everywhere(b, rng)
            expected = greatest_list_color_sets(vertices, edges, lists)
            verdicts.add(expected is not None)
            if expected is None:
                assert x is None
                continue
            x = VertexSet(x)
            assert expected == {a: {c for c in colors if b.id_of(f"{a}@{c}") in x}
                                for a, colors in zip(vertices, lists)}
            coloring = enc.coloring_from_partition(x)
            assert all(coloring[a1] != coloring[a2] for a1, a2 in edges)
        assert verdicts == {True, False}

    def test_cnf_with_unit_and_repeated_clauses(self):
        # Mostly two-literal clauses, some unit clauses, and clauses given
        # more than once; from_cnf adds an F-pair per variable.
        rng = random.Random(103)
        verdicts = set()
        for _ in range(30):
            n = rng.randint(12, 22)
            clauses = [tuple(v if rng.random() < 0.5 else -v
                             for v in rng.sample(range(1, n + 1),
                                                 rng.choice((1, 2, 2, 2, 2, 3, 3))))
                       for _ in range(rng.randint(n, 2 * n))]
            clauses += rng.sample(clauses, len(clauses) // 4)
            rng.shuffle(clauses)
            formula = CnfFormula(n, tuple(clauses))
            enc = from_cnf(formula)
            x = _witness_everywhere(enc.bihypergraph, rng)
            expected = greatest_cnf_assignment(formula)
            verdicts.add(expected is not None)
            if expected is None:
                assert x is None
            else:
                assert VertexSet(x) == enc.partition_from_assignment(expected)
        assert verdicts == {True, False}

    def test_pairs_in_both_families_and_repeated(self):
        # A pair that is both an E-set and an F-set puts exactly one member
        # in X; a pair given twice is filed twice.
        b = build(["a", "b"], [["a", "b"], ["a", "b"]], [["b", "a"]])
        assert _search_witness(b) == b.set_of_names(["a"])
        rng = random.Random(107)
        verdicts = set()
        for _ in range(400):
            n = rng.randint(2, 12)
            names = [f"v{i}" for i in range(n)]
            e_sets, f_sets = [], []
            for _ in range(rng.randint(1, 2 * n)):
                pair = rng.sample(names, 2)
                roll = rng.random()
                if roll < 0.3:
                    e_sets.append(pair)
                    f_sets.append(pair[::-1])
                elif roll < 0.45:
                    (e_sets if rng.random() < 0.5 else f_sets).extend((pair, pair))
                else:
                    (e_sets if rng.random() < 0.5 else f_sets).append(pair)
            if rng.random() < 0.3:
                (e_sets if rng.random() < 0.5 else f_sets).append(rng.sample(names, 1))
            if rng.random() < 0.2 and n >= 3:
                (e_sets if rng.random() < 0.5 else f_sets).append(rng.sample(names, 3))
            b = build(names, e_sets, f_sets)
            x = _witness_everywhere(b, rng, shuffles=1)
            assert (x is not None) is (brute_force_decide(b).verdict is Verdict.HAS_S)
            verdicts.add(x is not None)
        assert verdicts == {True, False}


def _wide_instance(rng, sizes):
    """A seeded instance on 3,010 to 3,200 vertices whose sets draw their
    members from three low ids and nine ids past 3,000, so each set's mask
    spans thousands of bits, with set sizes drawn from ``sizes``; some get a
    1-member set, a set that lists one name twice, or an empty set."""
    n = rng.randint(3010, 3200)
    names = [f"v{i}" for i in range(n)]
    touched = [names[v] for v in rng.sample(range(8), 3) + rng.sample(range(3001, n), 9)]

    def family():
        return [rng.sample(touched, rng.choice(sizes)) for _ in range(rng.randint(2, 10))]

    e_sets, f_sets = family(), family()
    roll = rng.random()
    if roll < 0.3:
        (e_sets if rng.random() < 0.5 else f_sets).append(rng.sample(touched, 1))
    elif roll < 0.6:
        (e_sets if rng.random() < 0.5 else f_sets).append([rng.choice(touched)] * 2)
    elif roll < 0.65:
        (e_sets if rng.random() < 0.5 else f_sets).append([])
    return build(names, e_sets, f_sets)


class TestWideInstances:
    """Sets of at most two members are filed from their masks' end bits;
    on masks of thousands of bits the witness must still be the reference's.
    The reference recurses once per vertex, so its limit is raised."""

    @pytest.fixture(autouse=True)
    def deep_reference(self):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 10_000))
        yield
        sys.setrecursionlimit(limit)

    def test_pairs_only_match_reference(self):
        rng = random.Random(127)
        verdicts = set()
        for _ in range(40):
            b = _wide_instance(rng, (2,))
            expected = reference_search_witness(b)
            assert _mask(_search_witness(b)) == expected
            cert = decide_2sat(b)
            assert (cert.verdict is Verdict.HAS_S) is (expected is not None)
            verdicts.add(expected is None)
        assert verdicts == {True, False}

    def test_pairs_and_longer_sets_match_reference(self):
        rng = random.Random(131)
        verdicts = set()
        for _ in range(40):
            b = _wide_instance(rng, (2, 2, 2, 3, 4))
            expected = reference_search_witness(b)
            assert _mask(_search_witness(b)) == expected
            verdicts.add(expected is None)
        assert verdicts == {True, False}

    def test_short_and_empty_sets(self):
        names = [f"v{i}" for i in range(3005)]
        for e_sets, f_sets in (
                ([["v3004"]], [["v2", "v3004"]]),
                ([["v3003", "v3003"], ["v1", "v3004"]], [["v1", "v3003"]]),
                ([["v0", "v3004"], []], []),
                ([["v3002", "v3004"]], [[], ["v0"]]),
        ):
            b = build(names, e_sets, f_sets)
            assert _mask(_search_witness(b)) == reference_search_witness(b)

    def test_2sat_rejects_a_wide_triple(self):
        names = [f"v{i}" for i in range(3005)]
        b = build(names, [["v1", "v3002"], ["v1", "v3001", "v3004"]], [])
        with pytest.raises(SetTooLargeError) as info:
            decide_2sat(b)
        assert str(info.value) == ("set VertexSet.of([1, 3001, 3004]) has 3 members;"
                                   " the 2-SAT path needs <= 2")


class TestDecide2Sat:
    def test_shared_pair(self):
        b = build(["a", "b"], [["a", "b"]], [["a", "b"]])
        cert = decide_2sat(b)
        assert cert.verdict is Verdict.HAS_S
        assert check_s_partition(b, cert.witness.x_side)

    def test_direct_contradiction(self):
        b = build(["a"], [["a"]], [["a"]])
        assert decide_2sat(b).verdict is Verdict.FAILS_S

    def test_set_too_large(self):
        b = build(["a", "b", "c"], [["a", "b", "c"]], [])
        with pytest.raises(SetTooLargeError):
            decide_2sat(b)

    def test_empty_set_fails(self):
        assert decide_2sat(build(["a"], [[]], [])).verdict is Verdict.FAILS_S
        assert decide_2sat(build(["a"], [], [[]])).verdict is Verdict.FAILS_S

    def test_unit_chain_propagation(self):
        # a forced in, so b forced out, so c forced in
        b = build(["a", "b", "c"], [["a"], ["b", "c"]], [["a", "b"]])
        cert = decide_2sat(b)
        assert cert.verdict is Verdict.HAS_S
        assert cert.witness.x_side == b.set_of_names(["a", "c"])

    def test_matches_oracle_on_thousand_seeds(self):
        rng = random.Random(59)
        for _ in range(1000):
            b = rand_instance(rng, max_vertices=10, max_sets=8, max_size=2)
            expected = bool(all_s_partitions(b))
            cert = decide_2sat(b)
            assert (cert.verdict is Verdict.HAS_S) == expected
            if cert.verdict is Verdict.HAS_S:
                assert check_s_partition(b, cert.witness.x_side)

    def test_pairs_only_matches_oracle_and_search(self):
        # Pairs only and no singleton set, so nothing is forced at the root:
        # every FailsS comes from the search.  A HasS witness is the search's.
        rng = random.Random(67)
        verdicts = set()
        for _ in range(200):
            n = rng.randint(2, 10)
            names = [f"v{i}" for i in range(n)]

            def family():
                return [rng.sample(names, 2) for _ in range(rng.randint(0, 2 * n))]

            b = build(names, family(), family())
            cert = decide_2sat(b)
            assert cert.verdict is brute_force_decide(b).verdict
            if cert.verdict is Verdict.HAS_S:
                assert cert.witness == decide(b, "search").witness
            verdicts.add(cert.verdict)
        assert verdicts == {Verdict.HAS_S, Verdict.FAILS_S}

    def test_matches_resolution_beyond_the_oracle(self):
        # Resolvents of sets of at most two members have at most two
        # members, so the ef closure stays small past the oracle's reach.
        rng = random.Random(83)
        verdicts = set()
        for _ in range(500):
            n = rng.randint(11, 40)
            names = [f"v{i}" for i in range(n)]

            def family():
                return [rng.sample(names, rng.choice((1, 2, 2, 2, 2, 2)))
                        for _ in range(rng.randint(n // 4, n))]

            b = build(names, family(), family())
            cert = decide_2sat(b)
            assert cert.verdict is decide_by_resolution(b, "ef").verdict
            verdicts.add(cert.verdict)
        assert verdicts == {Verdict.HAS_S, Verdict.FAILS_S}

    GADGETS = (
        "from psolve import build, decide\n"
        "gadgets = [[f'g{i}x', f'g{i}y'] for i in range(40)]\n"
        "triangle = [['t0', 't1'], ['t1', 't2'], ['t0', 't2']]\n"
        "names = [v for pair in gadgets for v in pair] + ['t0', 't1', 't2']\n"
        "sets = gadgets + triangle\n"
        "print(decide(build(names, sets, sets), 'search').verdict.value)\n"
    )

    def test_refuted_decision_ends_pairs_only_search(self):
        """Forty one-of-two gadgets at low ids and an odd triangle at high
        ids: the triangle refutes its first decision both ways, and a
        search that backtracked into the gadgets would try 2^40 of them."""
        proc = subprocess.run([sys.executable, "-c", self.GADGETS],
                              capture_output=True, text=True, timeout=60,
                              env={"PYTHONPATH": str(SRC)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "FailsS"

    def test_refuted_decision_with_a_triple_backtracks(self):
        """Pairs and one F-set of three members.  With a in X, both values
        of v force x and y into X, which the triple {a, x, y} forbids, so
        the decision on v is refuted both ways; yet a out of X leaves a
        witness.  The all-pairs exit is for instances whose sets all have
        at most two members, so the search backtracks past v and returns
        the greatest witness."""
        gadgets = [[f"g{i}x", f"g{i}y"] for i in range(20)]
        names = ["a", "v", "p", "x", "y"] + [w for pair in gadgets for w in pair]
        e_sets = [["v", "x"], ["v", "y"], ["p", "x"], ["p", "y"]] + gadgets
        f_sets = [["v", "p"], ["a", "x", "y"]] + gadgets
        b = build(names, e_sets, f_sets)
        assert _search_witness(build(names, e_sets + [["a"]], f_sets)) is None
        expected = b.set_of_names(["v", "x", "y"] + [x for x, _ in gadgets])
        assert _search_witness(b) == expected
        assert expected.mask == reference_search_witness(b)
        assert decide(b, "search").witness.x_side == expected
        with pytest.raises(SetTooLargeError):
            decide_2sat(b)

    def test_pairs_and_one_triple_match_reference(self):
        # Random pairs on v1.. whose every model puts x and y in X, and the
        # F-set {v0, x, y}.  The search decides v0 in X first, and the pairs
        # then refute some later decision both ways, so it must backtrack to
        # v0 and find the greatest witness, which leaves v0 out.
        rng = random.Random(109)
        made = 0
        while made < 60:
            n = rng.randint(4, 12)
            names = [f"v{i}" for i in range(n)]
            e_sets = [rng.sample(names[1:], 2) for _ in range(rng.randint(1, n))]
            f_sets = [rng.sample(names[1:], 2) for _ in range(rng.randint(1, n))]
            models = all_s_partitions(build(names, e_sets, f_sets))
            backbone = sorted(set.intersection(*map(set, models))) if models else []
            if len(backbone) < 2:
                continue
            made += 1
            f_sets.append(["v0"] + [names[v] for v in rng.sample(backbone, 2)])
            b = build(names, e_sets, f_sets)
            assert reference_search_witness(build(names, e_sets + [["v0"]], f_sets)) is None
            expected = reference_search_witness(b)
            assert expected is not None
            assert _mask(_search_witness(b)) == expected

    def test_deterministic(self):
        rng = random.Random(61)
        for _ in range(50):
            b = rand_instance(rng, max_vertices=8, max_sets=6, max_size=2)
            first = decide_2sat(b)
            second = decide_2sat(b)
            assert first.verdict == second.verdict
            assert first.witness == second.witness


class TestSoundnessChecks:
    """A wrong witness is an error, also under ``python -O``, which strips
    assert statements."""

    SCRIPT = (
        "from psolve import VertexSet, build, decide, search\n"
        "search._search_witness = lambda b: VertexSet(0)\n"
        "print(decide(build(['a', 'b'], [['a']], [['b']])).verdict.value)\n"
    )

    def test_wrong_witness_raises(self, monkeypatch):
        monkeypatch.setattr(search, "_search_witness", lambda b: VertexSet(0))
        with pytest.raises(RuntimeError):
            decide(build(["a", "b"], [["a"]], [["b"]]))

    def test_wrong_witness_raises_under_optimize(self):
        proc = subprocess.run([sys.executable, "-O", "-c", self.SCRIPT],
                              capture_output=True, text=True, timeout=60,
                              env={"PYTHONPATH": str(SRC)})
        assert proc.returncode != 0
        assert "RuntimeError" in proc.stderr
        assert "HasS" not in proc.stdout
