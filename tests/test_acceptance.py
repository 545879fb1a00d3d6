"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v`` (the summary lines are
written to the real stdout so they show regardless of capture settings).
"""

import itertools
import random
import time
from contextlib import contextmanager

import pytest

from psolve import (CnfFormula, ColoringInstance, SdrInstance, Verdict,
                    alternating_closure, analyze, all_large_subsets_check,
                    brute_force_decide, build, closure, decide, decide_2sat,
                    decide_by_resolution, from_cnf, from_graph_coloring,
                    from_list_coloring, from_sdr, to_cnf)
from psolve.cli import EXIT_HAS_S, main

from helpers import (GRID_EDGES, GRID_VERTICES,
                     cnf_is_satisfiable, coloring_search,
                     exhaustive_small_instances, grid_lists_instance,
                     naive_closure_contains_empty, rand_instance, sdr_search,
                     six_clause_instance)

SEED = 20260808


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} {name}: FAIL", flush=True)
        raise
    print(f"criterion {number:02d} {name}: PASS", flush=True)


@pytest.fixture(scope="module")
def suite():
    """1000 random instances (|V| <= 10, <= 8 sets per family, sizes <= 4)
    plus the exhaustive family of tiny instances, with oracle verdicts."""
    rng = random.Random(SEED)
    instances = [rand_instance(rng, max_vertices=10, max_sets=8, max_size=4)
                 for _ in range(1000)]
    instances.extend(exhaustive_small_instances(max_vertices=4, max_sets=2,
                                                max_size=2))
    return [(b, brute_force_decide(b).verdict) for b in instances]


def test_criterion_01_six_clause_fixture(fixtures_dir):
    with criterion(1, "six-clause fixture refutations"):
        instance_path = str(fixtures_dir / "unsat3.bhg")
        b = six_clause_instance()
        for method in ("search", "resolution", "oracle"):
            start = time.perf_counter()
            assert decide(b, method).verdict is Verdict.FAILS_S
            assert time.perf_counter() - start < 1.0
        # the all-pairs method must reject this instance: it has three-member
        # sets, outside that method's contract
        with pytest.raises(Exception, match="2-SAT"):
            decide(b, "2sat")
        cert = decide_by_resolution(b, "ef")
        assert cert.verdict is Verdict.FAILS_S
        assert cert.stats.generated <= 1000
        assert cert.witness.steps[-1].conclusion.members == ()
        for proof in ("unsat3_ef.prf", "unsat3_fe.prf", "unsat3_alt.prf"):
            start = time.perf_counter()
            assert main(["check", instance_path,
                         str(fixtures_dir / proof)]) == EXIT_HAS_S, proof
            assert time.perf_counter() - start < 1.0


def test_criterion_02_list_coloring_fixture(fixtures_dir, capsys):
    with criterion(2, "list-coloring fixture"):
        start = time.perf_counter()
        b = grid_lists_instance()
        assert decide(b, "search").verdict is Verdict.FAILS_S
        assert brute_force_decide(b).verdict is Verdict.FAILS_S
        assert main(["check", str(fixtures_dir / "grid_lists.bhg"),
                     str(fixtures_dir / "grid_lists_ef.prf")]) == EXIT_HAS_S
        palette = ColoringInstance(GRID_VERTICES, GRID_EDGES, colors=2)
        enc = from_graph_coloring(palette)
        cert = decide(enc.bihypergraph, "search")
        assert cert.verdict is Verdict.HAS_S
        coloring = enc.coloring_from_partition(cert.witness.x_side)
        for a1, a2 in GRID_EDGES:
            assert coloring[a1] != coloring[a2]
        assert time.perf_counter() - start < 1.0
        capsys.readouterr()  # swallow the check command's own output


def test_criterion_03_oracle_equivalence(suite):
    with criterion(3, "oracle equivalence"):
        start = time.perf_counter()
        for b, expected in suite:
            assert decide(b, "search").verdict is expected
            for strategy in ("ef", "fe", "alt:2"):
                assert decide_by_resolution(b, strategy).verdict is expected
        assert time.perf_counter() - start < 300.0


def test_criterion_04_alternation_symmetry(suite):
    with criterion(4, "alternating closures agree on both sides"):
        for b, expected in suite:
            fails = expected is Verdict.FAILS_S
            for depth in (1, 2):
                assert alternating_closure(b, depth, "E").contains_empty == fails
                assert alternating_closure(b, depth, "F").contains_empty == fails


def test_criterion_05_closure_preserves_witnesses(suite):
    with criterion(5, "closure preserves witnesses"):
        counterexamples = 0
        for b, expected in suite:
            if expected is not Verdict.HAS_S:
                continue
            x = brute_force_decide(b).witness.x_side
            for derived in closure(b.e_sets, b.f_sets).sets:
                if not derived.intersects(x) and len(derived):
                    counterexamples += 1
                if len(derived) == 0:
                    counterexamples += 1
        assert counterexamples == 0


def test_criterion_06_subsumption_soundness(suite):
    with criterion(6, "subsumption-reduced closure matches naive closure"):
        checked = 0
        for b, _ in suite:
            if b.vertex_count > 8:
                continue
            checked += 1
            assert (closure(b.e_sets, b.f_sets).contains_empty
                    == naive_closure_contains_empty(b.e_sets, b.f_sets))
        assert checked > 500


def test_criterion_07_condition_checks(suite):
    with criterion(7, "incomplete criteria never contradict the oracle"):
        for b, expected in suite:
            for report in analyze(b):
                if report.verdict is Verdict.HAS_S:
                    assert expected is Verdict.HAS_S, report
                elif report.verdict is Verdict.FAILS_S:
                    assert expected is Verdict.FAILS_S, report
        for k in (1, 2):
            names = [f"v{i}" for i in range(2 * k + 1)]
            subsets = [list(c) for c in itertools.combinations(names, k + 1)]
            saturated = build(names, subsets, subsets)
            assert all_large_subsets_check(saturated).verdict is Verdict.FAILS_S
            assert brute_force_decide(saturated).verdict is Verdict.FAILS_S


def _all_pairs_instance(rng, n, sets_per_family=None):
    names = [f"v{i}" for i in range(n)]
    count = sets_per_family if sets_per_family is not None else max(1, (3 * n) // 4)

    def family():
        return [rng.sample(names, rng.randint(1, min(2, n)))
                for _ in range(count)]

    return build(names, family(), family())


def test_criterion_08_all_pairs_fast_path():
    with criterion(8, "all-pairs search path"):
        rng = random.Random(SEED + 8)
        # correctness sample: small instances against search and the oracle,
        # and beyond the oracle's range against resolution, whose engine
        # shares nothing with the all-pairs search
        for _ in range(400):
            n = rng.randint(1, 16)
            b = _all_pairs_instance(rng, n, sets_per_family=rng.randint(0, 2 * n))
            cert = decide_2sat(b)
            assert cert.verdict is decide(b, "search").verdict
            if n <= 10:
                assert cert.verdict is brute_force_decide(b).verdict
            else:
                assert cert.verdict is decide_by_resolution(b, "ef").verdict
        # bulk sample across the size range, witnesses revalidated
        for _ in range(480):
            n = rng.randint(17, 500)
            cert = decide_2sat(_all_pairs_instance(rng, n))
            assert cert.verdict in (Verdict.HAS_S, Verdict.FAILS_S)
        ladder = (250, 500, 1000, 2000)
        medians = {}
        for n in ladder:
            times = []
            for _ in range(30):
                b = _all_pairs_instance(rng, n)
                start = time.perf_counter()
                decide_2sat(b)
                times.append(time.perf_counter() - start)
            times.sort()
            medians[n] = times[len(times) // 2]
        # (|V| + |sets|) grows 8x across the ladder: quadratic growth would
        # allow 64x, so anything within that envelope passes the smoke check
        assert medians[2000] <= 64 * max(medians[250], 1e-3), medians


def test_criterion_09_encoding_validators():
    with criterion(9, "encoding verdicts and witness validators"):
        # palette coloring, exhaustive over every graph on up to 6 vertices
        for k in range(7):
            verts = tuple(f"n{i}" for i in range(k))
            pairs = list(itertools.combinations(verts, 2))
            for edge_bits in range(1 << len(pairs)):
                edges = tuple(p for i, p in enumerate(pairs)
                              if edge_bits >> i & 1)
                for n in (1, 2, 3):
                    g = ColoringInstance(verts, edges, colors=n)
                    enc = from_graph_coloring(g)
                    method = "2sat" if n <= 2 else "search"
                    cert = decide(enc.bihypergraph, method)
                    palette = tuple(str(j) for j in range(1, n + 1))
                    direct = coloring_search(verts, edges, [palette] * k)
                    assert (cert.verdict is Verdict.HAS_S) == (direct is not None)
                    if cert.verdict is Verdict.HAS_S:
                        coloring = enc.coloring_from_partition(cert.witness.x_side)
                        assert all(coloring[v] in palette for v in verts)
                        for a1, a2 in edges:
                            assert coloring[a1] != coloring[a2]
        # distinct representatives, exhaustive over families of <= 4 sets
        # drawn (unordered) from the subsets of a 4-element ground set
        elements = ("a", "b", "c", "d")
        pool = [tuple(c) for size in range(5)
                for c in itertools.combinations(elements, size)]
        for count in range(5):
            for fams in itertools.combinations_with_replacement(pool, count):
                labels = tuple(str(i + 1) for i in range(count))
                enc = from_sdr(SdrInstance(labels, fams))
                cert = decide(enc.bihypergraph, "search")
                direct = sdr_search(labels, fams)
                assert (cert.verdict is Verdict.HAS_S) == (direct is not None)
                if cert.verdict is Verdict.HAS_S:
                    chosen = enc.representatives_from_partition(cert.witness.x_side)
                    assert len(set(chosen.values())) == count
                    for label, elem in chosen.items():
                        assert elem in fams[labels.index(label)]
        # list coloring, randomized
        rng = random.Random(SEED + 9)
        palette = ("c1", "c2", "c3")
        for _ in range(300):
            k = rng.randint(1, 6)
            verts = tuple(f"n{i}" for i in range(k))
            edges = tuple(p for p in itertools.combinations(verts, 2)
                          if rng.random() < 0.5)
            lists = tuple(tuple(rng.sample(palette, rng.randint(1, 3)))
                          for _ in verts)
            enc = from_list_coloring(ColoringInstance(verts, edges, lists=lists))
            cert = decide(enc.bihypergraph, "search")
            direct = coloring_search(verts, edges, lists)
            assert (cert.verdict is Verdict.HAS_S) == (direct is not None)
            if cert.verdict is Verdict.HAS_S:
                coloring = enc.coloring_from_partition(cert.witness.x_side)
                for i, v in enumerate(verts):
                    assert coloring[v] in lists[i]
                for a1, a2 in edges:
                    assert coloring[a1] != coloring[a2]


def test_criterion_10_cnf_round_trip():
    with criterion(10, "CNF round trip preserves satisfiability"):
        rng = random.Random(SEED + 10)
        for _ in range(600):
            b = rand_instance(rng, max_vertices=8, max_sets=6, max_size=4)
            expected = brute_force_decide(b).verdict is Verdict.HAS_S
            formula = to_cnf(b).formula
            assert cnf_is_satisfiable(formula) == expected
            again = from_cnf(formula).bihypergraph
            assert (brute_force_decide(again).verdict is Verdict.HAS_S) == expected
        for _ in range(400):
            n = rng.randint(1, 5)
            clauses = tuple(
                tuple(rng.choice((1, -1)) * rng.randint(1, n)
                      for _ in range(rng.randint(1, 3)))
                for _ in range(rng.randint(0, 6)))
            formula = CnfFormula(n, clauses)
            sat = cnf_is_satisfiable(formula)
            enc = from_cnf(formula)
            assert (brute_force_decide(enc.bihypergraph).verdict
                    is Verdict.HAS_S) == sat
