import gc
import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys
from dataclasses import replace

import pytest

from psolve import (ClosureResult, CnfFormula, Limits, Refutation,
                    ResolutionStep, ResourceLimitError, Verdict, VertexSet,
                    all_resolvents,
                    alternating_closure, brute_force_decide, build,
                    check_refutation, closure, conditions,
                    decide_by_resolution, from_cnf, resolution, resolve,
                    upset_bound_check)
from psolve.cli import (EXIT_INDETERMINATE, bind_proof, format_proof, main,
                        parse_instance_text, parse_proof_text)
from psolve.core import Antichain

from helpers import (LinearAntichain, all_s_partitions,
                     direct_closure_certificate, full_rounds_closure,
                     grid_lists_instance, prime_implicates,
                     incremental_pivot_resolvents, level_candidate_counts,
                     naive_closure_contains_empty, rand_instance,
                     reference_alternating_closure, shuffled_sets,
                     six_clause_instance)


TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def _named(b, *names):
    return b.set_of_names(names)


class TestResolve:
    def test_two_clause_step(self):
        b = six_clause_instance()
        out = resolve([_named(b, "p", "-q", "r"), _named(b, "p", "-q", "-r")],
                      _named(b, "r", "-r"),
                      [(b.id_of("r"), 0), (b.id_of("-r"), 1)])
        assert out == _named(b, "p", "-q")

    def test_pair_sides_step(self):
        b = six_clause_instance()
        out = resolve([_named(b, "p", "-p"), _named(b, "q", "-q")],
                      _named(b, "-p", "-q"),
                      [(b.id_of("-p"), 0), (b.id_of("-q"), 1)])
        assert out == _named(b, "p", "q")

    def test_unit_annihilation(self):
        out = resolve([VertexSet.of([3])], VertexSet.of([3]), [(3, 0)])
        assert out == VertexSet()

    def test_repeated_premise_allowed(self):
        c = VertexSet.of([0, 1, 2])
        out = resolve([c, c], VertexSet.of([0, 1]), [(0, 0), (1, 1)])
        assert out == VertexSet.of([1, 2]).union(VertexSet.of([0, 2]))

    def test_pairing_vertex_not_in_pivot(self):
        with pytest.raises(ValueError, match="not in the pivot"):
            resolve([VertexSet.of([0])], VertexSet.of([1]), [(0, 0)])

    def test_paired_vertex_absent_from_premise(self):
        with pytest.raises(ValueError, match="absent"):
            resolve([VertexSet.of([1])], VertexSet.of([0]), [(0, 0)])

    def test_pivot_element_unpaired(self):
        with pytest.raises(ValueError, match="unpaired"):
            resolve([VertexSet.of([0, 1])], VertexSet.of([0, 1]), [(0, 0)])

    def test_double_pairing_rejected(self):
        with pytest.raises(ValueError, match="more than once"):
            resolve([VertexSet.of([0]), VertexSet.of([0])],
                    VertexSet.of([0]), [(0, 0), (0, 1)])


class TestAllResolvents:
    def test_unmatched_pivot_element(self):
        b = six_clause_instance()
        assert all_resolvents([_named(b, "p", "q")], _named(b, "p", "-p")) == ()

    def test_six_clause_pivot(self):
        b = six_clause_instance()
        out = all_resolvents(b.e_sets, _named(b, "r", "-r"))
        # the four pairings produce {p,-q}, {-p,q} and two dominated
        # four-member unions, so the reduced answer is exactly these two
        assert set(out) == {_named(b, "p", "-q"), _named(b, "-p", "q")}

    def test_empty_pivot_yields_empty_resolvent(self):
        assert all_resolvents([], VertexSet()) == (VertexSet(),)
        assert all_resolvents([VertexSet.of([1])], VertexSet()) == (VertexSet(),)

    def test_matches_unreduced_enumeration(self):
        from helpers import unreduced_resolvents
        rng = random.Random(5)
        for _ in range(200):
            b = rand_instance(rng, max_vertices=6, max_sets=5, max_size=3)
            working = list(dict.fromkeys(b.e_sets))
            # keep only subset-minimal sets so the antichain precondition holds
            working = [s for s in working
                       if not any(o != s and o.issubset(s) for o in working)]
            for pivot in b.f_sets:
                got = set(all_resolvents(working, pivot))
                full = unreduced_resolvents({s.mask for s in working}, pivot.mask)
                minimal = {m for m in full
                           if not any(o != m and o & m == o for o in full)}
                assert {v.mask for v in got} == minimal


class TestClosure:
    def test_no_pivots_reduces_family(self):
        e = [VertexSet.of([0, 1]), VertexSet.of([0]), VertexSet.of([0, 1, 2])]
        result = closure(e, [])
        assert set(result.sets) == {VertexSet.of([0])}
        assert not result.contains_empty

    def test_no_pivots_empty_member(self):
        result = closure([VertexSet()], [])
        assert result.contains_empty and result.sets == (VertexSet(),)

    def test_six_clause_both_directions(self):
        b = six_clause_instance()
        assert closure(b.e_sets, b.f_sets).contains_empty
        assert closure(b.f_sets, b.e_sets).contains_empty

    def test_antichain_invariant(self):
        rng = random.Random(23)
        for _ in range(100):
            b = rand_instance(rng, max_vertices=7, max_sets=5, max_size=3)
            result = closure(b.e_sets, b.f_sets)
            if result.contains_empty:
                assert result.sets == (VertexSet(),)
            for s in result.sets:
                assert not any(o != s and o.issubset(s) for o in result.sets)

    def test_empty_pivot_in_family_forces_failure(self):
        # no set can meet the empty set, so resolving on it yields {} at once
        result = closure([VertexSet.of([0])], [VertexSet()])
        assert result.contains_empty

    def test_subsumption_never_changes_empty_membership(self):
        rng = random.Random(29)
        for _ in range(400):
            b = rand_instance(rng, max_vertices=7, max_sets=6, max_size=3)
            reduced = closure(b.e_sets, b.f_sets).contains_empty
            naive = naive_closure_contains_empty(b.e_sets, b.f_sets)
            assert reduced == naive

    def test_reduced_closure_is_minimal_antichain_of_full_closure(self):
        from helpers import unreduced_resolvents

        def full_closure(e_sets, f_sets):
            derived = {s.mask for s in e_sets}
            pivots = [s.mask for s in f_sets]
            changed = True
            while changed:
                changed = False
                for d in pivots:
                    new = unreduced_resolvents(derived, d) - derived
                    if new:
                        derived |= new
                        changed = True
            return derived

        rng = random.Random(4242)
        for _ in range(200):
            b = rand_instance(rng, max_vertices=6, max_sets=4, max_size=3)
            full = full_closure(b.e_sets, b.f_sets)
            got = {vs.mask for vs in closure(b.e_sets, b.f_sets).sets}
            if 0 in full:
                assert got == {0}
            else:
                assert got == {m for m in full
                               if not any(o != m and o & m == o for o in full)}


class TestAlternatingClosure:
    def test_depth_zero_is_reduced_base(self):
        b = six_clause_instance()
        result = alternating_closure(b, 0, "E")
        assert set(result.sets) == set(b.e_sets)
        assert not result.contains_empty

    def test_six_clause_depth_two_from_pairs(self):
        assert alternating_closure(six_clause_instance(), 2, "F").contains_empty

    def test_six_clause_depth_one_both_sides(self):
        b = six_clause_instance()
        assert alternating_closure(b, 1, "E").contains_empty
        assert alternating_closure(b, 1, "F").contains_empty

    def test_symmetric_refutability(self):
        rng = random.Random(31)
        for _ in range(150):
            b = rand_instance(rng, max_vertices=7, max_sets=5, max_size=3)
            answers = {alternating_closure(b, n, side).contains_empty
                       for n in (1, 2) for side in ("E", "F")}
            assert len(answers) == 1

    def test_bad_arguments(self):
        b = six_clause_instance()
        with pytest.raises(ValueError):
            alternating_closure(b, 1, "X")
        with pytest.raises(ValueError):
            alternating_closure(b, -1, "E")


class TestDecideByResolution:
    def test_empty_e_family_has_s(self):
        b = build(["a", "b"], [], [["a"], ["a", "b"]])
        cert = decide_by_resolution(b)
        assert cert.verdict is Verdict.HAS_S and cert.witness is None

    def test_six_clause_refutation(self):
        b = six_clause_instance()
        cert = decide_by_resolution(b, "ef")
        assert cert.verdict is Verdict.FAILS_S
        refutation = cert.witness
        assert isinstance(refutation, Refutation)
        assert refutation.mode == "E-over-F"
        assert refutation.steps[-1].conclusion == VertexSet()
        assert check_refutation(b, refutation)

    def test_grid_lists_refutation(self):
        b = grid_lists_instance()
        cert = decide_by_resolution(b, "ef")
        assert cert.verdict is Verdict.FAILS_S
        assert check_refutation(b, cert.witness)

    def test_all_strategies_agree_and_validate(self):
        rng = random.Random(37)
        for _ in range(200):
            b = rand_instance(rng, max_vertices=7, max_sets=5, max_size=3)
            expected = bool(all_s_partitions(b))
            for strategy in ("ef", "fe", "alt:1", "alt:2", "alt:3"):
                cert = decide_by_resolution(b, strategy)
                assert (cert.verdict is Verdict.HAS_S) == expected
                if cert.verdict is Verdict.FAILS_S:
                    assert check_refutation(b, cert.witness), strategy

    def test_empty_input_set_yields_no_derivation(self):
        b = build(["a"], [[]], [["a"]])
        cert = decide_by_resolution(b, "ef")
        assert cert.verdict is Verdict.FAILS_S
        assert cert.witness is None

    def test_deterministic(self):
        b = six_clause_instance()
        first = decide_by_resolution(b, "ef")
        second = decide_by_resolution(b, "ef")
        assert first.witness == second.witness
        assert first.stats == second.stats

    def test_step_ids_avoid_instance_labels(self):
        # labels that look like generated step ids push the generator to a
        # fresh prefix, and the proof still validates
        b = build(["p", "-p"], [["p"], ["-p"]], [["p", "-p"]],
                  e_labels=["r1", "r2"], f_labels=["A"])
        cert = decide_by_resolution(b, "ef")
        assert cert.verdict is Verdict.FAILS_S
        taken = set(b.e_labels) | set(b.f_labels)
        for step in cert.witness.steps:
            assert step.step_id not in taken
        assert check_refutation(b, cert.witness)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            decide_by_resolution(six_clause_instance(), "sideways")
        with pytest.raises(ValueError):
            decide_by_resolution(six_clause_instance(), "alt:0")

    def test_strategy_depth_takes_ascii_digits_only(self):
        b = six_clause_instance()
        for strategy in ("alt:\u00b2", "alt:\u0663"):
            with pytest.raises(ValueError, match="unknown strategy"):
                decide_by_resolution(b, strategy)

    def test_closure_preserves_witnesses(self):
        # every S-partition's X keeps meeting everything derived from E
        rng = random.Random(41)
        checked = 0
        for _ in range(150):
            b = rand_instance(rng, max_vertices=6, max_sets=4, max_size=3)
            witnesses = all_s_partitions(b)
            if not witnesses:
                continue
            result = closure(b.e_sets, b.f_sets)
            for x in witnesses:
                for s in result.sets:
                    assert x & set(s.members)
                    checked += 1
        assert checked > 100


class TestLimits:
    def test_kept_set_limit(self):
        b = six_clause_instance()
        with pytest.raises(ResourceLimitError):
            decide_by_resolution(b, "ef", Limits(max_sets=3))

    def test_negative_caps_are_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Limits(max_sets=-1)
        assert Limits(max_sets=0).max_sets == 0

    def test_generous_limits_succeed(self):
        cert = decide_by_resolution(six_clause_instance(), "ef",
                                    Limits(max_sets=1000))
        assert cert.verdict is Verdict.FAILS_S


class TestCheckRefutation:
    def _load(self, fixtures_dir, b, name):
        text = (fixtures_dir / name).read_text()
        mode, steps = parse_proof_text(text, name)
        return bind_proof(b, mode, steps)

    def test_fixture_proofs_validate(self, fixtures_dir):
        b = six_clause_instance()
        for name in ("unsat3_ef.prf", "unsat3_fe.prf", "unsat3_alt.prf"):
            assert check_refutation(b, self._load(fixtures_dir, b, name)), name
        grid = grid_lists_instance()
        assert check_refutation(grid, self._load(fixtures_dir, grid,
                                                 "grid_lists_ef.prf"))

    def test_perturbed_pivot_fails_at_step(self, fixtures_dir):
        b = six_clause_instance()
        text = (fixtures_dir / "unsat3_ef.prf").read_text()
        mode, steps = parse_proof_text(text.replace("9: -q <- 6,7 / A",
                                                    "9: -q <- 6,7 / B"))
        outcome = check_refutation(b, bind_proof(b, mode, steps))
        assert not outcome and outcome.step_id == "9"

    def test_empty_step_list_is_invalid(self):
        b = six_clause_instance()
        outcome = check_refutation(b, Refutation("E-over-F", ()))
        assert not outcome and "no steps" in outcome.reason

    def test_final_conclusion_must_be_empty(self):
        b = six_clause_instance()
        step = ResolutionStep("7", _named(b, "p", "-q"), ("2", "3"), "C")
        outcome = check_refutation(b, Refutation("E-over-F", (step,)))
        assert not outcome and "empty set" in outcome.reason

    def test_unknown_and_forward_references(self):
        b = six_clause_instance()
        step = ResolutionStep("7", VertexSet(), ("99",), "A")
        outcome = check_refutation(b, Refutation("E-over-F", (step,)))
        assert not outcome and "unknown reference" in outcome.reason

    def test_mode_restricts_premises(self):
        b = six_clause_instance()
        # A is an F-label: not usable as a premise when closing E over F
        step = ResolutionStep("7", _named(b, "-p", "q"), ("A", "1"), "B")
        outcome = check_refutation(b, Refutation("E-over-F", (step,)))
        assert not outcome and "not available" in outcome.reason

    def test_mode_restricts_pivot(self):
        b = six_clause_instance()
        step = ResolutionStep("7", _named(b, "q", "-q"), ("1", "6"), "A")
        outcome = check_refutation(b, Refutation("F-over-E", (step,)))
        assert not outcome and "premise" in outcome.reason

    def test_alternating_depth_cap(self, fixtures_dir):
        b = six_clause_instance()
        text = (fixtures_dir / "unsat3_alt.prf").read_text()
        mode, steps = parse_proof_text(text.replace("alternating 2",
                                                    "alternating 1"))
        outcome = check_refutation(b, bind_proof(b, mode, steps))
        assert not outcome and outcome.step_id == "N"

    def test_duplicate_step_id(self):
        b = six_clause_instance()
        steps = (ResolutionStep("7", _named(b, "p", "-q"), ("2", "3"), "C"),
                 ResolutionStep("7", _named(b, "-p", "q"), ("4", "5"), "C"))
        outcome = check_refutation(b, Refutation("E-over-F", steps))
        assert not outcome and "duplicate" in outcome.reason

    def test_step_id_shadowing_label(self):
        b = six_clause_instance()
        step = ResolutionStep("6", _named(b, "p", "-q"), ("2", "3"), "C")
        outcome = check_refutation(b, Refutation("E-over-F", (step,)))
        assert not outcome and "shadows" in outcome.reason

    def test_bad_mode_string(self):
        b = six_clause_instance()
        step = ResolutionStep("7", VertexSet(), (), "A")
        outcome = check_refutation(b, Refutation("widdershins", (step,)))
        assert not outcome and "mode" in outcome.reason

    def test_mode_depth_takes_ascii_digits_only(self, fixtures_dir):
        b = six_clause_instance()
        text = (fixtures_dir / "unsat3_ef.prf").read_text()
        mode, steps = parse_proof_text(text, "unsat3_ef.prf")
        proof = bind_proof(b, mode, steps)
        assert check_refutation(b, Refutation("alternating 1", proof.steps))
        for depth in ("\u00b2", "\u0663"):
            mode = f"alternating {depth}"
            outcome = check_refutation(b, Refutation(mode, proof.steps))
            assert not outcome
            assert outcome.reason == f"unknown proof mode {mode!r}"

    def test_label_shared_by_both_families_is_ambiguous(self):
        b = build(["a", "b"], [["a", "b"]], [["a"]],
                  e_labels=["X"], f_labels=["X"])
        step = ResolutionStep("s1", b.set_of_names(["b"]), ("X",), "X")
        outcome = check_refutation(b, Refutation("E-over-F", (step,)))
        assert not outcome and "ambiguous" in outcome.reason

    def test_tampered_explicit_pairing(self):
        b = six_clause_instance()
        good = decide_by_resolution(b, "ef").witness
        last = good.steps[-1]
        bad_pairing = tuple((v, (idx + 1) % len(last.premises))
                            for v, idx in last.pairing)
        tampered = Refutation(good.mode, good.steps[:-1] + (
            ResolutionStep(last.step_id, last.conclusion, last.premises,
                           last.pivot, bad_pairing),))
        assert not check_refutation(b, tampered)

    def test_wrong_conclusion_rejected(self, fixtures_dir):
        b = six_clause_instance()
        text = (fixtures_dir / "unsat3_ef.prf").read_text()
        mode, steps = parse_proof_text(text.replace("7: p -q <-", "7: p <-"))
        outcome = check_refutation(b, bind_proof(b, mode, steps))
        assert not outcome and outcome.step_id == "7"


def test_stats_track_work():
    b = six_clause_instance()
    result = closure(b.e_sets, b.f_sets)
    stats = result.stats
    assert stats.generated > 0 and stats.kept > 0 and stats.rounds == 1
    idle = closure(b.e_sets, [])
    assert idle.stats.generated == 0 and idle.stats.rounds == 0


def _subsumption_outputs(b):
    out = [closure(b.e_sets, b.f_sets), closure(b.f_sets, b.e_sets),
           alternating_closure(b, 2, "E"), upset_bound_check(b)]
    for strategy in ("ef", "fe", "alt:2"):
        cert = decide_by_resolution(b, strategy)
        proof = format_proof(b, cert.witness) if cert.witness is not None else None
        out.append((cert.verdict, cert.stats, proof))
    return out


def test_indexed_antichain_matches_linear_scans(monkeypatch):
    """The subsumption index changes no closure, stats, verdict or proof
    text: a stand-in that scans every kept mask gives identical output."""
    rng = random.Random(4242)
    instances = [rand_instance(rng, max_vertices=rng.choice((6, 9, 12)),
                               max_sets=rng.choice((5, 8, 10)))
                 for _ in range(300)]
    indexed = [_subsumption_outputs(b) for b in instances]
    monkeypatch.setattr(resolution, "Antichain", LinearAntichain)
    monkeypatch.setattr(conditions, "Antichain", LinearAntichain)
    linear = [_subsumption_outputs(b) for b in instances]
    assert indexed == linear
    refuted = [out for out in indexed if out[4][0] is Verdict.FAILS_S]
    assert 0 < len(refuted) < len(indexed)


def _random_dp_case(rng):
    """A working family (empty sets and repeated masks included), a pivot
    that may hold a vertex no set meets, and an antichain to prune with."""
    n = rng.randint(1, 10)
    masks = [sum(1 << v for v in rng.sample(range(n), rng.randint(0, min(4, n))))
             for _ in range(rng.randint(0, 9))]
    masks += rng.sample(masks, min(len(masks), rng.randint(0, 2)))
    rng.shuffle(masks)
    working = [(m, ("W", i)) for i, m in enumerate(masks)]
    pivot = sum(1 << v for v in rng.sample(range(n + 1), rng.randint(0, min(4, n + 1))))
    prune = Antichain()
    for _ in range(rng.randint(1, 4)):
        m = sum(1 << v for v in rng.sample(range(n), rng.randint(1, min(3, n))))
        if not prune.has_subset(m):
            prune.add(m)
    return working, pivot, prune


def test_batch_levels_match_incremental_antichain():
    """Each union-DP level, built in one batch pass, gives the states that
    feeding its candidates one by one through an antichain gives: the same
    resolvents in the same order, with the same pairings and count."""
    rng = random.Random(6006)
    seen = {"finals": 0, "empty": 0, "unmet": 0, "pruned away": 0,
            "absorbed": 0}
    for _ in range(2500):
        working, pivot, prune = _random_dp_case(rng)
        for prune_against in (None, prune):
            levels = level_candidate_counts(
                [m for m, _ in working], pivot,
                list(prune_against.sets) if prune_against else ())
            seen["absorbed"] += sum(1 for _, count in levels[1:] if count)
            batch, incremental = resolution._Stats(), resolution._Stats()
            got = resolution._pivot_resolvents(working, pivot, Limits(), batch,
                                               prune_against)
            want = incremental_pivot_resolvents(working, pivot, Limits(),
                                                incremental, prune_against)
            assert got == want
            assert batch.generated == incremental.generated
            seen["finals"] += bool(got)
            seen["empty"] += any(m == 0 for m, _ in got)
            if not got:
                unmet = any(not any(m >> v & 1 for m, _ in working)
                            for v in VertexSet(pivot).members)
                seen["unmet" if unmet else "pruned away"] += 1
    assert all(count > 50 for count in seen.values()), seen
    # A call that does not own its prune: the set {v} absorbs state 0 at
    # level 0, and that state has taken no prune test yet.
    holds_empty = Antichain()
    holds_empty.add(0)
    for v in range(3):
        working = [(1 << v, ("W", 0))]
        assert resolution._pivot_resolvents(working, 1 << v, Limits(),
                                            resolution._Stats()) == [
            (0, ((v, ("W", 0)),))]
        assert resolution._pivot_resolvents(working, 1 << v, Limits(),
                                            resolution._Stats(),
                                            holds_empty) == []


def test_level_cap_counts_formed_unions():
    """``max_sets`` caps the distinct unions each DP level forms, dominated
    and pruned ones included; an absorbed state forms only itself."""
    rng = random.Random(6007)
    capped = 0
    for _ in range(600):
        working, pivot, prune = _random_dp_case(rng)
        masks = [m for m, _ in working]
        counts = level_candidate_counts(masks, pivot, list(prune.sets))
        if not counts:
            continue
        widest = max(formed for formed, _ in counts)
        unlimited = resolution._pivot_resolvents(working, pivot, Limits(),
                                                 resolution._Stats(), prune)
        assert resolution._pivot_resolvents(
            working, pivot, Limits(max_sets=widest), resolution._Stats(),
            prune) == unlimited
        with pytest.raises(ResourceLimitError, match="pivot fan-out"):
            resolution._pivot_resolvents(working, pivot,
                                         Limits(max_sets=widest - 1),
                                         resolution._Stats(), prune)
        capped += 1
    assert capped > 300


def test_tight_caps_give_the_oracle_verdict_or_indeterminate():
    """Under tight ``max_sets`` caps a run either raises ResourceLimitError
    or returns the oracle's verdict, never a wrong one."""
    rng = random.Random(6008)
    outcomes = {"HasS": 0, "FailsS": 0, "kept-set": 0, "pivot fan-out": 0}
    for _ in range(300):
        b = rand_instance(rng, max_vertices=rng.choice((8, 10, 12)),
                          max_sets=rng.choice((6, 8, 10)),
                          max_size=rng.choice((4, 5)))
        expected = brute_force_decide(b).verdict
        for strategy in ("ef", "fe", "alt:2"):
            for cap in range(1, 41):
                try:
                    cert = decide_by_resolution(b, strategy, Limits(max_sets=cap))
                except ResourceLimitError as exc:
                    outcomes["pivot fan-out" if "fan-out" in str(exc)
                             else "kept-set"] += 1
                    continue
                assert cert.verdict is expected
                outcomes[cert.verdict.value] += 1
    assert outcomes["pivot fan-out"] > 20, outcomes
    assert min(outcomes["HasS"], outcomes["FailsS"],
               outcomes["kept-set"]) > 1000, outcomes


def _dp_outcome(working, pivot, limits, prune):
    stats = resolution._Stats()
    try:
        finals = resolution._pivot_resolvents(working, pivot, limits, stats,
                                              prune_against=prune)
    except ResourceLimitError as exc:
        return str(exc)
    return finals, stats.generated


def test_closure_call_takes_level_one_as_it_is():
    """The closure's own call, its antichain as both the working family and
    the prune, takes the first level's candidates unreduced and unpruned:
    it gives what the general path gives on that antichain's items, the
    same finals, pairings and count, and under each small cap the same
    ResourceLimitError message."""
    rng = random.Random(6009)
    seen = {"finals": 0, "one member": 0, "capped": 0, "none": 0}
    for _ in range(1500):
        n = rng.randint(1, 10)
        antichain = Antichain()
        for i in range(rng.randint(0, 12)):
            m = sum(1 << v for v in rng.sample(range(n), rng.randint(1, min(4, n))))
            if not antichain.has_subset(m):
                antichain.add(m, ("W", i))
        pivot = sum(1 << v for v in rng.sample(range(n + 1),
                                                rng.randint(1, min(4, n + 1))))
        for cap in (None, 1, 2, 3, 4, 6):
            limits = Limits(max_sets=cap) if cap else Limits()
            got = _dp_outcome(antichain, pivot, limits, antichain)
            assert got == _dp_outcome(antichain.sets.items(), pivot, limits,
                                      antichain)
            if cap is None:
                seen["finals" if got[0] else "none"] += 1
                seen["one member"] += bool(got[0]) and pivot.bit_count() == 1
            else:
                seen["capped"] += isinstance(got, str)
    assert min(seen.values()) > 100, seen


def _random_3cnf_instance(rng):
    n = rng.randint(5, 8)
    clauses = tuple(tuple(v if rng.random() < 0.5 else -v
                          for v in rng.sample(range(1, n + 1), 3))
                    for _ in range(rng.randint(3 * n, 6 * n)))
    return from_cnf(CnfFormula(n, clauses)).bihypergraph


def _round_outputs(b):
    out = []
    for strategy in ("ef", "fe", "alt:1", "alt:2", "alt:3"):
        cert = decide_by_resolution(b, strategy)
        proof = format_proof(b, cert.witness) if cert.witness is not None else None
        out.append((cert.verdict, cert.stats, cert.witness, proof))
    out += [closure(b.e_sets, b.f_sets), closure(b.f_sets, b.e_sets)]
    out += [alternating_closure(b, n, side) for n in (1, 2, 3) for side in "EF"]
    return out


def _without_rounds(out):
    """``_round_outputs`` with every ``ClosureStats.rounds`` set to 0."""
    masked = []
    for item in out:
        if isinstance(item, ClosureResult):
            item = replace(item, stats=replace(item.stats, rounds=0))
        else:
            item = (item[0], replace(item[1], rounds=0), *item[2:])
        masked.append(item)
    return masked


def test_one_pass_matches_full_rounds(monkeypatch):
    """One pass over the pivots gives what the naive fixed point gives,
    which repeats its rounds until one derives nothing: the same verdicts,
    stats but ``rounds``, refutations with their pairings, proof text,
    closures and alternating closures, on seeded random instances and
    3-CNF encodings.  Equal ``generated`` counts show that the reference's
    later rounds derive nothing.  Many reference closures need a second
    round, and many chains find the empty set in a later level, after
    such a round; the one-pass chains count one round per level, and
    'alt:3' runs two levels, as 'alt:2' does."""
    rng = random.Random(6010)
    instances = [rand_instance(rng, max_vertices=rng.choice((8, 10, 12)),
                               max_sets=rng.choice((6, 8, 10)),
                               max_size=rng.choice((3, 4, 5)))
                 for _ in range(150)]
    instances += [_random_3cnf_instance(rng) for _ in range(30)]
    one_pass = [_round_outputs(b) for b in instances]
    monkeypatch.setattr(resolution, "_run_closure", full_rounds_closure)
    full = [_round_outputs(b) for b in instances]
    assert [_without_rounds(out) for out in one_pass] == [
        _without_rounds(out) for out in full]
    seen = {"HasS after 2+ rounds": 0, "FailsS, {} in chain round 2+": 0}
    for ours, out in zip(one_pass, full):
        for (_, stats, _, _), depth in zip(ours[:5], (1, 1, 1, 2, 2)):
            assert stats.rounds <= depth
        for verdict, stats, _, _ in out[:5]:
            if verdict is Verdict.HAS_S:
                seen["HasS after 2+ rounds"] += stats.rounds >= 2
            else:
                seen["FailsS, {} in chain round 2+"] += stats.rounds >= 2
    assert min(seen.values()) > 10, seen


def test_closure_is_the_prime_implicates():
    """A closure is the antichain of prime positive implicates: the minimal
    sets that every X meets, where X meets every set of the closed family
    and contains no pivot.  Checked against brute force for both family
    orders, with {} as the closure exactly when no such X exists."""
    rng = random.Random(6011)
    seen = {"HasS": 0, "FailsS": 0}
    for _ in range(1000):
        b = rand_instance(rng, max_vertices=7, max_sets=rng.choice((3, 5, 7)),
                          max_size=rng.choice((2, 3, 4)), min_size=0)
        for own, other in ((b.e_sets, b.f_sets), (b.f_sets, b.e_sets)):
            result = closure(own, other)
            expected = prime_implicates(b.vertex_count, own, other)
            assert {vs.mask for vs in result.sets} == expected
            assert result.contains_empty == (expected == {0})
            seen["FailsS" if result.contains_empty else "HasS"] += 1
    assert min(seen.values()) > 200, seen


def _order_free_outputs(b):
    """Verdicts, closures and alternating closures of ``b``; every FailsS
    proof is checked on the way."""
    out = []
    for strategy in ("ef", "fe", "alt:2", "alt:3"):
        cert = decide_by_resolution(b, strategy)
        if cert.witness is not None:
            assert check_refutation(b, cert.witness), strategy
        out.append(cert.verdict)
    out += [closure(b.e_sets, b.f_sets).sets, closure(b.f_sets, b.e_sets).sets]
    out += [alternating_closure(b, n, side).sets
            for n in (1, 2, 3) for side in "EF"]
    return out


def test_set_order_changes_no_answer():
    """The pivot order depends on the order of the input sets only through
    ties, and no order changes an answer: with its E- and F-sets shuffled,
    an instance keeps its verdicts, its closures and its alternating
    closures, and every FailsS proof of either order checks."""
    rng = random.Random(6012)
    instances = [rand_instance(rng, max_vertices=rng.choice((8, 10, 12)),
                               max_sets=rng.choice((6, 8, 10)),
                               max_size=rng.choice((3, 4, 5)))
                 for _ in range(450)]
    instances += [_random_3cnf_instance(rng) for _ in range(60)]
    seen = {"HasS": 0, "FailsS": 0, "other proof": 0}
    for b in instances:
        shuffled = shuffled_sets(b, rng)
        assert _order_free_outputs(shuffled) == _order_free_outputs(b)
        cert = decide_by_resolution(b, "ef")
        seen[cert.verdict.value] += 1
        if cert.witness is not None:
            other = decide_by_resolution(shuffled, "ef").witness
            seen["other proof"] += other != cert.witness
    assert min(seen.values()) > 50, seen


PIGEONHOLE_SHUFFLES = (
    "import random\n"
    "from psolve import (Limits, SdrInstance, check_refutation,\n"
    "                    decide_by_resolution, from_sdr)\n"
    "from helpers import shuffled_sets\n"
    "holes = tuple(f'h{j}' for j in range(5))\n"
    "pigeons = tuple(f'p{i}' for i in range(6))\n"
    "b = from_sdr(SdrInstance(pigeons, (holes,) * 6)).bihypergraph\n"
    "runs = [('ef', seed) for seed in (1, 2, 3)] + [('fe', None), ('fe', 1)]\n"
    "for strategy, seed in runs:\n"
    "    s = b if seed is None else shuffled_sets(b, random.Random(seed))\n"
    "    cert = decide_by_resolution(s, strategy, Limits(max_sets=200_000))\n"
    "    print(cert.verdict.value, bool(check_refutation(s, cert.witness)))\n"
)


def test_shuffled_pigeonhole_stays_within_cap():
    """PHP(5) is refuted within a 200,000-set cap by a proof that checks:
    under 'ef' with its sets in three shuffled orders, since the cheapest
    pivot first does not depend on the order the encoding emits, and under
    'fe' as encoded and shuffled once, since a union DP state that holds a
    contribution of the member forms no other union."""
    proc = subprocess.run([sys.executable, "-c", PIGEONHOLE_SHUFFLES],
                          capture_output=True, text=True, timeout=120,
                          env={"PYTHONPATH": f"{SRC}{os.pathsep}{TESTS}"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["FailsS True"] * 5 + [""]


def test_cli_level_cap_exits_indeterminate(tmp_path, capsys):
    """Four contributions x, y, z, w of a and four p, q, r, s of b, disjoint
    from them, give 16 distinct unions at the second pivot member, no state
    absorbed: a cap of 8 admits the 8 input sets and stops that level."""
    path = tmp_path / "fan.bhg"
    path.write_text("e a x\ne a y\ne a z\ne a w\n"
                    "e b p\ne b q\ne b r\ne b s\nf a b\n")
    code = main(["decide", str(path), "--method", "resolution",
                 "--max-sets", "8", "--json"])
    out = capsys.readouterr().out
    assert code == EXIT_INDETERMINATE
    doc = json.loads(out)
    assert doc["verdict"] == "Indeterminate"
    assert doc["reason"] == "pivot fan-out exceeded max_sets=8"


def _mixed_instance(rng):
    """A random instance whose families may hold empty sets, repeated sets
    and sets containing others."""
    return rand_instance(rng, max_vertices=rng.choice((6, 8, 10)),
                         max_sets=rng.choice((4, 6, 8)),
                         max_size=rng.choice((3, 4)),
                         min_size=rng.choice((0, 1)))


def _certificate_outcome(decider, b, *args):
    try:
        cert = decider(b, *args)
    except ResourceLimitError as exc:
        return str(exc)
    proof = format_proof(b, cert.witness) if cert.witness is not None else None
    return cert.verdict, cert.stats, cert.witness, proof


def test_ef_fe_are_the_direct_closures():
    """'ef' and 'fe' run as the depth-1 alternating chain from E and from
    F, and give what one closure of that family over the other's input sets
    gives: the same verdict, stats, proof and proof text, and under every
    ``max_sets`` cap from 1 to 40 the same ResourceLimitError message."""
    rng = random.Random(7007)
    seen = {"nested": 0, "empty set": 0, "FailsS": 0, "HasS": 0, "capped": 0}
    for _ in range(500):
        b = _mixed_instance(rng)
        families = [[vs.mask for vs in b.e_sets], [vs.mask for vs in b.f_sets]]
        seen["nested"] += any(m != n and m & n == m
                              for fam in families for m in fam for n in fam)
        seen["empty set"] += any(0 in fam for fam in families)
        for side, strategy in (("E", "ef"), ("F", "fe")):
            for cap in (None, *range(1, 41)):
                limits = Limits(max_sets=cap) if cap else None
                got = _certificate_outcome(decide_by_resolution, b, strategy,
                                           limits)
                assert got == _certificate_outcome(direct_closure_certificate,
                                                   b, side, limits)
                if cap is None:
                    seen[got[0].value] += 1
                else:
                    seen["capped"] += isinstance(got, str)
            own, other = ((b.e_sets, b.f_sets) if side == "E"
                          else (b.f_sets, b.e_sets))
            assert alternating_closure(b, 1, side) == closure(own, other)
    assert min(seen.values()) > 50, seen


def test_alternating_chain_is_two_closures():
    """Every level k >= 1 of the alternating chain from a side is that
    side's prime-implicate antichain, so every depth n >= 2 runs as two
    closures.  For n = 2..5 and both sides, on seeded random instances
    (empty, repeated and nested sets among them) and 3-CNF encodings,
    ``alternating_closure`` returns the sets and ``contains_empty`` of the
    chain run level by level, which are level 1's, and the stats of n = 2.
    For n <= 2 it is that chain's result in full, stats included."""
    rng = random.Random(6013)
    instances = [_mixed_instance(rng) for _ in range(150)]
    instances += [_random_3cnf_instance(rng) for _ in range(40)]
    seen = {"HasS": 0, "FailsS": 0, "fewer kept than level by level": 0}
    for b in instances:
        for side in "EF":
            for n in (0, 1, 2):
                assert (alternating_closure(b, n, side)
                        == reference_alternating_closure(b, n, side))
            level1 = alternating_closure(b, 1, side)
            level2 = alternating_closure(b, 2, side)
            for n in range(2, 6):
                got = alternating_closure(b, n, side)
                ref = reference_alternating_closure(b, n, side)
                assert got.sets == ref.sets == level1.sets
                assert got.contains_empty == ref.contains_empty
                assert got.contains_empty == level1.contains_empty
                assert got.stats == level2.stats
                seen["fewer kept than level by level"] += (
                    got.stats.kept < ref.stats.kept)
            seen["FailsS" if level1.contains_empty else "HasS"] += 1
    assert min(seen.values()) > 50, seen


def test_deep_alternating_proofs_have_depth_two(fixtures_dir):
    """'alt:3' and 'alt:5' give the verdict of 'ef' and run the chain of
    'alt:2': the same stats and proof steps, under their own mode.  Every
    FailsS proof checks under 'alternating N' and also under 'alternating
    2', so its final step has depth at most 2; many need that depth."""
    rng = random.Random(6014)
    instances = [_mixed_instance(rng) for _ in range(300)]
    instances += [_random_3cnf_instance(rng) for _ in range(40)]
    instances += [parse_instance_text((fixtures_dir / name).read_text())
                  for name in ("unsat3.bhg", "grid_lists.bhg")]
    seen = {"HasS": 0, "FailsS": 0, "depth 2": 0}
    for b in instances:
        verdict = decide_by_resolution(b, "ef").verdict
        alt2 = decide_by_resolution(b, "alt:2")
        seen[verdict.value] += 1
        for n in (3, 5):
            cert = decide_by_resolution(b, f"alt:{n}")
            assert cert.verdict is verdict
            assert cert.stats == alt2.stats
            if cert.witness is None:
                assert alt2.witness is None
                continue
            steps = cert.witness.steps
            assert cert.witness.mode == f"alternating {n}"
            assert steps == alt2.witness.steps
            assert check_refutation(b, cert.witness)
            assert check_refutation(b, Refutation("alternating 2", steps))
            seen["depth 2"] += not check_refutation(
                b, Refutation("alternating 1", steps))
    assert min(seen.values()) > 50, seen


def test_one_step_rule_types_ef_and_fe_proofs(fixtures_dir):
    """Every 'ef' and 'fe' proof is an 'alternating 1' proof; under the
    other direction's label it fails at its first step, whose premises are
    then on the wrong side (or, with none, whose pivot is)."""
    cases = []
    rng = random.Random(7008)
    for _ in range(800):
        b = _mixed_instance(rng)
        for strategy in ("ef", "fe"):
            proof = decide_by_resolution(b, strategy).witness
            if proof is not None:
                cases.append((b, proof))
    for b, name in ((six_clause_instance(), "unsat3_ef.prf"),
                    (six_clause_instance(), "unsat3_fe.prf"),
                    (grid_lists_instance(), "grid_lists_ef.prf")):
        mode, steps = parse_proof_text((fixtures_dir / name).read_text(), name)
        cases.append((b, bind_proof(b, mode, steps)))
    swapped = {"E-over-F": "F-over-E", "F-over-E": "E-over-F"}
    reasons = {"not available": 0, "opposite closure side": 0}
    for b, proof in cases:
        assert check_refutation(b, proof)
        assert check_refutation(b, Refutation("alternating 1", proof.steps))
        outcome = check_refutation(b, Refutation(swapped[proof.mode],
                                                 proof.steps))
        first = proof.steps[0]
        reason = "not available" if first.premises else "opposite closure side"
        assert not outcome and outcome.step_id == first.step_id
        assert reason in outcome.reason
        reasons[reason] += 1
    assert min(reasons.values()) > 10, reasons


def test_checker_and_resolve_share_one_pairing_rule():
    """A step with a tampered pairing or conclusion fails the check with
    exactly the message ``resolve`` raises for its pairing, or, when
    ``resolve`` accepts the pairing, checks iff the resolvent is the
    conclusion."""
    rng = random.Random(7009)
    outcomes = {"checks": 0, "resolve raises": 0, "other resolvent": 0}
    for _ in range(600):
        b = _mixed_instance(rng)
        proof = decide_by_resolution(b, rng.choice(("ef", "fe"))).witness
        if proof is None:
            continue
        k = rng.randrange(len(proof.steps))
        step = proof.steps[k]
        pairing = []
        for v, idx in step.pairing:
            roll = rng.random()
            if roll < 0.15:
                v += rng.choice((1, -1))
            elif roll < 0.6:
                idx = rng.randrange(len(step.premises) + 1)
            pairing.append((v, idx))
        if pairing and rng.random() < 0.3:
            pairing.pop(rng.randrange(len(pairing)))
        if pairing and rng.random() < 0.3:
            pairing.append(rng.choice(pairing))
        conclusion = step.conclusion
        if rng.random() < 0.3:
            flip = 1 << rng.randrange(b.vertex_count)
            conclusion = VertexSet(conclusion.mask ^ flip)
        tampered = Refutation(proof.mode, proof.steps[:k] + (ResolutionStep(
            step.step_id, conclusion, step.premises, step.pivot,
            tuple(pairing)),) + proof.steps[k + 1:])
        sets = dict(zip(b.e_labels, b.e_sets))
        sets.update(zip(b.f_labels, b.f_sets))
        sets.update((s.step_id, s.conclusion) for s in proof.steps[:k])
        try:
            resolvent = resolve([sets[p] for p in step.premises],
                                sets[step.pivot], pairing)
        except ValueError as exc:
            reason = str(exc)
            outcomes["resolve raises"] += 1
        else:
            if resolvent == conclusion:
                assert check_refutation(b, tampered)
                outcomes["checks"] += 1
                continue
            reason = "conclusion differs from the resolvent of the pairing"
            outcomes["other resolvent"] += 1
        outcome = check_refutation(b, tampered)
        assert not outcome and outcome.step_id == step.step_id
        assert outcome.reason == reason
    assert min(outcomes.values()) > 10, outcomes


def test_decide_leaves_no_reference_cycles():
    """A run frees its closures by reference counting alone: it leaves no
    cycle for the collector, which would hold every level's sets."""
    rng = random.Random(7010)
    instances = [six_clause_instance()] + [_mixed_instance(rng) for _ in range(20)]
    gc.collect()
    gc.disable()
    try:
        for b in instances:
            for strategy in ("ef", "fe", "alt:1", "alt:3"):
                decide_by_resolution(b, strategy)
                assert gc.collect() == 0, strategy
    finally:
        gc.enable()


# SHA-256 of the outcomes listed by ``test_generated_proofs_are_pinned``.
GENERATED_PROOFS_DIGEST = "14eb41cad8a8ce8c55d4d78de16fd1b8c61a65d5479611f08e7e83079f2f01a5"


def test_generated_proofs_are_pinned(fixtures_dir):
    """The proofs psolve writes, with their step ids, step order and
    pairings, are pinned by a digest of verdict, stats, every step and the
    ``.prf`` text over 300 seeded instances, 40 seeded 3-CNF encodings
    (whose unions often arise twice in one DP level) and the two ``.bhg``
    fixtures, under 'ef', 'fe' and 'alt:2'.  Every proof must check."""
    rng = random.Random(7011)
    instances = [_mixed_instance(rng) for _ in range(300)]
    for _ in range(40):
        n = rng.randint(5, 8)
        clauses = tuple(tuple(v if rng.random() < 0.5 else -v
                              for v in rng.sample(range(1, n + 1), 3))
                        for _ in range(rng.randint(3 * n, 6 * n)))
        instances.append(from_cnf(CnfFormula(n, clauses)).bihypergraph)
    for name in ("unsat3.bhg", "grid_lists.bhg"):
        instances.append(parse_instance_text((fixtures_dir / name).read_text()))
    digest = hashlib.sha256()
    proofs = 0
    for b in instances:
        for strategy in ("ef", "fe", "alt:2"):
            cert = decide_by_resolution(b, strategy)
            record = [cert.verdict.value, list(vars(cert.stats).values())]
            if cert.witness is not None:
                proofs += 1
                assert check_refutation(b, cert.witness)
                record.append(cert.witness.mode)
                record.extend([s.step_id, list(s.conclusion.members),
                               list(s.premises), s.pivot,
                               [list(p) for p in s.pairing]]
                              for s in cert.witness.steps)
                record.append(format_proof(b, cert.witness))
            digest.update(json.dumps(record).encode())
    assert proofs > 330
    assert digest.hexdigest() == GENERATED_PROOFS_DIGEST
