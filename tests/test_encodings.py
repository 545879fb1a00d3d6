import itertools
import random

import pytest

from psolve import (CnfFormula, ColoringInstance, SdrInstance, Verdict,
                    brute_force_decide, build, check_s_partition, decide,
                    from_cnf, from_graph_coloring, from_list_coloring,
                    from_sdr, to_cnf)

from helpers import (GRID_EDGES, GRID_LISTS, GRID_VERTICES,
                     cnf_is_satisfiable, coloring_search, has_s,
                     rand_instance, sdr_search)


def _rand_cnf(rng, max_vars=4, max_clauses=5, max_len=3):
    n = rng.randint(1, max_vars)
    clauses = []
    for _ in range(rng.randint(0, max_clauses)):
        length = rng.randint(1, max_len)
        clause = tuple(rng.choice((1, -1)) * rng.randint(1, n)
                       for _ in range(length))
        clauses.append(clause)
    return CnfFormula(n, tuple(clauses))


class TestCnfFormula:
    def test_normalization(self):
        f = CnfFormula(3, ((3, 1, -2, 1),))
        assert f.clauses == ((1, -2, 3),)

    def test_tautologous_clause_kept(self):
        f = CnfFormula(1, ((1, -1),))
        assert f.clauses == ((1, -1),)

    def test_literal_out_of_range(self):
        with pytest.raises(ValueError):
            CnfFormula(2, ((3,),))
        with pytest.raises(ValueError):
            CnfFormula(1, ((0,),))

    def test_default_names(self):
        f = CnfFormula(2, ((1, -2),))
        assert f.variable_names == ("1", "2")
        assert f.literal_name(-2) == "-2"

    def test_bad_names(self):
        with pytest.raises(ValueError):
            CnfFormula(1, (), ("-p",))
        with pytest.raises(ValueError):
            CnfFormula(2, (), ("p", "p"))
        with pytest.raises(ValueError):
            CnfFormula(2, (), ("p",))


class TestFromCnf:
    def test_six_clause_formula_shape(self):
        f = CnfFormula(3, ((1, 2), (1, -2, 3), (1, -2, -3),
                           (-1, 2, 3), (-1, 2, -3), (-1, -2)),
                       ("p", "q", "r"))
        enc = from_cnf(f)
        b = enc.bihypergraph
        assert b.vertex_count == 6
        assert len(b.e_sets) == 6 and len(b.f_sets) == 3
        assert set(b.names) == {"p", "-p", "q", "-q", "r", "-r"}
        assert brute_force_decide(b).verdict is Verdict.FAILS_S

    def test_single_positive_clause(self):
        enc = from_cnf(CnfFormula(1, ((1,),), ("p",)))
        b = enc.bihypergraph
        assert b.names == ("p", "-p")
        assert b.e_sets == (b.set_of_names(["p"]),)
        assert b.f_sets == (b.set_of_names(["p", "-p"]),)
        cert = brute_force_decide(b)
        assert cert.verdict is Verdict.HAS_S
        assert cert.witness.x_side == b.set_of_names(["p"])

    def test_contradictory_units(self):
        enc = from_cnf(CnfFormula(1, ((1,), (-1,))))
        assert brute_force_decide(enc.bihypergraph).verdict is Verdict.FAILS_S

    def test_unused_variable_skipped(self):
        enc = from_cnf(CnfFormula(5, ((1, -2),)))
        assert enc.variables == (1, 2)
        assert enc.bihypergraph.vertex_count == 4

    def test_translators_are_inverse_on_witnesses(self):
        rng = random.Random(83)
        for _ in range(300):
            f = _rand_cnf(rng)
            enc = from_cnf(f)
            cert = decide(enc.bihypergraph, "search")
            assert (cert.verdict is Verdict.HAS_S) == cnf_is_satisfiable(f)
            if cert.verdict is Verdict.HAS_S:
                assignment = enc.assignment_from_partition(cert.witness.x_side)
                full = {v: assignment.get(v, False)
                        for v in range(1, f.variable_count + 1)}
                assert f.is_satisfied_by(full)
                x = enc.partition_from_assignment(assignment)
                assert check_s_partition(enc.bihypergraph, x)


class TestToCnf:
    def test_clause_construction(self):
        b = build(["a", "b", "c"], [["a", "b"]], [["b", "c"]])
        rep = to_cnf(b)
        assert rep.formula.variable_names == ("a", "b", "c")
        assert rep.formula.clauses == ((1, 2), (-2, -3))

    def test_empty_instance_satisfiable(self):
        rep = to_cnf(build([], [], []))
        assert rep.formula.clauses == ()
        assert cnf_is_satisfiable(rep.formula)

    def test_dash_names_renamed(self):
        b = from_cnf(CnfFormula(1, ((1,),), ("p",))).bihypergraph
        rep = to_cnf(b)
        assert rep.formula.variable_names == ("v1", "v2")

    def test_models_match_partitions(self):
        rng = random.Random(89)
        for _ in range(200):
            b = rand_instance(rng, max_vertices=6, max_sets=4, max_size=3)
            rep = to_cnf(b)
            assert cnf_is_satisfiable(rep.formula) == has_s(b)
            cert = decide(b, "search")
            if cert.verdict is Verdict.HAS_S:
                model = rep.assignment_from_partition(cert.witness.x_side)
                assert rep.formula.is_satisfied_by(model)
                assert rep.partition_from_assignment(model) == cert.witness.x_side

    def test_round_trip_preserves_verdict(self):
        rng = random.Random(97)
        for _ in range(300):
            b = rand_instance(rng, max_vertices=6, max_sets=4, max_size=3)
            again = from_cnf(to_cnf(b).formula).bihypergraph
            assert has_s(b) == (decide(again, "search").verdict is Verdict.HAS_S)


class TestGraphColoring:
    def test_triangle_two_colors_fails(self):
        g = ColoringInstance(("a", "b", "c"),
                             (("a", "b"), ("b", "c"), ("a", "c")), colors=2)
        assert decide(from_graph_coloring(g).bihypergraph, "2sat").verdict \
            is Verdict.FAILS_S

    def test_triangle_three_colors_works(self):
        g = ColoringInstance(("a", "b", "c"),
                             (("a", "b"), ("b", "c"), ("a", "c")), colors=3)
        enc = from_graph_coloring(g)
        b = enc.bihypergraph
        assert b.vertex_count == 9
        assert len(b.e_sets) == 3 and len(b.f_sets) == 9
        cert = decide(b, "search")
        assert cert.verdict is Verdict.HAS_S
        coloring = enc.coloring_from_partition(cert.witness.x_side)
        assert set(coloring) == {"a", "b", "c"}
        assert len(set(coloring.values())) == 3

    def test_single_vertex_one_color(self):
        enc = from_graph_coloring(ColoringInstance(("a",), (), colors=1))
        cert = decide(enc.bihypergraph, "search")
        assert cert.verdict is Verdict.HAS_S
        assert enc.coloring_from_partition(cert.witness.x_side) == {"a": "1"}

    def test_requires_palette(self):
        with pytest.raises(ValueError):
            from_graph_coloring(ColoringInstance(("a",), ()))

    def test_instance_validation(self):
        with pytest.raises(ValueError):
            ColoringInstance(("a",), (("a", "a"),))
        with pytest.raises(ValueError):
            ColoringInstance(("a",), (("a", "b"),))
        with pytest.raises(ValueError):
            ColoringInstance(("a", "a"), ())

    def test_list_of_without_lists(self):
        g = ColoringInstance(("a",), (), colors=2)
        with pytest.raises(ValueError, match="no color lists"):
            g.list_of("a")
        assert ColoringInstance(("a",), (), lists=(("r", "r"),)).list_of("a") == ("r",)

    def test_first_bad_color_reported(self):
        lists = (("r", "g"),) * 5 + (("g", "r/b"), ("r/b", "x y"))
        with pytest.raises(ValueError, match="invalid color 'r/b'"):
            ColoringInstance(tuple("abcdefg"), (), lists=lists)
        for bad in (["r"], 3, None):
            with pytest.raises(ValueError, match="empty color token"):
                ColoringInstance(("a", "b"), (), lists=(("r",), ("r", bad)))


class TestListColoring:
    def test_grid_lists_fail(self):
        g = ColoringInstance(GRID_VERTICES, GRID_EDGES, lists=GRID_LISTS)
        assert decide(from_list_coloring(g).bihypergraph, "search").verdict \
            is Verdict.FAILS_S

    def test_same_grid_two_colorable(self):
        g = ColoringInstance(GRID_VERTICES, GRID_EDGES, colors=2)
        enc = from_graph_coloring(g)
        cert = decide(enc.bihypergraph, "search")
        assert cert.verdict is Verdict.HAS_S
        coloring = enc.coloring_from_partition(cert.witness.x_side)
        for a1, a2 in GRID_EDGES:
            assert coloring[a1] != coloring[a2]

    def test_single_vertex_single_color(self):
        g = ColoringInstance(("a",), (), lists=(("c",),))
        enc = from_list_coloring(g)
        cert = decide(enc.bihypergraph, "search")
        assert cert.verdict is Verdict.HAS_S
        assert enc.coloring_from_partition(cert.witness.x_side) == {"a": "c"}

    def test_empty_list_is_uncolorable(self):
        g = ColoringInstance(("a", "b"), (("a", "b"),), lists=((), ("c",)))
        assert decide(from_list_coloring(g).bihypergraph, "search").verdict \
            is Verdict.FAILS_S

    def test_shared_colors_only(self):
        g = ColoringInstance(("a", "b"), (("a", "b"),),
                             lists=(("x", "y"), ("y", "z")))
        b = from_list_coloring(g).bihypergraph
        assert len(b.f_sets) == 1  # only color y is shared on the edge
        assert b.f_sets[0] == b.set_of_names(["a@y", "b@y"])

    def test_matches_direct_search(self):
        rng = random.Random(101)
        palette = ("c1", "c2", "c3")
        for _ in range(200):
            k = rng.randint(1, 5)
            verts = tuple(f"n{i}" for i in range(k))
            edges = tuple((a, b) for a, b in itertools.combinations(verts, 2)
                          if rng.random() < 0.5)
            lists = tuple(tuple(rng.sample(palette, rng.randint(1, 3)))
                          for _ in verts)
            g = ColoringInstance(verts, edges, lists=lists)
            enc = from_list_coloring(g)
            cert = decide(enc.bihypergraph, "search")
            direct = coloring_search(verts, edges, lists)
            assert (cert.verdict is Verdict.HAS_S) == (direct is not None)
            if cert.verdict is Verdict.HAS_S:
                coloring = enc.coloring_from_partition(cert.witness.x_side)
                for i, v in enumerate(verts):
                    assert coloring[v] in lists[i]
                for a1, a2 in edges:
                    assert coloring[a1] != coloring[a2]


class TestSdr:
    def test_two_sets_one_element(self):
        enc = from_sdr(SdrInstance(("1", "2"), (("a",), ("a",))))
        assert brute_force_decide(enc.bihypergraph).verdict is Verdict.FAILS_S

    def test_disjoint_singletons(self):
        enc = from_sdr(SdrInstance(("1", "2"), (("a",), ("b",))))
        cert = decide(enc.bihypergraph, "search")
        assert cert.verdict is Verdict.HAS_S
        assert enc.representatives_from_partition(cert.witness.x_side) == {
            "1": "a", "2": "b"}

    def test_pigeonhole_three_sets_two_elements(self):
        enc = from_sdr(SdrInstance(("1", "2", "3"),
                                   (("a", "b"), ("a", "b"), ("a", "b"))))
        assert brute_force_decide(enc.bihypergraph).verdict is Verdict.FAILS_S

    def test_empty_indexed_set_fails(self):
        enc = from_sdr(SdrInstance(("1",), ((),)))
        assert decide(enc.bihypergraph, "search").verdict is Verdict.FAILS_S

    def test_matches_direct_search(self):
        rng = random.Random(103)
        elements = ("a", "b", "c", "d")
        for _ in range(200):
            k = rng.randint(1, 4)
            labels = tuple(str(i + 1) for i in range(k))
            families = tuple(tuple(rng.sample(elements, rng.randint(0, 4)))
                             for _ in range(k))
            inst = SdrInstance(labels, families)
            enc = from_sdr(inst)
            cert = decide(enc.bihypergraph, "search")
            direct = sdr_search(labels, families)
            assert (cert.verdict is Verdict.HAS_S) == (direct is not None)
            if cert.verdict is Verdict.HAS_S:
                chosen = enc.representatives_from_partition(cert.witness.x_side)
                assert set(chosen) == set(labels)
                for label, elem in chosen.items():
                    assert elem in families[labels.index(label)]
                assert len(set(chosen.values())) == len(chosen)

    def test_instance_validation(self):
        with pytest.raises(ValueError):
            SdrInstance(("1", "1"), ((), ()))
        with pytest.raises(ValueError):
            SdrInstance(("1",), ((), ()))

    def test_first_bad_element_reported(self):
        families = (("x", "y"),) * 4 + (("y", "x<z"), ("x<z", ""))
        with pytest.raises(ValueError, match="invalid element 'x<z'"):
            SdrInstance(tuple("123456"), families)
        for bad in (["x"], 3, None):
            with pytest.raises(ValueError, match="empty element token"):
                SdrInstance(("1", "2"), (("x",), ("x", bad)))
