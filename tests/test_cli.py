import json
import random

import pytest

from psolve import (Certificate, ColoringInstance, SdrInstance, Verdict, build,
                    resolution, search)
from psolve.cli import (EXIT_DATA, EXIT_FAILS_S, EXIT_HAS_S,
                        EXIT_INDETERMINATE, EXIT_NOINPUT, EXIT_USAGE,
                        ParseError, format_instance, main, parse_graph,
                        parse_instance_text, parse_proof_text, parse_sdr)
from psolve.core import check_token

from helpers import rand_instance


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def unsat3(fixtures_dir):
    return str(fixtures_dir / "unsat3.bhg")


@pytest.fixture()
def trivial_instance(tmp_path):
    path = tmp_path / "one.bhg"
    path.write_text("v a\n")
    return str(path)


class TestInstanceFormat:
    def test_round_trip_fixture(self, fixtures_dir):
        text = (fixtures_dir / "unsat3.bhg").read_text()
        b = parse_instance_text(text)
        assert parse_instance_text(format_instance(b)) == b

    def test_round_trip_random(self):
        rng = random.Random(107)
        for _ in range(100):
            b = rand_instance(rng, max_vertices=8, max_sets=5, max_size=4)
            assert parse_instance_text(format_instance(b)) == b

    def test_auto_labels_and_comments(self):
        b = parse_instance_text("# heading\nv a\ne a b  # trailing\nf L: b\n")
        assert b.names == ("a", "b")
        assert b.e_labels == ("E1",) and b.f_labels == ("L",)

    def test_empty_set_lines(self):
        b = parse_instance_text("e L:\nf\n")
        assert b.vertex_count == 0
        assert len(b.e_sets[0]) == 0 and len(b.f_sets[0]) == 0

    def test_parse_errors_carry_line_numbers(self):
        for text, fragment in (
                ("v a b\n", ":1:"),
                ("w a\n", ":1:"),
                ("v a\ne x y: a\n", ":2:"),
        ):
            with pytest.raises(Exception) as info:
                parse_instance_text(text, "f.bhg")
            assert fragment in str(info.value)


def _rejection(token, what):
    with pytest.raises(ValueError) as info:
        check_token(token, what)
    return str(info.value)


class TestTokenChecks:
    """Each parser checks a distinct token once, at its first occurrence:
    a bad token is reported at the line where it first appears, and a good
    one repeated on many lines parses as before."""

    def _error(self, parse, lines):
        with pytest.raises(ParseError) as info:
            parse("\n".join(lines) + "\n", "in")
        return info.value

    def test_instance_bad_name_line(self):
        lines = (["v a", "# comment"] + ["e a b"] * 6
                 + ["f b", "f L: b c,d", "e c,d", "e x{}"])
        err = self._error(parse_instance_text, lines)
        assert (err.line, err.message) == (10, _rejection("c,d", "vertex name"))

    def test_instance_repeated_names(self):
        text = "v a\n" + "e a b\n" * 40 + "f L: b c\n" + "f b c\n" * 39
        f_labels = ["L"] + [f"F{i + 1}" for i in range(1, 40)]
        assert parse_instance_text(text) == build(
            ["a"], [["a", "b"]] * 40, [["b", "c"]] * 40, f_labels=f_labels)

    def test_graph_bad_vertex_and_color_lines(self):
        edges = [f"edge a{i} a{i + 1}" for i in range(5)]
        err = self._error(parse_graph, edges + ["edge a0 b<c", "vertex b<c"])
        assert (err.line, err.message) == (6, _rejection("b<c", "graph vertex"))
        lists = [f"list a{i} r g" for i in range(6)]
        err = self._error(parse_graph, edges + lists + ["list b g r/b", "list c r/b"])
        assert (err.line, err.message) == (12, _rejection("r/b", "color"))

    def test_graph_repeated_names(self):
        lines = ["vertex a0"] + [f"edge a{i} a{i + 1}" for i in range(20)]
        lines += [f"list a{i} r g r" for i in range(21)]
        vertices = tuple(f"a{i}" for i in range(21))
        edges = tuple((f"a{i}", f"a{i + 1}") for i in range(20))
        assert parse_graph("\n".join(lines)) == ColoringInstance(
            vertices, edges, lists=(("r", "g"),) * 21)

    def test_sdr_bad_element_line(self):
        lines = [f"set {i}: x y" for i in range(7)] + ["set 7: y x/z", "set 8: x/z"]
        err = self._error(parse_sdr, lines)
        assert (err.line, err.message) == (8, _rejection("x/z", "element"))

    def test_sdr_duplicate_index_line(self):
        lines = [f"set {i}: x" for i in range(5)] + ["set 2: y", "set 3: y"]
        err = self._error(parse_sdr, lines)
        assert (err.line, err.message) == (6, "duplicate set index '2'")

    def test_sdr_repeated_elements(self):
        text = "".join(f"set {i}: x y x\n" for i in range(30))
        assert parse_sdr(text) == SdrInstance(
            tuple(str(i) for i in range(30)), (("x", "y"),) * 30)

    def test_proof_bad_conclusion_line(self):
        lines = ["mode: alternating 1"]
        lines += [f"s{i}: a b <- E1,F1 / F2" for i in range(5)]
        lines += ["s5: a b,c <- s1 / F1", "s6: b,c <- s1 / F1"]
        err = self._error(parse_proof_text, lines)
        assert (err.line, err.message) == (7, _rejection("b,c", "vertex name"))

    def test_proof_repeated_names(self):
        text = "mode: alternating 1\n" + "".join(
            f"s{i}: a b <- E1,F1 / F2\n" for i in range(30)) + "z: {} <- s1 / F1\n"
        mode, steps = parse_proof_text(text)
        assert mode == "alternating 1"
        assert steps == [(f"s{i}", ("a", "b"), ("E1", "F1"), "F2")
                         for i in range(30)] + [("z", None, ("s1",), "F1")]


def test_check_token_counts(monkeypatch):
    """On valid input, ``build`` and ``Bihypergraph`` make no per-token
    call (``check_distinct`` passes the whole family at once), and
    ``parse_instance_text`` makes one per distinct name and explicit label,
    for the line number."""
    calls = []

    def counting(token, what="name"):
        calls.append(token)
        return check_token(token, what)

    monkeypatch.setattr("psolve.core.check_token", counting)
    monkeypatch.setattr("psolve.cli.check_token", counting)
    rng = random.Random(113)
    for _ in range(40):
        b = rand_instance(rng, max_vertices=8, max_sets=5, max_size=4)
        held = len(b.names) + len(b.e_sets) + len(b.f_sets)
        calls.clear()
        assert build(b.names, map(b.names_of, b.e_sets), map(b.names_of, b.f_sets)) == b
        assert len(calls) == 0
        calls.clear()
        assert parse_instance_text(format_instance(b)) == b
        assert len(calls) == held
    calls.clear()
    b = parse_instance_text("v a\ne a b\ne L: b c\nf c a\nf b d\n")
    assert b.names == ("a", "b", "c", "d")
    assert len(calls) == 4 + 1


class TestDecideCommand:
    def test_exit_codes_track_verdict_only(self, capsys, unsat3, trivial_instance):
        for method in ("search", "resolution", "oracle"):
            code, out, _ = run(capsys, "decide", unsat3, "--method", method)
            assert code == EXIT_FAILS_S
            assert "verdict: FailsS" in out
            code, out, _ = run(capsys, "decide", trivial_instance,
                               "--method", method)
            assert code == EXIT_HAS_S
            assert "verdict: HasS" in out

    def test_trivial_witness_is_empty(self, capsys, trivial_instance):
        code, out, _ = run(capsys, "decide", trivial_instance)
        assert code == EXIT_HAS_S
        assert "X = {}" in out

    def test_grid_fixture_oracle(self, capsys, fixtures_dir):
        code, _, _ = run(capsys, "decide", str(fixtures_dir / "grid_lists.bhg"),
                         "--method", "oracle")
        assert code == EXIT_FAILS_S

    def test_json_is_deterministic(self, capsys, unsat3):
        argv = ("decide", unsat3, "--method", "resolution", "--json")
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second
        doc = json.loads(first[1])
        assert doc["verdict"] == "FailsS"
        assert doc["witness"]["refutation"]["steps"][-1]["conclusion"] == []
        assert set(doc) == {"command", "instance", "method", "strategy",
                            "verdict", "witness", "stats"}

    def test_proof_output_revalidates(self, capsys, tmp_path, unsat3):
        proof = tmp_path / "out.prf"
        code, _, _ = run(capsys, "decide", unsat3, "--method", "resolution",
                         "--strategy", "ef", "--proof", str(proof))
        assert code == EXIT_FAILS_S and proof.exists()
        code, out, _ = run(capsys, "check", unsat3, str(proof))
        assert code == EXIT_HAS_S and "valid" in out

    def test_proof_via_search_follow_up(self, capsys, tmp_path, unsat3):
        proof = tmp_path / "out.prf"
        code, _, _ = run(capsys, "decide", unsat3, "--method", "search",
                         "--proof", str(proof))
        assert code == EXIT_FAILS_S and proof.exists()
        assert run(capsys, "check", unsat3, str(proof))[0] == EXIT_HAS_S

    def test_resource_limit_exits_indeterminate(self, capsys, unsat3):
        code, out, _ = run(capsys, "decide", unsat3, "--method", "resolution",
                           "--max-sets", "2")
        assert code == EXIT_INDETERMINATE
        assert "Indeterminate" in out

    def test_max_sets_env_fallback(self, capsys, unsat3, monkeypatch):
        monkeypatch.setenv("PSOLVE_MAX_SETS", "2")
        code, _, _ = run(capsys, "decide", unsat3, "--method", "resolution")
        assert code == EXIT_INDETERMINATE
        monkeypatch.setenv("PSOLVE_MAX_SETS", "nonsense")
        code, _, err = run(capsys, "decide", unsat3, "--method", "resolution")
        assert code == EXIT_DATA and "PSOLVE_MAX_SETS" in err

    def test_negative_caps_are_rejected(self, capsys, unsat3, monkeypatch):
        for command, flag in (("decide", "--max-sets"),
                              ("oracle", "--max-vertices")):
            with pytest.raises(SystemExit) as info:
                main([command, unsat3, flag, "-1"])
            assert info.value.code == EXIT_USAGE
            assert f"{flag}: must be nonnegative" in capsys.readouterr().err
        monkeypatch.setenv("PSOLVE_MAX_SETS", "-4")
        code, _, err = run(capsys, "decide", unsat3, "--method", "resolution")
        assert code == EXIT_DATA and "PSOLVE_MAX_SETS must be nonnegative" in err
        monkeypatch.delenv("PSOLVE_MAX_SETS")
        code, _, _ = run(capsys, "decide", unsat3, "--method", "resolution",
                         "--max-sets", "0")
        assert code == EXIT_INDETERMINATE

    def test_caps_take_ascii_digits_only(self, capsys, unsat3):
        """An Arabic-Indic digit, an underscore, a plus sign or a space is no
        cap, for --max-sets as for --max-vertices: a usage error."""
        for command, flag in (("decide", "--max-sets"),
                              ("oracle", "--max-vertices")):
            for value in ("\u0663", "1_0", "+3", " 3"):
                with pytest.raises(SystemExit) as info:
                    main([command, unsat3, flag, value])
                assert info.value.code == EXIT_USAGE, (flag, value)
                err = capsys.readouterr().err
                assert f"{flag}: invalid int value: {value!r}" in err

    def test_env_cap_takes_ascii_digits_only(self, capsys, unsat3,
                                             monkeypatch):
        """PSOLVE_MAX_SETS is read as the flag is: anything but ASCII digits
        is unprocessable input."""
        for value in ("\u0663", "1_0", "+3", " 3"):
            monkeypatch.setenv("PSOLVE_MAX_SETS", value)
            code, _, err = run(capsys, "decide", unsat3, "--method",
                               "resolution")
            assert code == EXIT_DATA, value
            assert f"PSOLVE_MAX_SETS must be an integer, got {value!r}" in err

    def test_strategy_depth_takes_ascii_digits_only(self, capsys, unsat3):
        """A superscript or Arabic-Indic digit is no alt:N depth: each is an
        unknown strategy, a usage error."""
        for strategy in ("alt:\u00b2", "alt:\u0663"):
            with pytest.raises(SystemExit) as info:
                main(["decide", unsat3, "--method", "resolution",
                      "--strategy", strategy])
            assert info.value.code == EXIT_USAGE
            assert f"unknown strategy {strategy!r}" in capsys.readouterr().err

    def test_follow_up_that_answers_has_s_raises(self, capsys, tmp_path,
                                                  unsat3, monkeypatch):
        """--proof runs the follow-up of ``with_refutation``: a resolution
        run that contradicts search is a fault, not a warning."""
        monkeypatch.setattr(search, "decide_by_resolution",
                            lambda b, strategy, limits: Certificate(
                                Verdict.HAS_S, None, "resolution"))
        with pytest.raises(RuntimeError, match="search said FailsS"):
            main(["decide", unsat3, "--proof", str(tmp_path / "out.prf")])

    def test_empty_input_set_runs_resolution_once(self, capsys, tmp_path,
                                                   monkeypatch):
        """A resolution FailsS with no derivation (the empty set is an input
        set) is not decided again for --proof: one closure chain runs."""
        inst = tmp_path / "empty.bhg"
        inst.write_text("v a\ne L:\nf a\n")
        chains = []
        run_chain = resolution._alternating_items
        monkeypatch.setattr(resolution, "_alternating_items",
                            lambda *args: chains.append(args) or run_chain(*args))
        code, _, err = run(capsys, "decide", str(inst), "--method", "resolution",
                           "--proof", str(tmp_path / "out.prf"))
        assert code == EXIT_FAILS_S and "no refutation to write" in err
        assert len(chains) == 1

    def test_2sat_rejects_large_sets(self, capsys, unsat3):
        code, _, err = run(capsys, "decide", unsat3, "--method", "2sat")
        assert code == EXIT_DATA and "2-SAT" in err


class TestCheckCommand:
    def test_fixture_proofs(self, capsys, fixtures_dir, unsat3):
        for name in ("unsat3_ef.prf", "unsat3_fe.prf", "unsat3_alt.prf"):
            code, _, _ = run(capsys, "check", unsat3, str(fixtures_dir / name))
            assert code == EXIT_HAS_S, name
        code, _, _ = run(capsys, "check", str(fixtures_dir / "grid_lists.bhg"),
                         str(fixtures_dir / "grid_lists_ef.prf"))
        assert code == EXIT_HAS_S

    def test_corrupted_pivot_names_step(self, capsys, tmp_path, fixtures_dir,
                                        unsat3):
        text = (fixtures_dir / "unsat3_ef.prf").read_text()
        bad = tmp_path / "bad.prf"
        bad.write_text(text.replace("9: -q <- 6,7 / A", "9: -q <- 6,7 / B"))
        code, out, _ = run(capsys, "check", unsat3, str(bad))
        assert code == EXIT_FAILS_S
        assert "step 9" in out

    def test_unknown_vertex_in_conclusion(self, capsys, tmp_path, unsat3):
        bad = tmp_path / "bad.prf"
        bad.write_text("mode: E-over-F\n7: zz <- 2,3 / C\n")
        code, out, _ = run(capsys, "check", unsat3, str(bad))
        assert code == EXIT_FAILS_S and "step 7" in out

    def test_json_output(self, capsys, fixtures_dir, unsat3):
        code, out, _ = run(capsys, "check", unsat3,
                           str(fixtures_dir / "unsat3_ef.prf"), "--json")
        assert code == EXIT_HAS_S
        assert json.loads(out) == {"command": "check", "valid": True,
                                   "step": None, "reason": None}

    def test_missing_mode_header(self, capsys, tmp_path, unsat3):
        bad = tmp_path / "bad.prf"
        bad.write_text("7: p -q <- 2,3 / C\n")
        code, _, err = run(capsys, "check", unsat3, str(bad))
        assert code == EXIT_DATA and "mode" in err


class TestEncodeCommand:
    def test_cnf_fixture(self, capsys, fixtures_dir, tmp_path):
        out_path = tmp_path / "enc.bhg"
        code, _, _ = run(capsys, "encode", "cnf",
                         str(fixtures_dir / "unsat3.cnf"), "-o", str(out_path))
        assert code == EXIT_HAS_S
        lines = out_path.read_text().splitlines()
        assert sum(1 for l in lines if l.startswith("v ")) == 6
        assert sum(1 for l in lines if l.startswith("e ")) == 6
        assert sum(1 for l in lines if l.startswith("f ")) == 3
        assert run(capsys, "decide", str(out_path))[0] == EXIT_FAILS_S

    def test_triangle_palette(self, capsys, tmp_path):
        graph = tmp_path / "tri.graph"
        graph.write_text("vertex a\nvertex b\nvertex c\n"
                         "edge a b\nedge b c\nedge a c\ncolors 3\n")
        code, out, _ = run(capsys, "encode", "coloring", str(graph))
        assert code == EXIT_HAS_S
        lines = out.splitlines()
        assert sum(1 for l in lines if l.startswith("v ")) == 9
        assert sum(1 for l in lines if l.startswith("e ")) == 3
        assert sum(1 for l in lines if l.startswith("f ")) == 9

    def test_list_coloring_fixture_decides_fails(self, capsys, fixtures_dir,
                                                 tmp_path):
        out_path = tmp_path / "grid.bhg"
        code, _, _ = run(capsys, "encode", "listcoloring",
                         str(fixtures_dir / "grid_lists.graph"),
                         "-o", str(out_path))
        assert code == EXIT_HAS_S
        assert run(capsys, "decide", str(out_path))[0] == EXIT_FAILS_S

    def test_sdr_clash(self, capsys, tmp_path):
        sdr = tmp_path / "two.sdr"
        sdr.write_text("set 1: a\nset 2: a\n")
        out_path = tmp_path / "two.bhg"
        code, _, _ = run(capsys, "encode", "sdr", str(sdr), "-o", str(out_path))
        assert code == EXIT_HAS_S
        assert run(capsys, "decide", str(out_path))[0] == EXIT_FAILS_S

    def test_coloring_requires_palette(self, capsys, tmp_path):
        graph = tmp_path / "bare.graph"
        graph.write_text("vertex a\n")
        code, _, err = run(capsys, "encode", "coloring", str(graph))
        assert code == EXIT_DATA and "colors" in err

    def test_colors_takes_ascii_digits_only(self, capsys, tmp_path):
        """A superscript or Arabic-Indic digit is no color count: the line
        is a data error, as any other non-count is."""
        graph = tmp_path / "digits.graph"
        for count in ("\u00b2", "\u0663", "x", "0"):
            graph.write_text(f"vertex a\ncolors {count}\n", encoding="utf-8")
            code, _, err = run(capsys, "encode", "coloring", str(graph))
            assert code == EXIT_DATA, count
            assert "'colors' takes a positive integer" in err

    def test_empty_list_warns(self, capsys, tmp_path):
        graph = tmp_path / "gap.graph"
        graph.write_text("vertex a\nvertex b\nedge a b\nlist a x\n")
        code, _, err = run(capsys, "encode", "listcoloring", str(graph))
        assert code == EXIT_HAS_S and "empty color list" in err

    def test_dimacs_diagnostics(self, capsys, tmp_path):
        bad = tmp_path / "bad.cnf"
        bad.write_text("p cnf 2 1\n1 3 0\n")
        code, _, err = run(capsys, "encode", "cnf", str(bad))
        assert code == EXIT_DATA and ":2:" in err

    def test_dimacs_takes_ascii_digits_only(self, capsys, tmp_path):
        """Header counts and literals are ASCII digits, a literal after an
        optional '-': an underscore, an Arabic-Indic digit or a plus sign
        is a data error on its line, and a negative count keeps its own
        message."""
        path = tmp_path / "digits.cnf"
        cases = [("p cnf 1_0 1\n1 0\n", ":1: expected 'p cnf VARS CLAUSES'"),
                 ("p cnf 3 \u0661\n1 0\n", ":1: expected 'p cnf VARS CLAUSES'"),
                 ("p cnf -1 0\n", ":1: negative counts in header")]
        cases += [(f"p cnf 10 1\n1 {lit} 0\n",
                   f":2: expected an integer, got {lit!r}")
                  for lit in ("1_0", "-\u0663", "+2", "-", "--2")]
        for text, message in cases:
            path.write_text(text, encoding="utf-8")
            code, _, err = run(capsys, "encode", "cnf", str(path))
            assert code == EXIT_DATA and message in err, text
        path.write_text("p cnf 10 1\n10 -3 0\n")
        code, out, _ = run(capsys, "encode", "cnf", str(path))
        assert code == EXIT_HAS_S and "e E1: -3 10" in out


class TestAnalyzeCommand:
    def test_weight_pass(self, capsys, tmp_path):
        inst = tmp_path / "w.bhg"
        inst.write_text("e 1 2 3\nf 4 5 6\n")
        code, out, _ = run(capsys, "analyze", str(inst))
        assert code == EXIT_HAS_S
        assert "weight-sum: HasS" in out and "1/4" in out

    def test_six_clause_all_unknown(self, capsys, unsat3):
        code, out, _ = run(capsys, "analyze", unsat3)
        assert code == EXIT_HAS_S
        assert out.count("Unknown") == 3

    def test_saturated_triple(self, capsys, tmp_path):
        inst = tmp_path / "sat3.bhg"
        body = "".join(f"{tag} {a} {b}\n"
                       for tag in ("e", "f")
                       for a, b in (("1", "2"), ("1", "3"), ("2", "3")))
        inst.write_text(body)
        code, out, _ = run(capsys, "analyze", str(inst))
        assert code == EXIT_HAS_S
        assert "all-large-subsets: FailsS" in out
        assert run(capsys, "decide", str(inst))[0] == EXIT_FAILS_S

    def test_json(self, capsys, unsat3):
        code, out, _ = run(capsys, "analyze", unsat3, "--json")
        doc = json.loads(out)
        assert [r["criterion"] for r in doc["reports"]] == [
            "all-large-subsets", "upset-bound", "weight-sum"]


class TestOracleCommand:
    def test_counts_and_verdict(self, capsys, tmp_path):
        inst = tmp_path / "pair.bhg"
        inst.write_text("e a b\nf a b\n")
        code, out, _ = run(capsys, "oracle", str(inst))
        assert code == EXIT_HAS_S
        assert "s-partitions: 2" in out

    def test_fails_instance(self, capsys, unsat3):
        code, out, _ = run(capsys, "oracle", unsat3, "--json")
        assert code == EXIT_FAILS_S
        doc = json.loads(out)
        assert doc["s_partition_count"] == 0 and doc["witness"] is None


class TestErrorPaths:
    def test_usage_error_exits_64(self, capsys, unsat3):
        with pytest.raises(SystemExit) as info:
            main(["decide", unsat3, "--method", "telepathy"])
        assert info.value.code == EXIT_USAGE
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == EXIT_USAGE
        with pytest.raises(SystemExit) as info:
            main(["decide", unsat3, "--strategy", "alt:x"])
        assert info.value.code == EXIT_USAGE
        with pytest.raises(SystemExit) as info:
            main(["decide", unsat3, "--max-rounds", "5"])
        assert info.value.code == EXIT_USAGE

    def test_parse_error_exits_65(self, capsys, tmp_path):
        bad = tmp_path / "bad.bhg"
        bad.write_text("q zzz\n")
        code, _, err = run(capsys, "decide", str(bad))
        assert code == EXIT_DATA and "bad.bhg:1" in err

    def test_missing_file_exits_66(self, capsys, tmp_path):
        code, _, err = run(capsys, "decide", str(tmp_path / "nope.bhg"))
        assert code == EXIT_NOINPUT

    def test_duplicate_set_warning(self, capsys, tmp_path):
        inst = tmp_path / "dup.bhg"
        inst.write_text("e L1: a b\ne L2: b a\n")
        code, _, err = run(capsys, "decide", str(inst))
        assert code == EXIT_HAS_S
        assert "equal" in err
