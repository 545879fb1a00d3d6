import ast
import itertools
import pathlib
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psolve import (Bihypergraph, ColoringInstance, SPartition, SdrInstance,
                    Verdict, VertexSet, build, check_s_partition,
                    family_intersection, is_transversal, validate)
from psolve.core import Antichain, check_distinct, check_token

from helpers import (LinearAntichain, all_s_partitions, reference_build,
                     reference_check_distinct, reference_check_token,
                     six_clause_instance)


def _outcome(check, *args):
    try:
        return ("accepted", check(*args))
    except Exception as exc:
        return (type(exc), str(exc))


_FORBIDDEN = " \t\r\n\f\v#:,/<"
_UNPRINTABLE = st.characters(categories=["Cc", "Cf", "Cs", "Zl", "Zp", "Zs"])
_TOKENS = st.one_of(
    st.text(),
    st.sampled_from(list(_FORBIDDEN) + ["{}", "", "a{}", "{}{}"]),
    st.builds(lambda a, c, b: a + c + b, st.text(max_size=5),
              st.sampled_from(_FORBIDDEN) | _UNPRINTABLE, st.text(max_size=5)),
    st.none(), st.integers(), st.binary(), st.lists(st.text(max_size=3)),
)


@given(_TOKENS, st.sampled_from(["name", "vertex name", "label", "color"]))
@settings(max_examples=500, deadline=None)
def test_check_token_matches_reference(token, what):
    assert _outcome(check_token, token, what) == \
        _outcome(reference_check_token, token, what)


class _Str(str):
    pass


_FAMILY_TOKENS = _TOKENS | st.builds(_Str, st.text(max_size=4))
_WHAT = st.sampled_from(["vertex name", "label", "graph vertex"])
_REPEAT = st.sampled_from([None, "E-label", "F-label"])


def _family_outcome(check, tokens, what, repeat):
    """The accepted index as (token, position) pairs in order, or the error."""
    try:
        return ("accepted", list(check(tokens, what, repeat).items()))
    except Exception as exc:
        return (type(exc), str(exc))


@st.composite
def _families(draw):
    """Short tuples of arbitrary tokens, some with a repeat (possibly as a
    ``str`` subclass) inserted."""
    tokens = draw(st.lists(_FAMILY_TOKENS, max_size=8))
    for _ in range(draw(st.integers(0, 2))):
        if tokens:
            token = tokens[draw(st.integers(0, len(tokens) - 1))]
            if isinstance(token, str) and draw(st.booleans()):
                token = _Str(token)
            tokens.insert(draw(st.integers(0, len(tokens))), token)
    return tuple(tokens)


@st.composite
def _wide_families(draw):
    """At least 1,000 valid distinct names with one fault, a drawn token or
    a repeat of another name, at a random position."""
    tokens = [f"n{i}" for i in range(draw(st.integers(1000, 1100)))]
    at = draw(st.integers(0, len(tokens) - 1))
    if draw(st.booleans()):
        tokens[at] = tokens[draw(st.integers(0, len(tokens) - 1))]
    else:
        tokens[at] = draw(_TOKENS | st.sampled_from(["a b", "{}", "", "a\tb"]))
    return tuple(tokens)


@given(_families() | _wide_families(), _WHAT, _REPEAT)
@example(("a", "b c"), "vertex name", None)
@example(("a", "{}"), "label", "E-label")
@example(("a", "b", _Str("a")), "label", "F-label")
@settings(max_examples=500, deadline=None)
def test_check_distinct_matches_reference(tokens, what, repeat):
    """The one-pass test of a whole family accepts exactly what the
    per-token walk accepts, with the same index, and otherwise raises the
    walk's first error."""
    assert _family_outcome(check_distinct, tokens, what, repeat) == \
        _family_outcome(reference_check_distinct, tokens, what, repeat)


class TestVertexSet:
    def test_canonical_members(self):
        vs = VertexSet.of([5, 1, 3, 1, 5])
        assert vs.members == (1, 3, 5)
        assert len(vs) == 3
        assert list(vs) == [1, 3, 5]
        assert 3 in vs and 2 not in vs

    def test_set_equality_and_hash(self):
        assert VertexSet.of([2, 0]) == VertexSet.of([0, 2, 2])
        assert hash(VertexSet.of([2, 0])) == hash(VertexSet.of([0, 2]))
        assert VertexSet.of([0]) != VertexSet.of([1])

    def test_operations(self):
        a, b = VertexSet.of([0, 1, 3]), VertexSet.of([1, 2])
        assert a.union(b) == VertexSet.of([0, 1, 2, 3])
        assert a.difference(b) == VertexSet.of([0, 3])
        assert a.intersection(b) == VertexSet.of([1])
        assert a.intersects(b)
        assert not a.intersects(VertexSet.of([2, 4]))
        assert VertexSet.of([1]).issubset(a)
        assert not a.issubset(b)
        assert not VertexSet()

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError):
            VertexSet.of([-1])
        with pytest.raises(ValueError):
            VertexSet(-2)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            VertexSet.of([1]).mask = 3

    @given(st.lists(st.integers(min_value=0, max_value=40)))
    @settings(max_examples=200, deadline=None)
    def test_members_sorted_and_duplicate_free(self, ids):
        members = VertexSet.of(ids).members
        assert list(members) == sorted(set(ids))


class TestBuild:
    def test_interning_first_occurrence(self):
        b = build([], [["a", "b"]], [["a"]])
        assert b.names == ("a", "b")
        assert b.e_sets == (VertexSet.of([0, 1]),)
        assert b.f_sets == (VertexSet.of([0]),)
        assert b.e_labels == ("E1",) and b.f_labels == ("F1",)

    def test_six_clause_instance_shape(self):
        b = six_clause_instance()
        assert b.vertex_count == 6
        assert len(b.e_sets) == 6 and len(b.f_sets) == 3

    def test_undeclared_name_grows_universe(self):
        b = build(["a"], [["a", "z"]], [])
        assert b.names == ("a", "z")
        assert b.vertex_count == 2

    def test_duplicate_declaration_rejected(self):
        with pytest.raises(ValueError):
            build(["a", "a"], [], [])

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            build([""], [], [])
        with pytest.raises(ValueError):
            build([], [[""]], [])

    def test_structural_characters_rejected(self):
        for bad in ("a b", "x:y", "h#i", "p,q", "a/b", "{}"):
            with pytest.raises(ValueError):
                build([bad], [], [])

    def test_duplicate_label_rejected(self):
        with pytest.raises(ValueError):
            build(["a", "b"], [["a"], ["b"]], [], e_labels=["L", "L"])

    def test_bad_name_only_inside_a_set_rejected(self):
        """Names met only inside sets are checked at first occurrence, so
        the first bad one in E-then-F order is the one reported."""
        for bad in ("a b", "x:y", "{}", "p,q", ""):
            with pytest.raises(ValueError, match="vertex name"):
                build(["a"], [["a"], ["a", "b"]], [["b", bad], [bad, "c/d"]])
        with pytest.raises(ValueError, match="'x:y'"):
            build([], [["a", "b"]] * 3, [["b", "x:y"], ["c/d"], ["x:y"]])

    def test_non_str_names_rejected_as_values(self):
        for bad in (["a"], 7, None, b"a"):
            with pytest.raises(ValueError, match="empty vertex name token"):
                build(["a"], [["a", bad]], [])
            with pytest.raises(ValueError, match="empty vertex name token"):
                build([bad], [], [])

    def test_repeated_names_intern_once(self):
        b = build(["a", "b"], [["a", "b"]] * 50, [["b", "c"]] * 50)
        assert b.names == ("a", "b", "c")
        assert b.e_sets == (VertexSet.of([0, 1]),) * 50
        assert b.f_sets == (VertexSet.of([1, 2]),) * 50

    def test_name_lookup(self):
        b = build(["a", "b"], [["a"]], [])
        assert b.id_of("b") == 1
        assert b.name_of(0) == "a"
        assert b.names_of(VertexSet.of([0, 1])) == ("a", "b")
        assert b.set_of_names(["b"]) == VertexSet.of([1])
        with pytest.raises(ValueError):
            b.id_of("zz")

    def test_duplicate_sets_warn_but_build(self):
        b = build(["a", "b"], [["a", "b"], ["b", "a"]], [])
        warnings = validate(b)
        assert len(warnings) == 1 and "equal" in warnings[0]
        assert validate(six_clause_instance()) == []


_GOOD_NAMES = ("a", "b", "c", "d", "e")
_BAD_NAMES = ("a b", "x:y", "{}", "", "p,q", "t\tab", "r/s", 7, b"a", None, ["a"])
_GOOD_LABELS = ("L1", "L2", "L3", "E1", "F2")
_BAD_LABELS = ("L:", "", "{}", "x<y", None, 3)


def _random_build_call(rng):
    """Arguments for one ``build`` call, every one of them iterable: names
    mostly good, with bad and non-str ones, repeats inside and outside
    ``names``, empty sets, and label lists that may repeat a label, hold a
    bad one or have the wrong length."""
    def name():
        return rng.choice(_BAD_NAMES if rng.random() < 0.08 else _GOOD_NAMES)

    def family():
        return [[name() for _ in range(rng.randint(0, 3))]
                for _ in range(rng.randint(0, 3))]

    def labels(sets):
        if rng.random() < 0.5:
            return None
        count = max(0, len(sets) + rng.choice((0, 0, 0, -1, 1)))
        return [rng.choice(_BAD_LABELS if rng.random() < 0.1 else _GOOD_LABELS)
                for _ in range(count)]

    if rng.random() < 0.5:
        names = rng.sample(_GOOD_NAMES, rng.randint(0, 4))
        names[rng.randint(0, len(names)):0] = [name() for _ in range(rng.randint(0, 1))]
    else:
        names = [name() for _ in range(rng.randint(0, 4))]
    e_sets, f_sets = family(), family()
    return (names, e_sets, f_sets, labels(e_sets), labels(f_sets),
            rng.choice((list, tuple, iter)))


def test_build_matches_reference():
    """``build`` gives the same ``Bihypergraph``, or raises the same
    exception type and message, as the reference that checked each name
    itself, over 6000 random calls."""
    rng = random.Random(20261018)
    outcomes = set()
    for _ in range(6000):
        names, e_sets, f_sets, e_labels, f_labels, kind = _random_build_call(rng)

        def call(fn):
            try:
                return ("built", fn(kind(names),
                                    kind(kind(s) for s in e_sets),
                                    kind(kind(s) for s in f_sets),
                                    None if e_labels is None else kind(e_labels),
                                    None if f_labels is None else kind(f_labels)))
            except Exception as exc:
                return (type(exc), str(exc))

        got, want = call(build), call(reference_build)
        assert got == want, (names, e_sets, f_sets, e_labels, f_labels)
        outcomes.add(want[0] if want[0] == "built" else want[1].split(" ")[0])
    assert {"built", "empty", "invalid", "duplicate", "E:", "F:"} <= outcomes


class TestDirectConstruction:
    """``Bihypergraph(...)`` checks names and labels itself, whatever the
    caller checked before."""

    def test_bad_names_rejected(self):
        for bad in ("a b", "{}", "", "t\tab", 3):
            with pytest.raises(ValueError, match="vertex name"):
                Bihypergraph(("a", bad), (), (), (), ())

    def test_bad_labels_rejected(self):
        e = (VertexSet.of([0]),)
        for bad in ("L:", "{}", "", "x<y", None):
            with pytest.raises(ValueError, match="label"):
                Bihypergraph(("a",), e, (), (bad,), ())
            with pytest.raises(ValueError, match="label"):
                Bihypergraph(("a",), (), e, (), (bad,))


def test_name_tuples_report_the_first_bad_or_repeated_token():
    """Every tuple of names is checked in order, token before repeat, with
    its own wording of either fault."""
    e = (VertexSet.of([0]),)
    cases = [
        (lambda t: Bihypergraph(t, (), (), (), ()), "vertex name", "vertex name"),
        (lambda t: Bihypergraph(("a",), e * len(t), (), t, ()), "label", "E-label"),
        (lambda t: Bihypergraph(("a",), (), e * len(t), (), t), "label", "F-label"),
        (lambda t: ColoringInstance(t, (), colors=1), "graph vertex", "graph vertex"),
        (lambda t: SdrInstance(t, ((),) * len(t)), "set index", "set index"),
    ]
    for make, what, repeat in cases:
        with pytest.raises(ValueError) as info:
            make(("x", "y", "x", "b:d"))
        assert str(info.value) == f"duplicate {repeat} 'x'"
        with pytest.raises(ValueError) as info:
            make(("x", "b:d", "x"))
        assert str(info.value).startswith(f"invalid {what} 'b:d'")
        make(("x", "y"))


class TestIsTransversal:
    def test_empty_family_vacuous(self):
        assert is_transversal(VertexSet(), [])

    def test_nothing_meets_empty_set(self):
        assert not is_transversal(VertexSet(), [VertexSet()])

    def test_three_literals_against_six_clauses(self):
        # Direct check: the clause {-p, -q} shares no member with {p, q, r},
        # so {p, q, r} does not meet every clause.
        b = six_clause_instance()
        x = b.set_of_names(["p", "q", "r"])
        expected = all(set(b.names_of(s)) & {"p", "q", "r"} for s in b.e_sets)
        assert expected is False
        assert is_transversal(x, b.e_sets) is False

    def test_range_check(self):
        with pytest.raises(ValueError):
            is_transversal(VertexSet.of([7]), [], universe=VertexSet.of([0, 1]))
        with pytest.raises(ValueError):
            is_transversal(VertexSet(), [VertexSet.of([9])],
                           universe=VertexSet.of([0]))


class TestCheckSPartition:
    def test_no_constraints_any_x(self):
        b = build(["a", "b", "c"], [], [])
        for mask in range(8):
            assert check_s_partition(b, VertexSet(mask))

    def test_six_clause_instance_has_no_partition(self):
        b = six_clause_instance()
        assert not any(check_s_partition(b, VertexSet(mask))
                       for mask in range(1 << 6))

    def test_singleton_clash(self):
        b = build(["1", "2"], [["1"]], [["1"]])
        # brute force over all four subsets: none qualifies
        assert all_s_partitions(b) == []
        assert not check_s_partition(b, b.set_of_names(["1"]))

    def test_agrees_with_set_based_enumeration(self):
        b = build(["a", "b", "c", "d"],
                  [["a", "b"], ["c", "d"]],
                  [["a", "c"], ["b"]])
        expected = {int(sum(1 << v for v in x)) for x in all_s_partitions(b)}
        got = {mask for mask in range(16) if check_s_partition(b, VertexSet(mask))}
        assert got == expected

    def test_dual_formulation_agreement_exhaustive(self):
        # V-X meets every F-set iff X contains no F-set; check_s_partition
        # asserts this internally, so driving every subset through it on a
        # spread of small instances exercises the equivalence exhaustively.
        names = ["a", "b", "c", "d", "e"]
        pool = [(), ("a",), ("b", "c"), ("a", "d", "e"), ("c", "e")]
        for f_fam in itertools.combinations(pool, 2):
            b = build(names, [], f_fam)
            for mask in range(1 << 5):
                x = VertexSet(mask)
                via_complement = is_transversal(b.complement(x), b.f_sets)
                via_containment = not any(f.issubset(x) for f in b.f_sets)
                assert via_complement == via_containment
                check_s_partition(b, x)

    def test_isolated_vertex_never_flips_result(self):
        base = build(["a", "b", "c"], [["a", "b"]], [["b", "c"]])
        grown = build(["a", "b", "c", "z"], [["a", "b"]], [["b", "c"]])
        for mask in range(8):
            assert (check_s_partition(base, VertexSet(mask))
                    == check_s_partition(grown, VertexSet(mask)))

    def test_out_of_range_x_rejected(self):
        b = build(["a"], [], [])
        with pytest.raises(ValueError):
            check_s_partition(b, VertexSet.of([5]))


class TestFamilyIntersection:
    def test_order_insensitive_equality(self):
        out = family_intersection([VertexSet.of([0, 1])], [VertexSet.of([1, 0])])
        assert out == (VertexSet.of([0, 1]),)

    def test_six_clause_instance_disjoint_families(self):
        b = six_clause_instance()
        # pairwise comparison: no clause equals a complementary pair
        assert family_intersection(b.e_sets, b.f_sets) == ()

    def test_idempotence(self):
        fam = [VertexSet.of([0]), VertexSet.of([1, 2]), VertexSet.of([0])]
        out = family_intersection(fam, fam)
        assert out == (VertexSet.of([0]), VertexSet.of([1, 2]))

    def test_canonical_order(self):
        e = [VertexSet.of([2]), VertexSet.of([0, 1])]
        out = family_intersection(e, list(reversed(e)))
        assert [v.members for v in out] == [(0, 1), (2,)]


@given(st.integers(min_value=1, max_value=6), st.data())
@settings(max_examples=150, deadline=None)
def test_dual_formulation_agreement_random(n, data):
    names = [f"v{i}" for i in range(n)]
    fam = data.draw(st.lists(
        st.lists(st.sampled_from(names), min_size=0, max_size=n, unique=True),
        min_size=0, max_size=4))
    b = build(names, [], fam)
    mask = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    check_s_partition(b, VertexSet(mask))  # its internal check is the oracle


@pytest.mark.parametrize("kind", [Antichain, LinearAntichain])
@given(st.lists(st.tuples(st.booleans(), st.integers(min_value=0, max_value=255)),
                max_size=60))
@settings(max_examples=300, deadline=None)
def test_antichain_matches_brute_force(kind, ops):
    """Subset, superset, occurrence and add answers against a plain list of
    the kept masks, over random masks on 8 vertices (the empty mask
    included)."""
    chain, kept = kind(), []
    for insert, u in ops:
        has_subset = any(k & u == k for k in kept)
        assert chain.has_subset(u) is has_subset
        supersets = [k for k in kept if k & u == u]
        assert sorted(chain.supersets(u)) == sorted(supersets)
        if insert and not has_subset:
            assert sorted(chain.add(u, ("payload", u))) == sorted(supersets)
            kept = [k for k in kept if k not in supersets] + [u]
        assert list(chain.sets) == kept
        assert all(chain.sets[k] == ("payload", k) for k in kept)
        assert [chain.occurrences(1 << v) for v in range(9)] == [
            sum(k >> v & 1 for k in kept) for v in range(9)]
    for a in kept:
        assert not any(b != a and b & a == b for b in kept)


def test_certificate_shapes():
    assert Verdict.HAS_S.value == "HasS"
    assert Verdict.FAILS_S.value == "FailsS"
    part = SPartition(VertexSet.of([1]))
    assert part.x_side == VertexSet.of([1])


def test_every_export_exists():
    import psolve
    assert [name for name in psolve.__all__ if not hasattr(psolve, name)] == []


def test_no_assert_in_library():
    """Soundness checks raise explicitly: ``python -O`` strips ``assert``."""
    import psolve
    src = pathlib.Path(psolve.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
