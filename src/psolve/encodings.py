"""Reductions between property S and classical satisfiability problems.

Into property S: CNF formulas, graph n-coloring, list coloring, and systems
of distinct representatives.  Out of property S: the propositional view with
one variable per vertex (a positive clause per E-set, a negative clause per
F-set).  Every encoding carries translators so witnesses move both ways.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Bihypergraph, VertexSet, build, check_distinct, check_token


@dataclass(frozen=True)
class CnfFormula:
    """Clauses over signed 1-based variable indices.

    Clauses are normalized to duplicate-free literal tuples sorted by
    variable; a clause may contain both polarities of a variable (it is then
    tautologous).  Variable names default to "1".."n" and may not begin with
    '-', which is reserved as the polarity prefix in derived vertex names.
    """

    variable_count: int
    clauses: tuple[tuple[int, ...], ...]
    variable_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.variable_count < 0:
            raise ValueError("variable count must be nonnegative")
        names = self.variable_names or tuple(
            str(i) for i in range(1, self.variable_count + 1))
        if len(names) != self.variable_count:
            raise ValueError("one name per variable required")
        seen: set[str] = set()
        for name in names:
            check_token(name, "variable name")
            if name.startswith("-"):
                raise ValueError(f"variable name {name!r} may not begin with '-'")
            if name in seen:
                raise ValueError(f"duplicate variable name {name!r}")
            seen.add(name)
        normal = []
        for clause in self.clauses:
            for lit in clause:
                if lit == 0 or abs(lit) > self.variable_count:
                    raise ValueError(f"literal {lit} out of range")
            normal.append(tuple(sorted(set(clause), key=lambda l: (abs(l), l < 0))))
        object.__setattr__(self, "clauses", tuple(normal))
        object.__setattr__(self, "variable_names", names)

    def name_of(self, variable: int) -> str:
        return self.variable_names[variable - 1]

    def literal_name(self, literal: int) -> str:
        name = self.name_of(abs(literal))
        return name if literal > 0 else "-" + name

    def is_satisfied_by(self, assignment: dict[int, bool]) -> bool:
        return all(any(assignment[abs(l)] == (l > 0) for l in clause)
                   for clause in self.clauses)


@dataclass(frozen=True)
class CnfEncoding:
    """A CNF formula recast as a bihypergraph.

    Vertices are the literals (both polarities of every variable occurring
    in some clause), E-sets are the clauses, F-sets pair each variable with
    its negation.  Satisfying assignments correspond exactly to S-partitions
    under "literal vertex in X iff the literal is true".
    """

    formula: CnfFormula
    bihypergraph: Bihypergraph
    variables: tuple[int, ...]

    def assignment_from_partition(self, x: VertexSet) -> dict[int, bool]:
        b = self.bihypergraph
        return {v: b.id_of(self.formula.name_of(v)) in x for v in self.variables}

    def partition_from_assignment(self, assignment: dict[int, bool]) -> VertexSet:
        b = self.bihypergraph
        ids = []
        for v in self.variables:
            name = self.formula.name_of(v)
            ids.append(b.id_of(name if assignment[v] else "-" + name))
        return VertexSet.of(ids)


def from_cnf(formula: CnfFormula) -> CnfEncoding:
    """Encode CNF satisfiability as property S."""
    occurring = sorted({abs(l) for clause in formula.clauses for l in clause})
    names = []
    f_sets = []
    for v in occurring:
        name = formula.name_of(v)
        names.extend((name, "-" + name))
        f_sets.append((name, "-" + name))
    e_sets = [tuple(formula.literal_name(l) for l in clause)
              for clause in formula.clauses]
    b = build(names, e_sets, f_sets)
    return CnfEncoding(formula, b, tuple(occurring))


@dataclass(frozen=True)
class CnfRepresentation:
    """A bihypergraph recast as CNF, one variable per vertex ("true" means
    the vertex is in X); models and S-partitions correspond exactly."""

    bihypergraph: Bihypergraph
    formula: CnfFormula

    def assignment_from_partition(self, x: VertexSet) -> dict[int, bool]:
        return {i + 1: i in x for i in range(self.bihypergraph.vertex_count)}

    def partition_from_assignment(self, assignment: dict[int, bool]) -> VertexSet:
        return VertexSet.of(i for i in range(self.bihypergraph.vertex_count)
                            if assignment[i + 1])


def to_cnf(b: Bihypergraph) -> CnfRepresentation:
    """Encode property S as CNF satisfiability.

    Vertex names become variable names when they are usable as such (no
    leading '-'); otherwise all variables are renamed v1..vn.
    """
    names: tuple[str, ...] = b.names
    if any(n.startswith("-") for n in names):
        names = tuple(f"v{i + 1}" for i in range(b.vertex_count))
    clauses = [tuple(v + 1 for v in s.members) for s in b.e_sets]
    clauses += [tuple(-(v + 1) for v in s.members) for s in b.f_sets]
    formula = CnfFormula(b.vertex_count, tuple(clauses), names)
    return CnfRepresentation(b, formula)


@dataclass(frozen=True)
class ColoringInstance:
    """A graph with either a palette size or per-vertex color lists."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    colors: int | None = None
    lists: tuple[tuple[str, ...], ...] | None = None

    def __post_init__(self) -> None:
        seen = check_distinct(self.vertices, "graph vertex")
        for a1, a2 in self.edges:
            if a1 == a2:
                raise ValueError(f"self-loop edge on {a1!r}")
            if a1 not in seen or a2 not in seen:
                raise ValueError(f"edge ({a1!r}, {a2!r}) references an unknown vertex")
        if self.colors is not None and self.colors < 1:
            raise ValueError("palette size must be at least 1")
        if self.lists is not None:
            if len(self.lists) != len(self.vertices):
                raise ValueError("one color list per vertex required")
            deduped = []
            checked: set[str] = set()
            for colors in self.lists:
                for c in colors:
                    # A non-str skips the lookup: check_token rejects it
                    # before it is hashed.
                    if not (isinstance(c, str) and c in checked):
                        checked.add(check_token(c, "color"))
                deduped.append(tuple(dict.fromkeys(colors)))
            object.__setattr__(self, "lists", tuple(deduped))

    def list_of(self, vertex: str) -> tuple[str, ...]:
        if self.lists is None:
            raise ValueError("instance has no color lists")
        return self.lists[self.vertices.index(vertex)]


@dataclass(frozen=True)
class ColoringEncoding:
    """Coloring as property S over (vertex, color) pair vertices "a@c".

    The E-set of a graph vertex lists its available pairs; an F-pair forbids
    both ends of an edge taking the same color.  X picks the coloring: each
    graph vertex takes the first of its available colors present in X.
    """

    bihypergraph: Bihypergraph
    vertices: tuple[str, ...]
    available: tuple[tuple[str, ...], ...]

    def coloring_from_partition(self, x: VertexSet) -> dict[str, str]:
        b = self.bihypergraph
        coloring = {}
        for a, colors in zip(self.vertices, self.available):
            for c in colors:
                if b.id_of(f"{a}@{c}") in x:
                    coloring[a] = c
                    break
            else:
                raise ValueError(f"partition assigns no color to vertex {a!r}")
        return coloring


def _encode_coloring(vertices, edges, available) -> ColoringEncoding:
    by_vertex = dict(zip(vertices, available))
    names = [f"{a}@{c}" for a in vertices for c in by_vertex[a]]
    e_sets = [tuple(f"{a}@{c}" for c in by_vertex[a]) for a in vertices]
    f_sets = []
    seen_pairs: set[frozenset[str]] = set()
    for a1, a2 in edges:
        for c in by_vertex[a1]:
            if c not in by_vertex[a2]:
                continue
            pair = (f"{a1}@{c}", f"{a2}@{c}")
            key = frozenset(pair)
            if key not in seen_pairs:
                seen_pairs.add(key)
                f_sets.append(pair)
    b = build(names, e_sets, f_sets)
    return ColoringEncoding(b, tuple(vertices), tuple(tuple(by_vertex[a]) for a in vertices))


def from_graph_coloring(instance: ColoringInstance) -> ColoringEncoding:
    """n-colorability as property S; colors are named "1".."n"."""
    if instance.colors is None:
        raise ValueError("instance has no palette size")
    palette = tuple(str(j) for j in range(1, instance.colors + 1))
    return _encode_coloring(instance.vertices, instance.edges,
                            [palette] * len(instance.vertices))


def from_list_coloring(instance: ColoringInstance) -> ColoringEncoding:
    """List colorability as property S.

    F-pairs appear only for colors shared by both endpoints of an edge.  An
    empty list yields an empty E-set, making the instance (correctly) fail.
    """
    if instance.lists is None:
        raise ValueError("instance has no color lists")
    return _encode_coloring(instance.vertices, instance.edges, instance.lists)


@dataclass(frozen=True)
class SdrInstance:
    """An indexed family of finite element sets."""

    labels: tuple[str, ...]
    families: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.families):
            raise ValueError("one label per set required")
        check_distinct(self.labels, "set index")
        deduped = []
        checked: set[str] = set()
        for elems in self.families:
            for e in elems:
                # A non-str skips the lookup: check_token rejects it
                # before it is hashed.
                if not (isinstance(e, str) and e in checked):
                    checked.add(check_token(e, "element"))
            deduped.append(tuple(dict.fromkeys(elems)))
        object.__setattr__(self, "families", tuple(deduped))


@dataclass(frozen=True)
class SdrEncoding:
    """Distinct representatives as property S over "element@index" vertices.

    The E-set of index i lists its (element, i) pairs; an F-pair forbids one
    element representing two indices at once, which forces distinctness no
    matter which X-member each E-set contributes.
    """

    bihypergraph: Bihypergraph
    instance: SdrInstance

    def representatives_from_partition(self, x: VertexSet) -> dict[str, str]:
        b = self.bihypergraph
        chosen = {}
        for label, elems in zip(self.instance.labels, self.instance.families):
            for e in elems:
                if b.id_of(f"{e}@{label}") in x:
                    chosen[label] = e
                    break
            else:
                raise ValueError(f"partition picks no representative for {label!r}")
        return chosen


def from_sdr(instance: SdrInstance) -> SdrEncoding:
    """SDR existence as property S."""
    names = [f"{e}@{label}"
             for label, elems in zip(instance.labels, instance.families)
             for e in elems]
    e_sets = [tuple(f"{e}@{label}" for e in elems)
              for label, elems in zip(instance.labels, instance.families)]
    holders: dict[str, list[str]] = {}
    for label, elems in zip(instance.labels, instance.families):
        for e in elems:
            holders.setdefault(e, []).append(label)
    f_sets = []
    for e in holders:
        labels = holders[e]
        for i in range(len(labels)):
            for j in range(i + 1, len(labels)):
                f_sets.append((f"{e}@{labels[i]}", f"{e}@{labels[j]}"))
    b = build(names, e_sets, f_sets)
    return SdrEncoding(b, instance)
