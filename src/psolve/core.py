"""Core types: interned vertices, canonical vertex sets, bihypergraphs, and
the S-partition test.

A bihypergraph <V, E, F> has property S when V splits into {X, V-X} with X
meeting every E-set and V-X meeting every F-set.  Everything downstream
(closures, search, encodings) trades in the types defined here.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable, Iterator

# Characters with structural meaning in the text formats; names and labels
# may not contain them.
_FORBIDDEN_CHARS = frozenset(" \t\r\n\f\v#:,/<")
# The forbidden characters a printable string can hold (" #:,/<"); the
# others are whitespace that ``str.isprintable`` already rejects.
_PRINTABLE_FORBIDDEN = tuple(c for c in _FORBIDDEN_CHARS if c.isprintable())


def check_token(token: str, what: str = "name") -> str:
    """Validate a vertex name or label for use in the line-oriented formats.

    This is the one token predicate.  Every rule applies to the whole token
    (not a ``str``, empty, ``{}``) or to each character on its own
    (non-printable, forbidden), which is what lets ``check_distinct`` test a
    whole family at once.  The text parsers apply it once per distinct
    token, at its first occurrence, so they can report the line; the
    encoders' input types apply it to their own names.
    """
    if not isinstance(token, str) or not token:
        raise ValueError(f"empty {what} token")
    if token == "{}" or not token.isprintable() or not _FORBIDDEN_CHARS.isdisjoint(token):
        raise ValueError(
            f"invalid {what} {token!r}: tokens may not be '{{}}' or contain "
            "whitespace or any of '#:,/<'"
        )
    return token


def check_distinct(tokens: Iterable[str], what: str,
                   repeat: str | None = None) -> dict[str, int]:
    """``check_token`` each of ``tokens`` in order and reject the first
    repeat ("duplicate <repeat or what>"); returns each token's position.

    A valid family passes in one test of the whole: the tokens join (all
    are ``str``), the join is printable and holds none of the printable
    forbidden characters (so each token is and does; every other forbidden
    character is non-printable), the position dict has one entry per
    token, and neither ``""`` nor ``{}`` is among them.  That is exactly
    "every token passes ``check_token`` and none repeats", so only a family
    that fails it is walked token by token, to raise the same first error.
    """
    tokens = tuple(tokens)
    try:
        joined = "".join(tokens)
    except TypeError:
        joined = None
    if (joined is not None and joined.isprintable()
            and not any(c in joined for c in _PRINTABLE_FORBIDDEN)):
        index = dict(zip(tokens, range(len(tokens))))
        if len(index) == len(tokens) and "" not in index and "{}" not in index:
            return index
    index = {}
    for i, token in enumerate(tokens):
        check_token(token, what)
        if token in index:
            raise ValueError(f"duplicate {repeat or what} {token!r}")
        index[token] = i
    return index


@dataclass(frozen=True)
class VertexSet:
    """Canonical immutable vertex set.

    Internally a bitmask (bit i set iff vertex id i is a member), so subset,
    union, difference and intersection tests are single integer operations.
    The canonical external form is the sorted id sequence from ``members``.
    """

    mask: int = 0

    def __post_init__(self) -> None:
        if self.mask < 0:
            raise ValueError("vertex ids must be nonnegative")

    @classmethod
    def of(cls, ids: Iterable[int]) -> "VertexSet":
        mask = 0
        for i in ids:
            if i < 0:
                raise ValueError("vertex ids must be nonnegative")
            mask |= 1 << i
        return cls(mask)

    @property
    def members(self) -> tuple[int, ...]:
        out = []
        m = self.mask
        while m:
            low = m & -m
            out.append(low.bit_length() - 1)
            m ^= low
        return tuple(out)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, vertex_id: int) -> bool:
        return vertex_id >= 0 and bool(self.mask >> vertex_id & 1)

    def __bool__(self) -> bool:
        return self.mask != 0

    def __repr__(self) -> str:
        return f"VertexSet.of({list(self.members)})"

    def union(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self.mask | other.mask)

    def difference(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self.mask & ~other.mask)

    def intersection(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self.mask & other.mask)

    def intersects(self, other: "VertexSet") -> bool:
        return bool(self.mask & other.mask)

    def issubset(self, other: "VertexSet") -> bool:
        return self.mask & ~other.mask == 0


class Antichain:
    """Subset-minimal bitmasks with payloads, kept in insertion order.

    ``sets`` maps each kept mask to its payload.  Two indexes answer the
    subsumption queries without scanning every kept mask (the forward and
    backward subsumption of Een & Biere, SAT 2005):

    * each nonempty mask is filed once, under its lowest member bit, so
      "is some kept mask a subset of u?" visits only the buckets of u's own
      members;
    * each member bit has an occurrence set of the kept masks containing it,
      so "which kept masks are supersets of u?" scans the shortest
      occurrence set among u's members, and ``occurrences`` counts the
      kept masks that hold one vertex.

    The empty mask is filed nowhere: when kept it is the only mask, and
    ``sets`` answers for it.
    """

    __slots__ = ("sets", "_by_low", "_occurs")

    def __init__(self) -> None:
        self.sets: dict[int, Any] = {}
        self._by_low: dict[int, set[int]] = {}
        self._occurs: dict[int, set[int]] = {}

    def has_subset(self, u: int) -> bool:
        """True iff some kept mask is a subset of ``u`` (or equals it)."""
        if 0 in self.sets:
            return True
        by_low = self._by_low
        rest = u
        while rest:
            bit = rest & -rest
            bucket = by_low.get(bit)
            if bucket:
                for k in bucket:
                    if k & u == k:
                        return True
            rest ^= bit
        return False

    def supersets(self, u: int) -> list[int]:
        """Every kept mask that is a superset of ``u`` (or equals it)."""
        if not u:
            return list(self.sets)
        occurs = self._occurs
        shortest: set[int] | None = None
        rest = u
        while rest:
            bit = rest & -rest
            found = occurs.get(bit)
            if not found:
                return []
            if shortest is None or len(found) < len(shortest):
                shortest = found
            rest ^= bit
        return [k for k in shortest if k & u == u]  # type: ignore[union-attr]

    def occurrences(self, bit: int) -> int:
        """The number of kept masks that hold the vertex whose bit is
        ``bit`` (a single-bit mask)."""
        found = self._occurs.get(bit)
        return len(found) if found else 0

    def add(self, mask: int, payload: Any = None) -> list[int]:
        """Keep ``mask`` after its last insertion, dropping and returning
        every kept strict superset.  The caller guarantees that no kept
        mask is a subset of ``mask`` (``has_subset`` is false)."""
        removed = self.supersets(mask)
        sets, by_low, occurs = self.sets, self._by_low, self._occurs
        for k in removed:
            del sets[k]
            by_low[k & -k].discard(k)
            rest = k
            while rest:
                bit = rest & -rest
                occurs[bit].discard(k)
                rest ^= bit
        sets[mask] = payload
        if mask:
            low = mask & -mask
            if low in by_low:
                by_low[low].add(mask)
            else:
                by_low[low] = {mask}
            rest = mask
            while rest:
                bit = rest & -rest
                if bit in occurs:
                    occurs[bit].add(mask)
                else:
                    occurs[bit] = {mask}
                rest ^= bit
        return removed


@dataclass(frozen=True)
class SPartition:
    """The witnessing cell X of an S-partition {X, V-X}."""

    x_side: VertexSet


@dataclass(frozen=True)
class Bihypergraph:
    """A finite bihypergraph <V, E, F> with stable per-family set labels."""

    names: tuple[str, ...]
    e_sets: tuple[VertexSet, ...]
    f_sets: tuple[VertexSet, ...]
    e_labels: tuple[str, ...]
    f_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        index = check_distinct(self.names, "vertex name")
        for family, sets, labels in (("E", self.e_sets, self.e_labels),
                                     ("F", self.f_sets, self.f_labels)):
            if len(sets) != len(labels):
                raise ValueError(f"{family}: one label per set required")
            check_distinct(labels, "label", f"{family}-label")
            for vs in sets:
                if vs.mask >> len(self.names):
                    raise ValueError(f"{family}-set member id out of range: {vs!r}")
        object.__setattr__(self, "_name_index", index)

    @property
    def vertex_count(self) -> int:
        return len(self.names)

    @property
    def full_set(self) -> VertexSet:
        return VertexSet((1 << len(self.names)) - 1)

    def id_of(self, name: str) -> int:
        try:
            return self._name_index[name]  # type: ignore[attr-defined]
        except KeyError:
            raise ValueError(f"unknown vertex name {name!r}") from None

    def name_of(self, vertex_id: int) -> str:
        return self.names[vertex_id]

    def set_of_names(self, names: Iterable[str]) -> VertexSet:
        return VertexSet.of(self.id_of(n) for n in names)

    def names_of(self, vs: VertexSet) -> tuple[str, ...]:
        return tuple(self.names[i] for i in vs.members)

    def complement(self, vs: VertexSet) -> VertexSet:
        if vs.mask >> self.vertex_count:
            raise ValueError("vertex id out of range for this instance")
        return VertexSet(self.full_set.mask & ~vs.mask)


def build(names: Iterable[str] = (),
          e_sets: Iterable[Iterable[str]] = (),
          f_sets: Iterable[Iterable[str]] = (),
          e_labels: Iterable[str] | None = None,
          f_labels: Iterable[str] | None = None) -> Bihypergraph:
    """Construct a bihypergraph from vertex names and name-sets.

    Names listed in ``names`` are interned first, in the given order; any
    name appearing only inside a set is interned at first occurrence.
    Labels default to E1..En and F1..Fm.

    ``build`` checks nothing itself.  ``Bihypergraph`` reports the first
    bad or repeated name in id order, then the labels, so the first error
    is the first bad name in the order above.  All arguments are consumed
    before that check, so a set or label list that is not iterable raises
    its ``TypeError`` even when an earlier name is bad.
    """
    order = list(names)
    interned = {name: i for i, name in enumerate(order) if isinstance(name, str)}

    def masks(sets: Iterable[Iterable[str]]) -> tuple[VertexSet, ...]:
        out = []
        for s in sets:
            mask = 0
            for name in s:
                # A non-str is never hashed: it gets an id of its own, and
                # Bihypergraph rejects it.
                i = interned.get(name) if isinstance(name, str) else None
                if i is None:
                    i = len(order)
                    order.append(name)
                    if isinstance(name, str):
                        interned[name] = i
                mask |= 1 << i
            out.append(VertexSet(mask))
        return tuple(out)

    e_vs = masks(e_sets)
    f_vs = masks(f_sets)
    e_lab = tuple(e_labels) if e_labels is not None else tuple(f"E{i + 1}" for i in range(len(e_vs)))
    f_lab = tuple(f_labels) if f_labels is not None else tuple(f"F{i + 1}" for i in range(len(f_vs)))
    return Bihypergraph(tuple(order), e_vs, f_vs, e_lab, f_lab)


def validate(b: Bihypergraph) -> list[str]:
    """Return non-fatal warnings (hard errors are raised at construction).

    Duplicate sets within one family are legal, since proof annotations may
    reference either label, but they are worth flagging.
    """
    warnings = []
    for family, sets, labels in (("E", b.e_sets, b.e_labels), ("F", b.f_sets, b.f_labels)):
        first: dict[int, str] = {}
        for vs, label in zip(sets, labels):
            if vs.mask in first:
                warnings.append(
                    f"{family}: sets {first[vs.mask]!r} and {label!r} are equal")
            else:
                first[vs.mask] = label
    return warnings


def is_transversal(x: VertexSet, family: Iterable[VertexSet],
                   universe: VertexSet | None = None) -> bool:
    """True iff x meets every set in the family (vacuously true if empty).

    When ``universe`` is given, x and all family members must be subsets of
    it; a stray member id raises ValueError.
    """
    if universe is not None and not x.issubset(universe):
        raise ValueError("member id out of range")
    ok = True
    for a in family:
        if universe is not None and not a.issubset(universe):
            raise ValueError("member id out of range")
        if not (a.mask & x.mask):
            ok = False
            if universe is None:
                return False
    return ok


def check_s_partition(b: Bihypergraph, x: VertexSet) -> bool:
    """True iff {x, V-x} is an S-partition of b.

    Computed both as "V-x meets every F-set" and as "x contains no F-set";
    the two formulations must agree, and RuntimeError is raised if not.
    """
    comp = b.complement(x)
    f_via_complement = is_transversal(comp, b.f_sets)
    f_via_containment = not any(f.issubset(x) for f in b.f_sets)
    if f_via_complement != f_via_containment:
        raise RuntimeError("the two F-side tests of an S-partition disagree")
    return is_transversal(x, b.e_sets) and f_via_complement


def family_intersection(e_family: Iterable[VertexSet],
                        f_family: Iterable[VertexSet]) -> tuple[VertexSet, ...]:
    """Sets occurring (up to set equality) in both families, deduplicated
    and in canonical order."""
    common = {vs.mask for vs in e_family} & {vs.mask for vs in f_family}
    return tuple(sorted((VertexSet(m) for m in common), key=lambda v: v.members))


class Verdict(str, Enum):
    """Outcome of a decision procedure or a sufficient/necessary criterion."""

    HAS_S = "HasS"
    FAILS_S = "FailsS"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class Certificate:
    """Verdict plus its checkable evidence.

    ``witness`` is an SPartition for HasS, a Refutation for FailsS when one
    was produced by resolution, and None when FailsS was established by
    exhaustive search alone (or when HasS came from a fixed-point argument
    that yields no explicit partition).
    """

    verdict: Verdict
    witness: Any = None
    method: str = ""
    stats: Any = None
