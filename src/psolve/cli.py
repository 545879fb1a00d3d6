"""Command-line front end: instance/proof file formats, deciders, the
refutation checker, encoders, and the criterion report.

Exit codes: 0 HasS (or: proof valid), 1 FailsS (or: proof invalid),
2 indeterminate (resource limits), 64 usage errors, 65 unparsable or
unprocessable input, 66 unreadable files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from .conditions import analyze
from .core import (Bihypergraph, Certificate, SPartition, Verdict, build,
                   check_token, validate)
from .encodings import (CnfFormula, ColoringInstance, SdrInstance, from_cnf,
                        from_graph_coloring, from_list_coloring, from_sdr)
from .oracle import (DEFAULT_MAX_VERTICES, UniverseTooLargeError,
                     brute_force_decide, count_s_partitions)
from .resolution import (DEFAULT_LIMITS, Limits, Refutation, ResolutionStep,
                         ResourceLimitError, check_refutation, _parse_strategy)
from .search import _METHODS, SetTooLargeError, decide, with_refutation

EXIT_HAS_S = 0
EXIT_FAILS_S = 1
EXIT_INDETERMINATE = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_NOINPUT = 66

ENV_MAX_SETS = "PSOLVE_MAX_SETS"


class ParseError(Exception):
    """A malformed input file, with position information when available."""

    def __init__(self, message: str, path: str = "", line: int | None = None):
        self.message, self.path, self.line = message, path, line
        where = path or "<input>"
        if line is not None:
            where += f":{line}"
        super().__init__(f"{where}: {message}")


class ProofBindError(Exception):
    """A parsed proof does not fit the instance (bad name in a step)."""

    def __init__(self, step_id: str, reason: str):
        self.step_id, self.reason = step_id, reason
        super().__init__(f"step {step_id}: {reason}")


def _ascii_int(token: str) -> int | None:
    """``token`` as an int when it is ASCII digits after an optional ``-``,
    else None.  ``int()`` alone would also take other Unicode digits, a
    ``+``, underscores and surrounding whitespace."""
    digits = token[1:] if token.startswith("-") else token
    return int(token) if digits.isascii() and digits.isdigit() else None


def _content_lines(text: str):
    """Strip comments ('#' to end of line) and blanks; yield (lineno, line)."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


# ---------------------------------------------------------------------------
# Instance files (.bhg)

def parse_instance_text(text: str, path: str = "<instance>") -> Bihypergraph:
    """Parse the line-oriented instance format.

    ``v NAME`` declares a vertex, ``e [LABEL:] NAME*`` an E-set,
    ``f [LABEL:] NAME*`` an F-set.  Undeclared names are interned at first
    occurrence; omitted labels default to E1../F1.. by position.

    Each distinct vertex name and each explicit label is checked once, at
    its first occurrence in the file, so a bad token is reported at the
    line where it first appears.  ``Bihypergraph`` then checks the names
    and labels it holds, and its errors (a repeated ``v`` name, a repeated
    label) carry no line number.
    """
    declared: list[str] = []
    accepted: set[str] = set()
    entries: dict[str, list[tuple[str | None, tuple[str, ...]]]] = {"e": [], "f": []}
    for lineno, line in _content_lines(text):
        tokens = line.split()
        tag = tokens[0]
        if tag == "v":
            if len(tokens) != 2:
                raise ParseError("'v' takes exactly one vertex name", path, lineno)
            declared.append(_token(tokens[1], "vertex name", path, lineno))
            accepted.add(tokens[1])
        elif tag in ("e", "f"):
            body = line[len(tag):].strip()
            label: str | None = None
            if ":" in body:
                label_part, _, member_part = body.partition(":")
                label_tokens = label_part.split()
                if len(label_tokens) != 1:
                    raise ParseError("expected a single label before ':'", path, lineno)
                label = _token(label_tokens[0], "label", path, lineno)
                members = member_part.split()
            else:
                members = tokens[1:]
            for name in members:
                if name not in accepted:
                    accepted.add(_token(name, "vertex name", path, lineno))
            entries[tag].append((label, tuple(members)))
        else:
            raise ParseError(f"unknown directive {tag!r} (expected v, e or f)",
                             path, lineno)
    e_labels = tuple(lab if lab is not None else f"E{i + 1}"
                     for i, (lab, _) in enumerate(entries["e"]))
    f_labels = tuple(lab if lab is not None else f"F{i + 1}"
                     for i, (lab, _) in enumerate(entries["f"]))
    try:
        return build(declared,
                     [names for _, names in entries["e"]],
                     [names for _, names in entries["f"]],
                     e_labels, f_labels)
    except ValueError as exc:
        raise ParseError(str(exc), path) from None


def _token(token: str, what: str, path: str, lineno: int) -> str:
    try:
        return check_token(token, what)
    except ValueError as exc:
        raise ParseError(str(exc), path, lineno) from None


def format_instance(b: Bihypergraph) -> str:
    """Serialize an instance; parsing the result reproduces it exactly."""
    lines = [f"v {name}" for name in b.names]
    for label, vs in zip(b.e_labels, b.e_sets):
        lines.append(f"e {label}: {' '.join(b.names_of(vs))}".rstrip())
    for label, vs in zip(b.f_labels, b.f_sets):
        lines.append(f"f {label}: {' '.join(b.names_of(vs))}".rstrip())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Proof files (.prf)

def parse_proof_text(text: str, path: str = "<proof>"):
    """Parse a proof transcript: a ``mode:`` header, then one step per line,
    ``ID: NAME* <- PREMISE,.. / PIVOT`` with ``{}`` for the empty conclusion.

    Returns (mode, steps) with unresolved name/label tokens; bind_proof
    ties them to an instance.
    """
    mode: str | None = None
    steps: list[tuple[str, tuple[str, ...] | None, tuple[str, ...], str]] = []
    seen_ids: set[str] = set()
    accepted: set[str] = set()
    for lineno, line in _content_lines(text):
        if mode is None:
            if not line.startswith("mode:"):
                raise ParseError("expected 'mode: <E-over-F | F-over-E | alternating N>'",
                                 path, lineno)
            mode = line[len("mode:"):].strip()
            continue
        if "<-" not in line:
            raise ParseError("expected 'ID: CONCLUSION <- PREMISES / PIVOT'",
                             path, lineno)
        left, _, right = line.partition("<-")
        head, colon, conclusion_part = left.partition(":")
        if not colon:
            raise ParseError("missing ':' after the step id", path, lineno)
        step_id = _token(head.strip(), "step id", path, lineno)
        if step_id in seen_ids:
            raise ParseError(f"duplicate step id {step_id!r}", path, lineno)
        seen_ids.add(step_id)
        conclusion_tokens = conclusion_part.split()
        if conclusion_tokens == ["{}"]:
            conclusion: tuple[str, ...] | None = None
        else:
            for t in conclusion_tokens:
                if t not in accepted:
                    accepted.add(_token(t, "vertex name", path, lineno))
            conclusion = tuple(conclusion_tokens)
        if right.count("/") != 1:
            raise ParseError("expected exactly one '/' between premises and pivot",
                             path, lineno)
        premise_part, _, pivot_part = right.partition("/")
        premise_part = premise_part.strip()
        premises = tuple(_token(t.strip(), "premise reference", path, lineno)
                         for t in premise_part.split(",")) if premise_part else ()
        pivot = _token(pivot_part.strip(), "pivot reference", path, lineno)
        steps.append((step_id, conclusion, premises, pivot))
    if mode is None:
        raise ParseError("missing 'mode:' header", path)
    return mode, steps


def bind_proof(b: Bihypergraph, mode: str, steps) -> Refutation:
    """Resolve a parsed proof's vertex names against an instance."""
    bound = []
    for step_id, conclusion, premises, pivot in steps:
        if conclusion is None:
            vs = b.set_of_names(())
        else:
            try:
                vs = b.set_of_names(conclusion)
            except ValueError as exc:
                raise ProofBindError(step_id, str(exc)) from None
        bound.append(ResolutionStep(step_id, vs, premises, pivot))
    return Refutation(mode, tuple(bound))


def format_proof(b: Bihypergraph, refutation: Refutation) -> str:
    lines = [f"mode: {refutation.mode}"]
    for step in refutation.steps:
        conclusion = " ".join(b.names_of(step.conclusion)) or "{}"
        premises = ",".join(step.premises)
        lines.append(f"{step.step_id}: {conclusion} <- {premises} / {step.pivot}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Encoder input formats

def parse_dimacs(text: str, path: str = "<cnf>") -> CnfFormula:
    """DIMACS CNF: a ``p cnf VARS CLAUSES`` header, then clauses as signed
    integers terminated by 0 (clauses may span lines)."""
    header: tuple[int, int] | None = None
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.split()[0] == "c":
            continue
        if line.startswith("%"):
            break
        tokens = line.split()
        if tokens[0] == "p":
            if header is not None:
                raise ParseError("duplicate header", path, lineno)
            if len(tokens) != 4 or tokens[1] != "cnf":
                raise ParseError("expected 'p cnf VARS CLAUSES'", path, lineno)
            counts = (_ascii_int(tokens[2]), _ascii_int(tokens[3]))
            if None in counts:
                raise ParseError("expected 'p cnf VARS CLAUSES'", path, lineno)
            if counts[0] < 0 or counts[1] < 0:
                raise ParseError("negative counts in header", path, lineno)
            header = counts
            continue
        if header is None:
            raise ParseError("clause before 'p cnf' header", path, lineno)
        for token in tokens:
            literal = _ascii_int(token)
            if literal is None:
                raise ParseError(f"expected an integer, got {token!r}", path, lineno)
            if literal == 0:
                clauses.append(tuple(current))
                current.clear()
            elif abs(literal) > header[0]:
                raise ParseError(f"literal {literal} out of range", path, lineno)
            else:
                current.append(literal)
    if header is None:
        raise ParseError("missing 'p cnf' header", path)
    if current:
        raise ParseError("unterminated clause at end of input", path)
    if len(clauses) != header[1]:
        raise ParseError(f"header declares {header[1]} clauses, found {len(clauses)}", path)
    return CnfFormula(header[0], tuple(clauses))


def parse_graph(text: str, path: str = "<graph>") -> ColoringInstance:
    """Graph format: ``vertex NAME``, ``edge NAME NAME``, plus either
    ``colors N`` or ``list NAME COLOR*`` lines.  Edge endpoints and list
    subjects not declared with ``vertex`` are interned at first use."""
    order: list[str] = []
    known: set[str] = set()
    edges: list[tuple[str, str]] = []
    colors: int | None = None
    lists: dict[str, tuple[str, ...]] = {}
    accepted_colors: set[str] = set()

    def note(name: str, lineno: int) -> str:
        """Check and intern a vertex name at its first occurrence."""
        if name not in known:
            known.add(_token(name, "graph vertex", path, lineno))
            order.append(name)
        return name

    for lineno, line in _content_lines(text):
        tokens = line.split()
        tag = tokens[0]
        if tag == "vertex":
            if len(tokens) != 2:
                raise ParseError("'vertex' takes exactly one name", path, lineno)
            if tokens[1] in known:
                raise ParseError(f"duplicate vertex {tokens[1]!r}", path, lineno)
            note(tokens[1], lineno)
        elif tag == "edge":
            if len(tokens) != 3:
                raise ParseError("'edge' takes exactly two vertex names", path, lineno)
            a = note(tokens[1], lineno)
            b = note(tokens[2], lineno)
            if a == b:
                raise ParseError(f"self-loop edge on {a!r}", path, lineno)
            edges.append((a, b))
        elif tag == "colors":
            if colors is not None:
                raise ParseError("duplicate 'colors' line", path, lineno)
            count = _ascii_int(tokens[1]) if len(tokens) == 2 else None
            if count is None or count < 1:
                raise ParseError("'colors' takes a positive integer", path, lineno)
            colors = count
        elif tag == "list":
            if len(tokens) < 2:
                raise ParseError("'list' takes a vertex name and its colors", path, lineno)
            name = note(tokens[1], lineno)
            if name in lists:
                raise ParseError(f"duplicate 'list' line for {name!r}", path, lineno)
            for t in tokens[2:]:
                if t not in accepted_colors:
                    accepted_colors.add(_token(t, "color", path, lineno))
            lists[name] = tuple(tokens[2:])
        else:
            raise ParseError(f"unknown directive {tag!r}", path, lineno)
    list_field = tuple(lists.get(v, ()) for v in order) if lists else None
    try:
        return ColoringInstance(tuple(order), tuple(edges), colors, list_field)
    except ValueError as exc:
        raise ParseError(str(exc), path) from None


def parse_sdr(text: str, path: str = "<sdr>") -> SdrInstance:
    """SDR format: one ``set INDEX: ELEM*`` line per indexed set."""
    labels: list[str] = []
    seen_labels: set[str] = set()
    families: list[tuple[str, ...]] = []
    accepted: set[str] = set()
    for lineno, line in _content_lines(text):
        tokens = line.split()
        if tokens[0] != "set":
            raise ParseError(f"unknown directive {tokens[0]!r} (expected 'set')",
                             path, lineno)
        body = line[len("set"):].strip()
        if ":" not in body:
            raise ParseError("expected 'set INDEX: ELEM*'", path, lineno)
        index_part, _, elem_part = body.partition(":")
        index_tokens = index_part.split()
        if len(index_tokens) != 1:
            raise ParseError("expected a single index before ':'", path, lineno)
        label = _token(index_tokens[0], "set index", path, lineno)
        if label in seen_labels:
            raise ParseError(f"duplicate set index {label!r}", path, lineno)
        seen_labels.add(label)
        labels.append(label)
        elems = elem_part.split()
        for t in elems:
            if t not in accepted:
                accepted.add(_token(t, "element", path, lineno))
        families.append(tuple(elems))
    try:
        return SdrInstance(tuple(labels), tuple(families))
    except ValueError as exc:
        raise ParseError(str(exc), path) from None


# ---------------------------------------------------------------------------
# Output documents

def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _emit(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2, default=str))


def _instance_doc(b: Bihypergraph) -> dict:
    return {"vertices": b.vertex_count,
            "e_sets": len(b.e_sets),
            "f_sets": len(b.f_sets)}


def _refutation_doc(b: Bihypergraph, refutation: Refutation) -> dict:
    return {
        "mode": refutation.mode,
        "steps": [{
            "id": s.step_id,
            "conclusion": list(b.names_of(s.conclusion)),
            "premises": list(s.premises),
            "pivot": s.pivot,
        } for s in refutation.steps],
    }


def _witness_doc(b: Bihypergraph, cert: Certificate):
    if isinstance(cert.witness, SPartition):
        return {"x_side": list(b.names_of(cert.witness.x_side))}
    if isinstance(cert.witness, Refutation):
        return {"refutation": _refutation_doc(b, cert.witness)}
    return None


def _print_witness(b: Bihypergraph, cert: Certificate) -> None:
    if isinstance(cert.witness, SPartition):
        names = b.names_of(cert.witness.x_side)
        print(f"witness: X = {{{', '.join(names)}}}")
    elif isinstance(cert.witness, Refutation):
        print(f"witness: refutation with {len(cert.witness.steps)} steps")
    else:
        print("witness: none")


# ---------------------------------------------------------------------------
# Commands

def _limits_from(args) -> Limits:
    """The limits of decide; PSOLVE_MAX_SETS stands in for no --max-sets."""
    max_sets = args.max_sets
    if max_sets is None:
        env = os.environ.get(ENV_MAX_SETS, str(DEFAULT_LIMITS.max_sets))
        max_sets = _ascii_int(env)
        if max_sets is None:
            raise ParseError(f"{ENV_MAX_SETS} must be an integer, got {env!r}",
                             "environment")
        if max_sets < 0:
            raise ParseError(f"{ENV_MAX_SETS} must be nonnegative, got {env!r}",
                             "environment")
    return Limits(max_sets=max_sets)


def cmd_decide(args) -> int:
    b = parse_instance_text(_read(args.instance), args.instance)
    for warning in validate(b):
        print(f"warning: {warning}", file=sys.stderr)
    limits = _limits_from(args)
    doc = {"command": "decide", "instance": _instance_doc(b),
           "method": args.method, "strategy": args.strategy}
    try:
        cert = decide(b, method=args.method, strategy=args.strategy, limits=limits)
    except ResourceLimitError as exc:
        doc.update(verdict="Indeterminate", reason=str(exc), witness=None, stats=None)
        if args.json:
            _emit(doc)
        else:
            print("verdict: Indeterminate")
            print(f"reason: {exc}")
        return EXIT_INDETERMINATE

    if args.proof and cert.verdict is Verdict.FAILS_S:
        try:
            cert = with_refutation(b, cert, args.strategy, limits)
        except ResourceLimitError as exc:
            print(f"warning: no refutation within limits ({exc})", file=sys.stderr)
        if isinstance(cert.witness, Refutation):
            with open(args.proof, "w", encoding="utf-8") as handle:
                handle.write(format_proof(b, cert.witness))
        else:
            print("warning: no refutation to write", file=sys.stderr)

    doc.update(verdict=cert.verdict.value,
               witness=_witness_doc(b, cert),
               stats=asdict(cert.stats) if cert.stats is not None else None)
    if args.json:
        _emit(doc)
    else:
        print(f"verdict: {cert.verdict.value}")
        print(f"method: {cert.method}")
        _print_witness(b, cert)
        if cert.stats is not None:
            stats = cert.stats
            print(f"stats: generated={stats.generated} kept={stats.kept} "
                  f"subsumed={stats.subsumed} rounds={stats.rounds}")
    return EXIT_HAS_S if cert.verdict is Verdict.HAS_S else EXIT_FAILS_S


def cmd_check(args) -> int:
    b = parse_instance_text(_read(args.instance), args.instance)
    mode, raw_steps = parse_proof_text(_read(args.proof), args.proof)
    try:
        refutation = bind_proof(b, mode, raw_steps)
    except ProofBindError as exc:
        result_ok, step_id, reason = False, exc.step_id, exc.reason
    else:
        outcome = check_refutation(b, refutation)
        result_ok, step_id, reason = outcome.ok, outcome.step_id, outcome.reason
    if args.json:
        _emit({"command": "check", "valid": result_ok,
               "step": step_id, "reason": reason})
    elif result_ok:
        print("proof: valid")
    else:
        where = f" at step {step_id}" if step_id else ""
        print(f"proof: invalid{where}: {reason}")
    return EXIT_HAS_S if result_ok else EXIT_FAILS_S


def cmd_encode(args) -> int:
    text = _read(args.input)
    if args.kind == "cnf":
        encoded = from_cnf(parse_dimacs(text, args.input)).bihypergraph
    elif args.kind == "coloring":
        instance = parse_graph(text, args.input)
        if instance.colors is None:
            raise ParseError("coloring input needs a 'colors N' line", args.input)
        encoded = from_graph_coloring(instance).bihypergraph
    elif args.kind == "listcoloring":
        instance = parse_graph(text, args.input)
        if instance.lists is None:
            raise ParseError("list-coloring input needs 'list NAME COLOR*' lines",
                             args.input)
        for vertex, colors in zip(instance.vertices, instance.lists):
            if not colors:
                print(f"warning: vertex {vertex!r} has an empty color list "
                      "(instance is trivially uncolorable)", file=sys.stderr)
        encoded = from_list_coloring(instance).bihypergraph
    else:
        encoded = from_sdr(parse_sdr(text, args.input)).bihypergraph
    out = format_instance(encoded)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(out)
    else:
        sys.stdout.write(out)
    return EXIT_HAS_S


def cmd_analyze(args) -> int:
    b = parse_instance_text(_read(args.instance), args.instance)
    reports = analyze(b)
    if args.json:
        _emit({
            "command": "analyze",
            "reports": [{
                "criterion": r.criterion,
                "verdict": r.verdict.value,
                "computed": None if r.computed is None else str(r.computed),
                "threshold": None if r.threshold is None else str(r.threshold),
                "note": r.note,
            } for r in reports],
        })
    else:
        for r in reports:
            detail = []
            if r.computed is not None:
                detail.append(f"computed {r.computed}")
            if r.threshold is not None:
                detail.append(f"threshold {r.threshold}")
            if r.note:
                detail.append(r.note)
            suffix = f" ({'; '.join(detail)})" if detail else ""
            print(f"{r.criterion}: {r.verdict.value}{suffix}")
    return EXIT_HAS_S


def cmd_oracle(args) -> int:
    b = parse_instance_text(_read(args.instance), args.instance)
    cert = brute_force_decide(b, max_vertices=args.max_vertices)
    count = count_s_partitions(b, max_vertices=args.max_vertices)
    if args.json:
        witness = (list(b.names_of(cert.witness.x_side))
                   if isinstance(cert.witness, SPartition) else None)
        _emit({"command": "oracle", "verdict": cert.verdict.value,
               "witness": witness, "s_partition_count": count})
    else:
        print(f"verdict: {cert.verdict.value}")
        _print_witness(b, cert)
        print(f"s-partitions: {count}")
    return EXIT_HAS_S if cert.verdict is Verdict.HAS_S else EXIT_FAILS_S


# ---------------------------------------------------------------------------
# Argument parsing

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _cap_arg(value: str) -> int:
    """The type of --max-sets and --max-vertices: a nonnegative int."""
    cap = _ascii_int(value)
    if cap is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}")
    if cap < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value!r}")
    return cap


def _strategy_arg(value: str) -> str:
    try:
        _parse_strategy(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="psolve",
                     description="Decide property S for finite bihypergraphs.")
    sub = parser.add_subparsers(dest="cmd", required=True, metavar="COMMAND")

    p = sub.add_parser("decide", help="decide an instance")
    p.add_argument("instance", help="instance file (.bhg)")
    p.add_argument("--method", choices=_METHODS, default="search")
    p.add_argument("--strategy", type=_strategy_arg, default="ef",
                   help="resolution strategy: ef, fe or alt:N")
    p.add_argument("--proof", metavar="OUT",
                   help="write a refutation (.prf) when the instance fails")
    p.add_argument("--json", action="store_true")
    p.add_argument("--max-sets", type=_cap_arg, default=None,
                   help="cap on the kept sets of a closure and on the distinct unions "
                        f"of one union-DP level (or {ENV_MAX_SETS})")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("check", help="validate a refutation against an instance")
    p.add_argument("instance")
    p.add_argument("proof")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("encode", help="encode a problem as an instance file")
    p.add_argument("kind", choices=("cnf", "coloring", "listcoloring", "sdr"))
    p.add_argument("input")
    p.add_argument("-o", "--output", metavar="OUT.bhg",
                   help="output path (default: stdout)")
    p.set_defaults(func=cmd_encode, json=False)

    p = sub.add_parser("analyze", help="run the fast incomplete criteria")
    p.add_argument("instance")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("oracle", help="decide and count by brute force")
    p.add_argument("instance")
    p.add_argument("--max-vertices", type=_cap_arg, default=DEFAULT_MAX_VERTICES)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (SetTooLargeError, UniverseTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOINPUT


if __name__ == "__main__":
    sys.exit(main())
