"""Command-line interface.

One binary, one subcommand per operation.  Every rational is printed
exactly as p/q (never as a decimal), collections are emitted in sorted
order, and identical invocations produce identical bytes.  Domain errors
exit 1 with a structured {"error": kind, "message": ...} record on stderr,
usage errors exit 2, and a failed internal self-check exits 3 with the
record {"error": "INTERNAL", "message": ...}.  An output file (--out, and
the --json file or --dot directory of enumerate) that cannot be written
exits 1 with the record {"error": "IO_ERROR", "message": ...}.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from itertools import groupby
from operator import itemgetter
from pathlib import Path

from . import catalog, checks, cones, groebner, resolution, toric_an
from .cones import ConeTriple
from .divisors import QDivisorP1, SeifertData
from .errors import DomainError
from .rationals import format_rational, parse_rational


def _rational_arg(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _divisor_arg(text: str) -> QDivisorP1:
    try:
        return QDivisorP1.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conesing",
        description="Exact invariants of surface cone singularities.",
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, options, _, views) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        formats = ("text", "json", *(view for view in views if view not in ("text", "json")))
        sub.add_argument("--format", choices=formats, default="text")
        sub.add_argument("--out", type=Path, help="write the document to a file instead of stdout")
        for option, keywords in options.items():
            sub.add_argument(option, **keywords)
    return parser


# Each subcommand builds one document, and each format is a view that reads
# only that document.  The small documents (mld, the cone records, tjurina,
# paper-check) are dicts that --format json prints through _json_text.  The
# resolve, enumerate and an-blowups documents are the values computed:
# resolve's is the graph with its discrepancy report, enumerate's is
# (epsilon0, N, entries), and an-blowups' is the tuple of records
# enumerate_plt_blowups returns.  Every view of them, json included, lays out
# its rows in this module straight from those values.  main writes the json
# view of enumerate --json to its file before stdout, laid out once when
# --format json prints the same text.


def _cone_document(triple: ConeTriple) -> dict:
    return {
        "degree": format_rational(triple.polarization.degree()),
        "fano_angle": format_rational(cones.fano_angle(triple)),
        "vertex_log_discrepancy": format_rational(cones.vertex_log_discrepancy(triple)),
        "cartier_index": triple.polarization.cartier_index(),
        "max_isotropy": cones.max_isotropy(triple),
    }


def _cone(args: argparse.Namespace) -> dict:
    return _cone_document(ConeTriple(args.divisor))


def _veronese(args: argparse.Namespace) -> dict:
    return _cone_document(cones.veronese(ConeTriple(args.divisor), args.m))


def _degenerate(args: argparse.Namespace) -> dict:
    divisor = args.divisor
    m = args.m if args.m is not None else divisor.cartier_index()
    qs = [q for _, _, q in divisor.fractional_profile()]
    fiber = cones.central_fiber_of_plt_blowup(qs, divisor.degree(), m)
    return _cone_document(fiber.quotient)


def _solve(seifert: SeifertData) -> tuple:
    """The resolve document of a Seifert form: its graph and that graph's
    discrepancy report."""
    graph = resolution.build_graph(seifert)
    return graph, resolution.discrepancies(graph)


def _resolve(args: argparse.Namespace) -> tuple:
    return _solve(args.divisor.normalize_seifert())


def _mld(args: argparse.Namespace) -> dict:
    _, report = _solve(args.divisor.normalize_seifert())
    return {"mld": format_rational(report.mld)}


def _enumerate(args: argparse.Namespace) -> tuple:
    entries = catalog.enumerate_catalog(args.epsilon0, args.isotropy)
    document = (args.epsilon0, args.isotropy, entries)
    if args.dot_dir is not None:
        args.dot_dir.mkdir(parents=True, exist_ok=True)
        for index, entry in enumerate(entries):
            path = args.dot_dir / f"entry_{index:03d}.dot"
            path.write_text(_dot_text(_solve(entry.seifert)))
    return document


def _an_blowups(args: argparse.Namespace) -> tuple:
    bound = args.bound if args.bound is not None else 4 * args.n
    return toric_an.enumerate_plt_blowups(args.n, bound)


def _one_minus_reciprocal(d: int) -> str:
    """format_rational(1 - Fraction(1, d)) for an integer d >= 1."""
    return f"{d - 1}/{d}" if d > 1 else "0"


def _reciprocal(d: int) -> str:
    """format_rational(Fraction(1, d)) for an integer d >= 1."""
    return f"1/{d}" if d > 1 else "1"


def _tjurina(args: argparse.Namespace) -> dict:
    if (args.poly is None) == (args.family_n is None):
        raise UsageError("tjurina needs exactly one of --poly or --family-n")
    if args.family_n is not None:
        return {"tjurina": groebner.tjurina_family(args.family_n, 1 if args.t is None else args.t)}
    if args.t is not None:
        raise UsageError("--t is a parameter of --family-n, not of --poly")
    return {"tjurina": groebner.tjurina(groebner.parse_polynomial(args.poly))}


def _paper_check(args: argparse.Namespace) -> dict:
    results = checks.run_paper_checks()
    return {
        "ok": all(r.ok for r in results),
        "checks": [
            {"id": r.check_id, "ok": r.ok, "expected": r.expected, "actual": r.actual}
            for r in results
        ],
    }


def _record_text(document: dict) -> str:
    return _text([f"{key}: {value}" for key, value in document.items()])


def _resolve_text(document: tuple) -> str:
    graph, report = document
    nodes = zip(graph.nodes, report.log_discrepancies)
    return _text([
        f"E_{i}: self-intersection {e}, log discrepancy {format_rational(a)}"
        + (" (central)" if i == graph.central_index else "")
        for i, (e, a) in enumerate(nodes)
    ] + [f"mld: {format_rational(report.mld)}", f"canonical index: {report.canonical_index}"])


def _dot_text(document: tuple) -> str:
    graph, report = document
    nodes = zip(graph.nodes, report.log_discrepancies)
    lines = ["digraph resolution {"]
    lines.extend(
        f'  n{i} [label="E_{i}: {e}, {format_rational(a)}"];' for i, (e, a) in enumerate(nodes)
    )
    lines.extend(f"  n{i} -> n{j};" for i, j in graph.edges)
    lines.append("}")
    return _text(lines)


def _enumerate_text(document: tuple) -> str:
    _, _, entries = document
    return _text([
        f"{e.triple.polarization}  mld={format_rational(e.mld)}"
        f"  r={format_rational(e.fano_angle)}"
        f"  isotropy={e.max_isotropy}  index={e.canonical_index}"
        for e in entries
    ] + [f"{len(entries)} entries"])


# The an-blowups views print each record (x, y, b) as the ray, a = x, b, the
# different ((a-1)/a, (b-1)/b) and the threshold 1/max(a, b), all in lowest
# terms.  The records come one column (one x) at a time, so the text that
# depends on x alone is laid out once per column; b = 1, where (b-1)/b is 0
# and max(a, b) is a, takes the slower row.


def _an_blowups_text(records: tuple) -> str:
    lines = []
    for x, column in groupby(records, itemgetter(0)):
        ray, a = f"ray=({x},", f")  a={x}  b="
        diff = f"  diff=({_one_minus_reciprocal(x)},"
        lines += [
            f"{ray}{y}{a}{b}{diff}{b - 1}/{b})  threshold=1/{b if b > x else x}" if b > 1
            else f"{ray}{y}{a}1{diff}0)  threshold={_reciprocal(x)}"
            for _, y, b in column
        ]
    lines.append(f"{len(records)} rays")
    return _text(lines)


def _an_blowups_json(records: tuple) -> str:
    """_json_text of the rows {"a", "b", "diff", "ray", "threshold"}, written
    from their fixed layout: json.dumps(indent=2, sort_keys=True) would cost
    more than the walk.  The records are never empty: the ray (1, 0) is
    interior for every n and bound."""
    parts = []
    for x, column in groupby(records, itemgetter(0)):
        a = f'  {{\n    "a": {x},\n    "b": '
        diff = f',\n    "diff": [\n      "{_one_minus_reciprocal(x)}",\n      "'
        ray = f'"\n    ],\n    "ray": [\n      {x},\n      '
        parts += (",\n", ",\n".join(
            f'{a}{b}{diff}{b - 1}/{b}{ray}{y}\n    ],\n'
            f'    "threshold": "1/{b if b > x else x}"\n  }}' if b > 1
            else f'{a}1{diff}0{ray}{y}\n    ],\n    "threshold": "{_reciprocal(x)}"\n  }}'
            for _, y, b in column
        ))
    # the first separator opens the list: one join, and no second copy of the rows
    parts[0] = "[\n"
    parts.append("\n]\n")
    return "".join(parts)


# One row of each list that _resolve_json and _enumerate_json lay out: a node
# and an edge of resolve, a catalog entry and one branch of its Seifert form,
# as json.dumps(indent=2, sort_keys=True) indents them.  Every string in them
# is a rational or divisor text, which JSON does not escape.
_NODE_JSON = """\
    {
      "is_central": %s,
      "self_intersection": %d
    }"""
_EDGE_JSON = """\
    [
      %d,
      %d
    ]"""
_ENTRY_JSON = """\
    {
      "canonical_index": %d,
      "divisor": "%s",
      "fano_angle": "%s",
      "max_isotropy": %d,
      "mld": "%s",
      "seifert": {
        "b": %d,
        "branches": %s
      }
    }"""
_BRANCH_JSON = """\
          [
            %d,
            %d
          ]"""


def _resolve_json(document: tuple) -> str:
    """The json view of resolve: the keys canonical_index, edges (sorted
    [i, j] pairs), log_discrepancies, mld and nodes ({is_central,
    self_intersection}), written from the fixed layout of their rows; the
    indenting encoder would hold one string per token of a graph of up to
    MAX_GRAPH_NODES nodes.  Each list is joined before the next is laid out."""
    graph, report = document
    edges = _json_rows(_EDGE_JSON % edge for edge in graph.edges)
    values = _json_rows(f'    "{format_rational(a)}"' for a in report.log_discrepancies)
    nodes = _json_rows(
        _NODE_JSON % ("true" if i == graph.central_index else "false", e)
        for i, e in enumerate(graph.nodes)
    )
    return (
        f'{{\n  "canonical_index": {report.canonical_index},\n'
        f'  "edges": {edges},\n  "log_discrepancies": {values},\n'
        f'  "mld": "{format_rational(report.mld)}",\n  "nodes": {nodes}\n}}\n'
    )


def _enumerate_json(document: tuple) -> str:
    """The json view of enumerate, and its --json file: the keys N, entries
    and epsilon0, each entry with canonical_index, divisor, fano_angle,
    max_isotropy, mld and seifert {b, branches}, laid out row by row."""
    epsilon0, n_isotropy, entries = document
    rows = _json_rows(
        _ENTRY_JSON % (
            e.canonical_index,
            e.triple.polarization,
            format_rational(e.fano_angle),
            e.max_isotropy,
            format_rational(e.mld),
            e.seifert.b,
            _json_rows((_BRANCH_JSON % branch for branch in e.seifert.branches), 8),
        )
        for e in entries
    )
    return (
        f'{{\n  "N": {n_isotropy},\n  "entries": {rows},\n'
        f'  "epsilon0": "{format_rational(epsilon0)}"\n}}\n'
    )


def _json_rows(rows, indent: int = 2) -> str:
    """A list of non-empty rows already laid out one level deeper than its
    brackets, which close at indent."""
    body = ",\n".join(rows)
    return f"[\n{body}\n{' ' * indent}]" if body else "[]"


def _paper_check_text(document: dict) -> str:
    results = document["checks"]
    passed = sum(c["ok"] for c in results)
    return _text([
        f"PASS {c['id']}" if c["ok"]
        else f"FAIL {c['id']} expected={c['expected']} actual={c['actual']}"
        for c in results
    ] + [f"{passed}/{len(results)} checks passed"])


# subcommand -> (help, {option: add_argument keywords}, document builder,
# {format: view of the document as text}).  --format offers text, json and
# every further view; a format without a view, json for most subcommands,
# prints the document itself through _json_text.
_DIVISOR = {"--divisor": dict(type=_divisor_arg, required=True)}
_COMMANDS = {
    "mld": ("minimal log discrepancy of the cone over a divisor", _DIVISOR,
            _mld, {"text": lambda document: _text([document["mld"]])}),
    "resolve": ("star-shaped resolution graph with log discrepancies", _DIVISOR,
                _resolve, {"text": _resolve_text, "json": _resolve_json, "dot": _dot_text}),
    "fano-angle": ("Fano angle and vertex data of the cone", _DIVISOR,
                   _cone, {"text": _record_text}),
    "isotropy": ("isotropy data of the cone", _DIVISOR, _cone, {"text": _record_text}),
    "veronese": ("cyclic-quotient (Veronese) transform of the cone",
                 {**_DIVISOR, "--m": dict(type=int, required=True)},
                 _veronese, {"text": _record_text}),
    "degenerate": ("central fiber of the vertex plt blow-up degeneration",
                   {**_DIVISOR, "--m": dict(
                       type=int, help="Cartier multiple (default: the Cartier index)")},
                   _degenerate, {"text": _record_text}),
    "enumerate": ("finite catalog of cones for (epsilon0, N)", {
        "--epsilon0": dict(type=_rational_arg, required=True),
        "--isotropy": dict(type=int, required=True),
        "--json": dict(type=Path, dest="json_path",
                       help="also write the catalog JSON to this path"),
        "--dot": dict(type=Path, dest="dot_dir",
                      help="write one resolution DOT file per entry into this directory"),
    }, _enumerate, {"text": _enumerate_text, "json": _enumerate_json}),
    "an-blowups": ("toric plt blow-ups of the A_n singularity", {
        "--n": dict(type=int, required=True),
        "--bound": dict(type=int, help="ray height bound (default 4n)"),
    }, _an_blowups, {"text": _an_blowups_text, "json": _an_blowups_json}),
    "tjurina": ("Tjurina number of an isolated hypersurface singularity", {
        "--poly": dict(type=str),
        "--family-n": dict(type=int),
        "--t": dict(type=_rational_arg, help="family parameter, with --family-n only (default 1)"),
    }, _tjurina, {"text": lambda document: _text([str(document["tjurina"])])}),
    "paper-check": ("run the built-in regression suite", {},
                    _paper_check, {"text": _paper_check_text}),
}


def _json_text(document) -> str:
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _text(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


class UsageError(Exception):
    pass


# Options whose value may begin with "-": a divisor with a negative point, a
# polynomial with a negative leading term, a negative parameter.  argparse
# reads such a token as an unknown option unless it is attached with "=".
_SIGNED_VALUE_OPTIONS = frozenset({"--divisor", "--poly", "--t"})


def _attach_signed_values(argv: list[str]) -> list[str]:
    """Rewrite ``--opt -value`` as ``--opt=-value`` for the options above.
    A following ``--option`` or ``-h`` is left alone, so it is never taken
    as the value."""
    joined: list[str] = []
    for token in argv:
        if (
            joined
            and joined[-1] in _SIGNED_VALUE_OPTIONS
            and token.startswith("-")
            and not token.startswith("--")
            and token != "-h"
        ):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def _error(kind: str, exc: Exception, code: int) -> int:
    record = {"error": kind, "message": str(exc)}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(
            _attach_signed_values(sys.argv[1:] if argv is None else argv)
        )
    except SystemExit as exc:  # usage errors and --help: return, never raise
        return exc.code
    _, _, build, views = _COMMANDS[args.subcommand]
    try:
        document = build(args)
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        return _error(exc.kind, exc, 1)
    except RuntimeError as exc:  # a failed internal self-check
        return _error("INTERNAL", exc, 3)
    except OSError as exc:  # enumerate --dot could not be written
        return _error("IO_ERROR", exc, 1)
    text = views.get(args.format, _json_text)(document)
    json_path = getattr(args, "json_path", None)  # enumerate --json
    try:
        if json_path is not None:
            json_path.write_text(text if args.format == "json" else views["json"](document))
        if args.out is not None:
            args.out.write_text(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        return _error("IO_ERROR", exc, 1)
    # A document that carries a verdict (paper-check) exits 1 when it is false.
    return 1 if isinstance(document, dict) and document.get("ok") is False else 0


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
