"""Command-line interface.

One binary, one subcommand per operation.  Every rational is printed
exactly as p/q (never as a decimal), collections are emitted in sorted
order, and identical invocations produce identical bytes.  Domain errors
exit 1 with a structured {"error": kind, "message": ...} record on stderr;
usage errors exit 2.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import catalog, checks, cones, groebner, resolution, toric_an
from .cones import ConeTriple
from .divisors import QDivisorP1
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

    def add(name: str, help_text: str, formats=("text", "json")) -> argparse.ArgumentParser:
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--format", choices=formats, default="text")
        sub.add_argument("--out", type=Path, default=None,
                         help="write the document to a file instead of stdout")
        return sub

    sub = add("mld", "minimal log discrepancy of the cone over a divisor")
    sub.add_argument("--divisor", type=_divisor_arg, required=True)

    sub = add("resolve", "star-shaped resolution graph with log discrepancies",
              formats=("text", "json", "dot"))
    sub.add_argument("--divisor", type=_divisor_arg, required=True)

    for name, help_text in [
        ("fano-angle", "Fano angle and vertex data of the cone"),
        ("isotropy", "isotropy data of the cone"),
    ]:
        sub = add(name, help_text)
        sub.add_argument("--divisor", type=_divisor_arg, required=True)

    sub = add("veronese", "cyclic-quotient (Veronese) transform of the cone")
    sub.add_argument("--divisor", type=_divisor_arg, required=True)
    sub.add_argument("--m", type=int, required=True)

    sub = add("degenerate", "central fiber of the vertex plt blow-up degeneration")
    sub.add_argument("--divisor", type=_divisor_arg, required=True)
    sub.add_argument("--m", type=int, default=None,
                     help="Cartier multiple (default: the Cartier index)")

    sub = add("enumerate", "finite catalog of cones for (epsilon0, N)")
    sub.add_argument("--epsilon0", type=_rational_arg, required=True)
    sub.add_argument("--isotropy", type=int, required=True)
    sub.add_argument("--json", type=Path, default=None, dest="json_path",
                     help="also write the catalog JSON to this path")
    sub.add_argument("--dot", type=Path, default=None, dest="dot_dir",
                     help="write one resolution DOT file per entry into this directory")

    sub = add("an-blowups", "toric plt blow-ups of the A_n singularity")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--bound", type=int, default=None,
                     help="ray height bound (default 4n)")

    sub = add("tjurina", "Tjurina number of an isolated hypersurface singularity")
    sub.add_argument("--poly", type=str, default=None)
    sub.add_argument("--family-n", type=int, default=None, dest="family_n")
    sub.add_argument("--t", type=_rational_arg, default=Fraction(1))

    add("paper-check", "run the built-in regression suite")
    return parser


def _cone_record(triple: ConeTriple) -> dict:
    return {
        "degree": format_rational(triple.polarization.degree()),
        "fano_angle": format_rational(cones.fano_angle(triple)),
        "vertex_log_discrepancy": format_rational(cones.vertex_log_discrepancy(triple)),
        "cartier_index": triple.polarization.cartier_index(),
        "max_isotropy": cones.max_isotropy(triple),
    }


def _graph_document(divisor: QDivisorP1) -> tuple[resolution.DualGraph, resolution.DiscrepancyReport]:
    graph = resolution.build_graph(divisor.normalize_seifert())
    return graph, resolution.discrepancies(graph)


def _graph_dot(graph: resolution.DualGraph, report: resolution.DiscrepancyReport) -> str:
    lines = ["digraph resolution {"]
    for i, node in enumerate(graph.nodes):
        label = f"E_{i}: {node.self_intersection}, {format_rational(report.log_discrepancies[i])}"
        lines.append(f'  n{i} [label="{label}"];')
    for i, j in sorted(graph.edges):
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _graph_json(graph: resolution.DualGraph, report: resolution.DiscrepancyReport) -> dict:
    return {
        "nodes": [
            {"self_intersection": n.self_intersection, "is_central": n.is_central}
            for n in graph.nodes
        ],
        "edges": [list(edge) for edge in sorted(graph.edges)],
        "log_discrepancies": [format_rational(a) for a in report.log_discrepancies],
        "mld": format_rational(report.mld),
        "canonical_index": report.canonical_index,
    }


def _record_text(record: dict) -> str:
    return "".join(f"{key}: {value}\n" for key, value in record.items())


def _json_text(document) -> str:
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _dispatch(args: argparse.Namespace) -> str:
    if args.subcommand == "mld":
        _, report = _graph_document(args.divisor)
        if args.format == "json":
            return _json_text({"mld": format_rational(report.mld)})
        return format_rational(report.mld) + "\n"

    if args.subcommand == "resolve":
        graph, report = _graph_document(args.divisor)
        if args.format == "dot":
            return _graph_dot(graph, report)
        document = _graph_json(graph, report)
        if args.format == "json":
            return _json_text(document)
        lines = [
            f"E_{i}: self-intersection {node.self_intersection}, "
            f"log discrepancy {format_rational(report.log_discrepancies[i])}"
            + (" (central)" if node.is_central else "")
            for i, node in enumerate(graph.nodes)
        ]
        lines.append(f"mld: {format_rational(report.mld)}")
        lines.append(f"canonical index: {report.canonical_index}")
        return "\n".join(lines) + "\n"

    if args.subcommand in {"fano-angle", "isotropy"}:
        record = _cone_record(ConeTriple(args.divisor))
        if args.format == "json":
            return _json_text(record)
        return _record_text(record)

    if args.subcommand == "veronese":
        transformed = cones.veronese(ConeTriple(args.divisor), args.m)
        record = _cone_record(transformed)
        if args.format == "json":
            return _json_text(record)
        return _record_text(record)

    if args.subcommand == "degenerate":
        divisor = args.divisor
        m = args.m if args.m is not None else divisor.cartier_index()
        qs = [q for _, _, q in divisor.fractional_profile()]
        fiber = cones.central_fiber_of_plt_blowup(qs, divisor.degree(), m)
        record = _cone_record(fiber.quotient)
        if args.format == "json":
            return _json_text(record)
        return _record_text(record)

    if args.subcommand == "enumerate":
        entries = catalog.enumerate_catalog(args.epsilon0, args.isotropy)
        json_document = catalog.catalog_json_text(args.epsilon0, args.isotropy, entries)
        if args.json_path is not None:
            args.json_path.write_text(json_document)
        if args.dot_dir is not None:
            args.dot_dir.mkdir(parents=True, exist_ok=True)
            for index, entry in enumerate(entries):
                graph = resolution.build_graph(entry.seifert)
                report = resolution.discrepancies(graph)
                path = args.dot_dir / f"entry_{index:03d}.dot"
                path.write_text(_graph_dot(graph, report))
        if args.format == "json":
            return json_document
        lines = [
            f"{entry.triple.polarization}  mld={format_rational(entry.mld)}"
            f"  r={format_rational(entry.fano_angle)}"
            f"  isotropy={entry.max_isotropy}  index={entry.canonical_index}"
            for entry in entries
        ]
        lines.append(f"{len(entries)} entries")
        return "\n".join(lines) + "\n"

    if args.subcommand == "an-blowups":
        bound = args.bound if args.bound is not None else 4 * args.n
        records = toric_an.enumerate_plt_blowups(args.n, bound)
        if args.format == "json":
            rows = [
                {
                    "ray": list(record.ray),
                    "a": record.a,
                    "b": record.b,
                    "diff": [format_rational(c) for c in record.diff],
                    "threshold": format_rational(record.delta_threshold),
                }
                for record in records
            ]
            return _json_text(rows)
        lines = [
            f"ray=({record.ray[0]},{record.ray[1]})  a={record.a}  b={record.b}"
            f"  diff=({format_rational(record.diff[0])},{format_rational(record.diff[1])})"
            f"  threshold={format_rational(record.delta_threshold)}"
            for record in records
        ]
        lines.append(f"{len(records)} rays")
        return "\n".join(lines) + "\n"

    if args.subcommand == "tjurina":
        value = _tjurina_value(args)
        if args.format == "json":
            return _json_text({"tjurina": value})
        return f"{value}\n"

    if args.subcommand == "paper-check":
        results = checks.run_paper_checks()
        args.any_check_failed = any(not r.ok for r in results)
        if args.format == "json":
            document = {
                "ok": all(r.ok for r in results),
                "checks": [
                    {
                        "id": r.check_id,
                        "ok": r.ok,
                        "expected": r.expected,
                        "actual": r.actual,
                    }
                    for r in results
                ],
            }
            return _json_text(document)
        lines = []
        for r in results:
            if r.ok:
                lines.append(f"PASS {r.check_id}")
            else:
                lines.append(
                    f"FAIL {r.check_id} expected={r.expected} actual={r.actual}"
                )
        failures = sum(1 for r in results if not r.ok)
        lines.append(f"{len(results) - failures}/{len(results)} checks passed")
        return "\n".join(lines) + "\n"

    raise AssertionError(f"unhandled subcommand {args.subcommand}")


def _tjurina_value(args: argparse.Namespace) -> int:
    if (args.poly is None) == (args.family_n is None):
        raise UsageError("tjurina needs exactly one of --poly or --family-n")
    if args.poly is not None:
        try:
            poly = groebner.parse_polynomial(args.poly)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        return groebner.tjurina(poly)
    if args.family_n < 4:
        raise UsageError("--family-n must be >= 4")
    return groebner.tjurina(groebner.family_polynomial(args.family_n, args.t))


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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(
        _attach_signed_values(sys.argv[1:] if argv is None else argv)
    )
    args.any_check_failed = False
    try:
        document = _dispatch(args)
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        structured = {"error": exc.kind, "message": str(exc)}
        print(json.dumps(structured, sort_keys=True), file=sys.stderr)
        return 1
    out = getattr(args, "out", None)
    if out is not None:
        out.write_text(document)
    else:
        sys.stdout.write(document)
    return 1 if args.any_check_failed else 0


def run() -> None:
    raise SystemExit(main())
