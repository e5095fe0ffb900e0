"""Command line front end.

Usage:
    amipoly rect enumerate [--format json]
    amipoly rect solve -a 1 -x 7
    amipoly rect oracle [--max-side 200]
    amipoly tri search [--max-perimeter 120]
    amipoly tri embed 3 25 26
    amipoly tri equable [--max-perimeter 120]
    amipoly equable rect [--max-side 200]
    amipoly verify all [--format table]

Results go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 usage or input error, 2 well-formed input with a negative mathematical
result, 3 verification mismatch.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import matching, rectangles, triangles
from .matching import SearchReport, ShapeRecord, assemble_report, rect_count
from .triangles import TriangleSides

__all__ = ["RECT_MAX_SIDE", "TRI_MAX_PERIMETER", "main", "run"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_RESULT = 2
EXIT_VERIFY_FAILED = 3

FORMATS = ("table", "json", "csv")


# The one place default search bounds live; flags override per run.
RECT_MAX_SIDE = 200
TRI_MAX_PERIMETER = 120


# --- record builders -------------------------------------------------------


def _rect_pair_records(pairs) -> list[tuple[ShapeRecord, ShapeRecord]]:
    return [
        (ShapeRecord((p.first.short, p.first.long)), ShapeRecord((p.second.short, p.second.long)))
        for p in pairs
    ]


def _tri_pair_records(pairs) -> list[tuple[ShapeRecord, ShapeRecord]]:
    return [(ShapeRecord(a.sides.as_tuple()), ShapeRecord(b.sides.as_tuple())) for a, b in pairs]


# --- output ----------------------------------------------------------------


def _print_json(payload: dict):
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _csv_writer():
    buf = io.StringIO()
    return buf, csv.writer(buf, lineterminator="\n")


def _emit_single(fmt: str, payload: dict, header: list, row: list, lines: list[str]):
    """Print one result: its JSON payload, a CSV header and row, or table lines."""
    if fmt == "json":
        _print_json(payload)
    elif fmt == "csv":
        buf, writer = _csv_writer()
        writer.writerows([header, row])
        sys.stdout.write(buf.getvalue())
    else:
        print("\n".join(lines))


def _emit_report(report: SearchReport, fmt: str):
    if fmt == "json":
        _print_json(report.to_canonical_dict())
        return
    if fmt == "csv":
        buf, writer = _csv_writer()
        if report.family == "verification":
            writer.writerow(["check", "status"])
            for name, ok in report.checks:
                writer.writerow([name, "pass" if ok else "fail"])
        elif report.family.startswith("equable"):
            side_cols = ["a", "b", "c"][: 3 if report.family.endswith("triangles") else 2]
            writer.writerow(["family", *side_cols, "area", "perim"])
            for s in report.shapes:
                writer.writerow([report.family, *s.sides, s.area, s.perimeter])
        else:
            tri = report.family == "triangles"
            first_cols = ["a", "b", "c"] if tri else ["a", "b"]
            second_cols = ["x", "y", "z"] if tri else ["x", "y"]
            writer.writerow(
                ["family", *first_cols, *second_cols, "area1", "perim1", "area2", "perim2"]
            )
            for a, b in report.pairs:
                writer.writerow(
                    [report.family, *a.sides, *b.sides, a.area, a.perimeter, b.area, b.perimeter]
                )
        sys.stdout.write(buf.getvalue())
        return

    # human table
    print(f"family: {report.family}")
    print("bound: exact" if report.bound is None else f"bound: {report.bound}")
    print(f"shapes scanned: {report.shapes_scanned}")
    if report.family.startswith("equable"):
        print(f"shapes: {len(report.shapes)}")
        if report.shapes:
            print(f"{'sides':<12}{'area':>8}{'perimeter':>12}")
            for s in report.shapes:
                print(f"{s.shape_id:<12}{s.area:>8}{s.perimeter:>12}")
    if report.pairs or not report.family.startswith("equable"):
        print(f"pairs: {len(report.pairs)}")
        if report.pairs:
            print(f"{'first':<12}{'second':<12}{'area1':>6}{'perim1':>8}{'area2':>7}{'perim2':>8}")
            for a, b in report.pairs:
                print(
                    f"{a.shape_id:<12}{b.shape_id:<12}"
                    f"{a.area:>6}{a.perimeter:>8}{b.area:>7}{b.perimeter:>8}"
                )
    if report.checks:
        print()
        width = max(len(name) for name, _ in report.checks) + 2
        for name, ok in report.checks:
            print(f"{name:<{width}}{'pass' if ok else 'FAIL'}")
        print()
        print(f"{len(report.pairs)} amicable pairs total")


# --- subcommands ------------------------------------------------------------


def cmd_rect_enumerate(fmt: str) -> int:
    pairs = rectangles.enumerate_by_divisors()
    report = assemble_report("rectangles", None, [], _rect_pair_records(pairs))
    _emit_report(report, fmt)
    return EXIT_OK


def cmd_rect_oracle(max_side: int, fmt: str) -> int:
    if max_side < 1:
        print(f"error: --max-side must be positive, got {max_side}", file=sys.stderr)
        return EXIT_USAGE
    pairs = rectangles.brute_force_pairs(max_side)
    report = assemble_report("rectangles", max_side, [], _rect_pair_records(pairs))
    _emit_report(report, fmt)
    return EXIT_OK


def cmd_rect_solve(a: int, x: int, fmt: str) -> int:
    if a < 1 or x < 1:
        print(f"error: -a and -x must be positive integers, got a={a}, x={x}", file=sys.stderr)
        return EXIT_USAGE
    sol = rectangles.solve_partner(a, x)
    payload = {
        "a": a,
        "x": x,
        "status": "solved" if sol.solved else "no-solution",
        "reason": None if sol.solved else sol.status,
        "first": None,
        "second": None,
    }
    line = f"no solution: {sol.status}"
    if sol.solved:
        first = ShapeRecord(tuple(sorted((a, sol.b))))
        second = ShapeRecord(tuple(sorted((x, sol.y))))
        payload["b"], payload["y"] = sol.b, sol.y
        payload["first"], payload["second"] = first.to_dict(), second.to_dict()
        line = f"b={sol.b} y={sol.y}  (rectangles {first.shape_id} and {second.shape_id})"
    row = [a, x, payload["status"], payload["reason"] or "", payload.get("b", ""), payload.get("y", "")]
    _emit_single(fmt, payload, ["a", "x", "status", "reason", "b", "y"], row, [line])
    return EXIT_OK if sol.solved else EXIT_NO_RESULT


def cmd_tri_search(max_perimeter: int, fmt: str) -> int:
    if max_perimeter < 3:
        print(f"error: --max-perimeter must be at least 3, got {max_perimeter}", file=sys.stderr)
        return EXIT_USAGE
    found = triangles.enumerate_heronian(max_perimeter)
    pairs = triangles.match_amicable_triangles(found)
    report = assemble_report(
        "triangles", max_perimeter, [], _tri_pair_records(pairs), shapes_scanned=len(found)
    )
    _emit_report(report, fmt)
    return EXIT_OK


def cmd_tri_embed(a: int, b: int, c: int, fmt: str) -> int:
    try:
        sides = TriangleSides.of(a, b, c)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    heronian = triangles.as_heronian(sides)
    if heronian is None:
        sixteen_area_sq = sides.sixteen_area_sq()
        payload = {
            "sides": list(sides.as_tuple()),
            "status": "not-heronian",
            "sixteen_area_sq": sixteen_area_sq,
        }
        _emit_single(
            fmt, payload, ["a", "b", "c", "status", "sixteen_area_sq"],
            [*sides.as_tuple(), "not-heronian", sixteen_area_sq],
            [f"{sides}: not heronian (16*Area^2 = {sixteen_area_sq})"],
        )
        return EXIT_NO_RESULT
    emb = triangles.embed_triangle(heronian)
    vertices, twice, squared = emb.vertices(), emb.twice_area(), emb.squared_sides()
    payload = {
        "sides": list(sides.as_tuple()),
        "status": "embedded",
        "area": heronian.area,
        "perimeter": heronian.perimeter(),
        "vertices": [[p.x, p.y] for p in vertices],
        "twice_area": twice,
        "squared_sides": squared,
    }
    _emit_single(
        fmt, payload, ["a", "b", "c", "x0", "y0", "x1", "y1", "x2", "y2", "twice_area"],
        [*sides.as_tuple(), *(n for p in vertices for n in (p.x, p.y)), twice],
        [
            f"triangle: {sides}  (area {heronian.area}, perimeter {heronian.perimeter()})",
            "vertices: " + " ".join(f"({p.x},{p.y})" for p in vertices),
            f"twice area: {twice}",
            "squared sides: " + " ".join(str(s) for s in squared),
        ],
    )
    return EXIT_OK


def _equable_report(family: str, bound: int, records: list[ShapeRecord], fmt: str) -> int:
    """Report equable shapes and the amicable pairs among them."""
    pairs = matching.match_amicable(records)
    _emit_report(assemble_report(family, bound, records, pairs), fmt)
    return EXIT_OK


def cmd_tri_equable(max_perimeter: int, fmt: str) -> int:
    if max_perimeter < 3:
        print(f"error: --max-perimeter must be at least 3, got {max_perimeter}", file=sys.stderr)
        return EXIT_USAGE
    found = triangles.find_equable_triangles(max_perimeter)
    records = [ShapeRecord(h.sides.as_tuple()) for h in found]
    return _equable_report("equable-triangles", max_perimeter, records, fmt)


def cmd_equable_rect(max_side: int, fmt: str) -> int:
    if max_side < 1:
        print(f"error: --max-side must be positive, got {max_side}", file=sys.stderr)
        return EXIT_USAGE
    found = rectangles.equable_rectangles(max_side)
    records = [ShapeRecord((r.short, r.long)) for r in found]
    return _equable_report("equable-rectangles", max_side, records, fmt)


# --- verify all -------------------------------------------------------------

THE_FIVE_RECT_PAIRS = (
    ((1, 34), (7, 10)),
    ((1, 38), (6, 13)),
    ((1, 54), (5, 22)),
    ((2, 10), (4, 6)),
    ((2, 13), (3, 10)),
)
THE_TRIANGLE_PAIR = ((3, 25, 26), (9, 12, 15))


def _verification_checks():
    """Run every consistency check; returns (checks, pair_records, shapes_scanned)."""
    checks: list[tuple[str, bool]] = []

    rect_pairs = rectangles.enumerate_by_divisors()
    oracle_pairs = rectangles.brute_force_pairs(RECT_MAX_SIDE)
    checks.append(("rect-divisor-enumeration-matches-oracle", rect_pairs == oracle_pairs))
    as_tuples = [
        ((p.first.short, p.first.long), (p.second.short, p.second.long)) for p in rect_pairs
    ]
    checks.append(("rect-pairs-are-the-known-five", tuple(as_tuples) == THE_FIVE_RECT_PAIRS))

    heronian = triangles.enumerate_heronian(TRI_MAX_PERIMETER)
    tri_pairs = triangles.match_amicable_triangles(heronian)
    tri_tuples = [(a.sides.as_tuple(), b.sides.as_tuple()) for a, b in tri_pairs]
    checks.append(("tri-search-finds-single-known-pair", tri_tuples == [THE_TRIANGLE_PAIR]))
    checks.append(
        (
            "tri-pair-cross-equalities",
            all(
                a.area == b.perimeter() and b.area == a.perimeter()
                for a, b in tri_pairs
            ),
        )
    )

    embed_ok = True
    for sides, want_doubled in (((9, 12, 15), 108), ((3, 25, 26), 72)):
        h = triangles.as_heronian(TriangleSides.of(*sides))
        if h is None:
            embed_ok = False
            continue
        emb = triangles.embed_triangle(h)
        want_squares = sorted(s * s for s in sides)
        embed_ok = embed_ok and emb.twice_area() == want_doubled
        embed_ok = embed_ok and sorted(emb.squared_sides()) == want_squares
    checks.append(("embeddings-certify-both-triangles", embed_ok))

    dominant_ok = True
    for p in oracle_pairs:
        dominant = [r for r in (p.first, p.second) if rectangles.perimeter_dominant(r)]
        dominant_ok &= bool(dominant) and all(r.short in (1, 2) for r in dominant)
    candidates = rectangles.small_side_candidates(RECT_MAX_SIDE)
    checks.append(("dominant-member-short-side-is-1-or-2", dominant_ok and candidates == [1, 2]))

    equable_rects = rectangles.equable_rectangles(RECT_MAX_SIDE)
    rects_in_pairs = {r for p in oracle_pairs for r in (p.first, p.second)}
    checks.append(
        (
            "equable-rectangles-recovered-and-excluded",
            [(r.short, r.long) for r in equable_rects] == [(3, 6), (4, 4)]
            and not rects_in_pairs.intersection(equable_rects),
        )
    )

    equable_tris = [h for h in heronian if h.area == h.perimeter()]
    tris_in_pairs = {h for pair in tri_pairs for h in pair}
    checks.append(
        (
            "equable-triangles-recovered-and-excluded",
            len(equable_tris) == 5
            and all(h.area == h.perimeter() for h in equable_tris)
            and not tris_in_pairs.intersection(equable_tris),
        )
    )

    pair_records = _rect_pair_records(rect_pairs) + _tri_pair_records(tri_pairs)
    return checks, pair_records, rect_count(RECT_MAX_SIDE) + len(heronian)


def cmd_verify_all(fmt: str) -> int:
    checks, pair_records, scanned = _verification_checks()
    report = assemble_report(
        "verification", None, [], pair_records, checks=tuple(checks), shapes_scanned=scanned
    )
    _emit_report(report, fmt)
    failing = [name for name, ok in checks if not ok]
    if failing:
        print("verification failed: " + ", ".join(failing), file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


# --- argument parsing --------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_format(parser):
    parser.add_argument("--format", choices=FORMATS, default="table")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="amipoly", description=__doc__.splitlines()[0])
    groups = parser.add_subparsers(dest="group", required=True, parser_class=_Parser)

    rect = groups.add_parser("rect", help="amicable rectangle commands")
    rect_cmds = rect.add_subparsers(dest="command", required=True, parser_class=_Parser)
    p = rect_cmds.add_parser("enumerate", help="the complete list of amicable pairs")
    _add_format(p)
    p = rect_cmds.add_parser("solve", help="partner sides for given short sides a and x")
    p.add_argument("-a", type=int, required=True)
    p.add_argument("-x", type=int, required=True)
    _add_format(p)
    p = rect_cmds.add_parser("oracle", help="exhaustive scan up to a side bound")
    p.add_argument("--max-side", type=int, default=RECT_MAX_SIDE)
    _add_format(p)

    tri = groups.add_parser("tri", help="amicable triangle commands")
    tri_cmds = tri.add_subparsers(dest="command", required=True, parser_class=_Parser)
    p = tri_cmds.add_parser("search", help="amicable pairs up to a perimeter bound")
    p.add_argument("--max-perimeter", type=int, default=TRI_MAX_PERIMETER)
    _add_format(p)
    p = tri_cmds.add_parser("embed", help="lattice placement of a heronian triangle")
    p.add_argument("sides", type=int, nargs=3, metavar=("A", "B", "C"))
    _add_format(p)
    p = tri_cmds.add_parser("equable", help="triangles with area equal to perimeter")
    p.add_argument("--max-perimeter", type=int, default=TRI_MAX_PERIMETER)
    _add_format(p)

    equable = groups.add_parser("equable", help="equable shape listings")
    eq_cmds = equable.add_subparsers(dest="command", required=True, parser_class=_Parser)
    p = eq_cmds.add_parser("rect", help="rectangles with area equal to perimeter")
    p.add_argument("--max-side", type=int, default=RECT_MAX_SIDE)
    _add_format(p)

    verify = groups.add_parser("verify", help="consolidated verification")
    verify_cmds = verify.add_subparsers(dest="command", required=True, parser_class=_Parser)
    p = verify_cmds.add_parser("all", help="run every check and report pass/fail")
    _add_format(p)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    fmt = getattr(args, "format", "table")
    if args.group == "rect":
        if args.command == "enumerate":
            return cmd_rect_enumerate(fmt)
        if args.command == "solve":
            return cmd_rect_solve(args.a, args.x, fmt)
        return cmd_rect_oracle(args.max_side, fmt)
    if args.group == "tri":
        if args.command == "search":
            return cmd_tri_search(args.max_perimeter, fmt)
        if args.command == "embed":
            return cmd_tri_embed(*args.sides, fmt)
        return cmd_tri_equable(args.max_perimeter, fmt)
    if args.group == "equable":
        return cmd_equable_rect(args.max_side, fmt)
    return cmd_verify_all(fmt)


def run():
    sys.exit(main())
