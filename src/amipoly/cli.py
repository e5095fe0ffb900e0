"""amipoly: amicable and equable polygons on the integer lattice.

Usage:
    amipoly rect enumerate [--format F]
    amipoly rect solve -a A -x X [--format F]
    amipoly rect oracle [--max-side N] [--format F]
    amipoly tri search [--max-perimeter N] [--format F]
    amipoly tri embed A B C [--format F]
    amipoly tri equable [--max-perimeter N] [--format F]
    amipoly equable rect [--max-side N] [--format F]
    amipoly verify all [--format F]

F is table (the default), json or csv.  --max-side defaults to 200 and
--max-perimeter to 120.  A flag's value is the next word or follows "="
(--format=json); flags and the ints A B C may come in any order, and a
repeated flag takes its last value.  -h or --help prints this text.

Results go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 usage or input error, 2 well-formed input with a negative mathematical
result, 3 verification mismatch.
"""

import gc
import sys

from . import rectangles, triangles
from .matching import (
    FAMILIES, RECT_MAX_SIDE, TRI_MAX_PERIMETER, VERIFICATION_CHECKS, CertificateError, SearchReport,
    ShapeRecord, assemble_report, rect_count,
)
from .triangles import TriangleSides

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_RESULT = 2
EXIT_VERIFY_FAILED = 3

FORMATS = ("table", "json", "csv")


# --- record builders -------------------------------------------------------


def _rect_pair_records(pairs) -> list[tuple[ShapeRecord, ShapeRecord]]:
    return [
        (ShapeRecord((p.first.short, p.first.long)), ShapeRecord((p.second.short, p.second.long)))
        for p in pairs
    ]


def _tri_pair_records(pairs) -> list[tuple[ShapeRecord, ShapeRecord]]:
    return [(ShapeRecord(a.sides.as_tuple()), ShapeRecord(b.sides.as_tuple())) for a, b in pairs]


# --- output ----------------------------------------------------------------


def _json(value, indent: str = "") -> str:
    """json.dumps(value, indent=2, sort_keys=True) for None, bools, ints, strs, lists
    and dicts, without importing json.  Every str a payload holds is a program
    constant that needs no escaping, so none is escaped."""
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, str):
        return f'"{value}"'
    if isinstance(value, int):
        return str(value)
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f'"{key}": {_json(item, inner)}' for key, item in sorted(value.items())]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    items = [_json(item, inner) for item in value]
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"


def _print_json(payload: dict):
    sys.stdout.write(_json(payload) + "\n")


def _print_csv(rows):
    """Print rows of ints and fixed words, none of which holds a comma, quote or newline."""
    sys.stdout.write("".join(",".join(map(str, row)) + "\n" for row in rows))


def _report_output(report: SearchReport):
    """The JSON payload, CSV rows and table lines of a report."""
    n_sides, equable = FAMILIES[report.family]
    if n_sides is None:
        rows = [["check", "status"]]
        rows += [[name, "pass" if ok else "fail"] for name, ok in report.checks]
    elif equable:
        rows = [["family", *"abc"[:n_sides], "area", "perim"]]
        rows += [[report.family, *s.sides, s.area, s.perimeter] for s in report.shapes]
    else:
        rows = [["family", *"abc"[:n_sides], *"xyz"[:n_sides], "area1", "perim1", "area2", "perim2"]]
        rows += [
            [report.family, *a.sides, *b.sides, a.area, a.perimeter, b.area, b.perimeter]
            for a, b in report.pairs
        ]

    lines = [
        f"family: {report.family}",
        "bound: exact" if report.bound is None else f"bound: {report.bound}",
        f"shapes scanned: {report.shapes_scanned}",
    ]
    if equable:
        lines.append(f"shapes: {len(report.shapes)}")
        if report.shapes:
            lines.append(f"{'sides':<12}{'area':>8}{'perimeter':>12}")
            lines += [f"{s.shape_id:<12}{s.area:>8}{s.perimeter:>12}" for s in report.shapes]
    if not equable:
        lines.append(f"pairs: {len(report.pairs)}")
        if report.pairs:
            lines.append(
                f"{'first':<12}{'second':<12}{'area1':>6}{'perim1':>8}{'area2':>7}{'perim2':>8}"
            )
            lines += [
                f"{a.shape_id:<12}{b.shape_id:<12}"
                f"{a.area:>6}{a.perimeter:>8}{b.area:>7}{b.perimeter:>8}"
                for a, b in report.pairs
            ]
    if report.checks:
        width = max(len(name) for name, _ in report.checks) + 2
        lines += ["", *(f"{name:<{width}}{'pass' if ok else 'FAIL'}" for name, ok in report.checks)]
        lines += ["", f"{len(report.pairs)} amicable pairs total"]
    return report.to_canonical_dict(), rows, lines


# --- subcommands ------------------------------------------------------------

# Each handler returns (exit code, JSON payload, CSV rows, table lines); main
# prints the one that --format names.


def cmd_rect_enumerate():
    pairs = rectangles.enumerate_by_divisors()
    report = assemble_report("rectangles", None, [], _rect_pair_records(pairs))
    return EXIT_OK, *_report_output(report)


def cmd_rect_oracle(max_side: int):
    pairs = rectangles.brute_force_pairs(max_side)
    report = assemble_report("rectangles", max_side, [], _rect_pair_records(pairs))
    return EXIT_OK, *_report_output(report)


def cmd_rect_solve(a: int, x: int):
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
    code = EXIT_OK if sol.solved else EXIT_NO_RESULT
    return code, payload, [["a", "x", "status", "reason", "b", "y"], row], [line]


def cmd_tri_search(max_perimeter: int):
    found = triangles.enumerate_heronian(max_perimeter)
    pairs = triangles.match_amicable_triangles(found)
    report = assemble_report(
        "triangles", max_perimeter, [], _tri_pair_records(pairs), shapes_scanned=len(found)
    )
    return EXIT_OK, *_report_output(report)


def cmd_tri_embed(sides: TriangleSides):
    heronian = triangles.as_heronian(sides)
    if heronian is None:
        sixteen_area_sq = sides.sixteen_area_sq()
        payload = {
            "sides": list(sides.as_tuple()),
            "status": "not-heronian",
            "sixteen_area_sq": sixteen_area_sq,
        }
        header = ["a", "b", "c", "status", "sixteen_area_sq"]
        row = [*sides.as_tuple(), "not-heronian", sixteen_area_sq]
        line = f"{sides}: not heronian (16*Area^2 = {sixteen_area_sq})"
        return EXIT_NO_RESULT, payload, [header, row], [line]
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
    rows = [
        ["a", "b", "c", "x0", "y0", "x1", "y1", "x2", "y2", "twice_area"],
        [*sides.as_tuple(), *(n for p in vertices for n in (p.x, p.y)), twice],
    ]
    lines = [
        f"triangle: {sides}  (area {heronian.area}, perimeter {heronian.perimeter()})",
        "vertices: " + " ".join(f"({p.x},{p.y})" for p in vertices),
        f"twice area: {twice}",
        "squared sides: " + " ".join(str(s) for s in squared),
    ]
    return EXIT_OK, payload, rows, lines


def _equable_report(family: str, bound: int, records: list[ShapeRecord]):
    """Report equable shapes.  Two of them are never amicable: that would take
    equal area = perimeter values, and the closed forms give distinct ones
    (16 and 18 for rectangles; 24, 30, 36, 42 and 60 for triangles)."""
    return EXIT_OK, *_report_output(assemble_report(family, bound, records, []))


def cmd_tri_equable(max_perimeter: int):
    found = triangles.find_equable_triangles(max_perimeter)
    records = [ShapeRecord(h.sides.as_tuple()) for h in found]
    return _equable_report("equable-triangles", max_perimeter, records)


def cmd_equable_rect(max_side: int):
    found = rectangles.equable_rectangles(max_side)
    records = [ShapeRecord((r.short, r.long)) for r in found]
    return _equable_report("equable-rectangles", max_side, records)


# --- verify all -------------------------------------------------------------

THE_FIVE_RECT_PAIRS = (
    ((1, 34), (7, 10)),
    ((1, 38), (6, 13)),
    ((1, 54), (5, 22)),
    ((2, 10), (4, 6)),
    ((2, 13), (3, 10)),
)
THE_TRIANGLE_PAIR = ((3, 25, 26), (9, 12, 15))


def placed_amicably(pairs) -> bool:
    """Each triangle of each pair, placed on the lattice, realises its own squared
    sides, and its shoelace twice-area is twice its partner's perimeter.  An
    embedding certifies the triangle it was handed, not the one asked for, so
    the sides are compared here; the area is the placement's, not Heron's."""
    for pair in pairs:
        for g, h in (pair, pair[::-1]):
            emb = triangles.embed_triangle(g)
            squares = sorted(s * s for s in g.sides.as_tuple())
            if sorted(emb.squared_sides()) != squares or emb.twice_area() != 2 * h.perimeter():
                return False
    return True


def _verification_checks():
    """Run every consistency check; returns (checks, pair_records, shapes_scanned),
    with the checks named by VERIFICATION_CHECKS, in its order."""
    rect_pairs = rectangles.enumerate_by_divisors()
    oracle_pairs = rectangles.brute_force_pairs(RECT_MAX_SIDE)
    rect_records = _rect_pair_records(rect_pairs)
    heronian = triangles.enumerate_heronian(TRI_MAX_PERIMETER)
    tri_pairs = triangles.match_amicable_triangles(heronian)
    tri_records = _tri_pair_records(tri_pairs)

    known_pair = [triangles.as_heronian(TriangleSides.of(*sides)) for sides in THE_TRIANGLE_PAIR]

    # A pair's areas sum to its perimeters, so it always has a perimeter-dominant member.
    rects_in_pairs = {r for p in oracle_pairs for r in (p.first, p.second)}
    dominant = [r for r in rects_in_pairs if rectangles.perimeter_dominant(r)]
    equable_rects = rectangles.equable_rectangles(RECT_MAX_SIDE)
    equable_tris = [h for h in heronian if h.area == h.perimeter()]
    tris_in_pairs = {h for pair in tri_pairs for h in pair}

    results = (
        rect_pairs == oracle_pairs,
        tuple((a.sides, b.sides) for a, b in rect_records) == THE_FIVE_RECT_PAIRS,
        [(a.sides, b.sides) for a, b in tri_records] == [THE_TRIANGLE_PAIR],
        placed_amicably(tri_pairs),
        None not in known_pair and placed_amicably([known_pair]),
        {r.short for r in dominant} <= {1, 2}
        and rectangles.small_side_candidates(RECT_MAX_SIDE) == [1, 2],
        [(r.short, r.long) for r in equable_rects] == [(3, 6), (4, 4)]
        and not rects_in_pairs.intersection(equable_rects),
        equable_tris == triangles.find_equable_triangles(TRI_MAX_PERIMETER)
        and not tris_in_pairs.intersection(equable_tris),
    )
    checks = list(zip(VERIFICATION_CHECKS, results, strict=True))
    return checks, rect_records + tri_records, rect_count(RECT_MAX_SIDE) + len(heronian)


def cmd_verify_all():
    checks, pair_records, scanned = _verification_checks()
    report = assemble_report(
        "verification", None, [], pair_records, checks=tuple(checks), shapes_scanned=scanned
    )
    failing = [name for name, ok in checks if not ok]
    if failing:
        print("verification failed: " + ", ".join(failing), file=sys.stderr)
    return EXIT_VERIFY_FAILED if failing else EXIT_OK, *_report_output(report)


# --- argument parsing --------------------------------------------------------

# (group, command) -> (handler, flags, number of positional ints); a flag maps to
# its default, or to None when it is required.  Every command also takes --format,
# which main applies.  Only tri embed takes ints, so _parse reads its three as one
# TriangleSides, and a triple that is no triangle is a usage error.  The handler
# gets those sides, then the flag values in table order.
COMMANDS = {
    ("rect", "enumerate"): (cmd_rect_enumerate, {}, 0),
    ("rect", "solve"): (cmd_rect_solve, {"-a": None, "-x": None}, 0),
    ("rect", "oracle"): (cmd_rect_oracle, {"--max-side": RECT_MAX_SIDE}, 0),
    ("tri", "search"): (cmd_tri_search, {"--max-perimeter": TRI_MAX_PERIMETER}, 0),
    ("tri", "embed"): (cmd_tri_embed, {}, 3),
    ("tri", "equable"): (cmd_tri_equable, {"--max-perimeter": TRI_MAX_PERIMETER}, 0),
    ("equable", "rect"): (cmd_equable_rect, {"--max-side": RECT_MAX_SIDE}, 0),
    ("verify", "all"): (cmd_verify_all, {}, 0),
}
# The least value of each int flag; the library functions keep their own checks.
LEAST_VALUES = {"-a": 1, "-x": 1, "--max-side": 1, "--max-perimeter": 3}
USAGE = [line.strip() for line in __doc__.splitlines() if line.startswith("    amipoly ")]


def _is_flag(token: str) -> bool:
    """True for "-a" or "--format=json"; false for a value, negative ints included."""
    return token.startswith("-") and not token[1:2].isdigit()


def _int(name: str, token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"{name}: invalid int value: {token!r}") from None


def _parse(argv: list[str]):
    """The handler argv names, its arguments and the format; raises ValueError on a usage error."""
    if tuple(argv[:2]) not in COMMANDS:
        raise ValueError(f"unknown command: {' '.join(argv[:2]) or '(none)'}")
    handler, flags, n_ints = COMMANDS[tuple(argv[:2])]
    values = {**flags, "--format": "table"}
    ints, tokens = [], iter(argv[2:])
    for token in tokens:
        if n_ints and not _is_flag(token):
            ints.append(token)
            continue
        name, eq, value = token.partition("=")
        if not _is_flag(token) or name not in values:
            raise ValueError(f"unrecognized argument: {token}")
        value = value if eq else next(tokens, None)
        if value is None or (not eq and _is_flag(value)):
            raise ValueError(f"{name}: expected one value")
        if name != "--format":
            value = _int(name, value)
        elif value not in FORMATS:
            raise ValueError(f"--format must be one of {', '.join(FORMATS)}, got {value!r}")
        values[name] = value
    if len(ints) != n_ints:
        raise ValueError(f"'{argv[0]} {argv[1]}' takes {n_ints} int arguments, got {len(ints)}")
    missing = [name for name, value in values.items() if value is None]
    if missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    for name, least in LEAST_VALUES.items():
        if values.get(name, least) < least:
            rule = "positive" if least == 1 else f"at least {least}"
            raise ValueError(f"{name} must be {rule}, got {values[name]}")
    fmt = values.pop("--format")
    sides = [TriangleSides.of(*(_int("A B C", token) for token in ints))] if n_ints else []
    return handler, [*sides, *values.values()], fmt


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(__doc__)
        return EXIT_OK
    try:
        handler, args, fmt = _parse(argv)
    except ValueError as exc:
        prefix = " ".join(["amipoly", *argv[:2], ""])
        usage = [line for line in USAGE if line.startswith(prefix)] or USAGE
        print("usage: " + "\n       ".join(usage) + f"\nerror: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        code, payload, rows, lines = handler(*args)
    except CertificateError as exc:  # a result that fails its own certificate
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    if fmt == "json":
        _print_json(payload)
    elif fmt == "csv":
        _print_csv(rows)
    else:
        print("\n".join(lines))
    return code


def run():
    code = main()
    # Move every live object to the permanent generation, so the collections
    # at interpreter shutdown skip what start-up and the imports made.  Unlike
    # os._exit, sys.exit still runs atexit handlers and flushes stdio.
    gc.freeze()
    sys.exit(code)
