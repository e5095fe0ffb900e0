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
result, 3 verification mismatch, 120 stdout could not be written.
"""

import atexit
import os
import sys
from functools import partial

from . import rectangles, triangles
from .lattice import CertificateError
from .matching import BOUNDS, FAMILIES, RECT_MAX_SIDE, TRI_MAX_PERIMETER, ShapeRecord, search_report
from .triangles import TriangleSides

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_RESULT = 2
EXIT_VERIFY_FAILED = 3
EXIT_WRITE_FAILED = 120  # CPython's own code for a failed flush at exit

FORMATS = ("table", "json", "csv")


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


# --- subcommands ------------------------------------------------------------

# Each handler returns (exit code, JSON payload, CSV rows, table lines); main
# writes the one that --format names.


def _search(family: str, bound: int | None = None):
    """The handler of every report command: search_report's report in all three
    forms, exiting 3 with a "verification failed:" line if any check fails."""
    report = search_report(family, bound)
    failing = [name for name, ok in report.checks if not ok]
    if failing:
        print("verification failed: " + ", ".join(failing), file=sys.stderr)
    n_sides, equable, _ = FAMILIES[report.family]
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
    return EXIT_VERIFY_FAILED if failing else EXIT_OK, report.to_canonical_dict(), rows, lines


def cmd_rect_solve(a: int, x: int):
    status, b, y = rectangles.solve_partner(a, x)
    solved = status == "solved"
    payload = {
        "a": a,
        "x": x,
        "status": "solved" if solved else "no-solution",
        "reason": None if solved else status,
        "first": None,
        "second": None,
    }
    line = f"no solution: {status}"
    if solved:
        first = ShapeRecord(rectangles.RectSides(a, b))
        second = ShapeRecord(rectangles.RectSides(x, y))
        payload["b"], payload["y"] = b, y
        payload["first"], payload["second"] = first.to_dict(), second.to_dict()
        line = f"b={b} y={y}  (rectangles {first.shape_id} and {second.shape_id})"
    row = [a, x, payload["status"], payload["reason"] or "", payload.get("b", ""), payload.get("y", "")]
    code = EXIT_OK if solved else EXIT_NO_RESULT
    return code, payload, [["a", "x", "status", "reason", "b", "y"], row], [line]


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
    shape = ShapeRecord(heronian)
    emb = triangles.embed_triangle(heronian)
    vertices, twice, squared = emb.vertices, emb.twice_area(), emb.squared_sides()
    payload = {
        **shape.to_dict(),
        "status": "embedded",
        "vertices": [list(p) for p in vertices],
        "twice_area": twice,
        "squared_sides": squared,
    }
    rows = [
        ["a", "b", "c", "x0", "y0", "x1", "y1", "x2", "y2", "twice_area"],
        [*shape.sides, *(n for p in vertices for n in p), twice],
    ]
    lines = [
        f"triangle: {shape.shape_id}  (area {shape.area}, perimeter {shape.perimeter})",
        "vertices: " + " ".join(f"({x},{y})" for x, y in vertices),
        f"twice area: {twice}",
        "squared sides: " + " ".join(str(s) for s in squared),
    ]
    return EXIT_OK, payload, rows, lines


# --- argument parsing --------------------------------------------------------

# (group, command) -> (handler, flags, number of positional ints); a flag maps to
# its default, or to None when it is required.  Every command also takes --format,
# which main applies.  Only tri embed takes ints, so _parse reads its three as one
# TriangleSides, and a triple that is no triangle is a usage error.  The handler
# gets those sides, then the flag values in table order.  A report command's
# handler is _search with its family, so its one flag, if any, is the bound.
COMMANDS = {
    ("rect", "enumerate"): (partial(_search, "rectangles"), {}, 0),
    ("rect", "solve"): (cmd_rect_solve, {"-a": None, "-x": None}, 0),
    ("rect", "oracle"): (partial(_search, "rectangles"), {"--max-side": RECT_MAX_SIDE}, 0),
    ("tri", "search"): (partial(_search, "triangles"), {"--max-perimeter": TRI_MAX_PERIMETER}, 0),
    ("tri", "embed"): (cmd_tri_embed, {}, 3),
    ("tri", "equable"): (
        partial(_search, "equable-triangles"), {"--max-perimeter": TRI_MAX_PERIMETER}, 0
    ),
    ("equable", "rect"): (partial(_search, "equable-rectangles"), {"--max-side": RECT_MAX_SIDE}, 0),
    ("verify", "all"): (partial(_search, "verification"), {}, 0),
}
# Each int argument's least and greatest (None: no cap); bounds use BOUNDS, so every report reads back.
FLAG_RANGES = {"-a": (1, None), "-x": (1, None), "--max-side": BOUNDS[2],
               "--max-perimeter": BOUNDS[3], "A B C": (1, 10**12)}  # A B C: the longest side
TOKEN_LIMIT = 40  # of a token, the most characters an error line echoes and the most digits _int reads
USAGE = [line.strip() for line in __doc__.splitlines() if line.startswith("    amipoly ")]


def _is_flag(token: str) -> bool:
    """True for "-a" or "--format=json"; false for a value, negative ints included."""
    return token.startswith("-") and not token[1:2].isdigit()


def _shown(token: str) -> str:
    return token if len(token) <= TOKEN_LIMIT else token[:TOKEN_LIMIT] + "..."


def _int(name: str, token: str) -> int:
    """token as an int.  Its digits are counted before int() reads them (int() refuses
    4,301), and more than TOKEN_LIMIT, leading zeros included, are refused by that count."""
    digits = token.strip().lstrip("+-").replace("_", "")
    if len(digits) > TOKEN_LIMIT and digits.isdecimal():
        greatest = FLAG_RANGES[name][1]
        if greatest is None or token.strip().startswith("-"):
            raise ValueError(f"{name} must have at most {TOKEN_LIMIT} digits, got {len(digits)}")
        raise ValueError(f"{name} must be at most {greatest}, got a {len(digits)}-digit int")
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"{name}: invalid int value: {_shown(token)!r}") from None


def _parse(argv: list[str]):
    """The handler argv names, its arguments and the format; raises ValueError on a usage error."""
    if tuple(argv[:2]) not in COMMANDS:
        raise ValueError(f"unknown command: {' '.join(map(_shown, argv[:2])) or '(none)'}")
    handler, flags, n_ints = COMMANDS[tuple(argv[:2])]
    values = {**flags, "--format": "table"}
    ints, tokens = [], iter(argv[2:])
    for token in tokens:
        if n_ints and not _is_flag(token):
            ints.append(token)
            continue
        # Every key of values is a flag, and a token's name is a flag only if
        # the token is one, so a token that is no flag never names a key.
        name, eq, value = token.partition("=")
        if name not in values:
            raise ValueError(f"unrecognized argument: {_shown(token)}")
        value = value if eq else next(tokens, None)
        if value is None or (not eq and _is_flag(value)):
            raise ValueError(f"{name}: expected one value")
        if name != "--format":
            value = _int(name, value)
        elif value not in FORMATS:
            raise ValueError(f"--format must be one of {', '.join(FORMATS)}, got {_shown(value)!r}")
        values[name] = value
    if len(ints) != n_ints:
        raise ValueError(f"'{argv[0]} {argv[1]}' takes {n_ints} int arguments, got {len(ints)}")
    missing = [name for name, value in values.items() if value is None]
    if missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    fmt = values.pop("--format")
    sides = [TriangleSides(*(_int("A B C", token) for token in ints))] if n_ints else []
    for name, value in [*values.items(), *(("A B C", s.c) for s in sides)]:
        least, greatest = FLAG_RANGES[name]
        if value < least:
            rule = "positive" if least == 1 else f"at least {least}"
            raise ValueError(f"{name} must be {rule}, got {value}")
        if greatest is not None and value > greatest:
            raise ValueError(f"{name} must be at most {greatest}, got {value}")
    return handler, [*sides, *values.values()], fmt


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    code, text = EXIT_OK, __doc__
    if "-h" not in argv and "--help" not in argv:
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
            text = _json(payload) + "\n"
        elif fmt == "csv":  # ints and fixed words, none holding a comma, quote or newline
            text = "".join(",".join(map(str, row)) + "\n" for row in rows)
        else:
            text = "\n".join(lines) + "\n"
    if sys.stdout is None:  # fd 1 was closed when the interpreter started
        print("error: cannot write output: stdout is closed", file=sys.stderr)
        return EXIT_WRITE_FAILED
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_WRITE_FAILED  # what stays buffered fails run's flush too, which keeps 120
    return code


def run():
    code = main()
    # CPython's exit, minus module finalisation and __del__ (safe: no thread runs and no file is open).
    atexit._run_exitfuncs()
    try:
        for stream in filter(None, (sys.stdout, sys.stderr)):
            stream.flush()
    except OSError:
        code = EXIT_WRITE_FAILED
    os._exit(code)
