"""Output checks that do not rely on the code under test.

Expected answers come from the paper's published results and from counts
and arithmetic made here, from the definitions.  The one exception is the
JSON read-back of `verify all`, which must go through the program's own
`report_from_dict`; the checker receives that function from its caller.
"""

from __future__ import annotations

import csv
import io
import json
from math import isqrt

__all__ = ["Checker", "heronian_counts", "heronian_area"]

FIVE_RECT_PAIRS = frozenset(
    frozenset(pair)
    for pair in (
        ((1, 34), (7, 10)),
        ((1, 38), (6, 13)),
        ((1, 54), (5, 22)),
        ((2, 10), (4, 6)),
        ((2, 13), (3, 10)),
    )
)
TRIANGLE_PAIR = frozenset({(3, 25, 26), (9, 12, 15)})
VERIFY_PAIRS = FIVE_RECT_PAIRS | {TRIANGLE_PAIR}


def heronian_area(a: int, b: int, c: int) -> int | None:
    """The integer area of the triangle with sides a, b, c, or None (Heron's formula)."""
    sixteen_area_sq = (a + b + c) * (-a + b + c) * (a - b + c) * (a + b - c)
    if sixteen_area_sq <= 0:
        return None
    root = isqrt(sixteen_area_sq)
    if root * root != sixteen_area_sq or root % 4:
        return None
    return root // 4


def heronian_counts(max_perimeter: int) -> list[int]:
    """counts[p] = number of integer-sided triangles with integer area and perimeter <= p.

    Scans side triples longest side first, a <= b <= c < a + b.
    """
    per_perimeter = [0] * (max_perimeter + 1)
    for c in range(1, max_perimeter // 2 + 1):
        for b in range(c // 2 + 1, c + 1):
            for a in range(c - b + 1, b + 1):
                if a + b + c > max_perimeter:
                    break
                if heronian_area(a, b, c) is not None:
                    per_perimeter[a + b + c] += 1
    counts, total = [], 0
    for n in per_perimeter:
        total += n
        counts.append(total)
    return counts


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _shape(d: dict) -> tuple[int, ...]:
    """The sorted sides of a serialised shape whose area and perimeter are right."""
    sides = d["sides"]
    if not (all(_is_int(s) and s > 0 for s in sides) and list(sides) == sorted(sides)):
        raise ValueError(f"bad sides {sides}")
    if len(sides) == 2:
        area, perimeter = sides[0] * sides[1], 2 * (sides[0] + sides[1])
    elif len(sides) == 3:
        area, perimeter = heronian_area(*sides), sum(sides)
    else:
        raise ValueError(f"bad side count {sides}")
    if d["area"] != area or d["perimeter"] != perimeter:
        raise ValueError(f"area or perimeter wrong for {sides}")
    return tuple(sides)


def _pairs(report: dict) -> frozenset:
    pairs = [frozenset((_shape(p["first"]), _shape(p["second"]))) for p in report["pairs"]]
    if len(set(pairs)) != len(pairs):
        raise ValueError("duplicate pairs")
    return frozenset(pairs)


class Checker:
    """Decides whether one op's exit code and stdout are a correct answer.

    heronian_counts is the table from heronian_counts(); read_back is
    amipoly.matching.report_from_dict, whose errors count as failures.
    """

    def __init__(self, heronian_counts: list[int], read_back):
        self.heronian_counts = heronian_counts
        self.read_back = read_back

    def __call__(self, op, returncode: int, stdout: bytes) -> str | None:
        """None when the output is correct, else the reason it is not."""
        if returncode != 0:
            return f"exit code {returncode}"
        try:
            text = stdout.decode()
            return getattr(self, "_" + op.kind.replace("-", "_"))(op, text)
        except Exception as exc:  # any parse or read-back error fails the op
            return f"{type(exc).__name__}: {exc}"

    def _rect_enumerate(self, op, text):
        report = json.loads(text)
        if _pairs(report) != FIVE_RECT_PAIRS:
            return "rect enumerate: not the five pairs"
        return None

    def _rect_oracle(self, op, text):
        (n,) = op.params
        report = json.loads(text)
        if report["family"] != "rectangles" or report["bound"] != n:
            return "rect oracle: wrong family or bound"
        if report["shapes_scanned"] != n * (n + 1) // 2:
            return f"rect oracle: shapes_scanned {report['shapes_scanned']} != {n * (n + 1) // 2}"
        if _pairs(report) != FIVE_RECT_PAIRS:
            return "rect oracle: not the five pairs"
        return None

    def _tri_search(self, op, text):
        (p,) = op.params
        report = json.loads(text)
        if report["family"] != "triangles" or report["bound"] != p:
            return "tri search: wrong family or bound"
        if report["shapes_scanned"] != self.heronian_counts[p]:
            return (
                f"tri search: shapes_scanned {report['shapes_scanned']}"
                f" != {self.heronian_counts[p]} heronian triangles"
            )
        if _pairs(report) != {TRIANGLE_PAIR}:
            return "tri search: not the single pair 3x25x26 <-> 9x12x15"
        return None

    def _tri_embed(self, op, text):
        sides = sorted(op.params)
        area = heronian_area(*sides)
        out = json.loads(text)
        if out["status"] != "embedded" or out["sides"] != sides:
            return "tri embed: wrong status or sides"
        if out["area"] != area or out["perimeter"] != sum(sides):
            return "tri embed: wrong area or perimeter"
        vertices = out["vertices"]
        if len(vertices) != 3 or not all(len(v) == 2 and all(map(_is_int, v)) for v in vertices):
            return "tri embed: vertices are not three lattice points"
        (x0, y0), (x1, y1), (x2, y2) = vertices
        squared = sorted(
            (xa - xb) ** 2 + (ya - yb) ** 2
            for (xa, ya), (xb, yb) in ((vertices[0], vertices[1]), (vertices[1], vertices[2]), (vertices[2], vertices[0]))
        )
        if squared != [s * s for s in sides]:
            return "tri embed: vertices do not realise the sides"
        shoelace = abs(x0 * y1 - x1 * y0 + x1 * y2 - x2 * y1 + x2 * y0 - x0 * y2)
        if shoelace != 2 * area:
            return "tri embed: shoelace area disagrees"
        return None

    def _verify(self, op, text):
        fmt = op.args[op.args.index("--format") + 1]
        if fmt == "json":
            report = json.loads(text)
            if self.read_back(report).to_canonical_dict() != report:
                return "verify: read-back changed the report"
            if report["family"] != "verification":
                return "verify: wrong family"
            if not report["checks"] or any(c["status"] != "pass" for c in report["checks"]):
                return "verify: a check did not pass"
            if _pairs(report) != VERIFY_PAIRS:
                return "verify: not the five rectangle pairs and the triangle pair"
        elif fmt == "csv":
            rows = list(csv.reader(io.StringIO(text)))
            if rows[0][:2] != ["check", "status"] or len(rows) < 2:
                return "verify: csv is not a check table"
            if any(row[1] != "pass" for row in rows[1:]):
                return "verify: a check did not pass"
        else:
            lines = text.splitlines()
            if "FAIL" in text or "6 amicable pairs total" not in lines:
                return "verify: table shows a failure or not 6 pairs"
        return None
