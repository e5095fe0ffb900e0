"""Shape-agnostic amicability matching and certificate-carrying reports.

Shapes of any family reduce to (area, perimeter, shape_id) fingerprints;
amicable pairs come out of a keyed join instead of a quadratic scan.
A ShapeRecord works out its area and perimeter from its sides, reports
re-verify every pair and listed shape when assembled, and a report read
back from JSON is reassembled and must serialize to exactly the input, so
serialized results are never trusted blindly.
"""

from .lattice import Record
from .rectangles import RectSides
from .triangles import TriangleSides, as_heronian

__all__ = [
    "CertificateError",
    "FAMILIES",
    "VERIFICATION_CHECKS",
    "ShapeFingerprint",
    "ShapeRecord",
    "match_amicable",
    "SearchReport",
    "rect_count",
    "assemble_report",
    "report_from_dict",
]

# Each family -> (the side count of every shape its report lists, whether those
# shapes are equable).  A verification report lists rectangle and triangle pairs.
FAMILIES = {
    "rectangles": (2, False),
    "triangles": (3, False),
    "equable-rectangles": (2, True),
    "equable-triangles": (3, True),
    "verification": (None, False),
}


# The checks a "verification" report carries, in order; no other family carries any.
VERIFICATION_CHECKS = (
    "rect-divisor-enumeration-matches-oracle",
    "rect-pairs-are-the-known-five",
    "tri-search-finds-single-known-pair",
    "tri-pair-cross-equalities",
    "embeddings-certify-both-triangles",
    "dominant-member-short-side-is-1-or-2",
    "equable-rectangles-recovered-and-excluded",
    "equable-triangles-recovered-and-excluded",
)


class CertificateError(ValueError):
    """A pair or shape certificate did not hold when re-checked."""


class ShapeFingerprint(Record):
    """The exact invariants a shape contributes to amicability matching."""

    __slots__ = ("area", "perimeter", "shape_id")

    def __init__(self, area: int, perimeter: int, shape_id: str):
        self._store("area", area)
        self._store("perimeter", perimeter)
        self._store("shape_id", shape_id)


class ShapeRecord(Record):
    """A shape given by its canonical sorted sides, with the area and perimeter they give.

    Two sides make a rectangle and three a heronian triangle; every side
    must be an int, so 34.0, True and "34" are not sides.  Any other sides
    raise CertificateError, so no record disagrees with its sides.
    """

    __slots__ = ("sides", "area", "perimeter")

    def __init__(self, sides: tuple[int, ...]):
        try:
            if any(type(s) is not int for s in sides):
                raise ValueError("every side must be an int")
            if len(sides) == 2:
                rect = RectSides(*sides)
                area, perimeter = rect.area(), rect.perimeter()
            elif len(sides) == 3:
                tri = as_heronian(TriangleSides(*sides))
                if tri is None:
                    raise ValueError("the triangle is not heronian")
                area, perimeter = tri.area, tri.perimeter()
            else:
                raise ValueError("a shape has 2 or 3 sides")
        except ValueError as exc:
            raise CertificateError(f"{sides!r} is not a shape: {exc}") from None
        self._store("sides", tuple(sides))
        self._store("area", area)
        self._store("perimeter", perimeter)

    def __reduce__(self):
        return ShapeRecord, (self.sides,)

    @property
    def shape_id(self) -> str:
        return "x".join(str(s) for s in self.sides)

    def to_dict(self) -> dict:
        return {"sides": list(self.sides), "area": self.area, "perimeter": self.perimeter}


def _check_shape(rec: ShapeRecord, family: str, bound: int | None):
    """rec may be listed in a family's report within the bound.

    FAMILIES fixes the side count and whether area = perimeter; a non-null
    bound holds a rectangle's long side or a triangle's perimeter.
    """
    n_sides, equable = FAMILIES[family]
    if n_sides is not None and len(rec.sides) != n_sides:
        raise CertificateError(f"a {family} report cannot list {rec.shape_id}")
    if equable and rec.area != rec.perimeter:
        raise CertificateError(f"{rec.shape_id} is claimed equable but is not")
    size = rec.sides[-1] if len(rec.sides) == 2 else rec.perimeter
    if bound is not None and size > bound:
        raise CertificateError(f"{rec.shape_id} lies beyond the bound {bound}")


def match_amicable(
    shapes: list[ShapeFingerprint],
) -> list[tuple[ShapeFingerprint, ShapeFingerprint]]:
    """All unordered pairs {s, t} with s.area = t.perimeter and t.area = s.perimeter.

    Implemented as a join keyed on (area, perimeter) probed with the
    reversed key.  Distinct shape_ids are required, so an equable shape
    (area = perimeter) never pairs with itself, while two different equable
    shapes with the same value do pair.  A ShapeRecord carries the same
    three fields and is matched as it is.
    """
    seen_ids = set()
    for s in shapes:
        if s.shape_id in seen_ids:
            raise ValueError(f"duplicate shape_id: {s.shape_id}")
        seen_ids.add(s.shape_id)
    by_key: dict[tuple[int, int], list[ShapeFingerprint]] = {}
    for s in shapes:
        by_key.setdefault((s.area, s.perimeter), []).append(s)
    pairs = set()
    for s in shapes:
        for t in by_key.get((s.perimeter, s.area), ()):
            if t.shape_id == s.shape_id:
                continue
            pairs.add((s, t) if s.shape_id < t.shape_id else (t, s))
    return sorted(pairs, key=lambda p: (p[0].shape_id, p[1].shape_id))


class SearchReport(Record):
    """Deterministic, certificate-carrying result of one search run.

    Identical inputs serialize byte-identically.
    """

    __slots__ = ("family", "bound", "shapes_scanned", "pairs", "shapes", "checks")

    def __init__(
        self,
        family: str,
        bound: int | None,
        shapes_scanned: int,
        pairs: tuple[tuple[ShapeRecord, ShapeRecord], ...],
        shapes: tuple[ShapeRecord, ...] = (),
        checks: tuple[tuple[str, bool], ...] = (),
    ):
        self._store("family", family)
        self._store("bound", bound)
        self._store("shapes_scanned", shapes_scanned)
        self._store("pairs", pairs)
        self._store("shapes", shapes)
        self._store("checks", checks)

    def to_canonical_dict(self) -> dict:
        out = {
            "family": self.family,
            "bound": self.bound,
            "shapes_scanned": self.shapes_scanned,
            "pairs": [
                {"first": a.to_dict(), "second": b.to_dict()} for a, b in self.pairs
            ],
            "checks": [
                {"name": name, "status": "pass" if ok else "fail"}
                for name, ok in self.checks
            ],
        }
        if self.shapes:
            out["shapes"] = [s.to_dict() for s in self.shapes]
        return out


def rect_count(max_side: int) -> int:
    """Canonical rectangles with both sides <= max_side."""
    return max_side * (max_side + 1) // 2


def assemble_report(
    family: str,
    bound: int | None,
    shapes: list[ShapeRecord],
    pairs: list[tuple[ShapeRecord, ShapeRecord]],
    checks: tuple[tuple[str, bool], ...] = (),
    shapes_scanned: int | None = None,
) -> SearchReport:
    """Build a SearchReport, re-verifying every certificate.

    Shape lists are retained in the report only for the equable families,
    where the shapes themselves are the result; pair searches keep just the
    scan count.  A rectangles report scans every canonical rectangle within
    its bound (none for the exact enumeration) and an equable report its own
    shapes, and a shapes_scanned that disagrees is rejected; for triangles
    and verification reports the count is shapes_scanned, or len(shapes)
    when that is None.  A pair that fails its cross equalities, a repeated
    pair or kept shape, a shape with the wrong side count for the family, a
    non-equable shape in an equable family, a shape beyond a non-null bound,
    a bound below 1 or a bound on a verification report, or checks other
    than VERIFICATION_CHECKS on a verification report (none on any other
    family) aborts assembly.
    """
    if family not in FAMILIES:
        raise CertificateError(f"unknown family: {family!r}")
    equable = FAMILIES[family][1]
    if tuple(name for name, _ in checks) != (VERIFICATION_CHECKS if family == "verification" else ()):
        raise CertificateError(f"a {family} report does not carry its fixed list of checks")
    # A verification report mixes rectangles and triangles, whose bounds differ.
    if bound is not None and (bound < 1 or family == "verification"):
        raise CertificateError(f"a {family} report cannot have the bound {bound}")
    if family == "rectangles":
        scanned = 0 if bound is None else rect_count(bound)
    elif equable:
        scanned = len(shapes)
    else:
        # a heronian count, which only a new enumeration could check
        scanned = len(shapes) if shapes_scanned is None else shapes_scanned
    if shapes_scanned is not None and shapes_scanned != scanned:
        raise CertificateError(f"a {family} report scans {scanned} shapes, not {shapes_scanned}")
    for rec in shapes:
        _check_shape(rec, family, bound)
    normalized = []
    for a, b in pairs:
        first, second = sorted((a, b), key=lambda r: r.sides)
        _check_shape(first, family, bound)
        _check_shape(second, family, bound)
        if first.sides == second.sides:
            raise CertificateError(f"self pair: {first.shape_id}")
        if first.area != second.perimeter or second.area != first.perimeter:
            raise CertificateError(f"cross equalities fail: {first.shape_id} vs {second.shape_id}")
        normalized.append((first, second))
    normalized.sort(key=lambda p: (p[0].sides, p[1].sides))
    keep_shapes = tuple(sorted(shapes, key=lambda r: r.sides)) if equable else ()
    if len(set(normalized)) < len(normalized) or len(set(keep_shapes)) < len(keep_shapes):
        raise CertificateError(f"repeated pair or shape in a {family} report")
    return SearchReport(
        family=family,
        bound=bound,
        shapes_scanned=scanned,
        pairs=tuple(normalized),
        shapes=keep_shapes,
        checks=tuple(checks),
    )


def _exact_int(value, what: str) -> int:
    """value itself when it is an int; bools, floats and strings are not read as one."""
    if type(value) is not int:
        raise CertificateError(f"{what} must be an integer, got {value!r}")
    return value


def _record_from_dict(d: dict) -> ShapeRecord:
    """A listed shape, built from its sides; the area and perimeter stated must be its own."""
    rec = ShapeRecord(tuple(d["sides"]))
    area, perimeter = _exact_int(d["area"], "area"), _exact_int(d["perimeter"], "perimeter")
    if area != rec.area or perimeter != rec.perimeter:
        raise CertificateError(f"stated area or perimeter is not that of {rec.shape_id}: {d}")
    return rec


def report_from_dict(d: dict) -> SearchReport:
    """Rebuild a SearchReport from its canonical dictionary by reassembling it.

    The records are passed through assemble_report, which re-verifies every
    certificate, and the result must serialize back to exactly d: canonical
    order, no repeats, no unknown keys.  Every number must already be an
    int; a value that equals one, such as 34.0 or True, is rejected.  Any
    failure, malformed structure included, raises CertificateError.
    """
    try:
        family = d["family"]
        bound = d["bound"]
        shapes_scanned = _exact_int(d["shapes_scanned"], "shapes_scanned")
        if shapes_scanned < 0:
            raise CertificateError(f"shapes_scanned must be non-negative, got {shapes_scanned}")
        report = assemble_report(
            family,
            None if bound is None else _exact_int(bound, "bound"),
            [_record_from_dict(entry) for entry in d.get("shapes", ())],
            [
                (_record_from_dict(pair["first"]), _record_from_dict(pair["second"]))
                for pair in d["pairs"]
            ],
            checks=[(entry["name"], entry["status"] == "pass") for entry in d["checks"]],
            shapes_scanned=shapes_scanned,
        )
    except (KeyError, TypeError, AttributeError, IndexError) as exc:
        raise CertificateError(f"malformed report: {exc!r}") from exc
    if report.to_canonical_dict() != d:
        raise CertificateError("report differs from the one assemble_report builds from it")
    return report
