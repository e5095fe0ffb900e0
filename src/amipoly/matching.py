"""Shape-agnostic amicability matching and certificate-carrying reports.

match_amicable joins (area, perimeter, shape_id) fingerprints of any family
by key instead of a quadratic scan; no search calls it, as rectangle pairs
come from the partner rule and triangle pairs from match_amicable_triangles.
A ShapeRecord works out its area and perimeter from its sides;
search_report builds the report of every search, verify all's checks
included; reports re-verify every pair and listed shape when assembled,
and a report read back from JSON is rebuilt by its own search and must
serialize to the input's JSON text, so serialized results are never
trusted blindly.
"""

from . import rectangles, triangles
from .lattice import Record
from .rectangles import RectSides
# ShapeRecord keeps this binding of as_heronian, while the searches below call
# rectangles.* and triangles.* through their modules.  So a fault patched into
# a module (the VERIFY_FAULTS rows of tests/test_cli.py) reaches the searches
# and checks but never the records every report is built from.
from .triangles import TriangleSides, as_heronian

# Each family -> (the side count of every shape its report lists, whether those
# shapes are equable, whether its report may have a null bound).  A verification
# report lists rectangle and triangle pairs.  Only two searches are exact, that
# is bound-free: the rectangles' divisor enumeration and verify all, whose
# checks run at fixed bounds.
FAMILIES = {
    "rectangles": (2, False, True),
    "triangles": (3, False, False),
    "equable-rectangles": (2, True, False),
    "equable-triangles": (3, True, False),
    "verification": (None, False, True),
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
# The bounds those checks run at: the rectangle oracle's greatest side and the
# triangle search's greatest perimeter.  They are also the CLI's flag defaults.
RECT_MAX_SIDE = 200
TRI_MAX_PERIMETER = 120
# A bound's least and greatest value by its shapes' side count: a rectangle's
# long side, a triangle's perimeter.  At the caps search_report takes 0.09 s and
# 14 MB peak RSS for rectangles, 0.42 s and 23 MB for triangles (medians of 7
# processes; 2-vCPU Xeon, Python 3.11.7).  The equable closed forms list every
# equable shape from long side 6 and perimeter 60 on, so the caps cost them none.
BOUNDS = {2: (1, 20_000), 3: (3, 3_000)}
# The answers verify all checks the searches against.
THE_FIVE_RECT_PAIRS = (
    ((1, 34), (7, 10)),
    ((1, 38), (6, 13)),
    ((1, 54), (5, 22)),
    ((2, 10), (4, 6)),
    ((2, 13), (3, 10)),
)
THE_TRIANGLE_PAIR = ((3, 25, 26), (9, 12, 15))


class CertificateError(ValueError):
    """A pair or shape certificate did not hold when re-checked."""


class ShapeFingerprint(Record):
    """The exact invariants a shape contributes to amicability matching."""

    __slots__ = ("area", "perimeter", "shape_id")


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

    @property
    def shape_id(self) -> str:
        return "x".join(str(s) for s in self.sides)

    def to_dict(self) -> dict:
        return {"sides": list(self.sides), "area": self.area, "perimeter": self.perimeter}


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
    shapes_scanned: int,
    checks: tuple[tuple[str, bool], ...] = (),
) -> SearchReport:
    """Build the SearchReport of one search's result, re-verifying every certificate.

    search_report has already checked the family and bound and counted the
    shapes its search scanned.  Shape lists are retained in the report only
    for the equable families, where the shapes themselves are the result;
    pair searches keep just the scan count.  A pair that fails its cross
    equalities, a repeated pair or kept shape, a shape with the wrong side
    count for the family, a non-equable shape in an equable family or a
    shape beyond a non-null bound aborts assembly.
    """
    n_sides, equable, _ = FAMILIES[family]
    for rec in [*shapes, *(rec for pair in pairs for rec in pair)]:
        if n_sides is not None and len(rec.sides) != n_sides:
            raise CertificateError(f"a {family} report cannot list {rec.shape_id}")
        if equable and rec.area != rec.perimeter:
            raise CertificateError(f"{rec.shape_id} is claimed equable but is not")
        size = rec.sides[-1] if len(rec.sides) == 2 else rec.perimeter  # what a bound holds
        if bound is not None and size > bound:
            raise CertificateError(f"{rec.shape_id} lies beyond the bound {bound}")
    normalized = []
    for a, b in pairs:
        first, second = sorted((a, b), key=lambda r: r.sides)
        if first.sides == second.sides:
            raise CertificateError(f"self pair: {first.shape_id}")
        if first.area != second.perimeter or second.area != first.perimeter:
            raise CertificateError(f"cross equalities fail: {first.shape_id} vs {second.shape_id}")
        normalized.append((first, second))
    normalized.sort(key=lambda p: (p[0].sides, p[1].sides))
    keep_shapes = tuple(sorted(shapes, key=lambda r: r.sides)) if equable else ()
    if len(set(normalized)) < len(normalized) or len(set(keep_shapes)) < len(keep_shapes):
        raise CertificateError(f"repeated pair or shape in a {family} report")
    return SearchReport(family, bound, shapes_scanned, tuple(normalized), keep_shapes, tuple(checks))


def _rect_pair_records(pairs) -> list[tuple[ShapeRecord, ShapeRecord]]:
    return [
        (ShapeRecord((p.first.short, p.first.long)), ShapeRecord((p.second.short, p.second.long)))
        for p in pairs
    ]


def _tri_pair_records(pairs) -> list[tuple[ShapeRecord, ShapeRecord]]:
    return [(ShapeRecord(a.sides.as_tuple()), ShapeRecord(b.sides.as_tuple())) for a, b in pairs]


def placed_amicably(pairs) -> bool:
    """Each triangle of each pair, placed on the lattice, realises its own squared
    sides, and its shoelace twice-area is twice its partner's perimeter.  An
    embedding certifies the triangle it was handed, not the one asked for, so
    the sides are compared here; the area is the placement's, not Heron's."""
    for pair in pairs:
        for g, h in (pair, pair[::-1]):
            emb = triangles.embed_triangle(g)
            squares = sorted(s * s for s in g.sides.as_tuple())
            # the area test is the cross equality tri-pair-cross-equalities
            # names; the sides imply it only when the pair really is amicable
            if sorted(emb.squared_sides()) != squares or emb.twice_area() != 2 * h.perimeter():
                return False
    return True


def _verification_checks():
    """Run every consistency check; returns (pair_records, checks, shapes_scanned),
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
    checks = tuple(zip(VERIFICATION_CHECKS, results, strict=True))
    return rect_records + tri_records, checks, rect_count(RECT_MAX_SIDE) + len(heronian)


def search_report(family: str, bound: int | None) -> SearchReport:
    """The report of one search, built by assemble_report.

    Before any search, the family must be one of FAMILIES and the bound null
    only for a family FAMILIES marks as exact; any other bound is an int in
    BOUNDS' range for the family's side count (a rectangle's long side or a
    triangle's perimeter), and a verification report, which mixes
    rectangles and triangles, takes none.  A rectangles search with a null
    bound is the exact divisor enumeration, which scans nothing, and one
    with a bound the brute-force oracle, which counts every canonical
    rectangle within it as scanned but visits only those of area <= 4*bound;
    a triangles search scans the heronian triangles within its bound; a
    verification report runs every check of VERIFICATION_CHECKS.  Equable
    reports list their shapes, count them as scanned and list no pairs: two
    equable shapes are never amicable, as that would take equal area =
    perimeter values, and the closed forms give distinct ones (16 and 18 for
    rectangles; 24, 30, 36, 42 and 60 for triangles).  A rule or certificate
    that fails raises CertificateError.
    """
    if family not in FAMILIES:
        raise CertificateError(f"unknown family: {family!r}")
    n_sides, _, exact = FAMILIES[family]
    least, greatest = BOUNDS.get(n_sides, (1, 0))  # an empty range: verification takes no bound
    if not (exact if bound is None else type(bound) is int and least <= bound <= greatest):
        raise CertificateError(f"a {family} report cannot have the bound {bound!r}")
    shapes, pairs, checks = [], [], ()
    if family == "verification":
        pairs, checks, scanned = _verification_checks()
    elif family == "rectangles":
        pairs = _rect_pair_records(
            rectangles.enumerate_by_divisors() if bound is None else rectangles.brute_force_pairs(bound)
        )
        scanned = 0 if bound is None else rect_count(bound)
    elif family == "triangles":
        found = triangles.enumerate_heronian(bound)
        pairs, scanned = _tri_pair_records(triangles.match_amicable_triangles(found)), len(found)
    else:
        if family == "equable-triangles":
            shapes = [ShapeRecord(h.sides.as_tuple()) for h in triangles.find_equable_triangles(bound)]
        else:
            shapes = [ShapeRecord((r.short, r.long)) for r in rectangles.equable_rectangles(bound)]
        scanned = len(shapes)
    return assemble_report(family, bound, shapes, pairs, scanned, checks=checks)


def report_from_dict(d: dict) -> SearchReport:
    """Rebuild d as search_report(d["family"], d["bound"]) and require that the
    rebuilt report serialize to d's JSON text.

    So a report reads back only if the program prints it at its stated
    family and bound: every pair and shape, the scan count and each check's
    status are re-derived, never taken from d.  The one type-strict
    comparison also fixes order, repeats, keys, every area, perimeter and
    number's type (34.0 or true never stands for 34).  search_report refuses
    a bound outside BOUNDS before any search, so a forged bound starts no
    unbounded work.  An edited bound that leaves the answer unchanged reads
    back and is true: an equable report's bound moved by one, or a triangles
    report's moved to the next odd perimeter, which no heronian triangle
    has.  Any failure, malformed structure included, raises CertificateError.
    """
    import json  # no command reads a report back, so no command loads json

    try:
        family, bound = d["family"], d["bound"]
        report = search_report(family, bound)
        # check_circular=False turns a report that holds itself into the
        # RecursionError of a deeply nested one, instead of a bare ValueError
        text = json.dumps(d, sort_keys=True, check_circular=False)
    except (KeyError, TypeError, RecursionError) as exc:
        raise CertificateError(f"malformed report: {exc!r}") from exc
    if json.dumps(report.to_canonical_dict(), sort_keys=True) != text:
        raise CertificateError(
            f"report differs from search_report({family!r}, {bound!r}), which scans "
            f"{report.shapes_scanned} shapes and lists {len(report.pairs)} pairs"
        )
    return report
