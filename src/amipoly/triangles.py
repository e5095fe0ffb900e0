"""Triangles with integer sides and integer area, and their lattice placements.

Enumeration scans canonical side triples of even perimeter in plain
integers, keeps the ones whose 16*Area^2 is a perfect square, and matches
amicable partners by an (area, perimeter) fingerprint join.  Lattice
embeddings are found by completing two sum-of-two-squares representations.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .lattice import (
    LATTICE_SYMMETRIES,
    LatticePoint,
    LatticePolygon,
    transform_point,
    twice_area,
)

__all__ = [
    "TriangleSides",
    "HeronianTriangle",
    "TriangleEmbedding",
    "EmbeddingSearchError",
    "sixteen_area_sq",
    "as_heronian",
    "enumerate_heronian",
    "match_amicable_triangles",
    "find_amicable_triangle_pairs",
    "find_equable_triangles",
    "sum_two_squares_reps",
    "embed_triangle",
]

_ORIGIN = LatticePoint(0, 0)


@dataclass(frozen=True, order=True)
class TriangleSides:
    """Canonical side triple a <= b <= c satisfying the strict triangle inequality."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if not 1 <= self.a <= self.b <= self.c:
            raise ValueError(f"sides must satisfy 1 <= a <= b <= c, got {self}")
        if self.a + self.b <= self.c:
            raise ValueError(f"triangle inequality fails for {self}")

    @classmethod
    def of(cls, x: int, y: int, z: int) -> "TriangleSides":
        a, b, c = sorted((x, y, z))
        return cls(a, b, c)

    def perimeter(self) -> int:
        return self.a + self.b + self.c

    def sixteen_area_sq(self) -> int:
        a, b, c = self.a, self.b, self.c
        return (a + b + c) * (-a + b + c) * (a - b + c) * (a + b - c)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def __str__(self):
        return f"{self.a}x{self.b}x{self.c}"


def sixteen_area_sq(t: TriangleSides) -> int:
    """16*Area^2 as an exact integer (Heron's formula cleared of fractions)."""
    return t.sixteen_area_sq()


@dataclass(frozen=True, order=True)
class HeronianTriangle:
    """A side triple together with its certified integer area."""

    sides: TriangleSides
    area: int

    def __post_init__(self):
        if self.area < 1 or 16 * self.area * self.area != self.sides.sixteen_area_sq():
            raise ValueError(f"area {self.area} is not certified for sides {self.sides}")

    def perimeter(self) -> int:
        return self.sides.perimeter()


def as_heronian(t: TriangleSides) -> HeronianTriangle | None:
    """The certified heronian record for t, or None when the area is not an integer.

    16*Area^2 must be a perfect square whose root is divisible by 4; triples
    with odd perimeter have an odd Heron product, whose root (if any) gives a
    quarter-integer area and is rejected here.
    """
    v = t.sixteen_area_sq()
    root = isqrt(v)
    if root * root != v or root % 4:
        return None
    return HeronianTriangle(t, root // 4)


def enumerate_heronian(max_perimeter: int) -> list[HeronianTriangle]:
    """All heronian triangles with perimeter <= max_perimeter, sorted by (perimeter, a, b).

    The scan runs over plain integers and certifies a record only for hits.
    With s = a + b and d = b - a, Heron's product is (s^2 - c^2)(c^2 - d^2).
    c steps by 2 with the parity of s: an odd perimeter makes every factor
    odd, so 16*Area^2 is odd and the area cannot be an integer.  At even
    perimeter every factor is even, so a square product has a root divisible
    by 4, and root // 4 is the area.
    """
    if max_perimeter < 3:
        raise ValueError(f"max_perimeter must be at least 3, got {max_perimeter}")
    found = []
    for a in range(1, max_perimeter // 3 + 1):
        for b in range(a, (max_perimeter - a) // 2 + 1):
            s = a + b
            s_sq, d_sq = s * s, (b - a) * (b - a)
            for c in range(b + a % 2, min(s - 1, max_perimeter - s) + 1, 2):
                c_sq = c * c
                v = (s_sq - c_sq) * (c_sq - d_sq)
                root = isqrt(v)
                if root * root == v:
                    found.append(HeronianTriangle(TriangleSides(a, b, c), root // 4))
    found.sort(key=lambda h: (h.perimeter(), h.sides.a, h.sides.b))
    return found


def match_amicable_triangles(
    triangles: list[HeronianTriangle],
) -> list[tuple[HeronianTriangle, HeronianTriangle]]:
    """Unordered pairs of distinct triangles in the list with crossed area/perimeter.

    The match is a fingerprint join: triangles indexed by (area, perimeter)
    are probed with the reversed key, so the search stays linear in the
    number of triangles.  Every emitted pair is re-verified against the
    definition, independently of the join.
    """
    by_key: dict[tuple[int, int], list[HeronianTriangle]] = {}
    for h in triangles:
        by_key.setdefault((h.area, h.perimeter()), []).append(h)
    pairs = set()
    for h in triangles:
        for g in by_key.get((h.perimeter(), h.area), ()):
            if g == h:
                continue
            if h.area != g.perimeter() or g.area != h.perimeter():
                raise AssertionError(f"fingerprint join produced a bad pair: {h}, {g}")
            pairs.add((min(h, g), max(h, g)))
    return sorted(pairs)


def find_amicable_triangle_pairs(
    max_perimeter: int,
) -> list[tuple[HeronianTriangle, HeronianTriangle]]:
    """Amicable pairs among the heronian triangles with perimeter <= max_perimeter."""
    return match_amicable_triangles(enumerate_heronian(max_perimeter))


def find_equable_triangles(max_perimeter: int) -> list[HeronianTriangle]:
    """Heronian triangles whose area equals their perimeter, sorted."""
    return [h for h in enumerate_heronian(max_perimeter) if h.area == h.perimeter()]


def sum_two_squares_reps(n: int) -> list[LatticePoint]:
    """All (p, q) with p, q >= 0 and p^2 + q^2 = n, sorted by p."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    reps = []
    for p in range(isqrt(n) + 1):
        rest = n - p * p
        q = isqrt(rest)
        if q * q == rest:
            reps.append(LatticePoint(p, q))
    return reps


class EmbeddingSearchError(RuntimeError):
    """The embedding search ran out of candidates; impossible for certified input."""


def _signed_reps(n: int) -> list[LatticePoint]:
    pts = set()
    for r in sum_two_squares_reps(n):
        for sx in (1, -1):
            for sy in (1, -1):
                pts.add(LatticePoint(sx * r.x, sy * r.y))
    return sorted(pts)


def _canonical_placement(
    candidates: list[tuple[LatticePoint, LatticePoint]],
) -> tuple[LatticePoint, LatticePoint]:
    """Lexicographically minimal (v1, v2) over the 8 lattice symmetries and both
    vertex orders, with v0 pinned at the origin."""
    best = None
    for p, q in candidates:
        for sym in LATTICE_SYMMETRIES:
            tp, tq = transform_point(sym, p), transform_point(sym, q)
            for v1, v2 in ((tp, tq), (tq, tp)):
                key = (v1.x, v1.y, v2.x, v2.y)
                if best is None or key < best:
                    best = key
    assert best is not None
    return LatticePoint(best[0], best[1]), LatticePoint(best[2], best[3])


@dataclass(frozen=True)
class TriangleEmbedding:
    """A lattice placement of a heronian triangle, certificate-checked on construction."""

    triangle: HeronianTriangle
    v0: LatticePoint
    v1: LatticePoint
    v2: LatticePoint

    def __post_init__(self):
        sides = self.triangle.sides
        want = sorted((sides.a**2, sides.b**2, sides.c**2))
        if sorted(self.squared_sides()) != want:
            raise ValueError(f"embedding does not realise the sides {sides}")
        if self.twice_area() != 2 * self.triangle.area:
            raise ValueError(f"embedding area disagrees with certified area {self.triangle.area}")

    def vertices(self) -> tuple[LatticePoint, LatticePoint, LatticePoint]:
        return (self.v0, self.v1, self.v2)

    def as_polygon(self) -> LatticePolygon:
        return LatticePolygon(self.vertices())

    def squared_sides(self) -> list[int]:
        return [
            (self.v1 - self.v0).norm_sq(),
            (self.v2 - self.v1).norm_sq(),
            (self.v0 - self.v2).norm_sq(),
        ]

    def twice_area(self) -> int:
        return twice_area(self.as_polygon())


def embed_triangle(t: HeronianTriangle) -> TriangleEmbedding:
    """Place t on the lattice with one vertex at the origin.

    The origin vertex carries the two longest sides: v1 ranges over the
    sign-completed representations of c^2, v2 over those of b^2, and a
    candidate is kept when |v1 - v2|^2 = a^2.  The returned placement is the
    canonical representative of the candidates under the lattice symmetries.
    Heronian triangles always embed; an exhausted search indicates internal
    inconsistency and raises EmbeddingSearchError.
    """
    s = t.sides
    a_sq = s.a * s.a
    candidates = [
        (p, q)
        for p in _signed_reps(s.c * s.c)
        for q in _signed_reps(s.b * s.b)
        if (p - q).norm_sq() == a_sq
    ]
    if not candidates:
        raise EmbeddingSearchError(f"no lattice placement found for {s}")
    v1, v2 = _canonical_placement(candidates)
    return TriangleEmbedding(t, _ORIGIN, v1, v2)
