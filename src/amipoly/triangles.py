"""Triangles with integer sides and integer area, and their lattice placements.

Enumeration scans canonical side triples of even perimeter in plain
integers, keeps the ones whose 16*Area^2 is a perfect square, and matches
amicable partners by an (area, perimeter) fingerprint join.  Lattice
embeddings come from the Gaussian factorisation of the longest side: each
lattice point at distance c from the origin fixes the third vertex up to a
reflection, and it is kept when its coordinates are integers.
"""

from __future__ import annotations

from math import isqrt

from .lattice import (
    LatticePoint, LatticePolygon, Record, is_perfect_square, squared_side_lengths, twice_area
)

__all__ = [
    "TriangleSides",
    "HeronianTriangle",
    "TriangleEmbedding",
    "as_heronian",
    "enumerate_heronian",
    "match_amicable_triangles",
    "find_amicable_triangle_pairs",
    "find_equable_triangles",
    "sum_two_squares_reps",
    "embed_triangle",
]

_ORIGIN = LatticePoint(0, 0)


class TriangleSides(Record):
    """Canonical side triple a <= b <= c satisfying the strict triangle inequality."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int):
        if not 1 <= a <= b <= c:
            raise ValueError(f"sides must satisfy 1 <= a <= b <= c, got {a}x{b}x{c}")
        if a + b <= c:
            raise ValueError(f"triangle inequality fails for {a}x{b}x{c}")
        self._store("a", a)
        self._store("b", b)
        self._store("c", c)

    @classmethod
    def of(cls, x: int, y: int, z: int) -> "TriangleSides":
        a, b, c = sorted((x, y, z))
        return cls(a, b, c)

    def perimeter(self) -> int:
        return self.a + self.b + self.c

    def sixteen_area_sq(self) -> int:
        """16*Area^2 as an exact integer (Heron's formula cleared of fractions)."""
        a, b, c = self.a, self.b, self.c
        return (a + b + c) * (-a + b + c) * (a - b + c) * (a + b - c)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def __str__(self):
        return f"{self.a}x{self.b}x{self.c}"


class HeronianTriangle(Record):
    """A side triple together with its certified integer area."""

    __slots__ = ("sides", "area")

    def __init__(self, sides: TriangleSides, area: int):
        if area < 1 or 16 * area * area != sides.sixteen_area_sq():
            raise ValueError(f"area {area} is not certified for sides {sides}")
        self._store("sides", sides)
        self._store("area", area)

    def perimeter(self) -> int:
        return self.sides.perimeter()


def as_heronian(t: TriangleSides) -> HeronianTriangle | None:
    """The certified heronian record for t, or None when the area is not an integer.

    16*Area^2 must be a perfect square, and then its root is divisible by 4.
    At even perimeter P every Heron factor is even, so the product is 16
    times s(s - a)(s - b)(s - c).  At odd P the four factors are odd and sum
    to 2P = 2 (mod 4), so an odd number of them are 3 (mod 4), and so is
    their product, which is therefore never a square.
    """
    v = t.sixteen_area_sq()
    root = isqrt(v)
    if root * root != v:
        return None
    return HeronianTriangle(t, root // 4)


def enumerate_heronian(max_perimeter: int) -> list[HeronianTriangle]:
    """All heronian triangles with perimeter <= max_perimeter, sorted by (perimeter, a, b).

    The scan runs over plain integers and certifies a record only for hits.
    With s = a + b and d = b - a, Heron's product is (s^2 - c^2)(c^2 - d^2);
    the inner loop computes this factored form itself instead of calling
    TriangleSides.sixteen_area_sq, because it is the scan's hot path.
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
    number of triangles, and the probe key itself makes the areas and
    perimeters cross.  The independent re-check is assemble_report's, on
    records built from the sides alone.
    """
    by_key: dict[tuple[int, int], list[HeronianTriangle]] = {}
    for h in triangles:
        by_key.setdefault((h.area, h.perimeter()), []).append(h)
    pairs = set()
    for h in triangles:
        for g in by_key.get((h.perimeter(), h.area), ()):
            if g != h:
                pairs.add((min(h, g), max(h, g)))
    return sorted(pairs)


def find_amicable_triangle_pairs(
    max_perimeter: int,
) -> list[tuple[HeronianTriangle, HeronianTriangle]]:
    """Amicable pairs among the heronian triangles with perimeter <= max_perimeter."""
    return match_amicable_triangles(enumerate_heronian(max_perimeter))


def find_equable_triangles(max_perimeter: int) -> list[HeronianTriangle]:
    """Triangles whose area equals their perimeter, up to max_perimeter, sorted like
    enumerate_heronian.

    With semiperimeter s and x = s - c <= y = s - b <= z = s - a, Heron gives
    Area^2 = sxyz, so Area = 2s is xyz = 4(x + y + z) = 4s, and s is an
    integer because a heronian perimeter is even.  Then z(xy - 4) = 4(x + y),
    and xyz <= 12z from z >= y >= x, so xy runs over 5..12 and
    z = 4(x + y) / (xy - 4) must be an integer >= y.  The sides are x + y,
    x + z and y + z.
    """
    if max_perimeter < 3:
        raise ValueError(f"max_perimeter must be at least 3, got {max_perimeter}")
    found = []
    for x in range(1, 4):  # x * x <= xy <= 12
        for y in range(max(x, (x + 4) // x), 12 // x + 1):  # 5 <= xy <= 12
            z, rem = divmod(4 * (x + y), x * y - 4)
            if rem == 0 and z >= y and 2 * (x + y + z) <= max_perimeter:
                found.append(HeronianTriangle(TriangleSides(x + y, x + z, y + z), 2 * (x + y + z)))
    found.sort(key=lambda h: (h.perimeter(), h.sides.a, h.sides.b))
    return found


def _factor(m: int) -> list[tuple[int, int]]:
    """The prime factorisation of m >= 1 as sorted (p, e) pairs, by trial division."""
    factors = []
    p = 2
    while p * p <= m:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            factors.append((p, e))
        p += 1
    if m > 1:
        factors.append((m, 1))
    return factors


def _gaussian_mul(u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
    """The product of the Gaussian integers u[0] + u[1]*i and v[0] + v[1]*i."""
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def _gaussian_powers(z: tuple[int, int], e: int) -> list[tuple[int, int]]:
    """z^0, z^1, ..., z^e for the Gaussian integer z[0] + z[1]*i."""
    powers = [(1, 0)]
    for _ in range(e):
        powers.append(_gaussian_mul(powers[-1], z))
    return powers


def sum_two_squares_reps(n: int) -> list[LatticePoint]:
    """All (p, q) with p, q >= 0 and p^2 + q^2 = n, sorted by p.

    These are the Gaussian integers of norm n in the closed first quadrant,
    built from the factorisation of n; a square n is factored through its
    root, so trial division stops at n^(1/4).  For each p^e exactly dividing
    n, a prime p = 3 (mod 4) contributes p^(e/2), or rules out every
    representation when e is odd; p = 2 contributes (1 + i)^e; and a prime
    p = 1 (mod 4), split as p = pi * conj(pi), contributes one of
    pi^j * conj(pi)^(e - j) for j = 0..e.  The products of one choice per
    prime, times each of the four units, are the r2(n) Gaussian integers of
    norm n, each once.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n == 0:
        return [LatticePoint(0, 0)]
    if is_perfect_square(n):
        factors = [(p, 2 * e) for p, e in _factor(isqrt(n))]
    else:
        factors = _factor(n)
    gaussians = [(1, 0)]
    for p, e in factors:
        if p % 4 == 3:
            if e % 2:
                return []
            choices = [(p ** (e // 2), 0)]
        elif p == 2:
            choices = [_gaussian_powers((1, 1), e)[e]]
        else:
            x = 1
            while not is_perfect_square(p - x * x):
                x += 1
            y = isqrt(p - x * x)
            powers, bar_powers = _gaussian_powers((x, y), e), _gaussian_powers((x, -y), e)
            choices = [_gaussian_mul(powers[j], bar_powers[e - j]) for j in range(e + 1)]
        gaussians = [_gaussian_mul(g, h) for g in gaussians for h in choices]
    return sorted(
        LatticePoint(x, y)
        for u, v in gaussians
        for x, y in ((u, v), (-v, u), (-u, -v), (v, -u))
        if x >= 0 and y >= 0
    )


class TriangleEmbedding(Record):
    """A lattice placement of a heronian triangle, certificate-checked on construction."""

    __slots__ = ("triangle", "v0", "v1", "v2")

    def __init__(
        self, triangle: HeronianTriangle, v0: LatticePoint, v1: LatticePoint, v2: LatticePoint
    ):
        self._store("triangle", triangle)
        self._store("v0", v0)
        self._store("v1", v1)
        self._store("v2", v2)
        sides = triangle.sides
        want = sorted((sides.a**2, sides.b**2, sides.c**2))
        if sorted(self.squared_sides()) != want:
            raise ValueError(f"embedding does not realise the sides {sides}")
        if self.twice_area() != 2 * triangle.area:
            raise ValueError(f"embedding area disagrees with certified area {triangle.area}")

    def vertices(self) -> tuple[LatticePoint, LatticePoint, LatticePoint]:
        return (self.v0, self.v1, self.v2)

    def as_polygon(self) -> LatticePolygon:
        return LatticePolygon(self.vertices())

    def squared_sides(self) -> list[int]:
        return squared_side_lengths(self.as_polygon())

    def twice_area(self) -> int:
        return twice_area(self.as_polygon())


def embed_triangle(t: HeronianTriangle) -> TriangleEmbedding:
    """Place t on the lattice with v0 at the origin and (v1, v2) least in both vertex orders.

    The origin vertex carries the two longest sides.  The candidates are
    every (p, q) with |p| = c, |q| = b and |p - q| = a.  p ranges over the
    lattice points with |p| = c, built from the factorisation of c, and for
    each p the only such q are q = (D*p +- T*p_perp) / c^2, where
    D = (b^2 + c^2 - a^2)/2 = p.q, T = 2*area = |p x q| and
    p_perp = (-p.y, p.x); a candidate is kept when both coordinates of q
    divide exactly.  D is an integer because a heronian perimeter is even.
    The placement returned has the least key (v1.x, v1.y, v2.x, v2.y) over
    the candidates (p, q) and their swaps (q, p).  Each of the 8 lattice
    symmetries is an integer orthogonal map, so it keeps the three lengths
    and integral coordinates and maps the candidates onto themselves: the
    least candidate is already least over the mirror images of every
    candidate, so no orbit needs to be taken.
    Heronian triangles always embed, so an exhausted search is an internal
    inconsistency and raises AssertionError.
    """
    s = t.sides
    c_sq = s.c * s.c
    dot = (s.b * s.b + c_sq - s.a * s.a) // 2
    best = None
    for r in sum_two_squares_reps(c_sq):
        for px, py in ((r.x, r.y), (-r.x, r.y), (r.x, -r.y), (-r.x, -r.y)):
            for cross in (2 * t.area, -2 * t.area):
                qx, rx = divmod(dot * px - cross * py, c_sq)
                qy, ry = divmod(dot * py + cross * px, c_sq)
                if rx == 0 and ry == 0:
                    key = min((px, py, qx, qy), (qx, qy, px, py))
                    if best is None or key < best:
                        best = key
    if best is None:
        raise AssertionError(f"no lattice placement found for {s}")
    return TriangleEmbedding(t, _ORIGIN, LatticePoint(*best[:2]), LatticePoint(*best[2:]))
