"""Amicable and equable rectangles with integer sides.

The solver reduces the amicability equations a*b = 2*(x + y) and
2*(a + b) = x*y to a linear system in b and y, enumerates the finitely
many divisor cases for short side 1 or 2, and is cross-checked by an
exhaustive scan that uses nothing but the definition.
"""

from __future__ import annotations

from math import isqrt

from .lattice import Record, is_perfect_square

__all__ = [
    "RectSides",
    "RectAmicablePair",
    "PartnerSolution",
    "perimeter_dominant",
    "small_side_candidates",
    "solve_partner",
    "enumerate_by_divisors",
    "brute_force_pairs",
    "equable_rectangles",
]


class RectSides(Record):
    """Canonical rectangle side record with short <= long."""

    __slots__ = ("short", "long")

    def __init__(self, short: int, long: int):
        if short < 1 or long < short:
            raise ValueError(f"need 1 <= short <= long, got {short}x{long}")
        self._store("short", short)
        self._store("long", long)

    @classmethod
    def of(cls, a: int, b: int) -> "RectSides":
        return cls(min(a, b), max(a, b))

    def area(self) -> int:
        return self.short * self.long

    def perimeter(self) -> int:
        return 2 * (self.short + self.long)

    def __str__(self):
        return f"{self.short}x{self.long}"


class RectAmicablePair(Record):
    """Unordered pair of distinct rectangles, cross equalities re-checked on construction."""

    __slots__ = ("first", "second")

    def __init__(self, first: RectSides, second: RectSides):
        if first == second:
            raise ValueError(f"a rectangle does not pair with itself: {first}")
        if first > second:
            raise ValueError("pair must be stored with first <= second")
        if first.area() != second.perimeter() or second.area() != first.perimeter():
            raise ValueError(f"cross equalities fail for {first} and {second}")
        self._store("first", first)
        self._store("second", second)

    @classmethod
    def of(cls, r1: RectSides, r2: RectSides) -> "RectAmicablePair":
        return cls(min(r1, r2), max(r1, r2))


def perimeter_dominant(r: RectSides) -> bool:
    """True iff area <= perimeter, i.e. short*long <= 2*(short + long)."""
    return r.area() <= r.perimeter()


def _partner_quadratic(r: RectSides) -> RectSides | None:
    """The unique rectangle whose perimeter is r's area and area is r's perimeter.

    Solves x + y = area/2, x*y = perimeter over positive integers via the
    discriminant; None when no such rectangle exists.  A square discriminant
    needs no further test: s^2 - root^2 = 4p makes s - root even, and
    root < s makes x >= 1.
    """
    if r.area() % 2:
        return None  # a partner perimeter 2*(x + y) is always even
    s = r.area() // 2
    p = r.perimeter()
    disc = s * s - 4 * p
    if not is_perfect_square(disc):  # False for disc < 0 too
        return None
    root = isqrt(disc)
    return RectSides((s - root) // 2, (s + root) // 2)


def small_side_candidates(max_side: int) -> list[int]:
    """Short sides that can occur on the perimeter-dominant member of a pair.

    Scans the canonical rectangles with long side <= max_side, keeps the
    perimeter-dominant ones whose (even) area admits a genuine partner
    distinct from the rectangle itself, and returns the sorted set of short
    sides seen.  Comes out as [1, 2] for any max_side >= 54.
    """
    if max_side < 4:
        raise ValueError(f"max_side must be at least 4, got {max_side}")
    shorts = set()
    for a in range(1, max_side + 1):
        for b in range(a, max_side + 1):
            r = RectSides(a, b)
            if not perimeter_dominant(r):
                # ab - 2(a + b) = b(a - 2) - 2a never decreases in b for a >= 2
                # (and stays negative for a = 1), so no longer rectangle is either.
                break
            partner = _partner_quadratic(r)
            if partner is None or partner == r:
                continue
            shorts.add(a)
    return sorted(shorts)


class PartnerSolution(Record):
    """Outcome of solving the amicability system for fixed short sides a and x."""

    __slots__ = ("status", "b", "y")

    def __init__(self, status: str, b: int | None = None, y: int | None = None):
        # status is "solved", "singular", "non-integer" or "non-positive"
        self._store("status", status)
        self._store("b", b)
        self._store("y", y)

    @property
    def solved(self) -> bool:
        return self.status == "solved"


def solve_partner(a: int, x: int) -> PartnerSolution:
    """Solve a*b = 2*(x + y), 2*(a + b) = x*y as a linear system in b and y.

    The coefficient matrix ((a, -2), (-2, x)) has determinant a*x - 4; when
    that is nonzero Cramer's rule gives the unique rational solution

        b = (2*x*x + 4*a) / (a*x - 4),   y = (2*a*a + 4*x) / (a*x - 4),

    which is accepted only if both values are positive integers.  Those
    satisfy both equations whenever the determinant is nonzero, so they need
    no re-check.
    """
    if a < 1 or x < 1:
        raise ValueError("side lengths must be positive integers")
    det = a * x - 4
    if det == 0:
        return PartnerSolution("singular")
    b_num = 2 * x * x + 4 * a
    y_num = 2 * a * a + 4 * x
    if b_num % det or y_num % det:
        return PartnerSolution("non-integer")
    b = b_num // det
    y = y_num // det
    if b < 1 or y < 1:
        return PartnerSolution("non-positive")
    return PartnerSolution("solved", b=b, y=y)


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def enumerate_by_divisors() -> list[RectAmicablePair]:
    """All amicable rectangle pairs, by divisor case analysis on the short side.

    With a = 1 the integrality of y forces x - 4 to divide 18; with a = 2 it
    forces x - 2 to divide 8.  Every divisor d solves: a = 1 gives
    y = 4 + 18/d and b = 2d + 16 + 36/d, and a = 2 gives y = 2 + 8/d and
    b = d + 4 + 8/d.  Mirrored divisors produce the same unordered pair and
    are removed by canonicalisation.
    """
    pairs = set()
    for a, shift, modulus in ((1, 4, 18), (2, 2, 8)):
        for d in _divisors(modulus):
            x = d + shift
            sol = solve_partner(a, x)
            pairs.add(RectAmicablePair.of(RectSides.of(a, sol.b), RectSides.of(x, sol.y)))
    return sorted(pairs)


def brute_force_pairs(max_side: int) -> list[RectAmicablePair]:
    """Definition-only oracle: all pairs among rectangles with sides <= max_side.

    Rectangles are matched purely on the cross equalities (area of one equals
    perimeter of the other, both ways); no dominance or divisor reasoning is
    used, so this is an independent check of enumerate_by_divisors.  Only
    rectangles with area <= 4*max_side are keyed: a pair member's area is its
    partner's perimeter, which is at most 4*max_side.
    """
    if max_side < 1:
        raise ValueError(f"max_side must be positive, got {max_side}")
    max_area = 4 * max_side
    # sides are the roots of t^2 - (perimeter/2)*t + area, so a key names
    # at most one rectangle
    by_key: dict[tuple[int, int], tuple[int, int]] = {}
    for a in range(1, max_side + 1):
        for b in range(a, min(max_side, max_area // a) + 1):
            by_key[(a * b, 2 * (a + b))] = (a, b)
    pairs = set()
    for (area, perimeter), r in by_key.items():
        t = by_key.get((perimeter, area))
        if t is not None and t != r:
            pairs.add(RectAmicablePair.of(RectSides(*r), RectSides(*t)))
    return sorted(pairs)


def equable_rectangles(max_side: int) -> list[RectSides]:
    """Rectangles with area equal to perimeter, sides <= max_side, sorted.

    a*b = 2*(a + b) is (a - 2)*(b - 2) = 4.  A factor a - 2 <= 0 leaves
    b <= 0, so with a <= b the factors are 1 and 4, or 2 and 2: the 3x6 and
    4x4 rectangles are the only ones at any bound.
    """
    if max_side < 1:
        raise ValueError(f"max_side must be positive, got {max_side}")
    return [r for r in (RectSides(3, 6), RectSides(4, 4)) if r.long <= max_side]
