"""Amicable and equable rectangles with integer sides.

The solver reduces the amicability equations a*b = 2*(x + y) and
2*(a + b) = x*y to a linear system in b and y, enumerates the finitely
many divisor cases for short side 1 or 2.  An oracle that matches on the
cross equalities alone cross-checks it: it visits only rectangles of area
<= 4 * max side and solves each one's partner from a quadratic.
"""

from math import isqrt

from .lattice import CertificateError, Record, is_perfect_square


class RectSides(Record):
    """Rectangle side record, stored as short <= long whatever the order given."""

    __slots__ = ("short", "long")

    def __init__(self, a: int, b: int):
        if type(a) is not int or type(b) is not int:
            raise TypeError("rectangle sides must be integers")
        short, long = (a, b) if a <= b else (b, a)
        if short < 1:
            raise ValueError(f"need 1 <= short <= long, got {short}x{long}")
        self._store("short", short)
        self._store("long", long)

    def area(self) -> int:
        return self.short * self.long

    def perimeter(self) -> int:
        return 2 * (self.short + self.long)

    def __str__(self):
        return f"{self.short}x{self.long}"


class RectAmicablePair(Record):
    """Two distinct rectangles, stored lesser first whatever the order given; cross equalities checked."""

    __slots__ = ("first", "second")

    def __init__(self, r1: RectSides, r2: RectSides):
        if r1 == r2:
            raise ValueError(f"a rectangle does not pair with itself: {r1}")
        first, second = (r1, r2) if r1 < r2 else (r2, r1)
        if first.area() != second.perimeter() or second.area() != first.perimeter():
            raise CertificateError(f"cross equalities fail for {first} and {second}")
        self._store("first", first)
        self._store("second", second)


def perimeter_dominant(r: RectSides) -> bool:
    """True iff area <= perimeter, i.e. short*long <= 2*(short + long)."""
    return r.area() <= r.perimeter()


def _partner_quadratic(a: int, b: int) -> tuple[int, int] | None:
    """Sides (x, y), x <= y, of the one rectangle whose perimeter is a*b and area 2*(a + b).

    Solves x + y = a*b/2, x*y = 2*(a + b) over positive integers via the
    discriminant; None when no such rectangle exists.  A square discriminant
    needs no further test: s^2 - root^2 = 4p makes s - root even, and
    root < s makes x >= 1.
    """
    if a * b % 2:
        return None  # a partner perimeter 2*(x + y) is always even
    s = a * b // 2
    p = 2 * (a + b)
    disc = s * s - 4 * p
    if not is_perfect_square(disc):  # False for disc < 0 too
        return None
    root = isqrt(disc)
    return (s - root) // 2, (s + root) // 2


def small_side_candidates(max_side: int) -> list[int]:
    """Short sides that can occur on the perimeter-dominant member of a pair.

    The sorted set of short sides of the perimeter-dominant members of
    brute_force_pairs(max_side)'s pairs, which is the set of short sides of
    every dominant a x b with a <= b <= max_side that has a partner other
    than itself.  A dominant rectangle has ab <= 2(a + b), that is
    (a - 2)(b - 2) <= 4.  So for a >= 3 only 3x3 to 3x6 and 4x4 remain, and
    none of them has a partner other than itself (3x6 and 4x4 pair with
    themselves, the rest have none).  For a = 1 the partner's sides sum to
    b/2 and for a = 2 to b, so its long side is below b <= max_side.  Also
    ab <= 2(a + b) <= 4*max_side, so the oracle visits the rectangle and
    lists its pair; conversely each pair it lists gives such a rectangle.
    Comes out as [1, 2] for any max_side >= 34.
    """
    if max_side < 4:
        raise ValueError(f"max_side must be at least 4, got {max_side}")
    pairs = brute_force_pairs(max_side)
    return sorted({r.short for p in pairs for r in (p.first, p.second) if perimeter_dominant(r)})


def solve_partner(a: int, x: int) -> tuple[str, int | None, int | None]:
    """Solve a*b = 2*(x + y), 2*(a + b) = x*y as a linear system in b and y.

    Returns (status, b, y): status is "solved", "singular", "non-integer" or
    "non-positive", and b and y are None unless it is "solved".

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
        return "singular", None, None
    b_num = 2 * x * x + 4 * a
    y_num = 2 * a * a + 4 * x
    if b_num % det or y_num % det:
        return "non-integer", None, None
    b = b_num // det
    y = y_num // det
    # both numerators are positive, so b and y take the determinant's sign
    if b < 1:
        return "non-positive", None, None
    return "solved", b, y


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def enumerate_by_divisors() -> list[RectAmicablePair]:
    """All amicable rectangle pairs, by divisor case analysis on the short side.

    The list is complete at every size.  Let a x b and x x y be a pair, with
    a <= b, x <= y and a <= x.  The sum of ab = 2(x + y) and xy = 2(a + b)
    is (a - 2)(b - 2) + (x - 2)(y - 2) = 8.  If a >= 3, both terms are at
    least 1, so (a - 2)(b - 2) <= 7: a = 3 with b <= 9, or a = 4 with
    b <= 5.  Each of those nine rectangles has one possible partner, from
    _partner_quadratic, and it is none or the rectangle itself (3x6 and 4x4,
    the equable ones), never a second rectangle.  So a is 1 or 2, exactly
    the two divisor cases below.

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
            _, b, y = solve_partner(a, x)
            pairs.add(RectAmicablePair(RectSides(a, b), RectSides(x, y)))
    return sorted(pairs)


def brute_force_pairs(max_side: int) -> list[RectAmicablePair]:
    """Definition-only oracle: all pairs among rectangles with sides <= max_side.

    Rectangles are matched purely on the cross equalities (area of one equals
    perimeter of the other, both ways); no dominance or divisor reasoning is
    used, so this is an independent check of enumerate_by_divisors.  Only
    rectangles with area <= 4*max_side are scanned: a pair member's area is
    its partner's perimeter, which is at most 4*max_side.  Each one's partner
    comes from _partner_quadratic and counts if its long side is <= max_side.
    """
    if max_side < 1:
        raise ValueError(f"max_side must be positive, got {max_side}")
    pairs = set()
    for a in range(1, max_side + 1):
        for b in range(a, min(max_side, 4 * max_side // a) + 1):
            partner = _partner_quadratic(a, b)
            if partner is not None and partner != (a, b) and partner[1] <= max_side:
                pairs.add(RectAmicablePair(RectSides(a, b), RectSides(*partner)))
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
