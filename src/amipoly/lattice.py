"""Exact integer geometry on the Z^2 lattice.

Everything here stays in integer arithmetic.  Areas are carried around as
twice-area (the shoelace sum of lattice vertices is always an integer),
lattice point counts come from the gcd and Pick identities, and side
lengths are kept as squared lengths / radicands so that irrational values
are never materialised as floats.
"""

from __future__ import annotations

import operator
from math import gcd, isqrt

__all__ = [
    "Record",
    "LatticePoint",
    "LatticePolygon",
    "RadicalSum",
    "is_perfect_square",
    "twice_area",
    "boundary_point_count",
    "interior_point_count",
    "squared_side_lengths",
    "radical_sum_is_rational",
    "two_radical_sum_is_rational",
    "three_radical_sum_is_rational",
]


def is_perfect_square(n: int) -> bool:
    """True iff n is the square of an integer.  Exact, no floating point."""
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def _by_fields(compare):
    """A comparison method that applies compare to the fields of two records of
    the same class, and defers on anything else."""

    def method(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return compare(key(self), key(other))
        return NotImplemented

    return method


class Record:
    """An immutable value whose fields are the names in its class's __slots__.

    Records compare, order and hash by the tuple of their fields, in slot
    order, and only with records of the same class, so a record never equals
    a bare tuple.  Assigning an attribute raises AttributeError: a subclass
    validates its arguments in __init__ and stores each field with
    self._store(name, value).  Plain classes, not dataclasses: importing
    dataclasses and generating the classes took longer than most commands'
    compute.
    """

    __slots__ = ()
    _store = object.__setattr__

    def __init_subclass__(cls):
        # The fields as a tuple; a lone field comes bare, which orders and
        # hashes alike within a class.
        cls._key = operator.attrgetter(*cls.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")

    __eq__ = _by_fields(operator.eq)
    __lt__ = _by_fields(operator.lt)
    __le__ = _by_fields(operator.le)
    __gt__ = _by_fields(operator.gt)
    __ge__ = _by_fields(operator.ge)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class LatticePoint(Record):
    """A point of the integer lattice.

    Coordinates are plain Python integers, so arithmetic is exact at any
    magnitude; there is no silent wraparound to guard against.
    """

    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int):
        if type(x) is not int or type(y) is not int:
            raise TypeError("lattice coordinates must be integers")
        self._store("x", x)
        self._store("y", y)

    def __sub__(self, other: "LatticePoint") -> "LatticePoint":
        return LatticePoint(self.x - other.x, self.y - other.y)

    def norm_sq(self) -> int:
        return self.x * self.x + self.y * self.y


class LatticePolygon(Record):
    """A polygon with vertices on the integer lattice, in boundary order.

    Consecutive vertices must be distinct.  Simplicity (no self
    intersection) is required by the point-counting operations.  A triangle
    or 4-gon with axis-parallel edges and nonzero area is always simple (see
    _require_countable); for anything else it is a documented caller
    obligation.
    """

    __slots__ = ("vertices",)

    def __init__(self, vertices: tuple[LatticePoint, ...]):
        vertices = tuple(vertices)
        if len(vertices) < 3:
            raise ValueError("a polygon needs at least 3 vertices")
        n = len(vertices)
        for i in range(n):
            if vertices[i] == vertices[(i + 1) % n]:
                raise ValueError("consecutive vertices must be distinct")
        self._store("vertices", vertices)

    @classmethod
    def from_coords(cls, coords) -> "LatticePolygon":
        return cls(tuple(LatticePoint(x, y) for x, y in coords))

    def edges(self):
        n = len(self.vertices)
        return [(self.vertices[i], self.vertices[(i + 1) % n]) for i in range(n)]


def twice_area(poly: LatticePolygon) -> int:
    """2*Area by the shoelace sum, orientation-independent.

    Total on all polygons; a degenerate (collinear) input simply yields 0.
    """
    s = 0
    for p, q in poly.edges():
        s += p.x * q.y - q.x * p.y
    return abs(s)


def squared_side_lengths(poly: LatticePolygon) -> list[int]:
    """Squared length of every edge, in vertex order."""
    return [(q - p).norm_sq() for p, q in poly.edges()]


def _require_countable(poly: LatticePolygon) -> int:
    """Validate the preconditions of the point-counting operations.

    Returns twice_area.  A nondegenerate triangle is automatically simple,
    and so is a nondegenerate 4-gon with axis-parallel edges: four nonzero
    axis-parallel edges that close up either alternate axes, which makes a
    rectangle, or else lie on one line or retrace an edge, which leaves
    twice_area 0.  Any other polygon relies on the documented simplicity
    precondition.
    """
    doubled = twice_area(poly)
    if doubled == 0:
        raise ValueError("degenerate polygon: twice_area is 0")
    return doubled


def boundary_point_count(poly: LatticePolygon) -> int:
    """Number of lattice points on the boundary: sum of gcd(|dx|, |dy|) over edges."""
    _require_countable(poly)
    return sum(gcd(abs(q.x - p.x), abs(q.y - p.y)) for p, q in poly.edges())


def interior_point_count(poly: LatticePolygon) -> int:
    """Number of interior lattice points via Pick: 2*Area = 2*I + B - 2."""
    doubled = _require_countable(poly)
    return (doubled - boundary_point_count(poly) + 2) // 2


def _require_positive_radicand(n: int):
    if type(n) is not int or n < 1:
        raise ValueError(f"radicand must be a positive integer, got {n!r}")


class RadicalSum(Record):
    """A value of the form sum(sqrt(a_i)), stored as the multiset of radicands.

    The represented value is rational exactly when every radicand is a
    perfect square, in which case it is the integer sum of the roots.
    """

    __slots__ = ("radicands",)

    def __init__(self, radicands: tuple[int, ...]):
        radicands = tuple(sorted(radicands))
        if not radicands:
            raise ValueError("a radical sum needs at least one radicand")
        for a in radicands:
            _require_positive_radicand(a)
        self._store("radicands", radicands)

    @classmethod
    def of(cls, *radicands: int) -> "RadicalSum":
        return cls(tuple(radicands))


def radical_sum_is_rational(r: RadicalSum) -> bool:
    """True iff the represented value is rational (every radicand a perfect square)."""
    return all(is_perfect_square(a) for a in r.radicands)


def two_radical_sum_is_rational(x: int, y: int) -> bool:
    """Decide rationality of sqrt(x) + sqrt(y) by conjugation/squaring.

    Squaring gives x + y + 2*sqrt(x*y).  The sum is rational exactly when
    x*y is a perfect square and x + y + 2*isqrt(x*y) is one as well: the
    conjugate (x - y)/(sqrt(x) + sqrt(y)) then forces both roots to be
    rational, hence integers.  This route never tests x or y individually,
    so it is an independent cross-check of radical_sum_is_rational.
    """
    _require_positive_radicand(x)
    _require_positive_radicand(y)
    if not is_perfect_square(x * y):
        return False
    return is_perfect_square(x + y + 2 * isqrt(x * y))


def three_radical_sum_is_rational(a: int, b: int, c: int) -> bool:
    """Decide rationality of sqrt(a) + sqrt(b) + sqrt(c) by the squaring identity.

    If the sum equals an integer d, squaring (sqrt(a) + sqrt(b))^2 =
    (d - sqrt(c))^2 rearranges to

        sqrt(a*b) + sqrt(d*d*c) = (d*d + c - a - b) / 2,

    a sum of two roots, which must itself pass the two-root test; peeling
    sqrt(c) off then leaves the two-root case for a and b.  Any integer the
    value could equal is bracketed by the floor roots, so only four
    candidates d need checking.
    """
    for n in (a, b, c):
        _require_positive_radicand(n)
    if not is_perfect_square(a * b):
        return False
    lo = isqrt(a) + isqrt(b) + isqrt(c)
    for d in range(lo, lo + 4):
        num = d * d + c - a - b
        if num < 0 or num % 2:
            continue
        if not is_perfect_square(d * d * c):
            continue
        if isqrt(a * b) + isqrt(d * d * c) != num // 2:
            continue
        # d*d*c being a perfect square with d >= 1 forces c to be one too
        remainder = d - isqrt(c)
        if remainder < 0 or not two_radical_sum_is_rational(a, b):
            continue
        if isqrt(a) + isqrt(b) == remainder:
            return True
    return False
