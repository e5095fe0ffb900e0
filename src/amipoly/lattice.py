"""Exact integer geometry on the Z^2 lattice.

Everything here stays in integer arithmetic.  Areas are carried around as
twice-area (the shoelace sum of lattice vertices is always an integer),
lattice point counts come from the gcd and Pick identities, and side
lengths are kept as squared lengths / radicands so that irrational values
are never materialised as floats.  crossed_pairs is the one (area,
perimeter) join, which both amicable matchers call.
"""

import operator
from math import gcd, isqrt


def is_perfect_square(n: int) -> bool:
    """True iff n is the square of an integer.  Exact, no floating point."""
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


class CertificateError(ValueError):
    """A pair, shape, area or placement certificate did not hold when checked."""


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
    a bare tuple.  Assigning an attribute raises AttributeError.  A plain
    record is declared by its __slots__ alone and takes its fields
    positionally, in slot order; a class that checks its fields defines
    __init__ and stores each field with self._store(name, value).  Plain
    classes, not dataclasses: importing dataclasses and generating the
    classes took longer than most commands' compute.
    """

    __slots__ = ()
    _store = object.__setattr__

    def __init_subclass__(cls):
        # The fields as a tuple; a lone field comes bare, which orders and
        # hashes alike within a class.
        cls._key = operator.attrgetter(*cls.__slots__)

    def __init__(self, *fields):
        if len(fields) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields, got {len(fields)}")
        for name, value in zip(self.__slots__, fields):
            self._store(name, value)

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


def crossed_pairs(items: list, keys: list[tuple[int, int]]) -> list[tuple]:
    """The pairs (items[i], items[j]), i < j, whose keys cross, in order of (i, j).

    keys[i] is items[i]'s (area, perimeter).  Positions are indexed by key and
    probed with each reversed key, so the join is linear in the items.  An
    item repeated at a second position pairs with its copy when its key
    crosses itself, as an equable shape's does.
    """
    at: dict[tuple[int, int], list[int]] = {}
    for i, key in enumerate(keys):
        at.setdefault(key, []).append(i)
    return [(items[i], items[j]) for i, (a, p) in enumerate(keys) for j in at.get((p, a), ()) if i < j]


class LatticePolygon(Record):
    """A polygon with vertices on the integer lattice, in boundary order.

    Each vertex is an (x, y) pair of Python ints, so arithmetic is exact at
    any magnitude.  Consecutive vertices must be distinct.  Simplicity (no
    self intersection) is required by the point-counting operations, which
    reject twice_area 0.  A nondegenerate triangle is always simple, and so
    is a nondegenerate 4-gon with axis-parallel edges: four nonzero
    axis-parallel edges that close up either alternate axes, which makes a
    rectangle, or else lie on one line or retrace an edge, which leaves
    twice_area 0.  Any other polygon relies on the documented simplicity
    precondition.
    """

    __slots__ = ("vertices",)

    def __init__(self, vertices):
        vertices = tuple((x, y) for x, y in vertices)
        if any(type(n) is not int for v in vertices for n in v):
            raise TypeError("lattice coordinates must be integers")
        if len(vertices) < 3:
            raise ValueError("a polygon needs at least 3 vertices")
        self._store("vertices", vertices)
        if any(p == q for p, q in self.edges()):
            raise ValueError("consecutive vertices must be distinct")

    @classmethod
    def from_coords(cls, coords) -> "LatticePolygon":
        return cls(coords)

    def edges(self):
        n = len(self.vertices)
        return [(self.vertices[i], self.vertices[(i + 1) % n]) for i in range(n)]

    def squared_sides(self) -> list[int]:
        """Squared length of every edge, in vertex order."""
        return [(qx - px) ** 2 + (qy - py) ** 2 for (px, py), (qx, qy) in self.edges()]

    def twice_area(self) -> int:
        return twice_area(self)


def twice_area(poly: LatticePolygon) -> int:
    """2*Area by the shoelace sum, orientation-independent.

    Total on all polygons; a degenerate (collinear) input simply yields 0.
    """
    s = 0
    for (px, py), (qx, qy) in poly.edges():
        s += px * qy - qx * py
    return abs(s)


def boundary_point_count(poly: LatticePolygon) -> int:
    """Number of lattice points on the boundary: sum of gcd(|dx|, |dy|) over edges."""
    if twice_area(poly) == 0:
        raise ValueError("degenerate polygon: twice_area is 0")
    return sum(gcd(abs(qx - px), abs(qy - py)) for (px, py), (qx, qy) in poly.edges())


def interior_point_count(poly: LatticePolygon) -> int:
    """Number of interior lattice points via Pick: 2*Area = 2*I + B - 2."""
    return (twice_area(poly) - boundary_point_count(poly) + 2) // 2


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
    """Decide rationality of sqrt(a) + sqrt(b) + sqrt(c) by two tests.

    If the sum equals a rational d, squaring (sqrt(a) + sqrt(b))^2 =
    (d - sqrt(c))^2 rearranges to

        sqrt(a*b) + sqrt(d*d*c) = (d*d + c - a - b) / 2,

    a positive rational sum of two roots.  Their difference is
    (a*b - d*d*c) over that sum, so each root is rational, and so is
    sqrt(c): the integer c is a square.  The two-root test then decides
    sqrt(a) + sqrt(b) = d - sqrt(c); conversely a square c and a rational
    sqrt(a) + sqrt(b) make the sum rational.
    """
    for n in (a, b, c):
        _require_positive_radicand(n)
    return is_perfect_square(c) and two_radical_sum_is_rational(a, b)
