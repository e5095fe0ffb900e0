"""Triangles with integer sides and integer area, and their lattice placements.

Enumeration walks the tangent lengths x <= y <= z (the semiperimeter s
less each side), where Heron reads Area^2 = s*x*y*z: for each s and least
length x it writes s*x = m*j^2 with m squarefree, and the area is an
integer exactly when y*z = m*t^2, which one isqrt per t decides.  The
walk's work grows about as the square of the perimeter, where a scan over
side triples grows as its cube.  Amicable partners are matched by
lattice.crossed_pairs, the (area, perimeter) join.  Lattice embeddings
come from the Gaussian factorisation of the longest side c, never of c^2:
each lattice point at distance c from the origin fixes the third vertex
up to a reflection, and it is kept when its coordinates are integers.
"""

from math import gcd, isqrt

from .lattice import CertificateError, LatticePolygon, Record, crossed_pairs


class TriangleSides(Record):
    """Sides of a strict triangle, stored as a <= b <= c whatever the order given."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int):
        if type(a) is not int or type(b) is not int or type(c) is not int:
            raise TypeError("triangle sides must be integers")
        if not a <= b <= c:  # the heronian walk's sides come sorted
            a, b, c = sorted((a, b, c))
        if a < 1:
            raise ValueError(f"sides must satisfy 1 <= a <= b <= c, got {a}x{b}x{c}")
        if a + b <= c:
            raise ValueError(f"triangle inequality fails for {a}x{b}x{c}")
        self._store("a", a)
        self._store("b", b)
        self._store("c", c)

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
        if type(area) is not int:
            raise TypeError("a heronian area must be an integer")
        if area < 1 or 16 * area * area != sides.sixteen_area_sq():
            raise CertificateError(f"area {area} is not certified for sides {sides}")
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


def _square_classes(n_max: int) -> list[tuple[int, int]]:
    """(m, k) with n = m * k^2 and m squarefree, for each 0 <= n <= n_max.

    k^2 is the largest square dividing n: a sieve over k = 2, 3, ... marks
    every multiple of k^2, so the last mark on n is its largest square
    divisor.  m is then n divided by it, the squarefree part of n.
    """
    largest = [1] * (n_max + 1)
    k = 2
    while k * k <= n_max:
        largest[k * k :: k * k] = [k] * (n_max // (k * k))
        k += 1
    return [(n // (k * k), k) for n, k in enumerate(largest)]


def enumerate_heronian(max_perimeter: int) -> list[HeronianTriangle]:
    """All heronian triangles with perimeter <= max_perimeter, sorted by (perimeter, a, b).

    The walk runs over tangent lengths and certifies a record only for hits.
    A heronian perimeter is even, so the semiperimeter s and the tangent
    lengths x <= y <= z (s less each side, summing to s) are integers; the
    sides are x + y, x + z and y + z, and Heron reads A^2 = s*x*y*z.  For
    each s <= max_perimeter // 2 and x <= s // 3, write s*x = m*j^2 with m
    squarefree, taken from the square classes of s and x: with s = ms*ks^2,
    x = mx*kx^2 and g = gcd(ms, mx), m = ms*mx/g^2 and j = g*ks*kx.  Then A
    is an integer exactly when y*z = m*t^2, and A = m*j*t.  With r = y + z
    and u = z - y, that is r^2 - 4*m*t^2 = u^2, so u has the parity of r.
    y*(r - y) grows with y up to r/2, so y >= x is m*t^2 >= x*(r - x), and
    u >= 0 is 4*m*t^2 <= r^2: t runs between those bounds and one isqrt per
    t tests for u.  Each triangle has one (s, x, t), so it is found once.
    """
    if max_perimeter < 3:
        raise ValueError(f"max_perimeter must be at least 3, got {max_perimeter}")
    classes = _square_classes(max_perimeter // 2)
    found = []
    for s in range(3, max_perimeter // 2 + 1):
        ms, ks = classes[s]
        for x in range(1, s // 3 + 1):
            mx, kx = classes[x]
            g = gcd(ms, mx)
            m = ms * mx // (g * g)
            r = s - x
            r_sq, m4 = r * r, 4 * m
            for t in range(isqrt((x * (r - x) - 1) // m) + 1, isqrt(r_sq // m4) + 1):
                v = r_sq - m4 * t * t
                u = isqrt(v)
                if u * u == v:
                    y = (r - u) // 2
                    found.append(HeronianTriangle(TriangleSides(x + y, s - y, r), m * g * ks * kx * t))
    found.sort(key=lambda h: (h.perimeter(), h.sides.a, h.sides.b))
    return found


def match_amicable_triangles(
    triangles: list[HeronianTriangle],
) -> list[tuple[HeronianTriangle, HeronianTriangle]]:
    """Sorted (lesser, greater) pairs of distinct triangles in the list with crossed
    area and perimeter, each pair once.

    The join is lattice.crossed_pairs.  A triangle never pairs with itself,
    an equable one or one listed twice included, and a pair found twice is
    kept once.  assemble_report re-checks every pair's cross equalities.
    """
    keys = [(h.area, h.perimeter()) for h in triangles]
    return sorted({(min(g, h), max(g, h)) for g, h in crossed_pairs(triangles, keys) if g != h})


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


def sum_two_squares_reps(c: int) -> list[tuple[int, int]]:
    """The representations of c^2, for c >= 1: each (x, y) with x^2 + y^2 = c^2, once.

    They are the Gaussian integers of norm c^2, built from the factorisation
    of c, so trial division stops at sqrt(c).  Gaussian integers factor
    uniquely up to the units 1, i, -1 and -i, so each is a unit times one
    factor of norm p^(2e) for each p^e exactly dividing c.  A prime
    p = 1 (mod 4) splits as pi * conj(pi), two primes not associate, and its
    factors of norm p^(2e), no two associate, are pi^j * conj(pi)^(2e - j) for
    j = 0..2e: p^e, and p^(e - k) times pi^(2k) or conj(pi)^(2k) for k = 1..e.
    Any other prime's one such factor is p^e times a unit: a prime
    p = 3 (mod 4) stays prime, and 2 = -i * (1 + i)^2 with 1 + i prime.  The
    four units absorb those units, so one factor per prime times each unit
    gives each Gaussian integer of norm c^2 once.

    pi = x + y*i comes from p = x^2 + y^2, found by Brillhart's method (Math.
    Comp. 26, 1972), not by a search over x.  Half the units mod p are
    non-residues; Euler's criterion, m^((p - 1)/2) = -1 (mod p), finds the
    least, m (at most 41 for every such p below 2 * 10^6), and then
    t = m^((p - 1)/4) has t^2 = -1 (mod p) and 0 < t < p.  Euclid's
    algorithm on r_0 = p and r_1 = t, with q_k = r_(k-1) // r_k and
    r_(k+1) = r_(k-1) - q_k*r_k, takes O(log p) steps and carries u_0 = 0,
    u_1 = 1 and u_(k+1) = u_(k-1) - q_k*u_k.  By induction r_k = u_k*t
    (mod p), the u_k alternate in sign, and r_(k-1)*|u_k| + r_k*|u_(k-1)|
    stays p.  Let r_k be the first remainder with r_k^2 < p.  It is at least
    1, as Euclid reaches gcd(p, t) = 1 before 0, and k >= 1 with
    r_(k-1)^2 > p, as p is no square, so |u_k| <= p/r_(k-1) < sqrt(p).  Then
    r_k^2 + u_k^2 = u_k^2*(t^2 + 1) = 0 (mod p) lies strictly between 0 and
    2p: it is p, and p - r_k^2 is the square u_k^2.
    """
    if c < 1:
        raise ValueError(f"c must be at least 1, got {c}")
    gaussians = [(1, 0)]
    for p, e in _factor(c):
        choices = [(p**e, 0)]
        if p % 4 == 1:
            m = 2
            while pow(m, (p - 1) // 2, p) != p - 1:
                m += 1
            y, x = p, pow(m, (p - 1) // 4, p)
            while x * x > p:
                y, x = x, y % x
            y = isqrt(p - x * x)
            pi_sq, w = (x * x - y * y, 2 * x * y), (1, 0)
            for k in range(1, e + 1):
                w, r = _gaussian_mul(w, pi_sq), p ** (e - k)
                choices += [(r * w[0], r * w[1]), (r * w[0], -r * w[1])]
        gaussians = [_gaussian_mul(g, h) for g in gaussians for h in choices]
    return [(x, y) for u, v in gaussians for x, y in ((u, v), (-v, u), (-u, -v), (v, -u))]


def embed_triangle(t: HeronianTriangle) -> LatticePolygon:
    """Place t on the lattice as the triangle (v0, v1, v2), with v0 at the origin and
    (v1, v2) least in both vertex orders.

    The origin vertex carries the two longest sides.  The candidates are
    every (p, q) with |p| = c, |q| = b and |p - q| = a.  p ranges over
    sum_two_squares_reps(c), each lattice point with |p| = c once, and for
    each p the only such q are q = (D*p +- T*p_perp) / c^2, where
    D = (b^2 + c^2 - a^2)/2 = p.q, T = 2*area = |p x q| and
    p_perp = (-py, px) for p = (px, py); a candidate is kept when both
    coordinates of q divide exactly.  D is an integer because a heronian
    perimeter is even.  The placement returned has the least key (*v1, *v2)
    over the candidates (p, q) and their swaps (q, p).  Each of the 8 lattice
    symmetries is an integer orthogonal map, so it keeps the three lengths
    and integral coordinates and maps the candidates onto themselves: the
    least candidate is already least over the mirror images of every
    candidate, so no orbit needs to be taken.
    Heronian triangles always embed, so a search that finds no candidate
    has met a fault, such as an empty list of representations of c^2, and
    raises CertificateError.

    The placement's squared sides are checked against t's before it is
    returned, and a mismatch raises CertificateError.  Every candidate
    passes: |p|^2 = c^2 makes |q|^2 = (D^2 + T^2)/c^2, which is b^2 by
    Lagrange's identity (p.q)^2 + |p x q|^2 = |p|^2*|q|^2, as Heron's
    formula reads D^2 + T^2 = b^2*c^2; and |p - q|^2 = c^2 + b^2 - 2*D = a^2.
    So the check stays only to catch faults, such as a representation of
    c^2 that is off the circle of radius c.
    """
    s = t.sides
    c_sq = s.c * s.c
    dot = (s.b * s.b + c_sq - s.a * s.a) // 2
    keys = []
    for px, py in sum_two_squares_reps(s.c):
        for cross in (2 * t.area, -2 * t.area):
            # the two numerators' squares sum to (b*c^2)^2, so c^2 divides
            # the second whenever it divides the first
            qx, rx = divmod(dot * px - cross * py, c_sq)
            qy = (dot * py + cross * px) // c_sq
            if rx == 0:
                keys.append(min((px, py, qx, qy), (qx, qy, px, py)))
    if not keys:
        raise CertificateError(f"no lattice placement found for {s}")
    best = min(keys)
    placed = LatticePolygon(((0, 0), best[:2], best[2:]))
    if sorted(placed.squared_sides()) != [s.a * s.a, s.b * s.b, c_sq]:
        raise CertificateError(f"embedding does not realise the sides {s}")
    return placed
