"""Independent brute-force oracles used to cross-check the library.

Everything here works from first principles (point-by-point scans,
definitional all-pairs matching) and deliberately shares no code with the
implementation under test.
"""

from math import isqrt


def on_segment(px, py, ax, ay, bx, by):
    """True iff (px, py) lies on the closed segment from (ax, ay) to (bx, by)."""
    if (bx - ax) * (py - ay) - (by - ay) * (px - ax) != 0:
        return False
    return min(ax, bx) <= px <= max(ax, bx) and min(ay, by) <= py <= max(ay, by)


def direct_boundary_count(vertices):
    """Count lattice points on the polygon boundary by scanning the bounding box."""
    xs = [v[0] for v in vertices]
    ys = [v[1] for v in vertices]
    n = len(vertices)
    count = 0
    for px in range(min(xs), max(xs) + 1):
        for py in range(min(ys), max(ys) + 1):
            if any(
                on_segment(px, py, *vertices[i], *vertices[(i + 1) % n])
                for i in range(n)
            ):
                count += 1
    return count


def _sign(v):
    return (v > 0) - (v < 0)


def strictly_inside_triangle(px, py, t):
    (ax, ay), (bx, by), (cx, cy) = t
    d1 = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
    d2 = (cx - bx) * (py - by) - (cy - by) * (px - bx)
    d3 = (ax - cx) * (py - cy) - (ay - cy) * (px - cx)
    return _sign(d1) == _sign(d2) == _sign(d3) != 0


def direct_interior_count(triangle):
    """Count lattice points strictly inside a (nondegenerate) triangle."""
    xs = [v[0] for v in triangle]
    ys = [v[1] for v in triangle]
    return sum(
        1
        for px in range(min(xs), max(xs) + 1)
        for py in range(min(ys), max(ys) + 1)
        if strictly_inside_triangle(px, py, triangle)
    )


def naive_amicable_scan(fingerprints):
    """Definitional O(n^2) matcher over (area, perimeter, shape_id) fingerprints."""
    pairs = set()
    for i, s in enumerate(fingerprints):
        for t in fingerprints[i + 1 :]:
            if s.shape_id == t.shape_id:
                continue
            if s.area == t.perimeter and t.area == s.perimeter:
                pairs.add((s, t) if s.shape_id < t.shape_id else (t, s))
    return sorted(pairs, key=lambda p: (p[0].shape_id, p[1].shape_id))


def floor_sqrt_scaled(n, digits=40):
    """floor(sqrt(n) * 10**digits) in exact integer arithmetic."""
    scale = 10**digits
    return isqrt(n * scale * scale)


def naive_heronian_triples(max_perimeter):
    """{(a, b, c, area)} for every integer triangle of perimeter <= max_perimeter
    with integer area: all canonical triples a <= b <= c < a + b, Heron's
    formula cleared of fractions, no parity or other pruning."""
    found = set()
    for a in range(1, max_perimeter + 1):
        for b in range(a, max_perimeter - a + 1):
            for c in range(b, min(a + b, max_perimeter - a - b + 1)):
                v = (a + b + c) * (-a + b + c) * (a - b + c) * (a + b - c)
                root = isqrt(v)
                if root * root == v and root % 4 == 0:
                    found.add((a, b, c, root // 4))
    return found


def naive_equable_triangles(max_perimeter):
    """(a, b, c) of every triangle in naive_heronian_triples(max_perimeter) whose
    area equals its perimeter, sorted by (perimeter, a, b)."""
    return sorted(
        ((a, b, c) for a, b, c, area in naive_heronian_triples(max_perimeter) if area == a + b + c),
        key=lambda t: (sum(t), t),
    )


def naive_rect_pairs(max_side):
    """Sorted ((a, b), (x, y)) pairs of distinct rectangles with sides <= max_side
    whose areas and perimeters cross, from a join over every rectangle."""
    rects = [(a, b) for a in range(1, max_side + 1) for b in range(a, max_side + 1)]
    by_key = {}
    for a, b in rects:
        by_key.setdefault((a * b, 2 * (a + b)), []).append((a, b))
    pairs = set()
    for a, b in rects:
        for t in by_key.get((2 * (a + b), a * b), ()):
            if t != (a, b):
                pairs.add((min((a, b), t), max((a, b), t)))
    return sorted(pairs)


def naive_equable_rectangles(max_side):
    """Sorted (a, b) with a <= b <= max_side and a*b = 2*(a + b), from a scan of
    every rectangle."""
    return [
        (a, b)
        for a in range(1, max_side + 1)
        for b in range(a, max_side + 1)
        if a * b == 2 * (a + b)
    ]


def naive_two_squares(n):
    """All (p, q) with p, q >= 0 and p^2 + q^2 = n, sorted by p, by scanning p."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    reps = []
    for p in range(isqrt(n) + 1):
        rest = n - p * p
        q = isqrt(rest)
        if q * q == rest:
            reps.append((p, q))
    return reps


def signed_square_sums(n):
    """Sorted (x, y) of any signs with x^2 + y^2 = n: naive_two_squares sign-completed."""
    return sorted(
        {(sx * p, sy * q) for p, q in naive_two_squares(n) for sx in (1, -1) for sy in (1, -1)}
    )


def naive_embedding_candidates(a, b, c):
    """Every ((px, py), (qx, qy)) with |p| = c, |q| = b and |p - q| = a, from a
    pairwise scan over the sign-completed representations of c^2 and b^2."""
    qs = signed_square_sums(b * b)
    return [
        (p, q)
        for p in signed_square_sums(c * c)
        for q in qs
        if (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 == a * a
    ]


# The 8 symmetries of the integer lattice, written out: (+-x, +-y) and (+-y, +-x).
LATTICE_MAPS = (
    lambda x, y: (x, y),
    lambda x, y: (-x, y),
    lambda x, y: (x, -y),
    lambda x, y: (-x, -y),
    lambda x, y: (y, x),
    lambda x, y: (-y, x),
    lambda x, y: (y, -x),
    lambda x, y: (-y, -x),
)


def naive_canonical_placement(candidates):
    """The least ((x1, y1), (x2, y2)) over every image of every candidate
    ((px, py), (qx, qy)) under LATTICE_MAPS, in both vertex orders."""
    return min(
        pair
        for p, q in candidates
        for f in LATTICE_MAPS
        for pair in ((f(*p), f(*q)), (f(*q), f(*p)))
    )


def naive_small_side_candidates(max_side):
    """Sorted short sides a of every rectangle a <= b <= max_side with area <= perimeter
    that has a partner x <= y, distinct from it, with x*y = 2(a + b) and
    2(x + y) = a*b; every rectangle is scanned and partners are found by divisors."""
    shorts = set()
    for a in range(1, max_side + 1):
        for b in range(a, max_side + 1):
            if a * b > 2 * (a + b):
                continue
            area = 2 * (a + b)
            for x in range(1, isqrt(area) + 1):
                if area % x == 0 and 2 * (x + area // x) == a * b and (x, area // x) != (a, b):
                    shorts.add(a)
    return sorted(shorts)
