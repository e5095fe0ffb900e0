"""Seeded op sequences for the benchmark workloads.

An op is one ``python -m amipoly ...`` invocation.  The program receives only
the argv; the op keeps the parameters the checker needs.

Each workload yields an endless sequence of blocks (see blocks()).  The
seed sets the order of the ops in a block and the exact sizes, within a
narrow band around fixed sizes, so the argv sequence differs from seed to
seed while the mix of op costs does not.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = [
    "Op",
    "WORKLOADS",
    "blocks",
    "ops",
    "signed_reps_of_square",
]


@dataclass(frozen=True)
class Op:
    kind: str  # "verify" | "tri-search" | "rect-oracle" | "tri-embed"
    args: tuple[str, ...]  # argv after `python -m amipoly`
    params: tuple[int, ...] = ()


SEARCH_PERIMETERS = (150, 300)  # tri search --max-perimeter range
ORACLE_SIDES = (200, 600)  # rect oracle --max-side range
SEARCH_SLOTS = 4  # sizes per family per search block
JITTER = 0.005  # seeded relative change of each size

# Scale classes.  "few-reps" scales have no prime factor = 1 (mod 4), so the
# number of sum-of-two-squares representations stays that of the primitive
# triangle and cost follows side length.  "many-reps" scales are products of
# primes = 1 (mod 4), so the representation count multiplies the cost.
FEW_REPS = (2, 3, 7, 11)
MANY_REPS = (5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97, 101, 109, 113)
# One embed block: (primitive heronian triangle, scale primes, estimated
# seconds).  The costs are evenly spaced and the count is odd, so the median
# of whole blocks falls inside one slot, a "few-reps" one.
EMBED_SLOTS = (
    ((3, 4, 5), FEW_REPS, 0.15),
    ((13, 14, 15), MANY_REPS, 0.275),
    ((13, 14, 15), FEW_REPS, 0.4),
    ((9, 10, 17), MANY_REPS, 0.525),
    ((3, 25, 26), FEW_REPS, 0.65),
    ((3, 4, 5), MANY_REPS, 0.775),
    ((9, 10, 17), FEW_REPS, 0.9),
    ((5, 12, 13), MANY_REPS, 1.025),
    ((5, 5, 6), FEW_REPS, 1.15),
)
EMBED_CHOICE_BAND = 0.03  # a slot picks among scales this close to its cost

# Cost model of one embed op, fitted on a 2-core Xeon: start-up, a per-candidate
# cost of the sum-of-two-squares scan (higher once n no longer fits one 30-bit
# int digit), and a cost per (c^2, b^2) representation pair tried.
_STARTUP_S = 0.1
_SCAN_SMALL_S = 0.15e-6
_SCAN_LARGE_S = 0.25e-6
_PAIR_S = 5e-6


def _factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def signed_reps_of_square(m: int) -> int:
    """Lattice points (x, y) with x^2 + y^2 = m^2, from the factorisation of m.

    r2(m^2) = 4 * prod(2e + 1) over the primes p = 1 (mod 4) with p^e || m.
    """
    count = 4
    for p, e in _factor(m).items():
        if p % 4 == 1:
            count *= 2 * e + 1
    return count


def _smooth_numbers(primes: tuple[int, ...], limit: int) -> list[int]:
    nums = {1}
    for p in primes:
        nums |= {n * p**e for n in nums for e in range(1, 64) if n * p**e <= limit}
    return sorted(n for n in nums if n > 1)


def _scan_cost(m: int) -> float:
    return (m + 1) * (_SCAN_SMALL_S if m * m < 2**30 else _SCAN_LARGE_S)


def _embed_cost(tri: tuple[int, int, int], k: int) -> float:
    """Estimated wall seconds of `tri embed` on tri scaled by k.

    The embedding scans the representations of c^2 once, and those of b^2
    once per signed representation of c^2.
    """
    _, b, c = (s * k for s in tri)
    reps_c, reps_b = signed_reps_of_square(c), signed_reps_of_square(b)
    return _STARTUP_S + _scan_cost(c) + reps_c * (_scan_cost(b) + reps_b * _PAIR_S)


def _scales(tri: tuple[int, int, int], primes: tuple[int, ...], target: float) -> list[int]:
    """Scales k whose estimated cost is within EMBED_CHOICE_BAND of target.

    All give b*k and c*k the representation counts of the nearest one, so
    their costs differ only with k.
    """
    def reps(k):
        return tuple(signed_reps_of_square(s * k) for s in tri[1:])

    ks = _smooth_numbers(primes, 10**6)
    nearest = min(ks, key=lambda k: abs(_embed_cost(tri, k) - target))
    return [
        k for k in ks
        if abs(_embed_cost(tri, k) - target) <= EMBED_CHOICE_BAND * target and reps(k) == reps(nearest)
    ] or [nearest]


def _jitter(rng: random.Random, size: float, lo: int, hi: int) -> int:
    return min(max(round(size * (1 + rng.uniform(-JITTER, JITTER))), lo), hi)


def _verify_blocks(rng: random.Random):
    while True:
        formats = ["json", "csv", "table"]
        rng.shuffle(formats)
        yield [Op("verify", ("verify", "all", "--format", f)) for f in formats]


def _search_blocks(rng: random.Random):
    (p_lo, p_hi), (n_lo, n_hi) = SEARCH_PERIMETERS, ORACLE_SIDES
    steps = [i / (SEARCH_SLOTS - 1) for i in range(SEARCH_SLOTS)]
    while True:
        tri = [_jitter(rng, p_lo + q * (p_hi - p_lo), p_lo, p_hi) for q in steps]
        rect = [_jitter(rng, n_lo + q * (n_hi - n_lo), n_lo, n_hi) for q in steps]
        rng.shuffle(tri)
        rng.shuffle(rect)
        block = []
        for p, n in zip(tri, rect):
            block.append(Op("tri-search", ("tri", "search", "--max-perimeter", str(p), "--format", "json"), (p,)))
            block.append(Op("rect-oracle", ("rect", "oracle", "--max-side", str(n), "--format", "json"), (n,)))
        yield block


def _embed_blocks(rng: random.Random):
    slots = [(tri, _scales(tri, primes, cost)) for tri, primes, cost in EMBED_SLOTS]
    while True:
        block = []
        for tri, scales in slots:
            k = rng.choice(scales)
            sides = [s * k for s in tri]
            rng.shuffle(sides)
            block.append(Op("tri-embed", ("tri", "embed", *map(str, sides), "--format", "json"), tuple(sides)))
        rng.shuffle(block)
        yield block


WORKLOADS = {
    "verify": _verify_blocks,
    "search": _search_blocks,
    "embed": _embed_blocks,
}


def blocks(workload: str, seed: int):
    """The endless block sequence of a workload; the same seed gives the same blocks.

    A block holds every size of the workload once, in a seeded order and
    with seeded sizes, so runs of whole blocks see the same mix of op costs
    and their medians move with the program, not with the seed.
    """
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def ops(workload: str, seed: int):
    """The ops of blocks(workload, seed), one after another."""
    for block in blocks(workload, seed):
        yield from block
