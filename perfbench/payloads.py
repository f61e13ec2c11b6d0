"""JSON payloads for the ``payload-large`` workload, with their oracles.

Every payload is built here from its shape alone, in plain Python, so the
expected answer comes from the shape and not from the program under test:

- a chain of m elements is a distributive lattice; the two-sided lift of a
  lattice L (L on the opens side, the two-element chain on the other) has
  one point per prime element of L, so m - 1 points for a chain and
  (a - 1) + (b - 1) for an a x b grid;
- a space with the discrete topology and a partial order has one point per
  carrier point: its irreducible closed sets are the singletons.

Element and point indices are relabelled by the seed, so each seed gives
other files and other index layouts for lattices of the same cost.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

LATTICE_SIZES = (16, 24, 32, 40, 48, 56, 64, 72)
# The grid of each size, as square as its factors allow.  The seed picks
# only its orientation (a x b or b x a) and the labels, so every seed
# gives the grids the same amount of work.
GRID_SHAPES = {16: (4, 4), 24: (4, 6), 32: (4, 8), 40: (5, 8), 48: (6, 8),
               56: (7, 8), 64: (8, 8), 72: (8, 9)}
# From element index 63 on, the lattice layer builds negative masks (the
# known defect in README.md).  ``adpt`` still answers for lifts of up to 64
# elements, so the workload runs it only there; ``defect_probe_set`` holds
# payloads on which it breaks.  (The lift of the 72-chain would also have
# 71 points, over the program's cap of 64 carrier points.)
MASK_BITS = 64


@dataclass(frozen=True)
class Payload:
    """One JSON document and what the CLI must answer for it."""

    name: str
    doc: dict
    validate: dict            # the exact document ``validate`` must write
    points: int | None        # points ``adpt`` must find; None: not run


def _relabel(rng: random.Random, m: int) -> list[int]:
    perm = list(range(m))
    rng.shuffle(perm)
    return perm


def _order_doc(pairs, perm) -> list[list[int]]:
    return sorted([perm[i], perm[j]] for i, j in pairs)


def chain_pairs(m: int):
    return [(i, j) for i in range(m) for j in range(i, m)]


def grid_pairs(a: int, b: int):
    return [(i * b + j, k * b + l) for i in range(a) for j in range(b)
            for k in range(i, a) for l in range(j, b)]


def lift_doc(leq: list[list[int]], m: int, bot: int, top: int) -> dict:
    """Two-sided lift of an m-element lattice: the four relations against
    the two-element chain {0 < 1}, as the ad-frame payload of the CLI."""
    elems = range(m)
    return {
        "omega": {"leq": leq},
        "ell": {"leq": [[0, 0], [0, 1], [1, 1]]},
        "tot": [[u, 1] for u in elems] + [[top, 0]],
        "con": [[u, 0] for u in elems] + [[bot, 1]],
        "fof": [[u, 0] for u in elems] + [[top, 1]],
        "cou": [[u, 1] for u in elems] + [[bot, 0]],
        "variant": "both",
    }


def _lattice_payloads(rng, name, pairs, m, primes):
    perm = _relabel(rng, m)
    leq = _order_doc(pairs, perm)
    lattice = Payload(name, {"leq": leq},
                      {"kind": "lattice", "size": m, "distributive": True,
                       "ok": True},
                      None)
    points = primes if m <= MASK_BITS else None
    lift = Payload(f"lift-{name}", lift_doc(leq, m, perm[0], perm[m - 1]),
                   {"kind": "adframe", "variant": "both", "omega": m,
                    "ell": 2, "ok": True, "failures": []},
                   points)
    return lattice, lift


def random_partial_order(rng: random.Random, n: int, density: float = 0.3):
    """Strict order pairs of a random partial order on n points."""
    perm = _relabel(rng, n)
    rows = [{x} for x in range(n)]
    for x in range(n):
        for y in range(x + 1, n):
            if rng.random() < density:
                rows[x].add(y)
    for x in reversed(range(n)):        # transitive closure, forward arrows
        for y in list(rows[x]):
            rows[x] |= rows[y]
    return sorted([perm[x], perm[y]] for x in range(n) for y in rows[x] if y != x)


def upset_count(n: int, pairs) -> int:
    ups = [1 << x for x in range(n)]
    for x, y in pairs:
        ups[x] |= 1 << y
    return sum(1 for s in range(1 << n)
               if all(ups[x] & ~s == 0 for x in range(n) if s >> x & 1))


def discrete_space(name: str, n: int, pairs) -> Payload:
    opens = [[p for p in range(n) if s >> p & 1] for s in range(1 << n)]
    return Payload(name, {"points": n, "opens": opens, "leq": pairs},
                   {"kind": "space", "points": n, "opens": 1 << n, "ok": True},
                   n)


def payload_set(seed: int) -> list[Payload]:
    """The payloads of one pass of ``payload-large``."""
    rng = random.Random(f"payload-large|{seed}")
    out = []
    for m in LATTICE_SIZES:
        out += _lattice_payloads(rng, f"chain{m}", chain_pairs(m), m, m - 1)
        a, b = GRID_SHAPES[m]
        if rng.random() < 0.5:
            a, b = b, a
        out += _lattice_payloads(rng, f"grid{a}x{b}", grid_pairs(a, b), m,
                                 (a - 1) + (b - 1))
    out.append(discrete_space("discrete5", 5, []))
    out.append(replace(discrete_space("discrete6", 6, []), points=None))
    for k in range(2):
        while True:
            pairs = random_partial_order(rng, 6)
            if upset_count(6, pairs) < MASK_BITS:
                break
        out.append(discrete_space(f"poset6-{k}", 6, pairs))
    return out


def defect_probe_set(seed: int) -> list[Payload]:
    """Payloads whose ``adpt`` the mask defect breaks today: the lift of a
    lattice with more than 64 elements, and a space whose up-set lattice
    has 64 elements.  Both have small, known spectra."""
    rng = random.Random(f"payload-defect|{seed}")
    a, b = GRID_SHAPES[72]
    if rng.random() < 0.5:
        a, b = b, a
    m = a * b
    perm = _relabel(rng, m)
    leq = _order_doc(grid_pairs(a, b), perm)
    lift = Payload(f"lift-grid{a}x{b}", lift_doc(leq, m, perm[0], perm[m - 1]),
                   {}, (a - 1) + (b - 1))
    return [lift, discrete_space("discrete6", 6, [])]
