"""Naive set-based reference implementations shared across the suite.

Everything here recomputes results from the raw definitions on explicit
point sets, independently of the bitmask machinery under test.
"""

from adframe import FinPreTopSpace, generate_random
from adframe.bits import bits_of, mask_of


def pts(mask):
    return frozenset(bits_of(mask))


def leq_pairs(space):
    return {(x, y) for x in range(space.n) for y in bits_of(space.leq[x])}


def naive_closure(space, subset):
    want = pts(subset)
    everything = set(range(space.n))
    out = set(everything)
    for u in space.opens:
        c = everything - pts(u)
        if want <= c:
            out &= c
    return mask_of(out)


def naive_interior(space, subset):
    inside = pts(subset)
    out = set()
    for u in space.opens:
        if pts(u) <= inside:
            out |= pts(u)
    return mask_of(out)


def naive_upclose(space, subset):
    order = leq_pairs(space)
    return mask_of({y for (x, y) in order if subset >> x & 1})


def naive_downclose(space, subset):
    order = leq_pairs(space)
    return mask_of({x for (x, y) in order if subset >> y & 1})


def naive_specialization(space):
    rows = []
    for x in range(space.n):
        row = {y for y in range(space.n)
               if all(u >> y & 1 for u in space.opens if u >> x & 1)}
        rows.append(mask_of(row))
    return tuple(rows)


def naive_upsets(space):
    order = leq_pairs(space)
    fam = []
    for s in range(1 << space.n):
        if all(s >> y & 1 for (x, y) in order if s >> x & 1):
            fam.append(s)
    return set(fam)


def naive_irreducible_closeds(space):
    closed = set(space.closed_sets())
    out = set()
    for c in closed:
        if c == 0:
            continue
        if not any(pts(c) <= pts(c1 | c2)
                   and not pts(c) <= pts(c1) and not pts(c) <= pts(c2)
                   for c1 in closed for c2 in closed):
            out.add(c)
    return out


# canonical small spaces used by several files
SIERPINSKI = FinPreTopSpace(2, (0, 2, 3), (1, 3))      # open {1}; order 1 <= 0
DISCRETE2 = FinPreTopSpace(2, (0, 1, 2, 3), (1, 2))
INDISCRETE2_DISCRETE_ORDER = FinPreTopSpace(2, (0, 3), (1, 2))
CHAIN3 = FinPreTopSpace(3, (0, 4, 6, 7), (7, 6, 4))    # opens are up-sets of 0<1<2


def idempotence_frames():
    """The 500 seeded random frames of the idempotence acceptance gate."""
    return [generate_random("adframe", {"family": ("ado", "ind")[seed % 2]},
                            seed=seed).payload
            for seed in range(500)]
