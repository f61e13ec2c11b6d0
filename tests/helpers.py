"""Naive set-based reference implementations shared across the suite.

Everything here recomputes results from the raw definitions on explicit
point sets, independently of the bitmask machinery under test.
"""

import functools
import itertools

from dataclasses import replace
from typing import Callable, Iterable

from adframe import (AdPoint, BudgetExceeded, FinLattice, FinPreTopSpace,
                     FinTopSpace, InternalCheckError, NotContinuous, Variant,
                     generate_random, lattice_from_labels, upset_family,
                     validate_adframe)
from adframe.bits import bits_of, canonical_subsets, full_mask, is_subset, low_bit
from adframe.duality import unit_points
from adframe.finord import (columns, continuity_failure, monotonicity_failure,
                            preimage)
from adframe.frames import (AdFrame, AdFrameHom, AxiomCheck, bounded_lattice_homs,
                            preserves_relations, rel_pairs)
from adframe.theorems import DEFAULT_ISO_BUDGET, Generated, _rng, preorder_iso


def mask_of(points: Iterable[int]) -> int:
    m = 0
    for p in points:
        m |= 1 << p
    return m


def pts(mask):
    return frozenset(bits_of(mask))


def closed_sets(space) -> tuple[int, ...]:
    """Complements of the opens, in canonical order."""
    full = full_mask(space.n)
    return canonical_subsets(full & ~u for u in space.opens)


def identity_hom(frame: AdFrame) -> AdFrameHom:
    return AdFrameHom(frame, frame,
                      tuple(range(frame.omega.m)), tuple(range(frame.ell.m)))


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
    closed = set(closed_sets(space))
    out = set()
    for c in closed:
        if c == 0:
            continue
        if not any(pts(c) <= pts(c1 | c2)
                   and not pts(c) <= pts(c1) and not pts(c) <= pts(c2)
                   for c1 in closed for c2 in closed):
            out.add(c)
    return out


def pair_ok(space, c, x, variant):
    """Whether the closed set c pairs with point x under ``variant``: for
    the Up side c meets the down-cone of x and lies inside the closure of
    its up-cone; for the Down side the same with the cones swapped."""
    down = pts(naive_downclose(space, 1 << x))
    up = pts(naive_upclose(space, 1 << x))
    sides = []
    if variant.sees_up:
        sides.append((down, up))
    if variant.sees_down:
        sides.append((up, down))
    return all(pts(c) & meets and pts(c) <= pts(naive_closure(space, mask_of(cone)))
               for meets, cone in sides)


def is_t0_topology(top):
    """No two points lie in exactly the same opens."""
    return len({frozenset(u for u in top.opens if u >> x & 1)
                for x in range(top.n)}) == top.n


def naive_topologies(n):
    """All topologies on n labelled points, by brute force over set
    families containing the empty and full sets and closed under union
    and intersection, ordered by size, then family."""
    subs = 1 << n
    base = 1 | (1 << (subs - 1))
    found = []
    for r in range(1 << max(0, subs - 2)):
        fam = base | (r << 1)
        members = [s for s in range(subs) if fam >> s & 1]
        if all(fam >> (a | b) & 1 and fam >> (a & b) & 1
               for a, b in itertools.combinations(members, 2)):
            found.append(canonical_subsets(members))
    found.sort(key=lambda fam: (len(fam), fam))
    return tuple(found)


def lifted_preorder(base, targets):
    """Largest preorder on a topology making every given map into a
    preordered space monotone: the pointwise intersection of the pulled
    back orders.  Each pulled-back order is a preorder that makes its map
    monotone, and an intersection of preorders is a preorder, so the
    result needs no check."""
    top = base if isinstance(base, FinTopSpace) else base.topology()
    n = top.n
    full = (1 << n) - 1
    rows = [full] * n
    for mapping, target in targets:
        mapping = tuple(int(v) for v in mapping)
        bad = continuity_failure(top, target, mapping)
        if bad is not None:
            raise NotContinuous(
                f"lift target map pulls open {bits_of(bad)} back to a non-open")
        for x in range(n):
            mask = 0
            for y in range(n):
                if target.leq[mapping[x]] >> mapping[y] & 1:
                    mask |= 1 << y
            rows[x] &= mask
    return FinPreTopSpace(n, top.opens, tuple(rows))


# ---------------------------------------------------------------------------
# lattice oracles on an explicit order matrix: leq[i][j] means i <= j


def naive_lub(leq, i, j):
    """The least upper bound of i and j by scanning all bounds, or None."""
    m = len(leq)
    ubs = [k for k in range(m) if leq[i][k] and leq[j][k]]
    least = [k for k in ubs if all(leq[k][l] for l in ubs)]
    return least[0] if len(least) == 1 else None


def naive_glb(leq, i, j):
    m = len(leq)
    lbs = [k for k in range(m) if leq[k][i] and leq[k][j]]
    greatest = [k for k in lbs if all(leq[l][k] for l in lbs)]
    return greatest[0] if len(greatest) == 1 else None


def naive_is_lattice(leq):
    m = len(leq)
    return all(naive_lub(leq, i, j) is not None and naive_glb(leq, i, j) is not None
               for i in range(m) for j in range(m))


def naive_distributivity_witness(leq):
    """First triple (a, b, c) in lexicographic order with
    a meet (b join c) != (a meet b) join (a meet c), or None."""
    m = len(leq)
    for a in range(m):
        for b in range(m):
            for c in range(m):
                lhs = naive_glb(leq, a, naive_lub(leq, b, c))
                rhs = naive_lub(leq, naive_glb(leq, a, b), naive_glb(leq, a, c))
                if lhs != rhs:
                    return (a, b, c)
    return None


def naive_primes(leq):
    """q other than the top with u meet v <= q forcing u <= q or v <= q."""
    m = len(leq)
    top = next(t for t in range(m) if all(leq[k][t] for k in range(m)))
    return tuple(q for q in range(m) if q != top and all(
        leq[u][q] or leq[v][q] or not leq[naive_glb(leq, u, v)][q]
        for u in range(m) for v in range(m)))


def naive_coprimes(leq):
    """b other than the bottom with b <= u join v forcing b <= u or b <= v."""
    m = len(leq)
    bot = next(b for b in range(m) if all(leq[b][k] for k in range(m)))
    return tuple(b for b in range(m) if b != bot and all(
        leq[b][u] or leq[b][v] or not leq[b][naive_lub(leq, u, v)]
        for u in range(m) for v in range(m)))


def naive_pitchfork(leq):
    """Pairs (q, b) with b <= a exactly when a is not <= q."""
    m = len(leq)
    return tuple((q, b) for q in range(m) for b in range(m)
                 if all(leq[b][a] == (not leq[a][q]) for a in range(m)))


def inclusion_matrix(labels):
    return [[pts(a) <= pts(b) for b in labels] for a in labels]


def bounded_posets(max_points):
    """Order matrices of every poset on at most ``max_points`` labelled
    points, with a new bottom (index 0) and a new top (the last index)."""
    from adframe.theorems import enumerate_preorders
    for k in range(max_points + 1):
        for rows in enumerate_preorders(k):
            if any(rows[x] >> y & 1 and rows[y] >> x & 1
                   for x in range(k) for y in range(k) if x != y):
                continue
            m = k + 2
            yield [[i == 0 or j == m - 1 or i == j
                    or (0 < i < m - 1 and 0 < j < m - 1 and bool(rows[i - 1] >> (j - 1) & 1))
                    for j in range(m)] for i in range(m)]


def brute_iso(kind: str, a, b):
    """Whether some permutation of the points is an isomorphism of kind
    "top" (the images of the opens of ``a`` are the opens of ``b``) or
    "pretop" (that, and ``leq`` is preserved and reflected), by trying
    every permutation on explicit point sets."""
    if a.n != b.n:
        return False
    targets = {pts(v) for v in b.opens}
    for perm in itertools.permutations(range(a.n)):
        if {frozenset(perm[x] for x in pts(u)) for u in a.opens} != targets:
            continue
        if kind == "pretop" and leq_pairs(b) != {(perm[x], perm[y])
                                                for x, y in leq_pairs(a)}:
            continue
        return True
    return False


def lattice_order_iso(a: FinLattice, b: FinLattice, budget: int = DEFAULT_ISO_BUDGET):
    """Order isomorphism between two finite lattices (which is then
    automatically a lattice isomorphism), or None: the relation search of
    ``iso_check`` on the two lattices' up-masks."""
    return preorder_iso((a.up_masks,), (b.up_masks,), budget)


def enumerate_distributive_lattices(max_size: int = 8) -> list[FinLattice]:
    """One representative per isomorphism class of distributive lattices
    with at most ``max_size`` elements, realized as up-set lattices of
    their posets of generators.

    Posets are grown one maximal element at a time; a branch is cut as
    soon as its up-set count passes the bound, which is sound because
    antichains of a subposet remain antichains of the whole.
    """
    found: list[FinLattice] = []
    fingerprints: dict[tuple, list[FinLattice]] = {}

    def register(lat: FinLattice) -> None:
        fp = (lat.m,
              tuple(sorted(lat.up_masks[i].bit_count() for i in range(lat.m))),
              tuple(sorted(lat.down_masks[i].bit_count() for i in range(lat.m))))
        bucket = fingerprints.setdefault(fp, [])
        for old in bucket:
            if lattice_order_iso(old, lat) is not None:
                return
        bucket.append(lat)
        found.append(lat)

    def grow(rows: list[int]) -> None:
        upsets = upset_family(rows)
        if len(upsets) > max_size:
            return
        register(lattice_from_labels(upsets))
        k = len(rows)
        downs = columns(rows, k)
        for d in range(1 << k):
            if any(d >> x & 1 and not is_subset(downs[x], d) for x in range(k)):
                continue  # the strict lower set must be down-closed
            rows2 = [rows[x] | (1 << k) if d >> x & 1 else rows[x] for x in range(k)]
            rows2.append(1 << k)
            grow(rows2)

    grow([])
    found.sort(key=lambda lat: lat.m)
    return found


# ---------------------------------------------------------------------------
# Scott closure of con/cou by trying directed subfamilies (row masks R)


SCOTT_GATE = 64
SCOTT_EXHAUSTIVE = 10


def scott_oracle(name, frame: AdFrame, R, logic_second: bool) -> AxiomCheck:
    """Directly check closure of R under suprema of directed subfamilies.

    The member order is the information order for con and the logical order
    for cou; suprema are computed through join/meet tables built here from
    ``FinLattice.join`` and ``meet``, rather than by picking the family maximum, so this genuinely exercises the
    reduction of Scott closure to downward closure.  All subfamilies are tried
    for small relations, families of size <= 3 otherwise.
    """
    members = [(u, a) for u, row in enumerate(R) for a in bits_of(row)]
    P = len(members)
    if P < 2:
        return AxiomCheck(name, True)
    o_up = frame.omega.up_masks
    # l_above[a]: the ell elements at or above a in the member order
    l_above = frame.ell.down_masks if logic_second else frame.ell.up_masks
    ell, omega = frame.ell, frame.omega
    second = ell.meet if logic_second else ell.join
    second_tab = [[second(a, b) for b in range(ell.m)] for a in range(ell.m)]
    join_o = [[omega.join(u, v) for v in range(omega.m)] for u in range(omega.m)]
    # bit j of above[i]: member j is at or above member i
    above = [sum(1 << j for j, (v, b) in enumerate(members)
                 if o_up[u] >> v & 1 and l_above[a] >> b & 1)
             for u, a in members]

    def in_r(u: int, a: int) -> bool:
        return bool(R[u] >> a & 1)

    if P <= SCOTT_EXHAUSTIVE:
        common = [[x & y for y in above] for x in above]
        idxs_of = [()]                      # members of each subset, ascending
        for picks in range(1, 1 << P):
            low = low_bit(picks)
            idxs = (low,) + idxs_of[picks & (picks - 1)]
            idxs_of.append(idxs)
            if len(idxs) > 1 and not common[low][idxs[1]] & picks:
                continue                    # its two least members have no bound in it
            if not all(common[i][j] & picks
                       for i, j in itertools.combinations(idxs, 2)):
                continue
            u, a = members[low]
            for k in idxs[1:]:
                u, a = join_o[u][members[k][0]], second_tab[a][members[k][1]]
            if not in_r(u, a):
                return AxiomCheck(name, False,
                                  tuple(members[i] for i in idxs))
        return AxiomCheck(name, True)

    # pairs: directed means comparable
    for i, (u, a) in enumerate(members):
        for j, (v, b) in enumerate(members):
            if (above[i] >> j & 1 or above[j] >> i & 1) \
                    and not in_r(join_o[u][v], second_tab[a][b]):
                return AxiomCheck(name, False, (members[i], members[j]))

    for i, j, k in itertools.combinations(range(P), 3):
        t = (1 << i) | (1 << j) | (1 << k)
        if above[i] & above[j] & t and above[i] & above[k] & t \
                and above[j] & above[k] & t:
            (u0, a0), (u1, a1), (u2, a2) = members[i], members[j], members[k]
            if not in_r(join_o[join_o[u0][u1]][u2],
                        second_tab[second_tab[a0][a1]][a2]):
                return AxiomCheck(name, False, (members[i], members[j], members[k]))
    return AxiomCheck(name, True)


# ---------------------------------------------------------------------------
# reference scans of the closure laws of a frame relation (row masks R)


def reference_reach_check(name, R, o_to, l_to) -> AxiomCheck:
    """Closure of R under moving a member (u, a) to any (v, b) with v in
    ``o_to[u]`` and b in ``l_to[a]``, by collecting every reachable pair.
    On failure the witness is the first missing (v, b) in row order and the
    first member reaching it."""
    reach = [0] * len(R)
    for u, row in enumerate(R):
        if row:
            targets = 0
            for a in bits_of(row):
                targets |= l_to[a]
            for v in bits_of(o_to[u]):
                reach[v] |= targets
    for v, row in enumerate(R):
        missing = reach[v] & ~row
        if missing:
            b = low_bit(missing)
            member = next((u, a) for u, row_u in enumerate(R) if o_to[u] >> v & 1
                          for a in bits_of(row_u) if l_to[a] >> b & 1)
            return AxiomCheck(name, False, (member, (v, b)))
    return AxiomCheck(name, True)


def operation_table(op):
    """The table of a lattice operation given as ``(masks, index)``: the
    entry at (x, y) is the element whose mask is ``masks[x] & masks[y]``,
    found by a search of the masks rather than through the index."""
    masks, _ = op
    return [[masks.index(x & y) for y in masks] for x in masks]


def reference_binary_check(name, R, op_o, op_l) -> AxiomCheck:
    """R is closed under (u, a), (v, b) -> (u * v, a * b), by trying every
    ordered pair of members on tables built here; the witness is the first
    failing pair in pair order."""
    tab_o, tab_l = operation_table(op_o), operation_table(op_l)
    rows = [(u, bits_of(row)) for u, row in enumerate(R) if row]
    for u, row_u in rows:
        for a in row_u:
            lrow = tab_l[a]
            for v, row_v in rows:
                target = R[tab_o[u][v]]
                for b in row_v:
                    if not target >> lrow[b] & 1:
                        return AxiomCheck(name, False,
                                          ((u, a), (v, b), (tab_o[u][v], lrow[b])))
    return AxiomCheck(name, True)


def naive_continuous_maps(src, dst) -> list[tuple[int, ...]]:
    """Every map into ``dst`` whose open preimages are open, by filtering
    all ``dst.n ** src.n`` maps through ``continuity_failure``: the oracle
    of ``theorems.continuous_maps``."""
    return [m for m in itertools.product(range(dst.n), repeat=src.n)
            if continuity_failure(src, dst, m) is None]


def naive_pretop_maps(src, dst) -> list[tuple[int, ...]]:
    """The continuous maps that are also monotone, filtered through
    ``monotonicity_failure``: the oracle of ``theorems.pretop_maps``."""
    return [m for m in naive_continuous_maps(src, dst)
            if monotonicity_failure(src, dst, m) is None]


# ---------------------------------------------------------------------------
# bounded lattice homs by backtracking over the source, which needs no
# distributivity: the oracle of ``frames.bounded_lattice_homs``


def _find_homs(src: FinLattice, dst: FinLattice) -> list[tuple[int, ...]]:
    """The bounded lattice homs, found by backtracking along a linear
    extension of the source.

    Each constraint is tested once, at the position of its last element.
    Every element below e comes before e, so the images of its lower
    elements bound e's image to their common up-set, and bottom and top
    have a single candidate each.  The join and meet of an incomparable
    pair are compared once both elements and the result are placed; a
    comparable pair needs no test, since an order-preserving map keeps
    its join and meet.  Masks are compared, not elements: v is the join of
    x and y iff ``up[v] == up[x] & up[y]``."""
    order = sorted(range(src.m), key=lambda i: (src.down_masks[i].bit_count(), i))
    position = {e: k for k, e in enumerate(order)}
    laws: list[list[tuple]] = [[] for _ in order]
    for a in range(src.m):
        for b in range(a + 1, src.m):
            if src.le(a, b) or src.le(b, a):
                continue
            for c, d_masks in ((src.join(a, b), dst.up_masks),
                               (src.meet(a, b), dst.down_masks)):
                laws[max(position[a], position[b], position[c])].append((a, b, c, d_masks))
    allowed = [full_mask(dst.m)] * src.m
    allowed[src.bot] &= 1 << dst.bot
    allowed[src.top] &= 1 << dst.top
    image = [0] * src.m
    out: list[tuple[int, ...]] = []

    def extend(k: int) -> None:
        if k == src.m:
            out.append(tuple(image))
            return
        e = order[k]
        free = allowed[e]
        for f in bits_of(src.down_masks[e] & ~(1 << e)):
            free &= dst.up_masks[image[f]]
        for v in bits_of(free):
            image[e] = v
            if all(masks[image[c]] == masks[image[a]] & masks[image[b]]
                   for a, b, c, masks in laws[k]):
                extend(k + 1)

    extend(0)
    return out


def triangle_scan(spectrum, idxs, target: AdFrame) -> list[AdFrameHom]:
    """Every hom from the spectrum's frame into ``target``, the frame of a
    space, that closes the triangle with the unit over the map ``idxs``
    into the spectrum: a copy of ADJ-TRIANGLE's uniqueness scan without
    its size gate.  Each side's bounded-lattice homs are filtered by its
    half of the triangle, and the surviving pairs by relation
    preservation."""
    frame = spectrum.frame
    legs = [(unit, spectrum.points[idx]) for unit, idx in zip(unit_points(target), idxs)]
    phis = [phi for phi in bounded_lattice_homs(frame.omega, target.omega)
            if all(preimage(phi, unit.x) == pt.x for unit, pt in legs)]
    ps = [p for p in bounded_lattice_homs(frame.ell, target.ell)
          if all(preimage(p, unit.s) == pt.s for unit, pt in legs)]
    return [cand for phi in phis for p in ps
            if preserves_relations(cand := AdFrameHom(frame, target, phi, p))]


def scanned_ads_maps(space, pairs, upsets):
    """A pair space's diamond map, bracket map and preorder rows, each
    entry one scan of the whole pair list: the pairs whose C meets an open,
    whose class meets an up-set, and whose representative lies above a
    pair's representative."""
    diamond = tuple(sum(1 << i for i, pr in enumerate(pairs) if pr.closed & u)
                    for u in space.opens)
    bracket = tuple(sum(1 << i for i, pr in enumerate(pairs) if pr.cls & a)
                    for a in upsets)
    rows = tuple(sum(1 << j for j, other in enumerate(pairs)
                     if space.leq[pr.rep] >> other.rep & 1)
                 for pr in pairs)
    return diamond, bracket, rows


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


# ---------------------------------------------------------------------------
# large JSON payloads, built from their shape alone


def _relabelled(pairs, m):
    """Order pairs under the relabelling i -> (k i + 3) mod m, sorted, as a
    JSON order document; k is 7, or 5 when 7 divides m, so the relabelling
    is a bijection for every m below 35."""
    k = 7 if m % 7 else 5
    return sorted([(k * i + 3) % m, (k * j + 3) % m] for i, j in pairs)


def chain_doc(m):
    """The lattice document of an m-element chain, relabelled."""
    return {"leq": _relabelled([(i, j) for i in range(m) for j in range(i, m)], m)}


def grid_doc(a, b):
    """The lattice document of the a x b grid (product of two chains),
    relabelled."""
    m = a * b
    pairs = [(i * b + j, k * b + l) for i in range(a) for j in range(b)
             for k in range(i, a) for l in range(j, b)]
    return {"leq": _relabelled(pairs, m)}


def lift_doc(lattice_doc):
    """The two-sided lift of a lattice document: the lattice on the opens
    side, the chain 0 < 1 on the other, as an ad-frame document."""
    leq = lattice_doc["leq"]
    m = max(max(p) for p in leq) + 1
    up_sizes = [sum(1 for i, _ in leq if i == k) for k in range(m)]
    bot, top = up_sizes.index(m), up_sizes.index(1)
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


def flip_pair(doc, name, pair):
    """A copy of a frame document with ``pair`` added to or removed from
    relation ``name``."""
    pairs = [list(p) for p in doc[name]]
    pairs = ([p for p in pairs if p != list(pair)] if list(pair) in pairs
             else sorted(pairs + [list(pair)]))
    return dict(doc, **{name: pairs})


# ---------------------------------------------------------------------------
# the brute-force spectrum: every subset pair tested against the definitions

_BRUTE_GATE = 20


def min_of_filter(ell: FinLattice, s_mask: int) -> int:
    """The least member of an up-closed s (its generating element)."""
    b = ell.joins()[1].get(s_mask)
    if b is None:
        raise ValueError("subset is not the up-cone of any element")
    return b


def point_sort_key(pt: AdPoint, ell: FinLattice) -> tuple[int, int]:
    return (min_of_filter(ell, pt.s), pt.x)


def is_cp_filter(lat: FinLattice, mask: int) -> bool:
    """Completely prime filter: non-empty, up-closed, meet-closed, avoids
    bottom, complement closed under binary join."""
    if mask == 0 or mask >> lat.bot & 1:
        return False
    members = bits_of(mask)
    for i in members:
        if lat.up_masks[i] & ~mask:
            return False
    for i in members:
        for j in members:
            if not mask >> lat.meet(i, j) & 1:
                return False
    comp = full_mask(lat.m) & ~mask
    for i in bits_of(comp):
        for j in bits_of(comp):
            if mask >> lat.join(i, j) & 1:
                return False
    return True


def is_cpc_filter(lat: FinLattice, mask: int) -> bool:
    """Completely prime complete filter: the up-cone of a coprime element."""
    b = lat.joins()[1].get(mask)            # the element whose up-cone is mask
    if b is None or b == lat.bot:
        return False
    outside = bits_of(full_mask(lat.m) & ~mask)
    return not any(mask >> lat.join(u, v) & 1 for u in outside for v in outside)


def point_conditions_ok(frame: AdFrame, x: int, s: int) -> bool:
    """The defining point conditions, verbatim, for the frame's variant."""
    if frame.variant.sees_up:
        for u, a in rel_pairs(frame.tot):
            if not (x >> u & 1 or s >> a & 1):
                return False
        for u, a in rel_pairs(frame.con):
            if x >> u & 1 and s >> a & 1:
                return False
    if frame.variant.sees_down:
        for u, a in rel_pairs(frame.fof):
            if not (x >> u & 1 or not s >> a & 1):
                return False
        for u, a in rel_pairs(frame.cou):
            if not (not x >> u & 1 or s >> a & 1):
                return False
    return True


def _enumerate_bruteforce(frame: AdFrame) -> tuple[AdPoint, ...]:
    """The oracle of ``duality.enumerate_points``: the same points in the
    same order, found by scanning every subset pair."""
    omega, ell = frame.omega, frame.ell
    if omega.m > _BRUTE_GATE or ell.m > _BRUTE_GATE:
        raise BudgetExceeded(
            f"brute-force point scan gated at {_BRUTE_GATE} lattice elements")
    xs = [m for m in range(1 << omega.m) if is_cp_filter(omega, m)]
    ss = [m for m in range(1 << ell.m) if is_cpc_filter(ell, m)]
    pts = [AdPoint(x, s) for x in xs for s in ss
           if point_conditions_ok(frame, x, s)]
    pts.sort(key=lambda pt: point_sort_key(pt, ell))
    return tuple(pts)


# ---------------------------------------------------------------------------
# mutated frames: valid frames with one edit that breaks a chosen law


def _flip(frame: AdFrame, name: str, pair: tuple[int, int]) -> AdFrame:
    """``frame`` with the membership of ``pair`` in relation ``name`` flipped."""
    rows = list(frame.rel(name))
    rows[pair[0]] ^= 1 << pair[1]
    return replace(frame, **{name: tuple(rows)})


def _mutation_table(frame: AdFrame) -> tuple[tuple[str, str, tuple[int, int], bool], ...]:
    """Single-bit corruptions of ``frame``, each tagged with the law it
    should break: rows of (law, relation, pair, whether it is offered)."""
    om, el = frame.omega, frame.ell
    tt = (om.top, el.bot)
    ff = (om.bot, el.top)
    bots = (om.bot, el.bot)
    tops = (om.top, el.top)
    up, down = frame.variant.sees_up, frame.variant.sees_down

    def has(name, pair):
        return bool(frame.rel(name)[pair[0]] >> pair[1] & 1)

    table = (
        ("tot-up-closed", "tot", tops, up and tops != tt and has("tot", tops)),
        ("tot-has-tt", "tot", tt, up and has("tot", tt)),
        ("con-down-closed", "con", bots,
         up and bots not in (ff, tt) and has("con", bots)),
        ("con-tot-aligned", "con", tops, up and el.m > 1 and not has("con", tops)),
        ("fof-up-closed", "fof", tt,
         down and tops != tt and has("fof", tops) and has("fof", tt)),
        ("fof-has-bots", "fof", bots,
         down and has("fof", bots) and (om.m > 1 or el.m > 1)),
        ("cou-down-closed", "cou", ff,
         down and ff != bots and has("cou", ff) and has("cou", bots)),
        ("tot-cou-ell-top", "cou", tt,
         frame.variant is Variant.BOTH and el.m > 1 and not has("cou", tt)),
    )
    return table


def _mutations(frame: AdFrame) -> list[tuple[str, Callable[[], AdFrame]]]:
    """The offered corruptions of ``frame``, as (law, edit) pairs."""
    return [(law, functools.partial(_flip, frame, name, pair))
            for law, name, pair, offered in _mutation_table(frame) if offered]


def mutated_frame(seed: int, target=None) -> Generated:
    """A valid seeded "ado" or "ind" frame with one edit aimed at the named
    ``target`` law, or at any; a target that no edit of the mutation table
    breaks is a ValueError.  Its meta names the family "mutated" and the
    law the edit breaks."""
    params = {"family": "mutated"}
    if target is not None:
        params["target"] = target
    for attempt in range(64):
        rng = _rng(f"adframe-mutated-{attempt}", params, seed)
        base_family = rng.choice(("ado", "ind"))
        base = generate_random("adframe", {"family": base_family}, seed * 131 + attempt)
        frame = base.payload
        laws = [law for law, *_ in _mutation_table(frame)]
        if target is not None and target not in laws:
            raise ValueError(f"mutation target {target!r} is not a law that one "
                             f"edit breaks; the edits break {', '.join(laws)}")
        options = [m for m in _mutations(frame) if target in (None, m[0])]
        if not options:
            continue
        law, edit = rng.choice(options)
        mutated = edit()
        report = validate_adframe(mutated)
        if not report.ok and law in {c.law for c in report.failures()}:
            return Generated("adframe", mutated,
                             {"family": "mutated", "target": law,
                              "seed": seed, "variant": Variant.BOTH.value,
                              "base": base.meta})
    raise InternalCheckError("mutation search failed to break the target axiom")
