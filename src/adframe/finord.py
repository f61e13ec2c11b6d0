"""Finite preordered topological spaces and finite lattices.

Conventions used throughout the package:

  - Carriers are ``range(n)`` with ``n <= carrier_cap()`` (default 64,
    overridable through the ``ADFRAME_MAX_POINTS`` environment variable).
  - Subsets of a carrier are int bit vectors (see :mod:`adframe.bits`).
  - A preorder on the carrier is a tuple of ``n`` row masks; bit ``y`` of
    ``rows[x]`` is set iff ``x <= y``.
  - Families of subsets are kept in canonical order: cardinality first,
    then numeric bit-vector value.
  - Lattices carry their order as an ``m x m`` numpy boolean matrix plus
    precomputed join/meet index tables.  When a lattice is a lattice of
    subsets, ``labels`` holds the subsets in element order, its order is
    inclusion, and join/meet are union/intersection.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .bits import (
    bits_of,
    canonical_subsets,
    full_mask,
    is_subset,
    iter_bits,
    mask_of,
)
from .errors import (
    NotALattice,
    NotAPreorder,
    NotATopology,
    TooLarge,
)

DEFAULT_LATTICE_CAP = 4096


def carrier_cap() -> int:
    """Maximum number of carrier points, env-overridable."""
    return int(os.environ.get("ADFRAME_MAX_POINTS", "64"))


# ---------------------------------------------------------------------------
# space types


@dataclass(frozen=True)
class FinTopSpace:
    """A finite topological space: carrier size and canonical opens family."""

    n: int
    opens: tuple[int, ...]

    @property
    def full(self) -> int:
        return full_mask(self.n)

    def closed_sets(self) -> tuple[int, ...]:
        return canonical_subsets(self.full & ~u for u in self.opens)


@dataclass(frozen=True)
class FinPreTopSpace:
    """A finite preordered topological space.

    The preorder is independent of the topology: ``leq`` is a tuple of row
    masks, bit ``y`` of ``leq[x]`` meaning ``x <= y``.
    """

    n: int
    opens: tuple[int, ...]
    leq: tuple[int, ...]

    @property
    def full(self) -> int:
        return full_mask(self.n)

    def closed_sets(self) -> tuple[int, ...]:
        return canonical_subsets(self.full & ~u for u in self.opens)

    def topology(self) -> FinTopSpace:
        return FinTopSpace(self.n, self.opens)


# ---------------------------------------------------------------------------
# preorder rows


def reflexive_transitive_closure(rows: Sequence[int], n: int) -> tuple[int, ...]:
    out = [rows[x] | (1 << x) for x in range(n)]
    changed = True
    while changed:
        changed = False
        for x in range(n):
            acc = out[x]
            for y in iter_bits(out[x]):
                acc |= out[y]
            if acc != out[x]:
                out[x] = acc
                changed = True
    return tuple(out)


def is_reflexive_transitive(rows: Sequence[int], n: int) -> bool:
    return tuple(rows) == reflexive_transitive_closure(rows, n)


def pairs_to_rows(pairs: Iterable[Sequence[int]], n: int) -> list[int]:
    rows = [0] * n
    for pair in pairs:
        x, y = pair
        if not (0 <= x < n and 0 <= y < n):
            raise ValueError(f"order pair ({x}, {y}) out of range for {n} points")
        rows[x] |= 1 << y
    return rows


def rows_to_pairs(rows: Sequence[int]) -> list[list[int]]:
    """Non-reflexive pairs of the order, sorted."""
    return [[x, y] for x in range(len(rows)) for y in iter_bits(rows[x]) if y != x]


# ---------------------------------------------------------------------------
# topology validation


def _parse_subset(raw, n: int) -> int:
    if isinstance(raw, int):
        if raw < 0 or raw > full_mask(n):
            raise ValueError(f"subset mask {raw} out of range for {n} points")
        return raw
    mask = 0
    for p in raw:
        if not (0 <= p < n):
            raise ValueError(f"subset index {p} out of range for {n} points")
        mask |= 1 << p
    return mask


def _complete_topology(opens: set[int], n: int) -> set[int]:
    opens = set(opens) | {0, full_mask(n)}
    frontier = list(opens)
    while frontier:
        a = frontier.pop()
        for b in list(opens):
            for c in (a | b, a & b):
                if c not in opens:
                    opens.add(c)
                    frontier.append(c)
    return opens


def _check_topology(opens: Sequence[int], n: int) -> None:
    family = set(opens)
    if 0 not in family:
        raise NotATopology("empty set is not open")
    if full_mask(n) not in family:
        raise NotATopology("full carrier is not open")
    for a in family:
        for b in family:
            if a | b not in family:
                raise NotATopology(
                    f"opens not closed under union: {bits_of(a)} | {bits_of(b)}"
                )
            if a & b not in family:
                raise NotATopology(
                    f"opens not closed under intersection: {bits_of(a)} & {bits_of(b)}"
                )


def make_topology(n: int, opens: Iterable, complete: bool = False) -> FinTopSpace:
    if n < 0 or n > carrier_cap():
        raise TooLarge(f"carrier size {n} outside [0, {carrier_cap()}]")
    masks = {_parse_subset(o, n) for o in opens}
    if complete:
        masks = _complete_topology(masks, n)
    family = canonical_subsets(masks)
    _check_topology(family, n)
    return FinTopSpace(n, family)


def validate_space(raw: Mapping) -> FinPreTopSpace:
    """Build a canonical space from a raw description (the JSON shape).

    Keys: ``points``, ``opens``, ``leq`` (order pairs), optional ``complete``
    (close opens under union/intersection instead of rejecting) and optional
    ``strict`` (reject order pairs that are not already reflexive-transitive
    instead of closing them).
    """
    n = int(raw["points"])
    topo = make_topology(n, raw.get("opens", []), complete=bool(raw.get("complete", False)))
    rows = pairs_to_rows(raw.get("leq", []), n)
    closed = reflexive_transitive_closure(rows, n)
    if raw.get("strict", False):
        with_refl = tuple(rows[x] | (1 << x) for x in range(n))
        if with_refl != closed:
            raise NotAPreorder("order pairs are not transitively closed")
    return FinPreTopSpace(n, topo.opens, closed)


def make_space(
    n: int,
    opens: Iterable,
    pairs: Iterable[Sequence[int]] = (),
    complete: bool = False,
    strict: bool = False,
) -> FinPreTopSpace:
    """Convenience wrapper around :func:`validate_space`."""
    return validate_space(
        {"points": n, "opens": list(opens), "leq": [list(p) for p in pairs],
         "complete": complete, "strict": strict}
    )


def space_to_json(space: FinPreTopSpace) -> dict:
    return {
        "points": space.n,
        "opens": [list(bits_of(u)) for u in space.opens],
        "leq": rows_to_pairs(space.leq),
        "complete": False,
    }


def space_from_json(doc: Mapping) -> FinPreTopSpace:
    return validate_space(doc)


# ---------------------------------------------------------------------------
# set operators


def upclose(space: FinPreTopSpace, subset: int) -> int:
    out = 0
    for x in iter_bits(subset):
        out |= space.leq[x]
    return out


def downclose(space: FinPreTopSpace, subset: int) -> int:
    out = 0
    for y in range(space.n):
        if space.leq[y] & subset:
            out |= 1 << y
    return out


def closure(space, subset: int) -> int:
    """Smallest closed superset: complement of the union of opens missing it."""
    avoid = 0
    for u in space.opens:
        if u & subset == 0:
            avoid |= u
    return full_mask(space.n) & ~avoid


def interior(space, subset: int) -> int:
    out = 0
    for u in space.opens:
        if is_subset(u, subset):
            out |= u
    return out


def specialization_preorder(space) -> tuple[int, ...]:
    """x <= y iff every open containing x contains y (rows of minimal opens)."""
    rows = []
    for x in range(space.n):
        core = full_mask(space.n)
        for u in space.opens:
            if u >> x & 1:
                core &= u
        rows.append(core)
    return tuple(rows)


# ---------------------------------------------------------------------------
# lattices


@dataclass(eq=False)
class FinLattice:
    """A finite lattice over elements ``range(m)``.

    ``leq`` is a read-only numpy boolean matrix, ``join_table``/``meet_table``
    hold element indices.  ``labels`` is the subset bit vector of each element
    for lattices of subsets, or None for abstract ones.
    """

    m: int
    labels: Optional[tuple[int, ...]]
    leq: np.ndarray
    join_table: np.ndarray
    meet_table: np.ndarray
    bot: int
    top: int
    up_masks: tuple[int, ...]
    down_masks: tuple[int, ...]

    def le(self, i: int, j: int) -> bool:
        return bool(self.leq[i, j])

    def join(self, i: int, j: int) -> int:
        return int(self.join_table[i, j])

    def meet(self, i: int, j: int) -> int:
        return int(self.meet_table[i, j])

    def join_all(self, elems: Iterable[int]) -> int:
        out = self.bot
        for e in elems:
            out = int(self.join_table[out, e])
        return out

    def meet_all(self, elems: Iterable[int]) -> int:
        out = self.top
        for e in elems:
            out = int(self.meet_table[out, e])
        return out

    def key(self) -> tuple:
        """Canonical value for equality comparisons in tests and dedup."""
        return (self.m, self.labels, self.leq.tobytes())

    def __repr__(self):
        tag = "labeled" if self.labels is not None else "abstract"
        return f"FinLattice(m={self.m}, {tag})"


def _finish_lattice(m, labels, leq, join_t, meet_t) -> FinLattice:
    leq = np.asarray(leq, dtype=bool)
    leq.setflags(write=False)
    join_t = np.asarray(join_t, dtype=np.int16)
    join_t.setflags(write=False)
    meet_t = np.asarray(meet_t, dtype=np.int16)
    meet_t.setflags(write=False)
    bot_rows = np.flatnonzero(leq.all(axis=1))
    top_rows = np.flatnonzero(leq.all(axis=0))
    if len(bot_rows) != 1 or len(top_rows) != 1:
        raise NotALattice("lattice must have unique bottom and top")
    up = tuple(mask_of(np.flatnonzero(leq[i]).tolist()) for i in range(m))
    down = tuple(mask_of(np.flatnonzero(leq[:, i]).tolist()) for i in range(m))
    return FinLattice(m, labels, leq, join_t, meet_t,
                      int(bot_rows[0]), int(top_rows[0]), up, down)


def lattice_from_labels(labels: Sequence[int], cap: int = DEFAULT_LATTICE_CAP) -> FinLattice:
    """Lattice of subsets ordered by inclusion; join/meet are union/intersection.

    The family must be closed under union and intersection and is put into
    canonical order first.
    """
    family = canonical_subsets(labels)
    m = len(family)
    if m == 0:
        raise NotALattice("empty element set")
    if m > cap:
        raise TooLarge(f"lattice has {m} elements, cap is {cap}")
    index = {lab: i for i, lab in enumerate(family)}
    leq = np.zeros((m, m), dtype=bool)
    for i, a in enumerate(family):
        for j, b in enumerate(family):
            leq[i, j] = is_subset(a, b)
    join_t = np.zeros((m, m), dtype=np.int16)
    meet_t = np.zeros((m, m), dtype=np.int16)
    for i, a in enumerate(family):
        for j, b in enumerate(family):
            try:
                join_t[i, j] = index[a | b]
                meet_t[i, j] = index[a & b]
            except KeyError:
                raise NotALattice(
                    f"label family not closed under union/intersection at "
                    f"{bits_of(a)}, {bits_of(b)}"
                ) from None
    return _finish_lattice(m, family, leq, join_t, meet_t)


def lattice_from_leq(
    leq: np.ndarray | Sequence[Sequence[bool]],
    labels: Optional[Sequence[int]] = None,
    cap: int = DEFAULT_LATTICE_CAP,
) -> FinLattice:
    """Lattice from an explicit order matrix; validates the order and that
    every pair has a least upper and greatest lower bound."""
    leq = np.asarray(leq, dtype=bool)
    m = leq.shape[0]
    if m == 0:
        raise NotALattice("empty element set")
    if leq.shape != (m, m):
        raise NotALattice("order matrix must be square")
    if m > cap:
        raise TooLarge(f"lattice has {m} elements, cap is {cap}")
    if not leq.diagonal().all():
        raise NotALattice("order not reflexive")
    if (leq & leq.T & ~np.eye(m, dtype=bool)).any():
        raise NotALattice("order not antisymmetric")
    reach = (leq.astype(np.uint8) @ leq.astype(np.uint8)) > 0
    if (reach & ~leq).any():
        raise NotALattice("order not transitive")

    join_t = np.zeros((m, m), dtype=np.int16)
    meet_t = np.zeros((m, m), dtype=np.int16)
    for i in range(m):
        for j in range(m):
            ubs = np.flatnonzero(leq[i] & leq[j])
            least = [int(k) for k in ubs if leq[k, ubs].all()]
            if len(least) != 1:
                raise NotALattice(f"elements {i}, {j} have no least upper bound")
            join_t[i, j] = least[0]
            lbs = np.flatnonzero(leq[:, i] & leq[:, j])
            greatest = [int(k) for k in lbs if leq[lbs, k].all()]
            if len(greatest) != 1:
                raise NotALattice(f"elements {i}, {j} have no greatest lower bound")
            meet_t[i, j] = greatest[0]

    fam: Optional[tuple[int, ...]] = None
    if labels is not None:
        fam = tuple(int(x) for x in labels)
        if len(fam) != m:
            raise NotALattice("label count differs from element count")
        for i in range(m):
            for j in range(m):
                if bool(leq[i, j]) != is_subset(fam[i], fam[j]):
                    raise NotALattice(f"order disagrees with label inclusion at ({i}, {j})")
                if fam[join_t[i, j]] != fam[i] | fam[j]:
                    raise NotALattice(f"join disagrees with label union at ({i}, {j})")
                if fam[meet_t[i, j]] != fam[i] & fam[j]:
                    raise NotALattice(f"meet disagrees with label intersection at ({i}, {j})")
    return _finish_lattice(m, fam, leq, join_t, meet_t)


def upset_family(space: FinPreTopSpace, cap: int = DEFAULT_LATTICE_CAP) -> tuple[int, ...]:
    """All upward-closed subsets: union closure of the point up-cones."""
    family = {0}
    frontier = [0]
    gens = [space.leq[x] for x in range(space.n)]
    for g in gens:
        if g not in family:
            family.add(g)
            frontier.append(g)
    while frontier:
        a = frontier.pop()
        for b in list(family):
            c = a | b
            if c not in family:
                if len(family) >= cap:
                    raise TooLarge(f"up-set family exceeds cap {cap}")
                family.add(c)
                frontier.append(c)
    if len(family) > cap:
        raise TooLarge(f"up-set family exceeds cap {cap}")
    return canonical_subsets(family)


def subset_lattice(space: FinPreTopSpace, kind: str, cap: int = DEFAULT_LATTICE_CAP) -> FinLattice:
    """Lattice of opens (``kind='opens'``) or of up-closed sets (``kind='upsets'``)."""
    if kind == "opens":
        return lattice_from_labels(space.opens, cap=cap)
    if kind == "upsets":
        return lattice_from_labels(upset_family(space, cap), cap=cap)
    raise ValueError(f"unknown subset lattice kind {kind!r}")


# ---------------------------------------------------------------------------
# lattice analysis


@dataclass(frozen=True)
class LatticeAnalysis:
    distributive: bool
    distributivity_witness: Optional[tuple[int, int, int]]
    primes: tuple[int, ...]
    coprimes: tuple[int, ...]
    pitchfork: tuple[tuple[int, int], ...]


def lattice_analyze(lat: FinLattice) -> LatticeAnalysis:
    """Distributivity (with witness triple on failure), prime and coprime
    elements, and the pitchfork pairs (q, b) with b <= a iff a is not <= q."""
    m = lat.m
    jt, mt, leq = lat.join_table, lat.meet_table, lat.leq

    witness = None
    for a in range(m):
        lhs = mt[a, jt]                     # a /\ (b \/ c), an m x m grid
        rhs = jt[mt[a][:, None], mt[a][None, :]]
        bad = np.argwhere(lhs != rhs)
        if len(bad):
            b, c = (int(v) for v in bad[0])
            witness = (a, b, c)
            break

    primes = []
    for q in range(m):
        if q == lat.top:
            continue
        below_q = leq[:, q]
        meets_below = below_q[mt]           # (u /\ v) <= q, m x m grid
        viol = meets_below & ~below_q[:, None] & ~below_q[None, :]
        if not viol.any():
            primes.append(q)

    coprimes = []
    for b in range(m):
        if b == lat.bot:
            continue
        above_b = leq[b, :]
        joins_above = above_b[jt]           # b <= (u \/ v)
        viol = joins_above & ~above_b[:, None] & ~above_b[None, :]
        if not viol.any():
            coprimes.append(b)

    pitchfork = []
    not_below = ~leq.T                      # not_below[q, a]  <=>  a is not <= q
    for q in range(m):
        for b in range(m):
            if np.array_equal(leq[b], not_below[q]):
                pitchfork.append((q, b))

    return LatticeAnalysis(
        distributive=witness is None,
        distributivity_witness=witness,
        primes=tuple(primes),
        coprimes=tuple(coprimes),
        pitchfork=tuple(pitchfork),
    )


def lattice_to_json(lat: FinLattice) -> dict:
    doc: dict = {
        "leq": [[i, j] for i in range(lat.m) for j in range(lat.m) if lat.leq[i, j]],
    }
    if lat.labels is not None:
        doc["labels"] = [list(bits_of(lab)) for lab in lat.labels]
    return doc


def lattice_from_json(doc: Mapping, cap: int = DEFAULT_LATTICE_CAP) -> FinLattice:
    pairs = list(doc["leq"])
    if not pairs:
        raise NotALattice("order pair list is empty; reflexive pairs are required")
    m = max(max(i, j) for i, j in pairs) + 1
    leq = np.zeros((m, m), dtype=bool)
    for i, j in pairs:
        if i < 0 or j < 0:
            raise ValueError(f"order pair ({i}, {j}) has a negative index")
        leq[i, j] = True
    labels = None
    if "labels" in doc and doc["labels"] is not None:
        labels = [_parse_subset(lab, carrier_cap()) for lab in doc["labels"]]
    return lattice_from_leq(leq, labels=labels, cap=cap)


# ---------------------------------------------------------------------------
# irreducible closed sets, equivalence classes


def irreducible_closed_sets(space) -> tuple[int, ...]:
    """Non-empty closed sets C such that C <= C1 u C2 forces C inside one part."""
    closed = space.closed_sets()
    out = []
    for c in closed:
        if c == 0:
            continue
        ok = True
        for c1 in closed:
            if not ok:
                break
            for c2 in closed:
                if is_subset(c, c1 | c2) and not is_subset(c, c1) and not is_subset(c, c2):
                    ok = False
                    break
        if ok:
            out.append(c)
    return tuple(out)


def equivalence_classes(leq: Sequence[int]) -> tuple[int, ...]:
    """Partition under x ~ y iff x <= y <= x, ordered by smallest member.

    Each class is a subset mask; its representative is its lowest bit.
    """
    n = len(leq)
    seen = 0
    classes = []
    for x in range(n):
        if seen >> x & 1:
            continue
        cls = 0
        for y in iter_bits(leq[x]):
            if leq[y] >> x & 1:
                cls |= 1 << y
        classes.append(cls)
        seen |= cls
    return tuple(classes)


def class_of(classes: Sequence[int], x: int) -> int:
    for cls in classes:
        if cls >> x & 1:
            return cls
    raise ValueError(f"point {x} not covered by the partition")


# ---------------------------------------------------------------------------
# point maps


def preimage(mapping: Sequence[int], subset: int) -> int:
    out = 0
    for x, fx in enumerate(mapping):
        if subset >> fx & 1:
            out |= 1 << x
    return out


def image(mapping: Sequence[int], subset: int) -> int:
    out = 0
    for x in iter_bits(subset):
        out |= 1 << mapping[x]
    return out


def continuity_failure(src, dst, mapping: Sequence[int]) -> Optional[int]:
    """An open of the codomain whose preimage is not open, or None."""
    opens = set(src.opens)
    for v in dst.opens:
        if preimage(mapping, v) not in opens:
            return v
    return None


def monotonicity_failure(src: FinPreTopSpace, dst: FinPreTopSpace,
                         mapping: Sequence[int]) -> Optional[tuple[int, int]]:
    for x in range(src.n):
        for y in iter_bits(src.leq[x]):
            if not dst.leq[mapping[x]] >> mapping[y] & 1:
                return (x, y)
    return None
