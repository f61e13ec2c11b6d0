"""Finite preordered topological spaces and finite lattices.

Conventions used throughout the package:

  - Carriers are ``range(n)`` with ``n <= CARRIER_CAP`` (64 points).
  - Subsets of a carrier are int bit vectors (see :mod:`adframe.bits`),
    whose members ``bits_of`` lists.
  - A preorder on the carrier is a tuple of ``n`` row masks; bit ``y`` of
    ``rows[x]`` is set iff ``x <= y``.
  - Every relation is stored the same way, as row masks, also one between
    two carriers: bit ``a`` of ``rows[u]`` is set iff ``u`` is related to
    ``a``.  :func:`columns` gives the converse relation.
  - A family of up-sets is built one way, by :func:`upset_family` from a
    preorder's rows: a space's opens are the up-sets of its
    specialization rows, and its up-set lattice holds the up-sets of
    ``leq``.  The topology is read back through one structure, the point
    closures (:func:`point_closures`), which are the columns of the
    specialization rows; closure, interior and the specialization
    preorder are derived from them.
  - Families of subsets are kept in canonical order: cardinality first,
    then numeric bit-vector value.
  - A lattice over elements ``range(m)`` carries its order once, as row
    masks over element indices: bit ``j`` of ``up_masks[i]`` (and bit ``i``
    of ``down_masks[j]``) is set iff ``i <= j``.  The join of i and j is the
    element whose up-mask is ``up_masks[i] & up_masks[j]``, the meet the
    same on down-masks.  When a lattice is a lattice of subsets, ``labels``
    holds the subsets in element order, its order is inclusion, and
    join/meet are union/intersection.
  - What is derived lives as long as what it is derived from, in one
    home: the object it is derived from alone keeps it (:func:`kept`).  A
    space keeps its lattices, its frame rows, its point classes, its point
    closures, and its document with one copy per variant; a lattice keeps
    its analysis, its point masks and its homs to live lattices.  Frames,
    spectra and pair lists are plain values: a caller that needs one twice
    passes it on.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from operator import and_, or_
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .bits import (
    bits_of,
    canonical_subsets,
    full_mask,
    is_subset,
    union_of,
)
from .errors import (
    NotALattice,
    NotAPreorder,
    NotATopology,
    TooLarge,
)

DEFAULT_LATTICE_CAP = 4096
CARRIER_CAP = 64


# ---------------------------------------------------------------------------
# what an object keeps


def kept(obj, name: str, make: Callable):
    """The value ``obj`` keeps under ``name``: ``make()`` the first time,
    kept outside the dataclass fields for as long as ``obj`` lives, so
    equality, hashing and JSON do not see it.  The value is shared by every
    caller, and none may change it.  ``name`` must start with ``_``; no
    field does."""
    if name[:1] != "_":
        raise ValueError(f"kept name {name!r} must start with '_'")
    try:
        return obj.__dict__[name]
    except KeyError:
        value = make()
        object.__setattr__(obj, name, value)
        return value


# ---------------------------------------------------------------------------
# space types


@dataclass(frozen=True)
class FinTopSpace:
    """A finite topological space: carrier size and canonical opens family."""

    n: int
    opens: tuple[int, ...]


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
            acc = union_of(out, out[x])
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


def columns(rows: Sequence[int], width: int) -> tuple[int, ...]:
    """The converse of a relation given as row masks over ``range(width)``:
    bit ``u`` of ``columns(rows, width)[a]`` is set iff bit ``a`` of
    ``rows[u]`` is."""
    cols = [0] * width
    for u, row in enumerate(rows):
        while row:
            low = row & -row
            cols[low.bit_length() - 1] |= 1 << u
            row ^= low
    return tuple(cols)


def int_pairs(pairs: Iterable, what: str) -> Sequence[Sequence[int]]:
    """The index pairs of a JSON relation: a list of lists of exactly two
    integers.  Floats and booleans are rejected rather than truncated.

    Whole-list passes over the pair types, lengths and entry types accept a
    well-formed relation, which is returned as it is; only when one fails
    does the loop below run, to name the first bad pair."""
    if not isinstance(pairs, (list, tuple)):
        raise ValueError(f"{what} pairs must be a list, not {pairs!r}")
    if (set(map(type, pairs)) <= {list, tuple} and set(map(len, pairs)) <= {2}
            and set(map(type, chain.from_iterable(pairs))) <= {int}):
        return pairs
    out = []
    for pair in pairs:
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                and all(type(k) is int for k in pair)):
            raise ValueError(f"{what} pair {pair!r} is not two integers")
        out.append(tuple(pair))
    return out


def check_fields(doc: Mapping, what: str, required: tuple, optional: tuple) -> None:
    """Reject a JSON object that lacks a required field or has a field its
    reader does not know, so that a misspelt field is not read as absent."""
    for key in required:
        if key not in doc:
            raise ValueError(f"{what} has no {key} field")
    for key in doc:
        if key not in required and key not in optional:
            raise ValueError(f"{what} has unknown field {key!r}")


def rows_to_pairs(rows: Sequence[int]) -> list[list[int]]:
    """Non-reflexive pairs of the order, sorted."""
    return [[x, y] for x in range(len(rows)) for y in bits_of(rows[x]) if y != x]


# ---------------------------------------------------------------------------
# topology validation


def _parse_subset(raw, n: int) -> int:
    """A subset given as a mask or as a list of point indices; booleans and
    floats are rejected rather than read as integers."""
    if type(raw) is int:
        if raw < 0 or raw > full_mask(n):
            raise ValueError(f"subset mask {raw} out of range for {n} points")
        return raw
    if not isinstance(raw, (list, tuple)):
        raise ValueError(f"subset {raw!r} is neither a mask nor a list of indices")
    mask = 0
    for p in raw:
        if type(p) is not int:
            raise ValueError(f"subset index {p!r} is not an integer")
        if not (0 <= p < n):
            raise ValueError(f"subset index {p} out of range for {n} points")
        mask |= 1 << p
    return mask


def closure_failure(family: Sequence[int]) -> Optional[tuple[str, int, int]]:
    """A pair (a, b) of members of a family of subsets in canonical order
    whose union (``"|"``) or intersection (``"&"``) is not a member, or
    None when the family is closed under both.

    Each partner a is paired with each member b in turn, union first, and
    the first failing pair is returned.  The partners are, for each point
    x, the first member holding x, lo: by canonical order a smallest one.
    These suffice.  If ``lo & b`` is a member for every b holding x, it is
    no larger than lo and holds x, so it is lo: lo lies in every member
    holding x.  Then b | c is reached from b by joining, one member at a
    time, the lo of each point of c outside it; b & c is the union of the
    lo of its points, or, when empty, ``lo & c`` for a point x of b.
    One pass finds the partners, at most one per point, so the test takes
    at most 2n lookups per member on n points.
    """
    closed = set(family)
    partners = []
    held = 0
    for a in family:
        if a & ~held:
            partners.append(a)
            held |= a
    for a in partners:
        for b in family:
            if a | b not in closed:
                return "|", a, b
            if a & b not in closed:
                return "&", a, b
    return None


def _check_topology(opens: Sequence[int], n: int) -> None:
    """Raise NotATopology unless the canonical family ``opens`` holds the
    empty set and the carrier and is closed under union and intersection."""
    if not opens or opens[0] != 0:          # canonical order: least first
        raise NotATopology("empty set is not open")
    if opens[-1] != full_mask(n):           # and greatest last
        raise NotATopology("full carrier is not open")
    bad = closure_failure(opens)
    if bad is not None:
        op, a, b = bad
        what = "union" if op == "|" else "intersection"
        raise NotATopology(f"opens not closed under {what}: {bits_of(a)} {op} {bits_of(b)}")


def generated(gens: Iterable[int], op: Callable[[int, int], int], unit: int,
              what: str) -> set[int]:
    """The closure of ``gens`` under ``op`` with ``unit``, the identity of
    ``op``, added.  TooLarge, naming ``what``, once it has more than
    DEFAULT_LATTICE_CAP members."""
    family = {unit}
    for g in gens:
        family |= {op(f, g) for f in family}
        if len(family) > DEFAULT_LATTICE_CAP:
            raise TooLarge(f"{what} exceeds cap {DEFAULT_LATTICE_CAP}")
    return family


def make_topology(n: int, opens: Iterable, complete: bool = False) -> FinTopSpace:
    if n < 0 or n > CARRIER_CAP:
        raise TooLarge(f"carrier size {n} outside [0, {CARRIER_CAP}]")
    masks = {_parse_subset(o, n) for o in opens}
    if len(masks) > DEFAULT_LATTICE_CAP:
        raise TooLarge(f"space has {len(masks)} opens, cap is {DEFAULT_LATTICE_CAP}")
    if complete:
        # intersection distributes over union, so the unions of the
        # intersections of the given sets are their closure under both
        what = "completed open family"
        masks = generated(generated(masks, and_, full_mask(n), what), or_, 0, what)
    family = canonical_subsets(masks)
    if not complete:
        _check_topology(family, n)
    return FinTopSpace(n, family)


def space_from_json(raw: Mapping) -> FinPreTopSpace:
    """Build a canonical space from a raw description (the JSON shape).

    Keys: ``points``, ``opens``, ``leq`` (order pairs), optional ``complete``
    (close opens under union/intersection instead of rejecting) and optional
    ``strict`` (reject order pairs that are not already reflexive-transitive
    instead of closing them).  Counts, indices and masks must be ints and
    the flags bools; nothing is coerced, and no other key is accepted.
    """
    check_fields(raw, "space", ("points",), ("opens", "leq", "complete", "strict"))
    n = raw["points"]
    if type(n) is not int:
        raise ValueError(f"space points {n!r} is not an integer")
    for key in ("complete", "strict"):
        if type(raw.get(key, False)) is not bool:
            raise ValueError(f"space {key} {raw[key]!r} is not a boolean")
    opens = raw.get("opens", [])
    if not isinstance(opens, (list, tuple)):
        raise ValueError(f"opens must be a list, not {opens!r}")
    topo = make_topology(n, opens, complete=raw.get("complete", False))
    rows = pairs_to_rows(int_pairs(raw.get("leq", []), "order"), n)
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
    """Convenience wrapper around :func:`space_from_json`."""
    return space_from_json(
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


# ---------------------------------------------------------------------------
# set operators


def upclose(space: FinPreTopSpace, subset: int) -> int:
    return union_of(space.leq, subset)


def downclose(space: FinPreTopSpace, subset: int) -> int:
    return union_of(columns(space.leq, space.n), subset)


def point_closures(space) -> tuple[int, ...]:
    """The closure cl(x) of each point x, the complement of the union of the
    opens that miss x, which the space keeps (:func:`kept`): the one helper
    here that reads ``opens``.  cl(x) holds the points below x in the
    specialization preorder, so these are the columns of its rows."""
    def make():
        full = full_mask(space.n)
        avoid = [0] * space.n
        for u in space.opens:
            for x in bits_of(full & ~u):
                avoid[x] |= u
        return tuple(full & ~a for a in avoid)
    return kept(space, "_point_closures", make)


def closure(space, subset: int) -> int:
    """Smallest closed superset.  A finite topology is the up-sets of its
    specialization preorder (Alexandroff), so the closed sets are the
    down-sets, and a set's closure is the union of its point closures."""
    return union_of(point_closures(space), subset)


def interior(space, subset: int) -> int:
    """Largest open subset, the dual of :func:`closure`: the points whose
    least open lies inside the set, which are the points outside the
    closure of its complement."""
    full = full_mask(space.n)
    return full & ~closure(space, full & ~subset)


def specialization_preorder(space) -> tuple[int, ...]:
    """x <= y iff every open containing x contains y, iff x lies in cl(y):
    the rows are the columns of the point closures, and row x is the least
    open holding x (Alexandroff)."""
    return columns(point_closures(space), space.n)


# ---------------------------------------------------------------------------
# lattices


@dataclass(frozen=True, eq=False)
class FinLattice:
    """A finite lattice over elements ``range(m)``.

    The order lives in ``up_masks``/``down_masks`` (row masks over element
    indices), and nowhere else: joins and meets are read from the masks
    through the index of :meth:`joins` and :meth:`meets`.  ``labels`` is the
    subset bit vector of each element for lattices of subsets, or None for
    abstract ones.
    """

    m: int
    labels: Optional[tuple[int, ...]]
    bot: int
    top: int
    up_masks: tuple[int, ...]
    down_masks: tuple[int, ...]

    def le(self, i: int, j: int) -> bool:
        return bool(self.up_masks[i] >> j & 1)

    def joins(self) -> tuple[tuple[int, ...], dict[int, int]]:
        """``(up_masks, index)``, the index mapping each up-mask to its
        element: the join of i and j is ``index[up_masks[i] & up_masks[j]]``.
        The lattice keeps the index (:func:`kept`); a loop hoists the pair."""
        return self.up_masks, kept(self, "_up_index", lambda: _mask_index(self.up_masks))

    def meets(self) -> tuple[tuple[int, ...], dict[int, int]]:
        """``(down_masks, index)``, as :meth:`joins` on the down-masks."""
        return self.down_masks, kept(self, "_down_index",
                                     lambda: _mask_index(self.down_masks))

    def join(self, i: int, j: int) -> int:
        masks, index = self.joins()
        return index[masks[i] & masks[j]]

    def meet(self, i: int, j: int) -> int:
        masks, index = self.meets()
        return index[masks[i] & masks[j]]

    def key(self) -> tuple:
        """Canonical value for equality comparisons in tests and dedup."""
        return (self.m, self.labels, self.up_masks)

    def __repr__(self):
        tag = "labeled" if self.labels is not None else "abstract"
        return f"FinLattice(m={self.m}, {tag})"


def _mask_index(masks: Sequence[int]) -> dict[int, int]:
    return {mask: i for i, mask in enumerate(masks)}


# a sweep's spaces share a few label families (29 at three points)
_LABELLED: "weakref.WeakValueDictionary[tuple, FinLattice]" = weakref.WeakValueDictionary()


def lattice_from_labels(labels: Sequence[int]) -> FinLattice:
    """Lattice of subsets ordered by inclusion; join/meet are union/intersection.

    The family must be closed under union and intersection and is put into
    canonical order first.  Calls with the same family return the same
    (immutable) lattice while something holds it: a space that has built
    it (:func:`subset_lattice`), a frame, or a caller.  Once nothing does,
    the lattice is collected, and what it keeps (:func:`kept`) with it.
    """
    family = canonical_subsets(labels)
    m = len(family)
    if m == 0:
        raise NotALattice("empty element set")
    if m > DEFAULT_LATTICE_CAP:
        raise TooLarge(f"lattice has {m} elements, cap is {DEFAULT_LATTICE_CAP}")
    lat = _LABELLED.get(family)
    if lat is not None:
        return lat
    width = max(family).bit_length()
    bad = closure_failure(family)
    if bad is not None:
        raise NotALattice(f"label family not closed under union/intersection at "
                          f"{bits_of(bad[1])}, {bits_of(bad[2])}")
    # the supersets of a are the elements holding each point of a
    holders = columns(family, width)
    up = tuple(reduce(and_, map(holders.__getitem__, bits_of(a)), full_mask(m))
               for a in family)
    # canonical order puts the least subset first and the greatest last
    lat = FinLattice(m, family, 0, m - 1, up, columns(up, m))
    _LABELLED[family] = lat
    return lat


def lattice_from_leq(leq: Sequence[Sequence[bool]]) -> FinLattice:
    """Lattice from an explicit square order matrix (nested sequences or an
    array); validates the order and that every pair has a least upper and
    greatest lower bound.  The matrix is read once into up-masks, which
    :func:`_lattice_from_masks` checks; :func:`lattice_from_json` starts
    from its pairs instead."""
    rows = list(leq)
    m = len(rows)
    if m == 0:
        raise NotALattice("empty element set")
    try:
        square = all(len(row) == m for row in rows)
    except TypeError:                       # rows that are not sequences
        square = False
    if not square:
        raise NotALattice("order matrix must be square")
    if m > DEFAULT_LATTICE_CAP:
        raise TooLarge(f"lattice has {m} elements, cap is {DEFAULT_LATTICE_CAP}")
    up = [sum(1 << j for j, v in enumerate(row) if v) for row in rows]
    return _lattice_from_masks(up, columns(up, m), None)


def _lattice_from_masks(up: Sequence[int], down: Sequence[int],
                        labels: Optional[Sequence[int]]) -> FinLattice:
    """The lattice whose order has these up-masks and down-masks (bit j of
    ``up[i]`` and bit i of ``down[j]`` set iff i <= j).

    With the order a partial order, ``up[i] & up[j]`` is the set of upper
    bounds of i and j, and i, j have a least upper bound exactly when that
    set is the up-mask of some element.  Each unordered pair is looked up
    once, and only joins and a bottom are looked for.  Meets follow: the
    join of the lower bounds of i and j, which hold the bottom, is their
    meet.  Transitivity follows too: for a reflexive, antisymmetric order
    and k in ``up[i]``, the mask ``up[i] & up[k]`` holds k and is ``up[x]``
    for some x, which it holds too; so x = k, and ``up[k]`` lies inside
    ``up[i]``.  Only when a join or the bottom is missing is transitivity
    checked, and then the pairs are scanned in row order, join before meet,
    to name the first pair without one.
    """
    m = len(up)
    if any(not up[i] >> i & 1 for i in range(m)):
        raise NotALattice("order not reflexive")
    if any(up[i] & down[i] != 1 << i for i in range(m)):
        raise NotALattice("order not antisymmetric")
    up_index = _mask_index(up)
    full = full_mask(m)
    known = up_index.keys()
    if full not in known or not all(known >= set(map(mask.__and__, up[i + 1:]))
                                    for i, mask in enumerate(up)):
        _raise_missing_bound(up, down, up_index)
    fam: Optional[tuple[int, ...]] = None
    if labels is not None:
        fam = tuple(int(x) for x in labels)
        if len(fam) != m:
            raise NotALattice("label count differs from element count")
    lat = FinLattice(m, fam, up_index[full], down.index(full), tuple(up), tuple(down))
    if fam is not None:
        (_, up_at), (_, down_at) = lat.joins(), lat.meets()
        for i in range(m):
            for j in range(m):
                if bool(up[i] >> j & 1) != is_subset(fam[i], fam[j]):
                    raise NotALattice(f"order disagrees with label inclusion at ({i}, {j})")
                if fam[up_at[up[i] & up[j]]] != fam[i] | fam[j]:
                    raise NotALattice(f"join disagrees with label union at ({i}, {j})")
                if fam[down_at[down[i] & down[j]]] != fam[i] & fam[j]:
                    raise NotALattice(f"meet disagrees with label intersection at ({i}, {j})")
    return lat


def _raise_missing_bound(up, down, up_index) -> None:
    """Raise NotALattice for an order in which some pair lacks a bound: the
    order is not transitive, or else the first pair in row order without a
    join or a meet, the join tested first."""
    for mask in up:
        if union_of(up, mask) != mask:
            raise NotALattice("order not transitive")
    down_index = _mask_index(down)
    for i in range(len(up)):
        for j in range(len(up)):
            if up[i] & up[j] not in up_index:
                raise NotALattice(f"elements {i}, {j} have no least upper bound")
            if down[i] & down[j] not in down_index:
                raise NotALattice(f"elements {i}, {j} have no greatest lower bound")


def upset_family(rows: Sequence[int]) -> tuple[int, ...]:
    """The up-sets of the preorder with row masks ``rows``: the unions of
    its up-cones."""
    return canonical_subsets(generated(set(rows), or_, 0, "up-set family"))


def subset_lattice(space: FinPreTopSpace, kind: str) -> FinLattice:
    """Lattice of opens (``kind='opens'``) or of up-closed sets
    (``kind='upsets'``), which the space keeps (:func:`kept`)."""
    if kind == "opens":
        return kept(space, "_opens_lattice", lambda: lattice_from_labels(space.opens))
    if kind == "upsets":
        return kept(space, "_upsets_lattice",
                    lambda: lattice_from_labels(upset_family(space.leq)))
    raise ValueError(f"unknown subset lattice kind {kind!r}")


# ---------------------------------------------------------------------------
# lattice analysis


@dataclass(frozen=True)
class LatticeAnalysis:
    distributive: bool
    primes: tuple[int, ...]
    coprimes: tuple[int, ...]
    pitchfork: tuple[tuple[int, int], ...]


def lattice_analyze(lat: FinLattice) -> LatticeAnalysis:
    """The analysis of a lattice, which the lattice keeps (:func:`kept`)."""
    return kept(lat, "_analysis", lambda: _analyze(lat))


def _analyze(lat: FinLattice) -> LatticeAnalysis:
    r"""Distributivity, prime and coprime elements, and the pitchfork pairs
    (q, b) with b <= a iff a is not <= q.

    The pitchfork pairs are found by looking up the complement of each
    ``down_masks[q]`` among the up-masks.  They also give the primes and the
    coprimes: q is prime iff the complement of its down-set is a principal
    filter, and b is coprime iff the complement of its up-set is a principal
    ideal.

    A labelled lattice is distributive without a scan: both constructors
    check that its labels send joins to unions and meets to intersections,
    so i -> labels[i] is an injective lattice hom into a powerset, where
    intersection distributes over union.  For an abstract lattice,
    distributivity uses the join-prime criterion: a finite lattice is
    distributive iff every join-irreducible element is coprime (Davey and
    Priestley, *Introduction to Lattices and Order*, ch. 2 and 10).  b is
    join-irreducible iff the elements strictly below it have a greatest
    one c, that is, iff ``down_masks[b]`` without b is a down-mask: one
    lookup in the index of :meth:`FinLattice.meets`.  If c exists, x, y < b
    give x \/ y <= c < b; if not, the join of the elements below b is b
    (one strictly below b would be c), a join of two of them.  The bottom's
    empty strict down-set is no element's down-mask.  The failing triple is
    :func:`distributivity_witness`, asked for only when needed.
    """
    m = lat.m
    full = full_mask(m)
    _, up_index = lat.joins()
    pitchfork = []
    for q in range(m):
        b = up_index.get(full & ~lat.down_masks[q])
        if b is not None:
            pitchfork.append((q, b))
    coprimes = sorted(b for _, b in pitchfork)

    distributive = lat.labels is not None
    if not distributive:
        downs, down_index = lat.meets()
        coprime_set = set(coprimes)
        distributive = all(b in coprime_set for b in range(m)
                           if downs[b] & ~(1 << b) in down_index)
    return LatticeAnalysis(
        distributive=distributive,
        primes=tuple(q for q, _ in pitchfork),
        coprimes=tuple(coprimes),
        pitchfork=tuple(pitchfork),
    )


def distributivity_witness(lat: FinLattice) -> Optional[tuple[int, int, int]]:
    r"""The first triple (a, b, c) in lexicographic order with
    a /\ (b \/ c) != (a /\ b) \/ (a /\ c), or None when the lattice is
    distributive.  The scan is cubic in the size of the lattice.  The
    bottom and the top keep the law as a, since a /\ x is then the bottom
    or x itself, so they are not scanned."""
    if lattice_analyze(lat).distributive:
        return None
    ups, up_at = lat.joins()
    for a in range(lat.m):
        if a in (lat.bot, lat.top):
            continue
        cut = [lat.meet(a, x) for x in range(lat.m)]        # x -> a /\ x
        bad = next(((b, c) for b in range(lat.m) for c in range(lat.m)
                    if cut[up_at[ups[b] & ups[c]]] != up_at[ups[cut[b]] & ups[cut[c]]]), None)
        if bad is not None:
            return (a, *bad)


def lattice_to_json(lat: FinLattice) -> dict:
    doc: dict = {
        "leq": [[i, j] for i in range(lat.m) for j in bits_of(lat.up_masks[i])],
    }
    if lat.labels is not None:
        doc["labels"] = [list(bits_of(lab)) for lab in lat.labels]
    return doc


def lattice_from_json(doc: Mapping) -> FinLattice:
    """The lattice of a JSON document: ``leq`` lists the order pairs, the
    reflexive ones included, and ``labels`` (optional) the subset of each
    element.  One pass over the pairs sets the up-masks and down-masks."""
    check_fields(doc, "lattice", ("leq",), ("labels",))
    pairs = int_pairs(doc["leq"], "order")
    if not pairs:
        raise NotALattice("order pair list is empty; reflexive pairs are required")
    firsts, seconds = zip(*pairs)
    if min(min(firsts), min(seconds)) < 0:
        i, j = next(pair for pair in pairs if min(pair) < 0)
        raise ValueError(f"order pair ({i}, {j}) has a negative index")
    m = max(max(firsts), max(seconds)) + 1
    if m > DEFAULT_LATTICE_CAP:
        raise TooLarge(f"lattice has {m} elements, cap is {DEFAULT_LATTICE_CAP}")
    labels = None
    if "labels" in doc and doc["labels"] is not None:
        if not isinstance(doc["labels"], (list, tuple)):
            raise ValueError(f"labels must be a list, not {doc['labels']!r}")
        labels = [_parse_subset(lab, CARRIER_CAP) for lab in doc["labels"]]
    up, down = [0] * m, [0] * m
    for i, j in pairs:
        up[i] |= 1 << j
        down[j] |= 1 << i
    return _lattice_from_masks(up, down, labels)


# ---------------------------------------------------------------------------
# irreducible closed sets, equivalence classes


def irreducible_closed_sets(space) -> tuple[int, ...]:
    """Non-empty closed sets C such that C <= C1 u C2 forces C inside one
    part, in canonical order.

    On a finite space these are exactly the point closures (Johnstone,
    *Stone Spaces*, ch. II): a closure cl(x) lies in C1 u C2 only if x lies
    in one part, and then cl(x) does; conversely C is the finite union of
    the cl(x) for x in C, so irreducibility puts C inside one cl(x), which
    lies in C.  They are read off the kept point closures at each call.
    """
    return canonical_subsets(point_closures(space))


def point_classes(space: FinPreTopSpace) -> tuple[int, ...]:
    """The :func:`equivalence_classes` of the space's preorder, which the
    space keeps (:func:`kept`)."""
    return kept(space, "_point_classes", lambda: equivalence_classes(space.leq))


def equivalence_classes(leq: Sequence[int]) -> tuple[int, ...]:
    """Partition under x ~ y iff x <= y <= x, ordered by smallest member.

    Each class is a subset mask; its representative is its lowest bit.
    """
    seen = 0
    classes = []
    for x, down in enumerate(columns(leq, len(leq))):
        if seen >> x & 1:
            continue
        cls = leq[x] & down
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
    for x in bits_of(subset):
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
        for y in bits_of(src.leq[x]):
            if not dst.leq[mapping[x]] >> mapping[y] & 1:
                return (x, y)
    return None


def preserving_maps(n: int, m: int, relations) -> list[tuple[int, ...]]:
    """The maps f from ``range(n)`` to ``range(m)``, in lexicographic order,
    with f(x) S f(y) whenever x R y, for each pair (R, S) of row relations
    in ``relations``.  It assigns f(0), f(1), ... in turn: f(k)'s candidate
    mask is ANDed with S's diagonal if k R k, and with S's row (column) at
    f(j) for each assigned j R k (k R j).  A finite space is Alexandrov, so
    its continuous maps are those that preserve the specialization preorder
    (P. Alexandroff, Diskrete Räume, Mat. Sbornik 2, 1937)."""
    rels = [(rows, dst, columns(dst, m), sum(1 << a for a in range(m) if dst[a] >> a & 1))
            for rows, dst in relations]

    def candidates(f, k):
        cand = (1 << m) - 1
        for rows, dst, cols, diag in rels:
            if rows[k] >> k & 1:
                cand &= diag
            for j, a in enumerate(f):
                if rows[j] >> k & 1:
                    cand &= dst[a]
                if rows[k] >> j & 1:
                    cand &= cols[a]
        return cand

    maps = [()]
    for k in range(n):
        maps = [f + (a,) for f in maps for a in bits_of(candidates(f, k))]
    return maps
