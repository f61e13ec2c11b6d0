r"""Ad-frames: a frame of opens and a lattice of up-closed sets coupled by
four relations (tot, con, fof, cou), together with their homomorphisms.

Pairs (u, a) in omega x ell carry two orders:

  - information order:  (u, a) below (v, b)  iff  u <= v and a <= b
  - logical order:      (u, a) below (v, b)  iff  u <= v and b <= a

tot/con live on the logical side (their binary "logical meet" is
(u /\ v, a \/ b), "logical join" is (u \/ v, a /\ b)); fof/cou use the
information-side meet (u /\ v, a /\ b) and join (u \/ v, a \/ b).
con (information order) and cou (logical order) must also be Scott-closed:
down-closed and closed under suprema of directed subfamilies.  On finite
lattices the second half holds for every relation, because a finite
directed family has a greatest member and that member is its supremum.
Scott closure is therefore down-closure, which ``con-down-closed`` and
``cou-down-closed`` check.

Each relation is stored once, as a tuple of ``omega.m`` row masks over ell
indices: bit a of row u is set iff (u, a) is in the relation, the
convention of the preorders in :mod:`adframe.finord`.  ``finord.columns``
gives its converse and ``rel_pairs`` its pairs.

The validator checks an up- or down-closure law once per distinct row of
the relation, not once per member, and a binary law over each unordered
pair of members once, since joins and meets commute.  The witness of a
failing law is the first one a scan of all members, or of all pairs of
members, in order would meet.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from operator import and_
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence

from .bits import bits_of, full_mask, is_subset, low_bit, union_of
from .errors import (
    NonDistributiveLattice,
    NotContinuous,
    NotMonotone,
    TrivialFrame,
)
from . import finord
from .finord import (
    FinLattice,
    FinPreTopSpace,
    columns,
    kept,
    lattice_analyze,
    lattice_from_json,
    lattice_from_leq,
    lattice_to_json,
    preserving_maps,
    subset_lattice,
)

REL_NAMES = ("tot", "con", "fof", "cou")


class Variant(str, Enum):
    UP = "up"
    DOWN = "down"
    BOTH = "both"

    @property
    def sees_up(self) -> bool:
        return self is not Variant.DOWN

    @property
    def sees_down(self) -> bool:
        return self is not Variant.UP

    @classmethod
    def parse(cls, value) -> "Variant":
        if isinstance(value, Variant):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise ValueError(f"unknown variant {value!r}") from None


@dataclass(frozen=True, eq=False)
class AdFrame:
    """All four relations are always stored; ``variant`` selects which of
    them the validator and the point conditions look at."""

    omega: FinLattice
    ell: FinLattice
    tot: tuple[int, ...]
    con: tuple[int, ...]
    fof: tuple[int, ...]
    cou: tuple[int, ...]
    variant: Variant

    def rel(self, name: str) -> tuple[int, ...]:
        if name not in REL_NAMES:
            raise ValueError(f"unknown relation {name!r}")
        return getattr(self, name)

    def with_variant(self, variant) -> "AdFrame":
        return AdFrame(self.omega, self.ell, self.tot, self.con, self.fof,
                       self.cou, Variant.parse(variant))

    def key(self) -> tuple:
        return (self.omega.key(), self.ell.key(), self.tot, self.con,
                self.fof, self.cou, self.variant.value)

    def __repr__(self):
        return (f"AdFrame(|omega|={self.omega.m}, |ell|={self.ell.m}, "
                f"variant={self.variant.value})")


def build_ado(space: FinPreTopSpace, variant=Variant.BOTH) -> AdFrame:
    """The ad-frame of a space: opens vs. up-closed sets, with
    tot = covering pairs, con = disjoint pairs, fof = containments U >= A,
    cou = inclusions U <= A.  The space keeps the four rows."""
    omega = subset_lattice(space, "opens")
    ell = subset_lattice(space, "upsets")
    rows = kept(space, "_relation_rows", lambda: _relation_rows(omega, ell))
    return AdFrame(omega, ell, *rows, Variant.parse(variant))


def _relation_rows(omega: FinLattice, ell: FinLattice) -> tuple[tuple[int, ...], ...]:
    """The rows of tot, con, fof and cou between a lattice of opens and a
    lattice of up-sets of one carrier, which is omega's top label."""
    full = omega.labels[omega.top]
    tot, con, fof, cou = ([0] * omega.m for _ in REL_NAMES)
    for i, u in enumerate(omega.labels):
        for j, a in enumerate(ell.labels):
            if u | a == full:
                tot[i] |= 1 << j
            if u & a == 0:
                con[i] |= 1 << j
            if is_subset(a, u):
                fof[i] |= 1 << j
            if is_subset(u, a):
                cou[i] |= 1 << j
    return tuple(tot), tuple(con), tuple(fof), tuple(cou)


# ---------------------------------------------------------------------------
# validation


class AxiomCheck(NamedTuple):
    law: str
    ok: bool
    witness: Optional[tuple] = None


@dataclass(frozen=True)
class ValidationReport:
    variant: Variant
    checks: tuple[AxiomCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> tuple[AxiomCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)


def rel_pairs(rows: Sequence[int]) -> Iterator[tuple[int, int]]:
    """The pairs (u, a) of a relation given as row masks, in sorted order."""
    for u, row in enumerate(rows):
        for a in bits_of(row):
            yield (u, a)


def _reach_check(name, R, o_to, l_to) -> AxiomCheck:
    """Closure of R (row masks) under moving a member (u, a) to any (v, b)
    with v in ``o_to[u]`` and b in ``l_to[a]``.  On failure the witness is
    the first missing (v, b) in row order and the first member reaching it.

    The members of one row r reach the same b's, the closure of r under
    ``l_to``, so that closure is taken once per distinct row, for the union
    of ``o_to[u]`` over the u's with that row."""
    above: dict[int, int] = {}
    for u, row in enumerate(R):
        if row:
            above[row] = above.get(row, 0) | o_to[u]
    reach = [0] * len(R)
    for row, vs in above.items():
        targets = union_of(l_to, row)
        for v in bits_of(vs):
            reach[v] |= targets
    for v, row in enumerate(R):
        missing = reach[v] & ~row
        if missing:
            b = low_bit(missing)
            member = next((u, a) for u, row_u in enumerate(R) if o_to[u] >> v & 1
                          for a in bits_of(row_u) if l_to[a] >> b & 1)
            return AxiomCheck(name, False, (member, (v, b)))
    return AxiomCheck(name, True)


def _member_check(name, R, pair) -> AxiomCheck:
    ok = bool(R[pair[0]] >> pair[1] & 1)
    return AxiomCheck(name, ok, None if ok else (pair,))


def _binary_check(name, R, op_o, op_l) -> AxiomCheck:
    """R is closed under (u, a), (v, b) -> (u * v, a * b), where each
    operation is a pair ``(masks, index)`` of :meth:`FinLattice.joins` or
    ``meets``: x * y is ``index[masks[x] & masks[y]]``.

    For each unordered pair of row values A and B (the operations commute),
    the row of every u * v, u of row A and v of row B, must hold the image
    of the a * b, a in A and b in B; no u * v is formed when every row of R
    holds it.  On failure the witness is the first failing pair of members
    in pair order."""
    (o_masks, o_at), (l_masks, l_at) = op_o, op_l
    common = reduce(and_, R)
    classes: dict[int, list[int]] = {}
    for u, row in enumerate(R):
        if row:
            classes.setdefault(row, []).append(o_masks[u])
    values = [([l_masks[a] for a in bits_of(row)], masks) for row, masks in classes.items()]
    for k, (masks_a, masks_u) in enumerate(values):
        for masks_b, masks_v in values[k:]:
            image = 0
            for mask_b in masks_b:
                for mask_a in masks_a:
                    image |= 1 << l_at[mask_a & mask_b]
            if not image & ~common:
                continue
            for mask_u in masks_u:
                for mask_v in masks_v:
                    if image & ~R[o_at[mask_u & mask_v]]:
                        return AxiomCheck(name, False, _first_failing_pair(R, op_o, op_l))
    return AxiomCheck(name, True)


def _first_failing_pair(R, op_o, op_l) -> tuple:
    """The witness of a failed :func:`_binary_check`."""
    (o_masks, o_at), (l_masks, l_at) = op_o, op_l
    for u, a in rel_pairs(R):
        for v, b in rel_pairs(R):
            w, c = o_at[o_masks[u] & o_masks[v]], l_at[l_masks[a] & l_masks[b]]
            if not R[w] >> c & 1:
                return ((u, a), (v, b), (w, c))


def _aligned_check(name, A, B, o_up, l_up, logic: bool) -> AxiomCheck:
    """(u,a) in A and (v,b) in B with u = v or a = b force the pair
    comparison: information order when logic is False, logical order else."""
    for u, (arow, brow) in enumerate(zip(A, B)):
        # need b <= a (logical order) or a <= b (information order)
        outer, inner = (brow, arow) if logic else (arow, brow)
        for x in bits_of(outer):
            bad = inner & ~l_up[x]
            if bad:
                y = low_bit(bad)
                return AxiomCheck(name, False,
                                  ((u, y), (u, x)) if logic else ((u, x), (u, y)))
    for a, (acol, bcol) in enumerate(zip(columns(A, len(l_up)), columns(B, len(l_up)))):
        for u in bits_of(acol):                     # need u <= v either way
            bad = bcol & ~o_up[u]
            if bad:
                return AxiomCheck(name, False, ((u, a), (low_bit(bad), a)))
    return AxiomCheck(name, True)


def _forced_coord_check(name, R1, R2, coord: str, value: int) -> AxiomCheck:
    for u, (row1, row2) in enumerate(zip(R1, R2)):
        both = row1 & row2
        bad = (both if u != value else 0) if coord == "omega" else both & ~(1 << value)
        if bad:
            return AxiomCheck(name, False, ((u, low_bit(bad)),))
    return AxiomCheck(name, True)


def _require_distributive(lat: FinLattice, side: str) -> None:
    if not lattice_analyze(lat).distributive:
        raise NonDistributiveLattice(f"{side} lattice not distributive, "
                                     f"witness {finord.distributivity_witness(lat)}")


def validate_adframe(frame: AdFrame) -> ValidationReport:
    """Check every axiom the frame's variant demands; returns a per-law report.

    Raises NonDistributiveLattice if either component lattice fails
    distributivity (finite stand-in for the completeness requirements).
    """
    for lat, side in ((frame.omega, "omega"), (frame.ell, "ell")):
        _require_distributive(lat, side)

    omega, ell = frame.omega, frame.ell
    o_up, o_down, l_up, l_down = (omega.up_masks, omega.down_masks,
                                  ell.up_masks, ell.down_masks)
    jo, mo = omega.joins(), omega.meets()
    jl, ml = ell.joins(), ell.meets()
    ff = (omega.bot, ell.top)
    tt = (omega.top, ell.bot)
    bots = (omega.bot, ell.bot)
    tops = (omega.top, ell.top)

    checks: list[AxiomCheck] = []
    if frame.variant.sees_up:
        checks += [
            _reach_check("tot-up-closed", frame.tot, o_up, l_up),
            _member_check("tot-has-ff", frame.tot, ff),
            _member_check("tot-has-tt", frame.tot, tt),
            _binary_check("tot-logical-meet", frame.tot, mo, jl),
            _binary_check("tot-logical-join", frame.tot, jo, ml),
            _reach_check("con-down-closed", frame.con, o_down, l_down),
            _member_check("con-has-ff", frame.con, ff),
            _member_check("con-has-tt", frame.con, tt),
            _binary_check("con-logical-meet", frame.con, mo, jl),
            _binary_check("con-logical-join", frame.con, jo, ml),
            _aligned_check("con-tot-aligned", frame.con, frame.tot, o_up, l_up, False),
        ]
    if frame.variant.sees_down:
        checks += [
            _reach_check("fof-up-closed", frame.fof, o_up, l_down),
            _member_check("fof-has-bots", frame.fof, bots),
            _member_check("fof-has-tops", frame.fof, tops),
            _binary_check("fof-info-meet", frame.fof, mo, ml),
            _binary_check("fof-info-join", frame.fof, jo, jl),
            _reach_check("cou-down-closed", frame.cou, o_down, l_up),
            _member_check("cou-has-bots", frame.cou, bots),
            _member_check("cou-has-tops", frame.cou, tops),
            _binary_check("cou-info-meet", frame.cou, mo, ml),
            _binary_check("cou-info-join", frame.cou, jo, jl),
            _aligned_check("cou-fof-aligned", frame.cou, frame.fof, o_up, l_up, True),
        ]
    if frame.variant is Variant.BOTH:
        checks += [
            _forced_coord_check("con-cou-bottom", frame.con, frame.cou,
                                "omega", omega.bot),
            _forced_coord_check("tot-fof-top", frame.tot, frame.fof,
                                "omega", omega.top),
            _forced_coord_check("con-fof-ell-bottom", frame.con, frame.fof,
                                "ell", ell.bot),
            _forced_coord_check("tot-cou-ell-top", frame.tot, frame.cou,
                                "ell", ell.top),
        ]
    return ValidationReport(frame.variant, tuple(checks))


# ---------------------------------------------------------------------------
# homomorphisms


@dataclass(eq=False)
class AdFrameHom:
    """phi maps source opens-side elements to target ones, p the lattice side."""

    source: AdFrame
    target: AdFrame
    phi: tuple[int, ...]
    p: tuple[int, ...]

    def key(self) -> tuple:
        return (self.phi, self.p)

    def __repr__(self):
        return f"AdFrameHom(phi={self.phi}, p={self.p})"


def build_ado_hom(mapping: Sequence[int], src: FinPreTopSpace, dst: FinPreTopSpace,
                  variant=Variant.BOTH) -> AdFrameHom:
    """Contravariant image of a continuous monotone map: a hom from the
    ad-frame of ``dst`` to the ad-frame of ``src`` by taking preimages.
    ADJ-EXISTS checks that the result satisfies the hom laws."""
    variant = Variant.parse(variant)
    bad_open = finord.continuity_failure(src, dst, mapping)
    if bad_open is not None:
        raise NotContinuous(f"preimage of open {bits_of(bad_open)} is not open")
    bad_pair = finord.monotonicity_failure(src, dst, mapping)
    if bad_pair is not None:
        raise NotMonotone(f"map does not respect order at pair {bad_pair}")
    ado_dst = build_ado(dst, variant)
    return preimage_hom(ado_dst, ado_dst.omega.labels, ado_dst.ell.labels,
                        mapping, src)


def preimage_hom(source: AdFrame, omega_sets: Sequence[int],
                 ell_sets: Sequence[int], mapping: Sequence[int],
                 space: FinPreTopSpace) -> AdFrameHom:
    """The hom from ``source`` to the ad-frame of ``space`` that sends each
    element to the preimage under ``mapping`` of the set it stands for:
    ``omega_sets[u]`` for opens-side element u, ``ell_sets[a]`` for
    lattice-side element a.  The caller has checked that ``mapping`` is
    continuous and monotone, so every preimage is an open or an up-set."""
    target = build_ado(space, source.variant)
    omega_index = {lab: i for i, lab in enumerate(target.omega.labels)}
    ell_index = {lab: i for i, lab in enumerate(target.ell.labels)}
    phi = tuple(omega_index[finord.preimage(mapping, u)] for u in omega_sets)
    p = tuple(ell_index[finord.preimage(mapping, a)] for a in ell_sets)
    return AdFrameHom(source, target, phi, p)


def compose_homs(second: AdFrameHom, first: AdFrameHom) -> AdFrameHom:
    """second after first; first.target must equal second.source by
    ``key()``, so homs compose also when each side built its own frame."""
    if first.target.key() != second.source.key():
        raise ValueError("homs do not compose: middle frames differ")
    phi = tuple(second.phi[v] for v in first.phi)
    p = tuple(second.p[a] for a in first.p)
    return AdFrameHom(first.source, second.target, phi, p)


def _lattice_hom_checks(prefix, fn, src: FinLattice, dst: FinLattice):
    checks = []
    ok_bot = fn[src.bot] == dst.bot
    checks.append(AxiomCheck(f"{prefix}-bot", ok_bot,
                             None if ok_bot else ((src.bot, fn[src.bot]),)))
    ok_top = fn[src.top] == dst.top
    checks.append(AxiomCheck(f"{prefix}-top", ok_top,
                             None if ok_top else ((src.top, fn[src.top]),)))
    m = src.m
    for law, (s_masks, s_at), (d_masks, _) in (("join", src.joins(), dst.joins()),
                                               ("meet", src.meets(), dst.meets())):
        # fn[i] * fn[j] = fn[i * j] iff their masks are equal; both sides commute
        # and hold for i = j, so the first failing pair in row order has i < j
        d_of = [d_masks[x] for x in fn]
        bad = next(((i, j) for i in range(m) for j in range(i + 1, m)
                    if d_of[i] & d_of[j] != d_of[s_at[s_masks[i] & s_masks[j]]]), None)
        checks.append(AxiomCheck(f"{prefix}-{law}", bad is None, bad))
    return checks


def _seen_relations(variant: Variant) -> tuple[str, ...]:
    return tuple(n for n in REL_NAMES
                 if (n in ("tot", "con") and variant.sees_up)
                 or (n in ("fof", "cou") and variant.sees_down))


def preservation_failure(hom: AdFrameHom, name: str) -> Optional[tuple]:
    """The first pair of relation ``name`` (in sorted order) whose image
    under (phi, p) is missing from the target's relation, as (pair, image),
    or None."""
    target = hom.target.rel(name)
    phi, p = hom.phi, hom.p
    for u, row in enumerate(hom.source.rel(name)):
        image_row = target[phi[u]]
        for a in bits_of(row):
            if not image_row >> p[a] & 1:
                return ((u, a), (phi[u], p[a]))
    return None


def preserves_relations(hom: AdFrameHom) -> bool:
    """Whether (phi, p) preserves every relation the source's variant sees;
    for bounded lattice homs between frames of one variant this is
    ``validate_hom(hom).ok``."""
    return all(preservation_failure(hom, name) is None
               for name in _seen_relations(hom.source.variant))


def validate_hom(hom: AdFrameHom) -> ValidationReport:
    """Lattice-hom laws for both components plus preservation of every
    relation the variant sees."""
    src, dst = hom.source, hom.target
    variant = src.variant
    checks: list[AxiomCheck] = [
        AxiomCheck("variant-agreement", src.variant is dst.variant,
                   None if src.variant is dst.variant
                   else ((src.variant.value, dst.variant.value),)),
    ]
    checks += _lattice_hom_checks("phi", hom.phi, src.omega, dst.omega)
    checks += _lattice_hom_checks("p", hom.p, src.ell, dst.ell)
    for name in _seen_relations(variant):
        bad = preservation_failure(hom, name)
        checks.append(AxiomCheck(f"{name}-preserved", bad is None, bad))
    return ValidationReport(variant, tuple(checks))


def bounded_lattice_homs(src: FinLattice, dst: FinLattice) -> list[tuple[int, ...]]:
    """All maps preserving bottom, top, binary join and binary meet between
    distributive lattices; NonDistributiveLattice for any other.  The
    source keeps (:func:`finord.kept`) a table of them keyed weakly by the
    target, so an entry goes with either lattice; the list is shared, and
    callers do not change it.

    By Birkhoff duality the homs f: src -> dst are the monotone maps
    g: J(dst) -> J(src) between the posets of join-irreducibles, which in
    a distributive lattice are its coprimes, with f(a) the join of the j
    with g(j) <= a (G. Birkhoff, Rings of sets, Duke Math. J. 3, 1937;
    Davey and Priestley, *Introduction to Lattices and Order*, ch. 10).  A
    join is the AND of up-masks, so each j ANDs its up-mask into the image
    of every element above g(j).  The list is in the order in which
    :func:`finord.preserving_maps` yields g: lexicographic over J(dst)."""
    table = kept(src, "_homs", weakref.WeakKeyDictionary)
    homs = table.get(dst)
    if homs is None:
        for lat, side in ((src, "source"), (dst, "target")):
            _require_distributive(lat, side)
        jd, js = lattice_analyze(dst).coprimes, lattice_analyze(src).coprimes

        def rows(lat, elems):
            return [sum(1 << k for k, b in enumerate(elems) if lat.le(a, b)) for a in elems]

        ups, index = dst.joins()
        homs = []
        for g in preserving_maps(len(jd), len(js), [(rows(dst, jd), rows(src, js))]):
            image = [full_mask(dst.m)] * src.m
            for j, k in zip(jd, g):
                for a in bits_of(src.up_masks[js[k]]):
                    image[a] &= ups[j]
            homs.append(tuple(index[mask] for mask in image))
        table[dst] = homs
    return homs


# ---------------------------------------------------------------------------
# semi-continuity flags


def check_usc_lsc(frame: AdFrame):
    """(usc, lsc) flags: every lattice element a join of tot-and-con values /
    a meet of fof-and-cou values.  A side the variant cannot see is None.
    A join is the AND of up-masks (a meet of down-masks), the empty one the
    full mask, so the elements reached are the masks ``finord.generated``
    makes under AND."""
    usc: Optional[bool] = None
    lsc: Optional[bool] = None
    ell, full = frame.ell, full_mask(frame.ell.m)
    if frame.variant.sees_up:
        seed = {ell.up_masks[a] for t, c in zip(frame.tot, frame.con) for a in bits_of(t & c)}
        usc = len(finord.generated(seed, and_, full, "joins")) == ell.m
    if frame.variant.sees_down:
        seed = {ell.down_masks[a] for f, c in zip(frame.fof, frame.cou) for a in bits_of(f & c)}
        lsc = len(finord.generated(seed, and_, full, "meets")) == ell.m
    return (usc, lsc)


# ---------------------------------------------------------------------------
# the two-element-lattice functor and its counit


TWO_CHAIN = lattice_from_leq([[True, True], [False, True]])


def ind_functor(omega: FinLattice, variant=Variant.BOTH) -> AdFrame:
    """Couple a (non-trivial) frame with the two-element lattice:
    tot holds when u = top or a = 1, con when u = bot or a = 0,
    fof when u = top or a = 0, cou when u = bot or a = 1.

    On a frame hom psi the functor gives the hom (psi, id) between the
    coupled frames; IND-ADJ builds it as ``AdFrameHom`` directly.
    """
    variant = Variant.parse(variant)
    if omega.m == 1:
        raise TrivialFrame("the coupling needs bottom distinct from top")
    ell = TWO_CHAIN
    top, bot = omega.top, omega.bot
    # bit 0 of a row is the chain's bottom, bit 1 its top
    tot = tuple(0b11 if u == top else 0b10 for u in range(omega.m))
    con = tuple(0b11 if u == bot else 0b01 for u in range(omega.m))
    fof = tuple(0b11 if u == top else 0b01 for u in range(omega.m))
    cou = tuple(0b11 if u == bot else 0b10 for u in range(omega.m))
    return AdFrame(omega, ell, tot, con, fof, cou, variant)


def bnd_map(ell: FinLattice) -> tuple[int, int]:
    """The unique complete-lattice hom from the two-element lattice."""
    return (ell.bot, ell.top)


def epsilon_hom(frame: AdFrame) -> AdFrameHom:
    """Counit at ``frame``: identity on the opens side, bottom/top on the
    lattice side, from the two-element coupling of the same opens frame."""
    if frame.omega.m == 1:
        raise TrivialFrame("counit undefined for a trivial opens frame")
    src = ind_functor(frame.omega, variant=frame.variant)
    return AdFrameHom(src, frame, tuple(range(frame.omega.m)), bnd_map(frame.ell))


# ---------------------------------------------------------------------------
# serialization


def adframe_to_json(frame: AdFrame) -> dict:
    return {
        "omega": lattice_to_json(frame.omega),
        "ell": lattice_to_json(frame.ell),
        **{name: [list(pair) for pair in rel_pairs(frame.rel(name))]
           for name in REL_NAMES},
        "variant": frame.variant.value,
    }


def adframe_from_json(doc: Mapping) -> AdFrame:
    finord.check_fields(doc, "frame", ("omega", "ell"), REL_NAMES + ("variant",))
    sides = []
    for side in ("omega", "ell"):
        if not isinstance(doc[side], Mapping):
            raise ValueError(f"{side} must be an object, not {doc[side]!r}")
        finord.check_fields(doc[side], side, ("leq",), ("labels",))
        sides.append(lattice_from_json(doc[side]))
    omega, ell = sides
    rels = {}
    for name in REL_NAMES:
        rows = [0] * omega.m
        for i, j in finord.int_pairs(doc.get(name, []), name):
            if not (0 <= i < omega.m and 0 <= j < ell.m):
                raise ValueError(f"{name} pair ({i}, {j}) out of range")
            rows[i] |= 1 << j
        rels[name] = tuple(rows)
    return AdFrame(omega, ell, rels["tot"], rels["con"], rels["fof"],
                   rels["cou"], Variant.parse(doc.get("variant", "both")))
