r"""Ad-frames: a frame of opens and a lattice of up-closed sets coupled by
four relations (tot, con, fof, cou), together with their homomorphisms.

Pairs (u, a) in omega x ell carry two orders:

  - information order:  (u, a) below (v, b)  iff  u <= v and a <= b
  - logical order:      (u, a) below (v, b)  iff  u <= v and b <= a

tot/con live on the logical side (their binary "logical meet" is
(u /\ v, a \/ b), "logical join" is (u \/ v, a /\ b)); fof/cou use the
information-side meet (u /\ v, a /\ b) and join (u \/ v, a \/ b).
Closure under directed suprema reduces to downward closure for finite
lattices; a directed-family oracle re-checks that reduction on small
instances.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional, Sequence

import numpy as np

from .bits import bits_of, is_subset, iter_bits
from .errors import (
    NonDistributiveLattice,
    NotContinuous,
    NotMonotone,
    TrivialFrame,
    VariantMismatch,
)
from . import finord
from .finord import (
    DEFAULT_LATTICE_CAP,
    FinLattice,
    FinPreTopSpace,
    lattice_analyze,
    lattice_from_json,
    lattice_from_leq,
    lattice_to_json,
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


Rel = frozenset  # of (omega index, ell index) pairs


@dataclass(eq=False)
class AdFrame:
    """All four relations are always stored; ``variant`` selects which of
    them the validator and the point conditions look at."""

    omega: FinLattice
    ell: FinLattice
    tot: Rel
    con: Rel
    fof: Rel
    cou: Rel
    variant: Variant

    def rel(self, name: str) -> Rel:
        if name not in REL_NAMES:
            raise ValueError(f"unknown relation {name!r}")
        return getattr(self, name)

    def rel_matrix(self, name: str) -> np.ndarray:
        mat = np.zeros((self.omega.m, self.ell.m), dtype=bool)
        for i, j in self.rel(name):
            mat[i, j] = True
        mat.setflags(write=False)
        return mat

    def with_variant(self, variant) -> "AdFrame":
        return AdFrame(self.omega, self.ell, self.tot, self.con, self.fof,
                       self.cou, Variant.parse(variant))

    def key(self) -> tuple:
        return (self.omega.key(), self.ell.key(),
                tuple(sorted(self.tot)), tuple(sorted(self.con)),
                tuple(sorted(self.fof)), tuple(sorted(self.cou)),
                self.variant.value)

    def __repr__(self):
        return (f"AdFrame(|omega|={self.omega.m}, |ell|={self.ell.m}, "
                f"variant={self.variant.value})")


def build_ado(space: FinPreTopSpace, variant=Variant.BOTH,
              cap: int = DEFAULT_LATTICE_CAP) -> AdFrame:
    """The ad-frame of a space: opens vs. up-closed sets, with
    tot = covering pairs, con = disjoint pairs, fof = containments U >= A,
    cou = inclusions U <= A."""
    variant = Variant.parse(variant)
    omega = subset_lattice(space, "opens", cap=cap)
    ell = subset_lattice(space, "upsets", cap=cap)
    full = space.full
    tot, con, fof, cou = set(), set(), set(), set()
    for i, u in enumerate(omega.labels):
        for j, a in enumerate(ell.labels):
            if u | a == full:
                tot.add((i, j))
            if u & a == 0:
                con.add((i, j))
            if is_subset(a, u):
                fof.add((i, j))
            if is_subset(u, a):
                cou.add((i, j))
    return AdFrame(omega, ell, frozenset(tot), frozenset(con),
                   frozenset(fof), frozenset(cou), variant)


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class AxiomCheck:
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


def _closure_witness(R, S, order_o, order_l, up: bool):
    """A pair ((u, a) in R, (v, b) required but absent) for a closure failure."""
    v, b = (int(x) for x in np.argwhere(S & ~R)[0])
    for u, a in zip(*np.nonzero(R)):
        if up:
            if order_o[u, v] and order_l[a, b]:
                return ((int(u), int(a)), (v, b))
        else:
            if order_o[v, u] and order_l[b, a]:
                return ((int(u), int(a)), (v, b))
    return ((v, b),)


def _reach_check(name, R, O, E, mode) -> AxiomCheck:
    """Closure of R under moving along an order: mode picks the order/direction."""
    o8, r8, e8 = O.astype(np.uint8), R.astype(np.uint8), E.astype(np.uint8)
    if mode == "up-info":       # (u,a) in R, u<=v, a<=b  =>  (v,b) in R
        S = (o8.T @ r8 @ e8) > 0
        w = lambda: _closure_witness(R, S, O, E, True)
    elif mode == "down-info":   # (v,b) in R, u<=v, a<=b  =>  (u,a) in R
        S = (o8 @ r8 @ e8.T) > 0
        w = lambda: _closure_witness(R, S, O, E, False)
    elif mode == "up-logic":    # (u,a) in R, u<=v, b<=a  =>  (v,b) in R
        S = (o8.T @ r8 @ e8.T) > 0
        w = lambda: _closure_witness(R, S, O, E.T, True)
    elif mode == "down-logic":  # (v,b) in R, u<=v, b<=a  =>  (u,a) in R
        S = (o8 @ r8 @ e8) > 0
        w = lambda: _closure_witness(R, S, O, E.T, False)
    else:  # pragma: no cover
        raise ValueError(mode)
    ok = not (S & ~R).any()
    return AxiomCheck(name, ok, None if ok else w())


def _member_check(name, R, pair) -> AxiomCheck:
    ok = bool(R[pair])
    return AxiomCheck(name, ok, None if ok else (pair,))


def _binary_check(name, R, tab_o, tab_l) -> AxiomCheck:
    us, as_ = np.nonzero(R)
    if len(us) == 0:
        return AxiomCheck(name, True)
    U = tab_o[np.ix_(us, us)]
    A = tab_l[np.ix_(as_, as_)]
    bad = ~R[U, A]
    if not bad.any():
        return AxiomCheck(name, True)
    i, j = (int(x) for x in np.argwhere(bad)[0])
    witness = ((int(us[i]), int(as_[i])), (int(us[j]), int(as_[j])),
               (int(U[i, j]), int(A[i, j])))
    return AxiomCheck(name, False, witness)


def _aligned_check(name, A_rel, B_rel, O, E, logic: bool) -> AxiomCheck:
    """(u,a) in A_rel and (v,b) in B_rel with u = v or a = b force the pair
    comparison: information order when logic is False, logical order else."""
    mo, ml = A_rel.shape
    for u in range(mo):
        acols = np.flatnonzero(A_rel[u])
        bcols = np.flatnonzero(B_rel[u])
        if len(acols) and len(bcols):
            if logic:
                bad = ~E[np.ix_(bcols, acols)]      # need b <= a
                if bad.any():
                    bi, ai = np.argwhere(bad)[0]
                    return AxiomCheck(name, False,
                                      ((u, int(acols[ai])), (u, int(bcols[bi]))))
            else:
                bad = ~E[np.ix_(acols, bcols)]      # need a <= b
                if bad.any():
                    ai, bi = np.argwhere(bad)[0]
                    return AxiomCheck(name, False,
                                      ((u, int(acols[ai])), (u, int(bcols[bi]))))
    for a in range(ml):
        arows = np.flatnonzero(A_rel[:, a])
        brows = np.flatnonzero(B_rel[:, a])
        if len(arows) and len(brows):
            bad = ~O[np.ix_(arows, brows)]          # need u <= v either way
            if bad.any():
                ui, vi = np.argwhere(bad)[0]
                return AxiomCheck(name, False,
                                  ((int(arows[ui]), a), (int(brows[vi]), a)))
    return AxiomCheck(name, True)


def _forced_coord_check(name, R1, R2, coord: str, value: int) -> AxiomCheck:
    both = R1 & R2
    for u, a in zip(*np.nonzero(both)):
        got = int(u) if coord == "omega" else int(a)
        if got != value:
            return AxiomCheck(name, False, ((int(u), int(a)),))
    return AxiomCheck(name, True)


_SCOTT_GATE = 64
_SCOTT_EXHAUSTIVE = 10


def _scott_oracle(name, frame: AdFrame, R, logic_second: bool) -> AxiomCheck:
    """Directly check closure of R under suprema of directed subfamilies.

    The member order is the information order for con and the logical order
    for cou; suprema are computed through the lattice join/meet tables rather
    than by picking the family maximum, so this genuinely exercises the
    reduction of Scott closure to downward closure.  All subfamilies are tried
    for small relations, families of size <= 3 otherwise.
    """
    members = sorted((int(u), int(a)) for u, a in zip(*np.nonzero(R)))
    P = len(members)
    if P < 2:
        return AxiomCheck(name, True)
    O, E = frame.omega.leq, frame.ell.leq
    mu = np.array([u for u, _ in members])
    ma = np.array([a for _, a in members])
    if logic_second:
        Mb = O[np.ix_(mu, mu)] & E[np.ix_(ma, ma)].T
        second_tab = frame.ell.meet_table
    else:
        Mb = O[np.ix_(mu, mu)] & E[np.ix_(ma, ma)]
        second_tab = frame.ell.join_table
    join_o = frame.omega.join_table

    def sup_of(idxs) -> tuple[int, int]:
        u = mu[idxs[0]]
        a = ma[idxs[0]]
        for k in idxs[1:]:
            u = join_o[u, mu[k]]
            a = second_tab[a, ma[k]]
        return int(u), int(a)

    if P <= _SCOTT_EXHAUSTIVE:
        above = [int(sum(1 << j for j in range(P) if Mb[i, j])) for i in range(P)]
        for picks in range(1, 1 << P):
            idxs = list(iter_bits(picks))
            directed = all(above[i] & above[j] & picks
                           for i, j in itertools.combinations(idxs, 2))
            if not directed:
                continue
            if not R[sup_of(idxs)]:
                return AxiomCheck(name, False,
                                  tuple(members[i] for i in idxs))
        return AxiomCheck(name, True)

    # pairs: directed means comparable
    comp = Mb | Mb.T
    JU = join_o[np.ix_(mu, mu)]
    JA = second_tab[np.ix_(ma, ma)]
    ok_pairs = R[JU, JA] | ~comp
    if not ok_pairs.all():
        i, j = (int(x) for x in np.argwhere(~ok_pairs)[0])
        return AxiomCheck(name, False, (members[i], members[j]))

    idx = np.array(list(itertools.combinations(range(P), 3)))
    flags = []
    for p, q in ((0, 1), (0, 2), (1, 2)):
        cand = Mb[idx[:, p]] & Mb[idx[:, q]]
        flags.append(np.take_along_axis(cand, idx, axis=1).any(axis=1))
    directed = flags[0] & flags[1] & flags[2]
    if directed.any():
        ju = join_o[join_o[mu[idx[:, 0]], mu[idx[:, 1]]], mu[idx[:, 2]]]
        ja = second_tab[second_tab[ma[idx[:, 0]], ma[idx[:, 1]]], ma[idx[:, 2]]]
        bad = directed & ~R[ju, ja]
        if bad.any():
            t = idx[np.argwhere(bad)[0][0]]
            return AxiomCheck(name, False, tuple(members[int(i)] for i in t))
    return AxiomCheck(name, True)


def validate_adframe(frame: AdFrame) -> ValidationReport:
    """Check every axiom the frame's variant demands; returns a per-law report.

    Raises NonDistributiveLattice if either component lattice fails
    distributivity (finite stand-in for the completeness requirements).
    """
    for lat, side in ((frame.omega, "omega"), (frame.ell, "ell")):
        ana = lattice_analyze(lat)
        if not ana.distributive:
            raise NonDistributiveLattice(
                f"{side} lattice not distributive, witness {ana.distributivity_witness}")

    O, E = frame.omega.leq, frame.ell.leq
    jo, mo_t = frame.omega.join_table, frame.omega.meet_table
    jl, ml_t = frame.ell.join_table, frame.ell.meet_table
    ff = (frame.omega.bot, frame.ell.top)
    tt = (frame.omega.top, frame.ell.bot)
    bots = (frame.omega.bot, frame.ell.bot)
    tops = (frame.omega.top, frame.ell.top)
    R = {name: frame.rel_matrix(name) for name in REL_NAMES}
    scott_gated = frame.omega.m * frame.ell.m <= _SCOTT_GATE

    checks: list[AxiomCheck] = []
    if frame.variant.sees_up:
        checks += [
            _reach_check("tot-up-closed", R["tot"], O, E, "up-info"),
            _member_check("tot-has-ff", R["tot"], ff),
            _member_check("tot-has-tt", R["tot"], tt),
            _binary_check("tot-logical-meet", R["tot"], mo_t, jl),
            _binary_check("tot-logical-join", R["tot"], jo, ml_t),
            _reach_check("con-down-closed", R["con"], O, E, "down-info"),
            _member_check("con-has-ff", R["con"], ff),
            _member_check("con-has-tt", R["con"], tt),
            _binary_check("con-logical-meet", R["con"], mo_t, jl),
            _binary_check("con-logical-join", R["con"], jo, ml_t),
            _aligned_check("con-tot-aligned", R["con"], R["tot"], O, E, False),
        ]
        if scott_gated:
            checks.append(_scott_oracle("con-scott-oracle", frame, R["con"], False))
    if frame.variant.sees_down:
        checks += [
            _reach_check("fof-up-closed", R["fof"], O, E, "up-logic"),
            _member_check("fof-has-bots", R["fof"], bots),
            _member_check("fof-has-tops", R["fof"], tops),
            _binary_check("fof-info-meet", R["fof"], mo_t, ml_t),
            _binary_check("fof-info-join", R["fof"], jo, jl),
            _reach_check("cou-down-closed", R["cou"], O, E, "down-logic"),
            _member_check("cou-has-bots", R["cou"], bots),
            _member_check("cou-has-tops", R["cou"], tops),
            _binary_check("cou-info-meet", R["cou"], mo_t, ml_t),
            _binary_check("cou-info-join", R["cou"], jo, jl),
            _aligned_check("cou-fof-aligned", R["cou"], R["fof"], O, E, True),
        ]
        if scott_gated:
            checks.append(_scott_oracle("cou-scott-oracle", frame, R["cou"], True))
    if frame.variant is Variant.BOTH:
        checks += [
            _forced_coord_check("con-cou-bottom", R["con"], R["cou"],
                                "omega", frame.omega.bot),
            _forced_coord_check("tot-fof-top", R["tot"], R["fof"],
                                "omega", frame.omega.top),
            _forced_coord_check("con-fof-ell-bottom", R["con"], R["fof"],
                                "ell", frame.ell.bot),
            _forced_coord_check("tot-cou-ell-top", R["tot"], R["cou"],
                                "ell", frame.ell.top),
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
    ado_src = build_ado(src, variant)
    ado_dst = build_ado(dst, variant)
    omega_index = {lab: i for i, lab in enumerate(ado_src.omega.labels)}
    ell_index = {lab: i for i, lab in enumerate(ado_src.ell.labels)}
    phi = tuple(omega_index[finord.preimage(mapping, v)] for v in ado_dst.omega.labels)
    p = tuple(ell_index[finord.preimage(mapping, a)] for a in ado_dst.ell.labels)
    return AdFrameHom(ado_dst, ado_src, phi, p)


def identity_hom(frame: AdFrame) -> AdFrameHom:
    return AdFrameHom(frame, frame,
                      tuple(range(frame.omega.m)), tuple(range(frame.ell.m)))


def compose_homs(second: AdFrameHom, first: AdFrameHom) -> AdFrameHom:
    """second after first (first.target must be second.source)."""
    if first.target is not second.source and first.target.key() != second.source.key():
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
    arr = np.asarray(fn)
    img_join = dst.join_table[np.ix_(arr, arr)]
    want_join = arr[src.join_table]
    bad = np.argwhere(img_join != want_join)
    ok = len(bad) == 0
    checks.append(AxiomCheck(f"{prefix}-join", ok,
                             None if ok else tuple(int(x) for x in bad[0])))
    img_meet = dst.meet_table[np.ix_(arr, arr)]
    want_meet = arr[src.meet_table]
    bad = np.argwhere(img_meet != want_meet)
    ok = len(bad) == 0
    checks.append(AxiomCheck(f"{prefix}-meet", ok,
                             None if ok else tuple(int(x) for x in bad[0])))
    return checks


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
    names = [n for n in REL_NAMES
             if (n in ("tot", "con") and variant.sees_up)
             or (n in ("fof", "cou") and variant.sees_down)]
    for name in names:
        target_rel = dst.rel(name)
        bad = None
        for u, a in sorted(hom.source.rel(name)):
            if (hom.phi[u], hom.p[a]) not in target_rel:
                bad = ((u, a), (hom.phi[u], hom.p[a]))
                break
        checks.append(AxiomCheck(f"{name}-preserved", bad is None, bad))
    return ValidationReport(variant, tuple(checks))


def bounded_lattice_homs(src: FinLattice, dst: FinLattice) -> list[tuple[int, ...]]:
    """All maps preserving bottom, top, binary join and binary meet,
    found by backtracking along a linear extension of the source."""
    order = sorted(range(src.m), key=lambda i: (bin(src.down_masks[i]).count("1"), i))
    image: dict[int, int] = {}
    out: list[tuple[int, ...]] = []

    def consistent(e: int, v: int) -> bool:
        if e == src.bot and v != dst.bot:
            return False
        if e == src.top and v != dst.top:
            return False
        for f, w in image.items():
            if src.leq[e, f] and not dst.leq[v, w]:
                return False
            if src.leq[f, e] and not dst.leq[w, v]:
                return False
        trial = dict(image)
        trial[e] = v
        for f, w in trial.items():
            for tab_s, tab_d in ((src.join_table, dst.join_table),
                                 (src.meet_table, dst.meet_table)):
                g = int(tab_s[e, f])
                if g in trial and trial[g] != int(tab_d[v, w]):
                    return False
        # pairs among earlier elements whose join/meet is the new element
        for f, w in image.items():
            for g, z in image.items():
                if int(src.join_table[f, g]) == e and int(dst.join_table[w, z]) != v:
                    return False
                if int(src.meet_table[f, g]) == e and int(dst.meet_table[w, z]) != v:
                    return False
        return True

    def extend(k: int) -> None:
        if k == len(order):
            out.append(tuple(image[i] for i in range(src.m)))
            return
        e = order[k]
        for v in range(dst.m):
            if consistent(e, v):
                image[e] = v
                extend(k + 1)
                del image[e]

    extend(0)
    return out


# ---------------------------------------------------------------------------
# semi-continuity flags


def check_usc_lsc(frame: AdFrame, side: Optional[str] = None):
    """(usc, lsc) flags: every lattice element a join of tot-and-con values /
    a meet of fof-and-cou values.  A side the variant cannot see is None;
    requesting it explicitly raises VariantMismatch."""
    usc: Optional[bool] = None
    lsc: Optional[bool] = None
    ell = frame.ell
    if frame.variant.sees_up:
        seed = {a for (u, a) in frame.tot & frame.con}
        seed.add(ell.bot)
        closed = _closure_under(seed, ell.join_table)
        usc = len(closed) == ell.m
    if frame.variant.sees_down:
        seed = {a for (u, a) in frame.fof & frame.cou}
        seed.add(ell.top)
        closed = _closure_under(seed, ell.meet_table)
        lsc = len(closed) == ell.m
    if side == "usc":
        if usc is None:
            raise VariantMismatch("usc needs the Up or Both variant")
        return usc
    if side == "lsc":
        if lsc is None:
            raise VariantMismatch("lsc needs the Down or Both variant")
        return lsc
    if side is not None:
        raise ValueError(f"unknown side {side!r}")
    return (usc, lsc)


def _closure_under(seed: set[int], table: np.ndarray) -> set[int]:
    out = set(seed)
    frontier = list(out)
    while frontier:
        x = frontier.pop()
        for y in list(out):
            z = int(table[x, y])
            if z not in out:
                out.add(z)
                frontier.append(z)
    return out


# ---------------------------------------------------------------------------
# the two-element-lattice functor and its counit


def _two_chain() -> FinLattice:
    leq = np.array([[True, True], [False, True]])
    return lattice_from_leq(leq)


def ind_functor(omega: FinLattice, psi: Optional[Sequence[int]] = None,
                target: Optional[FinLattice] = None,
                variant=Variant.BOTH):
    """Couple a (non-trivial) frame with the two-element lattice:
    tot holds when u = top or a = 1, con when u = bot or a = 0,
    fof when u = top or a = 0, cou when u = bot or a = 1.

    With ``psi``/``target`` given, returns instead the hom (psi, id) between
    the coupled frames.
    """
    variant = Variant.parse(variant)
    if omega.m == 1:
        raise TrivialFrame("the coupling needs bottom distinct from top")
    if psi is not None:
        if target is None:
            raise ValueError("a target frame is required alongside psi")
        src = ind_functor(omega, variant=variant)
        dst = ind_functor(target, variant=variant)
        arr = tuple(int(x) for x in psi)
        hom_checks = _lattice_hom_checks("psi", arr, omega, target)
        bad = [c for c in hom_checks if not c.ok]
        if bad:
            raise ValueError(f"psi is not a frame homomorphism: {bad[0].law}")
        return AdFrameHom(src, dst, arr, (0, 1))

    ell = _two_chain()
    top, bot = omega.top, omega.bot
    tot = {(u, 1) for u in range(omega.m)} | {(top, 0)}
    con = {(u, 0) for u in range(omega.m)} | {(bot, 1)}
    fof = {(u, 0) for u in range(omega.m)} | {(top, 1)}
    cou = {(u, 1) for u in range(omega.m)} | {(bot, 0)}
    return AdFrame(omega, ell, frozenset(tot), frozenset(con),
                   frozenset(fof), frozenset(cou), variant)


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
        "tot": sorted([i, j] for i, j in frame.tot),
        "con": sorted([i, j] for i, j in frame.con),
        "fof": sorted([i, j] for i, j in frame.fof),
        "cou": sorted([i, j] for i, j in frame.cou),
        "variant": frame.variant.value,
    }


def adframe_from_json(doc: Mapping, cap: int = DEFAULT_LATTICE_CAP) -> AdFrame:
    omega = lattice_from_json(doc["omega"], cap=cap)
    ell = lattice_from_json(doc["ell"], cap=cap)
    rels = {}
    for name in REL_NAMES:
        pairs = set()
        for i, j in doc.get(name, []):
            if not (0 <= i < omega.m and 0 <= j < ell.m):
                raise ValueError(f"{name} pair ({i}, {j}) out of range")
            pairs.add((int(i), int(j)))
        rels[name] = frozenset(pairs)
    return AdFrame(omega, ell, rels["tot"], rels["con"], rels["fof"],
                   rels["cou"], Variant.parse(doc.get("variant", "both")))
