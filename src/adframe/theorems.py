"""Exhaustive small-space enumeration, randomized instance generation, and a
registry of machine-checked statements about the open/arbitrary duality.

Every statement the package claims to know is represented here as a named
check that can be run on a single instance or swept over all spaces of a
given size.  Checks report ``pass``/``fail``, ``expected-fail`` for the two
counterexample entries, and ``skip`` when an instance misses a hypothesis.
"""

from __future__ import annotations

import functools
import json
import random
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .bits import bits_of, canonical_subsets, is_subset
from .errors import (BudgetExceeded, InternalCheckError, NotAPointMap,
                     NotATopology, NotContinuous, NotMonotone, TrivialFrame,
                     UnknownTheorem)
from . import finord
from .finord import (FinLattice, FinPreTopSpace, FinTopSpace, closure,
                     columns, continuity_failure, irreducible_closed_sets,
                     is_reflexive_transitive, lattice_analyze,
                     lattice_from_labels, monotonicity_failure, point_closures,
                     preserving_maps, reflexive_transitive_closure,
                     specialization_preorder, subset_lattice, upset_family)
from .frames import (TWO_CHAIN, AdFrame, AdFrameHom, REL_NAMES, Variant,
                     bounded_lattice_homs, build_ado, build_ado_hom,
                     check_usc_lsc, compose_homs, epsilon_hom, ind_functor,
                     preserves_relations, validate_adframe, validate_hom)
from .duality import (adpt_hom, adpt_space, eta_map, is_ad_sober, is_ad_t0,
                      pullback_point, transpose, unit_points)
from .sobrify import (AdsSpace, ads_adpt_iso, ads_hom, ads_space,
                      canonical_pairs, irreducible_pairs,
                      standard_sobrification)

VARIANTS = (Variant.UP, Variant.DOWN, Variant.BOTH)

ENUM_POINT_CAP = 4
DEFAULT_ISO_BUDGET = 200_000
_DEFAULT_SAMPLES = 24
_SPACE_DENSITY = 0.35  # chance of each arrow of a random preorder


# ---------------------------------------------------------------------------
# exhaustive enumeration of small carriers


@functools.cache
def enumerate_topologies(n: int) -> tuple[tuple[int, ...], ...]:
    """All topologies on n labelled points, ordered by size, then family.
    A finite topology is the family of up-sets of its specialisation
    preorder (the finite Alexandrov correspondence), so these are the
    up-set families of the preorders."""
    if n < 0 or n > ENUM_POINT_CAP:
        raise BudgetExceeded(f"topology enumeration is capped at {ENUM_POINT_CAP} points")
    found = [upset_family(rows) for rows in enumerate_preorders(n)]
    found.sort(key=lambda fam: (len(fam), fam))
    return tuple(found)


@functools.cache
def enumerate_preorders(n: int) -> tuple[tuple[int, ...], ...]:
    """All preorders on n labelled points (reflexive transitive relations),
    by filtering every assignment of off-diagonal arrows."""
    if n < 0 or n > ENUM_POINT_CAP:
        raise BudgetExceeded(f"preorder enumeration is capped at {ENUM_POINT_CAP} points")
    positions = [(x, y) for x in range(n) for y in range(n) if x != y]
    found = []
    for assignment in range(1 << len(positions)):
        rows = [1 << x for x in range(n)]
        for k, (x, y) in enumerate(positions):
            if assignment >> k & 1:
                rows[x] |= 1 << y
        if is_reflexive_transitive(rows, n):
            found.append(tuple(rows))
    found.sort()
    return tuple(found)


@functools.cache
def enumerate_spaces(n: int) -> tuple[FinPreTopSpace, ...]:
    """Every preordered space on n points: each topology crossed with each
    preorder."""
    if n < 0 or n > ENUM_POINT_CAP:
        raise BudgetExceeded(f"space enumeration is capped at {ENUM_POINT_CAP} points")
    preorders = enumerate_preorders(n)
    return tuple(FinPreTopSpace(n, opens, rows)
                 for opens in enumerate_topologies(n) for rows in preorders)


def continuous_maps(src, dst) -> list[tuple[int, ...]]:
    """Continuous maps: those that preserve the specialization preorders."""
    spec = (specialization_preorder(src), specialization_preorder(dst))
    return preserving_maps(src.n, dst.n, [spec])


def pretop_maps(src: FinPreTopSpace, dst: FinPreTopSpace) -> list[tuple[int, ...]]:
    """Continuous monotone maps: those that also preserve ``leq``."""
    spec = (specialization_preorder(src), specialization_preorder(dst))
    return preserving_maps(src.n, dst.n, [spec, (src.leq, dst.leq)])


# ---------------------------------------------------------------------------
# separation / semi-closedness helpers


def upper_semi_closed(space: FinPreTopSpace) -> bool:
    """Every up-cone is closed."""
    return all(closure(space, up) == up for up in space.leq)


def lower_semi_closed(space: FinPreTopSpace) -> bool:
    """Every down-cone is closed."""
    return all(closure(space, down) == down for down in columns(space.leq, space.n))


def is_t1_topology(top) -> bool:
    """Every point is closed."""
    return all(c == 1 << x for x, c in enumerate(point_closures(top)))


def sober_topology(top) -> bool:
    """Every irreducible closed set is the closure of exactly one point.
    The irreducible closed sets are the point closures, so this says that
    no two points have the same closure."""
    return len(set(point_closures(top))) == top.n


def frame_point_space(lat: FinLattice) -> FinTopSpace:
    """Classical frame spectrum: prime elements, opened by the elements
    they fail to dominate."""
    primes = lattice_analyze(lat).primes
    masks = {sum(1 << i for i, p in enumerate(primes) if not lat.le(u, p))
             for u in range(lat.m)}
    return FinTopSpace(len(primes), canonical_subsets(masks))


# ---------------------------------------------------------------------------
# seeded random generation


@dataclass(eq=False)
class Generated:
    kind: str
    payload: object
    meta: dict


def _rng(tag: str, params, seed) -> random.Random:
    blob = json.dumps(params or {}, sort_keys=True, default=str)
    return random.Random(f"{tag}|{blob}|{seed}")


def _random_preorder(rng: random.Random, n: int, density: float) -> tuple[int, ...]:
    rows = [1 << x for x in range(n)]
    for x in range(n):
        for y in range(n):
            if x != y and rng.random() < density:
                rows[x] |= 1 << y
    return reflexive_transitive_closure(rows, n)


def _random_poset(rng: random.Random, n: int, density: float = 0.4) -> tuple[int, ...]:
    # only forward arrows, so the closure is automatically antisymmetric
    rows = [1 << x for x in range(n)]
    for x in range(n):
        for y in range(x + 1, n):
            if rng.random() < density:
                rows[x] |= 1 << y
    return reflexive_transitive_closure(rows, n)


def _random_space(rng: random.Random, n: int) -> FinPreTopSpace:
    opens = upset_family(_random_preorder(rng, n, _SPACE_DENSITY))
    return FinPreTopSpace(n, opens, _random_preorder(rng, n, _SPACE_DENSITY))


# the params keys each generator reads
_PARAM_KEYS = {"space": ("n",), "ado": ("family", "n"), "ind": ("family",)}


def generate_random(kind: str, params=None, seed: int = 0) -> Generated:
    """Deterministic seeded instance families, all of them under the Both
    variant.

    kind "space" (params: n): a random topology (up-sets of one random
    preorder) with an independently random preorder on top.
    kind "adframe" (params: family, and what the family reads): family
    "ado" (frame of a random space of n points) or "ind" (two-sided lift
    of the up-set lattice of a random poset).
    A key that the chosen kind or family does not read is a ValueError, and
    so is an ``n`` that is not an int (a bool included) in 0..CARRIER_CAP.
    """
    params = dict(params or {})
    if kind not in ("space", "adframe"):
        raise ValueError(f"unknown generation kind {kind!r}")
    family = kind if kind == "space" else params.get("family", "ado")
    if family not in _PARAM_KEYS:
        raise ValueError(f"unknown adframe family {family!r}")
    unread = sorted(set(params) - set(_PARAM_KEYS[family]))
    if unread:
        raise ValueError(f"unknown params key {', '.join(map(repr, unread))} for "
                         f"generator {family!r}; it reads {', '.join(_PARAM_KEYS[family])}")
    variant = Variant.BOTH
    n = params.get("n", 3)
    if type(n) is not int or not 0 <= n <= finord.CARRIER_CAP:
        raise ValueError(f"params n {n!r} is not an integer in 0..{finord.CARRIER_CAP}")
    if family == "space":
        space = _random_space(_rng("space", params, seed), n)
        return Generated("space", space, {"family": "space", "n": n, "seed": seed})
    if family == "ado":
        space = _random_space(_rng("adframe-ado", params, seed), n)
        frame = build_ado(space, variant)
        return Generated("adframe", frame,
                         {"family": "ado", "n": n, "seed": seed,
                          "variant": variant.value})
    rng = _rng("adframe-ind", params, seed)
    k = rng.randint(1, 4)
    lat = lattice_from_labels(upset_family(_random_poset(rng, k)))
    frame = ind_functor(lat, variant=variant)
    return Generated("adframe", frame,
                     {"family": "ind", "base_points": k, "seed": seed,
                      "variant": variant.value})


# ---------------------------------------------------------------------------
# isomorphism search


def preorder_iso(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], budget: int):
    """Backtracking search for a bijection f between the carriers of two
    tuples of preorders (row masks), under which x <= y in the k-th
    preorder of ``a`` iff f(x) <= f(y) in the k-th of ``b``; returns f or
    None.  A point goes only to a point whose rows and columns have the
    same sizes in every preorder.  Every candidate tried counts one node
    against ``budget``."""
    def degrees(rels):
        return list(zip(*(map(int.bit_count, masks) for rows in rels
                          for masks in (rows, columns(rows, len(rows))))))

    deg_a, deg_b = degrees(a), degrees(b)
    if sorted(deg_a) != sorted(deg_b):
        return None
    n = len(deg_a)
    cands = [[y for y in range(n) if deg_b[y] == deg_a[x]] for x in range(n)]
    order = sorted(range(n), key=lambda x: len(cands[x]))
    rels = tuple(zip(a, b))
    perm: dict[int, int] = {}
    nodes = 0

    def rec() -> bool:
        nonlocal nodes
        if len(perm) == n:
            return True
        x = order[len(perm)]
        for y in cands[x]:
            if y in perm.values():
                continue
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded("isomorphism search budget exhausted")
            if all((ra[x] >> z & 1) == (rb[y] >> w & 1) and (ra[z] >> x & 1) == (rb[w] >> y & 1)
                   for z, w in perm.items() for ra, rb in rels):
                perm[x] = y
                if rec():
                    return True
                del perm[x]
        return False

    return tuple(perm[x] for x in range(n)) if rec() else None


def iso_check(kind: str, left, right, budget: int = DEFAULT_ISO_BUDGET):
    """Search for an isomorphism of preordered spaces (kind "pretop") or of
    topologies ("top"); returns the witness permutation or None.  Raises
    BudgetExceeded if the backtracking budget runs out.  A finite topology
    is the up-sets of its specialization preorder (Alexandroff), so a
    homeomorphism is an isomorphism of the specialization preorders, and
    an isomorphism of preordered spaces one of those and of ``leq``."""
    if kind not in ("pretop", "top"):
        raise ValueError(f"unknown isomorphism kind {kind!r}")

    def preorders(space):
        spec = specialization_preorder(space)
        return (spec, space.leq) if kind == "pretop" else (spec,)

    return preorder_iso(preorders(left), preorders(right), budget)


# ---------------------------------------------------------------------------
# basic functors


def basic_functors(which: str, space):
    """discr: equality preorder on a topology.  ind_space: indiscrete
    preorder on a topology.  A space is taken by its topology."""
    if which not in ("discr", "ind_space"):
        raise ValueError(f"unknown functor {which!r}")
    full = (1 << space.n) - 1
    rows = tuple(1 << x if which == "discr" else full for x in range(space.n))
    return FinPreTopSpace(space.n, space.opens, rows)


def designated_counterexample() -> FinPreTopSpace:
    """Two points, indiscrete topology, discrete preorder: the standard
    witness separating the pair space from the classical sobrification."""
    return FinPreTopSpace(2, (0, 3), (1, 2))


# ---------------------------------------------------------------------------
# check registry plumbing


@dataclass(eq=False, slots=True)
class Instance:
    kind: str
    payload: tuple
    describe: dict


@dataclass(eq=False)
class CheckReport:
    id: str
    instance: dict
    verdict: str
    witness: object = None
    ms: float = 0.0

    def to_json(self) -> dict:
        return {"id": self.id, "instance": self.instance,
                "verdict": self.verdict, "witness": self.witness,
                "ms": self.ms}


@dataclass(eq=False)
class SweepSpec:
    n: int = 2
    variants: tuple = VARIANTS
    seed: int = 0
    count: Optional[int] = None


@dataclass(eq=False)
class _Entry:
    """A registered check: its runner, the universes it sweeps in turn, and
    the instance kinds its runner takes."""
    id: str
    doc: str
    run: Callable[[Instance], tuple]
    universes: tuple[Universe, ...]
    takes: tuple[str, ...]
    expected_fail: bool = False

    def sweep(self, spec: SweepSpec) -> Iterator[Instance]:
        for universe in self.universes:
            yield from select(universe, spec)


_REGISTRY: dict[str, _Entry] = {}


def registry_ids() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def registry_doc(theorem_id: str) -> str:
    return _lookup(theorem_id).doc


def _lookup(theorem_id: str) -> _Entry:
    entry = _REGISTRY.get(theorem_id)
    if entry is None:
        known = ", ".join(_REGISTRY)
        raise UnknownTheorem(f"no check named {theorem_id!r}; known ids: {known}")
    return entry


def describe(obj, variant: Optional[Variant] = None) -> dict:
    """A space, or a topology (no ``leq``), as a JSON record.  The object
    keeps its record and one record per variant (``finord.kept``), and
    every call shares them and their lists; nothing changes them."""
    if variant is None:
        return finord.kept(obj, "_doc", lambda: _document(obj))
    return finord.kept(obj, f"_doc_{variant.value}",
                       lambda: dict(describe(obj), variant=variant.value))


def _document(obj) -> dict:
    doc = {"kind": "topology", "points": obj.n,
           "opens": [bits_of(u) for u in obj.opens]}
    if isinstance(obj, FinPreTopSpace):
        doc.update(kind="space", leq=finord.rows_to_pairs(obj.leq))
    return doc


def space_instance(space, variant=Variant.BOTH) -> Instance:
    """A space, or a topology, under one variant."""
    variant = Variant.parse(variant)
    doc = describe(space, variant)
    return Instance(doc["kind"], (space, variant), doc)


def frame_instance(frame: AdFrame, meta: Optional[dict] = None) -> Instance:
    doc = {"kind": "adframe", "omega": frame.omega.m, "ell": frame.ell.m,
           "variant": frame.variant.value}
    doc.update(meta or {})
    return Instance("adframe", (frame,), doc)


def lattice_instance(lat: FinLattice) -> Instance:
    return Instance("lattice", (lat,), {"kind": "lattice", "size": lat.m})


def restrict_space(space: FinPreTopSpace, keep_mask: int) -> FinPreTopSpace:
    kept = bits_of(keep_mask & ((1 << space.n) - 1))
    pos = {x: i for i, x in enumerate(kept)}

    def squash(mask: int) -> int:
        return sum(1 << pos[x] for x in kept if mask >> x & 1)

    opens = canonical_subsets(squash(u) for u in space.opens)
    rows = tuple(squash(space.leq[x]) for x in kept)
    return FinPreTopSpace(len(kept), opens, rows)


def _shrink(entry: _Entry, inst: Instance):
    """Greedy point removal keeping the verdict bad."""
    space, variant = inst.payload
    if space.n == 0:
        return None
    cur, cur_w = space, None
    improved = True
    while improved:
        improved = False
        for x in range(cur.n):
            keep = ((1 << cur.n) - 1) & ~(1 << x)
            sub = restrict_space(cur, keep)
            try:
                ok, w = entry.run(space_instance(sub, variant))
            except Exception:
                continue
            if ok is False:
                cur, cur_w = sub, w
                improved = True
                break
    if cur.n == space.n:
        return None
    return space_instance(cur, variant), cur_w


def _coerce_sweep(sweep) -> SweepSpec:
    spec = SweepSpec()
    if isinstance(sweep, SweepSpec):
        spec = sweep
    elif sweep is not None:
        for key in sweep:
            if key not in ("n", "count", "seed", "variant"):
                raise ValueError(f"unknown sweep key {key!r}; use n, count, seed or variant")
        spec.n = sweep.get("n", spec.n)
        spec.seed = sweep.get("seed", spec.seed)
        spec.count = sweep.get("count")
        if sweep.get("variant") is not None:
            spec.variants = (Variant.parse(sweep["variant"]),)
    for key in ("n", "seed", "count"):
        value = getattr(spec, key)
        if type(value) is not int and (key != "count" or value is not None):
            raise ValueError(f"sweep {key}={value!r} is not an integer")
    if not 0 <= spec.n <= ENUM_POINT_CAP:
        raise ValueError(f"sweep n={spec.n} is outside [0, {ENUM_POINT_CAP}]")
    if spec.count is not None and spec.count < 1:
        raise ValueError(f"sweep count={spec.count} must be at least 1")
    return spec


def _check_budget(budget_ms) -> None:
    number = isinstance(budget_ms, (int, float)) and not isinstance(budget_ms, bool)
    if budget_ms is not None and not (number and budget_ms >= 0):  # NaN fails >=
        raise ValueError(f"budget_ms={budget_ms!r} must be a number of "
                         f"milliseconds, at least 0")


def run_check(theorem_id: str, instance: Optional[Instance] = None, *,
              instances: Optional[Iterable[Instance]] = None,
              sweep=None, fail_fast: bool = False,
              budget_ms: Optional[float] = None) -> list[CheckReport]:
    """Run one registered check over an instance, an explicit instance
    stream, or a sweep: a ``SweepSpec``, or a dict with some of the keys
    ``n``, ``count``, ``seed`` and ``variant`` (one; default all) and no
    other; an ``n``, ``seed`` or ``count`` that is not an int (a bool
    included), an ``n`` outside 0..``ENUM_POINT_CAP`` or a ``count`` below
    1 is a ValueError, and so is a ``budget_ms`` that is not a number of
    milliseconds at least 0 (NaN and bools included; ``inf`` means no
    budget).  Each record builds the frames, spectra and pair lists it
    needs and passes them on, so they are dropped when it ends; a space or
    a lattice keeps what is derived from it alone (``finord.kept``)."""
    entry = _lookup(theorem_id)
    _check_budget(budget_ms)
    if instance is not None:
        stream: Iterable[Instance] = [instance]
    elif instances is not None:
        stream = instances
    else:
        stream = entry.sweep(_coerce_sweep(sweep))

    reports: list[CheckReport] = []
    started = time.perf_counter()
    for inst in stream:
        if budget_ms is not None and reports and \
           (time.perf_counter() - started) * 1000 > budget_ms:
            exc = BudgetExceeded(
                f"{theorem_id}: budget of {budget_ms:g} ms exhausted "
                f"after {len(reports)} instances")
            exc.reports = reports
            raise exc
        t0 = time.perf_counter()
        ok, witness = entry.run(inst)
        ms = round((time.perf_counter() - t0) * 1000, 3)
        if ok is None:
            verdict = "skip"
        elif entry.expected_fail:
            verdict = "expected-fail" if not ok else "fail"
            if ok:
                witness = {"note": "statement unexpectedly holds here",
                           "detail": witness}
        else:
            verdict = "pass" if ok else "fail"
        if verdict in ("fail", "expected-fail") and inst.kind == "space":
            shrunk = _shrink(entry, inst)
            if shrunk is not None:
                small, small_w = shrunk
                witness = {"detail": witness, "minimized": small.describe,
                           "minimized_detail": small_w}
        reports.append(CheckReport(theorem_id, inst.describe, verdict, witness, ms))
        if fail_fast and verdict == "fail":
            break
    return reports


# ---------------------------------------------------------------------------
# instance universes


@dataclass(frozen=True)
class Universe:
    """Every instance of one kind at a sweep size n.

    ``pool(n)`` gives the sequences the instances are built from; when one
    of them is empty the universe has no instances.  ``every(spec, *pool)``
    streams all instances in a fixed order, ``draw(rng, spec, k, *pool)``
    makes the k-th seeded sample or declines with None, and
    ``adapt(space, variant)`` gives the instances a space payload stands
    for.  Samples are seeded by ``tag``, n and the sweep seed."""
    tag: str
    pool: Callable[[int], tuple]
    every: Callable[..., Iterable[Instance]]
    draw: Callable[..., Optional[Instance]]
    adapt: Callable[[FinPreTopSpace, Variant], list[Instance]]
    max_n: int = ENUM_POINT_CAP


def select(universe: Universe, spec: SweepSpec) -> Iterator[Instance]:
    """Every instance of ``universe`` when ``spec.count`` is None and n is at
    most ``universe.max_n``; otherwise ``spec.count`` (default 24) seeded
    draws, with replacement."""
    pool = universe.pool(spec.n)
    if not all(pool):
        return
    if spec.count is None and spec.n <= universe.max_n:
        yield from universe.every(spec, *pool)
        return
    rng = random.Random(f"{universe.tag}|{spec.n}|{spec.seed}")
    k = 0
    while k < (spec.count or _DEFAULT_SAMPLES):
        inst = universe.draw(rng, spec, k, *pool)
        if inst is not None:
            yield inst
            k += 1


def _objects(tag: str, pool, make, from_space=lambda space: space) -> Universe:
    """``make(obj, v)`` for every object of ``pool(n)`` and variant."""
    return Universe(
        tag, lambda n: (pool(n),),
        lambda spec, objs: (make(obj, v) for obj in objs for v in spec.variants),
        lambda rng, spec, k, objs: make(rng.choice(objs), rng.choice(spec.variants)),
        lambda space, v: [make(from_space(space), v)])


def _maps(tag: str, pool, maps, kind: str, from_space=lambda space: space) -> Universe:
    """Every map in ``maps(src, dst)`` between objects of ``pool(n)``, as
    instances of ``kind``; a drawn pair without maps is declined, and a
    space payload stands for its self-maps."""
    def draw(rng, spec, k, objs):
        src, dst = rng.choice(objs), rng.choice(objs)
        found = maps(src, dst)
        if not found:
            return None
        return _map_instance(kind, src, dst, rng.choice(found), rng.choice(spec.variants))

    def adapt(space, v):
        obj = from_space(space)
        return [_map_instance(kind, obj, obj, m, v) for m in maps(obj, obj)]

    return Universe(
        tag, lambda n: (pool(n),),
        lambda spec, objs: (_map_instance(kind, src, dst, m, v) for v in spec.variants
                            for src in objs for dst in objs for m in maps(src, dst)),
        draw, adapt, max_n=2)


def _map_instance(kind: str, src, dst, mapping, variant) -> Instance:
    doc = {"kind": kind, "map": list(mapping), "src": describe(src),
           "dst": describe(dst), "variant": variant.value}
    return Instance(kind, (src, dst, tuple(mapping), variant), doc)


def _triangle_instance(x_space, frame_space, spectrum, mapping, variant) -> Instance:
    """A map from ``x_space`` into the spectrum of ``frame_space``'s frame."""
    doc = {"kind": "triangle", "space": describe(x_space),
           "frame_space": describe(frame_space),
           "map": list(mapping), "variant": variant.value}
    return Instance("triangle", (x_space, spectrum, mapping, variant), doc)


def _every_triangle(spec, spaces):
    """Per variant: the maps into each spectrum, built once, then the
    roundtrip maps between spaces."""
    for v in spec.variants:
        for y_space in spaces:
            spectrum = adpt_space(build_ado(y_space, v))
            for x_space in spaces:
                for m in pretop_maps(x_space, spectrum.space):
                    yield _triangle_instance(x_space, y_space, spectrum, m, v)
        for x_space in spaces:
            for y_space in spaces:
                for h in pretop_maps(x_space, y_space):
                    yield _map_instance("roundtrip", x_space, y_space, h, v)


def _draw_triangle(rng, spec, k, spaces):
    """A triangle for even k, a roundtrip for odd k."""
    v = rng.choice(spec.variants)
    x_space, y_space = rng.choice(spaces), rng.choice(spaces)
    if k % 2:
        maps = pretop_maps(x_space, y_space)
        if maps:
            return _map_instance("roundtrip", x_space, y_space, rng.choice(maps), v)
    else:
        spectrum = adpt_space(build_ado(y_space, v))
        maps = pretop_maps(x_space, spectrum.space)
        if maps:
            return _triangle_instance(x_space, y_space, spectrum, rng.choice(maps), v)
    return None


def _space_triangles(space, v) -> list[Instance]:
    spectrum = adpt_space(build_ado(space, v))
    return [_triangle_instance(space, space, spectrum, m, v)
            for m in pretop_maps(space, spectrum.space)]


def _hom_family_instance(lat: FinLattice, frame_space, variant) -> Instance:
    """Every hom from the two-sided lift of ``lat`` into the frame of
    ``frame_space``."""
    doc = {"kind": "hom-family", "source_lattice": lat.m,
           "frame_space": describe(frame_space), "variant": variant.value}
    return Instance("hom-family", (lat, build_ado(frame_space, variant)), doc)


def _cex_qualifies(space: FinPreTopSpace) -> bool:
    discrete = all(space.leq[x] == 1 << x for x in range(space.n))
    return discrete and not sober_topology(space)


def _opens_lattices(n: int) -> list[FinLattice]:
    """The opens lattices of the topologies on n points, one per family."""
    return [lattice_from_labels(fam) for fam in enumerate_topologies(n)]


def _topologies(n: int) -> list[FinTopSpace]:
    return [FinTopSpace(n, fam) for fam in enumerate_topologies(n)]


SPACES = _objects("sweep-spaces", enumerate_spaces, space_instance)
SPACE_FRAMES = _objects(  # the draws of SPACES, each space made a frame
    "sweep-spaces", enumerate_spaces,
    lambda sp, v: frame_instance(build_ado(sp, v), {"from_space": describe(sp)}))
CEX_SPACES = _objects(
    "sweep-cex", lambda n: [sp for sp in enumerate_spaces(n) if _cex_qualifies(sp)],
    space_instance)
TOPOLOGIES = _objects("sweep-tops", _topologies, space_instance, FinPreTopSpace.topology)
LATTICES = Universe(
    "sweep-lattices", lambda n: (_opens_lattices(n),),
    lambda spec, lats: map(lattice_instance, lats),
    lambda rng, spec, k, lats: lattice_instance(rng.choice(lats)),
    lambda space, v: [lattice_instance(subset_lattice(space, "opens"))])
MORPHISMS = _maps("sweep-morphisms", enumerate_spaces, pretop_maps, "morphism")
TOP_MORPHISMS = _maps("sweep-top-morphisms", _topologies, continuous_maps,
                      "top-morphism", FinPreTopSpace.topology)
TRIANGLES = Universe("sweep-triangle", lambda n: (enumerate_spaces(n),),
                     _every_triangle, _draw_triangle, _space_triangles, max_n=2)
HOM_FAMILIES = Universe(
    "sweep-ind-adj",
    lambda n: ([lat for lat in _opens_lattices(n) if lat.m >= 2], enumerate_spaces(n)),
    lambda spec, lats, spaces: (_hom_family_instance(lat, sp, v) for v in spec.variants
                                for lat in lats for sp in spaces),
    lambda rng, spec, k, lats, spaces: _hom_family_instance(
        rng.choice(lats), rng.choice(spaces), rng.choice(spec.variants)),
    lambda space, v: [_hom_family_instance(subset_lattice(space, "opens"), space, v)],
    max_n=2)


# ---------------------------------------------------------------------------
# runners


def _moves_opens_onto(f: Sequence[int], opens: Sequence[int],
                      target: Sequence[int]) -> bool:
    """The images of ``opens`` under the point map f are exactly ``target``."""
    return {finord.image(f, u) for u in opens} == set(target)


def _order_mismatch(rows: Sequence[int], target: Sequence[int],
                    f: Sequence[int]) -> Optional[tuple[int, int]]:
    """The first (i, j) with i <= j in ``rows`` but not f(i) <= f(j) in
    ``target``, or the other way round; None when f preserves and reflects
    the order."""
    for i in range(len(rows)):
        for j in range(len(rows)):
            if (rows[i] >> j & 1) != (target[f[i]] >> f[j] & 1):
                return i, j
    return None


def _laws_verdict(report):
    """Pass, or fail with the names of the broken laws."""
    return (True, None) if report.ok else (False, [c.law for c in report.failures()])


def _run_ado_valid(inst: Instance):
    space, v = inst.payload
    return _laws_verdict(validate_adframe(build_ado(space, v)))


def _transpose_failure(spectrum, idxs, hom: AdFrameHom) -> Optional[str]:
    """Why ``hom`` is not the transpose of the map ``idxs`` into
    ``spectrum``, or None: it must be a valid hom, and for each point x the
    unit's point at x, read off the hom's target (the frame of x's space),
    must pull back to ``pt_x = points[idxs[x]]``.  ADSOBER-EQ states that
    the unit's points lie in that frame's spectrum, so none is built here.
    No other hom closes the triangle: the unit's point at x holds the opens
    around x, so its pullback under phi is {u : x in phi(u)}, and that is
    ``pt_x.x`` at every x exactly when each phi(u) is labelled
    {x : u in pt_x.x}; likewise each p(a) is labelled {x : a in pt_x.s}.
    Labels name elements, so each side has at most one candidate."""
    bad = validate_hom(hom).failures()
    if bad:
        return f"transpose is not a hom: {[c.law for c in bad]}"
    gaps = [x for x, (unit, idx) in enumerate(zip(unit_points(hom.target), idxs))
            if pullback_point(hom, unit) != spectrum.points[idx]]
    return f"transpose triangle fails at point {gaps[0]}" if gaps else None


def _run_triangle(inst: Instance):
    if inst.kind == "triangle":
        x_space, spectrum, mapping, _ = inst.payload
        err = _transpose_failure(spectrum, mapping, transpose(x_space, spectrum, mapping))
        return err is None, err

    x_space, y_space, h, v = inst.payload
    g = build_ado_hom(h, x_space, y_space, v)
    spec_x, spec_y = adpt_space(g.target), adpt_space(g.source)
    try:
        smap = adpt_hom(g, spec_x, spec_y)
        composite = tuple(smap[i] for i in eta_map(spec_x))
        back = transpose(x_space, spec_y, composite)
    except (InternalCheckError, NotAPointMap, NotContinuous, NotMonotone) as exc:
        return False, str(exc)
    err = _transpose_failure(spec_y, composite, back)
    if err is not None:
        return False, err
    if back.key() != g.key():
        return False, {"recovered_phi": back.phi, "expected_phi": g.phi,
                       "recovered_p": back.p, "expected_p": g.p}
    return True, None


def _run_adj_exists(inst: Instance):
    src, dst, h, v = inst.payload
    g = build_ado_hom(h, src, dst, v)
    bad = validate_hom(g).failures()
    if bad:
        return False, {"preimage_hom_failures": [c.law for c in bad]}
    spec_src, spec_dst = adpt_space(g.target), adpt_space(g.source)
    try:
        smap = adpt_hom(g, spec_src, spec_dst)
        eta_src, eta_dst = eta_map(spec_src), eta_map(spec_dst)
    except InternalCheckError as exc:
        return False, str(exc)
    if continuity_failure(spec_src.space, spec_dst.space, smap) is not None:
        return False, "induced spectrum map is not continuous"
    if monotonicity_failure(spec_src.space, spec_dst.space, smap) is not None:
        return False, "induced spectrum map is not monotone"
    left = [smap[eta_src[x]] for x in range(src.n)]
    right = [eta_dst[h[x]] for x in range(src.n)]
    if left != right:
        return False, {"through_spectra": left, "through_unit": right}
    return True, None


def _spectrum_semi_closed_failure(frame: AdFrame, flags) -> Optional[str]:
    """Why a semi-closed frame has a spectrum that is not, or None."""
    spectrum = adpt_space(frame)
    if flags[0] and not upper_semi_closed(spectrum.space):
        return "usc frame with a spectrum that is not upper semi-closed"
    if flags[1] and not lower_semi_closed(spectrum.space):
        return "lsc frame with a spectrum that is not lower semi-closed"
    return None


def _run_usc_lsc(inst: Instance):
    if inst.kind == "adframe":
        frame, = inst.payload
        flags = check_usc_lsc(frame)
        err = _spectrum_semi_closed_failure(frame, flags)
        return (False, err) if err else (True, {"usc": flags[0], "lsc": flags[1]})

    space, v = inst.payload
    frame = build_ado(space, v)
    flags = check_usc_lsc(frame)
    want = (upper_semi_closed(space) if v.sees_up else None,
            lower_semi_closed(space) if v.sees_down else None)
    if flags != want:
        return False, {"frame_flags": flags, "direct": want}
    err = _spectrum_semi_closed_failure(frame, flags)
    return err is None, err


def _run_ads_iso(inst: Instance):
    space, v = inst.payload
    ads, spectrum = ads_space(space, v), adpt_space(build_ado(space, v))
    try:
        fwd = ads_adpt_iso(ads, spectrum)
    except InternalCheckError as exc:
        return False, str(exc)
    if len(set(fwd)) != len(fwd) or len(fwd) != len(spectrum.points):
        return False, "pair-to-point map is not bijective"
    pair_space, spectrum_space = ads.space, spectrum.space
    bad = _order_mismatch(pair_space.leq, spectrum_space.leq, fwd)
    if bad is not None:
        return False, "order mismatch between pairs {} and {}".format(*bad)
    if not _moves_opens_onto(fwd, pair_space.opens, spectrum_space.opens):
        return False, "open families do not correspond"
    for a, upset in enumerate(ads.bracket_map):
        if finord.image(fwd, upset) != spectrum.upset_map[a]:
            return False, "bracket sets do not match spectrum up-sets"
    return True, None


def _run_os_iso(inst: Instance):
    space, v = inst.payload
    ads = ads_space(space, v)
    try:
        finord._check_topology(ads.space.opens, ads.space.n)
    except NotATopology as exc:
        return False, f"pair-space opens are not a topology: {exc}"
    for name, family, images, onto, what in (
            ("diamond", space.opens, ads.diamond_map, ads.space.opens, "pair-space opens"),
            ("bracket", ads.upsets, ads.bracket_map, upset_family(ads.space.leq),
             "up-closed sets")):
        if set(images) != set(onto) or len(set(images)) != len(family):
            return False, f"{name} transfer is not a bijection onto the {what}"
        if any(is_subset(a, b) != is_subset(images[i], images[j])
               for i, a in enumerate(family) for j, b in enumerate(family)):
            return False, f"{name} transfer does not preserve and reflect order"
    return True, None


def _run_eta_preimage(inst: Instance):
    space, v = inst.payload
    ads = ads_space(space, v)
    unit = []
    for x, pair in enumerate(canonical_pairs(space)):
        try:
            unit.append(ads.pair_index(pair))
        except ValueError:
            return False, f"canonical pair of point {x} is not irreducible"
    for key, family, images in (("open", space.opens, ads.diamond_map),
                                ("upset", ads.upsets, ads.bracket_map)):
        for u, image in zip(family, images):
            if finord.preimage(unit, image) != u:
                return False, {key: bits_of(u)}
    return True, None


def _run_adsober_eq(inst: Instance):
    space, v = inst.payload
    res = is_ad_sober(space, irreducible_pairs(space, v))
    spectrum = adpt_space(build_ado(space, v))
    try:
        eta = eta_map(spectrum)
    except InternalCheckError as exc:
        return False, str(exc)
    for u, lab in enumerate(spectrum.frame.omega.labels):
        if finord.preimage(eta, spectrum.open_map[u]) != lab:
            return False, "unit does not pull spectrum opens back to opens"
    if monotonicity_failure(space, spectrum.space, eta) is not None:
        return False, "unit is not monotone"
    bijective = len(set(eta)) == space.n and len(spectrum.points) == space.n
    if bijective:
        inverse = sorted(range(space.n), key=lambda x: eta[x])
        if continuity_failure(spectrum.space, space, inverse) is not None or \
           monotonicity_failure(spectrum.space, space, inverse) is not None:
            return False, "bijective unit whose inverse is not a map of spaces"
    if res.ad_sober != bijective:
        return False, {"pair_route": res.ad_sober, "unit_bijective": bijective,
                       "witness": res.witness}
    return True, None


def _nat_ind_alpha(ads: AdsSpace, top: FinTopSpace):
    """Pair space of the indiscrete lift of ``top`` against the classical
    sobrification; returns the matching permutation or an error string."""
    irr = irreducible_closed_sets(top)
    alpha = []
    for pr in ads.pairs:
        if top.n and pr.cls != (1 << top.n) - 1:
            return None, "pair class is not the whole carrier"
        if pr.closed not in irr:
            return None, "pair closed set is not irreducible in the base"
        alpha.append(irr.index(pr.closed))
    if sorted(alpha) != list(range(len(irr))):
        return None, {"pairs": len(ads.pairs), "irreducible_closed": len(irr)}
    sob, _unit = standard_sobrification(top)
    ind_sob = basic_functors("ind_space", sob)
    if not _moves_opens_onto(alpha, ads.space.opens, ind_sob.opens):
        return None, "open families do not correspond"
    if _order_mismatch(ads.space.leq, ind_sob.leq, alpha) is not None:
        return None, "preorders do not correspond"
    return alpha, None


def _sobrification_map(src_top: FinTopSpace, dst_top: FinTopSpace,
                       mapping: Sequence[int]):
    irr_src = irreducible_closed_sets(src_top)
    irr_dst = irreducible_closed_sets(dst_top)
    out = []
    for c in irr_src:
        d = closure(dst_top, finord.image(mapping, c))
        if d not in irr_dst:
            return None
        out.append(irr_dst.index(d))
    return out


def _nat_discr_alpha(ads: AdsSpace, top: FinTopSpace):
    """Pair space of the discrete lift of ``top`` against ``top`` itself;
    returns the matching permutation or an error string."""
    alpha = []
    for pr in ads.pairs:
        if pr.cls.bit_count() != 1:
            return None, "pair class is not a singleton"
        if pr.closed != point_closures(top)[pr.rep]:
            return None, "pair closed set is not the closure of its point"
        alpha.append(pr.rep)
    if sorted(alpha) != list(range(top.n)):
        return None, {"pairs": len(ads.pairs), "points": top.n}
    if not _moves_opens_onto(alpha, ads.space.opens, top.opens):
        return None, "open families do not correspond"
    if _order_mismatch(ads.space.leq, ads.base.leq, alpha) is not None:
        return None, "pair space is not discretely ordered"
    return alpha, None


def _run_nat_square(inst: Instance, lift: str, alpha_of, base_map):
    """A topology: ``alpha_of`` matches the pair space of its ``lift`` with
    the expected space.  A map g: the pair-space map of the lifted g
    commutes, through the matchings, with ``base_map(src, dst, g)``."""
    if inst.kind == "topology":
        top, v = inst.payload
        alpha, err = alpha_of(ads_space(basic_functors(lift, top), v), top)
        return (alpha is not None), err

    src, dst, g, v = inst.payload
    ads_src, ads_dst = (ads_space(basic_functors(lift, top), v) for top in (src, dst))
    a_src, err = alpha_of(ads_src, src)
    if a_src is None:
        return False, err
    a_dst, err = alpha_of(ads_dst, dst)
    if a_dst is None:
        return False, err
    amap = ads_hom(g, ads_src, ads_dst)
    gs = base_map(src, dst, g)
    if gs is None:
        return False, "image closure left the irreducible family"
    for i in range(len(amap)):
        if a_dst[amap[i]] != gs[a_src[i]]:
            return False, f"square does not commute at pair {i}"
    return True, None


def _run_cex_ads(inst: Instance):
    space, v = inst.payload
    if not _cex_qualifies(space):
        return None, "needs a discrete preorder over a non-sober topology"
    ads = ads_space(space, v)
    sob, _unit = standard_sobrification(space)
    perm = iso_check("top", ads.space, sob)
    counts = {"pair_space_points": ads.space.n,
              "sobrification_points": sob.n}
    return perm is not None, counts


def _run_homeo_ads(inst: Instance):
    space, v = inst.payload
    irr = irreducible_closed_sets(space)
    downs = columns(space.leq, space.n)
    literal = True
    if v.sees_up:
        literal = literal and upper_semi_closed(space) and all(
            any(is_subset(c, space.leq[x]) for x in bits_of(c)) for c in irr)
    if v.sees_down:
        literal = literal and lower_semi_closed(space) and all(
            any(is_subset(c, downs[x]) for x in bits_of(c)) for c in irr)
    t1_sober = is_t1_topology(space) and sober_topology(space)
    if not (literal or t1_sober):
        return None, "hypotheses not satisfied"
    ads = ads_space(space, v)
    sob, _unit = standard_sobrification(space)
    pi = []
    for pr in ads.pairs:
        if pr.closed not in irr:
            return False, "pair closed set is not irreducible"
        pi.append(irr.index(pr.closed))
    if sorted(pi) != list(range(len(irr))):
        return False, {"pairs": len(ads.pairs), "sobrification_points": sob.n}
    if not _moves_opens_onto(pi, ads.space.opens, sob.opens):
        return False, "open families do not correspond"
    return True, {"hypothesis": "literal" if literal else "t1-sober"}


def _run_adt0_lemma(inst: Instance):
    space, v = inst.payload
    pairs = irreducible_pairs(space, v)
    sober = is_ad_sober(space, pairs).ad_sober
    t0 = is_ad_t0(space)
    canonical = set(pairs) <= set(canonical_pairs(space))
    if sober != (t0 and canonical):
        return False, {"ad_sober": sober, "ad_t0": t0,
                       "pairs_all_canonical": canonical}
    return True, None


def _run_idempotent(inst: Instance):
    if inst.kind == "adframe":
        frame, = inst.payload
        space, v = adpt_space(frame).space, frame.variant
    else:
        base, v = inst.payload
        space = ads_space(base, v).space
    res = is_ad_sober(space, irreducible_pairs(space, v))
    return res.ad_sober, res.witness


def _run_ind_valid(inst: Instance):
    lat, = inst.payload
    if lat.m < 2:
        return None, "one-element lattice: the lift is degenerate"
    return _laws_verdict(validate_adframe(ind_functor(lat)))


def _run_eps_valid(inst: Instance):
    frame, = inst.payload
    try:
        eps = epsilon_hom(frame)
    except TrivialFrame:
        return None, "trivial opens lattice"
    return _laws_verdict(validate_hom(eps))


_IND_ADJ_SIZE_GATE = 16


def _run_ind_adj(inst: Instance):
    lat, frame = inst.payload
    if lat.m < 2:
        return None, "one-element source lattice"
    if lat.m > _IND_ADJ_SIZE_GATE or frame.omega.m > 64:
        return None, "size gate"
    second = bounded_lattice_homs(TWO_CHAIN, frame.ell)
    if second != [(frame.ell.bot, frame.ell.top)]:
        return False, {"second_component_maps": second}
    source = ind_functor(lat, variant=frame.variant)
    bnd = (frame.ell.bot, frame.ell.top)
    valid = []
    for phi in bounded_lattice_homs(lat, frame.omega):
        cand = AdFrameHom(source, frame, tuple(phi), bnd)
        if preserves_relations(cand):  # the lattice-hom laws hold by construction
            valid.append(cand)
    eps = epsilon_hom(frame)
    for cand in valid:
        through = compose_homs(eps, AdFrameHom(source, eps.source, cand.phi, (0, 1)))
        if through.key() != cand.key():
            return False, {"phi": cand.phi}
    return True, {"valid_homs": len(valid)}


def _run_lift_square(inst: Instance):
    top, v = inst.payload
    if top.n == 0:
        return None, "empty carrier"
    left = build_ado(basic_functors("ind_space", top), v)
    right = ind_functor(subset_lattice(top, "opens"), variant=v)
    # The canonical isomorphism is the identity on element indices: both
    # opens sides are the opens lattice of ``top``, and the only up-sets of
    # the indiscrete preorder are the empty set and the carrier, in the
    # order of the two-element chain.
    same = (left.omega.up_masks == right.omega.up_masks
            and left.ell.up_masks == right.ell.up_masks
            and all(left.rel(name) == right.rel(name) for name in REL_NAMES))
    if not same:
        return False, {"left": (left.omega.m, left.ell.m),
                       "right": (right.omega.m, right.ell.m)}
    return True, None


def _run_cex_lift(inst: Instance):
    space, v = inst.payload
    if not _cex_qualifies(space):
        return None, "needs a discrete preorder over a non-sober topology"
    frame = build_ado(space, v)
    spectrum = adpt_space(frame)
    classical = frame_point_space(frame.omega)
    perm = iso_check("top", spectrum.space, classical)
    counts = {"spectrum_points": len(spectrum.points),
              "frame_points": classical.n}
    return perm is not None, counts


# ---------------------------------------------------------------------------
# the registry itself


def _add(id_: str, doc: str, run, universes: tuple, takes: tuple,
         expected_fail: bool = False) -> None:
    _REGISTRY[id_] = _Entry(id_, doc, run, universes, takes, expected_fail)


_add("ADO-VALID",
     "The four extensional relations of any preordered space satisfy every "
     "frame law of the chosen variant.",
     _run_ado_valid, (SPACES,), ("space",))
_add("ADJ-TRIANGLE",
     "The transpose of a map into a spectrum is the unique hom whose "
     "spectrum map closes the triangle with the unit; transposing the "
     "adjoint of a hom gives the hom back.",
     _run_triangle, (TRIANGLES,), ("triangle", "roundtrip"))
_add("ADJ-EXISTS",
     "The unit is natural: spectra of preimage homs commute with it.",
     _run_adj_exists, (MORPHISMS,), ("morphism",))
_add("USC-LSC",
     "Semi-closedness of a space is recoverable from its frame, and "
     "semi-closed frames have semi-closed spectra.",
     _run_usc_lsc, (SPACES,), ("space", "adframe"))
_add("ADS-ISO",
     "The irreducible-pair space is isomorphic to the spectrum of the "
     "space's frame.",
     _run_ads_iso, (SPACES,), ("space",))
_add("OS-ISO",
     "Opens and up-closed sets transfer to the pair space by order "
     "isomorphisms.",
     _run_os_iso, (SPACES,), ("space",))
_add("ETA-PREIMAGE",
     "Pulling transferred opens and up-sets back along the canonical map "
     "into the pair space recovers the originals.",
     _run_eta_preimage, (SPACES,), ("space",))
_add("ADSOBER-EQ",
     "The pair-space route, the unit-bijectivity route, and unit "
     "invertibility agree on which spaces are sober for the pair notion.",
     _run_adsober_eq, (SPACES,), ("space",))
_add("NAT-IND",
     "Indiscrete lift then pair space agrees naturally with classical "
     "sobrification then indiscrete lift.",
     lambda inst: _run_nat_square(inst, "ind_space", _nat_ind_alpha,
                                  _sobrification_map),
     (TOPOLOGIES, TOP_MORPHISMS), ("topology", "top-morphism"))
_add("NAT-DISCR",
     "Discrete lift then pair space returns the original space, "
     "naturally.",
     lambda inst: _run_nat_square(inst, "discr", _nat_discr_alpha,
                                  lambda src, dst, g: g),
     (TOPOLOGIES, TOP_MORPHISMS), ("topology", "top-morphism"))
_add("CEX-ADS",
     "With a discrete preorder over a non-sober topology the pair space "
     "is NOT the classical sobrification; expected to fail.",
     _run_cex_ads, (CEX_SPACES,), ("space",), expected_fail=True)
_add("HOMEO-ADS",
     "Under semi-closedness with pointed irreducible sets (or T1 sober), "
     "forgetting classes maps the pair space onto the sobrification "
     "homeomorphically.",
     _run_homeo_ads, (SPACES,), ("space",))
_add("ADT0-LEMMA",
     "Pair-sobriety is exactly the order-T0 condition plus every "
     "irreducible pair being a point's canonical pair.",
     _run_adt0_lemma, (SPACES,), ("space",))
_add("IDEMPOTENT",
     "Pair spaces (equivalently all spectra) are themselves sober for the "
     "pair notion.",
     _run_idempotent, (SPACES,), ("space", "adframe"))
_add("IND-VALID",
     "The two-sided lift of any nontrivial distributive lattice is a "
     "valid frame.",
     _run_ind_valid, (LATTICES,), ("lattice",))
_add("EPS-VALID",
     "The counit comparison from the two-sided lift of a frame's opens "
     "back to the frame is a valid hom.",
     _run_eps_valid, (SPACE_FRAMES,), ("adframe",))
_add("IND-ADJ",
     "Every hom out of a two-sided lift forces the bottom/top second "
     "component and factors uniquely through the counit.",
     _run_ind_adj, (HOM_FAMILIES,), ("hom-family",))
_add("LIFT-SQUARE",
     "On nonempty carriers, the frame of the indiscrete lift is "
     "isomorphic to the two-sided lift of the opens lattice.",
     _run_lift_square, (TOPOLOGIES,), ("topology",))
_add("CEX-LIFT",
     "With a discrete preorder over a non-sober topology the spectrum "
     "disagrees with the classical frame spectrum; expected to fail.",
     _run_cex_lift, (CEX_SPACES,), ("space",), expected_fail=True)


# ---------------------------------------------------------------------------
# single-payload instances (used by the command line)


def instances_for_payload(theorem_id: str, payload,
                          variant=Variant.BOTH) -> list[Instance]:
    """Adapt one JSON payload to the instances of a check.  A frame or a
    lattice is taken as it is by the checks whose runner takes that kind;
    a space goes through the adapter of the check's first universe, so
    morphism checks get the family of self-maps."""
    entry = _lookup(theorem_id)
    for cls, kind, make in ((AdFrame, "adframe", frame_instance),
                            (FinLattice, "lattice", lattice_instance)):
        if isinstance(payload, cls):
            if kind not in entry.takes:
                raise ValueError(f"{theorem_id} needs a space payload")
            return [make(payload)]
    return entry.universes[0].adapt(payload, Variant.parse(variant))
