"""Points of ad-frames and the spectrum construction.

A point is a pair (x, s): x a completely prime filter of the opens side,
s a completely prime complete filter of the lattice side, subject to the
four relation conditions of the frame's variant.  Both components are bit
vectors over lattice element indices.

Points are found by one route, ``enumerate_points``: it walks the prime
elements of the opens side and the pitchfork pairs of the lattice side.
Its oracle, a scan of every subset pair against the definitions, lives
in the test suite's helpers.

A map is a tuple of point indices: ``adpt_hom`` and ``eta_map`` return
one and take the spectra it runs between, built once by the caller.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence

from .bits import bits_of, canonical_subsets, full_mask, union_of
from .errors import (
    InternalCheckError,
    NotAPointMap,
    NotContinuous,
    NotMonotone,
)
from . import finord
from .finord import (FinLattice, FinPreTopSpace, columns, kept, lattice_analyze,
                     preimage)
from .frames import AdFrame, AdFrameHom, preimage_hom


class AdPoint(NamedTuple):
    """A point as a plain tuple: it hashes, compares and sorts as ``(x, s)``.
    A point and an :class:`~adframe.sobrify.IrreduciblePair` with equal
    ints are equal, and the two must never share a set or a dict."""

    x: int  # filter on the opens side, mask over omega element indices
    s: int  # complete filter on the lattice side, mask over ell indices


# ---------------------------------------------------------------------------
# enumeration


def enumerate_points(frame: AdFrame) -> tuple[AdPoint, ...]:
    """The points of a frame, ordered by the least element of s, then x."""
    omega, ell = frame.omega, frame.ell
    primes = lattice_analyze(omega).primes
    forks = lattice_analyze(ell).pitchfork
    l_up, l_down = ell.up_masks, ell.down_masks
    tot, fof = frame.tot, frame.fof

    # (p, b) fails the up conditions when some (p, a) in tot lacks b <= a or
    # some (u, b) in con lacks u <= p, that is b is in the con row of some
    # u in x; the down conditions are the fof/cou analogues with q.
    found = []
    for p in primes:
        x = full_mask(omega.m) & ~omega.down_masks[p]
        con_x, cou_x = union_of(frame.con, x), union_of(frame.cou, x)
        for q, b in forks:
            if frame.variant.sees_up and (tot[p] & ~l_up[b] or con_x >> b & 1):
                continue
            if frame.variant.sees_down and (fof[p] & ~l_down[q] or cou_x >> q & 1):
                continue
            found.append((b, x, ell.up_masks[b]))
    found.sort()
    return tuple(AdPoint(x, s) for _, x, s in found)


# ---------------------------------------------------------------------------
# spectra


@dataclass(frozen=True, eq=False)
class Spectrum:
    """The space of points of an ad-frame.

    ``open_map`` sends each opens-side element u to the subset of points
    whose first component contains u; ``upset_map`` is the lattice-side
    counterpart.  The preorder compares second components by inclusion.
    """

    frame: AdFrame
    points: tuple[AdPoint, ...]
    space: FinPreTopSpace
    open_map: tuple[int, ...]
    upset_map: tuple[int, ...]

    def point_index(self, pt: AdPoint) -> Optional[int]:
        try:
            return self.points.index(pt)
        except ValueError:
            return None


def adpt_space(frame: AdFrame) -> Spectrum:
    """The spectrum of a frame: its points, with the opens and up-closed
    sets that the elements of the two sides induce on them.  The test suite
    checks that the opens form a topology and that the up-closed sets are
    exactly those of the point preorder."""
    points = enumerate_points(frame)
    open_map = columns([pt.x for pt in points], frame.omega.m)
    upset_map = columns([pt.s for pt in points], frame.ell.m)
    opens = canonical_subsets(open_map)
    # s is the up-cone of one element b, so s <= s' iff b is in s'
    cone_of = frame.ell.joins()[1]
    rows = tuple(upset_map[cone_of[pt.s]] for pt in points)
    space = FinPreTopSpace(len(points), opens, rows)
    return Spectrum(frame, points, space, open_map, upset_map)


def pullback_point(hom: AdFrameHom, pt: AdPoint) -> AdPoint:
    """Image of a spectrum point of the target under the spectrum map of a
    hom: componentwise preimage of the two filters."""
    return AdPoint(preimage(hom.phi, pt.x), preimage(hom.p, pt.s))


def adpt_hom(hom: AdFrameHom, dom: Spectrum, cod: Spectrum) -> tuple[int, ...]:
    """Spectrum map induced by a hom, contravariantly, as point indices: a
    point of ``dom``, the spectrum of the hom's target, pulls back along
    (phi, p) to a point of ``cod``, the spectrum of its source.  Continuity
    and monotonicity of the result are checked by ADJ-EXISTS."""
    mapping = []
    for pt in dom.points:
        idx = cod.point_index(pullback_point(hom, pt))
        if idx is None:
            raise InternalCheckError(
                f"pullback of point {pt} along the hom is not a point")
        mapping.append(idx)
    return tuple(mapping)


# ---------------------------------------------------------------------------
# the unit


def _point_masks(lat: FinLattice) -> tuple[int, ...]:
    """For each point of the carrier (the top label), the mask of the
    elements of a lattice of subsets whose labels contain it; the lattice
    keeps them."""
    return kept(lat, "_point_masks",
                lambda: columns(lat.labels, lat.labels[lat.top].bit_length()))


def unit_points(frame: AdFrame) -> Iterator[AdPoint]:
    """The unit's point at each point x of a space, read off the space's
    ad-frame (``build_ado(space, variant)``): the opens and the up-closed
    sets around x, in carrier order."""
    return map(AdPoint, _point_masks(frame.omega), _point_masks(frame.ell))


def eta_map(spectrum: Spectrum) -> tuple[int, ...]:
    """The unit of the adjunction at a space, as point indices, given the
    spectrum of the space's ad-frame (``adpt_space(build_ado(space,
    variant))``): each point x goes to the index of its :func:`unit_points`
    point, the opens and up-closed sets around x.  ADSOBER-EQ checks that
    it pulls spectrum opens back to opens and is monotone."""
    mapping = []
    for x, pt in enumerate(unit_points(spectrum.frame)):
        idx = spectrum.point_index(pt)
        if idx is None:
            raise InternalCheckError(f"unit image of point {x} is not a point")
        mapping.append(idx)
    return tuple(mapping)


# ---------------------------------------------------------------------------
# transpose


def transpose(space: FinPreTopSpace, spectrum: Spectrum,
              mapping: Sequence[int]) -> AdFrameHom:
    """Universal-property transpose of a continuous monotone map into a
    spectrum, given as point indices: the hom whose spectrum map composed
    with the unit gives the map back.  It sends each element of the
    spectrum's frame to the preimage of the points it picks out.  Rejects
    maps that are not continuous monotone maps into the spectrum;
    ADJ-TRIANGLE checks that the result is a hom, closes the triangle and
    is the only hom that does."""
    idxs = tuple(int(value) for value in mapping)
    for idx in idxs:
        if not (0 <= idx < len(spectrum.points)):
            raise NotAPointMap(f"point index {idx} out of range")

    bad = finord.continuity_failure(space, spectrum.space, idxs)
    if bad is not None:
        raise NotContinuous(f"map into the spectrum pulls back open "
                            f"{bad} to a non-open")
    if finord.monotonicity_failure(space, spectrum.space, idxs) is not None:
        raise NotMonotone("map into the spectrum is not monotone")
    return preimage_hom(spectrum.frame, spectrum.open_map, spectrum.upset_map,
                        idxs, space)


# ---------------------------------------------------------------------------
# separation


def is_ad_t0(space: FinPreTopSpace) -> bool:
    """Antisymmetry of specialization intersected with the preorder."""
    spec = finord.specialization_preorder(space)
    for x in range(space.n):
        both_x = spec[x] & space.leq[x]
        for y in bits_of(both_x):
            if y != x and spec[y] >> x & 1 and space.leq[y] >> x & 1:
                return False
    return True


@dataclass(frozen=True)
class SoberResult:
    ad_sober: bool
    witness: Optional[tuple] = None


def is_ad_sober(space: FinPreTopSpace, pairs: Sequence) -> SoberResult:
    """Whether the canonical pairs map (closure of x with the class of x)
    is bijective onto ``pairs``, the space's irreducible pairs
    (``irreducible_pairs(space, variant)``), which the caller builds and
    may reuse.  ADSOBER-EQ checks that this agrees with the unit being
    bijective onto the spectrum."""
    from . import sobrify  # local import; sobrify builds on this module

    assigned = {}
    for x, pair in enumerate(sobrify.canonical_pairs(space)):
        if pair in assigned:
            return SoberResult(False, ("unit-collision", assigned[pair], x))
        assigned[pair] = x
    if set(assigned) != set(pairs):
        # a record writes a pair as its repr, not as the list JSON makes of a tuple
        missing = tuple(map(repr, sorted(set(pairs) - set(assigned))))
        extra = tuple(map(repr, sorted(set(assigned) - set(pairs))))
        return SoberResult(False, ("pair-mismatch", missing, extra))
    return SoberResult(True)
