"""Sobrification constructions.

The classical sobrification of the topology lives alongside the two-sided
one whose carrier is the set of irreducible pairs: an irreducible closed
set C together with a preorder-equivalence class [x], subject to
variant-dependent compatibility (meeting the cone of x and landing inside
the closure of the opposite cone).

A map is a tuple of point indices: ``ads_hom`` and ``ads_adpt_iso`` return
one and take the pair spaces and the spectrum it runs between.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .bits import bits_of, canonical_subsets, low_bit, subset_key, union_of
from .errors import ImageNotIrreducible, InternalCheckError, NotContinuous, NotMonotone
from . import finord
from .finord import (
    FinPreTopSpace,
    FinTopSpace,
    class_of,
    closure,
    columns,
    irreducible_closed_sets,
    point_classes,
    point_closures,
    subset_lattice,
)
from .frames import Variant
from .duality import AdPoint, Spectrum


class IrreduciblePair(NamedTuple):
    """closed: an irreducible closed subset mask; cls: the full class mask
    (representative = lowest bit).

    A pair is a plain tuple, so it hashes, compares and sorts as
    ``(closed, cls)``; a pair and an :class:`AdPoint` with equal ints are
    equal, and the two must never share a set or a dict."""

    closed: int
    cls: int

    @property
    def rep(self) -> int:
        return low_bit(self.cls)


def canonical_pairs(space: FinPreTopSpace) -> tuple[IrreduciblePair, ...]:
    """The canonical pair (cl x, [x]) of each point x, in point order."""
    classes = point_classes(space)
    return tuple(IrreduciblePair(c, class_of(classes, x))
                 for x, c in enumerate(point_closures(space)))


def irreducible_pairs(space: FinPreTopSpace, variant=Variant.BOTH) -> tuple[IrreduciblePair, ...]:
    """The pairs (C, [x]) such that C meets the down-cone of x and lies
    inside the closure of its up-cone (for the Up side), and meets the
    up-cone and lies inside the closure of the down-cone (for the Down
    side).  Pairs are tested at the lowest member of the class; the test
    suite checks that every other member gives the same answer.  Both loops
    run in canonical order, so the pairs come out sorted by C, then [x]."""
    variant = Variant.parse(variant)
    cl, downs = point_closures(space), columns(space.leq, space.n)
    tests = []
    for cls in sorted(point_classes(space), key=subset_key):
        x = low_bit(cls)
        up, down = space.leq[x], downs[x]
        cones = [(down, union_of(cl, up))] if variant.sees_up else []
        if variant.sees_down:
            cones.append((up, union_of(cl, down)))
        (meets1, inside1), (meets2, inside2) = cones[0], cones[-1]
        tests.append((cls, meets1, meets2, ~(inside1 & inside2)))
    return tuple(IrreduciblePair(c, cls) for c in irreducible_closed_sets(space)
                 for cls, meets1, meets2, outside in tests
                 if c & meets1 and c & meets2 and not c & outside)


# ---------------------------------------------------------------------------
# classical sobrification


def standard_sobrification(space) -> tuple[FinTopSpace, tuple[int, ...]]:
    """(space of irreducible closed sets with the diamond topology, unit).

    The diamond of an open u is the family of irreducible closed sets that
    meet u.  Three facts hold by construction, so nothing here checks them:

      - cl(x) meets u iff x is in u: if x is not in u, the closed
        complement of u contains x and hence cl(x).  So when x is in u but
        not in v, the irreducible set cl(x) is in the diamond of u and not
        in that of v: the diamond map is injective.
      - The diamonds form a topology.  The empty open goes to the empty
        family and the carrier to every C.  C meets u | v iff it meets u or
        v; and if C meets both but misses u & v, it lies in the union of
        the two closed complements, so, being irreducible, inside one.
      - The unit x -> cl(x) is continuous: by the first fact the preimage
        of the diamond of u is u.

    The test suite checks all three on every space of up to three points.
    """
    irr = irreducible_closed_sets(space)
    opens = [sum(1 << i for i, c in enumerate(irr) if c & u) for u in space.opens]
    unit = tuple(map(irr.index, point_closures(space)))
    return FinTopSpace(len(irr), canonical_subsets(opens)), unit


# ---------------------------------------------------------------------------
# two-sided sobrification


@dataclass(frozen=True, eq=False)
class AdsSpace:
    """``diamond_map[k]`` is the image of ``base.opens[k]``; ``bracket_map[a]``
    the image of the a-th up-closed set of the base (canonical order)."""

    base: FinPreTopSpace
    variant: Variant
    pairs: tuple[IrreduciblePair, ...]
    space: FinPreTopSpace
    diamond_map: tuple[int, ...]
    bracket_map: tuple[int, ...]
    upsets: tuple[int, ...]

    def pair_index(self, pair: IrreduciblePair) -> int:
        return self.pairs.index(pair)


def ads_space(space: FinPreTopSpace, variant=Variant.BOTH) -> AdsSpace:
    """The irreducible-pair space with its two transfer maps.  OS-ISO checks
    that the pair-space opens are a topology and that both transfer maps
    are order isomorphisms onto the opens and the up-closed sets.

    For each point y, ``in_closed[y]`` holds the pairs whose C holds y and
    ``in_cls[y]`` those whose class does, so an open's diamond and an
    up-set's bracket are the unions of these rows over their points.  An
    up-set holds a class whole or misses it, so the pairs above (C, [x])
    are the bracket of the up-cone of x."""
    variant = Variant.parse(variant)
    pairs = irreducible_pairs(space, variant)
    in_closed = columns([pr.closed for pr in pairs], space.n)
    in_cls = columns([pr.cls for pr in pairs], space.n)
    diamond = tuple(union_of(in_closed, u) for u in space.opens)
    base_upsets = subset_lattice(space, "upsets").labels
    bracket = tuple(union_of(in_cls, a) for a in base_upsets)
    rows = tuple(union_of(in_cls, space.leq[pr.rep]) for pr in pairs)
    result = FinPreTopSpace(len(pairs), canonical_subsets(diamond), rows)
    return AdsSpace(space, variant, pairs, result, diamond, bracket, base_upsets)


def ads_hom(mapping: Sequence[int], ads_src: AdsSpace,
            ads_dst: AdsSpace) -> tuple[int, ...]:
    """The pair-space map of a continuous monotone map between the bases,
    as pair indices: close the direct image of C, push the class through.

    The result is continuous and monotone between the pair spaces: the
    closure of f(C) meets an open v iff C meets the open preimage of v, so
    diamonds pull back to diamonds, and the pair order is the preorder on
    class representatives, which f respects.  The test suite checks both
    on every morphism of spaces with up to two points."""
    if ads_src.variant is not ads_dst.variant:
        raise ValueError(f"pair spaces of variants {ads_src.variant.value}, {ads_dst.variant.value}")
    src, dst = ads_src.base, ads_dst.base
    bad = finord.continuity_failure(src, dst, mapping)
    if bad is not None:
        raise NotContinuous(f"preimage of open {bits_of(bad)} is not open")
    if finord.monotonicity_failure(src, dst, mapping) is not None:
        raise NotMonotone("map does not respect the preorders")
    classes_dst = point_classes(dst)
    index = {pr: i for i, pr in enumerate(ads_dst.pairs)}
    out = []
    for pr in ads_src.pairs:
        d = closure(dst, finord.image(mapping, pr.closed))
        cls = class_of(classes_dst, mapping[pr.rep])
        target = IrreduciblePair(d, cls)
        if target not in index:
            raise ImageNotIrreducible(
                f"image pair ({bits_of(d)}, class of {mapping[pr.rep]}) "
                f"is not an irreducible pair")
        out.append(index[target])
    return tuple(out)


# ---------------------------------------------------------------------------
# agreement with the spectrum


def ads_adpt_iso(ads: AdsSpace, spectrum: Spectrum) -> tuple[int, ...]:
    """The map from a pair space to the spectrum of its base's ad-frame
    (``adpt_space(build_ado(ads.base, ads.variant))``), as point indices:
    (C, [x]) goes to the point whose filters are the opens meeting C and
    the up-closed sets meeting [x].  ADS-ISO checks that it is an
    isomorphism of spaces carrying the bracket sets onto its up-sets."""
    frame = spectrum.frame
    if ads.variant is not frame.variant:
        raise ValueError(f"pair space of variant {ads.variant.value}, spectrum {frame.variant.value}")
    forward = []
    for pr in ads.pairs:
        x = sum(1 << u for u, lab in enumerate(frame.omega.labels) if lab & pr.closed)
        s = sum(1 << a for a, lab in enumerate(frame.ell.labels) if lab & pr.cls)
        idx = spectrum.point_index(AdPoint(x, s))
        if idx is None:
            raise InternalCheckError(f"pair {pr} does not map to a point")
        forward.append(idx)
    return tuple(forward)
