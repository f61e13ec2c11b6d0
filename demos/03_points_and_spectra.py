"""
Points, spectra, and the unit of the adjunction
===============================================

A point of a frame is a pair of filters (completely prime on the opens
side, complete on the lattice side) subject to the four relation
conditions.  The spectrum collects all of them into a new space.
"""

from adframe import (Variant, adpt_space, build_ado, enumerate_points,
                     eta_map, irreducible_pairs, is_ad_sober, is_ad_t0,
                     make_space, transpose, validate_hom)
from adframe.bits import bits_of

term = make_space(2, [[], [1], [0, 1]], pairs=[[1, 0]])
frame = build_ado(term)

# the fast enumeration goes through primes and pitchfork pairs; the slow
# one tries every pair of subsets.  They must agree.
fast = enumerate_points(frame, "prime")
slow = enumerate_points(frame, "bruteforce")
print("points:", [(bits_of(p.x), bits_of(p.s)) for p in fast])
print("oracle agreement:", fast == slow)

spectrum = adpt_space(frame)
print("spectrum opens:", spectrum.space.opens, " order:", spectrum.space.leq)

# eta sends a base point to (its open neighborhoods, its order class seen
# through up-sets), a point of the spectrum of the space's frame; on this
# space that is a bijection
eta = eta_map(spectrum)
print("eta:", eta)
print("ad-T0:", is_ad_t0(term),
      " ad-sober:", is_ad_sober(term, irreducible_pairs(term)).ad_sober)

# the universal property: any continuous monotone map into a spectrum is
# adpt(hom) . eta for a unique hom, recovered by transpose.  The chain
# uses the same convention as term: the open point sits at the bottom.
chain = make_space(3, [[2], [1, 2], [0, 1, 2], []], pairs=[[2, 1], [1, 0]])
spec3 = adpt_space(build_ado(chain))
f = (0, 2)  # a map from term into the 3-chain spectrum
hom = transpose(term, spec3, f)
print("transpose phi:", hom.phi, " p:", hom.p)
print("transpose is a frame hom:", validate_hom(hom).ok)

# and the triangle closes: pulling eta's points back along hom lands on f
from adframe.duality import pullback_point
closes = all(
    spec3.point_index(pullback_point(hom, spectrum.points[eta[x]])) == f[x]
    for x in range(term.n))
print("triangle adpt(hom) . eta == f:", closes)

# a space that fails to be ad-sober: indiscrete topology, indiscrete order
blob = make_space(2, [[], [0, 1]], pairs=[[0, 1], [1, 0]])
print("blob eta:", eta_map(adpt_space(build_ado(blob, Variant.BOTH))),
      "-> ad-sober:", is_ad_sober(blob, irreducible_pairs(blob)).ad_sober)
