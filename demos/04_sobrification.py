"""
Two sobrifications, and where they disagree
===========================================

The classical sobrification keeps one point per irreducible closed set.
The order-aware version keeps (irreducible closed set, order class) pairs
satisfying variant-dependent meeting conditions -- and that difference is
observable.
"""

from adframe import (adpt_space, ads_adpt_iso, ads_space, build_ado,
                     irreducible_pairs, make_space, standard_sobrification)
from adframe.bits import bits_of
from adframe.theorems import designated_counterexample

# two points, indiscrete topology, discrete preorder
cex = designated_counterexample()

sob, unit = standard_sobrification(cex)
print("classical sobrification size:", sob.n, " unit:", unit)

pairs = irreducible_pairs(cex)
print("irreducible pairs:", [(bits_of(p.closed), bits_of(p.cls)) for p in pairs])

ads = ads_space(cex)
print("pair space size:", ads.space.n, " opens:", ads.space.opens)
print("so the pair space keeps both points while the classical one collapses them")

# the transfer maps: opens move along the diamond map, up-sets along the
# bracket map, both as order isomorphisms (the OS-ISO check verifies this)
print("diamond:", ads.diamond_map, " bracket:", ads.bracket_map)

# the pair space is exactly the spectrum of the frame, via an explicit witness
spectrum = adpt_space(build_ado(cex))
print("pair -> point bijection:", ads_adpt_iso(ads, spectrum))

# on a space that is already sober and ordered discretely, everything is
# the identity in disguise
chain = make_space(3, [[2], [1, 2], [0, 1, 2], []], pairs=[[0, 1], [1, 2]])
sob2, unit2 = standard_sobrification(chain)
ads2 = ads_space(chain)
print("chain: classical size", sob2.n, "/ pair size", ads2.space.n,
      "/ base size", chain.n)

# applying the construction twice changes nothing (idempotence)
again = ads_space(ads2.space)
print("idempotent:", again.space.n == ads2.space.n)
