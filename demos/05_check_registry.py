"""
The check registry: sweeps, random instances, shrinking
=======================================================

Every statement the package cares about is a registered check that can run
on one instance, a list of instances, or a sweep over all spaces of a given
size.  Expected counterexamples report expected-fail instead of fail, and
failing space instances are shrunk to minimal witnesses.
"""

from collections import Counter

from adframe import (generate_random, instances_for_payload, registry_doc,
                     registry_ids, run_check, validate_adframe)
from adframe.theorems import space_instance
from adframe.finord import FinPreTopSpace

print("registered checks:")
for cid in registry_ids():
    print(f"  {cid:<12} {registry_doc(cid)}")

# exhaustive sweep: all 16 two-point spaces x 3 variants
reports = run_check("IDEMPOTENT", sweep={"n": 2})
print("\nIDEMPOTENT n=2:", Counter(r.verdict for r in reports))

# sampled sweep: three-point spaces, seeded, reproducible
reports = run_check("ADJ-TRIANGLE", sweep={"n": 3, "count": 25, "seed": 7})
print("ADJ-TRIANGLE sampled:", Counter(r.verdict for r in reports))

# an expected counterexample: the pair space is NOT the classical
# sobrification on qualifying instances, and the witness is minimized
qualifying = FinPreTopSpace(3, (0, 7), (1, 2, 4))
rep = run_check("CEX-ADS", instance=space_instance(qualifying))[0]
print("\nCEX-ADS verdict:", rep.verdict)
print("  raw witness:", rep.witness["detail"])
print("  minimized to:", rep.witness["minimized"]["points"], "points:",
      rep.witness["minimized_detail"])

# random generators are seeded and tagged; mutated frames break a chosen law
gen = generate_random("adframe", {"family": "mutated"}, seed=5)
failed = [c.law for c in validate_adframe(gen.payload).failures()]
print("\nmutated frame target:", gen.meta["target"], " actually broken:", failed)

# run a check against your own payload; the adapter picks matching instances
own = FinPreTopSpace(2, (0, 2, 3), (1, 3))
insts = instances_for_payload("ADJ-TRIANGLE", own)
reports = run_check("ADJ-TRIANGLE", instances=insts)
print("\npayload-adapted triangle checks:", Counter(r.verdict for r in reports))

# everything above is also reachable from the command line, e.g.
#   adframe check --id IDEMPOTENT --sweep n=2
#   adframe sweep --sweep n=1
#   adframe render --in frame.json --out frame.dot
