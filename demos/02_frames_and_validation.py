"""
Four-relation frames and the law checker
========================================

build_ado couples the opens lattice and the up-set lattice of a space with
the four relations tot / con / fof / cou.  validate_adframe re-derives every
closure and interaction law and reports exactly which ones break.
"""

import json

from dataclasses import replace

from adframe import (Variant, adframe_from_json, adframe_to_json, build_ado,
                     make_space, validate_adframe)
from adframe.cli import render_dot
from adframe.frames import rel_pairs

term = make_space(2, [[], [1], [0, 1]], pairs=[[1, 0]])
frame = build_ado(term)  # Both variant: all four relations in force

print(frame)
for name in ("tot", "con", "fof", "cou"):
    print(f"{name}: {list(rel_pairs(frame.rel(name)))}")

report = validate_adframe(frame)
print("valid:", report.ok, f"({len(report.checks)} laws checked)")

# the Up variant only enforces the tot/con half
up_report = validate_adframe(frame.with_variant(Variant.UP))
print("laws seen by the Up variant:", len(up_report.checks))

# break a law on purpose: remove the pair (top, top) from tot by clearing
# bit ell.top of row omega.top (each relation is a tuple of row masks)
tot = list(frame.tot)
tot[frame.omega.top] ^= 1 << frame.ell.top
broken = replace(frame, tot=tuple(tot))
for check in validate_adframe(broken).failures():
    print("broken law:", check.law, "witness:", check.witness)

# frames serialize to plain JSON and come back identical
doc = adframe_to_json(frame)
again = adframe_from_json(json.loads(json.dumps(doc)))
print("roundtrip stable:", again.key() == frame.key())

# DOT rendering: two Hasse clusters plus colored relation edges
# (same output as: adframe render --in frame.json)
print(render_dot(frame).splitlines()[0], "...",
      len(render_dot(frame).splitlines()), "lines of DOT")
