"""The three workloads of the benchmark: their ops, oracles and warm-up.

An op is one unit of user-visible work: one check record for the two
sweeps, one CLI call for ``payload-large``.  Ops call the program
through module attributes (``theorems.run_check``, ``cli.main``) so that a
traced run sees the wrapped functions.

A run is a stream of passes.  A pass is an op list that has the
workload's whole mix of work, so a timed phase that ends after any whole
pass measures that mix:

- a sweep is dealt into ``SWEEP_STRIDE`` passes, pass i holding every
  ``SWEEP_STRIDE``-th record from record i on, in the CLI's order; the
  passes take turns, so every ``SWEEP_STRIDE`` passes make the whole sweep;
- a ``payload-large`` pass is every payload once.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from adframe import cli, theorems
from adframe.theorems import SweepSpec

import payloads

HERE = Path(__file__).resolve().parent

# Verdict tallies of the exhaustive sweeps, frozen from the program as it
# stood when the benchmark was written.  HOMEO-ADS is the one check with
# two verdicts; EXPECTED_N3 lists the instances on which it passes.
SWEEP_N3 = {
    "ADO-VALID": {"pass": 2523}, "USC-LSC": {"pass": 2523},
    "ADS-ISO": {"pass": 2523}, "OS-ISO": {"pass": 2523},
    "ETA-PREIMAGE": {"pass": 2523}, "ADSOBER-EQ": {"pass": 2523},
    "NAT-IND": {"pass": 111}, "NAT-DISCR": {"pass": 111},
    "CEX-ADS": {"expected-fail": 30},
    "HOMEO-ADS": {"pass": 468, "skip": 2055},
    "ADT0-LEMMA": {"pass": 2523}, "IDEMPOTENT": {"pass": 2523},
    "IND-VALID": {"pass": 29}, "EPS-VALID": {"pass": 2523},
    "LIFT-SQUARE": {"pass": 87}, "CEX-LIFT": {"expected-fail": 30},
}
TRIANGLE_N2 = {
    "ADJ-TRIANGLE": {"pass": 4316}, "ADJ-EXISTS": {"pass": 2022},
    "IND-ADJ": {"pass": 192},
}
EXPECTED_N3 = HERE / "expected_n3.json"
SWEEP_STRIDE = 4              # passes per sweep; a pass takes ~5 s today


class SetupError(Exception):
    """The program's inputs no longer match what the benchmark expects."""


@dataclass(frozen=True, eq=False)
class Op:
    label: str
    run: Callable[[], object]
    outcome: Callable[[object], str]   # reads the result; outside the timing
    expected: str


@dataclass(eq=False)
class Workload:
    name: str
    size: str                  # the stated input size
    passes: Iterator[list[Op]]  # the run's passes; it never runs out
    warmup: list[Op]
    traced_ops: int            # a traced run runs the first this many ops
    deadline_s: float          # per-op deadline
    min_passes: int = 1        # a timed phase runs at least this many
    probe: list[Op] = field(default_factory=list)

    def stream(self) -> Iterator[Op]:
        return itertools.chain.from_iterable(self.passes)


# ---------------------------------------------------------------------------
# sweeps


def _verdict(reports) -> str:
    if len(reports) != 1:
        return f"{len(reports)} records"
    return reports[0].verdict


def check_op(cid: str, inst, expected: str) -> Op:
    return Op(cid, lambda: theorems.run_check(cid, instance=inst), _verdict,
              expected)


def sweep_instances(cid: str, n: int) -> list:
    """The instances ``adframe sweep --sweep n=N`` runs check ``cid`` on,
    in the CLI's order."""
    return list(theorems._lookup(cid).sweep(SweepSpec(n=n)))


def space_key(inst) -> str:
    space, variant = inst.payload
    return "|".join((",".join(map(str, space.opens)),
                     ",".join(map(str, space.leq)), variant.value))


def _sweep_groups(n: int, tallies: dict, passing: dict) -> list[list[Op]]:
    missing = [cid for cid in tallies if cid not in theorems.registry_ids()]
    if missing:
        raise SetupError(f"checks missing from the registry: {missing}")
    groups = []
    for cid, tally in tallies.items():
        insts = sweep_instances(cid, n)
        if len(insts) != sum(tally.values()):
            raise SetupError(f"{cid}: {len(insts)} instances at n={n}, "
                             f"expected {sum(tally.values())}")
        if len(tally) == 1:
            (verdict,) = tally
            groups.append([check_op(cid, inst, verdict) for inst in insts])
            continue
        keys = set(passing[cid])
        ops = [check_op(cid, inst, "pass" if space_key(inst) in keys else "skip")
               for inst in insts]
        if sum(op.expected == "pass" for op in ops) != tally["pass"]:
            raise SetupError(f"{cid}: passing instances are not the frozen ones")
        groups.append(ops)
    return groups


def _sweep_workload(name, size, groups, seed) -> Workload:
    """Every check's instances in turn, as ``adframe sweep`` runs them,
    dealt into ``SWEEP_STRIDE`` passes; the seed picks the first pass.
    The warm-up takes the first few instances of each check."""
    ops = [op for group in groups for op in group]
    passes = [ops[i::SWEEP_STRIDE] for i in range(SWEEP_STRIDE)]
    order = (passes[(seed + i) % SWEEP_STRIDE] for i in itertools.count())
    warmup = [op for group in groups for op in group[:8]]
    return Workload(name, size, order, warmup, traced_ops=len(ops),
                    deadline_s=2.0)


def sweep_n3(seed: int, scratch: Path) -> Workload:
    passing = json.loads(EXPECTED_N3.read_text())
    groups = _sweep_groups(3, SWEEP_N3, passing)
    return _sweep_workload("sweep-n3", "n=3, 16 checks, 25628 records",
                           groups, seed)


def triangle_n2(seed: int, scratch: Path) -> Workload:
    groups = _sweep_groups(2, TRIANGLE_N2, {})
    return _sweep_workload("triangle-n2", "n=2, 3 checks, 6530 records",
                           groups, seed)


# ---------------------------------------------------------------------------
# payload workload


def cli_op(verb: str, pl: payloads.Payload, scratch: Path) -> Op:
    src = scratch / f"{pl.name}.json"
    out = scratch / f"{pl.name}.{verb}.out.json"
    argv = [verb, "--in", str(src), "--out", str(out)]

    def outcome(rc) -> str:
        if rc != 0:
            return f"exit {rc}"
        doc = json.loads(out.read_text())
        os.unlink(out)
        if verb == "validate":
            return "ok" if doc == pl.validate else f"validate wrote {doc}"
        found = len(doc["points"])
        if found == pl.points == doc["space"]["points"]:
            return "ok"
        return f"{found} points, expected {pl.points}"

    return Op(f"{verb} {pl.name}", lambda: cli.main(argv), outcome, "ok")


def _write(pls, scratch: Path) -> None:
    for pl in pls:
        (scratch / f"{pl.name}.json").write_text(json.dumps(pl.doc))


def payload_large(seed: int, scratch: Path) -> Workload:
    pls = payloads.payload_set(seed)
    probe = payloads.defect_probe_set(seed)
    _write(pls + probe, scratch)
    ops = []
    for pl in pls:
        ops.append(cli_op("validate", pl, scratch))
        if pl.points is not None:
            ops.append(cli_op("adpt", pl, scratch))
    warmup = ops[:3]        # the smallest lattice and its lift, both verbs
    return Workload("payload-large",
                    f"{len(ops)} CLI calls per pass, lattices of 16-72 elements",
                    itertools.repeat(ops), warmup, traced_ops=len(ops),
                    deadline_s=10.0,
                    # so that at least 10 latencies lie beyond p90
                    min_passes=2,
                    probe=[cli_op("adpt", pl, scratch) for pl in probe])


WORKLOADS = {
    "sweep-n3": sweep_n3,
    "triangle-n2": triangle_n2,
    "payload-large": payload_large,
}
