"""End-to-end acceptance gate.

Each test exercises one advertised guarantee at its stated scale and prints
a single PASS/FAIL line (run with ``pytest -s`` to see them stream).
"""

import time

from adframe import (build_ado, enumerate_points, generate_random,
                     ind_functor, run_check)
from adframe.errors import TrivialFrame
from adframe.finord import upset_family
from adframe.theorems import (VARIANTS, designated_counterexample,
                              enumerate_preorders, enumerate_spaces,
                              enumerate_topologies, frame_instance,
                              space_instance)

from helpers import _enumerate_bruteforce, enumerate_distributive_lattices


def report(ok, label, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {label}" + (f" :: {detail}" if detail else "")
    print(line)
    assert ok, line


def all_pass(reports):
    return [r for r in reports if r.verdict == "fail"]


def test_validity_sweep_all_three_point_spaces():
    t0 = time.perf_counter()
    reports = run_check("ADO-VALID", sweep={"n": 3})
    elapsed = time.perf_counter() - t0
    bad = all_pass(reports)
    ok = len(reports) == 2523 and not bad and elapsed < 10.0
    report(ok, "frame validity sweep",
           f"{len(reports)} checks, {len(bad)} failures, {elapsed:.1f}s (limit 10s)")


def test_point_enumeration_oracle_agreement():
    mismatches = 0
    frames = 0
    for n in range(4):
        for sp in enumerate_spaces(n):
            for v in VARIANTS:
                frame = build_ado(sp, v)
                frames += 1
                if enumerate_points(frame) != _enumerate_bruteforce(frame):
                    mismatches += 1
    coupled = 0
    trivial = 0
    for lat in enumerate_distributive_lattices(8):
        try:
            frame = ind_functor(lat)
        except TrivialFrame:
            trivial += 1
            continue
        coupled += 1
        if enumerate_points(frame) != _enumerate_bruteforce(frame):
            mismatches += 1
    ok = mismatches == 0 and frames == 2577 and coupled == 35 and trivial == 1
    report(ok, "point enumeration oracle",
           f"{frames} space frames + {coupled} couplings, {mismatches} mismatches")


def test_adjunction_triangle_exhaustive_then_sampled():
    t0 = time.perf_counter()
    exhaustive = []
    for n in (0, 1, 2):
        exhaustive += run_check("ADJ-TRIANGLE", sweep={"n": n})
    sampled = run_check("ADJ-TRIANGLE", sweep={"n": 3, "count": 1000, "seed": 0})
    elapsed = time.perf_counter() - t0
    bad = all_pass(exhaustive) + all_pass(sampled)
    ok = not bad and len(sampled) == 1000
    report(ok, "adjunction triangle",
           f"{len(exhaustive)} exhaustive + {len(sampled)} sampled, "
           f"{len(bad)} failures, {elapsed:.1f}s")


def test_pair_space_matches_spectrum_everywhere():
    t0 = time.perf_counter()
    reports = []
    for n in range(4):
        reports += run_check("ADS-ISO", sweep={"n": n})
    elapsed = time.perf_counter() - t0
    bad = all_pass(reports)
    ok = len(reports) == 2577 and not bad and elapsed < 60.0
    report(ok, "pair space vs spectrum isomorphism",
           f"{len(reports)} checks, {len(bad)} failures, {elapsed:.1f}s (limit 60s)")


def test_sobrification_idempotent():
    reports = []
    for n in range(4):
        reports += run_check("IDEMPOTENT", sweep={"n": n})
    generated = []
    for seed in range(500):
        family = ("ado", "ind")[seed % 2]
        gen = generate_random("adframe", {"family": family}, seed=seed)
        generated.append(frame_instance(gen.payload, {"seed": seed}))
    reports2 = run_check("IDEMPOTENT", instances=generated)
    bad = all_pass(reports) + all_pass(reports2)
    ok = not bad and len(reports) == 2577 and len(reports2) == 500
    report(ok, "idempotence",
           f"{len(reports)} sweep + {len(reports2)} generated frames, "
           f"{len(bad)} failures")


def test_transfer_maps_and_unit_preimages():
    reports = []
    for n in range(4):
        reports += run_check("OS-ISO", sweep={"n": n})
        reports += run_check("ETA-PREIMAGE", sweep={"n": n})
    bad = all_pass(reports)
    report(not bad, "transfer order-isos and unit preimage identities",
           f"{len(reports)} checks, {len(bad)} failures")


def test_functor_comparisons():
    reports = []
    for n in (0, 1, 2):
        reports += run_check("NAT-DISCR", sweep={"n": n})
        reports += run_check("NAT-IND", sweep={"n": n})
    sampled = run_check("NAT-DISCR", sweep={"n": 3, "count": 200, "seed": 0})
    sampled += run_check("NAT-IND", sweep={"n": 3, "count": 200, "seed": 0})
    squares = [r for r in sampled if "morphism" in r.instance["kind"]]
    bad = all_pass(reports) + all_pass(sampled)
    ok = not bad and len(squares) >= 400
    report(ok, "functor comparison naturality",
           f"{len(reports)} exhaustive + {len(sampled)} sampled "
           f"({len(squares)} squares), {len(bad)} failures")


def test_designated_counterexamples_report_expected_fail():
    sp = designated_counterexample()
    ads_rep = run_check("CEX-ADS", instance=space_instance(sp))[0]
    lift_rep = run_check("CEX-LIFT", instance=space_instance(sp))[0]
    ads_w = ads_rep.witness
    lift_w = lift_rep.witness
    ok = (ads_rep.verdict == "expected-fail"
          and lift_rep.verdict == "expected-fail"
          and ads_w == {"pair_space_points": 2, "sobrification_points": 1}
          and lift_w == {"spectrum_points": 2, "frame_points": 1})
    report(ok, "designated counterexamples",
           f"pair space {ads_w} / lifting {lift_w}")


def test_lifting_square_and_factorization():
    reports = []
    for n in (1, 2, 3, 4):
        reports += run_check("LIFT-SQUARE", sweep={"n": n})
    for n in range(4):
        reports += run_check("IND-ADJ", sweep={"n": n})
    bad = all_pass(reports)
    report(not bad, "coupling commutes with frames; factorization unique",
           f"{len(reports)} checks, {len(bad)} failures")


def test_semi_closedness_correspondence():
    reports = []
    for n in range(4):
        reports += run_check("USC-LSC", sweep={"n": n})
    bad = all_pass(reports)
    report(not bad, "semi-closedness flags vs direct computation",
           f"{len(reports)} checks, {len(bad)} failures")


def test_enumerator_self_check():
    expected = {1: 1, 2: 4, 3: 29}
    ok = True
    for n, count in expected.items():
        tops = enumerate_topologies(n)
        pres = enumerate_preorders(n)
        ok &= len(tops) == count == len(pres)
        image = {upset_family(rows) for rows in pres}
        ok &= image == set(tops)
    report(ok, "topology and preorder enumerators",
           "counts 1/4/29 match and the up-set correspondence is a bijection")
