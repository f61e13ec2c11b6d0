import dataclasses
import gc
import itertools
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from adframe import (AdFrameHom, BudgetExceeded, FinLattice, FinPreTopSpace,
                     FinTopSpace, NotContinuous, UnknownTheorem, Variant,
                     adpt_hom, adpt_space, ads_space, bounded_lattice_homs,
                     build_ado, build_ado_hom, duality, eta_map, finord,
                     generate_random, ind_functor, instances_for_payload,
                     iso_check, lattice_analyze, point_classes,
                     point_closures, registry_doc,
                     registry_ids, run_check, sobrify, standard_sobrification,
                     subset_lattice, theorems, transpose, validate_adframe)
from adframe.bits import canonical_subsets
from adframe.duality import _point_masks
from adframe.frames import REL_NAMES
from adframe.theorems import (SweepSpec, _lookup, _moves_opens_onto,
                              _order_mismatch, basic_functors,
                              continuous_maps, describe, designated_counterexample,
                              enumerate_preorders, enumerate_spaces,
                              enumerate_topologies, frame_instance,
                              frame_point_space, pretop_maps,
                              preserving_maps, restrict_space,
                              sober_topology, space_instance)
from adframe.finord import (continuity_failure, is_reflexive_transitive,
                            monotonicity_failure)

from helpers import (CHAIN3, SIERPINSKI, _mutations, brute_iso,
                     enumerate_distributive_lattices, is_t0_topology,
                     lattice_order_iso, leq_pairs, lifted_preorder,
                     mutated_frame, naive_continuous_maps, naive_pretop_maps,
                     naive_topologies, triangle_scan)


# ---------------------------------------------------------------------------
# enumeration


def test_topology_and_preorder_counts_agree():
    expected = {0: 1, 1: 1, 2: 4, 3: 29, 4: 355}
    for n, count in expected.items():
        assert len(enumerate_topologies(n)) == count
        assert len(enumerate_preorders(n)) == count


def test_topologies_match_bruteforce_oracle():
    for n in range(5):
        assert enumerate_topologies(n) == naive_topologies(n)


def test_alexandroff_bijection():
    # sending a preorder to its up-set topology hits every topology once;
    # the topologies are the brute-force oracle's, since
    # ``enumerate_topologies`` is this image by construction
    from adframe.finord import upset_family
    for n in (0, 1, 2, 3):
        tops = set(naive_topologies(n))
        image = {upset_family(rows) for rows in enumerate_preorders(n)}
        assert image == tops
        assert len(image) == len(enumerate_preorders(n))


def test_space_enumeration_modes():
    assert len(enumerate_spaces(2)) == 16
    assert len(enumerate_spaces(3)) == 841
    assert len([sp for sp in enumerate_spaces(3)
                if is_t0_topology(sp.topology())]) == 551
    fixed = [sp for sp in enumerate_spaces(2) if sp.opens == (0, 3)]
    assert len(fixed) == 4
    assert all(sp.opens == (0, 3) for sp in fixed)


def test_t0_topologies_are_labeled_posets():
    # 1, 3, 19 labeled partial orders on 1..3 points
    for n, count in ((1, 1), (2, 3), (3, 19)):
        tops = [FinTopSpace(n, fam) for fam in enumerate_topologies(n)]
        assert sum(is_t0_topology(t) for t in tops) == count


def test_finite_sober_means_t0():
    for n in (1, 2, 3):
        for fam in enumerate_topologies(n):
            top = FinTopSpace(n, fam)
            assert sober_topology(top) == is_t0_topology(top)


def test_map_enumerator_matches_the_product_filters():
    """The enumerator's lists, order included, equal the filters over all
    ``dst.n ** src.n`` maps: on every pair of spaces with n <= 2, every
    pair of topologies with n <= 3, every space with n <= 2 into every
    spectrum of such a space under each variant (the triangle targets),
    and seeded pairs of three-point spaces."""
    spaces = [sp for n in (0, 1, 2) for sp in enumerate_spaces(n)]
    pairs = [(a, b) for a in spaces for b in spaces]
    spectra = [adpt_space(build_ado(sp, v)).space for sp in spaces for v in Variant]
    pairs += [(a, spec) for a in spaces for spec in spectra]
    rng = random.Random(11)
    pairs += [(rng.choice(enumerate_spaces(3)), rng.choice(enumerate_spaces(3)))
              for _ in range(1500)]
    for a, b in pairs:
        assert pretop_maps(a, b) == naive_pretop_maps(a, b)
    tops = [FinTopSpace(n, fam) for n in range(4) for fam in enumerate_topologies(n)]
    for a, b in itertools.product(tops, repeat=2):
        assert continuous_maps(a, b) == naive_continuous_maps(a, b)
    assert len(pairs) + len(tops) ** 2 == 4021


@st.composite
def _relation_lists(draw):
    """Sizes n, m <= 5 and one to three pairs of arbitrary row relations,
    the first on ``range(n)`` and the second on ``range(m)``."""
    n, m = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    rows = lambda k: st.lists(st.integers(0, (1 << k) - 1), min_size=k, max_size=k)
    return n, m, draw(st.lists(st.tuples(rows(n), rows(m)), min_size=1, max_size=3))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_relation_lists())
def test_map_enumerator_against_bruteforce_on_random_relations(case):
    n, m, relations = case
    brute = [f for f in itertools.product(range(m), repeat=n)
             if all(dst[f[x]] >> f[y] & 1 for src, dst in relations
                    for x in range(n) for y in range(n) if src[x] >> y & 1)]
    assert preserving_maps(n, m, relations) == brute


def test_distributive_lattice_counts():
    lats = enumerate_distributive_lattices(8)
    by_size = {}
    for lat in lats:
        by_size[lat.m] = by_size.get(lat.m, 0) + 1
    assert [by_size.get(m, 0) for m in range(1, 9)] == [1, 1, 1, 2, 3, 5, 8, 15]
    # pairwise non-isomorphic
    small = [l for l in lats if l.m <= 5]
    for i, a in enumerate(small):
        for b in small[i + 1:]:
            if a.m == b.m:
                assert lattice_order_iso(a, b, 10_000) is None


def test_frame_point_space_of_opens_recovers_sober_spaces():
    for fam in enumerate_topologies(2):
        top = FinTopSpace(2, fam)
        if not sober_topology(top):
            continue
        lat = subset_lattice(FinPreTopSpace(2, fam, (1, 2)), "opens")
        back = frame_point_space(lat)
        assert iso_check("top", back, top) is not None


# ---------------------------------------------------------------------------
# generators


def test_generator_is_deterministic():
    a = generate_random("space", {"n": 4}, seed=11)
    b = generate_random("space", {"n": 4}, seed=11)
    c = generate_random("space", {"n": 4}, seed=12)
    assert a.payload == b.payload
    assert a.payload != c.payload or a.meta != c.meta


def test_generator_rejects_keys_it_does_not_read():
    with pytest.raises(ValueError, match="'N'"):
        generate_random("space", {"N": 4}, seed=1)
    with pytest.raises(ValueError, match="'famly'"):
        generate_random("adframe", {"famly": "ind"}, seed=1)
    for unread in ("density", "base_points", "variant"):
        with pytest.raises(ValueError, match=unread):
            generate_random("adframe", {"family": "ind", unread: 1}, seed=1)


@pytest.mark.parametrize("n", [-1, 65, 70, 2.7, 3.0, True, "3", None])
def test_generator_rejects_an_n_that_is_not_a_carrier_size(n):
    for kind, params in (("space", {"n": n}), ("adframe", {"family": "ado", "n": n})):
        with pytest.raises(ValueError, match=f"params n {n!r} "):
            generate_random(kind, params, seed=1)


def test_generator_accepts_every_carrier_size_up_to_four():
    for n in range(5):
        assert generate_random("space", {"n": n}, seed=1).payload.n == n
        assert generate_random("adframe", {"family": "ado", "n": n},
                               seed=1).meta["n"] == n


def test_generated_frames_validate():
    for seed in range(10):
        for family in ("ado", "ind"):
            gen = generate_random("adframe", {"family": family}, seed=seed)
            assert validate_adframe(gen.payload).ok, (family, seed)


def test_mutated_frames_break_their_target_law():
    for seed in range(8):
        gen = mutated_frame(seed)
        report = validate_adframe(gen.payload)
        assert not report.ok
        assert gen.meta["target"] in {c.law for c in report.failures()}


MUTATION_LAWS = ("tot-up-closed", "tot-has-tt", "con-down-closed",
                 "con-tot-aligned", "fof-up-closed", "fof-has-bots",
                 "cou-down-closed", "tot-cou-ell-top")


def test_every_mutation_flips_one_bit_and_breaks_its_law():
    """Each law of the mutation table is offered on some frame of a space
    of at most two points or on some two-sided lift, and wherever it is
    offered its edit flips one pair and breaks that law."""
    frames = [build_ado(sp, v) for n in range(3) for sp in enumerate_spaces(n)
              for v in Variant]
    frames += [ind_functor(subset_lattice(sp, "opens"), v)
               for n in (1, 2) for sp in enumerate_spaces(n) for v in Variant]
    offered = set()
    for frame in frames:
        for law, edit in _mutations(frame):
            offered.add(law)
            mutated = edit()
            flipped = sum((mutated.rel(name)[u] ^ frame.rel(name)[u]).bit_count()
                          for name in REL_NAMES for u in range(frame.omega.m))
            assert flipped == 1, (frame, law)
            assert law in {c.law for c in validate_adframe(mutated).failures()}, (frame, law)
    assert offered == set(MUTATION_LAWS)


def test_mutation_target_can_be_forced():
    gen = mutated_frame(3, "con-down-closed")
    failed = {c.law for c in validate_adframe(gen.payload).failures()}
    assert "con-down-closed" in failed


@pytest.mark.parametrize("target", ["nope", "tot-has-ff", 3])
def test_mutation_target_must_be_a_law_an_edit_breaks(target):
    """A target outside the mutation table is bad input, named with the laws
    the table's edits break, not a failed search."""
    with pytest.raises(ValueError) as exc:
        mutated_frame(3, target)
    assert str(exc.value) == (f"mutation target {target!r} is not a law that one "
                              f"edit breaks; the edits break {', '.join(MUTATION_LAWS)}")


# ---------------------------------------------------------------------------
# isomorphism search


def test_iso_check_finds_relabelings():
    left = SIERPINSKI
    right = FinPreTopSpace(2, (0, 1, 3), (3, 2))  # same shape, points swapped
    perm = iso_check("pretop", left, right)
    assert perm is not None
    assert iso_check("pretop", left, CHAIN3) is None


def test_iso_check_distinguishes_order():
    plain = FinPreTopSpace(2, (0, 3), (1, 2))
    chained = FinPreTopSpace(2, (0, 3), (3, 2))
    assert iso_check("pretop", plain, chained) is None
    assert iso_check("top", plain, chained) is not None


def _iso_agrees(kind, a, b):
    """``iso_check`` finds a witness exactly when the brute-force search
    finds an isomorphism, and its witness is one."""
    perm = iso_check(kind, a, b)
    assert (perm is not None) == brute_iso(kind, a, b), (kind, a, b)
    if perm is not None:
        assert sorted(perm) == list(range(a.n))
        assert _moves_opens_onto(perm, a.opens, b.opens)
        if kind == "pretop":
            assert _order_mismatch(a.leq, b.leq, perm) is None


def _relabelled(space, perm):
    """``space`` with point x renamed perm[x]."""
    inverse = sorted(range(space.n), key=perm.__getitem__)
    opens = canonical_subsets(finord.image(perm, u) for u in space.opens)
    rows = tuple(finord.image(perm, space.leq[inverse[y]]) for y in range(space.n))
    return FinPreTopSpace(space.n, opens, rows)


def test_iso_check_agrees_with_brute_force_on_small_spaces():
    spaces = [sp for n in (0, 1, 2) for sp in enumerate_spaces(n)]
    for a, b in itertools.product(spaces, repeat=2):
        for kind in ("pretop", "top"):
            _iso_agrees(kind, a, b)
    tops = [FinTopSpace(3, fam) for fam in enumerate_topologies(3)]
    for a, b in itertools.product(tops, repeat=2):
        _iso_agrees("top", a, b)


def test_iso_check_agrees_with_brute_force_on_sampled_n3_spaces():
    """Seeded pairs of three-point spaces, and each first space against a
    relabelled copy of itself, so that both answers are exercised."""
    rng = random.Random(3)
    spaces = enumerate_spaces(3)
    for _ in range(300):
        a, b = rng.choice(spaces), rng.choice(spaces)
        copy = _relabelled(a, rng.sample(range(3), 3))
        for kind in ("pretop", "top"):
            _iso_agrees(kind, a, b)
            _iso_agrees(kind, a, copy)


def test_iso_check_agrees_with_brute_force_on_the_counterexample_pairs():
    """The pairs that CEX-ADS and CEX-LIFT compare at n = 3: each pair
    space against the classical sobrification, and each spectrum against
    the classical frame spectrum."""
    seen = 0
    for inst in _lookup("CEX-ADS").sweep(SweepSpec(n=3)):
        space, v = inst.payload
        frame = build_ado(space, v)
        _iso_agrees("top", ads_space(space, v).space, standard_sobrification(space)[0])
        _iso_agrees("top", adpt_space(frame).space, frame_point_space(frame.omega))
        seen += 1
    assert seen == 30


def test_iso_check_budget():
    big_a = basic_functors("discr", FinTopSpace(6, (0, 63)))
    big_b = basic_functors("discr", FinTopSpace(6, (0, 63)))
    with pytest.raises(BudgetExceeded):
        iso_check("pretop", big_a, big_b, budget=3)


# ---------------------------------------------------------------------------
# functors and lifts


def test_basic_functors_shapes():
    top = SIERPINSKI.topology()
    assert basic_functors("discr", top).leq == (1, 2)
    assert basic_functors("ind_space", top).leq == (3, 3)


def test_lifted_preorder_is_pointwise_intersection():
    base = SIERPINSKI.topology()
    ind = basic_functors("ind_space", base)
    lifted = lifted_preorder(base, [((0, 1), ind)])
    assert lifted.leq == (3, 3)
    lifted2 = lifted_preorder(base, [((0, 1), ind), ((0, 1), SIERPINSKI)])
    assert lifted2.leq == SIERPINSKI.leq
    with pytest.raises(NotContinuous):
        lifted_preorder(base, [((1, 0), SIERPINSKI)])

    spaces = [sp for n in range(3) for sp in enumerate_spaces(n)]
    for n in range(3):
        for opens in enumerate_topologies(n):
            base = FinTopSpace(n, opens)
            targets = [(m, dst) for dst in spaces
                       for m in itertools.product(range(dst.n), repeat=n)
                       if continuity_failure(base, dst, m) is None]
            singles = [[t] for t in targets]
            for chosen in [[]] + singles + list(zip(targets, targets[1:])):
                lifted = lifted_preorder(base, chosen)
                assert lifted.opens == base.opens
                assert is_reflexive_transitive(lifted.leq, n)
                for m, dst in chosen:
                    assert monotonicity_failure(lifted, dst, m) is None
                want = {(x, y) for x in range(n) for y in range(n)
                        if all((m[x], m[y]) in leq_pairs(dst) for m, dst in chosen)}
                assert leq_pairs(lifted) == want


def test_designated_counterexample_shape():
    sp = designated_counterexample()
    assert (sp.n, sp.opens, sp.leq) == (2, (0, 3), (1, 2))


# ---------------------------------------------------------------------------
# registry and harness


EXPECTED_IDS = ("ADO-VALID", "ADJ-TRIANGLE", "ADJ-EXISTS", "USC-LSC",
                "ADS-ISO", "OS-ISO", "ETA-PREIMAGE", "ADSOBER-EQ", "NAT-IND",
                "NAT-DISCR", "CEX-ADS", "HOMEO-ADS", "ADT0-LEMMA",
                "IDEMPOTENT", "IND-VALID", "EPS-VALID", "IND-ADJ",
                "LIFT-SQUARE", "CEX-LIFT")


def test_registry_contents():
    assert registry_ids() == EXPECTED_IDS
    for cid in EXPECTED_IDS:
        assert registry_doc(cid)
    with pytest.raises(UnknownTheorem):
        registry_doc("MISSING")


def test_run_check_pass_record_shape():
    reports = run_check("ADO-VALID", instance=space_instance(SIERPINSKI))
    assert len(reports) == 1
    rep = reports[0]
    assert rep.verdict == "pass"
    assert rep.witness is None
    assert rep.ms >= 0
    assert rep.instance["kind"] == "space"
    assert set(rep.to_json()) == {"id", "instance", "verdict", "witness", "ms"}


def test_run_check_sweep_counts():
    reports = run_check("IDEMPOTENT", sweep={"n": 2})
    assert len(reports) == 48  # 16 spaces x 3 variants
    assert {r.verdict for r in reports} == {"pass"}


def test_run_check_single_variant_sweep():
    reports = run_check("IDEMPOTENT", sweep={"n": 2, "variant": "up"})
    assert len(reports) == 16
    for key in ("N", "variants"):
        with pytest.raises(ValueError, match=f"unknown sweep key '{key}'"):
            run_check("IDEMPOTENT", sweep={key: 1})


@pytest.mark.parametrize("sweep, message", [
    ({"n": 2, "count": 0}, "sweep count=0 must be at least 1"),
    ({"n": 2, "count": -2}, "sweep count=-2 must be at least 1"),
    ({"n": 2.7}, "sweep n=2.7 is not an integer"),
    ({"n": True}, "sweep n=True is not an integer"),
    ({"n": "2"}, "sweep n='2' is not an integer"),
    ({"n": 5}, "sweep n=5 is outside [0, 4]"),
    ({"n": -1}, "sweep n=-1 is outside [0, 4]"),
    ({"n": 2, "count": 3.0}, "sweep count=3.0 is not an integer"),
    ({"n": 2, "seed": False}, "sweep seed=False is not an integer"),
    (SweepSpec(n=5), "sweep n=5 is outside [0, 4]"),
    (SweepSpec(n=2, count=0), "sweep count=0 must be at least 1"),
])
def test_run_check_refuses_bad_sweep_values(sweep, message):
    """The library refuses what the CLI refuses, with the same messages,
    before any record runs."""
    with pytest.raises(ValueError) as exc:
        run_check("IDEMPOTENT", sweep=sweep)
    assert str(exc.value) == message


@pytest.mark.parametrize("budget_ms", [float("nan"), -5, -0.5, True, "10"])
def test_run_check_refuses_bad_budgets(budget_ms):
    """A budget that is NaN, negative or not a number is refused before any
    record runs, naming the value; with NaN every comparison against the
    elapsed time was false, so it meant no budget."""
    with pytest.raises(ValueError) as exc:
        run_check("ADO-VALID", sweep={"n": 3}, budget_ms=budget_ms)
    assert str(exc.value) == (f"budget_ms={budget_ms!r} must be a number of "
                              f"milliseconds, at least 0")


def test_run_check_takes_an_infinite_budget():
    reports = run_check("IDEMPOTENT", sweep={"n": 2}, budget_ms=float("inf"))
    assert len(reports) == len(run_check("IDEMPOTENT", sweep={"n": 2}))


def test_run_check_sampled_sweep_deterministic():
    a = run_check("ADO-VALID", sweep={"n": 3, "count": 5, "seed": 9})
    b = run_check("ADO-VALID", sweep={"n": 3, "count": 5, "seed": 9})
    assert [r.instance for r in a] == [r.instance for r in b]
    assert len(a) == 5


def test_expected_fail_and_minimization():
    qualifying = FinPreTopSpace(3, (0, 7), (1, 2, 4))
    reports = run_check("CEX-ADS", instance=space_instance(qualifying))
    rep = reports[0]
    assert rep.verdict == "expected-fail"
    assert rep.witness["detail"] == {"pair_space_points": 3,
                                     "sobrification_points": 1}
    assert rep.witness["minimized"]["points"] == 2
    assert rep.witness["minimized_detail"] == {"pair_space_points": 2,
                                               "sobrification_points": 1}


def test_skip_on_unmet_hypotheses():
    reports = run_check("CEX-ADS", instance=space_instance(SIERPINSKI))
    assert reports[0].verdict == "skip"


def test_honest_fail_verdict_on_broken_frame():
    # a frame built to violate its laws; the counit then fails validation,
    # which the harness must report as a plain fail with a witness
    gen = mutated_frame(0)
    assert not validate_adframe(gen.payload).ok
    reports = run_check("EPS-VALID", instance=frame_instance(gen.payload))
    assert reports[0].verdict == "fail"
    assert reports[0].witness is not None


def test_fail_fast_stops_at_first_failure():
    gen = mutated_frame(0)
    bad = frame_instance(gen.payload)
    good = frame_instance(build_ado(SIERPINSKI))
    reports = run_check("EPS-VALID", instances=[bad, good], fail_fast=True)
    assert len(reports) == 1
    reports = run_check("EPS-VALID", instances=[bad, good])
    assert [r.verdict for r in reports] == ["fail", "pass"]


def test_budget_carries_partial_reports():
    with pytest.raises(BudgetExceeded) as excinfo:
        run_check("ADS-ISO", sweep={"n": 3}, budget_ms=1)
    partial = excinfo.value.reports
    assert partial and all(r.verdict == "pass" for r in partial)


def test_instances_for_payload_dispatch():
    frame = build_ado(SIERPINSKI)
    insts = instances_for_payload("IDEMPOTENT", frame)
    assert [i.kind for i in insts] == ["adframe"]
    insts = instances_for_payload("IND-VALID", subset_lattice(SIERPINSKI, "opens"))
    assert [i.kind for i in insts] == ["lattice"]
    insts = instances_for_payload("ADJ-TRIANGLE", SIERPINSKI)
    assert insts and all(i.kind == "triangle" for i in insts)
    reports = run_check("ADJ-TRIANGLE",
                        instances=instances_for_payload("ADJ-TRIANGLE", SIERPINSKI))
    assert {r.verdict for r in reports} == {"pass"}


def test_checks_declare_the_instance_kinds_they_are_given():
    frame, lattice = build_ado(CHAIN3), subset_lattice(CHAIN3, "opens")
    for cid in registry_ids():
        entry = _lookup(cid)
        given = {i.kind for n in range(3) for i in entry.sweep(SweepSpec(n=n))}
        given |= {i.kind for i in entry.sweep(SweepSpec(n=3, count=4))}
        given |= {i.kind for i in instances_for_payload(cid, CHAIN3)}
        assert given <= set(entry.takes) <= given | {"adframe", "lattice"}, cid
        for payload, kind in ((frame, "adframe"), (lattice, "lattice")):
            if kind in entry.takes:
                assert [i.kind for i in instances_for_payload(cid, payload)] == [kind]
            else:
                with pytest.raises(ValueError, match="needs a space payload"):
                    instances_for_payload(cid, payload)


def test_transport_helpers_find_mismatches():
    # the runners' order and opens comparisons, on maps that break them
    leq, opens = SIERPINSKI.leq, SIERPINSKI.opens    # order 1 <= 0, open {1}
    assert _order_mismatch(leq, leq, (0, 1)) is None
    assert _order_mismatch(leq, leq, (1, 0)) == (0, 1)
    assert _order_mismatch(leq, (3, 3), (0, 1)) == (0, 1)
    assert _moves_opens_onto((0, 1), opens, opens)
    assert not _moves_opens_onto((1, 0), opens, opens)
    assert not _moves_opens_onto((0, 1), opens, (0, 3))


def test_restrict_space_squashes_bits():
    smaller = restrict_space(CHAIN3, 0b101)  # keep points 0 and 2
    assert smaller.n == 2
    assert smaller.opens == (0, 2, 3)
    assert smaller.leq == (3, 2)


# ---------------------------------------------------------------------------
# full registry smoke at the smallest size


def test_every_check_passes_tiny_sweep():
    for cid in registry_ids():
        reports = run_check(cid, sweep={"n": 1})
        assert all(r.verdict in ("pass", "skip", "expected-fail")
                   for r in reports), cid


# ---------------------------------------------------------------------------
# shared and kept values


def test_library_calls_keep_nothing():
    a, b = build_ado(CHAIN3), build_ado(CHAIN3)
    assert a is not b and a.key() == b.key()
    assert adpt_space(a) is not adpt_space(a)


def test_shared_objects_are_frozen():
    frame = build_ado(CHAIN3)
    for obj, field in ((frame, "tot"), (adpt_space(frame), "points"),
                       (ads_space(CHAIN3), "pairs")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field, ())


def test_morphism_checks_build_each_spectrum_once_per_record(monkeypatch):
    """ADJ-EXISTS and ADJ-TRIANGLE take the unit's spectra from the
    spectrum map they have built, so on the n = 2 sweeps a record builds
    the spectrum of each of its frames once: two for a map between spaces
    (``adpt_hom``).  A map into a given spectrum builds none, since the
    triangle reads the unit's points off the transpose's target frame.
    The totals were 8,088 and 8,360 when the unit built its own spectra,
    and ADJ-TRIANGLE's was 6,338 while each triangle record built one."""
    built = []

    def counting(frame, real=adpt_space):
        built.append(frame)
        return real(frame)

    for module in (duality, theorems):
        monkeypatch.setattr(module, "adpt_space", counting)
    for cid, most, total in (("ADJ-EXISTS", {"morphism": 2}, 4_044),
                             ("ADJ-TRIANGLE", {"triangle": 0, "roundtrip": 2}, 4_044)):
        entry, per_record = _lookup(cid), []

        def spy(inst, run=entry.run):
            before = len(built)
            result = run(inst)
            per_record.append((inst.kind, len(built) - before))
            return result

        monkeypatch.setattr(entry, "run", spy)
        reports = run_check(cid, sweep={"n": 2})
        assert {r.verdict for r in reports} == {"pass"}, cid
        assert all(k <= most[kind] for kind, k in per_record), cid
        assert sum(k for _, k in per_record) <= total, cid


def test_adt0_lemma_builds_its_pairs_once_per_record(monkeypatch):
    """ADT0-LEMMA builds a space's irreducible pairs once and hands them to
    ``is_ad_sober`` and to its canonical-pairs test; on the n = 2 sweep
    that is one ``irreducible_pairs`` call per record (it was two while
    ``is_ad_sober`` built its own)."""
    built = []

    def counting(space, variant, real=sobrify.irreducible_pairs):
        built.append(space)
        return real(space, variant)

    for module in (sobrify, theorems):
        monkeypatch.setattr(module, "irreducible_pairs", counting)
    entry, per_record = _lookup("ADT0-LEMMA"), []

    def spy(inst, run=entry.run):
        before = len(built)
        result = run(inst)
        per_record.append(len(built) - before)
        return result

    monkeypatch.setattr(entry, "run", spy)
    reports = run_check("ADT0-LEMMA", sweep={"n": 2})
    assert len(reports) == len(per_record) > 0
    assert set(per_record) == {1}


def _forced_hom(spectrum, idxs, target):
    """The hom from the spectrum's frame into ``target``, the frame of the
    map's domain, that the triangle's legs force: the unit's point at x
    pulls back to ``points[idxs[x]]`` exactly when ``phi(u)`` is the open
    ``{x : u in points[idxs[x]].x}``, and ``p(a)`` the up-set
    ``{x : a in points[idxs[x]].s}``."""
    pts = [spectrum.points[i] for i in idxs]

    def forced(src, dst, side):
        return tuple(dst.labels.index(sum(1 << x for x, pt in enumerate(pts)
                                          if pt[side] >> u & 1))
                     for u in range(src.m))

    frame = spectrum.frame
    return AdFrameHom(frame, target, forced(frame.omega, target.omega, 0),
                      forced(frame.ell, target.ell, 1))


def _forced_matches(inst) -> int:
    """Check on one ADJ-TRIANGLE instance, a triangle or the transpose of a
    roundtrip's composite, that the hom the legs force is the transpose
    and the one hom the scan finds; the size product of the two opens
    lattices, for the caller to compare with the scan's old gate."""
    if inst.kind == "triangle":
        x_space, spectrum, mapping, v = inst.payload
    else:
        x_space, y_space, h, v = inst.payload
        g = build_ado_hom(h, x_space, y_space, v)
        spec_x, spectrum = adpt_space(g.target), adpt_space(g.source)
        smap = adpt_hom(g, spec_x, spectrum)
        mapping = tuple(smap[i] for i in eta_map(spec_x))
    hom = transpose(x_space, spectrum, mapping)
    target = build_ado(x_space, v)
    assert hom.target.key() == target.key()
    forced = _forced_hom(spectrum, mapping, target)
    assert forced.key() == hom.key(), inst.describe
    assert [m.key() for m in triangle_scan(spectrum, mapping, target)] == [hom.key()]
    return hom.source.omega.m * target.omega.m


def test_the_triangle_legs_force_the_transpose_on_every_n2_instance():
    """The uniqueness argument behind ADJ-TRIANGLE (see
    ``theorems._transpose_failure``): on every n = 2 instance, triangles
    and roundtrips alike, the hom that the legs force is the transpose, and
    it is the one hom the scan finds."""
    kinds = []
    for inst in _lookup("ADJ-TRIANGLE").sweep(SweepSpec(n=2)):
        _forced_matches(inst)
        kinds.append(inst.kind)
    assert set(kinds) == {"triangle", "roundtrip"}


def test_transpose_failure_names_the_first_gap_and_a_broken_hom():
    """Without the scan, the gap check alone tells transposes apart: on
    every n = 2 triangle the transpose passes against its own map, and
    against the next map into the same spectrum it fails at the first
    point where the two maps differ.  A hom whose phi sends everything to
    the bottom fails the hom check first."""
    gaps = broken = 0
    for inst in _lookup("ADJ-TRIANGLE").sweep(SweepSpec(n=2)):
        if inst.kind != "triangle":
            continue
        x_space, spectrum, mapping, v = inst.payload
        hom = transpose(x_space, spectrum, mapping)
        assert theorems._transpose_failure(spectrum, mapping, hom) is None
        maps = pretop_maps(x_space, spectrum.space)
        other = maps[(maps.index(mapping) + 1) % len(maps)]
        if other != mapping:
            first = next(x for x, (a, b) in enumerate(zip(mapping, other)) if a != b)
            assert theorems._transpose_failure(spectrum, other, hom) == \
                f"transpose triangle fails at point {first}"
            gaps += 1
        flat = AdFrameHom(hom.source, hom.target, (0,) * len(hom.phi), hom.p)
        if flat.phi != hom.phi:
            err = theorems._transpose_failure(spectrum, mapping, flat)
            assert err.startswith("transpose is not a hom: "), err
            broken += 1
    assert gaps and broken


@pytest.mark.parametrize("spec, past_gate", [(SweepSpec(n=3, count=300, seed=1), 0),
                                             (SweepSpec(n=4, count=200, seed=7), 23)])
def test_the_triangle_legs_force_the_transpose_on_seeded_samples(spec, past_gate):
    """The same argument on seeded ADJ-TRIANGLE samples.  The n = 4 sample
    has instances whose lattice product passes 64, where the uniqueness
    scan no longer ran; the scan's copy has no such gate."""
    sizes = [_forced_matches(inst) for inst in _lookup("ADJ-TRIANGLE").sweep(spec)]
    assert len(sizes) == spec.count
    assert sum(size > 64 for size in sizes) == past_gate


def _unkept(obj):
    """A copy of a space or a lattice with its fields and nothing it keeps."""
    return type(obj)(*(getattr(obj, f.name) for f in dataclasses.fields(obj)))


def _plain(value):
    if isinstance(value, FinLattice):
        return value.key()
    if isinstance(value, weakref.WeakKeyDictionary):
        return dict(value)
    return value


# how each kept value is made again on a copy without it
_REMAKE = {
    "_opens_lattice": lambda obj, copy: subset_lattice(copy, "opens"),
    "_upsets_lattice": lambda obj, copy: subset_lattice(copy, "upsets"),
    "_relation_rows": lambda obj, copy: build_ado(copy),
    "_doc": lambda obj, copy: describe(copy),
    **{f"_doc_{v.value}": lambda obj, copy, v=v: describe(copy, v) for v in Variant},
    "_point_classes": lambda obj, copy: point_classes(copy),
    "_point_closures": lambda obj, copy: point_closures(copy),
    "_analysis": lambda obj, copy: lattice_analyze(copy),
    "_up_index": lambda obj, copy: copy.joins(),
    "_down_index": lambda obj, copy: copy.meets(),
    "_point_masks": lambda obj, copy: _point_masks(copy),
    "_homs": lambda obj, copy: [bounded_lattice_homs(copy, dst)
                                for dst in list(vars(obj)["_homs"])],
}


def test_facts_kept_after_an_n2_sweep_equal_fresh_computations():
    """After every check's n = 2 sweep, each value a live space, topology or
    lattice keeps equals the value made afresh on a copy that keeps
    nothing, so no runner changed a shared value."""
    for cid in registry_ids():
        run_check(cid, sweep={"n": 2})
    seen = set()
    for obj in gc.get_objects():
        if not isinstance(obj, (FinPreTopSpace, FinTopSpace, FinLattice)):
            continue
        names = set(vars(obj)) - {f.name for f in dataclasses.fields(obj)}
        assert names <= set(_REMAKE), names
        copy = _unkept(obj)
        for name in names:
            _REMAKE[name](obj, copy)
            assert _plain(vars(obj)[name]) == _plain(vars(copy)[name]), (name, obj)
        seen |= names
    assert seen == set(_REMAKE)


def test_space_instances_share_one_document_per_variant():
    """A space keeps one record per variant, so every instance of a space
    under one variant carries the same ``describe`` object."""
    for obj in (CHAIN3, SIERPINSKI.topology()):
        docs = [space_instance(obj, v).describe for v in Variant]
        for v, doc in zip(Variant, docs):
            assert space_instance(obj, v).describe is doc
            assert doc == dict(describe(obj), variant=v.value)
        assert len(set(map(id, docs))) == len(Variant)


def test_ado_valid_n3_builds_each_label_family_once(monkeypatch):
    """The 841 spaces on three points have 29 label families, and each
    space of the enumeration keeps its two lattices, so the n = 3 sweep of
    ADO-VALID constructs one lattice per family (4,959 when nothing held a
    lattice past its record).  A family already alive elsewhere is not
    built again."""
    enumerate_spaces.cache_clear()
    gc.collect()
    families = set(enumerate_topologies(3))
    alive = len(families & set(finord._LABELLED))
    built = []
    init = FinLattice.__init__

    def counting_init(self, *args):
        built.append(args[1])
        init(self, *args)

    monkeypatch.setattr(FinLattice, "__init__", counting_init)
    run_check("ADO-VALID", sweep={"n": 3})
    assert len(built) == len(families) - alive
    assert set(built) <= families and len(set(built)) == len(built)


def test_adj_exists_sampled_n3():
    # owns the hom laws of build_ado_hom and the continuity and
    # monotonicity of adpt_hom beyond the tiny sweep
    reports = run_check("ADJ-EXISTS", sweep={"n": 3, "count": 300, "seed": 0})
    assert len(reports) == 300
    assert {r.verdict for r in reports} == {"pass"}
