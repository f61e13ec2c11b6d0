import itertools
import random

import pytest

from adframe import (AdFrame, FinPreTopSpace, TrivialFrame, Variant,
                     adframe_from_json, adframe_to_json, bnd_map,
                     bounded_lattice_homs, build_ado, build_ado_hom,
                     check_usc_lsc, compose_homs, epsilon_hom, ind_functor,
                     subset_lattice, validate_adframe, validate_hom)
from adframe.frames import _reach_check, preserves_relations, rel_pairs
from adframe.finord import lattice_from_labels
from adframe import frames as frames_module
from adframe.frames import REL_NAMES, AdFrameHom, TWO_CHAIN
from adframe.theorems import enumerate_spaces, pretop_maps, upper_semi_closed, lower_semi_closed

from helpers import (CHAIN3, SCOTT_GATE, SIERPINSKI, _flip, chain_doc, grid_doc,
                     identity_hom, lift_doc, pts, reference_binary_check, reference_reach_check,
                     scott_oracle)

VARIANTS = (Variant.UP, Variant.DOWN, Variant.BOTH)


def relation_oracle(space):
    """The four relations recomputed from their set definitions."""
    omega = subset_lattice(space, "opens")
    ell = subset_lattice(space, "upsets")
    full = pts(space.full)
    out = {"tot": set(), "con": set(), "fof": set(), "cou": set()}
    for i, u in enumerate(omega.labels):
        for j, a in enumerate(ell.labels):
            if pts(u) | pts(a) == full:
                out["tot"].add((i, j))
            if not pts(u) & pts(a):
                out["con"].add((i, j))
            if pts(u) >= pts(a):
                out["fof"].add((i, j))
            if pts(u) <= pts(a):
                out["cou"].add((i, j))
    return out


def test_relations_match_definitions_exhaustive_n2():
    """Every space of up to three points, under each variant."""
    for sp in (sp for n in range(4) for sp in enumerate_spaces(n)):
        oracle = relation_oracle(sp)
        for variant in VARIANTS:
            frame = build_ado(sp, variant)
            for name in ("tot", "con", "fof", "cou"):
                assert len(frame.rel(name)) == frame.omega.m
                assert set(rel_pairs(frame.rel(name))) == oracle[name], (sp, name)


def test_sierpinski_relations_spot():
    frame = build_ado(SIERPINSKI)
    # omega: {}, {1}, {0,1}; ell: {}, {0}, {0,1}
    assert frame.omega.labels == (0, 2, 3)
    assert frame.ell.labels == (0, 1, 3)
    assert set(rel_pairs(frame.tot)) == {(0, 2), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)}
    assert set(rel_pairs(frame.con)) == {(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)}
    assert set(rel_pairs(frame.fof)) == {(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)}
    assert set(rel_pairs(frame.cou)) == {(0, 0), (0, 1), (0, 2), (1, 2), (2, 2)}


@pytest.mark.parametrize("variant", VARIANTS)
def test_validator_passes_on_canonical_frames(variant):
    for sp in enumerate_spaces(2):
        report = validate_adframe(build_ado(sp, variant))
        assert report.ok, report.failures()


def drop(frame, name, pair):
    """``frame`` with ``pair``, a member of relation ``name``, removed."""
    assert frame.rel(name)[pair[0]] >> pair[1] & 1
    return _flip(frame, name, pair)


def test_validator_flags_missing_top_pair():
    frame = build_ado(SIERPINSKI)
    tt = (frame.omega.top, frame.ell.bot)
    broken = drop(frame, "tot", tt)
    failed = {c.law for c in validate_adframe(broken).failures()}
    assert "tot-has-tt" in failed


def test_validator_flags_upward_closure_gap():
    frame = build_ado(SIERPINSKI)
    broken = drop(frame, "tot", (frame.omega.top, frame.ell.top))
    failed = {c.law for c in validate_adframe(broken).failures()}
    assert "tot-up-closed" in failed


def test_validator_flags_alignment_break():
    frame = build_ado(SIERPINSKI)
    # declare the top pair consistent as well: con and tot now share it
    broken = _flip(frame, "con", (frame.omega.top, frame.ell.top))
    failed = {c.law for c in validate_adframe(broken).failures()}
    assert failed & {"con-tot-aligned", "con-down-closed", "con-cou-bottom",
                     "tot-cou-ell-top"}


def test_validator_variant_scoping():
    frame = build_ado(SIERPINSKI, Variant.UP)
    broken = AdFrame(frame.omega, frame.ell, frame.tot, frame.con,
                     (0,) * frame.omega.m, frame.cou, Variant.UP)
    assert validate_adframe(broken).ok  # fof laws invisible to the Up variant
    assert not validate_adframe(broken.with_variant(Variant.BOTH)).ok


UP_LAWS = ("tot-up-closed", "tot-has-ff", "tot-has-tt", "tot-logical-meet",
           "tot-logical-join", "con-down-closed", "con-has-ff", "con-has-tt",
           "con-logical-meet", "con-logical-join", "con-tot-aligned")
DOWN_LAWS = ("fof-up-closed", "fof-has-bots", "fof-has-tops", "fof-info-meet",
             "fof-info-join", "cou-down-closed", "cou-has-bots", "cou-has-tops",
             "cou-info-meet", "cou-info-join", "cou-fof-aligned")
BOTH_LAWS = UP_LAWS + DOWN_LAWS + ("con-cou-bottom", "tot-fof-top",
                                   "con-fof-ell-bottom", "tot-cou-ell-top")
DISCRETE4 = FinPreTopSpace(4, tuple(range(16)), (1, 2, 4, 8))


def test_validation_report_lists_every_law_once():
    """The law list depends only on the variant, not on the lattice sizes."""
    expected = {Variant.UP: UP_LAWS, Variant.DOWN: DOWN_LAWS,
                Variant.BOTH: BOTH_LAWS}
    cells = []
    for space in (CHAIN3, DISCRETE4):
        for variant, laws in expected.items():
            frame = build_ado(space, variant)
            report = validate_adframe(frame)
            assert tuple(c.law for c in report.checks) == laws
            assert report.ok
        cells.append(frame.omega.m * frame.ell.m)
    assert cells[0] <= SCOTT_GATE < cells[1]


def single_flips(frame):
    """The frame with one bit of one relation flipped, for every bit."""
    for name in REL_NAMES:
        for u in range(frame.omega.m):
            for a in range(frame.ell.m):
                yield _flip(frame, name, (u, a))


def assert_reports_match_reference(frames):
    """``validate_adframe`` gives the report, verdicts and witnesses of the
    reference scans in ``helpers`` on every frame; returns the number of
    frames that fail some law."""
    frames = list(frames)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(frames_module, "_reach_check", reference_reach_check)
        mp.setattr(frames_module, "_binary_check", reference_binary_check)
        expected = [validate_adframe(frame) for frame in frames]
    failed = 0
    for frame, want in zip(frames, expected):
        assert validate_adframe(frame) == want, frame
        failed += not want.ok
    return failed


def test_laws_match_reference_scans_on_n2_frames():
    frames = [build_ado(sp, variant) for sp in enumerate_spaces(2)
              for variant in VARIANTS]
    flipped = [f for frame in frames for f in single_flips(frame)]
    assert assert_reports_match_reference(frames) == 0
    assert assert_reports_match_reference(flipped) > len(flipped) // 2


def test_laws_match_reference_scans_on_lifts():
    docs = [chain_doc(m) for m in range(2, 17)]
    docs += [grid_doc(a, b) for a in range(2, 5) for b in range(a, 9) if a * b <= 16]
    frames = [adframe_from_json(lift_doc(doc)) for doc in docs]
    flipped = [f for frame in frames for f in single_flips(frame)]
    assert assert_reports_match_reference(frames) == 0
    assert assert_reports_match_reference(flipped) == len(flipped)


def test_scott_closure_is_down_closure_on_finite_lattices():
    """No validator law checks Scott closure of con/cou: a finite directed
    family has a greatest member, which is its supremum, so closure under
    directed suprema holds for every relation.  The directed-family oracle
    confirms it on con and cou of every small frame of up to three points
    and on random relations, most of them not down-closed, over the same
    lattice shapes."""
    shapes = {}
    for n in range(4):
        for sp in enumerate_spaces(n):
            frame = build_ado(sp)
            if frame.omega.m * frame.ell.m > SCOTT_GATE:
                continue
            for name, logic in (("con", False), ("cou", True)):
                assert scott_oracle(name, frame, frame.rel(name), logic).ok, (sp, name)
            shapes.setdefault((frame.omega.up_masks, frame.ell.up_masks), frame)
    assert len(shapes) == 122
    rng = random.Random(0)
    not_down_closed = 0
    for frame in shapes.values():
        for _ in range(2):
            rows = [rng.getrandbits(frame.ell.m) for _ in range(frame.omega.m)]
            for logic in (False, True):
                assert scott_oracle("random", frame, rows, logic).ok, (frame, rows)
            down = _reach_check("down", rows, frame.omega.down_masks,
                                frame.ell.down_masks)
            not_down_closed += not down.ok
    assert not_down_closed > 100


# ---------------------------------------------------------------------------
# homs


def test_ado_hom_contravariant_functor_laws():
    spaces = enumerate_spaces(1) + enumerate_spaces(2)[:6]
    for sp in spaces:
        ident = build_ado_hom(tuple(range(sp.n)), sp, sp)
        assert ident.key() == identity_hom(build_ado(sp)).key()
    src, mid = enumerate_spaces(2)[3], SIERPINSKI
    for f in pretop_maps(src, mid):
        for g in pretop_maps(mid, CHAIN3):
            gf = tuple(g[f[x]] for x in range(src.n))
            left = build_ado_hom(gf, src, CHAIN3)
            right = compose_homs(build_ado_hom(f, src, mid),
                                 build_ado_hom(g, mid, CHAIN3))
            assert left.key() == right.key()
    with pytest.raises(ValueError):  # the middle frames differ in variant
        compose_homs(identity_hom(build_ado(mid, "up")), identity_hom(build_ado(mid)))


def test_homs_compose_by_value_outside_a_record():
    """Each hom builds its own frame of the middle space; the two are equal
    in value, so the homs compose, and the composite is the hom of the
    composite map."""
    spaces = (SIERPINSKI, CHAIN3, enumerate_spaces(2)[3], enumerate_spaces(2)[1])
    composed = 0
    for src, mid, dst in itertools.product(spaces, repeat=3):
        for variant in VARIANTS:
            for f in pretop_maps(src, mid):
                for g in pretop_maps(mid, dst):
                    first = build_ado_hom(g, mid, dst, variant)
                    second = build_ado_hom(f, src, mid, variant)
                    assert first.target is not second.source
                    gf = tuple(g[f[x]] for x in range(src.n))
                    right = compose_homs(second, first)
                    assert right.key() == build_ado_hom(gf, src, dst, variant).key()
                    assert validate_hom(right).ok
                    composed += 1
    assert composed > 500


def test_ado_hom_validates_exhaustive_n2():
    for src in enumerate_spaces(2)[:8]:
        for dst in (SIERPINSKI, CHAIN3):
            for f in pretop_maps(src, dst):
                hom = build_ado_hom(f, src, dst)
                assert validate_hom(hom).ok


def test_validate_hom_rejects_non_hom():
    frame = build_ado(SIERPINSKI)
    bad = AdFrameHom(frame, frame, (0, 2, 2), (0, 1, 2))  # breaks disjointness
    report = validate_hom(bad)
    assert not report.ok
    assert [(c.law, c.witness) for c in report.failures()] == \
        [("con-preserved", ((1, 1), (2, 1)))]


def test_bounded_lattice_homs_against_bruteforce():
    two = TWO_CHAIN
    opens = subset_lattice(CHAIN3, "opens")
    for src, dst in ((two, opens), (opens, two), (opens, opens)):
        brute = []
        for arr in itertools.product(range(dst.m), repeat=src.m):
            if arr[src.bot] != dst.bot or arr[src.top] != dst.top:
                continue
            if any(arr[src.join(i, j)] != dst.join(arr[i], arr[j])
                   or arr[src.meet(i, j)] != dst.meet(arr[i], arr[j])
                   for i in range(src.m) for j in range(src.m)):
                continue
            brute.append(arr)
        assert sorted(bounded_lattice_homs(src, dst)) == sorted(brute)


def test_preserves_relations_decides_validate_hom_on_lattice_homs():
    outcomes = set()
    for src in enumerate_spaces(2)[:8]:
        for dst in (SIERPINSKI, CHAIN3):
            for variant in VARIANTS:
                a, b = build_ado(dst, variant), build_ado(src, variant)
                ell_homs = bounded_lattice_homs(a.ell, b.ell)
                for phi in bounded_lattice_homs(a.omega, b.omega):
                    for p in ell_homs:
                        hom = AdFrameHom(a, b, phi, p)
                        ok = preserves_relations(hom)
                        assert ok == validate_hom(hom).ok
                        outcomes.add(ok)
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# semi-continuity flags


def test_usc_lsc_match_direct_semiclosedness():
    for sp in enumerate_spaces(2):
        usc, lsc = check_usc_lsc(build_ado(sp))
        assert usc == upper_semi_closed(sp)
        assert lsc == lower_semi_closed(sp)


def test_usc_lsc_variant_contract():
    up_frame = build_ado(SIERPINSKI, Variant.UP)
    usc, lsc = check_usc_lsc(up_frame)
    assert usc is not None and lsc is None


# ---------------------------------------------------------------------------
# the two-element coupling


def test_coupling_relations_by_cases():
    omega = subset_lattice(CHAIN3, "opens")
    frame = ind_functor(omega)
    top, bot = omega.top, omega.bot
    for u in range(omega.m):
        for a in (0, 1):
            assert bool(frame.tot[u] >> a & 1) == (u == top or a == 1)
            assert bool(frame.con[u] >> a & 1) == (u == bot or a == 0)
            assert bool(frame.fof[u] >> a & 1) == (u == top or a == 0)
            assert bool(frame.cou[u] >> a & 1) == (u == bot or a == 1)
    assert validate_adframe(frame).ok


def test_coupling_rejects_trivial_lattice():
    with pytest.raises(TrivialFrame):
        ind_functor(lattice_from_labels((0,)))


def test_bnd_is_the_only_bounded_hom_from_two():
    for sp in enumerate_spaces(2)[:6]:
        ell = subset_lattice(sp, "upsets")
        homs = bounded_lattice_homs(TWO_CHAIN, ell)
        assert homs == [bnd_map(ell)]
        assert bnd_map(ell) == (ell.bot, ell.top)


def test_epsilon_hom_validates():
    for sp in (SIERPINSKI, CHAIN3):
        frame = build_ado(sp)
        eps = epsilon_hom(frame)
        assert validate_hom(eps).ok
        assert eps.p == (frame.ell.bot, frame.ell.top)


def test_coupling_hom_form_checks_psi():
    omega = subset_lattice(SIERPINSKI, "opens")
    target = subset_lattice(CHAIN3, "opens")
    good = bounded_lattice_homs(omega, target)[0]
    source, lifted = ind_functor(omega), ind_functor(target)
    assert validate_hom(AdFrameHom(source, lifted, good, (0, 1))).ok
    assert not validate_hom(AdFrameHom(source, lifted, (0,) * omega.m, (0, 1))).ok


# ---------------------------------------------------------------------------
# serialization


def test_adframe_json_roundtrip():
    for variant in VARIANTS:
        frame = build_ado(SIERPINSKI, variant)
        back = adframe_from_json(adframe_to_json(frame))
        assert back.key() == frame.key()


def test_adframe_json_rejects_out_of_range_pair():
    doc = adframe_to_json(build_ado(SIERPINSKI))
    doc["tot"] = doc["tot"] + [[99, 0]]
    with pytest.raises(ValueError):
        adframe_from_json(doc)
