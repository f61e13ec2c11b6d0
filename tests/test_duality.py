import pytest

from adframe import (AdPoint, IrreduciblePair, Variant, adpt_hom, adpt_space,
                     build_ado, build_ado_hom, enumerate_points, eta_map,
                     ind_functor, irreducible_pairs, is_ad_sober, is_ad_t0,
                     pullback_point, sobrify, specialization_preorder,
                     transpose, validate_hom)
from adframe.cli import _record_lines
from adframe.finord import _check_topology, lattice_from_labels, upset_family
from adframe.frames import TWO_CHAIN
from adframe.theorems import (enumerate_spaces, pretop_maps, run_check,
                              space_instance)

from helpers import (CHAIN3, DISCRETE2, INDISCRETE2_DISCRETE_ORDER, SIERPINSKI,
                     _enumerate_bruteforce, enumerate_distributive_lattices,
                     idempotence_frames, is_cp_filter, is_cpc_filter, leq_pairs,
                     min_of_filter, point_conditions_ok)

VARIANTS = (Variant.UP, Variant.DOWN, Variant.BOTH)


# ---------------------------------------------------------------------------
# filters and points


def test_filters_on_a_chain():
    lat = lattice_from_labels((0, 1, 3))
    # up-sets of single elements are the complete filters
    assert is_cp_filter(lat, 0b100)
    assert is_cp_filter(lat, 0b110)
    assert not is_cp_filter(lat, 0b111)  # contains bottom
    assert not is_cp_filter(lat, 0b010)  # not upward closed
    assert min_of_filter(lat, 0b110) == 1
    assert is_cpc_filter(lat, 0b110)
    assert not is_cpc_filter(lat, 0b000)


def test_point_enumeration_oracle_exhaustive_n2():
    for sp in enumerate_spaces(2):
        for variant in VARIANTS:
            frame = build_ado(sp, variant)
            assert enumerate_points(frame) == _enumerate_bruteforce(frame)


def test_point_enumeration_oracle_sampled_n3():
    for sp in enumerate_spaces(3)[::97]:
        for variant in VARIANTS:
            frame = build_ado(sp, variant)
            assert enumerate_points(frame) == _enumerate_bruteforce(frame)


def test_point_enumeration_oracle_on_couplings():
    for lat in enumerate_distributive_lattices(6):
        if lat.m < 2:
            continue
        frame = ind_functor(lat)
        assert enumerate_points(frame) == _enumerate_bruteforce(frame)


def test_points_satisfy_their_conditions():
    for sp in enumerate_spaces(2):
        frame = build_ado(sp)
        for pt in enumerate_points(frame):
            assert is_cp_filter(frame.omega, pt.x)
            assert is_cpc_filter(frame.ell, pt.s)
            assert point_conditions_ok(frame, pt.x, pt.s)


def test_coupling_of_two_chain_has_one_point():
    pts = enumerate_points(ind_functor(TWO_CHAIN))
    assert pts == (AdPoint(2, 2),)


# ---------------------------------------------------------------------------
# spectra


def test_sierpinski_spectrum_frozen():
    spec = adpt_space(build_ado(SIERPINSKI))
    assert [(p.x, p.s) for p in spec.points] == [(4, 6), (6, 4)]
    assert spec.space.opens == (0, 2, 3)
    assert spec.space.leq == (1, 3)
    assert spec.open_map == (0, 2, 3)
    assert spec.upset_map == (0, 1, 3)


def test_spectrum_order_compares_second_components():
    for sp in enumerate_spaces(2):
        spec = adpt_space(build_ado(sp))
        for i, a in enumerate(spec.points):
            for j, b in enumerate(spec.points):
                want = a.s | b.s == b.s
                assert bool(spec.space.leq[i] >> j & 1) == want


def test_spectrum_opens_come_from_open_map():
    for sp in enumerate_spaces(2):
        spec = adpt_space(build_ado(sp))
        assert set(spec.space.opens) == set(spec.open_map)


def test_spectrum_opens_are_a_topology_and_upsets_come_from_the_lattice():
    frames = [build_ado(sp, v) for n in range(4) for sp in enumerate_spaces(n)
              for v in VARIANTS]
    frames += [ind_functor(lat) for lat in enumerate_distributive_lattices(8)
               if lat.m >= 2]
    frames += idempotence_frames()
    assert len(frames) == 2577 + 35 + 500
    for frame in frames:
        spec = adpt_space(frame)
        _check_topology(spec.space.opens, spec.space.n)
        assert set(upset_family(spec.space.leq)) == set(spec.upset_map)


# ---------------------------------------------------------------------------
# unit and transpose


def test_eta_on_sober_space_is_identity_like():
    assert eta_map(adpt_space(build_ado(SIERPINSKI, Variant.BOTH))) == (0, 1)
    assert is_ad_sober(SIERPINSKI, irreducible_pairs(SIERPINSKI)).ad_sober


def test_eta_collapses_indiscernible_points():
    # indiscrete topology and indiscrete order: both points look alike
    from adframe import FinPreTopSpace
    blob = FinPreTopSpace(2, (0, 3), (3, 3))
    eta = eta_map(adpt_space(build_ado(blob, Variant.BOTH)))
    assert eta[0] == eta[1]
    assert not is_ad_sober(blob, irreducible_pairs(blob)).ad_sober


def test_transpose_recovers_map_exhaustive_small():
    frame = build_ado(CHAIN3)
    spec = adpt_space(frame)
    for sp in enumerate_spaces(2)[:10]:
        spec_sp = adpt_space(build_ado(sp, Variant.BOTH))
        eta = eta_map(spec_sp)
        for f in pretop_maps(sp, spec.space):
            hom = transpose(sp, spec, f)
            assert validate_hom(hom).ok
            # triangle: pulling back the unit image of x lands on f(x)
            for x in range(sp.n):
                pulled = pullback_point(hom, spec_sp.points[eta[x]])
                assert spec.point_index(pulled) == f[x]


def test_pullback_preserves_point_conditions():
    src = SIERPINSKI
    dst = CHAIN3
    for f in pretop_maps(src, dst):
        hom = build_ado_hom(f, src, dst)
        for pt in enumerate_points(hom.target):
            back = pullback_point(hom, pt)
            assert point_conditions_ok(hom.source, back.x, back.s)


def test_adpt_hom_is_functorial_on_spectra():
    src, dst = SIERPINSKI, CHAIN3
    for f in pretop_maps(src, dst):
        hom = build_ado_hom(f, src, dst)
        dom, cod = adpt_space(hom.target), adpt_space(hom.source)
        smap = adpt_hom(hom, dom, cod)
        assert len(smap) == len(dom.points)
        for i, pt in enumerate(dom.points):
            assert cod.points[smap[i]] == pullback_point(hom, pt)


# ---------------------------------------------------------------------------
# separation and soberness


def naive_ad_t0(space):
    spec = specialization_preorder(space)
    both = {(x, y) for (x, y) in leq_pairs(space) if spec[x] >> y & 1}
    return all(not (x != y and (y, x) in both) for (x, y) in both)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_ad_t0_matches_naive(n):
    for sp in enumerate_spaces(n):
        assert is_ad_t0(sp) == naive_ad_t0(sp)


def test_ad_t0_sampled_n3():
    for sp in enumerate_spaces(3)[::61]:
        assert is_ad_t0(sp) == naive_ad_t0(sp)


def test_sober_routes_agree_exhaustive_n2():
    for sp in enumerate_spaces(2):
        for variant in VARIANTS:
            res = is_ad_sober(sp, irreducible_pairs(sp, variant))
            spec = adpt_space(build_ado(sp, variant))
            eta = eta_map(spec)
            bijective = (len(set(eta)) == sp.n == len(spec.points))
            assert res.ad_sober == bijective, (sp, variant)


def test_counterexample_space_is_ad_sober_but_not_sober():
    # its pair space keeps both points while the classical sobrification
    # collapses them, so the two constructions genuinely differ
    sp = INDISCRETE2_DISCRETE_ORDER
    assert is_ad_sober(sp, irreducible_pairs(sp)).ad_sober
    from adframe.theorems import sober_topology
    assert not sober_topology(sp.topology())


# The NDJSON record of each check that reports a pair-mismatch witness, with
# ``ms`` zeroed, when ``is_ad_sober`` is given a wrong canonical pair on the
# discrete two-point space: a pair is written as its repr, not as the list
# JSON makes of a tuple.
_MISMATCH = ('["pair-mismatch", ["IrreduciblePair(closed=2, cls=2)"], '
             '["IrreduciblePair(closed=0, cls=0)"]]')
_MINIMIZED_MISMATCH = '["pair-mismatch", [], ["IrreduciblePair(closed=0, cls=0)"]]'
_INSTANCE = ('{"kind": "space", "leq": [], "opens": [[], [0], [1], [0, 1]], '
             '"points": 2, "variant": "both"}')
_MINIMIZED = '{"kind": "space", "leq": [], "opens": [[]], "points": 0, "variant": "both"}'
MISMATCH_RECORDS = {
    "ADSOBER-EQ": (
        '{"id": "ADSOBER-EQ", "instance": ' + _INSTANCE + ', "ms": 0, "verdict": "fail", '
        '"witness": {"detail": {"pair_route": false, "unit_bijective": true, '
        '"witness": ' + _MISMATCH + '}, "minimized": ' + _MINIMIZED + ', '
        '"minimized_detail": {"pair_route": false, "unit_bijective": true, '
        '"witness": ' + _MINIMIZED_MISMATCH + '}}}'),
    "IDEMPOTENT": (
        '{"id": "IDEMPOTENT", "instance": ' + _INSTANCE + ', "ms": 0, "verdict": "fail", '
        '"witness": {"detail": ' + _MISMATCH + ', "minimized": ' + _MINIMIZED + ', '
        '"minimized_detail": ' + _MINIMIZED_MISMATCH + '}}'),
}


@pytest.mark.parametrize("cid", sorted(MISMATCH_RECORDS))
def test_a_pair_mismatch_witness_writes_its_pairs_as_reprs(cid, monkeypatch):
    real = sobrify.canonical_pairs
    monkeypatch.setattr(sobrify, "canonical_pairs",
                        lambda space: real(space)[:-1] + (IrreduciblePair(0, 0),))
    (record,) = run_check(cid, instance=space_instance(DISCRETE2))
    record.ms = 0
    assert _record_lines([record]) == MISMATCH_RECORDS[cid]
