import pytest

from adframe import (FinPreTopSpace, IrreduciblePair,
                     NotContinuous, NotMonotone, Variant, ads_adpt_iso,
                     ads_hom, ads_space, adpt_space, build_ado, closure,
                     equivalence_classes, irreducible_closed_sets,
                     irreducible_pairs, run_check, standard_sobrification)
from adframe.bits import (bits_of, canonical_subsets, is_subset, low_bit,
                          subset_key)
from adframe.finord import (continuity_failure, downclose, monotonicity_failure,
                            preimage, upclose, upset_family)
from adframe.theorems import (enumerate_spaces, pretop_maps, sober_topology,
                              space_instance)

from helpers import (CHAIN3, INDISCRETE2_DISCRETE_ORDER, SIERPINSKI,
                     idempotence_frames, mask_of, naive_closure,
                     naive_irreducible_closeds, pair_ok, pts,
                     scanned_ads_maps)

VARIANTS = (Variant.UP, Variant.DOWN, Variant.BOTH)


def naive_pairs(space, variant):
    """Pairs recomputed point-set-wise from the membership conditions."""
    variant = Variant.parse(variant)
    out = set()
    for c in naive_irreducible_closeds(space):
        for cls in equivalence_classes(space.leq):
            x = bits_of(cls)[0]
            keep = True
            if variant.sees_up:
                keep &= bool(pts(c) & pts(downclose(space, 1 << x)))
                keep &= pts(c) <= pts(closure(space, upclose(space, 1 << x)))
            if variant.sees_down:
                keep &= bool(pts(c) & pts(upclose(space, 1 << x)))
                keep &= pts(c) <= pts(closure(space, downclose(space, 1 << x)))
            if keep:
                out.add((c, cls))
    return out


@pytest.mark.parametrize("variant", VARIANTS)
def test_pairs_match_membership_conditions(variant):
    for sp in enumerate_spaces(2):
        got = {(p.closed, p.cls) for p in irreducible_pairs(sp, variant)}
        assert got == naive_pairs(sp, variant)
    for sp in enumerate_spaces(3)[::71]:
        got = {(p.closed, p.cls) for p in irreducible_pairs(sp, variant)}
        assert got == naive_pairs(sp, variant)


def _distinct(spaces):
    """(space, variant) pairs with duplicates dropped, first seen kept."""
    seen = {}
    for sp, v in spaces:
        seen.setdefault((sp.n, sp.opens, sp.leq, v), (sp, v))
    return list(seen.values())


def _base_spaces():
    return [(sp, v) for n in range(4) for sp in enumerate_spaces(n)
            for v in VARIANTS]


def _pair_spaces():
    return _distinct((ads_space(sp, v).space, v) for sp, v in _base_spaces())


def test_pair_conditions_do_not_depend_on_the_class_representative():
    for sp, v in _base_spaces() + _pair_spaces():
        classes = equivalence_classes(sp.leq)
        for c in irreducible_closed_sets(sp):
            for cls in classes:
                verdicts = {pair_ok(sp, c, x, v) for x in bits_of(cls)}
                assert len(verdicts) == 1, (sp, v, c, cls)


def test_irreducible_pairs_are_the_pairs_the_definition_accepts():
    """Every n <= 3 space and every distinct pair space, under each variant:
    the pairs are the (irreducible closed set, class) combinations that
    ``pair_ok`` accepts at the class's lowest point, in canonical order."""
    spaces = {(sp.n, sp.opens, sp.leq): sp
              for sp, _ in _base_spaces() + _pair_spaces()}
    irreducible = {}
    for sp in spaces.values():
        top = (sp.n, sp.opens)
        if top not in irreducible:
            irreducible[top] = sorted(naive_irreducible_closeds(sp), key=subset_key)
        classes = sorted(equivalence_classes(sp.leq), key=subset_key)
        for v in VARIANTS:
            want = tuple(IrreduciblePair(c, cls) for c in irreducible[top]
                         for cls in classes if pair_ok(sp, c, low_bit(cls), v))
            assert irreducible_pairs(sp, v) == want, (sp, v)


def test_ads_space_maps_match_per_pair_scans():
    """Every n <= 3 space and every distinct pair space, under each variant:
    the diamond map, the bracket map and the pair preorder, made from one
    table of pairs per point, equal a scan of the pair list per open,
    up-set and pair, and the pair-space opens are the canonical diamonds."""
    spaces = {(sp.n, sp.opens, sp.leq): sp
              for sp, _ in _base_spaces() + _pair_spaces()}
    for sp in spaces.values():
        for v in VARIANTS:
            ads = ads_space(sp, v)
            assert ads.upsets == upset_family(sp.leq)
            diamond, bracket, rows = scanned_ads_maps(sp, ads.pairs, ads.upsets)
            assert (ads.diamond_map, ads.bracket_map, ads.space.leq) == \
                (diamond, bracket, rows), (sp, v)
            assert ads.space.opens == canonical_subsets(diamond)


def test_sober_routes_agree_on_pair_spaces_and_spectra():
    pair_spaces = _pair_spaces()
    assert len(pair_spaces) == 1046
    assert max(sp.n for sp, _ in pair_spaces) == 9
    spectra = _distinct((adpt_space(frame).space, frame.variant)
                        for frame in idempotence_frames())
    for spaces in (pair_spaces, spectra):
        reports = run_check("ADSOBER-EQ",
                            instances=[space_instance(sp, v) for sp, v in spaces])
        assert [r for r in reports if r.verdict != "pass"] == []


def test_pairs_frozen_examples():
    up = [(p.closed, p.cls) for p in irreducible_pairs(SIERPINSKI, "up")]
    dn = [(p.closed, p.cls) for p in irreducible_pairs(SIERPINSKI, "down")]
    both = [(p.closed, p.cls) for p in irreducible_pairs(SIERPINSKI, "both")]
    assert up == [(1, 1), (3, 2)]
    assert dn == [(1, 1), (1, 2), (3, 1), (3, 2)]
    assert both == [(1, 1), (3, 2)]
    cex = [(p.closed, p.cls) for p in irreducible_pairs(INDISCRETE2_DISCRETE_ORDER)]
    assert cex == [(3, 1), (3, 2)]


def test_pair_representative_is_lowest_member():
    pr = IrreduciblePair(3, 6)
    assert pr.rep == 1


# ---------------------------------------------------------------------------
# classical sobrification


def test_sobrification_is_sober_and_unit_continuous():
    """The facts ``standard_sobrification`` relies on without checking: the
    diamond map is injective, the diamonds form a topology, and the unit
    x -> cl(x) is continuous with the diamond of u pulling back to u."""
    for sp in [sp for n in range(4) for sp in enumerate_spaces(n)]:
        sob, unit = standard_sobrification(sp)
        irr = irreducible_closed_sets(sp)
        assert set(irr) == naive_irreducible_closeds(sp)
        assert sob.n == len(irr)
        assert sober_topology(sob)
        diamonds = [mask_of(i for i, c in enumerate(irr) if c & u) for u in sp.opens]
        assert len(set(diamonds)) == len(sp.opens)
        assert set(sob.opens) == set(diamonds)
        assert all(u | v in sob.opens and u & v in sob.opens
                   for u in sob.opens for v in sob.opens)
        assert {0, (1 << sob.n) - 1} <= set(sob.opens)
        for x in range(sp.n):
            assert irr[unit[x]] == naive_closure(sp, 1 << x)
        for u, diamond in zip(sp.opens, diamonds):
            assert preimage(unit, diamond) == u


def test_sobrification_collapses_indiscrete_pair():
    sob, unit = standard_sobrification(INDISCRETE2_DISCRETE_ORDER)
    assert sob.n == 1
    assert unit == (0, 0)


def test_sobrification_fixes_sober_input():
    sob, unit = standard_sobrification(CHAIN3)
    assert sob.n == CHAIN3.n
    assert sorted(unit) == [0, 1, 2]


# ---------------------------------------------------------------------------
# the pair space


@pytest.mark.parametrize("variant", VARIANTS)
def test_pair_space_transfer_maps(variant):
    for sp in enumerate_spaces(2):
        res = ads_space(sp, variant)
        # diamond: order-iso from base opens onto pair-space opens
        assert sorted(res.diamond_map) == sorted(res.space.opens)
        for i, u in enumerate(sp.opens):
            for j, v in enumerate(sp.opens):
                assert is_subset(u, v) == is_subset(res.diamond_map[i],
                                                    res.diamond_map[j])
        # bracket: order-iso from base up-sets onto pair-space up-sets
        assert set(res.bracket_map) == set(upset_family(res.space.leq))
        assert res.upsets == upset_family(sp.leq)


def test_pair_space_reads_the_up_sets_of_its_base():
    """``ads_space`` reads the base's up-sets off the lattice the space
    keeps; on every space with up to three points they are its up-set
    family, in canonical order."""
    spaces = [sp for n in range(4) for sp in enumerate_spaces(n)]
    assert len(spaces) == 1 + 1 + 16 + 841
    for sp in spaces:
        assert ads_space(sp).upsets == upset_family(sp.leq)


def test_pair_space_of_counterexample_keeps_both_points():
    res = ads_space(INDISCRETE2_DISCRETE_ORDER)
    assert len(res.pairs) == 2
    sob, _ = standard_sobrification(INDISCRETE2_DISCRETE_ORDER)
    assert sob.n == 1  # the classical construction collapses them


def test_pair_index_raises_on_foreign_pair():
    res = ads_space(SIERPINSKI)
    with pytest.raises(ValueError):
        res.pair_index(IrreduciblePair(2, 2))


# ---------------------------------------------------------------------------
# maps between pair spaces


def test_ads_hom_of_identity():
    ads = ads_space(SIERPINSKI)
    assert ads_hom((0, 1), ads, ads) == (0, 1)


def test_ads_hom_is_continuous_and_monotone():
    spaces = [sp for n in range(3) for sp in enumerate_spaces(n)]
    count = 0
    for v in VARIANTS:
        pair_spaces = [ads_space(sp, v) for sp in spaces]
        for src, ads_src in zip(spaces, pair_spaces):
            for dst, ads_dst in zip(spaces, pair_spaces):
                for m in pretop_maps(src, dst):
                    amap = ads_hom(m, ads_src, ads_dst)
                    dom, cod = ads_src.space, ads_dst.space
                    assert continuity_failure(dom, cod, amap) is None
                    assert monotonicity_failure(dom, cod, amap) is None
                    count += 1
    assert count == 2223


def test_ads_hom_rejects_discontinuous_map():
    ads = ads_space(SIERPINSKI)
    with pytest.raises(NotContinuous):
        ads_hom((1, 0), ads, ads)


def test_ads_hom_rejects_non_monotone_map():
    discrete_top = FinPreTopSpace(2, (0, 1, 2, 3), (3, 2))  # order 0 <= 1
    flipped = FinPreTopSpace(2, (0, 1, 2, 3), (1, 3))       # order 1 <= 0
    with pytest.raises(NotMonotone):
        ads_hom((0, 1), ads_space(discrete_top), ads_space(flipped))


def test_ads_hom_refuses_pair_spaces_of_two_variants():
    """A map between pair spaces read under two variants is refused, with
    both named, not built between mismatched pair sets."""
    with pytest.raises(ValueError, match="^pair spaces of variants up, both$"):
        ads_hom((0, 1), ads_space(SIERPINSKI, Variant.UP), ads_space(SIERPINSKI))


def test_ads_adpt_iso_refuses_a_spectrum_of_another_variant():
    spectrum = adpt_space(build_ado(SIERPINSKI, Variant.DOWN))
    with pytest.raises(ValueError, match="^pair space of variant both, spectrum down$"):
        ads_adpt_iso(ads_space(SIERPINSKI), spectrum)


def test_pair_space_agrees_with_spectrum():
    for sp in enumerate_spaces(2):
        for variant in VARIANTS:
            res = ads_space(sp, variant)
            spec = adpt_space(build_ado(sp, variant))
            assert len(res.pairs) == len(spec.points)
            assert sorted(ads_adpt_iso(res, spec)) == list(range(len(spec.points)))
