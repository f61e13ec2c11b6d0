import functools
import gc
import itertools
import random
import time
import tracemalloc
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from adframe import (FinPreTopSpace, FinTopSpace, NotALattice, NotAPreorder,
                     NotATopology, TooLarge, adpt_space, bounded_lattice_homs, build_ado,
                     class_of, closure, distributivity_witness, eta_map,
                     finord, equivalence_classes, interior, irreducible_closed_sets,
                     lattice_analyze, lattice_from_json, lattice_from_labels,
                     lattice_from_leq, lattice_to_json, make_space,
                     make_topology, space_from_json, space_to_json,
                     specialization_preorder, subset_lattice, upset_family)
from adframe.bits import bits_of, canonical_subsets
from adframe.finord import (_check_topology, closure_failure, columns,
                            continuity_failure, downclose, image,
                            monotonicity_failure, preimage,
                            reflexive_transitive_closure, upclose)
from adframe.frames import TWO_CHAIN
from adframe.theorems import enumerate_spaces, enumerate_topologies

from helpers import (CHAIN3, SIERPINSKI, bounded_posets,
                     enumerate_distributive_lattices, inclusion_matrix,
                     naive_closure, naive_coprimes,
                     naive_distributivity_witness, naive_downclose, naive_glb,
                     naive_interior, naive_irreducible_closeds,
                     naive_is_lattice, naive_lub, naive_pitchfork,
                     naive_primes, naive_specialization, naive_upclose,
                     naive_upsets)


# ---------------------------------------------------------------------------
# topology and space construction


def test_make_topology_completes_generators():
    top = make_topology(3, [[0], [1]], complete=True)
    assert top.opens == (0, 1, 2, 3, 7)


def test_union_gap_rejected():
    with pytest.raises(NotATopology):
        make_topology(3, [[], [0], [1], [0, 1, 2]])


def test_missing_empty_set_rejected():
    with pytest.raises(NotATopology):
        make_topology(1, [[0]])


def _closed_under_both(family):
    """The union/intersection closure of a family, pair by pair."""
    closed = set(family)
    while True:
        more = {a | b for a in closed for b in closed} | {a & b for a in closed for b in closed}
        if more <= closed:
            return closed
        closed |= more


@st.composite
def subset_families(draw):
    """A family of subsets of at most 6 points in canonical order: drawn,
    or the closure of one with perhaps a member dropped, so that closed and
    large families occur; the empty set and the carrier are then added,
    removed or left as they are."""
    n = draw(st.integers(0, 6))
    family = set(draw(st.lists(st.integers(0, (1 << n) - 1), max_size=12)))
    if draw(st.booleans()):
        family = _closed_under_both(family)
        if family and draw(st.booleans()):
            family.discard(draw(st.sampled_from(sorted(family))))
    for unit in (0, (1 << n) - 1):
        action = draw(st.sampled_from(("keep", "add", "remove")))
        if action == "add":
            family.add(unit)
        elif action == "remove":
            family.discard(unit)
    return n, canonical_subsets(family)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(subset_families())
@example((6, canonical_subsets(range(64))))
@example((6, canonical_subsets(set(range(64)) - {0b011111})))
@example((6, canonical_subsets(set(range(64)) - {0b100000})))   # only point 5's least holder exposes it
def test_closure_failure_agrees_with_the_pairwise_definition(case):
    """The partner test finds a failing pair exactly when some pair of
    members has a union or an intersection outside the family, and the
    pair it names is one."""
    n, family = case
    closed = set(family)
    pairwise = all(a | b in closed and a & b in closed for a in family for b in family)
    bad = closure_failure(family)
    assert (bad is None) == pairwise
    if bad is not None:
        op, a, b = bad
        assert {a, b} <= closed
        assert (a | b if op == "|" else a & b) not in closed


class _Counted(int):
    """A subset mask that counts the unions and intersections taken of it."""
    calls = 0

    def __or__(self, other):
        _Counted.calls += 1
        return int(self) | other

    def __and__(self, other):
        _Counted.calls += 1
        return int(self) & other


def test_topology_check_takes_at_most_2n_lookups_per_open():
    """The 4,096 opens of the discrete space on 12 points pass with at most
    2 * 12 + 1 unions and intersections per open (the one for finding the
    partners), not one per pair of opens."""
    opens = tuple(map(_Counted, canonical_subsets(range(4096))))
    _Counted.calls = 0
    _check_topology(opens, 12)
    assert _Counted.calls <= (2 * 12 + 1) * 4096


def test_lattice_from_labels_refuses_a_family_not_closed_under_union():
    with pytest.raises(NotALattice, match=r"union/intersection at \(0,\), \(1,\)$"):
        lattice_from_labels((0b00, 0b01, 0b10))


def test_carrier_cap():
    with pytest.raises(TooLarge):
        make_topology(65, [[]])


def test_strict_rejects_transitive_gap():
    with pytest.raises(NotAPreorder):
        make_space(3, [[], [0, 1, 2]], pairs=[[0, 1], [1, 2]], strict=True)


def test_default_closes_order_pairs():
    sp = make_space(3, [[], [0, 1, 2]], pairs=[[0, 1], [1, 2]])
    assert sp.leq[0] >> 2 & 1  # 0 <= 2 forced by transitivity


def test_reflexive_transitive_closure_idempotent():
    rows = (2, 4, 0)
    closed = reflexive_transitive_closure(rows, 3)
    assert closed == (7, 6, 4)
    assert reflexive_transitive_closure(closed, 3) == closed


def test_columns_is_the_converse():
    rng = random.Random(0)
    for _ in range(300):
        m, width = rng.randint(0, 9), rng.randint(0, 9)
        rows = tuple(rng.getrandbits(width) for _ in range(m))
        cols = columns(rows, width)
        assert len(cols) == width
        assert all(bool(cols[a] >> u & 1) == bool(rows[u] >> a & 1)
                   for u in range(m) for a in range(width))
        assert columns(cols, m) == rows
    lattices = enumerate_distributive_lattices(8)
    assert lattices
    for lat in lattices:
        assert columns(lat.up_masks, lat.m) == lat.down_masks


def test_space_json_roundtrip_exhaustive_n2():
    for sp in enumerate_spaces(2):
        assert space_from_json(space_to_json(sp)) == sp


def test_validate_space_completion_flag():
    sp = space_from_json({"points": 2, "opens": [[0]], "complete": True, "leq": []})
    assert sp.opens == (0, 1, 3)


# ---------------------------------------------------------------------------
# set operators against the naive definitions


def all_subsets(n):
    return range(1 << n)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_operators_match_naive_exhaustive(n):
    for sp in enumerate_spaces(n):
        for s in all_subsets(n):
            assert closure(sp, s) == naive_closure(sp, s)
            assert interior(sp, s) == naive_interior(sp, s)
            assert upclose(sp, s) == naive_upclose(sp, s)
            assert downclose(sp, s) == naive_downclose(sp, s)


def test_operators_match_naive_sampled_n3():
    spaces = enumerate_spaces(3)
    for sp in spaces[::37]:
        for s in all_subsets(3):
            assert closure(sp, s) == naive_closure(sp, s)
            assert interior(sp, s) == naive_interior(sp, s)


def test_closure_is_a_closure_operator():
    for sp in enumerate_spaces(2):
        for s in all_subsets(2):
            c = closure(sp, s)
            assert s | c == c
            assert closure(sp, c) == c


def test_specialization_matches_open_containment():
    for sp in enumerate_spaces(2):
        assert specialization_preorder(sp) == naive_specialization(sp)
    for sp in enumerate_spaces(3)[::53]:
        assert specialization_preorder(sp) == naive_specialization(sp)


# ---------------------------------------------------------------------------
# lattices


def test_opens_lattice_tables_are_union_intersection():
    lat = subset_lattice(SIERPINSKI, "opens")
    assert lat.labels == SIERPINSKI.opens
    for i in range(lat.m):
        for j in range(lat.m):
            assert lat.labels[lat.join(i, j)] == lat.labels[i] | lat.labels[j]
            assert lat.labels[lat.meet(i, j)] == lat.labels[i] & lat.labels[j]
    assert lat.labels[lat.bot] == 0
    assert lat.labels[lat.top] == SIERPINSKI.full


def test_upset_family_matches_naive():
    for sp in enumerate_spaces(2):
        assert set(upset_family(sp.leq)) == naive_upsets(sp)
    for sp in enumerate_spaces(3)[::41]:
        assert set(upset_family(sp.leq)) == naive_upsets(sp)


def test_a_topology_is_the_up_set_family_of_its_specialization_preorder():
    """Alexandroff's correspondence: every topology on at most three points
    is the up-set family of its specialization rows, and the up-set
    lattice of every space on at most three points is labelled by the
    up-sets of its preorder, both in canonical order."""
    for n in range(4):
        for opens in enumerate_topologies(n):
            assert upset_family(specialization_preorder(FinTopSpace(n, opens))) == opens
        for sp in enumerate_spaces(n):
            assert subset_lattice(sp, "upsets").labels == upset_family(sp.leq)


def _naive_members(mask):
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def test_bits_of_on_every_mask_below_256():
    for mask in range(256):
        assert bits_of(mask) == _naive_members(mask)


def test_bits_of_on_the_empty_mask_and_single_bits():
    assert bits_of(0) == ()
    for i in range(4096):
        assert bits_of(1 << i) == (i,)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=0, max_value=(1 << 4096) - 1))
def test_bits_of_lists_the_members_of_a_mask_ascending(mask):
    assert bits_of(mask) == _naive_members(mask)


def test_non_lattice_rejected():
    # two incomparable elements, no bounds at all
    leq = [[True, False], [False, True]]
    with pytest.raises(NotALattice):
        lattice_from_leq(leq)


def test_labels_must_match_order():
    doc = {"leq": [[0, 0], [0, 1], [1, 1]], "labels": [[1], [0]]}
    with pytest.raises(NotALattice, match="order disagrees with label inclusion"):
        lattice_from_json(doc)


def chain_lattice(m):
    return lattice_from_leq([[i <= j for j in range(m)] for i in range(m)])


def diamond_m3():
    # bot, three incomparable atoms, top
    leq = [[i == j or i == 0 or j == 4 for j in range(5)] for i in range(5)]
    return lattice_from_leq(leq)


def pentagon_n5():
    leq = [[i == j or i == 0 or j == 4 for j in range(5)] for i in range(5)]
    leq[1][2] = True  # the long side 1 < 2, short side 3
    return lattice_from_leq(leq)


def test_chain_analysis():
    analysis = lattice_analyze(chain_lattice(3))
    assert analysis.distributive
    assert analysis.primes == (0, 1)
    assert analysis.coprimes == (1, 2)
    assert analysis.pitchfork == ((0, 1), (1, 2))


def test_m3_and_n5_not_distributive():
    for lat in (diamond_m3(), pentagon_n5()):
        analysis = lattice_analyze(lat)
        assert not analysis.distributive
        a, b, c = distributivity_witness(lat)
        lhs = lat.meet(a, lat.join(b, c))
        rhs = lat.join(lat.meet(a, b), lat.meet(a, c))
        assert lhs != rhs


def test_subset_lattices_distributive():
    for sp in enumerate_spaces(2):
        analysis = lattice_analyze(subset_lattice(sp, "opens"))
        assert analysis.distributive
        assert distributivity_witness(subset_lattice(sp, "opens")) is None


@pytest.mark.parametrize("m", [64, 65])
def test_chain_masks_past_63_elements(m):
    lat = chain_lattice(m)
    assert lat.up_masks == tuple(sum(1 << j for j in range(i, m)) for i in range(m))
    assert lat.down_masks == tuple((1 << (i + 1)) - 1 for i in range(m))


def assert_matches_oracles(lat, leq):
    m = len(leq)
    assert lat.m == m
    for i in range(m):
        for j in range(m):
            assert lat.le(i, j) == leq[i][j]
            assert lat.join(i, j) == naive_lub(leq, i, j)
            assert lat.meet(i, j) == naive_glb(leq, i, j)
    assert all(leq[lat.bot][k] and leq[k][lat.top] for k in range(m))
    analysis = lattice_analyze(lat)
    witness = naive_distributivity_witness(leq)
    assert analysis.distributive == (witness is None)
    assert distributivity_witness(lat) == witness
    assert analysis.primes == naive_primes(leq)
    assert analysis.coprimes == naive_coprimes(leq)
    assert analysis.pitchfork == naive_pitchfork(leq)


def test_lattice_layer_matches_oracles_on_bounded_posets():
    keys, non_lattices = set(), 0
    for leq in bounded_posets(4):
        if not naive_is_lattice(leq):
            non_lattices += 1
            with pytest.raises(NotALattice):
                lattice_from_leq(leq)
            continue
        lat = lattice_from_leq(leq)
        assert_matches_oracles(lat, leq)
        keys.add(lat.key())
    assert non_lattices == 6  # the labellings of a, b < c, d
    assert diamond_m3().key() in keys and pentagon_n5().key() in keys


def naive_is_order(leq):
    m = len(leq)
    return (all(leq[i][i] for i in range(m))
            and not any(leq[i][j] and leq[j][i] for i in range(m) for j in range(m) if i != j)
            and all(leq[i][k] or not (leq[i][j] and leq[j][k])
                    for i, j, k in itertools.product(range(m), repeat=3)))


@st.composite
def small_relations(draw):
    """Order matrices on 1 to 6 elements: a raw relation, reflexive or
    not; the reflexive-transitive closure of one; or the order that an
    acyclic relation generates, as it is, under a new top, or between a
    new bottom and a new top.  A new top alone gives join-semilattices
    without a bottom, which ``bounded_posets`` never produces."""
    shape = draw(st.sampled_from(("raw", "preorder", "poset", "topped", "bounded")))
    extra = {"topped": 1, "bounded": 2}.get(shape, 0)
    k = draw(st.integers(0 if extra else 1, 6 - extra))
    rel = draw(st.lists(st.lists(st.booleans(), min_size=k, max_size=k),
                        min_size=k, max_size=k))
    if shape == "raw":
        reflexive = draw(st.booleans())
        return [[v or (reflexive and i == j) for j, v in enumerate(row)]
                for i, row in enumerate(rel)]
    rows = [sum(1 << j for j, v in enumerate(row) if v and (shape == "preorder" or i < j))
            for i, row in enumerate(rel)]
    rows = reflexive_transitive_closure(rows, k)
    low = 1 if shape == "bounded" else 0
    m = k + extra
    return [[i == j or (extra > 0 and j == m - 1) or (low > 0 and i == 0)
             or (low <= i < low + k and low <= j < low + k
                 and bool(rows[i - low] >> (j - low) & 1))
             for j in range(m)] for i in range(m)]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(small_relations())
@example([[True, False, True], [False, True, True], [False, False, True]])  # 0, 1 < 2
def test_lattice_from_leq_accepts_exactly_the_lattices(leq):
    """The constructor looks only for joins and a bottom; it refuses
    exactly the relations that are not partial orders or not lattices, and
    what it accepts agrees with the oracles."""
    if naive_is_order(leq) and naive_is_lattice(leq):
        assert_matches_oracles(lattice_from_leq(leq), leq)
    else:
        with pytest.raises(NotALattice):
            lattice_from_leq(leq)


@st.composite
def closure_systems(draw):
    """A family of subsets of at most 5 points closed under intersection
    and holding the carrier, in ascending order, and a relabelling of it:
    every finite lattice is one such family ordered by inclusion."""
    n = draw(st.integers(0, 5))
    family = {(1 << n) - 1}
    for s in draw(st.lists(st.integers(0, (1 << n) - 1), max_size=4)):
        family |= {s & t for t in family}
    return sorted(family), draw(st.permutations(range(len(family))))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(closure_systems())
@example(([0b000, 0b001, 0b010, 0b100, 0b111], [4, 2, 0, 3, 1]))    # M3
@example(([0b000, 0b001, 0b011, 0b100, 0b111], [1, 3, 4, 0, 2]))    # N5
def test_abstract_lattice_analysis_agrees_with_the_definitions(case):
    """On a lattice read from JSON with no labels, the distributivity that
    ``lattice_analyze`` reports is the naive triple scan's, and the test
    it reads join-irreducibility from (the strict down-set of b is a
    down-mask) picks the b that the join of the elements strictly below
    does not reach."""
    family, perm = case
    m = len(family)
    leq = [[False] * m for _ in range(m)]
    for i, j in itertools.product(range(m), repeat=2):
        leq[perm[i]][perm[j]] = family[i] & ~family[j] == 0
    lat = lattice_from_json({"leq": [[i, j] for i in range(m) for j in range(m) if leq[i][j]]})
    bottom = perm[0]
    below = [functools.reduce(functools.partial(naive_lub, leq),
                              (k for k in range(m) if leq[k][b] and k != b), bottom)
             for b in range(m)]
    join_irreducibles = {b for b in range(m) if below[b] != b}
    downs, down_index = lat.meets()
    assert {b for b in range(m) if downs[b] & ~(1 << b) in down_index} == join_irreducibles
    distributive = lattice_analyze(lat).distributive
    assert distributive == (naive_distributivity_witness(leq) is None)
    assert distributive == (join_irreducibles <= set(naive_coprimes(leq)))


def test_abstract_lattice_analysis_walks_no_mask_bits(monkeypatch):
    """Join-irreducibility is one lookup in the meet index: analysing the
    72-chain and the 8 x 9 grid, read fresh from JSON, never walks the bits
    of a mask (a walk below each element would take one per element)."""
    chain = [[i, j] for i in range(72) for j in range(i, 72)]
    grid = [[i * 9 + j, k * 9 + l] for i in range(8) for j in range(9)
            for k in range(i, 8) for l in range(j, 9)]
    lattices = [lattice_from_json({"leq": leq}) for leq in (chain, grid)]
    walked = []
    real = finord.bits_of
    monkeypatch.setattr(finord, "bits_of", lambda mask: walked.append(mask) or real(mask))
    analyses = [lattice_analyze(lat) for lat in lattices]
    assert walked == []
    assert [(a.distributive, len(a.primes)) for a in analyses] == [(True, 71), (True, 15)]


def test_a_1024_element_lattice_is_read_and_analysed_in_small_memory():
    """A lattice stores its order once, as up- and down-masks of m bits
    each: reading the lattice of a bottom, 1,022 atoms and a top from JSON
    and analysing it peaks below 2 MiB, where one m × m table of element
    indices alone takes 8 MiB."""
    m = 1024
    doc = {"leq": [[i, i] for i in range(m)] + [[0, j] for j in range(1, m)]
           + [[i, m - 1] for i in range(1, m - 1)]}
    tracemalloc.start()
    try:
        lat = lattice_from_json(doc)
        analysis = lattice_analyze(lat)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (lat.m, lat.bot, lat.top, analysis.distributive) == (m, 0, m - 1, False)
    assert peak < 2 * 2**20


def test_lattice_layer_matches_oracles_on_subset_lattices():
    families = {fam for n in range(4) for sp in enumerate_spaces(n)
                for fam in (sp.opens, upset_family(sp.leq))}
    lattices = [lattice_from_labels(fam) for fam in sorted(families)]
    lattices += enumerate_distributive_lattices(8)
    for lat in lattices:
        assert_matches_oracles(lat, inclusion_matrix(lat.labels))


def test_labelled_lattices_are_shared_and_frozen():
    lat = lattice_from_labels((0, 1, 3))
    assert lattice_from_labels([3, 1, 0, 1]) is lat
    with pytest.raises(AttributeError):
        lat.top = 0


def test_spaces_keep_their_two_lattices():
    space = FinPreTopSpace(CHAIN3.n, CHAIN3.opens, CHAIN3.leq)
    twin = FinPreTopSpace(CHAIN3.n, CHAIN3.opens, CHAIN3.leq)
    opens, upsets = subset_lattice(space, "opens"), subset_lattice(space, "upsets")
    assert subset_lattice(space, "opens") is opens
    assert subset_lattice(space, "upsets") is upsets
    assert upsets.labels == upset_family(space.leq)
    # the kept lattices are not fields: equality, hashing and JSON ignore them
    assert space == twin and hash(space) == hash(twin) and repr(space) == repr(twin)
    assert space_to_json(space) == space_to_json(twin)
    with pytest.raises(ValueError):
        subset_lattice(space, "closed")


def test_kept_makes_a_value_once_and_refuses_a_field_name():
    space = FinPreTopSpace(CHAIN3.n, CHAIN3.opens, CHAIN3.leq)
    made = []

    def make():
        made.append(1)
        return [len(made)]

    assert finord.kept(space, "_probe", make) is finord.kept(space, "_probe", make)
    assert made == [1]
    with pytest.raises(ValueError, match="must start with '_'"):
        finord.kept(space, "opens", make)      # would return the field
    assert space == CHAIN3 and hash(space) == hash(CHAIN3)


def test_a_dropped_lattice_takes_its_facts_with_it():
    """A lattice that nothing else holds is collected, and with it its
    entry in the label-family table and every value it keeps, also its
    entry in the hom table of a lattice that outlives it."""
    n = 9
    full = (1 << n) - 1
    opens = tuple((1 << k) - 1 for k in range(n + 1))      # a chain of ten opens
    space = FinPreTopSpace(n, opens, (full,) * n)          # indiscrete preorder
    frame = build_ado(space)
    eta_map(adpt_space(frame))
    lattice_analyze(frame.omega)
    bounded_lattice_homs(frame.omega, frame.ell)
    bounded_lattice_homs(TWO_CHAIN, frame.ell)
    families = (opens, (0, full))
    assert {"_analysis", "_point_masks", "_homs"} <= set(vars(frame.omega))
    assert "_point_masks" in vars(frame.ell)
    assert frame.ell in vars(frame.omega)["_homs"]
    assert frame.ell in vars(TWO_CHAIN)["_homs"]
    dropped = [weakref.ref(frame.omega), weakref.ref(frame.ell)]
    del space, frame
    gc.collect()
    assert [ref() for ref in dropped] == [None, None]
    assert not set(families) & set(finord._LABELLED)
    assert not {other.labels for other in vars(TWO_CHAIN)["_homs"]} & set(families)


def test_lattice_from_leq_on_a_200_chain_is_fast():
    leq = [[i <= j for j in range(200)] for i in range(200)]
    start = time.perf_counter()
    lat = lattice_from_leq(leq)
    assert time.perf_counter() - start < 1.0
    assert (lat.bot, lat.top) == (0, 199)


def test_lattice_json_roundtrip():
    for lat in (chain_lattice(4), subset_lattice(CHAIN3, "upsets")):
        back = lattice_from_json(lattice_to_json(lat))
        assert back.m == lat.m
        assert back.up_masks == lat.up_masks
        assert back.labels == lat.labels


def test_lattice_json_requires_pairs():
    with pytest.raises(NotALattice):
        lattice_from_json({"leq": []})


def test_lattice_from_labels_orders_by_inclusion():
    lat = lattice_from_labels((0, 1, 3, 5, 7))
    assert lat.labels == (0, 1, 3, 5, 7)
    assert lat.le(1, 2) and not lat.le(2, 3)


# ---------------------------------------------------------------------------
# irreducible closed sets, classes, point maps


def test_irreducible_closeds_match_naive():
    for n in (0, 1, 2):
        for sp in enumerate_spaces(n):
            assert set(irreducible_closed_sets(sp)) == naive_irreducible_closeds(sp)
    for sp in enumerate_spaces(3)[::29]:
        assert set(irreducible_closed_sets(sp)) == naive_irreducible_closeds(sp)


def test_equivalence_classes_of_a_cycle():
    # 0 <= 1 <= 0 plus an isolated 2
    classes = equivalence_classes((3, 3, 4))
    assert classes == (3, 4)
    assert class_of(classes, 1) == 3
    assert class_of(classes, 2) == 4
    with pytest.raises(ValueError):
        class_of((3,), 2)


def test_image_preimage():
    assert preimage([0, 0, 1], 0b01) == 0b011
    assert image([0, 0, 1], 0b110) == 0b011
    assert preimage([], 0) == 0


def test_continuity_and_monotonicity_witnesses():
    src = FinPreTopSpace(2, (0, 1, 3), (1, 2))   # open point 0, discrete order
    dst = SIERPINSKI                              # open point 1, order 1 <= 0
    assert continuity_failure(src, dst, [1, 0]) is None
    assert continuity_failure(src, dst, [0, 1]) == 2  # {1} pulls back to {1}
    assert monotonicity_failure(src, dst, [0, 1]) is None
    assert monotonicity_failure(dst, src, [0, 1]) == (1, 0)
