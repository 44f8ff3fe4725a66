import itertools
import math
import time
import tracemalloc

import pytest
from hypothesis import given, strategies as st

import framebundles.bundles as bundles
from framebundles.bundles import (
    FlatBundle,
    bundle_isomorphic,
    clutching_wreath,
    components,
    finite_winding_bundle,
    flat_bundle,
    frame_components,
    holonomy,
    map_fiber_count,
    principal_fiber,
    quotient_bundle,
    sn_action_on_bundle,
    sn_labelling,
    total_components,
)
from framebundles.errors import (
    BoundExceeded,
    ModeMismatch,
    NotFaithful,
    NotFree,
    Obstruction,
    TooSmall,
)
from framebundles.frame_tables import lift_table
from framebundles.frames import (
    WreathElement,
    enumerate_frames,
    wreath_act,
    wreath_identity,
    wreath_inv,
    wreath_mul,
    wreath_to_aut,
)
from framebundles.groups import automorphisms, identity_hom, make_cyclic, make_direct_product
from framebundles.perms import perm_compose, perm_inverse
from framebundles.suites import fixture_groups
from table_oracles import (
    aut_table,
    conjugacy_classes,
    frame_functor_map,
    full_lift_bundle,
    hom,
    lift_table_per_frame,
)

from framebundles.gsets import (
    equivariant_map,
    induced_orbit_map,
    make_gset,
    semitorsor_point,
    standard_semitorsor,
    trivial_gset,
)

Z2 = make_cyclic(2)
Z3 = make_cyclic(3)
KLEIN = make_direct_product(Z2, Z2)


def group_bundle(G, h):
    """The group-mode bundle over the circle glued by the automorphism ``h``."""
    return flat_bundle(trivial_gset(G.order), (h,), G)


def z3_bundles():
    auts = automorphisms(Z3)
    return [group_bundle(Z3, h) for h in auts]


# ---------------------------------------------------------------- group bundles


def test_group_bundle_rejects_non_automorphism():
    with pytest.raises(ValueError, match="group bundles are glued by automorphisms only"):
        flat_bundle(trivial_gset(3), ((0, 0, 0),), Z3)


def test_z3_component_counts():
    trivial, twisted = z3_bundles()
    assert total_components(trivial) == 3
    assert total_components(twisted) == 2


def test_component_members_come_in_ascending_order():
    # 0 -> 2 -> 1: the points are found in the order 0, 2, 1
    assert components(flat_bundle(trivial_gset(3), ((2, 0, 1),))) == ((0, 1, 2),)


def test_z3_twisted_orbit_partition():
    _, twisted = z3_bundles()
    assert components(twisted) == ((0,), (1, 2))


def test_klein_four_classes_give_4_3_2_components():
    auts = automorphisms(KLEIN)
    counts = []
    for cls in conjugacy_classes(aut_table(KLEIN)):
        rep = auts[cls[0]]
        counts.append(total_components(group_bundle(KLEIN, rep)))
    assert counts == [4, 3, 2]


def test_klein_transposition_pairs_two_elements():
    # the swapped pair forms a single circle, the fixed elements their own
    auts = automorphisms(KLEIN)
    transposition = next(
        h for h in auts if sorted(h) == [0, 1, 2, 3] and
        sum(h[a] != a for a in range(4)) == 2
    )
    b = group_bundle(KLEIN, transposition)
    sizes = sorted(len(c) for c in components(b))
    assert sizes == [1, 1, 2]


# ---------------------------------------------------------------- isomorphism


def test_bundle_isomorphic_reflexive():
    for b in z3_bundles():
        assert bundle_isomorphic(b, b)


def test_klein_transpositions_are_isomorphic():
    auts = automorphisms(KLEIN)
    transpositions = [
        h for h in auts if sum(h[a] != a for a in range(4)) == 2
    ]
    assert len(transpositions) == 3
    b0 = group_bundle(KLEIN, transpositions[0])
    for h in transpositions[1:]:
        assert bundle_isomorphic(b0, group_bundle(KLEIN, h))


def test_klein_different_classes_not_isomorphic():
    auts = automorphisms(KLEIN)
    transposition = next(h for h in auts if sum(h[a] != a for a in range(4)) == 2)
    three_cycle = next(h for h in auts if sum(h[a] != a for a in range(4)) == 3)
    b1 = group_bundle(KLEIN, transposition)
    b2 = group_bundle(KLEIN, three_cycle)
    assert not bundle_isomorphic(b1, b2)


def test_z3_trivial_vs_twisted():
    trivial, twisted = z3_bundles()
    assert not bundle_isomorphic(trivial, twisted)
    assert total_components(trivial) != total_components(twisted)


def test_components_invariant_under_isomorphism():
    auts = automorphisms(KLEIN)
    for h1 in auts:
        for h2 in auts:
            b1 = group_bundle(KLEIN, h1)
            b2 = group_bundle(KLEIN, h2)
            if bundle_isomorphic(b1, b2):
                assert total_components(b1) == total_components(b2)


def test_group_isomorphism_refuses_a_fiber_with_too_many_automorphisms():
    # |Aut(Z2^4)| = |GL(4, 2)| = 20160 is counted, not listed, and refused
    G = make_direct_product(KLEIN, KLEIN)
    b = group_bundle(G, identity_hom(G))
    start = time.perf_counter()
    with pytest.raises(BoundExceeded, match="automorphism group of order 20160 exceeds"):
        bundle_isomorphic(b, b)
    assert time.perf_counter() - start < 1.0


def test_mode_mismatch_rejected():
    b1 = z3_bundles()[0]
    b2 = finite_winding_bundle(Z3, 1)
    with pytest.raises(ModeMismatch):
        bundle_isomorphic(b1, b2)


def test_mode_is_read_off_the_fiber_group():
    fiber = trivial_gset(3)
    inversion = (0, 2, 1)
    assert flat_bundle(fiber, (inversion,), Z3).mode == "group"
    assert flat_bundle(fiber, (inversion,)).mode == "gspace"
    assert flat_bundle(fiber, (inversion,), Z3) != flat_bundle(fiber, (inversion,))


# ---------------------------------------------------------------- trivializability


def test_trivializable_cases():
    # isomorphic to the trivial bundle exactly when every clutching map is the
    # identity, since simultaneous conjugation fixes the identity tuple
    def trivializable(b):
        ident = tuple(range(b.fiber.size))
        return bundle_isomorphic(b, flat_bundle(b.fiber, (ident,) * b.loops, b.fiber_group))

    trivial, twisted = z3_bundles()
    assert trivializable(trivial)
    assert not trivializable(twisted)

    fiber = trivial_gset(2)
    ident, swap = (0, 1), (1, 0)
    two_loops = flat_bundle(fiber, (ident, swap))
    assert not trivializable(two_loops)
    assert trivializable(flat_bundle(fiber, (ident, ident)))


# ---------------------------------------------------------------- decomposition


def test_quotient_of_torsor_bundle_is_a_point():
    fiber = standard_semitorsor(Z3, 1)
    neg = wreath_to_aut(WreathElement(Z3, (1,), (0,)))
    b = flat_bundle(fiber, (neg,))
    q = quotient_bundle(b)
    assert q.fiber.size == 1
    assert total_components(q) == 1


def test_quotient_of_winding_is_connected_cover():
    for k in (2, 3):
        q = quotient_bundle(finite_winding_bundle(Z2, k))
        assert q.fiber.size == k
        assert total_components(q) == 1


def test_quotient_of_trivial_semitorsor_bundle_splits():
    fiber = standard_semitorsor(Z2, 3)
    b = flat_bundle(fiber, (tuple(range(fiber.size)),))
    q = quotient_bundle(b)
    assert total_components(q) == 3


def test_quotient_clutching_is_cq_of_clutching():
    fixtures = [
        finite_winding_bundle(Z2, 2),
        finite_winding_bundle(Z3, 3),
        finite_winding_bundle(KLEIN, 2),
    ]
    for b in fixtures:
        q = quotient_bundle(b)
        for a, qa in zip(b.clutching, q.clutching):
            assert qa == induced_orbit_map(b.fiber, b.fiber, a)


def _mixed_clutching():
    # a bijection of Z2 x I_2 built without the equivariance check: orbit 0 is
    # {0, 2}, and it sends 0 into orbit 0 but 2 into orbit 1
    return standard_semitorsor(Z2, 2), (0, 1, 3, 2)


def test_quotient_refuses_a_clutching_map_that_mixes_orbits():
    # the record is built directly, as flat_bundle refuses the map
    fiber, mixed = _mixed_clutching()
    b = FlatBundle(fiber, (mixed,), None)
    with pytest.raises(ValueError, match="orbit map is not constant on orbits"):
        quotient_bundle(b)


def test_flat_bundle_refuses_a_clutching_map_that_is_not_equivariant():
    fiber, mixed = _mixed_clutching()
    ident = tuple(range(fiber.size))
    with pytest.raises(ValueError, match="clutching 1 is not equivariant"):
        flat_bundle(fiber, (ident, mixed))


def test_a_bundle_stores_its_clutching_as_tuples_of_ints():
    assert FlatBundle._fields == ("fiber", "clutching", "fiber_group")
    fiber = standard_semitorsor(Z2, 2)
    for b in (flat_bundle(fiber, ([2, 3, 0, 1], range(4))), finite_winding_bundle(Z3, 2),
              full_lift_bundle(finite_winding_bundle(Z2, 2)), z3_bundles()[1]):
        assert b.loops == len(b.clutching)
        assert all(type(t) is tuple and all(type(p) is int for p in t) for t in b.clutching)


@pytest.mark.parametrize("table", [(0, 1, 2, None), (0, 1, 2, 3.0), (0, True, 2, 3),
                                   (0, 1, 2, 4), (0, 1, 2, -1), (0, 1, 2), (0, 1, 2, 3, 0)])
def test_flat_bundle_refuses_a_table_that_is_not_a_permutation(table):
    with pytest.raises(ValueError, match="clutching 1 is not a bijection"):
        flat_bundle(standard_semitorsor(Z2, 2), (range(4), table))


@pytest.mark.parametrize("table, message", [
    ((0, 2, 1, 3), "homomorphism law fails at \\(1,1\\)"),
    ((0, 2, 2, 2), "homomorphism law fails"),
    ((0, 1, 2), "image table has wrong length"),
    ((0, 1, 2, None), "image table entry out of range"),
    ((0, 1, 2, 4), "image table entry out of range"),
    ((1, 0, 3, 2), "homomorphism does not preserve the identity"),
    ((0, 2, 0, 2), "group bundles are glued by automorphisms only"),
])
def test_group_mode_checks_the_homomorphism_law_before_bijectivity(table, message):
    with pytest.raises(ValueError, match=message):
        flat_bundle(trivial_gset(4), (table,), make_cyclic(4))


def test_quotient_map_fiber_count_is_group_order():
    # the orbit projection onto the k sheets, over the collapse of G
    for G, k in [(Z2, 2), (Z3, 2), (KLEIN, 3)]:
        b = finite_winding_bundle(G, k)
        sheets, collapse = trivial_gset(k), (0,) * G.order
        projection = equivariant_map(b.fiber, sheets, collapse, b.fiber.orbit_partition.orbit_of)
        assert map_fiber_count(b.fiber, sheets, collapse, projection) == G.order
        assert principal_fiber(b) == G.order


def test_principal_fiber_refuses_a_fiber_that_is_not_free():
    # Z2 fixing both points: as for quotient_bundle, the refusal names the
    # freeness the count needs, not the preimage sizes it would compare
    b = flat_bundle(make_gset(Z2, [[0, 1], [0, 1]]), ((1, 0),))
    for decompose in (quotient_bundle, principal_fiber):
        with pytest.raises(NotFree, match="decomposition is defined for free fibers"):
            decompose(b)


def test_principal_fiber_refuses_a_group_mode_bundle():
    with pytest.raises(ModeMismatch, match="quotient map applies to group-space bundles"):
        principal_fiber(group_bundle(Z3, identity_hom(Z3)))


def test_map_fiber_count_examples():
    F = standard_semitorsor(Z2, 2)
    assert map_fiber_count(F, F, identity_hom(Z2), tuple(range(F.size))) == 1

    z4 = make_cyclic(4)
    F4 = standard_semitorsor(z4, 2)
    F2 = standard_semitorsor(Z2, 2)
    xi = hom(z4, Z2, [a % 2 for a in range(4)])
    reduction = equivariant_map(
        F4, F2, xi,
        [semitorsor_point(g % 2, x, 2) for g in range(4) for x in range(2)],
    )
    assert map_fiber_count(F4, F2, xi, reduction) == 2


def test_map_fiber_count_rejects_non_surjective():
    G = Z3
    source = standard_semitorsor(G, 1)
    target = standard_semitorsor(G, 2)
    value = [semitorsor_point(g, 0, 2) for g in range(3)]
    a = equivariant_map(source, target, identity_hom(G), value)
    with pytest.raises(ValueError):
        map_fiber_count(source, target, identity_hom(G), a)


def test_map_fiber_count_is_the_kernel_size_of_identity_and_constant():
    # |ker xi| is the number of entries of xi at the target's identity: 1 for
    # the identity of Z4, 4 for the map of Z4 onto the trivial group
    z4 = make_cyclic(4)
    F = standard_semitorsor(z4, 1)
    ident = identity_hom(z4)
    assert map_fiber_count(F, F, ident, equivariant_map(F, F, ident, range(4))) == 1
    point = trivial_gset(1)
    xi = hom(z4, point.group, [0] * 4)
    assert xi == (0, 0, 0, 0)
    assert map_fiber_count(F, point, xi, equivariant_map(F, point, xi, [0] * 4)) == 4


# ---------------------------------------------------------------- winding bundles


def test_winding_k1_is_trivializable():
    assert finite_winding_bundle(Z2, 1).clutching == ((0, 1),)


def test_winding_total_components_is_group_order():
    # each group level is one cycle through all the sheets
    for G, k in [(Z2, 2), (Z2, 3), (Z3, 2)]:
        b = finite_winding_bundle(G, k)
        comps = components(b)
        assert len(comps) == G.order
        assert all(len(c) == k for c in comps)


def test_winding_nontrivial_for_k_above_one():
    for k in (2, 3):
        assert finite_winding_bundle(Z2, k).clutching[0] != tuple(range(2 * k))


# ---------------------------------------------------------------- frame bundles


def test_frame_bundle_of_trivial_clutching_is_trivializable():
    fiber = standard_semitorsor(Z2, 2)
    b = flat_bundle(fiber, (tuple(range(fiber.size)),))
    lifted = full_lift_bundle(b)
    assert lifted.clutching == (tuple(range(lifted.fiber.size)),)
    assert frame_components(b) == lifted.fiber.size == 8


def test_frame_bundle_winding_components_match_brute_force():
    b = finite_winding_bundle(Z2, 2)
    lifted = full_lift_bundle(b)
    # oracle: orbit count of the lifted permutation on the raw frame tuples
    fs = enumerate_frames(b.fiber)
    value = b.clutching[0]
    seen = set()
    orbit_count = 0
    for t in fs.frames:
        if t in seen:
            continue
        orbit_count += 1
        cur = t
        while cur not in seen:
            seen.add(cur)
            cur = tuple(value[p] for p in cur)
    assert orbit_count == 4
    assert total_components(lifted) == frame_components(b) == 4
    assert lifted.fiber.size == 8


def test_frame_bundle_component_formula():
    # (k-1)! |G|^k components for the k-sheet winding bundle, on every fixture group
    for G, k in itertools.product(fixture_groups(6), (1, 2, 3)):
        b = finite_winding_bundle(G, k)
        count = math.factorial(k - 1) * G.order**k
        assert frame_components(b) == total_components(full_lift_bundle(b)) == count


def test_frame_bundle_clutching_is_generatorwise_lift():
    b = finite_winding_bundle(Z2, 2)
    lifted = full_lift_bundle(b)
    fs = enumerate_frames(b.fiber)
    lift = frame_functor_map(b.clutching[0])
    for i, t in enumerate(fs.frames):
        assert lifted.clutching[0][i] == fs.index[lift(t)]


def test_frame_bundle_mod_tuple_part_recovers_covering_frames():
    # collapsing the frame bundle by the pure-tuple subgroup leaves the
    # frame bundle of the quotient covering: permutations with lifted cq
    b = finite_winding_bundle(Z2, 2)
    fs = enumerate_frames(b.fiber)
    part = b.fiber.orbit_partition
    value = b.clutching[0]

    def orbit_word(t):
        return tuple(part.orbit_of[p] for p in t)

    # classes of frames under the pure-tuple action = their orbit words
    induced = {}
    for t in fs.frames:
        src = orbit_word(t)
        dst = orbit_word(tuple(value[p] for p in t))
        assert induced.setdefault(src, dst) == dst

    q = quotient_bundle(b)
    qfs = enumerate_frames(q.fiber)
    covering = q.clutching[0]
    qlift = lift_table(q.fiber, q.fiber, covering)
    assert qlift == lift_table_per_frame(q.fiber, q.fiber, covering)
    for i, t in enumerate(qfs.frames):
        assert induced[t] == qfs.frames[qlift[i]]


# every fixture group on 1-3 orbits, at most 6^3 3! = 1,296 frames
WREATH_FIBERS = [(G, n) for G in fixture_groups(6) for n in (1, 2, 3)]


@given(st.data())
def test_frame_components_count_the_components_of_the_full_lift_bundle(data):
    G, n = data.draw(st.sampled_from(WREATH_FIBERS), label="fiber")
    element = st.tuples(st.lists(st.integers(0, G.order - 1), min_size=n, max_size=n),
                        st.permutations(range(n)))
    loops = data.draw(st.lists(element, min_size=1, max_size=4), label="loops")
    F = standard_semitorsor(G, n)
    b = flat_bundle(F, [wreath_to_aut(WreathElement(G, tuple(g), tuple(s))) for g, s in loops])
    assert frame_components(b) == total_components(full_lift_bundle(b))


def _cycle_powers(loops):
    """A bundle on 7 points of a trivial-group fiber whose loop i is the
    (i + 1)-th power of the 7-cycle: every loop after the first lies in the
    group of the first."""
    powers, p = [], tuple(range(7))
    for _ in range(loops):
        p = tuple((x + 1) % 7 for x in p)
        powers.append(p)
    return flat_bundle(standard_semitorsor(make_cyclic(1), 7), powers)


def test_frame_components_of_4000_powers_of_a_seven_cycle():
    # 7! frames in components of the 7 frames that the 7-cycle's group moves
    assert frame_components(_cycle_powers(4000)) == math.factorial(7) // 7 == 720


class _CountedTable(tuple):
    """A clutching table that counts the entries read from it."""

    reads = 0

    def __getitem__(self, p):
        _CountedTable.reads += 1
        return tuple.__getitem__(self, p)


def test_frame_components_skips_a_loop_whose_base_image_it_has_walked(monkeypatch):
    # the first loop walks the 7 frames of its component, 7 slots each; each
    # of the other 49 loops reads only the 7 slots of its image of the base
    b = _cycle_powers(50)
    counted = FlatBundle(b.fiber, tuple(map(_CountedTable, b.clutching)), None)
    monkeypatch.setattr(_CountedTable, "reads", 0)
    assert frame_components(counted) == 720
    assert _CountedTable.reads == 7 + 7 * 7 + 49 * 7


# ---------------------------------------------------------------- clutching in the wreath group


def test_clutching_wreath_of_identity_bundle():
    fiber = standard_semitorsor(Z2, 2)
    b = flat_bundle(fiber, (tuple(range(fiber.size)),))
    ws = clutching_wreath(b, enumerate_frames(b.fiber).frames[0])
    assert ws == [wreath_identity(Z2, 2)]


def test_winding_clutching_wreath_is_pure_cycle():
    for G, k in [(Z2, 2), (Z3, 3)]:
        b = finite_winding_bundle(G, k)
        w = clutching_wreath(b, enumerate_frames(b.fiber).frames[0])[0]
        assert w.g_tuple == (G.identity,) * k
        # the permutation part is a single k-cycle
        seen = {0}
        cur = w.sigma[0]
        while cur != 0:
            seen.add(cur)
            cur = w.sigma[cur]
        assert len(seen) == k


def test_winding_k2_clutching_is_the_transposition():
    b = finite_winding_bundle(Z2, 2)
    w = clutching_wreath(b, enumerate_frames(b.fiber).frames[0])[0]
    assert w.g_tuple == (0, 0)
    assert w.sigma == (1, 0)


def test_clutching_wreath_conjugation_covariance():
    b = finite_winding_bundle(Z2, 2)
    fs = enumerate_frames(b.fiber)
    base = enumerate_frames(b.fiber).frames[0]
    w_base = clutching_wreath(b, base)[0]
    from framebundles.frames import frame_divide

    for ref in fs.frames:
        u = frame_divide(fs, ref, base)
        expected = wreath_mul(wreath_mul(u, w_base), wreath_inv(u))
        assert clutching_wreath(b, ref)[0] == expected


def test_clutching_wreath_reproduces_clutching_action():
    b = finite_winding_bundle(Z3, 2)
    F = b.fiber
    ref = enumerate_frames(b.fiber).frames[0]
    w = clutching_wreath(b, ref)[0]
    moved = tuple(b.clutching[0][p] for p in ref)
    assert wreath_act(F, w, ref) == moved


# ---------------------------------------------------------------- holonomy


def test_holonomy_empty_word_is_identity():
    b = finite_winding_bundle(Z2, 2)
    assert holonomy(b, ()) == tuple(range(b.fiber.size))


def test_holonomy_cancellation():
    b = flat_bundle(trivial_gset(3), ((0, 1, 2), (1, 2, 0)))
    assert holonomy(b, (2, -2)) == (0, 1, 2)
    assert holonomy(b, (-2, 2)) == (0, 1, 2)


def test_holonomy_word_order_first_letter_first():
    cycle, swap = (1, 2, 0), (1, 0, 2)
    b = flat_bundle(trivial_gset(3), (cycle, swap))
    # word (1, 2): apply cycle first, then swap
    expected = tuple(swap[cycle[p]] for p in range(3))
    assert holonomy(b, (1, 2)) == expected


def test_holonomy_is_homomorphism_on_concatenation():
    b = flat_bundle(trivial_gset(3), ((1, 2, 0), (1, 0, 2)))
    words = [(), (1,), (2,), (1, 2), (-1, 2), (2, 2, -1)]
    for u in words:
        for v in words:
            combined = holonomy(b, u + v)
            after = holonomy(b, v)
            before = holonomy(b, u)
            assert combined == tuple(after[p] for p in before)


def test_winding_cube_has_identity_orbit_permutation():
    b = finite_winding_bundle(Z2, 3)
    h = holonomy(b, (1, 1, 1))
    assert induced_orbit_map(b.fiber, b.fiber, h) == (0, 1, 2)


def test_holonomy_of_a_word_dense_in_inverse_letters_matches_a_per_letter_fold(monkeypatch):
    b = flat_bundle(trivial_gset(5), ((1, 2, 0, 3, 4), (0, 1, 3, 4, 2), (4, 0, 1, 2, 3)))
    word = tuple(itertools.islice(itertools.cycle((-1, -2, 3, -3, -1, -2, -2, 1)), 301))
    table = tuple(range(5))
    for letter in word:
        value = b.clutching[abs(letter) - 1]
        if letter < 0:
            value = perm_inverse(value)
        table = tuple(value[p] for p in table)
    inverted = []
    monkeypatch.setattr(bundles, "perm_inverse", lambda t: inverted.append(t) or perm_inverse(t))
    assert holonomy(b, word) == table
    assert sorted(inverted) == sorted(b.clutching)  # each loop read backwards, once


def test_holonomy_rejects_bad_letters():
    b = finite_winding_bundle(Z2, 2)
    with pytest.raises(ValueError):
        holonomy(b, (0,))
    with pytest.raises(ValueError):
        holonomy(b, (2,))


# ---------------------------------------------------------------- symmetric actions


def natural_action(n):
    perms = list(itertools.permutations(range(n)))
    return {s: s for s in perms}


def conjugated_action(n, tau):
    tau_inv = [0] * n
    for x, y in enumerate(tau):
        tau_inv[y] = x
    perms = list(itertools.permutations(range(n)))
    return {s: tuple(tau[s[tau_inv[a]]] for a in range(n)) for s in perms}


def test_sn_labelling_natural_is_identity():
    assert sn_labelling(3, natural_action(3)) == (0, 1, 2)


def test_sn_labelling_recovers_conjugator():
    for n in (3, 4):
        for tau in itertools.permutations(range(n)):
            beta = sn_labelling(n, conjugated_action(n, tau))
            # beta sends a_i = tau(i) back to i
            assert tuple(beta[tau[i]] for i in range(n)) == tuple(range(n))


def test_sn_labelling_too_small():
    with pytest.raises(TooSmall):
        sn_labelling(2, {s: s for s in itertools.permutations(range(2))})


def test_sn_labelling_rejects_unfaithful():
    perms = list(itertools.permutations(range(3)))
    collapsed = {s: (0, 1, 2) for s in perms}
    with pytest.raises((NotFaithful, ValueError)):
        sn_labelling(3, collapsed)


def _powers(s):
    """s, s^2, ... up to the identity."""
    out = [s]
    while out[-1] != tuple(range(len(s))):
        out.append(perm_compose(s, out[-1]))
    return out


def exotic_s6_action():
    """S6 on the six left cosets of a transitive copy H of S5: the image of S5
    acting by conjugation on its six Sylow 5-subgroups."""
    s5 = list(itertools.permutations(range(5)))
    sylows = sorted({frozenset(_powers(s)) for s in s5 if len(_powers(s)) == 5}, key=sorted)
    index = {P: i for i, P in enumerate(sylows)}
    H = {tuple(index[frozenset(perm_compose(perm_compose(s, c), perm_inverse(s)) for c in P)]
               for P in sylows) for s in s5}
    coset_of, reps = {}, []
    for g in itertools.permutations(range(6)):
        if g not in coset_of:
            coset_of.update((perm_compose(g, h), len(reps)) for h in H)
            reps.append(g)
    assert len(H) == 120 and len(reps) == 6
    return {s: tuple(coset_of[perm_compose(s, g)] for g in reps) for s in coset_of}


def test_sn_labelling_refuses_the_faithful_exotic_action_of_s6():
    # each natural point stabilizer S5 acts transitively on the cosets of H,
    # so it fixes no point and no equivariant labelling exists
    action = exotic_s6_action()
    identity = tuple(range(6))
    assert [s for s, value in action.items() if value == identity] == [identity]
    with pytest.raises(Obstruction) as refusal:
        sn_labelling(6, action)
    assert not isinstance(refusal.value, NotFaithful)
    assert str(refusal.value) == "stabilizer of 0 does not fix a unique point"


def test_sn_action_on_trivial_covering():
    b = flat_bundle(trivial_gset(3), ((0, 1, 2),))
    res = sn_action_on_bundle(b)
    assert res.ok


def test_sn_action_obstruction_on_connected_cover():
    b = quotient_bundle(finite_winding_bundle(Z3, 3))
    res = sn_action_on_bundle(b)
    assert not res.ok
    assert res.obstruction_generator == 1
    assert res.obstruction_permutation == (1, 2, 0)


def test_sn_action_rejects_small_fibers():
    b = quotient_bundle(finite_winding_bundle(Z2, 2))
    with pytest.raises(TooSmall):
        sn_action_on_bundle(b)


def test_sn_action_rejects_non_covering():
    b = finite_winding_bundle(Z2, 3)
    with pytest.raises(ModeMismatch):
        sn_action_on_bundle(b)


def test_frame_side_of_winding_z600_peaks_under_1_mib():
    # a division reads one column of the action, so the frames, the clutching
    # element and the component count of G x I_1 hold no |G| x |G| table
    b = finite_winding_bundle(make_cyclic(600), 1)
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fs = enumerate_frames(b.fiber)
        (w,) = clutching_wreath(b, fs.frames[0])
        count = frame_components(b)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert (w.g_tuple, w.sigma, count) == ((0,), (0,), 600)
    assert peak < 2**20, f"{peak / 2**20:.1f} MiB"
