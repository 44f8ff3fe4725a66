import itertools

import pytest

from framebundles.bundles import (
    FlatBundle,
    bundle_isomorphic,
    canonical_frame,
    clutching_wreath,
    components,
    finite_winding_bundle,
    flat_bundle,
    frame_bundle,
    group_bundle_over_circle,
    holonomy,
    is_trivializable,
    map_fiber_count,
    quotient_bundle,
    quotient_map,
    sn_action_on_bundle,
    sn_labelling,
    total_components,
    unit_component_is_circle,
)
from framebundles.errors import ModeMismatch, NotFaithful, TooSmall
from framebundles.frames import (
    WreathElement,
    enumerate_frames,
    frame_functor_map,
    wreath_act,
    wreath_identity,
    wreath_inv,
    wreath_mul,
)
from framebundles.groups import (
    automorphisms,
    group_hom,
    identity_hom,
    make_cyclic,
    make_direct_product,
)
from framebundles.gset_aut import wreath_to_aut
from table_oracles import aut_table

from framebundles.gsets import (
    EquivariantMap,
    equivariant_map,
    induced_orbit_map,
    orbits,
    semitorsor_point,
    standard_semitorsor,
    trivial_gset,
)

Z2 = make_cyclic(2)
Z3 = make_cyclic(3)
KLEIN = make_direct_product(Z2, Z2)


def z3_bundles():
    auts = automorphisms(Z3)
    return [group_bundle_over_circle(Z3, h) for h in auts]


# ---------------------------------------------------------------- group bundles


def test_group_bundle_rejects_non_automorphism():
    const = group_hom(Z3, Z3, [0, 0, 0])
    with pytest.raises(ValueError):
        group_bundle_over_circle(Z3, const)


def test_z3_component_counts():
    trivial, twisted = z3_bundles()
    assert total_components(trivial) == 3
    assert total_components(twisted) == 2


def test_component_members_come_in_ascending_order():
    # 0 -> 2 -> 1: the points are found in the order 0, 2, 1
    fiber = trivial_gset(3)
    cycle = EquivariantMap(fiber, fiber, identity_hom(fiber.group), (2, 0, 1))
    assert components(flat_bundle(fiber, (cycle,))) == ((0, 1, 2),)


def test_z3_twisted_orbit_partition():
    _, twisted = z3_bundles()
    assert components(twisted) == ((0,), (1, 2))


def test_unit_component_is_circle():
    for b in z3_bundles():
        assert unit_component_is_circle(b)
    gspace = finite_winding_bundle(Z2, 2)
    with pytest.raises(ModeMismatch):
        unit_component_is_circle(gspace)


def test_klein_four_classes_give_4_3_2_components():
    auts = automorphisms(KLEIN)
    from framebundles.groups import conjugacy_classes

    counts = []
    for cls in conjugacy_classes(aut_table(KLEIN)):
        rep = auts[cls[0]]
        counts.append(total_components(group_bundle_over_circle(KLEIN, rep)))
    assert counts == [4, 3, 2]


def test_klein_transposition_pairs_two_elements():
    # the swapped pair forms a single circle, the fixed elements their own
    auts = automorphisms(KLEIN)
    transposition = next(
        h for h in auts if sorted(h.image) == [0, 1, 2, 3] and
        sum(h.image[a] != a for a in range(4)) == 2
    )
    b = group_bundle_over_circle(KLEIN, transposition)
    sizes = sorted(len(c) for c in components(b))
    assert sizes == [1, 1, 2]


# ---------------------------------------------------------------- isomorphism


def test_bundle_isomorphic_reflexive():
    for b in z3_bundles():
        assert bundle_isomorphic(b, b)


def test_klein_transpositions_are_isomorphic():
    auts = automorphisms(KLEIN)
    transpositions = [
        h for h in auts if sum(h.image[a] != a for a in range(4)) == 2
    ]
    assert len(transpositions) == 3
    b0 = group_bundle_over_circle(KLEIN, transpositions[0])
    for h in transpositions[1:]:
        assert bundle_isomorphic(b0, group_bundle_over_circle(KLEIN, h))


def test_klein_different_classes_not_isomorphic():
    auts = automorphisms(KLEIN)
    transposition = next(h for h in auts if sum(h.image[a] != a for a in range(4)) == 2)
    three_cycle = next(h for h in auts if sum(h.image[a] != a for a in range(4)) == 3)
    b1 = group_bundle_over_circle(KLEIN, transposition)
    b2 = group_bundle_over_circle(KLEIN, three_cycle)
    assert not bundle_isomorphic(b1, b2)


def test_z3_trivial_vs_twisted():
    trivial, twisted = z3_bundles()
    assert not bundle_isomorphic(trivial, twisted)
    assert total_components(trivial) != total_components(twisted)


def test_components_invariant_under_isomorphism():
    auts = automorphisms(KLEIN)
    for h1 in auts:
        for h2 in auts:
            b1 = group_bundle_over_circle(KLEIN, h1)
            b2 = group_bundle_over_circle(KLEIN, h2)
            if bundle_isomorphic(b1, b2):
                assert total_components(b1) == total_components(b2)


def test_mode_mismatch_rejected():
    b1 = z3_bundles()[0]
    b2 = finite_winding_bundle(Z3, 1)
    with pytest.raises(ModeMismatch):
        bundle_isomorphic(b1, b2)


# ---------------------------------------------------------------- trivializability


def test_trivializable_cases():
    trivial, twisted = z3_bundles()
    assert is_trivializable(trivial)
    assert not is_trivializable(twisted)

    fiber = trivial_gset(2)
    ident = EquivariantMap(fiber, fiber, identity_hom(fiber.group), (0, 1))
    swap = EquivariantMap(fiber, fiber, identity_hom(fiber.group), (1, 0))
    two_loops = flat_bundle(fiber, (ident, swap), mode="gspace")
    assert not is_trivializable(two_loops)
    assert is_trivializable(flat_bundle(fiber, (ident, ident), mode="gspace"))


# ---------------------------------------------------------------- decomposition


def test_quotient_of_torsor_bundle_is_a_point():
    fiber = standard_semitorsor(Z3, 1)
    neg = wreath_to_aut(WreathElement(Z3, (1,), (0,)))
    b = flat_bundle(fiber, (neg,), mode="gspace")
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
    ident = EquivariantMap(fiber, fiber, identity_hom(Z2), tuple(range(fiber.size)))
    b = flat_bundle(fiber, (ident,), mode="gspace")
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
            assert qa.value == induced_orbit_map(a)


def _mixed_clutching():
    # a bijection of Z2 x I_2 built without the equivariance check: orbit 0 is
    # {0, 2}, and it sends 0 into orbit 0 but 2 into orbit 1
    fiber = standard_semitorsor(Z2, 2)
    return fiber, EquivariantMap(fiber, fiber, identity_hom(Z2), (0, 1, 3, 2))


def test_quotient_refuses_a_clutching_map_that_mixes_orbits():
    # the record is built directly, as flat_bundle refuses the map
    fiber, mixed = _mixed_clutching()
    b = FlatBundle(fiber, 1, (mixed,), "gspace")
    with pytest.raises(ValueError, match="orbit map is not constant on orbits"):
        quotient_bundle(b)


def test_flat_bundle_refuses_a_clutching_map_that_is_not_equivariant():
    fiber, mixed = _mixed_clutching()
    ident = EquivariantMap(fiber, fiber, identity_hom(Z2), tuple(range(fiber.size)))
    with pytest.raises(ValueError, match="clutching 1 is not equivariant"):
        flat_bundle(fiber, (ident, mixed), mode="gspace")


def test_quotient_map_fiber_count_is_group_order():
    for G, k in [(Z2, 2), (Z3, 2), (KLEIN, 3)]:
        b = finite_winding_bundle(G, k)
        assert map_fiber_count(quotient_map(b)) == G.order


def test_map_fiber_count_examples():
    F = standard_semitorsor(Z2, 2)
    from framebundles.gsets import identity_map

    assert map_fiber_count(identity_map(F)) == 1

    z4 = make_cyclic(4)
    F4 = standard_semitorsor(z4, 2)
    F2 = standard_semitorsor(Z2, 2)
    xi = group_hom(z4, Z2, [a % 2 for a in range(4)])
    reduction = equivariant_map(
        F4, F2, xi,
        [semitorsor_point(g % 2, x, 2) for g in range(4) for x in range(2)],
    )
    assert map_fiber_count(reduction) == 2


def test_map_fiber_count_rejects_non_surjective():
    G = Z3
    source = standard_semitorsor(G, 1)
    target = standard_semitorsor(G, 2)
    value = [semitorsor_point(g, 0, 2) for g in range(3)]
    a = equivariant_map(source, target, identity_hom(G), value)
    with pytest.raises(ValueError):
        map_fiber_count(a)


# ---------------------------------------------------------------- winding bundles


def test_winding_k1_is_trivializable():
    assert is_trivializable(finite_winding_bundle(Z2, 1))


def test_winding_total_components_is_group_order():
    # each group level is one cycle through all the sheets
    for G, k in [(Z2, 2), (Z2, 3), (Z3, 2)]:
        b = finite_winding_bundle(G, k)
        comps = components(b)
        assert len(comps) == G.order
        assert all(len(c) == k for c in comps)


def test_winding_nontrivial_for_k_above_one():
    for k in (2, 3):
        assert not is_trivializable(finite_winding_bundle(Z2, k))


# ---------------------------------------------------------------- frame bundles


def test_frame_bundle_of_trivial_clutching_is_trivializable():
    fiber = standard_semitorsor(Z2, 2)
    ident = EquivariantMap(fiber, fiber, identity_hom(Z2), tuple(range(fiber.size)))
    b = flat_bundle(fiber, (ident,), mode="gspace")
    assert is_trivializable(frame_bundle(b))


def test_frame_bundle_winding_components_match_brute_force():
    b = finite_winding_bundle(Z2, 2)
    lifted = frame_bundle(b)
    # oracle: orbit count of the lifted permutation on the raw frame tuples
    fs = enumerate_frames(b.fiber)
    value = b.clutching[0].value
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
    assert total_components(lifted) == 4
    assert lifted.fiber.size == 8


def test_frame_bundle_component_formula():
    # (k-1)! |G|^k components for the k-sheet winding bundle
    import math

    for G, k in [(Z2, 2), (Z2, 3), (Z3, 2)]:
        lifted = frame_bundle(finite_winding_bundle(G, k))
        assert total_components(lifted) == math.factorial(k - 1) * G.order**k


def test_frame_bundle_clutching_is_generatorwise_lift():
    b = finite_winding_bundle(Z2, 2)
    lifted = frame_bundle(b)
    fs = enumerate_frames(b.fiber)
    lift = frame_functor_map(b.clutching[0])
    for i, t in enumerate(fs.frames):
        assert lifted.clutching[0].value[i] == fs.index[lift(t)]


def test_frame_bundle_mod_tuple_part_recovers_covering_frames():
    # collapsing the frame bundle by the pure-tuple subgroup leaves the
    # frame bundle of the quotient covering: permutations with lifted cq
    b = finite_winding_bundle(Z2, 2)
    fs = enumerate_frames(b.fiber)
    part = orbits(b.fiber)
    value = b.clutching[0].value

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
    qlift = frame_functor_map(q.clutching[0])
    for t in qfs.frames:
        assert induced[t] == qlift(t)


# ---------------------------------------------------------------- clutching in the wreath group


def test_clutching_wreath_of_identity_bundle():
    fiber = standard_semitorsor(Z2, 2)
    ident = EquivariantMap(fiber, fiber, identity_hom(Z2), tuple(range(fiber.size)))
    b = flat_bundle(fiber, (ident,), mode="gspace")
    ws = clutching_wreath(b, canonical_frame(b))
    assert ws == [wreath_identity(Z2, 2)]


def test_winding_clutching_wreath_is_pure_cycle():
    for G, k in [(Z2, 2), (Z3, 3)]:
        b = finite_winding_bundle(G, k)
        w = clutching_wreath(b, canonical_frame(b))[0]
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
    w = clutching_wreath(b, canonical_frame(b))[0]
    assert w.g_tuple == (0, 0)
    assert w.sigma == (1, 0)


def test_clutching_wreath_conjugation_covariance():
    b = finite_winding_bundle(Z2, 2)
    fs = enumerate_frames(b.fiber)
    base = canonical_frame(b)
    w_base = clutching_wreath(b, base)[0]
    from framebundles.frames import frame_divide

    for ref in fs.frames:
        u = frame_divide(fs, ref, base)
        expected = wreath_mul(wreath_mul(u, w_base), wreath_inv(u))
        assert clutching_wreath(b, ref)[0] == expected


def test_clutching_wreath_reproduces_clutching_action():
    b = finite_winding_bundle(Z3, 2)
    F = b.fiber
    ref = canonical_frame(b)
    w = clutching_wreath(b, ref)[0]
    moved = tuple(b.clutching[0].value[p] for p in ref)
    assert wreath_act(F, w, ref) == moved


# ---------------------------------------------------------------- holonomy


def test_holonomy_empty_word_is_identity():
    b = finite_winding_bundle(Z2, 2)
    assert holonomy(b, ()).value == tuple(range(b.fiber.size))


def test_holonomy_cancellation():
    fiber = trivial_gset(3)
    ident = EquivariantMap(fiber, fiber, identity_hom(fiber.group), (0, 1, 2))
    cycle = EquivariantMap(fiber, fiber, identity_hom(fiber.group), (1, 2, 0))
    b = flat_bundle(fiber, (ident, cycle), mode="gspace")
    assert holonomy(b, (2, -2)).value == (0, 1, 2)
    assert holonomy(b, (-2, 2)).value == (0, 1, 2)


def test_holonomy_word_order_first_letter_first():
    fiber = trivial_gset(3)
    ident_h = identity_hom(fiber.group)
    cycle = EquivariantMap(fiber, fiber, ident_h, (1, 2, 0))
    swap = EquivariantMap(fiber, fiber, ident_h, (1, 0, 2))
    b = flat_bundle(fiber, (cycle, swap), mode="gspace")
    # word (1, 2): apply cycle first, then swap
    expected = tuple(swap.value[cycle.value[p]] for p in range(3))
    assert holonomy(b, (1, 2)).value == expected


def test_holonomy_is_homomorphism_on_concatenation():
    fiber = trivial_gset(3)
    ident_h = identity_hom(fiber.group)
    cycle = EquivariantMap(fiber, fiber, ident_h, (1, 2, 0))
    swap = EquivariantMap(fiber, fiber, ident_h, (1, 0, 2))
    b = flat_bundle(fiber, (cycle, swap), mode="gspace")
    words = [(), (1,), (2,), (1, 2), (-1, 2), (2, 2, -1)]
    for u in words:
        for v in words:
            combined = holonomy(b, u + v).value
            after = holonomy(b, v).value
            before = holonomy(b, u).value
            assert combined == tuple(after[p] for p in before)


def test_winding_cube_has_identity_orbit_permutation():
    b = finite_winding_bundle(Z2, 3)
    h = holonomy(b, (1, 1, 1))
    assert induced_orbit_map(h) == (0, 1, 2)


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


def test_sn_action_on_trivial_covering():
    fiber = trivial_gset(3)
    ident = EquivariantMap(fiber, fiber, identity_hom(fiber.group), (0, 1, 2))
    b = flat_bundle(fiber, (ident,), mode="gspace")
    res = sn_action_on_bundle(b)
    assert res.ok
    assert res.action[(1, 0, 2)] == (1, 0, 2)
    assert len(res.action) == 6


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
