import itertools

import pytest

from framebundles.errors import NotFree
from framebundles.frames import (
    WreathElement,
    associated_map,
    enumerate_frames,
    gset_homs,
    wreath_act,
    wreath_elements,
    wreath_identity,
    wreath_mul,
)
from framebundles.groups import make_cyclic, make_direct_product, make_symmetric
from framebundles.gset_aut import (
    aut_to_wreath,
    autq_component,
    autq_reconstruct,
    section_from_frame,
    ses_report,
    wreath_to_aut,
)
from framebundles.gsets import (
    compose_equivariant,
    divide,
    identity_map,
    induced_orbit_map,
    make_gset,
    semitorsor_orbit_count,
    semitorsor_point,
    standard_semitorsor,
    trivial_gset,
)
from table_oracles import gset_aut_table, is_abelian

Z2 = make_cyclic(2)
Z3 = make_cyclic(3)
Z4 = make_cyclic(4)


def identity_frame(G, n):
    return tuple(semitorsor_point(G.identity, x, n) for x in range(n))


# ---------------------------------------------------------------- Aut(F)


def test_aut_of_abelian_torsor_is_the_group():
    table = gset_aut_table(standard_semitorsor(Z4, 1))
    assert table.order == 4
    assert is_abelian(table)


def test_aut_of_z2_two_orbits_has_order_eight():
    table = gset_aut_table(standard_semitorsor(Z2, 2))
    assert table.order == 8
    table.validate()


def test_aut_of_plain_three_point_set_is_s3():
    auts = gset_homs(trivial_gset(3), trivial_gset(3))
    table = gset_aut_table(trivial_gset(3))
    assert table.order == 6
    assert not is_abelian(table)
    # all bijections of three points appear
    assert {a.value for a in auts} == set(itertools.permutations(range(3)))


def test_aut_group_rejects_non_free():
    with pytest.raises(NotFree):
        F = make_gset(Z2, [[0, 1], [0, 1]])
        gset_homs(F, F)


def test_aut_table_realizes_composition():
    F = standard_semitorsor(Z2, 2)
    table, auts = gset_aut_table(F), gset_homs(F, F)
    for i in range(table.order):
        for j in range(table.order):
            composed = compose_equivariant(auts[i], auts[j])
            assert auts[table.mul[i][j]].value == composed.value


# ---------------------------------------------------------------- cq


def test_cq_identity():
    F = standard_semitorsor(Z2, 3)
    assert induced_orbit_map(identity_map(F)) == (0, 1, 2)


def test_cq_orbit_swap_is_transposition():
    F = standard_semitorsor(Z2, 2)
    w = WreathElement(Z2, (0, 0), (1, 0))
    psi = wreath_to_aut(w)
    assert induced_orbit_map(psi) == (1, 0)


def test_cq_is_a_homomorphism_onto_sym():
    F = standard_semitorsor(Z2, 2)
    auts = gset_homs(F, F)
    perms = set()
    for a in auts:
        for b in auts:
            composed = compose_equivariant(a, b)
            c_a, c_b = induced_orbit_map(a), induced_orbit_map(b)
            assert induced_orbit_map(composed) == tuple(c_a[x] for x in c_b)
        perms.add(induced_orbit_map(a))
    assert perms == set(itertools.permutations(range(2)))


# ---------------------------------------------------------------- sections


def test_section_identity_permutation():
    F = standard_semitorsor(Z3, 2)
    s = section_from_frame(F, identity_frame(Z3, 2), (0, 1))
    assert s.value == tuple(range(F.size))


def test_section_homomorphism_law_on_three_slots():
    F = standard_semitorsor(Z2, 3)
    frame = identity_frame(Z2, 3)
    perms = list(itertools.permutations(range(3)))
    for s in perms:
        for t in perms:
            st = tuple(s[t[x]] for x in range(3))
            lhs = compose_equivariant(
                section_from_frame(F, frame, s), section_from_frame(F, frame, t)
            )
            assert lhs.value == section_from_frame(F, frame, st).value


def test_cq_of_section_is_identity_on_section_frames():
    for G, n in [(Z2, 2), (Z3, 2), (Z2, 3)]:
        F = standard_semitorsor(G, n)
        frame = identity_frame(G, n)
        for sigma in itertools.permutations(range(n)):
            assert induced_orbit_map(section_from_frame(F, frame, sigma)) == sigma


def test_section_moves_frame_points():
    F = standard_semitorsor(Z2, 2)
    frame = identity_frame(Z2, 2)
    s = section_from_frame(F, frame, (1, 0))
    for h in range(2):
        for x in range(2):
            assert s.value[F.act[h][frame[x]]] == F.act[h][frame[1 - x]]


# ---------------------------------------------------------------- orbit-preserving part


def test_autq_component_of_identity():
    F = standard_semitorsor(Z2, 2)
    assert autq_component(identity_map(F), identity_frame(Z2, 2)) == (0, 0)


def test_autq_component_round_trip():
    F = standard_semitorsor(Z4, 2)
    frame = identity_frame(Z4, 2)
    for tup in itertools.product(range(4), repeat=2):
        psi = autq_reconstruct(F, frame, tup)
        assert induced_orbit_map(psi) == (0, 1)
        assert autq_component(psi, frame) == tup


def test_autq_component_is_homomorphism():
    F = standard_semitorsor(Z4, 2)
    frame = identity_frame(Z4, 2)
    tuples = list(itertools.product(range(4), repeat=2))
    for t1 in tuples:
        for t2 in tuples:
            p1, p2 = autq_reconstruct(F, frame, t1), autq_reconstruct(F, frame, t2)
            composed = compose_equivariant(p1, p2)
            expected = tuple(Z4.mul[a][b] for a, b in zip(t1, t2))
            assert autq_component(composed, frame) == expected


def test_autq_component_rejects_orbit_movers():
    F = standard_semitorsor(Z2, 2)
    swap = wreath_to_aut(WreathElement(Z2, (0, 0), (1, 0)))
    with pytest.raises(ValueError):
        autq_component(swap, identity_frame(Z2, 2))


def test_autq_basis_change_covariance():
    # changing the frame by h conjugates each component by h_x,
    # on an abelian and a nonabelian fixture
    for G in [Z4, make_symmetric(3)]:
        n = 2
        F = standard_semitorsor(G, n)
        base = identity_frame(G, n)
        for tup in itertools.product(range(G.order), repeat=n):
            psi = autq_reconstruct(F, base, tup)
            for h in itertools.product(range(G.order), repeat=n):
                other = tuple(F.act[h[x]][base[x]] for x in range(n))
                comp = autq_component(psi, other)
                expected = tuple(
                    G.mul[G.mul[h[x]][tup[x]]][G.inv[h[x]]] for x in range(n)
                )
                assert comp == expected


# ---------------------------------------------------------------- wreath iso


def test_wreath_to_aut_identity():
    psi = wreath_to_aut(wreath_identity(Z2, 2))
    assert psi.value == tuple(range(4))


def test_wreath_to_aut_refuses_a_carrier_that_is_not_g_x_i_n():
    # free with two Z2 orbits, {0, 1} and {2, 3}: the size of Z2 x I_2, not its packing
    F = make_gset(Z2, [(0, 1, 2, 3), (1, 0, 3, 2)])
    swap = WreathElement(Z2, (0, 0), (1, 0))
    with pytest.raises(ValueError, match="carrier is not the semi-torsor G x I_n"):
        wreath_to_aut(swap, F)
    with pytest.raises(ValueError, match="carrier is not the semi-torsor G x I_n"):
        aut_to_wreath(identity_map(F))
    with pytest.raises(ValueError, match="does not match the target semi-torsor"):
        wreath_to_aut(swap, standard_semitorsor(Z2, 3))
    assert [semitorsor_orbit_count(standard_semitorsor(Z3, n)) for n in (1, 2, 3)] == [1, 2, 3]
    assert semitorsor_orbit_count(trivial_gset(3)) == 3
    with pytest.raises(ValueError):
        semitorsor_orbit_count(make_gset(Z2, [(0, 1), (0, 1)]))  # |Z2| points, Z2 acts trivially


def test_wreath_to_aut_pure_tuple_right_translates():
    G = Z3
    w = WreathElement(G, (1, 2), (0, 1))
    psi = wreath_to_aut(w)
    for g in range(3):
        for x in range(2):
            expected = semitorsor_point(G.mul[g][G.inv[w.g_tuple[x]]], x, 2)
            assert psi.value[semitorsor_point(g, x, 2)] == expected


def test_wreath_to_aut_homomorphism_64_pairs():
    elements = wreath_elements(Z2, 2)
    images = {w: wreath_to_aut(w) for w in elements}
    count = 0
    for a in elements:
        for b in elements:
            lhs = images[wreath_mul(a, b)].value
            rhs = tuple(images[a].value[x] for x in images[b].value)
            assert lhs == rhs
            count += 1
    assert count == 64


def test_wreath_to_aut_bijective():
    elements = wreath_elements(Z3, 2)
    tables = {wreath_to_aut(w).value for w in elements}
    assert len(tables) == len(elements) == 18
    auts = gset_homs(standard_semitorsor(Z3, 2), standard_semitorsor(Z3, 2))
    assert tables == {a.value for a in auts}


def test_aut_to_wreath_round_trips():
    for w in wreath_elements(Z2, 2):
        assert aut_to_wreath(wreath_to_aut(w)) == w
    auts = gset_homs(standard_semitorsor(Z2, 2), standard_semitorsor(Z2, 2))
    for a in auts:
        assert wreath_to_aut(aut_to_wreath(a)).value == a.value


def test_aut_to_wreath_identity():
    F = standard_semitorsor(Z2, 2)
    assert aut_to_wreath(identity_map(F)) == wreath_identity(Z2, 2)


def test_aut_to_wreath_composition_tuple_law():
    # the group tuple of a composite follows the wreath multiplication
    G = make_symmetric(3)
    wg_elements = [
        WreathElement(G, g, s)
        for g in itertools.product(range(6), repeat=2)
        for s in itertools.permutations(range(2))
    ]
    sample = wg_elements[:: max(1, len(wg_elements) // 24)]
    for w1 in sample:
        for w2 in sample:
            p1 = wreath_to_aut(w1)
            p2 = wreath_to_aut(w2)
            composed = compose_equivariant(p1, p2)
            assert aut_to_wreath(composed) == wreath_mul(w1, w2)


def test_cq_of_wreath_to_aut_is_sigma():
    for w in wreath_elements(Z3, 2):
        assert induced_orbit_map(wreath_to_aut(w)) == w.sigma


def test_pairing_invariance():
    # phi_{w.t}(psi_w(p)) = phi_t(p) for all frames, wreath elements, points
    G = Z2
    n = 2
    F = standard_semitorsor(G, n)
    fs = enumerate_frames(F)
    for w in wreath_elements(G, n):
        psi = wreath_to_aut(w)
        for t in fs.frames:
            moved = wreath_act(F, w, t)
            phi_t = associated_map(F, t)
            phi_moved = associated_map(F, moved)
            for p in range(F.size):
                assert phi_moved.value[psi.value[p]] == phi_t.value[p]


def test_counteracting_map_is_frame_independent():
    # psi_w computed as phi_{w.t}^-1 . phi_t does not depend on t
    from framebundles.frames import associated_map_inverse

    G = Z3
    F = standard_semitorsor(G, 2)
    fs = enumerate_frames(F)
    for w in wreath_elements(G, 2)[:: 6]:
        expected = None
        for t in fs.frames:
            moved = wreath_act(F, w, t)
            inv_moved = associated_map_inverse(F, moved)
            phi_t = associated_map(F, t)
            table = tuple(inv_moved.value[phi_t.value[p]] for p in range(F.size))
            if expected is None:
                expected = table
            assert table == expected
        assert expected == wreath_to_aut(w).value


# ---------------------------------------------------------------- SES


def test_ses_torsor_case():
    r = ses_report(standard_semitorsor(Z3, 1))
    assert r.aut_order == 3
    assert r.autq_order == 3
    assert r.sym_order == 1
    assert r.ok


def test_ses_z2_two_orbits():
    r = ses_report(standard_semitorsor(Z2, 2))
    assert (r.aut_order, r.autq_order, r.sym_order) == (8, 4, 2)
    assert r.ok


def test_ses_trivial_group_three_points():
    r = ses_report(trivial_gset(3))
    assert (r.aut_order, r.autq_order, r.sym_order) == (6, 1, 6)
    assert r.ok


def test_ses_records_the_section_frame():
    F = standard_semitorsor(Z2, 2)
    r = ses_report(F)
    assert r.section_frame == enumerate_frames(F).frames[0]


def test_ses_rejects_non_free():
    with pytest.raises(NotFree):
        ses_report(make_gset(Z2, [[0, 1], [0, 1]]))
