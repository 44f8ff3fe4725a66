import itertools

import pytest

import framebundles.gsets as gsets
from framebundles.errors import NotFree
from framebundles.frame_tables import associated_map, gset_homs, wreath_elements
from framebundles.frames import (
    WreathElement,
    enumerate_frames,
    wreath_act,
    wreath_identity,
    wreath_mul,
    wreath_to_aut,
)
from framebundles.groups import make_cyclic, make_direct_product, make_symmetric
from framebundles.gset_aut import (
    aut_to_wreath,
    autq_component,
    autq_reconstruct,
    section_from_frame,
    ses_report,
)
from framebundles.gsets import (
    divide,
    induced_orbit_map,
    make_gset,
    semitorsor_point,
    standard_semitorsor,
    trivial_gset,
)
from framebundles.perms import perm_compose
from framebundles.suites import run_suite
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
    assert {a for a in auts} == set(itertools.permutations(range(3)))


def test_aut_group_rejects_non_free():
    with pytest.raises(NotFree):
        F = make_gset(Z2, [[0, 1], [0, 1]])
        gset_homs(F, F)


def test_aut_table_realizes_composition():
    F = standard_semitorsor(Z2, 2)
    table, auts = gset_aut_table(F), gset_homs(F, F)
    for i in range(table.order):
        for j in range(table.order):
            composed = perm_compose(auts[i], auts[j])
            assert auts[table.mul[i][j]] == composed


# ---------------------------------------------------------------- cq


def test_cq_identity():
    F = standard_semitorsor(Z2, 3)
    assert induced_orbit_map(F, F, tuple(range(F.size))) == (0, 1, 2)


def test_cq_orbit_swap_is_transposition():
    F = standard_semitorsor(Z2, 2)
    w = WreathElement(Z2, (0, 0), (1, 0))
    psi = wreath_to_aut(w, F)
    assert induced_orbit_map(F, F, psi) == (1, 0)


def test_cq_is_a_homomorphism_onto_sym():
    F = standard_semitorsor(Z2, 2)
    auts = gset_homs(F, F)
    perms = set()
    for a in auts:
        for b in auts:
            composed = perm_compose(a, b)
            c_a, c_b = induced_orbit_map(F, F, a), induced_orbit_map(F, F, b)
            assert induced_orbit_map(F, F, composed) == tuple(c_a[x] for x in c_b)
        perms.add(induced_orbit_map(F, F, a))
    assert perms == set(itertools.permutations(range(2)))


# ---------------------------------------------------------------- sections


def test_section_identity_permutation():
    F = standard_semitorsor(Z3, 2)
    s = section_from_frame(F, identity_frame(Z3, 2), (0, 1))
    assert s == tuple(range(F.size))


def test_section_homomorphism_law_on_three_slots():
    F = standard_semitorsor(Z2, 3)
    frame = identity_frame(Z2, 3)
    perms = list(itertools.permutations(range(3)))
    for s in perms:
        for t in perms:
            st = tuple(s[t[x]] for x in range(3))
            lhs = perm_compose(
                section_from_frame(F, frame, s), section_from_frame(F, frame, t)
            )
            assert lhs == section_from_frame(F, frame, st)


def test_cq_of_section_is_identity_on_section_frames():
    for G, n in [(Z2, 2), (Z3, 2), (Z2, 3)]:
        F = standard_semitorsor(G, n)
        frame = identity_frame(G, n)
        for sigma in itertools.permutations(range(n)):
            assert induced_orbit_map(F, F, section_from_frame(F, frame, sigma)) == sigma


def test_section_moves_frame_points():
    F = standard_semitorsor(Z2, 2)
    frame = identity_frame(Z2, 2)
    s = section_from_frame(F, frame, (1, 0))
    for h in range(2):
        for x in range(2):
            assert s[F.act[h][frame[x]]] == F.act[h][frame[1 - x]]


# ---------------------------------------------------------------- orbit-preserving part


def test_autq_component_of_identity():
    F = standard_semitorsor(Z2, 2)
    assert autq_component(F, tuple(range(F.size)), identity_frame(Z2, 2)) == (0, 0)


def test_autq_component_round_trip():
    F = standard_semitorsor(Z4, 2)
    frame = identity_frame(Z4, 2)
    for tup in itertools.product(range(4), repeat=2):
        psi = autq_reconstruct(F, frame, tup)
        assert induced_orbit_map(F, F, psi) == (0, 1)
        assert autq_component(F, psi, frame) == tup


def test_autq_component_is_homomorphism():
    F = standard_semitorsor(Z4, 2)
    frame = identity_frame(Z4, 2)
    tuples = list(itertools.product(range(4), repeat=2))
    for t1 in tuples:
        for t2 in tuples:
            p1, p2 = autq_reconstruct(F, frame, t1), autq_reconstruct(F, frame, t2)
            composed = perm_compose(p1, p2)
            expected = tuple(Z4.mul[a][b] for a, b in zip(t1, t2))
            assert autq_component(F, composed, frame) == expected


def test_autq_component_rejects_orbit_movers():
    F = standard_semitorsor(Z2, 2)
    swap = wreath_to_aut(WreathElement(Z2, (0, 0), (1, 0)), F)
    with pytest.raises(ValueError):
        autq_component(F, swap, identity_frame(Z2, 2))


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
                comp = autq_component(F, psi, other)
                expected = tuple(
                    G.mul[G.mul[h[x]][tup[x]]][G.inv[h[x]]] for x in range(n)
                )
                assert comp == expected


# ---------------------------------------------------------------- wreath iso


def test_wreath_to_aut_identity():
    psi = wreath_to_aut(wreath_identity(Z2, 2), standard_semitorsor(Z2, 2))
    assert psi == tuple(range(4))


def test_wreath_to_aut_refuses_a_carrier_that_is_not_g_x_i_n():
    # free with two Z2 orbits, {0, 1} and {2, 3}: the size of Z2 x I_2, not its packing
    F = make_gset(Z2, [(0, 1, 2, 3), (1, 0, 3, 2)])
    swap = WreathElement(Z2, (0, 0), (1, 0))
    with pytest.raises(ValueError, match="carrier is not the semi-torsor G x I_n"):
        wreath_to_aut(swap, F)
    with pytest.raises(ValueError, match="carrier is not the semi-torsor G x I_n"):
        aut_to_wreath(F, tuple(range(F.size)))
    with pytest.raises(ValueError, match="does not match the target semi-torsor"):
        wreath_to_aut(swap, standard_semitorsor(Z2, 3))
    assert [standard_semitorsor(Z3, n).semitorsor_orbits for n in (1, 2, 3)] == [1, 2, 3]
    assert trivial_gset(3).semitorsor_orbits == 3
    with pytest.raises(ValueError):
        make_gset(Z2, [(0, 1), (0, 1)]).semitorsor_orbits  # |Z2| points, Z2 acts trivially


def _count_standard_semitorsor(monkeypatch) -> list:
    calls = []
    build = gsets.standard_semitorsor

    def counted(G, n):
        calls.append((G.label, n))
        return build(G, n)

    monkeypatch.setattr(gsets, "standard_semitorsor", counted)
    return calls


def test_the_carrier_check_runs_once_per_group_set_and_a_failure_each_time(monkeypatch):
    calls = _count_standard_semitorsor(monkeypatch)
    F = standard_semitorsor(Z3, 2)
    assert [F.semitorsor_orbits for _ in range(3)] == [2, 2, 2]
    assert len(calls) == 1
    scrambled = make_gset(Z2, [(0, 1, 2, 3), (3, 2, 1, 0)])
    for _ in range(3):
        with pytest.raises(ValueError, match="carrier is not the semi-torsor G x I_n"):
            scrambled.semitorsor_orbits
    assert len(calls) == 4


def test_wreath_iso_builds_the_standard_semitorsor_a_bounded_number_of_times(monkeypatch):
    # Z2xZ2 wr I_3 has 384 elements, each mapped to Aut(F) and back
    calls = _count_standard_semitorsor(monkeypatch)
    report = run_suite("wreath-iso", group_name="z2xz2", orbit_count=3)
    assert report.ok
    assert len(calls) <= 2


def test_wreath_to_aut_pure_tuple_right_translates():
    G = Z3
    w = WreathElement(G, (1, 2), (0, 1))
    psi = wreath_to_aut(w, standard_semitorsor(G, 2))
    for g in range(3):
        for x in range(2):
            expected = semitorsor_point(G.mul[g][G.inv[w.g_tuple[x]]], x, 2)
            assert psi[semitorsor_point(g, x, 2)] == expected


def test_wreath_to_aut_homomorphism_64_pairs():
    elements, F = wreath_elements(Z2, 2), standard_semitorsor(Z2, 2)
    images = {w: wreath_to_aut(w, F) for w in elements}
    count = 0
    for a in elements:
        for b in elements:
            lhs = images[wreath_mul(a, b)]
            rhs = tuple(images[a][x] for x in images[b])
            assert lhs == rhs
            count += 1
    assert count == 64


def test_wreath_to_aut_bijective():
    elements, F = wreath_elements(Z3, 2), standard_semitorsor(Z3, 2)
    tables = {wreath_to_aut(w, F) for w in elements}
    assert len(tables) == len(elements) == 18
    auts = gset_homs(F, F)
    assert tables == set(auts)


def test_aut_to_wreath_round_trips():
    F = standard_semitorsor(Z2, 2)
    for w in wreath_elements(Z2, 2):
        assert aut_to_wreath(F, wreath_to_aut(w, F)) == w
    for a in gset_homs(F, F):
        assert wreath_to_aut(aut_to_wreath(F, a), F) == a


def test_aut_to_wreath_identity():
    F = standard_semitorsor(Z2, 2)
    assert aut_to_wreath(F, tuple(range(F.size))) == wreath_identity(Z2, 2)


def test_aut_to_wreath_composition_tuple_law():
    # the group tuple of a composite follows the wreath multiplication
    G = make_symmetric(3)
    wg_elements = [
        WreathElement(G, g, s)
        for g in itertools.product(range(6), repeat=2)
        for s in itertools.permutations(range(2))
    ]
    sample = wg_elements[:: max(1, len(wg_elements) // 24)]
    F = standard_semitorsor(G, 2)
    for w1 in sample:
        for w2 in sample:
            p1 = wreath_to_aut(w1, F)
            p2 = wreath_to_aut(w2, F)
            composed = perm_compose(p1, p2)
            assert aut_to_wreath(F, composed) == wreath_mul(w1, w2)


def test_cq_of_wreath_to_aut_is_sigma():
    F = standard_semitorsor(Z3, 2)
    for w in wreath_elements(Z3, 2):
        assert induced_orbit_map(F, F, wreath_to_aut(w, F)) == w.sigma


def test_pairing_invariance():
    # phi_{w.t}(psi_w(p)) = phi_t(p) for all frames, wreath elements, points
    G = Z2
    n = 2
    F = standard_semitorsor(G, n)
    fs = enumerate_frames(F)
    for w in wreath_elements(G, n):
        psi = wreath_to_aut(w, F)
        for t in fs.frames:
            moved = wreath_act(F, w, t)
            phi_t = associated_map(F, t)
            phi_moved = associated_map(F, moved)
            for p in range(F.size):
                assert phi_moved[psi[p]] == phi_t[p]


def test_counteracting_map_is_frame_independent():
    # psi_w computed as phi_{w.t}^-1 . phi_t does not depend on t
    from framebundles.frame_tables import associated_map_inverse

    G = Z3
    F = standard_semitorsor(G, 2)
    fs = enumerate_frames(F)
    for w in wreath_elements(G, 2)[:: 6]:
        expected = None
        for t in fs.frames:
            moved = wreath_act(F, w, t)
            inv_moved = associated_map_inverse(F, moved)
            phi_t = associated_map(F, t)
            table = tuple(inv_moved[phi_t[p]] for p in range(F.size))
            if expected is None:
                expected = table
            assert table == expected
        assert expected == wreath_to_aut(w, F)


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
