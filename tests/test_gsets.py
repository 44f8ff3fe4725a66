import pytest

from framebundles.errors import NoQuotient, NotFree
from framebundles.groups import identity_hom, make_cyclic, make_direct_product, make_symmetric
from framebundles.gsets import (
    GSet,
    check_equivariant,
    divide,
    division_table,
    equivariant_map,
    induced_orbit_map,
    is_free,
    is_orbit_bijection,
    make_gset,
    semitorsor_coords,
    semitorsor_point,
    standard_semitorsor,
    trivial_gset,
)
from framebundles.perms import perm_compose
from framebundles.suites import fixture_groups
from table_oracles import hom


def left_translation_gset(G):
    return make_gset(G, [[G.mul[g][h] for h in range(G.order)] for g in range(G.order)])


def brute_orbits(F):
    # oracle: repeated unions until stable, no BFS machinery shared with the library
    classes = []
    remaining = set(range(F.size))
    while remaining:
        seed = min(remaining)
        orbit = {seed}
        changed = True
        while changed:
            changed = False
            for g in range(F.group.order):
                for p in list(orbit):
                    q = F.act[g][p]
                    if q not in orbit:
                        orbit.add(q)
                        changed = True
        classes.append(frozenset(orbit))
        remaining -= orbit
    return classes


def test_orbits_trivial_group():
    F = trivial_gset(4)
    part = F.orbit_partition
    assert len(part.members) == 4
    assert part.orbit_of == (0, 1, 2, 3)


def test_orbits_left_translation_single_orbit():
    F = left_translation_gset(make_cyclic(3))
    assert len(F.orbit_partition.members) == 1


def test_orbits_standard_semitorsor_against_oracle():
    F = standard_semitorsor(make_cyclic(2), 3)
    part = F.orbit_partition
    assert len(part.members) == 3
    oracle = brute_orbits(F)
    assert len(oracle) == 3
    assert all(len(c) == 2 for c in oracle)
    for c in oracle:
        assert len({part.orbit_of[p] for p in c}) == 1


def test_orbit_indices_follow_smallest_representative():
    F = standard_semitorsor(make_cyclic(3), 2)
    part = F.orbit_partition
    assert tuple(m[0] for m in part.members) == (0, 1)
    assert part.orbit_of[semitorsor_point(2, 1, 2)] == 1


def test_free_transitive_semitorsor_flags():
    G = make_cyclic(4)
    torsor = left_translation_gset(G)
    assert is_free(torsor) and len(torsor.orbit_partition.members) == 1

    one_point = make_gset(make_cyclic(2), [[0], [0]])
    assert not is_free(one_point)
    assert len(one_point.orbit_partition.members) == 1

    F = standard_semitorsor(make_cyclic(3), 2)
    assert is_free(F) and len(F.orbit_partition.members) == 2


def test_standard_semitorsor_shapes():
    z2 = make_cyclic(2)
    assert standard_semitorsor(z2, 1).size == 2
    F = standard_semitorsor(z2, 3)
    assert F.size == 6
    assert len(F.orbit_partition.members) == 3
    fixed = standard_semitorsor(make_cyclic(1), 4)
    assert all(fixed.act[0][p] == p for p in range(4))


def test_divide_examples():
    G = make_cyclic(4)
    F = left_translation_gset(G)
    assert divide(F, 2, 2) == 0
    assert divide(F, 3, 1) == 2  # oracle: 2 + 1 = 3 in Z4

    split = standard_semitorsor(make_cyclic(2), 2)
    with pytest.raises(NoQuotient):
        divide(split, semitorsor_point(0, 0, 2), semitorsor_point(0, 1, 2))


def test_divide_rejects_non_free():
    F = make_gset(make_cyclic(2), [[0, 1], [0, 1]])
    with pytest.raises(NotFree, match=r"^division requires a free action$"):
        divide(F, 0, 0)


@pytest.mark.parametrize("f_prime, f", [(0, -1), (-1, 0), (-3, -3), (0, 3), (3, 0), (7, 7)])
def test_divide_refuses_a_point_off_the_carrier(f_prime, f):
    # Z3 acting on itself: one orbit, so a negative point read from the end
    # of a column would land in the orbit of the other point
    F = left_translation_gset(make_cyclic(3))
    with pytest.raises(NoQuotient, match=rf"^points {f_prime} and {f} lie in different orbits$"):
        divide(F, f_prime, f)


def test_divide_refuses_points_of_two_orbits():
    F = standard_semitorsor(make_cyclic(3), 2)
    for f_prime, f in [(semitorsor_point(1, 0, 2), semitorsor_point(0, 1, 2)), (1, 0), (0, 5)]:
        with pytest.raises(NoQuotient,
                           match=rf"^points {f_prime} and {f} lie in different orbits$"):
            divide(F, f_prime, f)


def test_division_table_agrees_with_divide():
    F = standard_semitorsor(make_cyclic(3), 2)
    table = division_table(F)
    for (fp, f), g in table.items():
        assert divide(F, fp, f) == g
        assert F.act[g][f] == fp


def test_division_rules_exhaustive_small():
    G = make_direct_product(make_cyclic(2), make_cyclic(2))
    F = standard_semitorsor(G, 2)
    part = F.orbit_partition
    members = [[p for p in range(F.size) if part.orbit_of[p] == k] for k in range(2)]
    for orbit in members:
        for f1 in orbit:
            for f2 in orbit:
                d = divide(F, f2, f1)
                assert d == G.inv[divide(F, f1, f2)]
                for f in orbit:
                    assert d == G.mul[divide(F, f2, f)][divide(F, f, f1)]
                for g1 in range(G.order):
                    for g2 in range(G.order):
                        assert divide(F, F.act[g2][f2], F.act[g1][f1]) == G.mul[
                            G.mul[g2][d]
                        ][G.inv[g1]]


def test_check_equivariant_identity():
    F = standard_semitorsor(make_cyclic(3), 2)
    assert check_equivariant(F, F, identity_hom(F.group), tuple(range(F.size)))


def test_right_translation_equivariant_when_abelian():
    G = make_cyclic(4)
    F = standard_semitorsor(G, 2)
    c = 3
    value = [
        semitorsor_point(G.mul[g][c], x, 2)
        for g in range(G.order)
        for x in range(2)
    ]
    a = equivariant_map(F, F, identity_hom(G), value)
    assert a == tuple(value)
    assert check_equivariant(F, F, identity_hom(G), a)


def test_broken_map_detected():
    F = standard_semitorsor(make_cyclic(2), 2)
    value = list(range(F.size))
    value[0], value[1] = value[1], value[0]  # swaps two points in different orbits
    assert not check_equivariant(F, F, identity_hom(F.group), tuple(value))
    with pytest.raises(ValueError):
        equivariant_map(F, F, identity_hom(F.group), value)


def fold_map(G):
    """G + G -> G, identity on each copy, as (source, target, value table)."""
    source = standard_semitorsor(G, 2)
    target = standard_semitorsor(G, 1)
    value = [
        semitorsor_point(g, 0, 1) for g in range(G.order) for _ in range(2)
    ]
    return source, target, equivariant_map(source, target, identity_hom(G), value)


def test_induced_orbit_map_identity():
    F = standard_semitorsor(make_cyclic(2), 3)
    assert induced_orbit_map(F, F, tuple(range(F.size))) == (0, 1, 2)


def test_induced_orbit_map_fold_is_two_to_one():
    source, target, a = fold_map(make_cyclic(3))
    assert induced_orbit_map(source, target, a) == (0, 0)
    assert not is_orbit_bijection(source, target, a)


def test_induced_orbit_map_orbit_swap():
    G = make_cyclic(2)
    F = standard_semitorsor(G, 2)
    value = [semitorsor_point(g, 1 - x, 2) for g in range(G.order) for x in range(2)]
    a = equivariant_map(F, F, identity_hom(G), value)
    assert induced_orbit_map(F, F, a) == (1, 0)
    assert is_orbit_bijection(F, F, a)


def test_orbit_square_commutes_for_every_map():
    # q . a = a/ . q as full tables
    G = make_cyclic(3)
    source, target, a = fold_map(G)
    q1, q2 = source.orbit_partition, target.orbit_partition
    table = induced_orbit_map(source, target, a)
    for f in range(source.size):
        assert q2.orbit_of[a[f]] == table[q1.orbit_of[f]]


def test_compose_equivariant_and_xi_composition():
    z4, z2 = make_cyclic(4), make_cyclic(2)
    F4 = standard_semitorsor(z4, 2)
    F2 = standard_semitorsor(z2, 2)
    xi = hom(z4, z2, [a % 2 for a in range(4)])
    reduction = equivariant_map(
        F4,
        F2,
        xi,
        [semitorsor_point(g % 2, x, 2) for g in range(4) for x in range(2)],
    )
    ident4 = identity_hom(z4)
    ident = equivariant_map(F4, F4, ident4, range(F4.size))
    # maps compose as their value tables, and across groups so do their xi
    assert perm_compose(xi, ident4) == xi
    assert equivariant_map(F4, F2, perm_compose(xi, ident4),
                           perm_compose(reduction, ident)) == reduction


def test_equivariant_map_checks_its_homomorphism_table():
    z4, z2 = make_cyclic(4), make_cyclic(2)
    F4, F2 = standard_semitorsor(z4, 1), standard_semitorsor(z2, 1)
    value = [g % 2 for g in range(4)]
    assert equivariant_map(F4, F2, [0, 1, 0, 1], value) == (0, 1, 0, 1)
    # a table of the wrong group, and one that breaks the law
    with pytest.raises(ValueError, match="image table has wrong length"):
        equivariant_map(F4, F2, identity_hom(z2), value)
    with pytest.raises(ValueError, match="homomorphism law fails"):
        equivariant_map(F4, F2, (0, 1, 1, 1), value)


def test_compose_equivariant_composes_identity_and_negation_tables():
    # negation of Z3 acting on itself is equivariant over the automorphism
    # a -> -a; composed with itself it gives the identity map and table
    G = make_cyclic(3)
    F = standard_semitorsor(G, 1)
    neg_xi = hom(G, G, [0, 2, 1])
    neg = equivariant_map(F, F, neg_xi, [0, 2, 1])
    ident, ident_xi = tuple(range(F.size)), identity_hom(G)
    assert perm_compose(ident, ident) == ident
    assert perm_compose(neg_xi, neg_xi) == ident_xi
    assert equivariant_map(F, F, perm_compose(neg_xi, neg_xi), perm_compose(neg, neg)) == ident
    assert perm_compose(neg_xi, ident_xi) == (0, 2, 1)
    assert equivariant_map(F, F, perm_compose(neg_xi, ident_xi), perm_compose(neg, ident)) == neg


def test_bijectivity_of_orbit_maps_for_automorphisms():
    F = standard_semitorsor(make_cyclic(2), 2)
    assert is_orbit_bijection(F, F, tuple(range(F.size)))


def test_semitorsor_coords_round_trip():
    for g in range(3):
        for x in range(4):
            p = semitorsor_point(g, x, 4)
            assert semitorsor_coords(p, 4) == (g, x)


def _cache_fixtures():
    out = [trivial_gset(3)]
    for G in fixture_groups(6):
        out.append(left_translation_gset(G))
        out.append(GSet(G, 2, tuple((0, 1) for _ in range(G.order))))
        for n in (1, 2, 3):
            out.append(standard_semitorsor(G, n))
    # Z4 acting on two points through its quotient Z2: not free
    out.append(make_gset(make_cyclic(4), [[0, 1], [1, 0], [0, 1], [1, 0]]))
    # Z2 on three points: one free orbit and one fixed point, so not free
    out.append(make_gset(make_cyclic(2), [[0, 1, 2], [1, 0, 2]]))
    out.append(coset_gset(make_symmetric(3), 2))
    return out


def coset_gset(G, order):
    """G acting on the left cosets of its first subgroup {e, h} of the given
    order 2, found by brute force (transitive; stabilizers have order 2)."""
    assert order == 2
    h = next(h for h in range(G.order) if h != G.identity and G.mul[h][h] == G.identity)
    H = (G.identity, h)
    cosets = []
    for g in range(G.order):
        c = frozenset(G.mul[g][x] for x in H)
        if c not in cosets:
            cosets.append(c)
    index = {g: i for i, c in enumerate(cosets) for g in c}
    return make_gset(G, [[index[G.mul[g][min(c)]] for c in cosets] for g in range(G.order)])


def test_coset_gset_is_s3_on_three_cosets():
    F = coset_gset(make_symmetric(3), 2)
    assert F.size == 3 and len(brute_orbits(F)) == 1 and not is_free(F)


def test_cached_orbits_and_freeness_match_fresh_computation():
    for F in _cache_fixtures():
        # oracle: every stabilizer is the identity alone
        fresh_free = all(
            sum(F.act[g][f] == f for g in range(F.group.order)) == 1
            for f in range(F.size)
        )
        assert is_free(F) == fresh_free
        q = F.orbit_partition
        assert F.orbit_partition is q
        classes = brute_orbits(F)
        assert len(q.members) == len(classes)
        assert tuple(m[0] for m in q.members) == tuple(min(c) for c in classes)
        for k, c in enumerate(classes):
            assert all(q.orbit_of[f] == k for f in c)
