import argparse
import itertools
import json
import math
import random
import time

import pytest
from hypothesis import given, strategies as st

import framebundles.bundles as bundles
import framebundles.groups as groups
import framebundles.gsets as gsets
from framebundles.cli import cmd_classify_circle
from framebundles.errors import BoundExceeded
from framebundles.frame_tables import gset_homs
from framebundles.groups import (
    FiniteGroup,
    automorphisms,
    check_hom,
    from_mul_table,
    identity_hom,
    make_cyclic,
    make_direct_product,
    make_symmetric,
    permutation_group,
)
from framebundles.perms import cycle_count, first_broken_edge, perm_compose, perm_orbits
from framebundles.aut_search import automorphism_classes, element_orders
from framebundles.gsets import make_gset, standard_semitorsor, trivial_gset
from framebundles.suites import fixture_groups
from table_oracles import (
    LOOP_5,
    alternating5_table,
    associativity_failures,
    aut_table,
    cayley_group,
    conjugacy_classes,
    dihedral_table,
    element_orders_by_walk,
    endomorphisms_brute,
    gset_aut_table,
    hom,
    is_abelian,
    is_isomorphism,
    product_search_automorphisms,
    quaternion_table,
    relabelled,
)


def all_small_groups():
    z2 = make_cyclic(2)
    return [
        make_cyclic(1),
        z2,
        make_cyclic(3),
        make_cyclic(4),
        make_direct_product(z2, z2),
        make_cyclic(6),
        make_symmetric(3),
    ]


def test_make_cyclic_trivial():
    G = make_cyclic(1)
    assert G.order == 1
    assert G.mul == ((0,),)


def test_make_cyclic_three_matches_addition():
    G = make_cyclic(3)
    assert G.mul[1][2] == 0
    assert G.inv[1] == 2


def test_make_cyclic_four_against_direct_table():
    # oracle: the addition table built independently
    expected = tuple(tuple((a + b) % 4 for b in range(4)) for a in range(4))
    assert make_cyclic(4).mul == expected


def test_make_cyclic_rejects_zero():
    with pytest.raises(ValueError):
        make_cyclic(0)


def test_direct_product_klein_four_self_inverse():
    z2 = make_cyclic(2)
    G = make_direct_product(z2, z2)
    assert G.order == 4
    assert all(G.inv[a] == a for a in range(4))


def test_direct_product_with_trivial_is_same_table():
    G = make_cyclic(5)
    P = make_direct_product(make_cyclic(1), G)
    assert P.mul == G.mul


def test_direct_product_z2_z3_has_order_six_element():
    # oracle: element orders computed by repeated multiplication
    G = make_direct_product(make_cyclic(2), make_cyclic(3))
    assert G.order == 6
    assert max(element_orders_by_walk(G)) == 6


def test_make_symmetric_small():
    assert make_symmetric(1).order == 1
    assert make_symmetric(3).order == 6
    S4 = make_symmetric(4)
    assert S4.order == 24
    assert len(conjugacy_classes(S4)) == 5


def test_make_symmetric_bound():
    with pytest.raises(BoundExceeded):
        make_symmetric(9)


def test_make_symmetric_bound_follows_the_table_bound(monkeypatch):
    # 9! = 362,880 is the least factorial past 8! = 40,320, so S10 is refused
    # by its n, not by the order 10! of its table
    monkeypatch.setattr(groups.config, "MAX_TABLE_ORDER", 40_320)
    with pytest.raises(BoundExceeded, match=r"^symmetric group bound is n <= 9$"):
        make_symmetric(10)


def test_group_axioms_exhaustive_on_fixtures():
    for G in all_small_groups():
        G.validate()


def test_from_mul_table_round_trip_and_rejection():
    G = from_mul_table(make_cyclic(3).mul)
    assert G.identity == 0
    bad = [[0, 1], [1, 1]]
    with pytest.raises(ValueError):
        from_mul_table(bad)


def test_automorphisms_z3():
    auts = automorphisms(make_cyclic(3))
    assert auts == [(0, 1, 2), (0, 2, 1)]


def test_automorphisms_klein_four_count():
    z2 = make_cyclic(2)
    assert len(automorphisms(make_direct_product(z2, z2))) == 6


def test_automorphisms_trivial():
    assert len(automorphisms(make_cyclic(1))) == 1


def test_automorphisms_match_brute_force_oracle():
    # independent route: filter bijective maps out of all endomorphisms
    for G in [make_cyclic(4), make_direct_product(make_cyclic(2), make_cyclic(2)),
              make_cyclic(6), make_symmetric(3)]:
        brute = {h for h in endomorphisms_brute(G) if len(set(h)) == G.order}
        assert set(automorphisms(G)) == brute


def test_automorphisms_closed_under_composition_and_contain_identity():
    for G in all_small_groups():
        auts = automorphisms(G)
        images = set(auts)
        assert tuple(range(G.order)) in images
        for f in auts:
            for g in auts:
                assert perm_compose(f, g) in images


def test_aut_group_satisfies_axioms():
    for G in all_small_groups():
        table = aut_table(G)
        table.validate()
        assert table.order == len(automorphisms(G))


def test_aut_group_klein_four_is_s3():
    z2 = make_cyclic(2)
    klein = make_direct_product(z2, z2)
    auts, classes, abelian = automorphism_classes(klein)
    assert len(auts) == 6
    assert sorted(len(c) for c in classes) == [1, 2, 3]
    assert not abelian
    assert not is_abelian(aut_table(klein))


def test_aut_group_table_realizes_composition():
    G = make_symmetric(3)
    table, auts = aut_table(G), automorphisms(G)
    for i in range(table.order):
        for j in range(table.order):
            assert auts[table.mul[i][j]] == perm_compose(auts[i], auts[j])


def test_conjugacy_classes_abelian_singletons():
    G = make_cyclic(6)
    assert all(len(c) == 1 for c in conjugacy_classes(G))


def test_conjugacy_classes_s3_sizes():
    sizes = sorted(len(c) for c in conjugacy_classes(make_symmetric(3)))
    assert sizes == [1, 2, 3]


def test_conjugacy_classes_s4_against_partition_oracle():
    # oracle: orbit partition of the conjugation action, computed directly
    G = make_symmetric(4)
    classes = set()
    for a in range(G.order):
        orbit = frozenset(G.mul[h][G.mul[a][G.inv[h]]] for h in range(G.order))
        classes.add(orbit)
    assert len(classes) == 5
    assert {frozenset(c) for c in conjugacy_classes(G)} == classes


def test_conjugacy_classes_equal_element_orders():
    for G in all_small_groups():
        order_of = element_orders(G)
        for cls in conjugacy_classes(G):
            orders = {order_of[a] for a in cls}
            assert len(orders) == 1


def test_inclusion_z2_in_z4_not_isomorphism():
    z2, z4 = make_cyclic(2), make_cyclic(4)
    incl = hom(z2, z4, [0, 2])
    assert not is_isomorphism(incl, z4)
    assert is_isomorphism(identity_hom(z4), z4)


def test_check_hom_refuses_each_broken_table_with_its_text():
    z4, z2 = make_cyclic(4), make_cyclic(2)
    check_hom(z4, z2, (0, 1, 0, 1))
    for image, text in [((0, 1), "image table has wrong length"),
                        ((0, 1, 0, 2), "image table entry out of range"),
                        ((0, 1, 0, True), "image table entry out of range"),
                        ((1, 0, 1, 0), "homomorphism does not preserve the identity"),
                        ((0, 1, 1, 1), r"homomorphism law fails at \(1,1\)")]:
        with pytest.raises(ValueError, match=text):
            check_hom(z4, z2, image)


def _swapped_off_generators(G):
    """The identity map of G with the images of two elements outside
    ``G.generators`` and the identity swapped, or None if there are none."""
    outside = [a for a in range(G.order) if a != G.identity and a not in G.generators]
    if len(outside) < 2:
        return None
    image = list(range(G.order))
    a, b = outside[:2]
    image[a], image[b] = b, a
    return tuple(image)


def test_group_hom_wrong_only_off_the_generators_is_refused():
    # right on the identity and on every generator, wrong on two other elements
    checked = 0
    for G in groups_to_order_24():
        image = _swapped_off_generators(G)
        if image is None:
            continue
        with pytest.raises(ValueError, match="homomorphism law fails") as exc:
            check_hom(G, G, image)
        a, s = (int(x) for x in str(exc.value).split("(")[1].rstrip(")").split(","))
        assert s in G.generators
        assert image[G.mul[a][s]] != G.mul[image[a]][image[s]]
        checked += 1
    assert checked >= 15


def test_group_hom_that_respects_only_the_first_generator_is_refused():
    # left multiplication by s1 on one left coset of <s1> that holds neither
    # the identity nor a generator keeps every s1 edge and every generator
    checked = 0
    for G in groups_to_order_24():
        if len(G.generators) < 2:
            continue
        s1 = G.generators[0]
        orbit_of, cosets = perm_orbits([tuple(row[s1] for row in G.mul)], G.order)
        taken = {orbit_of[a] for a in (G.identity, *G.generators)}
        free = [c for k, c in enumerate(cosets) if k not in taken]
        if not free:
            continue
        image = list(range(G.order))
        for a in free[0]:
            image[a] = G.mul[s1][a]
        with pytest.raises(ValueError, match="homomorphism law fails") as exc:
            check_hom(G, G, tuple(image))
        a, s = (int(x) for x in str(exc.value).split("(")[1].rstrip(")").split(","))
        assert s in G.generators[1:]
        assert image[G.mul[a][s]] != G.mul[image[a]][image[s]]
        checked += 1
    assert checked >= 8


def test_a_generating_set_one_element_short_fails_the_orbit_check():
    for G in groups_to_order_24():
        moves = [tuple(row[s] for row in G.mul) for s in G.generators]
        image = tuple(range(G.order))

        def compose(x, y):
            return G.mul[x][y]

        assert first_broken_edge(image, compose, G.identity, G.generators, moves) is None
        if G.order == 1:
            continue
        with pytest.raises(ValueError, match="the generators reach"):
            first_broken_edge(image, compose, G.identity, G.generators[:-1], moves[:-1])


def test_generating_set_is_irredundant():
    for G in all_small_groups():
        gens = G.generators
        assert len(gens) <= 3


@given(st.integers(min_value=1, max_value=30), st.data())
def test_cyclic_arithmetic_matches_modular(n, data):
    G = make_cyclic(n)
    a = data.draw(st.integers(min_value=0, max_value=n - 1))
    b = data.draw(st.integers(min_value=0, max_value=n - 1))
    assert G.mul[a][b] == (a + b) % n
    assert G.inv[a] == (-a) % n


def test_symmetric_composition_convention():
    # product st applies t first: check on two transpositions of S3
    S3 = make_symmetric(3)
    perms = list(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    s, t = (1, 0, 2), (0, 2, 1)
    st_perm = tuple(s[t[x]] for x in range(3))
    assert S3.mul[idx[s]][idx[t]] == idx[st_perm]


def groups_to_order_24():
    z2, z3, z4 = make_cyclic(2), make_cyclic(3), make_cyclic(4)
    return all_small_groups() + [
        make_cyclic(5),
        make_cyclic(8),
        make_direct_product(make_direct_product(z2, z2), z2),
        make_direct_product(z2, z4),
        from_mul_table(dihedral_table(4), "D4"),
        from_mul_table(quaternion_table(), "Q8"),
        make_direct_product(z3, z3),
        from_mul_table(dihedral_table(6), "D6"),
        make_direct_product(make_symmetric(3), z3),
        make_symmetric(4),
        make_direct_product(make_direct_product(z2, z2), make_cyclic(6)),
        make_direct_product(z4, make_cyclic(6)),
        from_mul_table(dihedral_table(12), "D12"),
    ]


def relabelled_tables():
    """Seeded relabellings of the S4, Q8, D6 and A5 tables."""
    bases = [make_symmetric(4).mul, quaternion_table(), dihedral_table(6), alternating5_table()]
    return [relabelled(mul, seed) for mul in bases for seed in (1, 2, 3)]


def test_automorphisms_match_product_search():
    # the closure of the found generators, against the oracle: every
    # same-order image tuple of the generators, checked on all pairs; the
    # products reach order 18 outside the fixtures
    z2, z4 = make_cyclic(2), make_cyclic(4)
    products = [make_direct_product(z4, z4), make_direct_product(z2, make_cyclic(8)),
                make_direct_product(make_cyclic(3), make_cyclic(6)),
                make_direct_product(from_mul_table(quaternion_table(), "Q8"), z2),
                make_direct_product(from_mul_table(dihedral_table(4), "D4"), z2)]
    for G in groups_to_order_24() + relabelled_tables() + products:
        assert automorphisms(G) == product_search_automorphisms(G), G.label


def test_element_orders_match_the_walk_oracle():
    # one power walk per cyclic subgroup, against one walk per element
    for G in groups_to_order_24() + relabelled_tables():
        assert element_orders(G) == element_orders_by_walk(G), G.label


def test_automorphism_count_matches_the_listing():
    # the product of the search's orbit lengths, against the oracle's full list
    for G in groups_to_order_24() + relabelled_tables():
        assert G._aut[1] == len(product_search_automorphisms(G)), G.label


def _generated(tables, size):
    """The image tables of the group that ``tables`` generate, by closure."""
    out = {tuple(range(size))}
    frontier = list(out)
    for p in frontier:
        for h in tables:
            q = perm_compose(h, p)
            if q not in out:
                out.add(q)
                frontier.append(q)
    return out


def test_each_generator_found_at_level_k_fixes_the_first_k_generators():
    # level k of the search fixes g_0 .. g_(k-1) and moves g_k; the levels
    # run from the deepest up, and those >= k generate the pointwise
    # stabilizer S_k of g_0 .. g_(k-1), read off the oracle's full list
    for G in groups_to_order_24() + relabelled_tables():
        gens, found = G.generators, G._aut[0]
        levels = [min(k for k, s in enumerate(gens) if h[s] != s) for h in found]
        assert levels == sorted(levels, reverse=True), G.label
        oracle = product_search_automorphisms(G)
        for k in range(len(gens) + 1):
            deeper = [h for h, level in zip(found, levels) if level >= k]
            stabilizer = {p for p in oracle if all(p[s] == s for s in gens[:k])}
            assert _generated(deeper, G.order) == stabilizer, (G.label, k)


def _elementary_abelian(p, n):
    G = make_cyclic(p)
    for _ in range(n - 1):
        G = make_direct_product(G, make_cyclic(p))
    return G


def test_automorphism_count_of_elementary_abelian_groups_is_the_order_of_gl():
    # Aut(Z_p^n) = GL(n, p), of order prod (p^n - p^i) over i < n
    for p, n in [(2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2)]:
        gl = math.prod(p**n - p**i for i in range(n))
        assert _elementary_abelian(p, n)._aut[1] == gl, (p, n)


def test_automorphism_order_is_refused_before_any_automorphism_is_listed():
    for n, order in [(4, 20160), (5, 9999360)]:
        G = _elementary_abelian(2, n)
        G.__dict__["_aut"] = (None, G._aut[1])  # listing would fail at its first generator
        with pytest.raises(BoundExceeded) as exc:
            automorphisms(G)
        assert str(exc.value) == f"automorphism group of order {order} exceeds the table bound 5040"


def test_aut_group_table_matches_composition_table():
    # oracle: the classes and commutativity of the Cayley table of Aut(G)
    for G in groups_to_order_24() + relabelled_tables():
        auts, classes, abelian = automorphism_classes(G)
        assert auts == automorphisms(G), G.label
        oracle = aut_table(G)
        assert classes == conjugacy_classes(oracle), G.label
        assert abelian == is_abelian(oracle), G.label


def test_gset_aut_table_matches_composition_table():
    fixtures = [standard_semitorsor(G, n) for G in all_small_groups() for n in (1, 2)]
    fixtures += [
        standard_semitorsor(make_cyclic(2), 3),
        standard_semitorsor(make_cyclic(4), 3),
        trivial_gset(3),
        make_gset(make_cyclic(2), [[0, 1, 2, 3], [3, 2, 1, 0]]),  # not standard
    ]
    for F in fixtures:
        # the oracle has an entry for every product, so gset_homs is closed
        oracle = gset_aut_table(F)
        oracle.validate()
        n = len(F.orbit_partition.members)
        assert oracle.order == len(gset_homs(F, F)) == F.group.order**n * math.factorial(n)


def test_symmetric_table_matches_composition_table():
    for n in range(1, 6):
        perms = list(itertools.permutations(range(n)))
        assert make_symmetric(n).mul == cayley_group(perms, perm_compose, "oracle").mul


def test_permutation_group_rejects_a_short_base_and_an_open_set():
    s3 = list(itertools.permutations(range(3)))
    with pytest.raises(ValueError, match="base does not tell"):
        permutation_group(s3, [0], "S3")
    with pytest.raises(ValueError, match="not closed"):
        permutation_group([(0, 1, 2), (1, 2, 0)], range(3), "C")


def _spoiled(mul, rng):
    """A copy of a group table with two entries of one row swapped, keeping
    the identity's row and column and every inverse entry in place."""
    table = [list(row) for row in mul]
    n = len(table)
    e = next(a for a in range(n) if table[a] == list(range(n)))
    a = rng.choice([x for x in range(n) if x != e])
    cols = [b for b in range(n) if b != e and table[a][b] != e and table[b][a] != e]
    b, c = rng.sample(cols, 2)
    table[a][b], table[a][c] = table[a][c], table[a][b]
    return table


def test_light_associativity_test_agrees_with_cubic_loop():
    # oracle: all n^3 triples, on tables of order <= 24
    rng = random.Random(7)
    groups = [G for G in groups_to_order_24() if G.order >= 4]
    for G in groups:
        assert associativity_failures(G.mul) == []
        from_mul_table(G.mul)
    # LOOP_5 x Z2 is associative at every middle element (e, h), and its
    # first greedy generator is (e, 1): every generator has to be checked
    loop = FiniteGroup(5, tuple(map(tuple, LOOP_5)), 0, tuple(range(5)), "G")
    tables = [make_direct_product(loop, make_cyclic(2)).mul]
    tables += [_spoiled(rng.choice(groups).mul, rng) for _ in range(60)]
    for table in tables:
        failures = associativity_failures(table)
        if not failures:
            from_mul_table(table)
            continue
        with pytest.raises(ValueError, match="associativity fails") as exc:
            from_mul_table(table)
        triple = tuple(int(x) for x in str(exc.value).split("(")[1].rstrip(")").split(","))
        assert triple in failures


def _classify(spec):
    start = time.perf_counter()
    report = cmd_classify_circle(argparse.Namespace(group=json.dumps(spec)))
    return report.data, time.perf_counter() - start


def test_classify_circle_lists_aut_once_and_proves_no_representative(monkeypatch):
    # each representative is a leaf of the search, which has passed the edge
    # proof that check_hom would repeat
    calls = []
    listing = groups.automorphisms
    monkeypatch.setattr(groups, "automorphisms", lambda G: calls.append(G) or listing(G))
    for module in (groups, bundles, gsets):  # every module that binds check_hom
        monkeypatch.setattr(module, "check_hom", None)
    data, _ = _classify({"kind": "symmetric", "n": 4})
    assert (len(calls), data["aut_order"], len(data["classes"])) == (1, 24, 5)


def test_cycle_count_is_the_orbit_count_of_one_permutation():
    # classify-circle counts each class's components with cycle_count
    for G in [*fixture_groups(6), make_symmetric(4), make_cyclic(12)]:
        for a in automorphisms(G):
            assert cycle_count(a) == len(perm_orbits([a], G.order)[1]), (G.label, a)


def test_classify_circle_budget_s5_and_s4xz2():
    data, seconds = _classify({"kind": "symmetric", "n": 5})
    assert (data["aut_order"], len(data["classes"])) == (120, 7)
    assert seconds < 2.0
    s4xz2 = {"kind": "product", "factors": [{"kind": "symmetric", "n": 4},
                                             {"kind": "cyclic", "n": 2}]}
    data, seconds = _classify(s4xz2)
    assert data["aut_order"] == 48
    assert seconds < 2.0


def test_classify_circle_budget_s6():
    data, seconds = _classify({"kind": "symmetric", "n": 6})
    assert (data["aut_order"], len(data["classes"])) == (1440, 13)
    assert seconds < 2.0
