"""Differential tests against ``sympy.combinatorics`` as an independent oracle."""

import itertools
import math
import random

import pytest

sympy_combinatorics = pytest.importorskip("sympy.combinatorics")
Permutation = sympy_combinatorics.Permutation
PermutationGroup = sympy_combinatorics.PermutationGroup

from framebundles.bundles import (  # noqa: E402
    components,
    finite_winding_bundle,
    flat_bundle,
    frame_components,
    total_components,
)
from framebundles.aut_search import automorphism_classes, element_orders  # noqa: E402
from framebundles.frame_tables import _wreath_generators, wreath_elements  # noqa: E402
from framebundles.frames import WreathElement, wreath_to_aut  # noqa: E402
from framebundles.groups import automorphisms, make_cyclic, make_symmetric  # noqa: E402
from framebundles.gsets import standard_semitorsor  # noqa: E402
from framebundles.perms import perm_orbits  # noqa: E402
from framebundles.suites import fixture_groups  # noqa: E402
from table_oracles import (  # noqa: E402
    aut_table,
    conjugacy_classes,
    full_lift_bundle,
    gset_aut_table,
    is_abelian,
    relabelled,
)

GROUPS = fixture_groups(6)
# every fixture group with n <= 2, and n = 3 up to order 4
WREATH_CASES = [(G, n) for G in GROUPS for n in (1, 2, 3) if n < 3 or G.order <= 4]


def _group(tables, degree):
    # the identity keeps the generator list non-empty for the trivial group
    perms = [Permutation(list(t)) for t in tables]
    return PermutationGroup([Permutation(list(range(degree)))] + perms)


def _orbit_cases():
    """Edge cases, then seeded sets of 1-4 permutations that each shuffle a
    random subset of points, so that the orbits vary in number and size."""
    cases = [(0, []), (0, [()]), (1, []), (5, [tuple(range(5))])]
    rng = random.Random(9)
    for _ in range(40):
        size = rng.randint(1, 12)
        perms = []
        for _ in range(rng.randint(1, 4)):
            moved = rng.sample(range(size), rng.randint(0, size))
            image = list(range(size))
            for x, y in zip(moved, rng.sample(moved, len(moved))):
                image[x] = y
            perms.append(tuple(image))
        cases.append((size, perms))
    return cases


@pytest.mark.parametrize("size, perms", _orbit_cases())
def test_perm_orbits_match_sympy(size, perms):
    orbit_of, members = perm_orbits(perms, size)
    want = sorted(tuple(sorted(o)) for o in _group(perms, size).orbits())
    assert members == tuple(want)
    assert orbit_of == tuple(k for p in range(size) for k, m in enumerate(members) if p in m)


CLASS_GROUPS = GROUPS + [make_symmetric(4)]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_element_orders_of_symmetric_groups_match_sympy(n):
    # element i of make_symmetric(n) is the i-th permutation in lexicographic order
    perms = itertools.permutations(range(n))
    assert element_orders(make_symmetric(n)) == tuple(Permutation(list(p)).order() for p in perms)


@pytest.mark.parametrize("G", CLASS_GROUPS, ids=[G.label for G in CLASS_GROUPS])
def test_conjugacy_classes_match_sympy(G):
    # G by its left-regular permutations, Aut(G) by the automorphisms' image tables
    table, auts = aut_table(G), automorphisms(G)
    for H, perms in ((G, G.mul), (table, auts)):
        want = {frozenset(tuple(p.array_form) for p in c)
                for c in _group(perms, G.order).conjugacy_classes()}
        assert {frozenset(perms[i] for i in c) for c in conjugacy_classes(H)} == want


AUT_CASES = CLASS_GROUPS + [relabelled(make_symmetric(4).mul, seed) for seed in (1, 2, 3)]


@pytest.mark.parametrize("G", AUT_CASES, ids=[f"{G.label}-{i}" for i, G in enumerate(AUT_CASES)])
def test_automorphism_classes_match_table_oracle_and_sympy(G):
    auts, classes, abelian = automorphism_classes(G)
    assert auts == automorphisms(G)
    table = aut_table(G)
    assert (len(auts), classes, abelian) == (table.order, conjugacy_classes(table),
                                             is_abelian(table))
    group = _group(auts, G.order)
    want = {frozenset(tuple(p.array_form) for p in c) for c in group.conjugacy_classes()}
    assert {frozenset(auts[i] for i in c) for c in classes} == want
    assert (group.order(), group.is_abelian) == (len(auts), abelian)


@pytest.mark.parametrize("G, n", WREATH_CASES, ids=[f"{G.label}-{n}" for G, n in WREATH_CASES])
def test_wreath_generator_images_generate_aut(G, n):
    F = standard_semitorsor(G, n)
    images = [wreath_to_aut(w, F) for w in _wreath_generators(G, n)]
    order = _group(images, F.size).order()
    assert order == G.order**n * math.factorial(n) == gset_aut_table(F).order


def _two_loop_bundles():
    """Two-loop bundles on G x I_2 clutched by a spread of wreath-element pairs."""
    out = []
    for G in GROUPS[:5]:
        F = standard_semitorsor(G, 2)
        elements = wreath_elements(G, 2)
        maps = [wreath_to_aut(w, F) for w in elements]
        for i in range(0, len(maps), 3):
            j = (7 * i + 1) % len(maps)
            out.append(flat_bundle(F, (maps[i], maps[j])))
    return out


def test_clutching_orbits_match_components():
    bundles = [finite_winding_bundle(G, k) for G in GROUPS for k in (1, 2, 3)]
    bundles += _two_loop_bundles()
    # the two-loop document of the golden corpus
    Z2 = make_cyclic(2)
    loops = [WreathElement(Z2, (1, 0), (1, 0)), WreathElement(Z2, (0, 1), (0, 1))]
    F = standard_semitorsor(Z2, 2)
    bundles.append(flat_bundle(F, tuple(wreath_to_aut(w, F) for w in loops)))
    for b in bundles:
        orbits = _group(b.clutching, b.fiber.size).orbits()
        assert {frozenset(o) for o in orbits} == {frozenset(c) for c in components(b)}


@pytest.mark.parametrize("G, k, count", [(make_cyclic(2), 5, 768), (make_cyclic(4), 4, 1536)],
                         ids=["Z2-5", "Z4-4"])
def test_frame_bundle_components_from_lifts_alone(G, k, count):
    # 3,840 and 6,144 frames; |W| = 6,144 is past the Cayley-table bound
    b = finite_winding_bundle(G, k)
    lifted = full_lift_bundle(b)
    assert lifted.fiber.size == G.order**k * math.factorial(k)
    orbits = _group(lifted.clutching, lifted.fiber.size).orbits()
    assert total_components(lifted) == count == math.factorial(k - 1) * G.order**k == len(orbits)
    assert frame_components(b) == count
