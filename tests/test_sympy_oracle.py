"""Differential tests against ``sympy.combinatorics`` as an independent oracle."""

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
    frame_bundle,
    total_components,
)
from framebundles.frames import WreathElement, _wreath_generators, wreath_elements  # noqa: E402
from framebundles.groups import (  # noqa: E402
    automorphism_classes,
    automorphisms,
    conjugacy_classes,
    make_cyclic,
    make_symmetric,
    perm_orbits,
)
from framebundles.gset_aut import wreath_to_aut  # noqa: E402
from framebundles.gsets import standard_semitorsor  # noqa: E402
from framebundles.suites import fixture_groups  # noqa: E402
from table_oracles import aut_table, gset_aut_table, is_abelian, relabelled  # noqa: E402

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


@pytest.mark.parametrize("G", CLASS_GROUPS, ids=[G.label for G in CLASS_GROUPS])
def test_conjugacy_classes_match_sympy(G):
    # G by its left-regular permutations, Aut(G) by the automorphisms' image tables
    table, auts = aut_table(G), automorphisms(G)
    for H, perms in ((G, G.mul), (table, [h.image for h in auts])):
        want = {frozenset(tuple(p.array_form) for p in c)
                for c in _group(perms, G.order).conjugacy_classes()}
        assert {frozenset(perms[i] for i in c) for c in conjugacy_classes(H)} == want


AUT_CASES = CLASS_GROUPS + [relabelled(make_symmetric(4).mul, seed) for seed in (1, 2, 3)]


@pytest.mark.parametrize("G", AUT_CASES, ids=[f"{G.label}-{i}" for i, G in enumerate(AUT_CASES)])
def test_automorphism_classes_match_table_oracle_and_sympy(G):
    auts = automorphisms(G)
    classes, abelian = automorphism_classes(G, auts)
    table = aut_table(G)
    assert (len(auts), classes, abelian) == (table.order, conjugacy_classes(table),
                                             is_abelian(table))
    images = [h.image for h in auts]
    group = _group(images, G.order)
    want = {frozenset(tuple(p.array_form) for p in c) for c in group.conjugacy_classes()}
    assert {frozenset(images[i] for i in c) for c in classes} == want
    assert (group.order(), group.is_abelian) == (len(auts), abelian)


@pytest.mark.parametrize("G, n", WREATH_CASES, ids=[f"{G.label}-{n}" for G, n in WREATH_CASES])
def test_wreath_generator_images_generate_aut(G, n):
    F = standard_semitorsor(G, n)
    images = [wreath_to_aut(w, F).value for w in _wreath_generators(G, n)]
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
            out.append(flat_bundle(F, (maps[i], maps[j]), mode="gspace"))
    return out


def test_clutching_orbits_match_components():
    bundles = [finite_winding_bundle(G, k) for G in GROUPS for k in (1, 2, 3)]
    bundles += _two_loop_bundles()
    # the two-loop document of the golden corpus
    Z2 = make_cyclic(2)
    loops = [WreathElement(Z2, (1, 0), (1, 0)), WreathElement(Z2, (0, 1), (0, 1))]
    maps = tuple(wreath_to_aut(w) for w in loops)
    bundles.append(flat_bundle(standard_semitorsor(Z2, 2), maps, mode="gspace"))
    for b in bundles:
        orbits = _group([a.value for a in b.clutching], b.fiber.size).orbits()
        assert {frozenset(o) for o in orbits} == {frozenset(c) for c in components(b)}


@pytest.mark.parametrize("G, k, count", [(make_cyclic(2), 5, 768), (make_cyclic(4), 4, 1536)],
                         ids=["Z2-5", "Z4-4"])
def test_frame_bundle_components_from_lifts_alone(G, k, count):
    # 3,840 and 6,144 frames; |W| = 6,144 is past the Cayley-table bound
    lifted = frame_bundle(finite_winding_bundle(G, k))
    assert lifted.fiber.size == G.order**k * math.factorial(k)
    orbits = _group([a.value for a in lifted.clutching], lifted.fiber.size).orbits()
    assert total_components(lifted) == count == math.factorial(k - 1) * G.order**k == len(orbits)
