"""Differential tests against ``sympy.combinatorics`` as an independent oracle."""

import math
import sys

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
from framebundles.frames import WreathElement, _wreath_generators, wreath_group  # noqa: E402
from framebundles.groups import make_cyclic  # noqa: E402
from framebundles.gset_aut import aut_group_of_gset, wreath_to_aut  # noqa: E402
from framebundles.gsets import standard_semitorsor  # noqa: E402
from framebundles.suites import fixture_groups  # noqa: E402

GROUPS = fixture_groups(6)
# every fixture group with n <= 2, and n = 3 up to order 4
WREATH_CASES = [(G, n) for G in GROUPS for n in (1, 2, 3) if n < 3 or G.order <= 4]


def _group(tables, degree):
    # the identity keeps the generator list non-empty for the trivial group
    perms = [Permutation(list(t)) for t in tables]
    return PermutationGroup([Permutation(list(range(degree)))] + perms)


@pytest.mark.parametrize("G, n", WREATH_CASES, ids=[f"{G.label}-{n}" for G, n in WREATH_CASES])
def test_wreath_generator_images_generate_aut(G, n):
    F = standard_semitorsor(G, n)
    images = [wreath_to_aut(w, n, G, F).value for w in _wreath_generators(G, n)]
    order = _group(images, F.size).order()
    assert order == G.order**n * math.factorial(n) == aut_group_of_gset(F)[0].order


def _two_loop_bundles():
    """Two-loop bundles on G x I_2 clutched by a spread of wreath-element pairs."""
    out = []
    for G in GROUPS[:5]:
        F = standard_semitorsor(G, 2)
        elements = wreath_group(G, 2).elements
        maps = [wreath_to_aut(w, 2, G, F) for w in elements]
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
    maps = tuple(wreath_to_aut(w, 2, Z2) for w in loops)
    bundles.append(flat_bundle(standard_semitorsor(Z2, 2), maps, mode="gspace"))
    for b in bundles:
        orbits = _group([a.value for a in b.clutching], b.fiber.size).orbits()
        assert {frozenset(o) for o in orbits} == {frozenset(c) for c in components(b)}


def _refuse_wreath_table(*args):
    raise AssertionError("the wreath Cayley table was built")


@pytest.mark.parametrize("G, k, count", [(make_cyclic(2), 5, 768), (make_cyclic(4), 4, 1536)],
                         ids=["Z2-5", "Z4-4"])
def test_frame_bundle_components_from_lifts_alone(monkeypatch, G, k, count):
    # 3,840 and 6,144 frames; |W| = 6,144 is past the Cayley-table bound
    for name, module in list(sys.modules.items()):
        if name.startswith("framebundles.") and hasattr(module, "wreath_group"):
            monkeypatch.setattr(module, "wreath_group", _refuse_wreath_table)
    lifted = frame_bundle(finite_winding_bundle(G, k))
    assert lifted.fiber.size == G.order**k * math.factorial(k)
    orbits = _group([a.value for a in lifted.clutching], lifted.fiber.size).orbits()
    assert total_components(lifted) == count == math.factorial(k - 1) * G.order**k == len(orbits)
