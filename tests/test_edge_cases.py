"""Cross-cutting checks: non-standard carriers, nonabelian fixtures, bounds."""

import copy
import itertools
import math
from fractions import Fraction

import pytest

from framebundles import config
from framebundles.bundles import (
    bundle_isomorphic,
    clutching_wreath,
    finite_winding_bundle,
    flat_bundle,
    frame_bundle,
    total_components,
)
from framebundles.errors import BoundExceeded
from framebundles.frames import (
    WreathElement,
    enumerate_frames,
    gset_homs,
    reconstruct_semitorsor,
    wreath_elements,
    wreath_identity,
)
from framebundles.groups import identity_hom, make_cyclic, make_symmetric
from framebundles.gset_aut import (
    autq_component,
    autq_reconstruct,
    ses_report,
    wreath_to_aut,
)
from framebundles.gsets import (
    EquivariantMap,
    compose_equivariant,
    identity_map,
    induced_orbit_map,
    is_free,
    make_gset,
    orbits,
    semitorsor_point,
    standard_semitorsor,
)
from framebundles.u1 import FiberPoint, U1Wreath, division_form_check, u1_winding_bundle
from table_oracles import frame_functor_map, gset_aut_table, wreath_table

Z2 = make_cyclic(2)
Z3 = make_cyclic(3)
S3 = make_symmetric(3)


def scrambled_copy(F, pi):
    """The same action transported along a carrier relabelling."""
    act = [[0] * F.size for _ in range(F.group.order)]
    for g in range(F.group.order):
        for p in range(F.size):
            act[g][pi[p]] = pi[F.act[g][p]]
    return make_gset(F.group, act)


SCRAMBLE = (3, 0, 2, 1)


def test_scrambled_carrier_still_free_with_same_orbits():
    F = scrambled_copy(standard_semitorsor(Z2, 2), SCRAMBLE)
    assert is_free(F)
    assert orbits(F).orbit_count == 2


def test_aut_group_on_scrambled_carrier():
    F = scrambled_copy(standard_semitorsor(Z2, 2), SCRAMBLE)
    table = gset_aut_table(F)
    assert table.order == 8
    table.validate()
    r = ses_report(F)
    assert (r.aut_order, r.autq_order, r.sym_order) == (8, 4, 2)
    assert r.ok


def test_frames_and_reconstruction_on_scrambled_carrier():
    F = scrambled_copy(standard_semitorsor(Z2, 2), SCRAMBLE)
    fs = enumerate_frames(F)
    assert len(fs.frames) == 8
    for x in range(2):
        rec = reconstruct_semitorsor(fs, x)
        assert rec.gset.size == F.size
        assert rec.to_standard.is_bijective()


def test_autq_component_homomorphism_nonabelian():
    # pointwise product in G^n, order preserved, on a nonabelian base group
    F = standard_semitorsor(S3, 2)
    frame = tuple(semitorsor_point(S3.identity, x, 2) for x in range(2))
    tuples = list(itertools.product(range(6), repeat=2))[::5]
    for t1 in tuples:
        for t2 in tuples:
            p1 = autq_reconstruct(F, frame, t1)
            p2 = autq_reconstruct(F, frame, t2)
            composed = compose_equivariant(p1, p2)
            expected = tuple(S3.mul[a][b] for a, b in zip(t1, t2))
            assert autq_component(composed, frame) == expected


def test_wreath_machinery_on_nonabelian_group():
    table = wreath_table(S3, 2)
    assert table.order == 36 * 2
    table.validate()
    sample = wreath_elements(S3, 2)[::7]
    for w in sample:
        psi = wreath_to_aut(w)
        assert induced_orbit_map(psi) == w.sigma
        from framebundles.gset_aut import aut_to_wreath

        assert aut_to_wreath(psi) == w


def test_gspace_bundles_isomorphic_by_conjugation():
    b = finite_winding_bundle(Z2, 2)
    auts = gset_homs(b.fiber, b.fiber)
    conjugator = auts[3]
    size = b.fiber.size
    c = conjugator.value
    c_inv = [0] * size
    for x, y in enumerate(c):
        c_inv[y] = x
    twisted_value = tuple(c[b.clutching[0].value[c_inv[p]]] for p in range(size))
    twisted = flat_bundle(
        b.fiber,
        (EquivariantMap(b.fiber, b.fiber, identity_hom(Z2), twisted_value),),
        mode="gspace",
    )
    assert bundle_isomorphic(b, twisted)
    assert total_components(b) == total_components(twisted)


def test_gspace_winding_not_isomorphic_to_trivial():
    b = finite_winding_bundle(Z2, 2)
    ident = EquivariantMap(
        b.fiber, b.fiber, identity_hom(Z2), tuple(range(b.fiber.size))
    )
    trivial = flat_bundle(b.fiber, (ident,), mode="gspace")
    assert not bundle_isomorphic(b, trivial)


def test_two_loop_frame_bundle_lifts_generatorwise():
    fiber = standard_semitorsor(Z2, 2)
    swap = wreath_to_aut(WreathElement(Z2, (0, 0), (1, 0)))
    shift = wreath_to_aut(WreathElement(Z2, (1, 0), (0, 1)))
    b = flat_bundle(fiber, (swap, shift), mode="gspace")
    lifted = frame_bundle(b)
    fs = enumerate_frames(fiber)
    for i, a in enumerate(b.clutching):
        lift = frame_functor_map(a)
        for j, t in enumerate(fs.frames):
            assert lifted.clutching[i].value[j] == fs.index[lift(t)]
    ws = clutching_wreath(b, fs.frames[0])
    assert len(ws) == 2


def test_enumeration_bound_rejected():
    big = standard_semitorsor(make_symmetric(4), 3)
    with pytest.raises(BoundExceeded):
        enumerate_frames(big)


def test_wreath_group_bound_rejected():
    with pytest.raises(BoundExceeded):
        wreath_elements(make_symmetric(4), 4)


def test_bound_messages_print_every_estimate():
    # 2000! has 5,736 digits, more than str() prints of an int by default
    huge = math.factorial(2000)
    with pytest.raises(BoundExceeded) as refused:
        config.check_table_order(huge)
    assert str(refused.value) == "group of order at least 2^19052 exceeds the table bound 5040"
    with pytest.raises(BoundExceeded) as refused:
        config.check_enumeration(huge, "frames")
    assert str(refused.value) == "enumerating at least 2^19052 frames exceeds the bound 20000"


def test_fixture_groups_bound():
    from framebundles.suites import fixture_groups

    with pytest.raises(BoundExceeded):
        fixture_groups(7)
    assert [G.order for G in fixture_groups(6)] == [1, 2, 3, 4, 4, 5, 6, 6]


# Each immutable value type, built from a parameter n, and one of its fields.
# Two builds from the same n are distinct objects with equal fields.
RECORDS = {
    "FiniteGroup": (make_cyclic, "order"),
    "GroupHom": (lambda n: identity_hom(make_cyclic(n)), "image"),
    "GSet": (lambda n: standard_semitorsor(make_cyclic(n), 2), "act"),
    "OrbitPartition": (lambda n: orbits(standard_semitorsor(Z2, n)), "orbit_count"),
    "EquivariantMap": (lambda n: identity_map(standard_semitorsor(make_cyclic(n), 1)), "value"),
    "WreathElement": (lambda n: wreath_identity(make_cyclic(n), 2), "sigma"),
    "FlatBundle": (lambda n: finite_winding_bundle(make_cyclic(n), 2), "loops"),
    "U1Wreath": (lambda n: U1Wreath((Fraction(1, n),), (0,)), "angles"),
    "FiberPoint": (lambda n: FiberPoint(Fraction(1, n), 0), "sheet"),
    "U1FlatBundle": (u1_winding_bundle, "k"),
    "DivisionFormReport": (
        lambda n: division_form_check([(0, 1, 0), (1, n, 0)], Fraction(1, 10)),
        "rates",
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_value_types_compare_by_fields_and_refuse_assignment(name):
    # specdoc, bundle_isomorphic, compose_hom, wreath_to_aut, gset_homs and
    # check_equivalence all compare such records field by field
    build, field = RECORDS[name]
    a, b, other = build(2), build(2), build(3)
    assert type(a).__name__ == name and a is not b
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != other and copy.deepcopy(a) == a
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(other, field))
    assert a == b


def test_gset_derived_structure_is_computed_once():
    F = standard_semitorsor(Z3, 2)
    assert F.orbit_partition is F.orbit_partition
    assert F.division is F.division
