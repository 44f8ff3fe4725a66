"""Cross-cutting checks: non-standard carriers, nonabelian fixtures, bounds."""

import copy
import itertools
import math
from fractions import Fraction
from functools import cached_property

import pytest

from framebundles import config
from framebundles.bundles import (
    bundle_isomorphic,
    clutching_wreath,
    finite_winding_bundle,
    flat_bundle,
    frame_components,
    sn_action_on_bundle,
    total_components,
)
from framebundles.errors import BoundExceeded
from framebundles.frame_tables import (
    check_equivalence,
    gset_homs,
    reconstruct_semitorsor,
    wreath_elements,
)
from framebundles.frames import WreathElement, enumerate_frames, wreath_identity, wreath_to_aut
from framebundles.groups import make_cyclic, make_symmetric
from framebundles.gset_aut import autq_component, autq_reconstruct, ses_report
from framebundles.gsets import (
    GSet,
    divide,
    division_table,
    induced_orbit_map,
    is_free,
    make_gset,
    semitorsor_point,
    standard_semitorsor,
    trivial_gset,
)
from framebundles.perms import is_permutation, perm_compose
from framebundles.suites import CheckResult
from framebundles.u1 import FiberPoint, U1Wreath, division_form_check, u1_winding_bundle
from table_oracles import frame_functor_map, full_lift_bundle, gset_aut_table, wreath_table

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
    assert len(F.orbit_partition.members) == 2


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
        assert is_permutation(rec.to_standard, F.size)


def test_autq_component_homomorphism_nonabelian():
    # pointwise product in G^n, order preserved, on a nonabelian base group
    F = standard_semitorsor(S3, 2)
    frame = tuple(semitorsor_point(S3.identity, x, 2) for x in range(2))
    tuples = list(itertools.product(range(6), repeat=2))[::5]
    for t1 in tuples:
        for t2 in tuples:
            p1 = autq_reconstruct(F, frame, t1)
            p2 = autq_reconstruct(F, frame, t2)
            composed = perm_compose(p1, p2)
            expected = tuple(S3.mul[a][b] for a, b in zip(t1, t2))
            assert autq_component(F, composed, frame) == expected


def test_wreath_machinery_on_nonabelian_group():
    table = wreath_table(S3, 2)
    assert table.order == 36 * 2
    table.validate()
    sample = wreath_elements(S3, 2)[::7]
    F = standard_semitorsor(S3, 2)
    for w in sample:
        psi = wreath_to_aut(w)
        assert induced_orbit_map(F, F, psi) == w.sigma
        from framebundles.gset_aut import aut_to_wreath

        assert aut_to_wreath(F, psi) == w


def test_gspace_bundles_isomorphic_by_conjugation():
    b = finite_winding_bundle(Z2, 2)
    auts = gset_homs(b.fiber, b.fiber)
    c = auts[3]
    size = b.fiber.size
    c_inv = [0] * size
    for x, y in enumerate(c):
        c_inv[y] = x
    twisted = flat_bundle(b.fiber, (tuple(c[b.clutching[0][c_inv[p]]] for p in range(size)),))
    assert bundle_isomorphic(b, twisted)
    assert total_components(b) == total_components(twisted)


def test_gspace_winding_not_isomorphic_to_trivial():
    b = finite_winding_bundle(Z2, 2)
    trivial = flat_bundle(b.fiber, (tuple(range(b.fiber.size)),))
    assert not bundle_isomorphic(b, trivial)


def test_two_loop_frame_bundle_lifts_generatorwise():
    fiber = standard_semitorsor(Z2, 2)
    swap = wreath_to_aut(WreathElement(Z2, (0, 0), (1, 0)))
    shift = wreath_to_aut(WreathElement(Z2, (1, 0), (0, 1)))
    b = flat_bundle(fiber, (swap, shift))
    lifted = full_lift_bundle(b)
    fs = enumerate_frames(fiber)
    for i, a in enumerate((swap, shift)):
        lift = frame_functor_map(a)
        for j, t in enumerate(fs.frames):
            assert lifted.clutching[i][j] == fs.index[lift(t)]
    ws = clutching_wreath(b, fs.frames[0])
    assert len(ws) == 2
    assert frame_components(b) == total_components(lifted)


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
    assert [G.label for G in fixture_groups(6)] == ["Z1", "Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6",
                                                     "S3"]
    assert [G.label for G in fixture_groups(4)] == ["Z1", "Z2", "Z3", "Z4", "Z2xZ2"]
    assert fixture_groups(0) == []


# Each immutable value type, built from a parameter n, and one of its fields.
# Two builds from the same n are distinct objects with equal fields.
RECORDS = {
    "FiniteGroup": (make_cyclic, "order"),
    "GSet": (lambda n: standard_semitorsor(make_cyclic(n), 2), "act"),
    "OrbitPartition": (lambda n: standard_semitorsor(Z2, n).orbit_partition, "members"),
    "WreathElement": (lambda n: wreath_identity(make_cyclic(n), 2), "sigma"),
    "FlatBundle": (lambda n: finite_winding_bundle(make_cyclic(n), 2), "clutching"),
    "U1Wreath": (lambda n: U1Wreath((Fraction(1, n),), (0,)), "angles"),
    "FiberPoint": (lambda n: FiberPoint(Fraction(1, n), 0), "sheet"),
    "U1FlatBundle": (u1_winding_bundle, "k"),
    "DivisionFormReport": (
        lambda n: division_form_check([(0, 1, 0), (1, n, 0)], Fraction(1, 10)),
        "rates",
    ),
    "SesReport": (lambda n: ses_report(standard_semitorsor(make_cyclic(n), 2)), "aut_order"),
    "EquivalenceReport": (lambda n: check_equivalence(*[standard_semitorsor(Z2, n)] * 2),
                          "gset_hom_count"),
    "Reconstruction": (
        lambda n: reconstruct_semitorsor(enumerate_frames(standard_semitorsor(Z2, n)), 0),
        "class_of_frame",
    ),
    "SnActionReport": (
        lambda n: sn_action_on_bundle(flat_bundle(trivial_gset(n + 1), (range(n + 1),))),
        "n",
    ),
    "CheckResult": (lambda n: CheckResult(f"Z{n}", "identity law", True, ""), "fixture"),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_value_types_compare_by_fields_and_refuse_assignment(name):
    # specdoc, bundle_isomorphic, wreath_to_aut, gset_homs and
    # check_equivalence all compare such records field by field
    build, field = RECORDS[name]
    a, b, other = build(2), build(2), build(3)
    assert type(a).__name__ == name and a is not b
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != other and copy.deepcopy(a) == a
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(other, field))
    assert a == b


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_value_types_are_built_from_their_fields_by_position_or_name(name):
    r = RECORDS[name][0](2)
    values = r._values()
    named = dict(zip(r._fields, values))
    assert type(r)(*values) == r and type(r)(**named) == r
    assert type(r)(*values[:1], **dict(list(named.items())[1:])) == r
    first = r._fields[0]
    for args, kwargs in [(values[:-1], {}), (values, {first: values[0]}),
                         (values, {"unknown": 0}), (values + (None,), {})]:
        with pytest.raises(TypeError):
            type(r)(*args, **kwargs)


def test_gset_derived_structure_is_computed_once():
    # three cached properties; freeness and division read the orbit
    # partition and the action table and store nothing of their own
    cached = [name for name, attr in vars(GSet).items() if isinstance(attr, cached_property)]
    assert sorted(cached) == ["frame_space", "orbit_partition", "semitorsor_orbits"]
    F = standard_semitorsor(Z3, 2)
    assert F.orbit_partition is F.orbit_partition
    assert F.frame_space is F.frame_space
    assert F.semitorsor_orbits == 2 and vars(F)["semitorsor_orbits"] == 2
    assert is_free(F) and divide(F, 3, 1) == 1 and len(division_table(F)) == 18
    assert sorted(vars(F)) == sorted(["group", "size", "act", *cached])
