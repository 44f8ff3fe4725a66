"""Each library refusal that a caller can reach and that no other test
reaches, called in-process with the smallest input that trips it, and the records' debug and deletion paths; the
counterexample texts of the division rules and of torsor transitivity,
forced through ``monkeypatch``."""

from fractions import Fraction

import pytest

import framebundles.frame_tables as frame_tables
import framebundles.frames as frames
import framebundles.gsets as gsets
from framebundles.bundles import (
    bundle_isomorphic,
    clutching_wreath,
    finite_winding_bundle,
    flat_bundle,
    map_fiber_count,
    sn_labelling,
)
from framebundles.frame_tables import gset_homs, reconstruct_semitorsor
from framebundles.frames import enumerate_frames, wreath_act, wreath_identity
from framebundles.errors import NotFree
from framebundles.groups import FiniteGroup, make_cyclic
from framebundles.gset_aut import section_from_frame, ses_report
from framebundles.gsets import equivariant_map, make_gset, standard_semitorsor, trivial_gset
from framebundles.suites import run_suite
from framebundles.u1 import (
    FiberPoint,
    U1FlatBundle,
    U1Wreath,
    frame_transport,
    transport,
    u1_canonical_frame,
    u1_winding_bundle,
)

Z1, Z2, Z3, Z4 = make_cyclic(1), make_cyclic(2), make_cyclic(3), make_cyclic(4)
S3_PERMS = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
ROTATION = U1Wreath((Fraction(0), Fraction(0)), (1, 0))


def _natural_action_but(s, image):
    """The natural action of S3 on three points with the image of ``s``
    replaced by ``image``, or left out when ``image`` is None."""
    action = {t: t for t in S3_PERMS}
    if image is None:
        del action[s]
    else:
        action[s] = image
    return action


REFUSALS = {
    "flat_bundle group-mode fiber": (
        lambda: flat_bundle(standard_semitorsor(Z2, 1), [(0, 1)], fiber_group=Z2),
        "group-mode fiber must be the group as a bare set"),
    "clutching_wreath reference": (
        lambda: clutching_wreath(finite_winding_bundle(Z2, 2), (0, 2)),
        "reference tuple is not a basis of the fiber"),
    "map_fiber_count orbits": (
        lambda: map_fiber_count(standard_semitorsor(Z1, 3), standard_semitorsor(Z1, 2), (0,),
                                (0, 1, 1)),
        "map is not a bijection on orbits"),
    "equivariant_map entry": (
        lambda: equivariant_map(standard_semitorsor(Z1, 2), standard_semitorsor(Z1, 2), (0,),
                                (None, 1)),
        "value out of range"),
    "map_fiber_count equivariance": (
        lambda: map_fiber_count(standard_semitorsor(Z4, 1), standard_semitorsor(Z2, 1),
                                (0, 1, 0, 1), (0, 0, 0, 1)),
        "map is not equivariant"),
    "sn_labelling incomplete action": (
        lambda: sn_labelling(3, _natural_action_but((0, 2, 1), None)),
        "action table must cover the whole symmetric group"),
    "sn_labelling action not a bijection": (
        lambda: sn_labelling(3, _natural_action_but((0, 2, 1), (0, 0, 1))),
        "action of (0, 2, 1) is not a bijection of the n-set"),
    "wreath_act length": (
        lambda: wreath_act(standard_semitorsor(Z2, 2), wreath_identity(Z2, 2), (0,)),
        "tuple length does not match the wreath element"),
    "reconstruct_semitorsor slot": (
        lambda: reconstruct_semitorsor(enumerate_frames(standard_semitorsor(Z2, 2)), 2),
        "slot index out of range"),
    "gset_homs common group": (
        lambda: gset_homs(standard_semitorsor(Z2, 1), standard_semitorsor(Z3, 1)),
        "morphism enumeration needs a common group"),
    "FiniteGroup.validate shape": (
        lambda: FiniteGroup(2, ((0, 1),), 0, (0, 1), "bad").validate(),
        "multiplication table has wrong shape"),
    "FiniteGroup.validate identity": (
        lambda: FiniteGroup(2, ((0, 1), (1, 0)), 1, (0, 1), "bad").validate(),
        "identity axiom fails at element 0"),
    "FiniteGroup.validate inverse": (
        lambda: FiniteGroup(2, ((0, 1), (1, 0)), 0, (0, 0), "bad").validate(),
        "inverse axiom fails at element 1"),
    "section_from_frame basis": (
        lambda: section_from_frame(standard_semitorsor(Z2, 2), (0, 2), (0, 1)),
        "section_from_frame needs a basis"),
    "section_from_frame sigma": (
        lambda: section_from_frame(standard_semitorsor(Z2, 2), (0, 1), (0, 0)),
        "sigma is not a permutation of the slots"),
    "u1 generator arity": (
        lambda: U1FlatBundle(3, 1, (ROTATION,)),
        "generator arity does not match the sheet count"),
    "u1 sheet count": (
        lambda: u1_winding_bundle(0),
        "sheet count must be >= 1"),
    "u1 angle arity": (
        lambda: u1_winding_bundle(2, [Fraction(0)]),
        "angle tuple has wrong arity"),
    "u1 transport sheet": (
        lambda: transport(u1_winding_bundle(2), [1], FiberPoint(Fraction(0), 2)),
        "point sheet out of range for this wreath element"),
    "u1 frame_transport frame": (
        lambda: frame_transport(ROTATION, u1_canonical_frame(3)),
        "tuple is not a frame of the k-sheet fiber"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_each_reachable_refusal_names_its_input(name):
    call, message = REFUSALS[name]
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError and str(info.value) == message


@pytest.mark.parametrize("source, target, xi, value", [
    # Z2 fixing both points, onto two bare points
    (make_gset(Z2, [[0, 1], [0, 1]]), trivial_gset(2), (0, 0), (0, 1)),
    # an equivariant map onto Z2 fixing one point
    (standard_semitorsor(Z2, 1), make_gset(Z2, [[0], [0]]), (0, 1), (0, 0)),
], ids=["source", "target"])
def test_map_fiber_count_refuses_a_group_set_that_is_not_free(source, target, xi, value):
    with pytest.raises(NotFree, match="^preimages are counted between free group-sets only$"):
        map_fiber_count(source, target, xi, value)


# Value tables that do not map the source's points into the target: one entry
# short, an entry -1, which Python would read as the last point, an entry that
# is no int, and one entry too many.  Each is refused with the text of
# equivariant_map, where before the short one and None raised IndexError and
# TypeError and lift_table answered the others (True as the point 1).
@pytest.mark.parametrize("value, message", [
    ((0,), "value table has wrong length"),
    ((-1, 0), "value out of range"),
    ((None, 1), "value out of range"),
    ((True, 0), "value out of range"),
    ((0, 1, 1), "value table has wrong length"),
], ids=["short", "minus-one", "none", "bool", "long"])
def test_lift_table_refuses_a_value_table_that_misses_the_target(value, message):
    F = standard_semitorsor(Z1, 2)
    with pytest.raises(ValueError, match=f"^{message}$"):
        frame_tables.lift_table(F, F, value)


@pytest.mark.parametrize("n, value, message", [
    # from Z1 x I_3, so that the short table is onto the target
    (3, (0, 1), "value table has wrong length"),
    # a table holding -1 is not onto, which map_fiber_count checks first
    (2, (-1, 0), "map is not surjective"),
    (2, (0, 1, 1), "value table has wrong length"),
], ids=["short", "minus-one", "long"])
def test_map_fiber_count_refuses_a_value_table_that_misses_the_target(n, value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        map_fiber_count(standard_semitorsor(Z1, n), standard_semitorsor(Z1, 2), (0,), value)


def test_ses_report_names_an_orbit_map_that_is_no_permutation():
    # the constant map of Z1 x I_2 sends both orbits to orbit 0
    F = standard_semitorsor(Z1, 2)
    r = ses_report(F, gset_homs(F, F) + [(0, 0)])
    assert (r.cq_witness, r.kernel_witness) == ("cq reaches (0, 0), no permutation", "")
    assert not r.ok


def test_reconstruction_witness_fails_on_a_wrong_inverse(monkeypatch):
    # the inverse associated map read as constant: the witness is no bijection
    monkeypatch.setattr(frame_tables, "associated_map_inverse", lambda F, t: (0,) * F.size)
    fs = enumerate_frames(standard_semitorsor(Z2, 2))
    with pytest.raises(AssertionError, match="^reconstruction witness failed verification$"):
        reconstruct_semitorsor(fs, 0)


def test_gset_homs_between_different_orbit_counts_is_empty():
    assert gset_homs(standard_semitorsor(Z2, 1), standard_semitorsor(Z2, 2)) == []


def test_bundles_on_different_fibers_or_loop_counts_are_not_isomorphic():
    b = finite_winding_bundle(Z2, 2)
    other_fiber = finite_winding_bundle(Z2, 3)
    two_loops = flat_bundle(b.fiber, b.clutching * 2)
    assert not bundle_isomorphic(b, other_fiber)
    assert not bundle_isomorphic(b, two_loops)
    assert bundle_isomorphic(b, b)


def test_records_print_their_fields_and_refuse_deletion():
    b = finite_winding_bundle(Z2, 2)
    assert repr(Z2) == "FiniteGroup(Z2, order=2)"
    assert repr(b) == f"FlatBundle(mode=gspace, loops=1, fiber={b.fiber!r})"
    assert repr(FiberPoint(Fraction(3, 2), 1)) == "FiberPoint(angle=Fraction(1, 2), sheet=1)"
    with pytest.raises(AttributeError, match="^cannot delete field 'sheet' of FiberPoint$"):
        del FiberPoint(Fraction(0), 0).sheet


def _division_checks(monkeypatch, corrupt):
    """The division-rules checks of Z3 n=1, read through ``corrupt`` of its table."""
    table = gsets.division_table

    def patched(F):
        div = dict(table(F))
        corrupt(div)
        return div

    monkeypatch.setattr(gsets, "division_table", patched)
    return {c.check: c for c in run_suite("division-rules", group_name="z3", orbit_count=1).checks}


def test_division_rules_name_their_counterexamples(monkeypatch):
    # [1/0] = 1 read as 2: its inverse [0/1] = 2 no longer matches, the
    # product [0/1] [1/0] is no longer [0/0], 1 [0/0] no longer carries 0 to
    # 1 . 0, and the rotation (1, 2, 0) no longer keeps [1/0]
    checks = _division_checks(monkeypatch, lambda div: div.__setitem__((1, 0), 2))
    details = {name: (c.ok, c.detail) for name, c in checks.items()}
    assert details == {
        "inverse rule": (False, "[1/0] = 2 is not the inverse of [0/1] = 2"),
        "cancellation rule": (False, "[0/0] = 0 but [0/1] [1/0] = 1"),
        "scaling rule": (False, "[1.0/0.0] = 2 but 1 [0/0] 0^-1 = 1"),
        "automorphism invariance": (False, "(1, 2, 0) sends [1/0] = 2 to 1"),
    }


def test_torsor_transitivity_names_the_frame_it_misses(monkeypatch):
    # a division that always answers the identity reaches only the base frame
    monkeypatch.setattr(frames, "frame_divide",
                        lambda fs, f2, f1: wreath_identity(fs.base_gset.group, fs.n))
    (check,) = [c for c in run_suite("torsor", group_name="z2", orbit_count=1).checks
                if c.check == "action transitive via division"]
    assert not check.ok
    assert check.detail == ("WreathElement(g=(0,), sigma=(0,)) sends frame (0,) to (0,), "
                            "not (1,)")
