"""The frame-table kernel against the per-frame oracles of ``table_oracles``,
and corruptions of the kernel or of the action that the torsor,
functor-laws, wreath-iso and equivalence checks must catch."""

import random

import pytest

import framebundles.frame_tables as frame_tables
import framebundles.perms as perms
from framebundles.frame_tables import (
    act_table,
    check_equivalence,
    frame_table,
    gset_homs,
    lift_table,
    wreath_elements,
)
from framebundles.frames import enumerate_frames
from framebundles.groups import make_cyclic, make_direct_product
from framebundles.gsets import FrameSpace, GSet, make_gset, standard_semitorsor
from framebundles.perms import perm_compose
from framebundles.suites import fixture_groups, run_suite
from table_oracles import act_table_per_frame, equivalence_per_frame, lift_table_per_frame

Z2 = make_cyclic(2)
Z3 = make_cyclic(3)
Z4 = make_cyclic(4)
KLEIN = make_direct_product(Z2, Z2)

FIXTURES = [(G, n) for G in fixture_groups(4) for n in (1, 2, 3)]
FIXTURE_IDS = [f"{G.label}-{n}" for G, n in FIXTURES]


# ---------------------------------------------------------------- the kernel against the oracles


@pytest.mark.parametrize(("G", "n"), FIXTURES, ids=FIXTURE_IDS)
def test_act_table_matches_the_per_frame_action(G, n):
    fs = enumerate_frames(standard_semitorsor(G, n))
    for w in wreath_elements(G, n):
        assert act_table(fs, w) == act_table_per_frame(fs, w)


@pytest.mark.parametrize(("G", "n"), FIXTURES, ids=FIXTURE_IDS)
def test_lift_table_matches_the_per_frame_lift(G, n):
    F = standard_semitorsor(G, n)
    for a in gset_homs(F, F):
        assert lift_table(F, F, a) == lift_table_per_frame(F, F, a)


def relabelled(F, seed):
    """A copy of ``F`` with its points renamed by a seeded permutation."""
    perm = list(range(F.size))
    random.Random(seed).shuffle(perm)
    act = [[0] * F.size for _ in F.act]
    for g, row in enumerate(F.act):
        for p, q in enumerate(row):
            act[g][perm[p]] = perm[q]
    return make_gset(F.group, act)


@pytest.mark.parametrize(("G", "n"), [(Z2, 3), (Z3, 2), (Z4, 2), (KLEIN, 2)],
                         ids=["Z2-3", "Z3-2", "Z4-2", "Z2xZ2-2"])
def test_equivalence_onto_a_relabelled_copy_matches_the_oracle(G, n):
    F = standard_semitorsor(G, n)
    F2 = relabelled(F, seed=7 * n + G.order)
    fs, fs2 = enumerate_frames(F), enumerate_frames(F2)
    assert fs.index != fs2.index
    for a in gset_homs(F, F2):
        assert lift_table(F, F2, a) == lift_table_per_frame(F, F2, a)
    for w in wreath_elements(G, n):
        assert act_table(fs2, w) == act_table_per_frame(fs2, w)
    report, oracle = check_equivalence(F, F2), equivalence_per_frame(F, F2)
    assert report.ok
    assert report == oracle


def test_single_frame_space():
    # one frame: each slot's images are a single item, not a tuple
    F = standard_semitorsor(make_cyclic(1), 1)
    fs = enumerate_frames(F)
    (w,) = wreath_elements(F.group, 1)
    assert act_table(fs, w) == [0]
    assert check_equivalence(F, F).ok


def test_image_off_the_space_is_none():
    fs = enumerate_frames(standard_semitorsor(Z2, 2))
    # slot 0 goes to point 0 and slot 1 keeps its point: a frame exactly when
    # that point lies in orbit 1, the odd points
    table = frame_table(fs.columns, [(0, 0, 0, 0), (0, 1, 2, 3)], (0, 1), fs.index)
    assert table == [fs.index.get((0, t[1])) for t in fs.frames]
    assert None in table


def test_a_space_with_no_slots_has_one_frame():
    # the empty group-set has one frame, the empty tuple, and one morphism to itself
    assert frame_table((), [], (), {(): 0}) == [0]
    assert frame_table((), [], (), {}) == [None]
    F = make_gset(Z2, [[], []])
    (a,) = gset_homs(F, F)
    assert lift_table(F, F, a) == [0]
    report = check_equivalence(F, F)
    assert (report.gset_hom_count, report.torsor_hom_count, report.ok) == (1, 1, True)


def test_act_table_refuses_a_foreign_slot_count():
    fs = enumerate_frames(standard_semitorsor(Z2, 2))
    with pytest.raises(ValueError):
        act_table(fs, wreath_elements(Z2, 3)[0])


# ---------------------------------------------------------------- corrupted kernel


def _corrupt_kernel(monkeypatch, corrupt):
    kernel = frame_tables.frame_table

    def patched(columns, rows, src, index):
        table = kernel(columns, rows, src, index)
        corrupt(table)
        return table

    monkeypatch.setattr(frame_tables, "frame_table", patched)


def _off_the_space(table):
    table[-1] = None


def _fix_one_frame(table):
    moved = [i for i, j in enumerate(table) if i != j]
    if moved:
        table[moved[0]] = moved[0]


def _checks(suite, group):
    """The checks of ``verify <suite>`` on ``group`` with two orbits, by name."""
    return {c.check: c for c in run_suite(suite, group_name=group, orbit_count=2).checks}


def test_torsor_closure_fails_on_a_frame_off_the_space(monkeypatch):
    _corrupt_kernel(monkeypatch, _off_the_space)
    checks = _checks("torsor", "z2")
    closed = checks["action closed on frames"]
    assert not closed.ok
    assert closed.detail.endswith("off the frame space")
    # None is no fixed point, whatever int.__eq__(i, None) returns
    assert checks["action free"].ok


def test_torsor_freeness_fails_on_a_fixed_frame(monkeypatch):
    _corrupt_kernel(monkeypatch, _fix_one_frame)
    checks = _checks("torsor", "z3")
    free = checks["action free"]
    assert not free.ok and "fixes frame" in free.detail
    assert checks["action closed on frames"].ok


def test_closure_failure_does_not_skip_freeness_of_the_same_element(monkeypatch):
    fs = enumerate_frames(standard_semitorsor(Z2, 2))
    target = wreath_elements(Z2, 2)[1]

    def patched(space, w):
        table = act_table(space, w)
        if w == target:
            table[0] = None
            table[1] = 1
        return table

    monkeypatch.setattr(frame_tables, "act_table", patched)
    checks = _checks("torsor", "z2")
    assert checks["action closed on frames"].detail == (
        f"{target!r} sends frame {fs.frames[0]} off the frame space")
    assert checks["action free"].detail == f"{target!r} fixes frame {fs.frames[1]}"
    assert not checks["action closed on frames"].ok and not checks["action free"].ok


def test_composition_law_fails_on_a_lift_off_the_space(monkeypatch):
    _corrupt_kernel(monkeypatch, _off_the_space)
    checks = _checks("functor-laws", "z2")
    assert not checks["identity lifts to identity"].ok
    law = checks["composition law on all pairs"]
    assert not law.ok and law.detail.startswith("a=(")


def test_composition_law_fails_on_a_fixed_frame(monkeypatch):
    _corrupt_kernel(monkeypatch, _fix_one_frame)
    assert not _checks("functor-laws", "z2")["composition law on all pairs"].ok


def test_composition_law_fails_on_a_composition_in_the_wrong_order(monkeypatch):
    # Aut(Z2 x I_2) = Z2 wr I_2 is not abelian, so b a differs from a b
    monkeypatch.setattr(perms, "perm_compose", lambda a, b: perm_compose(b, a))
    law = _checks("functor-laws", "z2")["composition law on all pairs"]
    assert not law.ok and "b=" in law.detail


def test_composition_law_is_skipped_past_the_pair_bound():
    # Z3 x I_3 has 3^3 3! = 162 automorphisms, more than PAIR_BOUND = 50
    rep = run_suite("functor-laws", group_name="z3", orbit_count=3)
    assert [(c.check, c.ok) for c in rep.checks] == [
        ("identity lifts to identity", True),
        ("composition law (skipped, 162 > 50 morphisms)", True)]
    assert rep.counters == {}


@pytest.mark.parametrize("corrupt", [_off_the_space, _fix_one_frame], ids=["off", "fixed"])
def test_wreath_iso_refuses_the_edge_check_on_a_corrupted_kernel(monkeypatch, corrupt):
    # W . base, the frame indexing of the edge check, sends an element off the
    # frame space or two elements to one frame
    _corrupt_kernel(monkeypatch, corrupt)
    law = _checks("wreath-iso", "z2")["homomorphism on all pairs"]
    assert not law.ok
    assert law.detail == "W does not act freely and transitively on the frames"


def test_wreath_iso_refuses_the_edge_check_on_generators_of_a_subgroup(monkeypatch):
    # without the swap of the two slots, the generators make only G^2 in W
    generators = frame_tables._wreath_generators
    monkeypatch.setattr(frame_tables, "_wreath_generators",
                        lambda G, n: [w for w in generators(G, n) if w.sigma == (0, 1)])
    checks = _checks("wreath-iso", "z2")
    law = checks["homomorphism on all pairs"]
    assert not law.ok and law.detail == "the generators do not reach every element"
    assert checks["injective"].ok and checks["round trip to wreath"].ok


@pytest.mark.parametrize("corrupt", [_off_the_space, _fix_one_frame], ids=["off", "fixed"])
def test_equivalence_raises_on_a_corrupted_kernel(monkeypatch, corrupt):
    _corrupt_kernel(monkeypatch, corrupt)
    F = standard_semitorsor(Z2, 2)
    with pytest.raises(AssertionError):
        check_equivalence(F, F)


def test_equivalence_raises_on_a_lift_off_the_space(monkeypatch):
    lift = frame_tables.lift_table

    def patched(source, target, value):
        table = lift(source, target, value)
        table[-1] = None
        return table

    monkeypatch.setattr(frame_tables, "lift_table", patched)
    F = standard_semitorsor(Z2, 2)
    with pytest.raises(AssertionError, match="leaves the frame space"):
        check_equivalence(F, F)


# ---------------------------------------------------------------- corrupted action


def _corrupted_space(F, row):
    """The frame space of ``F``, read through an action whose row 1 is ``row``."""
    fs = enumerate_frames(F)
    act = list(F.act)
    act[1] = row
    return FrameSpace(GSet(F.group, F.size, tuple(act)), fs.n, fs.frames, fs.index)


def test_torsor_closure_fails_on_a_corrupted_action(monkeypatch):
    # row 1 of Z2 x I_2 moves each point to the other orbit
    F = standard_semitorsor(Z2, 2)
    bad = _corrupted_space(F, tuple(p ^ 1 for p in F.act[1]))
    monkeypatch.setattr(frame_tables, "act_table", lambda fs, w: act_table(bad, w))
    closed = _checks("torsor", "z2")["action closed on frames"]
    assert not closed.ok and closed.detail.endswith("off the frame space")


def test_torsor_freeness_fails_on_a_corrupted_action(monkeypatch):
    F = standard_semitorsor(Z3, 2)
    bad = _corrupted_space(F, F.act[Z3.identity])
    monkeypatch.setattr(frame_tables, "act_table", lambda fs, w: act_table(bad, w))
    checks = _checks("torsor", "z3")
    assert not checks["action free"].ok
    assert checks["action closed on frames"].ok


def test_equivalence_raises_on_a_corrupted_action(monkeypatch):
    F = standard_semitorsor(Z2, 2)
    F2 = relabelled(F, seed=3)
    bad = _corrupted_space(F2, F2.act[Z2.identity])
    monkeypatch.setattr(frame_tables, "act_table",
                        lambda fs, w: act_table(bad if fs.base_gset is F2 else fs, w))
    with pytest.raises(AssertionError):
        check_equivalence(F, F2)
