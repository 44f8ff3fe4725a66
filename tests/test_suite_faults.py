"""Suite checks that restate a count, or read another layer's report, each
made to fail by name: a layer function that the suite reads at call time is
patched to give a wrong frame space, count or answer, and the named check
must fail with its counterexample while the report keeps its other checks."""

import pytest

import framebundles.bundles as bundles
import framebundles.frame_tables as frame_tables
import framebundles.frames as frames
import framebundles.gset_aut as gset_aut
from framebundles.frame_tables import EquivalenceReport
from framebundles.gsets import FrameSpace
from framebundles.suites import run_suite


def _checks(suite):
    """The checks of ``verify <suite>`` on Z2 with two orbits (8 frames), by name."""
    return {c.check: c for c in run_suite(suite, group_name="z2", orbit_count=2).checks}


def test_torsor_frame_count_fails_on_a_space_missing_a_frame(monkeypatch):
    enumerate_frames = frames.enumerate_frames

    def without_the_last_frame(F):
        fs = enumerate_frames(F)
        kept = fs.frames[:-1]
        return FrameSpace(F, fs.n, kept, {t: i for i, t in enumerate(kept)})

    monkeypatch.setattr(frames, "enumerate_frames", without_the_last_frame)
    check = _checks("torsor")["frame count |G|^n n!"]
    assert (check.ok, check.detail) == (False, "7 vs 8")


@pytest.mark.parametrize("field, name", [("gset_hom_count", "group-set morphism count"),
                                         ("torsor_hom_count", "torsor morphism count")],
                         ids=["gset", "torsor"])
def test_equivalence_counts_fail_on_a_report_one_short(monkeypatch, field, name):
    check_equivalence = frame_tables.check_equivalence

    def one_short(F, F2):
        r = check_equivalence(F, F2)
        counts = {"gset_hom_count": r.gset_hom_count, "torsor_hom_count": r.torsor_hom_count}
        counts[field] -= 1
        return EquivalenceReport(mismatch=r.mismatch, **counts)

    monkeypatch.setattr(frame_tables, "check_equivalence", one_short)
    checks = _checks("equivalence")
    assert (checks[name].ok, checks[name].detail) == (False, "7 vs 8")
    assert checks["lift is a bijection"].ok


def _ses_report_missing_an_automorphism(monkeypatch):
    """``ses_report`` on Aut(F) less its last automorphism, whatever list it is passed."""
    ses_report = gset_aut.ses_report
    monkeypatch.setattr(gset_aut, "ses_report",
                        lambda F, auts=None: ses_report(F, frame_tables.gset_homs(F, F)[:-1]))


def test_ses_product_fails_on_a_report_one_automorphism_short(monkeypatch):
    _ses_report_missing_an_automorphism(monkeypatch)
    check = _checks("ses")["|Aut(F)| = |Aut(q)| |Sym(X)|"]
    assert (check.ok, check.detail) == (False, "7 = 4 x 2")


def test_wreath_iso_ses_sizes_fail_on_a_report_one_automorphism_short(monkeypatch):
    _ses_report_missing_an_automorphism(monkeypatch)
    checks = _checks("wreath-iso")
    assert (checks["SES sizes"].ok, checks["SES sizes"].detail) == (False, "7 = 4 x 2")
    assert checks["surjective onto Aut(G x X)"].ok


def test_appendix_b_obstruction_fails_on_an_action_granted_on_the_covering(monkeypatch):
    monkeypatch.setattr(bundles, "sn_action_on_bundle",
                        lambda b: bundles.SnActionReport(True, b.fiber.size, None, None))
    checks = [c for c in run_suite("appendix-b").checks
              if c.check == "obstruction named on the connected covering"]
    assert [(c.fixture, c.ok, c.detail) for c in checks] == [
        ("S3", False, "generator None"), ("S4", False, "generator None")]
