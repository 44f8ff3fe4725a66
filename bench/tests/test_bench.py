"""Tests of the benchmark itself: generators, oracles, tracing, statistics.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import framebundles.cli as cli  # noqa: E402


def _deck(name, seed):
    return workloads.WORKLOADS[name](seed).deck(random.Random(seed))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    a = [(r.argv, r.stdin) for r in _deck(name, 5)]
    b = [(r.argv, r.stdin) for r in _deck(name, 5)]
    assert a == b
    assert a != [(r.argv, r.stdin) for r in _deck(name, 6)]


def test_verify_seed_sets_only_the_order():
    a = [r.argv[:-1] for r in _deck("verify-suites", 1)]  # the last argument is the seed
    b = [r.argv[:-1] for r in _deck("verify-suites", 2)]
    assert a != b and sorted(a) == sorted(b) and len(a) == 91


def test_pass_composition_does_not_depend_on_seed():
    def kinds(seed):
        return sorted(r.label.split()[0] + (" table" if " table" in r.label else "")
                      for r in _deck("classify-groups", seed))

    assert kinds(1) == kinds(2)
    assert sorted(r.argv[0] for r in _deck("bundle-queries", 1)) == sorted(
        r.argv[0] for r in _deck("bundle-queries", 2))


# -- oracles against hand-worked cases --------------------------------------


def test_z3_has_two_automorphisms_in_two_classes_with_components_3_and_2():
    assert oracles.aut_literature("Z3") == (2, 2)
    z3 = oracles.cyclic(3)
    assert oracles.is_automorphism(z3, [0, 1, 2]) and oracles.is_automorphism(z3, [0, 2, 1])
    assert not oracles.is_automorphism(z3, [1, 2, 0])
    assert {oracles.cycle_count([0, 1, 2]), oracles.cycle_count([0, 2, 1])} == {3, 2}


def test_z2_winding_k2_has_four_frame_bundle_components():
    req = workloads.BundleQueries(0)._winding_request("Z2", 2)
    assert req.expect == {"frames": 8, "components": 4}


@pytest.mark.parametrize("table,order,abelian", [
    (oracles.symmetric(3), 6, False),
    (oracles.quaternion(), 8, False),
    (oracles.dihedral(5), 10, False),
    (oracles.dihedral(6), 12, False),
    (oracles.product(oracles.cyclic(2), oracles.cyclic(4)), 8, True),
])
def test_oracle_tables_are_groups(table, order, abelian):
    n = len(table)
    assert n == order
    e = oracles.identity_of(table)
    inv = oracles.inverses(table)
    assert all(table[a][inv[a]] == e for a in range(n))
    assert all(table[table[a][b]][c] == table[a][table[b][c]]
               for a in range(n) for b in range(n) for c in range(n))
    assert abelian == all(table[a][b] == table[b][a] for a in range(n) for b in range(n))


def test_alternating_group_is_the_even_half_of_s5():
    a5 = oracles.alternating5()
    assert len(a5) == 60
    assert oracles.identity_of(a5) == 0


def test_relabelling_keeps_automorphisms_conjugate():
    s3 = oracles.symmetric(3)
    perm = [3, 5, 0, 1, 4, 2]
    t = oracles.relabel(s3, perm)
    ident = list(range(6))
    assert oracles.is_automorphism(t, ident)
    # inner automorphism by an element, pushed through the relabelling
    inv = oracles.inverses(s3)
    inner = [s3[s3[1][a]][inv[1]] for a in range(6)]
    moved = [0] * 6
    for a in range(6):
        moved[perm[a]] = perm[inner[a]]
    assert oracles.is_automorphism(t, moved)


def test_wreath_table_and_finite_holonomy_by_hand():
    z2 = oracles.cyclic(2)
    # (g, s) = ((1,), id) on Z2 x I_1: (h, 0) -> (h + 1, 0)
    assert oracles.wreath_table(z2, 1, [1], [0]) == [1, 0]
    # ((0, 0), swap) on Z2 x I_2 swaps the two sheets
    swap = oracles.wreath_table(z2, 2, [0, 0], [1, 0])
    assert swap == [1, 0, 3, 2]
    assert oracles.finite_holonomy([swap], [1, 1]) == [0, 1, 2, 3]
    assert oracles.finite_holonomy([swap, [1, 0, 2, 3]], [1, -2]) == [0, 1, 3, 2]
    assert oracles.orbit_partition([swap], 4) == {frozenset({0, 1}), frozenset({2, 3})}


def test_u1_transport_by_hand():
    gen = ([Fraction(1, 3), Fraction(1, 2)], [1, 0])
    assert oracles.u1_transport([gen], [1], Fraction(0), 0) == (Fraction(1, 2), 1)
    assert oracles.u1_transport([gen], [1, -1], Fraction(1, 5), 1) == (Fraction(1, 5), 1)
    angles, sigma = oracles.u1_holonomy([gen], [1], 2)
    assert (angles, sigma) == ([Fraction(1, 3), Fraction(1, 2)], [1, 0])
    angles, sigma = oracles.u1_holonomy([gen], [1, 1], 2)
    assert (angles, sigma) == ([Fraction(5, 6), Fraction(5, 6)], [0, 1])


def test_division_rates_by_hand():
    pts = [(Fraction(9, 10), 0), (Fraction(1, 10), 0), (Fraction(3, 10), 0)]
    assert oracles.division_rates(pts, Fraction(1, 10)) == [Fraction(2), Fraction(2)]


# -- the oracles accept the library's answers, and reject wrong ones -------


def _small(req):
    return "n=3" not in req.label


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_library_answers_pass_the_oracles(name):
    wl = workloads.WORKLOADS[name](3)
    deck = [r for r in wl.deck(random.Random(3)) if _small(r) and "S5" not in r.label]
    results = [(req, *run.run_in_process(cli, req)) for req in deck]
    assert run.check_all(wl, results) == {}


def test_oracles_reject_a_wrong_answer():
    wl = workloads.VerifySuites(1)
    req = wl._request("torsor", "z2", 1)
    code, out, err = run.run_in_process(cli, req)
    assert wl.check(req, code, out, err) is None
    doctored = json.loads(out)
    doctored["data"]["counters"]["frames"] += 1
    assert wl.check(req, code, json.dumps(doctored), err) is not None
    assert wl.check(req, 1, out, err) is not None

    bq = workloads.BundleQueries(1)
    req = bq._winding_request("Z2", 2)
    code, out, err = run.run_in_process(cli, req)
    assert bq.check(req, code, out, err) is None
    assert bq.check(req, code, out.replace('"components": 4', '"components": 5'), err) is not None


# -- tracing ---------------------------------------------------------------


def test_installing_the_wrappers_changes_no_output():
    wl = workloads.BundleQueries(4)
    deck = wl.deck(random.Random(4))[:12] + [wl._winding_request("Z2", 3)]
    plain = [run.run_in_process(cli, req) for req in deck]
    import framebundles.frames as frames

    original = frames.wreath_act
    tracer = tracing.Tracer()
    patched = tracing.install(tracer)
    try:
        assert frames.wreath_act is not original
        traced = []
        for i, req in enumerate(deck):
            tracer.begin(i, len((req.stdin or "").encode()))
            traced.append(run.run_in_process(cli, req))
            tracer.end()
    finally:
        tracing.uninstall(patched)
    tracer.finish(0.0)
    assert frames.wreath_act is original
    assert traced == plain
    metrics, shares = tracing.layer_metrics(tracer, 1.0)
    assert metrics["cli.calls"] > 0 and metrics["specdoc.doc_bytes"] > 0
    assert metrics["frames.frames_enumerated"] > 0


def test_self_time_excludes_children(monkeypatch):
    monkeypatch.setattr(tracing, "SPAN_CAP", 2)
    tracer = tracing.Tracer()
    tracer.call_s, tracer.window_share = 1.0, 0.25

    def leaf():
        return sum(range(20000))

    leaf_w = tracer.wrap("u1", "leaf", leaf, None)

    def outer():
        return leaf_w() + leaf_w() + leaf_w()

    outer_w = tracer.wrap("bundles", "outer", outer, None)
    tracer.begin(0, 0)
    outer_w()
    raw = {key: list(rec) for key, rec in tracer.calls.items()}
    assert raw[("bundles", "outer")][3:] == [3, 3] and raw[("u1", "leaf")][3:] == [0, 0]
    tracer.end()
    tracer.finish(0.004)  # four wrapped calls: 1 ms each, a quarter inside the window
    (c_out, tot_out, self_out) = tracer.totals[("bundles", "outer")]
    (c_leaf, tot_leaf, self_leaf) = tracer.totals[("u1", "leaf")]
    assert (c_out, c_leaf) == (1, 3)
    assert tot_leaf == pytest.approx(raw[("u1", "leaf")][1] - 3 * 0.00025)
    assert self_leaf == pytest.approx(tot_leaf)
    assert tot_out == pytest.approx(raw[("bundles", "outer")][1] - 0.00025 - 3 * 0.001)
    assert self_out == pytest.approx(raw[("bundles", "outer")][2] - 0.00025 - 3 * 0.00075)
    assert self_out == pytest.approx(tot_out - tot_leaf)
    assert tracer.overhead_s == pytest.approx(0.004)
    # one span for outer, leaf capped at two individual spans, each parented to outer
    spans = [s for s in tracer.spans if s is not None]
    assert [s[1] for s in spans] == ["bundles.outer", "u1.leaf", "u1.leaf"]
    assert all(s[4] == spans[0][0] for s in spans[1:])


def test_tracer_cost_is_capped_by_the_calibrated_cost():
    tracer = tracing.Tracer()
    tracer.call_s = 1e-6
    leaf = tracer.wrap("u1", "leaf", lambda: None, None)
    tracer.begin(0, 0)
    for _ in range(10):
        leaf()
    tracer.end()
    tracer.finish(1.0)  # a second of noise is not the cost of ten calls
    assert tracer.overhead_s == pytest.approx(10 * tracing.COST_CAP * 1e-6)


def test_a_traced_run_cut_short_is_not_correct(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "TRACE_LIMIT_S", -1)
    monkeypatch.setattr(run, "BENCH_DIR", tmp_path / "bench")
    res = run.traced_run("bundle-queries", 1, BENCH.parent, tmp_path / "bench" / "spans.json",
                         run_start=0.0)
    assert not res["correct"] and res["failed"] == res["attempted"] > 0


def test_calibration_gives_a_cost_and_a_share():
    call_s, share = tracing.calibrate()
    assert 0 < call_s < 1e-4 and 0 < share < 1


# -- statistics ------------------------------------------------------------


@pytest.mark.parametrize("n,pct", [(11, 9), (50, 80), (91, 89), (100, 90), (400, 90)])
def test_tail_percentile_leaves_ten_samples_beyond(n, pct):
    assert run.tail_percentile(n) == pct
    samples = list(range(n))
    value = run.percentile_value(samples, pct)
    assert sum(1 for s in samples if s > value) >= 10
