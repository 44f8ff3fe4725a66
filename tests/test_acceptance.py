"""Acceptance battery: one test per criterion, each printing a pass/fail line.

All assertions are exact equalities (integer or rational); the only numeric
tolerances in this file are wall-clock budgets.  Run with ``pytest -v -s`` to
see the per-criterion lines.
"""

import itertools
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from argparse import Namespace
from fractions import Fraction
from pathlib import Path

import u1_oracles

from framebundles.bundles import (
    clutching_wreath,
    finite_winding_bundle,
    flat_bundle,
    frame_components,
    principal_fiber,
    quotient_bundle,
)
from framebundles.cli import cmd_classify_circle
from framebundles.frame_tables import check_equivalence
from framebundles.frames import WreathElement, enumerate_frames, wreath_identity, wreath_to_aut
from framebundles.groups import make_cyclic, make_direct_product
from framebundles.gsets import induced_orbit_map, standard_semitorsor
from framebundles.perms import perm_inverse
from framebundles.suites import fixture_groups, run_suite
from framebundles.u1 import (
    FiberPoint,
    U1FlatBundle,
    U1Wreath,
    adjoint,
    all_words,
    division_form_check,
    frame_transport,
    holonomy_u1,
    pushforward,
    scale_wreath,
    transport,
    u1_canonical_frame,
    u1_winding_bundle,
)

A = Fraction  # an angle; the records reduce it into [0, 1)


def _report(num, ok, detail):
    line = f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_z3_classification():
    start = time.monotonic()
    report = cmd_classify_circle(Namespace(group='{"kind": "cyclic", "n": 3}'))
    elapsed = time.monotonic() - start
    data = report.data
    ok = (
        data["aut_order"] == 2
        and len(data["classes"]) == 2
        and sorted(c["components"] for c in data["classes"]) == [2, 3]
        and elapsed < 1.0
    )
    _report(1, ok, f"Z3: 2 automorphisms, 2 classes, components {{3, 2}} in {elapsed:.2f}s")


def test_criterion_02_klein_classification():
    start = time.monotonic()
    spec = '{"kind": "product", "factors": [{"kind": "cyclic", "n": 2}, {"kind": "cyclic", "n": 2}]}'
    report = cmd_classify_circle(Namespace(group=spec))
    elapsed = time.monotonic() - start
    data = report.data
    ok = (
        data["aut_order"] == 6
        and not data["aut_abelian"]  # order 6 and nonabelian pins Sym(3)
        and len(data["classes"]) == 3
        and sorted(c["components"] for c in data["classes"]) == [2, 3, 4]
        and elapsed < 1.0
    )
    _report(2, ok, f"Z2xZ2: |Aut| = 6 nonabelian, 3 classes, components {{4, 3, 2}} in {elapsed:.2f}s")


def test_criterion_03_torsor_suite():
    start = time.monotonic()
    rep = run_suite("torsor", max_group=4, max_orbits=3)
    elapsed = time.monotonic() - start
    counted = all(
        c.ok for c in rep.checks if c.check == "frame count |G|^n n!"
    )
    ok = rep.ok and counted and elapsed < 30.0
    _report(3, ok, f"frame torsors free/transitive, |Fr| = |G|^n n!, groups <= 4, orbits <= 3 in {elapsed:.1f}s")


def test_criterion_04_wreath_iso_suite():
    start = time.monotonic()
    rep = run_suite("wreath-iso", max_group=4, max_orbits=3)
    elapsed = time.monotonic() - start
    ok = rep.ok and elapsed < 30.0
    _report(4, ok, f"wreath isomorphism + SES splitting, groups <= 4, orbits <= 3 in {elapsed:.1f}s")


def test_criterion_05_division_rules_suite():
    start = time.monotonic()
    rep = run_suite("division-rules", max_group=4, max_orbits=3)
    elapsed = time.monotonic() - start
    ok = rep.ok and elapsed < 10.0
    _report(5, ok, f"all four division rules exhaustively on free fixtures in {elapsed:.1f}s")


def test_criterion_06_category_equivalence():
    start = time.monotonic()
    ok = True
    for G in fixture_groups(3):
        for n in range(1, 4):
            F = standard_semitorsor(G, n)
            r = check_equivalence(F, F)
            expected = G.order**n * math.factorial(n)
            if not (
                r.bijective
                and r.gset_hom_count == expected
                and r.torsor_hom_count == expected
            ):
                ok = False
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    _report(6, ok, f"frame lift bijective on morphism sets of size |G|^n n!, |G| <= 3, n <= 3 in {elapsed:.1f}s")


def test_criterion_07_frame_bundle_winding():
    b = finite_winding_bundle(make_cyclic(2), 2)
    w = clutching_wreath(b, enumerate_frames(b.fiber).frames[0])[0]
    clutch_ok = w.g_tuple == (0, 0) and w.sigma == (1, 0)

    # independent orbit-count oracle on the raw frame tuples
    fs = enumerate_frames(b.fiber)
    value = b.clutching[0]
    seen = set()
    oracle = 0
    for t in fs.frames:
        if t in seen:
            continue
        oracle += 1
        cur = t
        while cur not in seen:
            seen.add(cur)
            cur = tuple(value[p] for p in cur)
    lifted = frame_components(b)
    count_ok = oracle == 4 and lifted == 4

    readme = Path(__file__).resolve().parent.parent / "README.md"
    docs_ok = "(k-1)!" in readme.read_text(encoding="utf-8")

    _report(
        7,
        clutch_ok and count_ok and docs_ok,
        "winding k=2 clutching (identity, (12)); frame-bundle components = 4 = brute-force count; substitution documented",
    )


def _decomposition_fixtures():
    z2 = make_cyclic(2)
    z3 = make_cyclic(3)
    klein = make_direct_product(z2, z2)
    fixtures = [
        finite_winding_bundle(z2, 2),
        finite_winding_bundle(z3, 3),
        finite_winding_bundle(klein, 2),
    ]
    # twisted torsor bundle
    torsor = standard_semitorsor(z3, 1)
    twist = wreath_to_aut(WreathElement(z3, (1,), (0,)), torsor)
    fixtures.append(flat_bundle(torsor, (twist,)))
    # trivial bundle with three orbits
    fiber = standard_semitorsor(z2, 3)
    fixtures.append(flat_bundle(fiber, (tuple(range(fiber.size)),)))
    # two loops over the wedge: a sheet swap and a pure translation
    f2 = standard_semitorsor(z2, 2)
    swap = wreath_to_aut(WreathElement(z2, (0, 0), (1, 0)), f2)
    shift = wreath_to_aut(WreathElement(z2, (1, 1), (0, 1)), f2)
    fixtures.append(flat_bundle(f2, (swap, shift)))
    return fixtures


def test_criterion_08_decomposition():
    ok = True
    for b in _decomposition_fixtures():
        q = quotient_bundle(b)
        for a, qa in zip(b.clutching, q.clutching):
            if qa != induced_orbit_map(b.fiber, b.fiber, a):
                ok = False
        if principal_fiber(b) != b.fiber.group.order:
            ok = False
    _report(8, ok, "quotient clutching = cq(clutching) and quotient map has |G|-point fibers on all fixtures")


def test_criterion_09_appendix_b():
    start = time.monotonic()
    rep = run_suite("appendix-b")
    elapsed = time.monotonic() - start
    conjugators = rep.counters.get("conjugators", 0)
    ok = rep.ok and conjugators == 6 + 24 and elapsed < 30.0
    _report(9, ok, f"labelling over all {conjugators} conjugators; action exists iff trivial, obstruction named in {elapsed:.1f}s")


def _u1_fixtures():
    return [
        u1_winding_bundle(1, [A(7, 12)]),
        u1_winding_bundle(2, [A(1, 3), A(5, 12)]),
        u1_winding_bundle(3, [A(1, 12), A(5, 12), A(0)]),
        U1FlatBundle(
            2,
            2,
            (
                U1Wreath((A(1, 4), A(5, 12)), (1, 0)),
                U1Wreath((A(1, 3), A(0)), (0, 1)),
            ),
        ),
    ]


def test_criterion_10_transport_suite():
    start = time.monotonic()
    ok = True

    # (a) pushforward commutes with holonomy for all words of length <= 6
    for b in _u1_fixtures():
        for q in (2, 3):
            pushed = pushforward(b, q)
            for word in all_words(b.loops, 6):
                if holonomy_u1(pushed, word) != scale_wreath(holonomy_u1(b, word), q):
                    ok = False

    # (b) frame holonomy = transport of each point, with the shared permutation
    for b in _u1_fixtures():
        frame = u1_canonical_frame(b.k)
        for word in all_words(b.loops, 4):
            h = holonomy_u1(b, word)
            moved = frame_transport(h, frame)
            s_inv = perm_inverse(h.sigma)
            for x in range(b.k):
                p = transport(b, word, FiberPoint(A(0), x))
                if p.sheet != h.sigma[x] or moved[h.sigma[x]].angle != p.angle:
                    ok = False
                if moved[h.sigma[x]].sheet != x:
                    ok = False
            if moved != tuple(
                FiberPoint(h.angles[slot], s_inv[slot]) for slot in range(b.k)
            ):
                ok = False

    # (c) adjoint homomorphism law, over products in plain Fraction arithmetic
    pool = [A(0), A(1, 12), A(7, 12)]
    for k in (2, 3):
        elems = [
            U1Wreath(tuple(angles), sigma)
            for angles in itertools.product(pool, repeat=k)
            for sigma in itertools.permutations(range(k))
        ]
        vec = tuple(Fraction(i + 1, 5) for i in range(k))
        for a in elems:
            for b in elems:
                ab = U1Wreath(*u1_oracles.mul(u1_oracles.of(a), u1_oracles.of(b)))
                if adjoint(ab, vec) != adjoint(a, adjoint(b, vec)):
                    ok = False

    # (d) division form reproduces linear rates exactly
    for rate, step, count in [
        (Fraction(1, 4), Fraction(1, 100), 6),
        (Fraction(5, 7), Fraction(1, 50), 5),
        (Fraction(3, 2), Fraction(1, 12), 4),
    ]:
        samples = [(a.numerator, a.denominator, 0) for a in (rate * step * i for i in range(count))]
        if division_form_check(samples, step).constant_rate != rate:
            ok = False

    # (e) squaring the zero-angle winding connection changes nothing
    flat = u1_winding_bundle(3)
    if pushforward(flat, 2) != flat:
        ok = False

    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    _report(10, ok, f"pushforward/frame/adjoint/division transport checks, exact equality, in {elapsed:.1f}s")


def test_frame_bundle_z2_k5_fits_in_100mb():
    # 3,840 frames, and a wreath product of the same order whose |W|^2 tables
    # would not fit: the CLI child runs under a 100 MB address-space limit
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (100 * 2**20, 100 * 2**20))

    doc = '{"kind": "winding", "group": {"kind": "cyclic", "n": 2}, "k": 5}'
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "framebundles.cli", "--format", "json", "frame-bundle", doc],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        timeout=60, preexec_fn=limit,
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)["data"]
    assert (data["frames"], data["components"]) == (3840, 768)


def test_frame_bundle_of_4000_perm_loops_within_5s_and_150mb():
    # a 132 KB document: 4,000 seeded random permutations of 7 points on a
    # trivial-group fiber, 5,040 frames; the loops that the walked component
    # already holds are skipped, so no lift is tabulated per loop and frame
    rng = random.Random(4000)
    perms = [rng.sample(range(7), 7) for _ in range(4000)]
    doc = json.dumps({"kind": "flat", "mode": "gspace", "loops": 4000,
                      "clutching": [{"perm": p} for p in perms],
                      "fiber": {"kind": "standard_semitorsor", "group": {"kind": "cyclic", "n": 1},
                                "n": 7}})

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (150 * 2**20, 150 * 2**20))

    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "framebundles.cli", "--format", "json", "frame-bundle", "-"],
        input=doc, env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        timeout=5, preexec_fn=limit,
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)["data"]
    assert (data["frames"], data["components"]) == (5040, 1)


def test_trivial_action_of_z2520_on_one_point_is_answered_quickly():
    # a 12.7 KB document: the action law costs one check per generator
    # edge, not one per pair of the 2520 elements
    doc = json.dumps({
        "kind": "flat", "mode": "gspace", "loops": 1, "clutching": [{"table": [0]}],
        "fiber": {"kind": "table", "group": {"kind": "cyclic", "n": 2520}, "act": [[0]] * 2520},
    })
    src = Path(__file__).resolve().parent.parent / "src"
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "framebundles.cli", "--format", "json", "components", doc],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60,
    )
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["data"]["components"] == 1
    assert elapsed < 3.0, f"{elapsed:.2f}s"
