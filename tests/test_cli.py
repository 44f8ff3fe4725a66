"""The command-line front end, in-process and in fresh interpreters."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import framebundles.bundles as bundles
import framebundles.cli as cli
import framebundles.errors as errors
import framebundles.frame_tables as frame_tables
import framebundles.frames as frames
import framebundles.groups as groups
import framebundles.perms as perms
import framebundles.suites as suites
from framebundles.cli import SUITE_NAMES, main
from table_oracles import LOOP_5

Z3_SPEC = '{"kind": "cyclic", "n": 3}'
KLEIN_SPEC = '{"kind": "product", "factors": [{"kind": "cyclic", "n": 2}, {"kind": "cyclic", "n": 2}]}'
WINDING_Z2_K2 = '{"kind": "winding", "group": {"kind": "cyclic", "n": 2}, "k": 2}'
U1_WINDING_K2 = '{"k": 2, "loops": 1, "generators": [{"angles": ["0", "0"], "perm": [1, 0]}]}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOLDEN_Z3 = """command: classify-circle
group: Z3 order 3
automorphisms: 2
conjugacy classes: 2
class size representative components
0 1 (0,1,2) 3
1 1 (0,2,1) 2
status: ok
"""

GOLDEN_KLEIN = """command: classify-circle
group: Z2xZ2 order 4
automorphisms: 6
conjugacy classes: 3
class size representative components
0 1 (0,1,2,3) 4
1 3 (0,1,3,2) 3
2 2 (0,2,3,1) 2
status: ok
"""


def test_classify_circle_z3_golden(capsys):
    code, out, _ = run(capsys, "classify-circle", "--group", Z3_SPEC)
    assert code == 0
    assert out == GOLDEN_Z3


def test_classify_circle_klein_golden(capsys):
    code, out, _ = run(capsys, "classify-circle", "--group", KLEIN_SPEC)
    assert code == 0
    assert out == GOLDEN_KLEIN


def test_classify_circle_trivial_group(capsys):
    code, out, _ = run(capsys, "classify-circle", "--group", '{"kind": "cyclic", "n": 1}')
    assert code == 0
    assert "automorphisms: 1" in out
    assert "conjugacy classes: 1" in out
    assert "0 1 (0) 1" in out


def test_classify_circle_deterministic(capsys):
    _, first, _ = run(capsys, "classify-circle", "--group", KLEIN_SPEC)
    _, second, _ = run(capsys, "classify-circle", "--group", KLEIN_SPEC)
    assert first == second


def test_classify_circle_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "classify-circle", "--group", Z3_SPEC)
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "ok"
    assert payload["data"]["aut_order"] == 2
    assert [c["components"] for c in payload["data"]["classes"]] == [3, 2]


def test_classify_circle_searches_each_generating_set_once(capsys, monkeypatch):
    s4_table = json.dumps({"kind": "table", "mul": groups.make_symmetric(4).mul})
    orbit_kernel = perms.perm_orbits
    searches = []

    def spy(perms, size):
        # a generating-set search starts from no generators; no other call
        # of the orbit kernel in this request passes an empty list
        if not perms:
            searches.append(size)
        return orbit_kernel(perms, size)

    monkeypatch.setattr(groups, "perm_orbits", spy)
    code, out, _ = run(capsys, "classify-circle", "--group", s4_table)
    assert code == 0 and "conjugacy classes: 5" in out
    assert searches == [24]  # once for G; Aut(G) keeps the generators its search found


def _refuse_table(*args):
    raise AssertionError("a Cayley table was built")


TABLE_FREE_REQUESTS = [
    ["verify", suite, "--group", group, "--orbits", "3"]
    for suite in ("wreath-iso", "ses", "torsor") for group in ("z4", "z2xz2")
] + [["classify-circle", "--group",
      json.dumps({"kind": "table", "mul": groups.make_symmetric(4).mul})]]


@pytest.mark.parametrize("argv", TABLE_FREE_REQUESTS,
                         ids=[f"{a[1]}-{a[3]}" for a in TABLE_FREE_REQUESTS[:-1]] + ["classify-S4-table"])
def test_requests_build_no_cayley_table(capsys, monkeypatch, argv):
    # the wreath product, Aut(G) and Aut(F) are read through generators only;
    # the one table a request may read is a table group's own, from its document
    given = [tuple(map(tuple, json.loads(a)["mul"])) for a in argv if a.startswith("{")]
    read_table = groups.table_group

    def read_given_table(mul, label):
        if mul not in given:
            _refuse_table()
        return read_table(mul, label)

    with monkeypatch.context() as patch:
        for name, module in list(sys.modules.items()):
            if name.startswith("framebundles"):
                for fn, spy in (("permutation_group", _refuse_table), ("table_group", read_given_table)):
                    if hasattr(module, fn):
                        patch.setattr(module, fn, spy)
        patched = run(capsys, *argv)
    assert patched[0] == 0
    assert patched == run(capsys, *argv)


def test_components_command(capsys):
    code, out, _ = run(capsys, "components", WINDING_Z2_K2)
    assert code == 0
    assert "components: 2" in out


def test_component_members_print_in_ascending_order(capsys):
    bundle = {"kind": "flat", "mode": "gspace", "loops": 1, "clutching": [{"perm": [2, 0, 1]}],
              "fiber": {"kind": "standard_semitorsor", "group": {"kind": "cyclic", "n": 1}, "n": 3}}
    code, out, _ = run(capsys, "components", json.dumps(bundle))
    assert code == 0
    assert out.splitlines()[1:3] == ["components: 1", "component 0: (0,1,2)"]


def test_frame_bundle_command(capsys):
    code, out, _ = run(capsys, "frame-bundle", WINDING_Z2_K2)
    assert code == 0
    assert "clutching 1: g=(0,0) sigma=(1,0)" in out
    assert "frame bundle components: 4" in out


def test_holonomy_command_empty_word(capsys):
    code, out, _ = run(capsys, "holonomy", WINDING_Z2_K2, "--word", "")
    assert code == 0
    assert "is identity: yes" in out


def test_holonomy_command_single_loop(capsys):
    code, out, _ = run(capsys, "holonomy", WINDING_Z2_K2, "--word", "1")
    assert code == 0
    assert "is identity: no" in out


def test_holonomy_bad_word_is_usage_error(capsys):
    code, _, err = run(capsys, "holonomy", WINDING_Z2_K2, "--word", "7")
    assert code == 2
    assert "error" in err


def test_sn_action_obstruction_exit_code(capsys):
    covering = json.dumps(
        {
            "kind": "flat",
            "mode": "gspace",
            "fiber": {"kind": "table", "group": {"kind": "cyclic", "n": 1}, "act": [[0, 1, 2]]},
            "loops": 1,
            "clutching": [{"perm": [1, 2, 0]}],
        }
    )
    code, out, _ = run(capsys, "sn-action", covering)
    assert code == 1
    assert "obstruction: generator 1" in out


def test_sn_action_success(capsys):
    covering = json.dumps(
        {
            "kind": "flat",
            "mode": "gspace",
            "fiber": {"kind": "table", "group": {"kind": "cyclic", "n": 1}, "act": [[0, 1, 2]]},
            "loops": 1,
            "clutching": [{"perm": [0, 1, 2]}],
        }
    )
    code, out, _ = run(capsys, "sn-action", covering)
    assert code == 0
    assert "global action" in out


def test_sn_action_small_fiber_is_obstruction_exit(capsys):
    covering = json.dumps(
        {
            "kind": "flat",
            "mode": "gspace",
            "fiber": {"kind": "table", "group": {"kind": "cyclic", "n": 1}, "act": [[0, 1]]},
            "loops": 1,
            "clutching": [{"perm": [1, 0]}],
        }
    )
    code, _, err = run(capsys, "sn-action", covering)
    assert code == 1
    assert "obstruction" in err


def test_decompose_command(capsys):
    code, out, _ = run(capsys, "decompose", WINDING_Z2_K2)
    assert code == 0
    assert "covering clutching 1: (1,0)" in out
    assert "principal fiber size |G|: 2" in out
    assert "covering components: 1" in out


def test_decompose_counts_covering_components_once(capsys, monkeypatch):
    calls = []
    count = bundles.total_components
    monkeypatch.setattr(bundles, "total_components", lambda b: calls.append(b) or count(b))
    code, _, _ = run(capsys, "--format", "json", "decompose", WINDING_Z2_K2)
    assert (code, len(calls)) == (0, 1)


def test_verify_unknown_suite_usage_error(capsys):
    code, _, err = run(capsys, "verify", "nonsense")
    assert code == 2
    assert "unknown suite" in err


def test_verify_beyond_fixture_bound_usage_error(capsys):
    code, _, err = run(capsys, "verify", "torsor", "--max-group", "7")
    assert code == 2
    assert "order 6" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--max-orbits", "0"], "--max-orbits must be at least 1, got 0"),
        (["--max-group", "0"], "--max-group must be at least 1, got 0"),
        (["--orbits", "0"], "--orbits must be at least 1, got 0"),
        (["--group", ""], "--group must name a group"),
    ],
    ids=["max-orbits", "max-group", "orbits", "group"],
)
def test_verify_refuses_an_option_that_selects_no_fixture(capsys, argv, message):
    code, out, err = run(capsys, "verify", "torsor", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("option, value", [("--group", "nonsense"), ("--orbits", "9"),
                                           ("--max-group", "4"), ("--max-orbits", "3")])
def test_verify_appendix_b_refuses_an_option_it_would_ignore(capsys, option, value):
    code, out, err = run(capsys, "verify", "appendix-b", option, value)
    assert (code, out) == (2, "")
    assert err == f"error: appendix-b takes no {option}: its fixtures are S3 and S4\n"


def test_verify_small_suite(capsys):
    code, out, _ = run(capsys, "verify", "wreath-iso", "--group", "z2", "--orbits", "2")
    assert code == 0
    assert "counter homomorphism pairs: 64" in out
    assert "status: ok" in out


def test_verify_json_deterministic(capsys):
    _, first, _ = run(capsys, "--format", "json", "verify", "division-rules", "--group", "z2", "--orbits", "2")
    _, second, _ = run(capsys, "--format", "json", "verify", "division-rules", "--group", "z2", "--orbits", "2")
    assert first == second
    assert json.loads(first)["status"] == "ok"


def test_u1_holonomy_command(capsys):
    code, out, _ = run(capsys, "u1-holonomy", U1_WINDING_K2, "--word", "1")
    assert code == 0
    assert "holonomy: angles=(0,0) sigma=(1,0)" in out


def test_u1_transport_command(capsys):
    code, out, _ = run(
        capsys,
        "u1-transport",
        U1_WINDING_K2,
        "--word",
        "1",
        "--start",
        '{"angle": "0", "sheet": 0}',
    )
    assert code == 0
    assert "end: angle=0 sheet=1" in out


def test_pushforward_command(capsys):
    spec = '{"k": 1, "loops": 1, "generators": [{"angles": ["1/3"], "perm": [0]}]}'
    code, out, _ = run(capsys, "pushforward", spec, "--power", "3")
    assert code == 0
    assert "generator 1: angles=(0) sigma=(0)" in out


def test_division_check_command(capsys):
    path_doc = json.dumps(
        {
            "step": "1/100",
            "points": [{"angle": f"{i}/400", "sheet": 0} for i in range(4)],
        }
    )
    code, out, _ = run(capsys, "division-check", U1_WINDING_K2, "--path", path_doc)
    assert code == 0
    assert "constant rate: 1/4" in out


def test_division_check_builds_fractions_and_fiber_points_only_for_results(capsys, monkeypatch):
    # design probe: samples stream as ints; a Fraction is built once per distinct
    # rate, and no FiberPoint and no Fraction from a string is built at all
    import fractions

    import framebundles.u1 as u1

    built = {"FiberPoint": 0, "Fraction(str)": 0}
    point_init, fraction_new = u1.FiberPoint.__init__, fractions.Fraction.__new__

    def counted_point(self, *args):
        built["FiberPoint"] += 1
        point_init(self, *args)

    def counted_fraction(cls, numerator=0, denominator=None, **kwargs):
        built["Fraction(str)"] += isinstance(numerator, str)
        return fraction_new(cls, numerator, denominator, **kwargs)

    results = []
    check = u1.division_form_check
    monkeypatch.setattr(u1.FiberPoint, "__init__", counted_point)
    monkeypatch.setattr(fractions.Fraction, "__new__", counted_fraction)
    monkeypatch.setattr(u1, "division_form_check", lambda *a: results.append(check(*a)) or results[-1])
    points = [{"angle": f"{i * i % 97}/{97 if i % 2 else 194}", "sheet": 1} for i in range(300)]
    path_doc = json.dumps({"step": "1/100", "points": points})
    code, _, _ = run(capsys, "--format", "json", "division-check", U1_WINDING_K2, "--path", path_doc)
    assert code == 0
    assert built == {"FiberPoint": 0, "Fraction(str)": 0}
    rates = results[0].rates
    assert len(rates) == 299 and len({id(r) for r in rates}) == len(set(rates)) > 1


def test_division_check_mixed_sheets_obstruction(capsys):
    path_doc = json.dumps(
        {
            "step": "1/100",
            "points": [{"angle": "0", "sheet": 0}, {"angle": "0", "sheet": 1}],
        }
    )
    code, _, err = run(capsys, "division-check", U1_WINDING_K2, "--path", path_doc)
    assert code == 1
    assert "obstruction" in err


@pytest.mark.parametrize("bad", ["1e-2", "1/0", "x", True, "1" * 4301])
def test_bad_sample_outranks_an_earlier_sheet_crossing(capsys, bad):
    # every sample is read before the sheets are compared: a schema error
    # anywhere in the path exits 2, even after the path has crossed sheets
    points = [{"angle": "0", "sheet": 0}, {"angle": "1/4", "sheet": 1},
              {"angle": "1/2", "sheet": 1}, {"angle": bad, "sheet": 1}]
    path_doc = json.dumps({"step": "1/4", "points": points})
    code, out, err = run(capsys, "division-check", U1_WINDING_K2, "--path", path_doc)
    want = ("expected an integer or a 'p/q' string" if bad is True
            else f"bad rational {bad!r}")
    assert (code, out, err) == (2, "", f"error: path.points[3].angle: {want}\n")
    points[3]["sheet"] = 2
    code, out, err = run(capsys, "division-check", U1_WINDING_K2, "--path",
                         json.dumps({"step": "1/4", "points": points}))
    assert (code, err) == (2, "error: path.points[3].sheet: out of range for 2 sheets\n")


def test_schema_error_exit_code(capsys):
    code, _, err = run(capsys, "classify-circle", "--group", '{"kind": "cyclic"}')
    assert code == 2
    assert "error" in err


def _error_classes(cls=errors.FrameBundlesError):
    return [cls] + [c for sub in cls.__subclasses__() for c in _error_classes(sub)]


def test_the_obstruction_classes_are_the_six_named():
    assert {c.__name__ for c in _error_classes(errors.Obstruction)} == {
        "Obstruction", "NotFree", "NoQuotient", "OrbitObstruction", "TooSmall", "NotFaithful",
        "ModeMismatch"}


@pytest.mark.parametrize("cls", _error_classes(), ids=lambda c: c.__name__)
def test_exit_code_and_prefix_follow_the_error_class(cls, capsys, monkeypatch):
    def refuse(b):
        raise cls("refused")

    monkeypatch.setattr(bundles, "components", refuse)
    code, out, err = run(capsys, "components", WINDING_Z2_K2)
    if issubclass(cls, errors.Obstruction):
        assert (code, out, err) == (1, "", "obstruction: refused\n")
    else:
        assert (code, out, err) == (2, "", "error: refused\n")


def test_stdin_document(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(Z3_SPEC))
    code, out, _ = run(capsys, "classify-circle", "--group", "-")
    assert code == 0
    assert "automorphisms: 2" in out


def _wreath_bundle(g, perm):
    return {
        "kind": "flat",
        "mode": "gspace",
        "fiber": {"kind": "standard_semitorsor", "group": {"kind": "cyclic", "n": 2}, "n": 2},
        "loops": 1,
        "clutching": [{"wreath": {"g": g, "perm": perm}}],
    }


@pytest.mark.parametrize(
    "bundle, message",
    [
        (_wreath_bundle([0, 0], [-1, 0]),
         "bundle.clutching[0].wreath: perm is not a permutation of 0..1"),
        (_wreath_bundle([-1, 0], [0, 1]),
         "bundle.clutching[0].wreath: group entries must lie in 0..1"),
        (_wreath_bundle([0], [1, 0]),
         "bundle.clutching[0].wreath: wreath element does not match the target semi-torsor"),
        ({"kind": "flat", "mode": "gspace",
          "fiber": {"kind": "table", "group": {"kind": "cyclic", "n": 2}, "act": [[0, 1], [5, 0]]},
          "loops": 1, "clutching": [{"table": [0, 1]}]},
         "bundle.fiber.act: action table entry out of range"),
        # free, two orbits, the size of Z2 x I_2, but not its packing (h, x) -> 2h + x
        ({"kind": "flat", "mode": "gspace",
          "fiber": {"kind": "table", "group": {"kind": "cyclic", "n": 2},
                    "act": [[0, 1, 2, 3], [1, 0, 3, 2]]},
          "loops": 1, "clutching": [{"wreath": {"g": [0, 0], "perm": [1, 0]}}]},
         "bundle.clutching[0].wreath: fiber is not a standard semi-torsor"),
        ({"kind": "flat", "mode": "group", "fiber": {"kind": "cyclic", "n": 3},
          "loops": 1, "clutching": [{"aut": [0, 2, 7]}]},
         "bundle.clutching[0].aut: image table entry out of range"),
    ],
    ids=["wreath-perm-negative", "wreath-g-negative", "wreath-g-short", "act-out-of-range",
         "wreath-fiber-not-g-x-i-n", "aut-out-of-range"],
)
def test_out_of_range_document_is_usage_error(capsys, bundle, message):
    code, out, err = run(capsys, "components", json.dumps(bundle))
    assert (code, out, err) == (2, "", f"error: {message}\n")


EMPTY_FIBER = {
    "kind": "flat", "mode": "gspace", "loops": 1, "clutching": [{"table": []}],
    "fiber": {"kind": "table", "group": {"kind": "cyclic", "n": 2}, "act": [[], []]},
}


@pytest.mark.parametrize("command", ["components", "holonomy", "frame-bundle", "sn-action",
                                     "decompose"])
def test_empty_fiber_is_usage_error(capsys, command):
    code, out, err = run(capsys, command, json.dumps(EMPTY_FIBER))
    assert (code, out, err) == (2, "", "error: bundle: the fiber has no points\n")


@pytest.mark.parametrize(
    "bundle",
    [
        {"kind": "winding", "group": {"kind": "cyclic", "n": 2}, "k": 2**63},
        {"kind": "flat", "mode": "gspace", "loops": 0, "clutching": [],
         "fiber": {"kind": "standard_semitorsor", "group": {"kind": "cyclic", "n": 2}, "n": 2**63}},
    ],
    ids=["winding-k", "semitorsor-n"],
)
def test_huge_semitorsor_is_refused_before_it_is_built(capsys, bundle):
    code, out, err = run(capsys, "components", json.dumps(bundle))
    message = f"enumerating {2**64} group-set points exceeds the bound 20000"
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_wreath_iso_is_refused_before_listing_the_wreath_elements(capsys):
    code, out, err = run(capsys, "verify", "wreath-iso", "--group", "s4", "--orbits", "3")
    assert (code, out) == (2, "")
    assert err == "error: enumerating 82944 wreath elements exceeds the bound 20000\n"


def test_semitorsor_action_table_is_refused_past_the_largest_cayley_table(capsys, monkeypatch):
    # |G| |G| n = 4 * 4 * 7 = 112 entries > 10^2, for 28 points and a table of order 4
    import framebundles.config as config

    monkeypatch.setattr(config, "MAX_TABLE_ORDER", 10)
    doc = '{"kind": "winding", "group": {"kind": "cyclic", "n": 4}, "k": 7}'
    code, out, err = run(capsys, "components", doc)
    message = "action table of G x I_n: 112 entries exceed config.MAX_TABLE_ORDER ** 2 = 100"
    assert (code, out, err) == (2, "", f"error: {message}\n")


def wreath_loops_document(loops):
    """A gspace bundle with ``loops`` wreath loops on Z100 x I_2, whose fiber has
    100^2 2! = 20,000 frames, the most that ``config.MAX_ENUMERATION`` admits."""
    entries = [{"wreath": {"g": [i % 100, 7 * i % 100], "perm": [i % 2, 1 - i % 2]}}
               for i in range(loops)]
    return {"kind": "flat", "mode": "gspace", "loops": loops, "clutching": entries,
            "fiber": {"kind": "standard_semitorsor", "group": {"kind": "cyclic", "n": 100},
                      "n": 2}}


def test_frame_bundle_of_1271_wreath_loops_has_8_components(capsys):
    # 20,000 frames and 1,271 loops: lifting every loop over every frame would
    # compute 25,420,000 frame indices, but only the base frame's component
    # is walked; 8 is what those full lift tables give
    code, out, err = run(capsys, "frame-bundle", json.dumps(wreath_loops_document(1271)))
    lines = out.splitlines()
    # the command and frame-count lines, the frames, the reference, the loops
    assert (code, err, len(lines)) == (0, "", 2 + 20000 + 1 + 1271 + 2)
    assert lines[-2:] == ["frame bundle components: 8", "status: ok"]


def test_equivalence_tables_are_refused_past_the_largest_cayley_table(capsys):
    # Z4 with 4 orbits has 6,144 frames: two sets of 6,144 tables of 6,144 entries
    code, out, err = run(capsys, "verify", "equivalence", "--group", "z4", "--orbits", "4")
    message = ("frame-index tables of the equivalence check: 37748736 entries exceed "
               "config.MAX_TABLE_ORDER ** 2 = 25401600")
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, what",
    [
        (["frame-bundle", json.dumps({"kind": "winding", "group": {"kind": "cyclic", "n": 1},
                                      "k": 2000})], "frames"),
        (["verify", "torsor", "--group", "z1", "--orbits", "2000"], "frames"),
    ],
    ids=["frame-bundle", "verify"],
)
def test_refusal_names_the_bound_when_the_estimate_is_too_long_to_print(capsys, argv, what):
    # 2000! frames has 5,736 digits, more than str() prints of an int
    code, out, err = run(capsys, *argv)
    message = f"enumerating at least 2^19052 {what} exceeds the bound 20000"
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("n", [8, 2000])
def test_sn_action_answers_a_trivial_covering_of_any_size(capsys, n):
    # the natural action is named, not listed, so 8! or 2000! permutations bound nothing
    doc = {"kind": "flat", "mode": "gspace", "loops": 1, "clutching": [{"perm": list(range(n))}],
           "fiber": {"kind": "standard_semitorsor", "group": {"kind": "cyclic", "n": 1}, "n": n}}
    code, out, err = run(capsys, "sn-action", json.dumps(doc))
    assert (code, err) == (0, "")
    assert f"fiber size: {n}\n" in out
    assert "global action: natural symmetric action via the trivialization\n" in out


def test_unreadable_document_path_is_usage_error(capsys, tmp_path):
    long_name = "a" * 300
    code, out, err = run(capsys, "components", long_name)
    assert (code, out) == (2, "")
    assert err == f"error: cannot read document {long_name}: File name too long\n"
    code, out, err = run(capsys, "components", str(tmp_path))
    assert (code, out, err) == (2, "", f"error: cannot read document {tmp_path}: Is a directory\n")
    code, out, err = run(capsys, "components", str(tmp_path / "missing.json"))
    assert (code, out, err) == (2, "", f"error: document not found: {tmp_path / 'missing.json'}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["classify-circle", "--group", '{"kind": "table", "mul": [[0, 1], [1]]}'],
         "group.mul: multiplication table has wrong shape"),
        (["classify-circle", "--group", '{"kind": "table", "mul": [[0, true], [true, 0]]}'],
         "group.mul[0]: expected an integer"),
        (["components", json.dumps(
            {"kind": "flat", "mode": "gspace",
             "fiber": {"kind": "table", "group": {"kind": "cyclic", "n": 1}, "act": [["x"]]},
             "loops": 1, "clutching": [{"table": [0]}]})],
         "bundle.fiber.act[0]: expected an integer"),
        (["classify-circle", "--group", '{"kind": "table", "mul": [[1, 0], [0, 0]]}'],
         "group.mul: table has no identity element"),
        (["classify-circle", "--group", '{"kind": "table", "mul": [[0, 1], [0, 1]]}'],
         "group.mul: table has no identity element"),
        (["classify-circle", "--group", '{"kind": "table", "mul": [[0, 1, 2], [1, 2, 2], [2, 0, 1]]}'],
         "group.mul: element 1 has no two-sided inverse"),
        (["classify-circle", "--group", '{"kind": "table", "mul": [[0, 1, 2], [1, 2, 0], [2, 1, 1]]}'],
         "group.mul: element 1 has no two-sided inverse"),
    ],
    ids=["ragged-mul", "boolean-mul", "string-act", "no-identity", "left-identity-only",
         "no-inverse", "right-inverse-only"],
)
def test_malformed_table_is_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def _flat(fiber, clutching, mode="gspace", loops=None):
    return json.dumps({"kind": "flat", "mode": mode, "fiber": fiber, "clutching": clutching,
                       "loops": len(clutching) if loops is None else loops})


Z2_GROUP = {"kind": "cyclic", "n": 2}
TRIVIAL_2 = {"kind": "table", "group": {"kind": "cyclic", "n": 1}, "act": [[0, 1]]}
Z2_X_I1 = {"kind": "standard_semitorsor", "group": Z2_GROUP, "n": 1}


@pytest.mark.parametrize(
    "argv, stdin, message",
    [
        (["components", _flat({"kind": "table", "group": Z2_GROUP, "act": [[0]]},
                              [{"table": [0]}])], "",
         "bundle.fiber.act: action table has wrong shape"),
        (["components", _flat({"kind": "table", "group": Z2_GROUP, "act": 3},
                              [{"table": [0]}])], "",
         "bundle.fiber.act: expected a list of integer lists"),
        (["components", _flat({**Z2_X_I1, "n": 0}, [])], "", "need at least one orbit"),
        (["components", _flat(Z2_X_I1, [{"table": [0]}])], "",
         "bundle.clutching[0]: value table has wrong length"),
        (["components", _flat(Z2_X_I1, [])], "",
         "bundle: a bundle over a wedge needs at least one loop"),
        (["components", _flat(TRIVIAL_2, [{"swap": [1, 0]}])], "",
         "bundle.clutching[0]: unknown clutching form 'swap'"),
        (["components", _flat(Z2_GROUP, [{"aut": [0, 1]}] * 2, mode="group")], "",
         "bundle.loops: group mode supports a single circle"),
        (["components", _flat(Z2_GROUP, [{"perm": [0, 1]}], mode="group")], "",
         "bundle.clutching[0]: group mode expects {'aut': [...]}"),
        (["components", _flat(TRIVIAL_2, [{"perm": [1, 0]}], mode="fiber")], "",
         "bundle.mode: unknown mode 'fiber'"),
        (["components", json.dumps({"kind": "winding", "group": Z2_GROUP, "k": 0})], "",
         "bundle.k: must be >= 1"),
        (["components", _flat({}, [{"perm": [0]}])], "",
         "bundle.fiber: expected an object with a 'kind' field"),
        (["components", "-"], "[1, 2]", "bundle: expected an object with a 'kind' field"),
        (["classify-circle", "--group", '{"kind": "table", "mul": []}'], "",
         "group.mul: a group has at least one element"),
        (["classify-circle", "--group", '{"kind": "product", "factors": []}'], "",
         "group.factors: expected a non-empty list"),
        (["u1-holonomy", '{"k": 2, "loops": 1, "generators": [{"angles": ["0", "0"], '
          '"perm": [0, 0]}]}', "--word", "1"], "",
         "u1.generators[0].perm: not a permutation of 0..1"),
        (["division-check", U1_WINDING_K2, "--path",
          '{"step": "1/4", "points": [{"angle": "0", "sheet": 0}]}'], "",
         "path.points: need at least two samples"),
    ],
    ids=["act-one-row", "act-not-a-list", "semitorsor-n-0", "table-too-short", "no-loops",
         "swap-form", "group-mode-two-loops", "group-mode-perm", "unknown-mode",
         "winding-k-0", "fiber-empty-object", "bundle-not-an-object", "mul-empty",
         "factors-empty", "u1-perm-not-a-bijection", "path-one-sample"],
)
def test_document_refusal_is_a_usage_error(capsys, monkeypatch, argv, stdin, message):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_non_associative_latin_square_names_a_failing_triple(capsys):
    doc = json.dumps({"kind": "table", "mul": LOOP_5})
    code, out, err = run(capsys, "classify-circle", "--group", doc)
    assert (code, out) == (2, "")
    assert err.startswith("error: group.mul: associativity fails at (")
    x, a, y = (int(v) for v in err.split("(")[1].split(")")[0].split(","))
    mul = LOOP_5
    assert mul[mul[x][a]][y] != mul[x][mul[a][y]]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["u1-transport", U1_WINDING_K2, "--word", "1",
          "--start", '{"angle": "1e-1000000", "sheet": 0}'],
         "point.angle: bad rational '1e-1000000'"),
        (["division-check", U1_WINDING_K2, "--path", json.dumps(
            {"step": "1E-1000000", "points": [{"angle": "0", "sheet": 0}] * 2})],
         "path.step: bad rational"),
    ],
    ids=["start-angle", "step"],
)
def test_exponent_rational_is_refused_before_it_is_expanded(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_division_rules_checks_every_automorphism(capsys, monkeypatch):
    true_homs = frame_tables.gset_homs

    def true_homs_then_a_swap(F, F2):
        # last, a value table that swaps two points of the orbit of point 0
        homs = true_homs(F, F2)
        a, b = sorted({F.act[g][0] for g in range(F.group.order)})[:2]
        value = list(homs[0])
        value[a], value[b] = value[b], value[a]
        return homs + [tuple(value)]

    monkeypatch.setattr(frame_tables, "gset_homs", true_homs_then_a_swap)
    code, out, _ = run(capsys, "verify", "division-rules", "--group", "z3", "--orbits", "1")
    assert "PASS [Z3 n=1] scaling rule\n" in out
    # the table swapping points 0 and 1 is the counterexample, first at [1/0]
    assert "FAIL [Z3 n=1] automorphism invariance ((1, 0, 2) sends [1/0] = 1 to 2)" in out
    assert code == 1


def test_wreath_iso_names_its_counterexamples(capsys, monkeypatch):
    from framebundles.frames import WreathElement

    true_map = frames.wreath_to_aut

    def sigma_inverted(w, F):  # an anti-homomorphism on the permutation part
        return true_map(WreathElement(w.group, w.g_tuple, perms.perm_inverse(w.sigma)), F)

    monkeypatch.setattr(frames, "wreath_to_aut", sigma_inverted)
    code, out, _ = run(capsys, "verify", "wreath-iso", "--group", "z2", "--orbits", "3")
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert [line.split(" (")[0] for line in fails] == [
        "FAIL [Z2 n=3] homomorphism on all pairs",
        "FAIL [Z2 n=3] round trip to wreath",
        "FAIL [Z2 n=3] orbit permutation matches sigma",
    ]
    assert fails[0].endswith(", s=WreathElement(g=(1, 0, 0), sigma=(0, 1, 2)))")
    assert "comes back as" in fails[1] and "permutes the orbits by" in fails[2]


def test_wreath_iso_names_a_clash_and_an_automorphism_that_no_element_reaches(capsys,
                                                                              monkeypatch):
    from framebundles.frames import wreath_identity

    true_map = frames.wreath_to_aut
    # every element maps as the identity does: one table for both elements of Z2
    monkeypatch.setattr(frames, "wreath_to_aut",
                        lambda w, F: true_map(wreath_identity(w.group, w.n), F))
    code, out, _ = run(capsys, "verify", "wreath-iso", "--group", "z2", "--orbits", "1")
    assert code == 1
    assert ("FAIL [Z2 n=1] injective (WreathElement(g=(0,), sigma=(0,)) and "
            "WreathElement(g=(1,), sigma=(0,)) map to one automorphism)\n") in out
    assert "FAIL [Z2 n=1] surjective onto Aut(G x X) (no element reaches (1, 0))\n" in out


def test_functor_laws_names_a_frame_that_the_identity_lift_moves(capsys, monkeypatch):
    # the swap of the two points of I_2 passed off as the identity map, whose
    # lift is the first one the suite asks for
    true_lift = frame_tables.lift_table
    lifted = []

    def swap_for_the_identity(source, target, value):
        if not lifted:
            value = frame_tables.gset_homs(source, source)[-1]
        lifted.append(value)
        return true_lift(source, target, value)

    monkeypatch.setattr(frame_tables, "lift_table", swap_for_the_identity)
    code, out, _ = run(capsys, "verify", "functor-laws", "--group", "z1", "--orbits", "2")
    assert code == 1
    assert "FAIL [Z1 n=2] identity lifts to identity (the lift moves frame (0, 1))\n" in out
    assert "PASS [Z1 n=2] composition law on all pairs\n" in out


def test_ses_names_an_automorphism_that_the_orbit_map_puts_in_the_wrong_kernel(capsys,
                                                                                monkeypatch):
    import framebundles.gset_aut as gset_aut

    # an orbit map that sends every automorphism to the identity permutation
    monkeypatch.setattr(gset_aut, "induced_orbit_map",
                        lambda source, target, value: (0, 1))
    code, out, _ = run(capsys, "verify", "ses", "--group", "z1", "--orbits", "2")
    assert code == 1
    assert ("FAIL [Z1 n=2] kernel of cq is the orbit-preserving part "
            "(cq sends (1, 0) to (0, 1), but (1, 0) moves an orbit)\n") in out


def test_ses_counts_the_orbit_preserving_automorphisms(capsys, monkeypatch):
    import framebundles.gset_aut as gset_aut

    true_homs = gset_aut.gset_homs
    monkeypatch.setattr(gset_aut, "gset_homs", lambda F, F2: true_homs(F, F2)[1:])
    code, out, _ = run(capsys, "verify", "ses", "--group", "z2", "--orbits", "1")
    assert code == 1
    assert ("FAIL [Z2 n=1] kernel of cq is the orbit-preserving part "
            "(1 automorphisms fix the orbits, not |G|^n = 2)\n") in out


def test_ses_names_a_permutation_that_no_automorphism_reaches(capsys, monkeypatch):
    import framebundles.gset_aut as gset_aut

    true_homs = gset_aut.gset_homs
    # only the orbit-preserving automorphisms, so cq reaches the identity alone
    monkeypatch.setattr(gset_aut, "gset_homs", lambda F, F2: true_homs(F, F2)[:1])
    code, out, _ = run(capsys, "verify", "ses", "--group", "z1", "--orbits", "2")
    assert code == 1
    assert "FAIL [Z1 n=2] cq surjective (no automorphism maps to (1, 0))\n" in out


def test_ses_names_a_permutation_that_the_section_does_not_split(capsys, monkeypatch):
    import framebundles.gset_aut as gset_aut

    # a section that sends every permutation to the identity map
    monkeypatch.setattr(gset_aut, "section_from_frame",
                        lambda F, f, sigma: tuple(range(F.size)))
    code, out, _ = run(capsys, "verify", "ses", "--group", "z1", "--orbits", "2")
    assert code == 1
    assert "PASS [Z1 n=2] cq surjective\n" in out
    assert "FAIL [Z1 n=2] section splits cq (the section sends (1, 0) to (0, 1))\n" in out


@pytest.mark.parametrize(("orbits", "lift", "detail"), [
    # the fourth morphism lifts as the second: their tables collide, and the
    # fourth is named with its torsor twin
    ("3", lambda true_lift, s, t, value:
        true_lift(s, t, (0, 2, 1) if value == (1, 2, 0) else value),
     "the morphism sending the base frame to (1,2,0) lifts to (1, 0, 4, 5, 2, 3), "
     "not to the torsor morphism (3, 2, 5, 4, 0, 1)"),
    # the swap lifts to a table that is no torsor morphism, and none collides
    ("2", lambda true_lift, s, t, value: true_lift(s, t, value) if value == (0, 1) else [0, 0],
     "the morphism sending the base frame to (1,0) lifts to (0, 0), "
     "not to the torsor morphism (1, 0)"),
], ids=["collision", "unmatched"])
def test_equivalence_names_a_table_that_breaks_the_bijection(capsys, monkeypatch, orbits, lift,
                                                             detail):
    true_lift = frame_tables.lift_table
    monkeypatch.setattr(frame_tables, "lift_table",
                        lambda s, t, value: lift(true_lift, s, t, value))
    code, out, _ = run(capsys, "verify", "equivalence", "--group", "z1", "--orbits", orbits)
    assert code == 1
    assert f"PASS [Z1 n={orbits}] torsor morphism count" in out
    assert f"FAIL [Z1 n={orbits}] lift is a bijection ({detail})\n" in out


def test_appendix_b_names_the_first_conjugator_that_is_not_recovered(capsys, monkeypatch):
    # a labelling that always answers the identity recovers only tau = e
    monkeypatch.setattr(bundles, "sn_labelling", lambda n, action: tuple(range(n)))
    code, out, _ = run(capsys, "verify", "appendix-b")
    assert code == 1
    assert ("FAIL [S3] labelling recovers all 6 conjugators "
            "(conjugator (0, 2, 1) labelled (0, 1, 2), not (0, 2, 1))\n") in out
    assert ("FAIL [S4] labelling recovers all 24 conjugators "
            "(conjugator (0, 1, 3, 2) labelled (0, 1, 2, 3), not (0, 1, 3, 2))\n") in out


def test_appendix_b_names_the_generator_that_refuses_the_global_action(capsys, monkeypatch):
    def refuse(b):
        n = b.fiber.size
        return bundles.SnActionReport(False, n, 1, tuple(reversed(range(n))))

    monkeypatch.setattr(bundles, "sn_action_on_bundle", refuse)
    code, out, _ = run(capsys, "verify", "appendix-b")
    assert code == 1
    assert ("FAIL [S3] global action on the trivial covering "
            "(generator 1 has permutation (2,1,0))\n") in out
    assert ("FAIL [S4] global action on the trivial covering "
            "(generator 1 has permutation (3,2,1,0))\n") in out


# -- fresh interpreters ------------------------------------------------------
# The in-process tests run after pytest has imported every layer, so a handler
# that lost one of its own imports would still pass there.

TESTS = Path(__file__).parent
SRC_ENV = dict(os.environ, PYTHONPATH=str(TESTS.parent / "src"))
SUBPROCESS_CASES = [
    "classify_z3_text", "components_wreath_two_loops_text", "frame_bundle_wreath_text",
    "holonomy_word_text", "sn_action_trivial_text", "decompose_z3_text",
    "verify_appendix_b_text", "u1_holonomy_text", "u1_transport_json", "pushforward_text",
    "division_check_json",
]
# prints the loaded modules on the last line, after the report
MODULES_PROBE = "import sys\nfrom framebundles.cli import main\nmain(sys.argv[1:])\nprint(*sorted(sys.modules))"


def _fresh(*args):
    return subprocess.run([sys.executable, *args], env=SRC_ENV, capture_output=True, timeout=120)


def test_subprocess_cases_cover_every_subcommand():
    commands = {json.loads((TESTS / "golden" / f"{c}.json").read_text())["argv"][2]
                for c in SUBPROCESS_CASES}
    assert len(commands) == len(SUBPROCESS_CASES) == 11


@pytest.mark.parametrize("name", SUBPROCESS_CASES)
def test_golden_case_in_a_fresh_interpreter(name):
    case = json.loads((TESTS / "golden" / f"{name}.json").read_text(encoding="utf-8"))
    proc = _fresh("-m", "framebundles.cli", *case["argv"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        case["exit"], case["stdout"].encode(), case["stderr"].encode()
    )


# The package modules (cli included, the package's __init__ not) and their
# lines that a group-mode request loaded before the permutation kernel and the
# frame tables had modules of their own; each such request may load those two
# modules more, and their headers, up to 60 lines.
GROUP_MODE_LOADS = {"classify-circle": (7, 1142), "verify": (11, 2240)}
# what a request of each family must not load
FAMILY_EXCLUDES = {"circle_commands": {"groups", "gsets", "frames", "frame_tables"},
                   "bundle_commands": {"gset_aut", "frame_tables", "suites", "u1"}}


@pytest.mark.parametrize("name", SUBPROCESS_CASES)
def test_a_request_under_python_m_imports_the_front_end_once(name):
    # run as __main__, cli would compile and run a second time if a module it
    # loads imported framebundles.cli
    case = json.loads((TESTS / "golden" / f"{name}.json").read_text(encoding="utf-8"))
    proc = _fresh("-X", "importtime", "-m", "framebundles.cli", *case["argv"])
    assert (proc.returncode, proc.stdout) == (case["exit"], case["stdout"].encode())
    imported = [line.rsplit(b"|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith(b"import time:")]
    assert b"framebundles.cli" not in imported
    loaded = {n.decode().partition(".")[2] for n in imported if n.startswith(b"framebundles.")}
    loaded.add("cli")
    command = case["argv"][2]
    family = cli.GRAMMAR[command][1].rpartition(".")[0]
    if family:  # the family module is listed too
        assert family in loaded
        assert not loaded & FAMILY_EXCLUDES[family]
    else:
        modules, lines = GROUP_MODE_LOADS[command]
        src = TESTS.parent / "src" / "framebundles"
        assert len(loaded) <= modules + 2
        assert sum(len((src / f"{m}.py").read_text().splitlines()) for m in loaded) <= lines + 60


# cli.run ends the process with os._exit once main has returned, so a request's
# process must flush all it wrote first, whether or not PYTHONUNBUFFERED is set
BUFFERING = ("unbuffered", "buffered")
MOVED_COVERING = json.dumps({"kind": "flat", "mode": "gspace", "loops": 1,
                             "fiber": {"kind": "table", "group": {"kind": "cyclic", "n": 1},
                                       "act": [[0, 1, 2]]},
                             "clutching": [{"perm": [1, 2, 0]}]})
EXIT_CASES = {
    "z720-json": (0, ["--format", "json", "classify-circle", "--group", '{"kind": "cyclic", "n": 720}']),
    "moved-covering": (1, ["sn-action", MOVED_COVERING]),
    "schema-error": (2, ["classify-circle", "--group", '{"kind": "cyclic"}']),
}


def _buffering_env(buffering):
    env = {k: v for k, v in SRC_ENV.items() if k != "PYTHONUNBUFFERED"}
    return dict(env, PYTHONUNBUFFERED="1") if buffering == "unbuffered" else env


@pytest.mark.parametrize("buffering", BUFFERING)
@pytest.mark.parametrize("case", EXIT_CASES)
def test_a_request_process_keeps_all_it_wrote_to_files(case, buffering, capsys, tmp_path):
    # a regular file is block-buffered unless PYTHONUNBUFFERED is set
    code, argv = EXIT_CASES[case]
    expected = run(capsys, *argv)
    exit_code, report, error = expected
    assert exit_code == code
    assert error if code == 2 else report
    if case == "z720-json":
        assert len(report) == 2_075_972
    out, err = tmp_path / "out", tmp_path / "err"
    with out.open("wb") as out_fh, err.open("wb") as err_fh:
        proc = subprocess.run([sys.executable, "-m", "framebundles.cli", *argv],
                              env=_buffering_env(buffering), stdout=out_fh, stderr=err_fh,
                              timeout=120)
    got = (proc.returncode, out.read_text(encoding="utf-8"), err.read_text(encoding="utf-8"))
    assert got == expected


@pytest.mark.parametrize("buffering", BUFFERING)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_reader_that_closes_stdout_early_gets_no_traceback(fmt, buffering):
    # Z720's report is far larger than a pipe's buffer, so the write fails
    proc = subprocess.Popen([sys.executable, "-m", "framebundles.cli", "--format", fmt,
                             "classify-circle", "--group", '{"kind": "cyclic", "n": 720}'],
                            env=_buffering_env(buffering), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    assert proc.wait(timeout=120) == 2
    assert proc.stderr.read() == b""
    proc.stderr.close()


# an atexit handler runs only when the process leaves through the interpreter
FINALIZATION_PROBE = ("import atexit\natexit.register(print, 'finalized')\n"
                      "from framebundles.cli import run\nrun()")


@pytest.mark.parametrize("argv, code, finalized", [
    (["classify-circle", "--group", Z3_SPEC], 0, False),
    (["classify-circle", "--group", '{"kind": "cyclic"}'], 2, False),
    (["classify-circle"], 2, True),  # argparse's usage error raises SystemExit
    (["--help"], 0, True),
], ids=["report", "schema-error", "usage-error", "help"])
def test_run_skips_finalization_only_when_main_returns(argv, code, finalized):
    proc = _fresh("-c", FINALIZATION_PROBE, *argv)
    assert proc.returncode == code
    assert proc.stdout.endswith(b"finalized\n") == finalized


def test_a_deeply_nested_document_is_a_usage_error():
    # json.loads recurses once per level, so 100,000 levels overflow the stack
    proc = subprocess.run([sys.executable, "-m", "framebundles.cli", "components", "-"],
                          input=b"[" * 100_000, env=SRC_ENV, capture_output=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith(b"error: invalid JSON")
    assert b"Traceback" not in proc.stderr


def _loaded_modules(*argv):
    proc = _fresh("-c", MODULES_PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.decode().splitlines()[-1].split())


def test_circle_bundle_request_loads_no_finite_bundle_layer():
    loaded = _loaded_modules("u1-holonomy", U1_WINDING_K2, "--word", "1,-1,1")
    assert "framebundles.u1" in loaded
    for layer in ("bundles", "frames", "gsets", "gset_aut", "suites", "aut_search"):
        assert f"framebundles.{layer}" not in loaded
    assert "dataclasses" not in loaded
    # nor the finite-bundle front end
    assert "framebundles.circle_commands" in loaded
    assert "framebundles.bundle_commands" not in loaded


def test_finite_bundle_request_loads_no_circle_layer():
    loaded = _loaded_modules("components", WINDING_Z2_K2)
    assert "framebundles.bundles" in loaded
    for name in ("framebundles.u1", "framebundles.suites", "fractions", "dataclasses"):
        assert name not in loaded
    # nor the circle front end
    assert "framebundles.bundle_commands" in loaded
    assert "framebundles.circle_commands" not in loaded


def test_classify_circle_loads_no_bundle_layer():
    # the components of each class's bundle are the cycles of its representative
    loaded = _loaded_modules("classify-circle", "--group", Z3_SPEC)
    assert "framebundles.groups" in loaded
    assert "framebundles.aut_search" in loaded
    for layer in ("bundles", "frames", "gsets", "gset_aut"):
        assert f"framebundles.{layer}" not in loaded
    # nor a family's front end, nor the suites
    for name in ("bundle_commands", "circle_commands", "suites"):
        assert f"framebundles.{name}" not in loaded


@pytest.mark.parametrize(
    "suite", ["torsor", "functor-laws", "equivalence", "division-rules", "ses", "wreath-iso"]
)
def test_verify_loads_only_the_layers_its_suite_runs(suite):
    loaded = _loaded_modules("verify", suite, "--group", "z2", "--orbits", "2")
    assert "framebundles.suites" in loaded
    assert "framebundles.specdoc" not in loaded
    assert "framebundles.bundles" not in loaded
    assert "framebundles.bundle_commands" not in loaded
    assert "framebundles.circle_commands" not in loaded
    # only the automorphism suites read Aut(F)
    assert ("framebundles.gset_aut" in loaded) == (suite in ("ses", "wreath-iso"))


def test_verify_appendix_b_loads_the_bundle_layer():
    loaded = _loaded_modules("verify", "appendix-b")
    assert "framebundles.bundles" in loaded
    assert "framebundles.specdoc" not in loaded
    # the suite builds its bundles itself, so no front end of a family loads
    assert "framebundles.bundle_commands" not in loaded
    assert "framebundles.circle_commands" not in loaded


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_verify_loads_its_own_suite_module_and_not_the_aut_search(suite):
    fixture = () if suite == "appendix-b" else ("--group", "z2", "--orbits", "1")
    loaded = _loaded_modules("verify", suite, *fixture)
    modules = {f"framebundles.{module}" for module in suites.SUITES.values()}
    assert loaded & modules == {f"framebundles.suite_{suite.replace('-', '_')}"}
    assert "framebundles.aut_search" not in loaded


def test_verify_help_lists_every_suite():
    assert SUITE_NAMES == tuple(sorted(suites.SUITES))


# -- argparse: help and usage errors only ---------------------------------------
# Each usage/<case>.json pins what argparse prints at 80 columns for --help, a
# usage error or an abbreviation: the texts a well-formed request never builds.

USAGE_CASES = sorted((TESTS / "usage").glob("*.json"))


def test_usage_pins_cover_every_help_text():
    helps = {tuple(json.loads(p.read_text(encoding="utf-8"))["argv"]) for p in USAGE_CASES}
    assert {("--help",)} | {(c, "--help") for c in cli.GRAMMAR} <= helps


@pytest.mark.parametrize("path", USAGE_CASES, ids=[p.stem for p in USAGE_CASES])
def test_argparse_texts_in_process(path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    case = json.loads(path.read_text(encoding="utf-8"))
    try:
        code = main(case["argv"])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case["exit"], case["stdout"], case["stderr"])


@pytest.mark.parametrize("path", USAGE_CASES, ids=[p.stem for p in USAGE_CASES])
def test_argparse_texts_in_a_fresh_interpreter(path):
    case = json.loads(path.read_text(encoding="utf-8"))
    proc = subprocess.run([sys.executable, "-m", "framebundles.cli", *case["argv"]],
                          env=dict(SRC_ENV, COLUMNS="80"), capture_output=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        case["exit"], case["stdout"].encode(), case["stderr"].encode()
    )


@pytest.mark.parametrize("name", SUBPROCESS_CASES)
def test_a_well_formed_request_loads_no_argparse(name):
    case = json.loads((TESTS / "golden" / f"{name}.json").read_text(encoding="utf-8"))
    loaded = _loaded_modules(*case["argv"])
    assert not {"argparse", "gettext", "locale"} & loaded


@pytest.mark.parametrize("path", sorted((TESTS / "golden").glob("*.json")),
                         ids=lambda p: p.stem)
def test_every_golden_argv_is_matched_as_argparse_reads_it(path):
    # main reads a word such as -1,2 after "--word" as --word=-1,2 first
    argv = json.loads(path.read_text(encoding="utf-8"))["argv"]
    argv = [f"--word={argv[i + 1]}" if token == "--word" else token
            for i, token in enumerate(argv) if i == 0 or argv[i - 1] != "--word"]
    parsed = vars(cli.build_parser().parse_args(argv))
    if path.stem.startswith("pushforward_out_of_range"):  # --power -2 is argparse's to read
        assert cli._match(argv) is None
        return
    matched = vars(cli._match(argv))
    assert matched.pop("func").__name__ == parsed.pop("func").__name__
    assert matched == parsed
