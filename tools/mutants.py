"""A mutation table: each row breaks one check of the library on purpose and
names the tests that must catch it.  Standard library only.

Run from anywhere, with pytest installed::

    python tools/mutants.py

For each row, ``src/``, ``tests/`` and ``pyproject.toml`` (pytest's settings)
are copied to a temporary directory, the row's old text, which must occur
exactly once in its file, is replaced by its new text, and pytest runs only
the row's tests there.  A row passes only when pytest exits 1: some named
test failed.  A pass (exit 0), a collection error, an unknown test id or no
test collected fails the row, and so does an old text that is not found
exactly once (the row is stale).  Before any mutant, the named tests of
every row must pass on an unmutated copy, or a row would prove nothing.
The exit status is 1 when any row fails.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FRAME_TABLES = "src/framebundles/frame_tables.py"
BUNDLES = "src/framebundles/bundles.py"
SUITE = "src/framebundles/suite_{}.py"
U1 = "src/framebundles/u1.py"
CIRCLE = "src/framebundles/circle_commands.py"
GSETS = "src/framebundles/gsets.py"
OFF_CARRIER = "tests/test_gsets.py::test_divide_refuses_a_point_off_the_carrier[{}]"
WRONG_DIVISION = "tests/test_frames.py::test_equivalence_catches_a_wrong_division"
FULL_LIFT = ("tests/test_bundles.py::"
             "test_frame_components_count_the_components_of_the_full_lift_bundle")
WREATH_LOOPS_1271 = "tests/test_cli.py::test_frame_bundle_of_1271_wreath_loops_has_8_components"
FAULTS = "tests/test_suite_faults.py::"
LOADS = "tests/test_cli.py::test_a_request_under_python_m_imports_the_front_end_once[{}]"
MIXED = "tests/test_cli.py::test_strict_and_loose_samples_mixed_keep_their_rates_and_refusals[{}]"

# (name, file, exact old text, new text, test ids that must fail)
ROWS = [
    ("the one torsor-law check removed", FRAME_TABLES,
     "        if j == 0 and any(",
     "        if False and any(",
     [WRONG_DIVISION,
      "tests/test_frame_table.py::test_equivalence_raises_on_a_corrupted_action"]),
    ("the None check of each pair removed", FRAME_TABLES,
     "        if None in lift or None in torsor:\n",
     "        if False:\n",
     ["tests/test_frame_table.py::test_equivalence_raises_on_a_lift_off_the_space"]),
    ("a break at the first mismatch", FRAME_TABLES,
     "            mismatch = (u, tuple(lift), tuple(torsor))\n",
     "            mismatch = (u, tuple(lift), tuple(torsor))\n            break\n",
     ["tests/test_cli.py::test_equivalence_names_a_table_that_breaks_the_bijection"]),
    ("each lift compared with the next frame's twin", FRAME_TABLES,
     "zip(fs2.frames, homs, orbit_tables(divisions, fs2))",
     "zip(fs2.frames, homs[-1:] + homs[:-1], orbit_tables(divisions, fs2))",
     ["tests/test_frames.py::test_equivalence_z2_two_orbits",
      "tests/test_acceptance.py::test_criterion_06_category_equivalence"]),
    ("sn_labelling's label shifted by one", BUNDLES,
     "        labelling[fixed[0]] = i\n",
     "        labelling[fixed[0]] = (i + 1) % n\n",
     ["tests/test_golden.py::test_golden[verify_appendix_b_text]",
      "tests/test_golden.py::test_golden[verify_appendix_b_json]"]),
    ("principal_fiber without its freeness check", BUNDLES,
     "    if not is_free(b.fiber):\n"
     "        raise NotFree(\"decomposition is defined for free fibers\")\n"
     "    q = b.fiber.orbit_partition\n",
     "    q = b.fiber.orbit_partition\n",
     ["tests/test_bundles.py::test_principal_fiber_refuses_a_fiber_that_is_not_free"]),
    ("freeness read off some orbit instead of every orbit", GSETS,
     "    return all(len(m) == F.group.order for m in F.orbit_partition.members)\n",
     "    return any(len(m) == F.group.order for m in F.orbit_partition.members)\n",
     ["tests/test_gsets.py::test_cached_orbits_and_freeness_match_fresh_computation"]),
    ("divide without its range guard", GSETS,
     "    if not (0 <= f < F.size and 0 <= f_prime < F.size) or q[f] != q[f_prime]:\n",
     "    if q[f] != q[f_prime]:\n",
     [OFF_CARRIER.format("0--1"), OFF_CARRIER.format("-3--3")]),
    ("frame_components walks only the first loop", BUNDLES,
     "    for a in b.clutching:\n",
     "    for a in b.clutching[:1]:\n",
     [FULL_LIFT, WREATH_LOOPS_1271,
      "tests/test_acceptance.py::test_frame_bundle_of_4000_perm_loops_within_5s_and_150mb"]),
    ("frame_components returns the component's size", BUNDLES,
     "    return len(frames) // len(component)\n",
     "    return len(component)\n",
     [FULL_LIFT, "tests/test_bundles.py::test_frame_bundle_component_formula"]),
    ("each kept loop walks only the frames added after it", BUNDLES,
     "for t in component:  # also walks the frames appended meanwhile\n",
     "for t in itertools.islice(component, len(component), None):\n",
     [FULL_LIFT, "tests/test_bundles.py::test_frame_bundle_component_formula",
      "tests/test_bundles.py::test_frame_bundle_winding_components_match_brute_force"]),
    ("frame_components without the skip", BUNDLES,
     "if tuple(a[p] for p in frames[0]) not in seen:",
     "if True:",
     ["tests/test_bundles.py::test_frame_components_skips_a_loop_whose_base_image_it_has_walked",
      "tests/test_acceptance.py::test_frame_bundle_of_4000_perm_loops_within_5s_and_150mb"]),
    ("torsor: the frame count check always passes", SUITE.format("torsor"),
     "len(fs.frames) == expected,",
     "True,",
     [FAULTS + "test_torsor_frame_count_fails_on_a_space_missing_a_frame"]),
    ("equivalence: the morphism count check always passes", SUITE.format("equivalence"),
     "r.gset_hom_count == expected,",
     "True,",
     [FAULTS + "test_equivalence_counts_fail_on_a_report_one_short[gset]"]),
    ("equivalence: the torsor morphism count check always passes", SUITE.format("equivalence"),
     "r.torsor_hom_count == expected,",
     "True,",
     [FAULTS + "test_equivalence_counts_fail_on_a_report_one_short[torsor]"]),
    ("ses: the product check always passes", SUITE.format("ses"),
     "r.product_matches,",
     "True,",
     [FAULTS + "test_ses_product_fails_on_a_report_one_automorphism_short"]),
    ("wreath-iso: the SES sizes check always passes", SUITE.format("wreath_iso"),
     '"SES sizes", r.ok,',
     '"SES sizes", True,',
     [FAULTS + "test_wreath_iso_ses_sizes_fail_on_a_report_one_automorphism_short"]),
    ("appendix-b: the covering's obstruction check always passes", SUITE.format("appendix_b"),
     "(not res2.ok) and res2.obstruction_generator == 1,",
     "True,",
     [FAULTS + "test_appendix_b_obstruction_fails_on_an_action_granted_on_the_covering"]),
    ("u1 reads the permutation type from groups again", U1,
     "from .perms import Permutation, perm_inverse, validate_word\n",
     "from .groups import Permutation\nfrom .perms import perm_inverse, validate_word\n",
     [LOADS.format("u1_holonomy_text"), LOADS.format("division_check_json")]),
    ("bundles imports the frame tables at module level", BUNDLES,
     "from .frames import WreathElement, enumerate_frames, frame_divide, wreath_to_aut\n",
     "from .frame_tables import gset_homs\n"
     "from .frames import WreathElement, enumerate_frames, frame_divide, wreath_to_aut\n",
     [LOADS.format("components_wreath_two_loops_text"), LOADS.format("frame_bundle_wreath_text")]),
    ("the sample hook without its sheet-range test", CIRCLE,
     "            if (type(sheet) is int and 0 <= sheet < k and type(text) is str\n",
     "            if (type(sheet) is int and type(text) is str\n",
     [MIXED.format(0), MIXED.format(5)]),
    ("a path document of one sample refused as a tuple", CIRCLE,
     "    if type(obj) is tuple:\n",
     "    if False:\n",
     ["tests/test_golden.py::test_golden[division_check_single_sample_path_text]",
      "tests/test_golden.py::test_golden[division_check_single_sample_path_json]"]),
]


def _copy(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(tree: Path, tests: list[str]) -> int:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
                          cwd=tree, env=env, capture_output=True, text=True)
    return proc.returncode


def _mutate(tree: Path, file: str, old: str, new: str) -> str | None:
    """Apply one edit, or say why the row is stale."""
    path = tree / file
    text = path.read_text(encoding="utf-8")
    found = text.count(old)
    if found != 1:
        return f"stale: old text found {found} times in {file}"
    path.write_text(text.replace(old, new), encoding="utf-8")
    return None


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        clean = Path(tmp, "clean")
        _copy(clean)
        every = sorted({t for *_, tests in ROWS for t in tests})
        code = _pytest(clean, every)
        print(f"unmutated: pytest exit {code} on {len(every)} test ids")
        if code != 0:
            return 1
        for i, (name, file, old, new, tests) in enumerate(ROWS):
            tree = Path(tmp, f"row{i}")
            _copy(tree)
            stale = _mutate(tree, file, old, new)
            code = None if stale else _pytest(tree, tests)
            verdict = "caught" if code == 1 else stale or f"NOT CAUGHT (pytest exit {code}, not 1)"
            failed += code != 1
            print(f"{name}: {verdict}")
            shutil.rmtree(tree)
    print(f"{len(ROWS) - failed} of {len(ROWS)} mutants caught")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
