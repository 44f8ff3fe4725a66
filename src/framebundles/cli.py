"""Command-line front end.

Every subcommand accepts specification documents as a file path, ``-`` for
standard input, or inline JSON (argument starting with ``{``).  Outputs are
deterministic: identical inputs yield byte-identical reports.  Exit status is
0 on success, 1 on a mathematical obstruction or failed verification, and 2
on usage or schema errors.

Convention notes, fixed once for the whole tool:
  * permutations are 0-based forward image tables;
  * holonomy applies the first traversed letter of a word first;
  * frame listings and report rows are emitted in canonical sorted order.

The benchmark runs each request in a fresh interpreter with no bytecode cache
(``PYTHONDONTWRITEBYTECODE=1``), so a request compiles from source every
package module it imports.  The front end is therefore split by request
family: this module keeps the parser, the dispatch and the two group-mode
subcommands, ``classify-circle`` and ``verify``, each of which imports the
layers it runs itself (``verify`` parses no document, so it skips
``specdoc``); the subparser of every other subcommand names its handler in
``bundle_commands`` or ``circle_commands``, which is imported only when a
request of that family is answered.  Compiling the package
modules a request loads then costs 4.9 ms for ``classify-circle``, 11.7 ms for
a finite-bundle request, 12.0 ms for ``verify appendix-b`` and 7.7 ms for a
circle request, against 7.4, 12.9, 13.0 and 8.9 ms with one front end
(``compile()`` of each module, 2 CPUs, Python 3.11).
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from .errors import FrameBundlesError, Obstruction
from .groups import automorphism_classes, cycle_count
from .records import EXIT_OBSTRUCTION, EXIT_USAGE, Report, perm_str

# sorted(suites.SUITES), spelled out so that the help does not load the suites
SUITE_NAMES = ("appendix-b", "division-rules", "equivalence", "functor-laws", "ses", "torsor",
               "wreath-iso")


def cmd_classify_circle(args) -> Report:
    from . import specdoc

    G = specdoc.parse_group(specdoc.load_document(args.group))
    auts, classes, abelian = automorphism_classes(G)
    rows = []
    for k, cls in enumerate(classes):
        rep = auts[cls[0]]
        # the components of the bundle glued by rep are its cycles on G
        rows.append({"class": k, "size": len(cls), "representative": list(rep),
                     "components": cycle_count(rep)})
    report = Report("classify-circle")
    report.lines.append(f"group: {G.label} order {G.order}")
    report.lines.append(f"automorphisms: {len(auts)}")
    report.lines.append(f"conjugacy classes: {len(classes)}")
    report.lines.append("class size representative components")
    for row in rows:
        report.lines.append(
            f"{row['class']} {row['size']} {perm_str(row['representative'])} {row['components']}"
        )
    report.data = {
        "group": G.label,
        "order": G.order,
        "aut_order": len(auts),
        "aut_abelian": abelian,
        "classes": rows,
    }
    return report


def cmd_verify(args) -> Report:
    from . import suites

    rep = suites.run_suite(
        args.suite,
        max_group=args.max_group,
        max_orbits=args.max_orbits,
        group_name=args.group,
        orbit_count=args.orbits,
    )
    report = Report("verify")
    report.lines.append(f"suite: {rep.suite}")
    report.lines.append(f"seed: {args.seed}")
    passed = sum(1 for c in rep.checks if c.ok)
    for c in rep.checks:
        mark = "PASS" if c.ok else "FAIL"
        extra = f" ({c.detail})" if c.detail else ""
        report.lines.append(f"{mark} [{c.fixture}] {c.check}{extra}")
    for key in sorted(rep.counters):
        report.lines.append(f"counter {key}: {rep.counters[key]}")
    report.lines.append(f"checks: {passed}/{len(rep.checks)}")
    report.data = {
        "suite": rep.suite,
        "seed": args.seed,
        "passed": passed,
        "total": len(rep.checks),
        "counters": rep.counters,
        "failures": [
            {"fixture": c.fixture, "check": c.check} for c in rep.checks if not c.ok
        ],
    }
    if not rep.ok:
        report.status = "fail"
        report.exit_code = EXIT_OBSTRUCTION
    return report


def _deferred(module: str, name: str):
    """A handler that imports ``module`` of this package, and looks ``name`` up in
    it, only when a request of that family is answered."""

    def handler(args) -> Report:
        # the import statement's own path, unlike importlib.import_module, is
        # the one that -X importtime reports
        return getattr(__import__(f"{__package__}.{module}", fromlist=[name]), name)(args)

    return handler


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framebundles",
        description="Frames of finite group-sets and flat-bundle holonomy. "
        "Documents are file paths, '-' for stdin, or inline JSON. "
        "Holonomy words apply their first letter first.",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("classify-circle", help="group bundles over the circle up to isomorphism")
    p.add_argument("--group", required=True, help="group document")
    p.set_defaults(func=cmd_classify_circle)

    p = sub.add_parser("components", help="connected components of the total space")
    p.add_argument("bundle", help="bundle document")
    p.set_defaults(func=_deferred("bundle_commands", "cmd_components"))

    p = sub.add_parser("frame-bundle", help="frame-bundle clutching and components")
    p.add_argument("bundle", help="bundle document")
    p.set_defaults(func=_deferred("bundle_commands", "cmd_frame_bundle"))

    p = sub.add_parser("holonomy", help="monodromy of a loop word")
    p.add_argument("bundle", help="bundle document")
    p.add_argument("--word", default="", help="loop word, e.g. '1,-2,1'")
    p.set_defaults(func=_deferred("bundle_commands", "cmd_holonomy"))

    p = sub.add_parser("sn-action", help="global symmetric action or its obstruction")
    p.add_argument("bundle", help="bundle document")
    p.set_defaults(func=_deferred("bundle_commands", "cmd_sn_action"))

    p = sub.add_parser("decompose", help="covering + principal decomposition")
    p.add_argument("bundle", help="bundle document")
    p.set_defaults(func=_deferred("bundle_commands", "cmd_decompose"))

    p = sub.add_parser("verify", help="run a named exhaustive verification suite")
    p.add_argument("suite", help="one of: " + ", ".join(SUITE_NAMES))
    p.add_argument("--max-group", type=int, default=4, help="largest fixture group order")
    p.add_argument("--max-orbits", type=int, default=3, help="largest orbit count")
    p.add_argument("--group", default=None, help="restrict to one named group (e.g. z2)")
    p.add_argument("--orbits", type=int, default=None, help="restrict to one orbit count")
    p.add_argument("--seed", type=int, default=20210722, help="seed echoed for reproducibility")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("u1-holonomy", help="circle-wreath holonomy of a word")
    p.add_argument("spec", help="circle bundle document")
    p.add_argument("--word", default="", help="loop word")
    p.set_defaults(func=_deferred("circle_commands", "cmd_u1_holonomy"))

    p = sub.add_parser("u1-transport", help="parallel transport of a fiber point")
    p.add_argument("spec", help="circle bundle document")
    p.add_argument("--word", default="", help="loop word")
    p.add_argument("--start", required=True, help="fiber point document")
    p.set_defaults(func=_deferred("circle_commands", "cmd_u1_transport"))

    p = sub.add_parser("pushforward", help="push the connection along z -> z^q")
    p.add_argument("spec", help="circle bundle document")
    p.add_argument("--power", type=int, required=True, help="the exponent q")
    p.set_defaults(func=_deferred("circle_commands", "cmd_pushforward"))

    p = sub.add_parser("division-check", help="discrete division-form evaluation")
    p.add_argument("spec", help="circle bundle document")
    p.add_argument("--path", required=True, help="sampled path document")
    p.set_defaults(func=_deferred("circle_commands", "cmd_division_check"))

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse reads a word such as -1,2 after "--word" as an option of its own
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--word" and re.match("-[0-9]", argv[i + 1]):
            argv[i:i + 2] = [f"--word={argv[i + 1]}"]
    args = build_parser().parse_args(argv)
    try:
        report = args.func(args)
    except Obstruction as exc:
        print(f"obstruction: {exc}", file=sys.stderr)
        return EXIT_OBSTRUCTION
    except (ValueError, FrameBundlesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        print(report.render(args.format))
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout; keep the flush at exit quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
