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

Each request is a fresh process.  A small one spends its time on the interpreter
and ``site`` (57-80 ms for ``python -c pass`` here, 15-18 ms with ``-S``, as a
``.pth`` file imports ``certifi``; medians of 21 runs on one CPU), on compiling
the package modules it loads (10-17 ms for ``compile()`` of their sources, the
least of 30 runs, with no bytecode cache), on its work, and on finalization,
which clears every loaded module and which ``run`` skips (2 CPUs, Python
3.11).  This module keeps the grammar, the dispatch and the group-mode
subcommands ``classify-circle`` and ``verify``, and imports no layer at module
level; every other handler is in ``bundle_commands`` or ``circle_commands``,
imported only for a request of that family.  ``GRAMMAR`` declares the grammar
once.  ``_match`` reads an argv of strict forms only: ``--format text|json`` if
anything comes first, an exact subcommand, each of its exact long options at
most once as ``--opt value`` or ``--opt=value``, every required one, and
exactly its positionals; a spaced value or a positional starts with ``-`` only
if it is ``-``, and an ``int`` value is one ``int()`` accepts.  Anything else
(help, abbreviations, ``--``, repeats, negative numbers, unknown tokens,
errors) goes to ``build_parser``, which imports argparse and builds its parser
from the same table, so a well-formed request does not compile argparse.
"""

from __future__ import annotations

import os
import re
import sys
from types import SimpleNamespace

from .errors import FrameBundlesError, Obstruction
from .records import EXIT_OBSTRUCTION, EXIT_USAGE, Report, perm_str

# sorted(suites.SUITES), spelled out so that the help does not load the suites
SUITE_NAMES = ("appendix-b", "division-rules", "equivalence", "functor-laws", "ses", "torsor",
               "wreath-iso")


def cmd_classify_circle(args) -> Report:
    from . import specdoc
    from .aut_search import automorphism_classes
    from .perms import cycle_count

    G = specdoc.parse_group(specdoc.load_document(args.group))
    auts, classes, abelian = automorphism_classes(G)
    rows = []
    for k, cls in enumerate(classes):
        rep = auts[cls[0]]
        # the components of the bundle glued by rep are its cycles on G
        rows.append({"class": k, "size": len(cls), "representative": rep,
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


def _handler(spec: str):
    """The handler a grammar entry names, looked up when the request is parsed: a
    function of this module, or "module.function", whose module loads when called."""
    module, _, name = spec.rpartition(".")
    if not module:
        return globals()[name]

    def handler(args) -> Report:
        # the import statement's own path, unlike importlib.import_module, is
        # the one that -X importtime reports
        return getattr(__import__(f"{__package__}.{module}", fromlist=[name]), name)(args)

    handler.__module__, handler.__name__ = f"{__package__}.{module}", name
    return handler


# The grammar, declared once: each subcommand's help, handler and arguments.  A
# positional is (name, help), an option (name, help, type, default, required).
FORMATS = ("text", "json")
BUNDLE = ("bundle", "bundle document")
SPEC = ("spec", "circle bundle document")
WORD = ("--word", "loop word", str, "", False)
GRAMMAR = {
    "classify-circle": ("group bundles over the circle up to isomorphism", "cmd_classify_circle",
                        [("--group", "group document", str, None, True)]),
    "components": ("connected components of the total space", "bundle_commands.cmd_components",
                   [BUNDLE]),
    "frame-bundle": ("frame-bundle clutching and components", "bundle_commands.cmd_frame_bundle",
                     [BUNDLE]),
    "holonomy": ("monodromy of a loop word", "bundle_commands.cmd_holonomy",
                 [BUNDLE, ("--word", "loop word, e.g. '1,-2,1'", str, "", False)]),
    "sn-action": ("global symmetric action or its obstruction", "bundle_commands.cmd_sn_action",
                  [BUNDLE]),
    "decompose": ("covering + principal decomposition", "bundle_commands.cmd_decompose", [BUNDLE]),
    "verify": ("run a named exhaustive verification suite", "cmd_verify", [
        ("suite", "one of: " + ", ".join(SUITE_NAMES)),
        ("--max-group", "largest fixture group order", int, None, False),
        ("--max-orbits", "largest orbit count", int, None, False),
        ("--group", "restrict to one named group (e.g. z2)", str, None, False),
        ("--orbits", "restrict to one orbit count", int, None, False),
        ("--seed", "seed echoed for reproducibility", int, 20210722, False),
    ]),
    "u1-holonomy": ("circle-wreath holonomy of a word", "circle_commands.cmd_u1_holonomy",
                    [SPEC, WORD]),
    "u1-transport": ("parallel transport of a fiber point", "circle_commands.cmd_u1_transport",
                     [SPEC, WORD, ("--start", "fiber point document", str, None, True)]),
    "pushforward": ("push the connection along z -> z^q", "circle_commands.cmd_pushforward",
                    [SPEC, ("--power", "the exponent q", int, None, True)]),
    "division-check": ("discrete division-form evaluation", "circle_commands.cmd_division_check",
                       [SPEC, ("--path", "sampled path document", str, None, True)]),
}


def build_parser():
    """The argparse parser of ``GRAMMAR``, for the argv that ``_match`` declines."""
    import argparse

    parser = argparse.ArgumentParser(prog="framebundles", description=(
        "Frames of finite group-sets and flat-bundle holonomy. Documents are file paths, "
        "'-' for stdin, or inline JSON. Holonomy words apply their first letter first."))
    parser.add_argument("--format", choices=FORMATS, default="text", help="report format")
    sub = parser.add_subparsers(dest="cmd", required=True)
    for command, (text, handler, arguments) in GRAMMAR.items():
        p = sub.add_parser(command, help=text)
        for name, text, *option in arguments:
            p.add_argument(name, help=text, **dict(zip(("type", "default", "required"), option)))
        p.set_defaults(func=_handler(handler))
    return parser


def _value(argv: list, i: int):
    """The value of the option at ``argv[i]`` and the index after it, or None."""
    if "=" in argv[i]:
        value = argv[i].partition("=")[2]
        return None if value == "--" else (value, i + 1)  # argparse drops a "--"
    if i + 1 < len(argv) and (argv[i + 1] == "-" or argv[i + 1][:1] != "-"):
        return argv[i + 1], i + 2
    return None


def _match(argv: list):
    """The namespace that ``build_parser`` gives ``argv`` if ``argv`` has only the
    strict forms of the module docstring, else None."""
    head = bool(argv) and argv[0].partition("=")[0] == "--format"
    fmt, i = (_value(argv, 0) or (None, 0)) if head else ("text", 0)
    if fmt not in FORMATS or i == len(argv) or argv[i] not in GRAMMAR:
        return None
    _, handler, arguments = GRAMMAR[argv[i]]
    options = {spec[0]: (spec[0][2:].replace("-", "_"), *spec[2:])
               for spec in arguments if len(spec) > 2}
    args = {dest: default for dest, _, default, _ in options.values()}
    args.update(format=fmt, cmd=argv[i])
    positionals, seen = [], set()
    i += 1
    while i < len(argv):
        if argv[i] == "-" or argv[i][:1] != "-":
            positionals.append(argv[i])
            i += 1
            continue
        name = argv[i].partition("=")[0]
        got = _value(argv, i) if name in options and name not in seen else None
        if got is None:
            return None
        dest, kind, _, _ = options[name]
        try:
            args[dest] = kind(got[0])
        except ValueError:
            return None
        seen.add(name)
        i = got[1]
    names = [spec[0] for spec in arguments if len(spec) == 2]
    if len(positionals) == len(names) and {n for n, o in options.items() if o[3]} <= seen:
        return SimpleNamespace(**args, **dict(zip(names, positionals)), func=_handler(handler))
    return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse reads a word such as -1,2 after "--word" as an option of its own
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--word" and re.match("-[0-9]", argv[i + 1]):
            argv[i:i + 2] = [f"--word={argv[i + 1]}"]
    args = _match(argv) or build_parser().parse_args(argv)
    try:
        report = args.func(args)
    except Obstruction as exc:
        print(f"obstruction: {exc}", file=sys.stderr)
        return EXIT_OBSTRUCTION
    except (ValueError, FrameBundlesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        report.write(sys.stdout, args.format)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout; keep the later flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    return report.exit_code


def run():
    """The process entry point: ``main``, then an exit without finalization.

    Once ``main`` has returned, the report is written and nothing is left to
    do, yet the interpreter's finalization would still clear every loaded
    module, ``site``'s among them, at 8-13 ms a request.  So ``run`` flushes
    stdout and stderr and ends the process with ``os._exit``.  Nothing in the
    library may rely on ``atexit`` or on ``__del__`` at exit, and a future
    ``--trace`` must write its output before ``run`` flushes.  A ``SystemExit``
    from argparse (help, usage errors) or any uncaught exception still leaves
    through the interpreter.
    """
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
