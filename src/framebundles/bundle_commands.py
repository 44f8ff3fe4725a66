"""The finite-bundle subcommands and the documents only they read.

``components``, ``decompose``, ``holonomy``, ``sn-action`` and
``frame-bundle`` answer a flat bundle over a wedge of circles with a finite
group-set as fiber; the group-set, clutching and bundle schemas are in
``specdoc``'s docstring.  ``cli.main`` imports this module only for these
five subcommands, so no other request compiles it.  It reads the frames
through ``frames`` alone, so a finite-bundle request compiles none of
``frame_tables``, ``gset_aut`` and ``aut_search``.

The layers are read as module attributes at call time, so a function patched
into its layer module after this module is imported is the one called.
"""

from __future__ import annotations

from typing import Any

from . import bundles, frames, groups, gsets, specdoc
from .errors import ModeMismatch, SchemaError
from .records import EXIT_OBSTRUCTION, Report, perm_str
from .specdoc import _int, _int_list, _int_rows, _require_keys


def parse_gset(obj: Any, where: str = "gset") -> gsets.GSet:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError(f"{where}: expected an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "standard_semitorsor":
        _require_keys(obj, where, {"kind", "group", "n"})
        G = specdoc.parse_group(obj["group"], f"{where}.group")
        return gsets.standard_semitorsor(G, _int(obj["n"], f"{where}.n"))
    if kind == "table":
        _require_keys(obj, where, {"kind", "group", "act"})
        G = specdoc.parse_group(obj["group"], f"{where}.group")
        act = _int_rows(obj["act"], f"{where}.act")
        try:
            return gsets.make_gset(G, act)
        except ValueError as exc:
            raise SchemaError(f"{where}.act: {exc}") from exc
    raise SchemaError(f"{where}.kind: unknown kind {kind!r}")


def _parse_clutching_gspace(entry: Any, fiber: gsets.GSet, where: str) -> tuple[int, ...]:
    """The clutching table an entry names, checked as an equivariant map of ``fiber``."""
    if not isinstance(entry, dict) or len(entry) != 1:
        raise SchemaError(f"{where}: expected exactly one of perm/table/wreath")
    (key, value), = entry.items()
    if key == "perm":
        if fiber.group.order != 1:
            raise SchemaError(f"{where}.perm: bare permutations need a trivial-group fiber")
        table = _int_list(value, f"{where}.perm")
    elif key == "table":
        table = _int_list(value, f"{where}.table")
    elif key == "wreath":
        spec = _require_keys(value, f"{where}.wreath", {"g", "perm"})
        try:
            n = fiber.semitorsor_orbits
        except ValueError as exc:
            raise SchemaError(f"{where}.wreath: fiber is not a standard semi-torsor") from exc
        g = tuple(_int_list(spec["g"], f"{where}.wreath.g"))
        perm = tuple(_int_list(spec["perm"], f"{where}.wreath.perm"))
        if len(g) != n:
            raise SchemaError(f"{where}.wreath: wreath element does not match the target semi-torsor")
        try:
            return frames.wreath_to_aut(frames.WreathElement(fiber.group, g, perm), fiber)
        except ValueError as exc:
            raise SchemaError(f"{where}.wreath: {exc}") from exc
    else:
        raise SchemaError(f"{where}: unknown clutching form {key!r}")
    try:
        return gsets.equivariant_map(fiber, fiber, groups.identity_hom(fiber.group), table)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def parse_bundle(obj: Any, where: str = "bundle") -> bundles.FlatBundle:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError(f"{where}: expected an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "winding":
        _require_keys(obj, where, {"kind", "group", "k"})
        G = specdoc.parse_group(obj["group"], f"{where}.group")
        k = _int(obj["k"], f"{where}.k")
        if k < 1:
            raise SchemaError(f"{where}.k: must be >= 1")
        return bundles.finite_winding_bundle(G, k)
    if kind != "flat":
        raise SchemaError(f"{where}.kind: unknown kind {kind!r}")
    spec = _require_keys(obj, where, {"kind", "mode", "fiber", "loops", "clutching"})
    mode = spec["mode"]
    loops = _int(spec["loops"], f"{where}.loops")
    clutching = spec["clutching"]
    if not isinstance(clutching, list) or len(clutching) != loops:
        raise SchemaError(f"{where}.clutching: expected a list of {loops} entries")
    if mode == "group":
        G = specdoc.parse_group(spec["fiber"], f"{where}.fiber")
        if loops != 1:
            raise SchemaError(f"{where}.loops: group mode supports a single circle")
        entry = clutching[0]
        if not isinstance(entry, dict) or set(entry) != {"aut"}:
            raise SchemaError(f"{where}.clutching[0]: group mode expects {{'aut': [...]}}")
        image = _int_list(entry["aut"], f"{where}.clutching[0].aut")
        try:
            return bundles.flat_bundle(gsets.trivial_gset(G.order), (image,), G)
        except ValueError as exc:
            raise SchemaError(f"{where}.clutching[0].aut: {exc}") from exc
    if mode == "gspace":
        fiber = parse_gset(spec["fiber"], f"{where}.fiber")
        tables = [
            _parse_clutching_gspace(entry, fiber, f"{where}.clutching[{i}]")
            for i, entry in enumerate(clutching)
        ]
        try:
            return bundles.flat_bundle(fiber, tables)
        except ValueError as exc:
            raise SchemaError(f"{where}: {exc}") from exc
    raise SchemaError(f"{where}.mode: unknown mode {mode!r}")


def cmd_components(args) -> Report:
    b = parse_bundle(specdoc.load_document(args.bundle))
    parts = bundles.components(b)
    report = Report("components")
    report.lines.append(f"components: {len(parts)}")
    for i, comp in enumerate(parts):
        report.lines.append(f"component {i}: {perm_str(comp)}")
    report.data = {"components": len(parts), "partition": [list(c) for c in parts]}
    return report


def cmd_frame_bundle(args) -> Report:
    b = parse_bundle(specdoc.load_document(args.bundle))
    if b.mode != bundles.MODE_GSPACE:
        raise ModeMismatch("frame bundles are built over group-space bundles")
    fs = frames.enumerate_frames(b.fiber)
    ref = fs.frames[0]
    wreaths = bundles.clutching_wreath(b, ref)
    count = bundles.frame_components(b)
    report = Report("frame-bundle")
    report.lines.append(f"fiber frames: {len(fs.frames)}")
    for t in fs.frames:
        report.lines.append(f"frame: {perm_str(t)}")
    report.lines.append(f"reference frame: {perm_str(ref)}")
    for i, w in enumerate(wreaths):
        report.lines.append(
            f"clutching {i + 1}: g={perm_str(w.g_tuple)} sigma={perm_str(w.sigma)}"
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
    b = parse_bundle(specdoc.load_document(args.bundle))
    word = specdoc.parse_word(args.word, b.loops)
    h = bundles.holonomy(b, word)
    report = Report("holonomy")
    report.lines.append(f"word: {','.join(map(str, word)) if word else '(empty)'}")
    report.lines.append(f"value: {perm_str(h)}")
    identity = tuple(range(b.fiber.size))
    report.lines.append(f"is identity: {'yes' if h == identity else 'no'}")
    report.data = {
        "word": list(word),
        "value": list(h),
        "is_identity": h == identity,
    }
    return report


def cmd_sn_action(args) -> Report:
    b = parse_bundle(specdoc.load_document(args.bundle))
    res = bundles.sn_action_on_bundle(b)
    report = Report("sn-action")
    if res.ok:
        report.lines.append(f"fiber size: {res.n}")
        report.lines.append("global action: natural symmetric action via the trivialization")
        report.data = {"ok": True, "n": res.n}
    else:
        report.lines.append(f"fiber size: {res.n}")
        report.lines.append(
            f"obstruction: generator {res.obstruction_generator} "
            f"has permutation {perm_str(res.obstruction_permutation)}"
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
    b = parse_bundle(specdoc.load_document(args.bundle))
    quotient = bundles.quotient_bundle(b)
    count = bundles.principal_fiber(b)
    covering = bundles.total_components(quotient)
    report = Report("decompose")
    report.lines.append(f"orbit sheets: {quotient.fiber.size}")
    for i, t in enumerate(quotient.clutching):
        report.lines.append(f"covering clutching {i + 1}: {perm_str(t)}")
    report.lines.append(f"covering components: {covering}")
    report.lines.append(f"principal fiber size |G|: {count}")
    report.data = {
        "sheets": quotient.fiber.size,
        "covering_clutching": [list(t) for t in quotient.clutching],
        "covering_components": covering,
        "principal_fiber": count,
    }
    return report
