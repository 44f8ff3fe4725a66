"""Strict parsing of the JSON specification documents used by the CLI.

One document format is shared by every subcommand; unknown fields are
rejected so golden outputs stay trustworthy.  Schemas:

Group:        {"kind": "cyclic", "n": 3}
              {"kind": "product", "factors": [<group>, ...]}
              {"kind": "symmetric", "n": 3}
              {"kind": "table", "mul": [[...]]}

Group-set:    {"kind": "standard_semitorsor", "group": <group>, "n": 2}
              {"kind": "table", "group": <group>, "act": [[...]]}

Bundle:       {"kind": "winding", "group": <group>, "k": 2}
              {"kind": "flat", "mode": "group", "fiber": <group>,
               "loops": 1, "clutching": [<entry>, ...]}
              {"kind": "flat", "mode": "gspace", "fiber": <group-set>,
               "loops": 1, "clutching": [<entry>, ...]}
Clutching:    {"aut": [...]}     image table of a group automorphism (group mode)
              {"perm": [...]}    carrier permutation (trivial-group fibers)
              {"table": [...]}   explicit equivariant bijection table
              {"wreath": {"g": [...], "perm": [...]}}   via the wreath
                                 isomorphism (standard semi-torsor fibers)

Circle bundle: {"k": 2, "loops": 1,
                "generators": [{"angles": ["0", "1/3"], "perm": [1, 0]}]}

Path:          {"step": "1/100",
                "points": [{"angle": "p/q", "sheet": 0}, ...]}

A rational (an angle or a path step) is an integer or a string that
``Fraction`` reads, with exponent forms refused.  One reader turns it into a
reduced ``(numerator, denominator)`` pair of ints; a string of the strict
form ``-?[0-9]+(/[0-9]+)?`` needs only ``int`` and one ``gcd``, and any other
string goes through ``Fraction``, so accepted forms and refusals stay those
of ``Fraction``.  An angle is then taken mod 1.  Generator angles and a
transport's start point become ``Fraction``s for the ``u1`` records; path
samples do not: :func:`parse_path` checks the step and the sample count and
returns the samples as a stream of ``(numerator, denominator, sheet)``
triples, each read, or refused, when ``u1.division_form_check`` reaches it.

Permutations are 0-based forward image tables throughout.

Each parser imports the layers it builds itself, which keeps about 23 ms of
finite-bundle layers out of a circle-bundle request and 10 ms of ``u1`` and
``fractions`` out of a finite-bundle one (2 CPUs, Python 3.11, no bytecode
cache).
"""

from __future__ import annotations

import json
import math
import sys
from typing import TYPE_CHECKING, Any, Iterator

from . import config
from .errors import SchemaError
from .groups import (
    FiniteGroup,
    from_mul_table,
    identity_hom,
    is_permutation,
    make_cyclic,
    make_direct_product,
    make_symmetric,
    validate_word,
)

if TYPE_CHECKING:
    from fractions import Fraction

    from .bundles import FlatBundle
    from .gsets import GSet
    from .u1 import FiberPoint, U1FlatBundle


def _require_keys(obj: Any, where: str, required: set[str], optional: set[str] = frozenset()) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object, got {type(obj).__name__}")
    keys = set(obj.keys())
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        raise SchemaError(f"{where}: missing fields {sorted(missing)}")
    if unknown:
        raise SchemaError(f"{where}: unknown fields {sorted(unknown)}")
    return obj


def _int(obj: Any, where: str) -> int:
    if not isinstance(obj, int) or isinstance(obj, bool):
        raise SchemaError(f"{where}: expected an integer")
    return obj


def _int_list(obj: Any, where: str) -> list[int]:
    if not isinstance(obj, list):
        raise SchemaError(f"{where}: expected a list of integers")
    return [_int(x, where) for x in obj]


def _int_rows(obj: Any, where: str) -> list[list[int]]:
    if not isinstance(obj, list):
        raise SchemaError(f"{where}: expected a list of integer lists")
    return [_int_list(row, f"{where}[{i}]") for i, row in enumerate(obj)]


def parse_group(obj: Any, where: str = "group") -> FiniteGroup:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError(f"{where}: expected an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "cyclic":
        _require_keys(obj, where, {"kind", "n"})
        return make_cyclic(_int(obj["n"], f"{where}.n"))
    if kind == "product":
        _require_keys(obj, where, {"kind", "factors"})
        factors = obj["factors"]
        if not isinstance(factors, list) or not factors:
            raise SchemaError(f"{where}.factors: expected a non-empty list")
        groups = [parse_group(f, f"{where}.factors[{i}]") for i, f in enumerate(factors)]
        out = groups[0]
        for other in groups[1:]:
            out = make_direct_product(out, other)
        return out
    if kind == "symmetric":
        _require_keys(obj, where, {"kind", "n"})
        return make_symmetric(_int(obj["n"], f"{where}.n"))
    if kind == "table":
        _require_keys(obj, where, {"kind", "mul"})
        mul = _int_rows(obj["mul"], f"{where}.mul")
        try:
            return from_mul_table(mul, label="G")
        except ValueError as exc:
            raise SchemaError(f"{where}.mul: {exc}") from exc
    raise SchemaError(f"{where}.kind: unknown kind {kind!r}")


def parse_gset(obj: Any, where: str = "gset") -> GSet:
    from .gsets import make_gset, standard_semitorsor

    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError(f"{where}: expected an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "standard_semitorsor":
        _require_keys(obj, where, {"kind", "group", "n"})
        G = parse_group(obj["group"], f"{where}.group")
        return standard_semitorsor(G, _int(obj["n"], f"{where}.n"))
    if kind == "table":
        _require_keys(obj, where, {"kind", "group", "act"})
        G = parse_group(obj["group"], f"{where}.group")
        act = _int_rows(obj["act"], f"{where}.act")
        try:
            return make_gset(G, act)
        except ValueError as exc:
            raise SchemaError(f"{where}.act: {exc}") from exc
    raise SchemaError(f"{where}.kind: unknown kind {kind!r}")


def _parse_clutching_gspace(entry: Any, fiber: GSet, where: str) -> tuple[int, ...]:
    """The clutching table an entry names, checked as an equivariant map of ``fiber``."""
    from .frames import WreathElement
    from .gset_aut import wreath_to_aut
    from .gsets import equivariant_map, semitorsor_orbit_count

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
            n = semitorsor_orbit_count(fiber)
        except ValueError as exc:
            raise SchemaError(f"{where}.wreath: fiber is not a standard semi-torsor") from exc
        g = tuple(_int_list(spec["g"], f"{where}.wreath.g"))
        perm = tuple(_int_list(spec["perm"], f"{where}.wreath.perm"))
        if len(g) != n:
            raise SchemaError(f"{where}.wreath: wreath element does not match the target semi-torsor")
        try:
            return wreath_to_aut(WreathElement(fiber.group, g, perm), fiber)
        except ValueError as exc:
            raise SchemaError(f"{where}.wreath: {exc}") from exc
    else:
        raise SchemaError(f"{where}: unknown clutching form {key!r}")
    try:
        return equivariant_map(fiber, fiber, identity_hom(fiber.group), table)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def parse_bundle(obj: Any, where: str = "bundle") -> FlatBundle:
    from .bundles import finite_winding_bundle, flat_bundle
    from .gsets import trivial_gset

    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError(f"{where}: expected an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "winding":
        _require_keys(obj, where, {"kind", "group", "k"})
        G = parse_group(obj["group"], f"{where}.group")
        k = _int(obj["k"], f"{where}.k")
        if k < 1:
            raise SchemaError(f"{where}.k: must be >= 1")
        return finite_winding_bundle(G, k)
    if kind != "flat":
        raise SchemaError(f"{where}.kind: unknown kind {kind!r}")
    spec = _require_keys(obj, where, {"kind", "mode", "fiber", "loops", "clutching"})
    mode = spec["mode"]
    loops = _int(spec["loops"], f"{where}.loops")
    clutching = spec["clutching"]
    if not isinstance(clutching, list) or len(clutching) != loops:
        raise SchemaError(f"{where}.clutching: expected a list of {loops} entries")
    if mode == "group":
        G = parse_group(spec["fiber"], f"{where}.fiber")
        if loops != 1:
            raise SchemaError(f"{where}.loops: group mode supports a single circle")
        entry = clutching[0]
        if not isinstance(entry, dict) or set(entry) != {"aut"}:
            raise SchemaError(f"{where}.clutching[0]: group mode expects {{'aut': [...]}}")
        image = _int_list(entry["aut"], f"{where}.clutching[0].aut")
        try:
            return flat_bundle(trivial_gset(G.order), (image,), G)
        except ValueError as exc:
            raise SchemaError(f"{where}.clutching[0].aut: {exc}") from exc
    if mode == "gspace":
        fiber = parse_gset(spec["fiber"], f"{where}.fiber")
        tables = [
            _parse_clutching_gspace(entry, fiber, f"{where}.clutching[{i}]")
            for i, entry in enumerate(clutching)
        ]
        try:
            return flat_bundle(fiber, tables)
        except ValueError as exc:
            raise SchemaError(f"{where}: {exc}") from exc
    raise SchemaError(f"{where}.mode: unknown mode {mode!r}")


def _no_exponent(text: str) -> str:
    """The rational string itself, refused when it has an exponent such as ``1e-9``.

    ``Fraction`` would expand the power of ten in full before any check, so a
    ten-character string could cost minutes.
    """
    if "e" in text or "E" in text:
        raise ValueError(f"exponent in {text!r}")
    return text


def _strict(text: str) -> tuple[int, int] | None:
    """``text`` as a reduced ``(numerator, denominator)`` when it has the strict
    ASCII form ``-?[0-9]+(/[0-9]+)?`` with a nonzero denominator, else None.

    ``Fraction(text)`` reads such a string as the same two ints, with a regex
    on top; None also covers digits ``int`` refuses (more than
    ``sys.get_int_max_str_digits()``), which ``Fraction`` refuses as well.
    """
    num, slash, den = text.partition("/")
    if not (text.isascii() and (num[1:] if num[:1] == "-" else num).isdigit()
            and (den.isdigit() or not slash)):
        return None
    try:
        n, d = int(num), int(den) if slash else 1
    except ValueError:
        return None
    if d == 0:
        return None
    g = math.gcd(n, d)
    return n // g, d // g


def _rational(obj: Any, where: str, quote: bool = True) -> tuple[int, int]:
    """The reduced ``(numerator, denominator)`` of the rational ``obj`` names.

    ``obj`` is an int or a string.  A string of the strict form (see
    :func:`_strict`) is read with ``int`` and one ``gcd``; any other string
    goes through ``Fraction``, so the forms it accepts (``"+1/4"``,
    ``" 1/4 "``, ``"0.25"``, ``"1_0/40"``, non-ASCII digits) and every
    refusal stay as they were.  ``quote`` puts the string in the refusal.
    """
    if isinstance(obj, str):
        pair = _strict(obj)
        if pair is not None:
            return pair
        from fractions import Fraction

        try:
            a = Fraction(_no_exponent(obj))
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"{where}: bad rational {obj!r}" if quote
                              else f"{where}: bad rational") from exc
        return a.numerator, a.denominator
    if isinstance(obj, int) and not isinstance(obj, bool):
        return obj, 1
    raise SchemaError(f"{where}: expected an integer or a 'p/q' string")


def _angle(obj: Any, where: str) -> tuple[int, int]:
    """The angle ``obj`` names, in [0, 1), as a reduced ``(numerator, denominator)``."""
    n, d = _rational(obj, where)
    return n % d, d


def parse_u1_bundle(obj: Any, where: str = "u1") -> U1FlatBundle:
    from fractions import Fraction

    from . import u1

    spec = _require_keys(obj, where, {"k", "loops", "generators"})
    k = _int(spec["k"], f"{where}.k")
    loops = _int(spec["loops"], f"{where}.loops")
    config.check_circle_work(k * loops, f"{where}: angles to parse (k x loops)")
    gens = spec["generators"]
    if not isinstance(gens, list) or len(gens) != loops:
        raise SchemaError(f"{where}.generators: expected a list of {loops} entries")
    out = []
    for i, g in enumerate(gens):
        entry = _require_keys(g, f"{where}.generators[{i}]", {"angles", "perm"})
        angles = entry["angles"]
        if not isinstance(angles, list) or len(angles) != k:
            raise SchemaError(f"{where}.generators[{i}].angles: expected {k} entries")
        perm = tuple(_int_list(entry["perm"], f"{where}.generators[{i}].perm"))
        if not is_permutation(perm, k):
            raise SchemaError(f"{where}.generators[{i}].perm: not a permutation of 0..{k-1}")
        out.append(
            u1.U1Wreath(
                tuple(Fraction(*_angle(a, f"{where}.generators[{i}].angles[{j}]"))
                      for j, a in enumerate(angles)),
                perm,
            )
        )
    try:
        return u1.U1FlatBundle(k, loops, tuple(out))
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _sample(obj: Any, k: int, where: str) -> tuple[int, int, int]:
    """A fiber point ``{"angle": ..., "sheet": ...}`` as ``(numerator, denominator, sheet)``."""
    spec = _require_keys(obj, where, {"angle", "sheet"})
    sheet = _int(spec["sheet"], f"{where}.sheet")
    if not (0 <= sheet < k):
        raise SchemaError(f"{where}.sheet: out of range for {k} sheets")
    return (*_angle(spec["angle"], f"{where}.angle"), sheet)


def parse_fiber_point(obj: Any, k: int, where: str = "point") -> FiberPoint:
    from fractions import Fraction

    from .u1 import FiberPoint

    n, d, sheet = _sample(obj, k, where)
    return FiberPoint(Fraction(n, d), sheet)


def _samples(pts: list, k: int, where: str) -> Iterator[tuple[int, int, int]]:
    """Each sample of ``pts`` as ``(numerator, denominator, sheet)``, read when asked for.

    A sample with exactly the keys ``angle`` and ``sheet``, a sheet in range
    and a strict angle string is read here; any other goes through
    :func:`_sample`, which gives the same triple or the same refusal.
    """
    for i, p in enumerate(pts):
        if type(p) is dict and len(p) == 2:
            sheet, text = p.get("sheet"), p.get("angle")
            if (type(sheet) is int and 0 <= sheet < k and type(text) is str
                    and (pair := _strict(text)) is not None):
                n, d = pair
                yield n % d, d, sheet
                continue
        yield _sample(p, k, f"{where}.points[{i}]")


def parse_path(obj: Any, k: int,
               where: str = "path") -> tuple[Iterator[tuple[int, int, int]], Fraction]:
    """The samples of a path document, streamed as ``(numerator, denominator,
    sheet)`` triples with the angle in [0, 1), and its step.

    The step, the sample count and ``config.check_circle_work`` are checked
    here; each sample is read, and refused, only when the stream reaches it.
    """
    from fractions import Fraction

    spec = _require_keys(obj, where, {"step", "points"})
    num, den = _rational(spec["step"], f"{where}.step", quote=False)
    if num <= 0:
        raise SchemaError(f"{where}.step: must be positive")
    pts = spec["points"]
    if not isinstance(pts, list) or len(pts) < 2:
        raise SchemaError(f"{where}.points: need at least two samples")
    config.check_circle_work(len(pts), f"{where}.points: samples to parse")
    return _samples(pts, k, where), Fraction(num, den)


def parse_word(text: str, loops: int) -> tuple[int, ...]:
    """Parse a loop word like ``1,-2,1`` (commas or spaces); empty means identity."""
    text = text.strip()
    if not text:
        return ()
    parts = text.replace(",", " ").split()
    try:
        letters = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise SchemaError(f"word: not an integer sequence: {text!r}") from exc
    try:
        return validate_word(loops, letters)
    except ValueError as exc:
        raise SchemaError(f"word: {exc}") from exc


def load_document(arg: str) -> Any:
    """Load a JSON document from inline text, a file path, or '-' for stdin."""
    if arg.strip().startswith("{"):
        text = arg
    elif arg == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(arg, encoding="utf-8") as fh:
                text = fh.read()
        except (FileNotFoundError, NotADirectoryError):
            raise SchemaError(f"document not found: {arg}") from None
        except OSError as exc:
            raise SchemaError(f"cannot read document {arg}: {exc.strerror}") from exc
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise SchemaError(f"invalid JSON: {exc}") from exc
