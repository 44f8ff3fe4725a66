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

Permutations are 0-based forward image tables throughout.

This module holds what more than one subcommand reads: the document loader,
the schema helpers, the group parser and the loop-word parser.  Each request
family parses the rest of its documents in its own module,
``bundle_commands`` (group-sets and bundles) or ``circle_commands`` (circle
bundles, fiber points and paths), since a request compiles every package
module it imports (see ``cli``): this module compiles in 0.65 ms, against
2.2 ms when it held every parser (``compile()``, 2 CPUs, Python 3.11).  For
the same reason :func:`parse_group` imports ``groups`` when it runs: a
circle request parses a word but no group, and loads no ``groups``.
"""

from __future__ import annotations

import json
import sys
from typing import Any

from .errors import SchemaError
from .perms import validate_word


def _require_keys(obj: Any, where: str, required: set[str]) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object, got {type(obj).__name__}")
    keys = set(obj.keys())
    missing = required - keys
    unknown = keys - required
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


def parse_group(obj: Any, where: str = "group"):
    """The ``groups.FiniteGroup`` that a group document names."""
    from . import groups

    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError(f"{where}: expected an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "cyclic":
        _require_keys(obj, where, {"kind", "n"})
        return groups.make_cyclic(_int(obj["n"], f"{where}.n"))
    if kind == "product":
        _require_keys(obj, where, {"kind", "factors"})
        factors = obj["factors"]
        if not isinstance(factors, list) or not factors:
            raise SchemaError(f"{where}.factors: expected a non-empty list")
        parsed = [parse_group(f, f"{where}.factors[{i}]") for i, f in enumerate(factors)]
        out = parsed[0]
        for other in parsed[1:]:
            out = groups.make_direct_product(out, other)
        return out
    if kind == "symmetric":
        _require_keys(obj, where, {"kind", "n"})
        return groups.make_symmetric(_int(obj["n"], f"{where}.n"))
    if kind == "table":
        _require_keys(obj, where, {"kind", "mul"})
        mul = _int_rows(obj["mul"], f"{where}.mul")
        try:
            return groups.from_mul_table(mul, label="G")
        except ValueError as exc:
            raise SchemaError(f"{where}.mul: {exc}") from exc
    raise SchemaError(f"{where}.kind: unknown kind {kind!r}")


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
