"""The circle-group subcommands and the documents only they read.

``u1-holonomy``, ``u1-transport``, ``pushforward`` and ``division-check``
answer a flat U(1) wr I_k bundle over a wedge of circles; the circle-bundle,
fiber-point and path schemas are in ``specdoc``'s docstring.  ``cli.main``
imports this module only for these four subcommands, so no other request
compiles it.  A circle bundle's permutations are checked by ``perms``, so a
circle request loads no finite-group layer: none of ``groups``, ``gsets`` and
``frames``.

A rational (an angle or a path step) is an integer or a string that
``Fraction`` reads, with exponent forms refused.  One reader turns it into a
reduced ``(numerator, denominator)`` pair of ints; a string of the strict
form ``-?[0-9]+(/[0-9]+)?`` needs only ``int`` and one ``gcd``, and any other
string goes through ``Fraction``, so accepted forms and refusals stay those
of ``Fraction``.  An angle is then taken mod 1.  Generator angles and a
transport's start point become ``Fraction``s for the ``u1`` records; path
samples do not: :func:`sample_hook` turns each strict sample into a
``(numerator, denominator, sheet)`` triple as the path document is decoded,
and :func:`parse_path` streams the samples to ``u1.division_form_check``,
reading, or refusing, any other sample when the check reaches it.

The layers are read as module attributes at call time, so a function patched
into its layer module after this module is imported is the one called.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Callable, Iterator

from . import config, perms, specdoc, u1
from .errors import SchemaError
from .records import Report, perm_str
from .specdoc import _int, _int_list, _require_keys


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


def parse_u1_bundle(obj: Any, where: str = "u1") -> u1.U1FlatBundle:
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
        if not perms.is_permutation(perm, k):
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


def parse_fiber_point(obj: Any, k: int, where: str = "point") -> u1.FiberPoint:
    n, d, sheet = _sample(obj, k, where)
    return u1.FiberPoint(Fraction(n, d), sheet)


def sample_hook(k: int) -> Callable[[dict], Any]:
    """A ``json.loads`` object hook that reads each strict sample of a path
    document on ``k`` sheets into its ``(numerator, denominator, sheet)`` triple.

    An object with exactly the keys ``angle`` and ``sheet``, a sheet in range
    and a strict angle string (see :func:`_strict`) becomes the triple that
    :func:`_sample` gives it, with the angle in [0, 1); any other object is
    returned as it is, to be read or refused by :func:`parse_path`.  At most
    ``config.MAX_CIRCLE_WORK`` objects are read: a document with more
    samples is refused by its sample count, so the rest stay dicts.
    """
    left = config.MAX_CIRCLE_WORK

    def hook(obj: dict) -> Any:
        nonlocal left
        if left and len(obj) == 2:
            sheet, text = obj.get("sheet"), obj.get("angle")
            if (type(sheet) is int and 0 <= sheet < k and type(text) is str
                    and (pair := _strict(text)) is not None):
                left -= 1
                n, d = pair
                return n % d, d, sheet
        return obj

    return hook


def _samples(pts: list, k: int, where: str) -> Iterator[tuple[int, int, int]]:
    """Each sample of ``pts`` as ``(numerator, denominator, sheet)``, read when asked for.

    A triple, which only :func:`sample_hook` makes (JSON gives none), is
    passed on; any other sample goes through :func:`_sample`, which gives the
    triple or the refusal.
    """
    for i, p in enumerate(pts):
        yield p if type(p) is tuple else _sample(p, k, f"{where}.points[{i}]")


def parse_path(obj: Any, k: int,
               where: str = "path") -> tuple[Iterator[tuple[int, int, int]], Fraction]:
    """The samples of a path document, streamed as ``(numerator, denominator,
    sheet)`` triples with the angle in [0, 1), and its step.

    The step, the sample count and ``config.check_circle_work`` are checked
    here; each sample that :func:`sample_hook` did not read is read, and
    refused, only when the stream reaches it.
    """
    if type(obj) is tuple:
        # a document that is one sample, read into a triple by the hook: it
        # is refused as the object it was
        obj = dict.fromkeys(("angle", "sheet"))
    spec = _require_keys(obj, where, {"step", "points"})
    num, den = _rational(spec["step"], f"{where}.step", quote=False)
    if num <= 0:
        raise SchemaError(f"{where}.step: must be positive")
    pts = spec["points"]
    if not isinstance(pts, list) or len(pts) < 2:
        raise SchemaError(f"{where}.points: need at least two samples")
    config.check_circle_work(len(pts), f"{where}.points: samples to parse")
    return _samples(pts, k, where), Fraction(num, den)


def _u1_element_lines(prefix: str, w) -> list[str]:
    angles = ",".join(str(a) for a in w.angles)
    return [f"{prefix}: angles=({angles}) sigma={perm_str(w.sigma)}"]


def cmd_u1_holonomy(args) -> Report:
    b = parse_u1_bundle(specdoc.load_document(args.spec))
    word = specdoc.parse_word(args.word, b.loops)
    # a frame is transported entrywise, so its holonomy is the same element
    h = u1.holonomy_u1(b, word)
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
    b = parse_u1_bundle(specdoc.load_document(args.spec))
    word = specdoc.parse_word(args.word, b.loops)
    start = parse_fiber_point(specdoc.load_document(args.start), b.k)
    end = u1.transport(b, word, start)
    report = Report("u1-transport")
    report.lines.append(f"start: angle={start.angle} sheet={start.sheet}")
    report.lines.append(f"end: angle={end.angle} sheet={end.sheet}")
    report.data = {
        "start": {"angle": str(start.angle), "sheet": start.sheet},
        "end": {"angle": str(end.angle), "sheet": end.sheet},
    }
    return report


def cmd_pushforward(args) -> Report:
    b = parse_u1_bundle(specdoc.load_document(args.spec))
    out = u1.pushforward(b, args.power)
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
    b = parse_u1_bundle(specdoc.load_document(args.spec))
    # strict samples are read as they are decoded, the rest as the check consumes them
    samples, step = parse_path(specdoc.load_document(args.path, object_hook=sample_hook(b.k)), b.k)
    result = u1.division_form_check(samples, step)
    # equal rates share one Fraction, which ``result`` keeps alive: format each once
    text = {i: str(r) for i, r in dict(zip(map(id, result.rates), result.rates)).items()}
    rates = [text[id(r)] for r in result.rates]
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
