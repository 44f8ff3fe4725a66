import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from framebundles.errors import SchemaError
from framebundles.groups import make_cyclic
from framebundles.gsets import standard_semitorsor
from framebundles.bundle_commands import parse_bundle, parse_gset
from framebundles.circle_commands import parse_fiber_point, parse_path, parse_u1_bundle
from framebundles.specdoc import load_document, parse_group, parse_word


def test_parse_group_kinds():
    assert parse_group({"kind": "cyclic", "n": 3}).order == 3
    prod = parse_group(
        {"kind": "product", "factors": [{"kind": "cyclic", "n": 2}, {"kind": "cyclic", "n": 2}]}
    )
    assert prod.order == 4
    assert parse_group({"kind": "symmetric", "n": 3}).order == 6
    table = parse_group({"kind": "table", "mul": [[0, 1], [1, 0]]})
    assert table.order == 2


def test_parse_group_rejects_unknown_fields():
    with pytest.raises(SchemaError):
        parse_group({"kind": "cyclic", "n": 3, "extra": 1})
    with pytest.raises(SchemaError):
        parse_group({"kind": "mystery"})
    with pytest.raises(SchemaError):
        parse_group({"n": 3})


def test_parse_group_rejects_bad_table():
    with pytest.raises(SchemaError):
        parse_group({"kind": "table", "mul": [[0, 1], [1, 1]]})


def test_parse_gset():
    spec = {"kind": "standard_semitorsor", "group": {"kind": "cyclic", "n": 2}, "n": 3}
    F = parse_gset(spec)
    assert F == standard_semitorsor(make_cyclic(2), 3)
    tbl = {"kind": "table", "group": {"kind": "cyclic", "n": 1}, "act": [[0, 1, 2]]}
    assert parse_gset(tbl).size == 3
    with pytest.raises(SchemaError):
        parse_gset({"kind": "table", "group": {"kind": "cyclic", "n": 2}, "act": [[0], [0]], "x": 1})


def test_parse_bundle_winding():
    b = parse_bundle({"kind": "winding", "group": {"kind": "cyclic", "n": 2}, "k": 2})
    assert b.fiber.size == 4
    assert b.loops == 1


def test_parse_bundle_group_mode():
    spec = {
        "kind": "flat",
        "mode": "group",
        "fiber": {"kind": "cyclic", "n": 3},
        "loops": 1,
        "clutching": [{"aut": [0, 2, 1]}],
    }
    b = parse_bundle(spec)
    assert b.mode == "group"
    with pytest.raises(SchemaError):
        parse_bundle({**spec, "clutching": [{"aut": [0, 0, 0]}]})


def test_parse_bundle_gspace_perm_and_wreath():
    covering = {
        "kind": "flat",
        "mode": "gspace",
        "fiber": {"kind": "table", "group": {"kind": "cyclic", "n": 1}, "act": [[0, 1, 2]]},
        "loops": 1,
        "clutching": [{"perm": [1, 2, 0]}],
    }
    b = parse_bundle(covering)
    assert b.clutching[0] == (1, 2, 0)

    wreath = {
        "kind": "flat",
        "mode": "gspace",
        "fiber": {"kind": "standard_semitorsor", "group": {"kind": "cyclic", "n": 2}, "n": 2},
        "loops": 1,
        "clutching": [{"wreath": {"g": [0, 1], "perm": [1, 0]}}],
    }
    b2 = parse_bundle(wreath)
    assert b2.fiber.size == 4


def test_parse_bundle_rejects_mismatched_loops():
    spec = {
        "kind": "flat",
        "mode": "gspace",
        "fiber": {"kind": "table", "group": {"kind": "cyclic", "n": 1}, "act": [[0, 1]]},
        "loops": 2,
        "clutching": [{"perm": [1, 0]}],
    }
    with pytest.raises(SchemaError):
        parse_bundle(spec)


def test_parse_bundle_rejects_perm_on_nontrivial_group():
    spec = {
        "kind": "flat",
        "mode": "gspace",
        "fiber": {"kind": "standard_semitorsor", "group": {"kind": "cyclic", "n": 2}, "n": 1},
        "loops": 1,
        "clutching": [{"perm": [1, 0]}],
    }
    with pytest.raises(SchemaError):
        parse_bundle(spec)


def test_parse_u1_bundle():
    spec = {
        "k": 2,
        "loops": 1,
        "generators": [{"angles": ["0", "1/3"], "perm": [1, 0]}],
    }
    b = parse_u1_bundle(spec)
    assert b.k == 2
    assert str(b.holonomy_gen[0].angles[1]) == "1/3"
    with pytest.raises(SchemaError):
        parse_u1_bundle({**spec, "generators": [{"angles": ["0"], "perm": [1, 0]}]})
    with pytest.raises(SchemaError):
        parse_u1_bundle({**spec, "generators": [{"angles": ["0", "x"], "perm": [1, 0]}]})


def test_parse_fiber_point_and_path():
    p = parse_fiber_point({"angle": "1/4", "sheet": 1}, 2)
    assert p.sheet == 1
    with pytest.raises(SchemaError):
        parse_fiber_point({"angle": "1/4", "sheet": 5}, 2)
    pts, step = parse_path(
        {"step": "1/10", "points": [{"angle": "0", "sheet": 0}, {"angle": "1/10", "sheet": 0}]},
        2,
    )
    assert list(pts) == [(0, 1, 0), (1, 10, 0)] and step.denominator == 10
    with pytest.raises(SchemaError):
        parse_path({"step": "0", "points": []}, 2)
    # angles outside [0, 1) are read mod 1, both as points and as path samples
    wants = {"4/3": (1, 3), "-1/4": (3, 4), 5: (0, 1)}
    for text, want in wants.items():
        a = parse_fiber_point({"angle": text, "sheet": 0}, 2).angle
        assert (a.numerator, a.denominator) == want
    pts, _ = parse_path({"step": "1", "points": [{"angle": t, "sheet": 1} for t in wants]}, 2)
    assert list(pts) == [(*want, 1) for want in wants.values()]


def test_parse_word():
    assert parse_word("", 2) == ()
    assert parse_word("1,-2, 1", 2) == (1, -2, 1)
    assert parse_word("1 2", 2) == (1, 2)
    with pytest.raises(SchemaError):
        parse_word("0", 2)
    with pytest.raises(SchemaError):
        parse_word("3", 2)
    with pytest.raises(SchemaError):
        parse_word("one", 2)


def test_load_document_inline_and_file(tmp_path):
    assert load_document('{"kind": "cyclic", "n": 2}') == {"kind": "cyclic", "n": 2}
    path = tmp_path / "g.json"
    path.write_text('{"kind": "cyclic", "n": 5}', encoding="utf-8")
    assert load_document(str(path))["n"] == 5
    with pytest.raises(SchemaError):
        load_document(str(tmp_path / "missing.json"))
    with pytest.raises(SchemaError):
        load_document("{not json")


# ---------------------------------------------------------------- rational parity
# Every angle string reads as ``Fraction(text) % 1``, or is refused with the
# message it has always had; the oracle is ``Fraction`` itself, with the
# exponent forms refused before it expands them.

LONG_NUMERATOR = "1" * 4301 + "/3"  # past sys.get_int_max_str_digits()
RATIONAL_CORPUS = [
    "0", "1", "-1", "-0", "7", "007/08", "1/4", "-1/4", "5/4", "-9/4", "4/3", "12/8", "1/1",
    "+1/4", "+0", " 1/4 ", "\t3/4\n", "0.25", "-0.75", ".5", "5.", "1.5e3", "1_0/40",
    "1__0/4", "_1/4", "١/4", "٣/٤", "1/٤", "½", "1e-2", "1E2", "1/0", "-1/0", "0/0", "",
    " ", "/", "1/", "/4", "-", "--1", "+-1", "1/-2", "-1/-2", "1 /2", "- 1/2", "1/2/3",
    "0x10", "1.5/2", "nan", "inf", "²", LONG_NUMERATOR, "1/" + "3" * 4301,
]


def _fraction_oracle(text: str, where: str):
    """``(numerator, denominator)`` of ``Fraction(text) % 1``, or the refusal."""
    if "e" in text or "E" in text:
        return f"{where}: bad rational {text!r}"
    try:
        a = Fraction(text) % 1
    except (ValueError, ZeroDivisionError):
        return f"{where}: bad rational {text!r}"
    return a.numerator, a.denominator


def _read_point(text: str):
    try:
        a = parse_fiber_point({"angle": text, "sheet": 0}, 1).angle
    except SchemaError as exc:
        return str(exc)
    return a.numerator, a.denominator


def _read_sample(point, k: int = 1):
    """The first sample of a two-sample path, as the stream yields it."""
    samples, _ = parse_path({"step": "1", "points": [point, {"angle": "0", "sheet": 0}]}, k)
    try:
        return next(samples)
    except SchemaError as exc:
        return str(exc)


def _both_readers(text: str):
    """The angle through ``parse_fiber_point`` and through the path stream."""
    sample = _read_sample({"angle": text, "sheet": 0})
    if isinstance(sample, str):
        return _read_point(text), sample.replace("path.points[0]", "point", 1)
    return _read_point(text), sample[:2]


def _seeded_strings(seed: int, count: int) -> list[str]:
    rng = random.Random(seed)
    alphabet = "0123456789" * 3 + "-+/._ eE١²"
    return ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8))) for _ in range(count)]


@pytest.mark.parametrize("text", RATIONAL_CORPUS)
def test_angle_reads_as_fraction_mod_one(text):
    want = _fraction_oracle(text, "point.angle")
    assert _both_readers(text) == (want, want)


def test_seeded_angle_strings_read_as_fraction_mod_one():
    for text in _seeded_strings(7, 2000):
        want = _fraction_oracle(text, "point.angle")
        assert _both_readers(text) == (want, want), text


@pytest.mark.parametrize("text", RATIONAL_CORPUS)
def test_step_reads_as_fraction(text):
    doc = {"step": text, "points": [{"angle": "0", "sheet": 0}] * 2}
    want = _fraction_oracle(text, "path.step")
    if isinstance(want, str):
        with pytest.raises(SchemaError) as info:
            parse_path(doc, 1)
        assert str(info.value) == "path.step: bad rational"
    elif Fraction(text) <= 0:
        with pytest.raises(SchemaError, match=r"^path.step: must be positive$"):
            parse_path(doc, 1)
    else:
        assert parse_path(doc, 1)[1] == Fraction(text)


@settings(deadline=None)
@given(st.text(alphabet="0123456789-+/._ e١", max_size=10))
def test_angle_reads_as_fraction_mod_one_hypothesis(text):
    want = _fraction_oracle(text, "point.angle")
    assert _both_readers(text) == (want, want)


def test_non_string_angles_keep_their_messages():
    for obj in (True, 0.5, None, [1], {"p": 1}):
        with pytest.raises(SchemaError, match=r"^point.angle: expected an integer or a 'p/q' string$"):
            parse_fiber_point({"angle": obj, "sheet": 0}, 1)
    assert parse_fiber_point({"angle": -7, "sheet": 0}, 1).angle == 0


@pytest.mark.parametrize(
    "point",
    [
        {"angle": "1/4", "sheet": 1}, {"angle": 3, "sheet": 0}, {"sheet": 1, "angle": "-1/4"},
        {"angle": "1/4", "sheet": True}, {"angle": "1/4", "sheet": 2}, {"angle": "1/4", "sheet": -1},
        {"angle": "1/4", "sheet": "0"}, {"angle": "1/4"}, {"sheet": 0}, {"angle": "x", "sheet": 9},
        {"angle": "1/4", "sheet": 0, "x": 1}, {"angle": "1/4", "extra": 0}, ["1/4", 0], None,
        {"angle": None, "sheet": 0}, {"angle": 0.25, "sheet": 0}, {"angle": "1/0", "sheet": 0},
    ],
)
def test_path_stream_reads_a_sample_as_a_fiber_point(point):
    # the stream's own fast path gives the checked read's triple or refusal
    try:
        p = parse_fiber_point(point, 2)
        want = (p.angle.numerator, p.angle.denominator, p.sheet)
    except SchemaError as exc:
        want = str(exc).replace("point", "path.points[0]", 1)
    assert _read_sample(point, 2) == want


def test_path_stream_refuses_a_sample_only_when_it_is_read():
    points = [{"angle": "1/4", "sheet": 0}, {"angle": "1/3", "sheet": 0}, {"angle": "1/", "sheet": 0}]
    samples, step = parse_path({"step": "1/2", "points": points}, 1)
    assert step == Fraction(1, 2)
    assert next(samples) == (1, 4, 0) and next(samples) == (1, 3, 0)
    with pytest.raises(SchemaError, match=r"^path.points\[2\].angle: bad rational '1/'$"):
        next(samples)
