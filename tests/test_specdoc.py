import pytest

from framebundles.errors import SchemaError
from framebundles.groups import make_cyclic
from framebundles.gsets import standard_semitorsor
from framebundles.specdoc import (
    load_document,
    parse_bundle,
    parse_fiber_point,
    parse_group,
    parse_gset,
    parse_path,
    parse_u1_bundle,
    parse_word,
)


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
    assert b.clutching[0].value == (1, 2, 0)

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
    assert len(pts) == 2 and step.denominator == 10
    with pytest.raises(SchemaError):
        parse_path({"step": "0", "points": []}, 2)


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
