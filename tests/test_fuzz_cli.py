"""Fuzzing of bundle documents through the CLI: every input exits 0, 1 or 2.

Documents are drawn from the ``specdoc`` bundle schema with small sizes, then
mutated at random places: wrong types, booleans, negative, out-of-range and
huge integers, and ragged lists.  Whatever the document, the command must end
with a report or a message, never with an uncaught exception.
"""

import contextlib
import io
import json

from hypothesis import given, settings, strategies as st

from framebundles.cli import main

COMMANDS = (["components"], ["decompose"], ["holonomy", "--word", "1,-1"], ["frame-bundle"])

_C2 = {"kind": "cyclic", "n": 2}
# (group document, order); every order is at most 6
GROUPS = [
    ({"kind": "cyclic", "n": 1}, 1),
    (_C2, 2),
    ({"kind": "cyclic", "n": 3}, 3),
    ({"kind": "cyclic", "n": 4}, 4),
    ({"kind": "product", "factors": [_C2, _C2]}, 4),
    ({"kind": "product", "factors": [_C2, {"kind": "cyclic", "n": 3}]}, 6),
    ({"kind": "symmetric", "n": 3}, 6),
    ({"kind": "table", "mul": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}, 3),
]


# (group-set table document, size): a non-standard free set, a non-free set
# and a plain three-point set
TABLE_FIBERS = [
    ({"kind": "table", "group": _C2, "act": [[0, 1, 2, 3, 4, 5], [3, 5, 4, 0, 2, 1]]}, 6),
    ({"kind": "table", "group": _C2, "act": [[0, 1, 2], [0, 2, 1]]}, 3),
    ({"kind": "table", "group": {"kind": "cyclic", "n": 1}, "act": [[0, 1, 2]]}, 3),
]


def _max_slots(order):
    # n and k stay at most 3, and at most 2 past order 2, so frame-bundle stays fast
    return 3 if order <= 2 else 2


@st.composite
def bundle_docs(draw):
    group, order = draw(st.sampled_from(GROUPS))
    kind = draw(st.sampled_from(["winding", "group", "gspace", "table"]))
    if kind == "winding":
        return {"kind": "winding", "group": group, "k": draw(st.integers(1, _max_slots(order)))}
    if kind == "group":
        aut = draw(st.permutations(range(order)))
        return {"kind": "flat", "mode": "group", "fiber": group, "loops": 1,
                "clutching": [{"aut": aut}]}
    if kind == "table":
        fiber, size = draw(st.sampled_from(TABLE_FIBERS))
        n = None
    else:
        n = draw(st.integers(1, _max_slots(order)))
        fiber, size = {"kind": "standard_semitorsor", "group": group, "n": n}, order * n
    table = st.one_of(st.just(list(range(size))), st.permutations(range(size)))
    entries = [st.fixed_dictionaries({"table": table}), st.fixed_dictionaries({"perm": table})]
    if n is not None:
        entries.append(st.fixed_dictionaries({"wreath": st.fixed_dictionaries({
            "g": st.lists(st.integers(0, order - 1), min_size=n, max_size=n),
            "perm": st.permutations(range(n)),
        })}))
    loops = draw(st.integers(1, 3))
    return {
        "kind": "flat",
        "mode": "gspace",
        "fiber": fiber,
        "loops": loops,
        "clutching": draw(st.lists(st.one_of(entries), min_size=loops, max_size=loops)),
    }


def _paths(doc, path=()):
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _paths(value, path + (i,))


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _replace(doc, path, value):
    if not path:
        return value
    head, rest = path[0], path[1:]
    if isinstance(doc, dict):
        return {**doc, head: _replace(doc[head], rest, value)}
    return doc[:head] + [_replace(doc[head], rest, value)] + doc[head + 1:]


MUTANTS = st.one_of(
    st.sampled_from(["x", "", "x" * 300, None, 1.5, True, False, {}, [], {"kind": "cyclic"}]),
    st.integers(-3, -1),
    st.sampled_from([19, 100, 2**31, 2**63]),
)


@st.composite
def mutated_docs(draw):
    doc = draw(bundle_docs())
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(list(_paths(doc))))
        target = _get(doc, path)
        if isinstance(target, list) and target and draw(st.booleans()):
            # ragged: one entry short or one too many
            value = target[:-1] if draw(st.booleans()) else target + target[-1:]
        else:
            value = draw(MUTANTS)
        doc = _replace(doc, path, value)
    return doc


@settings(deadline=None)
@given(mutated_docs(), st.sampled_from(COMMANDS))
def test_bundle_documents_exit_0_1_or_2(doc, command):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command[0], json.dumps(doc), *command[1:]])
    assert code in (0, 1, 2)
    assert (code == 0) == (err.getvalue() == "")
