"""Fuzzing of every subcommand through the CLI: every input exits 0, 1 or 2.

Documents are drawn from the ``specdoc`` schemas (bundles, circle bundles,
fiber points, paths and groups) with small sizes, then mutated at random
places: wrong types, booleans, negative, out-of-range and huge integers, and
ragged lists.  ``verify`` gets drawn and mutated arguments.  Whatever the
input, the command must end with a report or a message, never with an
uncaught exception: exit 1 with a message says ``obstruction: ``, exit 2
says ``error: `` (or argparse's ``usage: ``), and a document or argument
that was not mutated is never refused as a usage error.

The strict argv matcher is checked against argparse on drawn argument
vectors: what it accepts, argparse accepts with the same namespace, and what
argparse refuses, it declines.
"""

import contextlib
import io
import json

from hypothesis import example, given, settings, strategies as st

from framebundles.cli import GRAMMAR, SUITE_NAMES, _match, build_parser, main

COMMANDS = (["components"], ["decompose"], ["holonomy", "--word", "1,-1"], ["frame-bundle"],
            ["sn-action"])


def check_call(argv, valid=False, report=False):
    """Run the CLI on ``argv`` and check its exit code and messages; ``valid``
    arguments and documents must not be refused as a usage error, and only a
    command that ``report``s its obstruction or failed check on stdout may
    exit 1 without a message."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the arguments themselves
            assert not valid and exc.code == 2 and err.getvalue().startswith("usage: "), argv
            return
    message = err.getvalue()
    assert code in (0, 1, 2) and "Traceback" not in message, argv
    if code == 0:
        assert message == "", argv
    elif code == 2:
        assert message.startswith("error: "), (argv, message)
    elif report and not message:
        assert out.getvalue().endswith(("status: obstruction\n", "status: fail\n")), argv
    else:
        assert message.startswith("obstruction: "), (argv, message)
    assert not valid or code in (0, 1), (argv, message)

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


def mutate(draw, doc, times):
    """``doc`` with ``times`` random parts replaced by mutants or made ragged."""
    for _ in range(times):
        path = draw(st.sampled_from(list(_paths(doc))))
        target = _get(doc, path)
        if isinstance(target, list) and target and draw(st.booleans()):
            # ragged: one entry short or one too many
            value = target[:-1] if draw(st.booleans()) else target + target[-1:]
        else:
            value = draw(MUTANTS)
        doc = _replace(doc, path, value)
    return doc


@st.composite
def mutated_docs(draw):
    return mutate(draw, draw(bundle_docs()), draw(st.integers(0, 2)))


@settings(deadline=None)
@given(mutated_docs(), st.sampled_from(COMMANDS))
def test_bundle_documents_exit_0_1_or_2(doc, command):
    check_call([command[0], json.dumps(doc), *command[1:]], report=command[0] == "sn-action")


# -- circle bundles, fiber points, paths and groups: |G| <= 3, k <= 2, short words

ANGLES = st.one_of(st.integers(-3, 3),
                   st.sampled_from(["0", "1/3", "-2/5", "1/2", " 3/4 ", "0.25", "7/1"]))


@st.composite
def u1_docs(draw):
    k, loops = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    gens = [{"angles": draw(st.lists(ANGLES, min_size=k, max_size=k)),
             "perm": draw(st.permutations(range(k)))} for _ in range(loops)]
    return {"k": k, "loops": loops, "generators": gens}


def point_docs(k):
    return st.fixed_dictionaries({"angle": ANGLES, "sheet": st.integers(0, k - 1)})


def path_docs(k):
    return st.fixed_dictionaries({
        "step": st.sampled_from(["1/100", 1, "1/3", "0.5"]),
        "points": st.lists(point_docs(k), min_size=2, max_size=4),
    })


def words(loops):
    letters = st.sampled_from([x for x in range(-loops, loops + 1) if x])
    return st.lists(letters, max_size=4).map(lambda w: ",".join(map(str, w)))


# junk for a word or an integer option
BAD_ARGS = st.sampled_from(["x", "0", "3", "-3", "1,,x", "1.5", str(2**63), ""])


U1_COMMANDS = ["u1-holonomy", "u1-transport", "pushforward", "division-check"]


def circle_request(draw, command, times, bad_arg):
    """A circle-bundle request with ``times`` mutations in each document and,
    if ``bad_arg``, a bad word, power, path or start point."""
    spec = draw(u1_docs())
    k, loops = spec["k"], spec["loops"]
    if command == "pushforward":
        options = {"--power": str(draw(st.integers(-3, 3)))}
    elif command == "division-check":
        options = {"--path": json.dumps(mutate(draw, draw(path_docs(k)), times))}
    else:
        options = {"--word": draw(words(loops))}
        if command == "u1-transport":
            options["--start"] = json.dumps(mutate(draw, draw(point_docs(k)), times))
    if bad_arg:
        options[draw(st.sampled_from(sorted(options)))] = draw(BAD_ARGS)
    argv = [command, json.dumps(mutate(draw, spec, times))]
    for o, v in options.items():
        argv += [o, v] if o == "--word" and draw(st.booleans()) else [f"{o}={v}"]
    return argv


@settings(deadline=None)
@given(st.data(), st.sampled_from(U1_COMMANDS))
def test_circle_bundle_requests_are_answered(data, command):
    check_call(circle_request(data.draw, command, 0, False), valid=True)


@settings(deadline=None)
@given(st.data(), st.sampled_from(U1_COMMANDS), st.integers(1, 2), st.booleans())
def test_mutated_circle_bundle_requests_exit_0_1_or_2(data, command, times, bad_arg):
    check_call(circle_request(data.draw, command, times, bad_arg))


_CYCLIC = [{"kind": "cyclic", "n": n} for n in (1, 2, 3)]
GROUP_DOCS = _CYCLIC + [
    {"kind": "symmetric", "n": 1},
    {"kind": "symmetric", "n": 2},
    {"kind": "product", "factors": [_CYCLIC[0], _CYCLIC[2]]},
    {"kind": "table", "mul": [[0]]},
    {"kind": "table", "mul": [[1, 2, 0], [2, 0, 1], [0, 1, 2]]},
]


def test_group_documents_are_answered():
    for group in GROUP_DOCS:
        check_call(["classify-circle", "--group", json.dumps(group)], valid=True)


@settings(deadline=None)
@given(st.data(), st.sampled_from(GROUP_DOCS), st.integers(1, 2))
def test_mutated_group_documents_exit_0_1_or_2(data, group, times):
    check_call(["classify-circle", "--group", json.dumps(mutate(data.draw, group, times))])


VERIFY_GROUPS = st.sampled_from(["z1", "z2", "z3", "trivial", "Z2"])


# appendix-b runs its own fixtures and refuses --group and --orbits
FIXTURE_SUITES = [name for name in SUITE_NAMES if name != "appendix-b"]


@settings(deadline=None)
@given(st.sampled_from(FIXTURE_SUITES), VERIFY_GROUPS, st.sampled_from(["1", "2"]))
def test_verify_arguments_are_answered(suite, group, orbits):
    check_call(["verify", suite, "--group", group, "--orbits", orbits], valid=True, report=True)


@settings(deadline=None)
@given(st.sampled_from(SUITE_NAMES), VERIFY_GROUPS, st.sampled_from(["1", "2"]), st.lists(
    st.tuples(st.sampled_from(["suite", "--group", "--orbits", "--max-group", "--max-orbits",
                               "--seed"]),
              st.sampled_from(["x", "", "0", "-1", "9", "q8", "S3", str(2**63), "torsor"])),
    min_size=1, max_size=2))
def test_mutated_verify_arguments_exit_0_1_or_2(suite, group, orbits, mutations):
    args = {"suite": suite, "--group": group, "--orbits": orbits}
    for key, value in mutations:
        args[key] = value
    argv = ["verify", args.pop("suite")]
    for option, value in args.items():
        argv += [option, value]
    check_call(argv, report=True)


# -- the strict argv matcher against argparse -----------------------------------

OPTIONS = sorted({spec[0] for _, _, arguments in GRAMMAR.values() for spec in arguments
                  if len(spec) > 2})
# abbreviations that argparse accepts or finds ambiguous, and tokens only it reads
NEAR_OPTIONS = ["--gr", "--wo", "--max", "--max-o", "--or", "--s", "--st", "--po", "--pa",
                "--form", "--format", "-h", "--help", "--", "-g", "--group-", "--nonsense"]
NEAR_COMMANDS = ["classify", "classify-circles", "Verify", "u1_holonomy", "frame", "", "-"]
VALUES = ["-", "", "-1", "-x", "--", "-h", "--word", '{"kind": "cyclic", "n": 3}', "0", "2",
          "z2", "torsor", "json", "1,-2", "x y", "=", "7=8"]
HEADS = [[], ["--format", "json"], ["--format=text"], ["--format", "xml"], ["--format"],
         ["--form", "json"], ["--format", "-"], ["--format="], ["-h"], ["--", "--format", "text"]]


@st.composite
def option_items(draw, names):
    name, value = draw(st.sampled_from(names)), draw(st.sampled_from(VALUES))
    return draw(st.sampled_from([[f"{name}={value}"], [name, value], [name]]))


@st.composite
def argvs(draw):
    """A well-formed argv of a drawn subcommand, then a few of its tokens changed."""
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    items = []
    for spec in GRAMMAR[command][2]:
        if len(spec) == 2:
            items.append([draw(st.sampled_from(VALUES))])
        elif spec[4] or draw(st.booleans()):
            items.append(draw(option_items([spec[0]])))
    items = draw(st.permutations(items))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(items)))
        move = draw(st.sampled_from(["option", "near option", "positional", "repeat", "drop"]))
        if move == "option":
            items.insert(i, draw(option_items(OPTIONS)))
        elif move == "near option":
            items.insert(i, draw(option_items(NEAR_OPTIONS)))
        elif move == "positional":
            items.insert(i, [draw(st.sampled_from(VALUES))])
        elif items and move == "repeat":
            items.insert(i, list(draw(st.sampled_from(items))))
        elif items:
            del items[min(i, len(items) - 1)]
    command = draw(st.sampled_from([command] * 4 + NEAR_COMMANDS))
    return draw(st.sampled_from(HEADS)) + [command] + [token for item in items for token in item]


def _comparable(args):
    out = dict(vars(args))
    out["func"] = (args.func.__module__, args.func.__name__)
    return out


@settings(deadline=None, max_examples=400)
@given(argvs())
@example(["classify-circle"])  # a required option missing
@example(["u1-transport", "-", "--word", "1"])
@example(["verify", "torsor", "--max", "3"])  # an ambiguous abbreviation
@example(["--form", "json", "classify-circle", "--gr", "-"])  # abbreviations argparse reads
@example(["holonomy", "-", "--word=--"])  # argparse reads an empty list
@example(["pushforward", "-", "--power", "-2"])
@example(["verify", "torsor", "--group", "z2", "--group", "z3"])
@example(["components", "--", "-"])
def test_the_matcher_accepts_only_what_argparse_reads_alike(argv):
    matched = _match(argv)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            parsed, code = build_parser().parse_args(argv), None
        except SystemExit as exc:
            parsed, code = None, exc.code
    if matched is not None:
        assert code is None, argv
        assert _comparable(matched) == _comparable(parsed), argv
    if code == 2:
        assert matched is None, argv
