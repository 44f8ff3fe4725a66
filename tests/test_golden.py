"""Golden corpus: every subcommand's exact stdout, stderr and exit code.

Each ``golden/<case>.json`` holds the argument vector of one CLI call and
the three outputs it produced.  The fixtures are written once and never
regenerated by the suite: a difference here is a behaviour change.
"""

import json
from pathlib import Path

import pytest

from framebundles.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(GOLDEN.glob("*.json"))


def test_corpus_covers_every_subcommand():
    commands = {json.loads(p.read_text(encoding="utf-8"))["argv"][2] for p in CASES}
    assert commands == {
        "classify-circle", "components", "frame-bundle", "holonomy", "sn-action",
        "decompose", "verify", "u1-holonomy", "u1-transport", "pushforward",
        "division-check",
    }


@pytest.mark.parametrize("path", CASES, ids=[p.stem for p in CASES])
def test_golden(path, capsys):
    case = json.loads(path.read_text(encoding="utf-8"))
    code = main(case["argv"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        case["exit"], case["stdout"], case["stderr"]
    )
