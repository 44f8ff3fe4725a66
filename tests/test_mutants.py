"""The mutation table of ``tools/mutants.py`` stays in step with the library:
each row's old text occurs exactly once in its file, so an edit to the code
it breaks shows here, not only when the table is run."""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("row", mutants.ROWS, ids=[re.sub(r"\W+", "-", row[0]) for row in mutants.ROWS])
def test_each_mutant_edits_one_place(row):
    name, file, old, new, tests = row
    assert old != new and tests
    assert (ROOT / file).read_text(encoding="utf-8").count(old) == 1
