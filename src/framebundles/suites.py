"""Named verification suites driven by the CLI.

Each suite runs an exhaustive invariant battery over generated fixtures and
returns a deterministic report; a single failing check makes the whole suite
fail.  Fixture groups cover every isomorphism class up to order 6.

This module keeps what the suites share: the report, the named and fixture
groups and :func:`run_suite`.  Each suite is a module of its own,
``suite_<name>``, holding one function of that name and the suite's private
helpers.  ``SUITES`` maps each suite name to its module, and
:func:`run_suite` imports only that module, so a ``verify`` request compiles
no other suite.  A suite module reads the layers as module attributes at
call time, so a function patched into its layer module after the suite
module is imported is the one called.
"""

from __future__ import annotations

from .errors import BoundExceeded
from .groups import FiniteGroup, make_cyclic, make_direct_product, make_symmetric
from .records import Frozen


class CheckResult(Frozen):
    __slots__ = _fields = ("fixture", "check", "ok", "detail")


class SuiteReport:
    __slots__ = ("suite", "checks", "counters")

    def __init__(self, suite: str):
        self.suite = suite
        self.checks: list[CheckResult] = []
        self.counters: dict[str, int] = {}

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, fixture: str, check: str, ok: bool, detail: str = "") -> None:
        self.checks.append(CheckResult(fixture, check, bool(ok), detail))

    def bump(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount


_NAMED_GROUPS = {
    "trivial": lambda: make_cyclic(1),
    "z1": lambda: make_cyclic(1),
    "z2": lambda: make_cyclic(2),
    "z3": lambda: make_cyclic(3),
    "z4": lambda: make_cyclic(4),
    "z5": lambda: make_cyclic(5),
    "z6": lambda: make_cyclic(6),
    "z2xz2": lambda: make_direct_product(make_cyclic(2), make_cyclic(2)),
    "s3": lambda: make_symmetric(3),
    "s4": lambda: make_symmetric(4),
}


def named_group(name: str) -> FiniteGroup:
    try:
        return _NAMED_GROUPS[name.lower()]()
    except KeyError:
        raise ValueError(
            f"unknown group name {name!r}; choose from {sorted(_NAMED_GROUPS)}"
        ) from None


# every isomorphism class of groups of order <= 6, in order of group order
_FIXTURE_NAMES = ("z1", "z2", "z3", "z4", "z2xz2", "z5", "z6", "s3")


def fixture_groups(max_order: int) -> list[FiniteGroup]:
    """Every isomorphism class of groups of order <= max_order (bounded at 6)."""
    if max_order > 6:
        raise BoundExceeded("fixture list is complete only up to order 6")
    return [G for G in map(named_group, _FIXTURE_NAMES) if G.order <= max_order]


def _fixtures(groups: list[FiniteGroup], orbit_counts):
    for G in groups:
        for n in orbit_counts:
            yield G, n, f"{G.label} n={n}"


SUITES = {
    "torsor": "suite_torsor",
    "functor-laws": "suite_functor_laws",
    "ses": "suite_ses",
    "wreath-iso": "suite_wreath_iso",
    "division-rules": "suite_division_rules",
    "equivalence": "suite_equivalence",
    "appendix-b": "suite_appendix_b",
}


def run_suite(
    name: str,
    max_group: int | None = None,
    max_orbits: int | None = None,
    group_name: str | None = None,
    orbit_count: int | None = None,
) -> SuiteReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    for option, value in (("--max-group", max_group), ("--max-orbits", max_orbits),
                          ("--orbits", orbit_count)):
        if value is not None and value < 1:
            raise ValueError(f"{option} must be at least 1, got {value}")
    if group_name == "":
        raise ValueError("--group must name a group")
    if name == "appendix-b":
        for option, value in (("--group", group_name), ("--orbits", orbit_count),
                              ("--max-group", max_group), ("--max-orbits", max_orbits)):
            if value is not None:
                raise ValueError(f"appendix-b takes no {option}: its fixtures are S3 and S4")
        fixtures = ()
    else:
        fixtures = ([named_group(group_name)] if group_name is not None
                    else fixture_groups(max_group or 4),
                    [orbit_count] if orbit_count is not None else range(1, (max_orbits or 3) + 1))
    # the import statement's own path, as in cli._handler
    module = SUITES[name]
    return getattr(__import__(f"{__package__}.{module}", fromlist=[module]), module)(*fixtures)
