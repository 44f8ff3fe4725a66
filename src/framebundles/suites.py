"""Named verification suites driven by the CLI.

Each suite runs an exhaustive invariant battery over generated fixtures and
returns a deterministic report; a single failing check makes the whole suite
fail.  Fixture groups cover every isomorphism class up to order 6.
"""

from __future__ import annotations

import itertools
import math
from operator import eq

from . import config
from .errors import BoundExceeded
from .frames import (
    _wreath_generators,
    act_table,
    check_equivalence,
    enumerate_frames,
    frame_divide,
    frame_map,
    gset_homs,
    lift_table,
    orbit_tables,
    wreath_act,
    wreath_elements,
    wreath_identity,
)
from .groups import (
    FiniteGroup,
    first_broken_edge,
    make_cyclic,
    make_direct_product,
    make_symmetric,
    perm_compose,
    perm_inverse,
)
from .gsets import (
    division_table,
    induced_orbit_map,
    standard_semitorsor,
    trivial_gset,
)
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


PAIR_BOUND = 50  # functor-laws checks all pairs only up to this many morphisms
APPENDIX_B_MAX_N = 4  # appendix-b checks S3 .. S4; labelling n! actions costs (n!)^2 n^2

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


def suite_torsor(groups, orbit_counts) -> SuiteReport:
    """Frame spaces are wreath torsors: size, closure, freeness, transitivity."""
    rep = SuiteReport("torsor")
    for G, n, name in _fixtures(groups, orbit_counts):
        F = standard_semitorsor(G, n)
        fs = enumerate_frames(F)
        expected = G.order**n * math.factorial(n)
        rep.add(name, "frame count |G|^n n!", len(fs.frames) == expected,
                f"{len(fs.frames)} vs {expected}")
        elements = wreath_elements(G, n)
        # closure and freeness read all |W| x |frames| = |W|^2 action values,
        # as many as the entries of a Cayley table of W
        config.check_table_order(len(elements), what="wreath product")
        identity = wreath_identity(G, n)
        indices = range(len(fs.frames))
        off = fixed = ""  # the first counterexample of each check
        for w in elements:
            table = act_table(fs, w)
            if not off and None in table:
                off = f"{w!r} sends frame {fs.frames[table.index(None)]} off the frame space"
            # operator.eq, as int.__eq__(i, None) is NotImplemented, which is true
            if not fixed and w != identity and any(map(eq, table, indices)):
                i = next(i for i, j in enumerate(table) if i == j)
                fixed = f"{w!r} fixes frame {fs.frames[i]}"
        rep.add(name, "action closed on frames", not off, off)
        rep.add(name, "action free", not fixed, fixed)
        missed = ""
        base = fs.frames[0]
        # from the base frame to every frame, then from every frame back to it
        for t1, t2 in [(base, t) for t in fs.frames] + [(t, base) for t in fs.frames]:
            w = frame_divide(fs, t2, t1)
            image = wreath_act(F, w, t1)
            if not missed and image != t2:
                missed = f"{w!r} sends frame {t1} to {image}, not {t2}"
        rep.add(name, "action transitive via division", not missed, missed)
        rep.bump("frames", len(fs.frames))
        rep.bump("wreath elements", len(elements))
    return rep


def suite_functor_laws(groups, orbit_counts) -> SuiteReport:
    """Identity and composition laws of the frame lift, over all morphism pairs."""
    rep = SuiteReport("functor-laws")
    for G, n, name in _fixtures(groups, orbit_counts):
        F = standard_semitorsor(G, n)
        fs = enumerate_frames(F)
        lift = lift_table(F, F, range(F.size))
        moved = next((f"the lift moves frame {fs.frames[i]}"
                      for i, j in enumerate(lift) if i != j), "")
        rep.add(name, "identity lifts to identity", not moved, moved)
        homs = gset_homs(F, F)
        if len(homs) > PAIR_BOUND:
            rep.add(name, f"composition law (skipped, {len(homs)} > {PAIR_BOUND} morphisms)", True)
            continue
        broken = _first_broken_composition(F, homs)
        detail = f"a={broken[0]} b={broken[1]}" if broken else ""
        rep.add(name, "composition law on all pairs", not broken, detail)
        rep.bump("composable pairs", len(homs) ** 2)
    return rep


def _first_broken_composition(F, homs):
    """The first pair (a, b) of maps F -> F whose lift(a b) is not la after lb, or None."""
    lifts = [lift_table(F, F, a) for a in homs]
    for a, la in zip(homs, lifts):
        for b, lb in zip(homs, lifts):
            lab = lift_table(F, F, perm_compose(a, b))
            # None, a frame lifted off the frame space, matches nothing
            if None in lb or None in lab or lab != list(map(la.__getitem__, lb)):
                return a, b
    return None


def suite_ses(groups, orbit_counts) -> SuiteReport:
    """Short-exact-sequence report per fixture: sizes, kernel, splitting."""
    from .gset_aut import ses_report

    rep = SuiteReport("ses")
    for G, n, name in _fixtures(groups, orbit_counts):
        F = standard_semitorsor(G, n)
        r = ses_report(F)
        rep.add(name, "|Aut(F)| = |Aut(q)| |Sym(X)|", r.product_matches,
                f"{r.aut_order} = {r.autq_order} x {r.sym_order}")
        rep.add(name, "kernel of cq is the orbit-preserving part", r.kernel_is_autq)
        rep.add(name, "cq surjective", r.cq_surjective)
        rep.add(name, "section splits cq", r.section_splits)
        rep.bump("automorphisms", r.aut_order)
    return rep


def suite_wreath_iso(groups, orbit_counts) -> SuiteReport:
    """The explicit wreath-to-automorphism map is a bijective homomorphism.

    The homomorphism law on all |W|^2 pairs is proved on the |W| |gens|
    generator edges by the lemma of :func:`~framebundles.groups.first_broken_edge`,
    so the ``homomorphism pairs`` counter counts the |W|^2 pairs that the
    proved law covers, not the products computed.  W is indexed by the
    frames of G x I_n, w as w . base, on which it acts freely and
    transitively; right multiplication by s then sends w . base to
    w . (s . base), so it is the frame lift of the map base -> s . base.
    """
    from .gset_aut import aut_to_wreath, ses_report, wreath_to_aut

    rep = SuiteReport("wreath-iso")
    for G, n, name in _fixtures(groups, orbit_counts):
        F = standard_semitorsor(G, n)
        elements = wreath_elements(G, n)
        tables = [wreath_to_aut(w, F) for w in elements]
        first = dict(zip(tables[::-1], elements[::-1]))  # the first element of each table
        clash = next((f"{first[t]!r} and {w!r} map to one automorphism"
                      for w, t in zip(elements, tables) if first[t] is not w), "")
        rep.add(name, "injective", not clash, clash)
        auts = gset_homs(F, F)
        missed = next((f"no element reaches {a}" for a in auts if a not in first), "")
        rep.add(name, "surjective onto Aut(G x X)", first.keys() == set(auts), missed)
        broken = _broken_wreath_hom(F, elements, tables)
        rep.add(name, "homomorphism on all pairs", not broken, broken)
        trip = next((f"{w!r} comes back as {v!r}" for w, t in zip(elements, tables)
                     if (v := aut_to_wreath(F, t)) != w), "")
        rep.add(name, "round trip to wreath", not trip, trip)
        moved = next((f"{w!r} permutes the orbits by {p}" for w, t in zip(elements, tables)
                      if (p := induced_orbit_map(F, F, t)) != w.sigma), "")
        rep.add(name, "orbit permutation matches sigma", not moved, moved)
        r = ses_report(F, auts)
        rep.add(name, "SES sizes", r.ok,
                f"{r.aut_order} = {r.autq_order} x {r.sym_order}")
        rep.bump("homomorphism pairs", len(elements) ** 2)
    return rep


def _broken_wreath_hom(F, elements, tables) -> str:
    """The first edge (w, s) with phi(w s) != phi(w) phi(s), or "", where phi
    sends ``elements[i]`` to ``tables[i]``, in the frame indexing of
    :func:`suite_wreath_iso`."""
    fs = enumerate_frames(F)
    base = fs.frames[0]
    at = next(orbit_tables(elements, fs))  # elements[i] . base is frame at[i]
    if None in at or sorted(at) != list(range(len(fs.frames))):
        return "W does not act freely and transitively on the frames"
    of_frame = perm_inverse(at)
    moved = [wreath_act(F, s, base) for s in _wreath_generators(F.group, fs.n)]
    moves = [lift_table(F, F, frame_map(F, base, F, t)) for t in moved]
    try:
        broken = first_broken_edge([tables[i] for i in of_frame], perm_compose, fs.index[base],
                                   [fs.index[t] for t in moved], moves)
    except ValueError:  # the generators do not generate W
        return "the generators do not reach every element"
    if broken is None:
        return ""
    w, s = (elements[of_frame[j]] for j in broken)
    return f"phi(w s) != phi(w) phi(s) at w={w!r}, s={s!r}"


def suite_division_rules(groups, orbit_counts) -> SuiteReport:
    """The four division identities, exhaustively on every free fixture.

    ``[a/b]`` is the group element carrying point b to point a, read from
    the division table; each rule reports its first counterexample.
    """
    rep = SuiteReport("division-rules")
    for G, n, name in _fixtures(groups, orbit_counts):
        F = standard_semitorsor(G, n)
        div = division_table(F)
        by_orbit = F.orbit_partition.members
        mul, inv, act = G.mul, G.inv, F.act
        inverse = cancel = scaling = invariance = ""  # the first counterexample of each rule
        for orbit in by_orbit:
            for f1 in orbit:
                for f2 in orbit:
                    d21 = div[f2, f1]
                    if not inverse and d21 != inv[div[f1, f2]]:
                        inverse = f"[{f2}/{f1}] = {d21} is not the inverse of [{f1}/{f2}] = {div[f1, f2]}"
                    for f in orbit:
                        if not cancel and d21 != mul[div[f2, f]][div[f, f1]]:
                            cancel = (f"[{f2}/{f1}] = {d21} but [{f2}/{f}] [{f}/{f1}] = "
                                      f"{mul[div[f2, f]][div[f, f1]]}")
                    for g1 in range(G.order):
                        for g2 in range(G.order):
                            lhs, rhs = div[act[g2][f2], act[g1][f1]], mul[mul[g2][d21]][inv[g1]]
                            if not scaling and lhs != rhs:
                                scaling = (f"[{g2}.{f2}/{g1}.{f1}] = {lhs} but "
                                           f"{g2} [{f2}/{f1}] {g1}^-1 = {rhs}")
        for value in gset_homs(F, F):
            for orbit in by_orbit:
                for f1 in orbit:
                    for f2 in orbit:
                        if not invariance and div[value[f2], value[f1]] != div[f2, f1]:
                            invariance = (f"{value} sends [{f2}/{f1}] = {div[f2, f1]} "
                                          f"to {div[value[f2], value[f1]]}")
        rep.add(name, "inverse rule", not inverse, inverse)
        rep.add(name, "cancellation rule", not cancel, cancel)
        rep.add(name, "scaling rule", not scaling, scaling)
        rep.add(name, "automorphism invariance", not invariance, invariance)
        rep.bump("fixtures")
    return rep


def suite_equivalence(groups, orbit_counts) -> SuiteReport:
    """Full faithfulness of the frame lift between morphism sets."""
    rep = SuiteReport("equivalence")
    for G, n, name in _fixtures(groups, orbit_counts):
        F = standard_semitorsor(G, n)
        r = check_equivalence(F, F)
        expected = G.order**n * math.factorial(n)
        rep.add(name, "group-set morphism count", r.gset_hom_count == expected,
                f"{r.gset_hom_count} vs {expected}")
        rep.add(name, "torsor morphism count", r.torsor_hom_count == expected,
                f"{r.torsor_hom_count} vs {expected}")
        rep.add(name, "lift is a bijection", r.bijective)
        rep.bump("morphisms", r.gset_hom_count)
    return rep


def suite_appendix_b() -> SuiteReport:
    """Labelling of faithful symmetric actions and the global-action obstruction."""
    from .bundles import (
        finite_winding_bundle,
        flat_bundle,
        quotient_bundle,
        sn_action_on_bundle,
        sn_labelling,
    )

    rep = SuiteReport("appendix-b")
    for n in range(3, APPENDIX_B_MAX_N + 1):
        perms = list(itertools.permutations(range(n)))
        all_ok = True
        for tau in perms:
            tau_inv = perm_inverse(tau)
            action = {
                s: tuple(tau[s[tau_inv[a]]] for a in range(n)) for s in perms
            }
            beta = sn_labelling(n, action)
            if tuple(beta[tau[i]] for i in range(n)) != tuple(range(n)):
                all_ok = False
        rep.add(f"S{n}", f"labelling recovers all {len(perms)} conjugators", all_ok)
        rep.bump("conjugators", len(perms))

        res = sn_action_on_bundle(flat_bundle(trivial_gset(n), (tuple(range(n)),)))
        rep.add(f"S{n}", "global action on the trivial covering", res.ok)

        nontrivial = quotient_bundle(finite_winding_bundle(make_cyclic(2), n))
        res2 = sn_action_on_bundle(nontrivial)
        rep.add(
            f"S{n}",
            "obstruction named on the connected covering",
            (not res2.ok) and res2.obstruction_generator == 1,
            f"generator {res2.obstruction_generator}",
        )
    return rep


SUITES = {
    "torsor": suite_torsor,
    "functor-laws": suite_functor_laws,
    "ses": suite_ses,
    "wreath-iso": suite_wreath_iso,
    "division-rules": suite_division_rules,
    "equivalence": suite_equivalence,
    "appendix-b": suite_appendix_b,
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
        return suite_appendix_b()
    groups = [named_group(group_name)] if group_name is not None else fixture_groups(max_group or 4)
    counts = [orbit_count] if orbit_count is not None else range(1, (max_orbits or 3) + 1)
    return SUITES[name](groups, counts)
