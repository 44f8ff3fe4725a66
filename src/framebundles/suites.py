"""Named verification suites driven by the CLI.

Each suite runs an exhaustive invariant battery over generated fixtures and
returns a deterministic report; a single failing check makes the whole suite
fail.  Fixture groups cover every isomorphism class up to order 6.
"""

from __future__ import annotations

import itertools
import math

from . import config
from .errors import BoundExceeded
from .frames import (
    _wreath_generators,
    enumerate_frames,
    frame_divide,
    frame_functor_map,
    check_equivalence,
    gset_homs,
    wreath_act,
    wreath_elements,
    wreath_identity,
    wreath_mul,
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
from .gset_aut import aut_to_wreath, ses_report, wreath_to_aut
from .gsets import (
    EquivariantMap,
    compose_equivariant,
    divide,
    identity_hom,
    identity_map,
    induced_orbit_map,
    orbits,
    standard_semitorsor,
    trivial_gset,
)
from .bundles import (
    finite_winding_bundle,
    flat_bundle,
    quotient_bundle,
    sn_action_on_bundle,
    sn_labelling,
)


class CheckResult:
    __slots__ = ("fixture", "check", "ok", "detail")

    def __init__(self, fixture: str, check: str, ok: bool, detail: str = ""):
        self.fixture = fixture
        self.check = check
        self.ok = ok
        self.detail = detail


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
APPENDIX_B_MAX_N = 4  # appendix-b checks S3 .. S4; its labelling checks cost (n!)^3 for S_n

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


def fixture_groups(max_order: int) -> list[FiniteGroup]:
    """Every isomorphism class of groups of order <= max_order (bounded at 6)."""
    if max_order > 6:
        raise BoundExceeded("fixture list is complete only up to order 6")
    out: list[FiniteGroup] = []
    if max_order >= 1:
        out.append(make_cyclic(1))
    if max_order >= 2:
        out.append(make_cyclic(2))
    if max_order >= 3:
        out.append(make_cyclic(3))
    if max_order >= 4:
        out.append(make_cyclic(4))
        out.append(make_direct_product(make_cyclic(2), make_cyclic(2)))
    if max_order >= 5:
        out.append(make_cyclic(5))
    if max_order >= 6:
        out.append(make_cyclic(6))
        out.append(make_symmetric(3))
    return out


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
        closed = True
        free = True
        identity = wreath_identity(G, n)
        for w in elements:
            is_id = w == identity
            for t in fs.frames:
                image = wreath_act(F, w, t)
                if image not in fs.index:
                    closed = False
                if not is_id and image == t:
                    free = False
        rep.add(name, "action closed on frames", closed)
        rep.add(name, "action free", free)
        transitive = True
        base = fs.frames[0]
        for t in fs.frames:
            w = frame_divide(fs, t, base)
            if wreath_act(F, w, base) != t:
                transitive = False
        # second pass over arbitrary pairs, still exhaustive in the source frame
        for t1 in fs.frames:
            w = frame_divide(fs, base, t1)
            if wreath_act(F, w, t1) != base:
                transitive = False
        rep.add(name, "action transitive via division", transitive)
        rep.bump("frames", len(fs.frames))
        rep.bump("wreath elements", len(elements))
    return rep


def suite_functor_laws(groups, orbit_counts) -> SuiteReport:
    """Identity and composition laws of the frame lift, over all morphism pairs."""
    rep = SuiteReport("functor-laws")
    for G, n, name in _fixtures(groups, orbit_counts):
        F = standard_semitorsor(G, n)
        fs = enumerate_frames(F)
        ident = frame_functor_map(identity_map(F))
        rep.add(name, "identity lifts to identity",
                all(ident(t) == t for t in fs.frames))
        homs = gset_homs(F, F)
        if len(homs) > PAIR_BOUND:
            rep.add(name, f"composition law (skipped, {len(homs)} > {PAIR_BOUND} morphisms)", True)
            continue
        ok = True
        for a in homs:
            la = frame_functor_map(a)
            for b in homs:
                lb = frame_functor_map(b)
                lab = frame_functor_map(compose_equivariant(a, b))
                if any(lab(t) != la(lb(t)) for t in fs.frames):
                    ok = False
        rep.add(name, "composition law on all pairs", ok)
        rep.bump("composable pairs", len(homs) ** 2)
    return rep


def suite_ses(groups, orbit_counts) -> SuiteReport:
    """Short-exact-sequence report per fixture: sizes, kernel, splitting."""
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
    proved law covers, not the products computed.
    """
    rep = SuiteReport("wreath-iso")
    for G, n, name in _fixtures(groups, orbit_counts):
        F = standard_semitorsor(G, n)
        elements = wreath_elements(G, n)
        images = [wreath_to_aut(w, F) for w in elements]
        tables = [a.value for a in images]
        rep.add(name, "injective", len(set(tables)) == len(elements))
        auts = gset_homs(F, F)
        rep.add(name, "surjective onto Aut(G x X)",
                set(tables) == {a.value for a in auts})
        position = {w: i for i, w in enumerate(elements)}
        gens = _wreath_generators(G, n)
        moves = [[position[wreath_mul(w, s)] for w in elements] for s in gens]
        try:
            hom_ok = first_broken_edge(tables, perm_compose, position[wreath_identity(G, n)],
                                       [position[s] for s in gens], moves) is None
        except ValueError:  # the generators do not generate W
            hom_ok = False
        rep.add(name, "homomorphism on all pairs", hom_ok)
        round_ok = all(aut_to_wreath(images[i]) == w for i, w in enumerate(elements))
        rep.add(name, "round trip to wreath", round_ok)
        perm_ok = all(induced_orbit_map(images[i]) == w.sigma for i, w in enumerate(elements))
        rep.add(name, "orbit permutation matches sigma", perm_ok)
        r = ses_report(F, auts)
        rep.add(name, "SES sizes", r.ok,
                f"{r.aut_order} = {r.autq_order} x {r.sym_order}")
        rep.bump("homomorphism pairs", len(elements) ** 2)
    return rep


def suite_division_rules(groups, orbit_counts) -> SuiteReport:
    """The four division identities, exhaustively on every free fixture."""
    rep = SuiteReport("division-rules")
    for G, n, name in _fixtures(groups, orbit_counts):
        F = standard_semitorsor(G, n)
        by_orbit = orbits(F).members
        mul, inv = G.mul, G.inv
        inverse_ok = cancel_ok = scaling_ok = invariance_ok = True
        for orbit in by_orbit:
            for f1 in orbit:
                for f2 in orbit:
                    d21 = divide(F, f2, f1)
                    if d21 != inv[divide(F, f1, f2)]:
                        inverse_ok = False
                    for f in orbit:
                        if d21 != mul[divide(F, f2, f)][divide(F, f, f1)]:
                            cancel_ok = False
                    for g1 in range(G.order):
                        for g2 in range(G.order):
                            lhs = divide(F, F.act[g2][f2], F.act[g1][f1])
                            if lhs != mul[mul[g2][d21]][inv[g1]]:
                                scaling_ok = False
        for psi in gset_homs(F, F):
            for orbit in by_orbit:
                for f1 in orbit:
                    for f2 in orbit:
                        if divide(F, psi.value[f2], psi.value[f1]) != divide(F, f2, f1):
                            invariance_ok = False
        rep.add(name, "inverse rule", inverse_ok)
        rep.add(name, "cancellation rule", cancel_ok)
        rep.add(name, "scaling rule", scaling_ok)
        rep.add(name, "automorphism invariance", invariance_ok)
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

        fiber = trivial_gset(n)
        ident = EquivariantMap(fiber, fiber, identity_hom(fiber.group), tuple(range(n)))
        triv = flat_bundle(fiber, (ident,), mode="gspace")
        res = sn_action_on_bundle(triv)
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
    max_group: int = 4,
    max_orbits: int = 3,
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
        return suite_appendix_b()
    groups = [named_group(group_name)] if group_name is not None else fixture_groups(max_group)
    counts = [orbit_count] if orbit_count is not None else range(1, max_orbits + 1)
    return SUITES[name](groups, counts)
