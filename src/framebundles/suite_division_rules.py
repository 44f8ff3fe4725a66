"""``verify division-rules``: the four division identities of a free group-set."""

from __future__ import annotations

from . import frame_tables, gsets


def suite_division_rules(rep, G, n, F, name) -> None:
    """The four division identities, exhaustively on the free fixture F.

    ``[a/b]`` is the group element carrying point b to point a, read from
    the division table; each rule reports its first counterexample.
    """
    div = gsets.division_table(F)
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
    for value in frame_tables.gset_homs(F, F):
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
