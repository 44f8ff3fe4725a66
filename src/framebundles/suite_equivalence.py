"""``verify equivalence``: the frame lift is fully faithful."""

from __future__ import annotations

import math

from . import frames, gsets
from .suites import SuiteReport, _fixtures


def suite_equivalence(group_list, orbit_counts) -> SuiteReport:
    """Full faithfulness of the frame lift between morphism sets."""
    rep = SuiteReport("equivalence")
    for G, n, name in _fixtures(group_list, orbit_counts):
        F = gsets.standard_semitorsor(G, n)
        r = frames.check_equivalence(F, F)
        expected = G.order**n * math.factorial(n)
        rep.add(name, "group-set morphism count", r.gset_hom_count == expected,
                f"{r.gset_hom_count} vs {expected}")
        rep.add(name, "torsor morphism count", r.torsor_hom_count == expected,
                f"{r.torsor_hom_count} vs {expected}")
        stray = (f"two morphisms lift to {r.collision}" if r.collision is not None
                 else f"the lifts and the torsor morphisms differ at {r.unmatched}"
                 if r.unmatched is not None else "")
        rep.add(name, "lift is a bijection", r.bijective, stray)
        rep.bump("morphisms", r.gset_hom_count)
    return rep
