"""``verify equivalence``: the frame lift is fully faithful."""

from __future__ import annotations

import math

from . import frame_tables
from .records import perm_str


def suite_equivalence(rep, G, n, F, name) -> None:
    """Full faithfulness of the frame lift between morphism sets."""
    r = frame_tables.check_equivalence(F, F)
    expected = G.order**n * math.factorial(n)
    rep.add(name, "group-set morphism count", r.gset_hom_count == expected,
            f"{r.gset_hom_count} vs {expected}")
    rep.add(name, "torsor morphism count", r.torsor_hom_count == expected,
            f"{r.torsor_hom_count} vs {expected}")
    detail = ("the morphism sending the base frame to {} lifts to {}, not to the torsor "
              "morphism {}".format(perm_str(r.mismatch[0]), *r.mismatch[1:]) if r.mismatch else "")
    rep.add(name, "lift is a bijection", r.bijective, detail)
    rep.bump("morphisms", r.gset_hom_count)
