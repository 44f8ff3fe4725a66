"""``verify ses``: the sequence Aut(q) -> Aut(F) -> Sym(n) is exact and splits."""

from __future__ import annotations

from . import gset_aut, gsets
from .suites import SuiteReport, _fixtures


def suite_ses(group_list, orbit_counts) -> SuiteReport:
    """Short-exact-sequence report per fixture: sizes, kernel, splitting."""
    rep = SuiteReport("ses")
    for G, n, name in _fixtures(group_list, orbit_counts):
        r = gset_aut.ses_report(gsets.standard_semitorsor(G, n))
        rep.add(name, "|Aut(F)| = |Aut(q)| |Sym(X)|", r.product_matches,
                f"{r.aut_order} = {r.autq_order} x {r.sym_order}")
        rep.add(name, "kernel of cq is the orbit-preserving part", not r.kernel_witness,
                r.kernel_witness)
        rep.add(name, "cq surjective", not r.cq_witness, r.cq_witness)
        rep.add(name, "section splits cq", not r.section_witness, r.section_witness)
        rep.bump("automorphisms", r.aut_order)
    return rep
