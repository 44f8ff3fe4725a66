"""``verify appendix-b``: labelling of faithful symmetric actions and the
obstruction to a global action, on its own fixtures S3 and S4."""

from __future__ import annotations

import itertools

from . import bundles, groups, gsets

APPENDIX_B_MAX_N = 4  # appendix-b checks S3 .. S4; labelling n! actions costs (n!)^2 n^2


def suite_appendix_b(rep) -> None:
    """Labelling of faithful symmetric actions and the global-action obstruction."""
    for n in range(3, APPENDIX_B_MAX_N + 1):
        perms = list(itertools.permutations(range(n)))
        missed = ""  # the first conjugator that the labelling does not recover
        for tau in perms:
            tau_inv = groups.perm_inverse(tau)
            action = {
                s: tuple(tau[s[tau_inv[a]]] for a in range(n)) for s in perms
            }
            beta = bundles.sn_labelling(n, action)
            if not missed and tuple(beta[tau[i]] for i in range(n)) != tuple(range(n)):
                missed = f"conjugator {tau} labelled {beta}, not {tau_inv}"
        rep.add(f"S{n}", f"labelling recovers all {len(perms)} conjugators", not missed, missed)
        rep.bump("conjugators", len(perms))

        trivial = bundles.flat_bundle(gsets.trivial_gset(n), (tuple(range(n)),))
        res = bundles.sn_action_on_bundle(trivial)
        rep.add(f"S{n}", "global action on the trivial covering", res.ok)

        winding = bundles.finite_winding_bundle(groups.make_cyclic(2), n)
        res2 = bundles.sn_action_on_bundle(bundles.quotient_bundle(winding))
        rep.add(
            f"S{n}",
            "obstruction named on the connected covering",
            (not res2.ok) and res2.obstruction_generator == 1,
            f"generator {res2.obstruction_generator}",
        )
