"""``verify functor-laws``: the frame lift is a functor."""

from __future__ import annotations

from . import frames, groups

PAIR_BOUND = 50  # functor-laws checks all pairs only up to this many morphisms


def suite_functor_laws(rep, G, n, F, name) -> None:
    """Identity and composition laws of the frame lift, over all morphism pairs."""
    fs = frames.enumerate_frames(F)
    lift = frames.lift_table(F, F, range(F.size))
    moved = next((f"the lift moves frame {fs.frames[i]}"
                  for i, j in enumerate(lift) if i != j), "")
    rep.add(name, "identity lifts to identity", not moved, moved)
    homs = frames.gset_homs(F, F)
    if len(homs) > PAIR_BOUND:
        rep.add(name, f"composition law (skipped, {len(homs)} > {PAIR_BOUND} morphisms)", True)
        return
    broken = _first_broken_composition(F, homs)
    detail = f"a={broken[0]} b={broken[1]}" if broken else ""
    rep.add(name, "composition law on all pairs", not broken, detail)
    rep.bump("composable pairs", len(homs) ** 2)


def _first_broken_composition(F, homs):
    """The first pair (a, b) of maps F -> F whose lift(a b) is not la after lb, or None."""
    lifts = [frames.lift_table(F, F, a) for a in homs]
    for a, la in zip(homs, lifts):
        for b, lb in zip(homs, lifts):
            lab = frames.lift_table(F, F, groups.perm_compose(a, b))
            # None, a frame lifted off the frame space, matches nothing
            if None in lb or None in lab or lab != list(map(la.__getitem__, lb)):
                return a, b
    return None
