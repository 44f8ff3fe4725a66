"""``verify wreath-iso``: the wreath product is isomorphic to Aut(G x I_n)."""

from __future__ import annotations

from . import frame_tables, frames, gset_aut, gsets, perms


def suite_wreath_iso(rep, G, n, F, name) -> None:
    """The explicit wreath-to-automorphism map is a bijective homomorphism.

    The homomorphism law on all |W|^2 pairs is proved on the |W| |gens|
    generator edges by the lemma of :func:`~framebundles.perms.first_broken_edge`,
    so the ``homomorphism pairs`` counter counts the |W|^2 pairs that the
    proved law covers, not the products computed.  W is indexed by the
    frames of G x I_n, w as w . base, on which it acts freely and
    transitively; right multiplication by s then sends w . base to
    w . (s . base), so it is the frame lift of the map base -> s . base.
    """
    elements = frame_tables.wreath_elements(G, n)
    tables = [frames.wreath_to_aut(w, F) for w in elements]
    first = dict(zip(tables[::-1], elements[::-1]))  # the first element of each table
    clash = next((f"{first[t]!r} and {w!r} map to one automorphism"
                  for w, t in zip(elements, tables) if first[t] is not w), "")
    rep.add(name, "injective", not clash, clash)
    auts = frame_tables.gset_homs(F, F)
    missed = next((f"no element reaches {a}" for a in auts if a not in first), "")
    rep.add(name, "surjective onto Aut(G x X)", first.keys() == set(auts), missed)
    broken = _broken_wreath_hom(F, elements, tables)
    rep.add(name, "homomorphism on all pairs", not broken, broken)
    trip = next((f"{w!r} comes back as {v!r}" for w, t in zip(elements, tables)
                 if (v := gset_aut.aut_to_wreath(F, t)) != w), "")
    rep.add(name, "round trip to wreath", not trip, trip)
    moved = next((f"{w!r} permutes the orbits by {p}" for w, t in zip(elements, tables)
                  if (p := gsets.induced_orbit_map(F, F, t)) != w.sigma), "")
    rep.add(name, "orbit permutation matches sigma", not moved, moved)
    r = gset_aut.ses_report(F, auts)
    rep.add(name, "SES sizes", r.ok,
            f"{r.aut_order} = {r.autq_order} x {r.sym_order}")
    rep.bump("homomorphism pairs", len(elements) ** 2)


def _broken_wreath_hom(F, elements, tables) -> str:
    """The first edge (w, s) with phi(w s) != phi(w) phi(s), or "", where phi
    sends ``elements[i]`` to ``tables[i]``, in the frame indexing of
    :func:`suite_wreath_iso`."""
    fs = frames.enumerate_frames(F)
    base = fs.frames[0]
    at = next(frame_tables.orbit_tables(elements, fs))  # elements[i] . base is frame at[i]
    if None in at or sorted(at) != list(range(len(fs.frames))):
        return "W does not act freely and transitively on the frames"
    of_frame = perms.perm_inverse(at)
    moved = [frames.wreath_act(F, s, base) for s in frame_tables._wreath_generators(F.group, fs.n)]
    moves = [frame_tables.lift_table(F, F, frames.frame_map(F, base, F, t)) for t in moved]
    try:
        broken = perms.first_broken_edge([tables[i] for i in of_frame], perms.perm_compose,
                                         fs.index[base], [fs.index[t] for t in moved], moves)
    except ValueError:  # the generators do not generate W
        return "the generators do not reach every element"
    if broken is None:
        return ""
    w, s = (elements[of_frame[j]] for j in broken)
    return f"phi(w s) != phi(w) phi(s) at w={w!r}, s={s!r}"
