"""``verify torsor``: frame spaces are torsors of the wreath product."""

from __future__ import annotations

import math
from operator import eq

from . import config, frames


def suite_torsor(rep, G, n, F, name) -> None:
    """Frame spaces are wreath torsors: size, closure, freeness, transitivity."""
    fs = frames.enumerate_frames(F)
    expected = G.order**n * math.factorial(n)
    rep.add(name, "frame count |G|^n n!", len(fs.frames) == expected,
            f"{len(fs.frames)} vs {expected}")
    elements = frames.wreath_elements(G, n)
    # closure and freeness read all |W| x |frames| = |W|^2 action values,
    # as many as the entries of a Cayley table of W
    config.check_table_order(len(elements), what="wreath product")
    identity = frames.wreath_identity(G, n)
    indices = range(len(fs.frames))
    off = fixed = ""  # the first counterexample of each check
    for w in elements:
        table = frames.act_table(fs, w)
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
        w = frames.frame_divide(fs, t2, t1)
        image = frames.wreath_act(F, w, t1)
        if not missed and image != t2:
            missed = f"{w!r} sends frame {t1} to {image}, not {t2}"
    rep.add(name, "action transitive via division", not missed, missed)
    rep.bump("frames", len(fs.frames))
    rep.bump("wreath elements", len(elements))
