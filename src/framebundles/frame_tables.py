"""Maps on whole frame spaces, the morphisms they lift and the equivalence check.

A map on a whole frame space is tabulated by one kernel, :func:`frame_table`:
slot ``x`` of the image of ``t`` is ``rows[x][t[src[x]]]``, computed one slot
at a time over the space's cached columns (one ``itemgetter`` call per slot)
and joined with ``zip``, and each image tuple is looked up in the target's
index (None where it is not a frame).  A wreath element is
``rows = [act[g] for g in g_tuple]`` with ``src = s^-1`` (:func:`act_table`);
the frame lift of a map with value table ``value`` is ``rows = [value] * n``
with ``src`` the identity (:func:`lift_table`).  :func:`orbit_tables` gives,
for each frame ``t``, the images of ``t`` under a list of wreath elements,
the same kernel read over the elements' keys.

:func:`check_equivalence` holds one pair of tables at a time: the lift of
one morphism and its torsor twin ``t_i -> d_i . u``.  It tabulates each
generator ``w`` once, as the permutations ``p1``, ``p2`` of frame indices
with ``w . fs1[i] = fs1[p1[i]]`` and likewise on ``fs2``, and tests
``table[p1[i]] == p2[table[i]]`` on the first twin only: all twins share the
divisions ``d_i = t_i / base``, so on a free action one proves them all.

Only the ``verify`` suites, ``gset_aut`` and the tests import this module;
the bundles read the frames through ``frames``.
"""

from __future__ import annotations

import itertools
import math
from operator import itemgetter

from . import config
from .errors import OrbitObstruction
from .frames import WreathElement, enumerate_frames, frame_divide, frame_map, is_basis
from .groups import FiniteGroup, identity_hom
from .gsets import (
    Frame,
    FrameSpace,
    GSet,
    check_equivariant,
    is_orbit_bijection,
    semitorsor_point,
    standard_semitorsor,
)
from .perms import is_permutation, perm_orbits
from .records import Frozen


def _getter(positions):
    """``_getter(p)(seq)`` is the tuple of ``seq[i]`` for ``i`` in ``p``, one
    ``itemgetter`` call (a loop in C); ``itemgetter`` alone returns the bare
    item for a single position."""
    if len(positions) == 1:
        (i,) = positions
        return lambda seq: (seq[i],)
    return itemgetter(*positions)


def frame_table(columns, rows, src, index: dict[Frame, int]) -> list[int | None]:
    """Entry i is ``index[t']`` for the i-th tuple ``t``, where ``t'[x] = rows[x][t[src[x]]]``.

    ``columns[y]`` holds slot ``y`` of every ``t`` (for a frame space, its
    ``columns``); with no slots there is one tuple, the empty one.  Where
    ``t'`` is not in ``index`` (not a frame) the entry is None, which equals
    no index.  Each slot's images are one ``itemgetter`` call.
    """
    if not columns:
        return [index.get(())]
    return list(map(index.get, zip(*[_getter(columns[y])(row) for row, y in zip(rows, src)])))


def act_table(fs: FrameSpace, w: WreathElement) -> list[int | None]:
    """Entry i is the index of ``w . fs.frames[i]`` (``frames.wreath_act``)."""
    if w.n != fs.n:
        raise ValueError("tuple length does not match the wreath element")
    act = fs.base_gset.act
    return frame_table(fs.columns, [act[g] for g in w.g_tuple], w.sigma_inv, fs.index)


def orbit_tables(ws: list[WreathElement], fs: FrameSpace):
    """For each frame ``t`` of ``fs`` in turn, the list whose entry i is the
    index of ``ws[i] . t`` (``frames.wreath_act``), or None off the space.

    Slot ``x`` of ``(g, s) . t`` is ``act[g[x]][t[s^-1(x)]]``: entry
    ``g[x] n + s^-1(x)`` of the flat list holding ``act[g][t[y]]`` at
    ``g n + y``.  So each table is :func:`frame_table` over the elements' key
    tuples, with that flat list as the row of every slot.  The keys are built
    once and each table from its own ``t``; no ``|ws| x |frames|`` matrix is
    held.
    """
    n = fs.n
    keys = tuple(zip(*[[g * n + y for g, y in zip(w.g_tuple, w.sigma_inv)] for w in ws]))
    for t in fs.frames:
        flat = [row[p] for row in fs.base_gset.act for p in t]
        yield frame_table(keys, [flat] * n, range(n), fs.index)


def _model_frame(F: GSet, t: Frame) -> tuple[GSet, Frame]:
    """``G x I_n`` and its frame ``(e, x)``, after checking that ``t`` is a basis."""
    if not is_basis(F, t):
        raise ValueError("tuple is not a basis")
    n = len(t)
    frame = tuple(semitorsor_point(F.group.identity, x, n) for x in range(n))
    return standard_semitorsor(F.group, n), frame


def associated_map(F: GSet, t: Frame) -> tuple[int, ...]:
    """The isomorphism G x I_n -> F induced by a frame: (g, x) -> g . t[x].

    Its inverse sends f to (f / t[x], x) where x is the slot whose orbit
    contains f.
    """
    model, m = _model_frame(F, t)
    return frame_map(model, m, F, t)


def associated_map_inverse(F: GSet, t: Frame) -> tuple[int, ...]:
    """The inverse of :func:`associated_map`, as a map F -> G x I_n."""
    model, m = _model_frame(F, t)
    return frame_map(F, t, model, m)


def lift_table(source: GSet, target: GSet, value) -> list[int | None]:
    """The frame lift t -> value . t of an equivariant map, on frame indices.

    Entry i is the index in the target's frame space of source frame i with
    ``value`` applied slot by slot.  Only maps inducing a bijection on orbits
    lift; the lift is equivariant for (xi^n, id) between the wreath products.
    """
    if not is_orbit_bijection(source, target, value):
        raise OrbitObstruction(
            "map does not induce a bijection on orbits, so it has no frame lift"
        )
    fs = enumerate_frames(source)
    return frame_table(fs.columns, [value] * fs.n, range(fs.n), enumerate_frames(target).index)


def wreath_elements(G: FiniteGroup, n: int) -> list[WreathElement]:
    """Every element of the wreath product, sorted by (g_tuple, sigma)."""
    config.check_enumeration(G.order**n * math.factorial(n), "wreath elements")
    perms = list(itertools.permutations(range(n)))
    return [WreathElement(G, g, s) for g in itertools.product(range(G.order), repeat=n)
            for s in perms]


class Reconstruction(Frozen):
    """Result of collapsing a frame space back to a group-set.

    ``gset`` is the quotient by the slot-stabilizer subgroup,
    ``class_of_frame[i]`` the quotient class of ``fs.frames[i]``, and
    ``to_standard`` the value table of an isomorphism onto the standard
    semi-torsor, the witness that the quotient is ``G x I_n``.
    """

    __slots__ = _fields = ("gset", "class_of_frame", "to_standard")


def reconstruct_semitorsor(fs: FrameSpace, x: int) -> Reconstruction:
    """Quotient the frame space by the subgroup leaving slot x untouched.

    The subgroup consists of the wreath elements with sigma(x) = x and
    identity group entry at slot x.  Its orbits biject with the base
    group-set via evaluation at slot x, and the induced action of G (acting
    on slot x only) makes the quotient isomorphic to G x I_n.
    """
    F = fs.base_gset
    G = F.group
    n = fs.n
    if not (0 <= x < n):
        raise ValueError("slot index out of range")

    # orbits of the slot stabilizer; each generator is tabulated once as a
    # permutation of frame indices
    others = [y for y in range(n) if y != x]
    gens = [_slot_element(G, n, y, g) for y in others for g in range(G.order)]
    gens += [_swap(G, n, y, z) for y, z in itertools.combinations(others, 2)]
    class_of, members = perm_orbits([act_table(fs, w) for w in gens], len(fs.frames))
    classes = [m[0] for m in members]  # representative frame index per class

    # G acts on classes through the slot-x embedding g -> (delta_x g, id)
    act_rows = []
    for g in range(G.order):
        table = act_table(fs, _slot_element(G, n, x, g))
        act_rows.append(tuple(class_of[table[rep]] for rep in classes))
    quotient = GSet(G, len(classes), tuple(act_rows))
    quotient.validate()

    # evaluation at slot x is constant on classes and lands in F; composing
    # with the inverse of the canonical frame's associated map gives G x I_n
    canonical = fs.frames[0]
    to_model = associated_map_inverse(F, canonical)
    value = tuple(to_model[fs.frames[rep][x]] for rep in classes)
    model = standard_semitorsor(G, n)
    if not (is_permutation(value, model.size)
            and check_equivariant(quotient, model, identity_hom(G), value)):
        raise AssertionError("reconstruction witness failed verification")
    return Reconstruction(quotient, class_of, value)


class EquivalenceReport(Frozen):
    """Outcome of comparing group-set morphisms with frame-torsor morphisms.

    ``mismatch`` is ``(u, lift, torsor)`` for the first morphism, sending the
    base frame to ``u``, whose lift differs from its torsor twin, or None.
    """

    __slots__ = _fields = ("gset_hom_count", "torsor_hom_count", "mismatch")

    @property
    def bijective(self) -> bool:
        return self.mismatch is None

    @property
    def ok(self) -> bool:
        return self.bijective and self.gset_hom_count == self.torsor_hom_count


def _slot_element(G: FiniteGroup, n: int, x: int, g: int) -> WreathElement:
    """``g`` at slot ``x``, the identity at every other slot, no permutation."""
    tup = tuple(g if y == x else G.identity for y in range(n))
    return WreathElement(G, tup, tuple(range(n)))


def _swap(G: FiniteGroup, n: int, x: int, y: int) -> WreathElement:
    """The permutation swapping slots ``x`` and ``y``, identity group entries."""
    sigma = list(range(n))
    sigma[x], sigma[y] = y, x
    return WreathElement(G, (G.identity,) * n, tuple(sigma))


def _wreath_generators(G: FiniteGroup, n: int) -> list[WreathElement]:
    """A generating set of G wr I_n: slot-wise group elements and adjacent swaps."""
    e = G.identity
    out = [_slot_element(G, n, x, g) for x in range(n) for g in range(G.order) if g != e]
    return out + [_swap(G, n, x, x + 1) for x in range(n - 1)]


def gset_homs(F: GSet, F2: GSet) -> list[tuple[int, ...]]:
    """The value tables of all id-equivariant maps F -> F2 that are bijections on orbits.

    A map out of a free group-set is fixed by the images of one basis, and
    the orbit condition holds exactly when those images form a basis of the
    target; so the morphisms biject with the frames of F2: morphism j sends
    the base frame (frame 0 of F) to frame j of F2.
    """
    if F.group != F2.group:
        raise ValueError("morphism enumeration needs a common group")
    fs1 = enumerate_frames(F)
    fs2 = enumerate_frames(F2)
    if fs1.n != fs2.n:
        return []
    base = fs1.frames[0]
    return [frame_map(F, base, F2, t) for t in fs2.frames]


def check_equivalence(F: GSet, F2: GSet) -> EquivalenceReport:
    """Exhaustively verify that lifting to frames is fully faithful.

    The morphism sending the base frame to ``u`` must lift to its torsor
    twin, the wreath-equivariant map ``w . base -> w . u``; an equivariant map
    of torsors is fixed by the image of the base, so the twins are the torsor
    morphisms, one per distinct image.  Each lift is compared with its twin,
    one pair of tables at a time, and the first mismatch is kept.
    """
    if F.group != F2.group:
        raise ValueError("equivalence check needs a common group")
    fs1 = enumerate_frames(F)
    fs2 = enumerate_frames(F2)
    if fs1.n != fs2.n:
        return EquivalenceReport(0, 0, None)
    # bounds the entries computed: one lifted and one torsor frame index per pair
    config.check_table_entries(len(fs1.frames) * len(fs2.frames),
                               "frame-index tables of the equivalence check")

    # the torsor twins T_u: t_i -> d_i . u are wreath-equivariant: as in
    # perms.first_broken_edge, the generators suffice once they generate W,
    # that is, once the p1 make one orbit, as W acts freely and transitively.
    # Generator w moves frame i of fs1 to p1[i] and frame j of fs2 to p2[j].
    moves = [(act_table(fs1, w), act_table(fs2, w)) for w in _wreath_generators(F.group, fs1.n)]
    if any(None in p1 or None in p2 for p1, p2 in moves):
        raise AssertionError("a wreath generator moves a frame off the frame space")
    if len(perm_orbits([p1 for p1, _ in moves], len(fs1.frames))[1]) != 1:
        raise AssertionError("the wreath generators do not act transitively on frames")

    base = fs1.frames[0]
    divisions = [frame_divide(fs1, t, base) for t in fs1.frames]
    homs = gset_homs(F, F2)
    images = set()  # the image of the base, frame 0, under each torsor morphism
    mismatch = None
    for j, (u, a, torsor) in enumerate(zip(fs2.frames, homs, orbit_tables(divisions, fs2))):
        lift = lift_table(F, F2, a)
        if None in lift or None in torsor:
            raise AssertionError("a lifted or torsor morphism leaves the frame space")
        # the law on the first twin, d_{w.t_i} . u = w . (d_i . u) = (w d_i) . u,
        # gives d_{w.t_i} = w d_i by freeness, so every T_u(w.t_i) = w . T_u(t_i)
        if j == 0 and any([torsor[i] for i in p1] != [p2[i] for i in torsor]
                          for p1, p2 in moves):
            raise AssertionError("torsor morphism failed equivariance")
        images.add(torsor[0])
        if mismatch is None and lift != torsor:
            mismatch = (u, tuple(lift), tuple(torsor))
    return EquivalenceReport(len(homs), len(images), mismatch)
