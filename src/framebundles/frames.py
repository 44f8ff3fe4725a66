"""Bases (frames) of free group-sets and the wreath-product symmetry.

A frame of a free group-set ``F`` with ``n`` orbits is a tuple
``t = (t[0], ..., t[n-1])`` of carrier points whose orbit assignment
``x -> orbit_of(t[x])`` is a bijection.  The collection of all frames is a
torsor under the wreath product ``G wr I_n = G^n x| Sym(n)``, acting by

    ((g, s) . t)[x] = g[x] . t[s^-1(x)]

with multiplication ``(g, s)(g', s') = (x -> g[x] g'[s^-1(x)], s s')``.  The
``s^-1`` in the action formula is the convention everything else here hinges
on; it is computed once per element from the stored forward image table.

Like a linear map by a basis, an equivariant map out of a free group-set is
fixed by the image ``t`` of a frame ``f``: each point is ``g . f[x]`` for one
``(g, x)``, so equivariance forces :func:`frame_map`, ``g . f[x] -> g . t[x]``.

The frame space of a group-set is computed once, by
:attr:`~framebundles.gsets.GSet.frame_space`, and read here through
:func:`enumerate_frames`.

A map on a whole frame space is tabulated by one kernel, :func:`frame_table`:
slot ``x`` of the image of ``t`` is ``rows[x][t[src[x]]]``, computed one slot
at a time over the space's cached columns (one ``itemgetter`` call per slot)
and joined with ``zip``, and each image tuple is looked up in the target's
index (None where it is not a frame).  A wreath element is
``rows = [act[g] for g in g_tuple]`` with ``src = s^-1`` (:func:`act_table`);
the frame lift of a map with value table ``value`` is ``rows = [value] * n``
with ``src`` the identity (:func:`lift_table`).  :func:`orbit_tables` gives,
for each frame ``t``, the images of ``t`` under a list of wreath elements,
the same kernel read over the elements' keys.  :func:`wreath_act` moves a
single frame.

:func:`check_equivalence` tabulates each generator ``w`` once, as the
permutations ``p1``, ``p2`` of frame indices with ``w . fs1[i] = fs1[p1[i]]``
and likewise on ``fs2``.  Its test ``table[p1[i]] == p2[table[i]]`` is then
the same comparison as ``table[index(w . fs1[i])] == index(w . fs2[table[i]])``,
made for every table, generator and frame.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from operator import itemgetter

from . import config
from .errors import NotFree, OrbitObstruction
from .groups import (
    FiniteGroup,
    Permutation,
    identity_hom,
    is_permutation,
    perm_compose,
    perm_inverse,
    perm_orbits,
)
from .gsets import (
    Frame,
    FrameSpace,
    GSet,
    check_equivariant,
    is_free,
    is_orbit_bijection,
    semitorsor_point,
    standard_semitorsor,
)
from .records import Frozen


class WreathElement(Frozen):
    """An element (g_tuple, sigma) of G wr I_n.

    ``sigma`` is a forward image table and ``g_tuple`` holds element indices
    of the base group, which is carried along so products can be validated;
    the constructor checks both.
    """

    _fields = ("group", "g_tuple", "sigma")

    def __init__(self, group: FiniteGroup, g_tuple: tuple[int, ...], sigma: Permutation):
        if any(not (0 <= g < group.order) for g in g_tuple):
            raise ValueError(f"group entries must lie in 0..{group.order - 1}")
        if not is_permutation(sigma, len(sigma)):
            raise ValueError(f"perm is not a permutation of 0..{len(sigma) - 1}")
        if len(g_tuple) != len(sigma):
            raise ValueError(f"{len(g_tuple)} group entries for a permutation of {len(sigma)} slots")
        super().__init__(group, g_tuple, sigma)

    @property
    def n(self) -> int:
        return len(self.sigma)

    @cached_property
    def sigma_inv(self) -> Permutation:
        return perm_inverse(self.sigma)

    def __hash__(self) -> int:
        # equal elements have equal tuples; hashing the base group's table
        # on every lookup would cost more than the wreath product itself
        return hash((self.g_tuple, self.sigma))

    def __repr__(self) -> str:
        return f"WreathElement(g={self.g_tuple}, sigma={self.sigma})"


def wreath_identity(G: FiniteGroup, n: int) -> WreathElement:
    return WreathElement(G, (G.identity,) * n, tuple(range(n)))


def _check_same_wreath(a: WreathElement, b: WreathElement) -> None:
    if (a.group is not b.group and a.group != b.group) or a.n != b.n:
        raise ValueError("wreath elements live in different wreath products")


def wreath_mul(a: WreathElement, b: WreathElement) -> WreathElement:
    """(g, s)(g', s') = (x -> g[x] g'[s^-1(x)], s s')."""
    _check_same_wreath(a, b)
    s_inv = a.sigma_inv
    mul = a.group.mul
    g = tuple(mul[a.g_tuple[x]][b.g_tuple[s_inv[x]]] for x in range(a.n))
    return WreathElement(a.group, g, perm_compose(a.sigma, b.sigma))


def wreath_inv(a: WreathElement) -> WreathElement:
    inv = a.group.inv
    # (g, s)^-1 = (x -> g[s(x)]^-1, s^-1)
    g = tuple(inv[a.g_tuple[a.sigma[x]]] for x in range(a.n))
    return WreathElement(a.group, g, a.sigma_inv)


def wreath_act(F: GSet, w: WreathElement, t: Frame) -> Frame:
    """Apply (g, s) to a tuple of carrier points: slot x gets g[x] . t[s^-1(x)]."""
    s_inv = w.sigma_inv
    if len(t) != len(s_inv):
        raise ValueError("tuple length does not match the wreath element")
    act = F.act
    g = w.g_tuple
    return tuple([act[g[x]][t[y]] for x, y in enumerate(s_inv)])


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
    """Entry i is the index of ``w . fs.frames[i]`` (:func:`wreath_act`)."""
    if w.n != fs.n:
        raise ValueError("tuple length does not match the wreath element")
    act = fs.base_gset.act
    return frame_table(fs.columns, [act[g] for g in w.g_tuple], w.sigma_inv, fs.index)


def orbit_tables(ws: list[WreathElement], fs: FrameSpace):
    """For each frame ``t`` of ``fs`` in turn, the list whose entry i is the
    index of ``ws[i] . t`` (:func:`wreath_act`), or None off the space.

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


def is_basis(F: GSet, t: Frame) -> bool:
    """Basis criterion: the orbit assignment of the tuple is a bijection."""
    if not is_free(F):
        raise NotFree("bases are defined for free group-sets only")
    q = F.orbit_partition
    n = len(q.members)
    if len(t) != n or any(not 0 <= p < F.size for p in t):
        return False
    return len({q.orbit_of[p] for p in t}) == n


def frame_map(F: GSet, f: Frame, F2: GSet, t: Frame) -> tuple[int, ...]:
    """The value table of the id-equivariant map ``F -> F2`` with ``g . f[x] -> g . t[x]``.

    For a basis ``f`` of ``F``, each point is ``g . f[x]`` for one ``(g, x)``
    (well defined), ``h . (g . f[x]) = (hg) . f[x]`` goes to ``h . (g .
    t[x])`` (equivariant), and equivariance forces every value (unique); into
    a free ``F2`` it is injective iff the ``t[x]`` lie in distinct orbits and
    onto iff they meet every orbit, so bijective exactly when ``t`` is a basis.
    """
    value = [0] * F.size
    for row, row2 in zip(F.act, F2.act):
        for p, p2 in zip(f, t):
            value[row[p]] = row2[p2]
    return tuple(value)


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


def enumerate_frames(F: GSet) -> FrameSpace:
    """Every basis tuple of a free group-set, enumerated once per group-set."""
    if not is_free(F):
        raise NotFree("frame spaces exist for free group-sets only")
    return F.frame_space


def frame_divide(fs: FrameSpace, f2: Frame, f1: Frame) -> WreathElement:
    """The unique wreath element w with w . f1 = f2.

    The permutation part is s = (q f2)^-1 (q f1); the group part divides
    slot-wise: g[x] = f2[x] / f1[s^-1(x)].
    """
    if f1 not in fs.index or f2 not in fs.index:
        raise ValueError("frames do not belong to this frame space")
    q = fs.base_gset.orbit_partition.orbit_of
    q1 = tuple(q[p] for p in f1)
    q2 = tuple(q[p] for p in f2)
    sigma = perm_compose(perm_inverse(q2), q1)
    s_inv = perm_inverse(sigma)
    div = fs.base_gset.division
    g = tuple(div[(f2[x], f1[s_inv[x]])] for x in range(fs.n))
    return WreathElement(fs.base_gset.group, g, sigma)


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

    ``collision`` is the lift of the first morphism whose lift another
    morphism shares, and ``unmatched`` the least table that only one of the
    lifts and the torsor morphisms has; each is None when there is none.
    """

    __slots__ = _fields = ("gset_hom_count", "torsor_hom_count", "collision", "unmatched")

    @property
    def bijective(self) -> bool:
        return self.collision is None and self.unmatched is None

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
    target; so the morphisms biject with the frames of F2.
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

    Enumerates the id-equivariant orbit-bijective morphisms F -> F2 and the
    wreath-equivariant maps between the frame torsors, applies the frame lift
    to each morphism, and checks the lift is a bijection between the two sets.
    """
    if F.group != F2.group:
        raise ValueError("equivalence check needs a common group")
    fs1 = enumerate_frames(F)
    fs2 = enumerate_frames(F2)
    if fs1.n != fs2.n:
        return EquivalenceReport(0, 0, None, None)
    # the lifted and the torsor tables each hold one frame index per pair
    config.check_table_entries(len(fs1.frames) * len(fs2.frames),
                               "frame-index tables of the equivalence check")

    homs = gset_homs(F, F2)
    lifts = [tuple(lift_table(F, F2, a)) for a in homs]
    lifted = set(lifts)

    # torsor morphisms: each is w . base -> w . target, one per target
    base = fs1.frames[0]
    divisions = [frame_divide(fs1, t, base) for t in fs1.frames]
    torsor_tables = {tuple(table) for table in orbit_tables(divisions, fs2)}
    if any(None in table for table in lifted | torsor_tables):
        raise AssertionError("a lifted or torsor morphism leaves the frame space")

    # each constructed table really is wreath-equivariant: as in
    # groups.first_broken_edge, the generators suffice once they generate W,
    # that is, once the p1 make one orbit, as W acts freely and transitively.
    # Generator w moves frame i of fs1 to p1[i] and frame j of fs2 to p2[j].
    moves = [(act_table(fs1, w), act_table(fs2, w)) for w in _wreath_generators(F.group, fs1.n)]
    if any(None in p1 or None in p2 for p1, p2 in moves):
        raise AssertionError("a wreath generator moves a frame off the frame space")
    if len(perm_orbits([p1 for p1, _ in moves], len(fs1.frames))[1]) != 1:
        raise AssertionError("the wreath generators do not act transitively on frames")
    # _getter(p1)(table) lists table[p1[i]]
    moves = [(_getter(p1), p2) for p1, p2 in moves]
    for table in torsor_tables:
        through = _getter(table)
        for after_p1, p2 in moves:
            if after_p1(table) != through(p2):
                raise AssertionError("torsor morphism failed equivariance")

    collision = None
    if len(lifted) < len(homs):  # the lift of the first morphism whose lift is shared
        collision = next(t for t in lifts if lifts.count(t) > 1)
    return EquivalenceReport(
        gset_hom_count=len(homs),
        torsor_hom_count=len(torsor_tables),
        collision=collision,
        unmatched=min(lifted ^ torsor_tables, default=None),
    )
