"""Flat bundles over a wedge of circles, given by clutching automorphisms.

A flat bundle here is exactly a monodromy representation: one fiber
automorphism per loop of the wedge.  Connected components of the total space
correspond to orbits of the group generated by the clutching maps on the
fiber (the mapping-torus principle), which turns all component counting into
orbit counting.

Two modes are distinguished.  In ``group`` mode the fiber is a finite group
carried as a bare set and clutching maps must be group automorphisms; in
``gspace`` mode the fiber is a free group-set and clutching maps are
id-equivariant bijections.  Binary operations refuse to mix modes.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Mapping, Optional

from . import config
from .errors import ModeMismatch, NotFaithful, NotFree, TooSmall
from .frames import (
    Frame,
    WreathElement,
    enumerate_frames,
    frame_divide,
    frame_functor_map,
    gset_homs,
)
from .groups import (
    FiniteGroup,
    GroupHom,
    Permutation,
    automorphisms,
    is_isomorphism,
    is_permutation,
    kernel,
    perm_compose,
    perm_inverse,
    perm_orbits,
    validate_word,
)
from .gset_aut import wreath_to_aut
from .gsets import (
    EquivariantMap,
    GSet,
    check_equivariant,
    identity_hom,
    induced_orbit_map,
    is_free,
    is_orbit_bijection,
    orbits,
    standard_semitorsor,
    trivial_gset,
)
from .records import Frozen

MODE_GROUP = "group"
MODE_GSPACE = "gspace"


class FlatBundle(Frozen):
    """Monodromy data of a flat bundle over a wedge of ``loops`` circles."""

    __slots__ = _fields = ("fiber", "loops", "clutching", "mode", "fiber_group")

    def __init__(self, fiber: GSet, loops: int, clutching: tuple[EquivariantMap, ...], mode: str,
                 fiber_group: Optional[FiniteGroup] = None):
        object.__setattr__(self, "fiber", fiber)
        object.__setattr__(self, "loops", loops)
        object.__setattr__(self, "clutching", clutching)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "fiber_group", fiber_group)

    def __repr__(self) -> str:
        return f"FlatBundle(mode={self.mode}, loops={self.loops}, fiber={self.fiber!r})"


def flat_bundle(
    fiber: GSet,
    clutching,
    mode: str = MODE_GSPACE,
    fiber_group: Optional[FiniteGroup] = None,
) -> FlatBundle:
    """Assemble and validate a flat bundle from clutching maps."""
    maps = tuple(clutching)
    if not maps:
        raise ValueError("a bundle over a wedge needs at least one loop")
    if fiber.size == 0:
        raise ValueError("the fiber has no points")
    if mode not in (MODE_GROUP, MODE_GSPACE):
        raise ValueError(f"unknown bundle mode {mode!r}")
    ident = tuple(range(fiber.group.order))
    for i, a in enumerate(maps):
        if a.source != fiber or a.target != fiber:
            raise ValueError(f"clutching {i} is not a self-map of the fiber")
        if a.xi.image != ident:
            raise ValueError(f"clutching {i} is not id-equivariant")
        if not a.is_bijective():
            raise ValueError(f"clutching {i} is not a bijection")
        # vacuous in group mode, whose fiber group is trivial
        if not check_equivariant(a):
            raise ValueError(f"clutching {i} is not equivariant")
    if mode == MODE_GROUP:
        if fiber_group is None:
            raise ValueError("group mode needs the underlying group")
        if fiber.group.order != 1 or fiber.size != fiber_group.order:
            raise ValueError("group-mode fiber must be the group as a bare set")
        for i, a in enumerate(maps):
            GroupHom(fiber_group, fiber_group, a.value).validate()
    elif fiber_group is not None:
        raise ValueError("fiber_group is only meaningful in group mode")
    return FlatBundle(fiber, len(maps), maps, mode, fiber_group)


def group_bundle_over_circle(G: FiniteGroup, a: GroupHom) -> FlatBundle:
    """Glue the trivial group bundle over an interval by an automorphism of G."""
    if a.source != G or a.target != G:
        raise ValueError("clutching homomorphism is not an endomorphism of G")
    a.validate()
    if not is_isomorphism(a):
        raise ValueError("group bundles are glued by automorphisms only")
    fiber = trivial_gset(G.order)
    clutch = EquivariantMap(fiber, fiber, identity_hom(fiber.group), a.image)
    return flat_bundle(fiber, (clutch,), mode=MODE_GROUP, fiber_group=G)


def components(b: FlatBundle) -> tuple[tuple[int, ...], ...]:
    """Orbits of the group generated by the clutching maps on the fiber."""
    return perm_orbits([a.value for a in b.clutching], b.fiber.size)[1]


def total_components(b: FlatBundle) -> int:
    return len(components(b))


def unit_component_is_circle(b: FlatBundle) -> bool:
    """Whether the identity element's component is a single circle.

    Group-mode only: true exactly when every clutching map fixes the unit,
    which automorphisms always do, so the unit section traces out one copy of
    the base circle.
    """
    if b.mode != MODE_GROUP:
        raise ModeMismatch("unit sections exist in group mode only")
    e = b.fiber_group.identity
    return all(a.value[e] == e for a in b.clutching)


def is_trivializable(b: FlatBundle) -> bool:
    """True exactly when every clutching map is the identity.

    Simultaneous conjugation fixes the identity tuple, so a bundle is
    isomorphic to the trivial one only if it already is trivial.
    """
    ident = tuple(range(b.fiber.size))
    return all(a.value == ident for a in b.clutching)


def _conjugators(b: FlatBundle) -> list[tuple[int, ...]]:
    """Fiber symmetries respecting the bundle mode, as value tables."""
    if b.mode == MODE_GROUP:
        return [h.image for h in automorphisms(b.fiber_group)]
    return [a.value for a in gset_homs(b.fiber, b.fiber)]


def bundle_isomorphic(b1: FlatBundle, b2: FlatBundle) -> bool:
    """Simultaneous conjugacy of the monodromies by one mode-respecting symmetry."""
    if b1.mode != b2.mode:
        raise ModeMismatch("cannot compare bundles of different modes")
    if b1.fiber != b2.fiber or b1.fiber_group != b2.fiber_group:
        return False
    if b1.loops != b2.loops:
        return False
    for c in _conjugators(b1):
        c_inv = perm_inverse(c)
        if all(
            perm_compose(c, perm_compose(a1.value, c_inv)) == a2.value
            for a1, a2 in zip(b1.clutching, b2.clutching)
        ):
            return True
    return False


def quotient_bundle(b: FlatBundle) -> FlatBundle:
    """Collapse each fiber to its orbit set, keeping the induced permutations.

    The result is the covering-space part of the bundle; together with the
    principal part (the orbits themselves) it decomposes the original
    projection.
    """
    if b.mode != MODE_GSPACE:
        raise ModeMismatch("quotient_bundle applies to group-space bundles")
    if not is_free(b.fiber):
        raise NotFree("decomposition is defined for free fibers")
    q = orbits(b.fiber)
    new_fiber = trivial_gset(q.orbit_count)
    xi = identity_hom(new_fiber.group)
    clutch = tuple(
        EquivariantMap(new_fiber, new_fiber, xi, induced_orbit_map(a)) for a in b.clutching
    )
    return flat_bundle(new_fiber, clutch, mode=MODE_GSPACE)


def quotient_map(b: FlatBundle) -> EquivariantMap:
    """The fiberwise orbit projection B -> B/G over the trivial group."""
    if b.mode != MODE_GSPACE:
        raise ModeMismatch("quotient map applies to group-space bundles")
    q = orbits(b.fiber)
    target = trivial_gset(q.orbit_count)
    collapse = GroupHom(b.fiber.group, target.group, (0,) * b.fiber.group.order)
    return EquivariantMap(b.fiber, target, collapse, q.orbit_of)


def finite_winding_bundle(G: FiniteGroup, k: int) -> FlatBundle:
    """The k-sheet winding bundle: one loop cycling the sheets of G x I_k."""
    if k < 1:
        raise ValueError("winding number must be >= 1")
    F = standard_semitorsor(G, k)
    cycle = tuple((i + 1) % k for i in range(k))
    w = WreathElement(G, (G.identity,) * k, cycle)
    return flat_bundle(F, (wreath_to_aut(w, F),), mode=MODE_GSPACE)


def frame_bundle(b: FlatBundle) -> FlatBundle:
    """The bundle of fiber frames: each clutching map lifted to frame indices.

    Clutching maps lift entrywise (slot order is global bookkeeping and never
    permuted by the lift), and the fiber is the frames as a bare set.  The
    wreath product acts freely and transitively on it (:func:`wreath_act`,
    checked by the ``torsor`` suite), and that action commutes with every
    lift, so this is the principal bundle of frames; no caller reads the fiber
    as a set of the wreath product, so its Cayley table is never built.
    """
    if not is_free(b.fiber):
        raise NotFree("frame bundles exist over free fibers")
    fs = enumerate_frames(b.fiber)
    fiber = trivial_gset(len(fs.frames))
    xi = identity_hom(fiber.group)
    clutch = []
    for a in b.clutching:
        lift = frame_functor_map(a)
        table = tuple(fs.index[lift(t)] for t in fs.frames)
        clutch.append(EquivariantMap(fiber, fiber, xi, table))
    return flat_bundle(fiber, tuple(clutch), mode=MODE_GSPACE)


def clutching_wreath(b: FlatBundle, reference: Frame) -> list[WreathElement]:
    """Express each clutching map in the wreath product, relative to a frame.

    Element i divides the transported reference frame by the reference;
    changing the reference conjugates every element simultaneously.
    """
    fs = enumerate_frames(b.fiber)
    if reference not in fs.index:
        raise ValueError("reference tuple is not a basis of the fiber")
    out = []
    for a in b.clutching:
        moved = tuple(a.value[p] for p in reference)
        out.append(frame_divide(fs, moved, reference))
    return out


def canonical_frame(b: FlatBundle) -> Frame:
    """The lexicographically smallest basis of the fiber."""
    return enumerate_frames(b.fiber).frames[0]


def holonomy(b: FlatBundle, word) -> EquivariantMap:
    """Monodromy of a loop word: the first letter is applied first.

    In composition notation the result is psi_{e_r} . ... . psi_{e_1}, so
    holonomy(u + v) = holonomy(v) after holonomy(u).
    """
    w = validate_word(b.loops, word)
    table = list(range(b.fiber.size))
    for letter in w:
        value = b.clutching[abs(letter) - 1].value
        if letter < 0:
            value = perm_inverse(value)
        table = [value[p] for p in table]
    return EquivariantMap(
        b.fiber, b.fiber, identity_hom(b.fiber.group), tuple(table)
    )


def map_fiber_count(a: EquivariantMap) -> int:
    """Common preimage size of a surjective, orbit-bijective bundle-fiber map.

    Every preimage has exactly |ker(xi)| points, which is returned.
    """
    if set(a.value) != set(range(a.target.size)):
        raise ValueError("map is not surjective")
    if not is_orbit_bijection(a):
        raise ValueError("map is not a bijection on orbits")
    sizes = set(Counter(a.value).values())
    expected = len(kernel(a.xi))
    if sizes != {expected}:
        raise AssertionError(
            f"preimage sizes {sizes} do not all equal |ker| = {expected}"
        )
    return expected


def sn_labelling(n: int, action: Mapping[Permutation, tuple]) -> tuple[int, ...]:
    """Recover the unique equivariant labelling A -> I_n from a faithful action.

    ``action`` maps each permutation of I_n to its image table on the n-set
    A = {0..n-1}.  For n >= 3 the point fixed by the stabilizer of i is
    unique, and i -> a_i is the only equivariant bijection; the returned
    table is its inverse (point -> label).
    """
    if n < 3:
        raise TooSmall("labelling is canonical only for n >= 3")
    config.check_enumeration(math.factorial(n), "permutations")
    perms = list(itertools.permutations(range(n)))
    if set(action.keys()) != set(perms):
        raise ValueError("action table must cover the whole symmetric group")
    identity = tuple(range(n))
    for s in perms:
        value = tuple(action[s])
        if not is_permutation(value, n):
            raise ValueError(f"action of {s} is not a bijection of the n-set")
        if s != identity and value == identity:
            raise NotFaithful(f"permutation {s} acts trivially")
    for s in perms:
        for t in perms:
            if tuple(action[perm_compose(s, t)]) != perm_compose(action[s], action[t]):
                raise ValueError("action table is not a homomorphism")

    labelling = [-1] * n
    for i in range(n):
        stab = [s for s in perms if s[i] == i]
        fixed = [
            a for a in range(n) if all(action[s][a] == a for s in stab)
        ]
        if len(fixed) != 1:
            raise NotFaithful(f"stabilizer of {i} does not fix a unique point")
        labelling[fixed[0]] = i
    if not is_permutation(labelling, n):
        raise NotFaithful("labelling is not a bijection")
    # equivariance: sigma . a_i = a_{sigma(i)}
    inverse = perm_inverse(labelling)
    for s in perms:
        for i in range(n):
            if action[s][inverse[i]] != inverse[s[i]]:
                raise AssertionError("labelling failed the equivariance check")
    return tuple(labelling)


class SnActionReport:
    """Either a coherent global symmetric action or the named obstruction."""

    __slots__ = ("ok", "n", "action", "obstruction_generator", "obstruction_permutation")

    def __init__(self, ok: bool, n: int,
                 action: Optional[dict[Permutation, tuple[int, ...]]] = None,
                 obstruction_generator: Optional[int] = None,
                 obstruction_permutation: Optional[tuple[int, ...]] = None):
        self.ok = ok
        self.n = n
        self.action = action
        self.obstruction_generator = obstruction_generator
        self.obstruction_permutation = obstruction_permutation


def sn_action_on_bundle(b: FlatBundle) -> SnActionReport:
    """Construct a fiber-preserving faithful symmetric action, or refuse.

    A global action must commute with every clutching permutation; since the
    centralizer of the full symmetric group on >= 3 points is trivial, such
    an action exists exactly when the covering is trivial.  On success the
    natural action through the global labelling is returned (the same table
    on every fiber); otherwise the first non-identity clutching generator is
    named as the obstruction.
    """
    if b.mode != MODE_GSPACE or b.fiber.group.order != 1:
        raise ModeMismatch("symmetric actions are assessed on covering-mode bundles")
    n = b.fiber.size
    if n < 3:
        raise TooSmall("the labelling argument needs fibers of size >= 3")
    ident = tuple(range(n))
    for i, a in enumerate(b.clutching):
        if a.value != ident:
            return SnActionReport(
                ok=False,
                n=n,
                obstruction_generator=i + 1,
                obstruction_permutation=a.value,
            )
    config.check_enumeration(math.factorial(n), "permutations")
    action = {s: s for s in itertools.permutations(range(n))}
    return SnActionReport(ok=True, n=n, action=action)
