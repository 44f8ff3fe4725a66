"""Flat bundles over a wedge of circles, given by their monodromy.

A flat bundle here is exactly a monodromy representation: one fiber
automorphism per loop of the wedge, stored as its permutation table of the
fiber points.  The fundamental group of a wedge of circles is free on the
loops, so any such tables define a bundle, and transport along a loop word is
the composite of the tables.  Connected components of the total space
correspond to orbits of the group generated by the clutching tables on the
fiber (the mapping-torus principle), which turns all component counting into
orbit counting.  The frame bundle is never built: :func:`frame_components`
counts its components from the one through the base frame.

:func:`flat_bundle` is the one validator, and every bundle is built through
it.  Two modes are distinguished, and a bundle reads its own off
``fiber_group``.  In ``group`` mode ``fiber_group`` is set: the fiber is that
finite group carried as a bare set and each table must be a group
automorphism.  In ``gspace`` mode it is ``None``: the fiber is a free
group-set and each table an id-equivariant bijection.  Binary operations
refuse to mix modes.
"""

from __future__ import annotations

import itertools
import math
from typing import Mapping, Optional

from . import config
from .errors import ModeMismatch, NotFaithful, NotFree, Obstruction, TooSmall
from .frames import WreathElement, enumerate_frames, frame_divide, wreath_to_aut
from .groups import FiniteGroup, check_hom, identity_hom
from .gsets import (
    Frame,
    GSet,
    check_equivariant,
    equivariant_map,
    induced_orbit_map,
    is_free,
    is_orbit_bijection,
    standard_semitorsor,
    trivial_gset,
)
from .perms import (
    Permutation,
    first_broken_edge,
    is_permutation,
    perm_compose,
    perm_inverse,
    perm_orbits,
    validate_word,
)
from .records import Frozen

MODE_GROUP = "group"
MODE_GSPACE = "gspace"


class FlatBundle(Frozen):
    """Monodromy of a flat bundle over a wedge of circles: ``clutching[i]`` is
    the permutation table of the fiber that loop ``i + 1`` carries."""

    __slots__ = _fields = ("fiber", "clutching", "fiber_group")

    @property
    def loops(self) -> int:
        return len(self.clutching)

    @property
    def mode(self) -> str:
        return MODE_GSPACE if self.fiber_group is None else MODE_GROUP

    def __repr__(self) -> str:
        return f"FlatBundle(mode={self.mode}, loops={self.loops}, fiber={self.fiber!r})"


def flat_bundle(fiber: GSet, tables, fiber_group: Optional[FiniteGroup] = None) -> FlatBundle:
    """Validate clutching tables and assemble the bundle; a group-mode bundle
    names its ``fiber_group``.

    Group mode first checks each table as an automorphism of ``fiber_group``.
    Every table must then be a permutation of the fiber that commutes with its
    action.
    """
    clutching = tuple(tuple(t) for t in tables)
    if not clutching:
        raise ValueError("a bundle over a wedge needs at least one loop")
    if fiber.size == 0:
        raise ValueError("the fiber has no points")
    if fiber_group is not None:
        if fiber.group.order != 1 or fiber.size != fiber_group.order:
            raise ValueError("group-mode fiber must be the group as a bare set")
        for t in clutching:
            check_hom(fiber_group, fiber_group, t)
            if len(set(t)) != fiber.size:
                raise ValueError("group bundles are glued by automorphisms only")
    for i, t in enumerate(clutching):
        if not is_permutation(t, fiber.size):
            raise ValueError(f"clutching {i} is not a bijection")
        # vacuous in group mode, whose fiber group is trivial
        if not check_equivariant(fiber, fiber, identity_hom(fiber.group), t):
            raise ValueError(f"clutching {i} is not equivariant")
    return FlatBundle(fiber, clutching, fiber_group)


def components(b: FlatBundle) -> tuple[tuple[int, ...], ...]:
    """Orbits of the group generated by the clutching tables on the fiber."""
    return perm_orbits(b.clutching, b.fiber.size)[1]


def total_components(b: FlatBundle) -> int:
    return len(components(b))


def bundle_isomorphic(b1: FlatBundle, b2: FlatBundle) -> bool:
    """Simultaneous conjugacy of the monodromies by one mode-respecting symmetry
    of the fiber: an automorphism of the group or of the group-set.

    Only the tests call it, so its listings load here, not with the module."""
    from .frame_tables import gset_homs
    from .groups import automorphisms

    if b1.mode != b2.mode:
        raise ModeMismatch("cannot compare bundles of different modes")
    if (b1.fiber, b1.fiber_group, b1.loops) != (b2.fiber, b2.fiber_group, b2.loops):
        return False
    symmetries = (automorphisms(b1.fiber_group) if b1.mode == MODE_GROUP
                  else gset_homs(b1.fiber, b1.fiber))
    for c in symmetries:
        c_inv = perm_inverse(c)
        if all(
            perm_compose(c, perm_compose(t1, c_inv)) == t2
            for t1, t2 in zip(b1.clutching, b2.clutching)
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
    sheets = trivial_gset(len(b.fiber.orbit_partition.members))
    return flat_bundle(sheets, [induced_orbit_map(b.fiber, b.fiber, t) for t in b.clutching])


def principal_fiber(b: FlatBundle) -> int:
    """|G|, counted by :func:`map_fiber_count` on the orbit projection B -> B/G,
    which is equivariant over the homomorphism collapsing G to the trivial group."""
    if b.mode != MODE_GSPACE:
        raise ModeMismatch("quotient map applies to group-space bundles")
    if not is_free(b.fiber):
        raise NotFree("decomposition is defined for free fibers")
    q = b.fiber.orbit_partition
    target = trivial_gset(len(q.members))
    collapse = (target.group.identity,) * b.fiber.group.order
    return map_fiber_count(b.fiber, target, collapse, q.orbit_of)


def finite_winding_bundle(G: FiniteGroup, k: int) -> FlatBundle:
    """The k-sheet winding bundle: one loop cycling the sheets of G x I_k."""
    F = standard_semitorsor(G, k)
    cycle = tuple((i + 1) % k for i in range(k))
    w = WreathElement(G, (G.identity,) * k, cycle)
    return flat_bundle(F, (wreath_to_aut(w),))


def frame_components(b: FlatBundle) -> int:
    """Components of the frame bundle: |frames| / |C|, C the one through frame 0.

    Each clutching map ``a`` lifts to the frames slot by slot, t -> a . t, and
    only C, the orbit of the base frame under the lifts, is walked.  As ``a``
    is equivariant, the lifts commute with the wreath product W, and W is
    transitive, so it maps C onto every component: all have |C| frames.  As W
    is free, w -> w . base identifies it with the frames, on which the lift
    of ``a`` is right multiplication by d_a = (a . base) / base, so C is
    H . base for H the group of the kept d_a.  A loop with a . base in C has
    d_a in H and is skipped.  A kept loop at least doubles H (Lagrange), so at
    most log2 |frames| loops are kept, and each walks C again with every lift.
    """
    frames = enumerate_frames(b.fiber).frames
    component, seen, lifts = [frames[0]], {frames[0]}, []
    for a in b.clutching:
        if tuple(a[p] for p in frames[0]) not in seen:
            lifts.append(a.__getitem__)
            for t in component:  # also walks the frames appended meanwhile
                for lift in lifts:
                    if (u := tuple(map(lift, t))) not in seen:
                        seen.add(u)
                        component.append(u)
    return len(frames) // len(component)


def clutching_wreath(b: FlatBundle, reference: Frame) -> list[WreathElement]:
    """Express each clutching map in the wreath product, relative to a frame.

    Element i divides the transported reference frame by the reference;
    changing the reference conjugates every element simultaneously.
    """
    fs = enumerate_frames(b.fiber)
    if reference not in fs.index:
        raise ValueError("reference tuple is not a basis of the fiber")
    return [frame_divide(fs, tuple(t[p] for p in reference), reference) for t in b.clutching]


def holonomy(b: FlatBundle, word) -> tuple[int, ...]:
    """Monodromy of a loop word as a permutation table: the first letter is
    applied first.

    In composition notation the result is psi_{e_r} . ... . psi_{e_1}, so
    holonomy(u + v) = holonomy(v) after holonomy(u).  Each loop read
    backwards is inverted once, however often its letter occurs.
    """
    w = validate_word(b.loops, word)
    tables = dict(enumerate(b.clutching, 1))
    for letter in set(w):
        if letter < 0:
            tables[letter] = perm_inverse(tables[-letter])
    table = range(b.fiber.size)
    for letter in w:
        value = tables[letter]
        table = [value[p] for p in table]
    return tuple(table)


def map_fiber_count(source: GSet, target: GSet, xi, value) -> int:
    """Common preimage size of a surjective, orbit-bijective map of free group-sets.

    ``value`` maps ``source`` to ``target`` over the homomorphism with image
    table ``xi``.  The preimage of y lies in one orbit, of f say, and g . f
    goes to xi(g) . value(f), which is y for the g of one coset of ker(xi) as
    the target is free (non-empty as the map is onto), giving distinct points
    as the source is free; so |ker(xi)| is returned.
    """
    if set(value) != set(range(target.size)):
        raise ValueError("map is not surjective")
    if not is_orbit_bijection(source, target, value):
        raise ValueError("map is not a bijection on orbits")
    equivariant_map(source, target, xi, value)
    if not (is_free(source) and is_free(target)):
        raise NotFree("preimages are counted between free group-sets only")
    return xi.count(target.group.identity)


def sn_labelling(n: int, action: Mapping[Permutation, tuple]) -> tuple[int, ...]:
    """Recover the unique equivariant labelling A -> I_n from a faithful action.

    ``action`` maps each permutation of I_n to its image table on the n-set
    A = {0..n-1}.  When the action is conjugate to the natural one and
    n >= 3, the stabilizer of i fixes exactly one point a_i, and i -> a_i is
    the only equivariant bijection; the returned table is its inverse
    (point -> label).  A faithful action need not be conjugate to the natural
    one: at n = 6, S_6's outer automorphism gives one in which the
    stabilizer of i fixes no point, and that action, with no equivariant
    labelling, is refused with :class:`Obstruction`.

    The homomorphism law is proved on the edges of the generators (0 1) and
    (0 1 ... n-1) of S_n, and equivariance then needs no check of its own: for
    s in Stab(sigma(i)), sigma^-1 s sigma lies in Stab(i) and fixes a_i, so by
    the homomorphism law s fixes sigma . a_i, and as a_{sigma(i)} is the one
    point that Stab(sigma(i)) fixes, sigma . a_i = a_{sigma(i)}.  The
    labelling is a bijection: were a point fixed by Stab(i) and Stab(j), i != j,
    <Stab(i), Stab(j)> = S_n would fix it and act faithfully on n - 1 points.
    """
    if n < 3:
        raise TooSmall("labelling is canonical only for n >= 3")
    config.check_enumeration(math.factorial(n), "permutations")
    perms = list(itertools.permutations(range(n)))
    if set(action.keys()) != set(perms):
        raise ValueError("action table must cover the whole symmetric group")
    identity = tuple(range(n))
    images = [tuple(action[s]) for s in perms]
    for s, value in zip(perms, images):
        if not is_permutation(value, n):
            raise ValueError(f"action of {s} is not a bijection of the n-set")
        if s != identity and value == identity:
            raise NotFaithful(f"permutation {s} acts trivially")
    index = {s: i for i, s in enumerate(perms)}
    gens = [(1, 0) + identity[2:], identity[1:] + (0,)]
    moves = [[index[perm_compose(s, t)] for s in perms] for t in gens]
    if first_broken_edge(images, perm_compose, index[identity], [index[t] for t in gens],
                         moves) is not None:
        raise ValueError("action table is not a homomorphism")

    labelling = [-1] * n
    for i in range(n):
        stab = [s for s in perms if s[i] == i]
        fixed = [
            a for a in range(n) if all(action[s][a] == a for s in stab)
        ]
        if len(fixed) != 1:
            raise Obstruction(f"stabilizer of {i} does not fix a unique point")
        labelling[fixed[0]] = i
    return tuple(labelling)


class SnActionReport(Frozen):
    """Either a coherent global symmetric action or the named obstruction.

    On success the action is the natural one of S_n on every fiber, which
    ``n`` fixes, and both obstruction fields are ``None``.
    """

    __slots__ = _fields = ("ok", "n", "obstruction_generator", "obstruction_permutation")


def sn_action_on_bundle(b: FlatBundle) -> SnActionReport:
    """Construct a fiber-preserving faithful symmetric action, or refuse.

    A global action must commute with every clutching permutation; since the
    centralizer of the full symmetric group on >= 3 points is trivial, such
    an action exists exactly when the covering is trivial.  On success it is
    the natural action through the global labelling, the same on every
    fiber; otherwise the first non-identity clutching generator is named as
    the obstruction.
    """
    if b.mode != MODE_GSPACE or b.fiber.group.order != 1:
        raise ModeMismatch("symmetric actions are assessed on covering-mode bundles")
    n = b.fiber.size
    if n < 3:
        raise TooSmall("the labelling argument needs fibers of size >= 3")
    ident = tuple(range(n))
    for i, t in enumerate(b.clutching):
        if t != ident:
            return SnActionReport(False, n, i + 1, t)
    return SnActionReport(True, n, None, None)
