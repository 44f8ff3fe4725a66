"""Finite left group-sets: actions, orbits, freeness, division, frames, equivariant maps.

A group-set is a carrier ``0 .. size-1`` with an action table ``act[g][f]``.
The orbit partition is canonical: orbit indices are assigned in order of the
smallest carrier representative, so quotient data is reproducible.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

from . import config
from .errors import NoQuotient, NotFree
from .groups import FiniteGroup, GroupHom, compose_hom, identity_hom, make_cyclic, perm_orbits
from .records import Frozen

Frame = tuple[int, ...]


class GSet(Frozen):
    """A finite set with a left action of a finite group."""

    _fields = ("group", "size", "act")

    def __init__(self, group: FiniteGroup, size: int, act: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "act", act)

    def validate(self) -> None:
        G = self.group
        if len(self.act) != G.order or any(len(r) != self.size for r in self.act):
            raise ValueError("action table has wrong shape")
        if any(not (0 <= p < self.size) for row in self.act for p in row):
            raise ValueError("action table entry out of range")
        ide = self.act[G.identity]
        if any(ide[f] != f for f in range(self.size)):
            raise ValueError("identity does not act trivially")
        for g in range(G.order):
            for h in range(G.order):
                gh = G.mul[g][h]
                row_g, row_h, row_gh = self.act[g], self.act[h], self.act[gh]
                if any(row_g[row_h[f]] != row_gh[f] for f in range(self.size)):
                    raise ValueError(f"action law fails for pair ({g},{h})")

    @cached_property
    def orbit_partition(self) -> OrbitPartition:
        """The canonical orbit partition, computed once; read it via :func:`orbits`."""
        orbit_of, members = perm_orbits(self.act, self.size)
        return OrbitPartition(orbit_of, len(members), tuple(m[0] for m in members), members)

    @cached_property
    def acts_freely(self) -> bool:
        """Whether all stabilizers are trivial, computed once; read it via :func:`is_free`."""
        return all(
            len({row[f] for row in self.act}) == len(self.act) for f in range(self.size)
        )

    @cached_property
    def division(self) -> dict[tuple[int, int], int]:
        """The table ``(g . f, f) -> g``, computed once; valid when :func:`is_free`."""
        return {(p, f): g for g, row in enumerate(self.act) for f, p in enumerate(row)}

    @cached_property
    def frame_space(self) -> FrameSpace:
        """Every frame, enumerated once; valid when :func:`is_free`.

        Read it via :func:`framebundles.frames.enumerate_frames`, which checks
        freeness.  Frames are generated orbit-permutation by orbit-permutation
        (slot x draws from orbit sigma(x)), which produces exactly the tuples
        passing the basis criterion.  An oversized space raises on every read,
        since a failed ``cached_property`` stores nothing.
        """
        members = self.orbit_partition.members
        n = len(members)
        count = math.factorial(n)
        for m in members:
            count *= len(m)
        config.check_enumeration(count, "frames")
        frames: list[Frame] = []
        for sigma in itertools.permutations(range(n)):
            frames.extend(itertools.product(*[members[sigma[x]] for x in range(n)]))
        frames.sort()
        return FrameSpace(self, n, tuple(frames), {t: i for i, t in enumerate(frames)})

    def __repr__(self) -> str:
        return f"GSet({self.group.label} on {self.size} points)"


class OrbitPartition(Frozen):
    """Canonical orbit decomposition of a group-set.

    ``orbit_of[f]`` is the orbit index of carrier point ``f``,
    ``representatives[k]`` the smallest point of orbit ``k`` and
    ``members[k]`` its points in ascending order.
    """

    __slots__ = _fields = ("orbit_of", "orbit_count", "representatives", "members")

    def __init__(self, orbit_of: tuple[int, ...], orbit_count: int,
                 representatives: tuple[int, ...], members: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "orbit_of", orbit_of)
        object.__setattr__(self, "orbit_count", orbit_count)
        object.__setattr__(self, "representatives", representatives)
        object.__setattr__(self, "members", members)


class FrameSpace:
    """All frames of a free group-set, lexicographically sorted.

    The list is closed under the wreath action, which is free and transitive
    on it, so the space is a ``G wr I_n`` torsor of size ``|G|^n n!``.
    """

    __slots__ = ("base_gset", "n", "frames", "index")

    def __init__(self, base_gset: GSet, n: int, frames: tuple[Frame, ...],
                 index: dict[Frame, int]):
        self.base_gset = base_gset
        self.n = n
        self.frames = frames
        self.index = index


def make_gset(group: FiniteGroup, act) -> GSet:
    """Build and validate a group-set from an action table."""
    table = tuple(tuple(row) for row in act)
    size = len(table[0]) if table else 0
    F = GSet(group, size, table)
    F.validate()
    return F


def trivial_gset(n: int) -> GSet:
    """n points acted on by the one-element group (a plain finite set)."""
    return GSet(make_cyclic(1), n, (tuple(range(n)),))


def orbits(F: GSet) -> OrbitPartition:
    return F.orbit_partition


def is_free(F: GSet) -> bool:
    """True when (g, f) -> (gf, f) is injective, i.e. all stabilizers are trivial."""
    return F.acts_freely


def is_transitive(F: GSet) -> bool:
    """True when (g, f) -> (gf, f) is surjective: a single orbit."""
    return orbits(F).orbit_count == 1 and F.size > 0


def standard_semitorsor(G: FiniteGroup, n: int) -> GSet:
    """The canonical free group-set G x I_n with action g(h, x) = (gh, x).

    The pair (h, x) is packed as ``h * n + x``, so orbit x is
    ``{x, n + x, ...}`` and the canonical orbit index of (h, x) is x.
    """
    if n < 1:
        raise ValueError("need at least one orbit")
    config.check_enumeration(G.order * n, "group-set points")
    act = tuple(
        tuple(G.mul[g][h] * n + x for h in range(G.order) for x in range(n))
        for g in range(G.order)
    )
    return GSet(G, G.order * n, act)


def semitorsor_point(g: int, x: int, n: int) -> int:
    return g * n + x


def semitorsor_coords(p: int, n: int) -> tuple[int, int]:
    return divmod(p, n)


def semitorsor_orbit_count(F: GSet) -> int:
    """The n for which ``F`` is exactly ``standard_semitorsor(F.group, n)``.

    Any other group-set raises ``ValueError``, also one of the same size.
    """
    n, rest = divmod(F.size, F.group.order)
    if rest or n < 1 or F.act != standard_semitorsor(F.group, n).act:
        raise ValueError("carrier is not the semi-torsor G x I_n")
    return n


def divide(F: GSet, f_prime: int, f: int) -> int:
    """The unique group element carrying f to f_prime within one orbit.

    Defined only for free actions; points in different orbits raise
    :class:`NoQuotient`.
    """
    try:
        return division_table(F)[(f_prime, f)]
    except KeyError:
        raise NoQuotient(f"points {f_prime} and {f} lie in different orbits") from None


def division_table(F: GSet) -> dict[tuple[int, int], int]:
    """Lookup (f_prime, f) -> g for all same-orbit pairs of a free group-set."""
    if not is_free(F):
        raise NotFree("division requires a free action")
    return F.division


class EquivariantMap(Frozen):
    """A map of group-sets, equivariant over a homomorphism of their groups.

    ``value[f]`` is the image of carrier point ``f`` and the defining law is
    ``value[g . f] = xi(g) . value[f]``.
    """

    __slots__ = _fields = ("source", "target", "xi", "value")

    def __init__(self, source: GSet, target: GSet, xi: GroupHom, value: tuple[int, ...]):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "value", value)

    def __call__(self, f: int) -> int:
        return self.value[f]

    def is_bijective(self) -> bool:
        return (
            self.source.size == self.target.size
            and len(set(self.value)) == self.source.size
        )


def equivariant_map(source: GSet, target: GSet, xi: GroupHom, value) -> EquivariantMap:
    """Build an equivariant map and verify the law exhaustively."""
    a = EquivariantMap(source, target, xi, tuple(value))
    if xi.source != source.group or xi.target != target.group:
        raise ValueError("group homomorphism does not match the group-sets")
    if len(a.value) != source.size:
        raise ValueError("value table has wrong length")
    if any(not (0 <= v < target.size) for v in a.value):
        raise ValueError("value out of range")
    if not check_equivariant(a):
        raise ValueError("map is not equivariant")
    return a


def check_equivariant(a: EquivariantMap) -> bool:
    """Exhaustive test of value[g f] = xi(g) value[f]."""
    src, tgt, xi, val = a.source, a.target, a.xi, a.value
    for g in range(src.group.order):
        img_row = tgt.act[xi.image[g]]
        src_row = src.act[g]
        if any(val[src_row[f]] != img_row[val[f]] for f in range(src.size)):
            return False
    return True


def identity_map(F: GSet) -> EquivariantMap:
    return EquivariantMap(F, F, identity_hom(F.group), tuple(range(F.size)))


def compose_equivariant(a: EquivariantMap, b: EquivariantMap) -> EquivariantMap:
    """The composite a after b; sources/targets must chain."""
    if b.target != a.source:
        raise ValueError("compose_equivariant: inner target does not match outer source")
    return EquivariantMap(
        b.source,
        a.target,
        compose_hom(a.xi, b.xi),
        tuple(a.value[x] for x in b.value),
    )


def induced_orbit_map(a: EquivariantMap) -> tuple[int, ...]:
    """The unique map c on orbit indices with q2 . a = c . q1.

    For an automorphism of a free group-set this is the orbit permutation
    c_q, a homomorphism onto Sym(orbits).
    """
    q1 = orbits(a.source)
    q2 = orbits(a.target)
    table = tuple(q2.orbit_of[a.value[rep]] for rep in q1.representatives)
    # the map is well defined by equivariance; verify the square exhaustively
    if any(q2.orbit_of[a.value[f]] != table[k] for f, k in enumerate(q1.orbit_of)):
        raise ValueError("orbit map is not constant on orbits")
    return table


def is_orbit_bijection(a: EquivariantMap) -> bool:
    table = induced_orbit_map(a)
    return len(set(table)) == len(table) == orbits(a.target).orbit_count
