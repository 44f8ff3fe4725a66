"""Finite left group-sets: actions, orbits, freeness, division, frames, equivariant maps.

A group-set is a carrier ``0 .. size-1`` with an action table ``act[g][f]``.
The orbit partition is canonical: orbit indices are assigned in order of the
smallest carrier representative, so quotient data is reproducible.

A map of group-sets is its value table: ``value[f]`` is the image of carrier
point ``f``.  It is equivariant over the homomorphism with image table ``xi``
(``groups.check_hom``) when ``value[g . f] = xi[g] . value[f]``; only the
readers that check this law or count its kernel take ``xi``.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

from . import config
from .errors import NoQuotient, NotFree
from .groups import FiniteGroup, check_hom, make_cyclic
from .perms import first_broken_edge, perm_compose, perm_orbits
from .records import Frozen

Frame = tuple[int, ...]


class GSet(Frozen):
    """A finite set with a left action of a finite group."""

    _fields = ("group", "size", "act")

    def validate(self) -> None:
        """Shape, range, the identity row, then the action law on generator edges."""
        G = self.group
        if len(self.act) != G.order or any(len(r) != self.size for r in self.act):
            raise ValueError("action table has wrong shape")
        if any(not (0 <= p < self.size) for row in self.act for p in row):
            raise ValueError("action table entry out of range")
        if self.act[G.identity] != tuple(range(self.size)):
            raise ValueError("identity does not act trivially")
        broken = first_broken_edge(self.act, perm_compose, G.identity, G.generators, G.moves)
        if broken is not None:
            raise ValueError("action law fails for pair ({},{})".format(*broken))

    @cached_property
    def orbit_partition(self) -> OrbitPartition:
        """The canonical orbit partition, computed once."""
        return OrbitPartition(*perm_orbits(self.act, self.size))

    @cached_property
    def semitorsor_orbits(self) -> int:
        """The n for which this group-set is exactly ``standard_semitorsor(group, n)``.

        Any other group-set raises ``ValueError``, also one of the same size.
        The rows are compared one at a time, with no second table held.
        Computed once; a refusal is not stored, so it repeats.
        """
        n, rest = divmod(self.size, self.group.order)
        rows = zip(self.act, _semitorsor_rows(self.group, n))
        if rest or n < 1 or any(row != model for row, model in rows):
            raise ValueError("carrier is not the semi-torsor G x I_n")
        return n

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

    ``orbit_of[f]`` is the orbit index of carrier point ``f`` and
    ``members[k]`` the points of orbit ``k`` in ascending order, so
    ``len(members)`` counts the orbits and ``members[k][0]`` is the smallest
    point of orbit ``k``.
    """

    __slots__ = _fields = ("orbit_of", "members")


class FrameSpace:
    """All frames of a free group-set, lexicographically sorted.

    The list is closed under the wreath action, which is free and transitive
    on it, so the space is a ``G wr I_n`` torsor of size ``|G|^n n!``.
    ``columns[x]`` holds slot ``x`` of every frame, in the same order, for
    :func:`framebundles.frame_tables.frame_table`.
    """

    __slots__ = ("base_gset", "n", "frames", "index", "columns")

    def __init__(self, base_gset: GSet, n: int, frames: tuple[Frame, ...],
                 index: dict[Frame, int]):
        self.base_gset = base_gset
        self.n = n
        self.frames = frames
        self.index = index
        self.columns = tuple(zip(*frames))


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


def is_free(F: GSet) -> bool:
    """True when all stabilizers are trivial: by orbit-stabilizer, when every orbit
    has |G| points (every validated or constructed group-set obeys the action law)."""
    return all(len(m) == F.group.order for m in F.orbit_partition.members)


def standard_semitorsor(G: FiniteGroup, n: int) -> GSet:
    """The canonical free group-set G x I_n with action g(h, x) = (gh, x).

    The pair (h, x) is packed as ``h * n + x``, so orbit x is
    ``{x, n + x, ...}`` and the canonical orbit index of (h, x) is x.
    """
    if n < 1:
        raise ValueError("need at least one orbit")
    return GSet(G, G.order * n, tuple(_semitorsor_rows(G, n)))


def _semitorsor_rows(G: FiniteGroup, n: int):
    """Row g of G x I_n, (gh, x) at ``h * n + x``, one at a time once the table's bounds pass."""
    config.check_enumeration(G.order * n, "group-set points")
    config.check_table_entries(G.order * G.order * n, "action table of G x I_n")
    for row in G.mul:
        yield tuple(m * n + x for m in row for x in range(n))


def semitorsor_point(g: int, x: int, n: int) -> int:
    return g * n + x


def semitorsor_coords(p: int, n: int) -> tuple[int, int]:
    return divmod(p, n)


def divide(F: GSet, f_prime: int, f: int) -> int:
    """The unique g with ``F.act[g][f] == f_prime``, read off the column of f.

    Defined only for free actions; points in different orbits, or off the
    carrier, raise :class:`NoQuotient`.
    """
    if not is_free(F):
        raise NotFree("division requires a free action")
    q = F.orbit_partition.orbit_of
    if not (0 <= f < F.size and 0 <= f_prime < F.size) or q[f] != q[f_prime]:
        raise NoQuotient(f"points {f_prime} and {f} lie in different orbits")
    return [row[f] for row in F.act].index(f_prime)


def division_table(F: GSet) -> dict[tuple[int, int], int]:
    """Lookup (f_prime, f) -> g for all same-orbit pairs of a free group-set,
    built on each call; :func:`divide` reads one division without it."""
    if not is_free(F):
        raise NotFree("division requires a free action")
    return {(p, f): g for g, row in enumerate(F.act) for f, p in enumerate(row)}


def equivariant_map(source: GSet, target: GSet, xi, value) -> tuple[int, ...]:
    """Verify a map of group-sets exhaustively and return its value table."""
    xi, value = tuple(xi), tuple(value)
    check_hom(source.group, target.group, xi)
    _check_values(source, target, value)
    if not check_equivariant(source, target, xi, value):
        raise ValueError("map is not equivariant")
    return value


def _check_values(source: GSet, target: GSet, value) -> None:
    """Raise ValueError unless ``value`` holds one int point of ``target`` per
    point of ``source``."""
    if len(value) != source.size:
        raise ValueError("value table has wrong length")
    if any(type(v) is not int or not 0 <= v < target.size for v in value):
        raise ValueError("value out of range")


def check_equivariant(source: GSet, target: GSet, xi, value) -> bool:
    """Whether value[g f] = xi[g] value[f] for all g and f, checked for the generators g.

    That suffices when both actions obey the action law and xi is a
    homomorphism, as for every validated or constructed group-set and the
    identity xi: the identity passes, and if g and h do, then value[gh f] =
    xi[g] value[h f] = xi[g] xi[h] value[f] = xi[gh] value[f], so the g that
    pass are closed under products, and with the generators they hold every
    element of the finite group.
    """
    for g in source.group.generators:
        img_row = target.act[xi[g]]
        if any(value[p] != img_row[v] for p, v in zip(source.act[g], value)):
            return False
    return True


def induced_orbit_map(source: GSet, target: GSet, value) -> tuple[int, ...]:
    """The unique map c on orbit indices with q2 . value = c . q1.

    For an automorphism of a free group-set this is the orbit permutation
    c_q, a homomorphism onto Sym(orbits).  Like :func:`equivariant_map`, it
    refuses a ``value`` that does not map the source's points into the target.
    """
    _check_values(source, target, value)
    q1 = source.orbit_partition
    q2 = target.orbit_partition
    table = tuple(q2.orbit_of[value[m[0]]] for m in q1.members)
    # the map is well defined by equivariance; verify the square exhaustively
    if any(q2.orbit_of[value[f]] != table[k] for f, k in enumerate(q1.orbit_of)):
        raise ValueError("orbit map is not constant on orbits")
    return table


def is_orbit_bijection(source: GSet, target: GSet, value) -> bool:
    table = induced_orbit_map(source, target, value)
    return len(set(table)) == len(table) == len(target.orbit_partition.members)
