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
:func:`wreath_to_aut` builds the automorphism of ``G x I_n`` that a wreath
element names this way, from its image of the standard frame.

The frame space of a group-set is computed once, by
:attr:`~framebundles.gsets.GSet.frame_space`, and read here through
:func:`enumerate_frames`.  :func:`wreath_act` moves a single frame and
:func:`frame_divide` divides two.

This module holds what the bundles read, with the product and inverse of the
wreath product (:func:`wreath_mul`, :func:`wreath_inv`), the reference law
the tests hold every frame-table kernel to.  Maps on a whole frame space, the
morphism listing and the equivalence check are in ``frame_tables``, which
only the suites, ``gset_aut`` and the tests import, so a bundle request does
not compile them.
"""

from __future__ import annotations

from functools import cached_property

from .errors import NotFree
from .groups import FiniteGroup
from .gsets import Frame, FrameSpace, GSet, is_free, semitorsor_point
from .perms import Permutation, is_permutation, perm_compose, perm_inverse
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


def wreath_to_aut(w: WreathElement, F: GSet) -> tuple[int, ...]:
    """The isomorphism from the wreath product G wr I_n onto Aut(G x I_n).

    (h, x) maps to (h . g[s(x)]^-1, s(x)); right translation keeps the maps
    left-equivariant, and the whole assignment is a group homomorphism.
    ``F`` is the carrier ``standard_semitorsor(G, n)``, which a caller that
    maps many elements builds once so that the maps share it; any other
    carrier is refused.
    """
    G, n = w.group, w.n
    if F.group != G or F.semitorsor_orbits != n:
        raise ValueError("wreath element does not match the target semi-torsor")
    image = tuple(semitorsor_point(G.inv[w.g_tuple[s]], s, n) for s in w.sigma)
    return frame_map(F, tuple(semitorsor_point(G.identity, x, n) for x in range(n)), F, image)
