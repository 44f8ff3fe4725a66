"""The automorphism group of a free group-set.

For a free ``F`` with ``n`` orbits, the id-equivariant bijections ``F -> F``
form a group ``Aut(F)`` of size ``|G|^n n!``.  It fits in a right-split short
exact sequence

    1 -> Aut(q) -> Aut(F) -> Sym(n) -> 1

where ``Aut(q)`` is the orbit-preserving (deck-transformation) part, and is
isomorphic to the wreath product via the explicit map

    I(g, s): (h, x) -> (h . g[s(x)]^-1, s(x))

on the standard semi-torsor.  The inverse appears because the map describes
how *coordinates* change under a change of frame; the pairing tests pin this
orientation down.
"""

from __future__ import annotations

import itertools
import math

from .errors import NotFree
from .frames import Frame, WreathElement, frame_map, gset_homs, is_basis
from .groups import Permutation, is_permutation, perm_inverse
from .gsets import (
    EquivariantMap,
    GSet,
    divide,
    induced_orbit_map,
    is_free,
    orbits,
    semitorsor_coords,
    semitorsor_orbit_count,
    semitorsor_point,
    standard_semitorsor,
)


def section_from_frame(F: GSet, f: Frame, sigma: Permutation) -> EquivariantMap:
    """The automorphism h f[x] -> h f[sigma(x)] defined by a frame.

    For a fixed frame this is a homomorphism in sigma; when the frame is a
    section of the orbit map (slot x inside orbit x) it splits the orbit
    permutation :func:`~framebundles.gsets.induced_orbit_map`.
    """
    if not is_basis(F, f):
        raise ValueError("section_from_frame needs a basis")
    n = len(f)
    if not is_permutation(sigma, n):
        raise ValueError("sigma is not a permutation of the slots")
    return frame_map(F, f, F, tuple(f[s] for s in sigma))


def autq_component(psi: EquivariantMap, f: Frame) -> tuple[int, ...]:
    """The group tuple identifying an orbit-preserving automorphism.

    Component x is the division f[x] / psi(f[x]), i.e. the *inverse* of the
    element translating f[x] to its image; with this orientation the
    assignment psi -> tuple is a homomorphism onto G^n.
    """
    n = len(f)
    if induced_orbit_map(psi) != tuple(range(n)):
        raise ValueError("automorphism does not preserve orbits")
    F = psi.source
    return tuple(divide(F, f[x], psi.value[f[x]]) for x in range(n))


def autq_reconstruct(F: GSet, f: Frame, component: tuple[int, ...]) -> EquivariantMap:
    """Inverse of :func:`autq_component` for a fixed frame: f[x] -> c[x]^-1 . f[x]."""
    inv = F.group.inv
    t = tuple(F.act[inv[component[x]]][f[x]] for x in range(len(f)))
    return frame_map(F, f, F, t)


def wreath_to_aut(w: WreathElement, F: GSet | None = None) -> EquivariantMap:
    """The isomorphism from the wreath product G wr I_n onto Aut(G x I_n).

    (h, x) maps to (h . g[s(x)]^-1, s(x)); right translation keeps the maps
    left-equivariant, and the whole assignment is a group homomorphism.
    A caller that maps many elements passes ``F = standard_semitorsor(G, n)``
    so that all the maps share one carrier; any other carrier is refused.
    """
    G, n = w.group, w.n
    if F is None:
        F = standard_semitorsor(G, n)
    elif F.group != G or semitorsor_orbit_count(F) != n:
        raise ValueError("wreath element does not match the target semi-torsor")
    image = tuple(semitorsor_point(G.inv[w.g_tuple[s]], s, n) for s in w.sigma)
    return frame_map(F, tuple(semitorsor_point(G.identity, x, n) for x in range(n)), F, image)


def aut_to_wreath(psi: EquivariantMap) -> WreathElement:
    """Recover the wreath element of an automorphism of a standard semi-torsor.

    The permutation is the orbit permutation of psi (``induced_orbit_map``);
    the group tuple comes from evaluating at the identity section, inverting
    the right-translation convention of :func:`wreath_to_aut`.
    """
    F = psi.source
    G = F.group
    n = semitorsor_orbit_count(F)
    sigma = induced_orbit_map(psi)
    s_inv = perm_inverse(sigma)
    g = []
    for x in range(n):
        gc, xc = semitorsor_coords(psi.value[semitorsor_point(G.identity, s_inv[x], n)], n)
        if xc != x:
            raise AssertionError("orbit permutation mismatch")
        g.append(G.inv[gc])
    return WreathElement(G, tuple(g), sigma)


class SesReport:
    """Verified sizes and splitting data of the automorphism sequence."""

    __slots__ = ("group_label", "orbit_count", "aut_order", "autq_order", "sym_order",
                 "product_matches", "kernel_is_autq", "cq_surjective", "section_splits",
                 "section_frame")

    def __init__(self, group_label: str, orbit_count: int, aut_order: int, autq_order: int,
                 sym_order: int, product_matches: bool, kernel_is_autq: bool,
                 cq_surjective: bool, section_splits: bool, section_frame: Frame):
        self.group_label = group_label
        self.orbit_count = orbit_count
        self.aut_order = aut_order
        self.autq_order = autq_order
        self.sym_order = sym_order
        self.product_matches = product_matches
        self.kernel_is_autq = kernel_is_autq
        self.cq_surjective = cq_surjective
        self.section_splits = section_splits
        self.section_frame = section_frame

    @property
    def ok(self) -> bool:
        return (
            self.product_matches
            and self.kernel_is_autq
            and self.cq_surjective
            and self.section_splits
        )


def ses_report(F: GSet, auts=None) -> SesReport:
    """Exhaustively verify the short exact sequence for a free group-set.

    Checks that the orbit-projection homomorphism has the orbit-preserving
    automorphisms as kernel, is surjective onto Sym(n), and is split by the
    section built from the canonical section frame; reports all cardinalities.
    ``auts`` is Aut(F) as ``gset_homs(F, F)`` lists it, if the caller has
    already listed it.
    """
    if not is_free(F):
        raise NotFree("the sequence closes only for free group-sets")
    if auts is None:
        auts = gset_homs(F, F)
    q = orbits(F)
    n = q.orbit_count
    identity_perm = tuple(range(n))
    perms = set(itertools.permutations(range(n)))

    cq_values = [induced_orbit_map(a) for a in auts]
    autq_order = sum(1 for p in cq_values if p == identity_perm)
    # kernel of c_q = the maps fixing every orbit setwise, checked point by point
    kernel_is_autq = all(
        (p == identity_perm)
        == all(q.orbit_of[a.value[f]] == q.orbit_of[f] for f in range(F.size))
        for a, p in zip(auts, cq_values)
    ) and autq_order == F.group.order**n
    cq_surjective = set(cq_values) == perms

    # the smallest frame: orbit indices follow the orbits' smallest points
    section_frame = q.representatives
    section_splits = all(
        induced_orbit_map(section_from_frame(F, section_frame, sigma)) == sigma
        for sigma in itertools.permutations(range(n))
    )
    return SesReport(
        group_label=F.group.label,
        orbit_count=n,
        aut_order=len(auts),
        autq_order=autq_order,
        sym_order=math.factorial(n),
        product_matches=len(auts) == autq_order * math.factorial(n),
        kernel_is_autq=kernel_is_autq,
        cq_surjective=cq_surjective,
        section_splits=section_splits,
        section_frame=section_frame,
    )
