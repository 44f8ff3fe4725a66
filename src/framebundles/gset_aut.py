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

from . import config
from .errors import NotFree
from .frames import Frame, WreathElement, frame_map, gset_homs, is_basis
from .groups import FiniteGroup, Permutation, is_permutation, perm_inverse, permutation_group
from .gsets import (
    EquivariantMap,
    GSet,
    divide,
    induced_orbit_map,
    is_free,
    orbits,
    standard_semitorsor,
)


def aut_group_of_gset(F: GSet) -> tuple[FiniteGroup, tuple[EquivariantMap, ...]]:
    """Aut(F), the morphisms ``F -> F`` of :func:`gset_homs`, as a Cayley-table group.

    An automorphism of a group-set is an id-equivariant bijective self-map.
    Every automorphism carries the canonical (lexicographically smallest)
    frame to some other frame, and is determined by it.  The returned list
    is sorted by value table: the canonical frame's points are the orbit
    minima in increasing order, so value tables sort the way their image
    frames do.  The canonical frame is also the base of the Cayley table:
    psi(h f_x) = h psi(f_x), and the frame meets every orbit.
    """
    if not is_free(F):
        raise NotFree("only free group-sets have wreath-sized automorphism groups")
    auts = gset_homs(F, F)
    config.check_table_order(len(auts), what="group-set automorphism group")
    base = orbits(F).representatives  # the canonical frame
    table = permutation_group([a.value for a in auts], base, f"Aut({F.group.label}-set)")
    return table, tuple(auts)


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


def wreath_to_aut(
    w: WreathElement, n: int, G: FiniteGroup, F: GSet | None = None
) -> EquivariantMap:
    """The isomorphism from the wreath product onto Aut(G x I_n).

    (h, x) maps to (h . g[s(x)]^-1, s(x)); right translation keeps the maps
    left-equivariant, and the whole assignment is a group homomorphism.
    A caller that maps many elements passes ``F = standard_semitorsor(G, n)``
    so that all the maps share one carrier.
    """
    if w.group != G or w.n != n or len(w.g_tuple) != n:
        raise ValueError("wreath element does not match the target semi-torsor")
    if F is None:
        F = standard_semitorsor(G, n)
    elif F.group != G or F.size != G.order * n:
        raise ValueError("carrier is not the semi-torsor G x I_n")
    e, inv = G.identity, G.inv
    image = tuple(inv[w.g_tuple[s]] * n + s for s in w.sigma)
    return frame_map(F, tuple(e * n + x for x in range(n)), F, image)


def aut_to_wreath(psi: EquivariantMap) -> WreathElement:
    """Recover the wreath element of an automorphism of a standard semi-torsor.

    The permutation is the orbit permutation of psi (``induced_orbit_map``);
    the group tuple comes from evaluating at the identity section, inverting
    the right-translation convention of :func:`wreath_to_aut`.
    """
    F = psi.source
    G = F.group
    if F.size % G.order != 0:
        raise ValueError("carrier is not a standard semi-torsor")
    n = F.size // G.order
    if F != standard_semitorsor(G, n):
        raise ValueError("carrier is not a standard semi-torsor")
    sigma = induced_orbit_map(psi)
    s_inv = perm_inverse(sigma)
    e = G.identity
    g = []
    for x in range(n):
        image = psi.value[e * n + s_inv[x]]
        gc, xc = divmod(image, n)
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


def ses_report(F: GSet, aut=None) -> SesReport:
    """Exhaustively verify the short exact sequence for a free group-set.

    Checks that the orbit-projection homomorphism has the orbit-preserving
    automorphisms as kernel, is surjective onto Sym(n), and is split by the
    section built from the canonical section frame; reports all cardinalities.
    ``aut`` is ``aut_group_of_gset(F)`` if the caller has already built it.
    """
    if not is_free(F):
        raise NotFree("the sequence closes only for free group-sets")
    table, auts = aut if aut is not None else aut_group_of_gset(F)
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
        aut_order=table.order,
        autq_order=autq_order,
        sym_order=math.factorial(n),
        product_matches=table.order == autq_order * math.factorial(n),
        kernel_is_autq=kernel_is_autq,
        cq_surjective=cq_surjective,
        section_splits=section_splits,
        section_frame=section_frame,
    )
