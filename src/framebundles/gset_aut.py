"""The automorphism group of a free group-set.

For a free ``F`` with ``n`` orbits, the id-equivariant bijections ``F -> F``
form a group ``Aut(F)`` of size ``|G|^n n!``.  It fits in a right-split short
exact sequence

    1 -> Aut(q) -> Aut(F) -> Sym(n) -> 1

where ``Aut(q)`` is the orbit-preserving (deck-transformation) part, and is
isomorphic to the wreath product via the explicit map

    I(g, s): (h, x) -> (h . g[s(x)]^-1, s(x))

on the standard semi-torsor, which ``frames.wreath_to_aut`` reads off its
formula and :func:`aut_to_wreath` inverts.  The inverse appears because the map
describes how *coordinates* change under a change of frame; the pairing
tests pin this orientation down.  Aut(F) is the list of morphisms that
``frame_tables.gset_homs`` gives.  Only the ``ses`` and ``wreath-iso``
suites and the tests import this module, so no bundle request compiles it.
"""

from __future__ import annotations

import itertools
import math

from .errors import NotFree
from .frame_tables import gset_homs
from .frames import WreathElement, frame_map, is_basis
from .gsets import (
    Frame,
    GSet,
    divide,
    induced_orbit_map,
    is_free,
    semitorsor_coords,
    semitorsor_point,
)
from .perms import Permutation, is_permutation, perm_inverse
from .records import Frozen


def section_from_frame(F: GSet, f: Frame, sigma: Permutation) -> tuple[int, ...]:
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


def autq_component(F: GSet, psi, f: Frame) -> tuple[int, ...]:
    """The group tuple identifying an orbit-preserving automorphism of ``F``.

    Component x is the division f[x] / psi[f[x]], i.e. the *inverse* of the
    element translating f[x] to its image; with this orientation the
    assignment psi -> tuple is a homomorphism onto G^n.
    """
    n = len(f)
    if induced_orbit_map(F, F, psi) != tuple(range(n)):
        raise ValueError("automorphism does not preserve orbits")
    return tuple(divide(F, f[x], psi[f[x]]) for x in range(n))


def autq_reconstruct(F: GSet, f: Frame, component: tuple[int, ...]) -> tuple[int, ...]:
    """Inverse of :func:`autq_component` for a fixed frame: f[x] -> c[x]^-1 . f[x]."""
    inv = F.group.inv
    t = tuple(F.act[inv[component[x]]][f[x]] for x in range(len(f)))
    return frame_map(F, f, F, t)


def aut_to_wreath(F: GSet, psi) -> WreathElement:
    """Recover the wreath element of an automorphism of a standard semi-torsor ``F``.

    The permutation is the orbit permutation of psi (``induced_orbit_map``);
    the group tuple comes from evaluating at the identity section, inverting
    the right-translation convention of ``frames.wreath_to_aut``.
    """
    G = F.group
    n = F.semitorsor_orbits
    sigma = induced_orbit_map(F, F, psi)
    s_inv = perm_inverse(sigma)
    # psi sends orbit s_inv[x] onto orbit x, as induced_orbit_map checked, so
    # the image of (e, s_inv[x]) is (h, x) and only h is read
    g = tuple(G.inv[semitorsor_coords(psi[semitorsor_point(G.identity, s_inv[x], n)], n)[0]]
              for x in range(n))
    return WreathElement(G, g, sigma)


class SesReport(Frozen):
    """Verified sizes and splitting data of the automorphism sequence.

    ``kernel_witness``, ``cq_witness`` and ``section_witness`` name the first
    counterexample to the kernel, surjectivity and splitting checks; each is
    empty when its check holds.
    """

    __slots__ = _fields = ("aut_order", "autq_order", "sym_order", "product_matches",
                           "kernel_witness", "cq_witness", "section_witness", "section_frame")

    @property
    def ok(self) -> bool:
        return self.product_matches and not (
            self.kernel_witness or self.cq_witness or self.section_witness)


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
    q = F.orbit_partition
    n = len(q.members)
    identity_perm = tuple(range(n))
    perms = set(itertools.permutations(range(n)))

    cq_values = [induced_orbit_map(F, F, a) for a in auts]
    autq_order = sum(1 for p in cq_values if p == identity_perm)
    # kernel of c_q = the maps fixing every orbit setwise, checked point by point
    kernel_witness = next((
        f"cq sends {a} to {p}, but {a} {'fixes every orbit' if kept else 'moves an orbit'}"
        for a, p in zip(auts, cq_values)
        if (kept := all(q.orbit_of[a[f]] == q.orbit_of[f] for f in range(F.size)))
        != (p == identity_perm)), "")
    autq_expected = F.group.order**n
    if not kernel_witness and autq_order != autq_expected:
        kernel_witness = f"{autq_order} automorphisms fix the orbits, not |G|^n = {autq_expected}"
    # the least tuple that only one of Sym(n) and the values of c_q holds
    stray = min(set(cq_values) ^ perms, default=None)
    cq_witness = "" if stray is None else (f"no automorphism maps to {stray}" if stray in perms
                                           else f"cq reaches {stray}, no permutation")

    # the smallest frame: orbit indices follow the orbits' smallest points
    section_frame = tuple(m[0] for m in q.members)
    section_witness = next((
        f"the section sends {sigma} to {p}" for sigma in itertools.permutations(range(n))
        if (p := induced_orbit_map(F, F, section_from_frame(F, section_frame, sigma)))
        != sigma), "")
    return SesReport(
        aut_order=len(auts),
        autq_order=autq_order,
        sym_order=math.factorial(n),
        product_matches=len(auts) == autq_order * math.factorial(n),
        kernel_witness=kernel_witness,
        cq_witness=cq_witness,
        section_witness=section_witness,
        section_frame=section_frame,
    )
