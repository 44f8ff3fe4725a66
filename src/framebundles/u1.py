"""Exact circle-group wreath holonomy: U(1) wr I_k with rational rotation numbers.

The circle group is modeled by rotation numbers in [0, 1) with exact rational
arithmetic, so every holonomy identity in this module is an equality of
fractions, never a float comparison.  The fiber is k disjoint circles; a
fiber point is an angle on a sheet, and the wreath product acts by

    (angles, s) . (theta, x) = (theta + angles[s(x)], s(x)).

A flat bundle is its holonomy data: one wreath element per loop of the wedge.
Transport around a word applies the first letter first, which makes the
word's holonomy the product of the letters' elements right-to-left.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import NoQuotient
from .groups import Permutation, perm_compose, perm_inverse, validate_word


@dataclass(frozen=True)
class Angle:
    """An exact rotation number: numerator/denominator reduced, in [0, 1)."""

    numerator: int
    denominator: int = 1

    def __post_init__(self):
        f = Fraction(self.numerator, self.denominator) % 1
        object.__setattr__(self, "numerator", f.numerator)
        object.__setattr__(self, "denominator", f.denominator)

    @classmethod
    def parse(cls, text: str) -> "Angle":
        f = Fraction(text)
        return cls(f.numerator, f.denominator)

    @property
    def frac(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    def __add__(self, other: "Angle") -> "Angle":
        f = self.frac + other.frac
        return Angle(f.numerator, f.denominator)

    def __neg__(self) -> "Angle":
        f = -self.frac
        return Angle(f.numerator, f.denominator)

    def times(self, q: int) -> "Angle":
        f = self.frac * q
        return Angle(f.numerator, f.denominator)

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}" if self.denominator != 1 else str(self.numerator)


ZERO = Angle(0)


@dataclass(frozen=True)
class U1Wreath:
    """An element (angles, sigma) of the circle wreath product on k sheets."""

    angles: tuple[Angle, ...]
    sigma: Permutation

    @property
    def k(self) -> int:
        return len(self.sigma)

    def __str__(self) -> str:
        return f"(({', '.join(map(str, self.angles))}), {self.sigma})"


def u1_identity(k: int) -> U1Wreath:
    return U1Wreath((ZERO,) * k, tuple(range(k)))


def _check_arity(a: U1Wreath, b: U1Wreath) -> None:
    if a.k != b.k:
        raise ValueError("wreath elements have different sheet counts")


def u1wreath_mul(a: U1Wreath, b: U1Wreath) -> U1Wreath:
    """(a, s)(a', s') = (x -> a[x] + a'[s^-1(x)], s s'), angles mod 1."""
    _check_arity(a, b)
    s_inv = perm_inverse(a.sigma)
    angles = tuple(a.angles[x] + b.angles[s_inv[x]] for x in range(a.k))
    return U1Wreath(angles, perm_compose(a.sigma, b.sigma))


def u1wreath_inv(a: U1Wreath) -> U1Wreath:
    angles = tuple(-a.angles[a.sigma[x]] for x in range(a.k))
    return U1Wreath(angles, perm_inverse(a.sigma))


@dataclass(frozen=True)
class FiberPoint:
    """A point of the fiber: an exact angle on one of the k sheets."""

    angle: Angle
    sheet: int


def act_point(w: U1Wreath, p: FiberPoint) -> FiberPoint:
    """(angles, s) . (theta, x) = (theta + angles[s(x)], s(x))."""
    if not (0 <= p.sheet < w.k):
        raise ValueError("point sheet out of range for this wreath element")
    target = w.sigma[p.sheet]
    return FiberPoint(p.angle + w.angles[target], target)


# Lie-algebra vectors of the wreath product: one rational rate per sheet.
AlgebraVector = tuple[Fraction, ...]


def adjoint(w: U1Wreath, v: AlgebraVector) -> AlgebraVector:
    """Adjoint action on algebra vectors: a pure coordinate shuffle by sigma^-1.

    The angle part acts trivially because the circle group is abelian.
    """
    if len(v) != w.k:
        raise ValueError("vector arity does not match the wreath element")
    s_inv = perm_inverse(w.sigma)
    return tuple(v[s_inv[x]] for x in range(w.k))


@dataclass(frozen=True)
class U1FlatBundle:
    """Flat circle-wreath bundle over a wedge: holonomy generators per loop."""

    k: int
    loops: int
    holonomy_gen: tuple[U1Wreath, ...]

    def __post_init__(self):
        if self.loops != len(self.holonomy_gen) or self.loops < 1:
            raise ValueError("generator count must match the loop count")
        for w in self.holonomy_gen:
            if w.k != self.k:
                raise ValueError("generator arity does not match the sheet count")


def u1_winding_bundle(k: int, angles: Optional[Sequence[Angle]] = None) -> U1FlatBundle:
    """The k-sheet winding model: one loop cycling the sheets, optional twist angles."""
    if k < 1:
        raise ValueError("sheet count must be >= 1")
    cycle = tuple((i + 1) % k for i in range(k))
    tup = tuple(angles) if angles is not None else (ZERO,) * k
    if len(tup) != k:
        raise ValueError("angle tuple has wrong arity")
    return U1FlatBundle(k, 1, (U1Wreath(tup, cycle),))


def holonomy_u1(b: U1FlatBundle, word) -> U1Wreath:
    """Holonomy of a loop word; the first traversed letter acts first.

    The product is assembled right-to-left so that acting with the result on
    a point applies the letters in traversal order.
    """
    w = validate_word(b.loops, word)
    out = u1_identity(b.k)
    for letter in w:
        gen = b.holonomy_gen[abs(letter) - 1]
        if letter < 0:
            gen = u1wreath_inv(gen)
        out = u1wreath_mul(gen, out)
    return out


def transport(b: U1FlatBundle, word, start: FiberPoint) -> FiberPoint:
    """Parallel transport of a fiber point around a loop word.

    Equivariant under pure angle shifts: transporting (theta + d, x) lands at
    the transport of (theta, x) shifted by d on the same landing sheet.
    """
    return act_point(holonomy_u1(b, word), start)


def frame_holonomy(b: U1FlatBundle, word) -> U1Wreath:
    """Holonomy of the induced frame-torsor connection.

    It is the same wreath element as :func:`holonomy_u1`: transporting a
    frame transports each entry, so the frame picks up exactly the per-sheet
    angle increments together with the shared sheet permutation.  See
    :func:`frame_transport` for the action on frame tuples.
    """
    return holonomy_u1(b, word)


U1Frame = tuple[FiberPoint, ...]


def u1_canonical_frame(k: int) -> U1Frame:
    return tuple(FiberPoint(ZERO, x) for x in range(k))


def is_u1_frame(k: int, frame: U1Frame) -> bool:
    return len(frame) == k and sorted(p.sheet for p in frame) == list(range(k))


def frame_transport(w: U1Wreath, frame: U1Frame) -> U1Frame:
    """The wreath action on frame tuples: slot x gets angles[x] + old slot s^-1(x)."""
    if not is_u1_frame(w.k, frame):
        raise ValueError("tuple is not a frame of the k-sheet fiber")
    s_inv = perm_inverse(w.sigma)
    return tuple(
        FiberPoint(w.angles[x] + frame[s_inv[x]].angle, frame[s_inv[x]].sheet)
        for x in range(w.k)
    )


def pushforward(b: U1FlatBundle, q: int) -> U1FlatBundle:
    """Push the connection forward along the circle endomorphism z -> z^q.

    Every generator's angles are multiplied by q (mod 1) with permutations
    unchanged, so holonomies satisfy hol_new = (q-scaling, id) . hol_old for
    every word.
    """
    gens = tuple(
        U1Wreath(tuple(a.times(q) for a in w.angles), w.sigma)
        for w in b.holonomy_gen
    )
    return U1FlatBundle(b.k, b.loops, gens)


def scale_wreath(w: U1Wreath, q: int) -> U1Wreath:
    """Apply the sheet-wise power map to a wreath element (permutation kept)."""
    return U1Wreath(tuple(a.times(q) for a in w.angles), w.sigma)


@dataclass(frozen=True)
class DivisionFormReport:
    """Forward-difference evaluation of the connection along a sampled path."""

    sheet: int
    rates: tuple[Fraction, ...]
    constant_rate: Optional[Fraction]


def division_form_check(path: Iterable[FiberPoint], step: Fraction) -> DivisionFormReport:
    """Discrete shadow of the division form of the canonical connection.

    Consecutive samples are divided inside their common sheet (the division
    is the angle difference taken with representative in [0, 1)) and the
    forward difference quotient with the sampling step is reported.  A path
    with angle(t) = c t reproduces the rate c exactly whenever |c| step < 1;
    samples on mixed sheets have no quotient and are rejected.
    """
    points = list(path)
    if len(points) < 2:
        raise ValueError("need at least two samples")
    step = Fraction(step)
    if step <= 0:
        raise ValueError("step must be positive")
    sheet = points[0].sheet
    if any(p.sheet != sheet for p in points):
        raise NoQuotient("samples cross sheets; division is undefined")
    rates = []
    for p0, p1 in zip(points, points[1:]):
        diff = (p1.angle.frac - p0.angle.frac) % 1
        rates.append(diff / step)
    constant = rates[0] if all(r == rates[0] for r in rates) else None
    return DivisionFormReport(sheet=sheet, rates=tuple(rates), constant_rate=constant)


def all_words(loops: int, max_len: int):
    """All loop words up to a length, in deterministic order."""
    letters = [i for i in range(1, loops + 1)] + [-i for i in range(1, loops + 1)]
    for length in range(max_len + 1):
        yield from itertools.product(letters, repeat=length)
