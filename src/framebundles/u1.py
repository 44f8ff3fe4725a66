"""Exact circle-group wreath holonomy: U(1) wr I_k with rational rotation numbers.

The circle group is modeled by rotation numbers: an angle is a ``Fraction``
in [0, 1), so every holonomy identity in this module is an equality of
fractions, never a float comparison.  :func:`_mod1` keeps that invariant,
once, where angles enter a ``U1Wreath`` or a ``FiberPoint``.  The fiber is k
disjoint circles; a fiber point is an angle on a sheet, and the wreath
product acts by

    (angles, s) . (theta, x) = (theta + angles[s(x)], s(x)).

A flat bundle is its holonomy data: one wreath element per loop of the wedge.
Transport around a word applies the first letter first, which makes the
word's holonomy the product of the letters' elements right-to-left.

A word moves one point at a time with integer arithmetic: each letter is a
sheet lookup and an addition of the angle's numerator to a running sum per
denominator, and the sums are put over their common denominator L, the lcm
of the denominators the point met, once at the end.  A ``Fraction`` is built
only for the result.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from . import config
from .errors import NoQuotient
from .groups import Permutation, perm_compose, perm_inverse, validate_word
from .records import Frozen


def _mod1(a: Fraction) -> Fraction:
    """The angle ``a`` names, in [0, 1): ``a`` itself when it is already there."""
    return a if 0 <= a.numerator < a.denominator else a % 1


class U1Wreath(Frozen):
    """An element (angles, sigma) of the circle wreath product on k sheets."""

    __slots__ = _fields = ("angles", "sigma")

    def __init__(self, angles: tuple[Fraction, ...], sigma: Permutation):
        object.__setattr__(self, "angles", tuple(map(_mod1, angles)))
        object.__setattr__(self, "sigma", sigma)

    @property
    def k(self) -> int:
        return len(self.sigma)

    def __str__(self) -> str:
        return f"(({', '.join(map(str, self.angles))}), {self.sigma})"


def u1_identity(k: int) -> U1Wreath:
    return U1Wreath((Fraction(0),) * k, tuple(range(k)))


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


class FiberPoint(Frozen):
    """A point of the fiber: an exact angle on one of the k sheets."""

    __slots__ = _fields = ("angle", "sheet")

    def __init__(self, angle: Fraction, sheet: int):
        object.__setattr__(self, "angle", _mod1(angle))
        object.__setattr__(self, "sheet", sheet)


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


class U1FlatBundle(Frozen):
    """Flat circle-wreath bundle over a wedge: holonomy generators per loop."""

    __slots__ = _fields = ("k", "loops", "holonomy_gen")

    def __init__(self, k: int, loops: int, holonomy_gen: tuple[U1Wreath, ...]):
        if loops != len(holonomy_gen) or loops < 1:
            raise ValueError("generator count must match the loop count")
        for w in holonomy_gen:
            if w.k != k:
                raise ValueError("generator arity does not match the sheet count")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "loops", loops)
        object.__setattr__(self, "holonomy_gen", holonomy_gen)


def u1_winding_bundle(k: int, angles: Optional[Sequence[Fraction]] = None) -> U1FlatBundle:
    """The k-sheet winding model: one loop cycling the sheets, optional twist angles."""
    if k < 1:
        raise ValueError("sheet count must be >= 1")
    cycle = tuple((i + 1) % k for i in range(k))
    tup = tuple(angles) if angles is not None else (Fraction(0),) * k
    if len(tup) != k:
        raise ValueError("angle tuple has wrong arity")
    return U1FlatBundle(k, 1, (U1Wreath(tup, cycle),))


_Letters = dict[int, tuple[Permutation, tuple[tuple[int, int], ...]]]


def _letters(b: U1FlatBundle) -> _Letters:
    """Each letter +-i as (sigma, angles as (numerator, denominator) pairs).

    Letter -i is the inverse (x -> -angles[sigma(x)], sigma^-1), built once
    here; its numerators are negative, which the final ``% den`` in
    :func:`_move` reduces.
    """
    table: _Letters = {}
    for i, w in enumerate(b.holonomy_gen, 1):
        pairs = [(a.numerator, a.denominator) for a in w.angles]
        table[i] = (w.sigma, tuple(pairs))
        table[-i] = (perm_inverse(w.sigma), tuple((-pairs[y][0], pairs[y][1]) for y in w.sigma))
    return table


def _move(letters: _Letters, word: tuple[int, ...], start: FiberPoint) -> FiberPoint:
    """Move one point along the word, the first letter first.

    A letter costs one sheet lookup and one small-integer addition: the
    numerators of the angles the point reads are summed per denominator, and
    the sums are put over their lcm L, together with the start angle, once at
    the end.  So L is the lcm of the denominators this point actually meets,
    not of every generator angle: with many sheets of coprime denominators, a
    denominator over all of them would grow with the bundle, and every
    integer with it.
    """
    x = start.sheet
    sums: dict[int, int] = {}
    for letter in word:
        sigma, angles = letters[letter]
        x = sigma[x]
        n, d = angles[x]
        sums[d] = sums.get(d, 0) + n
    a = start.angle
    den = math.lcm(a.denominator, *sums)
    t = a.numerator * (den // a.denominator) + sum(n * (den // d) for d, n in sums.items())
    return FiberPoint(Fraction(t % den, den), x)


def holonomy_u1(b: U1FlatBundle, word) -> U1Wreath:
    """Holonomy of a loop word; the first traversed letter acts first.

    It is the element (angles, sigma) that moves (0, x) to where the word
    moves it, (angles[sigma(x)], sigma(x)), for every sheet x; so it equals
    the letters' elements multiplied right-to-left.  It is also the holonomy
    of the frame-torsor connection, since a frame is transported entrywise
    (:func:`frame_transport`).
    """
    w = validate_word(b.loops, word)
    config.check_circle_work(b.k * len(w), "holonomy sheet moves (k x |word|)")
    letters = _letters(b)
    angles = [Fraction(0)] * b.k
    sigma = [0] * b.k
    for x in range(b.k):
        p = _move(letters, w, FiberPoint(Fraction(0), x))
        sigma[x] = p.sheet
        angles[p.sheet] = p.angle
    return U1Wreath(tuple(angles), tuple(sigma))


def transport(b: U1FlatBundle, word, start: FiberPoint) -> FiberPoint:
    """Parallel transport of a fiber point around a loop word, one letter at a time.

    Equivariant under pure angle shifts: transporting (theta + d, x) lands at
    the transport of (theta, x) shifted by d on the same landing sheet.
    """
    w = validate_word(b.loops, word)
    config.check_circle_work(len(w), "transport letters (|word|)")
    if not (0 <= start.sheet < b.k):
        raise ValueError("point sheet out of range for this wreath element")
    return _move(_letters(b), w, start)


U1Frame = tuple[FiberPoint, ...]


def u1_canonical_frame(k: int) -> U1Frame:
    return tuple(FiberPoint(Fraction(0), x) for x in range(k))


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
    return U1FlatBundle(b.k, b.loops, tuple(scale_wreath(w, q) for w in b.holonomy_gen))


def scale_wreath(w: U1Wreath, q: int) -> U1Wreath:
    """Apply the sheet-wise power map to a wreath element (permutation kept)."""
    return U1Wreath(tuple(a * q for a in w.angles), w.sigma)


class DivisionFormReport(Frozen):
    """Forward-difference evaluation of the connection along a sampled path."""

    __slots__ = _fields = ("sheet", "rates", "constant_rate")

    def __init__(self, sheet: int, rates: tuple[Fraction, ...], constant_rate: Optional[Fraction]):
        object.__setattr__(self, "sheet", sheet)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "constant_rate", constant_rate)


def division_form_check(path: Iterable[FiberPoint], step: Fraction) -> DivisionFormReport:
    """Discrete shadow of the division form of the canonical connection.

    Consecutive samples are divided inside their common sheet (the division
    is the angle difference taken with representative in [0, 1)) and the
    forward difference quotient with the sampling step is reported.  A path
    with angle(t) = c t reproduces the rate c exactly whenever |c| step < 1;
    samples on mixed sheets have no quotient and are rejected.  Each pair of
    samples is put over the lcm L of its two denominators, so the rate is
    ((n1 - n0) mod L) / (L step) with n0, n1 the numerators over L.
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
    angles = [(p.angle.numerator, p.angle.denominator) for p in points]
    s_num, s_den = step.numerator, step.denominator
    rates = []
    for (n0, d0), (n1, d1) in zip(angles, angles[1:]):
        den = math.lcm(d0, d1)
        diff = n1 * (den // d1) - n0 * (den // d0)
        rates.append(Fraction(diff % den * s_den, den * s_num))
    constant = rates[0] if all(r == rates[0] for r in rates) else None
    return DivisionFormReport(sheet=sheet, rates=tuple(rates), constant_rate=constant)


def all_words(loops: int, max_len: int):
    """All loop words up to a length, in deterministic order."""
    letters = [i for i in range(1, loops + 1)] + [-i for i in range(1, loops + 1)]
    for length in range(max_len + 1):
        yield from itertools.product(letters, repeat=length)
