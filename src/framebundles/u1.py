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

A sampled path reaches :func:`division_form_check` as a stream of
``(numerator, denominator, sheet)`` triples of ints, as ``specdoc.parse_path``
reads them: no ``Fraction`` or ``FiberPoint`` is built per sample, and each
distinct rate becomes one ``Fraction`` (up to ``_SHARED_RATES`` of them).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from . import config
from .errors import NoQuotient
from .perms import Permutation, perm_inverse, validate_word
from .records import Frozen


def _mod1(a: Fraction) -> Fraction:
    """The angle ``a`` names, in [0, 1): ``a`` itself when it is already there."""
    return a if 0 <= a.numerator < a.denominator else a % 1


class U1Wreath(Frozen):
    """An element (angles, sigma) of the circle wreath product on k sheets."""

    __slots__ = _fields = ("angles", "sigma")

    def __init__(self, angles: tuple[Fraction, ...], sigma: Permutation):
        super().__init__(tuple(map(_mod1, angles)), sigma)

    @property
    def k(self) -> int:
        return len(self.sigma)


class FiberPoint(Frozen):
    """A point of the fiber: an exact angle on one of the k sheets."""

    __slots__ = _fields = ("angle", "sheet")

    def __init__(self, angle: Fraction, sheet: int):
        super().__init__(_mod1(angle), sheet)


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
        super().__init__(k, loops, holonomy_gen)


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


# Distinct rates of one path that share a ``Fraction``: a sampled path
# repeats a few rates (1 to 401 distinct values in 20,000 samples of the
# benchmark's paths), and past this many the table would only hold memory.
_SHARED_RATES = 1024


class DivisionFormReport(Frozen):
    """Forward-difference evaluation of the connection along a sampled path."""

    __slots__ = _fields = ("sheet", "rates", "constant_rate")


def division_form_check(samples: Iterable[tuple[int, int, int]], step) -> DivisionFormReport:
    """Discrete shadow of the division form of the canonical connection.

    Consecutive samples are divided inside their common sheet (the division
    is the angle difference taken with representative in [0, 1)) and the
    forward difference quotient with the sampling step is reported.  A path
    with angle(t) = c t reproduces the rate c exactly whenever |c| step < 1;
    samples on mixed sheets have no quotient and are rejected.

    Each sample is a ``(numerator, denominator, sheet)`` triple of ints, the
    angle numerator/denominator with a positive denominator, as
    ``specdoc.parse_path`` streams them.  The samples are read once, in
    order, and all of them before a sheet crossing is reported, so a bad
    sample later in a stream still raises its own error.  Each pair is put
    over the lcm L of its two denominators, so the rate is
    ((n1 - n0) mod L) / (L step) with n0, n1 the numerators over L.  Each of
    the first ``_SHARED_RATES`` distinct rates becomes one ``Fraction``,
    shared by every pair that has it; a rate past them is built for each
    pair, so a path whose rates are all distinct keeps no table of them.
    """
    it = iter(samples)
    first, second = next(it, None), next(it, None)
    if second is None:
        raise ValueError("need at least two samples")
    step = Fraction(step)
    if step <= 0:
        raise ValueError("step must be positive")
    s_num, s_den = step.numerator, step.denominator
    n0, d0, sheet = first
    crossed = False
    known: dict[tuple[int, int], Fraction] = {}
    rates = []
    for n1, d1, x in itertools.chain((second,), it):
        if x != sheet:
            crossed = True
        if d0 == d1:
            num, den = (n1 - n0) % d0, d0
        else:
            den = math.lcm(d0, d1)
            num = (n1 * (den // d1) - n0 * (den // d0)) % den
        num, den = num * s_den, den * s_num
        g = math.gcd(num, den)
        key = (num // g, den // g)
        rate = known.get(key)
        if rate is None:
            rate = Fraction(*key)
            if len(known) < _SHARED_RATES:
                known[key] = rate
        rates.append(rate)
        n0, d0 = n1, d1
    if crossed:
        raise NoQuotient("samples cross sheets; division is undefined")
    constant = rates[0] if len(known) == 1 else None
    return DivisionFormReport(sheet=sheet, rates=tuple(rates), constant_rate=constant)


def all_words(loops: int, max_len: int):
    """All loop words up to a length, in deterministic order."""
    letters = [i for i in range(1, loops + 1)] + [-i for i in range(1, loops + 1)]
    for length in range(max_len + 1):
        yield from itertools.product(letters, repeat=length)
