"""The circle wreath product in plain ``Fraction`` arithmetic, as a test oracle.

An element is ``(angles, sigma)`` with ``angles`` a tuple of ``Fraction`` in
[0, 1) and ``sigma`` an image table.  This module holds the only record-free
``Fraction`` arithmetic of the circle wreath product: its identity, product,
inverse and point action.  The library has no product of two elements; it
folds a word in integers over a common denominator (``u1.holonomy_u1`` and
``u1.transport``).  Here a word's holonomy is the product of its letters'
elements right-to-left, each inverse letter inverted on its own.  Nothing
here calls the library's arithmetic.
"""

from __future__ import annotations

from fractions import Fraction


def of(w) -> tuple[tuple[Fraction, ...], tuple[int, ...]]:
    """A library ``U1Wreath`` as a Fraction pair."""
    return tuple(w.angles), tuple(w.sigma)


def identity(k: int):
    return (Fraction(0),) * k, tuple(range(k))


def inverse_perm(sigma):
    out = [0] * len(sigma)
    for x, y in enumerate(sigma):
        out[y] = x
    return tuple(out)


def mul(a, b):
    """(a, s)(a', s') = (x -> a[x] + a'[s^-1(x)], s s'), angles mod 1."""
    (angles, s), (angles2, s2) = a, b
    s_inv = inverse_perm(s)
    return (
        tuple((angles[x] + angles2[s_inv[x]]) % 1 for x in range(len(s))),
        tuple(s[y] for y in s2),
    )


def inv(a):
    angles, s = a
    return tuple(-angles[s[x]] % 1 for x in range(len(s))), inverse_perm(s)


def holonomy(gens, word, k: int):
    """Fold the word right-to-left over Fraction pairs ``gens``."""
    out = identity(k)
    for letter in word:
        gen = gens[abs(letter) - 1]
        if letter < 0:
            gen = inv(gen)
        out = mul(gen, out)
    return out


def act(h, angle: Fraction, sheet: int) -> tuple[Fraction, int]:
    """(angles, s) . (theta, x) = (theta + angles[s(x)], s(x))."""
    angles, s = h
    return (angle + angles[s[sheet]]) % 1, s[sheet]


def frame_transport(h, frame):
    """Slot x of the moved frame is (angles[x] + theta, sheet) of old slot s^-1(x)."""
    angles, s = h
    s_inv = inverse_perm(s)
    return tuple(((angles[x] + frame[s_inv[x]][0]) % 1, frame[s_inv[x]][1]) for x in range(len(s)))


def scale(h, q: int):
    angles, s = h
    return tuple(a * q % 1 for a in angles), s


def rates(angles, step: Fraction) -> tuple[Fraction, ...]:
    """Forward differences of sampled angles, taken in [0, 1), over the step."""
    return tuple((a1 - a0) % 1 / step for a0, a1 in zip(angles, angles[1:]))
