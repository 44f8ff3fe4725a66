"""Reference answers computed without importing ``framebundles``.

Everything here follows the conventions the CLI documents (0-based forward
image tables; the first letter of a word acts first; element labellings of
the named groups) and is written from those definitions, so that a defect in
the library cannot hide in its own oracle.  Orbits and cycle counts come from
``sympy.combinatorics``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from sympy.combinatorics import Permutation, PermutationGroup

# --------------------------------------------------------------------------
# Cayley tables in the library's documented labellings


def cyclic(n: int) -> list[list[int]]:
    """Z_n; element i is the residue i."""
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def symmetric(n: int) -> list[list[int]]:
    """S_n on lexicographically ordered permutations; st applies t first."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(s[t[x]] for x in range(n))] for t in perms] for s in perms]


def product(g: list[list[int]], h: list[list[int]]) -> list[list[int]]:
    """G x H with (a, b) packed as a * |H| + b."""
    k = len(h)
    return [
        [g[a1][a2] * k + h[b1][b2] for a2 in range(len(g)) for b2 in range(k)]
        for a1 in range(len(g))
        for b1 in range(k)
    ]


def alternating5() -> list[list[int]]:
    """A5 as the even permutations of S5, in lexicographic order."""
    perms = list(itertools.permutations(range(5)))
    even = [p for p in perms if _inversions(p) % 2 == 0]
    index = {p: i for i, p in enumerate(even)}
    return [[index[tuple(s[t[x]] for x in range(5))] for t in even] for s in even]


def _inversions(p) -> int:
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])


def dihedral(m: int) -> list[list[int]]:
    """Symmetries of the m-gon, r^i s^j packed as i + m j (order 2m)."""
    def mul(a, b):
        i, j = a % m, a // m
        k, l = b % m, b // m
        return (i + (k if j == 0 else -k)) % m + m * ((j + l) % 2)

    return [[mul(a, b) for b in range(2 * m)] for a in range(2 * m)]


def quaternion() -> list[list[int]]:
    """Q8 with elements +-1, +-i, +-j, +-k as (sign, unit) packed 2*unit + sign."""
    # unit products: units 0=1, 1=i, 2=j, 3=k; table[u][v] = (sign, unit)
    unit = [
        [(0, 0), (0, 1), (0, 2), (0, 3)],
        [(0, 1), (1, 0), (0, 3), (1, 2)],
        [(0, 2), (1, 3), (1, 0), (0, 1)],
        [(0, 3), (0, 2), (1, 1), (1, 0)],
    ]

    def mul(a, b):
        (sa, ua), (sb, ub) = (a % 2, a // 2), (b % 2, b // 2)
        s, u = unit[ua][ub]
        return 2 * u + (sa + sb + s) % 2

    return [[mul(a, b) for b in range(8)] for a in range(8)]


def relabel(mul: list[list[int]], perm: list[int]) -> list[list[int]]:
    """The same group with element a renamed perm[a]."""
    n = len(mul)
    inv = [0] * n
    for old, new in enumerate(perm):
        inv[new] = old
    return [[perm[mul[inv[a]][inv[b]]] for b in range(n)] for a in range(n)]


def identity_of(mul: list[list[int]]) -> int:
    n = len(mul)
    return next(e for e in range(n) if all(mul[e][a] == a for a in range(n)))


def inverses(mul: list[list[int]]) -> list[int]:
    e = identity_of(mul)
    return [row.index(e) for row in mul]


# --------------------------------------------------------------------------
# Automorphism groups from the literature: key -> (|Aut(G)|, classes of Aut(G))

AUT_LITERATURE = {
    "S3": (6, 3),  # Aut(S3) = S3
    "S4": (24, 5),  # Aut(S4) = S4
    "S5": (120, 7),  # Aut(S5) = S5
    "A5": (120, 7),  # Aut(A5) = S5
    "Q8": (24, 5),  # Aut(Q8) = S4
    "D5": (20, 5),  # Aut(D5) = F20 = Z5 x| Z4
    "D6": (12, 6),  # Aut(D6) = Hol(Z6) = D6
    "Z2^3": (168, 6),  # GL(3, 2)
    "Z3^2": (48, 8),  # GL(2, 3)
    "Z2xZ4": (8, 5),  # Aut(Z2 x Z4) = D4
    "S3xZ3": (12, 6),  # Aut(S3) x Aut(Z3) = S3 x Z2
    "S4xZ2": (48, 10),  # Aut(S4) x Hom(S4, Z2) = S4 x Z2
}


def euler_phi(n: int) -> int:
    return sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


def aut_literature(key: str) -> tuple[int, int]:
    """(|Aut(G)|, class count); Aut(Z_n) is the abelian unit group, phi(n) classes."""
    if key.startswith("Z") and key[1:].isdigit():
        phi = euler_phi(int(key[1:]))
        return phi, phi
    return AUT_LITERATURE[key]


def is_automorphism(mul: list[list[int]], image: list[int]) -> bool:
    n = len(mul)
    if len(image) != n or sorted(image) != list(range(n)):
        return False
    return all(
        image[mul[a][b]] == mul[image[a]][image[b]] for a in range(n) for b in range(n)
    )


def cycle_count(image: list[int]) -> int:
    """Cycles of a permutation, fixed points included."""
    return Permutation(list(image)).cycles


# --------------------------------------------------------------------------
# Finite flat bundles with standard semi-torsor fibers G x I_n


def wreath_table(mul: list[list[int]], n: int, g: list[int], sigma: list[int]) -> list[int]:
    """Carrier map of (g, sigma): (h, x) -> (h . g[sigma(x)]^-1, sigma(x)), (h, x) = h*n + x."""
    inv = inverses(mul)
    out = [0] * (len(mul) * n)
    for h in range(len(mul)):
        for x in range(n):
            sx = sigma[x]
            out[h * n + x] = mul[h][inv[g[sx]]] * n + sx
    return out


def orbit_partition(tables: list[list[int]], size: int) -> set[frozenset[int]]:
    group = PermutationGroup([Permutation(list(t), size=size) for t in tables])
    return {frozenset(o) for o in group.orbits()}


def invert(table: list[int]) -> list[int]:
    out = [0] * len(table)
    for x, y in enumerate(table):
        out[y] = x
    return out


def finite_holonomy(tables: list[list[int]], word: list[int]) -> list[int]:
    """Where each carrier point ends after traversing the word, first letter first."""
    inverse = [invert(t) for t in tables]
    value = list(range(len(tables[0])))
    for letter in word:
        step = tables[letter - 1] if letter > 0 else inverse[-letter - 1]
        value = [step[p] for p in value]
    return value


# --------------------------------------------------------------------------
# Circle wreath holonomy, exact


def u1_transport(gens, word, angle: Fraction, sheet: int) -> tuple[Fraction, int]:
    """Transport (angle, sheet) along the word; gens are (angles, perm) pairs.

    A generator moves (t, x) to (t + angles[perm(x)], perm(x)); its inverse
    moves (t, y) to (t - angles[y], perm^-1(y)).  Angles are summed as
    integers over the common denominator so the cost stays linear.
    """
    den = math.lcm(*(a.denominator for angles, _ in gens for a in angles), angle.denominator)
    nums = [[a.numerator * (den // a.denominator) for a in angles] for angles, _ in gens]
    perms = [list(p) for _, p in gens]
    invs = [invert(p) for p in perms]
    t = angle.numerator * (den // angle.denominator)
    x = sheet
    for letter in word:
        i = abs(letter) - 1
        if letter > 0:
            x = perms[i][x]
            t += nums[i][x]
        else:
            t -= nums[i][x]
            x = invs[i][x]
    return Fraction(t % den, den), x


def u1_holonomy(gens, word, k: int) -> tuple[list[Fraction], list[int]]:
    """The wreath element (angles, sigma) that moves (0, x) like the word does."""
    angles = [Fraction(0)] * k
    sigma = [0] * k
    for x in range(k):
        t, y = u1_transport(gens, word, Fraction(0), x)
        sigma[x] = y
        angles[y] = t
    return angles, sigma


def division_rates(points: list[tuple[Fraction, int]], step: Fraction) -> list[Fraction]:
    return [((b - a) % 1) / step for (a, _), (b, _) in zip(points, points[1:])]
