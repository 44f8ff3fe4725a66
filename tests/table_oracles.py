"""Independent routes used as test oracles: the Cayley table of a list of
elements under a product, the raw endomorphism search, the product search
for automorphisms, the cubic associativity check, and a few group tables."""

from __future__ import annotations

import itertools
import random

from framebundles.errors import BoundExceeded
from framebundles.groups import (
    FiniteGroup,
    GroupHom,
    from_mul_table,
    perm_compose,
    table_group,
)


# A loop of order 5: a Latin square with identity 0, each element its own
# inverse, and not associative (the smallest such order).
LOOP_5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def cayley_group(keys, product, label: str) -> FiniteGroup:
    """The group whose element i is ``keys[i]``, multiplied by ``product``.

    ``keys`` are hashable and closed under ``product(a, b)``, which returns
    the key of the product.
    """
    index = {k: i for i, k in enumerate(keys)}
    mul = tuple(tuple(index[product(a, b)] for b in keys) for a in keys)
    return table_group(mul, label)


def endomorphisms_brute(G: FiniteGroup) -> list[GroupHom]:
    """All endomorphisms by raw table search; exponential, tiny groups only.

    Kept as an independent cross-check route for the backtracking enumerator.
    """
    if G.order > 8:
        raise BoundExceeded("brute endomorphism search is limited to order <= 8")
    out = []
    for image in itertools.product(range(G.order), repeat=G.order):
        if image[G.identity] != G.identity:
            continue
        if all(
            image[G.mul[a][b]] == G.mul[image[a]][image[b]]
            for a in range(G.order)
            for b in range(G.order)
        ):
            out.append(GroupHom(G, G, image))
    return out


def _discovery_order(G: FiniteGroup, gens: list[int]):
    """BFS from the identity; yields (element, parent, generator) triples."""
    parent: dict[int, tuple[int, int]] = {}
    order = [G.identity]
    frontier = [G.identity]
    found = {G.identity}
    while frontier:
        nxt = []
        for a in frontier:
            for s in gens:
                b = G.mul[a][s]
                if b not in found:
                    found.add(b)
                    parent[b] = (a, s)
                    order.append(b)
                    nxt.append(b)
        frontier = nxt
    return order, parent


def product_search_automorphisms(G: FiniteGroup) -> list[GroupHom]:
    """All automorphisms of G, sorted by image table, by trying every tuple
    of same-order images of a greedy generating set and checking the
    homomorphism law on all pairs (the search ``automorphisms`` replaced)."""
    gens = G.generators
    order_of = [G.element_order(a) for a in range(G.order)]
    discovery, parent = _discovery_order(G, gens)
    candidates_per_gen = [
        [b for b in range(G.order) if order_of[b] == order_of[s]] for s in gens
    ]
    auts = []
    for images in itertools.product(*candidates_per_gen):
        gen_image = dict(zip(gens, images))
        table = [0] * G.order
        table[G.identity] = G.identity
        for a in discovery[1:]:
            p, s = parent[a]
            table[a] = G.mul[table[p]][gen_image[s]]
        if len(set(table)) != G.order:
            continue
        ok = all(
            table[G.mul[a][b]] == G.mul[table[a]][table[b]]
            for a in range(G.order)
            for b in range(G.order)
        )
        if ok:
            auts.append(GroupHom(G, G, tuple(table)))
    auts.sort(key=lambda h: h.image)
    return auts


def associativity_failures(mul) -> list[tuple[int, int, int]]:
    """Every triple (a, b, c) with (ab)c != a(bc), by the cubic loop."""
    n = len(mul)
    return [
        (a, b, c)
        for a in range(n)
        for b in range(n)
        for c in range(n)
        if mul[mul[a][b]][c] != mul[a][mul[b][c]]
    ]


def permutation_table(perms) -> list[list[int]]:
    """The Cayley table of a list of permutations closed under composition."""
    return [list(row) for row in cayley_group(list(perms), perm_compose, "P").mul]


def alternating5_table() -> list[list[int]]:
    perms = [
        p for p in itertools.permutations(range(5))
        if sum(p[i] > p[j] for i in range(5) for j in range(i + 1, 5)) % 2 == 0
    ]
    return permutation_table(perms)


def dihedral_table(m: int) -> list[list[int]]:
    """The symmetries of a regular m-gon as permutations of its vertices."""
    rotations = [tuple((i + r) % m for i in range(m)) for r in range(m)]
    reflections = [tuple((r - i) % m for i in range(m)) for r in range(m)]
    return permutation_table(rotations + reflections)


def quaternion_table() -> list[list[int]]:
    """Q8 as its regular permutation representation on +-1, +-i, +-j, +-k."""
    # unit u in 0..3 (1, i, j, k) with sign s packs as 2u + s
    unit_mul = {(0, u): (u, 0) for u in range(4)}
    unit_mul.update({(u, 0): (u, 0) for u in range(4)})
    for u in (1, 2, 3):
        unit_mul[(u, u)] = (0, 1)
        v, w = u % 3 + 1, (u + 1) % 3 + 1
        unit_mul[(u, v)] = (w, 0)
        unit_mul[(v, u)] = (w, 1)

    def mul(a, b):
        (ua, sa), (ub, sb) = divmod(a, 2), divmod(b, 2)
        u, s = unit_mul[(ua, ub)]
        return 2 * u + (s ^ sa ^ sb)

    return [[mul(a, b) for b in range(8)] for a in range(8)]


def relabelled(mul, seed: int) -> FiniteGroup:
    """The table of ``mul`` under a seeded random renaming of its elements."""
    n = len(mul)
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[mul[a][b]]
    return from_mul_table(out)
