"""Independent routes used as test oracles: the Cayley table of a list of
elements under a product (and the tables of the wreath product, Aut(G) and
Aut(F) built with it, which the library never builds), conjugacy classes of
a table, element orders one power walk per element, the raw endomorphism
search, the product search for automorphisms, the cubic associativity check,
the all-pairs action, equivariance and symmetric-action laws that the library
checks on generator edges, maps on frame spaces tabulated one frame at a
time, the frame bundle with every clutching map lifted over all frames, and
a few group tables; and ``hom``, the image table of a homomorphism
checked by ``groups.check_hom``, with ``is_isomorphism``, its bijectivity."""

from __future__ import annotations

import itertools
import random

from framebundles.bundles import flat_bundle
from framebundles.errors import BoundExceeded
from framebundles.frame_tables import EquivalenceReport, gset_homs, lift_table, wreath_elements
from framebundles.frames import enumerate_frames, frame_divide, wreath_act, wreath_mul
from framebundles.groups import FiniteGroup, automorphisms, check_hom, from_mul_table, table_group
from framebundles.gsets import trivial_gset
from framebundles.perms import perm_compose, perm_orbits


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


def wreath_table(G: FiniteGroup, n: int) -> FiniteGroup:
    """G wr I_n as the Cayley table of ``wreath_elements(G, n)`` under ``wreath_mul``."""
    return cayley_group(wreath_elements(G, n), wreath_mul, f"{G.label}wr{n}")


def aut_table(G: FiniteGroup) -> FiniteGroup:
    """Aut(G) as the Cayley table of the image tables of ``automorphisms(G)``,
    element i being the i-th automorphism, ``i j`` applying j first."""
    return cayley_group(automorphisms(G), perm_compose, f"Aut({G.label})")


def hom(source: FiniteGroup, target: FiniteGroup, image) -> tuple[int, ...]:
    """The image table of a homomorphism, checked by ``check_hom``."""
    image = tuple(image)
    check_hom(source, target, image)
    return image


def is_isomorphism(image, target: FiniteGroup) -> bool:
    """Whether the image table of a homomorphism into ``target`` is a bijection."""
    return len(image) == target.order == len(set(image))


def conjugacy_classes(G: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """Partition of the elements under g ~ h g h^-1.

    The classes are the orbits of conjugation by a generating set, which
    generates every inner automorphism.  Classes are sorted tuples, listed in
    order of their smallest member, so the output is canonical.
    """
    mul, inv = G.mul, G.inv
    conjugations = [
        tuple([mul[mul[h][a]][inv[h]] for a in range(G.order)]) for h in G.generators
    ]
    return perm_orbits(conjugations, G.order)[1]


def element_orders_by_walk(G: FiniteGroup) -> tuple[int, ...]:
    """The order of every element, walking the powers of each element on its own."""
    orders = []
    for a in range(G.order):
        x, n = a, 1
        while x != G.identity:
            x = G.mul[x][a]
            n += 1
        orders.append(n)
    return tuple(orders)


def gset_aut_table(F) -> FiniteGroup:
    """Aut(F) as the Cayley table of the value tables of ``gset_homs(F, F)``."""
    return cayley_group(gset_homs(F, F), perm_compose, "Aut(F)")


def frame_functor_map(value):
    """The frame lift ``t -> value . t`` of an equivariant map's value table,
    as a map on frames."""
    return lambda t: tuple(value[p] for p in t)


def act_table_per_frame(fs, w) -> list:
    """``frame_tables.act_table`` one ``wreath_act`` call per frame: the index of
    each image, None where it is not a frame."""
    return [fs.index.get(wreath_act(fs.base_gset, w, t)) for t in fs.frames]


def lift_table_per_frame(source, target, value) -> list:
    """``frame_tables.lift_table`` one lifted frame at a time."""
    lift = frame_functor_map(value)
    index = enumerate_frames(target).index
    return [index.get(lift(t)) for t in enumerate_frames(source).frames]


def full_lift_bundle(b):
    """The frame bundle of ``b`` as a flat bundle: each clutching map lifted
    over every frame by ``frame_tables.lift_table``, on the frames as a bare set;
    its components are the ones ``bundles.frame_components`` counts."""
    F = b.fiber
    return flat_bundle(trivial_gset(len(enumerate_frames(F).frames)),
                       [lift_table(F, F, a) for a in b.clutching])


def equivalence_per_frame(F, F2) -> EquivalenceReport:
    """``frame_tables.check_equivalence`` without the generator check: each lifted
    table beside its torsor twin ``w . base -> w . u``, one frame at a time,
    counting the distinct torsor tables."""
    fs1, fs2 = enumerate_frames(F), enumerate_frames(F2)
    homs = gset_homs(F, F2)
    divisions = [frame_divide(fs1, t, fs1.frames[0]) for t in fs1.frames]
    torsors, mismatch = set(), None
    for u, a in zip(fs2.frames, homs):
        lift = tuple(lift_table_per_frame(F, F2, a))
        torsor = tuple(fs2.index[wreath_act(F2, w, u)] for w in divisions)
        torsors.add(torsor)
        if mismatch is None and lift != torsor:
            mismatch = (u, lift, torsor)
    return EquivalenceReport(len(homs), len(torsors), mismatch)


def is_abelian(G: FiniteGroup) -> bool:
    """Whether every pair of elements commutes, by the quadratic loop."""
    return all(G.mul[a][b] == G.mul[b][a] for a in range(G.order) for b in range(G.order))


def endomorphisms_brute(G: FiniteGroup) -> list[tuple[int, ...]]:
    """The image tables of all endomorphisms by raw table search; exponential,
    tiny groups only.

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
            out.append(image)
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


def product_search_automorphisms(G: FiniteGroup) -> list[tuple[int, ...]]:
    """The image tables of all automorphisms of G, sorted, by trying every tuple
    of same-order images of a greedy generating set and checking the
    homomorphism law on all pairs (the search ``automorphisms`` replaced)."""
    gens = G.generators
    order_of = element_orders_by_walk(G)
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
            auts.append(tuple(table))
    return sorted(auts)


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


def action_law_holds(G: FiniteGroup, act) -> bool:
    """Whether ``act[g h] = act[g]`` after ``act[h]`` for every pair (g, h),
    by the loop over all |G|^2 pairs."""
    return all(
        tuple(act[G.mul[g][h]]) == perm_compose(act[g], act[h])
        for g in range(G.order)
        for h in range(G.order)
    )


def is_equivariant_everywhere(src, tgt, xi, val) -> bool:
    """Whether ``val[g f] = xi(g) val[f]`` for every g in the group and
    every point f, by the loop over all of them."""
    return all(
        val[src.act[g][f]] == tgt.act[xi[g]][val[f]]
        for g in range(src.group.order)
        for f in range(src.size)
    )


def is_homomorphism_on_all_pairs(action) -> bool:
    """Whether the map ``action`` from permutations to image tables respects
    the product of every pair of permutations."""
    return all(
        tuple(action[perm_compose(s, t)]) == perm_compose(action[s], action[t])
        for s in action
        for t in action
    )


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
