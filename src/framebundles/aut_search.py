"""The search for generators of Aut(G), and the classes of Aut(G).

``groups.FiniteGroup._aut`` imports this module on first use, so only a
request that needs Aut(G) compiles it; ``groups.automorphisms`` lists Aut(G)
from the generators found here, and :func:`automorphism_classes`, which only
``classify-circle`` reads, classifies it.  ``groups`` and ``perms`` are read
as module attributes at call time, so a function patched into them is the
one called.
"""

from __future__ import annotations

import math

from . import config, groups, perms


def element_orders(G: groups.FiniteGroup) -> tuple[int, ...]:
    """The order of every element, by one power walk per cyclic subgroup:
    a, a^2, ..., a^m = e from each ``a`` not yet reached, where a^j has
    order m / gcd(m, j)."""
    orders = [0] * G.order
    for a in range(G.order):
        if not orders[a]:
            powers = [a]
            while powers[-1] != G.identity:
                powers.append(G.mul[powers[-1]][a])
            for j, x in enumerate(powers, 1):
                orders[x] = len(powers) // math.gcd(len(powers), j)
    return tuple(orders)


def aut_generators(G: groups.FiniteGroup) -> tuple[tuple[perms.Permutation, ...], int]:
    """Generators of Aut(G) as image tables, and |Aut(G)|, from one backtrack
    over a stabilizer chain pruned by the automorphisms found so far (Holt,
    Eick & O'Brien, *Handbook of Computational Group Theory*, 2005, ch. 4, 8).

    Level k sends the k-th greedy generator g_k to an element of its order and
    extends the partial map phi over the subgroup of g_0 .. g_k along the
    Cayley graph, phi(as) = phi(a)phi(s), cutting a branch at the first edge
    that disagrees or the first repeated image.  A leaf has phi(e) = e and
    has passed every edge, so it is a homomorphism by the lemma of
    :func:`~framebundles.perms.first_broken_edge`; injective, it is an
    automorphism.

    Let S_k fix g_0 .. g_(k-1), so S_0 = Aut(G) and S_m = 1.  From k = m-1 up
    to 0, with g_0 .. g_(k-1) fixed, an image t of g_k is searched only when t
    is outside the orbit of g_k under the generators found so far, and its
    first leaf becomes a generator.  Each t in the orbit O_k of g_k under S_k
    has a leaf, so if those of levels > k generate S_(k+1), all found generate
    a subgroup H of S_k with orbit O_k and a stabilizer of g_k containing
    S_(k+1): |H| >= |O_k| |S_(k+1)| = |S_k| by orbit-stabilizer, H = S_k, and
    |Aut(G)| is the product of the orbit lengths.  The searched subtrees are
    disjoint (one of level k fixes g_j for j < k and moves g_k) and lie in the
    tree of all same-order images that the full listing walked, so the search
    visits no more nodes than the listing did.
    """
    config.check_table_order(G.order)
    config.check_enumeration(G.order, "automorphism search space base")
    mul = G.mul
    gens = G.generators
    order_of = element_orders(G)
    candidates = [[b for b in range(G.order) if order_of[b] == order_of[s]] for s in gens]
    phi = [-1] * G.order  # the partial map, -1 outside the current subgroup
    used = [False] * G.order
    phi[G.identity] = G.identity
    used[G.identity] = True
    found: list[perms.Permutation] = []  # the generators, deepest level first
    lengths: list[int] = []  # the orbit length of each level

    def extend(domain, pairs, new) -> bool:
        """Extend phi from ``domain`` = H_(k-1) over H_k, given the
        (generator, image) pairs of levels 0..k, appending the new points."""
        # old points need only the newest edge; ``new`` grows while it is walked
        for points, edges in ((domain, pairs[-1:]), (new, pairs)):
            for a in points:
                row, image_row = mul[a], mul[phi[a]]
                for s, t in edges:
                    b, c = row[s], image_row[t]
                    if phi[b] < 0 and not used[c]:
                        phi[b] = c
                        used[c] = True
                        new.append(b)
                    elif phi[b] != c:
                        return False
        return True

    def branch(domain, pairs, below):
        """Run ``below`` on phi extended by ``pairs`` (False if it cannot be), then restore phi."""
        new: list[int] = []
        result = extend(domain, pairs, new) and below(domain + new, pairs)
        for b in new:
            used[phi[b]] = False
            phi[b] = -1
        return result

    def leaf(domain, pairs):
        """The image table of the first leaf below ``pairs``, or None."""
        k = len(pairs)
        if k == len(gens):
            return tuple(phi)
        for t in candidates[k]:
            image = branch(domain, pairs + [(gens[k], t)], leaf)
            if image:
                return image
        return None

    def level(domain, pairs) -> None:
        """Levels m-1 .. k = len(pairs), phi the identity on ``domain`` = <g_0 .. g_(k-1)>."""
        k = len(pairs)
        if k == len(gens):
            return
        s = gens[k]
        branch(domain, pairs + [(s, s)], level)
        orbit = {s}
        for t in candidates[k]:
            image = t not in orbit and branch(domain, pairs + [(s, t)], leaf)
            if image:
                found.append(image)
                orbit_of, members = perms.perm_orbits(found, G.order)
                orbit = set(members[orbit_of[s]])
        lengths.append(len(orbit))

    level([G.identity], [])
    return tuple(found), math.prod(lengths)


def automorphism_classes(G: groups.FiniteGroup):
    """``(auts, classes, abelian)``: ``auts = groups.automorphisms(G)``, the
    conjugacy classes of Aut(G) as sorted tuples of indices into ``auts`` in
    order of their least member, so that the representative ``auts[cls[0]]``
    has the least image table, and whether Aut(G) is abelian.  The classes are
    the orbits of conjugation by the generators of :func:`aut_generators`, each
    conjugate found by its images of ``G.generators``, and Aut(G) is abelian
    iff those commute; none of the three depends on which generators these are."""
    auts = groups.automorphisms(G)
    found, gens = G._aut[0], G.generators
    index = {tuple([h[s] for s in gens]): i for i, h in enumerate(auts)}
    conjugations = []
    for c in found:  # c p c^-1 sends s to c(p(c^-1(s)))
        points = [c.index(s) for s in gens]
        conjugations.append(tuple([index[tuple([c[h[x]] for x in points])] for h in auts]))
    commute = all([h[k[s]] for s in gens] == [k[h[s]] for s in gens]
                  for h in found for k in found)
    return auts, perms.perm_orbits(conjugations, len(auts))[1], commute
