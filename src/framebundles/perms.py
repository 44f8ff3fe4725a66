"""The permutation kernel of the library.

Permutations are forward image tables of ``0 .. n-1``.  :func:`perm_orbits`
is the one orbit algorithm of the library, and :func:`first_broken_edge` the
one proof of a homomorphism law on the generator edges of a Cayley graph;
``groups`` reads both for its Cayley tables.  A loop word over a wedge of
circles is checked here too, so a circle request, which reads permutations
and words but no group, loads no ``groups``.
"""

from __future__ import annotations

# A permutation of 0 .. n-1 as its forward image table.
Permutation = tuple[int, ...]


def perm_inverse(sigma: Permutation) -> Permutation:
    out = [0] * len(sigma)
    for x, y in enumerate(sigma):
        out[y] = x
    return tuple(out)


def perm_compose(s: Permutation, t: Permutation) -> Permutation:
    """s after t, as image tables: (s t)(x) = s(t(x))."""
    return tuple([s[y] for y in t])


def is_permutation(p, n: int) -> bool:
    """Whether ``p`` is the image table of a permutation of 0 .. n-1; an entry
    that is not an int in that range, ``None`` included, makes it false."""
    return len(p) == n and set(map(type, p)) <= {int} and set(p) == set(range(n))


def perm_orbits(perms, size: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The orbits on 0 .. size-1 of the group the tables ``perms`` generate.

    Returns ``(orbit_of, members)``: orbits are numbered by their smallest
    point and ``members[k]`` lists the points of orbit k in ascending order.
    Forward images suffice, since a permutation of a finite set has its
    inverse among its powers (Holt, Eick & O'Brien, *Handbook of
    Computational Group Theory*, 2005, section 4.1).
    """
    orbit_of = [-1] * size
    members = []
    for start in range(size):
        if orbit_of[start] >= 0:
            continue
        k = len(members)
        orbit_of[start] = k
        orbit = [start]
        for p in orbit:  # ``orbit`` grows while it is walked
            for perm in perms:
                q = perm[p]
                if orbit_of[q] < 0:
                    orbit_of[q] = k
                    orbit.append(q)
        orbit.sort()
        members.append(tuple(orbit))
    return tuple(orbit_of), tuple(members)


def cycle_count(p: Permutation) -> int:
    """The number of cycles of the table ``p``, fixed points included.

    These are the orbits of the group ``p`` generates, so the count equals
    ``len(perm_orbits([p], len(p))[1])``, from one walk over ``p``.
    """
    seen = bytearray(len(p))
    count = 0
    for start in range(len(p)):
        if not seen[start]:
            count += 1
            x = start
            while not seen[x]:
                seen[x] = 1
                x = p[x]
    return count


def first_broken_edge(image, compose, identity: int, gens, moves) -> tuple[int, int] | None:
    """The first pair ``(a, s)`` with ``image[a s] != compose(image[a], image[s])``, or None.

    ``compose`` multiplies images, and ``moves[k]`` is the table ``a -> a s``
    of right multiplication by ``s = gens[k]``.  Only ``(e, e)`` and the
    Cayley-graph edges ``(a, s)`` are checked, |G| |gens| + 1 pairs for |G|^2.
    When no edge is broken, raises ValueError unless the moves make one orbit.

    Lemma: a map phi into a group with phi(e) phi(e) = phi(e), that is
    phi(e) = e, and phi(as) = phi(a) phi(s) for every a and every s in a set
    S whose right multiplications make one orbit, is a homomorphism.  The
    orbit of e is the set of products s_1 ... s_k over S, so the whole group.
    Induct on k for b = s_1 ... s_k: phi(ae) = phi(a) phi(e), and for b = cs
    with c shorter, phi(acs) = phi(ac) phi(s) = phi(a) phi(c) phi(s) =
    phi(a) phi(cs), by the edge at ac, the induction and the edge at c.

    The proof needs only associativity and phi(e) = e, so it holds in a
    monoid of maps too, as for an action table, where the ``(e, e)`` check
    shows only that phi(e) is idempotent: ``GSet.validate`` checks the
    identity row itself.  The laws it proves are listed in the docstring of
    ``groups``.
    """
    if compose(image[identity], image[identity]) != image[identity]:
        return identity, identity
    for s, move in zip(gens, moves):
        for a, a_s in enumerate(move):
            if image[a_s] != compose(image[a], image[s]):
                return a, s
    size = len(image)
    orbit_of, members = perm_orbits(moves, size)
    reached = len(members[orbit_of[identity]])
    if reached != size:
        raise ValueError(f"the generators reach {reached} of {size} elements")
    return None


def validate_word(loops: int, word) -> tuple[int, ...]:
    """A loop word over a wedge of ``loops`` circles: letters +-1 .. +-loops."""
    w = tuple(int(x) for x in word)
    for letter in w:
        if letter == 0 or abs(letter) > loops:
            raise ValueError(f"letter {letter} outside +-1..+-{loops}")
    return w
