"""Exact arithmetic for small finite groups given by Cayley tables.

Elements are dense integer indices ``0 .. order-1``.  Element 0 is *not*
required to be the identity; the identity index is stored explicitly so that
product and subgroup constructions can keep their natural labelling.

The module is also the permutation and Cayley-table kernel of the library:
permutations are forward image tables, and :func:`permutation_group`
tabulates a group of permutations from their values on a *base*, a list of
points on which no two of them agree, which is how Sym(n) is built.
:func:`table_group` reads the identity and the inverses off a finished
table.  :func:`perm_orbits` is the one orbit algorithm of the library.

A group that the library reads only through its generators gets no table:
:func:`first_broken_edge` proves a homomorphism law on the generator edges
of the Cayley graph, and :func:`automorphism_classes` classifies Aut(G)
from a generating set of it.  The lemma proves associativity (Light's test
in :meth:`FiniteGroup.validate`), the homomorphism law of :class:`GroupHom`,
of ``verify wreath-iso`` and of ``bundles.sn_labelling``, and the action law
of ``gsets.GSet``; ``gsets.check_equivariant`` checks only generators by the
same closure argument.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

from . import config
from .errors import BoundExceeded
from .records import Frozen

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
    """Whether ``p`` is the image table of a permutation of 0 .. n-1."""
    return sorted(p) == list(range(n))


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


def greedy_generators(order: int, identity: int, right_mul) -> tuple[tuple[int, ...], tuple]:
    """An irredundant generating set and its tables ``right_mul(a)``, ``x -> x a``:
    each generator is the smallest element outside the subgroup of those
    before it, the orbit of the identity under their right multiplications."""
    gens: list[int] = []
    columns: list[Permutation] = []
    orbit_of, _ = perm_orbits(columns, order)
    for a in range(order):
        if orbit_of[a] != orbit_of[identity]:
            gens.append(a)
            columns.append(right_mul(a))
            orbit_of, cosets = perm_orbits(columns, order)
            if len(cosets) == 1:
                break
    return tuple(gens), tuple(columns)


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
    identity row itself.  The laws proved here are listed in the module
    docstring.
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


class FiniteGroup(Frozen):
    """A finite group presented by its multiplication table.

    ``mul[a][b]`` is the product of elements ``a`` and ``b``, ``identity`` is
    the unit's index and ``inv[a]`` the inverse of ``a``.  Instances are
    immutable and safe to share; all operations on them are pure.
    """

    _fields = ("order", "mul", "identity", "inv", "label")

    def __init__(self, order: int, mul: tuple[tuple[int, ...], ...], identity: int,
                 inv: tuple[int, ...], label: str = "G"):
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "mul", mul)
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "inv", inv)
        object.__setattr__(self, "label", label)

    def element_order(self, a: int) -> int:
        x = a
        n = 1
        while x != self.identity:
            x = self.mul[x][a]
            n += 1
        return n

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        """The order of every element, computed once."""
        return tuple([self.element_order(a) for a in range(self.order)])

    def validate(self) -> None:
        """Exhaustively check the group axioms; raises ValueError on failure.

        Associativity, (xy)z = x(yz), is the homomorphism law of x -> the
        row of x, into the maps of the set under :func:`perm_compose`, so
        :func:`first_broken_edge` proves it on the generator edges after the
        identity row is checked: Light's test, (xa)y = x(ay) for all x, y and
        every ``a`` of a generating set, O(n^2 |gens|) where all triples cost n^3.
        """
        n = self.order
        mul = self.mul
        if len(mul) != n or any(len(row) != n for row in mul):
            raise ValueError("multiplication table has wrong shape")
        if any(not (0 <= mul[a][b] < n) for a in range(n) for b in range(n)):
            raise ValueError("table entry out of range")
        e = self.identity
        for a in range(n):
            if mul[e][a] != a or mul[a][e] != a:
                raise ValueError(f"identity axiom fails at element {a}")
            if mul[a][self.inv[a]] != e or mul[self.inv[a]][a] != e:
                raise ValueError(f"inverse axiom fails at element {a}")
        broken = first_broken_edge(mul, perm_compose, e, self.generators, self.moves)
        if broken is not None:
            x, a = broken
            y = next(y for y in range(n) if mul[mul[x][a]][y] != mul[x][mul[a][y]])
            raise ValueError(f"associativity fails at ({x},{a},{y})")

    @cached_property
    def _greedy(self) -> tuple[tuple[int, ...], tuple[Permutation, ...]]:
        mul = self.mul
        return greedy_generators(self.order, self.identity,
                                 lambda a: tuple([row[a] for row in mul]))

    @property
    def generators(self) -> tuple[int, ...]:
        """A small generating set (:func:`greedy_generators`), computed once."""
        return self._greedy[0]

    @property
    def moves(self) -> tuple[Permutation, ...]:
        """The tables ``a -> a s`` of the generators s, computed with them."""
        return self._greedy[1]

    def __repr__(self) -> str:  # keep large tables out of debug output
        return f"FiniteGroup({self.label}, order={self.order})"


class GroupHom(Frozen):
    """A homomorphism given by its full image table ``image[a]``."""

    __slots__ = _fields = ("source", "target", "image")

    def __init__(self, source: FiniteGroup, target: FiniteGroup, image: tuple[int, ...]):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "image", image)

    def __call__(self, a: int) -> int:
        return self.image[a]

    def validate(self) -> None:
        if len(self.image) != self.source.order:
            raise ValueError("image table has wrong length")
        if any(not (0 <= b < self.target.order) for b in self.image):
            raise ValueError("image table entry out of range")
        if self.image[self.source.identity] != self.target.identity:
            raise ValueError("homomorphism does not preserve the identity")
        G, tmul = self.source, self.target.mul
        broken = first_broken_edge(self.image, lambda x, y: tmul[x][y], G.identity,
                                   G.generators, G.moves)
        if broken is not None:
            raise ValueError("homomorphism law fails at ({},{})".format(*broken))

    def __repr__(self) -> str:
        return f"GroupHom({self.source.label}->{self.target.label}, {self.image})"


def group_hom(source: FiniteGroup, target: FiniteGroup, image) -> GroupHom:
    """Build and validate a homomorphism from an image table."""
    h = GroupHom(source, target, tuple(image))
    h.validate()
    return h


def identity_hom(G: FiniteGroup) -> GroupHom:
    return GroupHom(G, G, tuple(range(G.order)))


def permutation_group(perms, base, label: str) -> FiniteGroup:
    """The group whose element i is the permutation ``perms[i]``.

    The product ``i j`` is ``perms[i]`` after ``perms[j]``.  ``perms`` must
    be closed under composition, and ``base`` must be a list of points on
    which no two of them agree everywhere.  Each element is then keyed by
    its values on the base, and the product is the element whose key is
    ``perms[i]`` applied to the key of ``perms[j]``.
    """
    keys = [tuple([p[x] for x in base]) for p in perms]
    index = {k: i for i, k in enumerate(keys)}
    if len(index) != len(keys):
        raise ValueError(f"{label}: the base does not tell the elements apart")
    try:
        mul = tuple(tuple([index[tuple([p[y] for y in k])] for k in keys]) for p in perms)
    except KeyError:
        raise ValueError(f"{label}: the elements are not closed under composition") from None
    return table_group(mul, label)


def table_group(mul: tuple[tuple[int, ...], ...], label: str) -> FiniteGroup:
    """The group of a square Cayley table, its identity and inverses read off it.

    The identity is the first row that fixes every element (a left identity
    e and a two-sided e' have e = e e' = e'), and the inverse of ``a`` the
    first entry of row ``a`` equal to it.  Raises ValueError unless both are
    two-sided; :meth:`FiniteGroup.validate` checks the other axioms.
    """
    ident = tuple(range(len(mul)))
    identity = next((e for e, row in enumerate(mul) if row == ident), None)
    if identity is None or tuple([row[identity] for row in mul]) != ident:
        raise ValueError("table has no identity element")
    inv = []
    for a, row in enumerate(mul):
        b = row.index(identity) if identity in row else None
        if b is None or mul[b][a] != identity:
            raise ValueError(f"element {a} has no two-sided inverse")
        inv.append(b)
    return FiniteGroup(len(mul), mul, identity, tuple(inv), label)


def from_mul_table(mul, label: str = "G") -> FiniteGroup:
    """Construct a group from a bare multiplication table.

    The identity and inverse tables are derived by :func:`table_group`, and
    all axioms are checked exhaustively (the input is untrusted).
    """
    table = tuple(tuple(row) for row in mul)
    n = len(table)
    if n == 0:
        raise ValueError("a group has at least one element")
    config.check_table_order(n)
    if any(len(row) != n for row in table):
        raise ValueError("multiplication table has wrong shape")
    G = table_group(table, label)
    G.validate()
    return G


def make_cyclic(n: int) -> FiniteGroup:
    """The cyclic group Z_n with addition modulo n; element i is the residue i."""
    if n < 1:
        raise ValueError("cyclic group order must be >= 1")
    config.check_table_order(n)
    mul = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    inv = tuple((-a) % n for a in range(n))
    return FiniteGroup(n, mul, 0, inv, f"Z{n}")


def make_direct_product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    """Direct product with element (a, b) packed as a * |H| + b."""
    order = G.order * H.order
    config.check_table_order(order)
    k = H.order
    mul_rows = []
    for a1 in range(G.order):
        for b1 in range(H.order):
            row = []
            for a2 in range(G.order):
                ga = G.mul[a1][a2]
                base = ga * k
                hrow = H.mul[b1]
                for b2 in range(H.order):
                    row.append(base + hrow[b2])
            mul_rows.append(tuple(row))
    identity = G.identity * k + H.identity
    inv = tuple(G.inv[a] * k + H.inv[b] for a in range(G.order) for b in range(H.order))
    return FiniteGroup(order, tuple(mul_rows), identity, inv, f"{G.label}x{H.label}")


def make_symmetric(n: int) -> FiniteGroup:
    """The symmetric group on n letters, elements enumerated in lexicographic order.

    Permutations are image tables; the product st applies t first, then s.
    """
    if n < 1:
        raise ValueError("symmetric group needs n >= 1")
    if n > config.MAX_SYMMETRIC_N:
        raise BoundExceeded(f"symmetric group bound is n <= {config.MAX_SYMMETRIC_N}")
    config.check_table_order(math.factorial(n), what="symmetric group")
    perms = list(itertools.permutations(range(n)))
    return permutation_group(perms, range(n), f"S{n}")


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


def kernel(h: GroupHom) -> tuple[int, ...]:
    """Sorted indices of source elements mapping to the target identity."""
    e = h.target.identity
    return tuple(a for a in range(h.source.order) if h.image[a] == e)


def compose_hom(f: GroupHom, g: GroupHom) -> GroupHom:
    """The composite f after g; requires g.target = f.source."""
    if g.target != f.source:
        raise ValueError("compose_hom: inner target does not match outer source")
    return GroupHom(g.source, f.target, tuple(f.image[x] for x in g.image))


def is_isomorphism(h: GroupHom) -> bool:
    return (
        h.source.order == h.target.order
        and len(set(h.image)) == h.source.order
    )


def _automorphism_search(G: FiniteGroup):
    """The backtrack of :func:`automorphisms`: the candidate images of each
    greedy generator, and ``leaves(prefix)``, which yields the image table
    of every leaf whose first generators go to ``prefix``.

    Level k picks the image of the k-th greedy generator among the elements
    of its order and extends the partial map phi over the subgroup H_k of
    the first k+1 generators along the Cayley graph, phi(as) = phi(a)phi(s).
    Every edge ``as`` of H_k is checked, and a candidate is rejected as soon
    as an edge disagrees or two points get the same image.  Each call of
    ``leaves`` works on its own partial map, so a stream left unfinished
    disturbs no other.
    """
    config.check_table_order(G.order)
    config.check_enumeration(G.order, "automorphism search space base")
    mul = G.mul
    gens = G.generators
    order_of = G.element_orders
    candidates = [[b for b in range(G.order) if order_of[b] == order_of[s]] for s in gens]

    def leaves(prefix):
        phi = [-1] * G.order  # the partial map, -1 outside the current subgroup
        used = [False] * G.order
        phi[G.identity] = G.identity
        used[G.identity] = True

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

        def search(domain, pairs):
            k = len(pairs)
            if k == len(gens):
                yield phi
                return
            for t in candidates[k] if k >= len(prefix) else (prefix[k],):
                level = pairs + [(gens[k], t)]
                new: list[int] = []
                if extend(domain, level, new):
                    yield from search(domain + new, level)
                for b in new:
                    used[phi[b]] = False
                    phi[b] = -1

        return search([G.identity], [])

    return candidates, leaves


def automorphisms(G: FiniteGroup) -> list[GroupHom]:
    """All automorphisms of G, sorted by image table.

    A backtracking homomorphism search (Holt, Eick & O'Brien, *Handbook of
    Computational Group Theory*, 2005, ch. 8), set out in
    :func:`_automorphism_search`.  A leaf has phi(e) = e and has passed
    every edge (all a in G, all generators s), so it is a homomorphism by
    the lemma of :func:`first_broken_edge`; injective, it is an
    automorphism.  Every automorphism is found, as it keeps element orders
    and agrees with every edge.
    """
    _, leaves = _automorphism_search(G)
    auts = [GroupHom(G, G, tuple(phi)) for phi in leaves(())]
    auts.sort(key=lambda h: h.image)
    return auts


def _leaf_count(candidates, leaves) -> int:
    count, prefix = 1, []
    for level in candidates:
        alive = [t for t in level if next(leaves(prefix + [t]), None) is not None]
        count *= len(alive)
        prefix.append(alive[0])
    return count


def automorphism_count(G: FiniteGroup) -> int:
    """|Aut(G)|, counted without listing Aut(G).

    An automorphism is fixed by its images of the greedy generators, so
    Aut(G) acts regularly on the image tuples that the search of
    :func:`automorphisms` completes, and |Aut(G)| is their number.  With the
    first k images fixed at a completed tuple, the k-th generator's images
    over the completed tuples form an orbit of the stabilizer of the first
    k-1 generators, and by orbit-stabilizer (Holt, Eick & O'Brien,
    *Handbook of Computational Group Theory*, 2005, ch. 4) |Aut(G)| is the
    product of these orbit lengths.  Level by level, then, the count is the
    number of candidates with at least one leaf below them, the earlier
    levels fixed at the first leaf found; each candidate's search stops at
    its first leaf.
    """
    return _leaf_count(*_automorphism_search(G))


def check_automorphism_order(G: FiniteGroup) -> None:
    """Refuse G, before any automorphism is listed, when |Aut(G)| exceeds
    ``config.MAX_TABLE_ORDER``.

    The search of :func:`automorphisms` completes at most the product of
    its candidate counts, which therefore bounds |Aut(G)|; only when that
    product exceeds the bound is |Aut(G)| counted
    (:func:`automorphism_count`).
    """
    candidates, leaves = _automorphism_search(G)
    if math.prod(map(len, candidates)) > config.MAX_TABLE_ORDER:
        config.check_table_order(_leaf_count(candidates, leaves), what="automorphism group")


def automorphism_classes(G: FiniteGroup, auts) -> tuple[tuple[tuple[int, ...], ...], bool]:
    """The conjugacy classes of Aut(G) over the indices of ``auts =
    automorphisms(G)``, listed as by :func:`conjugacy_classes`, and whether
    Aut(G) is abelian, with no Cayley table: each automorphism is keyed by its
    values on ``G.generators``, :func:`greedy_generators` finds a generating
    set from the right multiplications ``p -> p h``, the classes are the
    orbits of conjugation by it, and Aut(G) is abelian iff it commutes."""
    images = [h.image for h in auts]
    index = {tuple([p[s] for s in G.generators]): i for i, p in enumerate(images)}
    keys = list(index)

    def keyed(h: int, outer) -> Permutation:  # p -> outer o p o h, on indices
        return tuple([index[tuple([outer[p[x]] for x in keys[h]])] for p in images])

    ident = tuple(range(G.order))
    gens, _ = greedy_generators(len(auts), index[G.generators], lambda h: keyed(h, ident))
    conjugations = [keyed(h, perm_inverse(images[h])) for h in gens]
    commute = all([images[h][x] for x in keys[k]] == [images[k][x] for x in keys[h]]
                  for h in gens for k in gens)
    return perm_orbits(conjugations, len(auts))[1], commute
