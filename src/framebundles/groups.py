"""Exact arithmetic for small finite groups given by Cayley tables.

Elements are dense integer indices ``0 .. order-1``.  Element 0 is *not*
required to be the identity; the identity index is stored explicitly so that
product and subgroup constructions can keep their natural labelling.

The module is also the permutation and Cayley-table kernel of the library:
permutations are forward image tables, and :func:`permutation_group`
tabulates a group of permutations from their values on a *base*, a list of
points on which no two of them agree, which is how Sym(n), Aut(G) and Aut(F)
are built.  :func:`table_group` reads the identity and the inverses off a
finished table; the wreath product, whose table is assembled from smaller
ones, uses it directly.  :func:`perm_orbits` is the one orbit algorithm of
the library.
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

    def is_abelian(self) -> bool:
        mul = self.mul
        return all(
            mul[a][b] == mul[b][a]
            for a in range(self.order)
            for b in range(a + 1, self.order)
        )

    def element_order(self, a: int) -> int:
        x = a
        n = 1
        while x != self.identity:
            x = self.mul[x][a]
            n += 1
        return n

    def validate(self) -> None:
        """Exhaustively check the group axioms; raises ValueError on failure.

        Associativity is Light's test: (xa)y = x(ay) for all x, y and every
        ``a`` of a generating set, O(n^2 |gens|) where all triples cost n^3.
        This suffices: the set S of the ``a`` passing it contains the
        identity and is closed under products.  For a, b in S,

            (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y),

        using a in S (with y = b), b in S (with x = xa), a in S (with
        y = by) and b in S (with x = a).  :attr:`generators` reaches
        every element by products of generators, so S is the whole table.
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
        for a in self.generators:
            a_row = mul[a]
            for x in range(n):
                x_row = mul[x]
                lhs, rhs = mul[x_row[a]], tuple([x_row[ay] for ay in a_row])
                if lhs != rhs:
                    y = next(y for y in range(n) if lhs[y] != rhs[y])
                    raise ValueError(f"associativity fails at ({x},{a},{y})")

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """A small generating set found greedily over the element order, computed once.

        Greedy choice of the smallest element outside the currently generated
        subgroup; no generator is redundant.  The subgroup is the orbit of the
        identity under the right multiplications ``x -> x s`` by the generators.
        """
        gens: list[int] = []
        columns: list[Permutation] = []
        orbit_of, _ = perm_orbits(columns, self.order)
        for a in range(self.order):
            if orbit_of[a] != orbit_of[self.identity]:
                gens.append(a)
                columns.append(tuple([row[a] for row in self.mul]))
                orbit_of, cosets = perm_orbits(columns, self.order)
                if len(cosets) == 1:
                    break
        return tuple(gens)

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
        smul, tmul, img = self.source.mul, self.target.mul, self.image
        for a in range(self.source.order):
            for b in range(self.source.order):
                if img[smul[a][b]] != tmul[img[a]][img[b]]:
                    raise ValueError(f"homomorphism law fails at ({a},{b})")

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
    """The group of a Cayley table known to be a group's (not validated).

    The identity is the one row of the table that fixes every element and
    each inverse is the one entry of its row equal to the identity: in a
    group both are unique.
    """
    identity = mul.index(tuple(range(len(mul))))
    inv = tuple(row.index(identity) for row in mul)
    return FiniteGroup(len(mul), mul, identity, inv, label)


def from_mul_table(mul, label: str = "G") -> FiniteGroup:
    """Construct a group from a bare multiplication table.

    The identity and inverse tables are derived, and all axioms are checked
    exhaustively (the input is untrusted).
    """
    table = tuple(tuple(row) for row in mul)
    n = len(table)
    if n == 0:
        raise ValueError("a group has at least one element")
    config.check_table_order(n)
    if any(len(row) != n for row in table):
        raise ValueError("multiplication table has wrong shape")
    identity = None
    for e in range(n):
        if all(table[e][a] == a and table[a][e] == a for a in range(n)):
            identity = e
            break
    if identity is None:
        raise ValueError("table has no identity element")
    inv = []
    for a in range(n):
        a_inv = next((b for b in range(n) if table[a][b] == identity), None)
        if a_inv is None or table[a_inv][a] != identity:
            raise ValueError(f"element {a} has no two-sided inverse")
        inv.append(a_inv)
    G = FiniteGroup(n, table, identity, tuple(inv), label)
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


def automorphisms(G: FiniteGroup) -> list[GroupHom]:
    """All automorphisms of G, sorted by image table.

    A backtracking homomorphism search (Holt, Eick & O'Brien, *Handbook of
    Computational Group Theory*, 2005, ch. 8).  Level k picks the image of
    the k-th greedy generator among the elements of its order and extends
    the partial map phi over the subgroup H_k of the first k+1 generators
    along the Cayley graph, phi(as) = phi(a)phi(s).  Every edge ``as`` of
    H_k is checked, and a candidate is rejected as soon as an edge
    disagrees or two points get the same image.

    A map with phi(e) = e that passes every edge (all a in G, all
    generators s) is a homomorphism: phi(ab) = phi(a)phi(b) by induction on
    the length of b as a word in the generators (inverses are positive
    powers).  For b = cs with c shorter, phi(acs) = phi(ac)phi(s) =
    phi(a)phi(c)phi(s) = phi(a)phi(cs) by the edge at ac, the induction and
    the edge at c.  Injective, it is an automorphism.  Every automorphism
    is found, as it keeps element orders and agrees with every edge.
    """
    config.check_table_order(G.order)
    config.check_enumeration(G.order, "automorphism search space base")
    mul = G.mul
    gens = G.generators
    order_of = [G.element_order(a) for a in range(G.order)]
    candidates = [[b for b in range(G.order) if order_of[b] == order_of[s]] for s in gens]
    phi = [-1] * G.order  # the partial map, -1 outside the current subgroup
    used = [False] * G.order
    phi[G.identity] = G.identity
    used[G.identity] = True
    auts = []

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
        if len(pairs) == len(gens):
            auts.append(GroupHom(G, G, tuple(phi)))
            return
        for t in candidates[len(pairs)]:
            level = pairs + [(gens[len(pairs)], t)]
            new: list[int] = []
            if extend(domain, level, new):
                search(domain + new, level)
            for b in new:
                used[phi[b]] = False
                phi[b] = -1

    search([G.identity], [])
    auts.sort(key=lambda h: h.image)
    return auts


def aut_group(G: FiniteGroup) -> tuple[FiniteGroup, tuple[GroupHom, ...]]:
    """Materialize Aut(G) as a Cayley-table group under composition.

    Returns the table group together with the indexed automorphism list; the
    table realizes ``auts[i] . auts[j]`` (j applied first) at entry (i, j).
    """
    auts = automorphisms(G)
    config.check_table_order(len(auts), what="automorphism group")
    # an automorphism is determined by its values on a generating set
    table = permutation_group([h.image for h in auts], G.generators, f"Aut({G.label})")
    return table, tuple(auts)
