"""Exact arithmetic for small finite groups given by Cayley tables.

Elements are dense integer indices ``0 .. order-1``.  Element 0 is *not*
required to be the identity; the identity index is stored explicitly so that
product and subgroup constructions can keep their natural labelling.

The module is also the permutation and Cayley-table kernel of the library:
permutations are forward image tables, and :func:`cayley_group` tabulates
any finite group given as a list of elements and a product, which is how
Sym(n), Aut(G) and Aut(F) are built.  :func:`table_group` reads the identity
and the inverses off a finished table; the wreath product, whose table is
assembled from smaller ones, uses it directly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import config
from .errors import BoundExceeded

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


def validate_word(loops: int, word) -> tuple[int, ...]:
    """A loop word over a wedge of ``loops`` circles: letters +-1 .. +-loops."""
    w = tuple(int(x) for x in word)
    for letter in w:
        if letter == 0 or abs(letter) > loops:
            raise ValueError(f"letter {letter} outside +-1..+-{loops}")
    return w


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group presented by its multiplication table.

    ``mul[a][b]`` is the product of elements ``a`` and ``b``, ``identity`` is
    the unit's index and ``inv[a]`` the inverse of ``a``.  Instances are
    immutable and safe to share; all operations on them are pure.
    """

    order: int
    mul: tuple[tuple[int, ...], ...]
    identity: int
    inv: tuple[int, ...]
    label: str = "G"

    def elements(self) -> range:
        return range(self.order)

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
        """Exhaustively check the group axioms; raises ValueError on failure."""
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
        for a in range(n):
            for b in range(n):
                ab = mul[a][b]
                for c in range(n):
                    if mul[ab][c] != mul[a][mul[b][c]]:
                        raise ValueError(f"associativity fails at ({a},{b},{c})")

    def __repr__(self) -> str:  # keep large tables out of debug output
        return f"FiniteGroup({self.label}, order={self.order})"


@dataclass(frozen=True)
class GroupHom:
    """A homomorphism given by its full image table ``image[a]``."""

    source: FiniteGroup
    target: FiniteGroup
    image: tuple[int, ...]

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


def cayley_group(keys, product, label: str) -> FiniteGroup:
    """The group whose element i is ``keys[i]``, multiplied by ``product``.

    ``keys`` are hashable and closed under ``product(a, b)``, which returns
    the key of the product.
    """
    index = {k: i for i, k in enumerate(keys)}
    mul = tuple(tuple(index[product(a, b)] for b in keys) for a in keys)
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
    return cayley_group(perms, perm_compose, f"S{n}")


def conjugacy_classes(G: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """Partition of the elements under g ~ h g h^-1.

    Classes are sorted tuples, listed in order of their smallest member, so
    the output is canonical.
    """
    seen = [False] * G.order
    classes = []
    for a in range(G.order):
        if seen[a]:
            continue
        cls = {G.mul[h][G.mul[a][G.inv[h]]] for h in range(G.order)}
        for x in cls:
            seen[x] = True
        classes.append(tuple(sorted(cls)))
    return tuple(classes)


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


def _closure(G: FiniteGroup, seed: set[int]) -> set[int]:
    out = set(seed)
    out.add(G.identity)
    frontier = list(out)
    while frontier:
        nxt = []
        for a in frontier:
            for s in seed:
                for c in (G.mul[a][s], G.mul[s][a]):
                    if c not in out:
                        out.add(c)
                        nxt.append(c)
        frontier = nxt
    return out


def generating_set(G: FiniteGroup) -> list[int]:
    """A small generating set found greedily over the element order.

    Greedy choice of the smallest element outside the currently generated
    subgroup; no generator is redundant.
    """
    gens: list[int] = []
    generated = {G.identity}
    for a in range(G.order):
        if a not in generated:
            gens.append(a)
            generated = _closure(G, set(gens))
            if len(generated) == G.order:
                break
    return gens


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


def automorphisms(G: FiniteGroup) -> list[GroupHom]:
    """All automorphisms of G, sorted by image table.

    Enumeration assigns images to a greedy minimal generating set (candidate
    images must match element orders), extends each assignment over the whole
    group along a BFS spanning tree, and keeps the maps that are verified to
    be bijective homomorphisms.
    """
    config.check_table_order(G.order)
    config.check_enumeration(G.order, "automorphism search space base")
    gens = generating_set(G)
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


def aut_group(G: FiniteGroup) -> tuple[FiniteGroup, tuple[GroupHom, ...]]:
    """Materialize Aut(G) as a Cayley-table group under composition.

    Returns the table group together with the indexed automorphism list; the
    table realizes ``auts[i] . auts[j]`` (j applied first) at entry (i, j).
    """
    auts = automorphisms(G)
    config.check_table_order(len(auts), what="automorphism group")
    table = cayley_group([h.image for h in auts], perm_compose, f"Aut({G.label})")
    return table, tuple(auts)
