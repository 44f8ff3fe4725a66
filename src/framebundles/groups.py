"""Exact arithmetic for small finite groups given by Cayley tables.

Elements are dense integer indices ``0 .. order-1``.  Element 0 is *not*
required to be the identity; the identity index is stored explicitly so that
product and subgroup constructions can keep their natural labelling.

The module is the Cayley-table kernel of the library, built on the
permutation kernel of ``perms``: :func:`permutation_group` tabulates a group
of permutations from their values on a *base*, a list of points on which no
two of them agree, which is how Sym(n) is built, and :func:`table_group`
reads the identity and the inverses off a finished table.

A homomorphism is its image table ``image[a]``, like any other map here.
A group that the library reads only through its generators gets no table:
``perms.first_broken_edge`` proves a homomorphism law on the generator edges
of the Cayley graph, and one pruned search finds generators of Aut(G), from
which :func:`automorphisms` counts it and lists its image tables.  The
search, the element orders that only it reads and the classes of Aut(G) are
in ``aut_search``, which ``FiniteGroup._aut`` imports on first use, so a
request that never asks for Aut(G) does not compile them.  The lemma proves
associativity (Light's test in :meth:`FiniteGroup.validate`), the
homomorphism law of :func:`check_hom`, of ``verify wreath-iso`` and of
``bundles.sn_labelling``, and the action law of ``gsets.GSet``;
``gsets.check_equivariant`` checks only generators by the same closure
argument.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

from . import config
from .errors import BoundExceeded
from .perms import Permutation, first_broken_edge, perm_compose, perm_orbits
from .records import Frozen


class FiniteGroup(Frozen):
    """A finite group presented by its multiplication table.

    ``mul[a][b]`` is the product of elements ``a`` and ``b``, ``identity`` is
    the unit's index and ``inv[a]`` the inverse of ``a``.  Instances are
    immutable and safe to share; all operations on them are pure.
    """

    _fields = ("order", "mul", "identity", "inv", "label")

    def validate(self) -> None:
        """Exhaustively check the group axioms; raises ValueError on failure.

        Associativity, (xy)z = x(yz), is the homomorphism law of x -> the
        row of x, into the maps of the set under ``perms.perm_compose``, so
        ``perms.first_broken_edge`` proves it on the generator edges after the
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
        """An irredundant generating set and its tables ``x -> x a``: each generator is
        the smallest element outside the orbit of e under the tables before it."""
        gens: list[int] = []
        moves: list[Permutation] = []
        orbit_of, _ = perm_orbits(moves, self.order)
        for a in range(self.order):
            if orbit_of[a] != orbit_of[self.identity]:
                gens.append(a)
                moves.append(tuple([row[a] for row in self.mul]))
                orbit_of, cosets = perm_orbits(moves, self.order)
                if len(cosets) == 1:
                    break
        return tuple(gens), tuple(moves)

    @cached_property
    def _aut(self) -> tuple[tuple[Permutation, ...], int]:
        """Generators of Aut(G) and |Aut(G)| (``aut_search.aut_generators``),
        computed once; the search module loads here, on first use."""
        from .aut_search import aut_generators

        return aut_generators(self)

    @property
    def generators(self) -> tuple[int, ...]:
        """A small generating set (``_greedy``), computed once."""
        return self._greedy[0]

    @property
    def moves(self) -> tuple[Permutation, ...]:
        """The tables ``a -> a s`` of the generators s, computed with them."""
        return self._greedy[1]

    def __repr__(self) -> str:  # keep large tables out of debug output
        return f"FiniteGroup({self.label}, order={self.order})"


def check_hom(source: FiniteGroup, target: FiniteGroup, image) -> None:
    """Raise ValueError unless ``image`` is the image table of a homomorphism
    ``source -> target``; the law is proved on the generator edges of
    ``source`` (``perms.first_broken_edge``)."""
    if len(image) != source.order:
        raise ValueError("image table has wrong length")
    if any(type(b) is not int or not 0 <= b < target.order for b in image):
        raise ValueError("image table entry out of range")
    if image[source.identity] != target.identity:
        raise ValueError("homomorphism does not preserve the identity")
    tmul = target.mul
    broken = first_broken_edge(image, lambda x, y: tmul[x][y], source.identity,
                               source.generators, source.moves)
    if broken is not None:
        raise ValueError("homomorphism law fails at ({},{})".format(*broken))


def identity_hom(G: FiniteGroup) -> Permutation:
    return tuple(range(G.order))


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
    mul = tuple(tuple([c * k + d for c in grow for d in hrow]) for grow in G.mul for hrow in H.mul)
    inv = tuple([a * k + b for a in G.inv for b in H.inv])
    return FiniteGroup(order, mul, G.identity * k + H.identity, inv, f"{G.label}x{H.label}")


def make_symmetric(n: int) -> FiniteGroup:
    """The symmetric group on n letters, elements enumerated in lexicographic order.

    Permutations are image tables; the product st applies t first, then s.
    """
    if n < 1:
        raise ValueError("symmetric group needs n >= 1")
    # refused before n! is computed: S_m is the first symmetric group past the table bound
    m = next(m for m in itertools.count(1) if math.factorial(m) > config.MAX_TABLE_ORDER)
    if n > m:
        raise BoundExceeded(f"symmetric group bound is n <= {m}")
    config.check_table_order(math.factorial(n), what="symmetric group")
    return permutation_group(list(itertools.permutations(range(n))), range(n), f"S{n}")


def automorphisms(G: FiniteGroup) -> list[Permutation]:
    """The image tables of all automorphisms of G, sorted, or BoundExceeded when
    |Aut(G)| (``aut_search.aut_generators``) exceeds ``config.MAX_TABLE_ORDER``.

    Aut(G) is the closure of the identity under left multiplication by the
    found generators.  Each element is keyed by its images of
    ``G.generators`` and tabulated only for a new key; products of
    automorphisms need no check.
    """
    found, order = G._aut
    config.check_table_order(order, what="automorphism group")
    gens = G.generators
    tables = [tuple(range(G.order))]
    seen = {gens}
    for p in tables:  # ``tables`` grows while it is walked
        for h in found:
            key = tuple([h[p[s]] for s in gens])
            if key not in seen:
                seen.add(key)
                tables.append(tuple([h[x] for x in p]))
    return sorted(tables)
