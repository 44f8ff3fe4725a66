"""The action, equivariance and symmetric-action laws, checked by the library
on generator edges, against the all-pairs oracles of ``table_oracles`` on
seeded mutations of valid inputs."""

import itertools
import random

import pytest

from framebundles.bundles import sn_labelling
from framebundles.errors import NotFaithful
from framebundles.groups import (
    from_mul_table,
    identity_hom,
    make_cyclic,
    make_direct_product,
    make_symmetric,
)
from framebundles.gsets import (
    check_equivariant,
    make_gset,
    standard_semitorsor,
)
from framebundles.perms import perm_inverse, perm_orbits
from table_oracles import (
    action_law_holds,
    dihedral_table,
    hom,
    is_equivariant_everywhere,
    is_homomorphism_on_all_pairs,
    quaternion_table,
)


def law_groups():
    z2 = make_cyclic(2)
    return [
        make_cyclic(1), z2, make_cyclic(3), make_cyclic(4), make_direct_product(z2, z2),
        make_cyclic(6), make_symmetric(3), from_mul_table(dihedral_table(4), "D4"),
        from_mul_table(quaternion_table(), "Q8"),
    ]


def coset_action(G, h):
    """G acting on its left cosets of the cyclic subgroup generated by ``h``."""
    orbit_of, members = perm_orbits([tuple(row[h] for row in G.mul)], G.order)
    return [[orbit_of[G.mul[g][m[0]]] for m in members] for g in range(G.order)]


def valid_actions(G):
    """Action tables of G: translation, G x I_2, cosets, trivial, and a disjoint union."""
    translation = [list(row) for row in G.mul]
    cosets = [coset_action(G, h) for h in range(G.order)]
    union = [t + [p + G.order for p in c] for t, c in zip(translation, cosets[-1])]
    return [translation, [list(r) for r in standard_semitorsor(G, 2).act],
            [[0, 1, 2]] * G.order, union] + cosets


def mutated_action(rng, G, act):
    """A copy of ``act`` with its shape, range and identity row kept and,
    unless the draw leaves it alone, one non-identity row changed."""
    out = [list(row) for row in act]
    size = len(out[0])
    others = [g for g in range(G.order) if g != G.identity]
    kind = rng.randrange(4)
    if not others or kind == 0:
        return out
    g = rng.choice(others)
    if kind == 1:
        out[g][rng.randrange(size)] = rng.randrange(size)
    elif kind == 2:
        out[g] = rng.sample(range(size), size)
    else:
        h = rng.choice(others)
        out[g], out[h] = out[h], out[g]
    return out


def law_fails_at_the_named_pair(G, table, exc) -> bool:
    """Whether ``exc`` is the action-law refusal and the law fails at its pair."""
    message = str(exc)
    if not message.startswith("action law fails for pair ("):
        return False
    g, h = (int(x) for x in message.split("(")[1].rstrip(")").split(","))
    return any(table[g][table[h][f]] != table[G.mul[g][h]][f] for f in range(len(table[0])))


def test_action_law_on_generator_edges_agrees_with_all_pairs():
    rng = random.Random(14)
    tried = invalid = 0
    for G in law_groups():
        for act in valid_actions(G):
            for _ in range(58):
                table = mutated_action(rng, G, act)
                try:
                    make_gset(G, table)
                    refused = False
                except ValueError as exc:
                    assert law_fails_at_the_named_pair(G, table, exc)
                    refused = True
                assert refused == (not action_law_holds(G, table)), (G, table)
                tried += 1
                invalid += refused
    assert tried >= 4000 and tried // 4 < invalid < tried


def test_make_gset_refuses_a_table_that_breaks_the_law_off_the_identity_row():
    G = make_cyclic(3)
    table = [[0, 1, 2], [1, 2, 0], [1, 2, 0]]  # the generator acts as its own square
    with pytest.raises(ValueError) as exc:
        make_gset(G, table)
    assert law_fails_at_the_named_pair(G, table, exc.value)


def equivariant_values(rng, src, tgt, xi):
    """An equivariant map from the free ``src`` (G x I_k): each orbit's
    point (e, x) goes to a random target point p, and (g, x) to xi(g) . p."""
    k = src.size // src.group.order
    images = [rng.randrange(tgt.size) for _ in range(k)]
    value = [0] * src.size
    for g, row in enumerate(src.act):
        for x in range(k):
            value[row[src.group.identity * k + x]] = tgt.act[xi[g]][images[x]]
    return value


def map_fixtures():
    """(source, target, xi) with valid actions and xi a homomorphism."""
    out = []
    for G in law_groups():
        for act in valid_actions(G)[:4]:
            target = make_gset(G, act)
            for k in (1, 2):
                out.append((standard_semitorsor(G, k), target, identity_hom(G)))
    z2, z3, z4, z6 = (make_cyclic(n) for n in (2, 3, 4, 6))
    for G, H, image in [(z4, z2, [a % 2 for a in range(4)]), (z6, z3, [a % 3 for a in range(6)]),
                        (z6, z2, [a % 2 for a in range(6)])]:
        xi = hom(G, H, image)
        for act in valid_actions(H)[:4]:
            out.append((standard_semitorsor(G, 2), make_gset(H, act), xi))
    return out


def test_equivariance_on_generators_agrees_with_every_element():
    rng = random.Random(14)
    tried = broken = 0
    for src, tgt, xi in map_fixtures():
        for _ in range(50):
            kind = rng.randrange(3)
            if kind == 2:
                value = [rng.randrange(tgt.size) for _ in range(src.size)]
            else:
                value = equivariant_values(rng, src, tgt, xi)
                if kind == 1:
                    value[rng.randrange(src.size)] = rng.randrange(tgt.size)
            holds = is_equivariant_everywhere(src, tgt, xi, value)
            assert check_equivariant(src, tgt, xi, value) == holds, (src, tgt, value)
            tried += 1
            broken += not holds
    assert tried >= 4000 and tried // 4 < broken < tried


def symmetric_actions(rng, n):
    """A conjugate of the natural action of S_n, and a seeded mutation of it."""
    perms = list(itertools.permutations(range(n)))
    tau = rng.choice(perms)
    tau_inv = perm_inverse(tau)
    action = {s: tuple(tau[s[tau_inv[a]]] for a in range(n)) for s in perms}
    kind = rng.randrange(4)
    if kind == 1:
        s, t = rng.sample(perms, 2)
        action[s], action[t] = action[t], action[s]
    elif kind == 2:
        action[rng.choice(perms)] = tuple(rng.sample(range(n), n))
    elif kind == 3:
        action[rng.choice(perms)] = rng.choice(perms)
    return action


def test_sn_homomorphism_law_on_two_generators_agrees_with_all_pairs():
    rng = random.Random(14)
    tried = broken = 0
    for n in (3, 4):
        identity = tuple(range(n))
        for _ in range(400):
            action = symmetric_actions(rng, n)
            homomorphic = is_homomorphism_on_all_pairs(action)
            unfaithful = any(v == identity for s, v in action.items() if s != identity)
            try:
                sn_labelling(n, action)
                refused = False
            except NotFaithful:
                assert unfaithful
                continue
            except ValueError as exc:
                assert str(exc) == "action table is not a homomorphism"
                refused = True
            assert refused == (not homomorphic), action
            tried += 1
            broken += refused
    assert tried >= 700 and tried // 4 < broken < tried


def test_sn_labelling_refuses_a_non_homomorphic_action():
    perms = list(itertools.permutations(range(3)))
    action = {s: s for s in perms}
    # two transpositions trade images: still faithful bijections, no longer a homomorphism
    action[(1, 0, 2)], action[(0, 2, 1)] = (0, 2, 1), (1, 0, 2)
    with pytest.raises(ValueError, match="action table is not a homomorphism"):
        sn_labelling(3, action)


def test_identity_row_is_checked_apart_from_the_edges():
    # every row the idempotent map (0, 0): the law holds on every pair, as
    # (0, 0) after (0, 0) is (0, 0), so only the identity-row check refuses it
    G, table = make_cyclic(2), [[0, 0], [0, 0]]
    assert action_law_holds(G, table)
    with pytest.raises(ValueError, match="identity does not act trivially"):
        make_gset(G, table)
