import itertools
import math

import pytest

from framebundles import config
from framebundles.errors import BoundExceeded, NotFree, OrbitObstruction
from framebundles.frames import (
    WreathElement,
    associated_map,
    associated_map_inverse,
    check_equivalence,
    enumerate_frames,
    frame_divide,
    frame_functor_map,
    frame_map,
    gset_homs,
    is_basis,
    reconstruct_semitorsor,
    wreath_act,
    wreath_group,
    wreath_identity,
    wreath_inv,
    wreath_mul,
)
from framebundles.groups import (
    group_hom,
    identity_hom,
    make_cyclic,
    make_direct_product,
    make_symmetric,
    perm_inverse,
)
from framebundles.gsets import (
    GSet,
    check_equivariant,
    compose_equivariant,
    divide,
    equivariant_map,
    identity_map,
    is_free,
    is_transitive,
    make_gset,
    orbits,
    semitorsor_point,
    standard_semitorsor,
    trivial_gset,
)
from framebundles.suites import fixture_groups
import framebundles.frames as frames_module
from table_oracles import cayley_group


Z2 = make_cyclic(2)
Z3 = make_cyclic(3)


def identity_frame(G, n):
    return tuple(semitorsor_point(G.identity, x, n) for x in range(n))


# ---------------------------------------------------------------- bases


def test_single_point_of_torsor_is_basis():
    F = standard_semitorsor(Z3, 1)
    for p in range(F.size):
        assert is_basis(F, (p,))


def test_repeated_orbit_is_not_a_basis():
    F = standard_semitorsor(Z2, 2)
    p1 = semitorsor_point(0, 1, 2)
    p2 = semitorsor_point(1, 1, 2)
    assert not is_basis(F, (p1, p2))


def test_trivial_group_bases_are_permutations():
    F = trivial_gset(3)
    count = sum(
        1 for t in itertools.product(range(3), repeat=3) if is_basis(F, t)
    )
    assert count == math.factorial(3)


def test_out_of_range_entry_is_not_a_basis():
    # a negative index would wrap around to the last point's orbit
    F = standard_semitorsor(Z2, 2)
    for t in [(-1, 0), (0, F.size), (F.size + 1, 1)]:
        assert not is_basis(F, t)
        with pytest.raises(ValueError, match="tuple is not a basis"):
            associated_map(F, t)


def test_is_basis_rejects_non_free():
    F = make_gset(Z2, [[0, 1], [0, 1]])
    with pytest.raises(NotFree):
        is_basis(F, (0, 1))


# ---------------------------------------------------------------- associated maps


def test_associated_map_of_identity_frame_is_identity():
    F = standard_semitorsor(Z3, 2)
    phi = associated_map(F, identity_frame(Z3, 2))
    assert phi.value == tuple(range(F.size))


def test_associated_map_round_trip():
    F = standard_semitorsor(Z3, 2)
    fs = enumerate_frames(F)
    for t in fs.frames:
        phi = associated_map(F, t)
        inv = associated_map_inverse(F, t)
        assert all(inv.value[phi.value[p]] == p for p in range(F.size))
        assert all(phi.value[inv.value[f]] == f for f in range(F.size))


def test_associated_map_scrambled_frame_against_brute_force():
    F = standard_semitorsor(Z3, 2)
    t = (semitorsor_point(2, 1, 2), semitorsor_point(1, 0, 2))
    phi = associated_map(F, t)
    # oracle: direct definition phi(g, x) = g . t[x], checked as a bijection
    seen = set()
    for g in range(3):
        for x in range(2):
            image = F.act[g][t[x]]
            assert phi.value[semitorsor_point(g, x, 2)] == image
            seen.add(image)
    assert seen == set(range(F.size))
    inv = associated_map_inverse(F, t)
    part = orbits(F)
    for f in range(F.size):
        x = next(x for x in range(2) if part.orbit_of[t[x]] == part.orbit_of[f])
        assert inv.value[f] == semitorsor_point(divide(F, f, t[x]), x, 2)


def test_phi_commutes_with_morphisms():
    # phi_{a . t} = a . phi_t as full tables
    F = standard_semitorsor(Z2, 2)
    fs = enumerate_frames(F)
    for a in gset_homs(F, F):
        lift = frame_functor_map(a)
        for t in fs.frames:
            lhs = associated_map(F, lift(t)).value
            rhs = tuple(a.value[p] for p in associated_map(F, t).value)
            assert lhs == rhs


# ---------------------------------------------------------------- enumeration


def test_enumerate_frames_counts():
    assert len(enumerate_frames(standard_semitorsor(Z2, 1)).frames) == 2
    assert len(enumerate_frames(standard_semitorsor(Z2, 2)).frames) == 8
    assert len(enumerate_frames(trivial_gset(3)).frames) == 6


def test_enumerate_frames_against_brute_filter():
    # oracle: filter every tuple by the basis criterion
    F = standard_semitorsor(Z2, 2)
    brute = {
        t for t in itertools.product(range(F.size), repeat=2) if is_basis(F, t)
    }
    fs = enumerate_frames(F)
    assert set(fs.frames) == brute
    assert len(fs.frames) == 8


def test_frames_sorted_lexicographically():
    fs = enumerate_frames(standard_semitorsor(Z3, 2))
    assert list(fs.frames) == sorted(fs.frames)


def test_frame_count_formula():
    for G, n in [(Z2, 1), (Z2, 2), (Z2, 3), (Z3, 2), (make_cyclic(4), 2)]:
        fs = enumerate_frames(standard_semitorsor(G, n))
        assert len(fs.frames) == G.order**n * math.factorial(n)


def test_enumerate_frames_rejects_non_free():
    F = make_gset(Z2, [[0, 1], [0, 1]])
    for _ in range(2):  # a refusal is not cached
        with pytest.raises(NotFree):
            enumerate_frames(F)


def test_frame_space_is_computed_once_per_gset():
    F = standard_semitorsor(Z3, 2)
    assert enumerate_frames(F) is enumerate_frames(F)


def test_oversized_frame_space_is_refused_on_every_call(monkeypatch):
    F = standard_semitorsor(Z2, 2)
    monkeypatch.setattr(config, "MAX_ENUMERATION", 7)
    for _ in range(2):
        with pytest.raises(BoundExceeded, match="enumerating 8 frames"):
            enumerate_frames(F)
    monkeypatch.undo()
    assert len(enumerate_frames(F).frames) == 8


# ---------------------------------------------------------------- wreath arithmetic


def wreath_matrix(w):
    """Generalized permutation matrix over Z2 written multiplicatively."""
    n = w.n
    m = [[0] * n for _ in range(n)]
    for j in range(n):
        i = w.sigma[j]
        m[i][j] = -1 if w.g_tuple[i] else 1
    return m


def mat_mul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def mat_decode(m, group):
    n = len(m)
    sigma = [0] * n
    g = [0] * n
    for j in range(n):
        i = next(i for i in range(n) if m[i][j] != 0)
        sigma[j] = i
        g[i] = 0 if m[i][j] == 1 else 1
    return WreathElement(group, tuple(g), tuple(sigma))


def test_wreath_mul_example_against_matrix_oracle():
    a = WreathElement(Z2, (1, 0), (1, 0))
    b = WreathElement(Z2, (0, 1), (0, 1))
    prod = wreath_mul(a, b)
    assert prod.g_tuple == (0, 0)
    assert prod.sigma == (1, 0)
    assert mat_decode(mat_mul(wreath_matrix(a), wreath_matrix(b)), Z2) == prod


def test_wreath_mul_matches_matrices_exhaustively():
    wg = wreath_group(Z2, 2)
    for a in wg.elements:
        for b in wg.elements:
            oracle = mat_decode(mat_mul(wreath_matrix(a), wreath_matrix(b)), Z2)
            assert wreath_mul(a, b) == oracle


def test_wreath_identity_and_inverse():
    e = wreath_identity(Z2, 2)
    a = WreathElement(Z2, (1, 0), (1, 0))
    assert wreath_mul(e, a) == a
    assert wreath_mul(a, wreath_inv(a)) == e
    for w in wreath_group(Z3, 2).elements:
        assert wreath_mul(w, wreath_inv(w)) == wreath_identity(Z3, 2)


@pytest.mark.parametrize(
    "g, sigma, message",
    [
        ((-1, 0), (0, 1), "group entries must lie in 0..2"),  # would act like g = (2, 0)
        ((5, 0), (0, 1), "group entries must lie in 0..2"),
        ((0, 0), (0, 0), "perm is not a permutation of 0..1"),
    ],
    ids=["negative-entry", "entry-past-order", "repeated-slot"],
)
def test_wreath_element_checks_its_entries(g, sigma, message):
    with pytest.raises(ValueError, match=message):
        WreathElement(Z3, g, sigma)


def test_wreath_mul_rejects_mismatch():
    with pytest.raises(ValueError):
        wreath_mul(wreath_identity(Z2, 2), wreath_identity(Z2, 3))
    with pytest.raises(ValueError):
        wreath_mul(wreath_identity(Z2, 2), wreath_identity(Z3, 2))


def test_wreath_group_satisfies_axioms():
    wg = wreath_group(Z2, 2)
    wg.group.validate()
    assert wg.group.order == 8


@pytest.mark.parametrize(
    "G, n",
    [
        (make_cyclic(1), 3),
        (Z2, 4),
        (Z3, 2),
        (make_cyclic(4), 2),
        (make_direct_product(Z2, Z2), 2),
        (make_symmetric(3), 2),
    ],
    ids=["Z1-3", "Z2-4", "Z3-2", "Z4-2", "Z2xZ2-2", "S3-2"],
)
def test_wreath_group_table_matches_wreath_mul(G, n):
    # the assembled table against the one tabulated from wreath_mul itself
    wg = wreath_group(G, n)
    assert list(wg.elements) == sorted(wg.elements, key=lambda w: (w.g_tuple, w.sigma))
    oracle = cayley_group(wg.elements, wreath_mul, f"{G.label}wr{n}")
    assert wg.group.mul == oracle.mul
    assert wg.group.identity == oracle.identity
    assert wg.group.inv == oracle.inv
    assert wg.group == oracle


# ---------------------------------------------------------------- the action


def test_wreath_act_identity_fixes_everything():
    F = standard_semitorsor(Z2, 2)
    e = wreath_identity(Z2, 2)
    for t in itertools.product(range(F.size), repeat=2):
        assert wreath_act(F, e, t) == t


def test_wreath_action_axiom_exhaustive():
    F = standard_semitorsor(Z2, 2)
    wg = wreath_group(Z2, 2)
    tuples = list(itertools.product(range(F.size), repeat=2))
    for a in wg.elements:
        for b in wg.elements:
            ab = wreath_mul(a, b)
            for t in tuples:
                assert wreath_act(F, a, wreath_act(F, b, t)) == wreath_act(F, ab, t)


def test_action_maps_bases_to_bases():
    F = standard_semitorsor(Z2, 2)
    fs = enumerate_frames(F)
    for w in wreath_group(Z2, 2).elements:
        for t in fs.frames:
            assert wreath_act(F, w, t) in fs.index


def test_pure_permutation_on_identity_frame():
    F = standard_semitorsor(Z3, 3)
    sigma = (1, 2, 0)
    w = WreathElement(Z3, (0, 0, 0), sigma)
    moved = wreath_act(F, w, identity_frame(Z3, 3))
    s_inv = perm_inverse(sigma)
    assert moved == tuple(semitorsor_point(0, s_inv[x], 3) for x in range(3))


# ---------------------------------------------------------------- frame division


def test_frame_divide_identity():
    F = standard_semitorsor(Z2, 2)
    fs = enumerate_frames(F)
    for t in fs.frames:
        assert frame_divide(fs, t, t) == wreath_identity(Z2, 2)


def test_frame_divide_unique_exhaustive():
    # oracle: count, for every ordered pair of frames, the wreath elements
    # relating them; freeness and transitivity mean exactly one each
    F = standard_semitorsor(Z2, 2)
    fs = enumerate_frames(F)
    wg = wreath_group(Z2, 2)
    for t1 in fs.frames:
        for t2 in fs.frames:
            solutions = [w for w in wg.elements if wreath_act(F, w, t1) == t2]
            assert len(solutions) == 1
            assert frame_divide(fs, t2, t1) == solutions[0]


def test_frame_divide_cocycle():
    F = standard_semitorsor(Z3, 2)
    fs = enumerate_frames(F)
    frames = fs.frames[::3]
    for t1 in frames:
        for t2 in frames:
            for t3 in frames:
                lhs = wreath_mul(frame_divide(fs, t3, t2), frame_divide(fs, t2, t1))
                assert lhs == frame_divide(fs, t3, t1)


def test_frame_divide_rejects_foreign_frames():
    fs = enumerate_frames(standard_semitorsor(Z2, 2))
    with pytest.raises(ValueError):
        frame_divide(fs, (0, 0), fs.frames[0])


# ---------------------------------------------------------------- functor


def test_identity_lifts_to_identity():
    F = standard_semitorsor(Z2, 2)
    fs = enumerate_frames(F)
    lift = frame_functor_map(identity_map(F))
    assert all(lift(t) == t for t in fs.frames)


def test_fold_map_is_obstructed():
    G = Z3
    source = standard_semitorsor(G, 2)
    target = standard_semitorsor(G, 1)
    value = [semitorsor_point(g, 0, 1) for g in range(G.order) for _ in range(2)]
    fold = equivariant_map(source, target, identity_hom(G), value)
    with pytest.raises(OrbitObstruction):
        frame_functor_map(fold)


def test_orbit_swap_lift_is_wreath_equivariant():
    # equivariance of the lift for (xi^n, id) with xi = id, all 8 x 8 cases
    G = Z2
    F = standard_semitorsor(G, 2)
    fs = enumerate_frames(F)
    swap = equivariant_map(
        F,
        F,
        identity_hom(G),
        [semitorsor_point(g, 1 - x, 2) for g in range(2) for x in range(2)],
    )
    lift = frame_functor_map(swap)
    for w in wreath_group(G, 2).elements:
        for t in fs.frames:
            assert lift(wreath_act(F, w, t)) == wreath_act(F, w, lift(t))


def test_cross_group_lift_is_xi_equivariant():
    # xi : Z4 -> Z2 reduction; the lift is equivariant for (xi^n, id)
    z4 = make_cyclic(4)
    F4 = standard_semitorsor(z4, 2)
    F2 = standard_semitorsor(Z2, 2)
    xi = group_hom(z4, Z2, [a % 2 for a in range(4)])
    a = equivariant_map(
        F4,
        F2,
        xi,
        [semitorsor_point(g % 2, x, 2) for g in range(4) for x in range(2)],
    )
    lift = frame_functor_map(a)
    fs4 = enumerate_frames(F4)
    for w in wreath_group(z4, 2).elements:
        w2 = WreathElement(Z2, tuple(xi.image[g] for g in w.g_tuple), w.sigma)
        for t in fs4.frames:
            assert lift(wreath_act(F4, w, t)) == wreath_act(F2, w2, lift(t))


def _checked_lift(a):
    """The frame lift of ``a``, checked exhaustively to be (xi^n, id)-equivariant.

    Every element of the source wreath product and every source frame is
    tried, and each lifted frame must lie in the target frame space; this
    catches any mix-up in the orientation of the inverse-permutation convention.
    """
    lift = frame_functor_map(a)
    fs = enumerate_frames(a.source)
    fs2 = enumerate_frames(a.target)
    xi = a.xi.image
    for w in wreath_group(a.source.group, fs.n).elements:
        pushed = WreathElement(a.target.group, tuple(xi[g] for g in w.g_tuple), w.sigma)
        for t in fs.frames:
            lifted = lift(wreath_act(a.source, w, t))
            assert lifted == wreath_act(a.target, pushed, lift(t))
            assert lifted in fs2.index
    return lift


def test_frame_functor_verify_mode():
    F = standard_semitorsor(Z2, 2)
    fs = enumerate_frames(F)
    lift = _checked_lift(identity_map(F))
    assert all(lift(t) == t for t in fs.frames)
    # the wreath action by any fixed element is a permutation of the frames
    for w in wreath_group(Z2, 2).elements:
        images = {wreath_act(F, w, t) for t in fs.frames}
        assert images == set(fs.frames)


def test_functor_composition_law():
    F = standard_semitorsor(Z2, 2)
    fs = enumerate_frames(F)
    homs = gset_homs(F, F)
    for a in homs:
        la = frame_functor_map(a)
        for b in homs:
            lb = frame_functor_map(b)
            lab = frame_functor_map(compose_equivariant(a, b))
            assert all(lab(t) == la(lb(t)) for t in fs.frames)


def test_functor_composition_across_groups():
    # Z4 -> Z2 -> Z1 reduction chain; the lifts compose
    z4 = make_cyclic(4)
    z1 = make_cyclic(1)
    F4 = standard_semitorsor(z4, 2)
    F2 = standard_semitorsor(Z2, 2)
    F1 = standard_semitorsor(z1, 2)
    xi42 = group_hom(z4, Z2, [a % 2 for a in range(4)])
    xi21 = group_hom(Z2, z1, [0, 0])
    beta = equivariant_map(
        F4, F2, xi42,
        [semitorsor_point(g % 2, x, 2) for g in range(4) for x in range(2)],
    )
    alpha = equivariant_map(
        F2, F1, xi21,
        [semitorsor_point(0, x, 2) for _ in range(2) for x in range(2)],
    )
    la = _checked_lift(alpha)
    lb = _checked_lift(beta)
    lab = frame_functor_map(compose_equivariant(alpha, beta))
    for t in enumerate_frames(F4).frames:
        assert lab(t) == la(lb(t))


def test_maps_agreeing_on_a_basis_agree_everywhere():
    F = standard_semitorsor(Z3, 2)
    fs = enumerate_frames(F)
    base = fs.frames[0]
    homs = gset_homs(F, F)
    for a in homs:
        for b in homs:
            if all(a.value[p] == b.value[p] for p in base):
                assert a.value == b.value


# ---------------------------------------------------------------- reconstruction


def test_reconstruct_torsor_recovers_fiber():
    F = standard_semitorsor(Z3, 1)
    fs = enumerate_frames(F)
    rec = reconstruct_semitorsor(fs, 0)
    assert rec.gset.size == F.size
    assert rec.to_standard.is_bijective()


def test_reconstruct_z2_two_orbits():
    F = standard_semitorsor(Z2, 2)
    fs = enumerate_frames(F)
    rec = reconstruct_semitorsor(fs, 0)
    assert rec.gset.size == 4
    rec.gset.validate()
    # the witness is an isomorphism onto the standard semi-torsor
    assert rec.to_standard.is_bijective()


def test_reconstruct_round_trip_all_fixtures():
    for G, n in [(Z2, 1), (Z2, 2), (Z3, 2), (Z2, 3)]:
        F = standard_semitorsor(G, n)
        fs = enumerate_frames(F)
        for x in range(n):
            rec = reconstruct_semitorsor(fs, x)
            assert rec.gset.size == F.size
            assert rec.to_standard.is_bijective()
            # quotient classes biject with evaluation at the slot
            eval_at = {}
            for i, t in enumerate(fs.frames):
                cls = rec.class_of_frame[i]
                assert eval_at.setdefault(cls, t[x]) == t[x]


# ---------------------------------------------------------------- equivalence


def test_equivalence_torsor_case():
    F = standard_semitorsor(Z2, 1)
    r = check_equivalence(F, F)
    assert r.gset_hom_count == r.torsor_hom_count == 2
    assert r.bijective


def test_equivalence_z2_two_orbits():
    F = standard_semitorsor(Z2, 2)
    r = check_equivalence(F, F)
    assert r.gset_hom_count == r.torsor_hom_count == 8
    assert r.bijective


def test_equivalence_different_orbit_counts_is_empty():
    F1 = standard_semitorsor(Z2, 2)
    F2 = standard_semitorsor(Z2, 3)
    r = check_equivalence(F1, F2)
    assert r.gset_hom_count == r.torsor_hom_count == 0
    assert r.bijective


def _swapped_z2_gset():
    # Z2 on 4 points with orbits {0, 3} and {1, 2}, so frames are not the identity's
    return make_gset(Z2, [[0, 1, 2, 3], [3, 2, 1, 0]])


@pytest.mark.parametrize(
    "F",
    [
        standard_semitorsor(make_cyclic(1), 3),
        standard_semitorsor(Z2, 2),
        standard_semitorsor(Z3, 2),
        standard_semitorsor(make_symmetric(3), 1),
        standard_semitorsor(make_direct_product(Z2, Z2), 2),
        _swapped_z2_gset(),
    ],
    ids=["Z1-3", "Z2-2", "Z3-2", "S3-1", "Z2xZ2-2", "Z2-swapped"],
)
def test_frames_as_torsor_matches_direct_action(F):
    # the direct wreath action on frame indices is a torsor of the wreath
    # Cayley table: the action law holds, and the action is free and transitive
    fs = enumerate_frames(F)
    wg = wreath_group(F.group, fs.n)
    table = tuple(
        tuple(fs.index[wreath_act(F, w, t)] for t in fs.frames) for w in wg.elements
    )
    torsor = GSet(wg.group, len(fs.frames), table)
    torsor.validate()
    assert is_free(torsor)
    assert is_transitive(torsor)


def test_equivalence_catches_a_wrong_division(monkeypatch):
    F = standard_semitorsor(Z2, 2)
    fs = enumerate_frames(F)
    wrong_frame = fs.frames[1]
    divide_frames = frame_divide

    def wrong_divide(space, f2, f1):
        # a genuine wreath element, but not the quotient, for one frame
        if f2 == wrong_frame:
            return wreath_identity(Z2, 2)
        return divide_frames(space, f2, f1)

    monkeypatch.setattr(frames_module, "frame_divide", wrong_divide)
    with pytest.raises(AssertionError, match="equivariance"):
        check_equivalence(F, F)


def test_equivalence_rejects_different_groups():
    with pytest.raises(ValueError):
        check_equivalence(
            standard_semitorsor(Z2, 2), standard_semitorsor(Z3, 2)
        )


# ---------------------------------------------------------------- frame_map kernel


def _kernel_fixtures():
    sets = [standard_semitorsor(G, n) for G in fixture_groups(6) for n in (1, 2)]
    # a non-standard free Z2-set: orbits {0, 3}, {1, 5}, {2, 4}
    sets.append(make_gset(Z2, [[0, 1, 2, 3, 4, 5], [3, 5, 4, 0, 2, 1]]))
    sets.append(trivial_gset(3))
    return sets


@pytest.mark.parametrize("F", _kernel_fixtures(), ids=repr)
def test_frame_map_sends_the_frame_to_its_image(F):
    fs = enumerate_frames(F)
    model = standard_semitorsor(F.group, fs.n)
    for F2 in [F] if F == model else [F, model]:
        for f in (fs.frames[0], fs.frames[-1]):
            for t in itertools.product(range(F2.size), repeat=fs.n):
                a = frame_map(F, f, F2, t)
                assert tuple(a.value[p] for p in f) == t
                assert check_equivariant(a)
                assert a.is_bijective() == is_basis(F2, t)


@pytest.mark.parametrize("F", _kernel_fixtures(), ids=repr)
def test_smallest_frame_is_the_orbit_representatives(F):
    assert enumerate_frames(F).frames[0] == orbits(F).representatives
