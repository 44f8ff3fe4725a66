import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import u1_oracles as oracle

from framebundles import circle_commands, config, u1
from framebundles.errors import BoundExceeded, NoQuotient
from framebundles.perms import perm_inverse
from framebundles.u1 import (
    FiberPoint,
    U1FlatBundle,
    U1Wreath,
    adjoint,
    all_words,
    division_form_check,
    frame_transport,
    holonomy_u1,
    pushforward,
    scale_wreath,
    transport,
    u1_canonical_frame,
    u1_winding_bundle,
)

A = Fraction  # an angle; the records reduce it into [0, 1)


def rationals(max_den=12):
    return st.fractions(
        min_value=Fraction(-3), max_value=Fraction(3), max_denominator=max_den
    )


def wreath_elements(k, angle_pool):
    """Deterministic fixture family: all permutations x all angle tuples."""
    return [
        U1Wreath(tuple(angles), sigma)
        for angles in itertools.product(angle_pool, repeat=k)
        for sigma in itertools.permutations(range(k))
    ]


# ---------------------------------------------------------------- angles


def test_angle_normalization():
    w = U1Wreath((A(5, 4), A(-1, 4), A(2, 4), A(3, 3), A(-7)), (0, 1, 2, 3, 4))
    assert w.angles == (A(1, 4), A(3, 4), A(1, 2), A(0), A(0))
    assert FiberPoint(A(-5, 4), 0).angle == A(3, 4)
    assert u1_winding_bundle(2, [A(7, 3), A(1, 3)]) == u1_winding_bundle(2, [A(1, 3), A(-2, 3)])


def test_angle_parse_and_str():
    from framebundles.circle_commands import parse_fiber_point

    assert parse_fiber_point({"angle": "-2/3", "sheet": 0}, 1).angle == A(1, 3)
    assert str(FiberPoint(A(4, 3), 0).angle) == "1/3"
    assert str(U1Wreath((A(2),), (0,)).angles[0]) == "0"


def rotation(y) -> U1FlatBundle:
    """The one-sheet, one-loop bundle whose loop turns the circle by ``y``."""
    return U1FlatBundle(1, 1, (U1Wreath((y,), (0,)),))


@given(rationals(), rationals())
def test_angle_addition_matches_fractions(x, y):
    assert transport(rotation(y), (1,), FiberPoint(x, 0)).angle == (x + y) % 1


# ---------------------------------------------------------------- transport


def test_transport_empty_word():
    b = u1_winding_bundle(2)
    p = FiberPoint(A(1, 3), 1)
    assert transport(b, (), p) == p


def test_transport_winding_moves_up_one_sheet():
    b = u1_winding_bundle(2)
    assert transport(b, (1,), FiberPoint(A(0), 0)) == FiberPoint(A(0), 1)


def test_transport_equivariant_under_angle_shift():
    b = u1_winding_bundle(3, [A(1, 12), A(5, 12), A(0)])
    delta = A(1, 5)
    for word in [(1,), (1, 1), (-1,), (1, 1, 1)]:
        for sheet in range(3):
            for i in range(12):
                start = FiberPoint(A(i, 12), sheet)
                shifted = FiberPoint(start.angle + delta, sheet)
                end = transport(b, word, start)
                end_shifted = transport(b, word, shifted)
                assert end_shifted.sheet == end.sheet
                assert end_shifted.angle == (end.angle + delta) % 1


# ---------------------------------------------------------------- holonomy


def test_holonomy_empty_word():
    b = u1_winding_bundle(2)
    assert oracle.of(holonomy_u1(b, ())) == oracle.identity(2)


def test_holonomy_winding_full_loop_accumulates():
    angles = [A(1, 12), A(5, 12), A(0)]
    b = u1_winding_bundle(3, angles)
    h = holonomy_u1(b, (1, 1, 1))
    assert h.sigma == (0, 1, 2)
    # oracle: each sheet accumulates the total angle around the full cycle
    total = angles[0] + angles[1] + angles[2]
    assert h.angles == (total, total, total)


def test_holonomy_inverse_word():
    b = u1_winding_bundle(3, [A(1, 12), A(5, 12), A(0)])
    h = holonomy_u1(b, (1, 1))
    hinv = holonomy_u1(b, (-1, -1))
    assert oracle.of(hinv) == oracle.inv(oracle.of(h))


def test_holonomy_first_letter_acts_first():
    gen1 = U1Wreath((A(1, 4), A(0)), (1, 0))
    gen2 = U1Wreath((A(1, 3), A(0)), (0, 1))
    b = U1FlatBundle(2, 2, (gen1, gen2))
    p = FiberPoint(A(0), 0)
    via_word = transport(b, (1, 2), p)
    step = oracle.act(oracle.of(gen2), *oracle.act(oracle.of(gen1), p.angle, p.sheet))
    assert (via_word.angle, via_word.sheet) == step


def test_holonomy_concatenation_law():
    gen1 = U1Wreath((A(1, 4), A(5, 12)), (1, 0))
    gen2 = U1Wreath((A(1, 3), A(0)), (0, 1))
    b = U1FlatBundle(2, 2, (gen1, gen2))
    words = [(), (1,), (2,), (1, -2), (2, 1)]
    for u in words:
        for v in words:
            assert oracle.of(holonomy_u1(b, u + v)) == oracle.mul(
                oracle.of(holonomy_u1(b, v)), oracle.of(holonomy_u1(b, u))
            )


def test_holonomy_rejects_bad_word():
    b = u1_winding_bundle(2)
    with pytest.raises(ValueError):
        holonomy_u1(b, (0,))
    with pytest.raises(ValueError):
        holonomy_u1(b, (2,))


# ---------------------------------------------------------------- frame holonomy


def test_frame_transport_identity_fixes_frames():
    frame = u1_canonical_frame(3)
    assert frame_transport(U1Wreath(*oracle.identity(3)), frame) == frame


def test_frame_transport_decomposes_entrywise():
    # slot-wise: the frame angle increment at slot s(x) equals the point
    # transport increment of the sheet-x point, with the shared permutation
    b = u1_winding_bundle(3, [A(1, 12), A(5, 12), A(0)])
    for word in [(1,), (1, 1), (-1,), (1, 1, 1)]:
        h = holonomy_u1(b, word)
        moved = frame_transport(h, u1_canonical_frame(3))
        s_inv = perm_inverse(h.sigma)
        for x in range(3):
            p = transport(b, word, FiberPoint(A(0), x))
            assert p.sheet == h.sigma[x]
            assert moved[h.sigma[x]].angle == p.angle
            assert moved[h.sigma[x]].sheet == x
        for slot in range(3):
            assert moved[slot] == FiberPoint(h.angles[slot], s_inv[slot])


def test_frame_holonomy_functorial_over_words():
    gen1 = U1Wreath((A(1, 4), A(0)), (1, 0))
    gen2 = U1Wreath((A(1, 3), A(1, 12)), (0, 1))
    b = U1FlatBundle(2, 2, (gen1, gen2))
    frame = u1_canonical_frame(2)
    for u in [(1,), (2,), (1, 2)]:
        for v in [(1,), (-2,), (2, 1)]:
            direct = frame_transport(holonomy_u1(b, u + v), frame)
            stepped = frame_transport(
                holonomy_u1(b, v), frame_transport(holonomy_u1(b, u), frame)
            )
            assert direct == stepped


# ---------------------------------------------------------------- adjoint


def test_adjoint_identity_permutation():
    w = U1Wreath((A(1, 3), A(1, 4)), (0, 1))
    v = (Fraction(1), Fraction(2))
    assert adjoint(w, v) == v


def test_adjoint_transposition():
    w = U1Wreath((A(0), A(0)), (1, 0))
    assert adjoint(w, (Fraction(1), Fraction(2))) == (Fraction(2), Fraction(1))


def test_adjoint_homomorphism_exhaustive():
    for k in (2, 3):
        pool = [A(0), A(1, 12)]
        elems = wreath_elements(k, pool)
        vec = tuple(Fraction(i + 1, 3) for i in range(k))
        for a in elems:
            for b in elems:
                ab = U1Wreath(*oracle.mul(oracle.of(a), oracle.of(b)))
                assert adjoint(ab, vec) == adjoint(a, adjoint(b, vec))


def test_adjoint_rejects_mismatch():
    with pytest.raises(ValueError):
        adjoint(U1Wreath(*oracle.identity(2)), (Fraction(1),))


# ---------------------------------------------------------------- pushforward


def test_pushforward_power_one_is_identity():
    b = u1_winding_bundle(2, [A(1, 3), A(1, 4)])
    assert pushforward(b, 1) == b


def test_pushforward_doubling_zero_angles_is_same_bundle():
    b = u1_winding_bundle(2)
    assert pushforward(b, 2) == b


def test_pushforward_kernel_collapse():
    b = u1_winding_bundle(1, [A(1, 3)])
    out = pushforward(b, 3)
    assert out.holonomy_gen[0].angles == (A(0),)


def test_pushforward_commutes_with_holonomy():
    gen1 = U1Wreath((A(1, 4), A(5, 12)), (1, 0))
    gen2 = U1Wreath((A(1, 3), A(0)), (0, 1))
    b = U1FlatBundle(2, 2, (gen1, gen2))
    for q in (0, 1, 2, 3, -1):
        pushed = pushforward(b, q)
        for word in all_words(2, 4):
            assert holonomy_u1(pushed, word) == scale_wreath(
                holonomy_u1(b, word), q
            )


# ---------------------------------------------------------------- division form


def triples(angles, sheet=0):
    """Path samples as the ``(numerator, denominator, sheet)`` triples the check reads."""
    return [(a.numerator, a.denominator, sheet) for a in map(A, angles)]


def test_division_form_constant_path():
    r = division_form_check(triples([A(1, 3)] * 4), Fraction(1, 10))
    assert r.constant_rate == 0
    assert r.rates == oracle.rates([A(1, 3)] * 4, Fraction(1, 10))


def test_division_form_linear_quarter_rate():
    angles = [A(i, 400) for i in range(6)]
    r = division_form_check(triples(angles), Fraction(1, 100))
    assert r.constant_rate == Fraction(1, 4)
    assert r.rates == oracle.rates(angles, Fraction(1, 100))


def test_division_form_exponential_rate_recovered():
    # a path exp(t Y) at rate Y = 5/7 sampled with step 1/50
    rate = Fraction(5, 7)
    step = Fraction(1, 50)
    r = division_form_check(triples([rate * step * i for i in range(5)], 2), step)
    assert r.constant_rate == rate
    assert r.sheet == 2


def test_division_form_nonuniform_reports_each_difference():
    angles = [A(0), A(1, 8), A(1, 2)]
    r = division_form_check(triples(angles), Fraction(1, 4))
    assert r.rates == (Fraction(1, 2), Fraction(3, 2)) == oracle.rates(angles, Fraction(1, 4))
    assert r.constant_rate is None


def test_division_form_reads_unreduced_angles_outside_the_unit_interval():
    # any numerator over any positive denominator names its angle mod 1
    angles = [A(-5, 4), A(2), A(9, 8), A(-1, 3)]
    r = division_form_check([(-10, 8, 0), (6, 3, 0), (9, 8, 0), (-2, 6, 0)], Fraction(1, 4))
    assert r.rates == oracle.rates([a % 1 for a in angles], Fraction(1, 4))


def test_division_form_mixed_sheets_rejected():
    with pytest.raises(NoQuotient):
        division_form_check([(0, 1, 0), (1, 8, 1)], Fraction(1, 4))


def test_division_form_reads_every_sample_before_it_reports_a_crossing():
    read = []

    def stream():
        for sample in [(0, 1, 0), (1, 8, 1), (1, 4, 1), (1, 2, 1)]:
            read.append(sample)
            yield sample
        raise ValueError("bad last sample")

    with pytest.raises(ValueError, match="bad last sample"):
        division_form_check(stream(), Fraction(1, 4))
    assert len(read) == 4


def test_division_form_needs_positive_step():
    with pytest.raises(ValueError, match="step must be positive"):
        division_form_check([(0, 1, 0), (1, 8, 0)], Fraction(0))


def test_division_form_needs_two_samples():
    for samples in ([], [(0, 1, 0)], iter([(0, 1, 0)])):
        with pytest.raises(ValueError, match="need at least two samples"):
            division_form_check(samples, Fraction(-1))


def test_division_form_builds_one_fraction_per_distinct_rate():
    angles = [A(i * i % 7, 7) for i in range(50)]
    r = division_form_check(triples(angles), Fraction(1, 3))
    assert r.rates == oracle.rates(angles, Fraction(1, 3))
    assert len({id(q) for q in r.rates}) == len(set(r.rates))


def test_division_form_past_the_shared_rates(monkeypatch):
    # rates past the shared ones are built per pair, with the same values,
    # and a path with more distinct rates than that is not constant
    monkeypatch.setattr(u1, "_SHARED_RATES", 3)
    angles = [A(i * (i + 1) // 2, 31) for i in range(40)]
    r = division_form_check(triples(angles), Fraction(1, 5))
    assert r.rates == oracle.rates(angles, Fraction(1, 5)) and r.constant_rate is None
    assert len({id(q) for q in r.rates if q in set(r.rates[:3])}) == 3
    r = division_form_check(triples([A(2, 31) * i for i in range(40)]), Fraction(1, 5))
    assert r.constant_rate == Fraction(10, 31) and len({id(q) for q in r.rates}) == 1


# ---------------------------------------------------------------- Fraction oracle


def draw_angle(data) -> Fraction:
    """An angle over a denominator up to 10^6, its numerator not yet reduced mod 1."""
    den = data.draw(st.integers(min_value=1, max_value=10**6))
    return A(data.draw(st.integers(min_value=-den, max_value=2 * den)), den)


@settings(deadline=None)
@given(st.data())
def test_integer_core_matches_fraction_oracle(data):
    # k <= 8 sheets, <= 4 loops, a word of up to 200 letters with inverses
    k = data.draw(st.integers(min_value=1, max_value=8))
    loops = data.draw(st.integers(min_value=1, max_value=4))

    def perm():
        return tuple(data.draw(st.permutations(list(range(k)))))

    b = U1FlatBundle(
        k, loops,
        tuple(U1Wreath(tuple(draw_angle(data) for _ in range(k)), perm()) for _ in range(loops)),
    )
    letter = st.integers(min_value=-loops, max_value=loops).filter(bool)
    word = tuple(data.draw(st.lists(letter, max_size=200)))
    start = FiberPoint(draw_angle(data), data.draw(st.integers(min_value=0, max_value=k - 1)))

    gens = [oracle.of(w) for w in b.holonomy_gen]
    want = oracle.holonomy(gens, word, k)
    h = holonomy_u1(b, word)
    assert oracle.of(h) == want

    end = transport(b, word, start)
    assert (end.angle, end.sheet) == oracle.act(want, start.angle, start.sheet)

    frame = tuple(FiberPoint(draw_angle(data), x) for x in perm())
    assert tuple((p.angle, p.sheet) for p in frame_transport(h, frame)) == (
        oracle.frame_transport(want, [(p.angle, p.sheet) for p in frame])
    )

    q = data.draw(st.integers(min_value=-3, max_value=5))
    pushed = pushforward(b, q)
    assert [oracle.of(w) for w in pushed.holonomy_gen] == [oracle.scale(g, q) for g in gens]
    assert oracle.of(holonomy_u1(pushed, word)) == oracle.scale(want, q)

    x, y = start.angle, draw_angle(data)
    assert transport(rotation(y), (1,), FiberPoint(x, 0)).angle == (x + y) % 1
    assert holonomy_u1(rotation(y), (-1,)).angles == (-y % 1,)
    assert scale_wreath(U1Wreath((y,), (0,)), q).angles == (y * q % 1,)

    samples = [draw_angle(data) for _ in range(data.draw(st.integers(min_value=2, max_value=6)))]
    step = data.draw(st.fractions(min_value=Fraction(1, 10**6), max_value=3, max_denominator=10**6))
    report = division_form_check(triples(samples, start.sheet), step)
    assert report.rates == oracle.rates([a % 1 for a in samples], step)


def test_circle_work_bound_refuses_before_the_work(monkeypatch):
    # each refusal names the knob and the estimated work; one unit less passes
    monkeypatch.setattr(config, "MAX_CIRCLE_WORK", 12)
    knob = "exceeds config.MAX_CIRCLE_WORK = 12"
    b = u1_winding_bundle(3)
    holonomy_u1(b, (1,) * 4)
    with pytest.raises(BoundExceeded, match=rf"k x \|word\|\): 15 {knob}"):
        holonomy_u1(b, (1,) * 5)
    transport(b, (1,) * 12, FiberPoint(A(0), 0))
    with pytest.raises(BoundExceeded, match=rf"\(\|word\|\): 13 {knob}"):
        transport(b, (1,) * 13, FiberPoint(A(0), 0))
    # the angle count is checked before the generators are read
    with pytest.raises(BoundExceeded, match=rf"k x loops\): 13 {knob}"):
        circle_commands.parse_u1_bundle({"k": 13, "loops": 1, "generators": []})
    points = [{"angle": "1/3", "sheet": 0}] * 13
    circle_commands.parse_path({"step": "1/10", "points": points[:12]}, 1)
    with pytest.raises(BoundExceeded, match=rf"samples to parse: 13 {knob}"):
        circle_commands.parse_path({"step": "1/10", "points": points}, 1)
