import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from helly_plane import algorithms
from helly_plane.algorithms import choose_signs, ginzburg_reduce, make_generic
from helly_plane.errors import (
    BadInput,
    EpsilonTooLarge,
    EvenCardinality,
    HalfplaneViolated,
    NotPolygonal,
    NotUnitVectors,
    SamplingExhausted,
    ZeroDirection,
)
from helly_plane.generators import (
    gen_euclidean_halfplane_instance,
    gen_random_ball,
    gen_unit_vectors,
)
from helly_plane.norms import edge_functionals, gauge
from helly_plane.vectors import Vec2, vsum

from oracles import all_ksums, ref_ginzburg_reduce

F = Fraction
TOL = 1e-9


# ---------------------------------------------------------------------------
# rotation reduction
# ---------------------------------------------------------------------------

def _assert_trace_invariants(trace, n):
    assert len(trace.steps) == n + 1
    norms = [s.norm for s in trace.steps]
    for a, b in zip(norms, norms[1:]):
        assert b <= a + TOL, f"norm increased: {norms}"
    final = trace.steps[-1]
    assert final.moving == ()
    for v in final.fixed:
        assert abs(abs(v.x) - 1.0) <= TOL and abs(v.y) <= TOL
    assert abs(final.norm - round(final.norm)) <= TOL
    assert round(final.norm) % 2 == 1
    assert final.norm >= 1 - TOL


def test_ginzburg_single_vector():
    trace = ginzburg_reduce([Vec2(0.0, 1.0)], Vec2(0.0, 1.0))
    _assert_trace_invariants(trace, 1)
    assert abs(trace.steps[-1].norm - 1.0) <= TOL


def test_ginzburg_axis_vectors_fix_immediately():
    trace = ginzburg_reduce(
        [Vec2(1.0, 0.0), Vec2(0.0, 1.0), Vec2(-1.0, 0.0)], Vec2(0.0, 1.0)
    )
    _assert_trace_invariants(trace, 3)
    # the two axis vectors pin with zero rotation in the first two steps
    assert len(trace.steps[1].fixed) == 1
    assert len(trace.steps[2].fixed) == 2
    assert abs(trace.steps[-1].norm - 1.0) <= TOL


def test_ginzburg_three_up_descends_to_one():
    trace = ginzburg_reduce([Vec2(0.0, 1.0)] * 3, Vec2(0.0, 1.0))
    _assert_trace_invariants(trace, 3)
    assert abs(trace.steps[0].norm - 3.0) <= TOL
    assert abs(trace.steps[-1].norm - 1.0) <= TOL


def test_ginzburg_rotated_frame():
    # family in the halfplane of u = (1, 0); frame rotation handles it
    trace = ginzburg_reduce(
        [Vec2(1.0, 0.0), Vec2(0.8, 0.6), Vec2(0.8, -0.6)], Vec2(1.0, 0.0)
    )
    _assert_trace_invariants(trace, 3)


def test_ginzburg_errors():
    with pytest.raises(ZeroDirection):
        ginzburg_reduce([Vec2(0.0, 1.0)], Vec2(0.0, 0.0))
    with pytest.raises(ZeroDirection):  # a rational u read as the float (0, 0)
        ginzburg_reduce([Vec2(0.0, 1.0)], Vec2(F(1, 10**400), 0))
    with pytest.raises(EvenCardinality):
        ginzburg_reduce([Vec2(0.0, 1.0)] * 2, Vec2(0.0, 1.0))
    with pytest.raises(NotUnitVectors):
        ginzburg_reduce([Vec2(0.0, 0.5)], Vec2(0.0, 1.0))
    with pytest.raises(HalfplaneViolated):
        ginzburg_reduce([Vec2(0.0, -1.0)], Vec2(0.0, 1.0))


@pytest.mark.parametrize("vectors, u", [
    ([Vec2(math.nan, 1.0)], Vec2(0.0, 1.0)),
    ([Vec2(0.0, 1.0)], Vec2(math.nan, 1.0)),
    ([(0.0, 1.0)], Vec2(0.0, 1.0)),
    ([Vec2("1", "0")], Vec2(0.0, 1.0)),
    ([Vec2(0.0, 1.0)], Vec2("0", "1")),
], ids=["nan-vector", "nan-u", "tuple", "str-vector", "str-u"])
def test_ginzburg_bad_values_are_bad_input(vectors, u):
    # not a bare IndexError or AttributeError, and no str read as a number
    with pytest.raises(BadInput, match="must be"):
        ginzburg_reduce(vectors, u)


def test_ginzburg_reads_rationals_as_float_does():
    rationals = [Vec2(F(3, 5), F(4, 5)), Vec2(F(-5, 13), F(12, 13)), Vec2(1, 0)]
    u = Vec2(F(1, 3), 1)
    got = ginzburg_reduce(rationals, u)
    want = ginzburg_reduce([Vec2(float(v.x), float(v.y)) for v in rationals], Vec2(1 / 3, 1.0))
    assert [s.to_json() for s in got.steps] == [s.to_json() for s in want.steps]


def test_ginzburg_random_instances():
    for seed in range(200):
        vectors, u = gen_euclidean_halfplane_instance(seed)
        trace = ginzburg_reduce(vectors, u)
        _assert_trace_invariants(trace, len(vectors))


def test_ginzburg_matches_the_angle_reference():
    # criterion 8's draws and the generator's first seeds
    seeds = [20240611 ^ i for i in range(1000)] + list(range(1000))
    for seed in seeds:
        vectors, u = gen_euclidean_halfplane_instance(seed)
        got, want = ginzburg_reduce(vectors, u, TOL), ref_ginzburg_reduce(vectors, u, TOL)
        for g, w in zip(got.steps, want.steps, strict=True):
            assert g.fixed == w.fixed, seed  # the same signs pinned, in index order
            assert len(g.moving) == len(w.moving), seed
            for p, q in zip(g.moving, w.moving):
                assert abs(p.x - q.x) <= 1e-12 and abs(p.y - q.y) <= 1e-12, seed
            assert abs(g.norm - w.norm) <= 1e-12, seed


def _circle_point(t):
    return Vec2(float((1 - t * t) / (1 + t * t)), float(2 * t / (1 + t * t)))


def test_ginzburg_on_tie_heavy_families():
    # duplicates of the axis ends and the top, and of two circle points
    rng = random.Random(27)
    for _ in range(300):
        pool = [Vec2(1.0, 0.0), Vec2(-1.0, 0.0), Vec2(0.0, 1.0)]
        pool += [_circle_point(F(rng.randint(0, 400), rng.randint(1, 40))) for _ in range(2)]
        vectors = [rng.choice(pool) for _ in range(rng.choice([1, 3, 5, 7, 9]))]
        trace = ginzburg_reduce(vectors, Vec2(0.0, 1.0))
        _assert_trace_invariants(trace, len(vectors))
        pinned = {(v.x, v.y) for step in trace.steps for v in step.fixed}
        assert pinned <= {(1.0, 0.0), (-1.0, 0.0)}


def test_ginzburg_starts_from_exact_unit_vectors_as_given():
    vectors = [Vec2(1.0, 0.0), Vec2(0.0, 1.0), Vec2(-1.0, 0.0), Vec2(0.6, 0.8), Vec2(-0.8, 0.6)]
    assert all(math.hypot(v.x, v.y) == 1.0 for v in vectors)
    moving = ginzburg_reduce(vectors, Vec2(0.0, 1.0)).steps[0].moving
    assert [(p.x.hex(), p.y.hex()) for p in moving] == [(v.x.hex(), v.y.hex()) for v in vectors]
    assert ginzburg_reduce(vectors[:3], Vec2(0.0, 1.0)).steps[0].norm == 1.0


@pytest.mark.parametrize("u", [Vec2(1.7e308, 1.7e308), Vec2(5e-324, 5e-324)], ids=["huge", "tiny"])
def test_ginzburg_reads_only_the_direction_of_u(u):
    vectors = [Vec2(0.6, 0.8), Vec2(1.0, 0.0), Vec2(0.0, 1.0)]
    got = ginzburg_reduce(vectors, u)
    want = ginzburg_reduce(vectors, Vec2(1.0, 1.0))
    assert [s.to_json() for s in got.steps] == [s.to_json() for s in want.steps]


def test_ginzburg_refuses_a_vector_with_no_direction_that_a_wide_tol_lets_by():
    # neither has a direction in the halfplane to rotate: a zero vector, and
    # one straight below whose frame point the clamp takes to (0, 0)
    up = Vec2(0.0, 1.0)
    with pytest.raises(NotUnitVectors, match=r"^vector 1 has Euclidean norm 0\.0$"):
        ginzburg_reduce([Vec2(1.0, 0.0), Vec2(0.0, 0.0), Vec2(0.0, 1.0)], up, tol=1.0)
    with pytest.raises(HalfplaneViolated, match=r"^vector 0 has no direction in the halfplane$"):
        ginzburg_reduce([Vec2(0.0, -0.5)], up, tol=0.5)
    with pytest.raises(HalfplaneViolated, match=r"^vector 0 lies below the halfplane$"):
        ginzburg_reduce([Vec2(0.0, -1.0)], up, tol=0.5)
    # one ulp off straight below still has a direction: the left end
    trace = ginzburg_reduce([Vec2(-5e-324, -0.5)], up, tol=0.5)
    assert trace.steps[0].moving == (Vec2(-1.0, 0.0),)


# ---------------------------------------------------------------------------
# sign choice
# ---------------------------------------------------------------------------

def test_signs_all_up(euclid):
    assert choose_signs(euclid, [Vec2(0.0, 1.0)] * 3).signs == [1, 1, 1]


def test_signs_up_down(euclid):
    assert choose_signs(euclid, [Vec2(0.0, 1.0), Vec2(0.0, -1.0)]).signs == [1, -1]


def test_signs_requires_unit(square):
    with pytest.raises(NotUnitVectors):
        choose_signs(square, [Vec2(0, F(1, 2))])


def test_signs_exhaustive_check_square(square):
    vs = gen_unit_vectors(square, 7, 91)
    sv = choose_signs(square, vs)
    signed = [v.scale(s) for v, s in zip(vs, sv.signs)]
    for size in (1, 3, 5, 7):
        for t in combinations(range(7), size):
            assert gauge(square, vsum(signed[i] for i in t)) >= 1


def test_signs_random_balls():
    for seed in range(60):
        rng = random.Random(seed)
        ball = gen_random_ball(seed ^ 0xF00)
        n = rng.randint(1, 9)
        vs = gen_unit_vectors(ball, n, seed)
        sv = choose_signs(ball, vs)  # raises if its own verification fails
        assert len(sv.signs) == n
        assert all(s in (-1, 1) for s in sv.signs)


@pytest.mark.parametrize("n,checked", [(1, 1), (3, 4), (15, 2**14), (16, 1000)])
def test_signs_counts_odd_subsets(square, n, checked):
    # up to 15 vectors every odd subset is checked; from 16 on a 1000-sample
    vs = gen_unit_vectors(square, n, seed=n)
    assert choose_signs(square, vs).odd_subsets_checked == checked


# ---------------------------------------------------------------------------
# general-position perturbation
# ---------------------------------------------------------------------------

def test_generic_single_vector_misses_all_lines(square):
    [u1] = make_generic(square, [Vec2(0, 1)], F(99, 100), F(1, 1000), seed=7)
    assert all(n.dot(u1) != 0 for n in edge_functionals(square))
    assert gauge(square, u1 - Vec2(0, 1).scale(F(99, 100))) <= F(1, 1000)


def test_generic_three_vectors(square):
    vs = [Vec2(0, 1), Vec2(1, 1), Vec2(F(-1, 2), 1)]
    us = make_generic(square, vs, F(99, 100), F(1, 1000), seed=3)
    [k3] = all_ksums(us, 3)
    values = [n.dot(k3.value) for n in edge_functionals(square)]
    assert len(set(values)) == len(values)


def test_generic_five_vectors_distinct_gauges(square):
    vs = gen_unit_vectors(square, 5, seed=5)
    us = make_generic(square, vs, F(99, 100), F(1, 1000), seed=6)
    gauges = [gauge(square, k.value) for k in all_ksums(us, 3)]
    gauges += [gauge(square, k.value) for k in all_ksums(us, 5)]
    assert len(set(gauges)) == len(gauges) == 11
    for v, u in zip(vs, us):
        assert gauge(square, u - v.scale(F(99, 100))) <= F(1, 1000)
        assert gauge(square, u) < 1


def test_generic_family_with_a_float_coordinate_is_perturbed_as_floats(square):
    # one float coordinate makes the whole family float, as `Family` reads it
    [u] = make_generic(square, [Vec2(0, 0.5)], F(1, 2), F(1, 100), seed=1)
    assert type(u.x) is float and type(u.y) is float
    assert make_generic(square, [Vec2(0.0, 0.5)], F(1, 2), F(1, 100), seed=1) == (u,)


def test_generic_epsilon_too_large(square):
    with pytest.raises(EpsilonTooLarge):
        make_generic(square, [Vec2(0, 1)], F(99, 100), F(1, 2), seed=1)


@pytest.mark.parametrize("lam, eps", [
    (float("nan"), F(1, 1000)), (float("inf"), F(1, 1000)), ("x", F(1, 1000)), (None, F(1, 1000)),
    (F(9, 10), float("nan")), (F(9, 10), float("inf")), (F(9, 10), "x"), (F(9, 10), None),
    (F(2), F(1, 1000)), (F(9, 10), 0),  # numbers out of range
])
def test_generic_bad_lambda_or_epsilon_is_bad_input(square, lam, eps):
    with pytest.raises(BadInput):
        make_generic(square, [Vec2(0, 1)], lam, eps, seed=1)


@pytest.mark.parametrize("vectors", [
    [(0, 1)], [Vec2(math.nan, F(1, 2))], [Vec2(F(1, 2), "0")],
], ids=["tuple", "nan", "str"])
def test_generic_bad_vectors_are_bad_input(square, vectors):
    # a NaN is not "perturbation moved too far", nor a str a bare AttributeError
    with pytest.raises(BadInput, match="must be"):
        make_generic(square, vectors, F(9, 10), F(1, 1000), seed=1)


def test_generic_gives_up_after_its_retry_budget(square, monkeypatch):
    # every sample at the centre (0, 1/4): the edge functional (1, 0) takes the
    # value 0 there, which the empty subset already holds, so each try is rejected
    draws = []
    monkeypatch.setattr(algorithms, "_grid_fraction", lambda rng, radius: draws.append(radius) or 0)
    monkeypatch.setattr(algorithms, "_MAX_TRIES", 3)
    with pytest.raises(SamplingExhausted, match=r"subsets \(\) and \(0,\)"):
        make_generic(square, [Vec2(0, F(1, 2))], F(1, 2), F(1, 10), seed=1)
    assert len(draws) == 2 * 3


@pytest.mark.parametrize("seed", [None, True, 1.5], ids=["none", "true", "float"])
def test_generic_seed_that_is_not_an_int_is_bad_input(square, seed):
    with pytest.raises(BadInput, match="seed must be an int"):
        make_generic(square, [Vec2(0, 1)], F(9, 10), F(1, 1000), seed)


def test_generic_requires_polygonal(euclid):
    with pytest.raises(NotPolygonal):
        make_generic(euclid, [Vec2(0.0, 1.0)], F(1, 2), F(1, 100), seed=1)


def test_generic_deterministic(square):
    vs = gen_unit_vectors(square, 4, seed=8)
    a = make_generic(square, vs, F(9, 10), F(1, 1000), seed=21)
    b = make_generic(square, vs, F(9, 10), F(1, 1000), seed=21)
    assert a == b
    c = make_generic(square, vs, F(9, 10), F(1, 1000), seed=22)
    assert a != c


def test_generic_random_balls():
    for seed in range(25):
        rng = random.Random(seed)
        ball = gen_random_ball(seed ^ 0xBEEF)
        n = rng.randint(1, 7)
        vs = gen_unit_vectors(ball, n, seed)
        us = make_generic(ball, vs, F(99, 100), F(1, 1000), seed=seed)
        gauges = []
        for size in (3, 5):
            if size <= n:
                gauges += [gauge(ball, k.value) for k in all_ksums(us, size)]
        assert len(set(gauges)) == len(gauges)
