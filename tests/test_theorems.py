import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from helly_plane.errors import (
    BadInput,
    BadK,
    EvenCardinality,
    HypothesisFailed,
    NotOnBoundary,
    PreconditionFailed,
    TooFew,
    ZeroDirection,
)
from helly_plane.generators import gen_direction, gen_random_ball, gen_unit_vectors, gen_zero_sum_six
from helly_plane.norms import euclidean_ball, gauge, make_polygonal_ball, square_ball
from helly_plane.theorems import (
    claim1_triplets,
    corollary_check,
    halfplane_certificate,
    lemma_conv_check,
    lemma_main_witness,
    verify_helly,
    verify_theorem1,
)
from helly_plane.vectors import Vec2, vsum

from oracles import all_ksums, ref_verify_theorem1, verify_helly_1d

F = Fraction


# ---------------------------------------------------------------------------
# k-sums
# ---------------------------------------------------------------------------

def test_ksums_empty_subset():
    [k0] = all_ksums([Vec2(1, 0), Vec2(0, 1)], 0)
    assert k0.subset == () and k0.value == Vec2(0, 0)


def test_ksums_full_sum():
    [k3] = all_ksums([Vec2(1, 1), Vec2(-1, 1), Vec2(0, F(-1, 2))], 3)
    assert k3.value == Vec2(0, F(3, 2))


def test_ksums_count_and_order():
    ks = all_ksums([Vec2(1, 0)] * 6, 3)
    assert len(ks) == 20
    assert [k.subset for k in ks] == sorted(k.subset for k in ks)


def test_ksum_complement_consistency():
    rng = random.Random(5)
    ball = gen_random_ball(2)
    vs = gen_unit_vectors(ball, 6, 77)
    total = vsum(vs)
    for k in range(7):
        for ks in all_ksums(vs, k):
            comp = tuple(i for i in range(6) if i not in ks.subset)
            comp_sum = vsum(vs[i] for i in comp)
            assert ks.value + comp_sum == total


def test_ksums_bad_k():
    with pytest.raises(ValueError):
        all_ksums([Vec2(1, 0)], 2)


# ---------------------------------------------------------------------------
# the halfplane bound and its certificate
# ---------------------------------------------------------------------------

def test_theorem1_euclid_triple(euclid):
    r = verify_theorem1(euclid, [Vec2(0.0, 1.0)] * 3, Vec2(0.0, 1.0))
    assert r.hypothesis_holds and r.conclusion_holds
    assert abs(r.total_norm - 3.0) < 1e-12


def test_theorem1_maxnorm_equality(square):
    vs = [Vec2(-1, F(1, 10))] * 3 + [Vec2(1, F(1, 10))] * 2
    r = verify_theorem1(square, vs, Vec2(0, 1))
    assert r.hypothesis_holds
    assert r.total_norm == 1  # equality, still a conclusion pass
    assert r.conclusion_holds


def test_theorem1_euclid_equality(euclid):
    r = verify_theorem1(euclid, [Vec2(1.0, 0.0), Vec2(-1.0, 0.0), Vec2(0.0, 1.0)], Vec2(0.0, 1.0))
    assert r.hypothesis_holds and r.conclusion_holds
    assert abs(r.total_norm - 1.0) < 1e-12


def test_theorem1_hypothesis_failures(square):
    r = verify_theorem1(square, [Vec2(1, 1), Vec2(-1, 1)], Vec2(0, 1))
    assert not r.hypothesis_holds  # even size
    r = verify_theorem1(square, [Vec2(0, F(1, 2))] * 3, Vec2(0, 1))
    assert not r.hypothesis_holds and r.witnesses
    r = verify_theorem1(square, [Vec2(0, 1), Vec2(0, 1), Vec2(0, -1)], Vec2(0, 1))
    assert not r.hypothesis_holds
    with pytest.raises(ZeroDirection):
        verify_theorem1(square, [Vec2(0, 1)], Vec2(0, 0))


def test_theorem1_float_halfplane_depends_on_the_direction_of_u_only(euclid):
    # u·v is judged within tol·|u|: v at 1e-10 below the line holds for
    # every length of u, and v at 1e-8 below it leaves the halfplane
    near = Vec2(math.sqrt(1 - 1e-20), -1e-10)
    for u in (Vec2(0.0, 1.0), Vec2(0.0, 1000.0), Vec2(0.0, 0.001)):
        assert verify_theorem1(euclid, [near, Vec2(0.0, 1.0), Vec2(-1.0, 0.0)], u).hypothesis_holds
    r = verify_theorem1(euclid, [Vec2(1.0, -1e-8), Vec2(0.0, 1.0), Vec2(-1.0, 0.0)], Vec2(0.0, 0.001))
    assert not r.hypothesis_holds and r.notes == "vector 0 leaves the halfplane"


def test_theorem1_report_json(square):
    r = verify_theorem1(square, [Vec2(0, 1)] * 3, Vec2(0, 1))
    doc = r.to_json()
    assert doc["theorem"] == "T1"
    assert doc["hypothesis"] is True and doc["conclusion"] is True
    assert doc["total"] == ["0", "3"]
    assert doc["total_norm"] == "3"


def test_helly_report_json_wire_format(square):
    r = verify_helly(square, [Vec2(0, 1)] * 3, strict=False)
    doc = r.to_json()
    assert doc["theorem"] == "T2"
    assert doc["hypothesis"] is True
    assert doc["conclusion"] is True
    assert doc["total"] == ["0", "3"]
    assert doc["total_norm"] == "3"
    assert doc["witnesses"] == []


def test_certificate_euclid_example(euclid):
    c = halfplane_certificate(
        euclid, [Vec2(-1.0, 0.0), Vec2(0.0, 1.0), Vec2(1.0, 0.0)], Vec2(0.0, 1.0)
    )
    assert c.k == 2
    assert c.ordered[c.k - 1] == Vec2(0.0, 1.0)
    assert [round(p, 12) for p in c.projections] == [0.0, 1.0, 0.0]
    assert abs(c.projection_sum - 1.0) < 1e-12


def test_certificate_square_repeated_vertex(square):
    c = halfplane_certificate(square, [Vec2(1, 1)] * 3, Vec2(0, 1))
    assert c.projections == [1, 1, 1]
    assert c.projection_sum == 3


def test_certificate_square_spread(square):
    c = halfplane_certificate(square, [Vec2(-1, 1), Vec2(0, 1), Vec2(1, 1)], Vec2(0, 1))
    assert c.projection_sum >= 1


def test_certificate_equality_is_exactly_one(square):
    vs = [Vec2(-1, F(1, 10))] * 3 + [Vec2(1, F(1, 10))] * 2
    c = halfplane_certificate(square, vs, Vec2(0, 1))
    assert c.projection_sum == 1


def test_certificate_requires_hypothesis(square):
    with pytest.raises(HypothesisFailed):
        halfplane_certificate(square, [Vec2(0, 1), Vec2(0, -1), Vec2(0, 1)], Vec2(0, 1))


def test_certificate_projection_is_tangent_value():
    # the projection of v equals the tangent functional at the middle vector
    for seed in range(25):
        rng = random.Random(seed)
        ball = gen_random_ball(seed)
        u = gen_direction(rng)
        vs = gen_unit_vectors(ball, rng.choice([3, 5, 7]), seed * 13 + 1, halfplane=u)
        c = halfplane_certificate(ball, vs, u)
        for v, p in zip(c.ordered, c.projections):
            assert c.tangent.dot(v) == p
        assert c.projection_sum >= 1
        assert c.tangent.dot(c.ordered[c.k - 1]) == 1
        # tangent stays below the gauge on the whole ball
        for v in ball.vertices:
            assert c.tangent.dot(v) <= 1


def test_certificate_orthogonal_vectors(square):
    # vectors exactly on the halfplane boundary line sort to the two ends
    vs = [Vec2(-1, 0), Vec2(1, 0), Vec2(0, 1)]
    c = halfplane_certificate(square, vs, Vec2(0, 1))
    assert c.ordered[0] == Vec2(1, 0)
    assert c.ordered[-1] == Vec2(-1, 0)
    assert c.projection_sum >= 1


def test_certificate_short_edges_float():
    # three edge functionals are within the tolerance of 1 at the float point
    # (1, e): a supporting functional must still come back, not an error
    e = Fraction(1, 10**11)
    ball = make_polygonal_ball(
        [Vec2(1, 0), Vec2(1, e), Vec2(0, 1), Vec2(-1, 0), Vec2(-1, -e), Vec2(0, -1)]
    )
    v = Vec2(1.0, float(e))
    c = halfplane_certificate(ball, [v], Vec2(1, 0), 1e-9)
    assert abs(c.tangent.dot(v) - 1) <= 1e-9
    assert all(c.tangent.dot(w) <= 1 for w in ball.vertices)
    assert abs(c.projection_sum - 1) <= 1e-9


def test_theorem1_property_random():
    for seed in range(300):
        rng = random.Random(seed)
        ball = gen_random_ball(seed ^ 0xABCD)
        u = gen_direction(rng)
        vs = gen_unit_vectors(ball, rng.choice([3, 5, 7, 9]), seed, halfplane=u)
        r = verify_theorem1(ball, vs, u)
        assert r.hypothesis_holds
        assert r.conclusion_holds, f"falsified at seed {seed}"


# coordinates of every kind in [-1, 1]; the rationals are dyadic, so a sum
# in floats is exact whichever order it rounds in
_T1_COORDINATES = [0, 1, -1, 0.0, -0.0, 1.0, -1.0, 0.25, -0.5, F(1), F(1, 2), F(-3, 4)]


@st.composite
def _t1_families(draw):
    """Families mixing int, `Fraction`, float and ±0.0 coordinates: vectors
    with one coordinate ±1 (unit vectors of the max norm), a few halved,
    often all mirrored into the halfplane of u. When any coordinate is a
    float the first vector is a float pair, so the eager reference's running
    sum is a float from the start, as the family's float pairs are."""
    u = draw(st.sampled_from([Vec2(0, 1), Vec2(0.0, 1.0), Vec2(1, 1), Vec2(F(1, 2), -1)]))
    vs = []
    for _ in range(draw(st.integers(0, 7))):
        s, t = draw(st.sampled_from([1, -1, 1.0, -1.0, F(1)])), draw(st.sampled_from(_T1_COORDINATES))
        v = Vec2(s, t) if draw(st.booleans()) else Vec2(t, s)
        vs.append(v.scale(F(1, 2)) if draw(st.integers(0, 9)) == 0 else v)
    if draw(st.booleans()):
        vs = [-v if u.dot(v) < 0 else v for v in vs]
    if any(isinstance(c, float) for v in vs for c in (v.x, v.y)):
        vs[0] = Vec2(float(vs[0].x), float(vs[0].y))
    return vs, u


@settings(max_examples=300, deadline=None)
@given(ball=st.sampled_from([square_ball(), euclidean_ball(), gen_random_ball(5)]), family=_t1_families())
def test_theorem1_report_matches_the_eager_reference(ball, family):
    vs, u = family
    report = verify_theorem1(ball, vs, u)
    assert report.to_json() == ref_verify_theorem1(ball, vs, u).to_json()
    event(f"hypothesis {report.hypothesis_holds}, conclusion {report.conclusion_holds}")


# ---------------------------------------------------------------------------
# three-sum theorems
# ---------------------------------------------------------------------------

def test_helly_boundary_example(square):
    vs = [Vec2(1, 1), Vec2(-1, 1)] + [Vec2(0, F(-1, 2))] * 3
    strict = verify_helly(square, vs, strict=True)
    assert not strict.hypothesis_holds
    witness_values = {(w.value.x, w.value.y) for w in strict.witnesses}
    assert (1, 0) in witness_values or (F(1), F(0)) in witness_values
    lax = verify_helly(square, vs, strict=False)
    assert not lax.hypothesis_holds  # the short vectors are not unit
    assert lax.total_norm == F(1, 2)


def test_helly_trivial_instance(euclid):
    r = verify_helly(euclid, [Vec2(0.0, 1.0)] * 3, strict=True)
    assert r.hypothesis_holds and r.conclusion_holds


def test_helly_errors(square):
    with pytest.raises(TooFew):
        verify_helly(square, [Vec2(1, 1)], strict=True)
    with pytest.raises(EvenCardinality):
        verify_helly(square, [Vec2(1, 1)] * 4, strict=True)


def test_helly_1d_example():
    xs = [F(1), F(9, 10), F(8, 10), F(-1, 2), F(9, 10)]
    r = verify_helly_1d(xs, strict=True)
    assert r.hypothesis_holds and r.conclusion_holds
    assert r.total_norm == F(31, 10)
    min3 = min(
        abs(xs[i] + xs[j] + xs[k]) for i, j, k in combinations(range(5), 3)
    )
    assert min3 == F(6, 5)


def test_helly_collinear_dispatch(square):
    xs = [F(1), F(9, 10), F(8, 10), F(-1, 2), F(9, 10)]
    vs = [Vec2(1, 1).scale(x) for x in xs]
    r = verify_helly(square, vs, strict=True)
    assert r.hypothesis_holds and r.conclusion_holds
    assert r.total_norm == F(31, 10)


def test_helly_nonhalfplane_instance(square):
    # a true instance whose vectors do not fit in any halfplane
    vs = [Vec2(1, 1), Vec2(-1, 1), Vec2(0, -1)]
    r = verify_helly(square, vs, strict=False)
    assert r.hypothesis_holds
    assert r.conclusion_holds


def test_helly_property_random():
    for seed in range(200):
        rng = random.Random(seed)
        ball = gen_random_ball(seed ^ 0x7777)
        u = gen_direction(rng)
        vs = gen_unit_vectors(ball, rng.choice([3, 5, 7]), seed, halfplane=u)
        lax = verify_helly(ball, vs, strict=False)
        assert lax.hypothesis_holds  # halfplane families always satisfy it
        assert lax.conclusion_holds
        strict = verify_helly(ball, vs, strict=True)
        if strict.hypothesis_holds:
            assert strict.conclusion_holds


# ---------------------------------------------------------------------------
# corollary
# ---------------------------------------------------------------------------

def test_corollary_trivial(euclid):
    r = corollary_check(euclid, [Vec2(0.0, 1.0)] * 7, 5)
    assert r.hypothesis_holds and r.conclusion_holds


def test_corollary_enumerates(euclid):
    vs = gen_unit_vectors(euclid, 5, 3, halfplane=Vec2(0.0, 1.0))
    r = corollary_check(euclid, vs, 5)
    if r.hypothesis_holds:
        assert r.conclusion_holds


def test_corollary_boundary_example(square):
    vs = [Vec2(1, 1), Vec2(-1, 1)] + [Vec2(0, F(-1, 2))] * 3
    r = corollary_check(square, vs, 5)
    assert not r.hypothesis_holds


def test_corollary_bad_k(square):
    vs = [Vec2(1, 1)] * 7
    for k in (4, 3, 2, 9, 5.0, Fraction(5), "5", None):
        with pytest.raises(BadK):
            corollary_check(square, vs, k)


BAD_VALUES = {
    "claim1-str": lambda ball: claim1_triplets(["1", "0", "0", "0", "0", "-1"]),
    "claim1-float-and-str": lambda ball: claim1_triplets([1.0, "0", 0, 0, 0, -1]),
    "helly-ints": lambda ball: verify_helly(ball, [1, 2, 3], True),
    "helly-floats": lambda ball: verify_helly(ball, [1.0, 2.0, 3.0], False),
    "helly-str-coordinates": lambda ball: verify_helly(ball, [Vec2("1", "0")] * 3, False),
    "helly-float-and-str": lambda ball: verify_helly(ball, [Vec2(0.5, "x")] * 3, False),
    "helly-float-and-none": lambda ball: verify_helly(ball, [Vec2(0.5, None)] * 3, False),
    # the float path reads only finite ints, rationals and floats, as the rational path does
    "helly-float-and-numeral": lambda ball: verify_helly(ball, [Vec2(1.0, "0")] * 3, False),
    "helly-float-and-bytes": lambda ball: verify_helly(ball, [Vec2(1.0, b"0")] * 3, False),
    "helly-nan": lambda ball: verify_helly(ball, [Vec2(math.nan, 0.0)] * 3, False),
    "helly-inf": lambda ball: verify_helly(ball, [Vec2(1.0, -math.inf)] * 3, True),
    "helly-float-and-huge-rational": lambda ball: verify_helly(ball, [Vec2(0.5, F(10**401))] * 3, False),
    "corollary-ints": lambda ball: corollary_check(ball, [1, 2, 3, 4, 5], 5),
    # a halfplane direction must be a vector of finite numbers too
    "theorem1-str-direction": lambda ball: verify_theorem1(ball, [Vec2(1, 1)], Vec2("0", "1")),
    "theorem1-nan-direction": lambda ball: verify_theorem1(ball, [Vec2(1, 1)], Vec2(math.nan, 1.0)),
    "certificate-str-direction": lambda ball: halfplane_certificate(ball, [Vec2(1, 1)], Vec2(0, "1")),
    "certificate-nan-direction": lambda ball: halfplane_certificate(ball, [Vec2(1, 1)], Vec2(0.0, math.nan)),
    "theorem1-tuple-direction": lambda ball: verify_theorem1(ball, [Vec2(1, 1)], (0, 1)),
    "lemma-conv-ints": lambda ball: lemma_conv_check(ball, [1, 2, 3]),
}


@pytest.mark.parametrize("name", sorted(BAD_VALUES))
def test_bad_values_are_bad_input(square, name):
    # not a bare AttributeError from deep inside the lattice form
    with pytest.raises(BadInput, match="must be"):
        BAD_VALUES[name](square)


# ---------------------------------------------------------------------------
# the two lemmas and the triple count
# ---------------------------------------------------------------------------

def test_lemma_conv_examples(square, euclid):
    assert lemma_conv_check(euclid, (Vec2(1.0, 0.0), Vec2(0.0, 1.0), Vec2(-1.0, 0.0))) == (True, True)
    import math

    s = math.sqrt(2) / 2
    assert lemma_conv_check(euclid, (Vec2(1.0, 0.0), Vec2(0.0, 1.0), Vec2(s, s))) == (False, False)
    assert lemma_conv_check(square, (Vec2(1, 1), Vec2(-1, 1), Vec2(0, -1))) == (True, True)


def test_lemma_conv_requires_boundary(square):
    with pytest.raises(NotOnBoundary):
        lemma_conv_check(square, (Vec2(0, F(1, 2)), Vec2(1, 1), Vec2(-1, 1)))


def test_lemma_conv_equivalence_random():
    for seed in range(400):
        ball = gen_random_ball(seed ^ 0x5A5A)
        a, b, c = gen_unit_vectors(ball, 3, seed)
        origin_in, h_in = lemma_conv_check(ball, (a, b, c))
        assert origin_in == h_in, f"disagree at seed {seed}"


def test_lemma_main_examples(square, euclid):
    assert lemma_main_witness(square, [Vec2(0, 0)] * 6) == (0, 1, 2)
    v = Vec2(1.0, 0.0)
    assert lemma_main_witness(euclid, [v, v, v, -v, -v, -v]) == (0, 1, 3)
    zs = [Vec2(1, 1), Vec2(-1, 1)] + [Vec2(0, F(-1, 2))] * 4
    t = lemma_main_witness(square, zs)
    assert t == (0, 2, 3)
    assert gauge(square, vsum(zs[i] for i in t)) <= 1


def test_lemma_main_preconditions(square):
    with pytest.raises(PreconditionFailed):
        lemma_main_witness(square, [Vec2(1, 1)] * 6)  # sum not zero
    with pytest.raises(PreconditionFailed):
        lemma_main_witness(square, [Vec2(3, 0), Vec2(-3, 0)] + [Vec2(0, 0)] * 4)
    with pytest.raises(PreconditionFailed):
        lemma_main_witness(square, [Vec2(0, 0)] * 5)


def test_lemma_main_random():
    for seed in range(300):
        ball = gen_random_ball(seed ^ 0x1234)
        zs = gen_zero_sum_six(ball, seed)
        t = lemma_main_witness(ball, zs)
        assert gauge(ball, vsum(zs[i] for i in t)) <= 1


def test_claim1_frozen_example():
    xs = [F(1), F(1), F(-2, 5), F(-2, 5), F(-3, 5), F(-3, 5)]
    got = claim1_triplets(xs)
    assert got == [
        (0, 2, 3), (0, 2, 4), (0, 2, 5), (0, 3, 4), (0, 3, 5), (0, 4, 5),
        (1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5), (1, 4, 5),
    ]
    assert len(got) == 12


def test_claim1_trivial_cases():
    assert len(claim1_triplets([F(0)] * 6)) == 20
    assert len(claim1_triplets([F(1), F(-1), F(0), F(0), F(0), F(0)])) == 20


def test_claim1_preconditions():
    with pytest.raises(PreconditionFailed):
        claim1_triplets([F(2), F(-2), F(0), F(0), F(0), F(0)])
    with pytest.raises(PreconditionFailed):
        claim1_triplets([F(1)] * 6)


def test_claim1_count_and_complement_random():
    rng = random.Random(404)
    done = 0
    while done < 500:
        xs = [F(rng.randint(-1000, 1000), 1000) for _ in range(5)]
        last = -sum(xs)
        if abs(last) > 1:
            continue
        xs.append(last)
        done += 1
        hits = set(claim1_triplets(xs))
        assert len(hits) >= 12
        for t in hits:
            comp = tuple(sorted(set(range(6)) - set(t)))
            assert comp in hits
