"""Drawn families stay on the lattice from the generator to the verdict.

A generator returns a `geometry.Family` built from its integer pairs
(`Family.from_lattice`). It must be the family `Family(vectors)` builds
from the same points, print the same JSON text, and give the same floats;
a trial must read it without forming its `Vec2`s or putting it on the
lattice again; and the written-out draws must read the bit stream exactly
as `generators._randint` does.
"""

import json
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from helly_plane import algorithms, generators, geometry, norms, scalars, suites, theorems
from helly_plane.errors import BadInput, PreconditionFailed
from helly_plane.generators import gen_random_ball, gen_unit_vectors
from helly_plane.geometry import Family
from helly_plane.norms import (
    ConvexBody, compile_lattice, euclidean_ball, gauge, lattice_vertices, make_convex_body,
    make_polygonal_ball, square_ball,
)
from helly_plane.suites import SuiteConfig
from helly_plane.symmetry import is_centrally_symmetric
from helly_plane.theorems import KSum, corollary_check, lemma_conv_check, verify_helly, verify_theorem1
from helly_plane.vectors import Vec2, vsum

coordinates = st.integers(-(2**80), 2**80)
# denominators past 2**53, where an int / int division must still round once
denominators = st.one_of(st.integers(1, 10**4), st.integers(2**53 - 5, 2**90))


@pytest.mark.parametrize(
    "coordinate", ["0", b"0", None, 1j, math.nan, -math.inf, Fraction(10**400, 3), 10**400],
    ids=["numeral", "bytes", "none", "complex", "nan", "infinity", "huge-fraction", "huge-int"],
)
def test_a_float_family_takes_only_finite_numbers(coordinate):
    # beside a float, as beside a rational: a numeral is not a number, and a
    # NaN or an infinity has no place on the lattice or in a norm
    with pytest.raises(BadInput, match="finite numbers"):
        Family([Vec2(1.0, coordinate)])


numbers = st.one_of(
    st.integers(-(2**80), 2**80), st.fractions(-(10**6), 10**6, max_denominator=10**20),
    st.booleans(), st.floats(allow_nan=False, allow_infinity=False),
)


@given(coords=st.lists(numbers, min_size=1, max_size=6).map(lambda cs: cs + [0.5]))
def test_a_float_family_reads_each_coordinate_as_float_does(coords):
    fam = Family([Vec2(c, 0.0) for c in coords])
    assert fam.scale is None
    assert repr(fam.pts) == repr([(float(c), 0.0) for c in coords])


@given(pairs=st.lists(st.tuples(coordinates, coordinates), max_size=6), den=denominators)
def test_from_lattice_is_the_family_of_its_points(pairs, den):
    vectors = tuple(Vec2(Fraction(x, den), Fraction(y, den)) for x, y in pairs)
    fam, ref = Family.from_lattice(pairs, den), Family(vectors)
    assert (fam.pts, fam.scale) == (ref.pts, ref.scale)
    assert oracles.same(fam, vectors) and oracles.same(ref, vectors)
    assert fam == ref == vectors and vectors == fam
    assert hash(fam) == hash(ref) == hash(vectors)
    assert json.loads(fam.json_text()) == [v.to_json() for v in vectors]
    floats = [(float(v.x).hex(), float(v.y).hex()) for v in vectors]
    assert [((x / den).hex(), (y / den).hex()) for x, y in pairs] == floats
    assert [(x.hex(), y.hex()) for x, y in fam.floats()] == floats


@given(pairs=st.lists(st.tuples(st.floats(-3, 3), st.floats(-3, 3)), max_size=6))
def test_float_family_from_its_coordinates(pairs):
    vectors = tuple(Vec2(x, y) for x, y in pairs)
    fam = Family.from_lattice(pairs, None)
    assert oracles.same(fam, vectors) and fam == Family(vectors) == vectors
    assert json.loads(fam.json_text()) == [v.to_json() for v in vectors]
    signs = [(-1) ** i for i in range(len(pairs))]
    assert oracles.same(fam.signed(signs), tuple(v if s > 0 else -v for v, s in zip(vectors, signs)))


def test_float_families_print_as_their_vectors():
    pairs = [(0.1, -0.0), (1.0, 2.5e-17), (-3.0, 1e300)]
    families = [
        Family.from_lattice(pairs, None),
        Family([Vec2(x, y) for x, y in pairs]),
        Family([Vec2(0, 0.5), Vec2(-1, 2.0), Vec2(0.25, 3)]),  # an int prints "0", not "0.0"
    ]
    assert json.loads(families[0].json_text()) == [["0.1", "-0.0"], ["1.0", "2.5e-17"], ["-3.0", "1e+300"]]
    assert "vectors" not in vars(families[0])  # printed from its pairs
    assert json.loads(families[2].json_text())[:2] == [["0", "0.5"], ["-1", "2.0"]]
    for fam in families:
        assert fam.scale is None
        assert json.loads(fam.json_text()) == [v.to_json() for v in fam]


def constructed(call) -> list[str]:
    """The `Vec2`s and `Fraction`s constructed while `call()` runs, seen
    by a profile hook on their constructors."""
    codes = {Vec2.__init__.__code__: "Vec2", Fraction.__new__.__code__: "Fraction"}
    if hasattr(Fraction, "_from_coprime_ints"):  # Fraction arithmetic that skips __new__
        codes[Fraction._from_coprime_ints.__func__.__code__] = "Fraction"
    seen = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            seen.append(codes[frame.f_code])

    sys.setprofile(hook)
    try:
        call()
    finally:
        sys.setprofile(None)
    return seen


@pytest.mark.parametrize("draws", [generators._ZERO_SUM_DRAWS, 0])
def test_euclidean_draws_build_no_vec2_and_no_fraction(monkeypatch, draws):
    # the Euclidean ball's float-pair draw, and the lattice draw on balls
    # given by float vertices (the dyadic rationals they denote); draws = 0
    # sends the zero-sum draw to its +- triple fallback
    monkeypatch.setattr(generators, "_ZERO_SUM_DRAWS", draws)
    rng = random.Random(5)
    directions = [generators.gen_direction(rng) for _ in range(5)] + [Vec2(0.6, -0.8), Vec2(0, 1)]
    mixed = [Vec2(1, 0.25), Vec2(-0.5, 1), Vec2(-1, 0.75)]  # int and float coordinates
    balls = [
        euclidean_ball(),
        oracles.float_vertex_ball(gen_random_ball(5)),
        oracles.float_vertex_ball(gen_random_ball(20240611)),
        make_polygonal_ball(mixed + [-v for v in mixed]),
    ]
    for ball in balls:
        for seed, u in enumerate(directions):
            assert constructed(lambda: gen_unit_vectors(ball, 7, seed, halfplane=u)) == []
            assert constructed(lambda: gen_unit_vectors(ball, 7, seed)) == []
            assert constructed(lambda: generators.gen_zero_sum_six(ball, seed)) == []
    # the hook does see them: reading a drawn family's vectors forms them
    floats, rationals = gen_unit_vectors(balls[0], 3, 0), gen_unit_vectors(balls[1], 3, 0)
    assert "Vec2" in constructed(lambda: floats.vectors)
    assert "Fraction" in constructed(lambda: rationals.vectors)


def test_symmetry_is_decided_on_the_vertex_pairs():
    # a fresh body, from integer pairs or from floats, symmetric or with one
    # vertex stretched by 9/8: its vertices are not formed to decide its symmetry
    for seed in range(20):
        pairs, scale = lattice_vertices(gen_random_ball(seed))
        stretched = [(9 * x, 9 * y) if i == 0 else (8 * x, 8 * y) for i, (x, y) in enumerate(pairs)]
        for points, den, symmetric in ((pairs, scale, True), (stretched, 8 * scale, False)):
            floats = make_convex_body([Vec2(x / den, y / den) for x, y in points])
            for body in (compile_lattice(points, den, ConvexBody), floats):
                assert constructed(lambda: is_centrally_symmetric(body)) == []
                assert is_centrally_symmetric(body) is symmetric
                assert oracles.ref_is_centrally_symmetric(body) is symmetric


def test_family_is_a_sequence_of_its_vectors():
    vectors = (Vec2(Fraction(1, 2), 0), Vec2(1, Fraction(-3, 4)), Vec2(0, 0))
    fam = Family.from_lattice([(2, 0), (4, -3), (0, 0)], 4)
    assert Family(fam) is fam and len(fam) == 3
    assert list(fam) == list(vectors) and fam[1] == vectors[1] and fam[1:] == vectors[1:]
    assert fam.signed([1, -1, 1]).pts == [(2, 0), (-4, 3), (0, 0)]
    assert fam != list(vectors) and fam != Family(vectors[:2])


@pytest.mark.parametrize("verify", [
    lambda ball, vs: verify_helly(ball, vs, strict=True),
    lambda ball, vs: corollary_check(ball, vs, 5),
])
def test_witnesses_are_summed_only_when_read(monkeypatch, verify):
    # most strict probes fail and are dropped unread: their witnesses'
    # `Fraction` sums are formed only if something reads them
    made = []

    def counted(*args):
        made.append(args)
        return Fraction(*args)

    ball = square_ball()
    vs = gen_unit_vectors(ball, 9, 3)
    monkeypatch.setattr(geometry, "Fraction", counted)
    report = verify(ball, vs)
    assert not report.hypothesis_holds and len(made) == 0  # not even the total
    subsets = [w.subset for w in report.witnesses]
    assert len(subsets) == len(report.witnesses) > 0
    assert len(made) == 2 * len(subsets)
    assert [w.to_json() for w in report.witnesses] == [
        KSum(t, vsum(vs[i] for i in t)).to_json() for t in subsets
    ]


@pytest.mark.parametrize("verify", [
    lambda ball, vs, u=Vec2(0, 1): verify_theorem1(ball, vs, u),
    lambda ball, vs: verify_helly(ball, vs, strict=False),
    lambda ball, vs: verify_helly(ball, vs, strict=True),
    lambda ball, vs: corollary_check(ball, vs, 5),
])
def test_total_and_its_norm_are_formed_only_when_read(verify):
    # every conclusion is read off the packing; the report forms the
    # total and its gauge the first time either is read
    for ball in (square_ball(), gen_random_ball(5)):
        for seed in range(6):
            vs = gen_unit_vectors(ball, 9, seed, halfplane=Vec2(0, 1) if seed % 2 else None)
            reports = []
            assert constructed(lambda: reports.append(verify(ball, vs))) == []
            [report] = reports
            assert "Fraction" in constructed(lambda: report.total_norm)
            assert constructed(lambda: (report.total, report.total_norm)) == []
            assert oracles.same(report.total, vsum(vs))
            assert oracles.same(report.total_norm, gauge(ball, vsum(vs)))


def test_a_thm1_trial_forms_no_total_and_no_gauge(monkeypatch):
    # the certificate re-checks T1's conclusion as the report's flag, which
    # is read off the packing
    formed = []
    monkeypatch.setattr(theorems, "gauge", lambda *args: formed.append("gauge"))
    monkeypatch.setattr(Family, "vector_sum", lambda *args: formed.append("total"))
    for source in ("random", "maxnorm", "euclidean"):
        for mode in ("exact", "float"):
            report = suites.run_suite(SuiteConfig("thm1", 12, 5, mode, 1e-9, source))
            assert report.failures == 0 and report.passes > 0
    assert formed == []


def test_a_singleton_witness_is_the_vector_as_given():
    # a float -0.0 stays -0.0 and a rational beside floats stays a rational,
    # where a sum from 0 would print 0.0 and a float
    ball = square_ball()
    inside = [Vec2(0.5, -0.0), Vec2(Fraction(1, 2), 0.25), Vec2(0.0, 0.5)]
    outside = [Vec2(2.0, -0.0), Vec2(Fraction(3, 2), 0.25)] + [Vec2(0.0, 0.5)] * 3
    reports = [
        verify_theorem1(ball, inside, Vec2(0, 1)),
        verify_helly(ball, inside, strict=False),
        verify_helly(ball, outside, strict=True),
        corollary_check(ball, outside, 5),
    ]
    for report, vs in zip(reports, [inside, inside, outside, outside]):
        assert [w.to_json() for w in report.witnesses[:2]] == [
            {"subset": [0], "value": vs[0].to_json()}, {"subset": [1], "value": vs[1].to_json()},
        ]
    assert reports[0].witnesses[0].to_json()["value"] == ["0.5", "-0.0"]
    assert reports[2].witnesses[1].to_json()["value"] == ["3/2", "0.25"]


def test_lemma_conv_forms_no_vec2_and_no_fraction():
    # both memberships are decided on the family's lattice pairs
    for ball in (square_ball(), gen_random_ball(5), gen_random_ball(20240611)):
        for seed in range(10):
            vs = gen_unit_vectors(ball, 3, seed)
            verdict = lemma_conv_check(ball, vs)
            assert constructed(lambda: lemma_conv_check(ball, vs)) == []
            assert verdict == oracles.ref_lemma_conv_check(ball, *vs)


def test_lemma_conv_takes_three_vectors():
    ball = square_ball()
    with pytest.raises(PreconditionFailed):
        lemma_conv_check(ball, [Vec2(1, 1), Vec2(-1, 1)])


# one max-norm trial of each suite that draws a family of vectors
FAMILY_TRIALS = [
    ("thm1", 0), ("thm2", 0), ("thm2", 1), ("thm3", 0), ("thm3", 9), ("lemma-conv", 0),
    ("lemma-main", 0), ("corollary", 0), ("signs", 0), ("generic", 0),
]


def max_norm_trial(monkeypatch, suite, index):
    """Trial `index` of a suite on the max-norm ball, to run after the
    ball is built: it returns the instance the trial drew."""
    cfg = SuiteConfig(suite=suite, trials=index + 1, seed=20240611, ball_source="maxnorm")
    balls = suites._ball_source(cfg)
    drawn = []
    draw = suites.draw_instance

    def keep(*args):
        drawn.append(draw(*args))
        return drawn[-1]

    def run():
        monkeypatch.setattr(suites, "draw_instance", keep)
        assert suites._run_trial(cfg, index, balls).outcome == "pass"
        [inst] = drawn
        return inst

    return run


@pytest.mark.parametrize("suite, index", [
    ("thm1", 0), ("thm2", 0), ("thm2", 1), ("thm3", 0), ("lemma-main", 0), ("corollary", 0),
])
def test_a_trial_forms_no_fraction_for_its_vectors(monkeypatch, suite, index):
    made, directions = [], []

    def counted(*args):
        made.append(args)
        return Fraction(*args)

    def direction(rng):
        directions.append(generators.gen_direction(rng))
        return directions[-1]

    run = max_norm_trial(monkeypatch, suite, index)
    monkeypatch.setattr(generators, "Fraction", counted)
    monkeypatch.setattr(suites, "gen_direction", direction)
    fam = run().vectors
    assert type(fam) is Family and fam.scale is not None
    # the generators formed only the halfplane directions' coordinates,
    # and the family's own `Vec2`s were never formed
    assert len(made) == 2 * len(directions)
    assert "vectors" not in vars(fam)
    list(fam)  # what a witness or a picture reads
    assert "vectors" in vars(fam)


@pytest.mark.parametrize("suite, index", FAMILY_TRIALS)
def test_generator_output_is_not_put_on_the_lattice_again(monkeypatch, suite, index):
    seen = []

    def spy(original):
        def read(pts):  # what a reader is asked, as a flat list of coordinates
            seen.append([c for xy in pts for c in xy])
            return original(pts)
        return read

    run = max_norm_trial(monkeypatch, suite, index)
    for name in ("lattice_pairs", "exact_pairs"):  # the lattice form, and the exact one
        read = spy(getattr(scalars, name))
        for module in (scalars, geometry, norms, theorems, algorithms):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, read)
    fam = run().vectors
    coords = [c for v in fam for c in (v.x, v.y)]
    assert all(xs != coords for xs in seen)
    if suite != "generic":  # make_generic's own output is put on the lattice once
        # only a halfplane direction, or the antipodal pair thm2 splices in
        assert all(len(xs) <= 2 or xs[2:] == [-xs[0], -xs[1]] for xs in seen)


def ref_unit_points(grid, n, rng):
    """`_boundary_points`' draws through `_randint`, unmirrored, on the lattice."""
    pairs, scale = grid
    m = len(pairs)
    out = []
    for _ in range(n):
        i = generators._randint(rng, 0, m - 1)
        (ax, ay), (bx, by) = pairs[i], pairs[(i + 1) % m]
        r = generators._randint(rng, 0, 999)
        out.append((1000 * ax + r * (bx - ax), 1000 * ay + r * (by - ay)))
    return Family.from_lattice(out, 1000 * scale)


def ref_ball_points(grid, rng, count):
    """`_ball_points` through `_randint`: each point on its own, then all
    over the lcm of their denominators."""
    pairs, scale = grid
    m = len(pairs)
    points = []
    for _ in range(count):
        picks = [pairs[generators._randint(rng, 0, m - 1)] for _ in range(3)]
        weights = [generators._randint(rng, 0, 1000) for _ in range(3)]
        x = sum(w * px for w, (px, _) in zip(weights, picks))
        y = sum(w * py for w, (_, py) in zip(weights, picks))
        points.append((x, y, (sum(weights) or 1) * scale))
    den = math.lcm(*[d for _, _, d in points])
    return [(x * (den // d), y * (den // d)) for x, y, d in points], den


# the float hexagon of `test_report_digests.BALL_FILE`
FLOAT_HEXAGON = {"type": "polygonal", "vertices": [
    ["0.7", "0.1"], ["-0.2", "0.9"], ["-0.55", "0.35"],
    ["-0.7", "-0.1"], ["0.2", "-0.9"], ["0.55", "-0.35"],
]}
DRAW_BALLS = {
    "random": gen_random_ball,
    "maxnorm": lambda seed: square_ball(),
    # balls given by float vertices: lattices of wide dyadic denominators
    "float-of-random": lambda seed: oracles.float_vertex_ball(gen_random_ball(5)),
    "float-hexagon": lambda seed: make_polygonal_ball(
        [Vec2(float(x), float(y)) for x, y in FLOAT_HEXAGON["vertices"]]
    ),
}


@pytest.mark.parametrize("ball_name", list(DRAW_BALLS))
def test_written_out_draws_read_the_randint_stream(ball_name):
    for seed in range(100):
        ball = DRAW_BALLS[ball_name](seed)
        grid = lattice_vertices(ball)
        ours, ref = random.Random(seed), random.Random(seed)
        for n in (1, 5, 9):
            got = Family.from_lattice(*generators._boundary_points(grid, ours, n))
            want = ref_unit_points(grid, n, ref)
            assert (got.pts, got.scale) == (want.pts, want.scale)
            points, want_points = generators._ball_points(grid, ours, n), ref_ball_points(grid, ref, n)
            assert points == want_points
        assert ours.getstate() == ref.getstate()
