"""Each trial's instance is printed once, straight to its canonical text.

A draw writes the JSON text of its instance directly: `Family.json_text`
and `UnitBall.json_text` print from the lattice or float pairs, and the
suites put the extras and the vectors around them. The text must be,
byte for byte, what `json.dumps(..., sort_keys=True, separators=(",",
":"))` printed for the documents the suites digested before (the
`oracles.ref_*_payload` builders), and drawing and digesting a trial
must not call `json.dumps` at all.
"""

import json
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helly_plane import suites
from helly_plane.generators import gen_random_ball
from helly_plane.geometry import Family
from helly_plane.norms import ball_to_json, euclidean_ball, make_polygonal_ball, square_ball
from helly_plane.suites import SUITE_NAMES, SuiteConfig
from helly_plane.vectors import Vec2

# the float hexagon of `test_report_digests.BALL_FILE`
FLOAT_HEXAGON = {"type": "polygonal", "vertices": [
    ["0.7", "0.1"], ["-0.2", "0.9"], ["-0.55", "0.35"],
    ["-0.7", "-0.1"], ["0.2", "-0.9"], ["0.55", "-0.35"],
]}
BALL_SOURCES = ("random", "maxnorm", "euclidean", "file")

ints = st.integers(-(2**70), 2**70)
floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 1e300, 5e-324])
scalars = st.one_of(
    ints, floats, st.builds(Fraction, ints, st.integers(1, 10**30)),
)
lattice_families = st.builds(
    Family.from_lattice, st.lists(st.tuples(ints, ints), max_size=7), st.integers(1, 10**30),
)
float_families = st.builds(
    Family.from_lattice, st.lists(st.tuples(floats, floats), max_size=7), st.none(),
)
# given vectors: an int coordinate among floats prints "0", not "0.0"
given_families = st.lists(st.builds(Vec2, scalars, scalars), max_size=7).map(Family)
families = st.one_of(lattice_families, float_families, given_families)
balls = st.one_of(
    st.just(euclidean_ball()),
    st.just(square_ball()),
    # balls given by float vertices: numerals over wide dyadic denominators
    st.just(make_polygonal_ball([Vec2(float(x), float(y)) for x, y in FLOAT_HEXAGON["vertices"]])),
    st.integers(0, 2**32 - 1).map(gen_random_ball),
    st.integers(0, 2**32 - 1).map(lambda seed: oracles.float_vertex_ball(gen_random_ball(seed))),
)


def canonical(doc) -> str:
    """The text the digest covered: the old document through `json.dumps`."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), default=str)


@given(fam=families)
def test_family_text_is_its_old_document(fam):
    assert json.loads(fam.json_text()) == oracles.ref_family_to_json(fam)
    assert fam.json_text() == canonical(oracles.ref_family_to_json(fam))


@given(ball=balls, fam=families)
def test_ball_and_instance_text_is_the_old_document(ball, fam):
    assert ball_to_json(ball) == oracles.ref_ball_to_json(ball)
    assert ball.json_text == canonical(oracles.ref_ball_to_json(ball))
    inst = suites._on_ball(ball, fam)
    doc = oracles.ref_on_ball_payload(ball, fam)
    assert inst.payload == canonical(doc)
    assert suites._digest(inst.payload) == oracles.ref_digest(doc)


@given(x=scalars, y=scalars)
def test_direction_text_is_its_old_document(x, y):
    u = Vec2(x, y)
    assert suites._u_extra(u) == {"u": canonical(u.to_json())}


@pytest.fixture(scope="module")
def ball_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("balls") / "hexagon.json"
    path.write_text(json.dumps(FLOAT_HEXAGON), encoding="utf-8")
    return str(path)


def _config(suite, mode, source, seed, ball_file) -> SuiteConfig:
    return SuiteConfig(
        suite=suite, trials=1, seed=seed, mode=mode,
        ball_source=ball_file if source == "file" else source,
    )


def _index(suite, index) -> int:
    return index % len(suites.CASE_NAMES) if suite == "gallery" else index


def _old_document(suite, inst, on_ball) -> dict:
    """The payload the suite digested before, rebuilt from the instance,
    or from the arguments `_on_ball` was called with on a ball."""
    if suite == "claim1":
        return oracles.ref_claim1_payload(inst.vectors)
    if suite == "symmetry":
        return oracles.ref_symmetry_payload(inst.ball)
    if suite == "gallery":
        return oracles.ref_gallery_payload(inst.data)
    [(ball, vectors, extra)] = on_ball
    # the extras' values are read back by the JSON decoder
    extra = {key: json.loads(text) for key, text in (extra or {}).items()}
    return oracles.ref_on_ball_payload(ball, vectors, extra)


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("suite", SUITE_NAMES)
@settings(max_examples=12, deadline=None)
@given(source=st.sampled_from(BALL_SOURCES), seed=st.integers(0, 2**32 - 1), index=st.integers(0, 9))
def test_drawn_instance_text_is_the_old_document(ball_file, suite, mode, source, seed, index):
    on_ball, original = [], suites._on_ball

    def spy(ball, vectors, extra=None, **fields):
        on_ball.append((ball, vectors, extra))
        return original(ball, vectors, extra, **fields)

    cfg = _config(suite, mode, source, seed, ball_file)
    with mock.patch.object(suites, "_on_ball", spy):
        inst = suites.draw_instance(cfg, _index(suite, index), suites._ball_source(cfg))
    doc = _old_document(suite, inst, on_ball)
    assert inst.payload == canonical(doc)
    assert suites._digest(inst.payload) == oracles.ref_digest(doc)
    if suite == "generic":  # the extras read back are the drawn ones
        lam, eps, _ = inst.data
        assert (doc["lam"], doc["eps"]) == (str(lam), str(eps))
    if suite == "thm1":
        assert doc["u"] == inst.data.to_json()


def test_drawing_and_digesting_calls_no_json_dumps(monkeypatch, ball_file):
    configs = [
        _config(suite, mode, source, 11, ball_file)
        for suite in SUITE_NAMES for mode in ("exact", "float") for source in BALL_SOURCES
    ]
    sources = [suites._ball_source(cfg) for cfg in configs]  # a file is read here

    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called while drawing or digesting a trial")

    monkeypatch.setattr(json, "dumps", refuse)
    monkeypatch.setattr(json.JSONEncoder, "encode", refuse)
    for cfg, balls in zip(configs, sources):
        for index in range(len(suites.CASE_NAMES) if cfg.suite == "gallery" else 10):
            suites._digest(suites.draw_instance(cfg, index, balls).payload)
