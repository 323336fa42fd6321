import hashlib
import json
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helly_plane import geometry, norms, suites
from helly_plane.errors import BadInput, TheoremFalsified, UnknownSuite
from helly_plane.suites import SUITE_NAMES, SuiteConfig, SuiteReport, TrialRecord, run_suite

from oracles import ref_report_json_text


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        run_suite(SuiteConfig(suite="nope", trials=1, seed=0))


@pytest.mark.parametrize("suite", [s for s in SUITE_NAMES if s != "gallery"])
def test_small_runs_have_no_failures(suite):
    report = run_suite(SuiteConfig(suite=suite, trials=8, seed=2024))
    assert report.failures == 0
    assert len(report.records) == 8
    assert [r.index for r in report.records] == list(range(8))


def test_gallery_suite():
    report = run_suite(SuiteConfig(suite="gallery", trials=1, seed=0))
    assert report.failures == 0
    assert len(report.records) == 5


def test_reports_are_byte_identical():
    cfg = SuiteConfig(suite="thm1", trials=40, seed=7)
    a = run_suite(cfg).to_json_text()
    b = run_suite(cfg).to_json_text()
    assert a == b


def test_different_seeds_differ():
    a = run_suite(SuiteConfig(suite="thm1", trials=10, seed=1)).to_json_text()
    b = run_suite(SuiteConfig(suite="thm1", trials=10, seed=2)).to_json_text()
    assert a != b


def test_report_json_shape():
    report = run_suite(SuiteConfig(suite="claim1", trials=3, seed=5))
    doc = json.loads(report.to_json_text())
    assert set(doc) == {"config", "counts", "records"}
    assert doc["counts"] == {"pass": 3, "fail": 0, "vacuous": 0}
    assert "wall" not in json.dumps(doc)
    for rec in doc["records"]:
        assert set(rec) == {"trial", "digest", "outcome", "detail", "witnesses"}
    assert report.wall_time > 0


def test_ball_sources():
    for source in ("maxnorm", "euclidean", "random"):
        report = run_suite(
            SuiteConfig(suite="lemma-main", trials=4, seed=3, ball_source=source)
        )
        assert report.failures == 0


def test_ball_source_file(tmp_path):
    path = tmp_path / "ball.json"
    path.write_text(
        '{"type":"polygonal","vertices":[["1","1"],["-1","1"],["-1","-1"],["1","-1"]]}'
    )
    report = run_suite(
        SuiteConfig(suite="thm2", trials=4, seed=3, ball_source=str(path))
    )
    assert report.failures == 0


def test_ball_file_is_loaded_once_per_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the report holds the path as given
    hexagon = [["2", "0"], ["1", "1"], ["-1", "1"], ["-2", "0"], ["-1", "-1"], ["1", "-1"]]
    (tmp_path / "ball.json").write_text(json.dumps({"type": "polygonal", "vertices": hexagon}))
    loads = []

    def load_json(path):
        loads.append(path)
        return norms.load_json(path)

    monkeypatch.setattr(suites, "load_json", load_json)
    config = SuiteConfig(suite="thm2", trials=20, seed=3, ball_source="ball.json")
    text = run_suite(config).to_json_text()
    assert loads == ["ball.json"]
    # the report of the same run when the file was read on every trial
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "9e143d972eaec36324086644ec3063655854f075758086eb95ad43528d2d1ded"
    )
    # the next run reads the file again
    square = hexagon[1:3] + hexagon[4:]
    (tmp_path / "ball.json").write_text(json.dumps({"type": "polygonal", "vertices": square}))
    assert run_suite(config).to_json_text() != text
    assert loads == ["ball.json", "ball.json"]


def test_float_mode_runs():
    report = run_suite(SuiteConfig(suite="thm1", trials=6, seed=11, mode="float"))
    assert report.failures == 0


@pytest.mark.parametrize("source", ["random", "maxnorm"])
def test_generic_float_mode_perturbs_float_families(source):
    exact, floats = [
        run_suite(SuiteConfig("generic", 40, 3, mode, ball_source=source)) for mode in ("exact", "float")
    ]
    assert exact.passes == floats.passes == 40
    assert all(a.digest != b.digest for a, b in zip(exact.records, floats.records))
    inst = suites.draw_instance(floats.config, 0, floats.balls)
    assert all(type(c) is float for v in inst.vectors for c in (v.x, v.y))


def test_thm3_includes_collinear_trials():
    report = run_suite(SuiteConfig(suite="thm3", trials=20, seed=9))
    collinear = [r for r in report.records if "collinear" in r.detail]
    assert len(collinear) == 2  # trials 9 and 19
    assert report.failures == 0


def test_thm3_without_a_strict_instance_is_vacuous():
    # with tolerance 5 no float 3-sum clears 1 + tol, so no probe's strict hypothesis holds
    report = run_suite(SuiteConfig("thm3", 3, 0, "float", 5.0, "maxnorm"))
    assert [(r.outcome, r.detail) for r in report.records] == [
        ("vacuous", "no strict instance in budget")
    ] * 3


def test_thm2_includes_antipodal_trials():
    report = run_suite(SuiteConfig(suite="thm2", trials=20, seed=5))
    assert any("antipodal" in r.detail for r in report.records)
    assert report.failures == 0


def test_negative_trials_are_bad_input():
    with pytest.raises(BadInput):
        run_suite(SuiteConfig(suite="thm1", trials=-3, seed=0))
    # a count or seed that is not an int, a suite name or ball source that is
    # not a str (an int ball source would be opened as a file descriptor),
    # and a mode that is neither exact nor float
    for field, value in [("trials", "3"), ("trials", 2.5), ("trials", None), ("seed", "3"),
                         ("seed", 2.5), ("seed", None), ("suite", ["thm1"]), ("ball_source", 3),
                         ("ball_source", None), ("mode", "floot")]:
        with pytest.raises(BadInput, match=field):
            run_suite(SuiteConfig(**{"suite": "thm1", "trials": 2, "seed": 0, field: value}))
    assert run_suite(SuiteConfig(suite="thm1", trials=0, seed=0)).records == []


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_theorem_falsified_in_a_check_is_a_fail_record(suite, monkeypatch):
    draw, _ = suites._SUITES[suite]

    def falsified(config, instance):
        raise TheoremFalsified("planted counterexample")

    monkeypatch.setitem(suites._SUITES, suite, (draw, falsified))
    report = run_suite(SuiteConfig(suite=suite, trials=3, seed=4, ball_source="maxnorm"))
    checked = [r for r in report.records if r.outcome != "vacuous"]
    assert checked
    assert all(r.outcome == "fail" and r.detail == "planted counterexample" for r in checked)


@pytest.mark.parametrize("suite", ["thm2", "lemma-main", "signs"])
def test_fixed_ball_json_is_formed_once_per_run(monkeypatch, suite):
    printed = []
    original = geometry.Family.json_text

    def spy(family, *mirrored):
        printed.append(family)
        return original(family, *mirrored)

    monkeypatch.setattr(geometry.Family, "json_text", spy)
    report = run_suite(SuiteConfig(suite=suite, trials=12, seed=7, ball_source="maxnorm"))
    ball = report.balls(None)
    # the ball's vertices once for the run, each trial's vectors once
    assert [family is ball.vertices for family in printed].count(True) == 1
    assert len(printed) == 1 + 12
    monkeypatch.undo()
    assert ball.json_text is ball.json_text
    assert json.loads(ball.json_text) == norms.ball_to_json(ball)
    assert norms.ball_to_json(ball) is not norms.ball_to_json(ball)  # a fresh document


def _claim1_detail(monkeypatch, hits) -> str:
    """The detail of a claim1 trial whose `claim1_triplets` gives `hits`."""
    monkeypatch.setattr(suites, "claim1_triplets", lambda xs, tol: list(hits))
    [record] = run_suite(SuiteConfig(suite="claim1", trials=1, seed=0)).records
    assert record.outcome == "fail"
    return record.detail


def test_claim1_check_reports_a_missing_complement(monkeypatch):
    triples = list(combinations(range(6), 3))  # triple i's complement is triple 19 - i
    # six complementary pairs and (0, 1, 2), whose complement (3, 4, 5) is missing
    hits = triples[1:7] + triples[13:19] + triples[:1]
    assert _claim1_detail(monkeypatch, hits) == "complement of (0, 1, 2) missing"
    assert _claim1_detail(monkeypatch, triples[:11]) == "only 11 triples"
    # several unclosed triples: the first reported is the first one the set
    # of hits yields, as with the complement formed by set difference
    hits = triples[:14]
    first = next(t for t in set(hits) if tuple(sorted(set(range(6)) - set(t))) not in set(hits))
    assert _claim1_detail(monkeypatch, hits) == f"complement of {first} missing"


# strings JSON escapes: quotes, backslashes, control characters and non-ASCII
odd_text = st.one_of(
    st.text(),
    st.text(alphabet='"\\/\x00\x1f\x7f\n\t\u00e9\u2028\ud7ff\U0001f600 ab'),
)
# witnesses as the suites print them: subsets, numerals and nested documents
json_docs = st.recursive(
    st.one_of(st.integers(), st.floats(), odd_text, st.booleans(), st.none()),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(odd_text, inner, max_size=3)),
    max_leaves=8,
)
records = st.lists(
    st.builds(
        TrialRecord, st.integers(0, 10**6), odd_text, st.sampled_from(["pass", "fail", "vacuous"]),
        odd_text, st.lists(json_docs, max_size=3),
    ),
    max_size=4,
)
configs = st.builds(
    SuiteConfig, st.sampled_from(SUITE_NAMES) | odd_text, st.integers(0, 10**4),
    st.integers(-(2**70), 2**70), st.sampled_from(["exact", "float"]) | odd_text,
    st.integers(0, 10**30) | st.floats(0, 1e300), st.sampled_from(["random", "maxnorm"]) | odd_text,
)


@settings(max_examples=200, deadline=None)
@given(config=configs, records=records)
def test_report_text_is_the_former_printed_document(config, records):
    report = SuiteReport(config, records, 0.0, lambda rng: None)
    assert report.to_json_text() == ref_report_json_text(report)
