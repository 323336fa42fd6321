"""The failure paths a correct library never takes.

Every suite records a "fail" (or "vacuous") trial when the statement it
checks breaks on an instance; on correct code no seeded run reaches those
branches. Each test here plants the break by monkeypatching the name the
suite calls, and pins the record's outcome, detail and witnesses. The same
goes for `make_generic`'s postcondition, the symmetry witness re-check and
the failing-check count of `gallery run`.
"""

import dataclasses
from fractions import Fraction

import pytest

from helly_plane import algorithms, cli, suites, symmetry
from helly_plane.algorithms import make_generic
from helly_plane.errors import HypothesisFailed, TheoremFalsified
from helly_plane.gallery import CheckResult, gallery_case, run_gallery
from helly_plane.geometry import Family
from helly_plane.norms import SubsetSums, gauge, square_ball
from helly_plane.scalars import le
from helly_plane.suites import SuiteConfig, draw_instance, run_suite
from helly_plane.symmetry import (
    ViolationWitness,
    find_violation_halfplane,
    find_violation_surrounding,
    make_convex_body,
    verify_halfplane_witness,
    verify_surrounding_witness,
)
from helly_plane.theorems import VerifyReport
from helly_plane.vectors import Vec2

F = Fraction


def _run(suite: str, trials: int, seed: int = 4):
    config = SuiteConfig(suite=suite, trials=trials, seed=seed, ball_source="maxnorm")
    return config, run_suite(config)


def _records(report) -> list:
    return [(r.outcome, r.detail, r.witnesses) for r in report.records]


def _witness(config, report, index: int, subset: tuple) -> dict:
    """The JSON of the KSum of `subset` in trial `index`'s family."""
    vectors = Family(draw_instance(config, index, report.balls).vectors)
    return {"subset": list(subset), "value": vectors.vector_sum(subset).to_json()}


def _planted_report(hypothesis: bool, conclusion: bool, subsets=(), notes=""):
    """A verifier that gives this report on any family."""
    def verify(ball, vectors, *args, **kwargs):
        return VerifyReport("T2", hypothesis, conclusion, ball, Family(vectors), subsets, notes)
    return verify


# ---------------------------------------------------------------------------
# _verdict and the suites built on it
# ---------------------------------------------------------------------------

def test_a_failed_three_sum_conclusion_is_a_fail_record_with_its_witnesses(monkeypatch):
    monkeypatch.setattr(suites, "verify_helly", _planted_report(True, False, [(0, 1, 2)]))
    config, report = _run("thm2", 3)
    assert _records(report) == [
        ("fail", "three-sum bound failed", [_witness(config, report, i, (0, 1, 2))]) for i in range(3)
    ]


def test_a_failed_strict_conclusion_is_a_fail_record_on_both_thm3_paths(monkeypatch):
    monkeypatch.setattr(suites, "verify_helly", _planted_report(True, False, [(0, 1, 2)]))
    config, report = _run("thm3", 10)
    # trial 9 is the collinear instance
    assert _records(report) == [
        ("fail", "strict three-sum bound failed" + (" (1d)" if i == 9 else ""),
         [_witness(config, report, i, (0, 1, 2))])
        for i in range(10)
    ]


def test_a_missed_hypothesis_is_a_vacuous_record_with_the_report_notes(monkeypatch):
    monkeypatch.setattr(suites, "verify_helly", _planted_report(False, False, [(1,)], "planted miss"))
    _, report = _run("thm2", 2)
    assert _records(report) == [("vacuous", "planted miss", [])] * 2


def test_a_thm1_instance_without_a_certificate_is_vacuous(monkeypatch):
    def no_certificate(ball, vectors, u, tol):
        raise HypothesisFailed("planted miss")

    monkeypatch.setattr(suites, "halfplane_certificate", no_certificate)
    _, report = _run("thm1", 2)
    assert _records(report) == [("vacuous", "planted miss", [])] * 2


@pytest.mark.parametrize("k", [5, 7])
def test_a_k_sum_in_the_ball_is_a_corollary_fail_record(monkeypatch, k):
    subset = tuple(range(k))

    def corollary_check(ball, vectors, j, tol):
        return VerifyReport("COR", True, j != k, ball, Family(vectors), [subset] if j == k else [])

    monkeypatch.setattr(suites, "corollary_check", corollary_check)
    config, report = _run("corollary", 2)
    assert _records(report) == [
        ("fail", f"a {k}-sum landed in the ball", [_witness(config, report, i, subset)]) for i in range(2)
    ]


def test_disagreeing_memberships_are_a_lemma_conv_fail_record(monkeypatch):
    monkeypatch.setattr(suites, "lemma_conv_check", lambda ball, vectors, tol: (True, False))
    _, report = _run("lemma-conv", 2)
    assert _records(report) == [("fail", "memberships disagree: origin=True, sum=False", [])] * 2


def test_a_witness_outside_the_ball_is_a_lemma_main_fail_record(monkeypatch):
    def outside(ball, vectors, tol, sums):  # the first triple whose sum leaves the ball
        return next(t for t, inside in sums.tests(3, le, tol) if not inside)

    monkeypatch.setattr(suites, "lemma_main_witness", outside)
    config, report = _run("lemma-main", 3)
    expected = []
    for i in range(3):
        inst = draw_instance(config, i, report.balls)
        sums = SubsetSums(inst.ball, inst.vectors)
        t = next(t for t, inside in sums.tests(3, le) if not inside)
        expected.append(("fail", f"witness {t} not in the ball", []))
    assert _records(report) == expected


# trial 0 draws a symmetric body, trial 1 an asymmetric one
SYMMETRY_BREAKS = [
    ("is_centrally_symmetric", lambda body: not symmetry.is_centrally_symmetric(body), 2,
     ["symmetric body misclassified", "asymmetric body misclassified"]),
    ("find_violation_halfplane", lambda body: "planted", 1, ["witness on symmetric body (i)"]),
    ("find_violation_surrounding", lambda body: "planted", 1, ["witness on symmetric body (ii)"]),
    ("find_violation_halfplane", lambda body: None, 2, [None, "no verified halfplane witness"]),
    ("verify_halfplane_witness", lambda body, w: False, 2, [None, "no verified halfplane witness"]),
    ("find_violation_surrounding", lambda body: None, 2, [None, "no verified surrounding witness"]),
    ("verify_surrounding_witness", lambda body, w: False, 2, [None, "no verified surrounding witness"]),
]


@pytest.mark.parametrize("name, planted, trials, details", SYMMETRY_BREAKS,
                         ids=[f"{name}-{i}" for i, (name, *_) in enumerate(SYMMETRY_BREAKS)])
def test_each_symmetry_branch_is_a_fail_record(monkeypatch, name, planted, trials, details):
    monkeypatch.setattr(suites, name, planted)
    _, report = _run("symmetry", trials, seed=28)
    # None: that trial still passes, as the symmetric body it is
    expected = [("pass", "symmetric", []) if d is None else ("fail", d, []) for d in details]
    assert _records(report) == expected


def test_a_failing_gallery_check_is_a_fail_record(monkeypatch):
    checks = [CheckResult("planted", "1", "2", False), CheckResult("kept", "1", "1", True),
              CheckResult("also planted", "a", "b", False)]
    monkeypatch.setattr(
        suites, "gallery_case", lambda name: dataclasses.replace(gallery_case(name), run=lambda: checks)
    )
    _, report = _run("gallery", 1)
    detail = "planted: expected 1, got 2; also planted: expected a, got b"
    assert _records(report) == [("fail", detail, [])] * 5


def test_gallery_run_counts_its_failing_checks(monkeypatch, capsys):
    results = run_gallery()
    first = next(iter(results))
    results[first][0] = dataclasses.replace(results[first][0], actual="planted", passed=False)
    monkeypatch.setattr(cli, "run_gallery", lambda: results)
    assert cli.main(["gallery", "run"]) == 1
    out = capsys.readouterr().out
    assert f"{first}: {results[first][0].name}: expected " in out and "got planted [FAIL]" in out
    assert out.splitlines()[-1] == "gallery: 5 cases, 1 failing checks"


# ---------------------------------------------------------------------------
# make_generic's postcondition
# ---------------------------------------------------------------------------

def test_a_perturbation_that_moved_too_far_is_theorem_falsified(monkeypatch):
    # offsets up to 10^6 radii, as far as the grid's own reach in steps
    monkeypatch.setattr(algorithms, "_grid_fraction", lambda rng, radius: radius * rng.randint(10**5, 10**6))
    with pytest.raises(TheoremFalsified, match="^perturbation moved too far$"):
        make_generic(square_ball(), [Vec2(0, F(1, 2))], F(1, 2), F(1, 10), seed=1)
    # and in the suite, a fail record
    _, report = _run("generic", 2)
    assert _records(report) == [("fail", "perturbation moved too far", [])] * 2


def test_two_subsets_sharing_a_sum_norm_are_theorem_falsified(monkeypatch):
    # no offsets and no pass: vectors 0 and 1 are equal, so the 3-sums
    # (0, 2, 3) and (1, 2, 3) are too
    monkeypatch.setattr(algorithms, "_grid_fraction", lambda rng, radius: 0)
    monkeypatch.setattr(algorithms, "shared_edge_value", lambda ball, vectors, k: None)
    square = square_ball()
    v, w, u = Vec2(0, F(1, 2)), Vec2(F(1, 3), 0), Vec2(F(-1, 5), F(1, 7))
    g = gauge(square, (v + v + w + u).scale(F(1, 2)) - v.scale(F(1, 2)))
    with pytest.raises(TheoremFalsified) as caught:
        make_generic(square, [v, v, w, u], F(1, 2), F(1, 10), seed=1)
    assert str(caught.value) == f"subsets (0, 2, 3) and (1, 2, 3) share the sum norm {g}"


# ---------------------------------------------------------------------------
# the symmetry witness re-check
# ---------------------------------------------------------------------------

def test_witness_verifiers_refuse_repeated_points_points_off_the_boundary_and_a_wrong_sum():
    body = make_convex_body([Vec2(2, -1), Vec2(-2, -1), Vec2(0, 2)])
    for find, verify in [
        (find_violation_halfplane, verify_halfplane_witness),
        (find_violation_surrounding, verify_surrounding_witness),
    ]:
        w = find(body)
        assert verify(body, w)
        repeated = ViolationWitness(w.a, w.a, w.c, w.a + w.a + w.c, w.kind)
        assert not verify(body, repeated)
        # a halved: three distinct points summing to h, one of gauge 1/2
        halved = w.a.scale(F(1, 2))
        inside = ViolationWitness(halved, w.b, w.c, halved + w.b + w.c, w.kind)
        assert gauge(body, inside.a) == F(1, 2)
        assert not verify(body, inside)
        # the finder's points with an h that is not their sum
        assert not verify(body, dataclasses.replace(w, h=w.h + Vec2(0, F(1, 1000))))
