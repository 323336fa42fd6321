"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. Every criterion uses the
trial counts and tolerances stated in its body; exact criteria allow no
slack at all.
"""

import time
from fractions import Fraction

import pytest

from helly_plane.algorithms import ginzburg_reduce
from helly_plane.gallery import gallery_case, run_gallery
from helly_plane.generators import gen_euclidean_halfplane_instance
from helly_plane.norms import gauge
from helly_plane.suites import SuiteConfig, run_suite
from helly_plane.vectors import vsum

from oracles import all_ksums

F = Fraction
TOL = 1e-9
SEED = 20240611


def _announce(num: int, name: str, ok: bool, elapsed: float, extra: str = ""):
    status = "PASS" if ok else "FAIL"
    tail = f" {extra}" if extra else ""
    print(f"[criterion {num:2d}] {name}: {status} ({elapsed:.1f}s){tail}")
    assert ok, f"criterion {num} failed: {name}{tail}"


@pytest.fixture(scope="module")
def thm1_report():
    return run_suite(SuiteConfig(suite="thm1", trials=10_000, seed=SEED))


def test_criterion_1_gallery_exactness():
    t0 = time.perf_counter()
    results = run_gallery()
    elapsed = time.perf_counter() - t0

    ok = all(c.passed for checks in results.values() for c in checks)

    case = gallery_case("thm3-closed-fails")
    sums = all_ksums(case.vectors, 3)
    ok &= min(gauge(case.ball, s.value) for s in sums) == 1
    ok &= gauge(case.ball, vsum(case.vectors)) == F(1, 2)

    case = gallery_case("remark1-equality")
    ok &= gauge(case.ball, vsum(case.vectors)) == 1

    case = gallery_case("even-n")
    ok &= abs(gauge(case.ball, vsum(case.vectors)) - F(1, 20)) <= TOL

    case = gallery_case("remark2-3d")
    total3 = case.vectors[0]
    for v in case.vectors[1:]:
        total3 = total3 + v
    ok &= abs(total3.norm() - F(7, 100)) <= TOL

    case = gallery_case("remark4-tetrahedron")
    for i in range(4):
        rest = [v for j, v in enumerate(case.vectors) if j != i]
        s3 = rest[0] + rest[1] + rest[2]
        ok &= abs(s3.norm() - 1.0) <= TOL
    full = case.vectors[0] + case.vectors[1] + case.vectors[2] + case.vectors[3]
    ok &= full.norm() <= TOL

    ok &= elapsed < 1.0
    _announce(1, "gallery exactness", ok, elapsed)


def test_criterion_2_theorem1_suite(thm1_report):
    report = thm1_report
    ok = (
        report.failures == 0
        and report.vacuous == 0
        and report.passes == 10_000
        and report.wall_time < 30.0
    )
    _announce(
        2, "halfplane-bound suite (10^4 exact trials)", ok, report.wall_time,
        f"pass={report.passes} fail={report.failures} vacuous={report.vacuous}",
    )


def test_criterion_3_certificates(thm1_report):
    t0 = time.perf_counter()
    ok = True
    for record in thm1_report.records:
        if record.outcome != "pass" or not record.detail.startswith("projection_sum="):
            ok = False
            break
        value = record.detail.split("=", 1)[1]
        if "/" in value or value.lstrip("-").isdigit():
            ok &= Fraction(value) >= 1
        else:
            ok &= float(value) >= 1 - TOL
    _announce(3, "projection certificates on every trial", ok, time.perf_counter() - t0)


def test_criterion_4_helly_suites():
    t0 = time.perf_counter()
    r2 = run_suite(SuiteConfig(suite="thm2", trials=10_000, seed=SEED + 1))
    r3 = run_suite(SuiteConfig(suite="thm3", trials=10_000, seed=SEED + 2))
    elapsed = time.perf_counter() - t0
    collinear = sum(1 for r in r3.records if "collinear" in r.detail)
    ok = (
        r2.failures == 0 and r2.vacuous == 0 and r2.passes == 10_000
        and r3.failures == 0 and r3.vacuous == 0 and r3.passes == 10_000
        and collinear >= 1000
        and elapsed < 45.0
    )
    _announce(
        4, "three-sum suites (10^4 each, >=10^3 collinear)", ok, elapsed,
        f"collinear={collinear}",
    )


def test_criterion_5_lemma_conv_suite():
    report = run_suite(SuiteConfig(suite="lemma-conv", trials=10_000, seed=SEED + 3))
    ok = (
        report.failures == 0 and report.vacuous == 0 and report.passes == 10_000
        and report.wall_time < 15.0
    )
    _announce(5, "membership equivalence on 10^4 boundary triples", ok, report.wall_time)


def test_criterion_6_lemma_main_suite():
    report = run_suite(SuiteConfig(suite="lemma-main", trials=10_000, seed=SEED + 4))
    ok = (
        report.failures == 0 and report.vacuous == 0 and report.passes == 10_000
        and report.wall_time < 25.0
    )
    _announce(6, "triple witness on 10^4 zero-sum 6-families", ok, report.wall_time)


def test_criterion_7_claim1_suite():
    report = run_suite(SuiteConfig(suite="claim1", trials=10_000, seed=SEED + 5))
    ok = (
        report.failures == 0 and report.vacuous == 0 and report.passes == 10_000
        and report.wall_time < 10.0
    )
    _announce(7, "triple count >= 12 with complement closure", ok, report.wall_time)


def test_criterion_8_rotation_suite():
    t0 = time.perf_counter()
    ok = True
    for trial in range(1000):
        vectors, u = gen_euclidean_halfplane_instance(SEED ^ trial)
        trace = ginzburg_reduce(vectors, u, TOL)
        norms = [s.norm for s in trace.steps]
        ok &= all(b <= a + TOL for a, b in zip(norms, norms[1:]))
        final = norms[-1]
        ok &= abs(final - round(final)) <= TOL and round(final) % 2 == 1
        ok &= final >= 1 - TOL
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _announce(8, "rotation reduction on 10^3 instances", ok, elapsed)


def test_criterion_9_sign_choice_suite():
    report = run_suite(SuiteConfig(suite="signs", trials=1000, seed=SEED + 6))
    ok = (
        report.failures == 0 and report.vacuous == 0 and report.passes == 1000
        and report.wall_time < 3.0
    )
    _announce(9, "odd-subset sign choice on 10^3 multisets", ok, report.wall_time)


def test_criterion_10_genericity_suite():
    report = run_suite(SuiteConfig(suite="generic", trials=100, seed=SEED + 7))
    ok = (
        report.failures == 0 and report.vacuous == 0 and report.passes == 100
        and report.wall_time < 0.5
    )
    _announce(10, "general-position perturbation, 10^2 runs", ok, report.wall_time)


def test_criterion_11_symmetry_suite():
    report = run_suite(SuiteConfig(suite="symmetry", trials=200, seed=SEED + 8))
    symmetric = sum(
        1 for r in report.records if r.index % 2 == 0 and r.outcome == "pass"
    )
    asymmetric = sum(
        1 for r in report.records if r.index % 2 == 1 and r.outcome == "pass"
    )
    ok = (
        report.failures == 0
        and symmetric == 100
        and asymmetric == 100
        and report.wall_time < 3.0
    )
    _announce(
        11, "symmetry deciders and witness finders (100+100)", ok, report.wall_time
    )


def test_criterion_12_corollary_suite():
    report = run_suite(SuiteConfig(suite="corollary", trials=1000, seed=SEED + 9))
    ok = (
        report.failures == 0 and report.vacuous == 0 and report.passes == 1000
        and report.wall_time < 5.0
    )
    _announce(12, "k-sum corollary on 10^3 strict instances", ok, report.wall_time)
