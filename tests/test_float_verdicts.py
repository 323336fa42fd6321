"""Float data on a polygon: the exact kernel's verdicts against the float walk.

`SubsetSums` decides float data on a polygon on the lattice of its exact
dyadic values, and "within tol of 1" as an exact band. The kernel it
replaced summed each subset in floats and compared the float edge maximum
with 1 through `scalars`; `oracles.RefSubsetSums` keeps it. Every
statement that reads subset sums (T1, T2, T3, COR, lemma-main and the
sign choice) is run both ways at the default tol, and must give the same
verdict: on 3000 drawn float families per statement on random balls and
3000 on the max-norm ball, and on near-boundary probes. A probe is a
gallery family where a sum sits exactly on the boundary
(`thm3-closed-fails`, `remark1-equality`) in floats, with every vector
pushed in or out by 10^-j (j = 6 ... 14) along an edge normal. The probes
where the two kernels disagree are pinned in `PROBE_DISAGREEMENTS`: each
is a vector whose float gauge is the float 1 + tol, and whose exact gauge
is above the band. The walk read through the library's own relations
(g − 1 against tol, exact near 1) disagrees with the kernel on none of
them: there is one rule for "within tol".

Claim 1 is decided on the same band: its six values are read exactly and
compared on ints. It replaced float sums, folded left to right and
compared through `scalars`, which `oracles.ref_claim1_triplets` keeps.
Float tuples with values and triple sums at exactly ±1, each value pushed
by ±10^-j (j = 6 ... 14), are decided both ways; the disagreements are
pinned in `CLAIM1_DISAGREEMENTS`.
"""

import random
from fractions import Fraction

import pytest

from helly_plane import algorithms, theorems
from helly_plane.algorithms import choose_signs
from helly_plane.errors import HellyPlaneError
from helly_plane.gallery import gallery_case
from helly_plane.generators import (
    antipodal_pair_on_boundary, gen_direction, gen_random_ball, gen_unit_vectors, gen_zero_sum_six,
)
from helly_plane.geometry import Family
from helly_plane.norms import edge_functionals, gauge, square_ball
from helly_plane.theorems import (
    claim1_triplets, corollary_check, lemma_main_witness, verify_helly, verify_theorem1,
)
from helly_plane.vectors import Vec2

from oracles import RefSubsetSums, ref_claim1_triplets

DRAWS = 3000
TENTHS = [10, 10, 10, 10, 5, 9, 11]  # scale factors of a drawn vector, in tenths


def _report(report) -> tuple:
    return (report.hypothesis_holds, report.conclusion_holds,
            [w.subset for w in report.witnesses], report.notes)


def _signs(ball, vs):
    sv = choose_signs(ball, vs)
    return sv.signs, sv.odd_subsets_checked


STATEMENTS = {
    "T1": lambda ball, vs, u, k: _report(verify_theorem1(ball, vs, u)),
    "T2": lambda ball, vs, u, k: _report(verify_helly(ball, vs, strict=False)),
    "T3": lambda ball, vs, u, k: _report(verify_helly(ball, vs, strict=True)),
    "COR": lambda ball, vs, u, k: _report(corollary_check(ball, vs, k)),
    "lemma-main": lambda ball, zs, u, k: lemma_main_witness(ball, zs),
    "signs": lambda ball, vs, u, k: _signs(ball, vs),
}


def _verdict(statement, ball, vs, u, k):
    try:
        return STATEMENTS[statement](ball, vs, u, k)
    except HellyPlaneError as exc:
        return type(exc).__name__, str(exc)


def _both(monkeypatch, statement, ball, vs, u, k, walk=RefSubsetSums):
    """The statement's verdict from the exact kernel and from the float walk."""
    got = _verdict(statement, ball, vs, u, k)
    with monkeypatch.context() as m:
        for module in (theorems, algorithms):
            m.setattr(module, "SubsetSums", walk)
        ref = _verdict(statement, ball, vs, u, k)
    return got, ref


def _floats(fam: Family, rng: random.Random) -> Family:
    """The family in floats, each vector scaled by a drawn number of tenths."""
    pts = [(x * t / 10, y * t / 10) for (x, y), t in zip(fam.floats(), rng.choices(TENTHS, k=len(fam)))]
    return Family.from_lattice(pts, None)


def _draws(kind: str, statement: str):
    """(ball, float family, u, k) draws: halfplane families of 3 to 9 unit
    vectors, some scaled off the boundary, some with an antipodal boundary
    pair; zero-sum six-families for lemma-main. A random ball is drawn for
    every tenth family."""
    rng = random.Random(f"{kind}/{statement}")
    ball = square_ball()
    for i in range(DRAWS):
        if kind == "random" and i % 10 == 0:
            ball = gen_random_ball(rng.getrandbits(32))
        u = gen_direction(rng)
        if statement == "lemma-main":
            zs = gen_zero_sum_six(ball, rng.getrandbits(32))
            yield ball, Family.from_lattice(zs.floats(), None), u, 0
            continue
        n = rng.choice([3, 5, 7, 9] if statement != "COR" else [5, 7, 9])
        fam = gen_unit_vectors(ball, n, rng.getrandbits(32), halfplane=u)
        if n >= 5 and rng.random() < 0.3:
            fam = Family(tuple(fam)[:-2] + antipodal_pair_on_boundary(ball, u))
        yield ball, _floats(fam, rng), u, rng.choice(range(5, n + 1, 2)) if n >= 5 else 0


@pytest.mark.parametrize("kind", ["random", "maxnorm"])
@pytest.mark.parametrize("statement", list(STATEMENTS))
def test_verdicts_match_the_float_walk_on_drawn_families(monkeypatch, statement, kind):
    seen = set()
    for ball, vs, u, k in _draws(kind, statement):
        got, ref = _both(monkeypatch, statement, ball, vs, u, k)
        assert got == ref, (ball, vs, u, k)
        seen.add(repr(got)[:40] if statement in ("lemma-main", "signs") else got[:2])
    assert len(seen) > 1  # the draws reach more than one verdict


def _probes():
    """(case, j, sign, normal, ball, family, u): the gallery family in floats
    with every vector moved by sign·10^-j along an edge normal of its ball
    (the max-norm ball's: (0, 1), (-1, 0), (0, -1), (1, 0))."""
    for name in ("thm3-closed-fails", "remark1-equality"):
        case = gallery_case(name)
        ball = case.ball
        for n in edge_functionals(ball):
            nx, ny = int(n.x), int(n.y)
            for j in range(6, 15):
                for sign in (1, -1):
                    d = sign * 10.0**-j
                    vs = [Vec2(float(v.x) + d * nx, float(v.y) + d * ny) for v in case.vectors]
                    yield name, j, sign, (nx, ny), ball, vs, Vec2(0, 1)


# (case, push sign, edge normal) -> the vectors only the exact kernel puts
# outside the ball, all at j = 9 and for T3 and COR, which list them among
# the witnesses of a hypothesis both kernels find broken. Each such vector
# is one pushed 10^-9 out through its edge: its gauge is the float
# 1.0 + 1e-9, which the float walk compares with the float 1 + tol, the
# same float, so "inside"; its exact value is above 1 + Fraction(1e-9).
# Every other verdict of the 720 probes agrees.
PROBE_DISAGREEMENTS = {
    ("thm3-closed-fails", 1, (0, 1)): [(0,), (1,)],
    ("thm3-closed-fails", 1, (-1, 0)): [(1,)],
    ("thm3-closed-fails", -1, (-1, 0)): [(0,)],
    ("thm3-closed-fails", -1, (0, -1)): [(0,), (1,)],
    ("thm3-closed-fails", 1, (1, 0)): [(0,)],
    ("thm3-closed-fails", -1, (1, 0)): [(1,)],
    ("remark1-equality", 1, (-1, 0)): [(0,), (1,), (2,)],
    ("remark1-equality", -1, (-1, 0)): [(3,), (4,)],
    ("remark1-equality", 1, (1, 0)): [(3,), (4,)],
    ("remark1-equality", -1, (1, 0)): [(0,), (1,), (2,)],
}


def test_near_boundary_probes(monkeypatch):
    disagreements = {}
    count = 0
    for name, j, sign, normal, ball, vs, u in _probes():
        for statement in ("T1", "T2", "T3", "COR", "signs"):
            got, ref = _both(monkeypatch, statement, ball, vs, u, 5)
            count += 1
            if got != ref:
                disagreements[name, j, sign, normal, statement] = (got, ref, ball, vs)
    assert count == 2 * 4 * 9 * 2 * 5
    assert len(disagreements) == 2 * len(PROBE_DISAGREEMENTS)
    for (name, j, sign, normal, statement), (got, ref, ball, vs) in disagreements.items():
        assert j == 9 and statement in ("T3", "COR")
        (hyp, concl, witnesses, notes), outside = got, PROBE_DISAGREEMENTS[name, sign, normal]
        assert (hyp, concl, notes) == (ref[0], ref[1], ref[3])
        assert witnesses == outside + ref[2]
        for (i,) in outside:
            g = gauge(ball, vs[i])  # exact: one coordinate's magnitude
            assert g == 1.0 + 1e-9 and Fraction(g) > 1 + Fraction(1e-9)


class LiveRelationsWalk(RefSubsetSums):
    """The float walk read through the live `scalars` relations."""

    RELS = {}


def test_near_boundary_probes_under_the_one_rule(monkeypatch):
    # the float gauge of every vector of `PROBE_DISAGREEMENTS` is the float
    # 1 + tol, whose exact value `scalars` puts above the band, as the
    # kernel does
    count = 0
    for name, j, sign, normal, ball, vs, u in _probes():
        for statement in ("T1", "T2", "T3", "COR", "signs"):
            got, ref = _both(monkeypatch, statement, ball, vs, u, 5, LiveRelationsWalk)
            assert got == ref, (name, j, sign, normal, statement)
            count += 1
    assert count == 2 * 4 * 9 * 2 * 5


# float Claim 1 tuples, exact in floats: values at ±1, triple sums at ±1
# ((0, 1, 2) and (3, 4, 5) in "sums-at-one"), and both
CLAIM1_CASES = {
    "values-at-one": [1.0, -1.0, 0.5, -0.5, 0.25, -0.25],
    "sums-at-one": [0.5, 0.25, 0.25, -0.5, -0.25, -0.25],
    "both": [1.0, 0.5, -0.5, -1.0, 0.75, -0.75],
}

# (case, pushed value, push sign) -> what only the band accepts, all at
# j = 9: the triples whose exact sum is within the band while the float
# fold of the sum rounds past 1 + tol, or "zero-sum" where the exact total
# is within tol of 0 and the folded one is not. Every other outcome of the
# 324 probes agrees, errors included.
CLAIM1_DISAGREEMENTS = {
    ("values-at-one", 2, 1): [(0, 2, 3)],
    ("values-at-one", 3, -1): [(1, 2, 3)],
    ("values-at-one", 4, -1): [(1, 4, 5)],
    ("values-at-one", 5, 1): [(0, 4, 5)],
    ("sums-at-one", 0, 1): "zero-sum",
    ("sums-at-one", 3, -1): [(3, 4, 5)],
    ("both", 0, -1): "zero-sum",
    ("both", 1, 1): "zero-sum",
    ("both", 2, -1): [(1, 2, 3)],
    ("both", 4, 1): [(0, 4, 5)],
    ("both", 4, -1): [(3, 4, 5)],
    ("both", 5, 1): [(0, 4, 5)],
    ("both", 5, -1): [(3, 4, 5)],
}


def _claim1(fn, xs):
    try:
        return "ok", fn(xs)
    except HellyPlaneError as exc:
        return type(exc).__name__, str(exc)


def _folded(xs) -> float:
    """The float sum left to right from 0, as the former Claim 1 added."""
    total = 0
    for x in xs:
        total += x
    return total


def test_claim1_probes_against_the_float_fold():
    tau = Fraction(1e-9)
    disagreements = {}
    count = 0
    for name, xs in CLAIM1_CASES.items():
        for i in range(6):
            for j in range(6, 15):
                for sign in (1, -1):
                    ys = list(xs)
                    ys[i] += sign * 10.0**-j
                    got, ref = _claim1(claim1_triplets, ys), _claim1(ref_claim1_triplets, ys)
                    count += 1
                    if got != ref:
                        assert j == 9 and got[0] == "ok"
                        only = sorted(set(got[1]) - set(ref[1])) if ref[0] == "ok" else "zero-sum"
                        assert ref[0] != "ok" or set(ref[1]) < set(got[1])
                        disagreements[name, i, sign] = only
                        # the band is right on the exact values; the fold rounds past tol
                        parts = [list(t) for t in only] if only != "zero-sum" else [range(6)]
                        bound = tau if only == "zero-sum" else 1 + tau
                        for part in parts:
                            exact = abs(sum(Fraction(ys[k]) for k in part))
                            assert exact <= bound < Fraction(abs(_folded([ys[k] for k in part])))
    assert count == 3 * 6 * 9 * 2
    assert disagreements == CLAIM1_DISAGREEMENTS
