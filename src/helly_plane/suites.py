"""Deterministic property suites over seeded random instances.

A suite runs `trials` independent instances; the sub-seed of trial i is
`seed XOR i`, so trials are order-independent and a config reproduces its
report byte for byte. Wall time is measured but kept out of the canonical
JSON for exactly that reason.

Each suite supplies a draw and a check; one driver runs every trial: it
draws the instance, digests it, then checks it. A draw writes its
instance's canonical JSON text (sorted keys, no spaces) directly, in one
pass from the lattice or float pairs, and the digest hashes that text:
no JSON document is built for it. Instances that fail to satisfy a
suite's hypothesis within the per-trial retry budget are recorded as
"vacuous" rather than silently redrawn forever; substantive passes are
the only thing that counts as evidence.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Optional, Sequence

from .algorithms import choose_signs, make_generic
from .errors import (
    BadInput, HypothesisFailed, SamplingExhausted, SearchBudgetExceeded, TheoremFalsified,
    UnknownSuite,
)
from .gallery import CASE_NAMES, gallery_case
from .generators import (
    antipodal_pair_on_boundary, gen_asymmetric_body, gen_claim1_tuple, gen_collinear_family,
    gen_direction, gen_random_ball, gen_symmetric_body, gen_unit_vectors, gen_zero_sum_six,
)
from .geometry import Family
from .norms import (
    SubsetSums, UnitBall, ball_from_json, euclidean_ball, load_json, square_ball,
)
from .scalars import DEFAULT_TOL, check_tol, le
from .symmetry import (
    find_violation_halfplane, find_violation_surrounding, is_centrally_symmetric,
    verify_halfplane_witness, verify_surrounding_witness,
)
from .theorems import (
    claim1_triplets, corollary_check, halfplane_certificate, lemma_conv_check,
    lemma_main_witness, verify_helly,
)
from .vectors import Vec2

# rng -> the trial's ball
_Balls = Callable[[random.Random], UnitBall]
# a value's canonical JSON text: `json.dumps(value, sort_keys=True, separators=(",", ":"))`
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


@dataclass(frozen=True)
class SuiteConfig:
    suite: str
    trials: int
    seed: int
    mode: str = "exact"
    tol: float = DEFAULT_TOL
    ball_source: str = "random"


@dataclass
class TrialRecord:
    index: int
    digest: str
    outcome: str  # "pass" | "fail" | "vacuous"
    detail: str = ""
    witnesses: list = field(default_factory=list)


@dataclass
class SuiteReport:
    config: SuiteConfig
    records: list[TrialRecord]
    wall_time: float  # informational only; not part of the canonical JSON
    # the run's ball source, resolved once; `draw_instance` takes it back
    balls: _Balls = field(repr=False)

    @property
    def passes(self) -> int:
        return sum(1 for r in self.records if r.outcome == "pass")

    @property
    def failures(self) -> int:
        return sum(1 for r in self.records if r.outcome == "fail")

    @property
    def vacuous(self) -> int:
        return sum(1 for r in self.records if r.outcome == "vacuous")

    def to_json_text(self) -> str:
        """The canonical JSON text of the report (sorted keys, separators
        (",", ":")), written directly: strings escaped as `json.dumps`
        escapes them, each record's fields under the keys "detail",
        "digest", "outcome", "trial" and "witnesses"."""
        cfg, enc = self.config, encode_basestring_ascii
        records = ",".join([
            f'{{"detail":{enc(r.detail)},"digest":{enc(r.digest)},"outcome":{enc(r.outcome)},'
            f'"trial":{r.index},"witnesses":{_canonical(r.witnesses) if r.witnesses else "[]"}}}'
            for r in self.records
        ])
        return (
            f'{{"config":{{"ball_source":{enc(cfg.ball_source)},"mode":{enc(cfg.mode)},'
            f'"seed":{cfg.seed},"suite":{enc(cfg.suite)},"tol":{_canonical(cfg.tol)},'
            f'"trials":{cfg.trials}}},"counts":{{"fail":{self.failures},"pass":{self.passes},'
            f'"vacuous":{self.vacuous}}},"records":[{records}]}}'
        )


@dataclass
class Instance:
    """One trial's input: `payload` is the canonical JSON text its digest
    covers, `ball` (or a convex body) and `vectors` what `verify --svg`
    draws, `data` what else the check needs; `vacuous` says why no instance
    was found."""

    payload: str
    ball: Optional[UnitBall] = None
    vectors: Sequence = ()
    data: Any = None
    vacuous: str = ""


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _as_mode(vectors: Family, mode: str) -> Family:
    """A drawn family in the run's mode; X / scale is `float` of its `Fraction`."""
    if mode == "float" and vectors.scale is not None:
        return Family.from_lattice(vectors.floats(), None)
    return vectors


def _ball_source(cfg: SuiteConfig) -> _Balls:
    """A "random" source draws each trial's ball from the trial's rng; any
    other is resolved here, before trial 0, and shared by the whole run,
    so a bad ball file fails every suite, drawing balls or not."""
    if cfg.ball_source == "random":
        return lambda rng: gen_random_ball(rng.getrandbits(32))
    ball = _fixed_ball(cfg)
    return lambda rng: ball


def _fixed_ball(cfg: SuiteConfig) -> UnitBall:
    source = cfg.ball_source
    if source == "maxnorm":
        ball = square_ball()
    elif source == "euclidean":
        ball = euclidean_ball()
    else:
        ball = ball_from_json(load_json(source))
    if cfg.suite == "generic" and not ball.is_polygonal:
        return square_ball()  # make_generic perturbs against polygon edges
    return ball


def _on_ball(ball: UnitBall, vectors: Family, extra: Optional[dict] = None, **fields) -> Instance:
    """An instance on a ball; its digest covers the ball, the vectors and
    `extra`, a map of key to the JSON text of its value. Every extra key
    sorts between "ball" and "vectors", so the text is written in order."""
    extras = "".join([f',"{key}":{text}' for key, text in sorted((extra or {}).items())])
    text = '{"ball":' + ball.json_text + extras + ',"vectors":' + vectors.json_text() + "}"
    return Instance(text, ball, vectors, **fields)


def _u_extra(u: Vec2) -> dict:
    """The extra of a halfplane direction u: its numerals, as `Vec2.to_json`."""
    return {"u": '["{}","{}"]'.format(*u.to_json())}


def _halfplane_family(rng: random.Random, ball: UnitBall, n: int):
    """A direction u and n unit vectors in the closed halfplane of u."""
    u = gen_direction(rng)
    return u, gen_unit_vectors(ball, n, rng.getrandbits(32), halfplane=u)


def _strict_instance(cfg: SuiteConfig, rng: random.Random, ball: UnitBall, n: int, probe):
    """Halfplane families, up to 50, until `probe(vectors)` reports that its
    strict hypothesis holds; the probe's report rides along as `data`."""
    for _ in range(50):
        u, vectors = _halfplane_family(rng, ball, n)
        vectors = _as_mode(vectors, cfg.mode)
        report = probe(vectors)
        if report.hypothesis_holds:
            return _on_ball(ball, vectors, _u_extra(u), data=report)
    return _on_ball(ball, vectors, vacuous="no strict instance in budget")


def _verdict(report, failure: str, success: str = "") -> tuple:
    """The outcome of a hypothesis/conclusion report."""
    if not report.hypothesis_holds:
        return "vacuous", report.notes
    if not report.conclusion_holds:
        return "fail", failure, [w.to_json() for w in report.witnesses]
    return "pass", success


def _draw_thm1(cfg: SuiteConfig, rng: random.Random, index: int, balls: _Balls) -> Instance:
    ball = balls(rng)
    u, vectors = _halfplane_family(rng, ball, rng.choice([3, 5, 7, 9]))
    return _on_ball(ball, _as_mode(vectors, cfg.mode), _u_extra(u), data=u)


def _check_thm1(cfg: SuiteConfig, inst: Instance) -> tuple:
    try:
        cert = halfplane_certificate(inst.ball, inst.vectors, inst.data, cfg.tol)
    except HypothesisFailed as exc:
        return "vacuous", str(exc)
    return "pass", f"projection_sum={cert.projection_sum}"


def _draw_thm2(cfg: SuiteConfig, rng: random.Random, index: int, balls: _Balls) -> Instance:
    ball = balls(rng)
    n = rng.choice([3, 5, 7, 9])
    u, vectors = _halfplane_family(rng, ball, n)
    note = "halfplane family"
    if index % 3 == 0 and ball.is_polygonal and n >= 5:
        # adversarial antipodal pair on the halfplane boundary line
        vectors = _splice(vectors, Family(antipodal_pair_on_boundary(ball, u)))
        note += " + antipodal pair"
    return _on_ball(ball, _as_mode(vectors, cfg.mode), _u_extra(u), data=note)


def _splice(vectors: Family, pair: Family) -> Family:
    """The family with its last two vectors replaced by `pair`, on one
    lattice: both are drawn on a polygon, so both are rational."""
    den = math.lcm(vectors.scale, pair.scale)
    a, b = den // vectors.scale, den // pair.scale
    pts = [(a * x, a * y) for x, y in vectors.pts[:-2]] + [(b * x, b * y) for x, y in pair.pts]
    return Family.from_lattice(pts, den)


def _check_thm2(cfg: SuiteConfig, inst: Instance) -> tuple:
    report = verify_helly(inst.ball, inst.vectors, strict=False, tol=cfg.tol)
    return _verdict(report, "three-sum bound failed", inst.data)


def _draw_thm3(cfg: SuiteConfig, rng: random.Random, index: int, balls: _Balls) -> Instance:
    ball = balls(rng)
    if index % 10 == 9 and ball.is_polygonal:
        # a dedicated collinear instance; its "1d" labels below are kept
        # because the canonical reports (and their digests) carry them
        vectors, _ = gen_collinear_family(ball, rng.getrandbits(32))
        return _on_ball(ball, _as_mode(vectors, cfg.mode), {"collinear": "true"})
    return _strict_instance(
        cfg, rng, ball, rng.choice([3, 5, 7, 9]),
        lambda vs: verify_helly(ball, vs, strict=True, tol=cfg.tol),
    )


def _check_thm3(cfg: SuiteConfig, inst: Instance) -> tuple:
    if inst.data is not None:  # the report the strict-instance loop found
        return _verdict(inst.data, "strict three-sum bound failed")
    report = verify_helly(inst.ball, inst.vectors, strict=True, tol=cfg.tol)
    return _verdict(report, "strict three-sum bound failed (1d)", "collinear 1d path")


def _draw_lemma_conv(cfg: SuiteConfig, rng: random.Random, index: int, balls: _Balls) -> Instance:
    ball = balls(rng)
    return _on_ball(ball, _as_mode(gen_unit_vectors(ball, 3, rng.getrandbits(32)), cfg.mode))


def _check_lemma_conv(cfg: SuiteConfig, inst: Instance) -> tuple:
    origin_in, h_in = lemma_conv_check(inst.ball, inst.vectors, cfg.tol)
    if origin_in != h_in:
        return "fail", f"memberships disagree: origin={origin_in}, sum={h_in}"
    return "pass", f"both={origin_in}"


def _draw_lemma_main(cfg: SuiteConfig, rng: random.Random, index: int, balls: _Balls) -> Instance:
    ball = balls(rng)
    return _on_ball(ball, _as_mode(gen_zero_sum_six(ball, rng.getrandbits(32)), cfg.mode))


def _check_lemma_main(cfg: SuiteConfig, inst: Instance) -> tuple:
    sums = SubsetSums(inst.ball, inst.vectors)  # packed once, for the witness and its re-check
    trip = lemma_main_witness(inst.ball, inst.vectors, cfg.tol, sums)
    [(_, inside)] = sums.tests([trip], le, cfg.tol)
    if not inside:
        return "fail", f"witness {trip} not in the ball"
    return "pass", f"triple={trip}"


def _draw_claim1(cfg: SuiteConfig, rng: random.Random, index: int, balls: _Balls) -> Instance:
    # the six values as points on the x-axis, which is also how they are pictured
    xs = gen_claim1_tuple(rng.getrandbits(32))
    points = tuple([Vec2(float(x), 0.0) if cfg.mode == "float" else Vec2(x, 0) for x in xs])
    text = ",".join([f'"{p.x!s}"' for p in points])
    return Instance('{"xs":[' + text + "]}", vectors=points)


# each triple of six indices to the other three
_COMPLEMENT = {t: tuple(sorted(set(range(6)) - set(t))) for t in combinations(range(6), 3)}


def _check_claim1(cfg: SuiteConfig, inst: Instance) -> tuple:
    hits = set(claim1_triplets([v.x for v in inst.vectors], cfg.tol))
    if len(hits) < 12:
        return "fail", f"only {len(hits)} triples"
    for t in hits:
        if _COMPLEMENT[t] not in hits:
            return "fail", f"complement of {t} missing"
    return "pass", f"count={len(hits)}"


def _draw_corollary(cfg: SuiteConfig, rng: random.Random, index: int, balls: _Balls) -> Instance:
    ball = balls(rng)
    return _strict_instance(
        cfg, rng, ball, rng.choice([7, 9]), lambda vs: corollary_check(ball, vs, 5, cfg.tol)
    )


def _check_corollary(cfg: SuiteConfig, inst: Instance) -> tuple:
    for k in (5, 7):
        report = inst.data if k == 5 else corollary_check(inst.ball, inst.vectors, k, cfg.tol)
        if not report.conclusion_holds:
            return "fail", f"a {k}-sum landed in the ball", [w.to_json() for w in report.witnesses]
    return "pass", f"n={len(inst.vectors)}"


def _draw_signs(cfg: SuiteConfig, rng: random.Random, index: int, balls: _Balls) -> Instance:
    ball = balls(rng)
    vectors = gen_unit_vectors(ball, rng.randint(1, 11), rng.getrandbits(32))
    return _on_ball(ball, _as_mode(vectors, cfg.mode))


def _check_signs(cfg: SuiteConfig, inst: Instance) -> tuple:
    return "pass", f"signs={choose_signs(inst.ball, inst.vectors, cfg.tol).signs}"


def _draw_generic(cfg: SuiteConfig, rng: random.Random, index: int, balls: _Balls) -> Instance:
    ball = balls(rng)
    vectors = _as_mode(gen_unit_vectors(ball, rng.randint(1, 7), rng.getrandbits(32)), cfg.mode)
    lam, eps = Fraction(rng.choice([90, 95, 99]), 100), Fraction(1, 1000)
    extra = {"lam": f'"{lam!s}"', "eps": f'"{eps!s}"'}
    return _on_ball(ball, vectors, extra, data=(lam, eps, rng.getrandbits(32)))


def _check_generic(cfg: SuiteConfig, inst: Instance) -> tuple:
    lam, eps, seed = inst.data
    # make_generic checks its own output; a perturbation that left the
    # eps-neighbourhood raises TheoremFalsified, which `_run_trial` records
    make_generic(inst.ball, inst.vectors, lam, eps, seed)
    return "pass", f"n={len(inst.vectors)}"


def _draw_symmetry(cfg: SuiteConfig, rng: random.Random, index: int, balls: _Balls) -> Instance:
    symmetric = index % 2 == 0
    body = (gen_symmetric_body if symmetric else gen_asymmetric_body)(rng.getrandbits(32))
    return Instance('{"body":' + body.vertices.json_text() + "}", body, data=symmetric)


def _check_symmetry(cfg: SuiteConfig, inst: Instance) -> tuple:
    symmetric, body = inst.data, inst.ball
    kind = "symmetric" if symmetric else "asymmetric"
    if is_centrally_symmetric(body) != symmetric:
        return "fail", f"{kind} body misclassified"
    w1, w2 = find_violation_halfplane(body), find_violation_surrounding(body)
    if symmetric:
        if w1 is not None:
            return "fail", "witness on symmetric body (i)"
        if w2 is not None:
            return "fail", "witness on symmetric body (ii)"
        return "pass", kind
    if w1 is None or not verify_halfplane_witness(body, w1):
        return "fail", "no verified halfplane witness"
    if w2 is None or not verify_surrounding_witness(body, w2):
        return "fail", "no verified surrounding witness"
    return "pass", kind, [w1.to_json(), w2.to_json()]


def _draw_gallery(cfg: SuiteConfig, rng: random.Random, index: int, balls: _Balls) -> Instance:
    case = gallery_case(CASE_NAMES[index])
    text = '{"case":' + encode_basestring_ascii(case.name) + "}"
    return Instance(text, case.ball, case.vectors, data=case)


def _check_gallery(cfg: SuiteConfig, inst: Instance) -> tuple:
    bad = [c for c in inst.data.run() if not c.passed]
    if bad:
        return "fail", "; ".join(f"{c.name}: expected {c.expected}, got {c.actual}" for c in bad)
    return "pass", inst.data.name


# suite name -> (draw(cfg, rng, index, balls) -> Instance, check(cfg, instance) -> outcome)
_SUITES = {
    "thm1": (_draw_thm1, _check_thm1),
    "thm2": (_draw_thm2, _check_thm2),
    "thm3": (_draw_thm3, _check_thm3),
    "lemma-conv": (_draw_lemma_conv, _check_lemma_conv),
    "lemma-main": (_draw_lemma_main, _check_lemma_main),
    "claim1": (_draw_claim1, _check_claim1),
    "corollary": (_draw_corollary, _check_corollary),
    "signs": (_draw_signs, _check_signs),
    "generic": (_draw_generic, _check_generic),
    "symmetry": (_draw_symmetry, _check_symmetry),
    "gallery": (_draw_gallery, _check_gallery),
}
SUITE_NAMES = tuple(_SUITES)


def draw_instance(config: SuiteConfig, index: int, balls: _Balls) -> Instance:
    """Trial `index` of a suite's run, drawn exactly as the suite draws it
    from the run's ball source (`SuiteReport.balls` after a run)."""
    draw, _ = _SUITES[config.suite]
    return draw(config, random.Random(config.seed ^ index), index, balls)


def _run_trial(config: SuiteConfig, index: int, balls: _Balls) -> TrialRecord:
    """The trial driver: draw, digest, check.

    A statement failing on the instance (`TheoremFalsified`) or a witness
    search running out of budget is a "fail" record, never an escape.
    """
    inst = draw_instance(config, index, balls)
    digest = _digest(inst.payload)
    if inst.vacuous:
        return TrialRecord(index, digest, "vacuous", inst.vacuous)
    _, check = _SUITES[config.suite]
    try:
        return TrialRecord(index, digest, *check(config, inst))
    except (TheoremFalsified, SamplingExhausted, SearchBudgetExceeded) as exc:
        return TrialRecord(index, digest, "fail", str(exc))


# suite name -> callable (config, index, balls) -> TrialRecord
_TRIALS = dict.fromkeys(_SUITES, _run_trial)


def run_suite(config: SuiteConfig) -> SuiteReport:
    """Run a named suite; deterministic for a fixed config.

    The gallery suite runs one trial per fixed case, whatever `trials` says.
    """
    start = time.perf_counter()
    check_tol(config.tol)  # first: a bool, str or NaN tol gets the range message
    for name, kinds in (("suite", (str,)), ("trials", (int,)), ("seed", (int,)),
                        ("ball_source", (str,)), ("tol", (int, float))):
        if type(value := getattr(config, name)) not in kinds:
            raise BadInput(f"{name} must be of type {' or '.join([k.__name__ for k in kinds])}; got {value!r}")
    try:
        trial = _TRIALS[config.suite]
    except KeyError:
        raise UnknownSuite(
            f"no suite named {config.suite!r}; known: {', '.join(SUITE_NAMES)}"
        ) from None
    if config.trials < 0:
        raise BadInput(f"trials must be >= 0; got {config.trials}")
    if config.mode not in ("exact", "float"):
        raise BadInput(f"mode must be 'exact' or 'float'; got {config.mode!r}")
    trials = len(CASE_NAMES) if config.suite == "gallery" else config.trials
    balls = _ball_source(config)
    records = [trial(config, i, balls) for i in range(trials)]
    return SuiteReport(config, records, time.perf_counter() - start, balls)
