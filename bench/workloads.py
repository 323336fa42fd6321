"""Workload definitions, unit plans and output checks for the benchmark.

A workload is a fixed mix of units. A unit is one call into the library:
one `run_suite` call over a few trials (followed by the canonical report
text), or one batch of rotation-reduction instances driven the way
acceptance criterion 8 drives them. Every unit's inputs come from a seed
derived from (workload, run seed, unit name, unit index), so the same run
seed always gives the same inputs.

This module imports `helly_plane` only when a `Library` is made (in
`setup`), so that the import is part of the measured set-up time.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
GOLDEN_PATH = os.path.join(BENCH_DIR, "golden.json")

DEFAULT_SEED = 20240611
TOL = 1e-9
ROTATION = "rotation"

# (unit name, trials per unit, units per round). Suite trial counts keep the
# proportions of tests/test_acceptance.py (thm1..claim1 10^4, signs and
# corollary 10^3, symmetry 200, generic 100, rotation 10^3, gallery once).
MIXES = {
    # What a tier-1 run pays for: random polygons, exact mode, the whole
    # acceptance mix. Ball construction and the Fraction gauge both weigh.
    "exact-random": {
        "mode": "exact",
        "ball": "random",
        "units": [
            ("thm1", 25, 4),
            ("thm2", 25, 4),
            ("thm3", 25, 4),
            ("lemma-conv", 50, 2),
            ("lemma-main", 50, 2),
            ("claim1", 100, 1),
            ("signs", 5, 2),
            ("generic", 1, 1),
            ("symmetry", 2, 1),
            ("corollary", 5, 2),
            ("gallery", 1, 1),
        ],
    },
    # Enumeration-bound suites on one fixed ball: gauge calls and subset
    # sums dominate, ball construction is small.
    "exact-maxnorm": {
        "mode": "exact",
        "ball": "maxnorm",
        "units": [
            ("thm2", 50, 2),
            ("thm3", 50, 2),
            ("lemma-main", 50, 2),
            ("corollary", 5, 2),
            ("signs", 5, 2),
            ("generic", 1, 1),
        ],
    },
    # Float mode on the Euclidean ball: no polygon is ever built and the
    # gauge is math.hypot, so exact-kernel changes must not move it.
    "float-euclidean": {
        "mode": "float",
        "ball": "euclidean",
        "units": [
            ("thm1", 100, 4),
            ("thm2", 100, 4),
            ("thm3", 100, 4),
            ("lemma-conv", 200, 2),
            ("lemma-main", 200, 2),
            ("claim1", 200, 2),
            ("corollary", 20, 2),
            ("signs", 20, 2),
            (ROTATION, 20, 2),
        ],
    },
    # The mixed path: Fraction edge functionals against float vectors under
    # tolerant comparisons.
    "float-polygon": {
        "mode": "float",
        "ball": "random",
        "units": [
            ("thm1", 50, 2),
            ("thm2", 50, 2),
            ("thm3", 50, 2),
            ("lemma-conv", 50, 2),
            ("lemma-main", 50, 2),
            ("corollary", 5, 2),
            ("signs", 5, 2),
        ],
    },
}


def unit_seed(workload: str, seed, name: str, index: int) -> int:
    text = f"{workload}/{seed}/{name}/{index}"
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


@dataclass(frozen=True)
class Unit:
    name: str  # a suite name, or ROTATION
    trials: int
    seed: int
    mode: str
    ball: str

    @property
    def key(self) -> str:
        """The golden-digest key: everything the canonical report depends on."""
        return f"{self.name}/{self.mode}/{self.ball}/{self.trials}/{self.seed}"


def warmup_units(workload: str) -> list[Unit]:
    """One unit of each kind, on fixed inputs that no timed unit uses."""
    mix = MIXES[workload]
    return [
        Unit(name, trials, unit_seed(workload, "warmup", name, 0), mix["mode"], mix["ball"])
        for name, trials, _ in mix["units"]
    ]


def round_units(workload: str, seed: int, r: int) -> list[Unit]:
    """The units of round r; a round is the workload's whole mix once."""
    mix = MIXES[workload]
    return [
        Unit(
            name, trials, unit_seed(workload, seed, name, r * per_round + j),
            mix["mode"], mix["ball"],
        )
        for name, trials, per_round in mix["units"]
        for j in range(per_round)
    ]


class Library:
    """The public entry points of `helly_plane` the benchmark drives.

    Calls go through the module objects at call time, so wrappers installed
    on those modules by the tracer are seen here too.
    """

    def __init__(self):
        if SRC not in sys.path:
            sys.path.insert(0, SRC)
        import helly_plane
        from helly_plane import algorithms, gallery, generators, suites

        if not os.path.abspath(helly_plane.__file__).startswith(SRC + os.sep):
            raise ImportError(f"helly_plane was not imported from {SRC}")
        self.algorithms = algorithms
        self.generators = generators
        self.suites = suites
        self.gallery_cases = len(gallery.CASE_NAMES)

    def records(self, unit: Unit) -> int:
        """Trials a unit reports: the gallery suite reports one per case."""
        return self.gallery_cases if unit.name == "gallery" else unit.trials

    def run(self, unit: Unit):
        """Run one unit; returns what `check` needs. Raises what the library raises."""
        if unit.name == ROTATION:
            return [rotation_instance(self, unit.seed ^ i) for i in range(unit.trials)]
        cfg = self.suites.SuiteConfig(
            suite=unit.name, trials=unit.trials, seed=unit.seed,
            mode=unit.mode, tol=TOL, ball_source=unit.ball,
        )
        report = self.suites.run_suite(cfg)
        return report, report.to_json_text()


def rotation_instance(lib: Library, seed: int) -> list[float]:
    """One criterion-8 instance: generate, reduce, return the norm sequence."""
    vectors, u = lib.generators.gen_euclidean_halfplane_instance(seed)
    trace = lib.algorithms.ginzburg_reduce(vectors, u, TOL)
    return [s.norm for s in trace.steps]


def rotation_ok(norms: list[float]) -> bool:
    """Acceptance criterion 8: never grows, ends at an odd integer >= 1."""
    if any(b > a + TOL for a, b in zip(norms, norms[1:])):
        return False
    final = norms[-1]
    return abs(final - round(final)) <= TOL and round(final) % 2 == 1 and final >= 1 - TOL


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check(unit: Unit, records: int, output, golden: dict[str, str]) -> tuple[int, str]:
    """Failed trials of one unit's output, with a reason when any failed.

    A suite trial fails when its outcome is not "pass" or when the unit's
    canonical report differs from a recorded golden digest (then every
    trial of the unit counts as failed). A rotation instance fails when it
    breaks criterion 8.
    """
    if unit.name == ROTATION:
        bad = sum(1 for norms in output if not rotation_ok(norms))
        return bad, f"{bad} rotation instances break criterion 8" if bad else ""
    report, text = output
    want = golden.get(unit.key)
    if want is not None and digest(text) != want:
        return records, "report digest differs from the golden one"
    bad = sum(1 for r in report.records if r.outcome != "pass")
    bad += max(0, records - len(report.records))
    if bad:
        outcomes = sorted({r.outcome for r in report.records if r.outcome != "pass"})
        return bad, f"{bad} trials not passed ({', '.join(outcomes) or 'missing'})"
    return 0, ""


def load_golden(workload: str) -> dict[str, str]:
    with open(GOLDEN_PATH, encoding="utf-8") as f:
        return json.load(f)[workload]


def setup(workload: str, seed: int):
    """Everything before the first timed unit: import, plan, golden digests."""
    lib = Library()
    plan = warmup_units(workload), round_units(workload, seed, 0)
    return lib, plan, load_golden(workload)
