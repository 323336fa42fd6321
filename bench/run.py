"""Suite-throughput benchmark for helly_plane.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. One process, one thread, closed loop: each
unit (one `run_suite` call, or one batch of rotation instances) starts when
the previous one returns. Every output is checked (see workloads.check).

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics from a cProfile pass and a traced pass over the first round, after
the same timed pass. The last line of stdout is one JSON object with keys
correct, attempted, failed and metrics. The exit status is 0 exactly when
no trial failed.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pstats
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import workloads as wl  # noqa: E402

OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_PROBES = 7
# The reference speed: the machine on which calibration_kernel() takes 1 ms.
CALIBRATION_REF_S = 0.001
CALIBRATION_RUNS = 3
PROFILED_MODULES = (
    "scalars", "vectors", "geometry", "norms", "generators", "theorems",
    "algorithms", "symmetry", "suites", "gallery",
)
# Each probe is a fresh interpreter, so set-up includes every import it needs.
# It calibrates itself afterwards, as it may run on another CPU than its parent.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import workloads
workloads.setup(sys.argv[2], int(sys.argv[3]))
elapsed = time.perf_counter() - t0
import run
print(elapsed, run.machine_slowdown())
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.MIXES))
    p.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def calibration_kernel() -> Fraction:
    """Fixed stdlib-only work shaped like the library's inner loops:
    Fraction arithmetic, float conversion, small tuples and dict inserts."""
    acc = Fraction(0)
    seen = {}
    for i in range(1, 120):
        f = Fraction(i, 997) * Fraction(3, i + 7) - Fraction(1, i + 1)
        acc += f
        seen[f] = i
        seen[(float(f) * 1.5, i * i % 17)] = acc
    return acc


def machine_slowdown() -> float:
    """How much slower than the reference speed the machine runs right now.

    The machine this benchmark was built on changes speed by up to 1.6x
    within seconds (CPU time follows wall time, so it is not preemption).
    Timed work is therefore rescaled by the calibration kernel's median
    time, measured next to the work, over its time at the reference speed.
    """
    times = []
    for _ in range(CALIBRATION_RUNS):
        t0 = time.perf_counter()
        calibration_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / CALIBRATION_REF_S


def setup_seconds(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up times of SETUP_PROBES fresh interpreters: (at reference speed, wall)."""
    scaled, wall = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, BENCH_DIR, workload, str(seed)],
            cwd=wl.ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        elapsed, slowdown = map(float, done.stdout.split()[-2:])
        wall.append(elapsed)
        scaled.append(elapsed / slowdown)
    return scaled, wall


class Runner:
    """Runs and checks units, counting attempted and failed trials."""

    def __init__(self, lib: wl.Library, golden: dict[str, str]):
        self.lib = lib
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.slowdown = None  # the latest calibration

    def run(self, unit: wl.Unit) -> float:
        """Run one unit and check its output; returns its wall time in seconds."""
        records = self.lib.records(unit)
        self.attempted += records
        t0 = time.perf_counter()
        try:
            output = self.lib.run(unit)
        except Exception:  # a raising suite run fails all its trials; go on
            elapsed = time.perf_counter() - t0
            self.failed += records
            print(f"FAIL {unit.key}: raised", file=sys.stderr)
            traceback.print_exc()
            return elapsed
        elapsed = time.perf_counter() - t0
        bad, why = wl.check(unit, records, output, self.golden)
        if bad:
            self.failed += bad
            print(f"FAIL {unit.key}: {why}", file=sys.stderr)
        return elapsed

    def run_scaled(self, unit: wl.Unit) -> tuple[float, float]:
        """(seconds at reference speed, wall seconds) of one checked unit.

        The slowdown is the mean of the calibrations just before and just
        after the unit; the one after also serves the next unit.
        """
        before = self.slowdown or machine_slowdown()
        wall = self.run(unit)
        self.slowdown = machine_slowdown()
        return wall / ((before + self.slowdown) / 2), wall

    def timed_pass(self, workload: str, seed: int, seconds: int) -> dict:
        """Whole rounds until `seconds` pass (at least one round).

        Returns the trials run, their seconds at reference speed and their
        wall seconds; seconds at reference speed per trial of each unit name;
        and the units of round 0 with their times at reference speed.
        """
        out = {"trials": 0, "seconds": 0.0, "wall": 0.0,
               "per_trial": defaultdict(list), "first_round": []}
        deadline = time.perf_counter() + seconds
        r = 0
        while r == 0 or time.perf_counter() < deadline:
            for unit in wl.round_units(workload, seed, r):
                scaled, wall = self.run_scaled(unit)
                records = self.lib.records(unit)
                out["trials"] += records
                out["seconds"] += scaled
                out["wall"] += wall
                out["per_trial"][unit.name].append(scaled / records)
                if r == 0:
                    out["first_round"].append((unit, scaled))
            r += 1
        return out


def self_shares(prof: cProfile.Profile) -> dict[str, float]:
    """Share of profiled self time in fractions.py and in each library module."""
    by_module = defaultdict(float)
    total = 0.0
    pkg_dir = os.path.join(wl.SRC, "helly_plane") + os.sep
    for (filename, _, _), (_, _, tottime, _, _) in pstats.Stats(prof).stats.items():
        total += tottime
        if filename.startswith(pkg_dir):
            by_module[filename[len(pkg_dir):].removesuffix(".py")] += tottime
        elif os.path.basename(filename) == "fractions.py":
            by_module["fractions"] += tottime
    return {
        f"{m}.self_share": by_module[m] / total
        for m in PROFILED_MODULES + ("fractions",)
    }


def per_layer(runner: Runner, workload: str, timed: dict) -> dict[str, float]:
    """cProfile pass, then traced pass, both over round 0 of the timed pass."""
    import tracer as tr

    units = [u for u, _ in timed["first_round"]]
    prof = cProfile.Profile()
    prof.enable()
    for unit in units:
        runner.run(unit)
    prof.disable()

    tracer = tr.Tracer()
    missing = tracer.install([wl])
    if missing:
        print(f"not traced (absent): {', '.join(missing)}", file=sys.stderr)
    traced = traced_wall = 0.0
    for unit in units:
        scaled, wall = runner.run_scaled(unit)
        traced += scaled
        traced_wall += wall
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"spans-{workload}.csv"))

    trials = defaultdict(int)
    for unit in units:
        trials[unit.name] += runner.lib.records(unit)
    metrics = tracer.metrics(trials, traced / traced_wall)
    for suite in runner.lib.suites.SUITE_NAMES:
        samples = timed["per_trial"].get(suite)
        metrics[f"suites.{suite}.ms_per_trial"] = (
            1000 * statistics.fmean(samples) if samples else 0.0
        )
    metrics.update(self_shares(prof))
    metrics["trace.overhead_ratio"] = traced / sum(dt for _, dt in timed["first_round"])
    return metrics


def declared_metrics(trace: int) -> list[dict]:
    """The metrics BENCHMARK.json declares for this kind of run, in order."""
    with open(os.path.join(wl.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)["per_layer" if trace else "end_to_end"]


def metadata(**unscaled) -> dict:
    """Run context and unscaled figures, recorded with every result, never gated."""
    lines = 0
    pkg = os.path.join(wl.SRC, "helly_plane")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as f:
                lines += sum(1 for _ in f)
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "src_lines": lines,
        **unscaled,
    }


def git_commit():
    """HEAD's commit when the checkout is a git work tree, else None."""
    git = os.path.join(wl.ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        lib, (warmup, _), golden = wl.setup(args.workload, args.seed)
    except (ImportError, OSError, KeyError, ValueError) as exc:
        print(f"set-up failed: {exc!r}", file=sys.stderr)
        return 2
    setup, setup_wall = setup_seconds(args.workload, args.seed)
    runner = Runner(lib, golden)
    for unit in warmup:
        runner.run(unit)
    timed = runner.timed_pass(args.workload, args.seed, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if args.trace:
        metrics = per_layer(runner, args.workload, timed)
    else:
        metrics = {
            "trials_per_s": timed["trials"] / timed["seconds"],
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
            "pass_ratio": 1 - runner.failed / runner.attempted,
        }
    declared = declared_metrics(args.trace)
    if {m["name"] for m in declared} != set(metrics):
        raise RuntimeError("measured metrics differ from those BENCHMARK.json declares")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    }
    meta = metadata(
        wall_trials_per_s=timed["trials"] / timed["wall"],
        wall_setup_s=statistics.median(setup_wall),
        slowdown=timed["wall"] / timed["seconds"],
    )
    print("meta " + json.dumps(meta, sort_keys=True))
    for k, m in result["metrics"].items():
        print(f"{k} = {m['value']:.6g} {m['unit']}")
    print(f"verdict: {'correct' if result['correct'] else 'INCORRECT'} "
          f"({runner.failed} of {runner.attempted} trials failed)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
