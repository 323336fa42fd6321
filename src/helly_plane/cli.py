"""Command line interface.

    helly-plane verify <suite> --trials N --seed S [--mode exact|float]
                       [--tol 1e-9] [--ball maxnorm|euclidean|random|FILE]
                       [--out report.json] [--svg out.svg]
    helly-plane gallery run
    helly-plane signs <vectors.json> --ball <ball.json> [--svg out.svg]
    helly-plane ginzburg <vectors.json> [--u 0,1] [--svg out.svg]
    helly-plane symmetry check <polygon.json> [--svg out.svg]

Exit status is 0 exactly when there were no substantive failures, 1 when
there were, and 2 on malformed input or any other library or file error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algorithms import choose_signs, ginzburg_reduce
from .errors import HellyPlaneError
from .gallery import CASE_NAMES, run_gallery
from .geometry import Family
from .norms import ball_from_json, euclidean_ball, load_json, load_vectors
from .scalars import DEFAULT_TOL
from .suites import SUITE_NAMES, SuiteConfig, draw_instance, run_suite
from .svgout import instance_svg
from .symmetry import (
    find_violation_halfplane,
    find_violation_surrounding,
    is_centrally_symmetric,
    make_convex_body,
)
from .vectors import Vec2


def _write_svg(path: str, ball, vectors) -> None:
    text = instance_svg(ball, vectors)  # before the file is opened
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _cmd_verify(args) -> int:
    config = SuiteConfig(
        suite=args.suite,
        trials=args.trials,
        seed=args.seed,
        mode=args.mode,
        tol=args.tol,
        ball_source=args.ball,
    )
    report = run_suite(config)
    text = report.to_json_text()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        print(text)
    print(
        f"suite {args.suite}: {report.passes} pass / {report.failures} fail / "
        f"{report.vacuous} vacuous ({report.wall_time:.2f}s)",
        file=sys.stderr,
    )
    if args.svg:
        # trial 0 exactly as the suite drew it, on the ball the run resolved
        instance = draw_instance(config, 0, report.balls)
        _write_svg(args.svg, instance.ball, instance.vectors)
    return 0 if report.failures == 0 else 1


def _cmd_gallery(args) -> int:
    results = run_gallery()
    failures = 0
    for name in CASE_NAMES:
        for check in results[name]:
            status = "ok" if check.passed else "FAIL"
            print(f"{name}: {check.name}: expected {check.expected}, got {check.actual} [{status}]")
            if not check.passed:
                failures += 1
    print(f"gallery: {len(CASE_NAMES)} cases, {failures} failing checks")
    return 0 if failures == 0 else 1


def _cmd_signs(args) -> int:
    ball = ball_from_json(load_json(args.ball))
    vectors = load_vectors(load_json(args.vectors))
    if not ball.is_polygonal:  # `choose_signs` reads y within tol on floats only: round once
        vectors = [Vec2(x, y) for x, y in Family(vectors).floats()]
    sv = choose_signs(ball, vectors)
    print(json.dumps(
        {"signs": sv.signs, "odd_subsets_checked": sv.odd_subsets_checked, "all_pass": True}
    ))
    if args.svg:
        _write_svg(args.svg, ball, vectors)
    return 0


def _cmd_ginzburg(args) -> int:
    vectors = load_vectors(load_json(args.vectors))
    u = Vec2.from_json(args.u.split(","))
    trace = ginzburg_reduce(vectors, u)
    for step in trace.steps:
        print(json.dumps(step.to_json()))
    if args.svg:
        _write_svg(args.svg, euclidean_ball(), vectors)
    return 0


def _cmd_symmetry(args) -> int:
    body = make_convex_body(load_vectors(load_json(args.polygon), key="vertices"))
    symmetric = is_centrally_symmetric(body)
    w1 = find_violation_halfplane(body)
    w2 = find_violation_surrounding(body)
    print(
        json.dumps(
            {
                "symmetric": symmetric,
                "witness_i": w1.to_json() if w1 else None,
                "witness_ii": w2.to_json() if w2 else None,
            }
        )
    )
    if args.svg:
        marks = [w1.a, w1.b, w1.c] if w1 else []
        _write_svg(args.svg, body, marks)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="helly-plane",
        description="verify vector-sum bounds and central symmetry in normed planes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a property suite")
    p.add_argument("suite", choices=SUITE_NAMES)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["exact", "float"], default="exact")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--ball", default="random",
                   help="maxnorm | euclidean | random | path to a ball JSON file")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.add_argument("--svg", help="render trial 0 of the run to this file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gallery", help="evaluate the fixed instance gallery")
    p.add_argument("action", choices=["run"])
    p.set_defaults(func=_cmd_gallery)

    p = sub.add_parser("signs", help="choose odd-subset-safe signs for unit vectors")
    p.add_argument("vectors", help="vector-set JSON file")
    p.add_argument("--ball", required=True, help="ball JSON file")
    p.add_argument("--svg")
    p.set_defaults(func=_cmd_signs)

    p = sub.add_parser("ginzburg", help="rotation reduction of a Euclidean halfplane family")
    p.add_argument("vectors", help="vector-set JSON file")
    p.add_argument("--u", default="0,1", help="halfplane direction, e.g. 0,1")
    p.add_argument("--svg")
    p.set_defaults(func=_cmd_ginzburg)

    p = sub.add_parser("symmetry", help="central symmetry check with witnesses")
    p.add_argument("action", choices=["check"])
    p.add_argument("polygon", help="polygon JSON file")
    p.add_argument("--svg")
    p.set_defaults(func=_cmd_symmetry)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HellyPlaneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
