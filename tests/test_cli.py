import hashlib
import json
import random
import re

import pytest

from helly_plane import suites
from helly_plane.cli import main
from helly_plane.generators import gen_direction, gen_unit_vectors
from helly_plane.norms import ball_from_json, load_json
from helly_plane.svgout import instance_svg

BALL = '{"type":"polygonal","vertices":[["1","1"],["-1","1"],["-1","-1"],["1","-1"]]}'
VECS = '{"vectors":[["1","1"],["-1","1"],["0","1"]]}'
EUCLID_VECS = '{"vectors":[["1","0"],["0","1"],["-1","0"]]}'
TRIANGLE = '{"vertices":[["2","-1"],["-2","-1"],["0","2"]]}'
SQUARE_POLY = '{"vertices":[["1","1"],["-1","1"],["-1","-1"],["1","-1"]]}'


def test_gallery_run(capsys):
    assert main(["gallery", "run"]) == 0
    out = capsys.readouterr().out
    assert "0 failing checks" in out


def test_verify_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["verify", "claim1", "--trials", "5", "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["counts"]["fail"] == 0
    assert len(doc["records"]) == 5


def test_verify_stdout(capsys):
    assert main(["verify", "lemma-conv", "--trials", "3", "--seed", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["counts"]["pass"] == 3


def test_verify_rejects_unknown_suite():
    with pytest.raises(SystemExit):
        main(["verify", "no-such-suite"])


def test_signs_command(tmp_path, capsys):
    ball = tmp_path / "ball.json"
    vecs = tmp_path / "vecs.json"
    ball.write_text(BALL)
    vecs.write_text(VECS)
    svg = tmp_path / "out.svg"
    assert main(["signs", str(vecs), "--ball", str(ball), "--svg", str(svg)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["signs"] == [1, 1, 1]
    assert doc["odd_subsets_checked"] == 4
    assert doc["all_pass"] is True
    assert svg.read_text().startswith("<svg")


def test_ginzburg_command(tmp_path, capsys):
    vecs = tmp_path / "vecs.json"
    vecs.write_text(EUCLID_VECS)
    assert main(["ginzburg", str(vecs), "--u", "0,1"]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert len(lines) == 4  # initial state + one per vector
    assert lines[-1]["moving"] == []
    assert abs(lines[-1]["norm"] - 1.0) < 1e-9


def test_symmetry_command(tmp_path, capsys):
    poly = tmp_path / "tri.json"
    poly.write_text(TRIANGLE)
    assert main(["symmetry", "check", str(poly)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["symmetric"] is False
    assert doc["witness_i"] is not None
    assert doc["witness_ii"] is not None


def test_ginzburg_svg_draws_the_euclidean_circle(tmp_path):
    svg = tmp_path / "g.svg"
    assert main(["ginzburg", _write(tmp_path, "v.json", EUCLID_VECS), "--svg", str(svg)]) == 0
    text = svg.read_text()
    # the farthest coordinate is 1, so the unit circle's radius is 480 / 4 / (1.15 / 2) pixels
    assert '<circle cx="240.0" cy="240.0" r="208.6957"' in text and "<polygon" not in text


# an asymmetric pentagon whose one chord with unequal arms is horizontal,
# and whose extremes orthogonal to that chord are both edges parallel to it
PENTAGON_POLY = '{"vertices":[["-2","0"],["-1","-1"],["1","-1"],["1","1"],["-1","1"]]}'


def test_symmetry_command_when_the_extremes_are_edges(tmp_path, capsys):
    assert main(["symmetry", "check", _write(tmp_path, "p.json", PENTAGON_POLY)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["symmetric"] is False
    assert doc["witness_ii"]["kind"] == "surrounding-exterior-sum"


def test_symmetry_command_symmetric(tmp_path, capsys):
    poly = tmp_path / "sq.json"
    poly.write_text(SQUARE_POLY)
    assert main(["symmetry", "check", str(poly)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["symmetric"] is True
    assert doc["witness_i"] is None and doc["witness_ii"] is None


def test_missing_file_is_io_error(capsys):
    assert main(["ginzburg", "/nonexistent/vectors.json"]) == 2


RHOMBUS = '{"type":"polygonal","vertices":[["2","0"],["0","1"],["-2","0"],["0","-1"]]}'


def _svg_shapes(text):
    """The ball polygon's points and the vector arrows' end points, in pixels."""
    polygon = re.search(r'<polygon points="([^"]*)"', text).group(1)
    points = [tuple(map(float, p.split(","))) for p in polygon.split()]
    arrows = re.findall(r'<line [^>]*x2="([-\d.]+)" y2="([-\d.]+)" stroke="#2a7a2a"', text)
    return points, [(float(x), float(y)) for x, y in arrows]


def test_verify_svg_draws_trial_zero_on_the_ball_file(tmp_path):
    ball_path = tmp_path / "rhombus.json"
    ball_path.write_text(RHOMBUS)
    svg = tmp_path / "out.svg"
    code = main(["verify", "thm1", "--trials", "2", "--seed", "5", "--ball", str(ball_path),
                 "--out", str(tmp_path / "r.json"), "--svg", str(svg)])
    assert code == 0
    points, arrows = _svg_shapes(svg.read_text())
    # the rhombus itself, twice as wide as it is high, centred in the picture
    assert len(points) == 4
    xs, ys = [x for x, _ in points], [y for _, y in points]
    assert max(xs) - min(xs) == pytest.approx(2 * (max(ys) - min(ys)))
    # trial 0 of thm1 as the suite draws it: n unit vectors of the rhombus
    rng = random.Random(5 ^ 0)
    ball = ball_from_json(json.loads(RHOMBUS))
    n = rng.choice([3, 5, 7, 9])
    u = gen_direction(rng)
    vectors = gen_unit_vectors(ball, n, rng.getrandbits(32), halfplane=u)
    assert len(arrows) == n
    assert svg.read_text() == instance_svg(ball, vectors)


HEXAGON = ('{"type":"polygonal","vertices":[["1","1"],["-3/10","7/5"],["-1","1"],'
           '["-1","-1"],["3/10","-7/5"],["1","-1"]]}')


def test_verify_svg_reads_the_ball_file_once(tmp_path, monkeypatch):
    ball_path = tmp_path / "f.json"
    ball_path.write_text(HEXAGON)
    svg = tmp_path / "o.svg"
    loads = []

    def counting(path):
        loads.append(path)
        return load_json(path)

    monkeypatch.setattr(suites, "load_json", counting)
    code = main(["verify", "thm2", "--trials", "3", "--ball", str(ball_path),
                 "--out", str(tmp_path / "r.json"), "--svg", str(svg)])
    assert code == 0
    assert loads == [str(ball_path)]
    # the picture of trial 0 (an antipodal-pair instance), byte for byte as before
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == (
        "8a93af6ba1a1de50590d52b7723011cb1dba08776f2dea48ccec957a2ca72f6f"
    )


@pytest.mark.parametrize("argv", [["--trials", "-3"], ["--trials", "0"]])
def test_verify_trial_counts(argv, capsys):
    code = main(["verify", "thm1", "--seed", "1"] + argv)
    assert code == (2 if argv[1] == "-3" else 0)


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_verify_bad_tol_exits_2(tol, capsys):
    assert main(["verify", "thm2", "--mode", "float", "--trials", "3", "--tol", tol]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "tol" in err


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_malformed_json_exits_2(tmp_path):
    vecs = _write(tmp_path, "vecs.json", '{"vectors": [["1", "0"],')
    assert main(["ginzburg", vecs]) == 2


def test_unknown_ball_type_exits_2(tmp_path):
    ball = _write(tmp_path, "ball.json", '{"type": "hexagonal"}')
    assert main(["signs", _write(tmp_path, "vecs.json", VECS), "--ball", ball]) == 2


def test_missing_vertices_key_exits_2(tmp_path):
    ball = _write(tmp_path, "ball.json", '{"type": "polygonal"}')
    assert main(["signs", _write(tmp_path, "vecs.json", VECS), "--ball", ball]) == 2


@pytest.mark.parametrize("doc", ['{"vertices": [["1", "0"]]}', '{"vectors": 5}', "[]"])
def test_missing_vectors_key_exits_2(doc, tmp_path):
    assert main(["ginzburg", _write(tmp_path, "vecs.json", doc)]) == 2


def test_unparsable_scalar_exits_2(tmp_path):
    poly = _write(tmp_path, "poly.json", '{"vertices": [["2", "-1"], ["-2", "one"], ["0", "2"]]}')
    assert main(["symmetry", "check", poly]) == 2


def test_empty_polygon_exits_2(tmp_path):
    assert main(["symmetry", "check", _write(tmp_path, "poly.json", '{"vertices": []}')]) == 2


@pytest.mark.parametrize("argv", [["gallery", "bogus"], ["symmetry", "bogus", "p.json"]])
def test_unknown_action_exits_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_one_coordinate_direction_exits_2(tmp_path):
    assert main(["ginzburg", _write(tmp_path, "vecs.json", EUCLID_VECS), "--u", "1"]) == 2


FAR_VECS = '{"vectors": [["1e400", "0"], ["0", "1"], ["-1", "0"]]}'
FAR_POLYGON = '{"vertices": [["1e400", "0"], ["0", "1"], ["-1e400", "0"], ["0", "-1"]]}'
FAR_BALL = '{"type": "polygonal", "vertices": [["1e400", "0"], ["0", "1"], ["-1e400", "0"], ["0", "-1"]]}'


@pytest.mark.parametrize("case", ["vector", "direction", "ball-vertex"])
def test_float_coordinate_past_float_range_exits_2(case, tmp_path, capsys):
    if case == "vector":
        argv = ["ginzburg", _write(tmp_path, "v.json", FAR_VECS)]
    elif case == "direction":
        argv = ["ginzburg", _write(tmp_path, "v.json", EUCLID_VECS), "--u", "1e400,0"]
    else:
        ball = _write(tmp_path, "b.json", FAR_BALL)
        argv = ["verify", "thm1", "--mode", "float", "--trials", "2", "--ball", ball]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and err.startswith("error:") and "float range" in err


def test_svg_past_float_range_exits_2_and_writes_no_file(tmp_path, capsys):
    svg = tmp_path / "out.svg"
    assert main(["symmetry", "check", _write(tmp_path, "p.json", FAR_POLYGON), "--svg", str(svg)]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out)["symmetric"] is True  # the check itself is exact
    assert len(err.strip().splitlines()) == 1 and err.startswith("error:")
    assert not svg.exists()


NEAR_MAX_POLYGON = '{"vertices": [["1e308", "0"], ["0", "1e308"], ["-1e308", "0"], ["0", "-1e308"]]}'
NEAR_MAX_BALL = (
    '{"type": "polygonal", "vertices": [["1e308", "1e308"], ["-1e308", "1e308"], '
    '["-1e308", "-1e308"], ["1e308", "-1e308"]]}'
)
NEAR_MAX_VECS = '{"vectors": [["1e308", "1e308"], ["1e308", "1e308"], ["1e308", "1e308"]]}'


def test_svg_near_the_float_maximum_draws_the_polygon(tmp_path):
    svg = tmp_path / "out.svg"
    polygon = _write(tmp_path, "p.json", NEAR_MAX_POLYGON)
    assert main(["symmetry", "check", polygon, "--svg", str(svg)]) == 0
    points, _ = _svg_shapes(svg.read_text())
    # the four vertices at 1/1.15 of the half width from the centre
    assert sorted(points) == [(31.3043, 240.0), (240.0, 31.3043), (240.0, 448.6957), (448.6957, 240.0)]


def test_svg_of_a_sum_past_float_range_exits_2_and_writes_no_file(tmp_path, capsys):
    svg = tmp_path / "out.svg"
    argv = ["signs", _write(tmp_path, "v.json", NEAR_MAX_VECS),
            "--ball", _write(tmp_path, "b.json", NEAR_MAX_BALL), "--svg", str(svg)]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and err.startswith("error:") and "float range" in err
    assert not svg.exists()


# a symmetric 4-gon and a fifth point on an edge, as decimals: the vertices
# are read exactly in both modes, so the file is that 4-gon in both
EDGE_POINT_BALLS = {
    "inside-as-floats": [["-0.5", "-0.6"], ["0.5", "0.6"], ["-0.4", "-0.2"], ["0.4", "0.2"], ["-0.23", "-0.36"]],
    "outside-as-floats": [["0.3", "-0.1"], ["-0.3", "0.1"], ["-0.9", "-0.8"], ["0.9", "0.8"], ["0.66", "0.44"]],
}


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("name", EDGE_POINT_BALLS)
def test_ball_file_with_a_point_on_an_edge_runs_in_both_modes(name, mode, tmp_path, capsys):
    doc = {"type": "polygonal", "vertices": EDGE_POINT_BALLS[name]}
    ball = _write(tmp_path, "b.json", json.dumps(doc))
    assert main(["verify", "thm2", "--mode", mode, "--trials", "6", "--ball", ball]) == 0
    assert json.loads(capsys.readouterr().out)["counts"]["pass"] == 6
    assert len(ball_from_json(doc).vertices) == 4


def test_malformed_ball_file_in_verify_exits_2(tmp_path):
    ball = _write(tmp_path, "ball.json", "not json")
    assert main(["verify", "thm1", "--trials", "2", "--ball", ball]) == 2


@pytest.mark.parametrize("text", [None, "not json"], ids=["missing", "malformed"])
@pytest.mark.parametrize("suite", ["claim1", "symmetry", "gallery"])
def test_ball_file_is_read_by_suites_that_draw_no_ball(suite, text, tmp_path):
    ball = tmp_path / "ball.json"
    if text is not None:
        ball.write_text(text)
    out = tmp_path / "r.json"
    assert main(["verify", suite, "--trials", "2", "--ball", str(ball), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "suite,outline,arrows",
    # symmetry: the body, no vectors; claim1: six values on the x-axis, no
    # ball; gallery: its first case, the max-norm square and five vectors
    [("symmetry", True, 0), ("claim1", False, 6), ("gallery", True, 5)],
)
def test_verify_svg_draws_trial_zero_of_every_kind(suite, outline, arrows, tmp_path):
    svg = tmp_path / "out.svg"
    main(["verify", suite, "--trials", "1", "--seed", "2", "--out", str(tmp_path / "r.json"),
          "--svg", str(svg)])
    text = svg.read_text()
    assert ("<polygon" in text) == outline
    ends = re.findall(r'<line [^>]*x2="([-\d.]+)" y2="([-\d.]+)" stroke="#2a7a2a"', text)
    assert len(ends) == arrows
    if suite == "claim1":
        assert {y for _, y in ends} == {"240.0000"}
    if suite == "gallery":
        assert len(_svg_shapes(text)[0]) == 4


# numerals the grammar refuses, which some supported Pythons read: a 5001-digit
# numerator used to be read and then crash the printer with a traceback
HUGE_BALL = '{"type": "polygonal", "vertices": [["1e5000", "0"], ["0", "1"], ["-1e5000", "0"], ["0", "-1"]]}'
HUGE_VECS = '{"vectors": [["1e5000", "1"], ["1", "1"], ["-1", "1"]]}'
UNDERSCORE_POLYGON = '{"vertices": [["1_0", "0"], ["0", "1"], ["-1", "0"], ["0", "-1"]]}'


@pytest.mark.parametrize("case", ["ball-vertex", "vector", "underscore"])
def test_a_numeral_outside_the_grammar_exits_2(case, tmp_path, capsys):
    if case == "ball-vertex":
        argv = ["verify", "thm2", "--trials", "2", "--ball", _write(tmp_path, "b.json", HUGE_BALL)]
    elif case == "vector":
        argv = ["signs", _write(tmp_path, "v.json", HUGE_VECS), "--ball", _write(tmp_path, "b.json", BALL)]
    else:
        argv = ["symmetry", "check", _write(tmp_path, "p.json", UNDERSCORE_POLYGON)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.strip().splitlines()) == 1 and err.startswith("error:")


def test_signs_on_the_euclidean_ball_read_y_within_tol(tmp_path, capsys):
    # the family is rounded once, so a y of -1e-12 is 0 within tol and keeps
    # its sign; on its exact value it would flip
    vecs = '{"vectors": [["0.6", "0.8"], ["1", "-1e-12"], ["0.6", "-0.8"], ["-1", "1e-12"], ["0", "1"]]}'
    argv = ["signs", _write(tmp_path, "v.json", vecs), "--ball", _write(tmp_path, "b.json", '{"type": "euclidean"}')]
    assert main(argv) == 0
    assert capsys.readouterr().out == '{"signs": [1, 1, -1, 1, 1], "odd_subsets_checked": 16, "all_pass": true}\n'


def test_ginzburg_reads_rational_numerals_to_the_same_floats(tmp_path, capsys):
    vecs = '{"vectors": [["3/5", "4/5"], ["-3/5", "4/5"], ["0", "1"]]}'
    assert main(["ginzburg", _write(tmp_path, "v.json", vecs), "--u", "1/2,1"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == "90173c5d7a2df5f7d26dcf18c3fefddf447842baaa87d2d52bfd266ba1b4de07"
    assert out.splitlines()[-1] == (
        '{"moving": [], "fixed": [["1.0", "0.0"], ["-1.0", "0.0"], ["1.0", "0.0"]], "sum": ["1.0", "0.0"], "norm": 1.0}'
    )
