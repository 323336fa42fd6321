import json

import pytest

from helly_plane.cli import main

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


def test_symmetry_command_symmetric(tmp_path, capsys):
    poly = tmp_path / "sq.json"
    poly.write_text(SQUARE_POLY)
    assert main(["symmetry", "check", str(poly)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["symmetric"] is True
    assert doc["witness_i"] is None and doc["witness_ii"] is None


def test_missing_file_is_io_error(capsys):
    assert main(["ginzburg", "/nonexistent/vectors.json"]) == 2
