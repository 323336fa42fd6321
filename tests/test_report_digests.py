"""Golden digests of the canonical suite reports and of the gallery results.

Each config below is pinned to the sha256 of `SuiteReport.to_json_text()`
as the reference implementation produced it. Any change to arithmetic,
enumeration order, witness choice or report formatting shows up here as a
digest mismatch, so refactors and speedups must leave every line intact.

Trial counts are chosen to reach the special trials of the suites: thm2's
antipodal-pair instances (index % 3 == 0) and thm3's collinear instance
(index 9 on polygonal balls).

The `--ball FILE` rows read a polygon from a file, whose vertices both
modes read exactly: a hexagon, and the decimal copy of
`gen_random_ball(20240611)`, a 10-gon. Float mode then draws the exact
mode's vectors and rounds them to floats, which
`test_float_ball_file_runs_draw_the_exact_runs_in_floats` checks trial by
trial. They pin the records, not the whole report: the config holds the
file path.
"""

import builtins
import hashlib
import json
import math

import pytest

from helly_plane.gallery import CASE_NAMES, run_gallery
from helly_plane.geometry import Family
from helly_plane.suites import SuiteConfig, draw_instance, run_suite

from oracles import ref_record_to_json

# (suite, trials, seed, mode, ball, sha256 of the canonical report text)
GOLDEN = [
    ("thm1", 40, 11, "exact", "random", "45c42e1f704834cf2c5b31e331d6019b49cfc1b3745e1303d31690a1c09c571d"),
    ("thm2", 30, 12, "exact", "random", "b7cf6a8d5161b70c27d61a06ae6031fd0be5c60308c16593ea72e7fd253ed9cb"),
    ("thm3", 20, 13, "exact", "random", "73323efb788b78adc017837e7245d737b547069c2e087991e7c0c5866141360e"),
    ("corollary", 10, 14, "exact", "random", "f8ae8222d9f6e6d2bbb7853c7c8a279b3e8fa834c82d6e1cfe3ac57b3eacb99f"),
    ("signs", 20, 15, "exact", "random", "098b85d0b51f41b011204fea4357e4741784cb4e41111163b14c9b8fab56788d"),
    ("lemma-main", 50, 16, "exact", "random", "0943a192085bbb5529ea86fb8f35fadb8b226808f007cdccbd16368c9e2328de"),
    ("lemma-conv", 50, 17, "exact", "random", "4f40378e3957f19d2415368fbfa5d8a34b18db0ae77ef7c25e1f572f5d8c22d2"),
    ("claim1", 30, 29, "exact", "random", "0c19e304b5c09db0ac12178e8d4c647ebe0568ab09bfea8fe8c54a972773605e"),
    ("thm1", 30, 30, "exact", "maxnorm", "d16aab097f6787c0ab845c647eb876f13388ed048ad178269572a848fc9293b6"),
    ("thm2", 30, 18, "exact", "maxnorm", "37f7fb88e9e1bc8e3932f8f8d97f701fc4cfd0062c9eec32e602e6c5b0b21ed6"),
    ("thm3", 20, 19, "exact", "maxnorm", "750986097ab9882135e45793e6d6b11f1759e4d97cab7290a54df955ecf1f1d8"),
    ("corollary", 10, 20, "exact", "maxnorm", "237376c591c8d943dab920ce91c38aaacdd6a4defdd9e51fb8a4c3b4953f77b5"),
    ("signs", 20, 21, "exact", "maxnorm", "765771c1243bd3aeb637d246bde814245b4da0ee6ed3461dedea9b305bc939af"),
    ("lemma-main", 50, 22, "exact", "maxnorm", "ae858a5fe876e076be8db128fcc6ed7b085baadcef16909502d4692da195a387"),
    ("thm1", 30, 31, "float", "random", "74adfcc5640969fa6580e33741ccffef974434d9a3fb59d7814bd7318ce7719a"),
    ("thm2", 30, 23, "float", "random", "47272f6d6f27fb04ef2e264e3d0fdb67fe17eeb1a6c24598aa3718513205ed40"),
    ("thm3", 20, 24, "float", "random", "f27685303801e7c2263efef409d12aecacebbd1a6b597b5ca4ab2e8ebeb9f971"),
    ("corollary", 10, 32, "float", "random", "2b6e15bdaabbab7b3b11d4255a8a972c69fdbae24707a2f341746f72881049bb"),
    ("signs", 20, 33, "float", "random", "ff5708768e963077455fc5232eeb660a6111561ab703ff5440f8e8120114b265"),
    ("lemma-main", 50, 34, "float", "random", "6a035291e282c9abade7b023aec464a3a77788a0928296187ad5c8da0a9bd425"),
    ("thm2", 30, 25, "float", "euclidean", "d962ce01099752a4941a044a9bbde4f9a4b29c9f9595d139d424d549cf5f93c3"),
    ("thm3", 20, 26, "float", "euclidean", "1e6a2adbcd8aec62d64830c71099020c3ed93fb3dfd9ea66a0437eb68891dc77"),
    ("generic", 10, 27, "exact", "random", "61adb96e875ef17eb017ef97df7c2ff25ac795757b2c08ff360367460765b8d3"),
    ("symmetry", 10, 28, "exact", "random", "8e27fd8e5c7e62992463194abfc3f64614ad841d06d68c8fab77f6fc211ba4fd"),
    ("lemma-conv", 50, 35, "exact", "maxnorm", "ee638296a8c7350ce1c01cac124fb69c625fd00deb86c03ccd6571c1909319c5"),
    ("lemma-conv", 50, 36, "float", "random", "1ac4093296dbe0b2e440d8c7ff9d2273888621697572d06715eb0ab28e53c5c8"),
    ("lemma-conv", 50, 37, "float", "euclidean", "ebc2bce09fe129e17fd6bf168e3dd10ad4ffc96a1f0154cf2829e0bb5e04db62"),
    ("claim1", 30, 38, "float", "random", "5440ab0a024275ac473dc9b2d7c85b099fcf909d943d0f6bbdf4bf9dd4c047cc"),
    ("thm1", 30, 39, "float", "euclidean", "59a4d7c5c19f040f4a2de2aee9e403ad26b579187a0f0454370398b69de6923f"),
    ("symmetry", 200, 41, "exact", "random", "1a97456b7c30c04f5b5ef8d3f6900829cdb6ffa1afc86738f11a7e4129c3b1c2"),
    ("symmetry", 200, 42, "exact", "random", "f541acc0e52eb5f2d97362e5f0ed713e0d9af1baf28a5990c1a721b0107297cf"),
]

# the float hexagon of `test_generator_equivalence`, written to a ball file
BALL_FILE = {"type": "polygonal", "vertices": [
    ["0.7", "0.1"], ["-0.2", "0.9"], ["-0.55", "0.35"],
    ["-0.7", "-0.1"], ["0.2", "-0.9"], ["0.55", "-0.35"],
]}

# (suite, trials, seed, mode, sha256 of the canonical records of a
# `--ball FILE` run on BALL_FILE)
BALL_FILE_GOLDEN = [
    ("thm1", 30, 5, "exact", "5287ab70b96fe693a265d86093c0f929de070d40f2738814b00be36860e4b069"),
    ("thm2", 30, 5, "exact", "9cfd234faa99445eda001761c873b2841a2cc88af477944ae823ec13b0927763"),
    ("thm3", 30, 5, "exact", "585ffdcf9820259a80deb33bc4bd47c136188d34963a57c190af0a3e9fc89eae"),
    ("lemma-conv", 30, 5, "exact", "c43e3f7ac220079004d2d951e4925d4745c1591fa1c7da237be21a1d436ceea5"),
    ("lemma-main", 30, 5, "exact", "2b80fb8b183aa90413d2c388be619b966d180d4063f12547cb65ffa4239fa11e"),
    ("corollary", 30, 5, "exact", "1ab84bcf969bceef42d3aca21d02ab443d8bc067b1e33193a3145d6fbffca671"),
    ("signs", 30, 5, "exact", "9fecf2b5380b3509a01ad8147d259325a2f6f579abe3ba1a87f4a5fcae0d1275"),
    ("generic", 30, 5, "exact", "0d0dd4ae99dd42b5db32e3c7862f950706f61001dd19a89d4a795977c1347e67"),
    ("thm1", 30, 5, "float", "8bbe81274babb5286024ac6b105f54701e59a94e4f572455e9b445f07bf0d9f1"),
    ("thm2", 30, 5, "float", "354f5aa9865a5332684aae96e1554c92b1c4e9188894b97dd4f5dde28faa6ffc"),
    ("thm3", 30, 5, "float", "d837a6cc6c2414bb98e1d9f7767e1370e9e0a7b4cd2ac286f3ea14cd343ef885"),
    ("lemma-conv", 30, 5, "float", "531f88bd0ee3aea45487878709d54f62d31f9438b58174bea125e52cbcb76559"),
    ("lemma-main", 30, 5, "float", "13d8ac6b7231964579d9c52ae269b090d7dcf435c9a9ba6898e16690a63ccb5d"),
    ("corollary", 30, 5, "float", "0d28a38aed87540a67d2b259b88eda1316e6691333c4181f97926944a4a225d4"),
    ("signs", 30, 5, "float", "a966d150f91b21df0f9654597e008be69b16ccc35d5178ba9b29bd8914f60cb8"),
    ("generic", 30, 5, "float", "db2c593c4371e7a99aab1475d79da65e83a49fc51b4baa5fa98735f70a0c51dc"),
]

# the vertices of `gen_random_ball(20240611)` as decimals
RANDOM_BALL_FILE = {"type": "polygonal", "vertices": [
    ["0.694", "0.252"], ["0.47", "0.55"], ["0.244", "0.677"], ["-0.47", "0.656"],
    ["-0.771", "0.245"], ["-0.694", "-0.252"], ["-0.47", "-0.55"], ["-0.244", "-0.677"],
    ["0.47", "-0.656"], ["0.771", "-0.245"],
]}

# as BALL_FILE_GOLDEN, for a `--ball FILE` run on RANDOM_BALL_FILE
RANDOM_BALL_FILE_GOLDEN = [
    ("thm1", 30, 5, "exact", "60cb478dead63b776eca1d3198e97108faa7fa3840b4149f575416cf0dc442c8"),
    ("thm2", 30, 5, "exact", "e41c766c0ebee9758d3cf57f15eb56a661fe3bac5325a87d523707191939e756"),
    ("thm3", 30, 5, "exact", "18aae579fbc347a09dc05dd99e786e392bab809e431071b383215ddc208070a3"),
    ("lemma-conv", 30, 5, "exact", "fbb685f2f8ece33b7be402c3bce5053ad5394bbb4df8fe1bdac9319e03a2de28"),
    ("lemma-main", 30, 5, "exact", "2b6ce9856fa6cebe4e02814ad160b0835c0548ac219e0d79dcaaf059b08ff158"),
    ("corollary", 30, 5, "exact", "4188f84552e124c07f5073069dc4e3daf4c68474ec2f48649ffbfa3dafeecc87"),
    ("signs", 30, 5, "exact", "cf48a35a6dbc1f94477a8e180716f227c99d7717534a5ce426004e640d1a4800"),
    ("generic", 30, 5, "exact", "a4aec855014b535e397c3bd680e3b6993335bece02dda160c657441c1f5bb9d9"),
    ("thm1", 30, 5, "float", "a74dad6c00c473a7ed4773397f5f6c33518d5ed0c8b4f820b4d18d75e73fcd5c"),
    ("thm2", 30, 5, "float", "a597d6fc51965e31f45fe2e1bb3b745b1a3df025497a478ad2fe4ec5cb388acc"),
    ("thm3", 30, 5, "float", "f63394c5d679e2a5cf2922533b093bd674e1c881ca3a481d6ec20764219825bd"),
    ("lemma-conv", 30, 5, "float", "166fed46dfa008c0c85c92305d847dc0713b20eecbecc2d054f56db52b1eff05"),
    ("lemma-main", 30, 5, "float", "a2c56556d2ec9230d1dc365b7c99e2fba961392fb77a240819ad8c0b45fc846f"),
    ("corollary", 30, 5, "float", "496d5afe633c67509b6a35c7eb824403465a407f0a65bc6c73df30c323cd8e18"),
    ("signs", 30, 5, "float", "4e4cb3b52b9bf80b7969a65c391a7ba398eb8d45fe11a329bac99c87266d346a"),
    ("generic", 30, 5, "float", "82a8fc74d90fd2a209f5caa8f90d4f47323be130c86a450a91728316d7d3232b"),
]

# (check name, expected, actual, passed) per gallery case
GALLERY = {
    "thm3-closed-fails": [
        ("min 3-sum gauge", "1", "1", True),
        ("total", "(0, 1/2)", "(0, 1/2)", True),
        ("total gauge", "1/2", "1/2", True),
    ],
    "even-n": [
        ("all unit", "True", "True", True),
        ("total norm", "0.05", "0.049999999999999996", True),
        ("total norm < 1", "True", "True", True),
    ],
    "remark1-equality": [
        ("all dots > 0", "True", "True", True),
        ("all unit", "True", "True", True),
        ("total gauge", "1", "1", True),
    ],
    "remark2-3d": [
        ("all unit", "True", "True", True),
        ("all dots > 0", "True", "True", True),
        ("total norm", "0.07", "0.07", True),
    ],
    "remark4-tetrahedron": [
        ("all 3-sum norms", "1", "[1.0, 1.0, 1.0, 1.0]", True),
        ("total norm", "0", "0.0", True),
    ],
}


@pytest.mark.parametrize(
    "suite,trials,seed,mode,ball,digest",
    GOLDEN,
    ids=[f"{s}-{m}-{b}-{seed}" for s, _, seed, m, b, _ in GOLDEN],
)
def test_report_digest(suite, trials, seed, mode, ball, digest):
    assert _report_digest(suite, trials, seed, mode, ball) == digest


def _report_digest(suite, trials, seed, mode, ball) -> str:
    config = SuiteConfig(suite=suite, trials=trials, seed=seed, mode=mode, ball_source=ball)
    report = run_suite(config)
    assert report.passes == trials
    return hashlib.sha256(report.to_json_text().encode()).hexdigest()


def _ball_file_digest(tmp_path, doc, suite, trials, seed, mode) -> str:
    path = tmp_path / "ball.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    config = SuiteConfig(suite=suite, trials=trials, seed=seed, mode=mode, ball_source=str(path))
    report = run_suite(config)
    assert report.passes == trials
    text = json.dumps([ref_record_to_json(r) for r in report.records], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "suite,trials,seed,mode,digest",
    BALL_FILE_GOLDEN,
    ids=[f"{s}-{m}-file-{seed}" for s, _, seed, m, _ in BALL_FILE_GOLDEN],
)
def test_ball_file_digest(tmp_path, suite, trials, seed, mode, digest):
    assert _ball_file_digest(tmp_path, BALL_FILE, suite, trials, seed, mode) == digest


@pytest.mark.parametrize(
    "suite,trials,seed,mode,digest",
    RANDOM_BALL_FILE_GOLDEN,
    ids=[f"{s}-{m}-file-{seed}" for s, _, seed, m, _ in RANDOM_BALL_FILE_GOLDEN],
)
def test_random_ball_file_digest(tmp_path, suite, trials, seed, mode, digest):
    assert _ball_file_digest(tmp_path, RANDOM_BALL_FILE, suite, trials, seed, mode) == digest


@pytest.mark.parametrize("suite", [s for s, _, _, mode, _ in BALL_FILE_GOLDEN if mode == "exact"])
@pytest.mark.parametrize("doc", [BALL_FILE, RANDOM_BALL_FILE], ids=["hexagon", "random-10-gon"])
def test_float_ball_file_runs_draw_the_exact_runs_in_floats(tmp_path, doc, suite):
    # a ball file is read exactly in both modes, so trial i of a float run
    # prints the exact run's ball and carries the floats of its vectors
    path = tmp_path / "ball.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    exact, floats = [
        run_suite(SuiteConfig(suite=suite, trials=30, seed=5, mode=mode, ball_source=str(path)))
        for mode in ("exact", "float")
    ]
    for i in range(30):
        want, got = [draw_instance(r.config, i, r.balls) for r in (exact, floats)]
        assert got.ball.json_text == want.ball.json_text, i
        assert Family(got.vectors).pts == Family(want.vectors).floats(), i


def test_thm1_float_rows_hold_under_a_compensated_sum(tmp_path, monkeypatch):
    # from CPython 3.12 on, builtin `sum` over floats is compensated; the
    # thm1 float records print a float projection sum, so their digests
    # hold on every interpreter only if the library never sums floats with it
    plain = builtins.sum

    def compensated(iterable, start=0):
        items = list(iterable)
        if items and all(type(x) is float for x in items):
            return math.fsum([start, *items])
        return plain(items, start)

    monkeypatch.setattr(builtins, "sum", compensated)
    for suite, trials, seed, mode, ball, digest in GOLDEN:
        if (suite, mode) == ("thm1", "float"):
            assert _report_digest(suite, trials, seed, mode, ball) == digest, (ball, seed)
    for doc, rows in ((BALL_FILE, BALL_FILE_GOLDEN), (RANDOM_BALL_FILE, RANDOM_BALL_FILE_GOLDEN)):
        for suite, trials, seed, mode, digest in rows:
            if (suite, mode) == ("thm1", "float"):
                assert _ball_file_digest(tmp_path, doc, suite, trials, seed, mode) == digest, doc


def test_gallery_results_pinned():
    results = run_gallery()
    got = {
        name: [(c.name, c.expected, c.actual, c.passed) for c in results[name]]
        for name in CASE_NAMES
    }
    assert got == GALLERY
