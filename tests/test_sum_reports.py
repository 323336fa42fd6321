"""T2, T3 and COR reports match their eager references.

`verify_helly` and `corollary_check` read every conclusion off the
family's packing (T2/T3's as the one n-sum) and form the total, its gauge
and the witness sums only when a report is read. `oracles.ref_verify_helly`
and `oracles.ref_corollary_check` form the total and its gauge on every
call, and decide T2/T3's conclusion on that gauge. Both must give the same
flags, notes and JSON, and totals and norms equal in value and in type.

The families come from every kind of ball and are checked on every kind
of ball, so they meet and break each part of the hypothesis: vectors off
the boundary (scaled by 1/2, 9/10 or 11/10), 3-sums inside the ball, and
families made of one vector and opposite pairs, whose total is that
vector. Their float copies, with the one vector nudged by ±1e-10, put the
total's norm within the tolerance of 1.
"""

from hypothesis import event, given, settings
from hypothesis import strategies as st

from oracles import ref_corollary_check, ref_verify_helly, same
from helly_plane.generators import gen_random_ball, gen_unit_vectors
from helly_plane.geometry import Family
from helly_plane.norms import euclidean_ball, make_polygonal_ball, square_ball
from helly_plane.theorems import corollary_check, verify_helly
from helly_plane.vectors import Vec2

HEXAGON = [(2, 0), (1, 2), (-1, 2), (-2, 0), (-1, -2), (1, -2)]
BALLS = [
    square_ball(),
    make_polygonal_ball([Vec2(x, y) for x, y in HEXAGON]),  # integer vertices
    make_polygonal_ball([Vec2(x / 2.5, y / 3.0) for x, y in HEXAGON]),  # float vertices
    gen_random_ball(3),
    gen_random_ball(20240611),
    euclidean_ball(),
]
TENTHS = [10, 10, 5, 9, 11]  # scale factors, in tenths


def _scaled(fam: Family, tenths) -> Family:
    """The family with vector i scaled by tenths[i] / 10."""
    if fam.scale is None:
        return Family.from_lattice([(x * t / 10, y * t / 10) for (x, y), t in zip(fam.pts, tenths)], None)
    return Family.from_lattice([(x * t, y * t) for (x, y), t in zip(fam.pts, tenths)], 10 * fam.scale)


def _pairs(fam: Family) -> Family:
    """Vector 0, then vectors 1, 2, ... each beside its negation: the total is vector 0."""
    pts = fam.pts[:1] + [p for x, y in fam.pts[1 : (len(fam) + 1) // 2] for p in ((x, y), (-x, -y))]
    return Family.from_lattice(pts, fam.scale)


@st.composite
def families(draw) -> Family:
    source = draw(st.sampled_from(BALLS))
    n = draw(st.sampled_from([3, 5, 7, 9]))
    u = draw(st.sampled_from([None, Vec2(0, 1), Vec2(1, -2)]))
    fam = gen_unit_vectors(source, n, draw(st.integers(0, 2**32 - 1)), halfplane=u)
    shape = draw(st.sampled_from(["unit", "scaled", "pairs"]))
    if shape == "scaled":
        fam = _scaled(fam, draw(st.lists(st.sampled_from(TENTHS), min_size=n, max_size=n)))
    elif shape == "pairs":
        fam = _pairs(fam)
    if draw(st.booleans()):  # the float copy
        fam = Family.from_lattice(fam.floats(), None)
        if shape == "pairs":
            nudge = draw(st.sampled_from([1 - 1e-10, 1.0, 1 + 1e-10]))
            (x, y), rest = fam.pts[0], fam.pts[1:]
            fam = Family.from_lattice([(x * nudge, y * nudge)] + rest, None)
    event(f"{shape}, {'float' if fam.scale is None else 'exact'}")
    return fam


def _same_report(report, ref) -> None:
    assert (report.theorem, report.hypothesis_holds, report.conclusion_holds, report.notes) == (
        ref.theorem, ref.hypothesis_holds, ref.conclusion_holds, ref.notes
    )
    assert same(report.total, ref.total) and same(report.total_norm, ref.total_norm)
    assert [w.subset for w in report.witnesses] == [w.subset for w in ref.witnesses]
    assert report.to_json() == ref.to_json()


@settings(max_examples=250, deadline=None)
@given(st.sampled_from(BALLS), families(), st.booleans(), st.sampled_from([5, 7, 9]))
def test_sum_reports_match_the_eager_references(ball, vs, strict, k):
    report = verify_helly(ball, vs, strict)
    _same_report(report, ref_verify_helly(ball, vs, strict))
    event(f"T{3 if strict else 2}: hypothesis {report.hypothesis_holds}")
    if k <= len(vs):
        report = corollary_check(ball, vs, k)
        _same_report(report, ref_corollary_check(ball, vs, k))
        event(f"COR: hypothesis {report.hypothesis_holds}")
