import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from _reference import diameter, image, polyline_intersect
from cwdyn import continua, cwmetric, holonomy, models, periodic, sectors
from cwdyn.continua import (
    MarkedContinuum, OffContinuumError, StraightLift, _arc_pair_hits, _crossings,
    _nearest_on, _project_to_lift, _to_segment, concat, cover_reps, from_record, intersect,
    subcontinuum, to_record, unwrap_to,
)
from cwdyn.models import local_arc, make_model

LAM = (3 + math.sqrt(5)) / 2


@pytest.fixture(scope="module")
def cat():
    return make_model("cat-map")


@pytest.fixture(scope="module")
def pa():
    return make_model("sphere-pA")


def test_diameter_wraparound(cat):
    # polyline crossing the fundamental-domain seam
    c = MarkedContinuum(chart="torus",
                        vertices=np.array([[0.9, 0.5], [0.0, 0.5], [0.1, 0.5]]),
                        mark_p=0, mark_q=2)
    assert diameter(c) == pytest.approx(0.2, abs=1e-15)


def test_unwrap_sign_flip():
    anchor = np.array([0.1, 0.1])
    got = unwrap_to("sphere-quotient", anchor, np.array([0.85, 0.9]))
    assert np.allclose(got, [0.15, 0.1], atol=1e-15)


class TestImage:
    # the image reference that the metric tests compare against
    def test_unstable_growth(self, cat):
        arc = local_arc(cat, cat.point(0.3, 0.3), "unstable", 0.005)
        img = image(cat, arc, 4)
        assert diameter(img) == pytest.approx(0.01 * LAM ** 4, rel=1e-12)

    def test_round_trip_params(self, cat):
        # the image keeps the arc's knot, so its vertices sit at the arc's
        # lift params
        arc = local_arc(cat, cat.point(0.62, 0.17), "stable", 0.01).with_marks(64, 0)
        back = image(cat, image(cat, arc, 3), -3)
        assert back.knot == arc.knot and back.n_vertices == arc.n_vertices == 65
        assert np.allclose(back.vertices, arc.vertices, rtol=0, atol=1e-15)
        assert back.mark_p == arc.mark_p and back.mark_q == arc.mark_q


class TestIntersect:
    def test_transverse_single_point(self, cat):
        x = cat.point(0.3, 0.3)
        cu = local_arc(cat, x, "unstable", 0.2)
        cs = local_arc(cat, x, "stable", 0.2)
        pts = intersect(cu, cs)
        assert len(pts) == 1
        assert models.distance(cat, pts[0], x) < 1e-12

    def test_near_spine_two_points(self, pa):
        # the fold doubles transverse crossings close to a spine
        x = pa.point(0.48, 0.49)
        cu = local_arc(pa, x, "unstable", 0.12)
        cs = local_arc(pa, x, "stable", 0.12)
        pts = intersect(cu, cs)
        assert len(pts) == 2
        d = [models.distance(pa, p, x) for p in pts]
        assert min(d) < 1e-12  # x itself
        assert max(d) > 1e-4   # plus a genuinely distinct crossing

    def test_disjoint_parallel(self, cat):
        a = local_arc(cat, cat.point(0.2, 0.2), "stable", 0.05)
        b = local_arc(cat, cat.point(0.2, 0.5), "stable", 0.05)
        assert intersect(a, b) == []

    def test_geographic_translates_move_only_the_longitude(self):
        # the two segments sit at opposite poles; shifting the colatitude
        # by 1 once made them cross at (0.32, 1.0)
        g = models.SPHERE_GEOGRAPHIC
        u = np.array([1.0, 1.0]) / math.sqrt(2.0)
        a = _straight(g, (0.28, 0.96), u, 0.04 * math.sqrt(2.0))
        b = _straight(g, (0.32, 0.0), u * [-1.0, 1.0], 0.04 * math.sqrt(2.0))
        assert intersect(a, b) == []
        assert intersect(b, a) == []

    def test_tol_is_a_distance_along_each_segment(self, cat):
        # an unstable arc ending 1e-8 short of a stable arc meets it within
        # tol = 1e-6, lifted or loaded from records
        x = cat.point(0.3, 0.3)
        eu = cat.eigen_direction(stable=False)
        cs = local_arc(cat, x, "stable", 0.05)
        cu = local_arc(cat, cat.point(*(x.xy() + (0.05 + 1e-8) * eu)), "unstable", 0.05)
        twins = [from_record(to_record(c)) for c in (cu, cs)]
        for meet, (a, b) in ((intersect, (cu, cs)), (polyline_intersect, twins)):
            assert len(meet(a, b, tol=1e-6)) == 1
            assert len(meet(b, a, tol=1e-6)) == 1
            assert meet(a, b, tol=1e-9) == []

    def test_collinear_overlap_is_symmetric(self, cat):
        x = cat.point(0.3, 0.3)
        long, short = (local_arc(cat, x, "stable", eps) for eps in (0.1, 0.03))
        got = intersect(long, short)
        assert _same_points(got, intersect(short, long))
        ends = [short.point(short.mark_p), short.point(short.mark_q)]
        assert _same_points(got, ends)
        tl, ts = from_record(to_record(long)), from_record(to_record(short))
        got = polyline_intersect(tl, ts)
        assert _same_points(got, polyline_intersect(ts, tl))
        assert all(min(models.distance(cat, e, p) for p in got) < 1e-12 for e in ends)

    def test_crossing_past_an_edge_end_comes_from_the_next_edge(self, cat):
        # the crossing (2.76e-10, 0.99999999955) lies on the stable twin's
        # edge 32 and 5.3e-10 past the end of edge 31, which clamps it onto
        # the vertex (0, 0); the twins must report it as the lifts do
        cs = local_arc(cat, cat.point(0.0, 0.0), "stable", 0.0625)
        cu = local_arc(cat, cat.point(1e-9, 0.0), "unstable", 0.0625)
        twins = [from_record(to_record(c)) for c in (cs, cu)]
        assert _same_points(intersect(cs, cu), polyline_intersect(*twins), tol=1e-11)
        assert _same_points(intersect(cu, cs), polyline_intersect(*twins[::-1]), tol=1e-11)

    def test_exact_crossing_is_kept_near_a_spine(self):
        # the stable arc starts 1e-9 from the spine (0, 0); two cover copies
        # of the unstable arc meet it 8.6e-10 apart, the first just before
        # its start, clamped onto the start, the second 6.9e-9 along it:
        # the one that needed no clamping is kept
        q = models.SPHERE_QUOTIENT
        es, eu = PA.eigen_direction(stable=True), PA.eigen_direction(stable=False)
        cs = _straight(q, (5.403023028982545e-10, 1.000000000841471), es, 0.125)
        cu = _straight(q, (-0.053165674981700196, -0.032858193665974866), eu, 0.125)
        pts = intersect(cs, cu)
        assert len(pts) == 1
        assert _project_to_lift(cs, pts[0].xy())[0][0] > 1e-9

    def test_plain_polylines_are_refused(self, cat):
        arc = local_arc(cat, cat.point(0.3, 0.3), "unstable", 0.1)
        twin = from_record(to_record(arc))
        for call in (lambda: intersect(arc, twin), lambda: intersect(twin, arc),
                     lambda: subcontinuum(twin, twin.point(0), twin.point(3)),
                     lambda: _project_to_lift(twin, twin.vertices[2])):
            with pytest.raises(ValueError, match="no lift"):
                call()


class TestSubcontinuum:
    def test_marks_and_orientation(self, cat):
        arc = local_arc(cat, cat.point(0.3, 0.3), "unstable", 0.1)
        a = arc.point(5)
        b = arc.point(40)
        sub = subcontinuum(arc, a, b)
        assert models.distance(cat, sub.point(sub.mark_p), a) < 1e-12
        assert models.distance(cat, sub.point(sub.mark_q), b) < 1e-12

    def test_long_image_lift(self, cat):
        # a lift 9.4 long: the nearest representative of a vertex lies
        # several lattice steps from the lift's midpoint
        im = image(cat, local_arc(cat, cat.point(0.31, 0.47), "unstable", 0.1), 4)
        assert im.lift.length > 9.0
        sub = subcontinuum(im, im.point(0), im.point(3))
        assert models.distance(cat, sub.point(sub.mark_p), im.point(0)) < 1e-12
        assert models.distance(cat, sub.point(sub.mark_q), im.point(3)) < 1e-12

    def test_off_continuum(self, cat):
        arc = local_arc(cat, cat.point(0.3, 0.3), "unstable", 0.05)
        with pytest.raises(OffContinuumError):
            subcontinuum(arc, cat.point(0.9, 0.1), arc.point(0))

    def test_degenerate(self, cat):
        arc = local_arc(cat, cat.point(0.3, 0.3), "unstable", 0.05)
        a = arc.point(7)
        sub = subcontinuum(arc, a, a)
        assert sub.is_singleton


class TestConcat:
    def test_chain(self, cat):
        x = cat.point(0.2, 0.4)
        s_leg = local_arc(cat, x, "stable", 0.01)
        mid = s_leg.point(s_leg.n_vertices - 1)
        u_leg = local_arc(cat, mid, "unstable", 0.01)
        left = subcontinuum(s_leg, s_leg.point(0), mid)
        right = subcontinuum(u_leg, mid, u_leg.point(u_leg.n_vertices - 1))
        path = concat([left, right])
        assert path.n_vertices == left.n_vertices + right.n_vertices - 1
        assert models.distance(cat, path.point(path.mark_p), left.point(left.mark_p)) < 1e-12
        assert models.distance(cat, path.point(path.mark_q), right.point(right.mark_q)) < 1e-12

    def test_gap_rejected(self, cat):
        a = local_arc(cat, cat.point(0.1, 0.1), "stable", 0.02)
        b = local_arc(cat, cat.point(0.6, 0.6), "stable", 0.02)
        with pytest.raises(OffContinuumError):
            concat([a, b])

    def test_reversed_part_runs_from_its_first_mark(self, cat):
        s_leg = local_arc(cat, cat.point(0.2, 0.4), "stable", 0.01)
        last = s_leg.n_vertices - 1
        back = s_leg.with_marks(last, 0)
        u_leg = local_arc(cat, back.point(0), "unstable", 0.01)
        end = u_leg.point(u_leg.n_vertices - 1)
        path = concat([back, subcontinuum(u_leg, back.point(0), end)])
        assert len(path.legs) == 2
        leg, nxt = path.legs
        assert leg.length == s_leg.lift.length
        assert leg.dir_arr.tolist() == (-s_leg.lift.dir_arr).tolist()
        assert np.allclose(leg.cover_points(1.0)[0], s_leg.lift.start_arr, atol=1e-15)
        assert nxt.length == pytest.approx(u_leg.lift.length / 2, rel=1e-12)
        assert path.n_vertices == 3  # the path's start and its two leg ends
        assert path.point(0) == s_leg.point(last)
        assert models.distance(cat, path.point(path.mark_q), end) < 1e-15
        frame = models.eigen_frame(cat.matrix)
        pieces = cwmetric._pieces_of(path, frame)
        assert pieces[0].au == 0.0 and pieces[1].as_ == 0.0
        # the reversed leg's stable component is the whole arc's, negated
        assert pieces[0].as_ == -cwmetric._pieces_of(s_leg, frame)[0].as_

    def test_mirrored_leg_is_placed_by_the_fold(self, pa):
        # the second part's lift lies in the mirrored sheet, s = -1
        corner = np.array([0.3141, 0.1926])
        es = pa.eigen_direction(stable=True)
        eu = pa.eigen_direction(stable=False)
        first = local_arc(pa, pa.point(*(corner - 0.01 * es)), "stable", 0.01)
        cut = subcontinuum(first, first.point(0), pa.point(*corner))
        mirror = StraightLift(start=2.0 - corner, direction=-eu, length=0.02,
                              chart=pa.chart, stable=False)
        second = MarkedContinuum(chart=pa.chart, lift=mirror)
        path = concat([cut, second])
        leg = path.legs[1]
        assert leg.dir_arr.tolist() == eu.tolist()
        assert np.abs(leg.start_arr - path.legs[0].cover_points(1.0)[0]).max() < 1e-12
        pieces = cwmetric._pieces_of(path, models.eigen_frame(pa.matrix))
        assert pieces[1].as_ == 0.0
        assert abs(pieces[1].au) == 0.02

    def test_record_part_has_no_lift(self, cat):
        arc = local_arc(cat, cat.point(0.2, 0.4), "stable", 0.01)
        with pytest.raises(ValueError, match="no lift"):
            concat([from_record(to_record(arc)), arc])
        with pytest.raises(ValueError, match="no lift"):
            concat([arc, from_record(to_record(arc))])


def test_a_continuum_is_a_record_or_lifted(cat):
    arc = local_arc(cat, cat.point(0.3, 0.4), "stable", 0.05)
    for neither_or_both in ({}, {"vertices": arc.vertices, "lift": arc.lift},
                            {"vertices": arc.vertices, "legs": (arc.lift,)}):
        with pytest.raises(ValueError, match="vertices .a record. or a lift"):
            MarkedContinuum(cat.chart, **neither_or_both)
    one = MarkedContinuum(cat.chart, lift=arc.lift.subsegment(0.3, 0.3))
    assert one.is_singleton and (one.mark_p, one.mark_q) == (0, 0)
    assert one.vertices.tolist() == [arc.lift.project(0.3)[0].tolist()]


def test_lifted_marks_are_its_ends(cat):
    # inner marks are a record's: a lifted arc is marked at its two ends
    arc = local_arc(cat, cat.point(0.3, 0.4), "stable", 0.05)
    last = arc.n_vertices - 1
    assert (arc.with_marks(last, 0).mark_p, arc.mark_p) == (last, 0)
    for marks in ((1, last), (0, 0), (last, last), (0, last + 1)):
        with pytest.raises(ValueError):
            arc.with_marks(*marks)
    assert from_record(to_record(arc)).with_marks(1, last).mark_p == 1


def test_record_edges_stay_under_one_chart_step(cat):
    rec = {"chart": "torus", "vertices": [[0.1, 0.1], [0.6, 0.6]], "mark_p": 0, "mark_q": 1}
    with pytest.raises(ValueError, match=r"exceed one chart step \(max 0.7071 >= 0.5\)"):
        from_record(rec)
    # a lift is exact: one longer than a chart step builds, and its view
    # may step further than a record may
    lift = StraightLift(start=(0.1, 0.1), direction=(0.6, 0.8), length=0.9, chart="torus")
    cut = MarkedContinuum("torus", lift=lift)
    assert cut.n_vertices == 2
    assert models.chart_distance("torus", *cut.vertices) > 0.5


def test_record_round_trip(cat):
    arc = local_arc(cat, cat.point(0.37, 0.81), "unstable", 0.03)
    rec = to_record(arc)
    back = from_record(rec)
    assert back.chart == arc.chart
    assert np.allclose(back.vertices, arc.vertices, atol=0)
    assert back.mark_p == arc.mark_p and back.mark_q == arc.mark_q

    # through JSON text, as `cwdyn metric --continuum` reads it
    loaded = from_record(json.loads(json.dumps(rec)))
    assert np.array_equal(loaded.vertices, arc.vertices)


def test_image_preserves_marked_points(cat):
    # the image of the p-mark is the iterate of the p-mark
    arc = local_arc(cat, cat.point(0.3, 0.7), "stable", 0.02)
    img = image(cat, arc, 2)
    want = models.iterate(cat, arc.point(arc.mark_p), 2)
    assert models.distance(cat, img.point(img.mark_p), want) < 1e-9


def test_probe_katok_and_sectors_build_no_vertex_view(monkeypatch):
    # a lifted continuum builds its vertices only when they are read: the
    # isometry probe, a Katok run and the sector search read none
    built = []
    view = continua._vertex_view
    monkeypatch.setattr(continua, "_vertex_view", lambda cont: built.append(cont) or view(cont))
    for sys in (CAT, PA):
        params = holonomy.default_params(sys, sample_budget=60, seed=1)
        rep = holonomy.pseudo_isometry_probe(sys, 3, [1e-6], params, cwmetric.calibrate(sys),
                                             seed=0, diam_range=(1e-13, 1e-2), depth=2)
        assert rep["n_samples"] == 3
    consts = cwmetric.calibrate(CAT)
    plan = periodic.plan_katok(CAT, consts, 1e-2, sample_budget=60, seed=1)
    res = periodic.katok_iterate(CAT, CAT.point(0.2 + 1e-9, 0.4 + 1.3e-9), 2, plan, consts)
    assert res["converged"] and res["steps"]
    assert len(sectors.find_sectors(PA).sectors) == 4
    assert built == []
    arc = local_arc(CAT, CAT.point(0.3, 0.3), "stable", 0.1)
    assert arc.vertices is arc.vertices and built == [arc]  # built once, on the first read


# -- properties on all three charts --------------------------------------------


CHARTS = (models.TORUS, models.SPHERE_QUOTIENT, models.SPHERE_GEOGRAPHIC)
CAT, PA = make_model("cat-map"), make_model("sphere-pA")


def _gap(chart, p, q) -> float:
    # the geographic arccos distance resolves only ~1e-8; its plane proxy
    # (longitude mod 1, colatitude) is exact
    chart = models.TORUS if chart == models.SPHERE_GEOGRAPHIC else chart
    return models.chart_distance(chart, p, q)


def _same_points(ps, qs, tol=1e-12) -> bool:
    """Equal as point sets, within tol."""
    def covered(a, b):
        return all(min((_gap(p.chart, p.xy(), q.xy()) for q in b),
                       default=math.inf) <= tol for p in a)
    return covered(ps, qs) and covered(qs, ps)


def _straight(chart, start, u, length):
    """A lifted straight arc."""
    return MarkedContinuum(chart, lift=StraightLift(start=start, direction=u, length=length,
                                                    chart=chart))


def _polyline(c, n):
    """The record of a lifted arc with n vertices evenly spaced along it."""
    return MarkedContinuum(c.chart, c.lift.project(np.linspace(0.0, 1.0, n)), 0, n - 1)


@st.composite
def _transverse_pair(draw):
    """Two segments crossing at p next to the longitude seam, the second one
    moved to a random representative (sign and translate) of itself, and a
    vertex count for their records."""
    chart = draw(st.sampled_from(CHARTS))
    p = np.array([draw(st.floats(-0.08, 0.08)), draw(st.floats(0.2, 0.3))])
    ang_a = draw(st.floats(0.0, math.pi))
    angs = (ang_a, ang_a + draw(st.floats(0.3, math.pi - 0.3)))
    sign = draw(st.sampled_from((1.0, -1.0) if chart == models.SPHERE_QUOTIENT else (1.0,)))
    k = np.array([draw(st.integers(-2, 2)),
                  0 if chart == models.SPHERE_GEOGRAPHIC else draw(st.integers(-2, 2))])
    n = draw(st.integers(2, 5))
    conts = []
    for i, ang in enumerate(angs):
        u = np.array([math.cos(ang), math.sin(ang)])
        length = draw(st.floats(0.02, 0.12))
        start = p - draw(st.floats(0.1, 0.9)) * length * u
        s, kk = (1.0, 0.0) if i == 0 else (sign, k)
        conts.append(_straight(chart, s * start + kk, s * u, length))
    return p, conts[0], conts[1], n


def _clear_of_spines(sys, arc, margin=0.01) -> bool:
    """Whether a lifted arc keeps margin from every half-lattice point, where
    a plain polyline cannot tell an edge from its mirror image."""
    if sys.chart != models.SPHERE_QUOTIENT:
        return True
    pts = 2.0 * arc.lift.cover_points(np.linspace(0.0, 1.0, 4001))
    return float(np.min(np.hypot(*(pts - np.round(pts)).T))) / 2.0 >= margin


@st.composite
def _arc_pair(draw):
    """A stable and an unstable local arc through nearby points."""
    sys = draw(st.sampled_from((CAT, PA)))
    x = np.array([draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))])
    y = x + np.array([draw(st.floats(-0.05, 0.05)), draw(st.floats(-0.05, 0.05))])
    cs = local_arc(sys, sys.point(*x), "stable", draw(st.floats(0.005, 0.11)))
    cu = local_arc(sys, sys.point(*y), "unstable", draw(st.floats(0.005, 0.11)))
    return sys, cs, cu


@st.composite
def _arc_pair_near_ends(draw):
    """A stable and an unstable local arc whose lines cross at p: p near a
    spine or anywhere, and up to 1e-10 from the end of one arc, or inside."""
    sys = draw(st.sampled_from((CAT, PA)))
    if sys is PA and draw(st.booleans()):
        w = np.array(draw(st.sampled_from(((0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5)))))
        r, ang = 10.0 ** draw(st.floats(-10.0, -1.0)), draw(st.floats(0.0, 2.0 * math.pi))
        p = w + r * np.array([math.cos(ang), math.sin(ang)])
    else:
        p = np.array([draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))])
    eps = [draw(st.floats(0.005, 0.11)) for _ in range(2)]
    at = [draw(st.floats(-1.0, 1.0)) * e for e in eps]
    end = draw(st.sampled_from((None, 0, 1)))
    if end is not None:
        at[end] = draw(st.sampled_from((-1.0, 1.0))) * (eps[end] + draw(st.floats(-1e-10, 1e-10)))
    x = p - at[0] * sys.eigen_direction(stable=True)
    y = p - at[1] * sys.eigen_direction(stable=False)
    return (local_arc(sys, sys.point(*x), "stable", eps[0]),
            local_arc(sys, sys.point(*y), "unstable", eps[1]))


class TestCoverProperties:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(case=_arc_pair_near_ends())
    def test_lifted_arcs_cross_as_the_polyline_reference(self, case):
        # the one pair of cover segments gives the edge-pair pass's points,
        # bit for bit and in its order
        for a, b in (case, case[::-1]):
            got = np.array([p.coords for p in intersect(a, b)])
            want = np.array([p.coords for p in polyline_intersect(a, b)])
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(case=_transverse_pair())
    def test_transverse_segments_cross_at_their_point(self, case):
        p, a, b, _ = case
        want = models.wrap_chart(a.chart, p)
        for got in (intersect(a, b), intersect(b, a)):
            assert len(got) == 1
            assert _gap(a.chart, got[0].xy(), want) < 1e-12

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(case=_arc_pair())
    def test_intersect_is_symmetric(self, case):
        _, cs, cu = case
        assert _same_points(intersect(cs, cu), intersect(cu, cs))

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(case=_arc_pair())
    def test_lifted_and_record_twins_agree(self, case):
        sys, cs, cu = case
        assume(_clear_of_spines(sys, cs) and _clear_of_spines(sys, cu))
        twins = [from_record(to_record(c)) for c in (cs, cu)]
        assert _same_points(intersect(cs, cu), polyline_intersect(*twins), tol=1e-11)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(case=_transverse_pair())
    def test_twins_agree_on_every_chart(self, case):
        _, a, b, n = case
        twins = [_polyline(c, n) for c in (a, b)]
        assert _same_points(intersect(a, b), polyline_intersect(*twins))

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(chart=st.sampled_from(CHARTS), n_img=st.integers(0, 5), data=st.data())
    def test_subcontinuum_marks_its_ends_on_the_continuum(self, chart, n_img, data):
        draw = data.draw
        if chart == models.SPHERE_GEOGRAPHIC:
            ang = draw(st.floats(0.0, 2.0 * math.pi))
            u = np.array([math.cos(ang), math.sin(ang)])
            start = np.array([draw(st.floats(-0.2, 0.2)), 0.5]) - 0.15 * u
            c = _straight(chart, start, u, 0.3)
            pts = c.lift.project(np.linspace(0.0, 1.0, 7))
        else:
            sys = CAT if chart == models.TORUS else PA
            x = sys.point(draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0)))
            kind = draw(st.sampled_from(("stable", "unstable")))
            c = image(sys, local_arc(sys, x, kind, draw(st.floats(0.005, 0.11))),
                      n_img if kind == "unstable" else -n_img)
            pts = c.vertices
        i = draw(st.integers(0, len(pts) - 1))
        j = draw(st.integers(0, len(pts) - 1))
        a, b = (models.Point(chart, (float(pts[k, 0]), float(pts[k, 1]))) for k in (i, j))
        sub = subcontinuum(c, a, b)
        assert _gap(chart, sub.point(sub.mark_p).xy(), a.xy()) < 1e-9
        assert _gap(chart, sub.point(sub.mark_q).xy(), b.xy()) < 1e-9
        assert max(_project_to_lift(c, sub.vertices)[1]) < 1e-9


# -- the paired crossing pass ---------------------------------------------------


@st.composite
def _segment_rows(draw):
    """n segments A and n segments B in the plane, B's row i next to A's
    row i; some B rows run along their A row, so parallel pairs occur."""
    chart = draw(st.sampled_from(CHARTS))
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.uniform(-0.5, 1.5, (n, 2))
    ang = rng.uniform(0.0, 2.0 * math.pi, (2, n))
    length = rng.uniform(0.01, 0.3, (2, n))
    along = rng.random(n) < 0.3
    ang[1, along] = ang[0, along]
    u = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    b = np.where(along[:, None], a + 0.5 * length[0, :, None] * u[0],
                 a + rng.uniform(-0.1, 0.1, (n, 2)))
    segs = [(s, length[i, :, None] * u[i], length[i]) for i, s in enumerate((a, b))]
    return chart, n, segs


class TestPairedCrossings:
    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(case=_segment_rows())
    def test_paired_solve_is_the_product_diagonal(self, case):
        chart, n, (sa, sb) = case
        rows = np.arange(n)
        pts, pair, exact = _crossings(chart, sa, sb, rows, rows, 1e-9)
        ia, ib = np.divmod(np.arange(n * n), n)
        all_pts, all_pair, all_exact = _crossings(chart, sa, sb, ia, ib, 1e-9)
        diag = ia[all_pair] == ib[all_pair]
        assert pts.tobytes() == all_pts[diag].tobytes()
        assert pair.tolist() == ia[all_pair[diag]].tolist()
        assert exact.tolist() == all_exact[diag].tolist()

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(sys=st.sampled_from((CAT, PA)), x=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
           off=st.tuples(st.floats(-0.2, 0.2), st.floats(-0.2, 0.2)),
           eps=st.floats(0.005, 0.2))
    def test_arc_pair_hits_count_what_intersect_returns(self, sys, x, off, eps):
        px, py = sys.point(*x), sys.point(x[0] + off[0], x[1] + off[1])
        hits = int(_arc_pair_hits(sys, px.xy()[None], py.xy()[None], eps)[0])
        got = len(intersect(local_arc(sys, px, "stable", eps),
                            local_arc(sys, py, "unstable", eps)))
        # the count is raw: only two or more hits can be fewer points
        assert hits == got if hits < 2 else got <= hits


# -- one row and many ---------------------------------------------------------


@st.composite
def _box_rows(draw):
    """Two to six rows of a chart point set [qlo, qhi] (some a single point)
    and a plane box up to 3.5 wide, some with an integer corner; most boxes
    straddle integers."""
    chart = draw(st.sampled_from(CHARTS))
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    qlo = rng.uniform(0.0, 1.0, (n, 2))
    qhi = qlo + rng.uniform(0.0, 0.3, (n, 2)) * (rng.random((n, 1)) < 0.7)
    lo = rng.uniform(-2.0, 2.0, (n, 2))
    lo = np.where(rng.random((n, 1)) < 0.3, np.round(lo), lo)
    return chart, qlo, qhi, lo, lo + rng.uniform(0.0, 3.5, (n, 2))


class TestManyRows:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(case=_box_rows())
    def test_one_row_cover_reps_is_that_row_of_many(self, case):
        chart, qlo, qhi, lo, hi = case
        row, s, k = cover_reps(chart, qlo, qhi, lo, hi)
        for i in range(len(lo)):
            row1, s1, k1 = cover_reps(chart, qlo[i], qhi[i], lo[i], hi[i])
            assert row1.dtype == row.dtype and not row1.any()
            assert s1.tobytes() == s[row == i].tobytes()
            assert k1.tobytes() == k[row == i].tobytes()

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(case=_segment_rows(), data=st.data())
    def test_many_row_projection_is_each_row_alone(self, case, data):
        # some rows are a point half a step from a zero-length segment, so
        # two representatives tie: each row keeps the first, as argmin did
        chart, n, (segs, _) = case
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        a, d = (v.copy() for v in segs[:2])
        xy = models.wrap_chart(chart, rng.uniform(-1.0, 2.0, (n, 2)))
        tie = rng.random(n) < 0.3
        a[tie], d[tie] = np.array([0.25, 0.5]), 0.0
        xy[tie] = [0.75, 0.5]
        t, r, dist = _nearest_on(chart, (a, d), xy)
        for i in range(n):
            ti, ri, di = _nearest_on(chart, (a[i:i + 1], d[i:i + 1]), xy[i])
            assert (ti.tobytes(), ri.tobytes(), di.tobytes()) \
                == (t[i:i + 1].tobytes(), r[i:i + 1].tobytes(), dist[i:i + 1].tobytes())
            _, s, k = cover_reps(chart, xy[i], xy[i], np.minimum(a[i], a[i] + d[i]) - 0.75,
                                 np.maximum(a[i], a[i] + d[i]) + 0.75)
            reps = s[:, None] * xy[i] + k
            tt, dd = _to_segment(reps, a[i], d[i])
            j = int(np.argmin(dd))
            assert (tt[j], dd[j]) == (t[i], dist[i]) and reps[j].tobytes() == r[i].tobytes()
