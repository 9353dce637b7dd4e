import json
import math

import numpy as np
import pytest

from cwdyn import models, continua
from cwdyn.continua import (
    MarkedContinuum, OffContinuumError, concat, diameter, from_record,
    image, intersect, subcontinuum, to_record, unwrap_to,
)
from cwdyn.models import BudgetError, local_arc, make_model

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
    def test_unstable_growth(self, cat):
        arc = local_arc(cat, cat.point(0.3, 0.3), "unstable", 0.005)
        img = image(cat, arc, 4)
        assert diameter(img) == pytest.approx(0.01 * LAM ** 4, rel=1e-12)

    def test_round_trip_params(self, cat):
        arc = local_arc(cat, cat.point(0.62, 0.17), "stable", 0.01)
        back = image(cat, image(cat, arc, 3), -3)
        assert np.array_equal(back.params, arc.params)
        assert back.mark_p == arc.mark_p and back.mark_q == arc.mark_q

    def test_generic_polyline_budget(self, cat):
        arc = local_arc(cat, cat.point(0.3, 0.3), "unstable", 0.005)
        plain = from_record(to_record(arc))  # drops the lift
        assert plain.lift is None
        with pytest.raises(BudgetError):
            image(cat, plain, 15, budget=20000)

    def test_generic_matches_lifted(self, cat):
        arc = local_arc(cat, cat.point(0.41, 0.87), "unstable", 0.004)
        plain = from_record(to_record(arc))
        a = image(cat, arc, 3)
        b = image(cat, plain, 3)
        assert diameter(a) == pytest.approx(diameter(b), rel=1e-9)


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

    def test_singleton_on_arc(self, cat):
        arc = local_arc(cat, cat.point(0.3, 0.3), "unstable", 0.1)
        pt = MarkedContinuum(chart="torus", vertices=np.array([[0.3, 0.3]]),
                             mark_p=0, mark_q=0)
        pts = intersect(arc, pt)
        assert len(pts) == 1


class TestSubcontinuum:
    def test_marks_and_orientation(self, cat):
        arc = local_arc(cat, cat.point(0.3, 0.3), "unstable", 0.1)
        a = arc.point(5)
        b = arc.point(40)
        sub = subcontinuum(arc, a, b)
        assert models.distance(cat, sub.point_p, a) < 1e-12
        assert models.distance(cat, sub.point_q, b) < 1e-12

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
        assert models.distance(cat, path.point_p, left.point_p) < 1e-12
        assert models.distance(cat, path.point_q, right.point_q) < 1e-12

    def test_gap_rejected(self, cat):
        a = local_arc(cat, cat.point(0.1, 0.1), "stable", 0.02)
        b = local_arc(cat, cat.point(0.6, 0.6), "stable", 0.02)
        with pytest.raises(ValueError):
            concat([a, b])


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
    want = models.iterate(cat, arc.point_p, 2)
    assert models.distance(cat, img.point_p, want) < 1e-9
