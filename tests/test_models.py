import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _reference
from _reference import diameter, image
from cwdyn import models
from cwdyn.models import (
    CalibrationError, ChartError, ModelCapabilityError,
    chart_distance, iterate, local_arc, make_model,
)


@pytest.fixture(scope="module")
def cat():
    return make_model("cat-map")


@pytest.fixture(scope="module")
def pa():
    return make_model("sphere-pA")


@pytest.fixture(scope="module")
def ns():
    return make_model("north-south")


class TestIterate:
    def test_origin_fixed(self, cat):
        p = cat.point(0.0, 0.0)
        q = iterate(cat, p, 5)
        assert q.coords == (0.0, 0.0)

    def test_one_step(self, cat):
        q = iterate(cat, cat.point(0.1, 0.2), 1)
        assert q.coords[0] == pytest.approx(0.4, abs=1e-15)
        assert q.coords[1] == pytest.approx(0.3, abs=1e-15)

    def test_round_trip_exact(self, cat):
        # dyadic channel keeps forward/backward orbits bit-exact
        p = cat.point(0.3728219, 0.881251)
        for n in (1, 7, 37, 160):
            q = iterate(cat, iterate(cat, p, n), -n)
            assert q.coords == p.coords

    def test_rational_period(self, cat):
        p = cat.rational_point(1, 2, 5)
        orbit = p
        for _ in range(2):  # (1/5, 2/5) has period dividing small k
            orbit = iterate(cat, orbit, 1)
        # period of the /5 lattice under the cat map
        seen = {p.exact}
        q = iterate(cat, p, 1)
        k = 1
        while q.exact != p.exact:
            q = iterate(cat, q, 1)
            k += 1
        assert k > 0 and iterate(cat, p, k).exact == p.exact

    def test_76_lattice_period_nine(self, cat):
        # det(A^9 - I) = -76^2, so every /76 point is 9-periodic
        p = cat.rational_point(13, 31, 76)
        assert iterate(cat, p, 9).exact == p.exact
        assert iterate(cat, p, 3).exact != p.exact

    def test_north_south_colat(self, ns):
        p = ns.point(0.25, 0.3)
        q = iterate(ns, p, 3)
        t = 0.3
        want = 8 * t / (1 + 7 * t)
        assert q.coords[1] == pytest.approx(want, abs=1e-12)
        assert q.coords[0] == pytest.approx(0.25, abs=1e-15)

    def test_north_south_poles_fixed(self, ns):
        for colat in (0.0, 1.0):
            p = ns.point(0.1, colat)
            assert iterate(ns, p, 4).coords[1] == colat

    def test_north_south_colatitude_agrees_bit_for_bit(self, ns):
        # calibration's meridian scan reads the colatitude map over all n at
        # once and unclipped; iterate and iterate_arr clip it.  At the poles
        # and out to the horizon the three give the same bits
        colat = np.concatenate([[0.0, 1.0, 0.5, 1e-300, 1.0 - 2.0 ** -53],
                                np.random.default_rng(0).random(16)])
        steps = np.arange(-ns.horizon, ns.horizon + 1)
        raw = np.array([models._north_south_colat(float(t), steps) for t in colat])
        assert (raw[0] == 0.0).all() and (raw[1] == 1.0).all()  # the poles are fixed
        scan = np.clip(raw, 0.0, 1.0)
        one = np.array([[iterate(ns, ns.point(0.25, float(t)), int(n)).coords[1]
                         for n in steps] for t in colat])
        pts = np.stack([np.full_like(colat, 0.25), colat], axis=1)
        arr = np.stack([models.iterate_arr(ns, pts, int(n))[:, 1] for n in steps], axis=1)
        assert one.tobytes() == scan.tobytes()
        assert arr.tobytes() == one.tobytes()


class TestDistance:
    def test_torus_wraparound(self, cat):
        d = chart_distance("torus", (0.05, 0.5), (0.85, 0.5))
        assert d == pytest.approx(0.2, abs=1e-15)

    def test_quotient_identification(self, pa):
        d = models.distance(pa, pa.point(0.1, 0.1), pa.point(0.9, 0.9))
        assert d == pytest.approx(0.0, abs=1e-15)

    def test_geographic_poles(self):
        # all longitudes coincide at a pole
        assert chart_distance("sphere-geographic", (0.1, 0.0), (0.7, 0.0)) \
            == pytest.approx(0.0, abs=1e-7)
        assert chart_distance("sphere-geographic", (0.0, 0.0), (0.3, 1.0)) \
            == pytest.approx(1.0, abs=1e-12)

    def test_geographic_equator_antipodes(self):
        d = chart_distance("sphere-geographic", (0.0, 0.5), (0.5, 0.5))
        assert d == pytest.approx(1.0, abs=1e-12)


# raw coordinates: anywhere in a few fundamental domains, or within 1e-9
# of a half-lattice line, where the quotient fold and the mod-1 wrap bite
_COORD = st.one_of(
    st.floats(-4.0, 4.0),
    st.builds(lambda h, d: h + d, st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
              st.floats(-1e-9, 1e-9)))


class TestWrapChart:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(x=_COORD, y=_COORD)
    def test_idempotent_in_domain_and_point(self, cat, pa, ns, x, y):
        for sys in (cat, pa, ns):
            w = models.wrap_chart(sys.chart, [x, y])
            assert 0.0 <= w[0] < 1.0
            assert 0.0 <= w[1] <= 1.0 if sys is ns else 0.0 <= w[1] < 1.0
            assert models.wrap_chart(sys.chart, w).tobytes() == w.tobytes()
            assert sys.point(x, y).coords == tuple(w)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(x=_COORD, y=_COORD)
    def test_quotient_identifies_v_with_minus_v(self, x, y):
        v = np.array([x, y])
        chart = models.SPHERE_QUOTIENT
        assert models.wrap_chart(chart, v).tobytes() == models.wrap_chart(chart, -v).tobytes()

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(data=st.data(), k=st.integers(0, 20))
    def test_dyadic_points_match_exact_rationals(self, cat, pa, data, k):
        den = 2 ** k
        nx, ny = (data.draw(st.integers(-2 * den, 2 * den)) for _ in range(2))
        for sys in (cat, pa):
            assert sys.point(nx / den, ny / den).coords == sys.rational_point(nx, ny, den).coords

    def test_quotient_point_keeps_precision_at_the_origin_spine(self, pa):
        # mirroring an already-wrapped 1 - 3e-12 would give 3.000044657e-12
        p = pa.point(-3e-12, 0.1)
        assert p.coords[0] == 3e-12
        out = models.iterate_arr(pa, np.array([[-3e-12, 0.1]]), 0)[0]
        assert out.tobytes() == np.array(p.coords).tobytes()


class TestEigen:
    def test_eigen_directions(self, cat):
        a = np.array(cat.matrix, dtype=float)
        lam = (3 + math.sqrt(5)) / 2
        for stable, rate in ((False, lam), (True, 1 / lam)):
            e = cat.eigen_direction(stable=stable)
            assert np.allclose(a @ e, rate * e, atol=1e-12)
            assert e[0] > 0  # orientation convention
        assert cat.expansion_rate == pytest.approx(lam)

    def test_cached_direction_cannot_be_poisoned(self, cat):
        a = np.array(cat.matrix, dtype=float)
        lam = (3 + math.sqrt(5)) / 2
        e = cat.eigen_direction(stable=False)
        e[:] = [1.0, 0.0]
        again = cat.eigen_direction(stable=False)
        assert np.allclose(a @ again, lam * again, atol=1e-12)
        assert np.linalg.norm(again) == pytest.approx(1.0, abs=1e-15)
        assert again[0] > 0

    def test_frame_inverts_its_basis_and_is_read_only(self, cat):
        frame = models.eigen_frame(cat.matrix)
        basis = np.stack([frame.es, frame.eu], axis=1)
        assert np.allclose(frame.inv @ basis, np.eye(2), atol=1e-15)
        lam = (3 + math.sqrt(5)) / 2
        assert frame.su == pytest.approx(lam, rel=1e-15)
        assert frame.ss == pytest.approx(1 / lam, rel=1e-15)
        for arr in (frame.es, frame.eu, frame.inv):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_matrix_validation(self):
        with pytest.raises(ValueError):
            make_model("cat-map", matrix=((0, -1), (1, 0)))  # not hyperbolic
        with pytest.raises(ValueError):
            make_model("cat-map", matrix=((2, 0), (0, 2)))  # |det| != 1


class TestLocalArc:
    def test_two_sided_arc(self, cat):
        x = cat.point(0.3, 0.3)
        arc = local_arc(cat, x, "stable", 0.2)
        assert arc.lift is not None
        assert arc.lift.length == pytest.approx(0.4, abs=1e-15)
        # x is a vertex
        v = arc.vertices
        assert np.min(np.hypot(v[:, 0] - 0.3, v[:, 1] - 0.3)) < 1e-12

    def test_maximality(self, cat):
        # every forward image of the stable arc stays within eps of the
        # orbit of x; one more contraction step of slack would break it
        eps = 0.1
        arc = local_arc(cat, cat.point(0.21, 0.68), "stable", eps)
        for n in range(0, 6):
            assert diameter(image(cat, arc, n)) <= 2 * eps + 1e-12

    def test_one_prong_at_spine(self, pa):
        sp = pa.point(0.5, 0.5)
        arc = local_arc(pa, sp, "stable", 0.2)
        assert arc.lift.length == pytest.approx(0.2, abs=1e-15)
        # the marked point sits at an endpoint
        assert models.is_spine(pa, sp, 0.1)
        assert not models.is_spine(pa, pa.point(0.3, 0.3), 0.1)

    def test_spine_points(self, pa):
        pts = models.spine_points(pa)
        assert len(pts) == 4
        for p in pts:
            assert models.is_spine(pa, p, 0.05)

    def test_eps_validation(self, cat):
        with pytest.raises(CalibrationError):
            local_arc(cat, cat.point(0.1, 0.1), "stable", 0.3)  # eps >= c

    def test_kind_validation(self, cat):
        with pytest.raises(ValueError):
            local_arc(cat, cat.point(0.1, 0.1), "sideways", 0.1)

    def test_north_south_unsupported(self, ns):
        with pytest.raises(ModelCapabilityError):
            local_arc(ns, ns.point(0.1, 0.3), "stable", 0.1)

    def test_chart_mismatch(self, cat, pa):
        with pytest.raises(ChartError):
            local_arc(cat, pa.point(0.1, 0.1), "stable", 0.1)

    @pytest.mark.parametrize("kind", ["cat-map", "sphere-pA"])
    @pytest.mark.parametrize("res", [2, 3, 5, 9, 64])
    def test_matches_the_vertex_bookkeeping(self, kind, res):
        # random points, the half-lattice points (spines on sphere-pA) and
        # points 1e-10 to 1e-9 from them, where the fold test switches; the
        # arc's lift is the one built at every former resolution, and its
        # vertices are those of resolution 64
        sys = make_model(kind)
        rng = np.random.default_rng(res)
        half = np.array([[0.0, 0.0], [0.0, 0.5], [0.5, 0.0], [0.5, 0.5]])
        th = rng.uniform(0.0, 2.0 * np.pi, size=(3, 4))
        near = [half + r * np.stack([np.cos(a), np.sin(a)], axis=1)
                for r, a in zip((1e-10, 5e-10, 1e-9), th)]
        raw = np.concatenate([rng.uniform(0.0, 1.0, size=(30, 2)), half, *near])
        pts = [sys.point(*xy) for xy in raw]
        for x in pts:
            for arc_kind, eps in (("stable", 0.1), ("unstable", 0.2), ("stable", 1e-3)):
                got = local_arc(sys, x, arc_kind, eps)
                t, lift = _reference.local_arc(sys, x, arc_kind, eps, res)
                assert got.lift == lift
                if res == 64:
                    assert got.n_vertices == len(t)  # before the view is built
                    assert got.vertices.tobytes() == lift.project(t).tobytes()
                    assert (got.mark_p, got.mark_q) == (0, len(t) - 1)
        xy = np.array([x.coords for x in pts])
        for eps in (0.05, 0.1, 1e-3):
            assert models.is_spine(sys, xy, eps).tolist() == \
                _reference.is_spine(sys, xy, eps).tolist()


def test_orbit_residual_from_float_seed(cat):
    # float coordinates round-trip through the exact channel with
    # residual at machine scale
    p = cat.point(1 / 3, math.pi % 1)
    q = iterate(cat, iterate(cat, p, 25), -25)
    assert models.distance(cat, p, q) < 1e-12
