import functools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _reference import (diameter, fold_escape, image, iterate_lift, ring_scan,
                        single_thresholds, thresholds_from_minimum)
from _reference import local_arc as arc_params
from cwdyn import continua, cwmetric, holonomy, models, periodic
from cwdyn.cwmetric import (
    MetricConstants, calibrate, chain_weight, constants_for, cw_metric,
    cw_metric_family, cw_metric_profile, escape_time, escape_weight,
    window_weight,
)
from cwdyn.models import CalibrationError, local_arc, make_model


@pytest.fixture(scope="module")
def cat():
    return make_model("cat-map")


@pytest.fixture(scope="module")
def pa():
    return make_model("sphere-pA")


@pytest.fixture(scope="module")
def consts(cat):
    return calibrate(cat)


@pytest.fixture(scope="module")
def consts_pa(pa):
    return calibrate(pa)


def _arc(sys, x, y, kind, eps):
    return local_arc(sys, sys.point(x, y), kind, eps)


class TestCalibrate:
    def test_cat_map_constants(self, consts):
        assert consts.m == 1
        assert consts.alpha == 2.0
        assert consts.n0 == 3
        assert consts.k == pytest.approx(2.0, abs=1e-15)
        assert consts.lam == pytest.approx(2.0 ** (1 / 3), abs=1e-15)
        assert consts.xi == pytest.approx(1 / (4 * 2 * consts.lam ** 2), abs=1e-15)
        assert consts.horizon == 120
        assert consts.lam ** (-consts.horizon) < 1e-12

    def test_quotient_needs_two(self, consts_pa):
        # the fold genuinely delays escape for some over-c/2 arcs
        assert consts_pa.m == 2
        assert consts_pa.alpha == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert consts_pa.n0 == 5
        assert consts_pa.horizon == 399

    def test_quotient_delay_witness(self, pa, consts_pa):
        # stable arc whose backward image folds to diameter below c
        start = np.array([0.06681, 0.1237])
        e = pa.eigen_direction(stable=True)
        ln = 0.12625
        t = np.linspace(0, 1, 513)
        verts = start[None, :] + t[:, None] * (ln * e)[None, :]
        cont = continua.MarkedContinuum(
            chart=pa.chart, vertices=models._wrap1(verts), mark_p=0, mark_q=512)
        assert diameter(cont) > consts_pa.c / 2
        assert escape_time(pa, cont, consts_pa) == 2
        lift = continua.StraightLift(start, e, ln, pa.chart, stable=True)
        lifted = continua.MarkedContinuum(pa.chart, lift=lift)
        assert diameter(image(pa, lifted, -1)) < consts_pa.c

    def test_north_south_fails_with_witness(self):
        ns = make_model("north-south")
        with pytest.raises(CalibrationError) as exc:
            calibrate(ns)
        w = exc.value.witness
        assert w["kind"] == "meridian-arc"
        assert w["sup_diam"] <= 0.25
        assert w["diam"] > 0.125

    def test_c_range_validation(self):
        with pytest.raises(ValueError):
            calibrate(make_model("cat-map", c=0.6))

    def test_constants_validation(self):
        good = constants_for(0.25, 1)
        with pytest.raises(ValueError):
            MetricConstants(c=good.c, m=good.m, alpha=good.alpha, n0=good.n0,
                            k=good.k, lam=1.5, xi=good.xi, horizon=good.horizon)


def _calibration_point_sets(sys):
    # calibrate's sample arcs at budget 400 on seeds 0 and 1, each with 513
    # points along it; the seeds share the family's fixed part, which is
    # taken once
    seen = set()
    for seed in (0, 1):
        for lf in cwmetric._eigen_arc_samples(sys, sys.c, 400, np.random.default_rng(seed)):
            key = (lf.start, lf.direction, lf.length)
            if key not in seen:
                seen.add(key)
                yield lf, lf.cover_points(np.linspace(0.0, 1.0, 513))


def _segment_exceeds(chart, start, d, length, thr):
    # the library's array pass on one segment
    return bool(cwmetric._segment_exceeds(chart, np.array([start], dtype=float),
                                          np.array([d], dtype=float), np.array([length]), thr)[0])


def _fold_escape(w0, d, lo, hi, thr):
    # the library's array pass on one window
    return bool(cwmetric._fold_escapes(np.array([w0], dtype=float), np.array([d], dtype=float),
                                       np.array([lo], dtype=float), np.array([hi], dtype=float),
                                       thr)[0])


def _full_max(chart, pts):
    return float(models.chart_distance(chart, pts[:, None, :], pts[None, :, :]).max())


def _assert_sharp(chart, pts, full):
    # the exact max is the sharpest threshold: its pair must be found
    assert not continua._diameter_exceeds(chart, pts, full)
    assert continua._diameter_exceeds(chart, pts, math.nextafter(full, -math.inf))


class TestDiameterExceeds:
    @pytest.mark.parametrize("kind", ["cat-map", "sphere-pA"])
    def test_matches_full_matrix_on_calibration_arcs(self, kind):
        sys = make_model(kind)
        thr = sys.c / 2.0
        n_arcs = n_excluded = 0
        for lf, pts in _calibration_point_sets(sys):
            full = _full_max(sys.chart, pts)
            assert continua._diameter_exceeds(sys.chart, pts, thr) == (full > thr)
            # calibrate's membership test, from the lift alone
            assert _segment_exceeds(sys.chart, lf.start_arr, lf.dir_arr, lf.length,
                                    thr) == (full > thr)
            n_arcs += 1
            if not full > thr:
                # excluded arcs are the ones that pay the whole triangle
                n_excluded += 1
                _assert_sharp(sys.chart, pts, full)
        assert n_arcs > 400
        if kind == "sphere-pA":
            # the fold excludes some arcs from the family, not most
            assert 0 < n_excluded < n_arcs // 4
        else:
            assert n_excluded == 0

    def test_fold_suppressed_arc(self, pa):
        # a stable segment centred on the spine (0, 0) folds onto itself:
        # plane length 0.2, quotient diameter 0.1
        e = pa.eigen_direction(stable=True)
        pts = np.linspace(-0.1, 0.1, 257)[:, None] * e[None, :]
        full = _full_max(pa.chart, pts)
        assert full == pytest.approx(0.1, abs=1e-15)
        assert not continua._diameter_exceeds(pa.chart, pts, 0.125)
        assert continua._diameter_exceeds(pa.chart, pts, 0.09)
        _assert_sharp(pa.chart, pts, full)

    def test_two_points(self):
        pts = np.array([[0.1, 0.1], [0.9, 0.85]])
        # torus distance hypot(0.2, 0.25); the quotient one is 0.05
        for chart, want in ((models.TORUS, math.hypot(0.2, 0.25)),
                            (models.SPHERE_QUOTIENT, 0.05)):
            full = _full_max(chart, pts)
            assert full == pytest.approx(want, abs=1e-15)
            assert continua._diameter_exceeds(chart, pts, 0.9 * want)
            assert not continua._diameter_exceeds(chart, pts, 1.1 * want)
            _assert_sharp(chart, pts, full)


def _dense_fold_max(w0, d, lo, hi, n=20001):
    # distance to the lattice sampled at n points of the window itself
    s = np.linspace(lo, hi, n)
    p = w0[None, :] + s[:, None] * d[None, :]
    r = p - np.round(p)
    return float(np.hypot(r[:, 0], r[:, 1]).max()), (hi - lo) / (n - 1)


class TestFoldEscape:
    @pytest.mark.parametrize("stable", [True, False])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_matches_dense_sampling(self, pa, stable, sign):
        d = sign * pa.eigen_direction(stable=stable)
        rng = np.random.default_rng(11)
        n_windows = 0
        for _ in range(100):
            w0 = rng.uniform(0.0, 1.0, 2)
            lo = float(rng.uniform(0.0, 0.5))
            hi = lo + float(rng.uniform(0.0, 0.3))
            dense, step = _dense_fold_max(w0, d, lo, hi)
            if dense > 0.42:
                continue  # keep thresholds 5% over the sup below 1/2
            n_windows += 1
            # the exact sup, as the least threshold the check rejects
            a, b = 0.0, 0.5
            for _ in range(60):
                mid = 0.5 * (a + b)
                a, b = (mid, b) if _fold_escape(w0, d, lo, hi, mid) else (a, mid)
            assert dense <= b + 1e-15
            assert b <= dense + step / 2.0 + 1e-15
            for f in np.linspace(0.95, 1.05, 21):
                thr = float(f * dense)
                if thr < dense:
                    assert _fold_escape(w0, d, lo, hi, thr)
                elif thr >= dense + step / 2.0:
                    assert not _fold_escape(w0, d, lo, hi, thr)
        assert n_windows >= 25

    def test_no_witness_outside_the_window(self, pa):
        # the distance to the lattice falls from 0.245 at s = lo to 0.005
        # at s = hi and rises past c = 0.25 just below lo; a point outside
        # the window is no escape witness
        es = pa.eigen_direction(stable=True)
        w0 = models._wrap1(-0.495 * es)
        dense, _ = _dense_fold_max(w0, es, 0.25, 0.5)
        assert dense == pytest.approx(0.245, abs=1e-12)
        assert not _fold_escape(w0, es, 0.25, 0.5, 0.25)
        # the window is the fold test of this stable arc of length 0.375,
        # whose quotient diameter is below c
        start = -0.2475 * es
        assert np.array_equal(models._wrap1(2.0 * start), w0)
        pts = start[None, :] + np.linspace(0.0, 0.375, 513)[:, None] * es[None, :]
        assert _full_max(pa.chart, pts) < 0.25
        assert not _segment_exceeds(pa.chart, start, es, 0.375, 0.25)


def _flip(w0, d, lo, hi):
    # the least float threshold the scalar reference calls no escape: a
    # sup that ties it exactly
    a, b = 0, int(np.float64(0.5).view(np.int64))
    while b - a > 1:
        mid = (a + b) // 2
        if fold_escape(w0, d, lo, hi, float(np.int64(mid).view(np.float64))):
            a = mid
        else:
            b = mid
    return float(np.int64(b).view(np.float64))


class TestFoldEscapes:
    """The array fold sup against the scalar reference, window by window."""

    @staticmethod
    def _windows(n=400):
        rng = np.random.default_rng(53)
        frame = models.eigen_frame(make_model("sphere-pA").matrix)
        ang = rng.uniform(0.0, 2.0 * np.pi, n)
        d = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        # eigendirections and axis directions, with a zero component
        special = [frame.eu, frame.es, -frame.eu, [1.0, 0.0], [0.0, -1.0], [-1.0, 0.0]]
        d[: 6 * 20] = np.repeat(np.array(special, dtype=float), 20, axis=0)
        w0 = rng.uniform(0.0, 1.0, (n, 2))
        lo = rng.uniform(0.0, 0.5, n)
        hi = lo + rng.uniform(0.0, 0.3, n)
        hi[::7] = lo[::7]  # lo == hi
        # window ends on a line of Z + 1/2: x = 0.5 at s = lo, and at s = hi
        # along an axis
        w0[3::11, 0], lo[3::11] = 0.5, 0.0
        w0[5::13] = [0.25, 0.3]
        d[5::13], lo[5::13], hi[5::13] = [1.0, 0.0], 0.25, 0.5
        return w0, d, lo, hi

    @pytest.mark.parametrize("thr", [0.05, 0.125, 0.25, 0.4, 0.49])
    def test_matches_the_scalar_reference(self, thr):
        w0, d, lo, hi = self._windows()
        got = cwmetric._fold_escapes(w0, d, lo, hi, thr).tolist()
        assert got == [fold_escape(*row, thr) for row in zip(w0, d, lo, hi)]
        assert 0 < sum(got) < len(got)

    def test_sups_tying_the_threshold(self):
        # at the exact sup no window escapes, one float below it every one does
        w0, d, lo, hi = (x[::9] for x in self._windows())
        ties = 0
        for row in zip(w0, d, lo, hi):
            tie = _flip(*row)
            if tie == 0.5:
                continue  # the sup is 1/2 or more
            ties += 1
            below = math.nextafter(tie, 0.0)
            assert not fold_escape(*row, tie) and fold_escape(*row, below)
            assert [_fold_escape(*row, t) for t in (below, tie, math.nextafter(tie, 1.0))] \
                == [True, False, False]
        assert ties > 20

    def test_ties_compare_as_math_hypot(self):
        # one-point windows whose distance np.hypot rounds off math.hypot's:
        # at a threshold on math.hypot's value, or one float below it, the
        # decision is the scalar one
        rng = np.random.default_rng(61)
        xy = rng.uniform(0.01, 0.34, (4000, 2))
        exact = np.array([math.hypot(*p) for p in xy])
        off = np.flatnonzero(np.hypot(xy[:, 0], xy[:, 1]) != exact)[:40]
        assert len(off) >= 10
        for thr, want in ((exact[off], False), (np.nextafter(exact[off], 0.0), True)):
            for row, t in zip(xy[off], thr.tolist()):
                assert fold_escape(row, (1.0, 0.0), 0.0, 0.0, t) is want
                assert _fold_escape(row, (1.0, 0.0), 0.0, 0.0, t) is want


# an eigen-component: zero, or a signed magnitude from 1e-12 to 100
_component = st.one_of(
    st.just(0.0),
    st.tuples(st.sampled_from([1.0, -1.0]), st.floats(-12.0, 2.0))
    .map(lambda t: t[0] * 10.0 ** t[1]))


def _as_set(thresholds):
    # a scalar length set as the (e_back, e_fwd) row _length_sets gives
    mode, e_back, e_fwd = thresholds
    if mode == "always":
        return (cwmetric._NEVER, -cwmetric._NEVER)
    return (-cwmetric._NEVER if e_back is None else e_back,
            cwmetric._NEVER if e_fwd is None else e_fwd)


def _length_sets(frame, keys, c):
    return list(zip(*(x.tolist() for x in cwmetric._length_sets(frame, keys, c))))


class TestSingleThresholds:
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(kind=st.sampled_from(["cat-map", "sphere-pA"]), au=_component, as_=_component,
           c=st.floats(1e-3, 0.45))
    def test_matches_the_walk_from_the_minimum(self, kind, au, as_, c):
        if au == 0.0 and as_ == 0.0:
            return
        frame = models.eigen_frame(_model(kind)[0].matrix)
        want = single_thresholds(frame, au, as_, c)
        assert want == thresholds_from_minimum(frame, au, as_, c)
        assert _length_sets(frame, [(au, as_)], c) == [_as_set(want)]


def _last_finite(base):
    # the exponent of largest magnitude, of the sign that grows base^e,
    # at which the power is finite
    e = 0
    while True:
        try:
            base ** (e + (1 if base > 1 else -1))
        except OverflowError:
            return e
        e += 1 if base > 1 else -1


class TestLengthSets:
    """The pass over a table's keys against the scalar walk of each key."""

    @staticmethod
    def _keys(frame, c, n=100):
        rng = np.random.default_rng(int(c * 1e4))
        mag = lambda lo, hi: (rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(lo, hi, n)).tolist()
        keys = [(u, 0.0) for u in mag(-12, 2)] + [(0.0, s) for s in mag(-12, 2)]
        keys += list(zip(mag(-12, 2), mag(-12, 2)))
        # near 1e-300, one component or both
        keys += list(zip(mag(-301, -299), mag(-12, 0)))
        keys += list(zip(mag(-12, 0), mag(-301, -299)))
        keys += list(zip(mag(-301, -299), mag(-301, -299)))
        # ln_at overflows at the first exponent of the tail, where the
        # scalar length is infinite although the true one is below c
        u, s_ = (0.9 * c / abs(ev) ** _last_finite(abs(ev)) for ev in (frame.su, frame.ss))
        keys += [(u, 0.0), (0.0, s_), (-u, 0.0), (u, 1e-300), (1e-300, -s_)]
        # a length tying c at the first exponent past its tail, and a point
        return keys + [(c / abs(frame.su) ** 3, 0.0), (0.0, c / abs(frame.ss) ** -3), (0.0, 0.0)]

    @pytest.mark.parametrize("c", [0.25, 0.125, 1e-3, 0.449])
    def test_matches_the_scalar_walks(self, c):
        frame = models.eigen_frame(make_model("sphere-pA").matrix)
        keys = self._keys(frame, c)
        # a key met again takes the set worked out for it
        keys += keys[::25]
        got = _length_sets(frame, keys, c)
        want = [_as_set(single_thresholds(frame, u, s_, c)) if u or s_ else
                (-cwmetric._NEVER, cwmetric._NEVER) for u, s_ in keys]
        assert got == want
        # the overflow keys' tails end where the power overflows
        for ev, e in ((frame.su, got[600][1]), (frame.ss, got[601][0])):
            assert e == _last_finite(abs(ev)) + (1 if e > 0 else -1)
        assert any(e_back > e_fwd for (u, s_), (e_back, e_fwd) in zip(keys, got) if u and s_)

    def test_tail_ends_from_any_start(self):
        # a walk started off the crossing still ends where the scalar walk
        # from the component estimate does
        frame = models.eigen_frame(make_model("cat-map").matrix)
        lu, ls = abs(frame.su), abs(frame.ss)
        for c in (0.25, 1e-3):
            def above(u, s, e):
                try:
                    return math.hypot(u * lu ** e, s * ls ** e) > c
                except OverflowError:
                    return True

            for u, s_ in self._keys(frame, c, n=20)[:-1]:
                mode, e_back, e_fwd = single_thresholds(frame, u, s_, c)
                if mode == "always":
                    continue
                lo, hi = math.inf, -math.inf
                if u and s_:
                    lo = math.floor(math.log(abs(s_) * math.log(1 / ls) / (abs(u) * math.log(lu)))
                                    / math.log(lu / ls))
                    hi = lo + 1
                for off in range(-6, 7):
                    if e_fwd is not None:
                        assert cwmetric._tail_end(above, u, s_, e_fwd + off, hi, 1) == e_fwd
                    if e_back is not None:
                        assert cwmetric._tail_end(above, u, s_, e_back + off, lo, -1) == e_back


class TestEscape:
    def test_unstable_oracle(self, cat, consts):
        # smallest n with ((3+sqrt5)/2)^n * 0.01 > 0.25
        arc = _arc(cat, 0.3, 0.3, "unstable", 0.005)
        assert escape_time(cat, arc, consts) == 4

    def test_stable_oracle(self, cat, consts):
        arc = _arc(cat, 0.3, 0.3, "stable", 0.005)
        assert escape_time(cat, arc, consts) == 4

    def test_singleton_infinite(self, cat, consts):
        pt = continua.MarkedContinuum(chart="torus",
                                      vertices=np.array([[0.2, 0.7]]),
                                      mark_p=0, mark_q=0)
        assert escape_time(cat, pt, consts) == math.inf
        assert escape_weight(cat, pt, consts) == 0.0

    def test_horizon_sentinel(self, cat, consts):
        arc = _arc(cat, 0.3, 0.3, "unstable", 5e-61)
        n = escape_time(cat, arc, consts)
        assert n == consts.horizon  # ">= horizon" marker, not inf
        assert escape_weight(cat, arc, consts) == 0.0

    def test_already_escaped(self, cat, consts):
        arc = _arc(cat, 0.1, 0.6, "unstable", 0.2)
        assert escape_time(cat, arc, consts) == 0
        assert escape_weight(cat, arc, consts) == 1.0

    def test_rho_oracle(self, cat, consts):
        arc = _arc(cat, 0.3, 0.3, "unstable", 0.005)
        assert escape_weight(cat, arc, consts) == pytest.approx(2.0 ** -4, abs=0)


class TestProfileEscape:
    @pytest.mark.parametrize("kind", ["cat-map", "sphere-pA"])
    def test_one_escape_lookup(self, kind, monkeypatch):
        # the profile reads N and rho from one lookup of the full path's
        # row, bit-equal to escape_time and escape_weight: a singleton's
        # are inf and 0.0, a path past the horizon's the horizon and 0.0
        sys, consts = _model(kind)
        conts = [_make_case(kind, 0.3, 0.6, shape, eps, 5, False, (0, 99))[2]
                 for shape in ("unstable", "two-leg") for eps in (1e-3, 5e-61)]
        conts.append(continua.MarkedContinuum(chart=sys.chart, vertices=np.array([[0.3, 0.6]]),
                                              mark_p=0, mark_q=0))
        lookups = []
        escapes = cwmetric._BlockTable.escapes

        def spy(table, shifts, rows=None, exact=True):
            if rows is not None:
                lookups.append(list(rows))
            return escapes(table, shifts, rows, exact)

        monkeypatch.setattr(cwmetric._BlockTable, "escapes", spy)
        for cont in conts:
            want = {"N": escape_time(sys, cont, consts), "rho": escape_weight(sys, cont, consts)}
            lookups.clear()
            prof = cw_metric_profile(sys, cont, consts, depth=3)
            assert lookups == [[0]]
            _assert_same({k: prof[k] for k in want}, want)
        assert repr(want["N"]) == "inf" and repr(want["rho"]) == "0.0"


class TestEvaluatorBytes:
    @pytest.mark.parametrize("depth", [4, 7])
    def test_estimate_bounds_the_peak(self, depth):
        # the estimate's exact pass of 2 * _REACH shifts outlasts these
        # arcs' sups, and a profile's peak stays within a factor 8 below it
        est = cwmetric.evaluator_bytes(depth)
        for kind, shape, eps in (("sphere-pA", "unstable", 1e-12), ("sphere-pA", "stable", 0.05),
                                 ("cat-map", "unstable", 1e-3)):
            sys, consts, cont = _make_case(kind, 0.3, 0.4, shape, eps, 2, False, (0, 99))
            tracemalloc.start()
            try:
                cw_metric_profile(sys, cont, consts, depth=depth)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert est / 8 < peak <= est, (kind, shape, eps)


class TestChainWeight:
    def test_depth_zero_is_rho(self, cat, consts):
        arc = _arc(cat, 0.3, 0.3, "unstable", 0.005)
        assert chain_weight(cat, arc, consts, depth=0) \
            == escape_weight(cat, arc, consts)

    def test_monotone_in_depth(self, cat, consts):
        arc = _arc(cat, 0.123, 0.456, "unstable", 0.02)
        vals = [chain_weight(cat, arc, consts, depth=d) for d in range(5)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_sandwich(self, cat, consts):
        rng = np.random.default_rng(7)
        for _ in range(60):
            kind = "stable" if rng.integers(2) else "unstable"
            arc = _arc(cat, *rng.uniform(0, 1, 2), kind,
                       float(rng.uniform(0.002, 0.1)))
            r = escape_weight(cat, arc, consts)
            p = chain_weight(cat, arc, consts, depth=3)
            assert p <= r + 1e-15
            assert r <= 4 * p + 1e-15

    def test_singleton(self, cat, consts):
        pt = continua.MarkedContinuum(chart="torus",
                                      vertices=np.array([[0.5, 0.25]]),
                                      mark_p=0, mark_q=0)
        assert chain_weight(cat, pt, consts, depth=3) == 0.0


class TestWindowWeight:
    def test_bounds(self, cat, consts):
        rng = np.random.default_rng(11)
        for _ in range(40):
            arc = _arc(cat, *rng.uniform(0, 1, 2), "unstable",
                       float(rng.uniform(0.002, 0.1)))
            dp = window_weight(cat, arc, consts, depth=3)
            p = chain_weight(cat, arc, consts, depth=3)
            assert dp <= 1.0 + 1e-12
            assert dp >= p - 1e-15

    def test_growth_below_threshold(self, cat, consts):
        # max{D'(fC), D'(f^-1 C)} >= lam * D'(C) whenever D' is small enough
        rng = np.random.default_rng(13)
        found = 0
        for _ in range(80):
            kind = "stable" if rng.integers(2) else "unstable"
            arc = _arc(cat, *rng.uniform(0, 1, 2), kind,
                       float(rng.uniform(1e-6, 1e-4)))
            dp = window_weight(cat, arc, consts, depth=3)
            if dp > consts.xi:
                continue
            found += 1
            up = max(window_weight(cat, image(cat, arc, 1), consts, 3),
                     window_weight(cat, image(cat, arc, -1), consts, 3))
            assert up >= consts.lam * dp - 1e-12
        assert found > 10


class TestCwMetric:
    def test_ordering(self, cat, consts):
        arc = _arc(cat, 0.3, 0.3, "unstable", 0.005)
        prof = cw_metric_profile(cat, arc, consts, depth=4)
        assert prof["D"] >= prof["Dprime"] >= prof["P"] > 0
        assert prof["D"] <= 1.0
        assert prof["N"] == 4
        assert prof["tail_bound"] == 0.0 and not prof["truncated"]

    def test_mark_symmetry_exact(self, cat, consts):
        arc = _arc(cat, 0.11, 0.57, "unstable", 0.004)
        rev = arc.with_marks(arc.mark_q, arc.mark_p)
        assert cw_metric(cat, arc, consts, depth=3) \
            == cw_metric(cat, rev, consts, depth=3)

    def test_zero_iff_singleton(self, cat, consts):
        pt = continua.MarkedContinuum(chart="torus",
                                      vertices=np.array([[0.9, 0.9]]),
                                      mark_p=0, mark_q=0)
        assert cw_metric(cat, pt, consts) == 0.0
        arc = _arc(cat, 0.4, 0.8, "stable", 1e-5)
        assert cw_metric(cat, arc, consts) > 0.0

    def test_union_subadditivity(self, cat, consts):
        rng = np.random.default_rng(3)
        for _ in range(25):
            x, y = rng.uniform(0, 1, 2)
            eps = float(rng.uniform(0.005, 0.05))
            full = local_arc(cat, cat.point(x, y), "unstable", eps)
            xv = cat.point(x, y)
            left = continua.subcontinuum(full, full.point(0), xv)
            right = continua.subcontinuum(full, xv, full.point(full.n_vertices - 1))
            du = cw_metric(cat, full.with_marks(0, full.n_vertices - 1), consts, 3)
            assert du <= cw_metric(cat, left, consts, 3) \
                + cw_metric(cat, right, consts, 3) + 1e-12

    def test_self_similarity_below_xi(self, cat, consts):
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(60):
            kind = "stable" if rng.integers(2) else "unstable"
            arc = _arc(cat, *rng.uniform(0, 1, 2), kind,
                       float(10 ** rng.uniform(-8.0, -5.5)))
            d = cw_metric(cat, arc, consts, depth=3)
            if d > consts.xi or d == 0.0:
                continue
            checked += 1
            up = max(cw_metric(cat, image(cat, arc, 1), consts, 3),
                     cw_metric(cat, image(cat, arc, -1), consts, 3))
            assert up == pytest.approx(consts.lam * d, rel=1e-6)
        assert checked > 40

    def test_stable_exact_scaling(self, cat, consts):
        # D(f^k C) = lam^-k D(C) for stable continua below xi
        arc = _arc(cat, 0.27, 0.66, "stable", 2e-6)
        d0 = cw_metric(cat, arc, consts, depth=3)
        assert d0 <= consts.xi
        for k in (1, 2, 5, 8):
            dk = cw_metric(cat, image(cat, arc, k), consts, depth=3)
            assert dk == pytest.approx(consts.lam ** -k * d0, rel=1e-9)

    def test_hyperbolic_decay(self, cat, consts):
        # D(f^n C) <= 4 contraction^n D(C) on stable continua
        rng = np.random.default_rng(17)
        contraction = 1.0 / consts.lam
        for _ in range(15):
            arc = _arc(cat, *rng.uniform(0, 1, 2), "stable",
                       float(rng.uniform(1e-5, 1e-3)))
            d0 = cw_metric(cat, arc, consts, depth=3)
            for n in range(1, 11):
                dn = cw_metric(cat, image(cat, arc, n), consts, depth=3)
                assert dn <= 4 * contraction ** n * d0 + 1e-12

    def test_compatibility_moduli(self, cat, consts):
        # diam -> 0 iff D -> 0 over a sampled family
        rng = np.random.default_rng(23)
        pairs = []
        for _ in range(120):
            kind = "stable" if rng.integers(2) else "unstable"
            eps = 10 ** rng.uniform(-7, -1.2)
            arc = _arc(cat, *rng.uniform(0, 1, 2), kind, float(eps))
            pairs.append((diameter(arc),
                          cw_metric(cat, arc, consts, depth=2)))
        pairs.sort()
        diams = np.array([p[0] for p in pairs])
        ds = np.array([p[1] for p in pairs])
        # small diameter forces small D and conversely (empirically the
        # envelope tracks diam^(log lam / log expansion) ~ diam^0.24)
        assert ds[diams < 1e-6].max() < 0.06
        assert diams[ds < 0.04].max() < 1e-5
        assert ds[diams > 0.05].min() > 0.1

    @settings(max_examples=90, derandomize=True, deadline=None)
    @given(model=st.sampled_from(("cat-map", "sphere-pA")),
           x=st.floats(0.0, 1.0), y=st.floats(0.0, 1.0),
           kind=st.sampled_from(("stable", "unstable")), scale=st.floats(0.0, 1.0))
    def test_family_matches_images(self, cat, pa, consts, consts_pa,
                                   model, x, y, kind, scale):
        # D(f^j C) from C's pieces in closed form is D of the built image
        sys, cts = (cat, consts) if model == "cat-map" else (pa, consts_pa)
        half = 1e-7 * (0.45 * sys.c / 1e-7) ** scale  # 1e-7 to 0.45·c
        arc = local_arc(sys, sys.point(x, y), kind, half)
        shifts = list(range(-3, 4))
        fam = cw_metric_family(sys, arc, cts, shifts=shifts, depth=3)
        for j in shifts:
            assert fam[j] == cw_metric(sys, image(sys, arc, j), cts, depth=3)

    def test_quotient_spine_arc(self, pa, consts_pa):
        arc = local_arc(pa, pa.point(0.5, 0.5), "unstable", 0.01)
        prof = cw_metric_profile(pa, arc, consts_pa, depth=4)
        assert 0 < prof["D"] <= 1.0
        assert prof["P"] <= prof["rho"] <= 4 * prof["P"] + 1e-15

    def test_bitwise_determinism(self, cat, consts):
        arc = _arc(cat, 0.61, 0.44, "unstable", 0.0123)
        a = cw_metric_profile(cat, arc, consts, depth=4)
        b = cw_metric_profile(cat, arc, consts, depth=4)
        assert a == b


def _record_twin(arc):
    # the lift-less form `cwdyn metric --continuum` reads
    return continua.from_record(continua.to_record(arc))


class TestRecordLoadedArcs:
    @pytest.mark.parametrize("kind", ["cat-map", "sphere-pA"])
    def test_straight_record_is_one_piece_with_lifted_profile(self, kind, request):
        sys = make_model(kind)
        consts = request.getfixturevalue("consts" if kind == "cat-map" else "consts_pa")
        frame = models.eigen_frame(sys.matrix)
        rng = np.random.default_rng(41)
        for eps in (1e-7, 1e-5, 1e-3, 1e-2, 0.1):
            for arc_kind in ("stable", "unstable"):
                for _ in range(2):
                    arc = local_arc(sys, sys.point(*rng.uniform(0, 1, 2)), arc_kind, eps)
                    rec = _record_twin(arc)
                    assert len(cwmetric._pieces_of(rec, frame)) == 1
                    assert cw_metric_profile(sys, rec, consts, depth=2) \
                        == cw_metric_profile(sys, arc, consts, depth=2)

    def test_pinned_sphere_pa_twin(self, pa, consts_pa):
        # at n = 5 this arc is 0.41 long in the plane, but the fold keeps
        # its quotient diameter at 0.2477 < c, so N = 6 and D = lam^-6
        arc = local_arc(pa, pa.point(0.22266062595706415, 0.5661483186220022),
                        "unstable", 0.0016705757884060248)
        pts = iterate_lift(pa, arc.lift, 5).cover_points(np.linspace(0.0, 1.0, 2001))
        assert 0.247 < _full_max(pa.chart, pts) < consts_pa.c
        lifted = cw_metric_profile(pa, arc, consts_pa, depth=2)
        assert lifted["N"] == 6
        assert lifted["D"] == pytest.approx(consts_pa.lam ** -6, rel=1e-12)
        assert cw_metric_profile(pa, _record_twin(arc), consts_pa, depth=2) == lifted

    @pytest.mark.parametrize("kind", ["cat-map", "sphere-pA"])
    @pytest.mark.parametrize("leg", [1e-2, 1e-6, 1e-9, 1e-12])
    def test_bent_path_keeps_its_corner(self, kind, leg):
        # a concat path is read from its legs, not re-lifted from its vertices
        sys = make_model(kind)
        path = _two_legs(sys, np.array([0.3141, 0.5926]), leg)
        pieces = cwmetric._pieces_of(path, models.eigen_frame(sys.matrix))
        assert len(pieces) == 2
        stable_leg, unstable_leg = pieces
        assert stable_leg.au == 0.0 and unstable_leg.as_ == 0.0
        assert abs(stable_leg.as_) == leg == abs(unstable_leg.au)
        # the record of the same path is re-lifted: its corner holds to 1e-3
        twin = _polyline_twin(path, np.linspace(0.0, 1.0, 9), (0, 99))
        rec = cwmetric._pieces_of(twin, models.eigen_frame(sys.matrix))
        assert len(rec) == 2
        assert abs(rec[0].au) < 1e-3 * leg and abs(rec[1].as_) < 1e-3 * leg




# -- the scalar pipeline, kept as the reference -----------------------------
#
# One engine per dyadic block, each scanning its escape times shift by
# shift, and a dict DP per shift: the evaluation the block table replaced.


def _ring_scan(horizon, shift, test, j0=0):
    # the first j >= j0 with test(shift + j) or test(shift - j), + first
    for j in range(j0, horizon + 1):
        if test(shift + j):
            return j
        if j and test(shift - j):
            return j
    return math.inf


class _ScalarEngine:
    """Escape times of one path of pieces, one shift at a time."""

    def __init__(self, sys, pieces, c, horizon):
        self.sys, self.pieces, self.c, self.horizon = sys, pieces, c, horizon
        self.frame = models.eigen_frame(sys.matrix)
        self.lengths = [math.hypot(p.au, p.as_) for p in pieces]
        self.total = float(sum(self.lengths))
        self.thresholds = None
        if len(pieces) == 1 and self.total > 0.0:
            self.thresholds = single_thresholds(self.frame, pieces[0].au, pieces[0].as_, c)
        self.decided = {}
        self._n = {}

    def in_length_set(self, e):
        mode, e_back, e_fwd = self.thresholds
        return mode == "always" or (e_back is not None and e <= e_back) \
            or (e_fwd is not None and e >= e_fwd)

    def predicate(self, e):
        if e not in self.decided:
            self.decided[e] = cwmetric._path_exceeds(self.sys, self.frame, self.pieces,
                                                     self.c, e)
        return self.decided[e]

    def escape(self, shift):
        if not self.total > 0.0:
            return math.inf
        if shift not in self._n:
            self._n[shift] = self._escape(shift)
        return self._n[shift]

    def _escape(self, shift):
        if self.thresholds is None:
            return _ring_scan(self.horizon, shift, self.predicate)
        mode, e_back, e_fwd = self.thresholds
        gaps = [g for g in (None if e_fwd is None else e_fwd - shift,
                            None if e_back is None else shift - e_back) if g is not None]
        j0 = max(0, min(gaps)) if mode == "split" else 0
        if self.sys.chart == models.TORUS:
            return j0 if j0 <= self.horizon else math.inf
        return _ring_scan(self.horizon, shift,
                          lambda e: self.in_length_set(e) and self.predicate(e), j0)

    def sub(self, a, b):
        """The engine of the sub-path between params a < b."""

        def locate(t):
            target, acc = t * self.total, 0.0
            for i, ln in enumerate(self.lengths):
                if target <= acc + ln or i == len(self.lengths) - 1:
                    loc = 0.0 if ln == 0 else (target - acc) / ln
                    return i, min(max(loc, 0.0), 1.0)
                acc += ln

        (ia, ta), (ib, tb) = locate(a), locate(b)
        pieces = []
        for i in range(ia, ib + 1):
            p = self.pieces[i]
            t0 = ta if i == ia else 0.0
            t1 = tb if i == ib else 1.0
            if t1 > t0:
                s = p.s + t0 * cwmetric._pvec(self.frame, p, 0)
                pieces.append(cwmetric._Piece(models._wrap1(s), (t1 - t0) * p.au,
                                              (t1 - t0) * p.as_))
        return _ScalarEngine(self.sys, pieces, self.c, self.horizon)


class _ScalarEvaluator:
    """The per-shift dyadic chain DP, window and sup over scalar engines."""

    def __init__(self, sys, cont, consts, depth):
        frame = models.eigen_frame(sys.matrix)
        pieces = [] if cont.is_singleton else cwmetric._pieces_of(cont, frame)
        self.engine = _ScalarEngine(sys, pieces, consts.c, consts.horizon)
        # the mark params are the library's: only the evaluation is replaced
        ev = cwmetric.MetricEvaluator(sys, cont, consts, depth)
        self.tp, self.tq = ev.tp, ev.tq
        self.consts, self.depth = consts, depth
        self.subs, self._chain, self._window = {}, {}, {}

    def rho(self, shift, a=0.0, b=1.0):
        if a == 0.0 and b == 1.0:
            eng = self.engine
        else:
            if (a, b) not in self.subs:
                self.subs[a, b] = self.engine.sub(a, b)
            eng = self.subs[a, b]
        n = eng.escape(shift)
        return 0.0 if n >= self.consts.horizon else self.consts.alpha ** (-n)

    def chain(self, shift):
        if shift not in self._chain:
            self._chain[shift] = self._chain_raw(shift)
        return self._chain[shift]

    def _chain_raw(self, shift):
        if not self.engine.total > 0.0:
            return 0.0
        g = 2 ** self.depth
        full = self.rho(shift)
        if g == 1:
            return full
        eps = 1e-12
        best = {}
        for j in range(1, g + 1):
            if j / g >= self.tp - eps:
                best[j] = self.rho(shift, 0.0, j / g)
        for j in range(2, g + 1):
            for i in range(1, j):
                if i in best:
                    cand = best[i] + self.rho(shift, i / g, j / g)
                    if j not in best or cand < best[j]:
                        best[j] = cand
        ans = full
        for i, bi in best.items():
            if i == g:
                if self.tq >= 1.0 - eps:
                    ans = min(ans, bi)
            elif i / g <= self.tq + eps:
                ans = min(ans, bi + self.rho(shift, i / g, 1.0))
        return ans

    def window(self, shift):
        if shift not in self._window:
            n0, lam = self.consts.n0, self.consts.lam
            self._window[shift] = max(self.chain(shift + i) / lam ** abs(i)
                                      for i in range(-(n0 - 1), n0))
        return self._window[shift]

    def metric_profile(self, base):
        lam = self.consts.lam
        if not self.engine.total > 0.0:
            return {"D": 0.0, "achieved_index": 0, "tail_bound": 0.0, "truncated": False}
        best, arg, truncated = 0.0, 0, True
        tail = lam ** (-self.consts.horizon)
        for j in range(self.consts.horizon + 1):
            for i in ((j,) if j == 0 else (j, -j)):
                term = self.window(base + i) / lam ** j
                if term > best:
                    best, arg = term, i
            if lam ** (-(j + 1)) <= best:
                truncated, tail = False, 0.0
                break
        return {"D": best, "achieved_index": arg, "tail_bound": tail, "truncated": truncated}

    def profile(self):
        prof = self.metric_profile(0)
        n = self.engine.escape(0)
        prof.update({
            "N": (self.consts.horizon if n == math.inf and self.engine.total > 0.0 else n),
            "rho": self.rho(0), "P": self.chain(0), "Dprime": self.window(0),
            "depth": self.depth})
        return prof


@functools.lru_cache(maxsize=None)
def _model(kind):
    sys = make_model(kind)
    return sys, calibrate(sys)


def _two_legs(sys, corner, leg):
    # a lifted stable leg into the corner, then an unstable one out of it
    parts = []
    for stable in (True, False):
        e = sys.eigen_direction(stable=stable)
        lift = continua.StraightLift(start=corner - leg * e if stable else corner, direction=e,
                                     length=leg, chart=sys.chart, stable=stable)
        parts.append(continua.MarkedContinuum(chart=sys.chart, lift=lift))
    return continua.concat(parts)


def _polyline_twin(cont, t, marks):
    # the record of a lifted arc or path, each lift projected at params t
    # (junctions once), marked at marks clipped to its last vertex
    lifts = cont.legs or (cont.lift,)
    v = np.concatenate([lifts[0].project(t)] + [lf.project(t[1:]) for lf in lifts[1:]])
    last = len(v) - 1
    return continua.MarkedContinuum(cont.chart, v, *(min(m, last) for m in marks))


def _make_case(kind, x, y, shape, eps, res, twin, marks):
    # a lifted arc or path is marked at its ends, so a case with other
    # marks, or a twin, is its record: the arc's vertices at resolution
    # res (local_arc's before it built them only when read), or the path's
    # at 5 a leg
    sys, consts = _model(kind)
    if shape == "generic":
        t = np.linspace(-1.0, 1.0, res)[:, None]
        cont = continua.MarkedContinuum(
            chart=sys.chart, vertices=models._wrap1(np.array([x, y]) + t * (eps * np.array([0.6, 0.8]))),
            mark_p=0, mark_q=res - 1)
        return sys, consts, cont.with_marks(*(min(m, res - 1) for m in marks))
    if shape == "two-leg":
        cont = _two_legs(sys, np.array([x, y]), eps)
        t = np.linspace(0.0, 1.0, 5)
    else:
        cont = local_arc(sys, sys.point(x, y), shape, eps)
        t, _ = arc_params(sys, sys.point(x, y), shape, eps, res)
    rec = _polyline_twin(cont, t, marks)
    last = rec.n_vertices - 1
    if twin or sorted((rec.mark_p, rec.mark_q)) != [0, last]:
        return sys, consts, rec
    return sys, consts, cont if rec.mark_p == 0 else cont.with_marks(cont.mark_q, cont.mark_p)


@st.composite
def _metric_cases(draw):
    kind = draw(st.sampled_from(["cat-map", "sphere-pA"]))
    shape = draw(st.sampled_from(["stable", "unstable", "generic", "two-leg"]))
    x = draw(st.floats(0.0, 1.0, exclude_max=True))
    y = draw(st.floats(0.0, 1.0, exclude_max=True))
    # from far below xi up to near c/2
    eps = 10.0 ** draw(st.floats(-10.0, -1.2))
    res = draw(st.integers(2, 9))
    marks = draw(st.sampled_from([(0, 99), (99, 0), (0, 0), (99, 99)])
                 | st.tuples(st.integers(0, 9), st.integers(0, 9)))
    return (kind, x, y, shape, eps, res, draw(st.booleans()), marks), draw(st.integers(0, 4))


def _assert_same(got, want):
    # bit-equal values of the same types; repr tells 4 from 4.0 and 0.0 from -0.0
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


def _decisions(ev):
    # the (block, iterate) pairs the table decided, by block params
    known = ev.table._known
    if known is None:
        return {}
    g = 2 ** ev.depth
    blocks = {int(ev._row[i, j]): (i / g, j / g) for i in range(g + 1)
              for j in range(i + 1, g + 1) if ev._row[i, j]}
    blocks[0] = (0.0, 1.0)
    out = {}
    for row, col in zip(*np.nonzero(known)):
        out.setdefault(blocks[int(row)], set()).add(int(col) + ev.table._e0)
    return out


class TestScalarReference:
    """The block table against the scalar pipeline it replaced."""

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(case=_metric_cases())
    def test_profile_is_bit_equal(self, case):
        args, depth = case
        sys, consts, cont = _make_case(*args)
        want = _ScalarEvaluator(sys, cont, consts, depth)
        _assert_same(cw_metric_profile(sys, cont, consts, depth=depth), want.profile())

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(case=_metric_cases())
    def test_family_is_bit_equal(self, case):
        args, depth = case
        sys, consts, cont = _make_case(*args)
        want = _ScalarEvaluator(sys, cont, consts, depth)
        shifts = range(-12, 13)
        _assert_same(cw_metric_family(sys, cont, consts, shifts, depth=depth),
                     {j: want.metric_profile(j)["D"] for j in shifts})

    @pytest.mark.parametrize("kind", ["cat-map", "sphere-pA"])
    @pytest.mark.parametrize("depth", [0, 1, 2, 3, 4])
    def test_fixed_cases(self, kind, depth):
        rng = np.random.default_rng(depth)
        cases = [(shape, eps, twin, marks)
                 for shape in ("stable", "unstable", "generic", "two-leg")
                 for eps in (3e-9, 2e-4, 0.03)
                 for twin in (False, True)
                 for marks in ((0, 99), (99, 0), (2, 6), (3, 3))]
        for shape, eps, twin, marks in cases:
            sys, consts, cont = _make_case(kind, *rng.uniform(0.0, 1.0, 2), shape, eps, 9,
                                           twin, marks)
            want = _ScalarEvaluator(sys, cont, consts, depth)
            _assert_same(cw_metric_profile(sys, cont, consts, depth=depth), want.profile())

    @pytest.mark.parametrize("kind", ["cat-map", "sphere-pA"])
    def test_singleton(self, kind):
        sys, consts = _model(kind)
        pt = continua.MarkedContinuum(chart=sys.chart, vertices=np.array([[0.3, 0.6]]),
                                      mark_p=0, mark_q=0)
        for depth in (0, 4):
            want = _ScalarEvaluator(sys, pt, consts, depth)
            _assert_same(cw_metric_profile(sys, pt, consts, depth=depth), want.profile())
            _assert_same(cw_metric_family(sys, pt, consts, range(-3, 4), depth=depth),
                         {j: 0.0 for j in range(-3, 4)})

    @pytest.mark.parametrize("shape", ["stable", "unstable", "generic", "two-leg"])
    def test_no_decision_the_scan_would_not_make(self, shape):
        # every (block, iterate) the table decides, the scalar scan decides too
        sys, consts = _model("sphere-pA")
        rng = np.random.default_rng(29)
        for eps in (1e-6, 1e-4, 3e-3, 0.02, 0.06):
            for _ in range(3):
                _, _, cont = _make_case("sphere-pA", *rng.uniform(0.0, 1.0, 2), shape, eps,
                                        9, False, (0, 99))
                ev = cwmetric.MetricEvaluator(sys, cont, consts, 4)
                ev.metrics(range(-3, 4))
                want = _ScalarEvaluator(sys, cont, consts, 4)
                for j in range(-3, 4):
                    want.metric_profile(j)
                for (a, b), es in _decisions(ev).items():
                    eng = want.engine if (a, b) == (0.0, 1.0) else want.subs[a, b]
                    assert es <= set(eng.decided), (a, b)


    @pytest.mark.parametrize("shape", ["stable", "unstable"])
    @pytest.mark.parametrize("depth", [2, 3])
    def test_long_sups_over_spread_bases(self, shape, depth):
        # sphere-pA arcs far below xi: their sups pass indices 32, 64 and
        # 128, where the reach on bounds doubles its width, and the
        # shortest stop past the horizon.  The bases are further apart than
        # 2 n0, unsorted and repeated, so the exact spans leave gaps.
        sys, consts = _model("sphere-pA")
        rng = np.random.default_rng(31 + depth)
        bases = [17, -25, 3, 17, 40, -3, 3]
        stops = []
        for eps in (1e-40, 1e-60, 1e-90, 1e-200):
            _, _, cont = _make_case("sphere-pA", *rng.uniform(0.0, 1.0, 2), shape, eps, 9,
                                    False, (0, 99))
            ev = cwmetric.MetricEvaluator(sys, cont, consts, depth)
            got = ev.metrics(bases)
            want = _ScalarEvaluator(sys, cont, consts, depth)
            profiles = [want.metric_profile(b) for b in bases]
            _assert_same(got, [p["D"] for p in profiles])
            # every (block, iterate) the pass decides, the scalar scan decides too
            for (a, b), es in _decisions(ev).items():
                eng = want.engine if (a, b) == (0.0, 1.0) else want.subs[a, b]
                assert es <= set(eng.decided), (a, b)
            # one base is one row of the same pass
            for b, d, prof in zip(bases, got, profiles):
                one = cwmetric.MetricEvaluator(sys, cont, consts, depth).metric_profile(b)
                _assert_same(one, prof)
                assert one["D"] == d
            stops += [(p["achieved_index"], p["truncated"]) for p in profiles]
        assert max(abs(i) for i, _ in stops) > 128
        assert any(t for _, t in stops) and not all(t for _, t in stops)


class TestDecide:
    def test_straight_quotient_rows_take_one_array_pass(self, pa, consts_pa, monkeypatch):
        # the (row, iterate) pairs of straight quotient rows, at iterates
        # from -20 to 20, take no per-pair path check and one fold sup pass
        frame, c = models.eigen_frame(pa.matrix), consts_pa.c
        rng = np.random.default_rng(59)
        comp = lambda: float(rng.choice([0.0, 1.0, -1.0], p=[0.3, 0.35, 0.35])
                             * 10.0 ** rng.uniform(-4.0, -0.5))
        pieces = [cwmetric._Piece(rng.uniform(0.0, 1.0, 2), comp(), comp()) for _ in range(60)]
        table = cwmetric._BlockTable(pa, frame, c, consts_pa.horizon,
                                     *cwmetric._rows_of([[p] for p in pieces]))
        b, e = np.divmod(np.arange(len(pieces) * 41), 41)
        e -= 20
        paths, folds = [], []
        monkeypatch.setattr(cwmetric, "_path_exceeds", lambda *a: paths.append(a))
        fold = cwmetric._fold_escapes
        monkeypatch.setattr(cwmetric, "_fold_escapes",
                            lambda w0, *a: folds.append(len(w0)) or fold(w0, *a))
        got = table._decide(b, e).tolist()
        assert paths == [] and len(folds) == 1 and folds[0] >= 40
        want = []
        for p, it in zip((pieces[k] for k in b.tolist()), e.tolist()):
            A, B = p.au * frame.su ** it, p.as_ * frame.ss ** it
            ln = math.hypot(A, B)
            start = p.s if it == 0 else \
                models._exact_linear_mod1([models._mat_power(pa.matrix, it)], [p.s])[0]
            escapes = ln > c and fold_escape(models._wrap1(2.0 * np.asarray(start)),
                                             (A * frame.eu + B * frame.es) / ln, c, 2.0 * ln - c, c)
            want.append(2 if escapes else 1)
        assert got == want
        assert want.count(2) and want.count(1)


class TestQuotientRingScan:
    @pytest.mark.parametrize("arc_kind", ["stable", "unstable", "generic"])
    def test_matches_scan_from_zero(self, pa, consts_pa, arc_kind):
        # the table's escapes, resumed per block past j0, against the scan
        # of every exponent from j = 0; a generic direction has both a
        # backward and a forward tail
        rng = np.random.default_rng(43)
        direction = np.array([0.6, 0.8])
        frame = models.eigen_frame(pa.matrix)
        h = consts_pa.horizon
        for eps in (1e-14, 1e-11, 1e-8, 1e-5, 1e-3, 3e-2, 0.1):
            xy = rng.uniform(0, 1, 2)
            if arc_kind == "generic":
                t = np.linspace(-1.0, 1.0, 33)[:, None]
                arc = continua.MarkedContinuum(
                    chart=pa.chart, vertices=models._wrap1(xy + t * (eps * direction)),
                    mark_p=0, mark_q=32)
            else:
                arc = _arc(pa, *xy, arc_kind, eps)
            pieces = cwmetric._pieces_of(arc, frame)
            assert len(pieces) == 1
            table = cwmetric._BlockTable(pa, frame, consts_pa.c, h,
                                         *cwmetric._rows_of([pieces]))
            ref = _ScalarEngine(pa, pieces, consts_pa.c, h)
            got = table.escapes(range(-40, 41))[0].tolist()
            for shift, n in zip(range(-40, 41), got):
                want = _ring_scan(h, shift, lambda e: ref.in_length_set(e) and ref.predicate(e))
                assert (math.inf if n > h else n) == want


_LOCKSTEP_SHIFTS = range(-40, 41)


def _lockstep_tables(group):
    """Block tables for the lockstep scan: the depth-2 tables of sphere-pA
    stable, unstable and generic arcs from 1e-14 to 0.1 ("arcs"), of
    cat-map and sphere-pA two-leg paths, whose full path and corner blocks
    are bent rows ("two-leg"), and tables of sphere-pA eigen-segments
    centred on the fold's fixed points under short horizons: the fold
    holds their diameter to half their length, so scans run on past j0
    and some pass the horizon ("horizon")."""
    rng = np.random.default_rng(67)
    if group == "horizon":
        pa, consts = _model("sphere-pA")
        frame = models.eigen_frame(pa.matrix)
        # eigen components (au, as_); a piece of both stays within (c, 2c]
        # over three iterates about its shortest
        comps = [(0.0, ln) for ln in (1e-3, 0.01, 0.05, 0.1)] + \
            [(ln, 0.0) for ln in (1e-3, 0.01, 0.05, 0.1)] + [(0.18, 0.18)]
        paths = [[cwmetric._Piece(models._wrap1(xy - 0.5 * (u * frame.eu + v * frame.es)), u, v)]
                 for xy in np.array([[0.0, 0.0], [0.5, 0.0], [0.5, 0.5]]) for u, v in comps]
        return [cwmetric._BlockTable(pa, frame, consts.c, h, *cwmetric._rows_of(paths))
                for h in (1, 2, 5, 12)]
    cases = [("sphere-pA", shape, eps) for shape in ("stable", "unstable", "generic")
             for eps in (1e-14, 1e-11, 1e-8, 1e-5, 1e-3, 3e-2, 0.1)] if group == "arcs" else \
        [(kind, "two-leg", eps) for kind in ("cat-map", "sphere-pA")
         for eps in (1e-6, 1e-3, 0.03, 0.1)]
    tables = []
    for kind, shape, eps in cases:
        sys, consts, cont = _make_case(kind, *rng.uniform(0.0, 1.0, 2), shape, eps, 9, False,
                                       (0, 99))
        tables.append(cwmetric.MetricEvaluator(sys, cont, consts, 2).table)
    return tables


def _decided(table):
    # the (row, iterate, decision) triples held in the table's cache
    if table._known is None:
        return set()
    b, col = np.nonzero(table._known)
    return set(zip(b.tolist(), (col + table._e0).tolist(), table._known[b, col].tolist()))


class TestLockstepScan:
    @pytest.mark.parametrize("group", ["arcs", "two-leg", "horizon"])
    def test_matches_per_pair_scan(self, group):
        # the same escape times and the same decisions, no more, as each
        # (row, shift) scanning on its own from j0
        resumed = 0
        for table in _lockstep_tables(group):
            j0 = table.escapes(_LOCKSTEP_SHIFTS, exact=False)
            got = table.escapes(_LOCKSTEP_SHIFTS)
            want, decided = ring_scan(table, _LOCKSTEP_SHIFTS)
            assert got.tolist() == want.tolist()
            assert _decided(table) == decided
            # pairs that scanned past j0: to an escape, or past the horizon
            resumed += int(((got > j0) & ((got <= table.horizon) == (group != "horizon"))).sum())
        assert resumed

    @pytest.mark.parametrize("group", ["arcs", "two-leg", "horizon"])
    def test_path_check_sees_only_bent_rows(self, group, monkeypatch):
        # straight rows are decided in _decide's array pass at every step.
        # One shift a call, a scan past j0 meets iterates no earlier call
        # decided.
        tables = _lockstep_tables(group)
        want = [ring_scan(table, _LOCKSTEP_SHIFTS)[0] for table in tables]
        seen = []
        path_exceeds = cwmetric._path_exceeds
        monkeypatch.setattr(cwmetric, "_path_exceeds", lambda sys, frame, pieces, *a:
                            seen.append((sys.kind, len(pieces)))
                            or path_exceeds(sys, frame, pieces, *a))
        for table, n in zip(tables, want):
            got = [table.escapes([shift])[:, 0] for shift in _LOCKSTEP_SHIFTS]
            assert np.stack(got, axis=1).tolist() == n.tolist()
        assert all(k > 1 for _, k in seen)
        # the two-leg tables of the quotient scan their bent rows; the
        # torus ones are closed, their bent rows decided at construction
        assert bool(seen) == (group == "two-leg")
        assert {kind for kind, _ in seen} <= {"sphere-pA"}
        for table in tables:
            assert table.closed == (table.sys.kind == "cat-map")


def _bent_record(sys, corner, d1, d2):
    # a record polyline with one bend: two generic straight pieces
    v = models._wrap1(np.array([corner, corner + d1, corner + d1 + d2]))
    return continua.MarkedContinuum(chart=sys.chart, vertices=v, mark_p=0, mark_q=2)


def _assert_loose_scan(table):
    # the escape times of the per-pair scan of each bent row over its loose
    # set, and the same decisions for the rows the table leaves undecided
    got = table.escapes(_LOCKSTEP_SHIFTS)
    want, decided = ring_scan(table, _LOCKSTEP_SHIFTS, loose=True)
    assert got.tolist() == want.tolist()
    assert _decided(table) == {d for d in decided if table.undecided[d[0]]}


class TestTwoLegClosure:
    @pytest.mark.parametrize("depth", [0, 1, 2, 3, 4])
    def test_closed_rows_match_the_loose_scan(self, depth):
        # eigen two-leg paths, as a Katok step builds them, and records with
        # one bend, whose legs both have two components, from 1e-9 to c/2
        sys, consts = _model("cat-map")
        rng = np.random.default_rng(71 + depth)
        bent = 0
        for _ in range(6):
            corner = rng.uniform(0.0, 1.0, 2)
            leg = 10.0 ** rng.uniform(-9.0, math.log10(0.5 * consts.c))
            ang = rng.uniform(0.0, 2.0 * math.pi, 2)
            d1, d2 = (leg * rng.uniform(0.2, 1.0) * np.array([math.cos(a), math.sin(a)])
                      for a in ang)
            marks = tuple(rng.integers(0, 5, 2).tolist())
            path = _two_legs(sys, corner, leg)
            for cont in (path, _polyline_twin(path, np.linspace(0.0, 1.0, 5), marks),
                         _bent_record(sys, corner, d1, d2)):
                table = cwmetric.MetricEvaluator(sys, cont, consts, depth).table
                assert table.closed
                bent += int((~table.straight).sum())
                _assert_loose_scan(table)
        assert bent

    def test_near_ties_keep_the_scan(self, cat, consts):
        # a leg of length exactly c at iterate 0, and legs whose sum is
        # within 1e-15 of c at iterates 0 and -2: each stays undecided,
        # scanning over its loose set as before
        c, frame = consts.c, models.eigen_frame(cat.matrix)
        su, ss = frame.su, frame.ss
        start = np.array([0.3, 0.6])
        paths = [[cwmetric._Piece(start, c, 0.0), cwmetric._Piece(start, -0.5 * c, 0.1)]]
        for e in (0, -2):
            for nudge in (-1, 0, 1):
                u = math.nextafter(0.2, math.inf * nudge) if nudge else 0.2
                u, s = u / su ** e, 0.15 / ss ** e
                assert abs(math.hypot(u * su ** e, s * ss ** e) - c) <= 1e-15
                paths.append([cwmetric._Piece(start, 0.0, s), cwmetric._Piece(start, u, 0.0)])
        table = cwmetric._BlockTable(cat, frame, c, consts.horizon, *cwmetric._rows_of(paths))
        assert table.undecided.all()
        _assert_loose_scan(table)

    def test_katok_and_probe_tables_are_closed(self, cat, consts, monkeypatch):
        # a cat-map Katok run and a probe run build only closed tables,
        # two-leg rows among them, and never check a path per iterate
        tables, checks = [], []
        init = cwmetric._BlockTable.__init__

        def spy(table, *a):
            init(table, *a)
            tables.append(table)

        monkeypatch.setattr(cwmetric._BlockTable, "__init__", spy)
        monkeypatch.setattr(cwmetric, "_path_exceeds", lambda *a: checks.append(a))
        plan = periodic.plan_katok(cat, consts, 1e-2, sample_budget=60, seed=1)
        res = periodic.katok_iterate(cat, cat.point(0.2 + 1e-9, 0.4 + 1.3e-9), 2, plan, consts)
        assert res["converged"] and res["steps"]
        katok = len(tables)
        params = holonomy.default_params(cat)
        rep = holonomy.pseudo_isometry_probe(cat, 20, [1e-6], params, consts, seed=3, depth=2)
        assert rep["n_samples"] == 20
        assert katok and len(tables) > katok and not checks
        assert all(table.closed for table in tables)
        assert any(not table.straight.all() for table in tables[:katok])

    def test_refuses_a_skewed_eigenframe(self, consts):
        # the lengths are hypot of eigen components: with eigenvectors 120
        # degrees apart they are not, and the metric refuses the model
        sys = make_model("cat-map", matrix=((2, 1), (3, 2)))
        arc = local_arc(sys, sys.point(0.3, 0.4), "unstable", 0.05)
        with pytest.raises(models.ModelCapabilityError, match=r"\(\(2, 1\), \(3, 2\)\)"):
            cw_metric(sys, arc, consts)
