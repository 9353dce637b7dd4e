import tracemalloc

import numpy as np
import pytest

import _reference
from _reference import diameter, find_sectors as find_sectors_by_seed, image
from cwdyn import models, sectors
from cwdyn.continua import MarkedContinuum, _dedupe_points, cover_reps, intersect
from cwdyn.models import ModelCapabilityError, chart_distance, make_model
from cwdyn.sectors import (
    IndeterminateCrossing, SectorRecord, classify_sector,
    enclosing_sector, enumerate_spines, find_sectors, sector_parametrization,
    to_record,
)


@pytest.fixture(scope="module")
def pa():
    return make_model("sphere-pA")


@pytest.fixture(scope="module")
def cat():
    return make_model("cat-map")


@pytest.fixture(scope="module")
def search(pa):
    out = find_sectors(pa)
    for s in out.sectors:
        classify_sector(pa, s)
    return out


# a hand-built sector on straight cover arcs: the stable one horizontal
# from (0.10, 0.2) to (s_end, 0.2), the unstable one vertical from
# (0.15, 0.10) to (0.15, 0.35).  They cross at the corner a1 = (0.15, 0.2);
# the second corner lies at x = 0.30 on the stable arc and at y = 0.28 on
# the unstable one, which mirror each other about the centre (0.225, 0.24)
# as a spine sector's do, so the regular disc is the rectangle _DISC.  The
# disc a record carries decides where each arc's tail past a corner lands.
_DISC = [[0.15, 0.2], [0.30, 0.2], [0.30, 0.28], [0.15, 0.28]]
# a disc that turns back under the stable arc at the second corner, so the
# stable tail runs into it there
_TURNED_DISC = _DISC[:2] + [[0.30, 0.15], [0.36, 0.15], [0.36, 0.28], _DISC[3]]


def _fixture(disc=_DISC, s_end=0.35):
    def arc(verts):
        return MarkedContinuum(chart=models.TORUS, vertices=verts, mark_p=0, mark_q=1)

    return SectorRecord(
        boundary_s=arc([_DISC[0], _DISC[1]]), boundary_u=arc([_DISC[0], _DISC[3]]),
        a1=models.Point(models.TORUS, (0.15, 0.2)), a2=models.Point(models.TORUS, (0.30, 0.2)),
        spine=models.Point(models.TORUS, (0.225, 0.24)),
        cover_s=np.array([[0.10, 0.2], [s_end, 0.2]]),
        cover_u=np.array([[0.15, 0.10], [0.15, 0.35]]),
        s_cross=(0.05 / (s_end - 0.10), 0.20 / (s_end - 0.10)), u_cross=(0.4, 0.72),
        polygon=np.array(disc), mirror_center=np.array([0.225, 0.24]))


class TestSpines:
    def test_quotient_has_four(self, pa):
        sp = enumerate_spines(pa, eps=0.1, grid_res=64)
        assert [p.coords for p in sp] == [(0.0, 0.0), (0.0, 0.5),
                                          (0.5, 0.0), (0.5, 0.5)]

    def test_torus_has_none(self, cat):
        assert enumerate_spines(cat, eps=0.1, grid_res=32) == []

    def test_north_south_unsupported(self):
        ns = make_model("north-south")
        with pytest.raises(ModelCapabilityError):
            enumerate_spines(ns, eps=0.1, grid_res=8)

    def test_is_spine_matches_fixed_classes(self, pa):
        rng = np.random.default_rng(3)
        for p in models.spine_points(pa):
            assert models.is_spine(pa, p, 0.1)
        for _ in range(20):
            q = pa.point(*rng.uniform(0.05, 0.45, size=2))
            assert not models.is_spine(pa, q, 0.1)


class TestFindSectors:
    def test_one_minimal_sector_per_spine(self, pa, search):
        assert len(search.sectors) == 4
        assert not search.exhausted
        got = sorted(s.spine.coords for s in search.sectors)
        want = sorted(p.coords for p in models.spine_points(pa))
        assert got == want

    def test_spine_interior_and_unique(self, pa, search):
        spines = models.spine_points(pa)
        for s in search.sectors:
            inside = 0
            for w in spines:
                xy = w.xy()
                _, sg, k = cover_reps(pa.chart, xy, xy, s.mirror_center - 0.9,
                                      s.mirror_center + 0.9)
                if any(sectors._ray_cast(s.polygon, r) for r in sg[:, None] * xy + k):
                    inside += 1
            assert inside == 1
            assert sectors._ray_cast(s.polygon, s.mirror_center)

    def test_pairwise_crossings_are_two(self, search):
        # cw2 on the quotient: a detected arc pair never crosses 3+ times
        assert search.skipped_pairs == 0
        assert set(search.crossing_counts) <= {0, 1, 2}
        assert search.crossing_counts.get(2, 0) > 0

    def test_cat_map_empty(self, cat):
        out = find_sectors(cat, budget=400)
        assert out.sectors == []
        assert set(out.crossing_counts) == {1}

    @pytest.mark.parametrize("kind, budget, eps", [
        pytest.param("sphere-pA", 1500, None, id="sphere-pA-1500"),
        pytest.param("cat-map", 400, None, id="cat-map-400"),
        pytest.param("sphere-pA", 5000, 0.05, id="sphere-pA-5000-eps0.05")])
    def test_screen_matches_the_per_seed_loop(self, kind, budget, eps):
        # the chunk's one crossing pass, dedupe and projection pass give
        # what intersect and two projections per crossing give seed by seed;
        # 5000 seeds at eps 0.05 run two chunks
        sys = make_model(kind)
        out = find_sectors(sys, eps=eps, budget=budget)
        want, counts, skipped = find_sectors_by_seed(sys, eps=eps, budget=budget)
        assert list(out.crossing_counts.items()) == list(counts.items())
        assert out.skipped_pairs == skipped
        assert len(out.sectors) == len(want)
        for got, ref in zip(out.sectors, want):
            _assert_same_record(got, ref)

    @pytest.mark.parametrize("eps", [None, 0.1, 0.07, 0.03, 0.011])
    def test_seeds_are_the_arange_grid(self, pa, eps, monkeypatch):
        # each chunk builds its own seeds i * spacing, the values that
        # np.arange(0, 1 - 1e-12, spacing) holds along either axis
        seen = []
        wrap = sectors.wrap_chart
        monkeypatch.setattr(sectors, "wrap_chart", lambda c, p: seen.append(p) or wrap(c, p))
        out = find_sectors(pa, eps=eps, budget=5000)
        axis = np.arange(0.0, 1.0 - 1e-12, (pa.c / 2.0 if eps is None else eps) / 4.0)
        assert out.seeds_planned == len(axis) ** 2
        ix, iy = np.divmod(np.arange(out.seeds_probed), len(axis))
        assert np.concatenate(seen).tobytes() == np.stack([axis[ix], axis[iy]], 1).tobytes()

    def test_tiny_eps_allocates_only_its_budget(self, pa):
        # the seed axis has 4e6 values at eps 1e-6; only the 8 probed seeds
        # are built
        tracemalloc.start()
        try:
            out = find_sectors(pa, eps=1e-6, budget=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.seeds_probed == 8 and out.seeds_planned == 4_000_000 ** 2
        assert peak < 1_000_000

    def test_cuts_only_the_kept_records(self, pa, monkeypatch):
        # the minimal record per spine is chosen first; only the four kept
        # ones get their two boundary arcs cut
        cuts = []
        cut = sectors.subcontinuum
        monkeypatch.setattr(sectors, "subcontinuum",
                            lambda *a, **kw: cuts.append(1) or cut(*a, **kw))
        out = find_sectors(pa)
        assert len(out.sectors) == 4 and len(cuts) == 8
        cuts.clear()
        big = enclosing_sector(pa, out.sectors[0])
        assert big["found"] and len(cuts) == 2
        assert big["sector"].boundary_s is not None and big["sector"].boundary_u is not None

    def test_budget_flagged(self, pa):
        out = find_sectors(pa, budget=10)
        assert out.exhausted
        assert out.seeds_probed == 10
        assert out.seeds_planned > 10

    def test_validation(self, pa):
        ns = make_model("north-south")
        with pytest.raises(ModelCapabilityError):
            find_sectors(ns)
        with pytest.raises(ValueError):
            find_sectors(pa, eps=0.5)

    def test_corners_on_both_boundaries(self, search):
        for s in search.sectors:
            hits = intersect(s.boundary_s, s.boundary_u, tol=1e-9)
            for corner in (s.a1, s.a2):
                d = min(models.chart_distance(s.boundary_s.chart,
                                              corner.xy(), h.xy())
                        for h in hits)
                assert d <= 1e-7

    def test_boundaries_decay(self, pa, search):
        # stable boundary shrinks forward, unstable backward; once the
        # quotient mirror shortcut is out of range the diameter equals the
        # cover length, which rescales exactly
        lam = pa.expansion_rate
        for s in search.sectors[:2]:
            ls = s.boundary_s.lift.length
            lu = s.boundary_u.lift.length
            for n in (1, 2, 3):
                assert diameter(image(pa, s.boundary_s, n)) == pytest.approx(
                    ls / lam ** n, rel=1e-9)
                assert diameter(image(pa, s.boundary_u, -n)) == pytest.approx(
                    lu / lam ** n, rel=1e-9)

    def test_deterministic(self, pa, search):
        again = find_sectors(pa)
        assert len(again.sectors) == len(search.sectors)
        for a, b in zip(again.sectors, search.sectors):
            assert np.array_equal(a.polygon, b.polygon)


class TestClassify:
    def test_quotient_sectors_regular(self, search):
        for s in search.sectors:
            assert s.regular is True

    def test_outward_tail_is_regular(self, cat):
        s = _fixture()
        assert classify_sector(cat, s) == "regular"
        assert s.regular is True

    def test_tail_into_the_disc_is_non_regular(self, cat):
        s = _fixture(_TURNED_DISC)
        assert classify_sector(cat, s) == "non-regular"
        assert s.regular is False

    def test_tangential_tail_is_indeterminate(self, cat):
        # the disc runs on along the stable arc past the second corner
        s = _fixture([_DISC[0], [0.33, 0.2], [0.33, 0.28], _DISC[3]])
        with pytest.raises(IndeterminateCrossing, match="tangential"):
            classify_sector(cat, s)

    def test_tail_truncated_at_the_arc_end(self, cat):
        # the stable arc ends 0.005 past the second corner, short of the
        # probe step 0.012
        s = _fixture(s_end=0.305)
        with pytest.raises(IndeterminateCrossing, match="truncated at the arc end"):
            classify_sector(cat, s)

    def test_walk_matches_the_polyline_walk(self):
        rng = np.random.default_rng(7)
        truncated = 0
        for _ in range(3000):
            seg = rng.uniform(-1.0, 1.0, size=(2, 2))
            t, side = rng.uniform(-0.1, 1.1), int(rng.choice([-1, 1]))
            pos = seg[0] + t * (seg[1] - seg[0])
            to_end = float(np.linalg.norm(seg[1 if side > 0 else 0] - pos))
            for h in (0.0, to_end, rng.uniform(0.0, 1.5) * to_end):
                try:
                    want = _reference.polyline_walk(seg, (0, t), side, h)
                except IndeterminateCrossing as err:
                    truncated += 1
                    with pytest.raises(IndeterminateCrossing, match=str(err)):
                        sectors._walk(seg, t, side, h)
                else:
                    assert sectors._walk(seg, t, side, h).tobytes() == want.tobytes()
        assert 3000 < truncated < 6000


class TestParametrization:
    def test_corner_normalization(self, pa, search):
        s = search.sectors[0]
        rep = sector_parametrization(pa, s, grid=8)
        d = models.chart_distance
        assert d(pa.chart, rep["f1_samples"][0, 0], s.a1.xy()) <= 1e-9
        assert d(pa.chart, rep["f1_samples"][-1, -1], s.spine.xy()) <= 1e-7
        assert d(pa.chart, rep["f2_samples"][0, 0], s.spine.xy()) <= 1e-7
        assert d(pa.chart, rep["f2_samples"][-1, -1], s.a2.xy()) <= 1e-7

    def test_meeting_edge_on_splitting_curve(self, pa, search):
        s = search.sectors[0]
        rep = sector_parametrization(pa, s, grid=8)
        # t = 1/2 samples sit on the unstable splitting branch through w
        assert np.max(np.abs(rep["f1_eig"][-1, :, 0])) <= 1e-7

    def test_monotone_and_injective(self, pa, search):
        for s in search.sectors:
            rep = sector_parametrization(pa, s, grid=32)["continuity_report"]
            assert rep["monotone_violations"] == 0
            assert rep["injective_ok"]
            assert rep["max_modulus"] < 5e-3

    def test_samples_next_to_the_spine_keep_their_precision(self, pa, search):
        # samples go into wrap_chart as raw cover points about the spine's
        # representative (0, 1), so on both sides of the origin spine the
        # coordinate that representative leaves at 0 keeps the relative
        # precision of the sample's eigen-coordinates; wrapping first would
        # leave it only an absolute 1e-16
        s = search.sectors[0]
        assert s.spine.coords == (0.0, 0.0) and s.mirror_center.tolist() == [0.0, 1.0]
        rep = sector_parametrization(pa, s, grid=32)
        frame = models.eigen_frame(pa.matrix)
        for half, ij in (("f1", (-1, -2)), ("f2", (0, 1))):
            xy, re = rep[half + "_samples"][ij], rep[half + "_eig"][ij]
            x = abs(re[0] * frame.es[0] + re[1] * frame.eu[0])
            assert 1e-4 < xy[0] < 1e-3
            assert abs(xy[0] - x) <= 4 * np.spacing(x)

    def test_memory_estimate_bounds_the_peak(self, pa, search):
        s = search.sectors[0]
        sector_parametrization(pa, s, grid=8)
        tracemalloc.start()
        try:
            sector_parametrization(pa, s, grid=128)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.5 * sectors.parametrization_bytes(128) < peak <= sectors.parametrization_bytes(128)

    def test_modulus_shrinks_with_grid(self, pa, search):
        s = search.sectors[0]
        m8 = sector_parametrization(pa, s, grid=8)["continuity_report"]
        m32 = sector_parametrization(pa, s, grid=32)["continuity_report"]
        assert m32["max_modulus"] < 0.5 * m8["max_modulus"]

    def test_requires_regular_spine_sector(self, pa):
        bad = _fixture(_TURNED_DISC)
        with pytest.raises(ValueError, match="regular"):
            sector_parametrization(pa, bad, grid=4)


class TestEnclosing:
    def test_strictly_larger_sector_exists(self, pa, search):
        for s in search.sectors:
            out = enclosing_sector(pa, s)
            assert out["found"]
            assert out["clearance"] > 0
            big = out["sector"]
            assert big.spine.coords == s.spine.coords
            assert big.area > s.area

    def test_two_levels(self, pa, search):
        s = search.sectors[0]
        lvl1 = enclosing_sector(pa, s)
        lvl2 = enclosing_sector(pa, lvl1["sector"])
        assert lvl2["found"]
        assert lvl2["sector"].area > lvl1["sector"].area
        assert lvl2["clearance"] > 0

    @pytest.mark.parametrize("eps, budget", [(None, 1500), (0.05, 5000)])
    def test_matches_the_per_seed_path(self, pa, eps, budget, monkeypatch):
        # every rung's seed through the reference's per-crossing projections
        # gives the same ladder and the same sector
        found = find_sectors(pa, eps=eps, budget=budget).sectors
        got = [enclosing_sector(pa, s) for s in found]
        monkeypatch.setattr(sectors, "_sector_from_seed", _reference.sector_from_seed)
        want = [enclosing_sector(pa, s) for s in found]
        for g, w in zip(got, want):
            assert {k: v for k, v in g.items() if k != "sector"} \
                == {k: v for k, v in w.items() if k != "sector"}
            _assert_same_record(g["sector"], w["sector"])

    def test_budget_exhaustion_is_data(self, pa, search, monkeypatch):
        monkeypatch.setattr(sectors, "_MARGIN_BUDGET", 0)
        out = enclosing_sector(pa, search.sectors[0])
        assert out == {"found": False, "attempts": 0, "sector": None,
                       "clearance": 0.0, "reason": "margin budget exhausted"}


class TestRecord:
    def test_schema(self, search):
        rec = to_record(search.sectors[0])
        assert set(rec) == {"a1", "a2", "regular", "spine", "area", "polygon"}
        assert rec["regular"] is True
        assert rec["spine"] == [0.0, 0.0]
        assert rec["area"] > 0
        assert len(rec["polygon"]) == 4


# -- reference: the scalar paths that the batched sector passes replaced ----


def _assert_same_record(got, ref):
    """Two sector records hold the same bits, boundary arcs included."""
    for name in ("polygon", "mirror_center", "cover_s", "cover_u"):
        assert getattr(got, name).tobytes() == getattr(ref, name).tobytes()
    for p, q in ((got.spine, ref.spine), (got.a1, ref.a1), (got.a2, ref.a2)):
        assert p.coords == q.coords and p.xy().tobytes() == q.xy().tobytes()
    assert (got.s_cross, got.u_cross, got.regular) == (ref.s_cross, ref.u_cross, ref.regular)
    for a, b in ((got.boundary_s, ref.boundary_s), (got.boundary_u, ref.boundary_u)):
        assert a.lift == b.lift and (a.mark_p, a.mark_q) == (b.mark_p, b.mark_q)
        assert a.vertices.tobytes() == b.vertices.tobytes()


def _ref_select_crossing(sys, cu, cs, g_s, g_u, w, Einv, R1):
    pts = intersect(cu, cs, tol=1e-9)
    if not pts:
        raise ValueError("parametrization arcs fail to cross; enlarge R1")
    line_tol = 1e-6
    cands = []
    reach = 2.0 * R1 + 0.1
    for p in pts:
        xy = p.xy()
        _, sg, k = cover_reps(sys.chart, xy, xy, w - reach, w + reach)
        reps = sg[:, None] * xy + k
        for r in reps[np.hypot(*(reps - w).T) <= reach]:
            re = Einv @ (r - w)
            ok_s = ok_u = False
            for g in (g_s, -g_s):
                if abs(g[0] - re[0]) <= line_tol and g[1] * re[1] >= -line_tol:
                    ok_s = True
            for g in (g_u, -g_u):
                if abs(g[1] - re[1]) <= line_tol and g[0] * re[0] >= -line_tol:
                    ok_u = True
            if ok_s and ok_u:
                cands.append((p, r, re))
    if not cands:
        raise ValueError("no admissible crossing; splitting-curve side "
                         "selection failed")

    def tsign(x):
        return 0.0 if abs(x) <= 1e-8 else float(np.sign(x))

    def key(c):
        re = c[2]
        su = tsign(re[1]) * tsign(g_u[1])
        ss = tsign(re[0]) * tsign(g_s[0])
        return (-su, -ss, float(np.linalg.norm(re - np.array([g_s[0], g_u[1]]))))

    cands.sort(key=key)
    p, r, re = cands[0]
    return {"chart": np.array(p.xy()), "eig": np.asarray(re, dtype=float)}


def _ref_monotone_violations(vals, tol=1e-9):
    d = np.diff(vals)
    return min(int(np.sum(d < -tol)), int(np.sum(d > tol)))


def _ref_continuity_report(chart, grid, charts, eigs):
    mods = []
    viol = 0
    for fe in eigs:
        for j in range(grid + 1):
            viol += _ref_monotone_violations(fe[:, j, 0])
        for i in range(grid + 1):
            viol += _ref_monotone_violations(fe[i, :, 1])
    for fc in charts:
        for a, b in ((fc[:-1], fc[1:]), (fc[:, :-1], fc[:, 1:])):
            aa = a.reshape(-1, 2)
            bb = b.reshape(-1, 2)
            mods.append(max(chart_distance(chart, aa[k], bb[k]) for k in range(len(aa))))
    f1e = eigs[0].reshape(-1, 2)
    dup = 0
    for k in range(len(f1e)):
        d = np.linalg.norm(f1e[k + 1:] - f1e[k], axis=1)
        dup += int(np.sum(d < 1e-9))
    return {"grid": grid, "max_modulus": float(max(mods)),
            "max_modulus_f1": float(max(mods[:2])),
            "max_modulus_f2": float(max(mods[2:])),
            "monotone_violations": int(viol),
            "duplicate_pairs": dup, "injective_ok": dup == 0}


def _ref_parametrization(sys, s, grid):
    """sector_parametrization of a classified regular spine sector, one
    intersect and one scalar selection per grid pair."""
    w = np.asarray(s.mirror_center, dtype=float)
    Einv = models.eigen_frame(sys.matrix).inv
    A, Bs, _, Bu = s.polygon
    eig = lambda r: Einv @ (np.asarray(r) - w)
    amax = max(abs(float(eig(A)[0])), abs(float(eig(Bs)[0])))
    bmax = max(abs(float(eig(A)[1])), abs(float(eig(Bu)[1])))
    R1 = 2.4 * max(amax, bmax)
    Ms = sectors._axis_cross(A, Bs, 0, w, Einv)
    Mu = sectors._axis_cross(A, Bu, 1, w, Einv)

    def samples(t_lo, t_hi):
        arcs_u, arcs_s, gs_eig, gu_eig = [], [], [], []
        for t in np.linspace(t_lo, t_hi, grid + 1):
            g = sectors._gamma(A, Ms, Bs, float(t))
            arcs_u.append(models.local_arc(sys, sys.point(*g), "unstable", R1))
            gs_eig.append(eig(g))
            g = sectors._gamma(A, Mu, Bu, float(t))
            arcs_s.append(models.local_arc(sys, sys.point(*g), "stable", R1))
            gu_eig.append(eig(g))
        out = np.empty((grid + 1, grid + 1, 2))
        out_eig = np.empty((grid + 1, grid + 1, 2))
        for i in range(grid + 1):
            for j in range(grid + 1):
                z = _ref_select_crossing(sys, arcs_u[i], arcs_s[j],
                                         gs_eig[i], gu_eig[j], w, Einv, R1)
                out[i, j] = z["chart"]
                out_eig[i, j] = z["eig"]
        return out, out_eig

    f1, f1e = samples(0.0, 0.5)
    f2, f2e = samples(0.5, 1.0)
    return {"f1_samples": f1, "f2_samples": f2, "f1_eig": f1e, "f2_eig": f2e,
            "continuity_report": _ref_continuity_report(sys.chart, grid, (f1, f2),
                                                        (f1e, f2e))}


def _ref_is_spine(sys, x, eps, tol=1e-9):
    arc = models.local_arc(sys, x, "stable", eps)
    d0 = chart_distance(sys.chart, x.xy(), arc.vertices[0])
    d1 = chart_distance(sys.chart, x.xy(), arc.vertices[-1])
    return min(d0, d1) <= tol


# the closed form rounds each sample from its eigen-coordinates, the
# reference from a crossing of the arcs' cover segments: they agree within
# 4 ulps of 1, in eigen-coordinates and in chart distance
_ULPS = 4 * np.finfo(float).eps


def _assert_same_parametrization(sys, s, grid):
    got = sector_parametrization(sys, s, grid=grid)
    want = _ref_parametrization(sys, s, grid)
    for half in ("f1", "f2"):
        e, c = half + "_eig", half + "_samples"
        assert got[e].shape == got[c].shape == (grid + 1, grid + 1, 2)
        assert np.abs(got[e] - want[e]).max() <= _ULPS, e
        assert chart_distance(sys.chart, got[c], want[c]).max() <= _ULPS, c
    rep, ref = got["continuity_report"], want["continuity_report"]
    moduli = ("max_modulus", "max_modulus_f1", "max_modulus_f2")
    assert {k: v for k, v in rep.items() if k not in moduli} \
        == {k: v for k, v in ref.items() if k not in moduli}
    # a modulus is the distance of two samples, each within _ULPS
    for k in moduli:
        assert abs(rep[k] - ref[k]) <= 2 * _ULPS, k


def _assert_same_spine_mask(sys, pts, eps):
    got = models.is_spine(sys, pts, eps)
    want = [_ref_is_spine(sys, models.Point(sys.chart, (float(x), float(y))), eps)
            for x, y in pts]
    assert got.dtype == bool and got.tolist() == want
    return got


_GRIDS = [2, 3, 8, 32, 64]


class TestBatchedPassesMatchScalar:
    @pytest.fixture(scope="class")
    def enclosing(self, pa, search):
        return [enclosing_sector(pa, s)["sector"] for s in search.sectors]

    @pytest.mark.parametrize("grid", _GRIDS)
    def test_parametrization(self, pa, search, grid):
        for s in search.sectors:
            _assert_same_parametrization(pa, s, grid)

    @pytest.mark.parametrize("grid", _GRIDS)
    def test_parametrization_of_enclosing_sectors(self, pa, enclosing, grid):
        for s in enclosing:
            _assert_same_parametrization(pa, s, grid)

    def test_report_on_planted_defects(self, pa, search):
        rep = sector_parametrization(pa, search.sectors[1], grid=8)
        charts = (rep["f1_samples"].copy(), rep["f2_samples"].copy())
        f1e, f2e = rep["f1_eig"].copy(), rep["f2_eig"].copy()
        f1e[2, 3] = f1e[5, 1]                                   # exact duplicate
        f1e[0, 0] = f1e[7, 7] + [0.9e-9, 0.0]                   # within 1e-9
        f1e[1, 1] = f1e[6, 6] + [0.0, 1.1e-9]                   # just outside
        f1e[4, 4] = f1e[4, 5] = f1e[3, 5] + [5e-10, -5e-10]     # a triple
        f1e[8, 8] = f1e[8, 0] + 2e-9 * np.array([0.6180339887498949, -1.0])
        f2e[3, 2, 0], f2e[4, 2, 0] = f2e[4, 2, 0], f2e[3, 2, 0]  # not monotone
        charts[0][0, 1] = charts[0][0, 0] + [0.1, 0.0]          # a modulus jump
        got = sectors._continuity_report(pa.chart, 8, charts, (f1e, f2e))
        want = _ref_continuity_report(pa.chart, 8, charts, (f1e, f2e))
        assert got == want
        assert got["duplicate_pairs"] == 5 and got["monotone_violations"] > 0

    def test_dedupe_keeps_the_sequential_rule_per_pair(self, pa):
        chain = np.array([0.3, 0.2]) + np.array([[0.0, 0.0], [0.8e-9, 0.0], [1.6e-9, 0.0]])
        rng = np.random.default_rng(5)
        loose = rng.uniform(0.0, 0.5, size=(6, 2))
        for pts in (chain, np.concatenate([loose, loose[[1, 1, 4]]])):
            want, kept = [], []
            for p in pts:
                want.append(all(chart_distance(pa.chart, p, q) > 1e-9 for q in kept))
                if want[-1]:
                    kept.append(p)
            assert _dedupe_points(pa.chart, pts, 1e-9).tolist() == want
        assert _dedupe_points(pa.chart, chain, 1e-9).tolist() == [True, False, True]

    def test_selection_errors(self, pa):
        # parameter points about w, by eigen-coordinates, whose arcs of
        # half-length 0.1 miss each other, and whose crossings all lie on
        # the far side of the splitting curve from one of the two points
        frame = models.eigen_frame(pa.matrix)
        w = np.array([0.5, 0.5])
        E = np.stack([frame.es, frame.eu], axis=1)
        ok_s, ok_u = np.array([0.05, 0.02]), np.array([0.02, 0.05])
        miss_s, miss_u = np.array([0.0, 0.3]), np.array([0.3, 0.0])
        far_u = np.array([-0.02, 0.05])
        for g_s, g_u, msg in ((miss_s, miss_u, "fail to cross"),
                              (ok_s, far_u, "no admissible crossing")):
            cu, cs = (models.local_arc(pa, pa.point(*(w + E @ g)), kind, 0.1)
                      for g, kind in ((g_s, "unstable"), (g_u, "stable")))
            with pytest.raises(ValueError, match=msg):
                _ref_select_crossing(pa, cu, cs, g_s, g_u, w, frame.inv, 0.1)
            with pytest.raises(ValueError, match=msg):
                sectors._grid_crossings(pa.chart, g_s[None], g_u[None], w, frame, 0.1)
        # the first failing pair in pair order names the error: (0, 1) here,
        # and (0, 0) with the rows of g_s swapped
        g_s, g_u = np.stack([ok_s, miss_s]), np.stack([ok_u, far_u])
        sectors._grid_crossings(pa.chart, g_s[:1], g_u[:1], w, frame, 0.1)
        with pytest.raises(ValueError, match="no admissible crossing"):
            sectors._grid_crossings(pa.chart, g_s, g_u, w, frame, 0.1)
        with pytest.raises(ValueError, match="fail to cross"):
            sectors._grid_crossings(pa.chart, g_s[::-1], g_u, w, frame, 0.1)

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
    @pytest.mark.parametrize("res", [7, 37, 64, 128])
    def test_spine_mask_on_grids(self, pa, cat, res, eps):
        for sys in (pa, cat):
            pts = np.array([sys.point(i / res, j / res).coords
                            for i in range(res) for j in range(res)])
            want = set()
            for p in pts[_assert_same_spine_mask(sys, pts, eps)]:
                w = np.round(2.0 * p) / 2.0 % 1.0
                want.add((float(w[0]), float(w[1])))
            assert [q.coords for q in enumerate_spines(sys, eps, res)] == sorted(want)

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
    def test_spine_mask_near_the_half_lattice(self, pa, cat, eps):
        rng = np.random.default_rng(11)
        half = np.array([[0.0, 0.0], [0.0, 0.5], [0.5, 0.0], [0.5, 0.5]])
        r = np.array([0.0, 2.5e-10, 5e-10 * (1 - 1e-7), 5e-10, 5e-10 * (1 + 1e-7),
                      7.5e-10, 1e-9, 2e-9])
        th = rng.uniform(0.0, 2.0 * np.pi, size=(len(half), len(r)))
        off = r[None, :, None] * np.stack([np.cos(th), np.sin(th)], axis=-1)
        raw = (half[:, None, :] + off).reshape(-1, 2)
        for sys in (pa, cat):
            _assert_same_spine_mask(sys, models.wrap_chart(sys.chart, raw), eps)

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
    def test_spine_mask_at_the_fold(self, pa, cat, eps):
        # the stable arc of w - (eps/2)·e_s ends at the mirror image of its
        # centre, so the per-point test calls it a spine though it is not
        # one; the mask must agree there too
        es = models.eigen_frame(pa.matrix).es
        half = np.array([[0.0, 0.0], [0.0, 0.5], [0.5, 0.0], [0.5, 0.5]])
        delta = np.array([-6e-10, -5e-10, -1e-10, 0.0, 1e-10, 5e-10, 6e-10])
        along = half[:, None] - (eps / 2) * es + delta[:, None] * es
        across = half[:, None] - (eps / 2) * es + delta[:, None] * np.array([1.0, -1.0])
        raw = np.concatenate([along, across]).reshape(-1, 2)
        assert _assert_same_spine_mask(pa, models.wrap_chart(pa.chart, raw), eps).any()
        _assert_same_spine_mask(cat, models.wrap_chart(cat.chart, raw), eps)
