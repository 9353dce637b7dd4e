import numpy as np
import pytest

from cwdyn import models, sectors
from cwdyn.continua import MarkedContinuum, cover_reps, diameter, image, intersect
from cwdyn.models import ModelCapabilityError, make_model
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


# hand-built cover arcs mimicking the two crossing pictures: a horizontal
# "stable" line and a "unstable" hook over it; the tail after the second
# crossing decides regularity
_S_LINE = [[0.10, 0.2], [0.35, 0.2]]
_U_BASE = [[0.15, 0.10], [0.15, 0.28], [0.30, 0.28], [0.30, 0.20]]
# the disc they bound: corners a1 = (0.15, 0.2) and a2 = (0.30, 0.2)
_DISC = [[0.15, 0.2], [0.30, 0.2], [0.30, 0.28], [0.15, 0.28]]


def _fixture(tail):
    def arc(verts):
        return MarkedContinuum(chart=models.TORUS, vertices=verts,
                               mark_p=0, mark_q=len(verts) - 1)

    return SectorRecord(
        boundary_s=arc(_DISC[:2]), boundary_u=arc([_DISC[0], _DISC[3], _DISC[2], _DISC[1]]),
        a1=models.Point(models.TORUS, (0.15, 0.2)), a2=models.Point(models.TORUS, (0.30, 0.2)),
        cover_s=np.array(_S_LINE), cover_u=np.array(_U_BASE + [tail]),
        s_cross=((0, 0.2), (0, 0.8)), u_cross=((0, 5 / 9), (2, 1.0)),
        polygon=np.array(_DISC))


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

    def test_region_narrows_search(self, pa):
        out = find_sectors(pa, region=((0.4, 0.6), (0.4, 0.6)))
        assert len(out.sectors) == 1
        assert out.sectors[0].spine.coords == (0.5, 0.5)

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

    def test_hooked_tail_is_non_regular(self, pa):
        s = _fixture([0.27, 0.27])
        assert classify_sector(pa, s) == "non-regular"
        assert s.regular is False

    def test_outward_tail_is_regular(self, pa):
        s = _fixture([0.33, 0.13])
        assert classify_sector(pa, s) == "regular"

    def test_tangential_tail_is_indeterminate(self, pa):
        s = _fixture([0.28, 0.2001])
        with pytest.raises(IndeterminateCrossing):
            classify_sector(pa, s)

    def test_requires_cover_geometry(self, pa, search):
        s0 = search.sectors[0]
        bare = SectorRecord(boundary_s=s0.boundary_s, boundary_u=s0.boundary_u,
                            a1=s0.a1, a2=s0.a2)
        with pytest.raises(ValueError):
            classify_sector(pa, bare)


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

    def test_monotone_and_injective(self, pa, search, monkeypatch):
        centres = set()
        real_local_arc = models.local_arc

        def local_arc(sys, x, *args, **kwargs):
            centres.add(x.coords)
            return real_local_arc(sys, x, *args, **kwargs)

        monkeypatch.setattr(models, "local_arc", local_arc)
        for s in search.sectors:
            rep = sector_parametrization(pa, s, grid=32)["continuity_report"]
            assert rep["monotone_violations"] == 0
            assert rep["injective_ok"]
            assert rep["max_modulus"] < 5e-3
        # arc centres go into pa.point as raw cover points, so next to the
        # origin spine the quotient mirror keeps their full precision
        near_spine = pa.point(-0.0064815165793436534, 0.5079306403068854)
        assert near_spine.coords[0] == 0.0064815165793436534
        assert near_spine.coords in centres

    def test_modulus_shrinks_with_grid(self, pa, search):
        s = search.sectors[0]
        m8 = sector_parametrization(pa, s, grid=8)["continuity_report"]
        m32 = sector_parametrization(pa, s, grid=32)["continuity_report"]
        assert m32["max_modulus"] < 0.5 * m8["max_modulus"]

    def test_requires_regular_spine_sector(self, pa):
        bad = _fixture([0.27, 0.27])
        with pytest.raises(ValueError, match="regular"):
            sector_parametrization(pa, bad, grid=4)
        good = _fixture([0.33, 0.13])
        with pytest.raises(ValueError, match="spine"):
            sector_parametrization(pa, good, grid=4)


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

    def test_budget_exhaustion_is_data(self, pa, search):
        out = enclosing_sector(pa, search.sectors[0], margin_budget=0)
        assert out == {"found": False, "attempts": 0, "sector": None,
                       "clearance": 0.0, "reason": "margin budget exhausted"}

    def test_requires_spine(self, pa):
        s = _fixture([0.33, 0.13])
        with pytest.raises(ValueError):
            enclosing_sector(pa, s)


class TestRecord:
    def test_schema(self, search):
        rec = to_record(search.sectors[0])
        assert set(rec) == {"a1", "a2", "regular", "spine", "area", "polygon"}
        assert rec["regular"] is True
        assert rec["spine"] == [0.0, 0.0]
        assert rec["area"] > 0
        assert len(rec["polygon"]) == 4
