import math

import numpy as np
import pytest

from _reference import product_structure_radius as radius_by_base
from cwdyn import holonomy, models
from cwdyn.continua import unwrap_to, _project_to_lift
from cwdyn.cwmetric import calibrate
from cwdyn.holonomy import HolonomyParams, default_params, pseudo_isometry_probe
from cwdyn.models import make_model


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
def params(cat):
    return default_params(cat, sample_budget=60, seed=1)


@pytest.fixture(scope="module")
def params_pa(pa):
    return default_params(pa, sample_budget=60, seed=1)


def _pt(sys, xy):
    return sys.point(*xy)


def _oracle_stable(sys, z, y):
    # crossing of the unstable line of z with the stable line of y,
    # solved in the orthonormal eigenframe
    eu = sys.eigen_direction(stable=False)
    r = unwrap_to(sys.chart, z.xy(), y.xy()) - z.xy()
    return models._wrap1(z.xy() + float(r @ eu) * eu)


class TestParams:
    def test_default_scales(self, cat, params):
        assert params.eps == cat.c / 2.0
        assert 0.0 < params.delta < params.eps
        # the linear model supports transport over almost the whole arc
        assert params.delta == pytest.approx(params.eps / 2.0, rel=1e-6)

    def test_quotient_scales(self, pa, params_pa):
        assert params_pa.eps == pa.c / 2.0
        assert 0.0 < params_pa.delta < params_pa.eps

    def test_validation(self):
        with pytest.raises(ValueError):
            HolonomyParams(eps=0.1, delta=0.1)
        with pytest.raises(ValueError):
            HolonomyParams(eps=0.1, delta=0.2)
        with pytest.raises(ValueError):
            HolonomyParams(eps=0.1, delta=0.05, tol=0.0)

    def test_bisection_below_the_first_probe(self):
        # eigenvectors 120 degrees apart: the first probe at eps fails and
        # the bisection runs, landing above the transversal bound eps sin(theta)
        sys = make_model("cat-map", matrix=((2, 1), (3, 2)))
        es, eu = sys.eigen_direction(stable=True), sys.eigen_direction(stable=False)
        eps = sys.c / 2.0
        r = holonomy.product_structure_radius(sys, eps, sample_budget=40)
        assert eps * abs(es[0] * eu[1] - es[1] * eu[0]) <= r < eps * (1.0 - 1e-9)


    @pytest.mark.parametrize("kind, matrix", [("cat-map", None), ("sphere-pA", None),
                                              ("cat-map", ((2, 1), (3, 2)))])
    def test_radius_matches_the_per_base_loop(self, kind, matrix):
        sys = make_model(kind, matrix=matrix)
        eps = sys.c / 2.0
        got = holonomy.product_structure_radius(sys, eps)
        assert got.hex() == radius_by_base(sys, eps).hex()


class TestHolonomy:
    def test_identity_fixes_z(self, cat, params):
        x = cat.point(0.3, 0.7)
        es = cat.eigen_direction(stable=True)
        z = _pt(cat, x.xy() + 0.01 * es)
        pts = holonomy.holonomy(cat, x, x, z, "stable", params)
        d = min(models.distance(cat, p, z) for p in pts)
        assert d <= params.tol

    def test_matches_linear_solve(self, cat, params):
        rng = np.random.default_rng(7)
        es = cat.eigen_direction(stable=True)
        eu = cat.eigen_direction(stable=False)
        worst = 0.0
        for _ in range(100):
            x = cat.point(*rng.random(2))
            z = _pt(cat, x.xy() + rng.uniform(-1, 1) * params.delta * es)
            y = _pt(cat, x.xy() + rng.uniform(-0.9, 0.9) * params.delta
                    * np.array([math.cos(a := rng.random() * 2 * math.pi), math.sin(a)]))
            pts = holonomy.holonomy(cat, x, y, z, "stable", params)
            assert len(pts) == 1
            worst = max(worst, models.chart_distance(
                cat.chart, pts[0].xy(), _oracle_stable(cat, z, y)))
        assert worst < 1e-10

    def test_unstable_kind_dual(self, cat, params):
        rng = np.random.default_rng(8)
        eu = cat.eigen_direction(stable=False)
        es = cat.eigen_direction(stable=True)
        for _ in range(25):
            x = cat.point(*rng.random(2))
            z = _pt(cat, x.xy() + rng.uniform(-1, 1) * params.delta * eu)
            y = _pt(cat, x.xy() + 0.5 * params.delta * es)
            pts = holonomy.holonomy(cat, x, y, z, "unstable", params)
            assert len(pts) == 1
            # crossing of the stable line of z with the unstable line of y
            r = unwrap_to(cat.chart, z.xy(), y.xy()) - z.xy()
            want = models._wrap1(z.xy() + float(r @ es) * es)
            assert models.chart_distance(cat.chart, pts[0].xy(), want) < 1e-10

    def test_points_lie_on_both_arcs(self, pa, params_pa):
        rng = np.random.default_rng(9)
        es = pa.eigen_direction(stable=True)
        for _ in range(25):
            x = _pt(pa, rng.random(2))
            z = _pt(pa, x.xy() + rng.uniform(-1, 1) * params_pa.delta * es)
            y = _pt(pa, x.xy() + rng.uniform(-0.5, 0.5) * params_pa.delta
                    * np.array([math.cos(a := rng.random() * 2 * math.pi), math.sin(a)]))
            pts = holonomy.holonomy(pa, x, y, z, "stable", params_pa)
            carrier = models.local_arc(pa, z, "unstable", params_pa.eps)
            target = models.local_arc(pa, y, "stable", params_pa.eps)
            for p in pts:
                for arc in (carrier, target):
                    _, (d,) = _project_to_lift(arc, p.xy())
                    assert d <= 10 * params_pa.tol

    def test_two_branches_near_spine(self, pa, params_pa):
        w = pa.point(0.5, 0.5)
        x = _pt(pa, w.xy() + np.array([-0.02, -0.01]))
        es = pa.eigen_direction(stable=True)
        eu = pa.eigen_direction(stable=False)
        z = _pt(pa, x.xy() + 0.015 * es)
        y = _pt(pa, x.xy() + 0.03 * eu)
        pts = holonomy.holonomy(pa, x, y, z, "stable", params_pa)
        assert len(pts) == 2

    def test_domain_errors(self, cat, params):
        x = cat.point(0.3, 0.7)
        es = cat.eigen_direction(stable=True)
        z = _pt(cat, x.xy() + 0.01 * es)
        far = cat.point(0.8, 0.2)
        with pytest.raises(ValueError):
            holonomy.holonomy(cat, x, far, z, "stable", params)
        off = cat.point(0.31, 0.7)  # not on the stable arc of x
        y = _pt(cat, x.xy() + 0.01 * cat.eigen_direction(stable=False))
        with pytest.raises(ValueError):
            holonomy.holonomy(cat, x, y, off, "stable", params)
        with pytest.raises(ValueError):
            holonomy.holonomy(cat, x, y, z, "sideways", params)


class TestProbes:
    def test_cat_pseudo_isometry(self, cat, params, consts):
        rep = pseudo_isometry_probe(cat, 150, [1e-6, 1e-3, 1e-1], params,
                                    consts, seed=3)
        assert rep["n_samples"] == 150
        assert not rep["obstructions"]
        assert rep["max_deviation_worst"] <= 1e-6
        gammas = [row["gamma_worst"] for row in rep["modulus_table"]]
        assert gammas == sorted(gammas)  # monotone modulus

    def test_quotient_probe_reports(self, pa, params_pa):
        consts_pa = calibrate(pa)
        rep = pseudo_isometry_probe(pa, 60, [1e-6, 1e-2], params_pa,
                                    consts_pa, seed=5)
        assert rep["n_samples"] + len(rep["obstructions"]) == 60
        assert math.isfinite(rep["max_deviation_best"])
        assert rep["max_deviation_best"] <= rep["max_deviation_worst"]

    def test_probe_deterministic(self, cat, params, consts):
        a = pseudo_isometry_probe(cat, 40, [1e-3], params, consts, seed=11)
        b = pseudo_isometry_probe(cat, 40, [1e-3], params, consts, seed=11)
        assert a == b

    def test_probe_builds_three_arcs_a_sample(self, cat, params, consts, monkeypatch):
        # the sample's stable arc, the carrier of the transport, and the
        # stable arc of p*, which holds the branches and gives C*
        kinds = []
        local_arc = models.local_arc
        monkeypatch.setattr(models, "local_arc",
                            lambda sys, x, kind, *a, **k: kinds.append(kind)
                            or local_arc(sys, x, kind, *a, **k))
        rep = pseudo_isometry_probe(cat, 30, [1e-6], params, consts, seed=5)
        assert rep["n_samples"] == 30 and not rep["obstructions"]
        assert kinds == ["stable", "unstable", "stable"] * 30
