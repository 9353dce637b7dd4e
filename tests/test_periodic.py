import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _reference
from cwdyn import continua, cwmetric, models, periodic
from cwdyn.cwmetric import calibrate, cw_metric
from cwdyn.holonomy import default_params, pseudo_isometry_probe
from cwdyn.models import BudgetError, make_model
from cwdyn.periodic import (
    KatokParams, find_return, katok_iterate, plan_katok, tail_exponent,
    validate_chain, verify_periodic,
)


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


@pytest.fixture(scope="module")
def plan(cat, consts):
    return plan_katok(cat, consts, 1e-2, sample_budget=60, seed=1)


@pytest.fixture(scope="module")
def plan_pa(pa, consts_pa):
    return plan_katok(pa, consts_pa, 1e-2, sample_budget=60, seed=1)


class TestTailExponent:
    def test_hand_values(self):
        # a*b^k = 2*(1/2)^2 = 1/2, tail 0.5/0.5 = 1
        assert tail_exponent(2.0, 0.5, 1.0) == 2
        # tail at k=4 is (1/8)/(7/8) = 1/7 > 0.1, at k=5 it is 1/15
        assert tail_exponent(2.0, 0.5, 0.1) == 5

    def test_infinite_eps_only_needs_decay(self):
        assert tail_exponent(2.0, 0.5, math.inf) == 2
        assert tail_exponent(100.0, 0.5, math.inf) == 7

    def test_minimality(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a = float(rng.uniform(1.5, 50.0))
            b = float(rng.uniform(0.05, 0.9))
            eps = float(rng.uniform(0.01, 5.0))
            k = tail_exponent(a, b, eps)
            r = a * b ** k
            assert r < 1.0 and r / (1.0 - r) <= eps
            if k > 1:
                r1 = a * b ** (k - 1)
                assert r1 >= 1.0 or r1 / (1.0 - r1) > eps

    def test_bounds_the_partial_sums(self):
        # the defining series: sum over n >= 1 of a^n b^(k n)
        rng = np.random.default_rng(11)
        for _ in range(30):
            a = float(rng.uniform(1.5, 20.0))
            b = float(rng.uniform(0.1, 0.9))
            eps = float(rng.uniform(0.05, 2.0))
            k = tail_exponent(a, b, eps)
            r = a * b ** k
            total = math.fsum(r ** n for n in range(1, 10001))
            assert total <= eps + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            tail_exponent(1.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            tail_exponent(2.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            tail_exponent(2.0, 0.5, 0.0)


class TestPlan:
    def test_chain_holds(self, cat, consts, plan):
        validate_chain(plan, consts)
        assert plan.c == pytest.approx(min(consts.c, 0.45e-2))
        assert plan.eps == consts.c / 2.0
        assert plan.delta == plan.delta_prime / 2.0
        assert plan.gamma < plan.delta / 2.0
        assert plan.beta < plan.gamma / 3.0
        assert plan.k == plan.k0

    def test_k0_value(self, plan):
        assert plan.k0 == 27

    def test_tampered_chain_rejected(self, consts, plan):
        bad = KatokParams(alpha_target=plan.alpha_target, c=plan.c,
                          eps=plan.eps, delta_prime=plan.delta_prime,
                          delta=plan.delta, gamma=plan.delta,
                          beta=plan.beta, k0=plan.k0, k=plan.k)
        with pytest.raises(ValueError, match="gamma"):
            validate_chain(bad, consts)

    def test_param_validation(self, plan):
        with pytest.raises(ValueError):
            KatokParams(alpha_target=-1.0, c=plan.c, eps=plan.eps,
                        delta_prime=plan.delta_prime, delta=plan.delta,
                        gamma=plan.gamma, beta=plan.beta, k0=plan.k0, k=plan.k)
        with pytest.raises(ValueError):
            KatokParams(alpha_target=plan.alpha_target, c=plan.c, eps=plan.eps,
                        delta_prime=plan.delta_prime, delta=plan.delta,
                        gamma=plan.gamma, beta=plan.beta, k0=5, k=4)

    def test_alpha_validation(self, cat, consts):
        with pytest.raises(ValueError):
            plan_katok(cat, consts, 0.0)


class TestFindReturn:
    def test_fixed_point(self, cat):
        y, k = find_return(cat, cat.point(0.0, 0.0), 1e-3, 5)
        assert tuple(y.coords) == (0.0, 0.0)
        assert k == 5

    def test_period_two_orbit(self, cat):
        # (1/5, 2/5) has exact period 2; k rounds 27 up to 28
        y, k = find_return(cat, cat.point(0.2, 0.4), 1e-3, 27)
        assert y.coords == (0.2, 0.4)
        assert k == 28
        assert verify_periodic(cat, y, 2)["ok"]

    def test_float_point_is_its_own_return(self, cat):
        p = cat.point(0.37, 0.82)
        y, k = find_return(cat, p, 5e-3, 27)
        assert models.distance(cat, y, p) == 0.0
        assert k % 27 != 0 or k >= 27
        assert verify_periodic(cat, y, k)["ok"]

    def test_contract_on_random_targets(self, cat):
        rng = np.random.default_rng(23)
        for _ in range(20):
            p = cat.point(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
            y, k = find_return(cat, p, 2e-2, 6)
            assert 6 <= k <= cat.horizon
            assert models.distance(cat, y, p) < 2e-2
            fky = models.iterate(cat, y, k)
            assert models.distance(cat, fky, p) < 2e-2
            assert verify_periodic(cat, y, k)["ok"]

    def test_quotient_fixed_class(self, pa):
        # (1/5, 2/5) maps to its mirror class, a quotient fixed point
        y, k = find_return(pa, pa.point(0.2, 0.4), 1e-3, 5)
        assert k == 5
        assert verify_periodic(pa, y, 1)["ok"]

    def test_budget_error_diagnostics(self, cat, monkeypatch):
        monkeypatch.setattr(periodic, "_SEARCH_BUDGET", 3)
        p = cat.point(1.0 / math.pi, 1.0 / math.e)
        with pytest.raises(BudgetError) as exc:
            find_return(cat, p, 2e-2, 5)
        diag = exc.value.diagnostics
        assert diag["candidates_tried"] >= 1
        assert diag["orbit_steps"] <= 3
        assert diag["bound"] == 2e-2
        assert diag["k_min"] == 5
        assert diag["nearest_distance"] < 2e-2

    def test_no_candidate_in_tiny_bound(self, cat):
        # no rational pair with shared denominator <= 200 sits this close
        p = cat.point(1.0 / math.pi, 1.0 / math.e)
        with pytest.raises(BudgetError) as exc:
            find_return(cat, p, 1e-6, 5)
        assert exc.value.diagnostics["candidates_tried"] == 0
        assert exc.value.diagnostics["nearest_distance"] == math.inf

    def test_validation(self, cat):
        with pytest.raises(ValueError):
            find_return(cat, cat.point(0.1, 0.1), 1e-3, 0)
        with pytest.raises(ValueError):
            find_return(cat, cat.point(0.1, 0.1), 0.0, 5)


    # exact multiples of 1/400 put p*den on half-integers, where the ring
    # rounds half to even
    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(sys=st.sampled_from((make_model("cat-map"), make_model("sphere-pA"))),
           xy=st.tuples(*[st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                                    st.integers(0, 399).map(lambda i: i / 400))] * 2),
           bound=st.floats(1e-4, 0.05), k_min=st.integers(1, 40))
    def test_candidate_ring_matches_the_loop(self, sys, xy, bound, k_min):
        p = sys.point(*xy)
        dist, keys = periodic._return_candidates(sys.chart, p.xy(), bound)
        want_dist, want_keys = _reference.return_candidates(sys.chart, p.xy(), bound)
        assert keys == want_keys
        assert np.asarray(dist, dtype=float).tobytes() == np.asarray(want_dist, dtype=float).tobytes()
        try:
            got = find_return(sys, p, bound, k_min)
        except BudgetError as err:
            got = err.diagnostics
        assert got == _reference.find_return(sys, p, bound, k_min)


class TestKatokIterate:
    def test_already_periodic_converges_at_once(self, cat, consts, plan):
        y, k = find_return(cat, cat.point(0.3, 0.7), 1e-3, plan.k0)
        res = katok_iterate(cat, y, k, plan, consts)
        assert res["converged"]
        assert res["steps"] == []
        assert res["residual"] == 0.0
        assert res["q"].coords == y.coords
        assert res["envelope_ok"]

    def test_small_perturbation_recovers_orbit(self, cat, consts, plan):
        # drift 1e-9 off the period-two point; the loop must land back on it
        y = cat.point(0.2 + 1e-9, 0.4 + 1.3e-9)
        res = katok_iterate(cat, y, 2, plan, consts)
        assert res["converged"]
        assert res["residual"] < 1e-9
        target = cat.point(0.2, 0.4)
        assert models.distance(cat, res["q"], target) < 1e-9
        assert res["envelope_ok"]
        gaps = [s["gap"] for s in res["steps"]]
        assert all(b < 0.2 * a for a, b in zip(gaps, gaps[1:]))

    def test_gap_ratio_bounded_by_envelope_rate(self, cat, consts, plan):
        es = cat.eigen_direction(stable=True)
        y = cat.point(*models._wrap1(0.005 * es))
        res = katok_iterate(cat, y, 7, plan, consts)
        assert res["converged"]
        assert res["residual"] < 1e-11
        gaps = [s["gap"] for s in res["steps"]]
        rate = 4.0 * (1.0 + plan.delta) ** 2 / consts.lam ** 7
        assert all(b <= rate * a for a, b in zip(gaps, gaps[1:]))

    def test_envelope_violations_are_recorded(self, cat, consts, plan):
        # desk-scale first steps overshoot the absolute envelope; the
        # run must report them, not hide them
        es = cat.eigen_direction(stable=True)
        y = cat.point(*models._wrap1(0.005 * es))
        res = katok_iterate(cat, y, 7, plan, consts)
        assert not res["envelope_ok"]
        assert res["counterexamples"]
        for rec in res["counterexamples"]:
            assert rec["D_F"] > rec["bound"]
            assert not rec["ok"]
            assert rec in res["steps"]
        for rec in res["steps"]:
            assert rec["ok"] == (rec["D_F"] <= rec["bound"])

    def test_large_k_first_contraction(self, cat, consts, plan, monkeypatch):
        # at k = 28 the unstable rate ~5e11 amplifies coordinate ulps
        # to a gap floor near 1e-5, so only the first step sits above it
        y, k = find_return(cat, cat.point(0.334, 0.667), 5e-3, plan.k0)
        assert k == 28
        es = cat.eigen_direction(stable=True)
        yp = cat.point(*models._wrap1(y.xy() + 0.01 * es))
        monkeypatch.setattr(periodic, "_MAX_STEPS", 2)
        res = katok_iterate(cat, yp, k, plan, consts)
        gaps = [s["gap"] for s in res["steps"]]
        rate = 4.0 * (1.0 + plan.delta) ** 2 / consts.lam ** k
        assert len(gaps) == 2
        assert gaps[1] <= rate * gaps[0]

    def test_period_fourteen_stops_at_rounding_floor(self, cat, consts, plan):
        # f^14 amplifies rounding by ~7e5, so the gap plateaus near 1e-11
        # and an absolute 1e-11 stopping test alone would never pass
        y = cat.point(2 / 13 + 1e-9, 5 / 13 + 1.3e-9)
        res = katok_iterate(cat, y, 14, plan, consts)
        assert res["converged"]
        assert len(res["steps"]) < 40
        dev = models.chart_distance(cat.chart, res["q"].xy(), np.array([2 / 13, 5 / 13]))
        assert dev < 1e-12

    def test_quotient_model_run(self, pa, consts_pa, plan_pa):
        res = katok_iterate(pa, pa.point(0.2 + 1e-9, 0.4 + 1.3e-9), 1, plan_pa, consts_pa)
        assert res["converged"]
        assert res["residual"] < 1e-9
        target = pa.point(0.2, 0.4)
        assert models.distance(pa, res["q"], target) < 1e-9

    def test_stalled_run_stops_unconverged(self, pa, consts_pa, plan_pa):
        # next to the origin spine y_n reaches a fold point, and from there
        # each step returns y_n itself with the gap 4.45e-10 above gap_tol:
        # the run ends at the first such step, with the q and residual that
        # every later step would repeat
        res = katok_iterate(pa, pa.point(1e-4, 2e-4), 1, plan_pa, consts_pa)
        gap_tol = max(1e-11, 2.0 * 2.0 ** -52 * pa.expansion_rate)
        assert not res["converged"]
        assert len(res["steps"]) == 15 < periodic._MAX_STEPS
        assert res["q"].coords == (3.1465245686757015e-10, 0.0)
        assert res["residual"] == res["steps"][-1]["gap"] >= gap_tol
        assert res["residual"] == models.distance(pa, res["q"], models.iterate(pa, res["q"], 1))

    def test_steps_count_from_one(self, cat, consts, plan):
        y = cat.point(0.2 + 1e-9, 0.4 + 1.3e-9)
        res = katok_iterate(cat, y, 2, plan, consts)
        assert [s["n"] for s in res["steps"]] == list(range(1, len(res["steps"]) + 1))
        assert res["steps"][0]["gap"] == models.distance(cat, y, models.iterate(cat, y, 2))
        assert res["residual"] == models.distance(cat, res["q"], models.iterate(cat, res["q"], 2))


    @pytest.mark.parametrize("start, k", [((0.2 + 1e-9, 0.4 + 1.3e-9), 2),
                                          ((2 / 13 + 1e-9, 5 / 13 + 1.3e-9), 14)])
    def test_one_metric_per_step(self, cat, consts, plan, monkeypatch, start, k):
        # one crossing per arc pair on the torus: the transport needs no cw-size
        calls = []
        metric = periodic.cw_metric
        monkeypatch.setattr(periodic, "cw_metric",
                            lambda *a, **kw: calls.append(1) or metric(*a, **kw))
        y = cat.point(*start)
        res = katok_iterate(cat, y, k, plan, consts)
        assert res["steps"] and len(calls) == len(res["steps"])
        assert res == _reference.katok_iterate(cat, y, k, plan, consts)

    @pytest.mark.parametrize("start", [(0.2 + 1e-9, 0.4 + 1.3e-9)])
    def test_quotient_run_matches_the_reference(self, pa, consts_pa, plan_pa, start):
        y = pa.point(*start)
        res = katok_iterate(pa, y, 1, plan_pa, consts_pa)
        assert res["steps"]
        assert res == _reference.katok_iterate(pa, y, 1, plan_pa, consts_pa)

    def test_spine_run_measures_pure_legs(self, pa, consts_pa, plan_pa, monkeypatch):
        # next to the origin spine the folded arcs cross twice, and an
        # unstable leg runs past the spine into the mirrored sheet: the
        # vertex polyline re-lifted it as a chord with a stable component
        cuts, steps = _record_paths(monkeypatch)
        monkeypatch.setattr(periodic, "_MAX_STEPS", 3)
        res = katok_iterate(pa, pa.point(1e-4, 2e-4), 1, plan_pa, consts_pa)
        assert res["steps"][0]["D_F"] == pytest.approx(0.61557, abs=1e-5)
        frame = models.eigen_frame(pa.matrix)
        paths = [path for paths in steps for path, _ in paths]
        assert len(paths) == 6 and len(cuts) == 12
        for path, ends in zip(paths, zip(cuts[::2], cuts[1::2])):
            stable_leg, unstable_leg = cwmetric._pieces_of(path, frame)
            assert stable_leg.au == 0.0 and unstable_leg.as_ == 0.0
            assert [abs(stable_leg.as_), abs(unstable_leg.au)] \
                == [cut.lift.length for cut in ends]
        assert any(_through_spine(pa, leg) for path in paths for leg in path.legs)

    @pytest.mark.parametrize("kind", ["cat-map", "sphere-pA"])
    def test_paths_match_the_polyline_reference(self, kind, monkeypatch):
        # perturbed periodic starts: the two exact legs give the run of the
        # vertex polyline they replaced, and its D(F_n) except on a step
        # with a zero-length leg or a leg through a spine
        sys = make_model(kind)
        consts = calibrate(sys)
        plan = plan_katok(sys, consts, 1e-2, sample_budget=60, seed=1)
        rng = np.random.default_rng(19)
        starts = []
        while len(starts) < 40:
            den = int(rng.choice([5, 7, 11, 13]))
            u, v = (int(i) for i in rng.integers(0, den, 2))
            k = periodic._exact_period(sys, u, v, den, 1000)
            if k <= 14:
                xy = np.array([u, v]) / den + rng.uniform(-1e-9, 1e-9, 2)
                starts.append((sys.point(*xy), k))
        frame = models.eigen_frame(sys.matrix)
        n_steps = n_zero = 0
        for y, k in starts:
            _, steps = _record_paths(monkeypatch)
            got = katok_iterate(sys, y, k, plan, consts)
            monkeypatch.undo()
            want = _reference.katok_iterate(sys, y, k, plan, consts)
            assert (got["q"], got["k"], got["converged"]) \
                == (want["q"], want["k"], want["converged"])
            assert [s["gap"] for s in got["steps"]] == [s["gap"] for s in want["steps"]]
            n_steps += len(got["steps"])
            for paths, a, b in zip(steps, got["steps"], want["steps"]):
                odd = False
                for path, d_f in paths:
                    stable_leg, unstable_leg = cwmetric._pieces_of(path, frame)
                    assert stable_leg.au == 0.0 and unstable_leg.as_ == 0.0
                    legs = [leg for leg in path.legs if leg.length > 0.0]
                    if len(legs) < 2:
                        n_zero += 1
                        assert d_f == (cw_metric(sys, _leg_arc(legs[0]), consts, depth=3)
                                       if legs else 0.0)
                    odd |= len(legs) < 2 or any(_through_spine(sys, leg) for leg in legs)
                assert odd or a["D_F"] == b["D_F"]
        assert n_steps > 100 and n_zero > 0

    def test_library_paths_take_no_run_merge(self, cat, consts, plan, monkeypatch):
        # the unwrap and run merge serve lift-less records only
        def refuse(*args):
            raise AssertionError("a library-built path was re-lifted from its vertices")

        monkeypatch.setattr(cwmetric, "unwrap_path", refuse)
        res = katok_iterate(cat, cat.point(0.2 + 1e-9, 0.4 + 1.3e-9), 2, plan, consts)
        assert res["converged"] and res["steps"]
        rep = pseudo_isometry_probe(cat, 6, [1e-3], default_params(cat, sample_budget=60, seed=1),
                                    consts, seed=3)
        assert rep["n_samples"] == 6

    def test_lift_less_cut_is_an_error(self, cat, consts, plan, monkeypatch):
        # only an off-arc crossing is skipped; a cut without its lift is a fault
        cut = periodic.subcontinuum
        monkeypatch.setattr(periodic, "subcontinuum",
                            lambda *a, **kw: continua.from_record(continua.to_record(cut(*a, **kw))))
        with pytest.raises(ValueError, match="no lift"):
            katok_iterate(cat, cat.point(0.2 + 1e-9, 0.4 + 1.3e-9), 2, plan, consts)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_transport_matches_the_arc_reference(self, cat, consts, plan, monkeypatch, seed):
        # the bracket of the two lifts takes every y_{n+1} that the arcs,
        # their intersect and their connecting paths took
        n_steps = 0
        for y, k in _perturbed_starts(cat, np.random.default_rng(seed), 8):
            got = katok_iterate(cat, y, k, plan, consts)
            with monkeypatch.context() as m:
                m.setattr(periodic, "_transport", _reference.katok_transport)
                want = katok_iterate(cat, y, k, plan, consts)
            assert _bits(got) == _bits(want)
            n_steps += len(got["steps"])
        assert n_steps >= 8

    def test_spine_transport_matches_the_arc_reference(self, pa, consts_pa, plan_pa,
                                                       monkeypatch):
        # next to the origin spine the transport's arcs cross twice, and D
        # chooses between the crossings
        counts = []
        bracket = periodic._bracket

        def counted(*args):
            out = bracket(*args)
            counts.append(len(out))
            return out

        y = pa.point(1e-4, 2e-4)
        monkeypatch.setattr(periodic, "_bracket", counted)
        got = katok_iterate(pa, y, 1, plan_pa, consts_pa)
        monkeypatch.setattr(periodic, "_transport", _reference.katok_transport)
        want = katok_iterate(pa, y, 1, plan_pa, consts_pa)
        assert _bits(got) == _bits(want)
        assert counts.count(2) >= 10 and len(counts) == len(got["steps"])

    def test_a_torus_step_builds_one_arc_pair(self, cat, consts, plan, monkeypatch):
        # F_n takes two arcs and two cuts; the transport's one crossing
        # takes neither
        arcs, cuts = [], []
        arc, cut = models.local_arc, periodic.subcontinuum
        monkeypatch.setattr(models, "local_arc", lambda *a, **kw: arcs.append(1) or arc(*a, **kw))
        monkeypatch.setattr(periodic, "subcontinuum",
                            lambda *a, **kw: cuts.append(1) or cut(*a, **kw))
        res = katok_iterate(cat, cat.point(0.2 + 1e-9, 0.4 + 1.3e-9), 2, plan, consts)
        n = len(res["steps"])
        assert n >= 2 and len(arcs) == 2 * n and len(cuts) == 2 * n


def _perturbed_starts(sys, rng, n):
    """n Katok starts (y, k) next to rational points of periods 2 to 14,
    the periods taken in turn, each moved a log-uniform distance from 1e-9
    to min(1e-6, 1e-2 / lam_u^k) in a uniform direction: the
    arc-geometry benchmark's recipe."""
    targets = {}
    for den in range(2, 14):
        for u in range(den):
            for v in range(den):
                k = periodic._exact_period(sys, u, v, den, 14)
                if math.gcd(u, v, den) == 1 and k is not None and k >= 2:
                    targets.setdefault(k, []).append((u, v, den))
    periods = sorted(targets)
    starts = []
    for i in range(n):
        k = periods[i % len(periods)]
        u, v, den = targets[k][int(rng.integers(len(targets[k])))]
        hi = min(1e-6, 1e-2 / sys.expansion_rate ** k)
        mag = math.exp(rng.uniform(math.log(1e-9), math.log(hi)))
        ang = rng.uniform(0.0, 2.0 * math.pi)
        starts.append((sys.point(u / den + mag * math.cos(ang), v / den + mag * math.sin(ang)), k))
    return starts


def _bits(res):
    """A Katok result's q, residual and converged flag, and every step's
    gap, D_F, bound and ok, with each float as its hex string."""
    h = float.hex
    return ([h(v) for v in res["q"].coords], h(res["residual"]), res["converged"],
            [(h(s["gap"]), h(s["D_F"]), h(s["bound"]), s["ok"]) for s in res["steps"]])


def _record_paths(monkeypatch):
    """Record a Katok run's cuts and, per step, its (F_n, D(F_n)) pairs:
    each step's one intersect gives its candidates for F_n, and its
    transport begins at the bracket that follows."""
    cuts, steps, in_step = [], [], [False]

    def counted(*args, **kw):
        in_step[0] = True
        steps.append([])
        return continua.intersect(*args, **kw)

    def bracket(*args, **kw):
        in_step[0] = False
        return continua._bracket(*args, **kw)

    def cut(*args, **kw):
        sub = continua.subcontinuum(*args, **kw)
        if in_step[0]:
            cuts.append(sub)
        return sub

    def metric(sys, path, consts, **kw):
        d = cw_metric(sys, path, consts, **kw)
        if in_step[0]:
            steps[-1].append((path, d))
        return d

    for name, fn in (("intersect", counted), ("_bracket", bracket), ("subcontinuum", cut),
                     ("cw_metric", metric)):
        monkeypatch.setattr(periodic, name, fn)
    return cuts, steps


def _leg_arc(leg):
    return continua.MarkedContinuum(chart=leg.chart, lift=leg)


def _through_spine(sys, leg):
    # a spine whose foot lies inside the leg, nearer than the leg is long
    if sys.chart != models.SPHERE_QUOTIENT:
        return False
    d = leg.dir_arr * leg.length
    spine = np.round(2.0 * (leg.start_arr + 0.5 * d)) / 2.0
    t, dist = continua._to_segment(spine, leg.start_arr, d)
    return 0.0 < t < 1.0 and dist < leg.length


class TestVerifyPeriodic:
    def test_origin(self, cat):
        rec = verify_periodic(cat, cat.point(0.0, 0.0), 1)
        assert rec == {"ok": True, "residual": 0.0, "k": 1}

    def test_period_two(self, cat):
        y = cat.rational_point(1, 2, 5)
        assert verify_periodic(cat, y, 2)["ok"]
        rec = verify_periodic(cat, y, 3)
        assert not rec["ok"]
        # f^3 = f on this orbit; the miss is d((1/5,2/5),(4/5,3/5))
        assert rec["residual"] == pytest.approx(math.sqrt(0.2), rel=1e-12)

    def test_exact_period_matches_float_orbit(self, cat):
        rng = np.random.default_rng(5)
        for _ in range(10):
            den = int(rng.integers(2, 60))
            nx = int(rng.integers(0, den))
            ny = int(rng.integers(0, den))
            per = periodic._exact_period(cat, nx, ny, den, 10000)
            assert per is not None
            y = cat.rational_point(nx, ny, den)
            assert verify_periodic(cat, y, per)["ok"]
            if per > 1:
                assert not verify_periodic(cat, y, per - 1)["ok"]
