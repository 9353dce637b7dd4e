"""Acceptance gate: eleven seeded pass/fail property checks.

Each criterion is an independent deterministic computation at a fixed
sample budget; a run produces one record per criterion and a canonical
report body (JSON with the wall-clock stripped).  The reproducibility
criterion executes the whole battery a second time from a fresh context
and compares the two bodies byte for byte.
"""

import hashlib
import json
import math
import time

import numpy as np

from . import chainrec, holonomy, models, periodic, sectors
from .continua import (MarkedContinuum, _project_to_lift, cover_reps,
                       subcontinuum, unwrap_to)
from .cwmetric import calibrate, cw_metric, cw_metric_family, cw_metric_profile
from .models import BudgetError, local_arc, make_model


class _Ctx:
    """Models and calibrations shared by one suite pass."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.cat = make_model("cat-map")
        self.pa = make_model("sphere-pA")
        self.ns = make_model("north-south")
        self._consts = {}

    def consts(self, sys):
        if sys.kind not in self._consts:
            self._consts[sys.kind] = calibrate(sys)
        return self._consts[sys.kind]


def _family(sys, n, seed, n_singletons=0):
    """n marked continua: random local arcs, log-uniform size in
    [1e-7, 0.45 c], plus points."""
    rng = np.random.default_rng(seed)
    hi = math.log10(0.45 * sys.c)
    fam = []
    for _ in range(n - n_singletons):
        kind = "stable" if rng.integers(2) else "unstable"
        eps = float(10 ** rng.uniform(-7.0, hi))
        fam.append(local_arc(sys, sys.point(*rng.uniform(0.0, 1.0, 2)), kind, eps))
    for _ in range(n_singletons):
        p = sys.point(*rng.uniform(0.0, 1.0, 2))
        fam.append(MarkedContinuum(chart=sys.chart, vertices=np.array([p.xy()]),
                                   mark_p=0, mark_q=0))
    return fam


# -- criterion 1: metric axioms ---------------------------------------------


def _crit_metric_axioms(ctx):
    detail = {}
    ok = True
    for sys in (ctx.cat, ctx.pa):
        consts = ctx.consts(sys)
        fam = _family(sys, 1000, ctx.seed + 11, n_singletons=25)
        negatives = zero_faults = sym_faults = 0
        min_d = math.inf
        for cont in fam:
            d = cw_metric(sys, cont, consts, depth=2)
            min_d = min(min_d, d)
            if d < 0.0:
                negatives += 1
            singleton = cont.n_vertices == 1
            if singleton and d != 0.0:
                zero_faults += 1
            if not singleton and d == 0.0:
                prof = cw_metric_profile(sys, cont, consts, depth=2)
                if prof["tail_bound"] > 1e-12:
                    zero_faults += 1
            rev = cont.with_marks(cont.mark_q, cont.mark_p)
            if cw_metric(sys, rev, consts, depth=2) != d:
                sym_faults += 1
        sub_excess = -math.inf
        n_sub = 0
        for cont in fam:
            if cont.n_vertices < 3 or n_sub >= 250:
                continue
            mid = cont.point(cont.n_vertices // 2)
            left = subcontinuum(cont, cont.point(0), mid)
            right = subcontinuum(cont, mid, cont.point(cont.n_vertices - 1))
            excess = (cw_metric(sys, cont, consts, depth=2)
                      - cw_metric(sys, left, consts, depth=2)
                      - cw_metric(sys, right, consts, depth=2))
            sub_excess = max(sub_excess, excess)
            n_sub += 1
        model_ok = (negatives == 0 and zero_faults == 0 and sym_faults == 0
                    and n_sub >= 200 and sub_excess <= 1e-9)
        ok = ok and model_ok
        detail[sys.kind] = {
            "n_continua": len(fam), "n_unions": n_sub, "min_D": min_d,
            "negatives": negatives, "zero_faults": zero_faults,
            "symmetry_faults": sym_faults, "subadditivity_excess": sub_excess,
        }
    summary = "2x1000 continua, symmetry exact, max union excess {:.1e}".format(
        max(d["subadditivity_excess"] for d in detail.values()))
    return ok, detail, summary


# -- criterion 2: hyperbolic decay -------------------------------------------


def _crit_decay(ctx):
    sys = ctx.cat
    consts = ctx.consts(sys)
    rng = np.random.default_rng(ctx.seed + 21)
    violations = 0
    worst = 0.0
    contraction = 1.0 / consts.lam
    for stable in (True, False):
        shifts = range(0, 11) if stable else range(0, -11, -1)
        for _ in range(500):
            eps = float(10 ** rng.uniform(-6.5, -2.5))
            arc = local_arc(sys, sys.point(*rng.uniform(0.0, 1.0, 2)),
                            "stable" if stable else "unstable", eps)
            fam = cw_metric_family(sys, arc, consts, shifts=shifts, depth=2)
            d0 = fam[0]
            for n in range(1, 11):
                dn = fam[n if stable else -n]
                bound = 4.0 * contraction ** n * d0
                if dn > bound + 1e-12:
                    violations += 1
                if bound > 0:
                    worst = max(worst, dn / bound)
    ok = violations == 0
    detail = {"n_stable": 500, "n_unstable": 500, "violations": violations,
              "max_ratio_to_bound": worst}
    return ok, detail, f"1000 continua x 10 steps, 0 violations, max ratio {worst:.3f}"


# -- criterion 3: self-similarity --------------------------------------------


def _below_xi_sizes(sys, consts):
    # arc sizes whose escape time pushes lam^-N safely under xi; the
    # quotient needs ~1e-14 arcs (lam = 2^(1/10)), handled exactly by lifts
    n_min = math.ceil(math.log(1.0 / (0.9 * consts.xi)) / math.log(consts.lam))
    hi = math.log10(consts.c) - (n_min + 1) * math.log10(sys.expansion_rate)
    return hi - 0.8, hi


def _crit_self_similarity(ctx):
    checked = violations = 0
    max_rel = 0.0
    for sys, n in ((ctx.cat, 300), (ctx.pa, 300)):
        consts = ctx.consts(sys)
        lo, hi = _below_xi_sizes(sys, consts)
        tol = 1e-6 + consts.lam ** (-consts.horizon)
        rng = np.random.default_rng(ctx.seed + 31)
        for _ in range(n):
            kind = "stable" if rng.integers(2) else "unstable"
            eps = float(10 ** rng.uniform(lo, hi))
            arc = local_arc(sys, sys.point(*rng.uniform(0.0, 1.0, 2)), kind, eps)
            fam = cw_metric_family(sys, arc, consts, shifts=(-1, 0, 1), depth=3)
            d = fam[0]
            if not 0.0 < d <= consts.xi:
                continue
            checked += 1
            rel = abs(max(fam[1], fam[-1]) - consts.lam * d) / (consts.lam * d)
            max_rel = max(max_rel, rel)
            if rel > tol:
                violations += 1
    scal_rel = 0.0
    n_scaled = 0
    for sys, n in ((ctx.cat, 20), (ctx.pa, 10)):
        consts = ctx.consts(sys)
        lo, hi = _below_xi_sizes(sys, consts)
        rng = np.random.default_rng(ctx.seed + 32)
        for _ in range(n):
            arc = local_arc(sys, sys.point(*rng.uniform(0.0, 1.0, 2)), "stable",
                            float(10 ** rng.uniform(lo, hi)))
            fam = cw_metric_family(sys, arc, consts, shifts=range(9), depth=3)
            if not 0.0 < fam[0] <= consts.xi:
                continue
            n_scaled += 1
            for k in range(1, 9):
                want = consts.lam ** (-k) * fam[0]
                scal_rel = max(scal_rel, abs(fam[k] - want) / want)
    ok = (checked >= 500 and violations == 0 and n_scaled >= 20
          and scal_rel <= 1e-9)
    detail = {"n_checked": checked, "violations": violations,
              "max_rel_err": max_rel, "stable_scaling_max_rel_err": scal_rel}
    return ok, detail, (f"{checked} continua below xi, max rel err {max_rel:.2e}, "
                        f"k<=8 scaling err {scal_rel:.2e}")


# -- criterion 4: weight sandwich ---------------------------------------------


def _crit_sandwich(ctx):
    detail = {}
    ok = True
    for sys in (ctx.cat, ctx.pa):
        consts = ctx.consts(sys)
        fam = _family(sys, 600, ctx.seed + 41)
        bad = 0
        max_dprime = 0.0
        for cont in fam:
            prof = cw_metric_profile(sys, cont, consts, depth=2)
            rho, p, dp, d = prof["rho"], prof["P"], prof["Dprime"], prof["D"]
            if not (p <= rho <= 4.0 * p + 1e-15):
                bad += 1
            if not (d >= dp >= p):
                bad += 1
            if not dp <= 1.0:
                bad += 1
            max_dprime = max(max_dprime, dp)
        ok = ok and bad == 0
        detail[sys.kind] = {"n": len(fam), "violations": bad,
                            "max_Dprime": max_dprime}
    return ok, detail, "2x600 profiles, P <= rho <= 4P, D >= D' >= P, D' <= 1"


# -- criterion 5: tail-exponent minimality ------------------------------------


def _crit_tail_exponent(ctx):
    rng = np.random.default_rng(ctx.seed + 51)
    n = np.arange(1, 10001, dtype=float)
    sum_faults = min_faults = 0
    worst = 0.0
    for _ in range(100):
        a = float(10 ** rng.uniform(0.005, 2.0))
        b = float(rng.uniform(0.02, 0.98))
        eps = float(10 ** rng.uniform(-6.0, 1.0))
        k = periodic.tail_exponent(a, b, eps)
        with np.errstate(under="ignore"):
            partial = float(np.sum((a * b ** k) ** n))
        worst = max(worst, partial / eps)
        if partial > eps * (1.0 + 1e-9):
            sum_faults += 1
        r_prev = a * b ** (k - 1)
        if r_prev < 1.0 and r_prev / (1.0 - r_prev) <= eps:
            min_faults += 1
    ok = sum_faults == 0 and min_faults == 0
    detail = {"n": 100, "partial_sum_faults": sum_faults,
              "minimality_faults": min_faults, "max_sum_over_eps": worst}
    return ok, detail, f"100 triples, sums within eps (max ratio {worst:.3f}), k minimal"


# -- criterion 6: periodic density --------------------------------------------


def _rational_match(sys, q):
    """Brute-force oracle: q is within 1e-6 of a rational point of
    denominator at most 200 whose orbit closes within 2000 steps."""
    ((a, b), (c, d)) = sys.matrix
    qxy = q.xy()
    for den in range(1, 201):
        nx, ny = int(round(qxy[0] * den)), int(round(qxy[1] * den))
        cand = np.array([(nx % den) / den, (ny % den) / den])
        if models.chart_distance(sys.chart, qxy, cand) >= 1e-6:
            continue
        u0, v0 = nx % den, ny % den
        u, v = u0, v0
        for _ in range(2000):
            u, v = (a * u + b * v) % den, (c * u + d * v) % den
            if (u, v) == (u0, v0):
                return True
    return False


def _crit_periodic_density(ctx):
    sys = ctx.cat
    consts = ctx.consts(sys)
    plan = periodic.plan_katok(sys, consts, 1e-2, sample_budget=60, seed=ctx.seed)
    bound = min(5e-3, plan.delta / 2.0)
    n_ok = envelope_bad = oracle_bad = 0
    max_res = max_dist = 0.0
    t0 = time.perf_counter()
    for i in range(10):
        for j in range(10):
            p = sys.point(i / 10.0, j / 10.0)
            try:
                y, k = periodic.find_return(sys, p, bound, plan.k0)
            except BudgetError:
                continue
            res = periodic.katok_iterate(sys, y, k, plan, consts)
            dist = models.distance(sys, res["q"], p)
            max_res = max(max_res, res["residual"])
            max_dist = max(max_dist, dist)
            if not res["envelope_ok"]:
                envelope_bad += 1
                continue
            if res["residual"] < 1e-9 and dist < 1e-2:
                if _rational_match(sys, res["q"]):
                    n_ok += 1
                else:
                    oracle_bad += 1
    elapsed = time.perf_counter() - t0
    ok = n_ok >= 95 and envelope_bad == 0 and oracle_bad == 0 and elapsed < 60.0
    detail = {"n_seeds": 100, "n_ok": n_ok, "envelope_violations": envelope_bad,
              "oracle_mismatches": oracle_bad, "max_residual": max_res,
              "max_distance": max_dist, "k0": plan.k0}
    return ok, detail, (f"{n_ok}/100 seeds periodic within 1e-2, "
                        f"max residual {max_res:.1e}")


# -- criterion 7: holonomy correctness ----------------------------------------


def _crit_holonomy(ctx):
    sys = ctx.cat
    params = holonomy.default_params(sys, sample_budget=160, seed=ctx.seed)
    es = sys.eigen_direction(stable=True)
    eu = sys.eigen_direction(stable=False)
    rng = np.random.default_rng(ctx.seed + 71)
    max_dev = 0.0
    branch_faults = 0
    for _ in range(1000):
        x = sys.point(*rng.uniform(0.0, 1.0, 2))
        z = sys.point(*(x.xy() + rng.uniform(-1, 1) * params.delta * es))
        ang = rng.uniform(0.0, 2.0 * math.pi)
        y = sys.point(*(x.xy() + rng.uniform(-0.9, 0.9) * params.delta
                        * np.array([math.cos(ang), math.sin(ang)])))
        pts = holonomy.holonomy(sys, x, y, z, "stable", params)
        if len(pts) != 1:
            branch_faults += 1
            continue
        # independent closed form: the unstable line of z meets the
        # stable line of y where the z->y offset projects onto e_u
        off = unwrap_to(sys.chart, z.xy(), y.xy()) - z.xy()
        want = models._wrap1(z.xy() + float(off @ eu) * eu)
        max_dev = max(max_dev, models.chart_distance(sys.chart, pts[0].xy(), want))
    pa = ctx.pa
    params_pa = holonomy.default_params(pa, sample_budget=160, seed=ctx.seed)
    w = pa.point(0.5, 0.5)
    es2 = pa.eigen_direction(stable=True)
    eu2 = pa.eigen_direction(stable=False)
    x = pa.point(*(w.xy() + np.array([-0.02, -0.01])))
    z = pa.point(*(x.xy() + 0.015 * es2))
    y = pa.point(*(x.xy() + 0.03 * eu2))
    pts = holonomy.holonomy(pa, x, y, z, "stable", params_pa)
    carrier = local_arc(pa, z, "unstable", params_pa.eps)
    target = local_arc(pa, y, "stable", params_pa.eps)
    on_arcs = all(
        _project_to_lift(arc, p.xy())[1][0] <= 10 * params_pa.tol
        for p in pts for arc in (carrier, target))
    distinct = len(pts) == 2 and models.distance(pa, pts[0], pts[1]) > 1e-6
    ok = branch_faults == 0 and max_dev < 1e-10 and distinct and on_arcs
    detail = {"n_linear": 1000, "max_deviation": max_dev,
              "branch_faults": branch_faults, "spine_branches": len(pts),
              "spine_branches_verified": bool(distinct and on_arcs)}
    return ok, detail, (f"1000 linear solves within {max_dev:.1e}, "
                        f"two-branch spine instance verified")


# -- criterion 8: pseudo-isometry ----------------------------------------------


def _crit_pseudo_isometry(ctx):
    sys = ctx.cat
    consts = ctx.consts(sys)
    params = holonomy.default_params(sys, sample_budget=160, seed=ctx.seed)
    rep = holonomy.pseudo_isometry_probe(sys, 10000, [1e-6], params, consts,
                                         seed=ctx.seed + 81,
                                         diam_range=(1e-13, 1e-2), depth=2)
    gamma = rep["modulus_table"][0]["gamma_worst"]
    ok = (rep["n_samples"] == 10000 and not rep["obstructions"]
          and gamma >= 1e-3)
    detail = {"n_samples": rep["n_samples"],
              "n_obstructions": len(rep["obstructions"]),
              "max_deviation": rep["max_deviation_worst"],
              "gamma_at_1e-6": gamma}
    return ok, detail, (f"10000 rectangles, deviation <= 1e-6 up to size "
                        f"{gamma:.3g} (need 1e-3)")


# -- criterion 9: chain recurrence ---------------------------------------------


def _crit_chain_recurrence(ctx):
    rows = []
    ok = True
    for sys in (ctx.cat, ctx.pa):
        for res in (64, 128, 256):
            g = chainrec.build_graph(sys, res, 6.4 / res)
            part = chainrec.chain_classes(g)
            verdict = chainrec.transitivity_verdict(part)
            rows.append({"model": sys.kind, "res": res, "eps": 6.4 / res,
                         "n_classes": part.n_classes, "verdict": verdict})
            ok = ok and part.n_classes == 1 and verdict == "transitive-candidate"
    ns_rows = []
    for res in (128, 256):
        g = chainrec.build_graph(ctx.ns, res, 0.01)
        part = chainrec.chain_classes(g)
        orles = chainrec.class_order(ctx.ns, g, part)
        roles = orles["roles"]
        reps = [i for i, r in roles.items() if r == "repeller"]
        atts = [i for i, r in roles.items() if r == "attractor"]
        pair_ok = (part.n_classes == 2 and len(reps) == 1 and len(atts) == 1
                   and orles["order"] == [(reps[0], atts[0])])
        ns_rows.append({"res": res, "n_classes": part.n_classes,
                        "roles": {str(k): v for k, v in sorted(roles.items())},
                        "order": [list(p) for p in orles["order"]]})
        ok = ok and pair_ok
    detail = {"covering": rows, "north_south": ns_rows}
    return ok, detail, ("6 covering decompositions transitive-candidate, "
                        "north-south repeller < attractor at 128/256")


# -- criterion 10: sector geometry ----------------------------------------------


def _crit_sectors(ctx):
    pa = ctx.pa
    spines = sectors.enumerate_spines(pa, eps=0.1, grid_res=64)
    srch = sectors.find_sectors(pa)
    regular = []
    spine_counts = []
    clearances = []
    violations = []
    injective = []
    grid_nodes = 0
    for s in srch.sectors:
        regular.append(sectors.classify_sector(pa, s) == "regular")
        inside = 0
        for w in models.spine_points(pa):
            xy = w.xy()
            _, sg, k = cover_reps(pa.chart, xy, xy, s.mirror_center - 0.9,
                                  s.mirror_center + 0.9)
            if any(sectors._ray_cast(s.polygon, r) for r in sg[:, None] * xy + k):
                inside += 1
        spine_counts.append(inside)
        out = sectors.enclosing_sector(pa, s)
        clearances.append(out["clearance"] if out["found"] else -1.0)
        rep = sectors.sector_parametrization(pa, s, grid=32)
        cr = rep["continuity_report"]
        violations.append(cr["monotone_violations"])
        injective.append(bool(cr["injective_ok"]))
        grid_nodes = rep["f1_samples"].shape[0]
    ok = (len(spines) == 4 and len(srch.sectors) == 4 and all(regular)
          and spine_counts == [1, 1, 1, 1] and all(c > 0 for c in clearances)
          and violations == [0, 0, 0, 0] and all(injective)
          and grid_nodes == 33 and not srch.exhausted)
    detail = {"n_spines": len(spines), "n_sectors": len(srch.sectors),
              "all_regular": bool(all(regular)), "spines_per_sector": spine_counts,
              "enclosing_clearances": clearances, "grid_nodes": 33,
              "monotone_violations": violations,
              "injective": injective}
    return ok, detail, ("4 spines, 4 regular sectors, enclosing clearances "
                        "positive, 33x33 monotone")


_CRITERIA = [
    (1, "metric-axioms", 120.0, _crit_metric_axioms),
    (2, "hyperbolic-decay", 120.0, _crit_decay),
    (3, "self-similarity", 180.0, _crit_self_similarity),
    (4, "weight-sandwich", 60.0, _crit_sandwich),
    (5, "tail-exponent-minimality", 10.0, _crit_tail_exponent),
    (6, "periodic-density", 60.0, _crit_periodic_density),
    (7, "holonomy-correctness", 60.0, _crit_holonomy),
    (8, "pseudo-isometry", 120.0, _crit_pseudo_isometry),
    (9, "chain-recurrence", 180.0, _crit_chain_recurrence),
    (10, "sector-geometry", 180.0, _crit_sectors),
]


def criterion_ids():
    return [i for i, _, _, _ in _CRITERIA] + [11]


def run_criterion(cid: int, seed: int = 0, ctx=None) -> dict:
    """One criterion record {criterion, name, passed, seconds, detail}."""
    if cid == 11:
        return _run_reproducibility(seed, list(range(1, 11)))
    for i, name, budget, fn in _CRITERIA:
        if i == cid:
            break
    else:
        raise ValueError(f"unknown acceptance criterion {cid}")
    ctx = _Ctx(seed) if ctx is None else ctx
    t0 = time.perf_counter()
    passed, detail, summary = fn(ctx)
    seconds = time.perf_counter() - t0
    if seconds > budget:
        passed = False
        summary += f" [over time budget {budget:.0f}s]"
    return {"criterion": cid, "name": name, "passed": bool(passed),
            "seconds": seconds, "budget_seconds": budget,
            "summary": summary, "detail": detail}


def _strip_timing(records):
    return [{k: v for k, v in r.items() if k != "seconds"} for r in records]


def canonical_body(records) -> str:
    """Deterministic JSON of the records with wall-clock fields removed."""
    return json.dumps(_strip_timing(records), sort_keys=True,
                      separators=(",", ":"))


def _run_batch(ids, seed):
    ctx = _Ctx(seed)
    return [run_criterion(i, seed, ctx) for i in ids]


def _run_reproducibility(seed, ids, first=None) -> dict:
    ids = [i for i in ids if i != 11] or list(range(1, 11))
    t0 = time.perf_counter()
    a = first if first is not None else _run_batch(ids, seed)
    b = _run_batch(ids, seed)
    body_a, body_b = canonical_body(a), canonical_body(b)
    sha_a = hashlib.sha256(body_a.encode()).hexdigest()
    sha_b = hashlib.sha256(body_b.encode()).hexdigest()
    passed = body_a == body_b
    return {"criterion": 11, "name": "reproducibility",
            "passed": bool(passed), "seconds": time.perf_counter() - t0,
            "budget_seconds": None,
            "summary": f"two seeded runs of criteria {ids[0]}-{ids[-1]}, "
                       f"bodies {'identical' if passed else 'DIFFER'}",
            "detail": {"criteria": ids, "bodies_match": bool(passed),
                       "body_sha256_first": sha_a, "body_sha256_second": sha_b}}


def parse_suite(which) -> list:
    """'all', a single id, or a comma list of criterion ids."""
    if which in (None, "all"):
        return criterion_ids()
    ids = []
    for tok in str(which).split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            cid = int(tok)
        except ValueError:
            raise ValueError(f"bad criterion id {tok!r} in suite {which!r}")
        if cid not in criterion_ids():
            raise ValueError(f"unknown acceptance criterion {cid}")
        ids.append(cid)
    if not ids:
        raise ValueError(f"empty acceptance suite {which!r}")
    return ids


def run_suite(which="all", seed: int = 0) -> dict:
    """Run the requested criteria; returns the machine-readable manifest."""
    ids = parse_suite(which)
    ctx = _Ctx(seed)
    records = [run_criterion(i, seed, ctx) for i in ids if i != 11]
    if 11 in ids:
        records.append(_run_reproducibility(
            seed, [i for i in ids if i != 11], first=records or None))
    body = canonical_body(records)
    return {"suite": [r["criterion"] for r in records], "seed": int(seed),
            "passed": all(r["passed"] for r in records),
            "body_sha256": hashlib.sha256(body.encode()).hexdigest(),
            "criteria": records}


def format_lines(manifest) -> list:
    """One pass/fail line per criterion plus a closing verdict."""
    lines = []
    for r in manifest["criteria"]:
        lines.append("criterion {:>2} {} {:<26} {} [{:.1f}s]".format(
            r["criterion"], "PASS" if r["passed"] else "FAIL",
            r["name"], r["summary"], r["seconds"]))
    lines.append("acceptance {}: {}/{} criteria passed".format(
        "PASSED" if manifest["passed"] else "FAILED",
        sum(r["passed"] for r in manifest["criteria"]),
        len(manifest["criteria"])))
    return lines
