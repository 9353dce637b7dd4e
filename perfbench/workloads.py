"""The four benchmark workloads: seeded inputs, items and output checks.

``build(name, seed, scale)`` does a workload's whole set-up (models,
calibration, holonomy parameters, the Katok plan, input generation) and
returns a :class:`Workload` whose items are the timed calls.  Every
library call goes through its module attribute (``cwmetric.cw_metric``,
not a local name), so the tracer sees it.

Each item returns the library's output; ``summary`` reduces it to plain
JSON for the output digest, ``check`` lists what is wrong with it, and
``failed`` flags a non-converged result.  An item that raises counts as
failed too.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from cwdyn import chainrec, continua, cwmetric, holonomy, models, periodic, sectors

import oracle

@dataclass
class Item:
    kind: str
    inputs: object                   # JSON-able description of the inputs
    run: object                      # () -> output
    summary: object                  # output -> JSON-able
    check: object = None             # output -> list of problems
    failed: object = None            # output -> True when not converged


@dataclass
class Workload:
    name: str
    items: list
    # {item index: summary of an item that did not fail} -> (problems,
    # indices of items that failed); runs on every round
    round_check: object = None
    stage_sample: list = field(default_factory=list)   # (sys, cont, consts, depth)
    scale_items: bool = True         # report item times at the reference speed


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _stratified_log(rng, n, lo, hi):
    """n values log-uniform in [lo, hi], one per equal-width log stratum."""
    u = (np.arange(n) + rng.uniform(0.0, 1.0, n)) / n
    return np.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _n(full, tiny, scale):
    return full if scale == "full" else tiny


# -- metric-fresh ---------------------------------------------------------------


def _profile_summary(p):
    return [p["N"], p["rho"], p["P"], p["Dprime"], p["D"], p["achieved_index"],
            p["truncated"]]


def _sandwich(p):
    rho, pw, dp, d = p["rho"], p["P"], p["Dprime"], p["D"]
    bad = []
    if not pw <= rho <= 4.0 * pw + 1e-15:
        bad.append(f"P <= rho <= 4P fails: P={pw!r} rho={rho!r}")
    if not d >= dp >= pw >= 0.0:
        bad.append(f"D >= D' >= P >= 0 fails: D={d!r} D'={dp!r} P={pw!r}")
    if not dp <= 1.0:
        bad.append(f"D' <= 1 fails: D'={dp!r}")
    return bad


def _metric_models():
    cat = models.make_model("cat-map")
    pa = models.make_model("sphere-pA")
    return cat, pa, cwmetric.calibrate(cat), cwmetric.calibrate(pa)


# Sphere-pA arcs that also run record-loaded come from this fixed stream, not
# from the seed: a lift-less sphere-pA arc can get another D than its lifted
# twin, and such a twin counts as failed, so its inputs must not depend on
# the seed for the failed share to stay fixed (1 of these 16, see README).
PA_TWIN_STREAM = [0, 5]


def metric_fresh(seed, scale):
    cat, pa, cc, cp = _metric_models()
    lam_u = oracle.eigen(cat.matrix)[0]
    rng = np.random.default_rng([seed, 1])
    fixed = np.random.default_rng(PA_TWIN_STREAM)
    hi = 0.45 * cat.c
    # (model, depth, count, stream, arc index -> has a record-loaded twin):
    # the cat-map depth-4 group is the largest, so the median item falls
    # inside it
    groups = [(cat, cc, 2, _n(32, 4, scale), rng, lambda i: i % 4 < 2),
              (pa, cp, 2, _n(16, 2, scale), rng, lambda i: False),
              (pa, cp, 2, 16, fixed, lambda i: True),
              (cat, cc, 4, _n(96, 4, scale), rng, lambda i: False),
              (pa, cp, 4, _n(32, 2, scale), rng, lambda i: False)]
    items, twins, stage = [], [], []
    for sys, consts, depth, count, stream, twinned in groups:
        for i, eps in enumerate(_stratified_log(stream, count, 1e-7, hi)):
            kind = "stable" if i % 2 == 0 else "unstable"
            arc = models.local_arc(sys, sys.point(*stream.uniform(0.0, 1.0, 2)), kind,
                                   float(eps))
            if len(items) % 4 == 0:
                stage.append((sys, arc, consts, depth))
            items.append(_profile_item(sys, consts, arc, depth, float(eps), lam_u,
                                       symmetry=len(items) % 4 == 0))
            if twinned(i):
                twins.append((len(items) - 1, sys, consts, arc))
    # the lift-less form `cwdyn metric --continuum` reads
    pairs = []
    for twin, sys, consts, arc in twins:
        rec = continua.from_record(continua.to_record(arc))
        items.append(_profile_item(sys, consts, rec, 2, None, lam_u, symmetry=False))
        pairs.append((twin, len(items) - 1, sys is pa))
    for sys, consts in ((cat, cc), (pa, cp)):
        for _ in range(2):
            p = sys.point(*rng.uniform(0.0, 1.0, 2))
            single = continua.MarkedContinuum(chart=sys.chart, vertices=np.array([p.xy()]),
                                              mark_p=0, mark_q=0)
            items.append(_profile_item(sys, consts, single, 2, None, lam_u, symmetry=False))

    def round_check(summaries):
        """A record-loaded arc whose D differs from its lifted twin's fails
        the check on cat-map and counts as failed on sphere-pA, where the
        lift-less escape predicate is known to misjudge (CHANGES.md)."""
        bad, failed = [], set()
        for lifted, rec, known in pairs:
            if lifted in summaries and rec in summaries:
                a, b = summaries[lifted][4], summaries[rec][4]
                if math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0):
                    continue
                if known:
                    failed.add(rec)
                else:
                    bad.append(f"record-loaded arc D={b!r} differs from lifted twin D={a!r}")
        return bad, failed

    return Workload("metric-fresh", items, round_check, stage)


def _cont_inputs(cont):
    return [cont.chart, cont.vertices.tolist(), cont.mark_p, cont.mark_q,
            cont.lift is not None]


def _profile_item(sys, consts, cont, depth, eps, lam_u, symmetry):
    """cw_metric_profile of one continuum; ``eps`` is the half-length of a
    lifted arc (None for record-loaded arcs and singletons)."""

    def run():
        return cwmetric.cw_metric_profile(sys, cont, consts, depth=depth)

    def check(p):
        bad = _sandwich(p)
        if cont.n_vertices == 1 and p["D"] != 0.0:
            bad.append(f"singleton has D={p['D']!r}")
        if eps is not None and sys.kind == "cat-map":
            want = oracle.eigen_arc_escape(2.0 * eps, lam_u, consts.c)
            if want is not None and p["N"] != want:
                bad.append(f"escape time {p['N']} != closed form {want} (eps={eps!r})")
            if not math.isclose(p["rho"], consts.alpha ** (-p["N"]), rel_tol=1e-12):
                bad.append(f"rho={p['rho']!r} != alpha^-N")
        if symmetry:
            rev = cwmetric.cw_metric(sys, cont.with_marks(cont.mark_q, cont.mark_p),
                                     consts, depth=depth)
            if rev != p["D"]:
                bad.append(f"D not symmetric in the marks: {p['D']!r} vs {rev!r}")
        return bad

    return Item("profile", [_cont_inputs(cont), depth], run, _profile_summary, check)


# -- metric-orbit -------------------------------------------------------------------


def _below_xi_range(sys, consts):
    """Half-lengths whose escape time puts lam^-N safely under xi."""
    lam_u = oracle.eigen(sys.matrix)[0]
    n_min = math.ceil(math.log(1.0 / (0.9 * consts.xi)) / math.log(consts.lam))
    hi = consts.c / lam_u ** (n_min + 1)
    return hi / 10 ** 0.8, hi


def metric_orbit(seed, scale):
    cat, pa, cc, cp = _metric_models()
    rng = np.random.default_rng([seed, 2])
    shifts = list(range(-10, 11))
    groups = []
    for sys, consts, regular, below in ((cat, cc, _n(48, 2, scale), _n(32, 2, scale)),
                                        (pa, cp, _n(96, 2, scale), _n(32, 2, scale))):
        groups.append((sys, consts, regular, 1e-7, 0.45 * sys.c, False))
        groups.append((sys, consts, below, *_below_xi_range(sys, consts), True))
    items = []
    for sys, consts, count, lo, hi, below in groups:
        for i, eps in enumerate(_stratified_log(rng, count, lo, hi)):
            kind = "stable" if i % 2 == 0 else "unstable"
            arc = models.local_arc(sys, sys.point(*rng.uniform(0.0, 1.0, 2)), kind, float(eps))
            items.append(_family_item(sys, consts, arc, kind, shifts, below))
    return Workload("metric-orbit", items)


def _family_item(sys, consts, arc, kind, shifts, below):
    def run():
        return cwmetric.cw_metric_family(sys, arc, consts, shifts, depth=3)

    def summary(fam):
        return [[j, fam[j]] for j in sorted(fam)]

    def check(fam):
        bad = []
        d0, lam = fam[0], consts.lam
        sgn = 1 if kind == "stable" else -1      # the contracting direction
        for n in range(1, 11):
            if fam[sgn * n] > 4.0 * lam ** (-n) * d0 + 1e-12:
                bad.append(f"decay fails at n={n}: {fam[sgn * n]!r} > 4 lam^-n {d0!r}")
        if below and not 0.0 < d0 <= consts.xi:
            bad.append(f"arc sized below xi has D={d0!r} > xi={consts.xi!r}")
        if 0.0 < d0 <= consts.xi:
            rel = abs(max(fam[1], fam[-1]) - lam * d0) / (lam * d0)
            if rel > 1e-6 + lam ** (-consts.horizon):
                bad.append(f"self-similarity rel err {rel:.3g}")
            if kind == "stable":
                for k in range(1, 9):
                    want = lam ** (-k) * d0
                    if abs(fam[k] - want) > 1e-9 * want:
                        bad.append(f"stable scaling fails at k={k}")
        return bad

    return Item("family", [_cont_inputs(arc), shifts], run, summary, check)


# -- arc-geometry -----------------------------------------------------------------


def _coords(points):
    return [list(p.coords) for p in points]


def arc_geometry(seed, scale):
    cat = models.make_model("cat-map")
    pa = models.make_model("sphere-pA")
    consts = cwmetric.calibrate(cat)
    params = holonomy.default_params(cat)
    params_pa = holonomy.default_params(pa)
    plan = periodic.plan_katok(cat, consts, 1e-2, sample_budget=60)
    lam_u, _, eu, es = oracle.eigen(cat.matrix)
    rng = np.random.default_rng([seed, 3])
    items = []

    for _ in range(_n(24, 3, scale)):
        x = rng.uniform(0.0, 1.0, 2)
        z = (x + rng.uniform(-1.0, 1.0) * params.delta * es) % 1.0
        ang = rng.uniform(0.0, 2.0 * math.pi)
        y = (x + rng.uniform(-0.9, 0.9) * params.delta
             * np.array([math.cos(ang), math.sin(ang)])) % 1.0
        items.append(_holonomy_item(cat, params, *(cat.point(*v) for v in (x, y, z))))

    for _ in range(_n(8, 1, scale)):
        probe_seed = int(rng.integers(2 ** 31))
        items.append(_probe_item(cat, params, consts, probe_seed))

    bound = min(5e-3, plan.delta / 2.0)
    for _ in range(_n(16, 2, scale)):
        items.append(_return_item(cat, cat.point(*rng.uniform(0.0, 1.0, 2)), bound, plan.k0))

    # every seed gets the same periods, in turn, and start offsets spread
    # evenly in log size; the seed picks the targets and the directions
    targets = oracle.rational_targets(cat.matrix, 12, 12)
    periods = sorted({t[3] for t in targets})
    n_katok = _n(16, 2, scale)
    for i, u01 in enumerate((np.arange(n_katok) + rng.uniform(0.0, 1.0, n_katok)) / n_katok):
        per = periods[i % len(periods)]
        pool = [t for t in targets if t[3] == per]
        u, v, den, _ = pool[int(rng.integers(len(pool)))]
        lo, hi = math.log(1e-9), math.log(min(1e-6, 1e-2 / lam_u ** per))
        mag = math.exp(lo + u01 * (hi - lo))
        ang = rng.uniform(0.0, 2.0 * math.pi)
        start = cat.point(u / den + mag * math.cos(ang), v / den + mag * math.sin(ang))
        items.append(_katok_item(cat, plan, consts, start, (u, v, den), per))
    # period 14 on the cat map: these fail until katok_iterate's stopping
    # rule is fixed, so their inputs do not depend on the seed
    for u, v in ((2, 5), (3, 1)):
        start = cat.point(u / 13 + 1e-9, v / 13 + 1.3e-9)
        items.append(_katok_item(cat, plan, consts, start, (u, v, 13), 14))

    items.append(_spine_holonomy_item(pa, params_pa))
    items.extend(_sector_items(pa))
    return Workload("arc-geometry", items)


def _holonomy_item(sys, params, x, y, z):
    def run():
        return holonomy.holonomy(sys, x, y, z, "stable", params)

    def check(pts):
        if len(pts) != 1:
            return [f"cat-map holonomy gave {len(pts)} branches"]
        want = oracle.line_crossing(sys.matrix, z.xy(), y.xy())
        dev = float(oracle.chart_dist(oracle.TORUS, pts[0].xy(), want))
        return [] if dev < 1e-10 else [f"holonomy image off the closed form by {dev:.3g}"]

    return Item("holonomy", _coords((x, y, z)), run, _coords, check)


def _probe_item(sys, params, consts, probe_seed):
    def run():
        return holonomy.pseudo_isometry_probe(sys, 6, [1e-6], params, consts,
                                              seed=probe_seed, diam_range=(1e-13, 1e-2),
                                              depth=2)

    def summary(rep):
        return [rep["n_samples"], rep["max_deviation_best"], rep["max_deviation_worst"],
                len(rep["obstructions"])]

    def check(rep):
        bad = []
        if rep["n_samples"] != 6 or rep["obstructions"]:
            bad.append(f"probe: {rep['n_samples']} rectangles, "
                       f"{len(rep['obstructions'])} obstructions")
        if not rep["max_deviation_worst"] <= 1e-6:
            bad.append(f"|D(C*)/D(C) - 1| = {rep['max_deviation_worst']:.3g} > 1e-6")
        return bad

    return Item("probe", probe_seed, run, summary, check)


def _return_item(sys, p, bound, k_min):
    def run():
        return periodic.find_return(sys, p, bound, k_min)

    def summary(out):
        y, k = out
        return [list(y.exact), k]

    def check(out):
        y, k = out
        u, v, den = y.exact
        bad = []
        per = oracle.orbit_period(sys.matrix, u, v, den)
        if k % per or not k_min <= k <= sys.horizon:
            bad.append(f"return time {k} is not a multiple >= {k_min} of the period {per}")
        if float(oracle.chart_dist(oracle.TORUS, y.xy(), [u / den, v / den])) > 1e-12:
            bad.append("return point is off its rational coordinates")
        if not float(oracle.chart_dist(oracle.TORUS, y.xy(), p.xy())) < bound:
            bad.append("return point is not within the bound")
        return bad

    return Item("find_return", [list(p.coords), bound, k_min], run, summary, check)


def _katok_item(sys, plan, consts, start, target, k):
    u, v, den = target
    per = oracle.orbit_period(sys.matrix, u, v, den)

    def run():
        return periodic.katok_iterate(sys, start, k, plan, consts)

    def summary(res):
        return [list(res["q"].coords), res["converged"], len(res["steps"]), res["residual"]]

    def check(res):
        bad = []
        if k % per:
            bad.append(f"target period {per} does not divide k={k}")
        dev = float(oracle.chart_dist(oracle.TORUS, res["q"].xy(), [u / den, v / den]))
        if dev > 1e-12:
            bad.append(f"Katok limit is {dev:.3g} from its rational target")
        return bad

    return Item("katok", [list(start.coords), k], run, summary, check,
                failed=lambda res: not res["converged"])


def _spine_holonomy_item(pa, params):
    _, _, eu, es = oracle.eigen(pa.matrix)
    w = np.array([0.5, 0.5])
    x = pa.point(*(w + np.array([-0.02, -0.01])))
    z = pa.point(*((x.xy() + 0.015 * es) % 1.0))
    y = pa.point(*((x.xy() + 0.03 * eu) % 1.0))

    def run():
        return holonomy.holonomy(pa, x, y, z, "stable", params)

    def check(pts):
        if len(pts) != 2:
            return [f"spine holonomy gave {len(pts)} branches, want 2"]
        bad = []
        if not float(oracle.chart_dist(pa.chart, pts[0].xy(), pts[1].xy())) > 1e-6:
            bad.append("spine holonomy branches coincide")
        for p in pts:
            for base, e in ((z, eu), (y, es)):
                start = base.xy() - params.eps * e
                if oracle.dist_to_segment(pa.chart, p.xy(), start, 2 * params.eps * e) \
                        > 10 * params.tol:
                    bad.append("spine holonomy branch is off its arcs")
        return bad

    return Item("spine_holonomy", _coords((x, y, z)), run, _coords, check)


def _monotone_injective(eig):
    """Own check of one (g+1, g+1, 2) eigen-coordinate sample grid: the
    first coordinate is monotone down each column, the second along each
    row, and no two nodes are within 1e-9 of each other."""
    bad = []
    lines = [eig[:, j, 0] for j in range(eig.shape[1])] + \
        [eig[i, :, 1] for i in range(eig.shape[0])]
    for vals in lines:
        d = np.diff(vals)
        if np.any(d < -1e-9) and np.any(d > 1e-9):
            bad.append("parametrization is not monotone")
            break
    flat = eig.reshape(-1, 2)
    gaps = np.linalg.norm(flat[:, None, :] - flat[None, :, :], axis=-1)
    np.fill_diagonal(gaps, np.inf)
    if gaps.min() < 1e-9:
        bad.append("parametrization is not injective")
    return bad


def _sector_items(pa):
    state = {}
    half = {(0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)}

    def spines():
        return sectors.enumerate_spines(pa, eps=0.1, grid_res=64)

    def check_spines(found):
        got = [tuple(p.coords) for p in found]
        return [] if len(got) == 4 and set(got) == half else [f"spines {got}"]

    def search():
        state["search"] = sectors.find_sectors(pa)
        return state["search"]

    def search_summary(s):
        return [[list(r.spine.coords) if r.spine else None, r.area] for r in s.sectors] \
            + [s.seeds_probed, s.skipped_pairs]

    def check_search(s):
        spines_hit = {tuple(r.spine.coords) for r in s.sectors if r.spine is not None}
        if len(s.sectors) != 4 or spines_hit != half or s.exhausted:
            return [f"find_sectors: {len(s.sectors)} sectors at {sorted(spines_hit)}"]
        return []

    items = [Item("spines", [0.1, 64], spines, _coords, check_spines),
             Item("find_sectors", None, search, search_summary, check_search)]
    for i in range(4):
        items.append(Item(
            "classify", i, lambda i=i: sectors.classify_sector(pa, state["search"].sectors[i]),
            lambda out: out,
            lambda out: [] if out == "regular" else [f"sector is {out}"]))
    for i in range(4):
        items.append(Item(
            "enclosing", i, lambda i=i: sectors.enclosing_sector(pa, state["search"].sectors[i]),
            lambda out: [out["found"], out["clearance"], out["attempts"]],
            lambda out: [] if out["found"] and out["clearance"] > 0.0
            else [f"no enclosing sector with positive clearance: {out['clearance']!r}"]))
    for i in range(4):
        items.append(Item(
            "parametrization", i,
            lambda i=i: sectors.sector_parametrization(pa, state["search"].sectors[i], grid=32),
            lambda out: hashlib.sha256(out["f1_eig"].tobytes() + out["f2_eig"].tobytes()
                                       + out["f1_samples"].tobytes()
                                       + out["f2_samples"].tobytes()).hexdigest(),
            lambda out: ([] if out["f1_eig"].shape == (33, 33, 2) else ["grid is not 33x33"])
            + _monotone_injective(out["f1_eig"]) + _monotone_injective(out["f2_eig"])))
    return items


# -- grid-scan ------------------------------------------------------------------------


def grid_scan(seed, scale):
    rng = np.random.default_rng([seed, 4])
    systems = {k: models.make_model(k) for k in ("cat-map", "sphere-pA", "north-south")}
    if scale == "full":
        cases = [("cat-map", 128), ("cat-map", 256), ("sphere-pA", 128), ("sphere-pA", 256),
                 ("north-south", 128), ("north-south", 256)]
    else:
        cases = [("cat-map", 32), ("sphere-pA", 32), ("north-south", 128)]
    items = []
    for kind, res in cases:
        eps = 0.01 if kind == "north-south" else 6.4 / res
        cells = rng.choice(res * res, size=_n(48, 8, scale), replace=False)
        items.append(_grid_item(systems[kind], res, eps, np.sort(cells)))
    # items are single 1-10 s calls, mostly memory-bound: reference samples
    # before and after one say little about the speed during it
    return Workload("grid-scan", items, scale_items=False)


def _grid_item(sys, res, eps, sample_cells):
    """build_graph + chain_classes (+ class_order on north-south).

    The check runs on the full graph, so the item returns it; its summary
    keeps only what the digest needs.
    """
    ns = sys.kind == "north-south"

    def run():
        g = chainrec.build_graph(sys, res, eps)
        part = chainrec.chain_classes(g)
        order = chainrec.class_order(sys, g, part) if ns else None
        return g, part, order

    def summary(out):
        g, part, order = out
        return [int(g.adjacency.nnz), [int(c.size) for c in part.classes],
                None if order is None else [list(p) for p in order["order"]]]

    def check(out):
        g, part, order = out
        bad = []
        n = res * res
        if not ns:
            if part.n_classes != 1 or part.classes[0].size != n:
                bad.append(f"{sys.kind} res {res}: {part.n_classes} classes, not one "
                           f"covering all {n} cells")
        else:
            roles = order["roles"]
            rep = [i for i, r in roles.items() if r == "repeller"]
            att = [i for i, r in roles.items() if r == "attractor"]
            if part.n_classes != 2 or len(rep) != 1 or len(att) != 1 \
                    or order["order"] != [(rep[0], att[0])]:
                bad.append(f"north-south res {res}: order {order['order']} roles {roles}")
            else:
                # f pushes colatitude from 0 (repeller) toward 1 (attractor)
                rows = np.arange(res) * res
                if not np.all(part.labels[rows] == rep[0]):
                    bad.append("colat-0 row is not in the repeller")
                if not np.all(part.labels[rows + res - 1] == att[0]):
                    bad.append("colat-1 row is not in the attractor")
        want = oracle.adjacency_rows(sys.kind, sys.chart, sys.matrix, res, eps, sample_cells)
        adj = g.adjacency
        for cell, (sure, unsure) in zip(sample_cells, want):
            row = set(adj.indices[adj.indptr[cell]:adj.indptr[cell + 1]].tolist())
            if not sure <= row or not row <= sure | unsure:
                bad.append(f"adjacency row of cell {cell} differs from the edge rule")
        return bad

    return Item("grid", [sys.kind, res, eps, sample_cells.tolist()], run, summary, check)


BUILDERS = {"metric-fresh": metric_fresh, "metric-orbit": metric_orbit,
            "arc-geometry": arc_geometry, "grid-scan": grid_scan}


def build(name, seed, scale="full"):
    return BUILDERS[name](seed, scale)


def inputs_digest(work):
    """Digest of a workload's generated inputs."""
    return digest([[item.kind, item.inputs] for item in work.items])
