"""Direct versions of library passes, for the tests to compare against.

The library never builds f^n(C): cwmetric evaluates each piece of a
continuum at iterate n in closed form.  The first helpers build the image
of a lifted eigen-arc the direct way, so a test can run the metric on it
and check that the closed form gives the same value.  Then come the
crossings of plain polylines edge by edge, which the library, crossing
lifted arcs only, no longer has, the arc frame's vertex bookkeeping and
the polyline walk that segments replaced, the Katok connecting path as
the vertex polyline that its two exact legs replaced, the Katok
transport through arcs and paths that the bracket of their lifts
replaced, the per-pair ring scan of the metric's block table that its
lockstep ring steps replaced, the flat-chart graph build as one window
per source that one stencil per group of image positions replaced, and
the per-point and per-seed loops that array passes replaced, kept so that
a test can ask for the same bits from both.
"""

import math

import numpy as np

from cwdyn import cwmetric, models, periodic, sectors
from cwdyn.continua import (MarkedContinuum, OffContinuumError, StraightLift, _crossings,
                            _dedupe_points, _nearest_on, _segments, concat, intersect,
                            subcontinuum, unwrap_path)
from cwdyn.cwmetric import cw_metric
from cwdyn.holonomy import HolonomyFault

# diameter samples a lift at most this far apart along it
_EDGE = 0.4


def iterate_lift(sys, lift: StraightLift, n: int) -> StraightLift:
    """The lift of the n-th image of an eigen-tagged lift: the cover start
    moves by exact integer arithmetic mod 1, the length by |eigenvalue|^n."""
    if n == 0:
        return lift
    start = models._exact_linear_mod1([models._mat_power(sys.matrix, n)], [lift.start_arr])[0]
    frame = models.eigen_frame(sys.matrix)
    ev = frame.ss if lift.stable else frame.su
    direction = lift.dir_arr if (ev > 0 or n % 2 == 0) else -lift.dir_arr
    return StraightLift(start=tuple(start), direction=tuple(direction),
                        length=lift.length * abs(ev) ** n, chart=lift.chart,
                        stable=lift.stable)


def image(sys, cont: MarkedContinuum, n: int) -> MarkedContinuum:
    """f^n of a lifted eigen-arc, marks and knot carried along, so its
    vertices are the arc's lift params on the image lift."""
    if n == 0:
        return cont
    img = MarkedContinuum(cont.chart, lift=iterate_lift(sys, cont.lift, n), knot=cont.knot)
    return img.with_marks(cont.mark_p, cont.mark_q)


def diameter(cont: MarkedContinuum) -> float:
    """Max pairwise chart distance over the vertices, and over a lifted
    continuum's lift at params spaced at most _EDGE along it."""
    v = cont.vertices
    if cont.lift is not None:
        need = int(np.ceil(cont.lift.length / _EDGE + 1.0))
        v = np.concatenate([v, cont.lift.project(np.linspace(0.0, 1.0, need))])
    return float(models.chart_distance(cont.chart, v[:, None, :], v[None, :, :]).max())


def fold_escape(w0, d, lo, hi, thr):
    """cwmetric._fold_escapes for one window, point by point in floats:
    sup{dist(w0 + s*d, Z^2) : s in [lo, hi]} > thr."""
    w0 = (float(w0[0]), float(w0[1]))
    d = (float(d[0]), float(d[1]))
    if (hi - lo) * max(abs(d[0]), abs(d[1])) > 2.0 * thr:
        return True
    ss = [lo, hi]
    for w, v in zip(w0, d):
        if v != 0.0:
            a, b = sorted((w + lo * v, w + hi * v))
            k = math.floor(b - 0.5) + 0.5  # the largest half-integer <= b
            if k >= a:
                ss.append(min(max((k - w) / v, lo), hi))
    for s in ss:
        x, y = w0[0] + s * d[0], w0[1] + s * d[1]
        if math.hypot(x - round(x), y - round(y)) > thr:
            return True
    return False


def _ln_at(frame, au, as_):
    lu, ls = abs(frame.su), abs(frame.ss)

    def ln_at(e):
        try:
            return math.hypot(au * (lu ** e), as_ * (ls ** e))
        except OverflowError:
            return math.inf

    return ln_at


def single_thresholds(frame, au, as_, c):
    """The length set of one piece, as cwmetric._length_sets gives it for
    many, by scalar walks from where one eigen-component alone reaches c:
    ("always", None, None), or ("split", e_back, e_fwd) with None for a
    tail that never escapes."""
    lu, ls = abs(frame.su), abs(frame.ss)
    ln_at = _ln_at(frame, au, as_)

    def first_above(e, lo):
        # the least exponent from lo on with length > c, walking from e;
        # the length increases from lo on
        e = max(e, lo)
        while not ln_at(e) > c:
            e += 1
        while e > lo and ln_at(e - 1) > c:
            e -= 1
        return e

    def last_above(e, hi):
        # the greatest exponent up to hi with length > c, walking from e;
        # the length decreases up to hi
        e = min(e, hi)
        while not ln_at(e) > c:
            e -= 1
        while e < hi and ln_at(e + 1) > c:
            e += 1
        return e

    e_u = int(math.ceil(math.log(c / abs(au)) / math.log(lu))) - 2 if au else None
    e_s = int(math.floor(math.log(c / abs(as_)) / math.log(ls))) + 2 if as_ else None
    if au != 0 and as_ != 0:
        # integer exponents bracketing the length minimum
        estar = math.log((abs(as_) * math.log(1.0 / ls))
                         / (abs(au) * math.log(lu))) / math.log(lu / ls)
        lo, hi = int(math.floor(estar)), int(math.floor(estar)) + 1
        if min(ln_at(lo), ln_at(hi)) > c:
            return ("always", None, None)
        return ("split", last_above(e_s, lo), first_above(e_u, hi))
    if au != 0:  # pure expanding: escapes forward only
        return ("split", None, first_above(e_u, -math.inf))
    # pure contracting: escapes backward only
    return ("split", last_above(e_s, math.inf), None)


def thresholds_from_minimum(frame, au, as_, c):
    """single_thresholds with each mixed-case tail walked from the length
    minimum, one exponent at a time."""
    lu, ls = abs(frame.su), abs(frame.ss)
    ln_at = _ln_at(frame, au, as_)

    if au != 0 and as_ != 0:
        estar = math.log((abs(as_) * math.log(1.0 / ls))
                         / (abs(au) * math.log(lu))) / math.log(lu / ls)
        lo, hi = int(math.floor(estar)), int(math.floor(estar)) + 1
        if min(ln_at(lo), ln_at(hi)) > c:
            return ("always", None, None)
        e = hi
        while not ln_at(e) > c:
            e += 1
        e_fwd = e
        e = lo
        while not ln_at(e) > c:
            e -= 1
        return ("split", e, e_fwd)
    if au != 0:
        e = int(math.ceil(math.log(c / abs(au)) / math.log(lu))) - 2
        while not ln_at(e) > c:
            e += 1
        while ln_at(e - 1) > c:
            e -= 1
        return ("split", None, e)
    e = int(math.floor(math.log(c / abs(as_)) / math.log(ls))) + 2
    while not ln_at(e) > c:
        e -= 1
    while ln_at(e + 1) > c:
        e += 1
    return ("split", e, None)


# -- polyline crossings -----------------------------------------------------


def polyline_intersect(c1: MarkedContinuum, c2: MarkedContinuum, tol: float = 1e-9) -> list:
    """Crossings of two continua of two or more vertices, edge pair by edge
    pair in lexicographic order: a lifted arc is its one cover segment, a
    plain polyline the edges of its unwrapped path.  A crossing up to tol
    past one edge's end is clamped onto it while the next edge holds it
    exactly, so the hits that needed no clamping are deduplicated first;
    the survivors keep pair order."""
    segs = []
    for c in (c1, c2):
        if c.lift is not None:
            segs.append(_segments(c))
        else:
            path = unwrap_path(c.chart, c.vertices)
            d = np.diff(path, axis=0)
            segs.append((path[:-1], d, np.linalg.norm(d, axis=-1)))
    nb = len(segs[1][0])
    ia, ib = np.divmod(np.arange(len(segs[0][0]) * nb), nb)
    raw, _, exact = _crossings(c1.chart, *segs, ia, ib, tol)
    first = np.argsort(~exact, kind="stable")
    keep = np.empty(len(raw), dtype=bool)
    keep[first] = _dedupe_points(c1.chart, raw[first], max(tol, 1e-12))
    return [models.Point(c1.chart, (float(p[0]), float(p[1]))) for p in raw[keep]]


# -- arcs and sector sides as polylines ------------------------------------


def arc_frame(sys, chart, xy, stable, eps, t):
    """models._arc_frame, unvalidated, with the parameter tx (n,) of each
    point on its arc and whether tx is a new vertex among the base
    parameters t: it is not when it lies within 1e-12 + 1e-5*|tx| of one
    of them."""
    frame = models.eigen_frame(sys.matrix)
    e = frame.es if stable else frame.eu
    fold = (models.torus_norm(2.0 * xy) <= models.SPINE_TOL) \
        & (chart == models.SPHERE_QUOTIENT)
    start = np.where(fold[:, None], xy, xy - eps * e)
    length = np.where(fold, eps, 2.0 * eps)
    tx = np.vecdot(xy - start, e) / length
    new = ~(np.abs(t - tx[:, None]) <= 1e-12 + 1e-5 * np.abs(tx)[:, None]).any(axis=1)
    return e, start, length, tx, new


def local_arc(sys, x, kind, eps, resolution):
    """The vertex params and lift that models.local_arc gave at a
    resolution, through arc_frame's vertex test."""
    stable = kind == "stable"
    t = np.linspace(0.0, 1.0, resolution)
    e, start, length, tx, new = arc_frame(sys, x.chart, x.xy()[None], stable, eps, t)
    if resolution > 2 and new[0]:
        t = np.sort(np.append(t, tx))
    return t, StraightLift(start=start[0], direction=e, length=float(length[0]),
                           stable=stable, chart=sys.chart)


def is_spine(sys, xy, eps):
    """models.is_spine on (n, 2) chart points, with the arc ends taken as
    the extreme two of the vertex parameters 0, 1/2, 1 and tx when tx is
    a new vertex."""
    e, start, length, tx, new = arc_frame(sys, sys.chart, xy, True, eps,
                                          np.array([0.0, 0.5, 1.0]))
    ends = [np.where(new & (tx < 0.0), tx, 0.0), np.where(new & (tx > 1.0), tx, 1.0)]
    d0, d1 = (models.chart_distance(sys.chart, xy, models.wrap_chart(
        sys.chart, start + (t * length)[:, None] * e)) for t in ends)
    return np.minimum(d0, d1) <= models.SPINE_TOL


def polyline_walk(pts, cross, side: int, h: float):
    """sectors._walk along a polyline: the point at arclength h beyond the
    position cross = (edge i, fraction t) of the vertices pts, toward the
    last vertex for side > 0 and the first otherwise."""
    i, t = cross
    pos = pts[i] + t * (pts[i + 1] - pts[i])
    remain = h
    step = 1 if side > 0 else -1
    j = i + 1 if side > 0 else i
    while 0 <= j < len(pts):
        seg_end = pts[j]
        d = float(np.linalg.norm(seg_end - pos))
        if d >= remain > 0:
            return pos + (seg_end - pos) * (remain / d)
        remain -= d
        pos = seg_end
        j += step
    raise sectors.IndeterminateCrossing("continuation truncated at the arc end")


# -- per-point loops --------------------------------------------------------


def sector_from_seed(sys, x, eps):
    """sectors._sector_from_seed with its crossings projected one at a time,
    two projection calls each, and each record's cover segment ends taken
    from its arcs' lifts."""
    cs = models.local_arc(sys, x, "stable", eps)
    cu = models.local_arc(sys, x, "unstable", eps)
    pts = intersect(cs, cu, tol=1e-9)
    if len(pts) < 2:
        return [], len(pts), 0
    info = []
    for p in pts:
        (ts,), (rs,), (es,) = _nearest_on(sys.chart, _segments(cs), p.xy())
        (tu,), (ru,), (eu,) = _nearest_on(sys.chart, _segments(cu), p.xy())
        if es > 1e-6 or eu > 1e-6:
            continue
        info.append({"p": p, "ts": float(ts), "tu": float(tu), "cs": rs, "cu": ru})
    info.sort(key=lambda r: r["ts"])
    records = []
    skipped = 0
    for k in range(len(info) - 1):
        rec = sectors._close_pair(sys, (_segments(cs), _segments(cu)), 0, info[k], info[k + 1])
        if rec is None:
            skipped += 1
        else:
            rec.cover_s, rec.cover_u = (c.lift.cover_points([0.0, 1.0]) for c in (cs, cu))
            records.append((rec, cs, cu))
    return records, len(info), skipped


def find_sectors(sys, eps=None, budget=1500):
    """find_sectors with every non-spine seed of np.arange's seed axis
    through sector_from_seed and every record's boundary arcs cut:
    (minimal sector per spine, crossing counts, skipped pairs)."""
    eps = sys.c / 2.0 if eps is None else eps
    xs = ys = np.arange(0.0, 1.0 - 1e-12, eps / 4.0)
    ix, iy = np.divmod(np.arange(min(max(budget, 0), len(xs) * len(ys))), len(ys))
    seeds = np.stack([xs[ix], ys[iy]], axis=1)
    raw, counts, skipped = [], {}, 0
    for sx, sy in seeds[~models.is_spine(sys, models.wrap_chart(sys.chart, seeds), eps)]:
        recs, nc, nskip = sector_from_seed(sys, sys.point(float(sx), float(sy)), eps)
        skipped += nskip
        counts[nc] = counts.get(nc, 0) + 1
        raw.extend(sectors._cut_boundaries(*r) for r in recs)
    by_spine = {}
    for idx, rec in enumerate(raw):
        cur = by_spine.get(rec.spine.coords)
        if cur is None or (rec.area, idx) < (cur[0].area, cur[1]):
            by_spine[rec.spine.coords] = (rec, idx)
    return [by_spine[k][0] for k in sorted(by_spine)], counts, skipped


def product_structure_radius(sys, eps, sample_budget=160, seed=0):
    """product_structure_radius probing each base with two local_arcs and
    one intersect."""
    rng = np.random.default_rng(seed)
    bases = [sys.point(*xy) for xy in rng.random((sample_budget, 2))]
    if sys.chart == models.SPHERE_QUOTIENT:
        for w in models.spine_points(sys):
            for r in (1e-6, 1e-3, 0.02):
                ang = rng.random() * 2.0 * math.pi
                bases.append(sys.point(*(w.xy() + r * np.array([math.cos(ang), math.sin(ang)]))))
    dirs = rng.random(len(bases)) * 2.0 * math.pi

    def ok(d):
        for x, ang in zip(bases, dirs):
            y = sys.point(*(x.xy() + d * np.array([math.cos(ang), math.sin(ang)])))
            if not intersect(models.local_arc(sys, x, "stable", eps),
                             models.local_arc(sys, y, "unstable", eps)):
                return False
        return True

    lo, hi = 0.0, eps * (1.0 - 1e-9)
    if ok(hi):
        return hi
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if ok(mid) else (lo, mid)
    return lo


def return_candidates(chart, pxy, bound):
    """find_return's candidate ring, one rational at a time: (distances,
    [(u, v, den)]) as periodic._return_candidates gives them."""
    cands, seen = [], set()
    for den in range(1, 201):
        nx, ny = round(pxy[0] * den), round(pxy[1] * den)
        for dx in (0, -1, 1):
            for dy in (0, -1, 1):
                u, v = (int(nx) + dx) % den, (int(ny) + dy) % den
                g = math.gcd(u, v, den)
                key = (u // g, v // g, den // g)
                if key in seen:
                    continue
                seen.add(key)
                dist = models.chart_distance(chart, pxy, np.array([u / den, v / den]))
                if dist < bound:
                    cands.append((dist, den, u / den, v / den, key))
    cands.sort()
    return [c[0] for c in cands], [list(c[4]) for c in cands]


def find_return(sys, p, bound, k_min, search_budget=200000):
    """find_return over return_candidates: (y, k), or the BudgetError's
    diagnostics."""
    dist, keys = return_candidates(sys.chart, p.xy(), bound)
    steps_used = tried = horizon_skipped = 0
    for u, v, com in keys:
        cap = min(6 * com + 12, search_budget - steps_used)
        if cap <= 0:
            break
        tried += 1
        per = periodic._exact_period(sys, u, v, com, cap)
        steps_used += per if per is not None else cap
        if per is None:
            continue
        k = per * math.ceil(k_min / per)
        if k > sys.horizon:
            horizon_skipped += 1
            continue
        return sys.rational_point(u, v, com), k
    return {"candidates_tried": tried, "orbit_steps": steps_used,
            "nearest_distance": dist[0] if dist else math.inf,
            "bound": bound, "k_min": k_min, "horizon_skipped": horizon_skipped}


# -- the Katok connecting path as a polyline ---------------------------------


def oriented(leg):
    """The same polyline with vertices running from mark_p to mark_q."""
    if leg.mark_p <= leg.mark_q:
        return leg
    n = leg.n_vertices
    return MarkedContinuum(chart=leg.chart, vertices=leg.vertices[::-1].copy(),
                           mark_p=n - 1 - leg.mark_p, mark_q=n - 1 - leg.mark_q)


def polyline_concat(parts, tol=1e-9):
    """Chain polylines end-to-start into one lift-less continuum marked at
    its ends, vertex by vertex: a vertex within 1e-15 of the one before it
    is dropped."""
    chart = parts[0].chart
    verts = [parts[0].vertices[i].copy() for i in range(parts[0].n_vertices)]
    for nxt in parts[1:]:
        gap = models.chart_distance(chart, verts[-1], nxt.vertices[0])
        if gap > tol:
            raise ValueError(f"concat gap {gap:.3g} exceeds tol {tol}")
        for w in nxt.vertices:
            if models.chart_distance(chart, verts[-1], w) > 1e-15:
                verts.append(w.copy())
    return MarkedContinuum(chart=chart, vertices=np.array(verts),
                           mark_p=0, mark_q=len(verts) - 1)


def step_continuum(ca, cb, start, mid, end):
    """The connecting path from start through mid to end: the cuts of ca
    and cb, oriented and chained as a vertex polyline."""
    return polyline_concat([oriented(subcontinuum(ca, start, mid, tol=1e-7)),
                            oriented(subcontinuum(cb, mid, end, tol=1e-7))], tol=1e-7)


def katok_iterate(sys, y, k, params, consts, max_steps=40):
    """katok_iterate with every connecting path chained as a vertex
    polyline of its cuts' ends and the cw-size of every crossing
    evaluated, the transport's too; it stops where the library's run
    does."""
    gap_tol = max(1e-11, 2.0 * 2.0 ** -52 * sys.expansion_rate ** k)
    ratio = 4.0 * (1.0 + params.delta) ** 2 * (1.0 / consts.lam) ** k
    y_n, steps, consec, converged = y, [], 0, False

    def best(ca, cb, start, end):
        out = None
        for z in intersect(ca, cb, tol=1e-9):
            try:
                path = step_continuum(ca, cb, start, z, end)
            except ValueError:
                continue
            d_f = cw_metric(sys, path, consts, depth=3)
            if out is None or d_f < out[0]:
                out = (d_f, z)
        if out is None:
            raise HolonomyFault("no admissible crossing")
        return out[1], out[0]

    for n in range(max_steps + 1):
        fky = models.iterate(sys, y_n, k)
        gap = models.distance(sys, y_n, fky)
        consec = consec + 1 if gap < gap_tol else 0
        if gap == 0.0 or consec >= 3:
            converged = True
            break
        if n == max_steps:
            break
        arc = lambda x, kind: models.local_arc(sys, x, kind, params.eps)
        z, d_f = best(arc(y_n, "stable"), arc(fky, "unstable"), y_n, fky)
        fmz = models.iterate(sys, z, -k)
        y_next, _ = best(arc(z, "unstable"), arc(fmz, "stable"), z, fmz)
        bound = ratio ** (n + 1) * params.c
        steps.append({"n": n + 1, "gap": gap, "D_F": d_f, "bound": bound,
                      "ok": d_f <= bound})
        if y_next == y_n and gap >= gap_tol:
            break  # a step that returns y_n returns it at every later step
        y_n = y_next
    bad = [s for s in steps if not s["ok"]]
    return {"q": y_n, "k": k, "steps": steps, "converged": converged,
            "residual": gap, "envelope_ok": not bad, "counterexamples": bad}


def katok_transport(sys, z, k, eps, consts, label):
    """periodic._transport through two local arcs, their intersect and a
    connecting path per crossing, with the cw-size of each path when more
    than one can be built."""
    fmz = models.iterate(sys, z, -k)
    cu = models.local_arc(sys, z, "unstable", eps)
    cs = models.local_arc(sys, fmz, "stable", eps)
    cands = intersect(cu, cs, tol=1e-9)
    if not cands:
        raise HolonomyFault(f"no crossing at {label}")
    paths = []
    for p in cands:
        try:
            paths.append((p, concat([subcontinuum(cu, z, p, tol=1e-7),
                                     subcontinuum(cs, p, fmz, tol=1e-7)], tol=1e-7)))
        except OffContinuumError:
            continue
    if not paths:
        raise HolonomyFault(f"no admissible crossing branch at {label}")
    if len(paths) == 1:
        return paths[0][0]
    return min(paths, key=lambda zp: cw_metric(sys, zp[1], consts, depth=3))[0]


def ring_scan(table, shifts, loose=False):
    """cwmetric._BlockTable.escapes(shifts) pair by pair: each (row, shift)
    of a row with candidate decisions scans j = j0, j0 + 1, ... up to the
    horizon, s + j before s - j, and takes the first iterate of the row's
    length set whose path has diameter > c, each (row, iterate) decided by
    _path_exceeds once.  Returns the (rows, shifts) escape times, horizon +
    1 for none, and the {(row, iterate, decision)} made, 2 escape, 1 not.

    loose=True scans every bent row so, the two-piece torus rows that the
    table closes included, each over the set of its loose key: per piece
    sqrt(2) (1 + 1e-9) times the summed component sizes."""
    h, decided = table.horizon, {}
    n = np.full((len(table.e_back), len(shifts)), h + 1, dtype=np.int64)
    for b in range(len(table.e_back)):
        lo, hi = int(table.e_back[b]), int(table.e_fwd[b])
        if table.straight[b]:
            pieces = [cwmetric._Piece(table.starts[b], table.au[b], table.as_[b])]
        else:
            pieces = table._pieces(b)
            if loose:
                w = math.sqrt(2.0) * (1.0 + 1e-9)
                key = (w * sum(abs(p.au) for p in pieces), w * sum(abs(p.as_) for p in pieces))
                (lo,), (hi,) = (x.tolist() for x in cwmetric._length_sets(table.frame, [key],
                                                                            table.c))

        def escapes(e):
            if not (e <= lo or e >= hi):
                return False
            if (b, e) not in decided:
                decided[b, e] = 1 + cwmetric._path_exceeds(table.sys, table.frame, pieces,
                                                            table.c, e)
            return decided[b, e] == 2

        for k, s in enumerate(shifts):
            j0 = max(0, min(hi - s, s - lo))
            if not (table.undecided[b] or loose and not table.straight[b]):
                n[b, k] = min(j0, h + 1)
                continue
            for j in range(j0, h + 1):
                # at j = 0 both sides are the one iterate s
                if any(escapes(e) for e in dict.fromkeys((s + j, s - j))):
                    n[b, k] = j
                    break
    return n, {(b, e, int(v)) for (b, e), v in decided.items()}


# -- the flat-chart edge build as one window per source ---------------------


def window_edges(chart, res, img, offs, thr):
    """Each row's candidate keys, res**2 where the cell is no edge: the
    cells at offs x offs from the cell of its image img (and, on the
    quotient, of -img), each tested against both quotient representatives.
    A squared-norm pre-test decides the pairs outside a 1e-12 relative band
    around thr; hypot, the chart distance, decides the rest."""
    h = 1.0 / res
    signs = (1.0,) if chart == models.TORUS else (1.0, -1.0)
    lo, hi = thr * thr * (1.0 - 1e-12), thr * thr * (1.0 + 1e-12)
    edge = np.zeros((len(signs), offs.size, offs.size, img.shape[0]), dtype=bool)
    cells = []
    for win, sgn in enumerate(signs):
        base = np.floor(sgn * img / h - 0.5).astype(int)
        cand = (base[:, 0] + offs[:, None], base[:, 1] + offs[:, None])
        cells.append(cand)
        tcx, tcy = ((c + 0.5) * h for c in cand)
        sides = [(img[:, 0] - tcx, img[:, 1] - tcy)]
        if chart == models.SPHERE_QUOTIENT:
            sides.append((img[:, 0] + tcx, img[:, 1] + tcy))
        for wx, wy in sides:
            rx, ry = wx - np.round(wx), wy - np.round(wy)
            rx2, ry2 = (rx * rx)[:, None, :], (ry * ry)[None, :, :]
            sure = ry2 <= lo - rx2
            edge[win] |= sure
            near = ry2 <= hi - rx2
            if np.count_nonzero(near) > np.count_nonzero(sure):
                ox, oy, i = np.nonzero(near & ~sure)
                edge[win, ox, oy, i] |= np.hypot(rx[ox, i], ry[oy, i]) <= thr
    cx = np.stack([np.mod(c[0], res) * res for c in cells], axis=1).astype(np.int32).T
    cy = np.stack([np.mod(c[1], res) for c in cells], axis=1).astype(np.int32).T
    keys = cx[:, :, :, None] + cy[:, :, None, :]
    edge = np.ascontiguousarray(edge.transpose(3, 0, 1, 2))
    return np.where(edge, keys, np.int32(res * res)).reshape(img.shape[0], -1)


def edges_wrapped(chart, res, imgs, thr):
    """chainrec._edges_wrapped as one (2r+1)**2 window per source and
    image, tested whole, then every row sorted and deduped: the per-row
    counts and the indices of the CSR."""
    n = imgs.shape[0]
    r = int(np.ceil(min(thr, 0.75) * res)) + 1
    offs = np.arange(-r, r + 1)
    step = max(1, (1 << 20) // ((1 if chart == models.TORUS else 2) * offs.size ** 2))
    counts, indices = [], []
    for lo in range(0, n, step):
        keys = window_edges(chart, res, imgs[lo:lo + step], offs, thr)
        keys.sort(axis=1)
        keep = keys < n
        keep[:, 1:] &= keys[:, 1:] != keys[:, :-1]
        counts.append(keep.sum(axis=1))
        indices.append(keys[keep])
    return np.concatenate(counts), np.concatenate(indices)
