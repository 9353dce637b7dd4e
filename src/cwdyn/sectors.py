"""Bi-asymptotic sectors, spines, and the sector parametrization probe.

A sector is a disc bounded by a stable arc and an unstable arc that cross
at the two disc corners.  On the quotient sphere every such disc sits
around a spine: the two boundary arcs close up through the half-lattice
involution, so the disc lifts to a rectangle in the eigenframe centered
at the spine.  All containment and side-of-boundary geometry runs on that
cover polygon; chart points are only used at the arc-building interface.
The seed scan crosses a chunk's arc pairs in one pass and projects their
corners in one more; only the sectors it keeps get arcs, cut to boundaries.

Classification walks each boundary arc a short arclength past its two
crossings and asks on which side of the disc the continuation lands.
Regular means all four continuations leave the disc.  Tangential
landings are reported as indeterminate, never guessed.
"""

import numpy as np
from dataclasses import dataclass, field

from . import models
from .models import ModelCapabilityError, chart_distance, torus_norm, wrap_chart
from .continua import (MarkedContinuum, _arc_segments, _crossings, _dedupe_crossings, _nearest_on,
                       _segments, _to_segment, cover_reps, intersect, subcontinuum)

# seed points per batched spine test and crossing screen, which bounds their arrays
_SPINE_CHUNK = 4096
# parametrization arc half-length over the sector's largest eigen-coordinate
_R1_FACTOR = 2.4
# temporaries per crossing candidate, four to a grid pair: with the sample
# arrays, 512 B a pair bounds the 391-406 B tracemalloc measured at grids 64-512
_CANDIDATE_BYTES = 112
# rungs of the enclosing-sector ladder
_MARGIN_BUDGET = 8


class IndeterminateCrossing(RuntimeError):
    """A continuation lands too close to the disc boundary to take sides."""


@dataclass
class SectorRecord:
    """A spine sector: its boundary arcs between the corners a1 and a2,
    and the cover geometry that classification and containment share:
    the ends (2, 2) of each full arc's cover segment (cover_s, cover_u),
    the lift parameters (at a1, at a2) of the corners on it (s_cross,
    u_cross), and the closed disc boundary around mirror_center, the
    spine's cover representative.  classify_sector sets regular.

    A record that a search has not kept yet holds no boundary arcs:
    _cut_boundaries cuts them from its seed's arcs.
    """

    a1: "models.Point"
    a2: "models.Point"
    spine: "models.Point"
    cover_s: np.ndarray
    cover_u: np.ndarray
    s_cross: tuple
    u_cross: tuple
    polygon: np.ndarray
    mirror_center: np.ndarray
    boundary_s: MarkedContinuum | None = None
    boundary_u: MarkedContinuum | None = None
    regular: bool | None = None

    @property
    def area(self) -> float:
        return _poly_area(self.polygon)


@dataclass
class SectorSearch:
    sectors: list
    seeds_probed: int
    seeds_planned: int
    exhausted: bool
    crossing_counts: dict = field(default_factory=dict)
    skipped_pairs: int = 0


# -- plane geometry helpers ----------------------------------------------


def _poly_area(poly: np.ndarray) -> float:
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def _ray_cast(poly: np.ndarray, p) -> bool:
    """Even-odd point-in-polygon on an implicitly closed polygon."""
    x, y = float(p[0]), float(p[1])
    inside = False
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        if (y1 > y) != (y2 > y):
            xs = x1 + (y - y1) / (y2 - y1) * (x2 - x1)
            if xs > x:
                inside = not inside
    return inside


def _poly_clearance(poly: np.ndarray, p) -> float:
    """Distance from a point to the polygon boundary."""
    p = np.asarray(p, dtype=float)
    return float(_to_segment(p, poly, np.roll(poly, -1, axis=0) - poly)[1].min())


def _walk(seg: np.ndarray, t: float, side: int, h: float) -> np.ndarray:
    """Point at arclength h from lift parameter t of a segment (its two
    ends), toward its end for side > 0 and its start otherwise."""
    pos = seg[0] + t * (seg[1] - seg[0])
    end = seg[1] if side > 0 else seg[0]
    d = float(np.linalg.norm(end - pos))
    if d >= h > 0:
        return pos + (end - pos) * (h / d)
    raise IndeterminateCrossing("continuation truncated at the arc end")


# -- construction --------------------------------------------------------


def _sector_from_seed(sys, x, eps: float):
    """The sector records seeded at x with their boundary arcs not cut yet,
    each with the seed's stable and unstable arcs to cut them from, plus
    the crossing count of the arc pair and the adjacent crossing pairs
    that close no disc."""
    cs = models.local_arc(sys, x, "stable", eps)
    cu = models.local_arc(sys, x, "unstable", eps)
    pts = intersect(cs, cu, tol=1e-9)
    if len(pts) < 2:
        return [], len(pts), 0
    [(recs, n, skipped)] = _seed_records(sys, (_segments(cs), _segments(cu)), [0],
                                         [np.array([p.coords for p in pts])])
    return [(rec, cs, cu) for rec in recs], n, skipped


def _seed_records(sys, segs, seeds, pts):
    """Per seed i of seeds (its stable and unstable arcs row i of segs) and
    its crossings pts[k] (intersect's, two or more): its records without
    boundary arcs, crossing count and adjacent pairs that close no disc.
    One pass projects every crossing onto both arcs of its seed; one more
    than 1e-6 off either is not counted."""
    xy = np.concatenate(pts)
    at = np.repeat(seeds, [len(p) for p in pts])
    a, d = (np.concatenate([segs[0][j][at], segs[1][j][at]]) for j in (0, 1))
    t, r, dist = _nearest_on(sys.chart, (a, d), np.concatenate([xy, xy]))
    n, out = len(xy), []
    for i, idx in zip(seeds, np.split(np.arange(n), np.cumsum([len(p) for p in pts])[:-1])):
        info = sorted(({"p": models.Point(sys.chart, (float(xy[h, 0]), float(xy[h, 1]))),
                        "ts": float(t[h]), "tu": float(t[n + h]), "cs": r[h], "cu": r[n + h]}
                       for h in idx if not (dist[h] > 1e-6 or dist[n + h] > 1e-6)),
                      key=lambda c: c["ts"])
        found = [_close_pair(sys, segs, i, lo, hi) for lo, hi in zip(info, info[1:])]
        kept = [rec for rec in found if rec is not None]
        out.append((kept, len(info), len(found) - len(kept)))
    return out


def _close_pair(sys, segs, i, ia, ib):
    """Assemble the disc bounded between two adjacent arc crossings, as a
    record without its boundary arcs; row i of the cover segments segs is
    its seed's stable and unstable arc.

    The stable and unstable sub-arcs share one crossing in the cover (the
    corner at the seed); the other pair of cover endpoints must match
    through the involution about a half-lattice point, which is then the
    spine of the disc.
    """
    # the corner where both cover arcs meet outright
    if np.linalg.norm(ia["cs"] - ia["cu"]) <= 1e-7:
        lo, hi = ia, ib
    elif np.linalg.norm(ib["cs"] - ib["cu"]) <= 1e-7:
        lo, hi = ib, ia
    else:
        return None
    w2 = hi["cs"] + hi["cu"]
    if sys.chart != models.SPHERE_QUOTIENT or torus_norm(w2) > 1e-7:
        return None
    w = np.round(w2) / 2.0
    A = 0.5 * (lo["cs"] + lo["cu"])
    Bs, Bu = hi["cs"], hi["cu"]
    polygon = np.array([A, Bs, 2.0 * w - A, Bu])
    if _poly_area(polygon) <= 1e-14:
        return None
    # the arcs' ends, bit for bit as cover_points([0, 1]): 0 * (length * e) is (0 * length) * e
    cover_s, cover_u = (a[i] + [[0.0], [1.0]] * d[i] for a, d, _ in segs)
    return SectorRecord(
        a1=lo["p"], a2=hi["p"], spine=sys.point(*w), cover_s=cover_s, cover_u=cover_u,
        s_cross=(lo["ts"], hi["ts"]), u_cross=(lo["tu"], hi["tu"]),
        polygon=polygon, mirror_center=w)


def _cut_boundaries(rec: SectorRecord, cs, cu) -> SectorRecord:
    """The record with its boundary arcs, cut from its seed's stable and
    unstable arcs between the corners."""
    rec.boundary_s = subcontinuum(cs, rec.a1, rec.a2, tol=1e-6)
    rec.boundary_u = subcontinuum(cu, rec.a1, rec.a2, tol=1e-6)
    return rec


# -- enumeration ---------------------------------------------------------


def enumerate_spines(sys, eps: float, grid_res: int) -> list:
    """Grid points fixed by the arc fold, clustered to exact spines."""
    if grid_res < 2:
        raise ValueError("grid_res must be at least 2")
    found = {}
    for p0 in range(0, grid_res * grid_res, _SPINE_CHUNK):
        i, j = np.divmod(np.arange(p0, min(p0 + _SPINE_CHUNK, grid_res * grid_res)), grid_res)
        pts = wrap_chart(sys.chart, np.stack([i / grid_res, j / grid_res], axis=1))
        for xy in pts[models.is_spine(sys, pts, eps)]:
            w = np.round(2.0 * xy) / 2.0 % 1.0
            key = (float(w[0]), float(w[1]))
            found.setdefault(key, sys.point(*key))
    return [found[k] for k in sorted(found)]


def find_sectors(sys, eps: float | None = None, budget: int = 1500) -> SectorSearch:
    """Scan a seed grid for stable/unstable arc pairs that bound discs.

    Seeds are spaced eps/4 apart so every spine neighborhood is probed.
    One minimal sector is kept per spine (smallest disc, deterministic
    tie-break by seed order); seeds on spines themselves are skipped
    because their arcs fold to one prong.
    """
    if sys.kind == models.NORTH_SOUTH:
        raise ModelCapabilityError("sectors require a hyperbolic surface model")
    if eps is None:
        eps = sys.c / 2.0
    if not 0.0 < eps < sys.c:
        raise ValueError(f"eps must lie in (0, c={sys.c}), got {eps}")
    spacing = eps / 4.0
    # each axis: np.arange(0.0, 1.0 - 1e-12, spacing)'s n values i * spacing, built by chunk
    n = int(np.ceil((1.0 - 1e-12) / spacing))
    planned = n * n
    # seeds run x-major; the first `budget` of them are probed
    probed = min(max(budget, 0), planned)
    raw = []
    counts = {}
    skipped_pairs = 0
    for p0 in range(0, probed, _SPINE_CHUNK):
        seeds = spacing * np.stack(np.divmod(np.arange(p0, min(p0 + _SPINE_CHUNK, probed)), n), 1)
        xy = wrap_chart(sys.chart, seeds)
        keep = ~models.is_spine(sys, xy, eps)
        seeds, xy = seeds[keep], xy[keep]
        segs = [_arc_segments(sys, sys.chart, xy, stable, eps) for stable in (True, False)]
        rows = np.arange(len(xy))
        # every arc pair crossed in one pass, each solved and deduplicated as
        # intersect does it; a pair below two crossings bounds no disc
        hits, pair, exact = _crossings(sys.chart, *segs, rows, rows, 1e-9)
        nc = np.bincount(pair, minlength=len(xy))
        two = np.flatnonzero(nc >= 2)
        pts = [_dedupe_crossings(sys.chart, hits[pair == i], exact[pair == i], 1e-9) for i in two]
        nc[two] = [len(p) for p in pts]
        corner = [(i, p) for i, p in zip(two, pts) if len(p) >= 2]
        found = _seed_records(sys, segs, *zip(*corner)) if corner else []
        for (i, _), (recs, nc[i], nskip) in zip(corner, found):
            skipped_pairs += nskip
            raw.extend((rec, seeds[i]) for rec in recs)
        for v in nc.tolist():
            counts[v] = counts.get(v, 0) + 1
    # one minimal sector per spine; _close_pair gives every record one.
    # Only the kept records get their seed's arcs, to cut boundary arcs from.
    by_spine = {}
    for idx, (rec, seed) in enumerate(raw):
        key = rec.spine.coords
        cur = by_spine.get(key)
        if cur is None or (rec.area, idx) < (cur[0].area, cur[1]):
            by_spine[key] = (rec, idx, seed)
    sectors = []
    for rec, _, (sx, sy) in (by_spine[k] for k in sorted(by_spine)):
        x = sys.point(float(sx), float(sy))
        sectors.append(_cut_boundaries(rec, *(models.local_arc(sys, x, kind, eps)
                                              for kind in ("stable", "unstable"))))
    return SectorSearch(sectors=sectors, seeds_probed=probed,
                        seeds_planned=planned, exhausted=probed < planned,
                        crossing_counts=counts, skipped_pairs=skipped_pairs)


# -- classification ------------------------------------------------------


def classify_sector(sys, s: SectorRecord) -> str:
    """regular iff all four boundary continuations leave the disc."""
    ext = s.polygon.max(axis=0) - s.polygon.min(axis=0)
    h = max(0.15 * float(ext.min()), 1e-9)
    outward = []
    for seg, crossings in ((s.cover_s, s.s_cross), (s.cover_u, s.u_cross)):
        lo, hi = sorted(crossings)
        for t, side in ((lo, -1), (hi, +1)):
            probe = _walk(seg, t, side, h)
            margin = _poly_clearance(s.polygon, probe)
            if margin < 0.05 * h:
                raise IndeterminateCrossing(
                    f"continuation lands within {margin:.3g} of the boundary "
                    f"(probe step {h:.3g}); crossing is tangential at this scale")
            outward.append(not _ray_cast(s.polygon, probe))
    s.regular = bool(all(outward))
    return "regular" if s.regular else "non-regular"


# -- parametrization -----------------------------------------------------


def _gamma(A: np.ndarray, M: np.ndarray, B: np.ndarray, t: float) -> np.ndarray:
    # corner-to-splitting-curve normalization: gamma(1/2) sits on C
    if t <= 0.5:
        return A + 2.0 * t * (M - A)
    return M + (2.0 * t - 1.0) * (B - M)


def _axis_cross(A: np.ndarray, B: np.ndarray, coord: int, w, Einv) -> np.ndarray:
    ca = float((Einv @ (A - w))[coord])
    cb = float((Einv @ (B - w))[coord])
    if abs(ca - cb) < 1e-300:
        return 0.5 * (A + B)
    t = ca / (ca - cb)
    return A + t * (B - A)


def sector_parametrization(sys, s: SectorRecord, grid: int = 32) -> dict:
    """Sample the two corner parametrizations of a regular spine sector.

    f1 covers the quarter between the seed corner and the splitting curve
    through the spine, f2 the quarter beyond it.  Each sample is an arc
    crossing, taken where it can be reached from both parameter points
    along their arcs without crossing the splitting curve.
    """
    if s.regular is None:
        classify_sector(sys, s)
    if not s.regular:
        raise ValueError("parametrization requires a regular sector")
    if grid < 2:
        raise ValueError("grid must be at least 2")
    w = np.asarray(s.mirror_center, dtype=float)
    frame = models.eigen_frame(sys.matrix)
    A, Bs, _, Bu = s.polygon
    eig = lambda r: frame.inv @ (np.asarray(r) - w)
    amax = max(abs(float(eig(A)[0])), abs(float(eig(Bs)[0])))
    bmax = max(abs(float(eig(A)[1])), abs(float(eig(Bu)[1])))
    R1 = _R1_FACTOR * max(amax, bmax)
    if R1 >= 0.98 * sys.c:
        raise models.CalibrationError(
            f"sector needs arcs of radius {R1:.3g}, beyond the scale c={sys.c}")
    Ms = _axis_cross(A, Bs, 0, w, frame.inv)
    Mu = _axis_cross(A, Bu, 1, w, frame.inv)

    def samples(t_lo, t_hi):
        tt = np.linspace(t_lo, t_hi, grid + 1)
        gs_eig, gu_eig = (np.array([eig(_gamma(A, M, B, float(t))) for t in tt])
                          for M, B in ((Ms, Bs), (Mu, Bu)))
        return _grid_crossings(sys.chart, gs_eig, gu_eig, w, frame, R1)

    f1, f1e = samples(0.0, 0.5)
    f2, f2e = samples(0.5, 1.0)
    report = _continuity_report(sys.chart, grid, (f1, f2), (f1e, f2e))
    return {"f1_samples": f1, "f2_samples": f2,
            "f1_eig": f1e, "f2_eig": f2e,
            "continuity_report": report}


def parametrization_bytes(grid: int) -> int:
    """Estimated peak memory of sector_parametrization: four (grid+1)² x 2
    float64 sample arrays and four candidates' temporaries a pair."""
    return (grid + 1) ** 2 * (4 * 2 * 8 + 4 * _CANDIDATE_BYTES)


def _tsign(x: np.ndarray) -> np.ndarray:
    # sign with a dead zone, so exact zeros full of float noise stay 0
    return np.where(np.abs(x) <= 1e-8, 0.0, np.sign(x))


def _grid_crossings(chart, g_s, g_u, w, frame, R1):
    """For each pair (unstable arc i, stable arc j) of half-length R1
    through the points of eigen-coordinates g_s[i] and g_u[j] about w, the
    crossing reachable without crossing the splitting curve: its chart
    point and eigen-coordinates, each an (nu, ns, 2) array.  Near w the
    arcs and their mirror images meet only at (σ·g_s[i, 0], τ·g_u[j, 1]),
    σ, τ = ±1; a candidate qualifies on both arc copies (within R1 plus
    the crossing tol 1e-9), within reach of w, and within line_tol on the
    side of the splitting curve of both parameter points.
    """
    sigma, tau = np.array([[1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0]])
    gs, gu = g_s[:, None, None, :], g_u[None, :, None, :]
    re = np.stack(np.broadcast_arrays(sigma * gs[..., 0], tau * gu[..., 1]), axis=-1)
    on_arcs = (np.abs(re[..., 1] - sigma * gs[..., 1]) <= R1 + 1e-9) \
        & (np.abs(re[..., 0] - tau * gu[..., 0]) <= R1 + 1e-9)
    # each candidate's plane offset from w, E·re with E = [es | eu]
    vec = np.matmul(re, np.stack([frame.es, frame.eu]))
    near = np.hypot(vec[..., 0], vec[..., 1]) <= 2.0 * R1 + 0.1
    line_tol = 1e-6
    ok_s = ok_u = False
    for sign in (1.0, -1.0):
        ok_s = ok_s | ((np.abs(sign * gs[..., 0] - re[..., 0]) <= line_tol)
                       & (sign * gs[..., 1] * re[..., 1] >= -line_tol))
        ok_u = ok_u | ((np.abs(sign * gu[..., 1] - re[..., 1]) <= line_tol)
                       & (sign * gu[..., 0] * re[..., 0] >= -line_tol))
    ok = on_arcs & near & ok_s & ok_u
    missing = ~ok.any(axis=-1)
    if missing.any():
        if not on_arcs[np.unravel_index(np.argmax(missing), missing.shape)].any():
            raise ValueError("parametrization arcs fail to cross; enlarge R1")
        raise ValueError("no admissible crossing; splitting-curve side "
                         "selection failed")
    # mirror representatives are both admissible by involution symmetry;
    # fix the one on the stable-parameter side (then the unstable side)
    # so the recorded coordinates vary continuously over the grid
    su = _tsign(re[..., 1]) * _tsign(gu[..., 1])
    ss = _tsign(re[..., 0]) * _tsign(gs[..., 0])
    off = np.sqrt((re[..., 0] - gs[..., 0]) ** 2 + (re[..., 1] - gu[..., 1]) ** 2)
    # a stable sort: ties keep the candidates' order
    first = np.lexsort((off, -ss, -su, ~ok), axis=-1)[..., :1, None]
    return (wrap_chart(chart, w + np.take_along_axis(vec, first, axis=-2)[..., 0, :]),
            np.take_along_axis(re, first, axis=-2)[..., 0, :])


def _continuity_report(chart, grid, charts, eigs) -> dict:
    viol = 0
    for fe in eigs:
        # eigen-coordinate a must be monotone along grid axis a
        for a in (0, 1):
            d = np.diff(fe[..., a], axis=a)
            viol += int(np.minimum((d < -1e-9).sum(axis=a), (d > 1e-9).sum(axis=a)).sum())
    mods = [float(chart_distance(chart, a, b).max()) for fc in charts
            for a, b in ((fc[:-1], fc[1:]), (fc[:, :-1], fc[:, 1:]))]
    f1e = eigs[0].reshape(-1, 2)
    # a pair within 1e-9 is within 2e-9 along (1, 0.618...); sorted along
    # that direction, which no grid row or column follows, the candidates
    # for a pair sit a few places apart, and each pair is met once
    p = f1e[:, 0] + 0.6180339887498949 * f1e[:, 1]
    order = np.argsort(p, kind="stable")
    p = p[order]
    dup = 0
    for d in range(1, len(p)):
        near = p[d:] - p[:-d] < 2e-9
        if not near.any():
            break  # p is sorted, so no farther shift is nearer
        i, j = order[:-d][near], order[d:][near]
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        dup += int(np.sum(np.linalg.norm(f1e[hi] - f1e[lo], axis=-1) < 1e-9))
    return {"grid": grid, "max_modulus": float(max(mods)),
            "max_modulus_f1": float(max(mods[:2])),
            "max_modulus_f2": float(max(mods[2:])),
            "monotone_violations": int(viol),
            "duplicate_pairs": dup, "injective_ok": dup == 0}


# -- enclosing sectors ---------------------------------------------------


def enclosing_sector(sys, s: SectorRecord) -> dict:
    """A regular sector whose disc strictly contains the given one.

    Seeds a ladder of _MARGIN_BUDGET points moving away from the spine
    along the ray through the original seed corner, rung j at 1.3^j times
    the corner's offset from the spine; each rung rebuilds the sector at
    a matching arc scale and checks vertex-wise strict containment.  A
    not-found report is data, not an exception.
    """
    w = np.asarray(s.mirror_center, dtype=float)
    Einv = models.eigen_frame(sys.matrix).inv
    v0 = s.polygon[0] - w
    for j in range(1, _MARGIN_BUDGET + 1):
        vj = v0 * 1.3 ** j
        ej = Einv @ vj
        eps_j = 2.4 * float(np.max(np.abs(ej)))
        if eps_j >= 0.98 * sys.c:
            return {"found": False, "attempts": j - 1, "sector": None,
                    "clearance": 0.0,
                    "reason": f"rung {j} needs arc scale {eps_j:.3g} beyond c"}
        recs, _, _ = _sector_from_seed(sys, sys.point(*(w + vj)), max(eps_j, 1e-6))
        cand, cs, cu = next((r for r in recs if chart_distance(
            sys.chart, r[0].spine.xy(), s.spine.xy()) <= 1e-9), (None, None, None))
        if cand is None:
            continue
        try:
            if classify_sector(sys, cand) != "regular":
                continue
        except IndeterminateCrossing:
            continue
        poly = _reanchor(sys.chart, cand.polygon, np.asarray(cand.mirror_center), w)
        if all(_ray_cast(poly, v) for v in s.polygon):
            clearance = min(_poly_clearance(poly, v) for v in s.polygon)
            if clearance > 1e-12:
                return {"found": True, "sector": _cut_boundaries(cand, cs, cu),
                        "clearance": clearance, "attempts": j, "eps_used": eps_j}
    return {"found": False, "attempts": _MARGIN_BUDGET, "sector": None,
            "clearance": 0.0, "reason": "margin budget exhausted"}


def _reanchor(chart: str, poly: np.ndarray, from_center: np.ndarray,
              to_center: np.ndarray) -> np.ndarray:
    """Move cover geometry between equivalent half-lattice anchors."""
    _, sg, k = cover_reps(chart, from_center, from_center, to_center, to_center)
    hits = np.nonzero(np.hypot(*(sg[:, None] * from_center + k - to_center).T) <= 1e-9)[0]
    if not len(hits):
        raise ValueError("anchors are not representatives of the same spine")
    return sg[hits[0]] * poly + k[hits[0]]


def to_record(s: SectorRecord) -> dict:
    return {
        "a1": [float(v) for v in s.a1.xy()],
        "a2": [float(v) for v in s.a2.xy()],
        "regular": s.regular,
        "spine": [float(v) for v in s.spine.xy()],
        "area": s.area,
        "polygon": [[float(a), float(b)] for a, b in s.polygon],
    }
