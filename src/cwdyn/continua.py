"""Marked continua: polylines with two marked points, plus their geometry.

A continuum is stored as an ordered vertex polyline in a chart, with two
marked vertex indices.  Arcs produced by the model constructors also
carry a *straight lift*: the exact segment in the universal cover that
the polyline discretizes.  Lifted arcs support closed-form iteration
(eigen-rescaling of the lift) that never accumulates float error along
an orbit, which the metric pipeline depends on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import models
from .models import (
    SPHERE_QUOTIENT, SPHERE_GEOGRAPHIC,
    BudgetError, ChartError, HorizonError, Point,
    chart_distance, chart_distance_arr, wrap_chart,
)

# polyline edges must stay under one chart step
MAX_STEP = 0.5
EDGE_TARGET = 0.4


class OffContinuumError(ValueError):
    """A point that must lie on the polyline does not (within tol)."""


def _chart_signs(chart: str) -> tuple:
    # the quotient identifies v with -v; other charts do not
    return (1.0, -1.0) if chart == SPHERE_QUOTIENT else (1.0,)


def unwrap_to(chart: str, anchor: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Representative of v (class member + lattice translate) nearest anchor.

    Valid as a plane proxy for chart distance while the result stays
    within half a chart step of the anchor.
    """
    anchor = np.asarray(anchor, dtype=float)
    v = np.asarray(v, dtype=float)
    if chart == SPHERE_GEOGRAPHIC:
        out = v.copy()
        out[..., 0] = v[..., 0] + np.round(anchor[..., 0] - v[..., 0])
        return out
    best = None
    best_d = None
    for s in _chart_signs(chart):
        w = s * v
        w = w + np.round(anchor - w)
        d = np.linalg.norm(w - anchor, axis=-1)
        if best is None:
            best, best_d = w, d
        else:
            take = d < best_d
            best = np.where(take[..., None], w, best)
            best_d = np.minimum(best_d, d)
    return best


@dataclass(frozen=True)
class StraightLift:
    """Exact straight segment in the universal cover behind a polyline arc.

    ``start + t*length*direction`` for t in [0,1].  ``stable`` records the
    eigen-direction tag (True/False) or None for a generic direction.
    """

    start: tuple
    direction: tuple
    length: float
    chart: str
    stable: bool | None = None

    def __post_init__(self):
        object.__setattr__(self, "start", tuple(float(v) for v in np.asarray(self.start).ravel()))
        object.__setattr__(self, "direction", tuple(float(v) for v in np.asarray(self.direction).ravel()))

    @property
    def start_arr(self) -> np.ndarray:
        return np.array(self.start)

    @property
    def dir_arr(self) -> np.ndarray:
        return np.array(self.direction)

    def cover_points(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return self.start_arr[None, :] + (t * self.length)[:, None] * self.dir_arr[None, :]

    def project(self, t) -> np.ndarray:
        return wrap_chart(self.chart, self.cover_points(t))

    def iterated(self, sys, n: int) -> "StraightLift":
        """The lift of the n-th image.  Exact: the cover start is moved by
        integer arithmetic mod 1 and the length is rescaled in closed form
        (eigen-tagged) or by the integer matrix power (generic)."""
        if n == 0:
            return self
        if abs(n) > sys.horizon:
            raise HorizonError(f"|n|={abs(n)} exceeds horizon {sys.horizon}")
        mp = models._mat_power(sys.matrix, n)
        start = models._exact_linear_mod1(mp, self.start_arr)
        if self.stable is not None:
            frame = models.eigen_frame(sys.matrix)
            ev = frame.ss if self.stable else frame.su
            length = self.length * abs(ev) ** n
            direction = self.dir_arr if (ev > 0 or n % 2 == 0) else -self.dir_arr
        else:
            v = np.array(mp, dtype=float) @ (self.length * self.dir_arr)
            length = float(np.linalg.norm(v))
            if not math.isfinite(length):
                raise HorizonError("generic lift overflows at this iterate")
            direction = v / length if length > 0 else self.dir_arr
        if not math.isfinite(length):
            raise HorizonError("lift length overflows at this iterate")
        return StraightLift(start=tuple(start), direction=tuple(direction),
                            length=length, chart=self.chart, stable=self.stable)

    def subsegment(self, t0: float, t1: float) -> "StraightLift":
        """Sub-lift over cover params [t0, t1] of this one, re-parameterized
        to [0, 1] and oriented from t0 to t1."""
        base = self.start_arr + t0 * self.length * self.dir_arr
        d = self.dir_arr if t1 >= t0 else -self.dir_arr
        return StraightLift(start=tuple(base), direction=tuple(d),
                            length=abs(t1 - t0) * self.length,
                            chart=self.chart, stable=self.stable)


@dataclass
class MarkedContinuum:
    """Polyline continuum with marked points p and q (vertex indices)."""

    chart: str
    vertices: np.ndarray
    mark_p: int
    mark_q: int
    params: np.ndarray | None = None
    lift: StraightLift | None = None

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim == 1:
            v = v.reshape(1, 2)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 1:
            raise ValueError("vertices must be an (N, 2) array with N >= 1")
        self.vertices = v
        n = v.shape[0]
        for name, idx in (("mark_p", self.mark_p), ("mark_q", self.mark_q)):
            if not 0 <= idx < n:
                raise ValueError(f"{name}={idx} out of range for {n} vertices")
        if n > 1:
            steps = chart_distance_arr(self.chart, v[:-1], v[1:])
            if np.any(steps >= MAX_STEP):
                raise ValueError(f"consecutive vertices exceed one chart step "
                                 f"(max {float(np.max(steps)):.4f} >= {MAX_STEP})")
        if self.params is not None:
            t = np.asarray(self.params, dtype=float)
            if t.shape != (n,) or np.any(np.diff(t) < 0):
                raise ValueError("params must be a nondecreasing length-N array")
            self.params = t

    @property
    def n_vertices(self) -> int:
        return int(self.vertices.shape[0])

    @property
    def is_singleton(self) -> bool:
        return self.n_vertices == 1

    def point(self, idx: int) -> Point:
        return Point(self.chart, (float(self.vertices[idx, 0]), float(self.vertices[idx, 1])))

    @property
    def point_p(self) -> Point:
        return self.point(self.mark_p)

    @property
    def point_q(self) -> Point:
        return self.point(self.mark_q)

    def with_marks(self, mark_p: int, mark_q: int) -> "MarkedContinuum":
        return replace(self, mark_p=mark_p, mark_q=mark_q)


def diameter(cont: MarkedContinuum) -> float:
    """Max pairwise chart distance over the polyline vertices."""
    v = cont.vertices
    n = v.shape[0]
    if n == 1:
        return 0.0
    best = 0.0
    chunk = 512
    for i in range(0, n, chunk):
        block = v[i:i + chunk]
        d = chart_distance_arr(cont.chart, block[:, None, :], v[None, :, :])
        best = max(best, float(np.max(d)))
    return best


def _diameter_exceeds(chart: str, pts: np.ndarray, thr: float) -> bool:
    """Whether the max pairwise chart distance over pts exceeds thr.

    Decides exactly as the full distance matrix would: the distance is
    elementwise and exactly symmetric, so the upper triangle holds the
    max.  The endpoint rows go first (they usually realize a path's
    diameter), then the triangle in row blocks, stopping at the first
    block over thr; only a set of diameter <= thr pays the whole triangle.
    """
    if float(chart_distance_arr(chart, pts[[0, -1], None, :], pts[None, :, :]).max()) > thr:
        return True
    block = 64
    for i in range(0, len(pts), block):
        d = chart_distance_arr(chart, pts[i:i + block, None, :], pts[None, i:, :])
        if float(d.max()) > thr:
            return True
    return False


def _required_count(length: float, budget: int) -> int:
    need = length / EDGE_TARGET + 1.0
    if need > budget:
        raise BudgetError(f"image needs ~{need:.3g} vertices, budget {budget}")
    return int(math.ceil(need))


def image(sys, cont: MarkedContinuum, n: int, budget: int = 20000) -> MarkedContinuum:
    """The continuum f^n(C) with marks carried along.

    Lifted arcs are rescaled in closed form and re-sampled; generic
    polylines are iterated vertex-wise with edge bisection until every
    image edge is below the chart-step bound.
    """
    if n == 0:
        return cont
    if abs(n) > sys.horizon:
        raise HorizonError(f"|n|={abs(n)} exceeds horizon {sys.horizon}")
    if cont.chart != sys.chart:
        raise ChartError(f"continuum chart {cont.chart!r} does not match model {sys.chart!r}")
    if cont.lift is not None and cont.params is not None:
        lift2 = cont.lift.iterated(sys, n)
        t = cont.params
        need = _required_count(lift2.length, budget)
        if need > len(t):
            t = np.unique(np.concatenate([t, np.linspace(0.0, 1.0, need)]))
        mp = int(np.searchsorted(t, cont.params[cont.mark_p]))
        mq = int(np.searchsorted(t, cont.params[cont.mark_q]))
        return MarkedContinuum(chart=cont.chart, vertices=lift2.project(t),
                               params=t, mark_p=mp, mark_q=mq, lift=lift2)
    # generic path: the image of a straight cover edge is straight, so its
    # exact length |A^n v| fixes the subdivision count per edge (endpoint
    # chart distance would alias once an edge wraps the torus)
    verts = cont.vertices
    edges = []
    total = 1
    if sys.is_hyperbolic:
        mf = np.array(models._mat_power(sys.matrix, n), dtype=float)
        stretch = lambda v: float(np.linalg.norm(mf @ v))
    else:
        rate = 2.0 ** abs(n)  # colat-derivative bound of the pole map
        stretch = lambda v: rate * float(np.linalg.norm(v))
    for i in range(len(verts) - 1):
        v = unwrap_to(cont.chart, verts[i], verts[i + 1]) - verts[i]
        k = max(1, int(math.ceil(stretch(v) / EDGE_TARGET)))
        edges.append((v, k))
        total += k
    if total > budget:
        raise BudgetError(f"image needs {total} vertices, budget {budget}")
    out = [models.iterate_xy(sys, verts[0], n)]
    idx_map = [0]
    for i, (v, k) in enumerate(edges):
        for j in range(1, k + 1):
            p = wrap_chart(cont.chart, verts[i] + (j / k) * v)
            out.append(models.iterate_xy(sys, p, n))
        idx_map.append(len(out) - 1)
    return MarkedContinuum(chart=cont.chart, vertices=np.array(out),
                           mark_p=idx_map[cont.mark_p],
                           mark_q=idx_map[cont.mark_q])


# -- intersections -------------------------------------------------------


def _dedupe_points(chart: str, pts: list, tol: float) -> list:
    out = []
    for p in pts:
        if all(chart_distance(chart, p, q) > tol for q in out):
            out.append(p)
    return out


def _segment_box_m_range(pmin, pmax, qmin, qmax):
    lo = np.floor(pmin - qmax - 1e-9).astype(int)
    hi = np.ceil(pmax - qmin + 1e-9).astype(int)
    return lo, hi


def _intersect_lifted(l1: StraightLift, l2: StraightLift, tol: float) -> list:
    chart = l1.chart
    a0, da = l1.start_arr, l1.dir_arr * l1.length
    tol_t1 = tol / max(l1.length, 1e-300)
    tol_t2 = tol / max(l2.length, 1e-300)
    pts = []
    pmin, pmax = np.minimum(a0, a0 + da), np.maximum(a0, a0 + da)
    for s in _chart_signs(chart):
        b0, db = s * l2.start_arr, s * l2.dir_arr * l2.length
        qmin, qmax = np.minimum(b0, b0 + db), np.maximum(b0, b0 + db)
        lo, hi = _segment_box_m_range(pmin, pmax, qmin, qmax)
        det = da[0] * (-db[1]) - (-db[0]) * da[1]
        for m0 in range(lo[0], hi[0] + 1):
            for m1 in range(lo[1], hi[1] + 1):
                rhs = np.array([m0, m1], dtype=float) + b0 - a0
                if abs(det) < 1e-14 * max(l1.length * l2.length, 1e-300):
                    # parallel: accept endpoints lying on the other segment
                    for u in (0.0, 1.0):
                        q = b0 + u * db - np.array([m0, m1])
                        t = float(np.dot(q - a0, da)) / max(float(np.dot(da, da)), 1e-300)
                        if -tol_t1 <= t <= 1 + tol_t1:
                            perp = q - a0 - min(max(t, 0.0), 1.0) * da
                            if float(np.linalg.norm(perp)) <= tol:
                                pts.append(wrap_chart(chart, q))
                    continue
                t = (rhs[0] * (-db[1]) - (-db[0]) * rhs[1]) / det
                u = (da[0] * rhs[1] - rhs[0] * da[1]) / det
                if -tol_t1 <= t <= 1 + tol_t1 and -tol_t2 <= u <= 1 + tol_t2:
                    t = min(max(t, 0.0), 1.0)
                    pts.append(wrap_chart(chart, a0 + t * da))
    return pts


def _intersect_edges(chart: str, v1: np.ndarray, v2: np.ndarray, tol: float) -> list:
    """All edge-pair crossings of two polylines, via local plane unwrap."""
    pts = []
    signs = _chart_signs(chart)
    offsets = np.array([[i, j] for i in (-1, 0, 1) for j in (-1, 0, 1)], dtype=float)
    e2a, e2b = v2[:-1], v2[1:]
    for i in range(len(v1) - 1):
        p1 = v1[i]
        p2 = unwrap_to(chart, p1, v1[i + 1])
        d1 = p2 - p1
        mid = p1 + 0.5 * d1
        for s in signs:
            q1 = s * e2a + np.round(mid[None, :] - s * e2a)
            q2 = s * e2b + np.round(q1 - s * e2b)
            for off in offsets:
                a1 = q1 + off[None, :]
                d2 = q2 - q1
                det = d1[0] * d2[:, 1] - d1[1] * d2[:, 0]
                rhs = a1 - p1[None, :]
                with np.errstate(divide="ignore", invalid="ignore"):
                    t = (rhs[:, 0] * d2[:, 1] - rhs[:, 1] * d2[:, 0]) / det
                    u = (rhs[:, 0] * d1[1] - rhs[:, 1] * d1[0]) / det
                ok = np.isfinite(t) & np.isfinite(u)
                ok &= (t >= -1e-12) & (t <= 1 + 1e-12) & (u >= -1e-12) & (u <= 1 + 1e-12)
                for j in np.nonzero(ok)[0]:
                    pts.append(wrap_chart(chart, p1 + float(t[j]) * d1))
    return pts


def intersect(c1: MarkedContinuum, c2: MarkedContinuum, tol: float = 1e-9) -> list:
    """All intersection points of two continua, deduplicated within tol."""
    if c1.chart != c2.chart:
        raise ChartError(f"chart mismatch: {c1.chart!r} vs {c2.chart!r}")
    if c1.lift is not None and c2.lift is not None:
        raw = _intersect_lifted(c1.lift, c2.lift, tol)
    else:
        if c1.is_singleton or c2.is_singleton:
            single, other = (c1, c2) if c1.is_singleton else (c2, c1)
            p = single.vertices[0]
            raw = []
            v = other.vertices
            for i in range(max(len(v) - 1, 1)):
                a = v[i]
                b = unwrap_to(other.chart, a, v[min(i + 1, len(v) - 1)])
                pr = unwrap_to(other.chart, a, p)
                d = b - a
                den = float(np.dot(d, d))
                t = 0.0 if den < 1e-300 else min(max(float(np.dot(pr - a, d)) / den, 0.0), 1.0)
                if float(np.linalg.norm(pr - (a + t * d))) <= tol:
                    raw = [p]
                    break
        else:
            raw = _intersect_edges(c1.chart, c1.vertices, c2.vertices, tol)
    pts = _dedupe_points(c1.chart, raw, max(tol, 1e-12))
    return [Point(c1.chart, (float(p[0]), float(p[1]))) for p in pts]


# -- sub-polylines and concatenation -------------------------------------


# lattice translates around a base representative, in enumeration order
_OFFSETS = tuple(np.array(off, dtype=float) for off in
                 ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1),
                  (1, -1), (1, 0), (1, 1)))


def _nearest_on_lift(lift: StraightLift, xy):
    """Cover representative of a chart point nearest a straight lift.

    Returns (t, r, dist): the unclamped lift parameter of the cover point
    r, and r's distance from the segment.  Enumerating representatives
    around the segment midpoint avoids the near-spine trap where the
    closest representative of a vertex is the mirror image rather than
    the continuation of the lift.
    """
    s, d = lift.start_arr, lift.dir_arr
    length = max(lift.length, 0.0)
    mid = s + 0.5 * length * d
    best = None
    for sg in _chart_signs(lift.chart):
        w0 = sg * np.asarray(xy, dtype=float)
        base = np.round(mid - w0)
        for off in _OFFSETS:
            r = w0 + base + off
            t = 0.0 if length <= 0 else float(np.dot(r - s, d)) / length
            dist = float(np.linalg.norm(r - (s + min(max(t, 0.0), 1.0) * length * d)))
            if best is None or dist < best[2]:
                best = (t, r, dist)
    return best


def _project_to_lift(cont: MarkedContinuum, xy: np.ndarray):
    """Nearest point on a lifted arc, computed in the universal cover."""
    lf, tp = cont.lift, cont.params
    t, _, dist = _nearest_on_lift(lf, xy)
    g = min(max(t, 0.0), 1.0)
    i = int(np.searchsorted(tp, g, side="right") - 1)
    i = min(max(i, 0), len(tp) - 2)
    span = float(tp[i + 1] - tp[i])
    t_edge = 0.0 if span <= 0 else min(max((g - tp[i]) / span, 0.0), 1.0)
    pt = lf.start_arr + g * max(lf.length, 0.0) * lf.dir_arr
    return i, t_edge, dist, wrap_chart(cont.chart, pt).reshape(2)


def _project_to_polyline(cont: MarkedContinuum, xy: np.ndarray):
    """Nearest (edge index, edge param, distance, point) on the polyline."""
    v = cont.vertices
    if len(v) == 1:
        d = chart_distance(cont.chart, v[0], xy)
        return 0, 0.0, d, v[0].copy()
    if cont.lift is not None and cont.params is not None:
        return _project_to_lift(cont, xy)
    best = None
    for i in range(len(v) - 1):
        a = v[i]
        b = unwrap_to(cont.chart, a, v[i + 1])
        p = unwrap_to(cont.chart, a + 0.5 * (b - a), xy)
        d = b - a
        den = float(np.dot(d, d))
        t = 0.0 if den < 1e-300 else min(max(float(np.dot(p - a, d)) / den, 0.0), 1.0)
        pt = a + t * d
        dist = float(np.linalg.norm(p - pt))
        if best is None or dist < best[2]:
            best = (i, t, dist, wrap_chart(cont.chart, pt))
    return best


def subcontinuum(cont: MarkedContinuum, a: Point, b: Point,
                 tol: float = 1e-9) -> MarkedContinuum:
    """Sub-polyline between the projections of a and b, marked at a and b."""
    for p in (a, b):
        if p.chart != cont.chart:
            raise ChartError(f"point chart {p.chart!r} does not match continuum {cont.chart!r}")
    ia, ta, da, pa = _project_to_polyline(cont, a.xy())
    ib, tb, db, pb = _project_to_polyline(cont, b.xy())
    if da > tol:
        raise OffContinuumError(f"point p is {da:.3g} from the continuum (tol {tol})")
    if db > tol:
        raise OffContinuumError(f"point q is {db:.3g} from the continuum (tol {tol})")
    ka, kb = (ia, ta), (ib, tb)
    swapped = kb < ka
    (i0, t0), (i1, t1) = (kb, ka) if swapped else (ka, kb)
    first, last = (pb, pa) if swapped else (pa, pb)

    if cont.lift is not None and cont.params is not None:
        tp = cont.params
        g0 = tp[i0] + t0 * (tp[i0 + 1] - tp[i0]) if len(tp) > i0 + 1 else tp[i0]
        g1 = tp[i1] + t1 * (tp[i1 + 1] - tp[i1]) if len(tp) > i1 + 1 else tp[i1]
        sub = cont.lift.subsegment(g0, g1)
        inner = tp[(tp > g0 + 1e-15) & (tp < g1 - 1e-15)]
        span = max(g1 - g0, 1e-300)
        t = np.concatenate([[0.0], (inner - g0) / span, [1.0]]) if g1 > g0 else np.array([0.0])
        verts = sub.project(t)
        mk = (len(t) - 1, 0) if swapped else (0, len(t) - 1)
        return MarkedContinuum(chart=cont.chart, vertices=verts, params=t,
                               mark_p=mk[0], mark_q=mk[1], lift=sub)

    verts = [first]
    for j in range(i0 + 1, i1 + 1):
        verts.append(cont.vertices[j].copy())
    if (i1, t1) != (i0, t0):
        verts.append(last)
    # drop coincident joints
    out = [verts[0]]
    for w in verts[1:]:
        if chart_distance(cont.chart, out[-1], w) > 1e-15:
            out.append(w)
    if len(out) == 1:
        return MarkedContinuum(chart=cont.chart, vertices=np.array(out), mark_p=0, mark_q=0)
    mk = (len(out) - 1, 0) if swapped else (0, len(out) - 1)
    return MarkedContinuum(chart=cont.chart, vertices=np.array(out),
                           mark_p=mk[0], mark_q=mk[1])


def concat(parts: list, tol: float = 1e-9) -> MarkedContinuum:
    """Chain polylines end-to-start into one continuum.

    Marks land on the global endpoints.  Lifts are dropped (the result is
    generally a bent path).
    """
    if not parts:
        raise ValueError("concat of no parts")
    chart = parts[0].chart
    verts = [parts[0].vertices[i].copy() for i in range(parts[0].n_vertices)]
    for nxt in parts[1:]:
        if nxt.chart != chart:
            raise ChartError("concat parts must share a chart")
        gap = chart_distance(chart, verts[-1], nxt.vertices[0])
        if gap > tol:
            raise ValueError(f"concat gap {gap:.3g} exceeds tol {tol}")
        for i in range(nxt.n_vertices):
            w = nxt.vertices[i]
            if chart_distance(chart, verts[-1], w) > 1e-15:
                verts.append(w.copy())
    return MarkedContinuum(chart=chart, vertices=np.array(verts),
                           mark_p=0, mark_q=len(verts) - 1)


# -- serialization --------------------------------------------------------


def to_record(cont: MarkedContinuum) -> dict:
    return {
        "chart": cont.chart,
        "vertices": [[float(x), float(y)] for x, y in cont.vertices],
        "mark_p": int(cont.mark_p),
        "mark_q": int(cont.mark_q),
    }


def from_record(rec: dict) -> MarkedContinuum:
    vertices = np.asarray(rec["vertices"], dtype=float)
    if not np.all(np.isfinite(vertices)):
        raise ValueError("vertices must be finite")
    return MarkedContinuum(chart=rec["chart"], vertices=vertices,
                           mark_p=int(rec["mark_p"]), mark_q=int(rec["mark_q"]))
