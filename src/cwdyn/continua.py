"""Marked continua: lifted arcs and polyline records with two marked points.

A continuum the library builds is lifted: it holds the exact straight
segment in the universal cover behind it (``models.local_arc`` or a cut
of one), or a ``concat`` path's chain of them, is marked at its ends and
builds vertices only when they are read.  Crossings, cuts and projections
take lifted arcs only, many rows a pass; a record (``from_record``, a
vertex polyline) is measured by cwmetric, nothing more.  No image
continuum is ever built: cwmetric iterates a lift in closed form (its
cover start by exact integer arithmetic mod 1, its eigen components by
the eigenvalue powers).
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import models
from .models import (
    SPHERE_QUOTIENT, SPHERE_GEOGRAPHIC,
    ChartError, Point,
    chart_distance, wrap_chart,
)

# record edges must stay under one chart step
MAX_STEP = 0.5


class OffContinuumError(ValueError):
    """A point that must lie on a continuum does not (within tol)."""


@functools.lru_cache(maxsize=None)
def _grid(nx: int, ny: int) -> np.ndarray:
    # the translate offsets [0, nx) x [0, ny) in lexicographic order, kept
    # because the enumerator runs once per vertex, crossing and sample
    return np.indices((nx, ny), dtype=float).reshape(2, -1).T


def cover_reps(chart: str, qlo, qhi, lo, hi):
    """Every plane representative s·Q + k of chart point sets Q that meets a box.

    Row i of (qlo, qhi) bounds a set Q_i and row i of (lo, hi) a plane box
    ((2,) arrays are one row).  s runs over the chart's class signs and k
    over the integer translates with s·[qlo, qhi] + k meeting the box,
    widened by 1e-9 and rounded outward, so a long box is covered whole;
    on the geographic chart k moves only the longitude.  Returns (row, s,
    k) in row, sign, then lexicographic k order; a point q of Q_i has the
    representative ``s*q + k``, added in one rounding.
    """
    qlo, qhi, lo, hi = (np.asarray(a, dtype=float).reshape(-1, 2) for a in (qlo, qhi, lo, hi))
    if chart == SPHERE_QUOTIENT:
        # s = -1 maps [qlo, qhi] to [-qhi, -qlo]
        signs = np.array([1.0, -1.0])
        kmin = np.floor(np.concatenate([lo - qhi, lo + qlo], axis=1) - 1e-9).reshape(-1, 2, 2)
        kmax = np.ceil(np.concatenate([hi - qlo, hi + qhi], axis=1) + 1e-9).reshape(-1, 2, 2)
    else:
        signs = np.array([1.0])
        kmin = np.floor(lo - qhi - 1e-9).reshape(-1, 1, 2)
        kmax = np.ceil(hi - qlo + 1e-9).reshape(-1, 1, 2)
    if chart == SPHERE_GEOGRAPHIC:
        kmin[..., 1] = kmax[..., 1] = 0.0
    if len(kmin) == 1:
        # one row: each sign's translates are its own span's grid, in order
        ks = [a + _grid(*(b - a + 1).astype(int).tolist()) for a, b in zip(kmin[0], kmax[0])]
        n = [len(k) for k in ks]
        return np.zeros(sum(n), dtype=int), np.repeat(signs, n), np.concatenate(ks)
    span = (kmax - kmin).reshape(-1, 2).max(axis=0, initial=0.0).astype(int) + 1
    k = kmin[:, :, None, :] + _grid(*span)
    inside = (k <= kmax[:, :, None, :]).all(axis=-1)
    row, si, _ = np.nonzero(inside)
    return row, signs[si], k[inside]


def unwrap_path(chart: str, v) -> np.ndarray:
    """A polyline's vertices lifted to the plane, each to its representative
    nearest the lifted vertex before it; the first vertex stays.

    Valid as a plane proxy for chart distance while every edge stays
    within half a chart step.  Vertex i lands at S_i·v_i + K_i in one
    rounding, where the sign S_i and the integer translate K_i compose
    each edge's nearest-representative step.
    """
    v = np.asarray(v, dtype=float)
    row, s, k = cover_reps(chart, v[1:], v[1:], v[:-1], v[:-1])
    gap = s[:, None] * v[1:][row] + k - v[:-1][row]
    order = np.lexsort((gap[:, 0] * gap[:, 0] + gap[:, 1] * gap[:, 1], row))
    first = order[np.unique(row[order], return_index=True)[1]]  # each edge's nearest
    sign = np.cumprod(np.r_[1.0, s[first]])
    shift = np.cumsum(np.vstack([np.zeros(2), sign[:-1, None] * k[first]]), axis=0)
    return sign[:, None] * v + shift


def unwrap_to(chart: str, anchor, v) -> np.ndarray:
    """Representative of v (class member + lattice translate) nearest anchor."""
    return unwrap_path(chart, np.stack([anchor, v]))[1]


@dataclass(frozen=True)
class StraightLift:
    """Exact straight segment in the universal cover that a lifted continuum holds.

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

    def subsegment(self, t0: float, t1: float) -> "StraightLift":
        """Sub-lift over cover params [t0, t1] of this one, re-parameterized
        to [0, 1] and oriented from t0 to t1."""
        base = self.start_arr + t0 * self.length * self.dir_arr
        d = self.dir_arr if t1 >= t0 else -self.dir_arr
        return StraightLift(start=tuple(base), direction=tuple(d),
                            length=abs(t1 - t0) * self.length,
                            chart=self.chart, stable=self.stable)


class MarkedContinuum:
    """A continuum with marked points p and q (vertex indices).

    A record holds its vertices, a polyline with edges under MAX_STEP.  A
    lifted continuum holds its ``lift`` (a path its ``legs``), is marked at
    its two ends in either order, and builds its vertices on first read
    (_vertex_view); a local arc's ``knot`` is the lift param of its point.
    """

    def __init__(self, chart: str, vertices=None, mark_p: int = 0, mark_q: int | None = None,
                 lift: StraightLift | None = None, legs: tuple = (), knot: float | None = None):
        self.chart, self.lift, self.legs, self.knot = chart, lift, tuple(legs), knot
        v = None if vertices is None else np.asarray(vertices, dtype=float)
        if (v is None) == (lift is None and not self.legs):
            raise ValueError("a continuum takes vertices (a record) or a lift or legs")
        if v is None:
            self.n_vertices = (1 + sum(leg.length > 0 for leg in self.legs) if self.legs
                               else len(_view_params(lift, knot)))
        else:
            v = v.reshape(1, 2) if v.ndim == 1 else v
            if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 1:
                raise ValueError("vertices must be an (N, 2) array with N >= 1")
            steps = chart_distance(chart, v[:-1], v[1:]) if len(v) > 1 else np.zeros(1)
            if steps.max() >= MAX_STEP:
                raise ValueError(f"consecutive vertices exceed one chart step "
                                 f"(max {float(steps.max()):.4f} >= {MAX_STEP})")
            self.n_vertices = len(v)
        self._vertices = v
        self.mark_p, self.mark_q = mark_p, self.n_vertices - 1 if mark_q is None else mark_q
        self._check_marks()

    def _check_marks(self):
        n = self.n_vertices
        for name, idx in (("mark_p", self.mark_p), ("mark_q", self.mark_q)):
            if not 0 <= idx < n:
                raise ValueError(f"{name}={idx} out of range for {n} vertices")
        if (self.lift is not None or self.legs) and \
                sorted((self.mark_p, self.mark_q)) != [0, n - 1]:
            raise ValueError(f"a lifted continuum is marked at its ends 0 and {n - 1}, "
                             f"not at {self.mark_p} and {self.mark_q}")

    @property
    def vertices(self) -> np.ndarray:
        if self._vertices is None:
            self._vertices = _vertex_view(self)
        return self._vertices

    @property
    def is_singleton(self) -> bool:
        return self.n_vertices == 1

    def point(self, idx: int) -> Point:
        return Point(self.chart, (float(self.vertices[idx, 0]), float(self.vertices[idx, 1])))

    def with_marks(self, mark_p: int, mark_q: int) -> "MarkedContinuum":
        out = copy.copy(self)
        out.mark_p, out.mark_q = mark_p, mark_q
        out._check_marks()
        return out


@functools.lru_cache(maxsize=None)
def _arc_grid() -> np.ndarray:
    # a local arc's view params before its knot
    return np.linspace(0.0, 1.0, 64)


def _view_params(lift: StraightLift, knot: float | None) -> np.ndarray:
    """A lifted arc's view params: a cut's ends (one at length 0), or a
    local arc's 64 evenly spaced ones and its knot, unless that is within
    1e-12 + 1e-5*|knot| of one (np.isclose's default tolerances)."""
    if knot is None:
        return np.array([0.0, 1.0][:1 + (lift.length > 0)])
    t = _arc_grid()
    if (np.abs(t - knot) <= 1e-12 + 1e-5 * abs(knot)).any():
        return t
    return np.sort(np.append(t, knot))


def _vertex_view(cont: MarkedContinuum) -> np.ndarray:
    """A lifted continuum's vertices: its lift at its view params, or a
    path's start and the end of each leg of nonzero length, wrapped."""
    if cont.legs:
        ends = [leg.cover_points(1.0)[0] for leg in cont.legs if leg.length > 0]
        return wrap_chart(cont.chart, np.array([cont.legs[0].start_arr, *ends]))
    return cont.lift.project(_view_params(cont.lift, cont.knot))


def _diameter_exceeds(chart: str, pts: np.ndarray, thr: float) -> bool:
    """Whether the max pairwise chart distance over pts exceeds thr.

    Decides exactly as the full distance matrix would: the distance is
    elementwise and exactly symmetric, so the upper triangle holds the
    max.  The endpoint rows go first (they usually realize a path's
    diameter), then the triangle in row blocks, stopping at the first
    block over thr; only a set of diameter <= thr pays the whole triangle.
    """
    if float(chart_distance(chart, pts[[0, -1], None, :], pts[None, :, :]).max()) > thr:
        return True
    block = 64
    for i in range(0, len(pts), block):
        d = chart_distance(chart, pts[i:i + block, None, :], pts[None, i:, :])
        if float(d.max()) > thr:
            return True
    return False


# -- segments, crossings and projections ---------------------------------


def _dedupe_points(chart: str, pts: np.ndarray, tol: float) -> np.ndarray:
    """Mask of the (N, 2) points to keep: in order, a point is kept unless
    it lies within tol of a point kept before it."""
    # in the plane proxy the crossings are solved in: the geographic arccos
    # distance of two equal points can be ~5e-9, above a 1e-9 tol
    proxy = models.TORUS if chart == SPHERE_GEOGRAPHIC else chart
    n = len(pts)
    near = {}  # point -> the earlier points within tol
    for d in range(1, n):
        close = ~(chart_distance(proxy, pts[d:], pts[:-d]) > tol)
        for i in np.nonzero(close)[0] + d:
            near.setdefault(int(i), []).append(int(i) - d)
    keep = np.ones(n, dtype=bool)
    for i in sorted(near):
        keep[i] = not keep[near[i]].any()
    return keep


def _segments(cont: MarkedContinuum):
    """A lifted arc's one cover segment as (starts, vectors, lengths)."""
    lf = cont.lift
    if lf is None:
        raise ValueError("continuum has no lift: crossings, cuts, projections and concat "
                         "take lifted arcs (models.local_arc or a cut of one)")
    return (lf.start_arr[None, :], (lf.dir_arr * lf.length)[None, :],
            np.array([lf.length]))


def _to_segment(p, a, d):
    """Foot parameter and distance of plane points p from segments a + t·d.

    Vectorized over (..., 2).  Returns the unclamped parameter t of the
    foot (0 on a degenerate segment) and the distance from p to the
    segment, t clamped to [0, 1].
    """
    w = p - a
    num = w[..., 0] * d[..., 0] + w[..., 1] * d[..., 1]
    den = d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]
    t = num / np.where(den > 0, den, np.inf)
    foot = a + np.clip(t, 0.0, 1.0)[..., None] * d
    return t, np.linalg.norm(p - foot, axis=-1)


def _nearest_on(chart: str, segs, xy):
    """Nearest cover point to chart point xy[i] (n, 2) on plane segment i
    of segs (see _segments; one segment serves every point).

    Returns (t, r, dist) over the rows: the unclamped parameter of the
    foot, the point's first nearest representative r, and r's distance
    from the segment.  Representatives come from each segment's bounding
    box widened by 0.75, which holds the one nearest the segment, also on
    a lift many chart steps long.
    """
    xy = np.asarray(xy, dtype=float).reshape(-1, 2)
    a, d = segs[:2]
    row, s, k = cover_reps(chart, xy, xy, np.minimum(a, a + d) - 0.75,
                           np.maximum(a, a + d) + 0.75)
    r = s[:, None] * xy[row] + k
    at = row if len(a) > 1 else 0
    t, dist = _to_segment(r, a[at], d[at])
    # rows come grouped in order; the stable sort keeps a row's ties in representative order
    first = np.lexsort((dist, row))[np.searchsorted(row, np.arange(len(xy)))]
    return t[first], r[first], dist[first]


def _crossings(chart: str, seg_a, seg_b, ia, ib, tol: float):
    """Chart points where plane segment A[ia[m]] meets cover copies of
    segment B[ib[m]], for each pair m.

    Each pair is solved over the representatives of B's segment whose
    bounding box meets A's.  tol is a distance along each segment: a
    crossing up to tol beyond an end counts and is clamped onto A.  A pair
    is parallel when its determinant is below 1e-14 of its length product
    or each endpoint lies within tol of the other segment's line; it then
    meets at each of its four endpoints within tol of the other segment.
    Returns the points, the pair m of each, in pair order, and whether
    each needed no clamping.  All pairs are solved at once: a caller
    bounds their number.
    """
    a0, da0, la0 = seg_a
    b0, db0, lb0 = seg_b
    m, s, k = cover_reps(chart, np.minimum(b0, b0 + db0)[ib], np.maximum(b0, b0 + db0)[ib],
                         np.minimum(a0, a0 + da0)[ia], np.maximum(a0, a0 + da0)[ia])
    ia, ib = ia[m], ib[m]
    a, da, la = a0[ia], da0[ia], la0[ia]
    b, db, lb = k + s[:, None] * b0[ib], s[:, None] * db0[ib], lb0[ib]
    rhs = b - a
    det = da[:, 0] * (-db[:, 1]) - (-db[:, 0]) * da[:, 1]
    t_num = rhs[:, 0] * (-db[:, 1]) - (-db[:, 0]) * rhs[:, 1]
    u_num = da[:, 0] * rhs[:, 1] - rhs[:, 0] * da[:, 1]
    # |u_num| and |u_num - det| are la times B's end offsets from A's line
    parallel = (np.abs(det) < 1e-14 * np.maximum(la * lb, 1e-300)) \
        | ((np.maximum(np.abs(u_num), np.abs(u_num - det)) <= tol * la)
           & (np.maximum(np.abs(t_num), np.abs(t_num - det)) <= tol * lb))
    tol_a = tol / np.maximum(la, 1e-300)
    tol_b = tol / np.maximum(lb, 1e-300)
    den = np.where(parallel, np.nan, det)
    t, u = t_num / den, u_num / den
    cross = a + np.clip(t, 0.0, 1.0)[:, None] * da
    hit = (t >= -tol_a) & (t <= 1 + tol_a) & (u >= -tol_b) & (u <= 1 + tol_b)
    on_a = (t >= 0.0) & (t <= 1.0)
    if not parallel.any():
        return wrap_chart(chart, cross[hit]), m[hit], on_a[hit]
    ends = np.stack([b, b + db, a, a + da], axis=1)
    _, off = _to_segment(ends, np.stack([a, a, b, b], axis=1),
                         np.stack([da, da, db, db], axis=1))
    keep = np.concatenate([hit[:, None], parallel[:, None] & (off <= tol)], axis=1)
    # a parallel pair's hits are segment ends, which need no clamping
    return (wrap_chart(chart, np.concatenate([cross[:, None], ends], axis=1)[keep]),
            np.broadcast_to(m[:, None], keep.shape)[keep],
            np.concatenate([on_a[:, None], keep[:, 1:]], axis=1)[keep])


def _arc_segments(sys, chart: str, xy, stable: bool, eps: float):
    """The cover segments (starts, vectors, lengths) of the local arcs at
    scale eps of the (n, 2) chart points xy, the lifts ``models.local_arc``
    gives them, without their vertices."""
    e, start, length = models._arc_frame(sys, chart, xy, stable, eps)
    return start, e * length[:, None], length


def _arc_pair_hits(sys, xs, ys, eps: float) -> np.ndarray:
    """Raw crossing count of the local stable arc of xs[i] with the local
    unstable arc of ys[i] at scale eps, for each row i.

    xs and ys are (n, 2) chart points, normalized as ``sys.point`` leaves
    them.  Each arc is the lift ``models.local_arc`` gives it, and row i
    is solved against row i alone, at intersect's default tol, as
    intersect solves two lifted arcs.  The count is taken before
    deduplication, so a count below two is the number of points that
    intersect returns for the pair.
    """
    segs = [_arc_segments(sys, sys.chart, xy, stable, eps)
            for xy, stable in ((xs, True), (ys, False))]
    rows = np.arange(len(xs))
    _, pair, _ = _crossings(sys.chart, *segs, rows, rows, 1e-9)
    return np.bincount(pair, minlength=len(rows))


def intersect(c1: MarkedContinuum, c2: MarkedContinuum, tol: float = 1e-9) -> list:
    """All intersection points of two lifted arcs, deduplicated within tol.

    The arcs meet as their cover segments under _crossings' rule: tol is
    a distance along each segment, and a crossing up to tol past an end
    is clamped onto that end.  Near a spine two cover representatives
    can cross within tol of each other, one of them past the end: the
    hits that needed no clamping are deduplicated first, so the exact
    crossing is the one kept, and the survivors keep the order of the
    representatives that give them.
    """
    if c1.chart != c2.chart:
        raise ChartError(f"chart mismatch: {c1.chart!r} vs {c2.chart!r}")
    return [Point(c1.chart, (float(p[0]), float(p[1])))
            for p in _bracket(c1.chart, _segments(c1), _segments(c2), tol)]


def _bracket(chart: str, seg_a, seg_b, tol: float) -> np.ndarray:
    """The (n, 2) chart points where one cover segment A (starts, vectors,
    lengths of one row) meets the cover copies of one segment B, under
    intersect's rule: clamped onto A, exact hits deduplicated first."""
    one = np.zeros(1, dtype=int)
    raw, _, exact = _crossings(chart, seg_a, seg_b, one, one, tol)
    return _dedupe_crossings(chart, raw, exact, tol)


def _dedupe_crossings(chart: str, raw: np.ndarray, exact: np.ndarray, tol: float) -> np.ndarray:
    """One pair's crossings from _crossings deduplicated as intersect does:
    exact hits first, the survivors in their order."""
    first = np.argsort(~exact, kind="stable")
    keep = np.empty(len(raw), dtype=bool)
    keep[first] = _dedupe_points(chart, raw[first], max(tol, 1e-12))
    return raw[keep]


# -- sub-arcs and concatenation -------------------------------------------


def _project_to_lift(cont: MarkedContinuum, xy):
    """Lift parameters of the nearest points of a lifted arc to the rows
    of xy (n, 2), clamped to [0, 1], and their distances from the arc."""
    t, _, dist = _nearest_on(cont.chart, _segments(cont), xy)
    return [min(max(v, 0.0), 1.0) for v in t.tolist()], dist.tolist()


def subcontinuum(cont: MarkedContinuum, a: Point, b: Point,
                 tol: float = 1e-9) -> MarkedContinuum:
    """Sub-arc of a lifted arc between the projections of a and b, marked
    at a and b: the lift cut at their lift parameters, both projected in
    one pass."""
    for p in (a, b):
        if p.chart != cont.chart:
            raise ChartError(f"point chart {p.chart!r} does not match continuum {cont.chart!r}")
    (ka, kb), (da, db) = _project_to_lift(cont, np.array([a.coords, b.coords]))
    if da > tol:
        raise OffContinuumError(f"point p is {da:.3g} from the continuum (tol {tol})")
    if db > tol:
        raise OffContinuumError(f"point q is {db:.3g} from the continuum (tol {tol})")
    sub = MarkedContinuum(chart=cont.chart, lift=cont.lift.subsegment(min(ka, kb), max(ka, kb)))
    return sub.with_marks(sub.mark_q, sub.mark_p) if kb < ka else sub


def concat(parts: list, tol: float = 1e-9) -> MarkedContinuum:
    """Chain lifted parts end-to-start into one path marked at its ends.

    Each part's lift, run from mark_p to mark_q (its ends, params 0 and
    1), is moved to s·a + k, the cover representative of its start a
    nearest the end of the leg before it; a gap over tol raises
    OffContinuumError.  The path holds these legs.
    """
    if not parts:
        raise ValueError("concat of no parts")
    chart = parts[0].chart
    legs = []
    for part in parts:
        if part.chart != chart:
            raise ChartError("concat parts must share a chart")
        _segments(part)  # a record has no lift to chain
        leg = part.lift.subsegment(float(part.mark_p > 0), float(part.mark_q > 0))
        if legs:
            end = legs[-1].cover_points(1.0)
            _, s, k = cover_reps(chart, leg.start, leg.start, end, end)
            gap = np.linalg.norm(s[:, None] * leg.start_arr + k - end, axis=1)
            j = int(np.argmin(gap))
            if gap[j] > tol:
                raise OffContinuumError(f"concat gap {gap[j]:.3g} exceeds tol {tol}")
            leg = replace(leg, start=s[j] * leg.start_arr + k[j], direction=s[j] * leg.dir_arr)
        legs.append(leg)
    return MarkedContinuum(chart=chart, legs=tuple(legs))


# -- serialization --------------------------------------------------------


def to_record(cont: MarkedContinuum) -> dict:
    return {
        "chart": cont.chart,
        "vertices": [[float(x), float(y)] for x, y in cont.vertices],
        "mark_p": int(cont.mark_p),
        "mark_q": int(cont.mark_q),
    }


def from_record(rec: dict) -> MarkedContinuum:
    """A record's continuum: marks JSON integers, coordinates finite JSON numbers."""
    if any(type(rec[m]) is not int for m in ("mark_p", "mark_q")):
        raise ValueError(f"marks must be integers, got {rec['mark_p']!r} and {rec['mark_q']!r}")
    vertices = np.asarray(rec["vertices"], dtype=object)
    if not all(type(x) is int or type(x) is float and math.isfinite(x) for x in vertices.flat):
        raise ValueError("vertex coordinates must be finite numbers")
    return MarkedContinuum(chart=rec["chart"], vertices=vertices.astype(float),
                           mark_p=rec["mark_p"], mark_q=rec["mark_q"])
