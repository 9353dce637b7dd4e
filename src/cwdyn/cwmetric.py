"""Self-similar hyperbolic metric on marked continua.

The pipeline, for a homeomorphism f with expansivity working constant c:

* ``escape_time``  N(C) = min{|n| : diam(f^n(C)) > c}, infinity for
  singletons, with a ">= horizon" sentinel when truncated.
* ``escape_weight``  rho(C) = alpha^(-N(C)), alpha = 2^(1/m).
* ``chain_weight``  P(C_(p,q)) = inf over chains of sub-continua joining
  p to q and covering C of the summed escape weights, approximated by a
  shortest-path DP over dyadic cut points (an upper bound on the true
  infimum that still satisfies P <= rho <= 4 P).
* ``window_weight``  D'(C) = max over |i| <= n0-1 of P(f^i C)/lam^|i|.
* ``cw_metric``  D(C) = sup over i in Z of D'(f^i C)/lam^|i|, evaluated
  with an exact stopping rule (D' <= 1 makes the tail geometric).

Iterated diameters of model arcs are decided in closed form from their
straight lifts: a cover segment with eigen-components (a_u, a_s) has
length hypot(a_u su^e, a_s ss^e) at iterate e, and on the torus a
straight segment of length L has diameter > thr iff L > thr (for
thr < 0.45).  On the quotient sphere the fold v ~ -v can suppress an
escape; that case is decided exactly by the sup of the distance to the
lattice along the doubled segment, which is taken at the window's ends
or where the segment crosses a line of Z + 1/2.  Calibration decides
membership in its arc family with the same straight-segment identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import models
from .models import (
    CalibrationError, ModelCapabilityError, TORUS, SPHERE_QUOTIENT,
    NORTH_SOUTH, chart_distance_arr,
)
from .continua import MarkedContinuum, _diameter_exceeds, unwrap_path

INFINITY = math.inf

# float64 resolution at chart scale, where coordinates are O(1): a vertex
# this close to a run's line is collinear up to rounding, not a corner
_MERGE_TOL = 8 * 2.0 ** -52

# torus straight-segment diameter predicates are exact below this scale
MAX_C = 0.45


@dataclass(frozen=True)
class MetricConstants:
    """Calibrated constants of the metric pipeline."""

    c: float
    m: int
    alpha: float
    n0: int
    k: float
    lam: float
    xi: float
    horizon: int

    def __post_init__(self):
        if not (self.alpha > 1 and self.k > 1 and self.lam > 1):
            raise ValueError("alpha, k, lam must all exceed 1")
        if abs(self.alpha - 2.0 ** (1.0 / self.m)) > 1e-12:
            raise ValueError("alpha must equal 2^(1/m)")
        if abs(self.k - self.alpha ** self.n0 / 4.0) > 1e-12:
            raise ValueError("k must equal alpha^n0 / 4")
        if abs(self.lam - self.k ** (1.0 / self.n0)) > 1e-12:
            raise ValueError("lam must equal k^(1/n0)")
        want_xi = 1.0 / (4.0 * self.alpha * self.lam ** (self.n0 - 1))
        if abs(self.xi - want_xi) > 1e-12:
            raise ValueError("xi must equal 1/(4 alpha lam^(n0-1))")
        if self.horizon < 1:
            raise ValueError("horizon must be positive")


def constants_for(c: float, m: int, tail: float = 1e-12) -> MetricConstants:
    """Derive the full constant set from c and the escape bound m."""
    m = int(m)
    alpha = 2.0 ** (1.0 / m)
    # smallest n0 with alpha^n0/4 > 1; exactly: 2^(n0/m) > 4 iff n0 > 2m
    n0 = 2 * m + 1
    k = 2.0 ** (n0 / m - 2.0)
    lam = 2.0 ** (1.0 / (m * n0))
    horizon = max(1, int(math.ceil(math.log(1.0 / tail) / math.log(lam))))
    while lam ** (-horizon) >= tail:
        horizon += 1
    xi = 1.0 / (4.0 * alpha * lam ** (n0 - 1))
    return MetricConstants(c=float(c), m=m, alpha=alpha, n0=n0, k=k,
                           lam=lam, xi=xi, horizon=horizon)


# -- closed-form diameter machinery ---------------------------------------


def _fold_escape(w0: np.ndarray, d: np.ndarray, lo: float, hi: float,
                 thr: float) -> bool:
    """Exact check of sup{dist(w0 + s*d, Z^2) : s in [lo, hi]} > thr, for
    lo <= hi, a unit vector d and thr < 1/2.

    Long windows short-circuit: if one coordinate sweeps more than 2*thr,
    some point has that coordinate farther than thr from the integers,
    hence is farther than thr from the lattice.  Otherwise each coordinate
    crosses at most one line of Z + 1/2.  Between such crossings the
    nearest lattice point is fixed, so the distance is convex along the
    line.  The sup is then the max over the window's two ends and its
    crossings.  A sup that ties thr is no escape (strict >, as in N).
    """
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


def _segment_exceeds(chart: str, start: np.ndarray, d: np.ndarray,
                     length: float, thr: float) -> bool:
    """Whether the straight cover segment start + t*d, t in [0, length],
    has chart diameter > thr (d a unit vector, thr < MAX_C).

    On the torus that is length > thr.  On the quotient the points at t1
    and t2 lie min(|t1 - t2|, dist(2*start + (t1 + t2)*d, Z^2)) apart while
    length <= 1/2, and a sum t1 + t2 = s leaves room for |t1 - t2| > thr
    iff s lies in (thr, 2*length - thr).  So the diameter exceeds thr iff
    length > thr and the fold sup over [thr, 2*length - thr] from
    wrap(2*start) exceeds thr.  The identity holds for length <= 1/2 at
    every thr < 1/2, and at every length when thr <= 1/4: a longer segment
    then exceeds thr and its window is longer than a lattice disk of
    radius thr, so both sides are true.
    """
    if not length > thr:
        return False
    if chart == TORUS:
        return True
    return _fold_escape(models._wrap1(2.0 * start), d, thr, 2.0 * length - thr, thr)


class _Piece:
    """One straight cover segment of a path: start + t*(au*eu + as*es)."""

    __slots__ = ("s", "au", "as_")

    def __init__(self, s, au, as_):
        self.s = np.asarray(s, dtype=float)
        self.au = float(au)
        self.as_ = float(as_)


def _eigen_piece(frame: models.EigenFrame, s, vec) -> _Piece:
    """The piece from s along the cover vector vec, split in the eigenframe."""
    as_, au = frame.inv @ np.asarray(vec, dtype=float)
    return _Piece(s, au, as_)


def _lift_piece(lf, frame: models.EigenFrame) -> _Piece:
    """The one piece of a straight lift; eigen-tagged lifts are exact."""
    d = lf.dir_arr
    if lf.stable is True:
        return _Piece(lf.start_arr, 0.0, lf.length * math.copysign(1.0, float(d @ frame.es)))
    if lf.stable is False:
        return _Piece(lf.start_arr, lf.length * math.copysign(1.0, float(d @ frame.eu)), 0.0)
    return _eigen_piece(frame, lf.start_arr, lf.length * d)


def _pieces_of(sys, cont: MarkedContinuum, frame: models.EigenFrame) -> list:
    """Decompose a continuum into straight cover pieces.

    Lifted arcs give one piece with exact eigen components; plain
    polylines are unwrapped edge by edge, merging each vertex into the
    current run while it lies within _MERGE_TOL of the run's line and
    still moves forward.
    """
    if cont.lift is not None:
        return [_lift_piece(cont.lift, frame)]
    v = cont.vertices
    if len(v) < 2:
        return []
    pieces = []
    path = unwrap_path(cont.chart, v)
    run = None  # (start, accumulated vec)
    prev = path[0]
    for nxt in path[1:]:
        dv = nxt - prev
        if run is not None:
            w = nxt - run[0]
            cr = run[1][0] * w[1] - run[1][1] * w[0]
            if abs(cr) <= _MERGE_TOL * np.linalg.norm(run[1]) \
                    and float(run[1] @ dv) >= 0:
                run = (run[0], run[1] + dv)
                prev = nxt
                continue
            pieces.append(run)
        run = (prev.copy(), dv.copy())
        prev = nxt
    if run is not None:
        pieces.append(run)
    return [_eigen_piece(frame, models._wrap1(s), vec) for s, vec in pieces]


class _PathEngine:
    """Iterated-diameter and escape-time engine for a path of pieces."""

    def __init__(self, sys, pieces: list, c: float, horizon: int,
                 frame: models.EigenFrame):
        self.sys = sys
        self.chart = sys.chart
        self.c = float(c)
        self.horizon = int(horizon)
        self.frame = frame
        self.pieces = pieces
        self.lengths0 = [math.hypot(p.au, p.as_) for p in pieces]
        self.total0 = float(sum(self.lengths0))
        self._pred = {}
        self._n_cache = {}
        self._sub = {}
        self._analytic = self._single_thresholds() if len(pieces) == 1 else None

    @property
    def is_singleton(self) -> bool:
        return self.total0 <= 0.0

    # piece geometry at iterate e

    def _plen(self, p: _Piece, e: int) -> float:
        return math.hypot(p.au * (self.frame.su ** e),
                          p.as_ * (self.frame.ss ** e))

    def _pvec(self, p: _Piece, e: int) -> np.ndarray:
        return (p.au * (self.frame.su ** e)) * self.frame.eu \
            + (p.as_ * (self.frame.ss ** e)) * self.frame.es

    def _pstart(self, p: _Piece, e: int) -> np.ndarray:
        if e == 0:
            return p.s
        mp = models._mat_power(self.sys.matrix, e)
        return models._exact_linear_mod1(mp, p.s)

    # whole-path diameter predicate at iterate e

    def predicate(self, e: int) -> bool:
        got = self._pred.get(e)
        if got is not None:
            return got
        val = self._predicate_raw(e)
        self._pred[e] = val
        return val

    def _predicate_raw(self, e: int) -> bool:
        lens = [self._plen(p, e) for p in self.pieces]
        for p, ln in zip(self.pieces, lens):
            if ln > self.c and _segment_exceeds(self.chart, self._pstart(p, e),
                                                self._pvec(p, e) / ln, ln, self.c):
                return True
        total = float(sum(lens))
        if total <= self.c:
            return False
        if len(self.pieces) == 1:
            # single piece, over c in length, fold-suppressed
            return False
        # connect piece starts into one cover picture
        nodes = [self._pstart(self.pieces[0], e)]
        for p, ln in zip(self.pieces, lens):
            nodes.append(nodes[-1] + self._pvec(p, e))
        nodes = np.array(nodes)
        if total < 0.5:
            return _diameter_exceeds(self.chart, nodes, self.c)
        # long multi-piece path: sampled lower bound of the diameter
        samples = []
        for p, ln, node in zip(self.pieces, lens, nodes[:-1]):
            n = min(max(2, int(ln / 0.02) + 1), 512)
            t = np.linspace(0.0, 1.0, n)
            samples.append(node[None, :] + t[:, None] * self._pvec(p, e)[None, :])
        pts = np.concatenate(samples)
        if len(pts) > 2048:
            pts = pts[:: len(pts) // 2048 + 1]
        return _diameter_exceeds(self.chart, pts, self.c)

    # escape times

    def _single_thresholds(self):
        """Length-escape exponent thresholds for a one-piece path.

        The iterated length is log-convex in e, so {e : length > c} is
        (-inf, e_back] + [e_fwd, inf).  Returns ("always", None, None) when
        the length exceeds c at every iterate, else ("split", e_back, e_fwd)
        with None for a tail that never escapes.  On the torus length
        escape is exactly diameter escape; quotient fold suppression is
        re-verified at use time.
        """
        if self.is_singleton or len(self.pieces) != 1:
            return None
        p = self.pieces[0]
        lu, ls = abs(self.frame.su), abs(self.frame.ss)

        def ln_at(e):
            try:
                return math.hypot(p.au * (lu ** e), p.as_ * (ls ** e))
            except OverflowError:
                return INFINITY

        if p.au != 0 and p.as_ != 0:
            # integer exponents bracketing the length minimum
            estar = math.log((abs(p.as_) * math.log(1.0 / ls))
                             / (abs(p.au) * math.log(lu))) / math.log(lu / ls)
            lo, hi = int(math.floor(estar)), int(math.floor(estar)) + 1
            if min(ln_at(lo), ln_at(hi)) > self.c:
                return ("always", None, None)
            e = hi
            while not ln_at(e) > self.c:
                e += 1
            e_fwd = e
            e = lo
            while not ln_at(e) > self.c:
                e -= 1
            e_back = e
            return ("split", e_back, e_fwd)
        if p.au != 0:  # pure expanding: escapes forward only
            e = int(math.ceil(math.log(self.c / abs(p.au)) / math.log(lu))) - 2
            while not ln_at(e) > self.c:
                e += 1
            while ln_at(e - 1) > self.c:
                e -= 1
            return ("split", None, e)
        # pure contracting: escapes backward only
        e = int(math.floor(math.log(self.c / abs(p.as_)) / math.log(ls))) + 2
        while not ln_at(e) > self.c:
            e -= 1
        while ln_at(e + 1) > self.c:
            e += 1
        return ("split", e, None)

    def _in_length_set(self, e: int) -> bool:
        mode, e_back, e_fwd = self._analytic
        if mode == "always":
            return True
        return (e_back is not None and e <= e_back) or \
            (e_fwd is not None and e >= e_fwd)

    def escape_from(self, shift: int):
        """N(f^shift C): min |j| with diam(f^(shift+j) C) > c; inf if none
        found within the horizon."""
        if self.is_singleton:
            return INFINITY
        got = self._n_cache.get(shift)
        if got is not None:
            return got
        val = self._escape_raw(shift)
        self._n_cache[shift] = val
        return val

    def _escape_raw(self, shift: int):
        if self._analytic is not None:
            mode, e_back, e_fwd = self._analytic
            # first j at which shift + j or shift - j lies in the length set;
            # for every smaller j both lie strictly between e_back and e_fwd
            j0 = 0
            if mode == "split":
                gaps = []
                if e_fwd is not None:
                    gaps.append(e_fwd - shift)
                if e_back is not None:
                    gaps.append(shift - e_back)
                j0 = max(0, min(gaps))
            if self.chart == TORUS:  # length escape is diameter escape
                return j0 if j0 <= self.horizon else INFINITY
            # quotient single piece: the fold check runs only inside tails
            for j in range(j0, self.horizon + 1):
                if self._in_length_set(shift + j) and self.predicate(shift + j):
                    return j
                if j and self._in_length_set(shift - j) and self.predicate(shift - j):
                    return j
            return INFINITY
        for j in range(self.horizon + 1):
            if self.predicate(shift + j):
                return j
            if j and self.predicate(shift - j):
                return j
        return INFINITY

    # sub-paths over a param window [a, b] (path params by cover length)

    def _param_locate(self, t: float):
        target = t * self.total0
        acc = 0.0
        for i, ln in enumerate(self.lengths0):
            if target <= acc + ln or i == len(self.lengths0) - 1:
                loc = 0.0 if ln == 0 else (target - acc) / ln
                return i, min(max(loc, 0.0), 1.0)
            acc += ln
        return len(self.lengths0) - 1, 1.0

    def sub_engine(self, a: float, b: float) -> "_PathEngine":
        key = (a, b)
        got = self._sub.get(key)
        if got is not None:
            return got
        ia, ta = self._param_locate(a)
        ib, tb = self._param_locate(b)
        pieces = []
        for i in range(ia, ib + 1):
            p = self.pieces[i]
            t0 = ta if i == ia else 0.0
            t1 = tb if i == ib else 1.0
            if t1 <= t0:
                continue
            s = p.s + t0 * self._pvec(p, 0)
            pieces.append(_Piece(np.asarray(models._wrap1(s)),
                                 (t1 - t0) * p.au, (t1 - t0) * p.as_))
        eng = _PathEngine(self.sys, pieces, self.c, self.horizon, self.frame)
        self._sub[key] = eng
        return eng


def _make_engine(sys, cont: MarkedContinuum, c: float, horizon: int) -> _PathEngine:
    if sys.kind == NORTH_SOUTH:
        raise ModelCapabilityError("the metric pipeline needs a toral model; "
                                   "the north-south map fails calibration")
    if cont.chart != sys.chart:
        raise models.ChartError(f"continuum chart {cont.chart!r} does not match "
                                f"model {sys.chart!r}")
    frame = models.eigen_frame(sys.matrix)
    pieces = [] if cont.is_singleton else _pieces_of(sys, cont, frame)
    return _PathEngine(sys, pieces, c, horizon, frame)


class MetricEvaluator:
    """Shared-cache evaluator of the whole pipeline for one continuum."""

    def __init__(self, sys, cont: MarkedContinuum, consts: MetricConstants,
                 depth: int = 4):
        self.consts = consts
        self.depth = int(depth)
        self.engine = _make_engine(sys, cont, consts.c, consts.horizon)
        if cont.params is not None:
            tp = float(cont.params[cont.mark_p])
            tq = float(cont.params[cont.mark_q])
            span = float(cont.params[-1] - cont.params[0])
            if span > 0:
                tp = (tp - float(cont.params[0])) / span
                tq = (tq - float(cont.params[0])) / span
        else:
            # cumulative-length params of the marked vertices
            v = cont.vertices
            if len(v) > 1:
                steps = chart_distance_arr(cont.chart, v[:-1], v[1:])
                cum = np.concatenate([[0.0], np.cumsum(steps)])
                tot = cum[-1] if cum[-1] > 0 else 1.0
                tp = float(cum[cont.mark_p] / tot)
                tq = float(cum[cont.mark_q] / tot)
            else:
                tp = tq = 0.0
        self.tp, self.tq = min(tp, tq), max(tp, tq)
        self._chain = {}
        self._window = {}

    def escape(self, shift: int = 0):
        return self.engine.escape_from(shift)

    def rho(self, shift: int = 0) -> float:
        n = self.engine.escape_from(shift)
        if n is INFINITY or n >= self.consts.horizon:
            return 0.0
        return self.consts.alpha ** (-n)

    def _rho_block(self, shift: int, a: float, b: float) -> float:
        if a == 0.0 and b == 1.0:
            return self.rho(shift)
        eng = self.engine.sub_engine(a, b)
        n = eng.escape_from(shift)
        if n is INFINITY or n >= self.consts.horizon:
            return 0.0
        return self.consts.alpha ** (-n)

    def chain(self, shift: int = 0) -> float:
        got = self._chain.get(shift)
        if got is not None:
            return got
        val = self._chain_raw(shift)
        self._chain[shift] = val
        return val

    def _chain_raw(self, shift: int) -> float:
        if self.engine.is_singleton:
            return 0.0
        g = 2 ** self.depth
        full = self._rho_block(shift, 0.0, 1.0)
        if g == 1:
            return full
        eps = 1e-12
        tp, tq = self.tp, self.tq
        best = {}
        for j in range(1, g + 1):
            if j / g >= tp - eps:
                best[j] = self._rho_block(shift, 0.0, j / g)
        for j in range(2, g + 1):
            for i in range(1, j):
                bi = best.get(i)
                if bi is None:
                    continue
                cand = bi + self._rho_block(shift, i / g, j / g)
                if j not in best or cand < best[j]:
                    best[j] = cand
        ans = full
        for i, bi in best.items():
            if i == g:
                if tq >= 1.0 - eps:
                    ans = min(ans, bi)
            elif i / g <= tq + eps:
                ans = min(ans, bi + self._rho_block(shift, i / g, 1.0))
        return ans

    def window(self, shift: int = 0) -> float:
        got = self._window.get(shift)
        if got is not None:
            return got
        n0 = self.consts.n0
        lam = self.consts.lam
        val = max(self.chain(shift + i) / lam ** abs(i)
                  for i in range(-(n0 - 1), n0))
        self._window[shift] = val
        return val

    def metric_profile(self, base_shift: int = 0) -> dict:
        lam = self.consts.lam
        if self.engine.is_singleton:
            return {"D": 0.0, "achieved_index": 0, "tail_bound": 0.0,
                    "truncated": False}
        best = 0.0
        arg = 0
        truncated = True
        tail = lam ** (-self.consts.horizon)
        for j in range(self.consts.horizon + 1):
            for i in ((j,) if j == 0 else (j, -j)):
                term = self.window(base_shift + i) / lam ** j
                if term > best:
                    best, arg = term, i
            if lam ** (-(j + 1)) <= best:
                truncated = False
                tail = 0.0
                break
        return {"D": best, "achieved_index": arg, "tail_bound": tail,
                "truncated": truncated}

    def metric(self, base_shift: int = 0) -> float:
        return self.metric_profile(base_shift)["D"]


# -- public operations -----------------------------------------------------


def escape_time(sys, cont: MarkedContinuum, consts: MetricConstants):
    """N(C): iterates needed for the diameter to exceed c.

    math.inf for singletons; the value ``consts.horizon`` is a sentinel
    meaning ">= horizon" (effective infinity for the pipeline).
    """
    eng = _make_engine(sys, cont, consts.c, consts.horizon)
    n = eng.escape_from(0)
    return consts.horizon if n is INFINITY and not eng.is_singleton else n


def escape_weight(sys, cont: MarkedContinuum, consts: MetricConstants) -> float:
    """rho(C) = alpha^(-N(C)); 0 at or beyond the horizon."""
    return MetricEvaluator(sys, cont, consts).rho(0)


def chain_weight(sys, cont: MarkedContinuum, consts: MetricConstants,
                 depth: int = 4) -> float:
    """Dyadic-chain upper approximation of P(C_(p,q)).

    Monotone non-increasing in depth; always within [rho/4, rho].
    """
    return MetricEvaluator(sys, cont, consts, depth).chain(0)


def window_weight(sys, cont: MarkedContinuum, consts: MetricConstants,
                  depth: int = 4) -> float:
    """D'(C): the (2 n0 - 1)-iterate window max of lam-discounted chain weights."""
    return MetricEvaluator(sys, cont, consts, depth).window(0)


def cw_metric(sys, cont: MarkedContinuum, consts: MetricConstants,
              depth: int = 4) -> float:
    """D(C): the self-similar metric value (truncated sup, exact stop rule)."""
    return MetricEvaluator(sys, cont, consts, depth).metric(0)


def cw_metric_profile(sys, cont: MarkedContinuum, consts: MetricConstants,
                      depth: int = 4) -> dict:
    """Full pipeline record {N, rho, P, Dprime, D, achieved_index, tail_bound}."""
    ev = MetricEvaluator(sys, cont, consts, depth)
    prof = ev.metric_profile(0)
    n = ev.escape(0)
    prof.update({
        "N": (consts.horizon if n is INFINITY and not ev.engine.is_singleton else n),
        "rho": ev.rho(0),
        "P": ev.chain(0),
        "Dprime": ev.window(0),
        "depth": int(depth),
    })
    return prof


def cw_metric_family(sys, cont: MarkedContinuum, consts: MetricConstants,
                     shifts, depth: int = 4) -> dict:
    """D(f^j C) for each j in shifts, sharing all internal caches."""
    ev = MetricEvaluator(sys, cont, consts, depth)
    return {int(j): ev.metric(int(j)) for j in shifts}


# -- calibration ------------------------------------------------------------


def _eigen_arc_samples(sys, c: float, budget: int, rng) -> list:
    """Stable/unstable arc sample family with diameters in (c/2, c]."""
    from .continua import StraightLift

    lens = [0.505 * c, 0.75 * c, 0.999 * c]
    samples = []
    grid = [i / 8.0 for i in range(8)]
    for stable in (True, False):
        for gx in grid:
            for gy in grid:
                samples.append((np.array([gx, gy]), stable, 0.75 * c, True))
        if sys.chart == SPHERE_QUOTIENT:
            for sx, sy in ((0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)):
                for ln in lens:
                    samples.append((np.array([sx, sy]), stable, ln, False))
                    for off in (1e-3, 1e-2, 0.1):
                        samples.append((np.array([sx + off, sy + off * 0.7]),
                                        stable, ln, True))
    while len(samples) < budget:
        xy = rng.uniform(0.0, 1.0, size=2)
        stable = bool(rng.integers(0, 2))
        ln = float(rng.uniform(0.505 * c, 0.999 * c))
        samples.append((xy, stable, ln, True))
    if len(samples) > budget:
        idx = rng.choice(len(samples), size=budget, replace=False)
        samples = [samples[i] for i in sorted(idx)]
    lifts = []
    for xy, stable, ln, two_sided in samples:
        e = sys.eigen_direction(stable=stable)
        start = xy - (ln / 2.0) * e if two_sided else xy
        lifts.append(StraightLift(start=tuple(start), direction=tuple(e),
                                  length=ln, chart=sys.chart, stable=stable))
    return lifts


def _ns_samples(c: float, budget: int, rng) -> list:
    """Meridian colat windows (lon, t0, t1) with diameters in (c/2, c]."""
    samples = []
    for t0 in np.linspace(0.0, 1.0 - c, 25):
        for span in (0.55 * c, 0.8 * c, c):
            if t0 + span <= 1.0:
                samples.append((0.0, float(t0), float(t0 + span)))
    while len(samples) < budget:
        span = float(rng.uniform(0.505 * c, c))
        t0 = float(rng.uniform(0.0, 1.0 - span))
        samples.append((float(rng.uniform(0, 1)), t0, t0 + span))
    return samples[:budget]


def _ns_colat(t: float, n: int) -> float:
    p = 2.0 ** n
    return p * t / (1.0 + (p - 1.0) * t)


def calibrate(sys, c: float | None = None, sample_budget: int = 400,
              seed: int = 0, max_m: int | None = None) -> MetricConstants:
    """Find the escape bound m on a sampled continuum family and derive
    the metric constants.

    m is the smallest integer such that every sampled continuum with
    diameter above c/2 reaches diameter above c within m iterates (either
    direction).  The samples on the toral models are straight eigen-arcs,
    and whether one's diameter exceeds c/2 is decided exactly from its
    lift by the straight-segment identity (``_segment_exceeds``).  A
    sample that never escapes within the scan window is a counterexample
    certificate: calibration fails and the witness is attached to the
    raised error.
    """
    c = float(sys.c if c is None else c)
    if not 0.0 < c < MAX_C:
        raise ValueError(f"c must lie in (0, {MAX_C}) at chart scale, got {c}")
    if max_m is None:
        max_m = sys.horizon
    rng = np.random.default_rng(seed)
    scan = max_m + 40
    if sys.kind == NORTH_SOUTH:
        worst = None
        for lon, t0, t1 in _ns_samples(c, sample_budget, rng):
            sup = 0.0
            for n in range(-scan, scan + 1):
                sup = max(sup, _ns_colat(t1, n) - _ns_colat(t0, n))
            if sup <= c:
                # spans shrink monotonically toward both poles, so the
                # scanned window bounds the true sup
                worst = {"kind": "meridian-arc", "lon": lon,
                         "colat": [t0, t1], "diam": t1 - t0,
                         "sup_diam": sup, "scan": scan}
                break
        if worst is None:
            worst = {"kind": "exhausted", "note": "no witness found"}
        err = CalibrationError(
            f"no escape bound m <= {max_m}: witness continuum of diameter "
            f"{worst.get('diam', 0):.4g} never exceeds c={c} "
            f"(sup {worst.get('sup_diam', 0):.4g} over |n| <= {scan})")
        err.witness = worst
        raise err
    frame = models.eigen_frame(sys.matrix)
    m_needed = 0
    for lf in _eigen_arc_samples(sys, c, sample_budget, rng):
        # membership: the family is continua with diameter > c/2, and on
        # the quotient the fold can shrink an arc well below its length
        if not _segment_exceeds(sys.chart, lf.start_arr, lf.dir_arr, lf.length, c / 2.0):
            continue
        eng = _PathEngine(sys, [_lift_piece(lf, frame)], c, scan, frame)
        n = eng.escape_from(0)
        if n is INFINITY or n > max_m:
            err = CalibrationError(
                f"sample arc (len {lf.length:.4g}) needs more than m={max_m} "
                f"iterates to escape c={c}")
            err.witness = {"kind": "eigen-arc", "stable": lf.stable,
                           "start": list(lf.start), "length": lf.length,
                           "escape_time": None if n is INFINITY else int(n)}
            raise err
        m_needed = max(m_needed, int(n))
    return constants_for(c, max(m_needed, 1))
