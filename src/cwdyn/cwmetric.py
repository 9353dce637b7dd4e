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

A two-piece path on the torus is decided in closed form too, when c <=
1/4 and the eigenframe is orthonormal (_path_of refuses a model whose
eigenvectors are not orthogonal).  At an iterate where both pieces v1,
v2 are at most c the path is at most 2c <= 1/2 long, so its chart
diameter is max(|v1|, |v2|, |v1 + v2|), and where one is longer than c
so is the diameter.  Each of the three is a straight length, so the
path's escape set is the union of three length sets.  A path with one of
the three within _HYPOT_BAND c of c where its set is decided keeps the
per-iterate check (_path_exceeds), so every decision stays the one that
check makes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import models
from .models import (
    CalibrationError, ModelCapabilityError, TORUS, SPHERE_QUOTIENT,
    NORTH_SOUTH, chart_distance,
)
from .continua import MarkedContinuum, StraightLift, _diameter_exceeds, unwrap_path

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


# the metric's horizon is the smallest n with lam^-n below this
_HORIZON_TAIL = 1e-12


def constants_for(c: float, m: int) -> MetricConstants:
    """Derive the full constant set from c and the escape bound m."""
    m = int(m)
    alpha = 2.0 ** (1.0 / m)
    # smallest n0 with alpha^n0/4 > 1; exactly: 2^(n0/m) > 4 iff n0 > 2m
    n0 = 2 * m + 1
    k = 2.0 ** (n0 / m - 2.0)
    lam = 2.0 ** (1.0 / (m * n0))
    horizon = max(1, int(math.ceil(math.log(1.0 / _HORIZON_TAIL) / math.log(lam))))
    while lam ** (-horizon) >= _HORIZON_TAIL:
        horizon += 1
    xi = 1.0 / (4.0 * alpha * lam ** (n0 - 1))
    return MetricConstants(c=float(c), m=m, alpha=alpha, n0=n0, k=k,
                           lam=lam, xi=xi, horizon=horizon)


# -- closed-form diameter machinery ---------------------------------------


# np.hypot may round an ulp or two away from math.hypot: a distance this
# close to its threshold, relative to it, is compared by math.hypot
_HYPOT_BAND = 2.0 ** -40


def _fold_escapes(w0: np.ndarray, d: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                  thr: float) -> np.ndarray:
    """Exact check, row by row, of sup{dist(w0 + s*d, Z^2) : s in [lo, hi]}
    > thr, for w0 and unit vectors d of shape (n, 2), lo <= hi of shape (n,)
    and thr < 1/2.

    Long windows short-circuit: if one coordinate sweeps more than 2*thr,
    some point has that coordinate farther than thr from the integers,
    hence is farther than thr from the lattice.  Otherwise each coordinate
    crosses at most one line of Z + 1/2.  Between such crossings the
    nearest lattice point is fixed, so the distance is convex along the
    line.  The sup is then the max over at most four points: the window's
    two ends and its crossings.  A sup that ties thr is no escape (strict
    >, as in N).
    """
    lo, hi = lo[:, None], hi[:, None]
    ends = w0 + lo * d, w0 + hi * d
    a, b = np.minimum(*ends), np.maximum(*ends)
    k = np.floor(b - 0.5) + 0.5  # the largest half-integer <= b
    crosses = (d != 0.0) & (k >= a)
    at = np.divide(k - w0, d, out=np.zeros_like(w0), where=crosses)
    # a coordinate with no crossing repeats the window's start
    s = np.concatenate([lo, hi, np.where(crosses, np.minimum(np.maximum(at, lo), hi), lo)], axis=1)
    x = w0[:, :1] + s * d[:, :1]
    y = w0[:, 1:] + s * d[:, 1:]
    x, y = x - np.rint(x), y - np.rint(y)
    dist = np.hypot(x, y)
    far = dist > thr
    for i in np.flatnonzero(np.abs(dist - thr) <= _HYPOT_BAND * thr).tolist():
        far.flat[i] = math.hypot(x.flat[i], y.flat[i]) > thr
    return ((hi - lo)[:, 0] * np.abs(d).max(axis=1) > 2.0 * thr) | far.any(axis=1)


def _segment_exceeds(chart: str, start: np.ndarray, d: np.ndarray,
                     length: np.ndarray, thr: float) -> np.ndarray:
    """Whether each straight cover segment start + t*d, t in [0, length],
    has chart diameter > thr: arrays start and unit vectors d of shape
    (n, 2), lengths of shape (n,), and thr < MAX_C.

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
    out = length > thr
    if chart == TORUS or not out.any():
        return out
    k = np.flatnonzero(out)
    out[k] = _fold_escapes(models._wrap1(2.0 * start[k]), d[k], np.full(len(k), thr),
                           2.0 * length[k] - thr, thr)
    return out


class _Piece:
    """One straight cover segment of a path: start + t*(au*eu + as*es)."""

    __slots__ = ("s", "au", "as_")

    def __init__(self, s, au, as_):
        self.s = np.asarray(s, dtype=float)
        self.au = float(au)
        self.as_ = float(as_)


class _Bent(NamedTuple):
    """The pieces of a table's bent rows, in path order: piece k runs from
    the cover start s[k] with eigen components (au[k], as_[k]) and belongs
    to row row[k]; rows are nondecreasing."""

    row: np.ndarray
    s: np.ndarray
    au: np.ndarray
    as_: np.ndarray

    def join(self, other: "_Bent", offset: int) -> "_Bent":
        """These pieces, then other's with its rows moved by offset."""
        if not len(other.row):
            return self
        return _Bent(np.concatenate([self.row, other.row + offset]),
                     *(np.concatenate(pair) for pair in zip(self[1:], other[1:])))


_NO_BENT = _Bent(np.zeros(0, dtype=np.int64), np.zeros((0, 2)), np.zeros(0), np.zeros(0))
for _a in _NO_BENT:
    _a.setflags(write=False)

# the cosine of the eigenvector angle that still counts as orthogonal, at
# the rounding of a unit-vector dot product
_ORTHO_TOL = 4 * 2.0 ** -52


def _orthonormal(frame: models.EigenFrame) -> bool:
    """Whether the eigenvectors are orthogonal up to rounding, so that
    hypot(au, as_) is the length of au*eu + as_*es."""
    return abs(float(frame.eu @ frame.es)) <= _ORTHO_TOL


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


def _pieces_of(cont: MarkedContinuum, frame: models.EigenFrame) -> list:
    """Decompose a continuum into straight cover pieces.

    A lifted arc gives one piece and a ``concat`` path one per leg, each
    with exact eigen components.  Records, the lift-less polylines of two
    or more vertices (_path_of passes no singleton), are unwrapped edge
    by edge, merging each vertex into the current run while it lies
    within _MERGE_TOL of the run's line and still moves forward.
    """
    if cont.lift is not None or cont.legs:
        return [_lift_piece(lf, frame) for lf in cont.legs or (cont.lift,)]
    pieces = []
    path = unwrap_path(cont.chart, cont.vertices)
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


def _pvec(frame: models.EigenFrame, p: _Piece, e: int) -> np.ndarray:
    """The cover vector of piece p at iterate e."""
    return (p.au * (frame.su ** e)) * frame.eu + (p.as_ * (frame.ss ** e)) * frame.es


def _pstart(sys, p: _Piece, e: int) -> np.ndarray:
    if e == 0:
        return p.s
    return np.array(models._exact_linear_mod1([models._mat_power(sys.matrix, e)], [p.s])[0])


def _path_exceeds(sys, frame: models.EigenFrame, pieces: list, c: float, e: int) -> bool:
    """Whether the path of pieces has chart diameter > c at iterate e.

    The block table asks this only of the bent rows it leaves undecided:
    paths of three or more pieces, two-piece paths on the quotient or at
    c > 1/4, and two-piece torus paths with a length of v1, v2 or v1 + v2
    within _HYPOT_BAND c of c where their length sets are decided
    (_BlockTable).
    """
    lens = [math.hypot(p.au * (frame.su ** e), p.as_ * (frame.ss ** e)) for p in pieces]
    long = [(p, ln) for p, ln in zip(pieces, lens) if ln > c]
    if long and (sys.chart == TORUS or _segment_exceeds(
            sys.chart, np.array([_pstart(sys, p, e) for p, _ in long]),
            np.array([_pvec(frame, p, e) / ln for p, ln in long]),
            np.array([ln for _, ln in long]), c).any()):
        # on the torus a straight piece longer than c exceeds it
        return True
    total = float(sum(lens))
    if total <= c:
        return False
    if len(pieces) == 1:
        # single piece, over c in length, fold-suppressed
        return False
    # connect piece starts into one cover picture
    nodes = [_pstart(sys, pieces[0], e)]
    for p in pieces:
        nodes.append(nodes[-1] + _pvec(frame, p, e))
    nodes = np.array(nodes)
    if total < 0.5:
        return _diameter_exceeds(sys.chart, nodes, c)
    # long multi-piece path: sampled lower bound of the diameter
    samples = []
    for p, ln, node in zip(pieces, lens, nodes[:-1]):
        n = min(max(2, int(ln / 0.02) + 1), 512)
        t = np.linspace(0.0, 1.0, n)
        samples.append(node[None, :] + t[:, None] * _pvec(frame, p, e)[None, :])
    pts = np.concatenate(samples)
    if len(pts) > 2048:
        pts = pts[:: len(pts) // 2048 + 1]
    return _diameter_exceeds(sys.chart, pts, c)


# an exponent past every shift and horizon: the length set's missing tail
_NEVER = 1 << 40


def _length_sets(frame: models.EigenFrame, keys: list, c: float, near: set = None):
    """Length-escape exponent thresholds of the pieces with eigen components
    (au, as_) in keys: int64 arrays (e_back, e_fwd), one entry per key.

    The iterated length ln(e) = hypot(au su^e, as_ ss^e) is log-convex in
    e, so {e : ln(e) > c} is (-inf, e_back] + [e_fwd, inf), with e_back =
    -_NEVER or e_fwd = _NEVER for a tail that never escapes (both for a
    point) and (_NEVER, -_NEVER) when the length exceeds c at every
    iterate.  On the torus length escape is exactly diameter escape;
    quotient fold suppression is decided per iterate.

    A piece with both components nonzero exceeds c everywhere iff it does
    at the two integer exponents bracketing the length minimum, which
    bound its tails.  Each tail end starts where the tail's own component
    alone crosses c and is confirmed by the comparisons on both sides of
    it (_tail_end).  Each distinct key is worked out once, in Python
    floats, so that every comparison is the scalar one; a table holds a
    few dozen keys, too few for numpy's per-call cost to pay.

    The keys whose length comes within _HYPOT_BAND c of c at an exponent
    compared go into the set near, if one is given.  Those exponents take
    in both sides of each tail end, or the bracket of the minimum of a
    length over c everywhere; so, by log-convexity, a key left out is
    clear of the band at every exponent.
    """
    lu, ls = abs(frame.su), abs(frame.ss)
    log_u, log_s = math.log(lu), math.log(ls)
    band = _HYPOT_BAND * c

    def above(u, s, e):
        try:
            ln = math.hypot(u * (lu ** e), s * (ls ** e))
        except OverflowError:
            return True
        if near is not None and abs(ln - c) <= band:
            near.add((u, s))
        return ln > c

    sets = dict.fromkeys(keys)
    for u, s in sets:
        lo, hi = INFINITY, -INFINITY
        if u and s:
            # the integer exponents bracketing the length minimum
            lo = math.floor(math.log((abs(s) * math.log(1.0 / ls))
                                     / (abs(u) * math.log(lu))) / math.log(lu / ls))
            hi = lo + 1
            if above(u, s, lo) and above(u, s, hi):
                sets[u, s] = (_NEVER, -_NEVER)
                continue
        sets[u, s] = (
            _tail_end(above, u, s, math.ceil(math.log(c / abs(s)) / log_s) - 1, lo, -1)
            if s else -_NEVER,
            _tail_end(above, u, s, math.floor(math.log(c / abs(u)) / log_u) + 1, hi, 1)
            if u else _NEVER)
    at = {key: i for i, key in enumerate(sets)}
    rows = np.fromiter(map(at.__getitem__, keys), dtype=np.int64, count=len(keys))
    out = np.array(list(sets.values()), dtype=np.int64).reshape(-1, 2)[rows]
    return out[:, 0].copy(), out[:, 1].copy()


def _tail_end(above, u: float, s: float, e: int, bound, step: int) -> int:
    """The end of a tail: from bound, in the direction step (1 or -1),
    the first exponent whose length is over c, the length growing in that
    direction from bound on.

    The walk starts at e, or at bound if e is short of it.  Where the
    length is over c it steps back toward bound while the length one step
    back is still over c; elsewhere it steps on until the length is.
    Started where one component alone crosses c, it mostly makes just the
    two comparisons that confirm the end.
    """
    e = step * max(step * e, step * bound)
    if above(u, s, e):
        while e != bound and above(u, s, e - step):
            e -= step
    else:
        e += step
        while not above(u, s, e):
            e += step
    return e


class _BlockTable:
    """Escape times of a list of paths, the blocks, over arrays of shifts.

    Row b is one straight piece (starts[b], au[b], as_[b]), a bent path of
    several pieces (the rows of ``bent``), or a singleton (au = as_ = 0).
    Each row has one length set (-inf, e_back] + [e_fwd, inf), and the sets
    of all distinct (au, as_) come from one _length_sets pass.  A bent path
    takes the set of one straight piece longer than it at every iterate,
    so no iterate outside the set has diameter > c either.

    A two-piece torus path with c <= 1/4 and an orthonormal frame instead
    takes the union of the sets of v1, v2 and v1 + v2, leaving out a leg
    that v1 + v2 matches or outgrows in both components: that union is the
    set of iterates with diameter > c (module docstring).  Every length of
    the union is log-convex, so if none comes within _HYPOT_BAND c of c on
    either side of its tail ends (_length_sets' near keys), none does at
    any iterate, each float comparison agrees with the exact one, and the
    row is decided: no iterate of it needs a check.  A row with a near
    length keeps the loose set and the per-iterate check.  So a table of
    straight torus rows and such two-piece rows is closed, at no cost to a
    table without two-piece rows.

    From shift s the ring scan j = 0, 1, ... (s + j before s - j) first
    meets the set at j0 = max(0, min(e_fwd - s, s - e_back)).  A decided
    row escapes there.  Any other row escapes at the first iterate of its
    set whose diameter exceeds c, and all such (row, shift) pairs scan in
    lockstep from j0: each ring step decides s + j for every open pair at
    once (_decide), then s - j for those that did not escape, so each pair
    visits just the iterates of its own scan.  Decisions are cached per
    (row, iterate), so none is made twice, and none that the scan would
    not reach.
    """

    def __init__(self, sys, frame: models.EigenFrame, c: float, horizon: int,
                 starts: np.ndarray, au: np.ndarray, as_: np.ndarray, bent: _Bent):
        self.sys, self.frame = sys, frame
        self.c, self.horizon = float(c), int(horizon)
        self.starts, self.au, self.as_, self.bent = starts, au, as_, bent
        self.straight = np.ones(len(au), dtype=bool)
        self.straight[bent.row] = False
        # rows whose candidate iterates need a diameter decision
        self.undecided = ~self.straight | (sys.chart != TORUS)
        self._pieces_at = {}  # bent row -> its _Piece list, as _path_exceeds takes it
        keys = list(zip(au.tolist(), as_.tolist()))
        legs = np.zeros(0, dtype=np.int64)
        if len(bent.row):
            rows, first, count = np.unique(bent.row, return_index=True, return_counts=True)
            two = (count == 2) & (sys.chart == TORUS and self.c <= 0.25 and _orthonormal(frame))
            self._loose(keys, rows[~two].tolist())
            legs, first = rows[two], first[two]
        if len(legs):
            self.e_back, self.e_fwd = self._two_leg_sets(keys, legs, first)
        else:
            self.e_back, self.e_fwd = _length_sets(frame, keys, self.c)
        self.closed = not self.undecided.any()
        self._mats = {}  # integer matrix powers by iterate
        self._known = None  # per (row, iterate - _e0): 0 open, 1 no escape, 2 escape
        self._e0 = 0

    def _loose(self, keys: list, rows: list) -> None:
        """Put the loose key of each bent row of rows into keys: per piece
        hypot(x, y) <= x + y <= sqrt(2) hypot(x, y), with a margin far over
        the rounding of the path's summed length."""
        w = math.sqrt(2.0) * (1.0 + 1e-9)
        for b in rows:
            pieces = self._pieces(b)
            keys[b] = (w * sum(abs(p.au) for p in pieces), w * sum(abs(p.as_) for p in pieces))

    def _two_leg_sets(self, keys: list, legs: np.ndarray, first: np.ndarray):
        """The length sets of every row, with each two-piece row of legs
        (its pieces from first on in bent) decided where no vector of its
        union comes near c (_length_sets), and given its loose set
        elsewhere."""
        u, v = self.bent.au.tolist(), self.bent.as_.tolist()
        unions = []
        for k in first.tolist():
            u3, v3 = u[k] + u[k + 1], v[k] + v[k + 1]
            # a leg that v1 + v2 matches or outgrows in both components is
            # never the longest: its set adds nothing to the union
            unions.append([(u[i], v[i]) for i in (k, k + 1)
                           if abs(u[i]) > abs(u3) or abs(v[i]) > abs(v3)] + [(u3, v3)])
        n, extra, near = len(keys), [key for vs in unions for key in vs], set()
        e_back, e_fwd = _length_sets(self.frame, keys + extra, self.c, near)
        sets = dict(zip(extra, zip(e_back[n:].tolist(), e_fwd[n:].tolist())))
        e_back, e_fwd = e_back[:n], e_fwd[:n]
        rest = []
        for b, vs in zip(legs.tolist(), unions):
            if near.isdisjoint(vs):
                e_back[b] = max(sets[key][0] for key in vs)
                e_fwd[b] = min(sets[key][1] for key in vs)
                self.undecided[b] = False
            else:
                rest.append(b)
        if rest:
            self._loose(keys, rest)
            e_back[rest], e_fwd[rest] = _length_sets(self.frame, [keys[b] for b in rest], self.c)
        return e_back, e_fwd

    def _pieces(self, b: int) -> list:
        """The pieces of bent row b."""
        if b not in self._pieces_at:
            row = self.bent.row
            lo, hi = np.searchsorted(row, [b, b + 1]).tolist()
            self._pieces_at[b] = [_Piece(self.bent.s[k], self.bent.au[k], self.bent.as_[k])
                                  for k in range(lo, hi)]
        return self._pieces_at[b]

    def escapes(self, shifts, rows=None, exact: bool = True) -> np.ndarray:
        """N of each row (all, or the given ones) at each shift, as a
        (rows, shifts) array holding horizon + 1 where no iterate within
        the horizon escapes.  exact=False returns the lower bound j0 and
        decides nothing; otherwise the open pairs step their ring scans
        together from j0, one _test of s + j and one of s - j a step,
        until each escapes or passes the horizon."""
        rows = np.arange(len(self.e_back)) if rows is None else np.asarray(rows)
        s = np.asarray(shifts, dtype=np.int64)[None, :]
        j0 = np.maximum(0, np.minimum(self.e_fwd[rows, None] - s, s - self.e_back[rows, None]))
        n = np.minimum(j0, self.horizon + 1)
        if not exact or self.closed:
            return n
        ri, si = np.nonzero((n <= self.horizon) & self.undecided[rows, None])
        j = n[ri, si]
        while len(ri):
            b, at = rows[ri], s[0, si]
            hit = self._test(b, at + j)
            back = ~hit & (j > 0)
            hit[back] = self._test(b[back], at[back] - j[back])
            j = j + ~hit
            n[ri, si] = j
            open_ = ~hit & (j <= self.horizon)
            ri, si, j = ri[open_], si[open_], j[open_]
        return n

    def _test(self, b: np.ndarray, e: np.ndarray) -> np.ndarray:
        """Whether iterate e lies in row b's length set and has diameter > c."""
        hit = (e <= self.e_back[b]) | (e >= self.e_fwd[b])
        if not hit.any():
            return hit
        b, e = b[hit], e[hit]
        self._cover(int(e.min()), int(e.max()))
        col = e - self._e0
        known = self._known[b, col]
        fresh = known == 0
        if fresh.any():
            width = self._known.shape[1]
            ub, uc = np.divmod(np.unique(b[fresh] * width + col[fresh]), width)
            self._known[ub, uc] = self._decide(ub, uc + self._e0)
            known = self._known[b, col]
        hit[hit] = known == 2
        return hit

    def _cover(self, lo: int, hi: int) -> None:
        """Make the decision cache span iterates lo..hi."""
        if self._known is None:
            self._e0, self._known = lo - 64, np.zeros((len(self.e_back), hi - lo + 129), np.int8)
            return
        e1 = self._e0 + self._known.shape[1]
        if lo >= self._e0 and hi < e1:
            return
        e0, e1 = min(lo - 64, self._e0), max(hi + 65, e1)
        grown = np.zeros((len(self.e_back), e1 - e0), np.int8)
        grown[:, self._e0 - e0:self._e0 - e0 + self._known.shape[1]] = self._known
        self._e0, self._known = e0, grown

    def _decide(self, b: np.ndarray, e: np.ndarray) -> np.ndarray:
        """Decisions (1 no escape, 2 escape) of distinct (row, iterate) pairs.

        A straight row here is a quotient one: it escapes iff its length ln
        exceeds c and the fold sup of _segment_exceeds does.  That sup's
        sweep short-circuit, (hi - lo) * max|d| > 2c with hi - lo = 2 ln -
        2c, needs no start point, so it is decided for all pairs at once.
        The pairs it leaves open take their exact iterated starts in one
        integer pass (_starts) and the sup in one _segment_exceeds pass.
        Bent rows take _path_exceeds one pair at a time.
        """
        out = np.zeros(len(b), np.int8)
        straight = self.straight[b]
        if straight.any():
            sb, se = b[straight], e[straight]
            its, at = np.unique(se, return_inverse=True)
            pw = np.array([(self.frame.su ** k, self.frame.ss ** k) for k in its.tolist()])
            A, B = self.au[sb] * pw[at, 0], self.as_[sb] * pw[at, 1]
            ln = np.array(list(map(math.hypot, A.tolist(), B.tolist())))
            long = np.flatnonzero(ln > self.c)
            A, B, ln_l = A[long], B[long], ln[long]
            eu, es = self.frame.eu, self.frame.es
            d = np.stack([(A * eu[0] + B * es[0]) / ln_l, (A * eu[1] + B * es[1]) / ln_l], axis=1)
            hit = ((2.0 * ln_l - self.c) - self.c) * np.abs(d).max(axis=1) > 2.0 * self.c
            rest = np.flatnonzero(~hit)
            if len(rest):
                k = long[rest]
                hit[rest] = _segment_exceeds(self.sys.chart, self._starts(sb[k], se[k]), d[rest],
                                             ln_l[rest], self.c)
            settled = np.ones(len(sb), np.int8)
            settled[long] = np.where(hit, 2, 1)
            out[straight] = settled
        for k in np.flatnonzero(~straight).tolist():
            out[k] = 1 + _path_exceeds(self.sys, self.frame, self._pieces(int(b[k])), self.c,
                                       int(e[k]))
        return out

    def _starts(self, rows: np.ndarray, its: np.ndarray) -> np.ndarray:
        """The cover starts of straight rows at iterates, each _pstart's
        integer arithmetic on a pair of floats."""
        its, pts = its.tolist(), self.starts[rows].tolist()
        mats = self._mats
        for e in set(its) - mats.keys():
            mats[e] = models._mat_power(self.sys.matrix, e)
        # iterate 0 keeps the start as it is, outside [0, 1) too
        moved = [k for k, e in enumerate(its) if e]
        for k, xy in zip(moved, models._exact_linear_mod1([mats[its[k]] for k in moved],
                                                          [pts[k] for k in moved])):
            pts[k] = xy
        return np.array(pts)


def _rows_of(paths: list):
    """Block-table rows of paths given as piece lists: starts, au, as_ of
    the straight ones (zero for singletons) and the pieces of the bent
    ones."""
    starts, au, as_ = np.zeros((len(paths), 2)), np.zeros(len(paths)), np.zeros(len(paths))
    bent = []
    for b, pieces in enumerate(paths):
        if len(pieces) == 1:
            starts[b], au[b], as_[b] = pieces[0].s, pieces[0].au, pieces[0].as_
        elif pieces:
            bent += [(b, p) for p in pieces]
    if not bent:
        return starts, au, as_, _NO_BENT
    return starts, au, as_, _Bent(np.array([b for b, _ in bent], dtype=np.int64),
                                  np.array([p.s for _, p in bent]),
                                  np.array([p.au for _, p in bent]),
                                  np.array([p.as_ for _, p in bent]))


def _path_of(sys, cont: MarkedContinuum):
    """The eigenframe of sys and the straight cover pieces of cont."""
    if sys.kind == NORTH_SOUTH:
        raise ModelCapabilityError("the metric pipeline needs a toral model; "
                                   "the north-south map fails calibration")
    if cont.chart != sys.chart:
        raise models.ChartError(f"continuum chart {cont.chart!r} does not match "
                                f"model {sys.chart!r}")
    frame = models.eigen_frame(sys.matrix)
    if not _orthonormal(frame):
        raise ModelCapabilityError(
            f"the metric pipeline needs orthogonal eigenvectors, and those of matrix "
            f"{sys.matrix} meet at cos {float(frame.eu @ frame.es):.3g}: it takes "
            f"hypot of the eigen components as a length")
    return frame, ([] if cont.is_singleton else _pieces_of(cont, frame))


def _sub_blocks(frame: models.EigenFrame, pieces: list, a: np.ndarray, b: np.ndarray):
    """The sub-paths of a path between params a < b (arrays; params by
    cover length): starts, au, as_ of the straight ones (zero for empty
    ones) and the pieces of the bent ones, all cut in array passes."""
    lengths = [math.hypot(p.au, p.as_) for p in pieces]
    total = float(sum(lengths))
    ends = list(itertools.accumulate(lengths))
    acc, lens = np.array([0.0] + ends[:-1]), np.array(lengths)
    starts = np.array([p.s for p in pieces])
    au, as_ = np.array([p.au for p in pieces]), np.array([p.as_ for p in pieces])
    vecs = au[:, None] * frame.eu + as_[:, None] * frame.es  # _pvec at iterate 0
    # the piece holding each param, and the param's place along it
    target = np.concatenate([a, b]) * total
    at = np.minimum(np.searchsorted(ends, target, side="left"), len(pieces) - 1)
    loc = np.divide(target - acc[at], lens[at], out=np.zeros_like(target), where=lens[at] != 0)
    loc = np.minimum(np.maximum(loc, 0.0), 1.0)
    ia, ib, ta, tb = at[:len(a)], at[len(a):], loc[:len(a)], loc[len(a):]
    w = np.where(tb > ta, tb - ta, 0.0)
    sub_s = models._wrap1(starts[ia] + ta[:, None] * vecs[ia])
    sub_au, sub_as = w * au[ia], w * as_[ia]
    cross = np.flatnonzero(ia != ib)
    if not len(cross):
        return sub_s, sub_au, sub_as, _NO_BENT
    # the pieces ia..ib of each block across a junction, cut to [t0, t1],
    # the empty ones dropped: one piece makes the block straight
    n = ib[cross] - ia[cross] + 1
    k = np.repeat(cross, n)
    i = ia[k] + np.arange(len(k)) - np.repeat(np.cumsum(n) - n, n)
    t0 = np.where(i == ia[k], ta[k], 0.0)
    t1 = np.where(i == ib[k], tb[k], 1.0)
    cut = t1 > t0
    k, i, t0, t1 = k[cut], i[cut], t0[cut], t1[cut]
    cut_s = models._wrap1(starts[i] + t0[:, None] * vecs[i])
    cut_au, cut_as = (t1 - t0) * au[i], (t1 - t0) * as_[i]
    sub_au[cross] = sub_as[cross] = 0.0
    one = np.bincount(k, minlength=len(ia))[k] == 1
    sub_s[k[one]], sub_au[k[one]], sub_as[k[one]] = cut_s[one], cut_au[one], cut_as[one]
    one = ~one
    return sub_s, sub_au, sub_as, _Bent(k[one], cut_s[one], cut_au[one], cut_as[one])


@lru_cache(maxsize=16)
def _weights(consts: MetricConstants):
    """alpha^-n by escape time n (0 from the horizon on, two past it),
    lam^j and lam^-j for 0 <= j <= horizon + 1, each a scalar power."""
    h = consts.horizon
    out = (np.array([consts.alpha ** (-n) for n in range(h)] + [0.0, 0.0]),
           np.array([consts.lam ** j for j in range(h + 2)]),
           np.array([consts.lam ** (-j) for j in range(h + 2)]))
    for a in out:
        a.setflags(write=False)  # shared by every evaluator
    return out


@lru_cache(maxsize=64)
def _layout(depth: int, first: int, last: int, to_end: bool):
    """The blocks a chain may use, as (row of block (i, j), cut params of
    the blocks in row order); row 0 is the full path."""
    g = 2 ** depth
    top = g if to_end else last
    blocks = [(0, j) for j in range(first, top + 1) if j < g]
    blocks += [(i, j) for i in range(first, top) for j in range(i + 1, top + 1)]
    if top < g:
        blocks += [(i, g) for i in range(first, last + 1)]
    row = np.zeros((g + 1, g + 1), dtype=np.int64)
    if blocks:
        row[tuple(np.array(blocks).T)] = np.arange(1, len(blocks) + 1)
    cuts = np.array(blocks, dtype=float).reshape(-1, 2) / g
    row.setflags(write=False)
    cuts.setflags(write=False)
    return row, cuts


# the first width of the sup's reach on upper bounds; later widths double
_REACH = 32

# tracemalloc's bytes of a block row (arrays, key, _sub_blocks temporaries)
# and of a (row, shift) pair of an exact chain pass (escape time, weight, _decide)
_ROW_BYTES, _PAIR_BYTES = 256, 128


def evaluator_bytes(depth: int) -> int:
    """Estimated peak memory of a MetricEvaluator at depth, g = 2^depth, over
    an exact chain pass of 2 * _REACH shifts: the (g+1)² int64 row index of
    _layout, about (g+1)²/2 block rows, each with an int8 decision per held
    iterate (the pass's and _cover's margin of 129), and per shift a (g+1)²
    float64 weight grid.  A sup reaching further, as on arcs far below xi,
    makes longer passes."""
    cells, shifts = (2 ** depth + 1) ** 2, 2 * _REACH
    return 8 * (1 + shifts) * cells + cells // 2 * (_ROW_BYTES + 129 + shifts * (1 + _PAIR_BYTES))


class MetricEvaluator:
    """Shared-cache evaluator of the whole pipeline for one continuum.

    The chain DP cuts the path at params k/g, g = 2^depth, and weighs the
    block (i, j) between cuts i/g and j/g by its escape weight.  A chain
    starts at the path's start, steps from cut to cut, and ends at the
    path's end; its first cut lies at or past the first mark and its last
    at or before the second.  The blocks it can use form one _BlockTable:
    the full path, (0, j) and (i, j) between the first cut at or past the first
    mark and the last cut it may end at, and the end blocks (i, g).  P at
    an array of shifts is then one pass over the table: escape times,
    weights from the alpha^-n table, and the min-plus recurrence
    P_j = min(rho(0, j), min_i P_i + rho(i, j)) over cuts j.

    P is held in one array over a run of shifts that grows only at its
    ends: upper bounds from the j0 lower bounds of the escape times, exact
    where marked.  On a closed table the two agree.  The sup D at a set of
    bases is one pass over it (_sups).
    """

    def __init__(self, sys, cont: MarkedContinuum, consts: MetricConstants,
                 depth: int = 4):
        self.consts = consts
        self.depth = int(depth)
        frame, pieces = _path_of(sys, cont)
        # a lifted continuum is marked at its ends, lift params 0 and 1 (0 on a point)
        tp, tq = 0.0, float(not cont.is_singleton)
        if cont.lift is None and not cont.legs and tq:
            # a record's are the cumulative-length params of its marked vertices
            v = cont.vertices
            cum = np.concatenate([[0.0], np.cumsum(chart_distance(cont.chart, v[:-1], v[1:]))])
            tot = cum[-1] if cum[-1] > 0 else 1.0
            tp, tq = float(cum[cont.mark_p] / tot), float(cum[cont.mark_q] / tot)
        self.tp, self.tq = min(tp, tq), max(tp, tq)
        self.singleton = not float(sum(math.hypot(p.au, p.as_) for p in pieces)) > 0.0
        g = 2 ** self.depth
        eps = 1e-12
        self._first = next((j for j in range(1, g + 1) if j / g >= self.tp - eps), g + 1)
        # the last cut before g that a chain may end at, and whether it
        # may end at g itself
        self._last = max((i for i in range(self._first, g) if i / g <= self.tq + eps),
                         default=self._first - 1)
        self._to_end = self.tq >= 1.0 - eps
        self._top = g if self._to_end else self._last
        self._row, cuts = _layout(self.depth, self._first, self._last, self._to_end)
        s, au, as_, bent = _rows_of([pieces])
        if self.singleton:
            # every block of a singleton is the singleton
            self._row = np.zeros_like(self._row)
        elif len(cuts):
            s1, au1, as1, bent1 = _sub_blocks(frame, pieces, cuts[:, 0], cuts[:, 1])
            s, au, as_ = np.concatenate([s, s1]), np.concatenate([au, au1]), \
                np.concatenate([as_, as1])
            bent = bent.join(bent1, 1)
        self.table = _BlockTable(sys, frame, consts.c, consts.horizon, s, au, as_, bent)
        self._weights = _weights(consts)
        self._s0, self._p, self._exact = 0, np.empty(0), np.empty(0, dtype=bool)
        self._w = None  # D' from _p, when current

    def escape(self, shift: int = 0) -> tuple:
        """(N, rho) of f^shift C from one escape lookup: N is math.inf for
        a singleton and the horizon where no iterate within it escapes,
        rho = alpha^-N is 0 from the horizon on."""
        n = int(self.table.escapes([shift], rows=[0])[0, 0])
        return (INFINITY if self.singleton else min(n, self.consts.horizon),
                float(self._weights[0][n]))

    def _chains(self, shifts, exact: bool) -> np.ndarray:
        """P at each shift: the chain DP over the block table, with exact
        escape times, or with their lower bounds j0 (an upper bound on P)."""
        r = self._weights[0][self.table.escapes(shifts, exact=exact)][self._row]
        first, top, g = self._first, self._top, 2 ** self.depth
        if top < first:
            return r[0, g]
        p = np.empty((top + 1, len(shifts)))
        p[first] = r[0, first]
        for j in range(first + 1, top + 1):
            p[j] = np.minimum(r[0, j], (p[first:j] + r[first:j, j]).min(axis=0))
        ends = [r[0, g:], p[first:self._last + 1] + r[first:self._last + 1, g]]
        if self._to_end:
            ends.append(p[g:])
        return np.concatenate(ends).min(axis=0)

    def _hold(self, lo: int, hi: int, spans=()) -> None:
        """Hold P at shifts lo..hi, exact at every shift of the spans
        (a, b) inside them.  New shifts outside the spans get upper bounds,
        and the exact ones come from one pass over the table."""
        s0, n = self._s0, len(self._p)
        if n and s0 <= lo and hi < s0 + n and \
                all(self._exact[a - s0:b + 1 - s0].all() for a, b in spans):
            return
        if n:
            lo, hi = min(lo, s0), max(hi, s0 + n - 1)
        shifts = np.arange(lo, hi + 1)
        p, exact = np.empty(len(shifts)), np.zeros(len(shifts), dtype=bool)
        p[s0 - lo:s0 - lo + n], exact[s0 - lo:s0 - lo + n] = self._p, self._exact
        want = np.zeros(len(shifts), dtype=bool)
        for a, b in spans:
            want[a - lo:b + 1 - lo] = True
        new = np.ones(len(shifts), dtype=bool)
        new[s0 - lo:s0 - lo + n] = False
        for todo, sure in ((new & ~want, False), (want & ~exact, True)):
            if todo.any():
                p[todo] = self._chains(shifts[todo], exact=sure)
                exact[todo] = sure or self.table.closed
        self._s0, self._p, self._exact, self._w = lo, p, exact, None

    def _windows(self) -> np.ndarray:
        """D' at shifts _s0 + k.. from the held P, k = n0 - 1: max over
        |i| <= k of P(shift + i) / lam^|i|, exact where those P are."""
        if self._w is None:
            k, p, lam_up = self.consts.n0 - 1, self._p, self._weights[1]
            n = len(p) - 2 * k
            w = p[k:k + n]
            for i in range(1, k + 1):
                w = np.maximum(w, np.maximum(p[k - i:k - i + n], p[k + i:k + i + n]) / lam_up[i])
            self._w = w
        return self._w

    def chain(self, shift: int = 0) -> float:
        self._hold(shift, shift, [(shift, shift)])
        return float(self._p[shift - self._s0])

    def window(self, shift: int = 0) -> float:
        k = self.consts.n0 - 1
        self._hold(shift - k, shift + k, [(shift - k, shift + k)])
        return float(self._windows()[shift - self._s0 - k])

    def _sweep(self, base, j, last, best, arg):
        """The sup's running max at each base over its indices j..last, on
        the held D', from (best, arg): lists, one entry per base.  Returns
        lists of the first index at which the stopping rule holds (-1 where
        none does), of best and of the achieved index.  At index i the up
        term D'(base + i)/lam^i comes before the down term D'(base - i)/lam^i,
        and only a term strictly above the running best takes its place."""
        w, lam_up, lam_down = self._windows(), self._weights[1], self._weights[2]
        j, last, best = np.array(j), np.array(last), np.array(best)
        # past its last index a row repeats its last terms, which moves no max
        i = np.minimum(j[:, None] + np.arange(int((last - j).max()) + 1), last[:, None])
        at = np.array(base)[:, None] - (self._s0 + self.consts.n0 - 1)
        lam = lam_up[i]
        terms = np.empty((len(base), 2 * i.shape[1]))
        terms[:, 0::2] = w[at + i] / lam
        terms[:, 1::2] = w[at - i] / lam
        run = np.maximum(np.maximum.accumulate(terms, axis=1), best[:, None])
        stop = lam_down[i + 1] <= run[:, 1::2]
        rows, first = np.arange(len(base)), stop.argmax(axis=1)
        found = stop[rows, first]
        top = run[rows, 2 * np.where(found, first, i.shape[1] - 1) + 1]
        pos = (terms == top[:, None]).argmax(axis=1)
        arg = np.where(top > best, i[rows, pos // 2] * (1 - 2 * (pos % 2)), arg)
        return np.where(found, j + first, -1).tolist(), top.tolist(), arg.tolist()

    def _sups(self, bases) -> dict:
        """{base: (D, achieved index, whether the stopping rule held within
        the horizon)} for each distinct base.

        Each round first finds, for every open base, the first index at
        which the stopping rule holds on upper bounds of the terms, sweeping
        widths that double from _REACH.  The true terms are no larger, so
        the exact sup runs at least that far; on a closed table the bounds
        are exact and that is the sup's stop.  Otherwise the open bases' P
        are made exact in one pass over the union of their spans, and each
        sweeps on from its exact prefix; one that does not stop opens the
        next round.  So P is made exact at just the shifts within n0 - 1 of
        the indices that some base's sup reaches.
        """
        h, k = self.consts.horizon, self.consts.n0 - 1
        # the terms below index j are exact, with their running (best, arg)
        state, out = {int(b): (0, 0.0, 0) for b in bases}, {}
        while state:
            reach, run, width = {}, state, _REACH
            while run:
                # a sweep first takes the indices whose terms are held
                b = list(run)
                j = [run[x][0] for x in b]
                lo, hi = self._s0 + k, self._s0 + len(self._p) - 1 - k
                held = [min(x - lo, hi - x) for x in b]
                ends = [min(h, e if e >= y else y + width - 1) for y, e in zip(j, held)]
                self._hold(min(map(int.__sub__, b, ends)) - k,
                           max(map(int.__add__, b, ends)) + k)
                swept = self._sweep(b, j, ends, [run[x][1] for x in b], [run[x][2] for x in b])
                run, width = {}, 2 * width
                for x, e, stop, best, arg in zip(b, ends, *swept):
                    if stop < 0 and e < h:
                        run[x] = (e + 1, best, arg)
                    else:
                        reach[x] = (e if stop < 0 else stop, best, arg, stop >= 0)
            if self.table.closed:
                out.update((x, v[1:]) for x, v in reach.items())
                break
            b = list(reach)
            r = [reach[x][0] for x in b]
            self._hold(min(map(int.__sub__, b, r)) - k, max(map(int.__add__, b, r)) + k,
                       [(x - e - k, x + e + k) for x, e in zip(b, r)])
            swept = self._sweep(b, [state[x][0] for x in b], r,
                                [state[x][1] for x in b], [state[x][2] for x in b])
            state = {}
            for x, e, stop, best, arg in zip(b, r, *swept):
                if stop < 0 and e < h:
                    state[x] = (e + 1, best, arg)
                else:
                    out[x] = (best, arg, stop >= 0)
        return out

    def metric_profile(self, base_shift: int = 0) -> dict:
        if self.singleton:
            return {"D": 0.0, "achieved_index": 0, "tail_bound": 0.0,
                    "truncated": False}
        best, arg, stopped = self._sups([base_shift])[int(base_shift)]
        return {"D": best, "achieved_index": arg,
                "tail_bound": 0.0 if stopped else float(self._weights[2][self.consts.horizon]),
                "truncated": not stopped}

    def metrics(self, bases: list) -> list:
        """D at each base shift, in one pass for all of them."""
        if self.singleton:
            return [0.0 for _ in bases]
        sups = self._sups(bases)
        return [sups[int(b)][0] for b in bases]

    def metric(self, base_shift: int = 0) -> float:
        return self.metric_profile(base_shift)["D"]


# -- public operations -----------------------------------------------------


def escape_time(sys, cont: MarkedContinuum, consts: MetricConstants):
    """N(C): iterates needed for the diameter to exceed c.

    math.inf for singletons; the value ``consts.horizon`` is a sentinel
    meaning ">= horizon" (effective infinity for the pipeline).
    """
    return MetricEvaluator(sys, cont, consts, depth=0).escape(0)[0]


def escape_weight(sys, cont: MarkedContinuum, consts: MetricConstants) -> float:
    """rho(C) = alpha^(-N(C)); 0 at or beyond the horizon."""
    return MetricEvaluator(sys, cont, consts, depth=0).escape(0)[1]


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
    n, rho = ev.escape(0)
    prof.update({
        "N": n,
        "rho": rho,
        "P": ev.chain(0),
        "Dprime": ev.window(0),
        "depth": int(depth),
    })
    return prof


def cw_metric_family(sys, cont: MarkedContinuum, consts: MetricConstants,
                     shifts, depth: int = 4) -> dict:
    """D(f^j C) for each j in shifts, sharing all internal caches."""
    shifts = [int(j) for j in shifts]
    return dict(zip(shifts, MetricEvaluator(sys, cont, consts, depth).metrics(shifts)))


# -- calibration ------------------------------------------------------------


def _eigen_arc_samples(sys, c: float, budget: int, rng) -> list:
    """Stable/unstable arc sample family with diameters in (c/2, c]."""
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


def calibrate(sys, sample_budget: int = 400, seed: int = 0) -> MetricConstants:
    """Find the escape bound m on a sampled continuum family and derive
    the metric constants.

    m is the smallest integer such that every sampled continuum with
    diameter above c/2 reaches diameter above c = ``sys.c`` within m
    iterates (either direction); it may not exceed the model's horizon.  The samples on
    the toral models are straight eigen-arcs, and whether their diameters
    exceed c/2 is decided exactly from their lifts by the straight-segment
    identity, in one ``_segment_exceeds`` pass over all samples.  Their
    escape times come from one _BlockTable.  A sample that never escapes within
    the scan window is a counterexample certificate: calibration fails
    and the witness is attached to the raised error.
    """
    c = float(sys.c)
    if not 0.0 < c < MAX_C:
        raise ValueError(f"c must lie in (0, {MAX_C}) at chart scale, got {c}")
    rng = np.random.default_rng(seed)
    scan = sys.horizon + 40
    if sys.kind == NORTH_SOUTH:
        worst = None
        for lon, t0, t1 in _ns_samples(c, sample_budget, rng):
            n = np.arange(-scan, scan + 1)
            sup = float(np.max(models._north_south_colat(t1, n)
                               - models._north_south_colat(t0, n)))
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
            f"no escape bound m <= {sys.horizon}: witness continuum of diameter "
            f"{worst.get('diam', 0):.4g} never exceeds c={c} "
            f"(sup {worst.get('sup_diam', 0):.4g} over |n| <= {scan})")
        err.witness = worst
        raise err
    frame = models.eigen_frame(sys.matrix)
    # membership: the family is continua with diameter > c/2, and on the
    # quotient the fold can shrink an arc well below its length
    samples = _eigen_arc_samples(sys, c, sample_budget, rng)
    inside = _segment_exceeds(sys.chart, np.array([lf.start_arr for lf in samples]),
                              np.array([lf.dir_arr for lf in samples]),
                              np.array([lf.length for lf in samples]), c / 2.0)
    family = [lf for lf, keep in zip(samples, inside.tolist()) if keep]
    table = _BlockTable(sys, frame, c, scan, *_rows_of([[_lift_piece(lf, frame)] for lf in family]))
    m_needed = 0
    for lf, n in zip(family, table.escapes([0])[:, 0].tolist()):
        if n > sys.horizon:
            err = CalibrationError(
                f"sample arc (len {lf.length:.4g}) needs more than m={sys.horizon} "
                f"iterates to escape c={c}")
            err.witness = {"kind": "eigen-arc", "stable": lf.stable,
                           "start": list(lf.start), "length": lf.length,
                           "escape_time": None if n > scan else n}
            raise err
        m_needed = max(m_needed, n)
    return constants_for(c, max(m_needed, 1))
