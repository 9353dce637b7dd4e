"""Constructive periodic points by iterated rectangle correction.

Given a recurrent pair (y, k) with f^k(y) close to y, each step first
crosses the local stable arc of y_n with the local unstable arc of
f^k(y_n); the crossing z shares the unstable coordinate of y_n, so the
stable part of the displacement from the limit dies by the k-th power
of the contraction rate.  The crossing is then transported back by
f^{-k} and holonomy-corrected along its stable arc onto the unstable
arc of z, which contracts the unstable part by the same factor.  The
composite step is a uniform contraction toward a genuine k-periodic
point.  Every step records the cw-size of the connecting path F_n and
checks it against the geometric envelope; violations are returned as
certified counterexample records, never silently dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import models
from .continua import (OffContinuumError, _arc_segments, _bracket, concat, intersect,
                       subcontinuum)
from .cwmetric import MetricConstants, cw_metric
from .holonomy import HolonomyFault, product_structure_radius
from .models import BudgetError, Point

# exact orbit steps find_return may spend on its candidates
_SEARCH_BUDGET = 200000
# corrective steps katok_iterate takes at most
_MAX_STEPS = 40


def tail_exponent(a: float, b: float, eps: float) -> int:
    """Smallest k with a*b^k < 1 and geometric tail sum(n>=1) <= eps.

    The tail is the exact series value r/(1-r) with r = a*b^k.  The
    returned k automatically satisfies log(a) + k*log(b) < 0.
    """
    if not a > 1.0:
        raise ValueError(f"need a > 1, got {a}")
    if not 0.0 < b < 1.0:
        raise ValueError(f"need b in (0,1), got {b}")
    if not eps > 0.0:
        raise ValueError(f"need eps > 0, got {eps}")
    k = max(1, int(math.floor(-math.log(a) / math.log(b))) - 1)
    while True:
        r = a * b ** k
        if r < 1.0 and (math.isinf(eps) or r / (1.0 - r) <= eps):
            return k
        k += 1


@dataclass(frozen=True)
class KatokParams:
    """The chained scale choices behind one periodic-point run.

    alpha_target is the output accuracy d(q, p); c, eps, delta_prime,
    delta, gamma, beta descend from it; k0 is the smallest admissible
    return exponent and k the one actually used.
    """

    alpha_target: float
    c: float
    eps: float
    delta_prime: float
    delta: float
    gamma: float
    beta: float
    k0: int
    k: int

    def __post_init__(self):
        for name in ("alpha_target", "c", "eps", "delta_prime", "delta", "gamma", "beta"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if self.k < self.k0 or self.k0 < 1:
            raise ValueError("need k >= k0 >= 1")


def validate_chain(params: KatokParams, consts: MetricConstants) -> None:
    """Check the proof's chain of scale choices, raising on violation."""
    lam_c = 1.0 / consts.lam
    checks = [
        (params.c < params.alpha_target / 2.0, "c < alpha_target/2"),
        (params.delta == params.delta_prime / 2.0, "delta = delta_prime/2"),
        (params.gamma < params.delta / 2.0, "gamma < delta/2"),
        (params.beta < params.gamma / 3.0, "beta < gamma/3"),
        (4.0 * lam_c ** params.k0 * params.c <= params.beta,
         "4*lam^k0*c <= beta"),
    ]
    a = 4.0 * (1.0 + params.delta) ** 2
    r = a * lam_c ** params.k0
    checks.append((r < 1.0 and r / (1.0 - r) <= params.beta,
                   "geometric tail at k0 <= beta"))
    for ok, label in checks:
        if not ok:
            raise ValueError(f"parameter chain violated: {label}")


def plan_katok(sys, consts: MetricConstants, alpha_target: float,
               sample_budget: int = 120, seed: int = 0) -> KatokParams:
    """Derive a full parameter chain for the target accuracy.

    gamma is just under delta/2; it is the one scale the chain cannot pin
    down a priori (it reflects the empirically measured pseudo-isometry
    modulus at eta = delta).
    """
    if not alpha_target > 0.0:
        raise ValueError("alpha_target must be positive")
    c = min(consts.c, 0.45 * alpha_target)
    eps = consts.c / 2.0
    delta_prime = product_structure_radius(sys, eps, sample_budget=sample_budget,
                                           seed=seed)
    delta = delta_prime / 2.0
    gamma = 0.49 * delta
    beta = 0.99 * gamma / 3.0
    lam_c = 1.0 / consts.lam
    k_tail = tail_exponent(4.0 * (1.0 + delta) ** 2, lam_c, beta)
    k_scale = max(1, int(math.ceil(math.log(4.0 * c / beta) / math.log(1.0 / lam_c))))
    k0 = max(k_tail, k_scale)
    params = KatokParams(alpha_target=alpha_target, c=c, eps=eps,
                         delta_prime=delta_prime, delta=delta, gamma=gamma,
                         beta=beta, k0=k0, k=k0)
    validate_chain(params, consts)
    return params


# -- recurrent return pairs ------------------------------------------------


def _exact_period(sys, num_x: int, num_y: int, den: int, cap: int):
    """Exact orbit period of the rational point, or None past cap steps."""
    ((a, b), (c, d)) = sys.matrix
    u, v = num_x % den, num_y % den
    start_class = models._quotient_class(sys.chart, u, v, den)
    for j in range(1, cap + 1):
        u, v = (a * u + b * v) % den, (c * u + d * v) % den
        if (u, v) in start_class:
            return j
    return None


def _return_candidates(chart: str, pxy: np.ndarray, bound: float):
    """The rationals next to p, nearest first: (distances, [(u, v, den)]).

    For each den in 1..200 the ring (round(p*den) + (dx, dy)) / den with
    dx, dy in (0, -1, 1), in that loop order, rounding half to even as
    round does.  A point is kept at its first occurrence, in lowest terms
    (u, v, den); those within bound of p are sorted by distance, then by
    the den it first occurred at, then by its coordinates.
    """
    den = np.repeat(np.arange(1, 201), 9)
    ring = np.array([0, -1, 1])
    u = (np.rint(pxy[0] * den).astype(np.int64) + np.tile(np.repeat(ring, 3), 200)) % den
    v = (np.rint(pxy[1] * den).astype(np.int64) + np.tile(ring, 600)) % den
    # in lowest terms the common denominator is the lcm of the two reduced ones
    g = np.gcd(np.gcd(u, v), den)
    keys = np.stack([u // g, v // g, den // g], axis=1)
    # one int64 per point: reduced u and v lie in 0..200
    first = np.unique((keys[:, 2] * 201 + keys[:, 0]) * 201 + keys[:, 1], return_index=True)[1]
    x, y = u[first] / den[first], v[first] / den[first]
    dist = models.chart_distance(chart, pxy, np.stack([x, y], axis=1))
    near = dist < bound
    first, x, y, dist = first[near], x[near], y[near], dist[near]
    # the fields never all tie: equal den, x and y are one point, seen once
    order = np.lexsort((y, x, den[first], dist))
    return dist[order], keys[first[order]].tolist()


def find_return(sys, p: Point, bound: float, k_min: int):
    """A nearby recurrent pair: y with d(y,p) < bound, d(f^k(y),p) < bound.

    Searches the rational grid around p in order of distance; every
    candidate is exactly periodic, so k is its period rounded up to a
    multiple at least k_min and both bounds hold by construction.
    Candidates whose k would exceed the model horizon are skipped.
    Raises BudgetError with diagnostics when the exact orbit scans
    exhaust _SEARCH_BUDGET steps.
    """
    if k_min < 1:
        raise ValueError("k_min must be at least 1")
    if not bound > 0.0:
        raise ValueError("bound must be positive")
    dist, keys = _return_candidates(sys.chart, p.xy(), bound)

    steps_used = 0
    tried = 0
    horizon_skipped = 0
    for u, v, com in keys:
        cap = min(6 * com + 12, _SEARCH_BUDGET - steps_used)
        if cap <= 0:
            break
        tried += 1
        per = _exact_period(sys, u, v, com, cap)
        steps_used += per if per is not None else cap
        if per is None:
            continue
        k = per * math.ceil(k_min / per)
        if k > sys.horizon:
            horizon_skipped += 1
            continue
        return sys.rational_point(u, v, com), k
    err = BudgetError(f"no recurrent pair within bound {bound} of {tuple(p.coords)} "
                      f"after {tried} candidates / {steps_used} orbit steps")
    err.diagnostics = {"candidates_tried": tried, "orbit_steps": steps_used,
                       "nearest_distance": dist[0] if len(dist) else math.inf,
                       "bound": bound, "k_min": k_min,
                       "horizon_skipped": horizon_skipped}
    raise err


# -- the rectangle iteration ----------------------------------------------


def _crossing_paths(ca, cb, start: Point, end: Point, cands: list, label: str) -> list:
    """(z, path), in the order of cands, for each crossing z of ca and cb
    whose path along ca from start to z and along cb on to end can be built."""
    if not cands:
        raise HolonomyFault(f"no crossing at {label}")
    paths = []
    for z in cands:
        try:
            paths.append((z, concat([subcontinuum(ca, start, z, tol=1e-7),
                                     subcontinuum(cb, z, end, tol=1e-7)], tol=1e-7)))
        except OffContinuumError:
            continue
    if not paths:
        raise HolonomyFault(f"no admissible crossing branch at {label}")
    return paths


def _best_crossing(sys, paths: list, consts: MetricConstants):
    """The crossing whose connecting path has smallest cw-size, and that size."""
    best = None
    for z, path in paths:
        d_f = cw_metric(sys, path, consts, depth=3)
        if best is None or d_f < best[0]:
            best = (d_f, z)
    return best[1], best[0]


def _transport(sys, z: Point, k: int, eps: float, consts: MetricConstants,
               label: str) -> Point:
    """y_{n+1}: the crossing of the unstable arc of z with the stable arc of
    f^{-k}(z), as intersect finds it, on the arcs' lifts.  Only the choice
    among several crossings needs the arcs, their paths and cw-sizes."""
    fmz = models.iterate(sys, z, -k)
    seg_u, seg_s = (_arc_segments(sys, p.chart, p.xy()[None], stable, eps)
                    for p, stable in ((z, False), (fmz, True)))
    cands = [Point(sys.chart, (float(a), float(b)))
             for a, b in _bracket(sys.chart, seg_u, seg_s, 1e-9)]
    if len(cands) == 1:
        return cands[0]
    cu = models.local_arc(sys, z, "unstable", eps)
    cs = models.local_arc(sys, fmz, "stable", eps)
    paths = _crossing_paths(cu, cs, z, fmz, cands, label)
    return paths[0][0] if len(paths) == 1 else _best_crossing(sys, paths, consts)[0]


def katok_iterate(sys, y: Point, k: int, params: KatokParams,
                  consts: MetricConstants) -> dict:
    """Run the corrective loop from the recurrent pair (y, k).

    Each step's connecting path F_n (stable leg from y_n to the
    crossing z, unstable leg on to f^k(y_n)) realizes one holonomy
    rectangle side pair; the crossing minimizing D(F_n) is taken when a
    fold offers several.  y_{n+1} is the stable holonomy of f^{-k}(z)
    onto the unstable arc of z, so both displacement components
    contract by the k-th power of the rate.  Steps record D(F_n)
    against the envelope [(1+delta)^2 * 4]^n * lam^{nk} * c with lam
    the contraction rate; violations become counterexample records in
    the result.

    The run stops after three consecutive gaps d(y_n, f^k y_n) below
    max(1e-11, 2 * 2^-52 * lam_u^k): f^k amplifies the rounding of y_n by
    about lam_u^k (lam_u the expansion rate), so below that floor the
    gap is rounding noise and cannot shrink further.
    It stops unconverged after _MAX_STEPS steps, or at the first step
    that returns y_n itself while the gap is still at or above that
    floor: a step depends on y_n alone, so every later one would return
    y_n again with the same gap.
    """
    gap_tol = max(1e-11, 2.0 * 2.0 ** -52 * sys.expansion_rate ** k)
    lam_c = 1.0 / consts.lam
    ratio = 4.0 * (1.0 + params.delta) ** 2 * lam_c ** k
    y_n = y
    steps = []
    counterexamples = []
    converged = False
    consec = 0
    for n in range(_MAX_STEPS + 1):
        fky = models.iterate(sys, y_n, k)
        gap = models.distance(sys, y_n, fky)
        if gap == 0.0:
            converged = True
            break
        if gap < gap_tol:
            consec += 1
            if consec >= 3:
                converged = True
                break
        else:
            consec = 0
        if n == _MAX_STEPS:
            break
        cs = models.local_arc(sys, y_n, "stable", params.eps)
        cu = models.local_arc(sys, fky, "unstable", params.eps)
        paths = _crossing_paths(cs, cu, y_n, fky, intersect(cs, cu, tol=1e-9),
                                f"step {n} (gap {gap:.3g})")
        z, d_f = _best_crossing(sys, paths, consts)
        y_next = _transport(sys, z, k, params.eps, consts, f"step {n} transport")
        bound = ratio ** (n + 1) * params.c
        ok = d_f <= bound
        step = {"n": n + 1, "gap": gap, "D_F": d_f, "bound": bound, "ok": ok}
        steps.append(step)
        if not ok:
            counterexamples.append(step)
        if y_next == y_n and gap >= gap_tol:
            break
        y_n = y_next
    # every exit follows the gap of the final y_n
    return {"q": y_n, "k": k, "steps": steps,
            "converged": converged, "residual": gap,
            "envelope_ok": not counterexamples,
            "counterexamples": counterexamples}


def verify_periodic(sys, q: Point, k: int) -> dict:
    """Certify q = f^k(q) by exact orbit residual, below 1e-9."""
    residual = models.distance(sys, q, models.iterate(sys, q, k))
    return {"ok": residual < 1e-9, "residual": residual, "k": k}
