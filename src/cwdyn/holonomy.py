r"""Stable and unstable holonomies between nearby local arcs.

The stable holonomy pi^s_{x,y} slides a point z of the local stable arc
of x onto the local stable arc of y along the local unstable arc of z:

    pi^s_{x,y}(z) = C^u_eps(z)  /\  C^s_eps(y)

and dually for the unstable holonomy.  On the torus the result is a
single point; on the quotient sphere a fold near a spine can offer two
branches, so everything here returns or enumerates branch lists.  The
probe at the bottom measures how far holonomy transport is from an
isometry of the cw-metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import models
from .continua import (OffContinuumError, _arc_pair_hits, _arc_segments, _nearest_on,
                       intersect, subcontinuum)
from .cwmetric import MetricConstants, cw_metric
from .models import Point


class HolonomyFault(RuntimeError):
    """Empty holonomy despite satisfied preconditions.

    The local product structure promised a crossing and the model did
    not deliver one; this indicates a calibration or model fault, not a
    caller error.
    """


@dataclass(frozen=True)
class HolonomyParams:
    """Scales for holonomy transport.

    ``eps`` is the arc half-length used for the transported arcs,
    ``delta`` the radius within which transport is attempted (half the
    certified product-structure radius), ``tol`` the incidence
    tolerance for intersection and projection tests.
    """

    eps: float
    delta: float
    tol: float = 1e-9

    def __post_init__(self):
        if not 0.0 < self.delta < self.eps:
            raise ValueError(f"need 0 < delta < eps, got delta={self.delta}, eps={self.eps}")
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")


def product_structure_radius(sys, eps: float, sample_budget: int = 160,
                             seed: int = 0) -> float:
    """Largest certified delta' such that sampled pairs x, y with
    d(x, y) <= delta' have C^s_eps(x) /\\ C^u_eps(y) nonempty.

    Found by bisection of the failure threshold over a seeded sample of
    base points and displacement directions (spine neighborhoods are
    force-included on the quotient sphere).  The certificate is only as
    strong as the sample, which is the usual status of a numerically
    found product-structure radius.
    """
    if not sys.is_hyperbolic:
        raise models.ModelCapabilityError("product structure requires a hyperbolic model")
    rng = np.random.default_rng(seed)
    bases = [sys.point(*xy) for xy in rng.random((sample_budget, 2))]
    if sys.chart == models.SPHERE_QUOTIENT:
        for w in models.spine_points(sys):
            for r in (1e-6, 1e-3, 0.02):
                ang = rng.random() * 2.0 * math.pi
                bases.append(sys.point(*(w.xy() + r * np.array([math.cos(ang), math.sin(ang)]))))
    dirs = rng.random(len(bases)) * 2.0 * math.pi
    xs = np.array([x.coords for x in bases]).reshape(-1, 2)
    unit = np.array([[math.cos(ang), math.sin(ang)] for ang in dirs]).reshape(-1, 2)

    def ok(d: float) -> bool:
        # y is each base displaced by d, normalized as sys.point does
        ys = models.wrap_chart(sys.chart, xs + d * unit)
        return bool((_arc_pair_hits(sys, xs, ys, eps) > 0).all())

    lo, hi = 0.0, eps * (1.0 - 1e-9)
    if ok(hi):
        return hi
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    if lo == 0.0:
        raise models.CalibrationError("no positive product-structure radius certified")
    return lo


def default_params(sys, sample_budget: int = 160, seed: int = 0) -> HolonomyParams:
    """eps = c/2 and delta = half the certified product-structure radius."""
    eps = sys.c / 2.0
    dp = product_structure_radius(sys, eps, sample_budget=sample_budget, seed=seed)
    return HolonomyParams(eps=eps, delta=dp / 2.0)


def _on_arc(sys, x: Point, z: Point, kind: str, radius: float, tol: float) -> bool:
    seg = _arc_segments(sys, x.chart, x.xy()[None], models._want_stable(kind), radius)
    return bool(_nearest_on(sys.chart, seg, z.xy())[2][0] <= tol)


def holonomy(sys, x: Point, y: Point, z: Point, kind: str,
             params: HolonomyParams) -> list:
    """All branches of the holonomy image of z under pi^{kind}_{x,y}.

    ``kind`` names the foliation being transported: the stable holonomy
    moves z in C^s_delta(x) along C^u_eps(z) onto C^s_eps(y).  Raises
    ValueError when the preconditions fail (caller domain error) and
    HolonomyFault when the crossing promised by the product structure
    is missing (model fault).  Points are ordered by distance from z.
    """
    return _branches(sys, x, y, z, kind, params)[0]


def _branches(sys, x: Point, y: Point, z: Point, kind: str, params: HolonomyParams):
    """holonomy's branches, and the target arc C^{kind}_eps(y) they lie on."""
    other = "unstable" if models._want_stable(kind) else "stable"
    dxy = models.distance(sys, x, y)
    if not dxy < params.delta:
        raise ValueError(f"d(x, y) = {dxy:.3g} is not below delta = {params.delta:.3g}")
    if not _on_arc(sys, x, z, kind, params.delta, 10.0 * params.tol):
        raise ValueError(f"z is not on the local {kind} arc of x at scale delta")
    carrier = models.local_arc(sys, z, other, params.eps)
    target = models.local_arc(sys, y, kind, params.eps)
    pts = intersect(carrier, target, tol=params.tol)
    if not pts:
        raise HolonomyFault(
            f"{kind} holonomy of {tuple(z.coords)} from {tuple(x.coords)} to "
            f"{tuple(y.coords)} is empty at eps={params.eps}")
    zxy = z.xy()
    pts.sort(key=lambda p: (models.chart_distance(sys.chart, zxy, p.xy()),
                            p.coords[0], p.coords[1]))
    return pts, target


# -- probes ---------------------------------------------------------------


def _sample_rectangle(sys, rng, params: HolonomyParams, diam_range):
    """Random stable side C from p to q, and p* on the unstable arc of p,
    with diam(C) log-uniform in diam_range."""
    p = sys.point(*rng.random(2))
    lo, hi = diam_range
    half = 0.5 * math.exp(rng.uniform(math.log(lo), math.log(hi)))
    off = rng.uniform(0.3, 0.9) * params.delta * rng.choice([-1.0, 1.0])
    es = sys.eigen_direction(stable=True)
    eu = sys.eigen_direction(stable=False)
    arc = models.local_arc(sys, p, "stable", params.eps)
    q = sys.point(*(p.xy() + (2.0 * half) * es * rng.choice([-1.0, 1.0])))
    pstar = sys.point(*(p.xy() + off * eu))
    return subcontinuum(arc, p, q, tol=1e-6), p, q, pstar


def _branch_ratios(sys, C, p, q, pstar, params, consts, depth: int = 3):
    """D(C*)/D(C) for every admissible branch of the transported side."""
    d_c = cw_metric(sys, C, consts, depth=depth)
    # the branches lie on the stable arc of p*, which C* is cut from
    cands, arc_s = _branches(sys, p, pstar, q, "stable", params)
    ratios = []
    for qstar in cands:
        try:
            cstar = subcontinuum(arc_s, pstar, qstar, tol=1e-6)
        except OffContinuumError:
            continue
        if d_c <= 0.0:
            ratios.append(1.0 if cw_metric(sys, cstar, consts, depth=depth) <= 0.0
                          else math.inf)
        else:
            ratios.append(cw_metric(sys, cstar, consts, depth=depth) / d_c)
    return d_c, ratios


def pseudo_isometry_probe(sys, sample_budget: int, eta_grid,
                          params: HolonomyParams, consts: MetricConstants,
                          seed: int = 0, diam_range=(1e-13, 1e-2),
                          depth: int = 3) -> dict:
    """Measure |D(C*)/D(C) - 1| over random holonomy transports.

    For each tolerance eta in ``eta_grid`` the report records the
    largest size gamma such that every sampled rectangle with
    D(C) <= gamma stays within eta (best branch and worst branch
    separately).  Obstructions and faults are collected, not raised.
    """
    rng = np.random.default_rng(seed)
    eta_grid = sorted(float(e) for e in eta_grid)
    rows = []
    obstructions = []
    for _ in range(int(sample_budget)):
        C, p, q, pstar = _sample_rectangle(sys, rng, params, diam_range)
        try:
            d_c, ratios = _branch_ratios(sys, C, p, q, pstar, params, consts, depth=depth)
        except (HolonomyFault, ValueError) as err:
            obstructions.append({"p": tuple(p.coords), "q": tuple(q.coords),
                                 "pstar": tuple(pstar.coords), "error": str(err)})
            continue
        if not ratios:
            obstructions.append({"p": tuple(p.coords), "q": tuple(q.coords),
                                 "pstar": tuple(pstar.coords),
                                 "error": "no admissible branch"})
            continue
        devs = [abs(r - 1.0) for r in ratios]
        rows.append((d_c, min(devs), max(devs)))

    rows.sort(key=lambda r: r[0])
    sizes = np.array([r[0] for r in rows])
    best = np.array([r[1] for r in rows])
    worst = np.array([r[2] for r in rows])
    # running max of deviation over all samples of size <= gamma
    run_best = np.maximum.accumulate(best) if len(rows) else best
    run_worst = np.maximum.accumulate(worst) if len(rows) else worst
    table = []
    for eta in eta_grid:
        def gamma_for(run):
            ok = np.nonzero(run <= eta)[0]
            return float(sizes[ok[-1]]) if len(ok) else 0.0
        table.append({"eta": eta,
                      "gamma_best": gamma_for(run_best),
                      "gamma_worst": gamma_for(run_worst)})
    report = {
        "model": sys.kind,
        "n_samples": len(rows),
        "params": {"eps": params.eps, "delta": params.delta, "tol": params.tol},
        "max_deviation_best": float(best.max()) if len(rows) else 0.0,
        "max_deviation_worst": float(worst.max()) if len(rows) else 0.0,
        "modulus_table": table,
        "obstructions": obstructions,
        "seed": seed,
    }
    return report
