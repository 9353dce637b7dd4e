"""Reference computations the benchmark checks cwdyn's outputs against.

Everything here is written from the definitions with ``math`` and plain
numpy, and calls nothing in cwdyn: eigen data of a 2x2 integer matrix,
the three chart distances, exact integer orbit periods, the closed-form
escape time of a straight toral eigen-arc, the closed-form crossing of
two eigen-lines, and the edge rule of the chain-recurrence grid graph.
"""

import math

import numpy as np

TORUS = "torus"
SPHERE_QUOTIENT = "sphere-quotient"
SPHERE_GEOGRAPHIC = "sphere-geographic"


# -- linear data --------------------------------------------------------------


def eigen(matrix):
    """(lam_u, lam_s, e_u, e_s) of a hyperbolic 2x2 integer matrix.

    Eigenvalues from the characteristic polynomial; each eigenvector is
    (b, lam - a), normalised, for matrix ((a, b), (c, d)).
    """
    (a, b), (c, d) = matrix
    tr, det = a + d, a * d - b * c
    root = math.sqrt(tr * tr - 4 * det)
    lam1, lam2 = (tr + root) / 2.0, (tr - root) / 2.0
    lam_u, lam_s = (lam1, lam2) if abs(lam1) > abs(lam2) else (lam2, lam1)

    def vec(lam):
        v = np.array([float(b), lam - a])
        return v / math.hypot(v[0], v[1])

    return abs(lam_u), abs(lam_s), vec(lam_u), vec(lam_s)


# -- chart distances ----------------------------------------------------------


def _lattice_norm(w):
    r = w - np.round(w)
    return np.hypot(r[..., 0], r[..., 1])


def chart_dist(chart, a, b):
    """Chart distance between broadcastable (..., 2) arrays."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if chart == TORUS:
        return _lattice_norm(a - b)
    if chart == SPHERE_QUOTIENT:
        return np.minimum(_lattice_norm(a - b), _lattice_norm(a + b))
    if chart == SPHERE_GEOGRAPHIC:
        def embed(p):
            lon, th = 2.0 * math.pi * p[..., 0], math.pi * p[..., 1]
            return np.stack([np.sin(th) * np.cos(lon), np.sin(th) * np.sin(lon),
                             np.cos(th)], axis=-1)
        dot = np.sum(embed(a) * embed(b), axis=-1)
        return np.arccos(np.clip(dot, -1.0, 1.0)) / math.pi
    raise ValueError(f"unknown chart {chart!r}")


def dist_to_segment(chart, p, start, vec):
    """Distance from chart point p to the cover segment start + [0,1]*vec,
    over every lattice (and, on the quotient, mirror) representative of p."""
    p = np.asarray(p, dtype=float)
    start = np.asarray(start, dtype=float)
    mid = start + 0.5 * vec
    den = float(vec @ vec)
    best = math.inf
    for sgn in ((1.0, -1.0) if chart == SPHERE_QUOTIENT else (1.0,)):
        w = sgn * p
        w = w + np.round(mid - w)
        for dx in (-1.0, 0.0, 1.0):
            for dy in (-1.0, 0.0, 1.0):
                r = w + np.array([dx, dy])
                t = 0.0 if den == 0.0 else min(max(float((r - start) @ vec) / den, 0.0), 1.0)
                best = min(best, math.hypot(*(r - start - t * vec)))
    return best


# -- exact orbits -------------------------------------------------------------


def orbit_period(matrix, u, v, den, quotient=False, cap=100000):
    """Period of the rational point (u/den, v/den) under the matrix mod 1,
    on the torus or (quotient=True) on the torus mod v ~ -v."""
    (a, b), (c, d) = matrix

    def canon(s):
        if not quotient:
            return s
        return min(s, ((-s[0]) % den, (-s[1]) % den))

    start = canon((u % den, v % den))
    x, y = start
    for j in range(1, cap + 1):
        x, y = (a * x + b * y) % den, (c * x + d * y) % den
        if canon((x, y)) == start:
            return j
    raise ValueError(f"no period within {cap} steps")


def rational_targets(matrix, max_den, max_period):
    """Every torus point (u/den, v/den), den <= max_den in lowest terms,
    whose period is at most max_period, as (u, v, den, period)."""
    out = []
    for den in range(2, max_den + 1):
        for u in range(den):
            for v in range(den):
                if math.gcd(math.gcd(u, v), den) != 1:
                    continue
                per = orbit_period(matrix, u, v, den)
                if per <= max_period:
                    out.append((u, v, den, per))
    return out


# -- metric closed forms --------------------------------------------------------


def eigen_arc_escape(length, lam_u, c):
    """Escape time of a straight toral eigen-arc of the given length.

    Its n-th image (forward for unstable, backward for stable) has length
    length * lam_u**n, and on the torus a straight segment shorter than
    0.45 has diameter above c < 0.45 exactly when its length is above c.
    Returns None when the answer sits within 1e-9 of the threshold.
    """
    if length > c:
        return 0
    n = int(math.floor(math.log(c / length) / math.log(lam_u))) + 1
    while length * lam_u ** (n - 1) > c:
        n -= 1
    while not length * lam_u ** n > c:
        n += 1
    for m in (n - 1, n):
        if abs(length * lam_u ** m / c - 1.0) < 1e-9:
            return None
    return n


def line_crossing(matrix, z, y):
    """Crossing of the unstable line through z with the stable line through
    the representative of y nearest z, on the torus, wrapped to [0,1)^2."""
    _, _, eu, es = eigen(matrix)
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)
    y = y + np.round(z - y)
    # z + t*eu = y + s*es
    m = np.column_stack([eu, -es])
    t, _ = np.linalg.solve(m, y - z)
    return (z + t * eu) % 1.0


# -- chain-recurrence edge rule ------------------------------------------------


def grid_centers(res):
    ii, jj = np.meshgrid(np.arange(res), np.arange(res), indexing="ij")
    return np.stack([(ii.ravel() + 0.5) / res, (jj.ravel() + 0.5) / res], axis=1)


def cell_diagonals(chart, res):
    """Metric diagonal of every cell; geographic cells take the longer one."""
    n = res * res
    h = 1.0 / res
    if chart in (TORUS, SPHERE_QUOTIENT):
        return np.full(n, math.sqrt(2.0) * h)
    lo = np.tile(np.arange(res) * h, res)
    d1 = chart_dist(chart, np.stack([np.zeros(n), lo], 1), np.stack([np.full(n, h), lo + h], 1))
    d2 = chart_dist(chart, np.stack([np.zeros(n), lo + h], 1), np.stack([np.full(n, h), lo], 1))
    return np.maximum(d1, d2)


def one_step(kind, matrix, pts):
    """One forward iterate of (N, 2) chart points, from the map's formula."""
    pts = np.asarray(pts, dtype=float)
    if kind == "north-south":
        colat = 2.0 * pts[:, 1] / (1.0 + pts[:, 1])
        return np.stack([pts[:, 0], colat], axis=1)
    (a, b), (c, d) = matrix
    x, y = pts[:, 0], pts[:, 1]
    return np.stack([(a * x + b * y) % 1.0, (c * x + d * y) % 1.0], axis=1)


def adjacency_rows(kind, chart, matrix, res, eps, cells, band=1e-9):
    """Expected successor sets of the given cells under the edge rule
    d(f(center u), center v) <= eps + diag(v).

    Returns, per cell, (sure, unsure): targets clear of the threshold by
    more than ``band``, and targets within ``band`` of it, whose side a
    last-digit rounding difference may flip.
    """
    centers = grid_centers(res)
    thr = eps + cell_diagonals(chart, res)
    imgs = one_step(kind, matrix, centers[cells])
    out = []
    for img in imgs:
        margin = thr - chart_dist(chart, img[None, :], centers)
        sure = set(np.nonzero(margin > band)[0].tolist())
        unsure = set(np.nonzero(np.abs(margin) <= band)[0].tolist())
        out.append((sure, unsure))
    return out
