"""Concrete surface dynamical systems and their chart geometry.

Three homeomorphism families are provided:

* ``cat-map`` -- a hyperbolic toral automorphism given by an integer
  matrix with determinant +-1 (default ``[[2, 1], [1, 1]]``) acting on
  the flat torus ``[0,1)^2``.
* ``sphere-pA`` -- the same automorphism pushed down to the quotient
  sphere ``T^2 / (v ~ -v)``; the four images of the half-integer points
  become one-prong singularities ("spines").
* ``north-south`` -- a non-hyperbolic control example on the round
  sphere with one repelling and one attracting fixed point.

Points are raw chart coordinates wrapped in :class:`Point`.  Iteration
of the toral families is performed in exact integer arithmetic modulo 1
(floats in, floats out, a single rounding at the end), so long orbits do
not lose precision to the expansion rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

TORUS = "torus"
SPHERE_QUOTIENT = "sphere-quotient"
SPHERE_GEOGRAPHIC = "sphere-geographic"

CAT_MAP = "cat-map"
SPHERE_PA = "sphere-pA"
NORTH_SOUTH = "north-south"

MODEL_KINDS = (CAT_MAP, SPHERE_PA, NORTH_SOUTH)

# fold detection threshold for quotient singularities
SPINE_TOL = 1e-9


class ChartError(ValueError):
    """Chart of a point does not match the operation's expectation."""


class HorizonError(ValueError):
    """Requested iterate exceeds the configured horizon."""


class ModelCapabilityError(ValueError):
    """Operation is not defined for this model kind."""


class CalibrationError(RuntimeError):
    """No expansivity certificate exists for the requested constant."""


class BudgetError(RuntimeError):
    """A refinement or search budget was exhausted."""


class ConfigError(ValueError):
    """Bad flag, config entry or parameter; the message names it."""


@dataclass(frozen=True)
class Point:
    """A chart point: ``chart`` name plus a coordinate pair.

    Toral points silently carry an exact dyadic form (num_x, num_y, den)
    of their coordinates; integer-matrix iteration preserves the
    denominator, so orbits compose with no accumulated rounding and
    iterate(iterate(x, n), -n) returns x bit for bit.
    """

    chart: str
    coords: tuple[float, float]
    exact: tuple | None = field(default=None, compare=False, repr=False)

    def xy(self) -> np.ndarray:
        return np.array(self.coords, dtype=float)

    def dyadic(self) -> tuple:
        """Exact (num_x, num_y, den) of the coordinates."""
        return self.exact if self.exact is not None else _dyadic(self.coords)


def _dyadic(xy) -> tuple:
    """Exact (num_x, num_y, den) of a float pair.  Floats are binary
    rationals, so den is the larger of two powers of two."""
    n1, d1 = float(xy[0]).as_integer_ratio()
    n2, d2 = float(xy[1]).as_integer_ratio()
    dd = max(d1, d2)
    return (n1 * (dd // d1), n2 * (dd // d2), dd)


def _wrap1(v):
    """Reduce mod 1 into [0, 1), mapping values within 1 ulp of 1 to 0."""
    w = np.asarray(v, dtype=float) % 1.0
    return np.where(w >= 1.0 - 1e-15, 0.0, w)


def wrap_chart(chart: str, pts) -> np.ndarray:
    """Canonical chart coordinates of raw plane points, vectorized over (..., 2).

    The quotient representative is the lexicographically smaller of
    ``pts mod 1`` and ``-pts mod 1``, both reduced from the raw input so
    that a point next to the origin spine keeps its full precision.
    """
    pts = np.asarray(pts, dtype=float)
    if chart == TORUS:
        return _wrap1(pts)
    if chart == SPHERE_QUOTIENT:
        a = _wrap1(pts)
        b = _wrap1(-pts)
        # a coordinate is 0 on both sides once either wrap rounds it there,
        # so v, -v and the chosen point itself all choose alike
        zero = (a == 0.0) | (b == 0.0)
        a = np.where(zero, 0.0, a)
        b = np.where(zero, 0.0, b)
        swap = (b[..., 0] < a[..., 0]) | ((b[..., 0] == a[..., 0]) & (b[..., 1] < a[..., 1]))
        return np.where(swap[..., None], b, a)
    if chart == SPHERE_GEOGRAPHIC:
        lon = _wrap1(pts[..., 0])
        colat = np.clip(pts[..., 1], 0.0, 1.0)
        return np.stack([lon, colat], axis=-1)
    raise ChartError(f"unknown chart {chart!r}")


def torus_norm(w):
    """Distance from displacement vectors (..., 2) to the integer lattice."""
    w = np.asarray(w, dtype=float)
    # np.rint is np.round at 0 decimals without its wrapper's overhead,
    # which dominates on the single pairs most callers pass
    r = w - np.rint(w)
    return np.hypot(r[..., 0], r[..., 1])


def _geo_embed(xy: np.ndarray) -> np.ndarray:
    # chart (lon, colat) in [0,1) x [0,1]; unit sphere embedding
    lon = 2.0 * math.pi * xy[..., 0]
    th = math.pi * xy[..., 1]
    st = np.sin(th)
    return np.stack([st * np.cos(lon), st * np.sin(lon), np.cos(th)], axis=-1)


def _geo_distance(ea: np.ndarray, eb: np.ndarray):
    """Round-sphere distance, scaled by 1/pi, of unit-sphere embeddings
    (..., 3) as :func:`_geo_embed` gives them."""
    d = np.sum(ea * eb, axis=-1)
    return np.arccos(np.clip(d, -1.0, 1.0)) / math.pi


def chart_distance(chart: str, a, b):
    """Metric of the chart over broadcastable (..., 2) arrays: flat torus,
    quotient of it, or round sphere.  A single pair gives a np.float64.

    The round-sphere distance is scaled by 1/pi so the three charts share
    a comparable desk scale (diameters 0.707, 0.707/2-ish, 1).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if chart == TORUS:
        return torus_norm(a - b)
    if chart == SPHERE_QUOTIENT:
        return np.minimum(torus_norm(a - b), torus_norm(a + b))
    if chart == SPHERE_GEOGRAPHIC:
        return _geo_distance(_geo_embed(a), _geo_embed(b))
    raise ChartError(f"unknown chart {chart!r}")


def _check_matrix(matrix) -> tuple[tuple[int, int], tuple[int, int]]:
    m = np.asarray(matrix)
    if m.shape != (2, 2) or not np.all(m == np.round(m)):
        raise ValueError("matrix must be an integer 2x2 array")
    m = m.astype(int)
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if det not in (1, -1):
        raise ValueError(f"matrix must have determinant +-1, got {det}")
    eig = np.linalg.eigvals(m.astype(float))
    if np.any(np.isclose(np.abs(eig), 1.0)):
        raise ValueError("matrix must be hyperbolic (no eigenvalue on the unit circle)")
    return ((int(m[0, 0]), int(m[0, 1])), (int(m[1, 0]), int(m[1, 1])))


@dataclass(frozen=True)
class SystemModel:
    """A concrete system: model kind, defining data, and iterate cap.

    ``c`` is the expansivity working constant used by default throughout
    (0.25 for the toral families; the north-south map has none and keeps
    a placeholder for reporting only).  ``horizon`` caps |n| in iterate
    requests.
    """

    kind: str
    matrix: tuple[tuple[int, int], tuple[int, int]] = ((2, 1), (1, 1))
    c: float = 0.25
    horizon: int = 160

    @property
    def chart(self) -> str:
        if self.kind == CAT_MAP:
            return TORUS
        if self.kind == SPHERE_PA:
            return SPHERE_QUOTIENT
        return SPHERE_GEOGRAPHIC

    @property
    def is_hyperbolic(self) -> bool:
        return self.kind in (CAT_MAP, SPHERE_PA)

    def point(self, x: float, y: float) -> Point:
        c = tuple(float(v) for v in wrap_chart(self.chart, [x, y]))
        p = Point(self.chart, c)
        if self.kind == NORTH_SOUTH:
            return p
        return Point(self.chart, c, exact=p.dyadic())

    def rational_point(self, nx: int, ny: int, den: int) -> Point:
        """Point with exactly rational coordinates (nx/den, ny/den)."""
        if self.kind == NORTH_SOUTH:
            raise ModelCapabilityError("rational points are a toral feature")
        return _exact_point(self.chart, nx % den, ny % den, den)

    # -- linear data of the toral families ------------------------------

    @property
    def expansion_rate(self) -> float:
        """Modulus of the expanding eigenvalue."""
        if not self.is_hyperbolic:
            raise ModelCapabilityError("north-south map has no hyperbolic splitting")
        return abs(eigen_frame(self.matrix).su)

    def eigen_direction(self, stable: bool) -> np.ndarray:
        """Unit eigenvector of the stable or unstable line."""
        if not self.is_hyperbolic:
            raise ModelCapabilityError("north-south map has no hyperbolic splitting")
        frame = eigen_frame(self.matrix)
        return (frame.es if stable else frame.eu).copy()


class EigenFrame(NamedTuple):
    """Eigen splitting of a hyperbolic toral matrix.

    ``es``/``eu`` are the unit stable/unstable eigenvectors, ``ss``/``su``
    their signed eigenvalues, and ``inv`` inverts the basis ``[es | eu]``:
    ``inv @ v`` gives the (stable, unstable) components of v.  The arrays
    are shared by every caller and read-only.
    """

    es: np.ndarray
    eu: np.ndarray
    ss: float
    su: float
    inv: np.ndarray


@lru_cache(maxsize=64)
def eigen_frame(matrix: tuple) -> EigenFrame:
    m = np.asarray(matrix, dtype=float)
    w, v = np.linalg.eig(m)

    def unit(idx: int) -> np.ndarray:
        e = v[:, idx] / np.linalg.norm(v[:, idx])
        # fix an orientation so repeated runs agree bit for bit
        if e[0] < 0 or (e[0] == 0 and e[1] < 0):
            e = -e
        e.setflags(write=False)
        return e

    es = unit(int(np.argmin(np.abs(w))))
    eu = unit(int(np.argmax(np.abs(w))))
    inv = np.linalg.inv(np.stack([es, eu], axis=1))
    inv.setflags(write=False)
    return EigenFrame(es=es, eu=eu, ss=float(es @ (m @ es)), su=float(eu @ (m @ eu)),
                      inv=inv)


def make_model(kind: str, matrix=None, c: float | None = None) -> SystemModel:
    """Build a :class:`SystemModel`, validating the defining data."""
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    if kind == NORTH_SOUTH:
        if matrix is not None:
            raise ValueError("north-south map takes no matrix")
        return SystemModel(kind=kind, c=c if c is not None else 0.25)
    mat = _check_matrix(matrix if matrix is not None else ((2, 1), (1, 1)))
    return SystemModel(kind=kind, matrix=mat, c=c if c is not None else 0.25)


# -- exact toral iteration ----------------------------------------------


@lru_cache(maxsize=4096)
def _mat_power(matrix: tuple, n: int) -> tuple:
    """Integer matrix power, n of either sign (determinant +-1)."""
    ((a, b), (c, d)) = matrix
    if n == 0:
        return ((1, 0), (0, 1))
    if n < 0:
        det = a * d - b * c
        inv = ((d * det, -b * det), (-c * det, a * det))
        return _mat_power(inv, -n)
    half = _mat_power(matrix, n // 2)
    sq = _mat_mul(half, half)
    return _mat_mul(sq, matrix) if n % 2 else sq


def _mat_mul(p: tuple, q: tuple) -> tuple:
    return (
        (p[0][0] * q[0][0] + p[0][1] * q[1][0], p[0][0] * q[0][1] + p[0][1] * q[1][1]),
        (p[1][0] * q[0][0] + p[1][1] * q[1][0], p[1][0] * q[0][1] + p[1][1] * q[1][1]),
    )


def _exact_linear_mod1(matrix_pows, pts) -> list:
    """Apply integer matrices to float pairs, exactly, mod 1: the pair
    pts[k] under matrix_pows[k], for each k, as a list of float pairs.

    Floats are binary rationals, so the matrix action and the mod-1
    reduction are computed in integer arithmetic; only the final division
    rounds.
    """
    out = []
    for ((m00, m01), (m10, m11)), xy in zip(matrix_pows, pts):
        a, b, dd = _dyadic(xy)
        out.append((((m00 * a + m01 * b) % dd) / dd, ((m10 * a + m11 * b) % dd) / dd))
    return out


def iterate(sys: SystemModel, x: Point, n: int) -> Point:
    """n-th iterate of ``x`` (n of either sign, |n| <= horizon)."""
    if abs(n) > sys.horizon:
        raise HorizonError(f"|n|={abs(n)} exceeds horizon {sys.horizon}")
    if x.chart != sys.chart:
        raise ChartError(f"point chart {x.chart!r} does not match model chart {sys.chart!r}")
    if n == 0:
        return x
    if sys.kind == NORTH_SOUTH:
        lon, colat = x.coords
        colat2 = _north_south_colat(colat, n)
        return Point(sys.chart, (float(lon), float(min(1.0, max(0.0, colat2)))))
    a, b, d = x.dyadic()
    ((m00, m01), (m10, m11)) = _mat_power(sys.matrix, n)
    return _exact_point(sys.chart, (m00 * a + m01 * b) % d, (m10 * a + m11 * b) % d, d)


def _north_south_colat(colat, n):
    """Colatitude after n steps of the north-south map, unclipped, for a
    float or an array of them and an int or an array of ints.

    The Moebius map p*t / (1 + (p - 1)*t), p = 2^n, fixes both poles.  For
    n <= -54, p - 1 rounds to -1, so the denominator at the pole t = 1 is
    0; the pole is kept fixed there too.
    """
    p = 2.0 ** np.asarray(n, dtype=float)
    with np.errstate(divide="ignore"):
        t = p * colat / (1.0 + (p - 1.0) * colat)
    return np.where(colat == 1.0, 1.0, t)[()]


def _quotient_class(chart: str, u: int, v: int, den: int) -> tuple:
    """Residue pairs of the class of (u/den, v/den), u and v in [0, den):
    (u, v) and (-u, -v) mod den on the quotient sphere, (u, v) alone on
    the torus.  The smallest is the representative :func:`wrap_chart`
    picks."""
    if chart == SPHERE_QUOTIENT:
        return ((u, v), ((-u) % den, (-v) % den))
    return ((u, v),)


def _exact_point(chart: str, u: int, v: int, den: int) -> Point:
    """The point (u/den, v/den) of residues u, v in [0, den), with the
    quotient representative picked exactly as :func:`wrap_chart` does."""
    u, v = min(_quotient_class(chart, u, v, den))
    return Point(chart, (u / den, v / den), exact=(u, v, den))


def iterate_arr(sys: SystemModel, pts: np.ndarray, n: int) -> np.ndarray:
    """Vectorized float iterate of an (N, 2) batch.

    Used for grids where per-point exact arithmetic would dominate; the
    float error is bounded by ~|eig|^|n| ulp, negligible for the small
    |n| this path is used with.
    """
    if abs(n) > sys.horizon:
        raise HorizonError(f"|n|={abs(n)} exceeds horizon {sys.horizon}")
    pts = np.asarray(pts, dtype=float)
    if sys.kind == NORTH_SOUTH:
        colat = _north_south_colat(pts[:, 1], n)
        return np.stack([pts[:, 0], np.clip(colat, 0.0, 1.0)], axis=1)
    m = np.array(_mat_power(sys.matrix, n), dtype=float)
    return wrap_chart(sys.chart, pts @ m.T)


def distance(sys: SystemModel, a: Point, b: Point) -> float:
    if a.chart != b.chart:
        raise ChartError(f"chart mismatch: {a.chart!r} vs {b.chart!r}")
    if a.chart != sys.chart:
        raise ChartError(f"point chart {a.chart!r} does not match model chart {sys.chart!r}")
    return float(chart_distance(a.chart, a.xy(), b.xy()))


# -- local stable/unstable arcs -----------------------------------------


def _want_stable(kind: str) -> bool:
    if kind not in ("stable", "unstable"):
        raise ValueError(f"kind must be 'stable' or 'unstable', got {kind!r}")
    return kind == "stable"


def _arc_frame(sys: SystemModel, chart: str, xy: np.ndarray, stable: bool, eps: float):
    """The local arcs at scale eps of the (n, 2) points xy of ``chart``.

    Returns the unit eigen-direction e, the cover starts (n, 2) and
    lengths (n,), so that arc i is the segment start_i + s*length_i*e for
    s in [0, 1].  On the quotient sphere the arc of a spine folds onto a
    single prong with the spine as an endpoint; any other arc is centered
    on its point.
    """
    if not sys.is_hyperbolic:
        raise ModelCapabilityError("local arcs require a hyperbolic model")
    if not 0.0 < eps < sys.c:
        raise CalibrationError(f"eps must lie in (0, c={sys.c}), got {eps}")
    if chart != sys.chart:
        raise ChartError(f"point chart {chart!r} does not match model chart {sys.chart!r}")
    frame = eigen_frame(sys.matrix)
    e = frame.es if stable else frame.eu
    fold = (torus_norm(2.0 * xy) <= SPINE_TOL) & (chart == SPHERE_QUOTIENT)
    start = np.where(fold[:, None], xy, xy - eps * e)
    length = np.where(fold, eps, 2.0 * eps)
    return e, start, length


def local_arc(sys: SystemModel, x: Point, kind: str, eps: float):
    """Local stable (or unstable) arc of ``x`` at scale ``eps``.

    The arc is the connected piece of {y : d(f^n x, f^n y) <= eps for all
    forward (resp. backward) n} through x: a straight eigen-segment of
    half-length eps in the universal cover.  On the quotient sphere the
    arc of a spine folds onto a single prong with x as an endpoint.

    Returns a lifted continuum marked at the arc's ends: its straight lift,
    for downstream exact geometry, and x's lift param as its knot; its
    vertices, 64 evenly spaced lift points and x, are built when read.
    """
    from .continua import MarkedContinuum, StraightLift

    stable = _want_stable(kind)
    xy = x.xy()
    e, start, length = _arc_frame(sys, x.chart, xy[None], stable, eps)
    lift = StraightLift(start=start[0], direction=e, length=float(length[0]),
                        stable=stable, chart=sys.chart)
    knot = float((np.vecdot(xy[None] - start, e) / length)[0])
    return MarkedContinuum(chart=sys.chart, lift=lift, knot=knot)


def is_spine(sys: SystemModel, x, eps: float):
    """True when x is within SPINE_TOL of an end of its own local stable arc.

    x is a Point, or an (n, 2) array of chart coordinates for an (n,)
    boolean array.  The arc's two ends are its cover segment's, with
    local_arc's validation, without building the arc.
    """
    point = isinstance(x, Point)
    chart, xy = (x.chart, x.xy()[None]) if point else \
        (sys.chart, np.asarray(x, dtype=float).reshape(-1, 2))
    e, start, length = _arc_frame(sys, chart, xy, True, eps)
    d0, d1 = (chart_distance(chart, xy, wrap_chart(chart, end))
              for end in (start, start + length[:, None] * e))
    spine = np.minimum(d0, d1) <= SPINE_TOL
    return bool(spine[0]) if point else spine


def spine_points(sys: SystemModel) -> list[Point]:
    """The involution fixed classes of the quotient sphere."""
    if sys.kind != SPHERE_PA:
        raise ModelCapabilityError("spines exist only on the quotient sphere model")
    return [sys.point(a, b) for a, b in ((0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5))]
