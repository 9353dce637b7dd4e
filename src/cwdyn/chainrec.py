"""Chain-recurrence decomposition on grid discretizations.

Cells are grid boxes on the model's chart; an edge u -> v states that
one application of the map carries u's center to within eps plus the
target cell's metric diagonal of v's center: d(f(c_u), c_v) <= eps +
diag_v, a rule on centers alone.  It is not an outer approximation of
the point relation d(f(x), x') <= eps: for x in u and x' in v that
relation bounds d(f(c_u), c_v) only by L diag_u / 2 + eps + diag_v / 2,
with L the Lipschitz constant of f, so a pair of points can chain where
the graph has no edge: on cat-map at res 64 and eps 0.1, x = (0.53392,
0.59618) and x' = (0.59355, 0.06184) have d(f(x), x') = 0.0981, but
d(f(c_u), c_v) = 0.1272 exceeds eps + diag_v = 0.1221.

The rule is invariant, up to rounding, under translation on the flat
charts and under longitude rotation on the geographic one: a verdict
depends on the image's offset within its base cell and the cell's
offset from that base, or on the image's colatitude and its longitude
offset from the source's cell.  So each build groups like images (one
group on cat-map and sphere-pA at a power-of-two res, one per row on
north-south), decides each group's stencil once, and writes each row as
its cell's key plus the stencil's offsets, sorting flat rows that wrap
or whose quotient images come near and rotating geographic rows at the
0/1 seam.  Decisions too close to the threshold to share fall back to
one test per source.

Chain classes are strongly connected components restricted to
cycle-carrying cells, then classes whose cells sit within the edge slack
of each other are merged: two chain-recurrent points that close are
chain-equivalent at a tolerance inflated by at most one slack, and the
merge removes grid artifacts (rings of cells that recur in place but
whose sub-cell drift the grid cannot represent).

On the flat model graphs no search runs: the toral map sends cell u to
within diag/2 of the centre of pi(u) = A idx(u) + floor(A (1/2, 1/2)) mod
res, a permutation, so every cell lies on a cycle of edges, and the merge
slack joins grid neighbours.  ``chain_classes`` checks that cycle cover
and returns one class of every cell, or raises: the transitive-candidate
verdict is forced for every invertible integer matrix.

Neither verdict is certified: a missing edge can split a class, so
not-transitive is grid-scale evidence, as transitive-candidate is.  A
certified outer approximation, with a per-cell Lipschitz bound in the
threshold (Kalies, Mischaikow and VanderVorst, Found. Comput. Math.
2005), is not implemented; ROADMAP.md tracks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import models
from .models import ConfigError

# scipy is imported where a graph is built or read: importing scipy.sparse
# adds about 25 MB and 0.25 s to every process that imports this module
if TYPE_CHECKING:
    import scipy.sparse as sp


class DiscretizationError(RuntimeError):
    """The grid is too coarse for a consistent class order; refine."""


class CoverError(DiscretizationError):
    """A flat model graph fails its cycle-cover certificate."""


@dataclass
class ChainClassGraph:
    kind: str
    chart: str
    grid_resolution: int
    eps: float
    centers: np.ndarray
    cell_diag: np.ndarray
    adjacency: sp.csr_matrix
    cover: np.ndarray | None = None  # flat model graphs: pi(u) of every cell u

    @property
    def n_cells(self) -> int:
        return self.centers.shape[0]


@dataclass
class Partition:
    labels: np.ndarray
    classes: list
    n_cells: int

    @property
    def n_classes(self) -> int:
        return len(self.classes)


def _grid_centers(res: int) -> np.ndarray:
    h = 1.0 / res
    ii, jj = np.meshgrid(np.arange(res), np.arange(res), indexing="ij")
    return np.stack([(ii.ravel() + 0.5) * h, (jj.ravel() + 0.5) * h], axis=1)


def _cycle_cover(matrix, res: int) -> np.ndarray:
    """pi(u) = A idx(u) + floor(A (1/2, 1/2)) mod res of every cell u: the
    cell whose centre is off the image of u's centre by 0 or h/2 an axis."""
    ((a, b), (c, d)) = matrix
    i, j = np.divmod(np.arange(res * res), res)
    return (np.mod(a * i + b * j + (a + b) // 2, res) * res
            + np.mod(c * i + d * j + (c + d) // 2, res))


def _row_diagonals(chart: str, res: int) -> np.ndarray:
    """Metric diagonal of the cells of each colatitude row, (res,):
    geographic cells shrink toward the poles and take the longer one."""
    h = 1.0 / res
    if chart in (models.TORUS, models.SPHERE_QUOTIENT):
        return np.full(res, np.sqrt(2.0) * h)
    colat_lo = np.arange(res) * h
    c1 = np.stack([np.zeros(res), colat_lo], axis=1)
    c2 = np.stack([np.full(res, h), colat_lo + h], axis=1)
    c3 = np.stack([np.zeros(res), colat_lo + h], axis=1)
    c4 = np.stack([np.full(res, h), colat_lo], axis=1)
    return np.maximum(models.chart_distance(chart, c1, c2),
                      models.chart_distance(chart, c3, c4))


def _cell_diagonals(chart: str, res: int) -> np.ndarray:
    """Metric diagonal of every cell, cell ``i * res + j`` in row ``j``."""
    return np.tile(_row_diagonals(chart, res), res)


# Candidate (source, target) pairs an edge builder holds at once, whatever
# --res and --eps: a few 8 MB temporaries.
_CHUNK_PAIRS = 1 << 20
# Relative margin of the squared-norm pre-test around thr**2.  The squares,
# their sum or difference and hypot each round by an ulp or two, so on
# either side of this band (about 4500 ulp) hypot(x, y) <= thr is decided.
_SQ_MARGIN = 1e-12


def _distinct(keys: np.ndarray, n: int) -> np.ndarray:
    """``keys`` with each row sorted in place and its repeats replaced by
    ``n``: its distinct entries below ``n`` ascending, then ``n`` or more."""
    keys.sort(axis=1)
    keys[:, 1:][keys[:, 1:] == keys[:, :-1]] = n
    keys.sort(axis=1)
    return keys


def _window_edges(chart, res, img, offs, thr):
    """Target keys of each row's candidate cells, ``res**2`` where the cell
    is no edge of the row: the cells at ``offs`` x ``offs`` from the cell
    of its image ``img`` (and, on the quotient, of ``-img``).  Each axis
    wraps on its own, so the squared norms compare on the broadcast of the
    axes' (offsets, m) residuals: that decides every pair outside the
    ``_SQ_MARGIN`` band around thr, and ``hypot`` decides the rest."""
    h = 1.0 / res
    signs = (1.0,) if chart == models.TORUS else (1.0, -1.0)
    lo, hi = thr * thr * (1.0 - _SQ_MARGIN), thr * thr * (1.0 + _SQ_MARGIN)
    # pair arrays run (window, x-offset, y-offset, row): long inner loops
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


def _stencil_offsets(chart, res, thr):
    """Cell offsets of a flat chart's stencil and the candidate pairs of
    one source: (2r+1)**2 per window, two windows on the quotient."""
    # no lattice residual reaches 0.75 (the largest is hypot(0.5, 0.5)): a
    # larger thr makes every candidate an edge, and this stencil spans the grid
    r = int(np.ceil(min(thr, 0.75) * res)) + 1
    offs = np.arange(-r, r + 1)
    return offs, (1 if chart == models.TORUS else 2) * offs.size ** 2


# Images whose sub-cell residuals round to one multiple of thr * _GROUP_STEP
# on both axes share a stencil; _group_stencils derives the band this implies.
_GROUP_STEP = 2.0 ** -30


def _image_groups(chart, res, imgs, thr):
    """Base cells and position groups of the torus images of every source
    (``img``, and on the quotient also ``-img``; its edges are the union of
    theirs).  An image ``p``'s sub-cell residual ``p - (b + 1/2) h`` from
    its base cell ``b = floor(p / h - 1/2)`` decides, up to rounding, which
    cells around ``b`` are edges; residuals that round to one multiple of
    ``thr * _GROUP_STEP`` on both axes form a group.  Returns the base cells
    mod res (n, w, 2), the group of each image (n, w), each group's first
    residual (G, 2) and the largest coordinate magnitude of an image."""
    h = 1.0 / res
    n = imgs.shape[0]
    pts = imgs[:, None, :] if chart == models.TORUS else np.stack([imgs, -imgs], axis=1)
    base = np.floor(pts / h - 0.5)
    rho = (pts - (base + 0.5) * h).reshape(-1, 2)
    k = np.rint(rho / (thr * _GROUP_STEP)).astype(np.int64)
    k -= k.min(axis=0)
    # a flat thr is at least 1.5 diagonals, above 2h, so each axis spans
    # fewer than 2**30 steps and the joint key fits an int64
    key = k[:, 0] * (k[:, 1].max() + 1) + k[:, 1]
    if key.any():
        _, first, group = np.unique(key, return_index=True, return_inverse=True)
    else:  # one group, as on the model maps at a power-of-two res
        first, group = [0], np.zeros(key.size, dtype=np.int64)
    cells = np.mod(base, res).astype(np.int32)
    return cells, group.reshape(n, -1), rho[first], float(np.abs(pts).max())


@dataclass
class _Stencils:
    """Each image group's edges as offsets from the base cell, lexicographic:
    ``ox``, ``oy`` at ``[ptr[g], ptr[g] + count[g])``, then ``width`` zeros."""
    ptr: np.ndarray
    count: np.ndarray
    ox: np.ndarray
    oy: np.ndarray
    undecided: np.ndarray  # a candidate of the group lies inside the band
    reach: int  # largest |offset| of any entry
    width: int  # most entries of any group


def _decide(rho, oh, lo, hi):
    """Edges (groups, x-offset, y-offset) of residuals ``rho`` at offsets
    ``oh``, norms squared at most ``lo``, and whether a group has one in (lo, hi)."""
    wx, wy = rho[:, 0, None] - oh, rho[:, 1, None] - oh
    rx, ry = wx - np.round(wx), wy - np.round(wy)
    sq = (rx * rx)[:, :, None] + (ry * ry)[:, None, :]
    edge = sq <= lo
    return edge, ((sq < hi) & ~edge).any(axis=(1, 2))


def _group_stencils(res, rho, offs, thr, pmax) -> _Stencils:
    """Decide the candidates ``offs`` x ``offs`` of each group once, from
    its first residual.

    ``_window_edges`` makes a cell an edge of image p when hypot(rx, ry)
    <= thr, rx and ry the wrapped residuals of p minus the cell's centre
    (its squared-norm pre-test decides only where hypot agrees); on the
    quotient also when its other test, against the other image, passes.
    Per axis, a member's |rx| and the representative's |rho - o h| differ
    by at most d = q (1 + 2**-20) + 2**-50 (pmax + 4), q = thr *
    _GROUP_STEP: the group's residuals spread by at most q, up to the
    rounding of rho / q; each side's centre, difference and residual round
    by less than 2**-53 (pmax + 6) in all, its coordinates being below pmax
    + 3, and a float rho is off its image's exact one by less than 2**-53
    (pmax + 2); a passing cross test on the quotient has a cell of the
    other image's own window at most two periods away, and res * h is 1
    within 2**-53, so its exact residual is within 2**-52 of that cell's,
    to which its own rounding adds.  These roundings stay below 2**-53 (4
    pmax + 16), half of d's second term, and the norms then differ by at
    most sqrt(2) d.  With a = sqrt(2) d + 2**-50 thr, which also covers
    hypot's ulp, a squared norm at most (thr - a)**2 (1 - 2**-49) is an edge
    of every member and one above (thr + a)**2 (1 + 2**-49) of none, the
    factors covering the squares' rounding: a relative band of about
    2**-28.5 around thr**2 at grid scales.  A group with a candidate inside
    the band is undecided; each source with an image in it takes its
    windows one by one.
    """
    d = thr * _GROUP_STEP * (1.0 + 2.0 ** -20) + 2.0 ** -50 * (pmax + 4.0)
    a = np.sqrt(2.0) * d + 2.0 ** -50 * thr
    band = (thr - a) ** 2 * (1.0 - 2.0 ** -49), (thr + a) ** 2 * (1.0 + 2.0 ** -49)
    oh = offs * (1.0 / res)
    n_groups = rho.shape[0]
    count = np.zeros(n_groups, dtype=np.int64)
    undecided = np.zeros(n_groups, dtype=bool)
    ox, oy = [], []
    per = max(1, _CHUNK_PAIRS // offs.size ** 2)
    for g0 in range(0, n_groups, per):
        edge, undecided[g0:g0 + per] = _decide(rho[g0:g0 + per], oh, *band)
        g, i, j = np.nonzero(edge)
        count[g0:g0 + per] = np.bincount(g, minlength=edge.shape[0])
        ox.append(offs[i])
        oy.append(offs[j])
    width = int(count.max())
    ox = np.concatenate(ox + [np.zeros(width, np.int64)]).astype(np.int32)
    oy = np.concatenate(oy + [np.zeros(width, np.int64)]).astype(np.int32)
    ptr = np.concatenate([[0], np.cumsum(count)])
    reach = int(max(np.abs(ox).max(), np.abs(oy).max()))
    return _Stencils(ptr, count, ox, oy, undecided, reach, width)


@dataclass
class _RowPlan:
    """How each source's row is written.  ``cells`` and ``group`` hold its
    images, on the quotient the one with the lower base column first."""
    cells: np.ndarray  # (n, w, 2) base cells mod res
    group: np.ndarray  # (n, w)
    inner: np.ndarray  # (n, w): the image's stencil wraps on neither axis
    sort: np.ndarray  # (n,): decided, but its keys come unordered
    dedupe: np.ndarray  # (n,): sorted, and some of its keys can repeat
    undecided: np.ndarray  # (n,): an image's group is undecided


def _row_plan(res, cells, group, st: _Stencils) -> _RowPlan:
    """Sort a row where an image's stencil wraps, or the quotient's two share
    a column; dedupe it where they can share a cell or a stencil is wider
    than the grid.  Every other row is its images' stencil runs in turn."""
    r = st.reach
    if cells.shape[1] == 2:
        swap = cells[:, 1, 0] < cells[:, 0, 0]
        cells[swap] = cells[swap, ::-1]
        group[swap] = group[swap, ::-1]
    inner = ((cells >= r) & (cells < res - r)).all(axis=2)
    undecided = st.undecided[group].any(axis=1)
    direct = inner.all(axis=1)
    if 2 * r + 1 > res:
        repeats = np.ones(cells.shape[0], dtype=bool)
    elif cells.shape[1] == 2:
        direct &= cells[:, 1, 0] - cells[:, 0, 0] > 2 * r
        gap = np.abs(cells[:, 1] - cells[:, 0])
        repeats = (np.minimum(gap, res - gap) <= 2 * r).all(axis=1)
    else:
        repeats = np.zeros(cells.shape[0], dtype=bool)
    sort = ~direct & ~undecided
    return _RowPlan(cells, group, inner, sort, sort & repeats, undecided)


def _slot_keys(res, st: _Stencils, cells, group, inner, out):
    """Each row's target keys from one image, in stencil order, into the
    (m, st.width) array ``out``, res**2 past the row's stencil.  Away from
    the border a key is the base cell's plus ``ox * res + oy``, so the run
    ascends; within ``st.reach`` of it each axis wraps on its own."""
    k = np.arange(st.width)
    one = (group == group[0]).all()
    rows = group[:1] if one else group
    idx = st.ptr[rows, None] + k
    ox, oy = st.ox[idx], st.oy[idx]
    np.add((cells[:, 0] * res + cells[:, 1])[:, None], ox * res + oy, out=out)
    edge = np.flatnonzero(~inner)
    if edge.size:
        # each border row's wrapped columns and rows, 2 reach + 1 a side,
        # then gathered by the stencil's offsets: no integer mod per entry
        span = np.arange(-st.reach, st.reach + 1, dtype=np.int32)
        tx = np.mod(cells[edge, 0, None] + span, res) * res
        ty = np.mod(cells[edge, 1, None] + span, res)
        ix, iy = ox + st.reach, oy + st.reach
        if one:
            out[edge] = np.take(tx, ix[0], axis=1) + np.take(ty, iy[0], axis=1)
        else:
            out[edge] = (np.take_along_axis(tx, ix[edge], axis=1)
                         + np.take_along_axis(ty, iy[edge], axis=1))
    pad = k >= st.count[rows, None]
    if pad.any():
        np.copyto(out, res * res, where=pad)


def _fill_rows(chart, res, imgs, offs, thr, st, plan, src, out):
    """Write the rows of sources ``src`` into ``out`` (m, at least w *
    st.width): each row's targets ascending, then res**2."""
    n, w = res * res, st.width
    slots = plan.cells.shape[1]
    for s in range(slots):
        _slot_keys(res, st, plan.cells[src, s], plan.group[src, s], plan.inner[src, s],
                   out[:, s * w:(s + 1) * w])
    out[:, slots * w:] = n
    rows = np.flatnonzero(plan.sort[src])
    if rows.size:
        block = out[rows]
        block.sort(axis=1)
        dup = plan.dedupe[src[rows]]
        if dup.any():
            block[dup] = _distinct(block[dup], n)
        out[rows] = block
    rows = np.flatnonzero(plan.undecided[src])
    if rows.size:
        # at most out's width of distinct keys: the rest of a row is n
        keys = _distinct(_window_edges(chart, res, imgs[src[rows]], offs, thr), n)
        out[rows] = keys[:, :out.shape[1]]


def _edges_wrapped(chart, res, imgs, thr):
    """CSR ``indptr`` and ``indices`` of the flat (wrapping) charts, from
    one stencil per group of image positions, at the one threshold ``thr``.

    ``_group_stencils`` decides each group of residuals once, and a row is
    its images' base keys plus the stencils' offsets; a synthetic ``step``
    may put each image in its own group, which costs what one window per
    source did.  A group with a candidate too close to thr to share, and
    each row it touches, is decided by ``_window_edges`` as a whole.  Row
    counts come first (a pass over the rows that can repeat a key), then
    the rows fill one ``indices`` array, a chunk of whole sources at a
    time; ``check_grid`` refuses a grid where one source alone exceeds a
    chunk.
    """
    n = imgs.shape[0]
    offs, row_pairs = _stencil_offsets(chart, res, thr)
    step = _CHUNK_PAIRS // row_pairs
    cells, group, rho, pmax = _image_groups(chart, res, imgs, thr)
    st = _group_stencils(res, rho, offs, thr, pmax)
    plan = _row_plan(res, cells, group, st)
    width = cells.shape[1] * st.width
    counts = st.count[plan.group].sum(axis=1)
    # rows whose keys can repeat: counted on a full window's width
    rows = np.flatnonzero(plan.dedupe | plan.undecided)
    for lo in range(0, rows.size, step):
        src = rows[lo:lo + step]
        out = np.empty((src.size, row_pairs), dtype=np.int32)
        _fill_rows(chart, res, imgs, offs, thr, st, plan, src, out)
        counts[src] = np.count_nonzero(out < n, axis=1)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    indices = np.empty(int(indptr[-1]), dtype=np.int32)
    for lo in range(0, n, step):
        src = np.arange(lo, min(lo + step, n))
        dest = indices[indptr[lo]:indptr[src[-1] + 1]]
        if (counts[src] == width).all():
            _fill_rows(chart, res, imgs, offs, thr, st, plan, src, dest.reshape(src.size, width))
        else:
            out = np.empty((src.size, max(width, int(counts[src].max()))), dtype=np.int32)
            _fill_rows(chart, res, imgs, offs, thr, st, plan, src, out)
            dest[:] = out[out < n]
    return indptr, indices


def _lon_windows(lon, col, ja, nj, tcol, tmax, res, slack=1e-12):
    """Longitude cell windows of each source's band rows: (first, last),
    first in [0, res) and last possibly past res - 1 for a window that
    wraps, last < first where no cell of the row can pass the test.

    A pair at angle pi*d with d <= t has, by the haversine formula,
    sin(th1) sin(th2) sin^2(dphi/2) = hav(pi d) - hav(dth) <= sin^2(pi t'/2)
    - hav(dth), t' = min(t, 1): d never exceeds 1, and past 1 the sine falls
    again.  The bound gets ``slack``, 1e-12 for a source's own windows: the
    test's rounding moves hav by about 1e-15, and 1e-12 moves a window edge
    by at least 1e-12/pi, far above the window's own rounding.  A row the
    bound cannot narrow, as every row with t >= 1, takes all res cells.
    """
    h = 1.0 / res
    jr = np.arange(nj.max())
    tj = np.minimum(ja[:, None] + jr, res - 1)
    gap = np.abs(col[:, None] - tcol[tj])
    room = (np.sin(0.5 * np.pi * np.minimum(tmax[tj], 1.0)) ** 2 + slack
            - np.sin(0.5 * np.pi * gap) ** 2)
    prod = np.sin(np.pi * col)[:, None] * np.sin(np.pi * tcol[tj])
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = room / prod
    full = ~((prod > 0.0) & (bound < 1.0))
    half = np.arcsin(np.sqrt(np.clip(bound, 0.0, 1.0))) / np.pi
    first = np.ceil((lon[:, None] - half) / h - 0.5)
    span = np.floor((lon[:, None] + half) / h - 0.5) - first
    first[full], span[full] = 0, res
    # the chart distance's own prefilter, as in the test
    span[(jr >= nj[:, None]) | (gap > tmax[tj]) | (room < 0.0)] = -1
    first = np.mod(first, res).astype(np.int32)
    return first, first + np.minimum(span, res).astype(np.int32)


_LON_STEP = 2.0 ** -40  # the longitude offsets of one group round to one multiple
_LON_MARGIN = 1e-12 + 4.0 * _LON_STEP


def _edges_geographic(res, imgs, thr):
    """CSR ``indptr`` and ``indices`` of the geographic chart, from one
    longitude stencil per group of sources.

    A source's edges are its band rows' cells inside ``_lon_windows``
    that pass the chart distance's test.  Sources whose images share a
    colatitude and lie one multiple of ``_LON_STEP`` past their own
    columns' centres form a group, decided at its first source with windows
    of slack -m and +m, m = ``_LON_MARGIN``.  With F = hav(dth) + sin(th1)
    sin(th2) sin^2(pi dlon) - sin^2(pi t'/2), a window of slack s holds the
    cells with F <= s and the test passes F <= 0, each up to roundings
    below 1e-14.  A member's dlon to the cell k columns from its own is
    within d = _LON_STEP (1 + 2**-12) + 2**-50 of the representative's (the
    offsets' spread, and their and the centres' roundings), so F is within
    pi d, and m exceeds 1e-12 + pi d by 7e-13: a cell inside the inner
    window is inside each member's own window (slack 1e-12) and passes its
    test, one outside the outer window is inside none, and rows ruled out
    by the colatitude alone are alike.  Band cells, between the windows,
    take each member's own window and test.  Row counts come first, then
    rows fill ``indices``, whole sources of at most ``_CHUNK_PAIRS`` pairs
    a block.
    """
    h, n = 1.0 / res, res * res
    tcol, tmax = (np.arange(res) + 0.5) * h, thr.reshape(res, res).max(axis=0)
    big = float(tmax.max())
    lon, col = imgs[:, 0], imgs[:, 1]
    ja = np.clip(np.ceil((col - big - 1e-12) / h - 0.5), 0, res - 1).astype(np.int64)
    # at least 1 row: big is at least h, a cell's colatitude side
    nj = np.clip(np.floor((col + big + 1e-12) / h - 0.5), 0, res - 1).astype(np.int64) - ja + 1
    own = np.arange(n) // res
    off = np.mod(np.rint(np.mod(lon - (own + 0.5) * h, 1.0) / _LON_STEP), 2.0 ** 40)
    _, rep, group = np.unique(col + 1j * off, return_index=True, return_inverse=True)
    win = lambda s, slack=1e-12: _lon_windows(lon[s], col[s], ja[s], nj[s], tcol, tmax, res, slack)
    inside = lambda c, first, last: ((c >= first) & (c <= last)) | (c + res <= last)
    # each group's outer cells as keys k res + j, k the column offset mod res,
    # again plus n for the rotation, and whether the inner window holds each
    packed = []
    per = max(1, _CHUNK_PAIRS // (int(nj.max()) * res))
    for g0 in range(0, rep.size, per):
        r = rep[g0:g0 + per]
        fo, lo = win(r, _LON_MARGIN)
        fi, li = (w.ravel() for w in win(r, -_LON_MARGIN))
        cnt = np.clip(lo - fo + 1, 0, res).ravel()
        at = np.repeat(np.arange(cnt.size), cnt)
        ci = np.mod(np.arange(at.size) - np.repeat(np.cumsum(cnt) - cnt - fo.ravel(), cnt), res)
        g, row = np.divmod(at, fo.shape[1])
        key = (g0 + g) * 2 * n + np.mod(ci - own[r[g]], res) * res + ja[r[g]] + row
        packed.append(np.sort(np.concatenate([key, key + n]) * 2
                              + np.tile(inside(ci, fi[at], li[at]), 2)))
    packed = np.concatenate(packed)
    sure, gid = packed & 1 == 1, packed // (4 * n)
    width = np.bincount(gid, minlength=rep.size) // 2
    # where each row starts in its group's doubled run: at the first offset
    # that crosses the 0/1 seam from the source's column
    start = np.searchsorted(packed, (group * 2 * n + n - own * res) * 2)
    ext = (packed // 2 - gid * 2 * n).astype(np.int32)
    banded = np.bincount(gid, weights=~sure, minlength=rep.size)[group] > 0

    def rows(src, keys=None):
        """The rows of ``src`` into ``keys`` (or new), n where a band cell fails."""
        wd = width[group[src]]
        ends = np.cumsum(wd)
        at = np.repeat((start[src] - ends + wd).astype(np.int32), wd)
        at += np.arange(ends[-1], dtype=np.int32)
        keys = np.take(ext, at, out=keys, mode="clip")  # "raise" would buffer out
        keys += np.repeat((own[src] * res - n).astype(np.int32), wd)
        test = np.flatnonzero(~sure[at]) if banded[src].any() else []
        if len(test):
            s, tix = np.repeat(np.arange(src.size), wd)[test], keys[test]
            first, last = (w[s, tix % res - ja[src[s]]] for w in win(src))
            # models._geo_distance inline, in np.sum's order over the embedding
            es, et = models._geo_embed(imgs[src[s]]), models._geo_embed(_grid_centers(res)[tix])
            d = (es[:, 0] * et[:, 0] + es[:, 1] * et[:, 1]) + es[:, 2] * et[:, 2]
            keys[test[~(inside(tix // res, first, last)
                        & (np.arccos(np.clip(d, -1.0, 1.0)) / np.pi <= thr[tix]))]] = n
        return keys

    counts = width[group]
    band = np.flatnonzero(banded)
    for src in (band[b0:b1] for b0, b1 in _blocks(np.cumsum(counts[band]))):
        counts[src] = np.bincount(np.repeat(np.arange(src.size), counts[src])[rows(src) < n],
                                  minlength=src.size)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    indices = np.empty(int(indptr[-1]), dtype=np.int32)
    for s0, s1 in _blocks(np.cumsum(width[group])):
        dest = indices[indptr[s0]:indptr[s1]]
        keys = rows(np.arange(s0, s1), None if banded[s0:s1].any() else dest)
        if keys is not dest:
            dest[:] = keys[keys < n]
    return indptr, indices


def check_grid(chart: str, grid_resolution: int, eps: float) -> None:
    """Validate the grid resolution (the CLI's --res) and the chain step
    (--eps) of a cell-transition graph, from one cell per colatitude row."""
    if grid_resolution < 2:
        raise ConfigError(f"--res {grid_resolution} is too small: the grid needs "
                          f"at least 2 cells a side")
    if not eps > 0.0:
        raise ConfigError(f"--eps must be positive, got {eps}")
    diag = _row_diagonals(chart, grid_resolution)
    if eps < diag.max() / 2.0:
        raise ConfigError(
            f"--eps {eps} below half the largest cell diagonal {diag.max():.4g} at "
            f"--res {grid_resolution}; raise --eps or --res")
    if chart in (models.TORUS, models.SPHERE_QUOTIENT):
        # past this the graph itself holds 5e10 edges or more (200 GB of indices)
        row_pairs = _stencil_offsets(chart, grid_resolution, eps + diag[0])[1]
        if row_pairs > _CHUNK_PAIRS:
            raise ConfigError(
                f"--eps {eps} at --res {grid_resolution} gives each cell {row_pairs} "
                f"candidate targets, more than the {_CHUNK_PAIRS} an edge-build chunk "
                f"holds; lower --eps or --res")


def graph_bytes(chart: str, grid_resolution: int, eps: float) -> int:
    """Estimated bytes of the adjacency of a grid that ``check_grid``
    accepts: an int32 index and an int8 datum per candidate target, and the
    int64 row pointers.  A flat source's candidates are its stencil,
    (2r+1)**2 cells per torus image; a geographic source's, its band of
    colatitude rows times the band's widest longitude window, bounded by
    the haversine formula without its colatitude term at its own row's
    centre.  The work grows with --res alone, not with the cell count."""
    res, h = grid_resolution, 1.0 / grid_resolution
    thr = eps + _row_diagonals(chart, res)
    if chart in (models.TORUS, models.SPHERE_QUOTIENT):
        cands = res * _stencil_offsets(chart, res, thr[0])[1]
    else:
        col = (np.arange(res) + 0.5) * h
        big = float(thr.max())
        ja = np.clip(np.ceil((col - big - 1e-12) / h - 0.5), 0, res - 1).astype(np.int64)
        jb = np.clip(np.floor((col + big + 1e-12) / h - 0.5), 0, res - 1).astype(np.int64)
        # the band's cells nearest a pole have the smallest sine
        prod = np.sin(np.pi * col) * np.minimum(np.sin(np.pi * col[ja]), np.sin(np.pi * col[jb]))
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = np.sin(0.5 * np.pi * min(big, 1.0)) ** 2 / prod
        half = np.arcsin(np.sqrt(np.clip(bound, 0.0, 1.0))) / np.pi
        width = np.where((prod > 0.0) & (bound < 1.0),
                         np.minimum(2 * np.ceil(half * res) + 1, res), res)
        cands = int(((jb - ja + 1) * width).sum())
    # cands: the candidates of one longitude column of sources
    return 5 * res * cands + 8 * (res * res + 1)


def build_graph(sys, grid_resolution: int, eps: float, step=None) -> ChainClassGraph:
    """Cell-transition graph: u -> v iff f(center u) is eps+diag-close to v.

    ``step`` substitutes the one-iterate map on raw (N, 2) center arrays,
    for synthetic dynamics in tests; the default is one forward iterate.
    Requires eps at least half the largest cell diagonal, otherwise the
    grid can sever genuine chains and the decomposition is meaningless.
    """
    import scipy.sparse as sp

    chart, res = sys.chart, grid_resolution
    check_grid(chart, res, eps)
    centers = _grid_centers(res)
    diag = _cell_diagonals(chart, res)
    imgs = np.asarray(step(centers) if step is not None
                      else models.iterate_arr(sys, centers, 1), dtype=float)
    thr = eps + diag
    if chart in (models.TORUS, models.SPHERE_QUOTIENT):
        # flat cells are all alike: one threshold
        indptr, indices = _edges_wrapped(chart, res, imgs, thr[0])
    else:
        indptr, indices = _edges_geographic(res, imgs, thr)
    n = res * res
    # the data as a zero-stride view of one int8: every stored edge is a 1
    adj = sp.csr_matrix((np.broadcast_to(np.int8(1), indices.size), indices, indptr), shape=(n, n))
    adj.has_canonical_format = True  # each row sorted and free of repeats
    flat = step is None and chart != models.SPHERE_GEOGRAPHIC
    return ChainClassGraph(kind=sys.kind, chart=chart, grid_resolution=res,
                           eps=eps, centers=centers, cell_diag=diag, adjacency=adj,
                           cover=_cycle_cover(sys.matrix, res) if flat else None)


def _blocks(ends):
    """Runs ``(lo, hi)`` of items, whole items of at most ``_CHUNK_PAIRS``
    entries a run (or one item), from the items' cumulative entry counts."""
    lo = 0
    while lo < ends.size:
        done = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, done + _CHUNK_PAIRS, side="right")))
        yield lo, hi
        lo = hi


# Absolute pad of the KD-tree radius over the chart's own test: the tree's
# Euclidean and chord lengths round apart from chart_distance, whose arccos
# resolves the geographic distance to only about 1.5e-8 near 0.
_TREE_PAD = 1e-7


def _candidate_pairs(chart, pts, slack):
    """Blocks ``(a, b)`` of row pairs of ``pts`` that hold, as ``a < b`` or
    ``b < a``, every pair of rows within ``slack`` in the chart's distance,
    and more.  The flat torus is a periodic KD-tree; the quotient adds each
    point's mirror ``(-x) mod 1``, its distance being the torus distance to
    x' or to -x'; on the sphere, a distance d <= s <= 1 is a chord of at
    most 2 sin(pi s / 2).  Rows ``[lo, hi)`` query the rows from ``lo`` on,
    in blocks of at most ``_CHUNK_PAIRS`` pairs (or one row).
    """
    # imported here, not with scipy.sparse: only a merge of two classes or
    # more needs it, and it adds about 0.1 s and 8 MB
    from scipy.spatial import cKDTree

    m = pts.shape[0]
    if chart == models.SPHERE_GEOGRAPHIC:
        data, box = models._geo_embed(pts), None
        radius = 2.0 * np.sin(0.5 * np.pi * min(slack, 1.0)) + _TREE_PAD
    else:
        data, box, radius = pts, 1.0, slack + _TREE_PAD
        if chart == models.SPHERE_QUOTIENT:
            data = np.stack([pts, np.mod(-pts, 1.0)], axis=1).reshape(-1, 2)
    reps = data.shape[0] // m  # tree rows per point, a point's first its own
    counts = cKDTree(data, boxsize=box).query_ball_point(data[::reps], radius,
                                                        return_length=True)
    for lo, hi in _blocks(np.cumsum(counts)):
        rest = cKDTree(data[reps * lo:], boxsize=box)
        found = cKDTree(data[reps * lo:reps * hi:reps], boxsize=box).sparse_distance_matrix(
            rest, radius, output_type="ndarray")
        yield lo + found["i"], lo + found["j"] // reps


def _merge_close_classes(g: ChainClassGraph, lab, rec) -> np.ndarray:
    """A group id for each recurrent cell of ``rec``: the components of the
    graph on SCC labels that links two labels with a pair of their cells
    within one edge slack."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    ids, labs = np.unique(lab[rec], return_inverse=True)
    k = len(ids)
    links = [np.zeros(0, np.int64)]
    if k > 1:
        slack = g.eps + float(g.cell_diag.max())
        pts = g.centers[rec]
        if g.chart == models.SPHERE_GEOGRAPHIC:
            # embed each cell once, not once per candidate pair
            emb = models._geo_embed(pts)
            dist = lambda a, b: models._geo_distance(emb[a], emb[b])
        else:
            dist = lambda a, b: models.chart_distance(g.chart, pts[a], pts[b])
        for a, b in _candidate_pairs(g.chart, pts, slack):
            cross = (a < b) & (labs[a] != labs[b])
            a, b = a[cross], b[cross]
            near = dist(a, b) <= slack
            links.append(np.unique(labs[a[near]] * k + labs[b[near]]))
    key = np.unique(np.concatenate(links))
    pairs = sp.csr_matrix((np.ones(key.size, np.int8), (key // k, key % k)), shape=(k, k))
    return connected_components(pairs, directed=False)[1][labs]


def _has_edges(adj, src, tgt) -> np.ndarray:
    """Whether each edge ``src -> tgt`` is stored, from a bisection of each
    source's sorted row that reads no data."""
    lo, hi = adj.indptr[src], adj.indptr[src + 1]
    while (lo < hi).any():
        mid = (lo + hi) // 2
        less = adj.indices[np.minimum(mid, adj.nnz - 1)] < tgt
        lo, hi = np.where(less & (lo < hi), mid + 1, lo), np.where(less, hi, mid)
    found = lo < adj.indptr[src + 1]
    found[found] = adj.indices[lo[found]] == tgt[found]
    return found


def _check_cover(g: ChainClassGraph) -> None:
    """Raise unless ``g.cover`` is a permutation of the cells whose every
    edge ``u -> pi(u)`` is stored, and the merge slack reaches 2h."""
    n, pi, slack = g.n_cells, g.cover, g.eps + float(g.cell_diag.max())
    bad = np.flatnonzero(np.bincount(pi, minlength=n)[:n] != 1)
    if bad.size:
        raise CoverError(f"cycle cover is no permutation: cell {bad[0]} is not the "
                         f"image of exactly one cell")
    bad = np.flatnonzero(~_has_edges(g.adjacency, np.arange(n), pi))
    if bad.size:
        raise CoverError(f"cover edge {bad[0]} -> {pi[bad[0]]} is not in the graph "
                         f"({bad.size} missing)")
    if not slack >= 2.0 / g.grid_resolution:
        raise CoverError(f"merge slack {slack:.6g} is below 2h at --res "
                         f"{g.grid_resolution}: grid neighbours need not merge")


def chain_classes(g: ChainClassGraph) -> Partition:
    """Chain-recurrent cells grouped into classes, canonically labeled.

    A cell is chain-recurrent when its SCC has two or more cells or a
    self-loop.  Classes closer than one edge slack are merged (grid rings
    near slowdown zones belong to the enclosing class).  Labels follow each
    class's smallest cell index, not the node traversal order.  A graph
    with a cycle cover is one class once ``_check_cover`` passes."""
    if g.cover is not None:
        _check_cover(g)
        return Partition(np.zeros(g.n_cells, dtype=int), [np.arange(g.n_cells)], g.n_cells)
    from scipy.sparse.csgraph import connected_components

    adj = g.adjacency
    # float64 data as a zero-stride view on the stored indices: scipy's
    # validate_graph then converts nothing (astype(float64, copy=False))
    view = type(adj)((np.broadcast_to(1.0, adj.nnz), adj.indices, adj.indptr), shape=adj.shape)
    n_comp, lab = connected_components(view, directed=True, connection="strong")
    rec_mask = np.bincount(lab, minlength=n_comp)[lab] >= 2
    lone = np.flatnonzero(~rec_mask)
    rec_mask[lone] = _has_edges(adj, lone, lone)
    labels = np.full(g.n_cells, -1, dtype=int)
    classes = []
    if rec_mask.any():
        rec = np.nonzero(rec_mask)[0]
        key = _merge_close_classes(g, lab, rec)
        # a stable sort keeps each class's cells ascending: its first is its min
        by_class = np.argsort(key, kind="stable")
        key = key[by_class]
        groups = np.split(rec[by_class], np.flatnonzero(key[1:] != key[:-1]) + 1)
        for cells in sorted(groups, key=lambda c: c[0]):
            labels[cells] = len(classes)
            classes.append(cells)
    return Partition(labels=labels, classes=classes, n_cells=g.n_cells)


def _reachable(adj: sp.csr_matrix, seed: np.ndarray) -> np.ndarray:
    """Mask of the cells reachable from ``seed`` along the rows of ``adj``,
    ``seed`` included: each level gathers its frontier's rows, in blocks of
    at most ``_CHUNK_PAIRS`` entries, and its new targets are the next."""
    state = np.zeros(adj.shape[0], dtype=bool)
    state[seed] = True
    frontier = np.flatnonzero(state)
    while frontier.size:
        hit = np.zeros_like(state)
        for lo, hi in _blocks(np.cumsum(adj.indptr[frontier + 1] - adj.indptr[frontier])):
            hit[adj[frontier[lo:hi]].indices] = True
        hit &= ~state
        state |= hit
        frontier = np.flatnonzero(hit)
    return state


def _assert_acyclic(order: list, n_classes: int) -> None:
    """Raise when the order has a cycle: a strong component of two or
    more classes, since no class is ordered against itself."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    i, j = np.array(order, dtype=int).reshape(-1, 2).T
    rel = sp.csr_matrix((np.ones(len(i)), (i, j)), shape=(n_classes, n_classes))
    n_comp, lab = connected_components(rel, directed=True, connection="strong")
    on_cycle = np.flatnonzero(np.bincount(lab, minlength=n_comp)[lab] >= 2)
    if on_cycle.size:
        raise DiscretizationError(
            f"cyclic class order among classes {on_cycle.tolist()}; the grid "
            f"is too coarse, refine the resolution and retry")


def class_order(sys, g: ChainClassGraph, partition: Partition) -> dict:
    """Strict order on classes plus attractor/repeller roles.

    C_i < C_j when some cell outside both classes is forward-reachable from
    C_i and backward-reachable from C_j (a connecting chain off both).
    Maximal-only classes are attractors, minimal-only ones repellers; a
    class that is both (no relations, as a lone class) reports neither."""
    k = partition.n_classes
    order = []
    if k > 1:  # a lone class relates to nothing: skip its reachability
        # contiguous data: scipy copies zero-stride data whole on every row slice
        adj = g.adjacency
        adj = type(adj)((np.ones(adj.nnz, np.int8), adj.indices, adj.indptr), shape=adj.shape)
        fwd = [_reachable(adj, c) for c in partition.classes]
        adj_t = adj.T.tocsr()
        del adj
        bwd = [_reachable(adj_t, c) for c in partition.classes]
        for i, j in ((i, j) for i in range(k) for j in range(k) if i != j):
            mid = fwd[i] & bwd[j]
            mid[partition.classes[i]] = False
            mid[partition.classes[j]] = False
            if mid.any():
                order.append((i, j))
    _assert_acyclic(order, k)
    below = {i for i, _ in order}
    above = {j for _, j in order}
    attractors, repellers = above - below, below - above
    roles = {i: "attractor" if i in attractors else "repeller" if i in repellers
             else "neither" for i in range(k)}
    return {"order": order, "roles": roles}


def transitivity_verdict(partition: Partition) -> str:
    """transitive-candidate only when one class covers every cell."""
    if partition.n_classes == 1 and partition.classes[0].size == partition.n_cells:
        return "transitive-candidate"
    return "not-transitive"


def to_record(g: ChainClassGraph, partition: Partition, order_roles: dict,
              verdict: str) -> dict:
    return {
        "model": g.kind,
        "grid_resolution": g.grid_resolution,
        "eps": g.eps,
        "n_cells": g.n_cells,
        "n_edges": int(g.adjacency.nnz),
        "classes": [c.tolist() for c in partition.classes],
        "order": [list(p) for p in order_roles["order"]],
        "roles": {str(k): v for k, v in order_roles["roles"].items()},
        "verdict": verdict,
    }
