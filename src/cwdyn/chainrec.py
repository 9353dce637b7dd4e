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

Chain classes are strongly connected components restricted to
cycle-carrying cells, then classes whose cells sit within the edge slack
of each other are merged: two chain-recurrent points that close are
chain-equivalent at a tolerance inflated by at most one slack, and the
merge removes grid artifacts (rings of cells that recur in place but
whose sub-cell drift the grid cannot represent).

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


@dataclass
class ChainClassGraph:
    kind: str
    chart: str
    grid_resolution: int
    eps: float
    centers: np.ndarray
    cell_diag: np.ndarray
    adjacency: sp.csr_matrix

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


def _cell_diagonals(chart: str, res: int) -> np.ndarray:
    h = 1.0 / res
    n = res * res
    if chart in (models.TORUS, models.SPHERE_QUOTIENT):
        return np.full(n, np.sqrt(2.0) * h)
    # geographic cells shrink toward the poles; take the longer diagonal
    colat_lo = np.tile(np.arange(res) * h, res)
    c1 = np.stack([np.zeros(n), colat_lo], axis=1)
    c2 = np.stack([np.full(n, h), colat_lo + h], axis=1)
    c3 = np.stack([np.zeros(n), colat_lo + h], axis=1)
    c4 = np.stack([np.full(n, h), colat_lo], axis=1)
    return np.maximum(models.chart_distance(chart, c1, c2),
                      models.chart_distance(chart, c3, c4))


# Candidate (source, target) pairs an edge builder holds at once, whatever
# --res and --eps: a few 8 MB temporaries.
_CHUNK_PAIRS = 1 << 20
# Relative margin of the squared-norm pre-test around thr**2.  The squares,
# their sum or difference and hypot each round by an ulp or two, so on
# either side of this band (about 4500 ulp) hypot(x, y) <= thr is decided.
_SQ_MARGIN = 1e-12


def _row_sets(keys: np.ndarray, n: int):
    """Sorted distinct entries below ``n`` of each row of ``keys``.

    ``n`` marks a non-edge.  Sorts ``keys`` in place; returns the per-row
    counts and the entries in row order.
    """
    keys.sort(axis=1)
    keep = keys < n
    keep[:, 1:] &= keys[:, 1:] != keys[:, :-1]
    return keep.sum(axis=1), keys[keep]


def _window_edges(chart, res, img, offs, thr):
    """Target keys of each row's candidate cells, ``res**2`` where the cell
    is no edge of the row: the cells at ``offs`` x ``offs`` from the
    cell of its image ``img`` (and, on the quotient, of ``-img``).

    Both coordinates wrap on their own, so the lattice residuals of each
    axis are an (offsets, m) array, and the squared norms compare on
    their broadcast.  That decides every pair outside the ``_SQ_MARGIN``
    band around thr; ``hypot``, the chart distance, decides the rest.
    """
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


def _edges_wrapped(chart, res, imgs, thr):
    """CSR rows of the flat (wrapping) charts, one stencil pass per chunk.

    ``thr`` is the one threshold of a flat grid.  A source's candidates
    are the (2r+1)**2 cells around its image (and, on the quotient,
    around minus its image), each tested against both quotient
    representatives; repeats, from overlapping windows or a stencil wider
    than the grid, are edges when any of their tests passes.  A chunk
    holds whole sources; ``check_grid`` refuses a grid where one source
    alone exceeds it.
    """
    n = imgs.shape[0]
    offs, row_pairs = _stencil_offsets(chart, res, thr)
    step = _CHUNK_PAIRS // row_pairs
    counts, indices = [], []
    for lo in range(0, n, step):
        c, k = _row_sets(_window_edges(chart, res, imgs[lo:lo + step], offs, thr), n)
        counts.append(c)
        indices.append(k)
    return np.concatenate(counts), np.concatenate(indices)


def _lon_windows(lon, col, ja, nj, tcol, tmax, res):
    """Longitude cell windows of each source's band rows: (first, last),
    first in [0, res) and last possibly past res - 1 for a window that
    wraps, last < first where no cell of the row can pass the test.

    A pair at angle pi*d with d <= t has, by the haversine formula,
    sin(th1) sin(th2) sin^2(dphi/2) = hav(pi d) - hav(dth) <= sin^2(pi t'/2)
    - hav(dth), with t' = min(t, 1): d never exceeds 1, and past 1 the sine
    falls again.  The bound gets 1e-12 of slack: the test's rounding moves
    hav by about 1e-15, and the slack moves a window edge by at least
    1e-12/pi, far above the rounding of the window and index arithmetic.
    A row the bound cannot narrow takes all res cells; so does every row
    with t >= 1, since sin(th1) sin(th2) <= cos^2(dth/2) = 1 - hav(dth).
    """
    h = 1.0 / res
    jr = np.arange(nj.max())
    tj = np.minimum(ja[:, None] + jr, res - 1)
    gap = np.abs(col[:, None] - tcol[tj])
    room = (np.sin(0.5 * np.pi * np.minimum(tmax[tj], 1.0)) ** 2 + 1e-12
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


def _edges_geographic(res, imgs, thr):
    """CSR rows of the geographic chart from per-source windows.

    A source's candidates are a band of target colatitude rows, those
    within the largest row threshold of its image, each cut to the
    longitude window of ``_lon_windows``.  The windows of one source
    share its longitude as centre, so they nest in the widest one, and
    candidates run over that window's cells in index order, each over its
    rows: in target order, so each chunk's edges append to the CSR as
    they are.  The prefilter and the test are the chart distance's,
    unchanged.
    """
    h = 1.0 / res
    n = imgs.shape[0]
    tcol = (np.arange(res) + 0.5) * h
    tmax = thr.reshape(res, res).max(axis=0)
    big = float(tmax.max())
    lon, col = imgs[:, 0], imgs[:, 1]
    ja = np.clip(np.ceil((col - big - 1e-12) / h - 0.5), 0, res - 1).astype(np.int64)
    jb = np.clip(np.floor((col + big + 1e-12) / h - 0.5), 0, res - 1).astype(np.int64)
    nj = jb - ja + 1  # at least 1: big is at least h, a cell's colatitude side
    block = max(1, _CHUNK_PAIRS // int(nj.max()))
    # the widest window of each source: its first cell and its length
    a = np.zeros(n, dtype=np.int64)
    nl = np.zeros(n, dtype=np.int64)
    for s0 in range(0, n, block):
        sl = slice(s0, s0 + block)
        first, last = _lon_windows(lon[sl], col[sl], ja[sl], nj[sl], tcol, tmax, res)
        widest = np.argmax(last - first, axis=1)[:, None]
        a[sl] = np.take_along_axis(first, widest, axis=1)[:, 0]
        nl[sl] = np.minimum(np.take_along_axis(last - first, widest, axis=1)[:, 0] + 1, res)
    # a window that wraps lists its cells from index 0 on: rotate it there
    rot = np.mod(-a, res)
    rot[rot >= nl] = 0
    ends = np.cumsum(nl)
    e_src = models._geo_embed(imgs)
    ex, ey, ez = models._geo_embed(_grid_centers(res)).T
    counts = np.zeros(n, dtype=np.int64)
    indices = [np.zeros(0, np.int32)]
    for k0 in range(0, int(ends[-1]), block):
        k1 = min(k0 + block, int(ends[-1]))
        s0 = int(np.searchsorted(ends, k0, side="right"))
        s1 = int(np.searchsorted(ends, k1 - 1, side="right")) + 1
        taken = np.minimum(ends[s0:s1], k1) - np.maximum(ends[s0:s1] - nl[s0:s1], k0)
        s = np.repeat(np.arange(s0, s1), taken)
        li = np.arange(k0, k1) - (ends[s] - nl[s])
        ci = np.mod(a[s] + np.mod(li + rot[s], nl[s]), res).astype(np.int32)[:, None]
        sl = slice(s0, s1)
        first, last = (np.repeat(w, taken, axis=0) for w in
                       _lon_windows(lon[sl], col[sl], ja[sl], nj[sl], tcol, tmax, res))
        p, jj = np.nonzero(((ci >= first) & (ci <= last)) | (ci + res <= last))
        s = s[p]
        tix = ci[p, 0] * res + (ja[s] + jj)
        # models._geo_distance inline, in np.sum's order over the embedding
        # axis: its (N, 3) gathers made build_graph 50% slower at
        # north-south 256 (measured)
        d = (e_src[s, 0] * ex[tix] + e_src[s, 1] * ey[tix]) + e_src[s, 2] * ez[tix]
        ok = np.arccos(np.clip(d, -1.0, 1.0)) / np.pi <= thr[tix]
        counts[s0:s1] += np.bincount(s[ok] - s0, minlength=s1 - s0)
        indices.append(tix[ok].astype(np.int32))
    return counts, np.concatenate(indices)


def check_grid(chart: str, grid_resolution: int, eps: float) -> np.ndarray:
    """Validate the grid resolution (the CLI's --res) and the chain step
    (--eps) of a cell-transition graph; returns the cell diagonals."""
    if grid_resolution < 2:
        raise ConfigError(f"--res {grid_resolution} is too small: the grid needs "
                          f"at least 2 cells a side")
    if not eps > 0.0:
        raise ConfigError(f"--eps must be positive, got {eps}")
    diag = _cell_diagonals(chart, grid_resolution)
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
    return diag


def build_graph(sys, grid_resolution: int, eps: float, step=None) -> ChainClassGraph:
    """Cell-transition graph: u -> v iff f(center u) is eps+diag-close to v.

    ``step`` substitutes the one-iterate map on raw (N, 2) center arrays,
    for synthetic dynamics in tests; the default is one forward iterate.
    Requires eps at least half the largest cell diagonal, otherwise the
    grid can sever genuine chains and the decomposition is meaningless.
    """
    import scipy.sparse as sp

    chart = sys.chart
    res = grid_resolution
    # centres before the diagonals' temporaries: the other order peaks
    # 6 MB higher at res 256 (measured, grid-scan)
    centers = _grid_centers(res)
    diag = check_grid(chart, res, eps)
    imgs = np.asarray(step(centers) if step is not None
                      else models.iterate_arr(sys, centers, 1), dtype=float)
    thr = eps + diag
    if chart in (models.TORUS, models.SPHERE_QUOTIENT):
        # flat cells are all alike: one threshold
        counts, indices = _edges_wrapped(chart, res, imgs, thr[0])
    else:
        counts, indices = _edges_geographic(res, imgs, thr)
    n = res * res
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    adj = sp.csr_matrix((np.ones(indices.size, np.int8), indices, indptr), shape=(n, n))
    adj.has_canonical_format = True  # each row sorted and free of repeats
    return ChainClassGraph(kind=sys.kind, chart=chart, grid_resolution=res,
                           eps=eps, centers=centers, cell_diag=diag,
                           adjacency=adj)


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
    ``b < a``, every pair of rows within ``slack`` of each other in the
    chart's distance, and more.

    The flat torus is a periodic KD-tree; the quotient adds each point's
    mirror ``(-x) mod 1``, its distance being the torus distance to x' or
    to -x'; on the sphere, a distance d <= s <= 1 is a chord of at most
    2 sin(pi s / 2).  Rows ``[lo, hi)`` query the rows from ``lo`` on, in
    blocks of at most ``_CHUNK_PAIRS`` pairs (or one row).
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
    """Group the recurrent classes whose cells sit within one edge slack.

    ``rec`` lists the recurrent cells; returns a group id for each.  The
    groups are the components of the graph on SCC labels that links two
    labels with a pair of their cells within the slack.
    """
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


def chain_classes(g: ChainClassGraph) -> Partition:
    """Chain-recurrent cells grouped into classes, canonically labeled.

    A cell is chain-recurrent when its SCC has two or more cells or a
    self-loop.  Classes closer than one edge slack are merged (grid
    rings near slowdown zones belong to the enclosing class).  Labels
    are assigned by each class's smallest cell index, so they do not
    depend on node traversal order.
    """
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    adj = g.adjacency
    # float64 data as a zero-stride view on the stored indices: scipy's
    # validate_graph then converts nothing (astype(float64, copy=False))
    view = sp.csr_matrix((np.broadcast_to(1.0, adj.nnz), adj.indices, adj.indptr),
                         shape=adj.shape)
    n_comp, lab = connected_components(view, directed=True, connection="strong")
    sizes = np.bincount(lab, minlength=n_comp)
    selfloop = adj.diagonal().astype(bool)
    rec_mask = (sizes[lab] >= 2) | selfloop
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
    ``seed`` included.

    Each level gathers only its frontier's rows, in blocks of at most
    ``_CHUNK_PAIRS`` entries, and marks their targets in a mask; the
    targets not reached before are the next frontier.
    """
    indptr = adj.indptr
    state = np.zeros(adj.shape[0], dtype=bool)
    state[seed] = True
    frontier = np.flatnonzero(state)
    while frontier.size:
        hit = np.zeros_like(state)
        for lo, hi in _blocks(np.cumsum(indptr[frontier + 1] - indptr[frontier])):
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

    C_i < C_j when some cell outside both classes is forward-reachable
    from C_i and backward-reachable from C_j (a connecting chain off
    both).  Maximal-only classes are attractors, minimal-only classes
    repellers; a class that is both (no relations at all, including a
    lone class) reports neither.
    """
    k = partition.n_classes
    order = []
    if k > 1:  # a lone class relates to nothing: skip its reachability
        fwd = [_reachable(g.adjacency, c) for c in partition.classes]
        adj_t = g.adjacency.T.tocsr()
        bwd = [_reachable(adj_t, c) for c in partition.classes]
        for i in range(k):
            for j in range(k):
                if i == j:
                    continue
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
