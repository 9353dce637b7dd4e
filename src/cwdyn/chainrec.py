"""Chain-recurrence decomposition on grid discretizations.

Cells are grid boxes on the model's chart; an edge u -> v states that
one application of the map carries u's center to within eps plus the
target cell's metric diagonal of v's center, an over-approximation of
the point relation d(f(x), x') <= eps.  Chain classes are strongly
connected components restricted to cycle-carrying cells, then classes
whose cells sit within the edge slack of each other are merged: two
chain-recurrent points that close are chain-equivalent at a tolerance
inflated by at most one slack, and the merge removes grid artifacts
(rings of cells that recur in place but whose sub-cell drift the grid
cannot represent).  Verdicts are one-sided: not-transitive is
certified at grid scale, transitive-candidate is evidence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from . import models
from .models import ConfigError


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
    scc_labels: np.ndarray | None = None
    classes: list | None = None
    order: list | None = None
    roles: dict | None = None

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
    return np.maximum(models.chart_distance_arr(chart, c1, c2),
                      models.chart_distance_arr(chart, c3, c4))


def _edges_wrapped(chart, res, imgs, thr):
    """Candidate windows in index space for the flat (wrapping) charts."""
    h = 1.0 / res
    n = imgs.shape[0]
    r = int(np.ceil(thr.max() * res)) + 1
    offs = np.stack(np.meshgrid(np.arange(-r, r + 1), np.arange(-r, r + 1),
                                indexing="ij"), axis=-1).reshape(-1, 2)
    signs = (1.0,) if chart == models.TORUS else (1.0, -1.0)
    rows, cols = [], []
    for lo in range(0, n, 4096):
        hi = min(lo + 4096, n)
        img = imgs[lo:hi]
        for sgn in signs:
            tgt = sgn * img
            base = np.floor(tgt / h - 0.5).astype(int)
            cand = base[:, None, :] + offs[None, :, :]
            tc = (cand + 0.5) * h
            d = models.chart_distance_arr(chart, img[:, None, :], tc)
            ci = np.mod(cand[..., 0], res)
            cj = np.mod(cand[..., 1], res)
            tix = ci * res + cj
            m = d <= thr[tix]
            rows.append(np.broadcast_to(np.arange(lo, hi)[:, None], m.shape)[m])
            cols.append(tix[m])
    return np.concatenate(rows), np.concatenate(cols)


def _edges_geographic(chart, res, imgs, thr):
    """Band over target colatitude rows; lon windows vary too much."""
    h = 1.0 / res
    rows, cols = [], []
    col_idx = np.arange(res)
    for tj in range(res):
        tcol = (tj + 0.5) * h
        tidx = col_idx * res + tj
        t = thr[tidx]
        src = np.nonzero(np.abs(imgs[:, 1] - tcol) <= t.max())[0]
        if src.size == 0:
            continue
        tc = np.stack([(col_idx + 0.5) * h, np.full(res, tcol)], axis=1)
        d = models.chart_distance_arr(chart, imgs[src][:, None, :], tc[None, :, :])
        r, c = np.nonzero(d <= t[None, :])
        rows.append(src[r])
        cols.append(tidx[c])
    return np.concatenate(rows), np.concatenate(cols)


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
    return diag


def build_graph(sys, grid_resolution: int, eps: float, step=None) -> ChainClassGraph:
    """Cell-transition graph: u -> v iff f(center u) is eps+diag-close to v.

    ``step`` substitutes the one-iterate map on raw (N, 2) center arrays,
    for synthetic dynamics in tests; the default is one forward iterate.
    Requires eps at least half the largest cell diagonal, otherwise the
    grid can sever genuine chains and the decomposition is meaningless.
    """
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
        r, c = _edges_wrapped(chart, res, imgs, thr)
    else:
        r, c = _edges_geographic(chart, res, imgs, thr)
    n = res * res
    adj = sp.csr_matrix((np.ones(len(r), np.int8), (r, c)), shape=(n, n))
    adj.data = np.ones_like(adj.data)
    return ChainClassGraph(kind=sys.kind, chart=chart, grid_resolution=res,
                           eps=eps, centers=centers, cell_diag=diag,
                           adjacency=adj)


class _Union:
    def __init__(self, ids):
        self.parent = {int(i): int(i) for i in ids}

    def find(self, a):
        p = self.parent
        while p[a] != a:
            p[a] = p[p[a]]
            a = p[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def _merge_close_classes(g: ChainClassGraph, lab, rec_mask):
    """Union recurrent classes whose cells sit within one edge slack."""
    rec = np.nonzero(rec_mask)[0]
    ids = np.unique(lab[rec])
    uf = _Union(ids)
    if len(ids) > 1:
        slack = g.eps + float(g.cell_diag.max())
        pts = g.centers[rec]
        labs = lab[rec]
        for lo in range(0, len(rec), 2048):
            hi = min(lo + 2048, len(rec))
            d = models.chart_distance_arr(g.chart, pts[lo:hi, None, :],
                                          pts[None, :, :])
            a, b = np.nonzero((d <= slack) & (labs[lo:hi, None] != labs[None, :]))
            for pair in set(zip(labs[lo + a].tolist(), labs[b].tolist())):
                uf.union(*pair)
    return {int(i): uf.find(int(i)) for i in ids}


def chain_classes(g: ChainClassGraph) -> Partition:
    """Chain-recurrent cells grouped into classes, canonically labeled.

    A cell is chain-recurrent when its SCC has two or more cells or a
    self-loop.  Classes closer than one edge slack are merged (grid
    rings near slowdown zones belong to the enclosing class).  Labels
    are assigned by each class's smallest cell index, so they do not
    depend on node traversal order.
    """
    n_comp, lab = connected_components(g.adjacency, directed=True,
                                       connection="strong")
    sizes = np.bincount(lab, minlength=n_comp)
    selfloop = g.adjacency.diagonal().astype(bool)
    rec_mask = (sizes[lab] >= 2) | selfloop
    labels = np.full(g.n_cells, -1, dtype=int)
    classes = []
    if rec_mask.any():
        remap = _merge_close_classes(g, lab, rec_mask)
        groups = {}
        for i in np.nonzero(rec_mask)[0]:
            groups.setdefault(remap[int(lab[i])], []).append(int(i))
        for cells in sorted(groups.values(), key=min):
            arr = np.array(sorted(cells), dtype=int)
            labels[arr] = len(classes)
            classes.append(arr)
    g.scc_labels = labels
    g.classes = classes
    return Partition(labels=labels, classes=classes, n_cells=g.n_cells)


def _reachable(adj: sp.csr_matrix, seed: np.ndarray) -> np.ndarray:
    state = np.zeros(adj.shape[0], dtype=bool)
    state[seed] = True
    frontier = state.copy()
    while frontier.any():
        nxt = (adj.T @ frontier.astype(np.int32)).astype(bool) & ~state
        state |= nxt
        frontier = nxt
    return state


def _assert_acyclic(order: list, n_classes: int) -> None:
    adj = {i: [] for i in range(n_classes)}
    for i, j in order:
        adj[i].append(j)
    state = {}
    for start in range(n_classes):
        stack = [(start, iter(adj[start]))]
        if state.get(start):
            continue
        state[start] = 1
        while stack:
            node, it = stack[-1]
            for nxt in it:
                if state.get(nxt) == 1:
                    raise DiscretizationError(
                        f"cyclic class order {nxt} <-> {node}; the grid is "
                        f"too coarse, refine the resolution and retry")
                if nxt not in state:
                    state[nxt] = 1
                    stack.append((nxt, iter(adj[nxt])))
                    break
            else:
                state[node] = 2
                stack.pop()


def class_order(sys, g: ChainClassGraph, partition: Partition) -> dict:
    """Strict order on classes plus attractor/repeller roles.

    C_i < C_j when some cell outside both classes is forward-reachable
    from C_i and backward-reachable from C_j (a connecting chain off
    both).  Maximal-only classes are attractors, minimal-only classes
    repellers; a class that is both (no relations at all, including a
    lone class) reports neither.
    """
    k = partition.n_classes
    fwd = [_reachable(g.adjacency, c) for c in partition.classes]
    bwd = [_reachable(g.adjacency.T.tocsr(), c) for c in partition.classes]
    order = []
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
    roles = {}
    for i in range(k):
        maximal = i not in below
        minimal = i not in above
        if maximal and not minimal:
            roles[i] = "attractor"
        elif minimal and not maximal:
            roles[i] = "repeller"
        else:
            roles[i] = "neither"
    g.order = order
    g.roles = roles
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
