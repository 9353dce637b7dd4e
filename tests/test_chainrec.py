import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

import _reference
from cwdyn import chainrec, models
from cwdyn.chainrec import (
    ChainClassGraph, ConfigError, DiscretizationError, build_graph,
    chain_classes, class_order, to_record,
    transitivity_verdict,
)
from cwdyn.models import make_model


@pytest.fixture(scope="module")
def cat():
    return make_model("cat-map")


@pytest.fixture(scope="module")
def pa():
    return make_model("sphere-pA")


@pytest.fixture(scope="module")
def ns():
    return make_model("north-south")


@pytest.fixture(scope="module")
def ns_graph(ns):
    g = build_graph(ns, 128, 0.01)
    part = chain_classes(g)
    orr = class_order(ns, g, part)
    return g, part, orr


class TestBuildGraph:
    def test_edge_rule_spot_check(self, cat):
        g = build_graph(cat, 32, 0.08)
        imgs = models.iterate_arr(cat, g.centers, 1)
        adj = g.adjacency.tocoo()
        rng = np.random.default_rng(2)
        take = rng.integers(0, adj.nnz, size=200)
        d = models.chart_distance(
            cat.chart, imgs[adj.row[take]], g.centers[adj.col[take]])
        assert np.all(d <= 0.08 + g.cell_diag[adj.col[take]] + 1e-12)
        # random non-edges must violate the same inequality
        dense = g.adjacency.toarray()
        miss = 0
        while miss < 200:
            u = int(rng.integers(0, g.n_cells))
            v = int(rng.integers(0, g.n_cells))
            if dense[u, v]:
                continue
            dd = models.chart_distance(cat.chart, imgs[u], g.centers[v])
            assert dd > 0.08 + g.cell_diag[v]
            miss += 1

    def test_identity_step_self_loops(self, cat):
        g = build_graph(cat, 16, 0.1, step=lambda pts: pts)
        assert bool(g.adjacency.diagonal().all())
        part = chain_classes(g)
        # no dynamics: every cell recurrent, classes are eps-connected blobs
        assert (part.labels >= 0).all()
        assert part.n_classes == 1

    def test_config_errors(self, ns, cat):
        with pytest.raises(ConfigError):
            build_graph(ns, 64, 0.005)
        with pytest.raises(ConfigError):
            build_graph(cat, 1, 0.1)
        with pytest.raises(ConfigError):
            build_graph(cat, 64, 0.0)


class TestChainClasses:
    def test_cat_single_class(self, cat):
        for res, eps in ((64, 0.1), (128, 0.05)):
            g = build_graph(cat, res, eps)
            part = chain_classes(g)
            assert part.n_classes == 1
            assert part.classes[0].size == g.n_cells
            assert transitivity_verdict(part) == "transitive-candidate"

    def test_quotient_single_class(self, pa):
        g = build_graph(pa, 128, 0.05)
        part = chain_classes(g)
        assert part.n_classes == 1
        assert transitivity_verdict(part) == "transitive-candidate"

    def test_north_south_two_poles(self, ns_graph):
        g, part, orr = ns_graph
        assert part.n_classes == 2
        assert transitivity_verdict(part) == "not-transitive"
        north = g.centers[part.classes[0]][:, 1]
        south = g.centers[part.classes[1]][:, 1]
        assert north.max() < 0.05
        assert south.min() > 0.95

    def test_labels_deterministic(self, ns):
        g1 = build_graph(ns, 96, 0.012)
        g2 = build_graph(ns, 96, 0.012)
        p1, p2 = chain_classes(g1), chain_classes(g2)
        assert np.array_equal(p1.labels, p2.labels)

    def test_refinement_stabilizes(self, ns, cat):
        counts = []
        for res in (128, 192, 256):
            part = chain_classes(build_graph(ns, res, 0.01))
            counts.append(part.n_classes)
        assert counts == [2, 2, 2]
        assert chain_classes(build_graph(cat, 64, 0.1)).n_classes == 1

    def test_invariance_within_slack(self, ns_graph):
        g, part, _ = ns_graph
        slack = g.eps + g.cell_diag.max()
        imgs = models.iterate_arr(
            make_model("north-south"), g.centers, 1)
        for cells in part.classes:
            d = models.chart_distance(
                g.chart, imgs[cells][:, None, :], g.centers[cells][None, :, :])
            assert d.min(axis=1).max() <= slack


def _synthetic_graph():
    # two attracting 2-cycles fed by one repelling 2-cycle, on an 8x8 torus grid
    res = 8
    edges = [(9, 10), (10, 9), (36, 37), (37, 36), (49, 50), (50, 49),
             (9, 27), (27, 36), (10, 57), (57, 49)]
    r, c = zip(*edges)
    adj = sp.csr_matrix((np.ones(len(edges), np.int8), (r, c)), shape=(64, 64))
    return ChainClassGraph(kind="synthetic", chart=models.TORUS,
                           grid_resolution=res, eps=0.05,
                           centers=chainrec._grid_centers(res),
                           cell_diag=chainrec._cell_diagonals(models.TORUS, res),
                           adjacency=adj)


class TestClassOrder:
    def test_north_south_roles(self, ns_graph):
        g, part, orr = ns_graph
        assert orr["order"] == [(0, 1)]
        assert orr["roles"] == {0: "repeller", 1: "attractor"}

    def test_repeller_below_two_incomparable_attractors(self):
        g = _synthetic_graph()
        part = chain_classes(g)
        assert part.n_classes == 3
        orr = class_order(None, g, part)
        assert sorted(orr["order"]) == [(0, 1), (0, 2)]
        assert orr["roles"] == {0: "repeller", 1: "attractor", 2: "attractor"}

    def test_single_class_vacuous(self, cat):
        g = build_graph(cat, 64, 0.1)
        part = chain_classes(g)
        orr = class_order(cat, g, part)
        assert orr["order"] == []
        assert orr["roles"] == {0: "neither"}

    def test_forged_cycle_detected(self):
        # a 3-cycle and a separate pair: the message names the cycle's classes
        with pytest.raises(DiscretizationError, match=r"classes \[1, 2, 4\];"):
            chainrec._assert_acyclic([(1, 2), (2, 4), (4, 1), (0, 3)], 5)

    def test_attractor_forward_invariant(self, ns, ns_graph):
        # maximal class: forward orbits of its cells stay near it
        g, part, orr = ns_graph
        att = [i for i, r in orr["roles"].items() if r == "attractor"][0]
        cells = part.classes[att]
        pts = g.centers[cells]
        fwd = models.iterate_arr(ns, pts, 5)
        d = models.chart_distance(g.chart, fwd[:, None, :], pts[None, :, :])
        assert d.min(axis=1).max() <= g.eps + g.cell_diag.max()
        # minimal class: backward orbits of its cells stay near it
        rep = [i for i, r in orr["roles"].items() if r == "repeller"][0]
        rpts = g.centers[part.classes[rep]]
        bwd = models.iterate_arr(ns, rpts, -5)
        d = models.chart_distance(g.chart, bwd[:, None, :], rpts[None, :, :])
        assert d.min(axis=1).max() <= g.eps + g.cell_diag.max()


class TestRecord:
    def test_schema(self, ns_graph):
        g, part, orr = ns_graph
        rec = to_record(g, part, orr, transitivity_verdict(part))
        assert rec["verdict"] == "not-transitive"
        assert rec["order"] == [[0, 1]]
        assert rec["roles"] == {"0": "repeller", "1": "attractor"}
        assert len(rec["classes"]) == 2
        assert rec["n_edges"] == g.adjacency.nnz


# -- reference: the COO edge builders that the CSR passes replaced ----------


def _ref_edges_wrapped(chart, res, imgs, thr):
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
            d = models.chart_distance(chart, img[:, None, :], tc)
            ci = np.mod(cand[..., 0], res)
            cj = np.mod(cand[..., 1], res)
            tix = ci * res + cj
            m = d <= thr[tix]
            rows.append(np.broadcast_to(np.arange(lo, hi)[:, None], m.shape)[m])
            cols.append(tix[m])
    return np.concatenate(rows), np.concatenate(cols)


def _ref_edges_geographic(chart, res, imgs, thr):
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
        d = models.chart_distance(chart, imgs[src][:, None, :], tc[None, :, :])
        r, c = np.nonzero(d <= t[None, :])
        rows.append(src[r])
        cols.append(tidx[c])
    return np.concatenate(rows), np.concatenate(cols)


def _ref_adjacency(sys, res, eps, step=None):
    centers = chainrec._grid_centers(res)
    diag = chainrec._cell_diagonals(sys.chart, res)
    imgs = np.asarray(step(centers) if step is not None
                      else models.iterate_arr(sys, centers, 1), dtype=float)
    thr = eps + diag
    if sys.chart in (models.TORUS, models.SPHERE_QUOTIENT):
        r, c = _ref_edges_wrapped(sys.chart, res, imgs, thr)
    else:
        r, c = _ref_edges_geographic(sys.chart, res, imgs, thr)
    n = res * res
    adj = sp.csr_matrix((np.ones(len(r), np.int8), (r, c)), shape=(n, n))
    adj.data = np.ones_like(adj.data)
    return adj


def _assert_same_csr(got, want):
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    assert got.shape == want.shape


def _toward_spines(pts):
    # every image within a cell or two of a half-lattice point (a quotient
    # spine), where the +img and -img windows overlap
    return 0.5 * np.round(2.0 * pts) + 0.02 * (pts - 0.5)


def _poles_and_seams(pts):
    # longitudes across the 0/1 seam, colatitudes on and next to the poles
    out = pts.copy()
    out[:, 0] = np.mod(0.97 + 0.06 * pts[:, 0], 1.0)
    out[::3, 1] = np.round(pts[::3, 1])
    out[1::3, 1] = np.clip(np.round(pts[1::3, 1]) + 0.01 * (pts[1::3, 1] - 0.5), 0.0, 1.0)
    return out


def _random_images(pts):
    return np.random.default_rng(len(pts)).random(pts.shape)


_STEPS = {"identity": lambda pts: pts, "spines": _toward_spines,
          "poles": _poles_and_seams, "random": _random_images}


class TestCsrMatchesCooReference:
    # (model, res, eps): stencils wider than the grid (res 5 and 8), odd
    # sizes, grid-scan's own grids at res 128, and north-south row
    # thresholds eps + diag in (1, 2) (res 4 and 8, eps 0.8: the CLI's
    # default eps 6.4/res)
    CASES = [("cat-map", 5, 0.3), ("cat-map", 8, 0.3), ("cat-map", 17, 0.1),
             ("cat-map", 64, 0.1), ("cat-map", 128, 0.05),
             ("sphere-pA", 5, 0.3), ("sphere-pA", 8, 0.3), ("sphere-pA", 17, 0.1),
             ("sphere-pA", 64, 0.1), ("sphere-pA", 128, 0.05),
             ("north-south", 5, 0.3), ("north-south", 8, 0.3), ("north-south", 17, 0.1),
             ("north-south", 64, 0.02), ("north-south", 96, 0.012),
             ("north-south", 128, 0.01), ("north-south", 4, 0.8),
             ("north-south", 8, 0.8)]

    @pytest.mark.parametrize("kind,res,eps", CASES)
    def test_model_grids(self, kind, res, eps):
        sys = make_model(kind)
        _assert_same_csr(build_graph(sys, res, eps).adjacency, _ref_adjacency(sys, res, eps))

    @pytest.mark.parametrize("step", sorted(_STEPS))
    @pytest.mark.parametrize("kind,res,eps", [("cat-map", 6, 0.25), ("cat-map", 32, 0.06),
                                              ("sphere-pA", 6, 0.25), ("sphere-pA", 32, 0.06),
                                              ("north-south", 6, 0.25),
                                              ("north-south", 6, 0.9),
                                              ("north-south", 32, 0.06)])
    def test_synthetic_steps(self, kind, res, eps, step):
        sys = make_model(kind)
        f = _STEPS[step]
        _assert_same_csr(build_graph(sys, res, eps, step=f).adjacency,
                         _ref_adjacency(sys, res, eps, step=f))

    @pytest.mark.parametrize("kind,budgets", [("cat-map", (81, 100, 170)),
                                              ("sphere-pA", (162, 200, 340)),
                                              ("north-south", (1, 7, 60))])
    def test_tiny_chunks(self, kind, budgets, monkeypatch):
        # flat chunks of one source (a 9 x 9 stencil per window) up to a
        # few; geographic chunks far below one source, which then splits
        # across chunks
        sys = make_model(kind)
        want = _ref_adjacency(sys, 12, 0.1, step=_toward_spines)
        for pairs in budgets:
            monkeypatch.setattr(chainrec, "_CHUNK_PAIRS", pairs)
            got = build_graph(sys, 12, 0.1, step=_toward_spines).adjacency
            _assert_same_csr(got, want)

    @staticmethod
    def _assert_chunks_hold_the_budget(kind, res, eps, step, monkeypatch):
        # every chunk of the build is measured: the groups' decisions, the
        # rows it writes, and the windows of sources decided one by one
        sizes = {}

        def spy(name, size):
            real = getattr(chainrec, name)

            def wrapped(*args):
                out = real(*args)
                sizes.setdefault(name, []).append(size(args, out))
                return out

            monkeypatch.setattr(chainrec, name, wrapped)

        spy("_decide", lambda args, out: out[0].size)
        spy("_fill_rows", lambda args, out: args[-1].size)
        spy("_window_edges", lambda args, out: out.size)
        monkeypatch.setattr(chainrec, "_CHUNK_PAIRS", 400)
        sys = make_model(kind)
        f = _STEPS.get(step)
        got = build_graph(sys, res, eps, step=f).adjacency
        assert all(0 < max(v) <= 400 for v in sizes.values())
        _assert_same_csr(got, _ref_adjacency(sys, res, eps, step=f))
        return sorted(sizes)

    @pytest.mark.parametrize("kind,res,eps", [("cat-map", 8, 0.3), ("sphere-pA", 8, 0.3),
                                              ("cat-map", 6, 5.0), ("sphere-pA", 6, 5.0)])
    def test_chunks_hold_at_most_the_pair_budget(self, kind, res, eps, monkeypatch):
        # rows of 121 to 338 pairs, one to three a chunk; eps 5 would ask
        # for a 67-wide stencil without the clamp at the diameter
        assert self._assert_chunks_hold_the_budget(kind, res, eps, None, monkeypatch) \
            == ["_decide", "_fill_rows"]

    @pytest.mark.parametrize("kind", ["cat-map", "sphere-pA"])
    @pytest.mark.parametrize("res,eps,step", [(12, 0.1, "spines"),
                                              (16, 5.0 / 16 - np.sqrt(2.0) / 16, "identity")])
    def test_synthetic_chunks_hold_at_most_the_pair_budget(self, kind, res, eps, step,
                                                           monkeypatch):
        # a group per image near the spines; the identity images at thr =
        # 5h, where hypot(3h, 4h) ties thr, are decided one by one
        names = self._assert_chunks_hold_the_budget(kind, res, eps, step, monkeypatch)
        assert names == (["_decide", "_fill_rows", "_window_edges"] if step == "identity"
                         else ["_decide", "_fill_rows"])

    @pytest.mark.parametrize("chart,res,eps", [
        (models.TORUS, 12, 0.1), (models.SPHERE_QUOTIENT, 12, 0.1),
        (models.TORUS, 700, 0.75), (models.SPHERE_QUOTIENT, 500, 0.75)])
    def test_grid_past_the_chunk_is_refused(self, chart, res, eps, monkeypatch):
        # one source's stencil above the budget (81 or 162 pairs against
        # 80 at res 12; over 2**20 at res 500-700): refused up front
        if res == 12:
            monkeypatch.setattr(chainrec, "_CHUNK_PAIRS", 80)
        with pytest.raises(ConfigError, match="--eps.*--res"):
            chainrec.check_grid(chart, res, eps)

    @pytest.mark.parametrize("kind,eps", [("cat-map", 1.0), ("sphere-pA", 1.0),
                                          ("north-south", 1.0), ("north-south", 5.0)])
    def test_threshold_past_the_diameter(self, kind, eps):
        # thr above every chart distance: the clamped stencil, and the
        # longitude windows past t = 1, still find every cell
        sys = make_model(kind)
        got = build_graph(sys, 8, eps).adjacency
        _assert_same_csr(got, _ref_adjacency(sys, 8, eps))
        assert got.nnz == 64 * 64

    @pytest.mark.parametrize("kind", ["cat-map", "sphere-pA"])
    def test_distances_at_the_threshold(self, kind):
        # identity images sit on the cell lattice, so with thr = 5h some
        # candidate norms are hypot(3h, 4h): inside the pre-test's band,
        # decided by hypot alone
        res = 16
        h = 1.0 / res
        eps = 5.0 * h - np.sqrt(2.0) * h
        thr = eps + np.sqrt(2.0) * h
        assert abs(np.hypot(3 * h, 4 * h) - thr) <= chainrec._SQ_MARGIN * thr
        sys = make_model(kind)
        ident = _STEPS["identity"]
        got = build_graph(sys, res, eps, step=ident).adjacency
        _assert_same_csr(got, _ref_adjacency(sys, res, eps, step=ident))

    def test_geographic_pair_at_the_threshold(self):
        # eps set so that one pair's distance meets its target's threshold:
        # that cell sits on the edge of its row's longitude window
        res = 16
        centers = chainrec._grid_centers(res)
        diag = chainrec._cell_diagonals(models.SPHERE_GEOGRAPHIC, res)
        s, t = 3 * res + 7, 5 * res + 7
        d = models.chart_distance(models.SPHERE_GEOGRAPHIC, centers[s], centers[t])
        eps = float(d - diag[t])
        while eps + diag[t] < d:
            eps = float(np.nextafter(eps, 1.0))
        sys = make_model("north-south")
        ident = _STEPS["identity"]
        want = _ref_adjacency(sys, res, eps, step=ident)
        assert want[s, t] == 1
        _assert_same_csr(build_graph(sys, res, eps, step=ident).adjacency, want)


# -- reference: the flat-chart build as one window per source --------------


def _window_adjacency(sys, res, eps, step=None):
    """build_graph's adjacency from _reference.edges_wrapped."""
    centers = chainrec._grid_centers(res)
    imgs = np.asarray(step(centers) if step is not None
                      else models.iterate_arr(sys, centers, 1), dtype=float)
    thr = eps + chainrec._cell_diagonals(sys.chart, res)[0]
    counts, indices = _reference.edges_wrapped(sys.chart, res, imgs, thr)
    n = res * res
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return sp.csr_matrix((np.ones(indices.size, np.int8), indices, indptr), shape=(n, n))


def _tie_eps(sys, res, ulps):
    """An eps whose threshold eps + diag lies ``ulps`` ulps from the test
    norm of one image and one candidate cell, as _window_edges computes
    it: source 100's image, the cell 3 columns and 4 rows from its base."""
    h = 1.0 / res
    img = models.iterate_arr(sys, chainrec._grid_centers(res)[100:101], 1)[0]
    cell = np.floor(img / h - 0.5).astype(int) + np.array([3, 4])
    w = img - (cell + 0.5) * h
    r = w - np.round(w)
    want = np.hypot(r[0], r[1])
    for _ in range(abs(ulps)):
        want = np.nextafter(want, np.sign(ulps) * np.inf)
    diag = np.sqrt(2.0) * h
    eps = want - diag
    while eps + diag < want:
        eps = np.nextafter(eps, np.inf)
    while eps + diag > want:
        eps = np.nextafter(eps, -np.inf)
    assert eps + diag == want
    return float(eps)


class TestStencilsMatchWindows:
    # stencils wider than the grid (res 5 and 8), odd and non-power-of-two
    # sizes, and grid-scan's grids at the CLI's eps 6.4/res
    CASES = ([(kind, res, eps) for kind in ("cat-map", "sphere-pA")
              for res, eps in ((5, 0.3), (8, 0.3), (5, 6.4 / 5), (8, 6.4 / 8))]
             + [(kind, res, 6.4 / res) for kind in ("cat-map", "sphere-pA")
                for res in (17, 96, 100, 64, 128, 256)])

    @pytest.mark.parametrize("kind,res,eps", CASES)
    def test_model_grids(self, kind, res, eps):
        sys = make_model(kind)
        _assert_same_csr(build_graph(sys, res, eps).adjacency,
                         _window_adjacency(sys, res, eps))

    @pytest.mark.parametrize("step", sorted(_STEPS))
    @pytest.mark.parametrize("kind", ["cat-map", "sphere-pA"])
    def test_synthetic_steps(self, kind, step):
        # a group per image or close to it, at a non-power-of-two res
        sys = make_model(kind)
        f = _STEPS[step]
        _assert_same_csr(build_graph(sys, 24, 0.1, step=f).adjacency,
                         _window_adjacency(sys, 24, 0.1, step=f))

    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    @pytest.mark.parametrize("kind,res", [("cat-map", 64), ("sphere-pA", 64),
                                          ("cat-map", 100), ("sphere-pA", 100)])
    def test_norm_within_an_ulp_of_the_threshold(self, kind, res, ulps, monkeypatch):
        # the images' own tests fall on both sides of thr: their group is
        # left undecided, and its sources take the windows one by one
        sys = make_model(kind)
        eps = _tie_eps(sys, res, ulps)
        windows = []
        real = chainrec._window_edges

        def spy(*args):
            windows.append(args[2].shape[0])
            return real(*args)

        monkeypatch.setattr(chainrec, "_window_edges", spy)
        got = build_graph(sys, res, eps).adjacency
        assert 0 < sum(windows) <= 2 * res * res
        _assert_same_csr(got, _window_adjacency(sys, res, eps))

    @pytest.mark.parametrize("kind", ["cat-map", "sphere-pA"])
    def test_one_group_at_a_power_of_two(self, kind, monkeypatch):
        # every image, on the quotient both of a source's, has the same
        # sub-cell residual: one decision serves all 65,536 rows
        groups = []
        real = chainrec._group_stencils

        def spy(res, rho, *args):
            st = real(res, rho, *args)
            groups.append((rho.shape[0], int(st.undecided.sum())))
            return st

        def no_windows(*args):
            raise AssertionError("a source was decided on its own")

        monkeypatch.setattr(chainrec, "_group_stencils", spy)
        monkeypatch.setattr(chainrec, "_window_edges", no_windows)
        build_graph(make_model(kind), 256, 6.4 / 256)
        assert groups == [(1, 0)]

    @pytest.mark.parametrize("kind", ["cat-map", "sphere-pA"])
    def test_build_peak_is_the_graph_and_one_chunk(self, kind):
        # the rows fill one preallocated index array; a list of chunks and
        # a final concatenate would hold the indices twice
        sys = make_model(kind)
        build_graph(sys, 8, 0.3)  # first-call allocations outside the trace
        tracemalloc.start()
        try:
            g = build_graph(sys, 128, 6.4 / 128)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        adj = g.adjacency
        graph = adj.indices.nbytes + adj.data.nbytes + adj.indptr.nbytes
        assert graph > 15_000_000
        # a chunk's block of int32 keys, its mask and its packed copy
        assert peak < graph + 8 * chainrec._CHUNK_PAIRS


# -- reference: the per-cell grouping and the all-pairs merge over a
# dict-based union-find that the array passes of chain_classes and its
# KD-tree candidate pairs replaced --------------------------------------------


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


def _ref_chain_labels(g):
    """Labels, classes and the number of SCC ids the merge sees."""
    n_comp, lab = connected_components(g.adjacency, directed=True, connection="strong")
    sizes = np.bincount(lab, minlength=n_comp)
    rec_mask = (sizes[lab] >= 2) | g.adjacency.diagonal().astype(bool)
    rec = np.nonzero(rec_mask)[0]
    ids = np.unique(lab[rec])
    uf = _Union(ids)
    if len(ids) > 1:
        slack = g.eps + float(g.cell_diag.max())
        pts = g.centers[rec]
        labs = lab[rec]
        for lo in range(0, len(rec), 2048):
            hi = min(lo + 2048, len(rec))
            d = models.chart_distance(g.chart, pts[lo:hi, None, :], pts[None, :, :])
            a, b = np.nonzero((d <= slack) & (labs[lo:hi, None] != labs[None, :]))
            for pair in set(zip(labs[lo + a].tolist(), labs[b].tolist())):
                uf.union(*pair)
    remap = {int(i): uf.find(int(i)) for i in ids}
    labels = np.full(g.n_cells, -1, dtype=int)
    classes = []
    groups = {}
    for i in rec:
        groups.setdefault(remap[int(lab[i])], []).append(int(i))
    for cells in sorted(groups.values(), key=min):
        arr = np.array(sorted(cells), dtype=int)
        labels[arr] = len(classes)
        classes.append(arr)
    return labels, classes, len(ids)


def _sinks(pts):
    # contract toward the points of the quarter lattice: attracting blobs,
    # more than one slack apart
    q = np.round(4.0 * pts) / 4.0
    return q + 0.1 * (pts - q)


def _basin_sinks(sinks, radius, flat=True):
    """Contract the points within ``radius`` of a sink toward it by 0.1;
    send every other point to (0.5, 0), a fixed point of the quotient.
    Displacements wrap in longitude, and on the flat charts in colatitude
    too.

    The cells that a quotient identifies with a basin do not recur, so
    two sinks' classes can come within one slack only across a seam or
    the fold.
    """
    sinks = np.asarray(sinks, dtype=float)

    def step(pts):
        out = np.zeros_like(pts)
        out[:, 0] = 0.5
        for s in sinks:
            w = pts - s
            w[:, 0] -= np.rint(w[:, 0])
            if flat:
                w[:, 1] -= np.rint(w[:, 1])
            near = np.hypot(w[:, 0], w[:, 1]) <= radius
            out[near] = np.mod(s + 0.1 * w[near], 1.0)
        return out

    return step


# At res 64 and eps 0.02 the flat threshold is 0.0421.  Sinks 2.4 of it
# apart, each with a basin of half that, share no edge, but their classes
# come within one slack: on the torus only across the seam x = 0, on the
# quotient only through x ~ -x ((0.3, 0.5) and (0.801, 0.5) sum to
# (0.101, 0) mod 1).
_GAP = 2.4 * (0.02 + np.sqrt(2.0) / 64)
_STEPS_CLASSES = {
    None: None, "sinks": _sinks, "identity": _STEPS["identity"],
    "seam": _basin_sinks([(0.5 * _GAP, 0.5), (1.0 - 0.5 * _GAP, 0.5)], 0.5 * _GAP),
    "fold": _basin_sinks([(0.3, 0.5), (0.7 + _GAP, 0.5)], 0.5 * _GAP),
    # 0.035 of longitude on each side of the seam, on the equator
    "lon-seam": _basin_sinks([(0.035, 0.5), (0.965, 0.5)], 0.035, flat=False),
}


class TestChainClassesMatchReference:
    @pytest.mark.parametrize("kind,res,eps,step", [
        ("cat-map", 64, 0.1, None), ("sphere-pA", 64, 0.1, None),
        ("north-south", 128, 0.01, None), ("north-south", 96, 0.012, None),
        ("cat-map", 64, 0.012, "sinks"), ("sphere-pA", 64, 0.012, "sinks"),
        ("north-south", 64, 0.03, "sinks"), ("cat-map", 16, 0.05, "identity"),
        ("cat-map", 64, 0.02, "seam"), ("sphere-pA", 64, 0.02, "fold"),
        ("north-south", 64, 0.02, "lon-seam")])
    def test_labels_and_classes(self, kind, res, eps, step, monkeypatch):
        g = build_graph(make_model(kind), res, eps, step=_STEPS_CLASSES[step])
        labels, classes, n_ids = _ref_chain_labels(g)
        for pairs in (chainrec._CHUNK_PAIRS, 1000, 1):
            monkeypatch.setattr(chainrec, "_CHUNK_PAIRS", pairs)
            part = chain_classes(g)
            assert part.labels.dtype == labels.dtype
            assert np.array_equal(part.labels, labels)
            assert len(part.classes) == len(classes)
            for got, want in zip(part.classes, classes):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
        if step is not None and step != "identity":
            # more than one SCC id reaches the merge
            assert n_ids > 1 and len(classes) > 1
        if step in ("seam", "fold", "lon-seam") or kind == "north-south":
            # and the merge joins some of them
            assert len(classes) < n_ids

    def test_fold_merge_needs_the_quotient(self):
        # the same sinks on the torus chart stay apart
        g = build_graph(make_model("cat-map"), 64, 0.02, step=_STEPS_CLASSES["fold"])
        labels, classes, n_ids = _ref_chain_labels(g)
        assert len(classes) == n_ids == 3
        assert chain_classes(g).n_classes == 3


class TestCandidatePairs:
    @pytest.mark.parametrize("chart", [models.TORUS, models.SPHERE_QUOTIENT,
                                       models.SPHERE_GEOGRAPHIC])
    @pytest.mark.parametrize("budget", [1 << 20, 200])
    def test_superset_of_the_close_pairs(self, chart, budget, monkeypatch):
        # slacks equal to pair distances of the grid: pairs at the slack
        # itself are candidates too; past 1 every geographic pair is
        monkeypatch.setattr(chainrec, "_CHUNK_PAIRS", budget)
        pts = chainrec._grid_centers(24)
        d = models.chart_distance(chart, pts[:, None, :], pts[None, :, :])
        for slack in list(np.unique(d)[[1, 4, 30, 200]]) + [1.5]:
            got = set()
            for a, b in chainrec._candidate_pairs(chart, pts, slack):
                assert a.size <= budget or np.unique(a).size == 1
                got |= set(zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist()))
            i, j = np.nonzero(np.triu(d <= slack, 1))
            assert set(zip(i.tolist(), j.tolist())) <= got

    def test_blocks_hold_whole_items_up_to_the_budget(self, monkeypatch):
        monkeypatch.setattr(chainrec, "_CHUNK_PAIRS", 6)
        ends = np.cumsum([3, 3, 3, 7, 1, 0, 2, 6])
        assert list(chainrec._blocks(ends)) == [(0, 2), (2, 3), (3, 4), (4, 7), (7, 8)]


class TestChainClassesMemory:
    def test_no_copy_of_the_edges(self, cat):
        # cat-map res 128: 3.1M edges, one SCC.  A float64 copy of the
        # graph for scipy would take 12 bytes an edge or more
        g = build_graph(cat, 128, 6.4 / 128)
        nnz = g.adjacency.nnz
        assert nnz > 3_000_000
        tracemalloc.start()
        try:
            part = chain_classes(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert part.n_classes == 1
        assert peak < 2 * nnz


# -- reference: reachability as one full sparse matvec per BFS level, and
# the class order on it ------------------------------------------------------


def _ref_reachable(adj, seed):
    state = np.zeros(adj.shape[0], dtype=bool)
    state[seed] = True
    frontier = state.copy()
    while frontier.any():
        nxt = (adj.T @ frontier.astype(np.int32)).astype(bool) & ~state
        state |= nxt
        frontier = nxt
    return state


def _ref_class_order(g, partition):
    k = partition.n_classes
    fwd = [_ref_reachable(g.adjacency, c) for c in partition.classes]
    adj_t = g.adjacency.T.tocsr()
    bwd = [_ref_reachable(adj_t, c) for c in partition.classes]
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
    chainrec._assert_acyclic(order, k)
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
    return {"order": order, "roles": roles}


class TestReachabilityMatchesReference:
    @pytest.mark.parametrize("kind,res,eps,step", [
        ("north-south", 96, 0.012, None), ("north-south", 128, 0.01, None),
        ("cat-map", 64, 0.012, "sinks"), ("sphere-pA", 64, 0.012, "sinks"),
        ("north-south", 64, 0.03, "sinks"), ("cat-map", 16, 0.05, "identity"),
        ("sphere-pA", 64, 0.02, "fold")])
    def test_reach_and_order(self, kind, res, eps, step, monkeypatch):
        sys = make_model(kind)
        g = build_graph(sys, res, eps, step=_STEPS_CLASSES[step])
        part = chain_classes(g)
        adj_t = g.adjacency.T.tocsr()
        want = _ref_class_order(g, part)
        for pairs in (chainrec._CHUNK_PAIRS, 1000):
            monkeypatch.setattr(chainrec, "_CHUNK_PAIRS", pairs)
            for c in part.classes:
                for adj in (g.adjacency, adj_t):
                    got = chainrec._reachable(adj, c)
                    assert got.dtype == bool
                    assert np.array_equal(got, _ref_reachable(adj, c))
            assert class_order(sys, g, part) == want
        if kind == "north-south" and step is None:
            assert want["order"] == [(0, 1)]
        elif step == "sinks":
            assert part.n_classes > 2

    def test_seeds_of_the_synthetic_graph(self):
        # every cell as a seed, on a graph with sources, sinks and cycles
        g = _synthetic_graph()
        adj_t = g.adjacency.T.tocsr()
        for cell in range(g.n_cells):
            for adj in (g.adjacency, adj_t):
                assert np.array_equal(chainrec._reachable(adj, np.array([cell])),
                                      _ref_reachable(adj, np.array([cell])))
