import numpy as np
import pytest
import scipy.sparse as sp

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
        d = models.chart_distance_arr(
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
            d = models.chart_distance_arr(
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
        with pytest.raises(DiscretizationError):
            chainrec._assert_acyclic([(0, 1), (1, 2), (2, 0)], 3)

    def test_attractor_forward_invariant(self, ns, ns_graph):
        # maximal class: forward orbits of its cells stay near it
        g, part, orr = ns_graph
        att = [i for i, r in orr["roles"].items() if r == "attractor"][0]
        cells = part.classes[att]
        pts = g.centers[cells]
        fwd = models.iterate_arr(ns, pts, 5)
        d = models.chart_distance_arr(g.chart, fwd[:, None, :], pts[None, :, :])
        assert d.min(axis=1).max() <= g.eps + g.cell_diag.max()
        # minimal class: backward orbits of its cells stay near it
        rep = [i for i, r in orr["roles"].items() if r == "repeller"][0]
        rpts = g.centers[part.classes[rep]]
        bwd = models.iterate_arr(ns, rpts, -5)
        d = models.chart_distance_arr(g.chart, bwd[:, None, :], rpts[None, :, :])
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
