"""Span tracing of cwdyn's public functions, from outside the library.

``Tracer.install`` replaces each traced function at every name the
library looks it up by (module attributes, names imported into other
modules, and the ``SystemModel.eigen_direction`` method) with a wrapper
that records a span; ``uninstall`` puts the originals back.  Spans are
kept in memory as (name, start, end, parent, item, attrs) and written
out once, at the end of a run.
"""

import functools
import json
import time
from collections import defaultdict

from cwdyn import chainrec, continua, cwmetric, holonomy, models, periodic, sectors


def _csr_mb(adj):
    return (adj.data.nbytes + adj.indices.nbytes + adj.indptr.nbytes) / 1e6


def _profile_path(args, kwargs, out):
    cont = args[1]
    if cont.lift is not None:
        return {"path": "lifted"}
    return {"path": "record" if cont.n_vertices > 1 else "singleton"}


# span name -> (places the library looks the function up, attrs of a call)
TARGETS = {
    "cwmetric.calibrate": ([(cwmetric, "calibrate")], None),
    "cwmetric.cw_metric_profile": ([(cwmetric, "cw_metric_profile")], _profile_path),
    "cwmetric.cw_metric_family": ([(cwmetric, "cw_metric_family")],
                                  lambda a, k, out: {"shifts": len(out)}),
    "cwmetric.cw_metric": ([(cwmetric, "cw_metric"), (holonomy, "cw_metric"),
                           (periodic, "cw_metric")], None),
    "models.local_arc": ([(models, "local_arc")], None),
    "models.eigen_direction": ([(models.SystemModel, "eigen_direction")], None),
    "continua.intersect": ([(continua, "intersect"), (holonomy, "intersect"),
                            (periodic, "intersect"), (sectors, "intersect")],
                           lambda a, k, out: {"points": len(out)}),
    "continua.subcontinuum": ([(continua, "subcontinuum"), (holonomy, "subcontinuum"),
                               (periodic, "subcontinuum"), (sectors, "subcontinuum")], None),
    "holonomy.default_params": ([(holonomy, "default_params")], None),
    "holonomy.holonomy": ([(holonomy, "holonomy")],
                          lambda a, k, out: {"branches": len(out)}),
    "holonomy.pseudo_isometry_probe": ([(holonomy, "pseudo_isometry_probe")],
                                       lambda a, k, out: {"rectangles": out["n_samples"]}),
    "periodic.find_return": ([(periodic, "find_return")], None),
    "periodic.katok_iterate": ([(periodic, "katok_iterate")],
                               lambda a, k, out: {"steps": len(out["steps"])}),
    "sectors.enumerate_spines": ([(sectors, "enumerate_spines")], None),
    "sectors.find_sectors": ([(sectors, "find_sectors")],
                             lambda a, k, out: {"seeds_probed": out.seeds_probed,
                                                "skipped_pairs": out.skipped_pairs}),
    "sectors.classify_sector": ([(sectors, "classify_sector")], None),
    "sectors.enclosing_sector": ([(sectors, "enclosing_sector")], None),
    "sectors.sector_parametrization": ([(sectors, "sector_parametrization")], None),
    "chainrec.build_graph": ([(chainrec, "build_graph")],
                             lambda a, k, out: {"edges": int(out.adjacency.nnz),
                                                "adjacency_mb": _csr_mb(out.adjacency)}),
    "chainrec.chain_classes": ([(chainrec, "chain_classes")],
                               lambda a, k, out: {"classes": out.n_classes}),
    "chainrec.class_order": ([(chainrec, "class_order")], None),
}

SETUP_SPANS = ("cwmetric.calibrate", "holonomy.default_params")

class Tracer:
    """Records one span per call of every traced function while installed."""

    def __init__(self):
        self.spans = []
        self.item = None
        self._stack = []
        self._saved = []
        self._t0 = time.perf_counter()

    def _wrap(self, name, fn, attrs):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.item, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span[5] = attrs(args, kwargs, out)
            return out

        return traced

    def install(self):
        for name, (places, attrs) in TARGETS.items():
            owner, attr = places[0]
            fn = getattr(owner, attr)
            wrapped = self._wrap(name, fn, attrs)
            for owner, attr in places:
                if getattr(owner, attr) is not fn:
                    raise RuntimeError(f"{owner.__name__}.{attr} is not the function "
                                       f"traced as {name}")
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved = []

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, item, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start - self._t0,
                                     "end": end - self._t0, "parent": parent,
                                     "item": item, "attrs": attrs}) + "\n")

    def layer_metrics(self, per_layer, extra):
        """Every metric of ``per_layer`` (BENCHMARK.json's list), those in
        ``extra`` as given.  ``.s`` is self time, the span's duration minus
        the time of the traced spans nested directly in it.

        Spans outside the items (set-up) count only for the set-up layers.
        """
        child = defaultdict(float)
        for name, start, end, parent, item, attrs in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        sums = defaultdict(float)
        adjacency_mb = 0.0
        for idx, (name, start, end, parent, item, attrs) in enumerate(self.spans):
            if item is None and name not in SETUP_SPANS:
                continue
            own = end - start - child[idx]
            calls[name] += 1
            self_s[name] += own
            for key, val in (attrs or {}).items():
                if key == "path":
                    self_s[f"{name}.{val}"] += own
                elif key == "adjacency_mb":
                    adjacency_mb = max(adjacency_mb, val)
                else:
                    sums[f"{name}.{key}"] += val
        out = {}
        for spec in per_layer:
            metric, unit = spec["name"], spec["unit"]
            base, _, qty = metric.rpartition(".")
            if metric in extra:
                val = extra[metric]
            elif metric == "chainrec.adjacency_mb":
                val = adjacency_mb
            elif metric == "chainrec.classes":
                val = sums["chainrec.chain_classes.classes"]
            elif qty == "calls":
                val = calls[base]
            elif qty == "s":
                val = self_s[base]
            else:
                val = sums[metric]
            out[metric] = {"value": val, "unit": unit}
        return out
