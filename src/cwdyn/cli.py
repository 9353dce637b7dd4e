"""Command line entry point: seeded experiment runs with JSONL reports.

Every run writes one header line (the only place a timestamp appears)
followed by deterministic body records, each carrying the config hash;
a short human-readable summary goes to stdout.  Exit codes: 0 success,
1 configuration error (with the offending key), 2 acceptance failure.
"""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import acceptance, chainrec, continua, cwmetric, holonomy, models, periodic, sectors
from .models import (BudgetError, CalibrationError, ConfigError, ModelCapabilityError,
                     make_model)


_MODEL_ALIASES = {
    "cat": "cat-map", "cat-map": "cat-map",
    "pa": "sphere-pA", "sphere-pa": "sphere-pA", "sphere-pA": "sphere-pA",
    "ns": "north-south", "north-south": "north-south",
}

@dataclass
class ExperimentConfig:
    command: str
    model: str = "cat-map"
    c: float | None = None
    depth: int = 4
    resolution: int | None = None
    eps: float | None = None
    budget: int | None = None
    sample_budget: int = 160
    seed: int = 0
    alpha: float | None = None
    p: tuple | None = None
    continuum: str | None = None
    grid: int = 32
    suite: str = "all"
    out: str | None = None

    def body(self) -> dict:
        # the hashable identity of the experiment; where the report is
        # written is not part of it
        d = dataclasses.asdict(self)
        d.pop("out")
        return {k: v for k, v in d.items() if v is not None}

    def sha256(self) -> str:
        return hashlib.sha256(
            json.dumps(self.body(), sort_keys=True).encode()).hexdigest()


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="cwdyn", description=__doc__.splitlines()[0])
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--config", help="JSON file of defaults; flags override")
    p.add_argument("--model", help="cat | sphere-pA | north-south")
    p.add_argument("--c", type=float, help="expansivity scale")
    p.add_argument("--depth", type=int, help="chain-weight subdivision depth")
    p.add_argument("--res", type=int, dest="resolution", help="grid resolution")
    p.add_argument("--eps", type=float, help="chain step / sector seed spacing")
    p.add_argument("--budget", type=int, help="sample or search budget")
    p.add_argument("--sample-budget", type=int, dest="sample_budget",
                   help="calibration sample budget")
    p.add_argument("--seed", type=int, help="rng seed")
    p.add_argument("--alpha", type=float, help="periodic-point accuracy target")
    p.add_argument("--p", help="seed point 'x,y'")
    p.add_argument("--continuum", help="JSON/JSONL file of marked continua")
    p.add_argument("--grid", type=int, help="sector parametrization grid")
    p.add_argument("--suite", help="acceptance criteria: 'all' or ids '1,4,11'")
    p.add_argument("--out", help="report path (default $CWDYN_OUT_DIR/<cmd>.jsonl)")
    return p


def _parse_point(raw) -> tuple:
    if isinstance(raw, list):
        # the form a report header's config holds
        if len(raw) != 2 or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                                    for v in raw):
            raise ConfigError(f"--p expects a list of two numbers, got {raw!r}")
        parts = raw
    else:
        parts = str(raw).split(",")
    if len(parts) != 2:
        raise ConfigError(f"--p expects 'x,y', got {raw!r}")
    try:
        x, y = float(parts[0]), float(parts[1])
    except (ValueError, OverflowError):
        raise ConfigError(f"--p expects two floats, got {raw!r}")
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ConfigError(f"--p expects two finite floats, got {raw!r}")
    return (x, y)


def _load_config_file(path) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as err:
        raise ConfigError(f"--config {path}: {err.strerror or err}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"--config {path}: line {err.lineno} col {err.colno}: "
                          f"{err.msg}")
    if not isinstance(data, dict):
        raise ConfigError(f"--config {path}: top level must be an object")
    allowed = {f.name for f in dataclasses.fields(ExperimentConfig)}
    for key in data:
        if key not in allowed:
            raise ConfigError(f"--config {path}: unknown key {key!r}")
    return data


_POSITIVE_INTS = ("depth", "resolution", "budget", "grid", "sample_budget")
_INTS = _POSITIVE_INTS + ("seed",)
_FLOATS = ("c", "eps", "alpha")
# arc half-length of the sectors command's spine scan, whatever --eps is;
# a local arc needs it below c
_SPINE_SCAN_EPS = 0.1
# memory the sectors command's parametrization may take, estimated from --grid
_GRID_MEMORY_CAP = 512 * 2 ** 20
# memory the metric command's evaluator may take, estimated from --depth
_DEPTH_MEMORY_CAP = 512 * 2 ** 20
# memory the chainrec command's graph may take, estimated from --res and --eps
_GRAPH_MEMORY_CAP = 512 * 2 ** 20
_FLAGS = {"resolution": "--res", "sample_budget": "--sample-budget"}


def _check_numbers(merged: dict) -> None:
    """Int fields must be integers (sizes positive, the seed non-negative)
    and float fields finite numbers, from flags and --config values alike;
    float fields are stored as floats, so a file's 1 hashes like the flag's 1.0."""
    for name in _INTS + _FLOATS:
        val = merged.get(name)
        if val is None:
            continue
        flag = _FLAGS.get(name, "--" + name)
        number = isinstance(val, (int, float)) and not isinstance(val, bool)
        if name in _FLOATS:
            # int vs float comparison is exact, so a huge int cannot overflow
            if not (number and abs(val) <= sys.float_info.max):
                raise ConfigError(f"{flag} must be a finite number, got {val!r}")
            merged[name] = float(val)
        elif not (number and isinstance(val, int)) or val < (1 if name in _POSITIVE_INTS else 0):
            kind = "a positive integer" if name in _POSITIVE_INTS else "a non-negative integer"
            raise ConfigError(f"{flag} must be {kind}, got {val!r}")


def _check_sectors(cfg: ExperimentConfig) -> None:
    """The sectors command's grids and seed scale, before any work."""
    for flag, val in (("--grid", cfg.grid), ("--res", cfg.resolution)):
        if val is not None and val < 2:
            raise ConfigError(f"{flag} must be at least 2, got {val}")
    need = sectors.parametrization_bytes(cfg.grid)
    if need > _GRID_MEMORY_CAP:
        raise ConfigError(f"--grid {cfg.grid} needs about {need / 2 ** 20:.0f} MiB for the "
                          f"sector parametrization, above the {_GRID_MEMORY_CAP // 2 ** 20} "
                          f"MiB cap; lower --grid")
    c = make_model(cfg.model, c=cfg.c).c
    if not c > _SPINE_SCAN_EPS:
        raise ConfigError(f"--c must exceed {_SPINE_SCAN_EPS}, the spine scan's "
                          f"arc half-length, got {c}")
    if cfg.eps is not None:
        if not 0.0 < cfg.eps < c:
            raise ConfigError(f"--eps must lie in (0, c={c}), got {cfg.eps}")


def _check_chain_grid(cfg: ExperimentConfig) -> None:
    """The chainrec command's grid and the memory of its graph, before any
    work."""
    chart = make_model(cfg.model).chart
    res, eps = _chain_grid(cfg)
    chainrec.check_grid(chart, res, eps)
    need = chainrec.graph_bytes(chart, res, eps)
    if need > _GRAPH_MEMORY_CAP:
        raise ConfigError(f"--res {res} and --eps {eps} need about {need / 2 ** 20:.0f} MiB "
                          f"for the chain graph, above the {_GRAPH_MEMORY_CAP // 2 ** 20} "
                          f"MiB cap; lower --res or --eps")


def parse_config(argv) -> ExperimentConfig:
    ns = _build_parser().parse_args(argv)
    merged = {}
    if ns.config:
        merged.update(_load_config_file(ns.config))
        # a report header's config names its command; it must be this one
        if merged.get("command", ns.command) != ns.command:
            raise ConfigError(f"--config {ns.config}: command {merged['command']!r} "
                              f"does not match {ns.command!r}")
    for f in dataclasses.fields(ExperimentConfig):
        v = getattr(ns, f.name, None)
        if v is not None:
            merged[f.name] = v
    merged["command"] = ns.command
    if "model" in merged:
        kind = _MODEL_ALIASES.get(str(merged["model"]))
        if kind is None:
            raise ConfigError(f"--model: unknown model {merged['model']!r} "
                              f"(use cat, sphere-pA or north-south)")
        merged["model"] = kind
    if "p" in merged and not isinstance(merged["p"], tuple):
        merged["p"] = _parse_point(merged["p"])
    _check_numbers(merged)
    cfg = ExperimentConfig(**merged)
    if cfg.command == "chainrec":
        _check_chain_grid(cfg)
    if cfg.command == "sectors":
        _check_sectors(cfg)
    if cfg.command == "metric":
        # the estimate grows with depth; past 64 it is far over any cap,
        # and 2^depth of a huge depth would take long to compute
        need = cwmetric.evaluator_bytes(min(cfg.depth, 64))
        if need > _DEPTH_MEMORY_CAP:
            raise ConfigError(f"--depth {cfg.depth} needs about {need / 2 ** 20:.0f} MiB for "
                              f"the metric's block table and chain pass, above the "
                              f"{_DEPTH_MEMORY_CAP // 2 ** 20} MiB cap; lower --depth")
    if cfg.command == "acceptance":
        try:
            acceptance.parse_suite(cfg.suite)
        except ValueError as err:
            raise ConfigError(f"--suite: {err}")
    return cfg


# -- report emission ---------------------------------------------------------


def _emit(cfg: ExperimentConfig, records: list) -> str:
    """Write header + body lines; returns the output path."""
    path = cfg.out
    if path is None:
        base = os.environ.get("CWDYN_OUT_DIR", ".")
        path = os.path.join(base, f"{cfg.command}.jsonl")
    h = cfg.sha256()
    header = {"record": "header", "command": cfg.command,
              "created": datetime.now(timezone.utc).isoformat(),
              "config": cfg.body(), "config_sha256": h}
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for rec in records:
            rec = dict(rec)
            rec["config_sha256"] = h
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return path


def _constants_record(sys_model, consts) -> dict:
    rec = {"record": "constants", "model": sys_model.kind}
    rec.update(dataclasses.asdict(consts))
    rec["tail_bound"] = consts.lam ** (-consts.horizon)
    return rec


def _model_record(sys_model) -> dict:
    rec = {"record": "model", "kind": sys_model.kind, "c": sys_model.c,
           "matrix": [list(r) for r in sys_model.matrix] if sys_model.matrix
                     else None,
           "horizon": sys_model.horizon}
    try:
        rec["expansion_rate"] = sys_model.expansion_rate
    except ModelCapabilityError:
        rec["expansion_rate"] = None
    return rec


def _point_list(p) -> list:
    return [float(v) for v in p.xy()]


# -- commands -----------------------------------------------------------------


def _cmd_calibrate(cfg):
    sys_model = make_model(cfg.model, c=cfg.c)
    try:
        consts = cwmetric.calibrate(sys_model, sample_budget=max(cfg.sample_budget, 400),
                                    seed=cfg.seed)
    except CalibrationError as err:
        rec = {"record": "calibration-failure", "model": sys_model.kind,
               "error": str(err), "witness": getattr(err, "witness", None)}
        return [_model_record(sys_model), rec], \
            [f"calibration failed: {err}", "witness recorded"]
    rec = _constants_record(sys_model, consts)
    rec["record"] = "calibration"
    lines = ["model    m  alpha      n0  lam        xi",
             "{:<8} {:<2} {:<10.6g} {:<3} {:<10.8g} {:.8g}".format(
                 sys_model.kind, consts.m, consts.alpha, consts.n0,
                 consts.lam, consts.xi)]
    return [_model_record(sys_model), rec], lines


def _load_continua(path, chart):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"--continuum {path}: {err.strerror or err}")
    recs = []
    try:
        data = json.loads(text)
        recs = data if isinstance(data, list) else [data]
    except json.JSONDecodeError:
        for i, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                recs.append(json.loads(line))
            except json.JSONDecodeError as err:
                raise ConfigError(f"--continuum {path}: line {i}: {err.msg}")
    conts = []
    for i, rec in enumerate(recs):
        try:
            cont = continua.from_record(rec)
        except (KeyError, TypeError, ValueError, OverflowError) as err:
            raise ConfigError(f"--continuum {path}: record {i}: {err}")
        if cont.chart != chart:
            raise ConfigError(f"--continuum {path}: record {i}: chart "
                              f"{cont.chart!r} does not match model chart {chart!r}")
        conts.append(cont)
    if not conts:
        raise ConfigError(f"--continuum {path}: no continuum records found")
    return conts


def _cmd_metric(cfg):
    if cfg.continuum is None:
        raise ConfigError("--continuum is required for the metric command")
    sys_model = make_model(cfg.model, c=cfg.c)
    conts = _load_continua(cfg.continuum, sys_model.chart)
    consts = cwmetric.calibrate(sys_model, seed=cfg.seed)
    records = [_model_record(sys_model), _constants_record(sys_model, consts)]
    lines = ["idx  N          D          Dprime     P          rho"]
    for i, cont in enumerate(conts):
        prof = cwmetric.cw_metric_profile(sys_model, cont, consts, depth=cfg.depth)
        rec = {"record": "metric", "index": i,
               "n_vertices": cont.n_vertices}
        rec.update({k: (v if not isinstance(v, float) or np.isfinite(v)
                        else "inf") for k, v in prof.items()})
        records.append(rec)
        lines.append("{:<4} {:<10} {:<10.6g} {:<10.6g} {:<10.6g} {:.6g}".format(
            i, str(prof["N"]), prof["D"], prof["Dprime"], prof["P"], prof["rho"]))
    return records, lines


def _cmd_holonomy_probe(cfg):
    sys_model = make_model(cfg.model, c=cfg.c)
    consts = cwmetric.calibrate(sys_model, seed=cfg.seed)
    params = holonomy.default_params(sys_model, sample_budget=cfg.sample_budget,
                                     seed=cfg.seed)
    budget = cfg.budget if cfg.budget is not None else 2000
    rep = holonomy.pseudo_isometry_probe(
        sys_model, budget, (1e-2, 1e-3, 1e-4, 1e-6), params, consts,
        seed=cfg.seed, depth=min(cfg.depth, 3))
    rec = {"record": "holonomy-probe"}
    rec.update(rep)
    lines = [f"{rep['n_samples']} transports, "
             f"best-branch max deviation {rep['max_deviation_best']:.3g}, "
             f"worst {rep['max_deviation_worst']:.3g}",
             "eta        gamma_best   gamma_worst"]
    for row in rep["modulus_table"]:
        lines.append("{:<10.3g} {:<12.6g} {:.6g}".format(
            row["eta"], row["gamma_best"], row["gamma_worst"]))
    return [_model_record(sys_model), _constants_record(sys_model, consts), rec], lines


def _cmd_periodic(cfg):
    if cfg.p is None:
        raise ConfigError("--p is required for the periodic command")
    alpha = cfg.alpha if cfg.alpha is not None else 1e-2
    if alpha <= 0:
        raise ConfigError(f"--alpha must be positive, got {alpha}")
    sys_model = make_model(cfg.model, c=cfg.c)
    consts = cwmetric.calibrate(sys_model, seed=cfg.seed)
    plan = periodic.plan_katok(sys_model, consts, alpha, seed=cfg.seed)
    p = sys_model.point(*cfg.p)
    bound = min(alpha / 2.0, plan.delta / 2.0)
    try:
        y, k = periodic.find_return(sys_model, p, bound, plan.k0)
    except BudgetError as err:
        rec = {"record": "periodic-failure", "p": _point_list(p),
               "error": str(err)}
        return [_model_record(sys_model), _constants_record(sys_model, consts),
                rec], [f"no recurrent pair found: {err}"]
    res = periodic.katok_iterate(sys_model, y, k, plan, consts)
    cert = periodic.verify_periodic(sys_model, res["q"], k)
    rec = {"record": "periodic",
           "params": dataclasses.asdict(plan),
           "p": _point_list(p), "y": _point_list(y), "k": int(k),
           "steps": res["steps"], "q": _point_list(res["q"]),
           "residual": res["residual"], "verified": cert["ok"],
           "envelope_ok": res["envelope_ok"],
           "counterexamples": res["counterexamples"],
           "distance_to_p": models.distance(sys_model, res["q"], p)}
    lines = [f"q = ({rec['q'][0]:.12g}, {rec['q'][1]:.12g})  k = {k}",
             f"residual {rec['residual']:.3g}  envelope_ok {rec['envelope_ok']}  "
             f"steps {len(res['steps'])}"]
    return [_model_record(sys_model), _constants_record(sys_model, consts), rec], lines


def _chain_grid(cfg) -> tuple:
    """The chainrec command's --res and --eps, defaults filled in."""
    res = cfg.resolution if cfg.resolution is not None else 64
    return res, (cfg.eps if cfg.eps is not None else 6.4 / res)


def _cmd_chainrec(cfg):
    sys_model = make_model(cfg.model, c=cfg.c)
    res, eps = _chain_grid(cfg)
    g = chainrec.build_graph(sys_model, res, eps)
    part = chainrec.chain_classes(g)
    orles = chainrec.class_order(sys_model, g, part)
    verdict = chainrec.transitivity_verdict(part)
    rec = {"record": "chainrec"}
    rec.update(chainrec.to_record(g, part, orles, verdict))
    lines = [f"{part.n_classes} chain classes on a {res}x{res} grid "
             f"(eps {eps:g}), verdict {verdict}"]
    for i in range(part.n_classes):
        lines.append(f"class {i}: {part.classes[i].size} cells, "
                     f"role {orles['roles'][i]}")
    return [_model_record(sys_model), rec], lines


def _cmd_sectors(cfg):
    sys_model = make_model(cfg.model, c=cfg.c)
    res = cfg.resolution if cfg.resolution is not None else 64
    spines = sectors.enumerate_spines(sys_model, eps=_SPINE_SCAN_EPS, grid_res=res)
    kw = {}
    if cfg.eps is not None:
        kw["eps"] = cfg.eps
    if cfg.budget is not None:
        kw["budget"] = cfg.budget
    srch = sectors.find_sectors(sys_model, **kw)
    sector_recs = []
    param_reports = []
    for s in srch.sectors:
        try:
            sectors.classify_sector(sys_model, s)
        except sectors.IndeterminateCrossing as err:
            sector_recs.append({**sectors.to_record(s), "indeterminate": str(err)})
            continue
        if s.regular:
            try:
                rep = sectors.sector_parametrization(sys_model, s, grid=cfg.grid)
            except (ValueError, CalibrationError) as err:
                sector_recs.append({**sectors.to_record(s),
                                    "parametrization_error": f"{type(err).__name__}: {err}"})
                continue
            param_reports.append({"spine": [float(v) for v in s.spine.xy()],
                                  **rep["continuity_report"]})
        sector_recs.append(sectors.to_record(s))
    rec = {"record": "sectors",
           "sectors": sector_recs,
           "spines": [[float(v) for v in p.xy()] for p in spines],
           "parametrization_reports": param_reports,
           "seeds_probed": srch.seeds_probed,
           "seeds_planned": srch.seeds_planned,
           "exhausted": srch.exhausted,
           "crossing_counts": {str(k): v for k, v in
                               sorted(srch.crossing_counts.items())}}
    lines = [f"{len(spines)} spines, {len(sector_recs)} minimal sectors, "
             f"{len(param_reports)} parametrized (grid {cfg.grid})"]
    for r, s in zip(sector_recs, srch.sectors):
        lines.append(f"spine {r['spine']}: regular={r['regular']} "
                     f"area {r['area']:.3e}")
    return [_model_record(sys_model), rec], lines


def _cmd_acceptance(cfg):
    man = acceptance.run_suite(cfg.suite, seed=cfg.seed)
    records = acceptance._strip_timing(man["criteria"])
    for rec in records:
        rec["record"] = "acceptance-criterion"
    records.append({"record": "acceptance-manifest",
                    "suite": man["suite"], "seed": man["seed"],
                    "passed": man["passed"],
                    "body_sha256": man["body_sha256"]})
    return records, acceptance.format_lines(man)


# each command's records and summary lines; the parser offers exactly these
_COMMANDS = {"calibrate": _cmd_calibrate, "metric": _cmd_metric,
             "holonomy-probe": _cmd_holonomy_probe, "periodic": _cmd_periodic,
             "chainrec": _cmd_chainrec, "sectors": _cmd_sectors,
             "acceptance": _cmd_acceptance}
COMMANDS = tuple(_COMMANDS)


def run(argv=None) -> int:
    try:
        cfg = parse_config(sys.argv[1:] if argv is None else list(argv))
    except ConfigError as err:
        print(f"cwdyn: config error: {err}", file=sys.stderr)
        return 1

    try:
        records, lines = _COMMANDS[cfg.command](cfg)
    except ConfigError as err:
        print(f"cwdyn: config error: {err}", file=sys.stderr)
        return 1
    except (ValueError, CalibrationError, BudgetError, holonomy.HolonomyFault,
            chainrec.DiscretizationError, sectors.IndeterminateCrossing) as err:
        print(f"cwdyn: {type(err).__name__}: {err}", file=sys.stderr)
        return 1

    path = _emit(cfg, records)
    for line in lines:
        print(line)
    print(f"report: {path}")
    failed = any(rec["record"] == "acceptance-manifest" and not rec["passed"]
                 for rec in records)
    return 2 if failed else 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
