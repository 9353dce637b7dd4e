import json
import os
import subprocess
import sys

import pytest

from cwdyn import acceptance, chainrec, cli, continua, cwmetric, holonomy, models, sectors
from cwdyn.cli import ConfigError, ExperimentConfig, parse_config


def read_report(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def run_err(args, capsys):
    rc = cli.run(args)
    return rc, capsys.readouterr().err


@pytest.fixture()
def outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("CWDYN_OUT_DIR", str(tmp_path))
    return tmp_path


@pytest.fixture(scope="module")
def cont_file(tmp_path_factory):
    # one singleton, one small stable arc
    d = tmp_path_factory.mktemp("conts")
    sys_m = models.make_model("cat-map")
    single = continua.MarkedContinuum("torus", [[0.3, 0.4]], 0, 0)
    arc = models.local_arc(sys_m, sys_m.point(0.2, 0.2), "stable", 1e-4)
    path = d / "conts.json"
    path.write_text(json.dumps([continua.to_record(single),
                                continua.to_record(arc)]))
    return str(path)


class TestParseConfig:
    def test_defaults_and_aliases(self):
        cfg = parse_config(["chainrec", "--model", "pa", "--res", "64"])
        assert cfg.model == "sphere-pA"
        assert cfg.resolution == 64
        assert cfg.seed == 0 and cfg.depth == 4

    def test_point_parsing(self):
        cfg = parse_config(["periodic", "--p", "0.2,0.4"])
        assert cfg.p == (0.2, 0.4)

    @pytest.mark.parametrize("argv, where", [
        (["periodic", "--p", "0.2"], "--p"),
        (["periodic", "--p", "a,b"], "--p"),
        (["chainrec", "--model", "dog"], "--model"),
        (["chainrec", "--res", "-4"], "--res"),
        (["chainrec", "--depth", "0"], "--depth"),
        (["sectors", "--grid", "-1"], "--grid"),
        (["chainrec", "--budget", "0"], "--budget"),
        (["periodic", "--p", "nan,0.4"], "--p"),
        (["periodic", "--p", "0.2,inf"], "--p"),
        (["periodic", "--p", "-Infinity,0.4"], "--p"),
        (["chainrec", "--eps", "inf"], "--eps"),
        (["chainrec", "--eps", "nan"], "--eps"),
        (["periodic", "--p", "0.2,0.4", "--alpha", "inf"], "--alpha"),
        (["calibrate", "--c", "nan"], "--c"),
        (["chainrec", "--model", "cat", "--res", "1", "--eps", "0.5"], "--res"),
        (["chainrec", "--model", "cat", "--res", "8", "--eps", "0.001"], "--eps"),
        (["sectors", "--model", "sphere-pA", "--grid", "1"], "--grid"),
        (["sectors", "--model", "sphere-pA", "--res", "1"], "--res"),
        (["sectors", "--model", "sphere-pA", "--eps", "0.3"], "--eps"),
        (["sectors", "--model", "sphere-pA", "--c", "0.2", "--eps", "0.2"], "--eps"),
        (["sectors", "--model", "sphere-pA", "--c", "0.08"], "--c"),
        (["sectors", "--model", "sphere-pA", "--c", "0.1"], "--c"),
        (["calibrate", "--seed", "-1"], "--seed"),
        (["periodic", "--p", "0.2,0.4", "--seed", "-1"], "--seed"),
        (["holonomy-probe", "--seed", "-1"], "--seed"),
        (["holonomy-probe", "--sample-budget", "-5"], "--sample-budget"),
        (["holonomy-probe", "--sample-budget", "0"], "--sample-budget"),
    ])
    def test_bad_flags_name_the_flag(self, argv, where):
        with pytest.raises(ConfigError, match=where.replace("-", "[-]")):
            parse_config(argv)

    @pytest.mark.parametrize("text, where", [
        ('{"eps": Infinity}', "--eps"),
        ('{"eps": NaN}', "--eps"),
        ('{"eps": "x"}', "--eps"),
        ('{"alpha": 1e400}', "--alpha"),
        ('{"c": true}', "--c"),
        ('{"depth": "4"}', "--depth"),
        ('{"seed": 1.5}', "--seed"),
        ('{"resolution": [64]}', "--res"),
        ('{"sample_budget": false}', "--sample-budget"),
        ('{"sample_budget": 0}', "--sample-budget"),
        ('{"seed": -1}', "--seed"),
        ('{"p": [0.2]}', "--p"),
        ('{"p": [0.2, 0.4, 0.6]}', "--p"),
        ('{"p": [0.2, "0.4"]}', "--p"),
        ('{"p": [true, 0.4]}', "--p"),
        ('{"p": [0.2, Infinity]}', "--p"),
        ('{"p": [1e999999, 0.4]}', "--p"),
        ('{"command": "periodic"}', "periodic"),
    ])
    def test_bad_config_values_name_the_flag(self, tmp_path, text, where):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(text)
        with pytest.raises(ConfigError, match=where.replace("-", "[-]")):
            parse_config(["chainrec", "--config", str(cfgfile)])

    def test_config_values_hash_like_flags(self, tmp_path):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"depth": 4, "eps": 1}))
        from_file = parse_config(["chainrec", "--config", str(cfgfile)])
        from_flags = parse_config(["chainrec", "--depth", "4", "--eps", "1"])
        assert from_file.eps == 1.0 and isinstance(from_file.eps, float)
        assert from_file.sha256() == from_flags.sha256()

    def test_non_finite_eps_exits_one(self, outdir, capsys):
        rc, err = run_err(["chainrec", "--eps", "inf"], capsys)
        assert rc == 1 and "--eps" in err and "Traceback" not in err

    def test_config_file_merge_and_override(self, tmp_path):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps(
            {"model": "pa", "resolution": 128, "eps": 0.05}))
        cfg = parse_config(["chainrec", "--config", str(cfgfile),
                            "--res", "64"])
        assert cfg.model == "sphere-pA"
        assert cfg.resolution == 64          # flag wins
        assert cfg.eps == 0.05               # file fills the rest

    def test_config_file_errors(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        with pytest.raises(ConfigError, match="line 1"):
            parse_config(["chainrec", "--config", str(bad)])
        bad.write_text(json.dumps({"modle": "pa"}))
        with pytest.raises(ConfigError, match="modle"):
            parse_config(["chainrec", "--config", str(bad)])
        bad.write_text(json.dumps([1, 2]))
        with pytest.raises(ConfigError, match="object"):
            parse_config(["chainrec", "--config", str(bad)])

    def test_hash_ignores_out(self):
        a = parse_config(["calibrate", "--model", "cat", "--out", "x.jsonl"])
        b = parse_config(["calibrate", "--model", "cat", "--out", "y.jsonl"])
        assert a.sha256() == b.sha256()
        c = parse_config(["calibrate", "--model", "cat", "--seed", "1"])
        assert c.sha256() != a.sha256()


class TestCalibrate:
    def test_cat_constants(self, outdir):
        assert cli.run(["calibrate", "--model", "cat"]) == 0
        recs = read_report(outdir / "calibrate.jsonl")
        assert recs[0]["record"] == "header"
        assert "created" in recs[0]
        cal = next(r for r in recs if r["record"] == "calibration")
        assert cal["m"] == 1 and cal["alpha"] == 2.0 and cal["n0"] == 3
        assert cal["tail_bound"] == pytest.approx(cal["lam"] ** -cal["horizon"])
        # body records never carry wall-clock fields
        assert all("created" not in r and "seconds" not in r for r in recs[1:])
        assert all(r["config_sha256"] == recs[0]["config_sha256"]
                   for r in recs[1:])

    def test_north_south_witness_record(self, outdir):
        assert cli.run(["calibrate", "--model", "ns"]) == 0
        recs = read_report(outdir / "calibrate.jsonl")
        fail = next(r for r in recs if r["record"] == "calibration-failure")
        assert fail["witness"]["kind"] == "meridian-arc"


class TestMetric:
    def test_singleton_gets_zero_record(self, outdir, cont_file):
        assert cli.run(["metric", "--model", "cat", "--depth", "3",
                        "--continuum", cont_file]) == 0
        recs = read_report(outdir / "metric.jsonl")
        mrecs = [r for r in recs if r["record"] == "metric"]
        assert mrecs[0]["D"] == 0.0
        assert mrecs[0]["N"] == "inf" and mrecs[0]["rho"] == 0.0
        for key in ("N", "rho", "P", "Dprime", "D", "achieved_index",
                    "tail_bound"):
            assert key in mrecs[1]
        assert mrecs[1]["D"] > 0

    def test_depth_memory_capped_before_calibration(self, outdir, cont_file, capsys,
                                                     monkeypatch):
        # the cap is parsed, never evaluated; one past it is refused before
        # the continua load or calibration runs
        def work(*args, **kwargs):
            raise AssertionError("calibration ran")

        monkeypatch.setattr(cwmetric, "calibrate", work)
        cap = max(d for d in range(1, 30)
                  if cwmetric.evaluator_bytes(d) <= cli._DEPTH_MEMORY_CAP)
        assert parse_config(["metric", "--depth", str(cap)]).depth == cap
        with pytest.raises(ConfigError, match=f"^--depth {cap + 1} needs about "):
            parse_config(["metric", "--depth", str(cap + 1)])
        rc, err = run_err(["metric", "--model", "pa", "--depth", str(cap + 1),
                           "--continuum", cont_file], capsys)
        assert rc == 1 and err.startswith(f"cwdyn: config error: --depth {cap + 1} needs ")
        assert "MiB cap" in err
        assert not (outdir / "metric.jsonl").exists()
        # a depth far past any layout is refused without computing 2^depth
        with pytest.raises(ConfigError, match="^--depth 1000000000 "):
            parse_config(["metric", "--depth", "1000000000"])

    def test_requires_continuum(self, capsys):
        rc, err = run_err(["metric", "--model", "cat"], capsys)
        assert rc == 1 and "--continuum" in err

    def test_chart_mismatch(self, outdir, cont_file, capsys):
        rc, err = run_err(["metric", "--model", "pa",
                           "--continuum", cont_file], capsys)
        assert rc == 1 and "chart" in err

    # marks are JSON integers and vertex coordinates finite JSON numbers: a
    # float mark would be truncated, a string or bool coordinate cast, and
    # an integer past float64's range would not convert
    @pytest.mark.parametrize("bad, why", [
        *(pytest.param('[[0.1, %s], [0.1, 0.2]], "mark_p": 0, "mark_q": 1' % v, "finite", id=v)
          for v in ("NaN", "Infinity", "-Infinity")),
        pytest.param('[[0.2, 0.2], [0.2001, 0.2]], "mark_p": 0.9, "mark_q": 1', "integers",
                     id="float-mark"),
        pytest.param('[[0.2, 0.2], [0.2001, 0.2], [0.2002, 0.2]], "mark_p": 0, "mark_q": "2"',
                     "integers", id="string-mark"),
        pytest.param('[[0.2, 0.2], [0.2001, 0.2]], "mark_p": true, "mark_q": 1', "integers",
                     id="bool-mark"),
        pytest.param('[["0.2", "0.2"], [0.2001, 0.2]], "mark_p": 0, "mark_q": 1', "numbers",
                     id="string-vertex"),
        pytest.param('[[0.2, 0.2], [0.2001, true]], "mark_p": 0, "mark_q": 1', "numbers",
                     id="bool-vertex"),
        pytest.param('[[0.2, 0.2], [0.2001, 1%s]], "mark_p": 0, "mark_q": 1' % ("0" * 400),
                     "too large", id="huge-int-vertex"),
    ])
    def test_non_finite_vertex_names_the_record(self, outdir, capsys, bad, why):
        path = outdir / "bad.jsonl"
        path.write_text('{"chart": "torus", "vertices": [[0.1, 0.2], [0.1, 0.2001]], '
                        '"mark_p": 0, "mark_q": 1}\n'
                        '{"chart": "torus", "vertices": %s}\n' % bad)
        rc, err = run_err(["metric", "--model", "cat", "--continuum", str(path)],
                          capsys)
        assert rc == 1
        assert "config error" in err and "record 1" in err and why in err

    def test_long_record_edge_names_the_record(self, outdir, capsys):
        path = outdir / "long.json"
        path.write_text('{"chart": "torus", "vertices": [[0.1, 0.1], [0.6, 0.6]], '
                        '"mark_p": 0, "mark_q": 1}')
        rc, err = run_err(["metric", "--model", "cat", "--continuum", str(path)], capsys)
        assert rc == 1
        assert "config error" in err and "record 0" in err
        assert "consecutive vertices exceed one chart step (max 0.7071 >= 0.5)" in err


class TestPeriodic:
    def test_rational_seed_snaps_to_orbit(self, outdir):
        assert cli.run(["periodic", "--model", "cat", "--p", "0.2,0.4",
                        "--alpha", "1e-2"]) == 0
        recs = read_report(outdir / "periodic.jsonl")
        rec = next(r for r in recs if r["record"] == "periodic")
        assert rec["q"] == [0.2, 0.4]
        assert rec["residual"] < 1e-9
        assert rec["envelope_ok"] and rec["verified"]
        assert rec["distance_to_p"] < 1e-2
        assert rec["params"]["alpha_target"] == 1e-2

    def test_distance_to_p_is_the_chart_distance(self, outdir):
        # q = (0, 0.5) lies across the torus seam from p, 5e-4 away
        assert cli.run(["periodic", "--model", "cat", "--p", "0.9995,0.5"]) == 0
        rec = next(r for r in read_report(outdir / "periodic.jsonl")
                   if r["record"] == "periodic")
        assert rec["q"] == [0.0, 0.5]
        assert rec["distance_to_p"] == pytest.approx(5e-4, abs=1e-12)

    def test_header_config_replays(self, outdir, tmp_path):
        # the header's config, fed back through --config, is the same config
        assert cli.run(["periodic", "--model", "cat", "--p", "0.2,0.4",
                        "--alpha", "1e-2"]) == 0
        header = read_report(outdir / "periodic.jsonl")[0]
        assert header["config"]["p"] == [0.2, 0.4]
        cfgfile = tmp_path / "replay.json"
        cfgfile.write_text(json.dumps(header["config"]))
        cfg = parse_config(["periodic", "--config", str(cfgfile)])
        assert cfg.p == (0.2, 0.4)
        assert cfg.sha256() == header["config_sha256"]

    def test_bad_alpha(self, capsys):
        rc, err = run_err(["periodic", "--model", "cat", "--p", "0.1,0.1",
                           "--alpha", "0"], capsys)
        assert rc == 1 and "--alpha" in err


class TestHolonomyProbe:
    def test_cat_report_schema(self, outdir):
        assert cli.run(["holonomy-probe", "--model", "cat",
                        "--budget", "50"]) == 0
        recs = read_report(outdir / "holonomy-probe.jsonl")
        rec = next(r for r in recs if r["record"] == "holonomy-probe")
        assert rec["n_samples"] == 50
        assert rec["obstructions"] == []
        assert rec["max_deviation_best"] <= 1e-10
        etas = [row["eta"] for row in rec["modulus_table"]]
        assert etas == sorted(etas)
        assert all(row["gamma_worst"] > 0 for row in rec["modulus_table"])


class TestChainrec:
    def test_north_south_schema(self, outdir):
        assert cli.run(["chainrec", "--model", "north-south",
                        "--res", "128", "--eps", "0.01"]) == 0
        recs = read_report(outdir / "chainrec.jsonl")
        rec = next(r for r in recs if r["record"] == "chainrec")
        for key in ("classes", "order", "roles", "verdict"):
            assert key in rec
        assert len(rec["classes"]) == 2
        assert rec["verdict"] == "not-transitive"
        assert sorted(rec["roles"].values()) == ["attractor", "repeller"]
        rep = next(int(k) for k, v in rec["roles"].items() if v == "repeller")
        att = next(int(k) for k, v in rec["roles"].items() if v == "attractor")
        assert rec["order"] == [[rep, att]]

    def test_eps_below_grid_is_config_error(self, outdir, capsys):
        rc, msg = run_err(["chainrec", "--model", "cat", "--res", "8",
                           "--eps", "0.001"], capsys)
        assert rc == 1
        assert msg.startswith("cwdyn: config error: --eps 0.001 below half")
        assert not (outdir / "chainrec.jsonl").exists()


    @pytest.mark.parametrize("model,res,eps", [("cat-map", 300, 0.03),
                                               ("sphere-pA", 300, 0.03),
                                               ("north-south", 300, 0.03)])
    def test_graph_memory_capped_before_the_build(self, outdir, capsys, monkeypatch,
                                                  model, res, eps):
        # the cap is parsed, never built: an estimate at the cap passes,
        # and one a byte past it is refused before build_graph runs
        def work(*args, **kwargs):
            raise AssertionError("the graph was built")

        monkeypatch.setattr(chainrec, "build_graph", work)
        argv = ["chainrec", "--model", model, "--res", str(res), "--eps", str(eps)]
        need = chainrec.graph_bytes(cli.make_model(model).chart, res, eps)
        monkeypatch.setattr(cli, "_GRAPH_MEMORY_CAP", need)
        assert parse_config(argv).resolution == res
        monkeypatch.setattr(cli, "_GRAPH_MEMORY_CAP", need - 1)
        with pytest.raises(ConfigError, match=f"^--res {res} and --eps {eps} need about "):
            parse_config(argv)
        rc, err = run_err(argv, capsys)
        assert rc == 1 and err.startswith(f"cwdyn: config error: --res {res} and --eps ")
        assert "MiB cap" in err
        assert not (outdir / "chainrec.jsonl").exists()

    @pytest.mark.parametrize("argv", [
        ["chainrec"], ["chainrec", "--model", "pa"], ["chainrec", "--model", "ns"],
        *(["chainrec", "--model", m, "--res", str(r), "--eps", str(6.4 / r)]
          for m in ("cat", "pa") for r in (128, 256)),
        *(["chainrec", "--model", "ns", "--res", str(r), "--eps", "0.01"] for r in (128, 256))])
    def test_default_and_benchmark_grids_fit_the_cap(self, argv):
        cfg = parse_config(argv)
        res, eps = cli._chain_grid(cfg)
        assert chainrec.graph_bytes(cli.make_model(cfg.model).chart, res, eps) \
            <= cli._GRAPH_MEMORY_CAP

    @pytest.mark.parametrize("model,res", [("pa", 1024), ("cat", 100_000), ("ns", 100_000)])
    def test_large_grids_are_refused(self, model, res):
        # estimated from --res alone: no array of res**2 cells is made
        with pytest.raises(ConfigError, match=f"^--res {res} and --eps .* lower --res or --eps"):
            parse_config(["chainrec", "--model", model, "--res", str(res)])


class TestSectors:
    def test_sphere_pa_report(self, outdir):
        assert cli.run(["sectors", "--model", "pa", "--res", "64",
                        "--grid", "8"]) == 0
        recs = read_report(outdir / "sectors.jsonl")
        rec = next(r for r in recs if r["record"] == "sectors")
        assert len(rec["spines"]) == 4
        assert len(rec["sectors"]) == 4
        assert all(s["regular"] for s in rec["sectors"])
        assert len(rec["parametrization_reports"]) == 4
        assert all(r["monotone_violations"] == 0 and r["injective_ok"]
                   for r in rec["parametrization_reports"])
        assert not rec["exhausted"]

    def test_flags_checked_before_any_work(self, outdir, capsys, monkeypatch):
        def work(*args, **kwargs):
            raise AssertionError("the spine scan ran")

        monkeypatch.setattr(sectors, "enumerate_spines", work)
        for flag, val in (("--grid", "1"), ("--res", "1"), ("--eps", "0.3")):
            rc, err = run_err(["sectors", "--model", "pa", flag, val], capsys)
            assert rc == 1 and err.startswith(f"cwdyn: config error: {flag} ")
        assert not (outdir / "sectors.jsonl").exists()

    def test_c_checked_against_the_spine_scan(self, outdir, capsys, monkeypatch):
        # the spine scan's arcs have a fixed half-length, which must lie below c
        def work(*args, **kwargs):
            raise AssertionError("the spine scan ran")

        monkeypatch.setattr(sectors, "enumerate_spines", work)
        rc, err = run_err(["sectors", "--model", "pa", "--c", "0.08"], capsys)
        assert rc == 1 and err.startswith("cwdyn: config error: --c ")
        assert "0.1" in err
        assert not (outdir / "sectors.jsonl").exists()
        assert parse_config(["sectors", "--model", "pa", "--c", "0.12"]).c == 0.12

    def test_eps_checked_against_c_flag(self):
        cfg = parse_config(["sectors", "--model", "pa", "--c", "0.5", "--eps", "0.3"])
        assert cfg.eps == 0.3

    def test_grid_memory_capped_before_any_work(self, outdir, capsys, monkeypatch):
        def work(*args, **kwargs):
            raise AssertionError("the spine scan ran")

        monkeypatch.setattr(sectors, "enumerate_spines", work)
        cap = max(g for g in range(2, 4096)
                  if sectors.parametrization_bytes(g) <= cli._GRID_MEMORY_CAP)
        assert parse_config(["sectors", "--model", "pa", "--grid", str(cap - 1)]).grid == cap - 1
        assert parse_config(["sectors", "--model", "pa", "--grid", str(cap)]).grid == cap
        rc, err = run_err(["sectors", "--model", "pa", "--grid", str(cap + 1)], capsys)
        assert rc == 1 and err.startswith(f"cwdyn: config error: --grid {cap + 1} needs about ")
        assert "MiB cap" in err
        assert not (outdir / "sectors.jsonl").exists()

    @pytest.mark.parametrize("factor, error", [
        (0.5, "ValueError: parametrization arcs fail to cross"),
        (100.0, "CalibrationError: sector needs arcs of radius")])
    def test_parametrization_failure_is_recorded(self, outdir, monkeypatch, factor, error):
        # arcs too short to cross, or too long for the scale c: each sector
        # records its failure, as classification records indeterminate
        monkeypatch.setattr(sectors, "_R1_FACTOR", factor)
        assert cli.run(["sectors", "--model", "pa", "--grid", "8"]) == 0
        rec = next(r for r in read_report(outdir / "sectors.jsonl")
                   if r["record"] == "sectors")
        assert rec["parametrization_reports"] == [] and len(rec["sectors"]) == 4
        assert all(s["regular"] and s["parametrization_error"].startswith(error)
                   for s in rec["sectors"])

    def test_cat_has_no_spines(self, outdir):
        assert cli.run(["sectors", "--model", "cat"]) == 0
        rec = next(r for r in read_report(outdir / "sectors.jsonl")
                   if r["record"] == "sectors")
        assert rec["spines"] == [] and rec["sectors"] == []


class TestReports:
    def test_out_flag_beats_env(self, outdir, tmp_path):
        out = tmp_path / "sub" / "cal.jsonl"
        assert cli.run(["calibrate", "--model", "cat",
                        "--out", str(out)]) == 0
        assert out.exists()
        assert not (outdir / "calibrate.jsonl").exists()

    def test_bodies_reproducible(self, tmp_path, cont_file):
        paths = [str(tmp_path / f"m{i}.jsonl") for i in (1, 2)]
        for p in paths:
            assert cli.run(["metric", "--model", "cat", "--depth", "3",
                            "--continuum", cont_file, "--out", p]) == 0
        a, b = (open(p).readlines() for p in paths)
        ha, hb = json.loads(a[0]), json.loads(b[0])
        ha.pop("created"), hb.pop("created")
        assert ha == hb         # headers differ only by timestamp
        assert a[1:] == b[1:]   # identical bytes below the header

    def test_acceptance_bodies_reproducible(self, tmp_path):
        paths = [str(tmp_path / f"a{i}.jsonl") for i in (1, 2)]
        for p in paths:
            assert cli.run(["acceptance", "--suite", "5", "--out", p]) == 0
        a, b = (open(p).readlines() for p in paths)
        assert a[1:] == b[1:]


class TestAcceptanceCommand:
    def test_pass_exit_zero(self, outdir, capsys):
        assert cli.run(["acceptance", "--suite", "5"]) == 0
        out = capsys.readouterr().out
        assert "criterion  5 PASS" in out
        assert "acceptance PASSED: 1/1" in out
        recs = read_report(outdir / "acceptance.jsonl")
        man = next(r for r in recs if r["record"] == "acceptance-manifest")
        assert man["passed"] is True
        crit = next(r for r in recs if r["record"] == "acceptance-criterion")
        assert "seconds" not in crit

    def test_failure_exits_two(self, outdir, capsys):
        idx, orig = next((i, ent) for i, ent in enumerate(acceptance._CRITERIA)
                         if ent[0] == 5)
        acceptance._CRITERIA[idx] = (
            5, orig[1], orig[2],
            lambda ctx: (False, {"forced": True}, "forced failure"))
        try:
            assert cli.run(["acceptance", "--suite", "5"]) == 2
        finally:
            acceptance._CRITERIA[idx] = orig
        assert "FAIL" in capsys.readouterr().out
        man = next(r for r in read_report(outdir / "acceptance.jsonl")
                   if r["record"] == "acceptance-manifest")
        assert man["passed"] is False

    def test_bad_suite(self, capsys):
        rc, err = run_err(["acceptance", "--suite", "0,99"], capsys)
        assert rc == 1 and "--suite" in err


class TestTypedErrors:
    @pytest.mark.parametrize("argv, module, name, err", [
        (["holonomy-probe", "--model", "cat"], holonomy, "pseudo_isometry_probe",
         holonomy.HolonomyFault("no crossing")),
        (["chainrec", "--model", "cat"], chainrec, "build_graph",
         chainrec.DiscretizationError("grid too coarse")),
        (["sectors", "--model", "pa"], sectors, "enumerate_spines",
         sectors.IndeterminateCrossing("too close to the boundary")),
    ], ids=["HolonomyFault", "DiscretizationError", "IndeterminateCrossing"])
    def test_exit_one_without_traceback(self, outdir, capsys, monkeypatch,
                                        argv, module, name, err):
        def fail(*args, **kwargs):
            raise err

        monkeypatch.setattr(module, name, fail)
        rc, msg = run_err(argv, capsys)
        assert rc == 1
        assert msg == f"cwdyn: {type(err).__name__}: {err}\n"
        assert not (outdir / f"{argv[0]}.jsonl").exists()


def test_module_entry_point():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p)
    for module in ("cwdyn", "cwdyn.cli"):
        proc = subprocess.run([sys.executable, "-m", module, "--help"], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "usage: cwdyn" in proc.stdout


def test_import_leaves_scipy_sparse_unloaded():
    # chainrec imports scipy only where a graph is built or read
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p)
    code = "import sys, cwdyn.cli; print('scipy.sparse' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
