"""Run one cwdyn benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload metric-fresh --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout: cwdyn is imported from ./src.
The run sets up (imports, models, calibration, inputs made from --seed),
then runs whole rounds of the workload's fixed item batch until the
timed item calls add up to --seconds, checks every output of the first
round and that later rounds repeat it exactly.  The last line of stdout
is {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics.  --trace 1 runs a checked
round, a traced round and an untraced one, reports every per-layer
metric, and writes the spans to perfbench/out/.

Exit status: 0 when every check passed, 1 when a check failed, 2 when
the run could not start (no ./src/cwdyn, bad arguments).
"""

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
STAGES = ("escape_time", "escape_weight", "chain_weight", "window_weight", "cw_metric")
# Item timings are scaled to a reference speed: the speed at which one
# reference slice takes REF_SLICE_S.  The host's other tenants slow this machine by up
# to 2x for spells of a fraction of a second to tens of seconds; a fixed
# slice timed next to the work shows the same slowdown, and dividing it out
# keeps the figures of one commit steady from run to run.
REF_SLICE_S = 0.002
REF_EVERY_S = 0.1        # item seconds between two reference samples


def _reference_slice():
    """Fixed pure-Python work that calls nothing in cwdyn."""
    acc, table = 0, {}
    for i in range(6000):
        acc = (acc * 31 + i) % 1000003
        table[i & 255] = math.sqrt(i + 1.0) * 0.5
    return acc + len(table)


def reference_sample():
    """Median time of three reference slices."""
    ts = []
    for _ in range(3):
        t = time.perf_counter()
        _reference_slice()
        ts.append(time.perf_counter() - t)
    return statistics.median(ts)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="timed item seconds to reach, in whole rounds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: a few items per kind, for the benchmark's own tests")
    return ap.parse_args(argv)


def _cannot_start(message):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_library():
    """Import cwdyn from ./src of this checkout, and the benchmark modules."""
    if not os.path.isfile(os.path.join(SRC, "cwdyn", "__init__.py")):
        _cannot_start(f"no cwdyn sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import cwdyn
    if os.path.dirname(os.path.dirname(os.path.abspath(cwdyn.__file__))) != SRC:
        _cannot_start(f"cwdyn was imported from {cwdyn.__file__}, not {SRC}")
    import tracing
    import workloads
    return tracing, workloads


class Round:
    def __init__(self):
        self.summaries = []
        self.times = []          # seconds per item, as measured
        self.scaled = []         # the same, at the reference speed
        self.failed = set()
        self.problems = []


def run_round(work, checking, tracer=None):
    """One pass over the batch; each item is timed alone, checks are not.

    Reference samples are taken before the first item, after every
    REF_EVERY_S of item time and after the last item; an item's time is
    scaled by the mean of the samples on either side of it.
    """
    rnd = Round()
    refs = [(0, reference_sample())]
    since = 0.0
    for idx, item in enumerate(work.items):
        if since >= REF_EVERY_S:
            refs.append((idx, reference_sample()))
            since = 0.0
        if tracer is not None:
            tracer.item = idx
        t = time.perf_counter()
        try:
            out = item.run()
        except Exception as exc:  # an item that raises counts as failed
            rnd.times.append(time.perf_counter() - t)
            rnd.failed.add(idx)
            rnd.summaries.append(f"error: {type(exc).__name__}: {exc}")
            continue
        finally:
            if tracer is not None:
                tracer.item = None
        rnd.times.append(time.perf_counter() - t)
        since += rnd.times[-1]
        rnd.summaries.append(json.loads(json.dumps(item.summary(out))))
        if item.failed is not None and item.failed(out):
            rnd.failed.add(idx)
        elif checking and item.check is not None:
            rnd.problems += [f"item {idx} ({item.kind}): {m}" for m in item.check(out)]
        del out
    refs.append((len(work.items), reference_sample()))
    j = 0
    for idx, t in enumerate(rnd.times):
        while refs[j + 1][0] <= idx:
            j += 1
        rnd.scaled.append(t * REF_SLICE_S / (0.5 * (refs[j][1] + refs[j + 1][1])))
    if work.round_check is not None:
        ok = {i: s for i, s in enumerate(rnd.summaries) if i not in rnd.failed}
        problems, failed = work.round_check(ok)
        rnd.failed |= failed
        if checking:
            rnd.problems += problems
    return rnd


def stage_seconds(work, cwmetric):
    """Seconds per public pipeline stage over the stage sample; each stage
    recomputes the ones before it."""
    out = {}
    for stage in STAGES:
        fn = getattr(cwmetric, stage)
        t = time.perf_counter()
        for sys_model, cont, consts, depth in work.stage_sample:
            if stage in ("escape_time", "escape_weight"):
                fn(sys_model, cont, consts)
            else:
                fn(sys_model, cont, consts, depth=depth)
        out[f"cwmetric.stage.{stage}.s"] = time.perf_counter() - t
    return out


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    args = parse_args(argv)
    # one BLAS thread, set before numpy loads: the reference machine has two
    # cores, and the figures must not depend on how many a BLAS pool grabs
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    t0 = time.perf_counter()
    tracing, workloads = import_library()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    work = workloads.build(args.workload, args.seed, args.scale)
    # as measured, not scaled: samples before and after 1-14 s of set-up say
    # little about the speed during it, and scaled set-up times spread wider
    setup_s = time.perf_counter() - t0

    if tracer is None:
        rounds, timed = [], 0.0
        while not rounds or timed < args.seconds:
            rounds.append(run_round(work, checking=not rounds))
            timed += sum(rounds[-1].times)
    else:
        # a checked warm-up round, the traced round, then an untraced round
        # to hold the traced one against
        tracer.uninstall()
        rounds = [run_round(work, checking=True)]
        tracer.install()
        rounds.append(run_round(work, checking=False, tracer=tracer))
        tracer.uninstall()
        rounds.append(run_round(work, checking=False))
    first = rounds[0]
    problems = list(first.problems)
    for n, rnd in enumerate(rounds[1:], 2):
        if rnd.summaries != first.summaries:
            problems.append(f"round {n} output differs from round 1")
    attempted = len(work.items) * len(rounds)
    failed = sum(len(r.failed) for r in rounds)
    # the traced run prints the traced round's digest
    out_digest = workloads.digest(rounds[1 if tracer else 0].summaries)

    if tracer is None:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        def per_item(attr):
            # each item's median over the rounds
            return [statistics.median(ts) for ts in zip(*(getattr(r, attr) for r in rounds))]

        raw = per_item("times")
        times = per_item("scaled") if work.scale_items else raw
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "items_per_s": metric(len(times) / sum(times), "items/s"),
            "item_p50_ms": metric(statistics.median(times) * 1e3, "ms"),
            "peak_rss_mb": metric(peak_mb, "MB"),
        }
        note = (f"as measured: items_per_s={len(raw) / sum(raw):.4f} "
                f"item_p50_ms={statistics.median(raw) * 1e3:.4f}")
    else:
        import cwdyn.cwmetric as cwmetric
        extra = {f"cwmetric.stage.{s}.s": 0.0 for s in STAGES}
        if work.stage_sample:
            extra.update(stage_seconds(work, cwmetric))
        # scaled like the end-to-end figures: the overhead is smaller than
        # the host's swings between two rounds
        kind = "scaled" if work.scale_items else "times"
        extra["trace.overhead_s"] = sum(getattr(rounds[1], kind)) - sum(getattr(rounds[2], kind))
        metrics = tracer.layer_metrics(SPEC["per_layer"], extra)
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl"))
        note = f"traced_s={sum(rounds[1].times):.3f} untraced_s={sum(rounds[2].times):.3f}"

    correct = not problems
    for p in problems:
        print(f"# check failed: {p}")
    print(f"# workload={args.workload} seed={args.seed} scale={args.scale} "
          f"trace={args.trace} rounds={len(rounds)} items={len(work.items)} "
          f"digest={out_digest} {note}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
