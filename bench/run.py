"""slopechain benchmark: one workload, one seed, closed loop, in-process.

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0

One client runs the seed's task list (one CLI subcommand on one generated
config per task, through `slopechain.cli.run` with `--out`) again and again,
each task after the previous one ends, while another whole pass still fits
in `--seconds`; the first pass always runs in full.  Every output goes
through the gate: a task fails on a traceback, an exit code other than 0 or
2, an independent oracle, or a report that differs from the digest recorded
for it in `digests.json`.  Exit 2 is a certificate verdict and is counted,
not failed.  Task and set-up times are normalized to a reference host speed
(see `harness.reference_probe`).

With `--trace 0` the end-to-end metrics are printed; with `--trace 1` one
untraced pass and then one traced pass run, and the per-layer metrics of the
traced pass are printed.  The last line of standard output is the result
object; the lines before it are a readable summary.  Run outputs (results
and span files) go to `bench/out/`.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from collections import Counter
from time import perf_counter

import harness
from harness import (
    OUT,
    SetupError,
    Task,
    calibrate,
    digest,
    load_digests,
    load_package,
    normalized,
    reference_probe,
)
from spans import Tracer
from workloads import WORKLOADS

SETUP_REPEATS = 5

END_TO_END = (
    ("wall_s", "s"),
    ("task_p50_ms", "ms"),
    ("task_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)

# (metric, unit, better): the per-layer metrics of a traced run
PER_LAYER = (
    ("model.enumerate_closures.calls", "count", "lower"),
    ("model.enumerate_closures.self_s", "s", "lower"),
    ("model.enumerate_closures.closures", "count", "higher"),
    ("model.enumerate_closures.attempts", "count", "lower"),
    ("model.enumerate_closures.useful_ratio", "ratio", "higher"),
    ("model.closure.calls", "count", "lower"),
    ("model.closure.self_s", "s", "lower"),
    ("model.rank_profile.calls", "count", "lower"),
    ("model.rank_profile.self_s", "s", "lower"),
    ("model.span_contains.calls", "count", "lower"),
    ("model.span_contains.self_s", "s", "lower"),
    ("chain.build_chain.calls", "count", "lower"),
    ("chain.build_chain.self_s", "s", "lower"),
    ("chain.verify_chain.self_s", "s", "lower"),
    ("chain.verify_chain.candidates", "count", "lower"),
    ("linalg.rat_rref.calls", "count", "lower"),
    ("linalg.rat_rref.self_s", "s", "lower"),
    ("linalg.rat_rref.max_rows", "count", "lower"),
    ("linalg.rat_rref.max_cols", "count", "lower"),
    ("linalg.rat_rref.max_entry_bits", "bits", "lower"),
    ("linalg.nullspace.calls", "count", "lower"),
    ("linalg.nullspace.self_s", "s", "lower"),
    ("linalg.hnf_transform.calls", "count", "lower"),
    ("linalg.hnf_transform.self_s", "s", "lower"),
    ("linalg.lattice_reduce.calls", "count", "lower"),
    ("linalg.lattice_reduce.self_s", "s", "lower"),
    ("linalg.poly_rank.calls", "count", "lower"),
    ("linalg.poly_rank.self_s", "s", "lower"),
    ("linalg.poly_rank.max_rows", "count", "lower"),
    ("linalg.poly_nullspace.calls", "count", "lower"),
    ("linalg.poly_nullspace.self_s", "s", "lower"),
    ("polys.mul.calls", "count", "lower"),
    ("polys.exact_div.calls", "count", "lower"),
    ("gamma.enumerate_gamma.calls", "count", "lower"),
    ("gamma.enumerate_gamma.self_s", "s", "lower"),
    ("gamma.enumerate_gamma.tuples", "count", "lower"),
    ("gamma.enumerate_gamma.points", "count", "higher"),
    ("gamma.enumerate_gamma.useful_ratio", "ratio", "higher"),
    ("gamma.card_mod.calls", "count", "lower"),
    ("gamma.card_mod.self_s", "s", "lower"),
    ("locus.jet_matrix.calls", "count", "lower"),
    ("locus.jet_matrix.self_s", "s", "lower"),
    ("locus.jet_matrix.max_rows", "count", "lower"),
    ("locus.jet_matrix.max_cols", "count", "lower"),
    ("locus.kernel_basis.self_s", "s", "lower"),
    ("locus.kernel_basis.nullity_max", "count", "lower"),
    ("locus.eval_rank.calls", "count", "lower"),
    ("locus.eval_rank.self_s", "s", "lower"),
    ("locus.in_base_locus.calls", "count", "lower"),
    ("locus.in_base_locus.self_s", "s", "lower"),
    ("locus.sweep_probe.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.report_bytes", "B", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


class Context:
    """What the oracles may use: the package and an untimed run (the gate runs
    between tasks, with tracing off)."""

    def __init__(self, pkg, workdir):
        self.pkg = pkg
        self.workdir = workdir

    def run_untimed(self, task: Task):
        path = self.workdir / "oracle.json"
        path.write_text(json.dumps(task.config))
        return harness.run_task(self.pkg.cli, task, str(path), str(self.workdir / "oracle.out"))


class Gate:
    """Classifies each outcome: passed, verdict (exit 2), failed; and whether
    a failure was already present where the digests were recorded."""

    def __init__(self, workload, records):
        self.workload = workload
        self.records = records
        self.attempted = 0
        self.failed = 0
        self.new_failures = 0
        self.verdicts = 0
        self.unrecorded = 0
        self.causes = Counter()

    def check(self, ctx, task, outcome):
        self.attempted += 1
        if outcome.error is not None:
            cause = "traceback"
        elif outcome.rc not in (0, 2):
            cause = f"exit {outcome.rc}"
        else:
            cause = self.workload.oracle(ctx, task, outcome)
            record = self.records.get(task.key)
            if record is None:
                self.unrecorded += 1
            elif cause is None and isinstance(record, str) and digest(outcome.body) != record:
                cause = "report differs from the recorded digest"
        if outcome.rc == 2 and cause is None:
            self.verdicts += 1
        if cause is not None:
            self.failed += 1
            self.causes[f"{' '.join(task.command)}: {cause}"] += 1
            if not isinstance(self.records.get(task.key), dict):
                self.new_failures += 1
        return cause


def run_pass(pkg, tasks, paths, gate, workdir, tracer=None):
    """One pass over the task list, in list order: the raw seconds of each
    task, the probe seconds taken before each task and once after the last,
    and the report bytes."""
    ctx = Context(pkg, workdir)
    times, probes = [], []
    report_bytes = 0
    out_path = str(workdir / "report.out")
    for number, task in enumerate(tasks):
        probes.append(reference_probe())
        if tracer is not None:
            tracer.task = number
            tracer.enabled = True
        outcome = harness.run_task(pkg.cli, task, paths[task.key], out_path)
        if tracer is not None:
            tracer.enabled = False
        times.append(outcome.seconds)
        report_bytes += len(outcome.body)
        gate.check(ctx, task, outcome)
    probes.append(reference_probe())
    return times, probes, report_bytes


def normalize_pass(times, probes):
    """Each task's seconds at the reference host speed, judged by the mean of
    the probes taken just before and just after it."""
    return [normalized(t, (a + b) / 2) for t, a, b in zip(times, probes, probes[1:])]


def set_up(name, seed, workdir):
    """Import the package afresh, build the corpus, run one untimed warm-up.
    Returns the normalized set-up seconds and the state the passes need."""
    probe = reference_probe()
    start = perf_counter()
    pkg = load_package(fresh=True)
    workload = WORKLOADS[name]()
    tasks = workload.tasks(seed)
    paths = harness.write_configs(tasks, workdir)
    warm = workload.warmup(tasks)
    harness.run_task(pkg.cli, warm, paths[warm.key], str(workdir / "warmup.out"))
    return normalized(perf_counter() - start, probe), pkg, workload, tasks, paths


def percentile_ms(times, q):
    """The q-th percentile (q in 1..99) of task times, in milliseconds."""
    return statistics.quantiles(times, n=100, method="inclusive")[q - 1] * 1000.0


def layer_metrics(tracer, overhead, report_bytes):
    table = tracer.layer_table()
    counters = dict(tracer.counters, **tracer.maxima)
    attempts = counters.get("model.enumerate_closures.attempts", 0) + tracer.child_calls(
        "model.enumerate_closures", "model.closure")
    closures = counters.get("model.enumerate_closures.closures", 0)
    tuples = counters.get("gamma.enumerate_gamma.tuples", 0)
    points = counters.get("gamma.enumerate_gamma.points", 0)
    counters.update({
        "model.enumerate_closures.attempts": attempts,
        "model.enumerate_closures.useful_ratio": closures / attempts if attempts else 0.0,
        "gamma.enumerate_gamma.useful_ratio": points / tuples if tuples else 0.0,
        "locus.sweep_probe.self_s": sum(
            table.get(name, (0, 0.0))[1] for name in ("locus.threshold_sweep", "locus.locus_probe")
        ),
        "cli.report_bytes": report_bytes,
        "trace.overhead_frac": overhead,
    })
    metrics = {}
    for metric, unit, _ in PER_LAYER:
        span, _, field = metric.rpartition(".")
        if metric in counters:
            value = counters[metric]
        elif field in ("calls", "self_s"):
            value = table.get(span, (0, 0.0))[field == "self_s"]
        else:
            value = 0
        metrics[metric] = {"value": value, "unit": unit}
    return metrics, table


def bench(name, seed, seconds, trace):
    workdir = OUT / f"work-{name}"
    records = load_digests().get(name, {})
    calib_before = calibrate()
    setups = []

    def fresh():
        elapsed, *state = set_up(name, seed, workdir)
        setups.append(elapsed)
        return state

    summary = {"workload": name, "seed": seed, "trace": trace}
    if not trace:
        # A set-up before every pass spreads the set-up samples over the run;
        # each task's time is its median over the passes, normalized.
        runs, walls, probes = [], [], []
        begin = perf_counter()
        while True:
            round_begin = perf_counter()
            pkg, workload, tasks, paths = fresh()
            if not runs:
                gate = Gate(workload, records)
            times, pass_probes, _ = run_pass(pkg, tasks, paths, gate, workdir)
            runs.append(normalize_pass(times, pass_probes))
            walls.append(sum(times))
            probes.extend(pass_probes)
            now = perf_counter()
            if now - begin + (now - round_begin) > seconds:
                break
        while len(setups) < SETUP_REPEATS:
            fresh()
        per_task = [statistics.median(samples) for samples in zip(*runs)]
        metrics = {
            "wall_s": sum(per_task),
            "task_p50_ms": statistics.median(per_task) * 1000.0,
            "task_p90_ms": percentile_ms(per_task, 90),
            "setup_s": statistics.median(setups),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        summary.update(passes=len(runs), task_samples=len(per_task), raw_pass_walls_s=walls,
                       probe_median_ms=statistics.median(probes) * 1000.0)
        table = None
    else:
        for _ in range(SETUP_REPEATS):
            pkg, workload, tasks, paths = fresh()
        gate = Gate(workload, records)
        tracer = Tracer(pkg)
        untraced, untraced_probes, _ = run_pass(pkg, tasks, paths, gate, workdir)
        tracer.install()
        traced, traced_probes, report_bytes = run_pass(pkg, tasks, paths, gate, workdir, tracer)
        tracer.uninstall()
        overhead = (
            sum(normalize_pass(traced, traced_probes))
            / sum(normalize_pass(untraced, untraced_probes)) - 1.0
        )
        metrics, table = layer_metrics(tracer, overhead, report_bytes)
        self_sum = sum(s for _, s in table.values())
        summary.update(task_samples=len(tasks), untraced_wall_s=sum(untraced),
                       traced_wall_s=sum(traced), self_time_sum_s=self_sum,
                       bookkeeping_s=tracer.bookkeeping_s, spans=len(tracer.span_start))
        tracer.write(str(OUT / f"spans-{name}"))

    summary.update(
        attempted=gate.attempted, failed=gate.failed,
        failed_frac=gate.failed / gate.attempted, new_failures=gate.new_failures,
        unrecorded=gate.unrecorded,
        failure_causes=dict(gate.causes), setup_runs_s=setups,
        calib_before_ms=calib_before, calib_after_ms=calibrate(),
    )
    summary["verdicts.violation"] = gate.verdicts
    result = {
        "correct": gate.new_failures == 0 and gate.unrecorded == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record = dict(summary, result=result)
    if table is not None:
        record["layers"] = {k: {"calls": c, "self_s": s} for k, (c, s) in sorted(table.items())}
    (OUT / f"result-{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    return summary, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        summary, result = bench(args.workload, args.seed, args.seconds, args.trace)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for key in sorted(summary):
        print(f"{key}: {summary[key]}")
    for key, metric in result["metrics"].items():
        print(f"{key}: {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
