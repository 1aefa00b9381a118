"""One-shot traced measurements of the baselines too long for a workload.

    python3 bench/baselines.py [name ...]

Each baseline is one CLI task run once under the span tracer: the planar
T = 2, S = (6, 3) sweep over D = 1..18, generic height-2 certificates with
n = 3 and l = 4, and a symbolic n = 3, l = 3 config (the shape the symbolic
workload leaves out).  Prints the traced wall time, the outcome and the
layers with the most self time, and writes everything to
`bench/out/baselines.json`.  These numbers are recorded by hand in
`bench/NOTES.md`; they are not part of any run of `bench/run.py`.
"""

from __future__ import annotations

import json
import sys

import harness
from harness import OUT, Task, load_package
from spans import Tracer

BASELINES = {
    "sweep_t2_s63_d18": Task("baseline", ("locus", "sweep"), {
        "n": 2, "generators": [[1, 0], [0, 1]], "scales": ["6", "3"], "T": 2,
        "D_range": [1, 18], "epsilon": "1/2", "seed": 1, "limits": {"sample_count": 20},
    }),
    "certify_n3_l4_a": Task("baseline", ("chain", "verify"), {
        "n": 3, "generators": [[1, 0, 2], [0, 1, -1], [2, -1, 1], [1, 1, 3]],
        "scales": ["50", "20", "7", "3"],
    }),
    "certify_n3_l4_b": Task("baseline", ("chain", "verify"), {
        "n": 3, "generators": [[2, -1, 0], [1, 3, -2], [0, 1, 1], [-1, 2, 3]],
        "scales": ["90", "40", "40", "5/2"],
    }),
    "symbolic_n3_l3": Task("baseline", ("chain", "verify"), {
        "n": 3, "symbols": ["t1"],
        "generators": [[1, 0, {"const": 0, "coeffs": {"t1": 1}}], [0, 1, 1],
                       [{"const": 1, "coeffs": {"t1": -1}}, 2, 0]],
        "scales": ["12", "7", "3"],
    }),
}

COUNTERS = (
    "model.enumerate_closures.closures", "model.enumerate_closures.attempts",
    "chain.verify_chain.candidates", "linalg.rat_rref.max_rows", "linalg.rat_rref.max_cols",
    "linalg.rat_rref.max_entry_bits", "locus.jet_matrix.max_rows", "locus.jet_matrix.max_cols",
    "locus.kernel_basis.nullity_max", "linalg.poly_rank.max_rows", "polys.mul.calls",
    "polys.exact_div.calls",
)


def measure(pkg, name, task):
    workdir = OUT / "baselines"
    paths = harness.write_configs([task], workdir)
    tracer = Tracer(pkg, keep_spans=False)
    tracer.install()
    tracer.enabled = True
    outcome = harness.run_task(pkg.cli, task, paths[task.key], str(workdir / "report.out"))
    tracer.enabled = False
    tracer.uninstall()
    table = tracer.layer_table()
    counters = dict(tracer.counters, **tracer.maxima)
    top = sorted(table.items(), key=lambda kv: -kv[1][1])[:8]
    result = {
        "command": " ".join(task.command),
        "config": task.config,
        "exit": outcome.rc,
        "traced_wall_s": outcome.seconds,
        "self_time_sum_s": sum(s for _, s in table.values()),
        "traced_calls": sum(tracer.calls),
        "top_self_s": {k: {"calls": c, "self_s": round(s, 3)} for k, (c, s) in top},
        "counters": {k: counters[k] for k in COUNTERS if counters.get(k)},
    }
    if outcome.rc == 0 and task.command == ("chain", "verify"):
        result["candidates_checked"] = json.loads(outcome.body)["certificate"]["candidates_checked"]
    print(f"{name}: exit {outcome.rc}, traced wall {outcome.seconds:.1f} s, "
          f"{result['traced_calls']} traced calls", flush=True)
    for key, value in result["top_self_s"].items():
        print(f"  {key:32s} calls {value['calls']:9d}  self {value['self_s']:8.3f} s")
    for key, value in result["counters"].items():
        print(f"  {key:32s} {value}")
    return result


def main(argv):
    pkg = load_package()
    names = argv or list(BASELINES)
    results = {name: measure(pkg, name, BASELINES[name]) for name in names}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "baselines.json").write_text(json.dumps(results, indent=1, sort_keys=True))


if __name__ == "__main__":
    main(sys.argv[1:])
