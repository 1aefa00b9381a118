"""Record the report digest of every task any seed can put in a run.

    python3 bench/record.py [workload ...]

Runs each of those tasks once, untimed, through the same oracles as the
benchmark's gate.  A task whose output passes the oracles is recorded with
the digest of its report bytes; one that fails is recorded as a known
failure with its cause, so the benchmark counts it as failed without calling
it a new failure.  Rewrites only the named workloads (all by default) in
`bench/digests.json`, and prints the failed fraction and verdict count of
each workload over all its variants.
"""

from __future__ import annotations

import json
import sys
from collections import Counter

import harness
from harness import DIGESTS, OUT, digest, load_digests, load_package
from run import Context
from workloads import WORKLOADS


def record(pkg, name):
    workload = WORKLOADS[name]()
    workdir = OUT / f"record-{name}"
    tasks = workload.all_tasks()
    paths = harness.write_configs(tasks, workdir)
    ctx = Context(pkg, workdir)
    entries, causes, verdicts = {}, Counter(), 0
    for task in tasks:
        outcome = harness.run_task(pkg.cli, task, paths[task.key], str(workdir / "report.out"))
        if outcome.error is not None:
            cause = f"traceback {outcome.error}"
        elif outcome.rc not in (0, 2):
            cause = f"exit {outcome.rc}"
        else:
            cause = workload.oracle(ctx, task, outcome)
        if cause is None:
            entries[task.key] = digest(outcome.body)
            verdicts += outcome.rc == 2
        else:
            entries[task.key] = {"known_failure": cause}
            causes[f"{task.stratum} {' '.join(task.command)}: {cause}"] += 1
    failed = sum(causes.values())
    print(f"{name}: {len(tasks)} tasks, failed {failed} ({failed / len(tasks):.4f}), "
          f"verdicts.violation {verdicts}")
    for cause, count in sorted(causes.items()):
        print(f"  {count:4d}  {cause}")
    return entries


def main(argv):
    names = argv or sorted(WORKLOADS)
    pkg = load_package()
    digests = load_digests()
    for name in names:
        digests[name] = record(pkg, name)
    DIGESTS.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
