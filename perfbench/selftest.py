#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/selftest.py [--seed N] [--workload W ...]

For each workload, two short runs with the same seed must both pass and
give equal per-item digests and equal modeled_* metrics, so a later
"unchanged" claim can be checked exactly.  A run with
IMTP_SIM_LATENCY_US set must be refused without a result.  Exits 1 on
any failure.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["tune-suite", "graph-nets", "fuzz-diff"]


def run(workload, seed, env=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "0"]
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)


def record(workload, seed):
    path = os.path.join(ROOT, ".perfbench", f"{workload}-seed{seed}-trace0.json")
    with open(path) as f:
        full = json.load(f)
    digests = {}
    for item in full["items"]:
        digests.setdefault(item["index"], item["digest"])
    modeled = {k: v["value"] for k, v in full["metrics"].items()
               if k.startswith("modeled_")}
    return digests, modeled


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()
    failures = []
    for workload in args.workload or WORKLOADS:
        seen = []
        for attempt in (1, 2):
            proc = run(workload, args.seed)
            if proc.returncode != 0:
                failures.append(f"{workload}: run {attempt} exited {proc.returncode}\n"
                                f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                break
            seen.append(record(workload, args.seed))
        if len(seen) == 2:
            (d1, m1), (d2, m2) = seen
            if d1 != d2:
                bad = sorted(i for i in set(d1) | set(d2) if d1.get(i) != d2.get(i))
                failures.append(f"{workload}: digests differ for items {bad}")
            if m1 != m2:
                failures.append(f"{workload}: modeled metrics differ: {m1} vs {m2}")
            print(f"{workload}: {len(d1)} item digests and {len(m1)} modeled "
                  f"metrics {'equal' if (d1, m1) == (d2, m2) else 'DIFFER'}")
    guarded = run(WORKLOADS[0], args.seed,
                  env=dict(os.environ, IMTP_SIM_LATENCY_US="1"))
    if guarded.returncode == 0 or guarded.stdout.strip():
        failures.append("IMTP_SIM_LATENCY_US set: the run was not refused")
    else:
        print("IMTP_SIM_LATENCY_US set: refused")
    for failure in failures:
        print("FAIL " + failure)
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
