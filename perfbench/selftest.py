"""The benchmark's own tests.

    python3 perfbench/selftest.py [workload ...]

1. The failure counter is live: a run whose codec flips one byte of every
   coded record must report `correct: false` and `failed > 0`.
2. The deterministic per-layer counters repeat exactly: two traced runs
   on one seed must report identical values for them.

Each check runs the benchmark itself through run.py with short runs.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# counts that depend only on the seed, never on timing
DETERMINISTIC = [
    "core.patterns", "core.dict_bytes", "core.patterns_tried", "core.match_hit_ratio",
    "core.outlier_rate", "core.coded_bytes", "fsst.residuals", "fsst.win_share",
    "pbc.header_bytes", "pbc.index_bytes", "kv.value_bytes", "kv.memory_bytes", "spark.tasks",
]


def run(workload, seed, trace, corrupt=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--corrupt", str(corrupt)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    chosen = sys.argv[1:] or workloads
    failures = []
    for w in chosen:
        r = run(w, seed=3, trace=0, corrupt=1)
        if r["correct"] or r["failed"] <= 0:
            failures.append(f"{w}: flipped bytes went unnoticed ({r['failed']}/{r['attempted']} failed)")
        print(f"{w}: corrupt run failed {r['failed']}/{r['attempted']} operations", flush=True)

        a, b = run(w, seed=5, trace=1), run(w, seed=5, trace=1)
        for r in (a, b):
            if not r["correct"]:
                failures.append(f"{w}: traced run reported {r['failed']} failures")
        diff = {k: (a["metrics"][k]["value"], b["metrics"][k]["value"])
                for k in DETERMINISTIC if a["metrics"][k]["value"] != b["metrics"][k]["value"]}
        if diff:
            failures.append(f"{w}: counters differ between two runs of one seed: {diff}")
        print(f"{w}: {len(DETERMINISTIC) - len(diff)}/{len(DETERMINISTIC)} counters repeat", flush=True)
    for f in failures:
        print("FAIL " + f)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
