"""Runs one benchmark workload and prints its result as the last line.

    python3 perfbench/run.py --workload kv-serve --seed 1 --seconds 10 --trace 0

Builds the program from source (see build.py) and runs the workload in
three JVMs, one after the other, each for a third of `--seconds`. JVM `k`
trains dictionary draw `k` as the first work it does, so each times a
cold set-up, and then serves with that dictionary. A rate (a unit ending
in `/s`) is the harmonic mean of the three JVMs' rates: the rate of the
same work split evenly over them. Every other metric is their median.

Prints an environment header, a detail line, and finally one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics of BENCHMARK.json with `--trace 0`, its per-layer metrics with
`--trace 1`. A per-layer metric of a layer the workload does not use
reads 0. The traced run also writes its span logs to
`.bench_build/perfbench/traces/`. Exits non-zero, printing no result,
when the build, a JVM or the result's shape fails.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

RUN_TIMEOUT_S = 170
DRAWS = 3

# A fixed, pre-touched heap with a small young generation spreads GC
# pauses evenly over the rounds instead of landing in some of them.
JVM_OPTS = [
    "-Xms2g", "-Xmx2g", "-Xmn128m", "-XX:+UseParallelGC", "-XX:+AlwaysPreTouch", "-XX:-UsePerfData",
] + ["--add-opens=%s=ALL-UNNAMED" % p for p in (
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar")]


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(build.ROOT))
    try:
        out = subprocess.run(["git", "-C", build.ROOT, "rev-parse", "HEAD"], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def run_jvm(cmd, log_path, timeout):
    """Runs the JVM, stderr to `log_path`; returns its stdout or None."""
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log, text=True, cwd=build.ROOT)
        try:
            out, _ = proc.communicate(timeout=timeout)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    return out if proc.returncode == 0 else None


def tail(path, n=40):
    with open(path, errors="replace") as fh:
        return "".join(fh.readlines()[-n:])


def main():
    contract_path = os.path.join(build.ROOT, "BENCHMARK.json")
    if not os.path.isfile(contract_path):
        fail("BENCHMARK.json not found at the repository root", 2)
    with open(contract_path) as fh:
        contract = json.load(fh)

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in contract["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=contract["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", type=int, choices=(0, 1), default=0,
                    help="self-test: flip one byte of every coded record")
    args = ap.parse_args()

    # a signal ends the run through the same path as an error, so the
    # JVM is always killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        _, classpath, digest = build.build()
        java = build.java()
    except build.BuildError as e:
        fail(str(e), 2)

    logs = os.path.join(build.BUILD, "logs")
    os.makedirs(logs, exist_ok=True)
    os.makedirs(os.path.join(build.BUILD, "tmp"), exist_ok=True)
    commit = git_commit()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    results = []
    for draw in range(DRAWS):
        cmd = [java] + JVM_OPTS + [
            "-Djava.io.tmpdir=" + os.path.join(build.BUILD, "tmp"),
            "-cp", classpath, "perfbench.Main",
            "--workload", args.workload, "--seed", str(args.seed), "--draw", str(draw),
            "--seconds", str(args.seconds / DRAWS), "--trace", str(args.trace), "--corrupt", str(args.corrupt),
            "--out", build.BUILD, "--commit", commit, "--source", digest]
        log_path = os.path.join(logs, f"{args.workload}-seed{args.seed}-draw{draw}-trace{args.trace}.log")
        try:
            out = run_jvm(cmd, log_path, max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail(f"run exceeded {RUN_TIMEOUT_S} s; log: {log_path}")
        if out is None:
            fail(f"run failed; last lines of {log_path}:\n{tail(log_path)}")
        lines = [l for l in out.splitlines() if l.startswith("RESULT ")]
        if not lines:
            fail(f"run printed no result; log: {log_path}")
        results.append(json.loads(lines[-1][len("RESULT "):]))

    expected = contract["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in expected:
        name, unit = m["name"], m["unit"]
        got = [r["metrics"].get(name) for r in results]
        if all(g is None for g in got) and any(name.startswith(p) for p in results[0]["skipped"]):
            metrics[name] = {"value": 0.0, "unit": unit}
            continue
        if any(g is None for g in got):
            fail(f"metric {name} was not measured")
        if any(g["unit"] != unit for g in got):
            fail(f"metric {name} has unit {got[0]['unit']}, BENCHMARK.json says {unit}")
        values = [g["value"] for g in got]
        if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
            fail(f"metric {name} has non-numeric values {values}")
        combine = statistics.harmonic_mean if unit.endswith("/s") else statistics.median
        metrics[name] = {"value": combine(values), "unit": unit}
    extra = sorted(set().union(*(r["metrics"] for r in results)) - {m["name"] for m in expected})
    if extra:
        fail(f"metrics not in BENCHMARK.json: {extra}")

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = all(r["correct"] for r in results) and failed == 0
    print("# env " + json.dumps(dict(results[0]["env"], draws=DRAWS), sort_keys=True))
    print("# detail " + json.dumps([r["detail"] for r in results], sort_keys=True))
    print(f"# error_rate {failed / attempted if attempted else float('nan')} ({failed}/{attempted})")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
