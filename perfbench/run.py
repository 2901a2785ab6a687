#!/usr/bin/env python3
"""Run one workload of the bgpsim benchmark and print its result.

    python3 perfbench/run.py --workload fig4-clique --seed 1 --seconds 55 --trace 0

Run from the repository root.  The script builds perfbench/bench.exe
from source (dune, build directory .bench_build/dune), then spawns one
fresh process per sample (each sets up, warms up and runs the workload
once) until the next sample would end past --seconds, and prints:

  - a {"record": ...} line: host, OCaml version, source revision and
    every sample's own numbers;
  - as the last line, {"correct", "attempted", "failed", "metrics"}:
    with --trace 0 the medians of the end-to-end metrics named in
    BENCHMARK.json, with --trace 1 the medians of its per-layer metrics
    from traced samples.  A per-layer metric the workload does not
    measure is printed as 0, because the result names every one, and is
    listed under "not_measured" in the record line.

It exits non-zero without a result when the build or a sample fails.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

BUILD_DIR = os.path.join(".bench_build", "dune")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
# how long the last sample may run past --seconds before it is killed
OVERRUN_S = 115
WORKLOADS = ("fig4-clique", "churn-110")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    cmd = ["dune", "build", "--root", ".",
           "--build-dir", os.path.abspath(BUILD_DIR),
           "./perfbench/bench.exe"]
    try:
        r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return False
    if r.stdout:
        log(r.stdout.rstrip())
    if r.returncode != 0 or not os.path.exists(EXE):
        log(f"build failed (exit {r.returncode})")
        return False
    return True


def source_revision():
    """A digest of the sources the benchmark builds: the checkout it runs
    in need not be a git repository."""
    h = hashlib.sha256()
    roots = ["dune-project", "dune", "lib", "bin", "perfbench"]
    for root in roots:
        paths = []
        if os.path.isfile(root):
            paths = [root]
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def run_sample(workload, seed, mode, deadline):
    timeout = max(1.0, deadline - time.time())
    try:
        r = subprocess.run([EXE, workload, str(seed), mode],
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"{workload} sample timed out after {timeout:.0f} s")
        return None
    if r.stderr:
        log(r.stderr.rstrip())
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        log(f"{workload} sample failed (exit {r.returncode})")
        return None
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 1
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not build():
        return 1

    mode = "traced" if args.trace else "plain"
    t0 = time.time()
    deadline = t0 + args.seconds + OVERRUN_S
    samples, durations = [], []
    while True:
        s0 = time.time()
        sample = run_sample(args.workload, args.seed, mode, deadline)
        if sample is None:
            return 1
        samples.append(sample)
        durations.append(time.time() - s0)
        # start another sample only if it should end within --seconds
        if time.time() - t0 + statistics.mean(durations) > args.seconds:
            break

    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    for s in samples:
        for note in s["notes"]:
            log(f"gate: {note}")
    table = "layers" if args.trace else "e2e"
    metrics, not_measured = {}, []
    for m in wanted:
        name = m["name"]
        have = [s[table][name] for s in samples if name in s[table]]
        if name == "ok_share":
            value = 1.0 - failed / attempted if attempted else 0.0
        elif len(have) == len(samples):
            value = statistics.median(have)
        elif not have and args.trace:
            value = 0.0
            not_measured.append(name)
        else:
            log(f"metric {name} missing from {len(samples) - len(have)} "
                f"of {len(samples)} samples")
            return 1
        metrics[name] = {"value": value, "unit": m["unit"]}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "recommended_domains": samples[0]["recommended_domains"],
        "ocaml": samples[0]["ocaml"],
        "revision": source_revision(),
        "not_measured": not_measured,
        "samples": [{"seconds": round(d, 3), **s[table]}
                    for d, s in zip(durations, samples)],
    }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": attempted > 0 and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
