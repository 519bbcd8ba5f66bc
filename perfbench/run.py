#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

Run from the root of a source tree:

    python3 perfbench/run.py --workload sim-flash-tchain --seed 1 \
        --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The first call builds perfbench (CMake, Release) into $CARGO_TARGET_DIR
(default .bench_build) under the current directory; later calls only
re-check the build. Build output goes to stderr. Stdout carries the
program's notes (digests, sizes) and, as its last line, one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer
list; a per-layer metric that does not apply to the workload reads 0.

Exit code 0 when a result was printed, 2 on a build or usage error (no
result printed), 1 when --self-test finds a problem.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(BENCH_DIR, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the harness; returns its path."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        raise RuntimeError("no src/ tree here: run from the repository root")
    out = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                       "perfbench")
    configure = ["cmake", "-S", os.path.relpath(BENCH_DIR), "-B", out,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            # A stale cache from another source location: start over once.
            shutil.rmtree(out, ignore_errors=True)
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                raise RuntimeError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise RuntimeError("build failed")
    return os.path.join(out, "perfbench")


def run_harness(exe, args):
    """Runs the harness; returns (note lines, result dict)."""
    proc = subprocess.run([exe] + args, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench exited {proc.returncode}")
    return lines[:-1], json.loads(lines[-1])


def shape(result, spec, trace):
    """Orders and completes the metrics as BENCHMARK.json lists them."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    metrics = {}
    for m in wanted:
        have = got.get(m["name"])
        if have is None:
            if not trace:
                raise RuntimeError(f"missing end-to-end metric {m['name']}")
            have = {"value": 0.0, "unit": m["unit"]}  # not this workload's layer
        if have["unit"] != m["unit"]:
            raise RuntimeError(f"{m['name']}: unit {have['unit']} != {m['unit']}")
        metrics[m["name"]] = {"value": have["value"], "unit": m["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def self_test(exe, spec):
    """Smoke-sized pass over every workload in both modes, plus a forced
    live failure that must be counted rather than crash the run."""
    problems = []
    emitted = set()
    for w in spec["workloads"]:
        for trace in (0, 1):
            args = ["--workload", w["name"], "--seed", "1", "--seconds", "1",
                    "--trace", str(trace), "--smoke"]
            try:
                _, res = run_harness(exe, args)
                out = shape(res, spec, trace)
            except (RuntimeError, ValueError, subprocess.TimeoutExpired) as e:
                problems.append(f"{w['name']} trace={trace}: {e}")
                continue
            units = {m["name"]: m["unit"]
                     for m in spec["end_to_end"] + spec["per_layer"]}
            for name, m in res["metrics"].items():
                if units.get(name) != m["unit"]:
                    problems.append(f"{w['name']}: {name} [{m['unit']}] "
                                    "is not in BENCHMARK.json")
                emitted.add(name)
            if out["failed"] != 0 or not out["correct"]:
                problems.append(f"{w['name']} trace={trace}: "
                                f"{out['failed']} failed")
            print(f"self-test {w['name']} trace={trace}: "
                  + ", ".join(f"{k}={v['value']:.4g} {v['unit']}"
                              for k, v in out["metrics"].items()))
    for m in spec["end_to_end"] + spec["per_layer"]:
        if m["name"] not in emitted:
            problems.append(f"{m['name']} is measured by no workload")
    # Forced failure: a deadline no swarm can meet.
    try:
        _, res = run_harness(exe, ["--workload", "live-small", "--seed", "1",
                                   "--seconds", "1", "--trace", "0", "--smoke",
                                   "--live-deadline", "0.3"])
        forced = shape(res, spec, 0)
        print(f"self-test forced failure: attempted={forced['attempted']} "
              f"failed={forced['failed']}")
        if forced["failed"] == 0 or forced["correct"]:
            problems.append("forced live failure was not counted")
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as e:
        problems.append(f"forced live failure crashed the run: {e}")
    for p in problems:
        print(f"self-test FAIL: {p}")
    print("self-test: " + ("ok" if not problems else "FAILED"))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if not args.self_test and args.workload not in names:
            raise RuntimeError(f"--workload must be one of {names}")
        if args.seed < 1:
            raise RuntimeError("--seed must be >= 1")
        exe = build()
        if args.self_test:
            return self_test(exe, spec)
        notes, res = run_harness(exe, [
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)])
        out = shape(res, spec, args.trace)
    except (OSError, RuntimeError, ValueError,
            subprocess.TimeoutExpired) as e:
        log(f"error: {e}")
        return 2
    for line in notes:
        print(line)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
