#!/usr/bin/env python3
"""Before/after benchmark snapshot: alternates a parent and a change tree.

A thin loop over perfbench/run.py (the repository benchmark) that writes a
BENCH_*.json file. For each seed and workload it runs

    python3 perfbench/run.py --workload W --seed S --seconds N --trace 0

with N the run_seconds of BENCHMARK.json, once in the parent tree and once
in the change tree, the parent first on odd seeds and the change first on
even ones. It records each side's median and quartiles (inclusive method)
of every end-to-end metric, the pairs the change won, attempts and
failures, and checks that both sides print the same sim digest. For sim
workloads it also keeps the host-probe seconds and the unscaled wall_s that
perfbench notes, since its sim timings are scaled by that probe. Traced
seeds add one --trace 1 run per side, and the per-layer metrics either side
reports are kept per seed.

With --runner, it also times figure benches at --jobs 1 from two CMake
build directories (the seconds the experiment runner reports on stderr)
in RUNNER_PAIRS alternating pairs, records each side's median and
quartiles and the pairs the change won, and checks that their stdout is
byte-identical.

Run it from the change's source tree:

    python3 scripts/bench_snapshot.py --parent ../parent \\
        --workloads sim-flash-tchain sim-attack-churn \\
        --seeds 1001-1010 --traced-seeds 1001 \\
        --runner fig7_freeriders fig4_scaling table2_attacks \\
        --parent-build ../parent/build --change-build build \\
        --what "..." --out BENCH_sim.json

Each tree builds perfbench into its own .bench_build on first use.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

RUNNER_RE = re.compile(r"^\[exp\] .* in ([0-9.]+)s ", re.M)
# Alternating pairs for each --runner bench. Five could not resolve a 10 %
# change: the quartiles of five runs are two runs apart.
RUNNER_PAIRS = 10
HOST_RE = re.compile(r"^host \S+: probe median ([0-9.]+) s, "
                     r"unscaled wall_s ([0-9.]+)", re.M)


def log(msg):
    print(f"[snapshot] {msg}", file=sys.stderr, flush=True)


def seed_list(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def perfbench(tree, workload, seed, seconds, trace):
    """One perfbench/run.py call in `tree`; returns (digest, host note,
    result). The host note is (probe seconds, unscaled wall_s) of an
    untraced sim run, else None."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True,
                          check=True)
    lines = proc.stdout.strip().splitlines()
    digest = next((ln.split()[2] for ln in lines
                   if ln.startswith("digest ")), None)
    host = HOST_RE.search(proc.stdout)
    host = (float(host.group(1)), float(host.group(2))) if host else None
    return digest, host, json.loads(lines[-1])


def runner_seconds(build, bench):
    """Runs one figure bench at --jobs 1; returns (seconds, stdout)."""
    exe = os.path.join(build, "bench", f"bench_{bench}")
    proc = subprocess.run([exe, "--jobs", "1"], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, check=True)
    found = RUNNER_RE.findall(proc.stderr)
    if not found:
        raise RuntimeError(f"{bench}: no runner timing on stderr")
    return sum(float(s) for s in found), proc.stdout


def sig(x):
    return float(f"{x:.6g}")


def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": sig(med), "q1": sig(q1), "q3": sig(q3)}


def host():
    model, mem = "", ""
    try:
        with open("/proc/cpuinfo") as f:
            model = re.search(r"model name\s*:\s*(.*)", f.read()).group(1)
        with open("/proc/meminfo") as f:
            kib = int(re.search(r"MemTotal:\s*(\d+)", f.read()).group(1))
            mem = f", {kib / 2**20:.0f} GiB RAM"
    except (OSError, AttributeError):
        pass
    return (f"{os.cpu_count()} vCPU {model}{mem}; {platform.system()} "
            f"{platform.release()}; perfbench Release build")


def snapshot_workload(args, spec, workload):
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    runs = {"parent": [], "change": []}
    attempted = {"parent": 0, "change": 0}
    failed = {"parent": 0, "change": 0}
    probes = {"parent": [], "change": []}
    digests_equal = True
    for k, seed in enumerate(args.seeds):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        digests = {}
        for side in order:
            log(f"{workload} seed {seed} ({k + 1}/{len(args.seeds)}): {side}")
            digests[side], host_note, res = perfbench(
                args.tree[side], workload, seed, args.seconds, 0)
            runs[side].append(res["metrics"])
            if host_note:
                probes[side].append(host_note)
            attempted[side] += res["attempted"]
            failed[side] += res["failed"]
        digests_equal &= digests["parent"] == digests["change"]
    e2e = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        p = [r[name]["value"] for r in runs["parent"]]
        c = [r[name]["value"] for r in runs["change"]]
        wins = sum((cv < pv) if better[name] == "lower" else (cv > pv)
                   for pv, cv in zip(p, c))
        e2e[name] = {"unit": m["unit"], "parent": quartiles(p),
                     "change": quartiles(c), "change_wins": wins}
    out = {"end_to_end": e2e, "attempted": attempted, "failed": failed,
           "digests_identical": digests_equal}
    if probes["parent"] and probes["change"]:
        # Sim timings are divided by probe / nominal; record both halves.
        out["host_probe"] = {
            side: {"probe_s": quartiles([p for p, _ in v]),
                   "unscaled_wall_s": quartiles([w for _, w in v])}
            for side, v in probes.items()}
    if args.traced_seeds:
        traced = {}
        per_side = {"parent": [], "change": []}
        for seed in args.traced_seeds:
            for side in ("parent", "change"):
                log(f"{workload} traced seed {seed}: {side}")
                _, _, res = perfbench(args.tree[side], workload, seed,
                                      args.seconds, 1)
                per_side[side].append(res["metrics"])
        for m in spec["per_layer"]:
            name = m["name"]
            vals = {s: [r[name]["value"] for r in per_side[s]]
                    for s in per_side}
            if not any(vals["parent"]) and not any(vals["change"]):
                continue  # not this workload's layer
            traced[name] = {"unit": m["unit"]}
            for s, v in vals.items():
                traced[name][s] = {"per_seed": [sig(x) for x in v],
                                   "median": sig(statistics.median(v))}
        out["traced"] = traced
    return out


def snapshot_runner(args):
    out = {}
    for bench in args.runner:
        secs = {"parent": [], "change": []}
        stdout = {}
        for rep in range(RUNNER_PAIRS):
            order = ("parent", "change") if rep % 2 == 0 else ("change",
                                                              "parent")
            for side in order:
                log(f"bench_{bench} --jobs 1 ({rep + 1}/{RUNNER_PAIRS}): "
                    f"{side}")
                s, text = runner_seconds(args.build[side], bench)
                secs[side].append(sig(s))
                stdout.setdefault(side, text)
        out[bench] = {
            "command": f"bench_{bench} --jobs 1",
            "unit": "s",
            "parent": {"per_run": secs["parent"],
                       **quartiles(secs["parent"])},
            "change": {"per_run": secs["change"],
                       **quartiles(secs["change"])},
            "change_wins": sum(c < p for p, c in zip(secs["parent"],
                                                     secs["change"])),
            "stdout_identical": stdout["parent"] == stdout["change"],
        }
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent source tree")
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1001-1010"))
    ap.add_argument("--traced-seeds", type=seed_list, default=[])
    ap.add_argument("--runner", nargs="*", default=[],
                    help="figure benches to time at --jobs 1, e.g. "
                         "fig7_freeriders")
    ap.add_argument("--parent-build", help="parent CMake build dir")
    ap.add_argument("--change-build", help="change CMake build dir")
    ap.add_argument("--what", default="", help="one line: what changed")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    if len(args.seeds) < 4:
        ap.error("quartiles need at least 4 seeds")
    if args.runner and not (args.parent_build and args.change_build):
        ap.error("--runner needs --parent-build and --change-build")
    args.tree = {"parent": os.path.abspath(args.parent),
                 "change": os.getcwd()}
    args.build = {"parent": args.parent_build, "change": args.change_build}
    with open(os.path.join(args.tree["change"], "BENCHMARK.json")) as f:
        spec = json.load(f)
    # Run length is the benchmark's, so parent and change stay comparable.
    args.seconds = spec["run_seconds"]
    parent_rev = subprocess.run(
        ["git", "-C", args.tree["parent"], "rev-parse", "--short", "HEAD"],
        stdout=subprocess.PIPE, text=True).stdout.strip()

    snap = {
        "what": args.what,
        "parent": parent_rev,
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds:g} --trace T",
        "run_seconds": args.seconds,
        "seeds": args.seeds,
        "traced_seeds": args.traced_seeds,
        "pairs": "one pair per seed and workload: odd seeds run the parent "
                 "first, even seeds the change first; untraced (--trace 0) "
                 "for end-to-end metrics",
        "host": host(),
        "statistics": "median and quartiles (inclusive method) over the "
                      "runs of each side; change_wins counts pairs where "
                      "the change is better",
        "workloads": {w: snapshot_workload(args, spec, w)
                      for w in args.workloads},
    }
    if args.runner:
        snap["runner"] = snapshot_runner(args)
    with open(args.out, "w") as f:
        json.dump(snap, f, indent=2)
        f.write("\n")
    log(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
