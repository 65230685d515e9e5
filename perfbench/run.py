#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-check [--workload <name>] [--seed <n>] [--seconds <s>]

Run from the root of a checkout. The first form builds the `perfbench`
package in release mode, runs one workload, checks that the metrics it
prints are exactly the ones `BENCHMARK.json` declares, stamps the run with
host metadata, keeps a record under `perfbench/out/`, and prints the
result as its last line of standard output.

The second form checks the benchmark itself: exact counts repeat across
two runs with the same seed, a new seed changes the inputs but not the
program-structure counts, and the traced run's end-to-end figures are
compared with an untraced run of the same seed (tracing overhead).
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
RUN_TIMEOUT_S = 170
WORKLOADS = ["encrypted-suite", "serve-mix"]


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def target_dir():
    configured = os.environ.get("CARGO_TARGET_DIR")
    if configured:
        return os.path.join(ROOT, configured)
    return os.path.join(HERE, "target")


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return None
    if done.returncode != 0:
        log(f"build failed with code {done.returncode}")
        return None
    binary = os.path.join(target_dir(), "release", "perfbench")
    return binary if os.path.exists(binary) else None


def first_line(path, prefix):
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def command_output(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def cpu_times():
    """(steal, total) jiffies from /proc/stat, or None where unavailable."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
        return fields[7], sum(fields)
    except (OSError, ValueError, IndexError):
        return None


def metadata(seed):
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = command_output(["git", "rev-parse", "HEAD"])
    return {
        "nproc": os.cpu_count(),
        "cpu_model": first_line("/proc/cpuinfo", "model name"),
        "rustc": command_output(["rustc", "--version"]),
        "git_commit": commit,
        "seed": seed,
    }


def declared():
    """The metric names and units BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return e2e, layer


def run_binary(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (detail, result) or raises RuntimeError."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", OUT]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise RuntimeError(f"{workload} timed out") from e
    if done.returncode != 0:
        raise RuntimeError(f"{workload} exited with {done.returncode}")
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    if len(lines) < 2:
        raise RuntimeError(f"{workload} printed no result")
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def check_declared(result, trace):
    e2e, layer = declared()
    want = layer if trace else e2e
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: missing {missing}, "
            f"extra {extra}, unit mismatch {wrong}")


def measure(args):
    binary = build()
    if binary is None:
        return 1
    before = cpu_times()
    try:
        detail, result = run_binary(binary, args.workload, args.seed,
                                    args.seconds, args.trace)
        after = cpu_times()
        check_declared(result, args.trace)
    except (RuntimeError, ValueError, KeyError, OSError) as e:
        log(str(e))
        return 1
    meta = metadata(args.seed)
    meta["generator_lateness"] = detail["notes"].get("gen_lag_ms", "n/a")
    if before and after and after[1] > before[1]:
        # Time the hypervisor gave to other guests: a noisy-neighbour flag.
        meta["cpu_steal_pct"] = round(
            100.0 * (after[0] - before[0]) / (after[1] - before[1]), 2)
    os.makedirs(OUT, exist_ok=True)
    record = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as f:
        json.dump({"meta": meta, "detail": detail, "result": result}, f,
                  indent=1)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


def self_check(args):
    binary = build()
    if binary is None:
        return 1
    workloads = [args.workload] if args.workload else WORKLOADS
    ok = True
    summary = {}
    for w in workloads:
        t0 = time.time()
        try:
            a, _ = run_binary(binary, w, args.seed, args.seconds, 1)
            b, _ = run_binary(binary, w, args.seed, args.seconds, 1)
            c, _ = run_binary(binary, w, args.seed + 1, args.seconds, 1)
            d, _ = run_binary(binary, w, args.seed, args.seconds, 0)
        except (RuntimeError, ValueError, KeyError) as e:
            log(str(e))
            return 1
        problems = []
        for k, v in a["exact"].items():
            if b["exact"].get(k) != v:
                problems.append(f"{k}: {v} then {b['exact'].get(k)} (same seed)")
        for k in a["seed_invariant"]:
            if c["exact"].get(k) != a["exact"][k]:
                problems.append(
                    f"{k}: {a['exact'][k]} then {c['exact'].get(k)} (new seed)")
        if a["notes"]["inputs_digest"] == c["notes"]["inputs_digest"]:
            problems.append("a new seed left the inputs unchanged")
        for r in (a, b, c, d):
            if r["failed"]:
                problems.append(f"{r['failed']} failed operations (seed {r['seed']})")
        overhead = {}
        for k, v in d["e2e"].items():
            if v["unit"] in ("ms", "s") and v["value"]:
                overhead[k] = round(
                    100.0 * (a["e2e"][k]["value"] / v["value"] - 1.0), 2)
        summary[w] = {
            "exact_counts": len(a["exact"]),
            "seed_invariant": len(a["seed_invariant"]),
            "problems": problems,
            "tracing_overhead_pct": overhead,
            "wall_s": round(time.time() - t0, 1),
        }
        ok = ok and not problems
    print(json.dumps({"self_check": summary, "passed": ok}, indent=1))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args()
    if args.self_check:
        if args.seconds is None:
            args.seconds = 4
        return self_check(args)
    if args.workload is None or args.seconds is None:
        p.error("--workload and --seconds are required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
