#!/usr/bin/env python3
"""Build and run the repository's step-loop benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <n> --trace 0|1
    python3 perfbench/run.py --smoke [--sanitize address|undefined]

Run from the repository root. The first run configures and builds
perfbench/ (the library sources plus the benchmark driver) into
.bench_build/; later runs rebuild only what changed. Every run prints the
workload's metrics by name and unit and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is nonzero when a correctness check fails, when the build
fails, or when a process the benchmark started outlives it.

--smoke runs every workload at a tenth of its size for two timed steps,
traced and untraced, optionally in a sanitizer build; its figures are not
the benchmark's.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ["gravity-plummer", "sph-clustered", "disk-collision", "gravity-durable-tcp"]
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170


def positive_int(text):
    if not text.isdigit() or int(text) <= 0:
        raise argparse.ArgumentTypeError(f"want a positive whole number, got '{text}'")
    return int(text)


def seed_int(text):
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"want a non-negative whole number, got '{text}'")
    return int(text)


def parse_args(argv):
    p = argparse.ArgumentParser(
        prog="perfbench/run.py", allow_abbrev=False,
        description="ParaTreeT step-loop benchmark (see perfbench/README.md).")
    p.add_argument("--workload", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=seed_int)
    p.add_argument("--seconds", type=positive_int)
    p.add_argument("--trace", type=int, choices=[0, 1])
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--sanitize", choices=["address", "undefined"])
    args = p.parse_args(argv)
    if args.smoke:
        args.workload = args.workload or "all"
        args.seed = 1 if args.seed is None else args.seed
        args.seconds = args.seconds or 1
    else:
        if args.sanitize:
            p.error("--sanitize is for --smoke runs only: never time a sanitizer build")
        missing = [f"--{k}" for k in ("workload", "seed", "seconds", "trace")
                   if getattr(args, k) is None]
        if missing:
            p.error("missing " + ", ".join(missing))
    return args


def build(variant, sanitize):
    """Configure once, then build incrementally; returns the binary path."""
    out = BUILD / variant
    cmake = shutil.which("cmake")
    if cmake is None:
        sys.exit("perfbench: cmake not found")
    if not (out / "CMakeCache.txt").exists():
        cmd = [cmake, "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if sanitize:
            cmd.append(f"-DPARATREET_SANITIZE={sanitize}")
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            sys.exit("perfbench: configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run([cmake, "--build", str(out), "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return out / "stepbench"


def run_one(binary, workload, args, trace):
    """Run one workload in its own process group; returns (result, stdout)."""
    scratch = BUILD / "run"
    traces = BUILD / "traces"
    scratch.mkdir(parents=True, exist_ok=True)
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--scratch", str(scratch),
           "--chrome-trace", str(traces / f"{workload}-seed{args.seed}.json")]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        survivors = reap_group(proc.pid)
    if survivors:
        sys.exit(f"perfbench: {workload}: processes outlived the benchmark and were killed")
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        sys.stdout.write("\n".join(lines[:-1] if result else lines) + "\n")
        sys.exit(f"perfbench: {workload} exited with {proc.returncode} and no result")
    return result, "\n".join(lines[:-1])


def reap_group(pgid):
    """Kill whatever is left of the run's process group; True if anything was."""
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    os.killpg(pgid, signal.SIGKILL)
    for _ in range(100):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.05)
    return True


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None without one."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    spec = json.loads(path.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_shape(workload, result, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"perfbench: {workload}: malformed result keys {sorted(result)}")
    declared = declared_metrics(trace)
    if declared is not None and sorted(declared) != sorted(result["metrics"]):
        sys.exit(f"perfbench: {workload}: metrics {sorted(result['metrics'])} "
                 f"differ from BENCHMARK.json's {sorted(declared)}")


def main(argv):
    args = parse_args(argv)
    variant = args.sanitize or "release"
    binary = build(variant, args.sanitize)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    modes = [0, 1] if args.smoke else [args.trace]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    last = None
    for workload in workloads:
        for trace in modes:
            result, text = run_one(binary, workload, args, trace)
            if not args.smoke:
                check_shape(workload, result, trace)
            print(text, flush=True)
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                combined["metrics"][f"{workload}/{name}"] = m
            last = result
    print(json.dumps(last if len(workloads) * len(modes) == 1 else combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
