#!/usr/bin/env python3
"""Build and run the EigenMaps serving benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the repository root. The first call configures and builds the
library, the shard worker and the benchmark into .bench_build/ (Release);
later calls rebuild incrementally. The benchmark's last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"} with the
end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).

--smoke runs every workload briefly, traced and untraced, and checks that
each metric named in BENCHMARK.json is printed with its unit and that no
frame failed.
"""

import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench", "perfbench")
# Keep the whole run inside the 180 s budget, build excluded.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds; returns False when the build fails."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    binary_dir = os.path.join(BUILD_DIR, "perfbench")
    # One build at a time per checkout.
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        # A build file exists only after a successful configure.
        configured = any(os.path.exists(os.path.join(binary_dir, name))
                         for name in ("Makefile", "build.ninja"))
        if not configured:
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", binary_dir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", binary_dir, "--target", "perfbench",
                      "-j", str(os.cpu_count() or 1)])
        for step in steps:
            # Build chatter goes to stderr: stdout ends with the result line.
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr)
            if done.returncode != 0:
                log(f"build step failed: {' '.join(step)}")
                return False
    return True


def bench_env(trace):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("EIGENMAPS_")}
    # Two kernel threads: with two engine workers (or two shards) and the
    # generator, the run stays within a 4-core host.
    env["EIGENMAPS_THREADS"] = "2"
    if trace:
        # Per-thread span rings sized to hold one drain period (200 ms) of
        # per-frame ingest spans at the highest offered rate.
        env["EIGENMAPS_TRACE_RING"] = "131072"
    return env


def run_bench(workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (exit code, stdout lines)."""
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--socket-dir", os.path.relpath(BUILD_DIR, ROOT)]
    child = subprocess.Popen(command, cwd=ROOT, env=bench_env(trace),
                             stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    lines = []
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The session holds the benchmark and its shard workers.
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return 1, lines
    lines = out.splitlines()
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    return child.returncode, lines


def parse_result(lines):
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected result keys {sorted(result)}")
    return result


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (False, True):
            code, lines = run_bench(workload, 1, 2, trace, echo=False)
            problems = []
            try:
                result = parse_result(lines)
                got = {name: m.get("unit") for name, m in
                       result["metrics"].items()}
                for name, unit in expected[trace].items():
                    if got.get(name) != unit:
                        problems.append(f"{name} [{unit}] printed as "
                                        f"{got.get(name)!r}")
                for name in set(got) - set(expected[trace]):
                    problems.append(f"{name} is not in BENCHMARK.json")
                if not result["correct"] or result["failed"] != 0:
                    problems.append(f"{result['failed']} of "
                                    f"{result['attempted']} frames failed")
            except ValueError as error:
                problems.append(f"no result line ({error})")
            if code != 0:
                problems.append(f"exit code {code}")
            tag = f"{workload} --trace {int(trace)}"
            print(f"smoke {tag}: {'ok' if not problems else 'FAIL'}")
            for problem in problems:
                print(f"  {problem}")
            ok = ok and not problems
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")
    if not build():
        return 1
    if args.smoke:
        return smoke()
    code, lines = run_bench(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    if code == 0:
        try:
            parse_result(lines)
        except ValueError as error:
            log(f"malformed result line: {error}")
            return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
