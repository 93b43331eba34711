#!/usr/bin/env python3
"""Builds the benchmark driver from this checkout and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run it from the repository root. The library and driver are built with
CMake into .bench_build/perfbench (incremental after the first run). The
driver's JSON result is checked against BENCHMARK.json (every metric it
names, with its unit, for the chosen trace mode) and printed as the last
line of standard output; build logs and diagnostics go to standard error.
Exits non-zero, printing no result, if the build, the run or the check
fails.
"""

import argparse
import json
import math
import os
import pathlib
import shutil
import signal
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"
BUILD_TIMEOUT_S = 850
# Setup, the correctness check and process start-up on top of --seconds.
RUN_SLACK_S = 120


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, **kwargs):
    """Runs cmd in its own process group and returns its captured output.

    On timeout the whole group is killed, so no compiler or driver thread
    outlives this script. Any failure ends the script.
    """
    with subprocess.Popen(cmd, cwd=ROOT, start_new_session=True,
                          **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
            fail(f"timed out after {timeout}s: {' '.join(map(str, cmd))}")
    if proc.returncode != 0:
        fail(f"exit {proc.returncode}: {' '.join(map(str, cmd))}")
    return out


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no library sources under {ROOT}")
    logs = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
             *generator, "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S,
            **logs)
    jobs = str(min(4, os.cpu_count() or 1))
    run(["cmake", "--build", str(BUILD), "--target", "perfbench_driver",
         "-j", jobs], BUILD_TIMEOUT_S, **logs)


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        fail(f"driver printed no JSON result ({e})")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        fail("'correct' is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail(f"'{key}' is not a non-negative integer")
    if result["attempted"] < 1:
        fail("no batch attempted")
    want = expected_metrics(trace)
    got = result["metrics"]
    if set(got) != set(want):
        fail(f"metrics {sorted(got)} differ from BENCHMARK.json {sorted(want)}")
    for name, entry in got.items():
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {name} has no finite value")
        if entry.get("unit") != want[name]:
            fail(f"metric {name} unit {entry.get('unit')} != {want[name]}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("need --seed >= 0 and --seconds >= 1")

    build()
    cmd = [str(DRIVER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    # The library reads these; a stray value in the caller's environment
    # would change the thread count or the kernel backend being measured.
    env = {k: v for k, v in os.environ.items()
           if k not in ("ADR_THREADS", "ADR_SIMD")}
    out = run(cmd, args.seconds + RUN_SLACK_S, env=env,
              stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    lines = out.strip().splitlines()
    if not lines:
        fail("driver printed nothing")
    check_result(lines[-1], args.trace)
    print(lines[-1])


if __name__ == "__main__":
    main()
