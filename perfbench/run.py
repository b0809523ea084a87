#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload mixed-50k|join-100k|point-1m \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/ (the fbfbench binary
plus the library sources it calls) in Release mode under .bench_build/,
runs one workload with the settings in perfbench/config.json (the
BENCHMARK.json workloads, plus point-1m for manual runs) and prints
the human-readable report followed, as the last line, by one JSON object
with the keys correct, attempted, failed and metrics.  --trace 0 reports
the end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.

Exit status: 0 for a valid run; 1 when a correctness check failed (the
result line then says "correct": false); anything else, with no result
line, when the benchmark could not build or run.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_work")
BINARY = os.path.join(BUILD_DIR, "fbfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the fbfbench target; False on failure."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "fbfbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def source_version():
    """git describe when the tree is a git checkout, else a hash of the sources."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def load_json(path):
    with open(path) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs (the benchmark's own tests)")
    parser.add_argument("--tamper", action="store_true",
                        help="corrupt one reply; the correctness gate must fail")
    args = parser.parse_args()

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    config = load_json(os.path.join(HERE, "config.json"))
    workload = config["workloads"].get(args.workload)
    if workload is None:
        log(f"unknown workload {args.workload!r}")
        return 2
    if not build():
        log("build failed")
        return 3

    flags = dict(workload["flags"])
    if args.quick:
        flags.update(workload["quick"])
    os.makedirs(WORK_DIR, exist_ok=True)
    trace_out = os.path.join(WORK_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK_DIR, "--trace-out", trace_out]
    for key, value in flags.items():
        cmd += [f"--{key}", str(value)]
    if args.tamper:
        cmd.append("--tamper")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"fbfbench did not finish within {RUN_TIMEOUT_S} s")
        return 4
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(proc.stdout)
        log(f"fbfbench exited {proc.returncode} without a result line")
        return 4 if proc.returncode in (0, 1) else proc.returncode

    # Every metric printed must be the BENCHMARK.json list for this mode,
    # each with its declared unit.
    declared = spec["per_layer" if args.trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log(f"metric set mismatch: missing {missing}, undeclared {extra}, "
            f"unit differs {units}")
        return 5

    for line in lines[:-1]:
        print(line)
    print("provenance " + json.dumps({"commit": source_version(),
                                      "build": "Release", "config": flags}))
    print(json.dumps(result), flush=True)
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
