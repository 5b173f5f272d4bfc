#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <oltp_mem|olap_scan|htap_cloud> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds `perfbench/` in release mode (into
$CARGO_TARGET_DIR, else perfbench/target), runs one workload, and prints the
benchmark's JSON result as the last line of standard output. `--trace 1`
prints the per-layer metrics; it also runs a second build, with the counting
allocator, for the allocation metrics. Exits non-zero without a result when
the build fails, and non-zero after the result when a correctness check
failed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
# Every child process is killed after this long; the whole run must end
# within 180 s.
RUN_TIMEOUT_S = 170


def target_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.abspath(base)


def build(target, features):
    """Build the benchmark binary; return its path."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", MANIFEST, "--target-dir", target]
    if features:
        cmd += ["--features", features]
    # Build output goes to stderr: standard output carries only the result.
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"build failed: {' '.join(cmd)}")
    return os.path.join(target, "release", "polaris-perfbench")


def run(binary, args):
    """Run the binary; return (exit code, parsed last stdout line or None)."""
    try:
        done = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed and reaped the child.
        sys.exit(f"{os.path.basename(binary)} {' '.join(args)} timed out")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["oltp_mem", "olap_scan", "htap_cloud"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    a = p.parse_args()

    target = target_dir()
    # Both builds happen on every run (cargo makes the second a no-op), so
    # only the first run in a checkout pays for compiling.
    binary = build(target, None)
    alloc_binary = build(os.path.join(target, "track-alloc"), "track-alloc")

    common = ["--workload", a.workload, "--seed", str(a.seed)]
    code, result = run(binary, common + ["--seconds", str(a.seconds),
                                         "--trace", str(a.trace)])
    if result is None:
        sys.exit(f"no result from the benchmark (exit code {code})")
    if a.trace == 1 and code == 0:
        # Allocations per operation settle within a few seconds.
        alloc_seconds = max(1, min(5, a.seconds // 8))
        alloc_code, alloc = run(alloc_binary, common + [
            "--seconds", str(alloc_seconds), "--trace", "0", "--alloc"])
        if alloc is None:
            sys.exit(f"no result from the allocation run (exit code {alloc_code})")
        result["metrics"].update(alloc["metrics"])
        result["correct"] = result["correct"] and alloc["correct"]
        code = code or alloc_code
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
