#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: edge_loopback, fabric_inproc, cluster_overload (see
BENCHMARK.json). The script builds the `ss-perfbench` package in release
mode (into $CARGO_TARGET_DIR, default `.bench_build`), runs it pinned to
one CPU, and prints two JSON lines: provenance, then the result object
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` it adds
the benchmark process's peak resident set size (`peak_rss_mb`) to the
end-to-end metrics. It exits non-zero, printing no result, if the build
fails or any correctness gate of the benchmark fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
BUILD_TIMEOUT_S = 840
# Slack past --seconds for set-up, teardown and the checks.
RUN_SLACK_S = 120


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return os.path.join(target_dir(), "release", "ss-perfbench")


def source_digest():
    """SHA-256 over the sources the binary is built from (the checkout
    need not be a git repository)."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "crates"), HERE]
    files = []
    for r in roots:
        if os.path.isfile(r):
            files.append(r)
            continue
        for d, subdirs, names in os.walk(r):
            subdirs[:] = sorted(s for s in subdirs if s != "target" and not s.startswith("."))
            files.extend(os.path.join(d, n) for n in names if n.endswith((".rs", ".toml", ".py", ".json")))
    for f in sorted(files):
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def pin_to_one_cpu():
    """Pins this process, and so the benchmark it starts, to its first
    allowed CPU. On a shared VM a thread that sleeps and wakes on another
    vCPU waits for the host to reschedule that vCPU; on one CPU the
    loopback client and server hand off without that wait, and every cost
    on either side adds to the per-packet time. Returns (cpu, allowed)."""
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[0]})
    return allowed[0], len(allowed)


def run_binary(binary, argv, seconds):
    """Runs the benchmark binary; returns (stdout lines, exit code, peak RSS in KiB)."""
    proc = subprocess.Popen([binary] + argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(seconds + RUN_SLACK_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return out.splitlines(), proc.returncode, usage.ru_maxrss


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    cpu, allowed = pin_to_one_cpu()
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", args.trace]
    lines, code, rss_kib = run_binary(binary, argv, args.seconds)
    if code != 0:
        fail(f"{args.workload} exited with code {code}")
    if len(lines) < 2:
        fail("benchmark printed no result")
    prov = json.loads(lines[-2])["provenance"]
    result = json.loads(lines[-1])
    if result.get("correct") is not True:
        fail("benchmark reported an incorrect result")

    peak_rss_mb = rss_kib / 1024.0
    if args.trace == "0":
        result["metrics"]["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    prov.update({
        "git_rev": git_rev(),
        "source_digest": source_digest(),
        "build": "cargo build --release --offline --manifest-path perfbench/Cargo.toml",
        "peak_rss_mb": peak_rss_mb,
        "pinned_cpu": cpu,
        "cpus_allowed": allowed,
        "reference": reference,
    })
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
