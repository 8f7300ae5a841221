#!/usr/bin/env python3
"""The repo benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload busy_apps --seed 7 --seconds 20 --trace 0

Run from the root of a checkout.  The first run configures and builds
this directory's CMake project (the simulator library, the 24
figure/table/ablation bench binaries and the in-process driver
`perfbench`) under $CARGO_TARGET_DIR (default .bench_build); later runs
only check that build.  The workload is measured for --seconds seconds
and the last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones.  Progress and build output go to
stderr.

    python3 perfbench/run.py --write-expected

rewrites the committed expected outputs (expected/) from the current
tree, for a deliberate re-baseline.
"""

import argparse
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import signal
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected")
WORKLOADS = ("repro", "busy_apps", "idle_apps")

# The reproduction, in the order a user reading the paper runs it.
REPRO = [
    "bench_fig02_spec_speedup",
    "bench_fig03_spec_power",
    "bench_fig04_latency_apps",
    "bench_fig05_fps_apps",
    "bench_fig06_util_power",
    "bench_table3_tlp",
    "bench_table4_tlp_matrix",
    "bench_fig07_core_configs_perf",
    "bench_fig08_core_configs_power",
    "bench_fig09_little_freq_dist",
    "bench_fig10_big_freq_dist",
    "bench_table5_efficiency",
    "bench_fig11_param_power",
    "bench_fig12_param_latency",
    "bench_fig13_param_fps",
    "bench_abl_cache_asymmetry",
    "bench_abl_migration_boost",
    "bench_abl_thermal",
    "bench_abl_tiny_opp",
    "bench_governor_comparison",
    "bench_abl_cpuidle",
    "bench_abl_cluster_migration",
    "bench_abl_fault_resilience",
    "bench_abl_recovery",
]

# bench_abl_recovery prints host milliseconds; everything else is
# deterministic and compared byte for byte.
MASKS = {
    "bench_abl_recovery": [
        (re.compile(r"\d+ host ms"), "<host> host ms"),
        (re.compile(r"\s+[\d.]+ms(?=\s+[\d.]+\s+\d+%$)", re.M),
         " <rollback>ms"),
    ],
}

CHILD_TIMEOUT_S = 120


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.abspath(target), "perfbench")


def build():
    """Configure (first time) and build; returns the build directory."""
    for needed in ("src/core/experiment.cc", "bench/bench_util.hh"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            sys.exit("perfbench: %s is missing; run from a checkout of "
                     "the repository" % needed)
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=850).returncode != 0:
            sys.exit("perfbench: build failed: %s" % " ".join(cmd))
    return out


def masked(name, text):
    for pattern, repl in MASKS.get(name, []):
        text = pattern.sub(repl, text)
    return text


def expected_output(name):
    with open(os.path.join(EXPECTED, "repro", name + ".out")) as f:
        return f.read()


def read_sim_ms():
    """Simulated ms each repro binary covers (expected/repro_sim_ms.txt)."""
    sim = {}
    with open(os.path.join(EXPECTED, "repro_sim_ms.txt")) as f:
        for line in f:
            if line.strip() and not line.startswith("#"):
                name, ms = line.split()
                sim[name] = float(ms)
    return sim


class Repro:
    """Runs the reproduction binaries one at a time and checks them."""

    def __init__(self, bdir, tmp):
        self.bin = os.path.join(bdir, "repro")
        self.spawn = os.path.join(bdir, "spawn")
        self.cwd = os.path.join(tmp, "cwd")
        self.attempted = 0
        self.failed = 0
        self.peak_rss_kb = 0

    def run(self, name, args=()):
        """One checked run of @name; returns host seconds."""
        # A fresh working directory per run: bench_abl_recovery writes
        # its checkpoints into it.
        shutil.rmtree(self.cwd, ignore_errors=True)
        os.makedirs(self.cwd)
        proc = subprocess.Popen(
            [self.spawn, os.path.join(self.bin, name), *args],
            cwd=self.cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            start_new_session=True)
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
        rc = proc.returncode
        # spawn's last stderr line: "spawn: <peak rss KB> <seconds>".
        tail = err.decode(errors="replace").rstrip().rsplit("\n", 1)[-1]
        if tail.startswith("spawn: "):
            rss_kb, seconds = tail.split()[1:]
            self.peak_rss_kb = max(self.peak_rss_kb, int(rss_kb))
            seconds = float(seconds)
        else:
            rc, seconds = rc or -1, 0.0
        self.attempted += 1
        ok = rc == 0 and (args or masked(name, out.decode()) ==
                          expected_output(name))
        if not ok:
            self.failed += 1
            log("perfbench: %s %s: exit %s or output differs from "
                "expected/repro/%s.out" % (name, " ".join(args), rc, name))
        return seconds


def repro_untraced(args, bdir, tmp):
    repro = Repro(bdir, tmp)
    order = list(REPRO)
    random.Random(args.seed).shuffle(order)
    sim_ms = sum(read_sim_ms()[n] for n in REPRO)

    # Time metrics from each binary's fastest run, for the reason
    # runAppsUntraced in perfbench.cc gives.  There are only 24
    # binaries, too few for a tail with ten beyond it, so the tail is
    # taken over every run.  Set-up (every binary started and stopped
    # without simulating) runs between passes, so its median samples
    # the whole run.
    setups, cells, best = [], [], {}
    t0 = time.perf_counter()
    while not best or time.perf_counter() - t0 < args.seconds:
        for _ in range(4):
            setups.append(sum(repro.run(n, ("--help",)) for n in order))
        times = {n: repro.run(n) for n in order}
        cells += times.values()
        best = {n: min(t, best.get(n, t)) for n, t in times.items()}
    tail_q = tail_quantile(0.75, len(cells))
    log("cell_ms_tail is p%g of %d binary runs" % (tail_q * 100,
                                                     len(cells)))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(best.values()), "s"),
        "sim_ms_per_s": (sim_ms / sum(best.values()), "ms/s"),
        "cell_ms_p50": (1e3 * statistics.median(best.values()), "ms"),
        "cell_ms_tail": (1e3 * quantile(cells, tail_q), "ms"),
        "rss_mb": (repro.peak_rss_kb / 1024, "MB"),
    }
    return result(repro.attempted, repro.failed, metrics)


def quantile(values, q):
    """Linear-interpolated quantile, as perfbench.cc computes it."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def tail_quantile(planned, n):
    """perfbench.cc's tailPercentile: @planned, lowered only while
    fewer than ten of @n cells lie beyond it."""
    q = planned
    for lower in (0.9, 0.75, 0.5):
        if n * (1 - q) >= 10:
            break
        q = min(q, lower)
    return q


def result(attempted, failed, metrics):
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }


def perfbench(args, bdir, tmp):
    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--refs", os.path.join(EXPECTED, "cells.txt"), "--tmp", tmp]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=170)
    lines = proc.stdout.decode().splitlines()
    for line in lines[:-1]:
        log(line)
    if proc.returncode != 0 or not lines:
        sys.exit("perfbench: %s exited %d" % (cmd[0], proc.returncode))
    return json.loads(lines[-1])


def traced(args, bdir, tmp):
    """In-process breakdown plus one timed run of each repro binary."""
    res = perfbench(args, bdir, tmp)
    repro = Repro(bdir, tmp)
    for name in REPRO:
        short = name[len("bench_"):]
        res["metrics"]["repro.%s_s" % short] = {
            "value": repro.run(name), "unit": "s"}
    res["attempted"] += repro.attempted
    res["failed"] += repro.failed
    res["correct"] = res["correct"] and repro.failed == 0
    return res


def write_expected(bdir, tmp):
    os.makedirs(os.path.join(EXPECTED, "repro"), exist_ok=True)
    cwd = os.path.join(tmp, "cwd")
    for name in REPRO:
        shutil.rmtree(cwd, ignore_errors=True)
        os.makedirs(cwd)
        out = subprocess.run([os.path.join(bdir, "repro", name)], cwd=cwd,
                             stdout=subprocess.PIPE, check=True,
                             timeout=CHILD_TIMEOUT_S).stdout.decode()
        with open(os.path.join(EXPECTED, "repro", name + ".out"), "w") as f:
            f.write(masked(name, out))
    refs = subprocess.run([os.path.join(bdir, "perfbench"), "--write-refs"],
                          stdout=subprocess.PIPE, check=True).stdout
    with open(os.path.join(EXPECTED, "cells.txt"), "wb") as f:
        f.write(refs)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-expected", action="store_true")
    args = ap.parse_args()
    if not args.write_expected and args.workload is None:
        ap.error("--workload is required")

    bdir = build()
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=os.path.dirname(bdir))
    try:
        if args.write_expected:
            write_expected(bdir, tmp)
            return
        if args.trace:
            res = traced(args, bdir, tmp)
        elif args.workload == "repro":
            res = repro_untraced(args, bdir, tmp)
        else:
            res = perfbench(args, bdir, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(res))


if __name__ == "__main__":
    main()
