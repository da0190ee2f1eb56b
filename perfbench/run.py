#!/usr/bin/env python3
"""End-to-end benchmark of the Aergia reproduction.

Builds the `aergia-perfbench` binary from this directory's Cargo package,
runs fresh-process attempts of one workload under a watchdog for a fixed
time, checks their outputs and prints every metric by name with its unit.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root):

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

`--trace 0` reports the end-to-end metrics from untraced runs (telemetry
off, plain in-process transport). `--trace 1` runs pairs of one untraced
and one traced attempt of the same seed and reports the per-layer
metrics. See NOTES.md for the workloads, the metric -> layer -> workload
map and the known round-0 hang the watchdog counts.
"""

import argparse
import json
import os
import queue
import shutil
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")

WORKLOADS = ["cross-silo-cifar", "cross-device-mnist", "population-1m-timing", "loopback-tcp"]
REAL_MODE = {"cross-silo-cifar", "cross-device-mnist", "loopback-tcp"}

# Per-attempt duration guess (seconds) before the first attempt finishes.
FIRST_GUESS = {
    "cross-silo-cifar": 22.0,
    "cross-device-mnist": 9.0,
    "population-1m-timing": 2.5,
    "loopback-tcp": 9.0,
}

# Watchdog: an attempt whose threads are all parked burns no CPU. One
# that sends no heartbeat and gains less than IDLE_CPU_S of CPU time for
# IDLE_WINDOW_S seconds is hung; one that sends no heartbeat for
# STALL_S seconds is hung regardless of CPU.
IDLE_WINDOW_S = 1.0
IDLE_CPU_S = 0.05
STALL_S = 60.0
# Nothing runs past this many seconds after the invocation started.
HARD_CAP_S = 165.0

END_TO_END = [
    ("setup_s", "s"),
    ("round_p50_s", "s"),
    ("round_tail_s", "s"),
    ("run_s", "s"),
    ("samples_per_s", "1/s"),
    ("client_updates_per_s", "1/s"),
    ("virtual_time_s", "s"),
    ("final_accuracy", "fraction"),
    ("bytes_per_round", "B"),
    ("peak_rss_mib", "MiB"),
]

PER_LAYER = [
    ("engine.round_s", "s"),
    ("engine.federator_self_s", "s"),
    ("engine.warmup_s", "s"),
    ("engine.finish_s", "s"),
    ("engine.eval_s", "s"),
    ("engine.new_s", "s"),
    ("data.synth_s", "s"),
    ("transport.train_s", "s"),
    ("transport.offload_train_s", "s"),
    ("transport.orders", "count"),
    ("transport.offload_orders", "count"),
    ("runtime.idle_share", "fraction"),
    ("tensor.gemm_calls.nn", "count"),
    ("tensor.gemm_calls.nt", "count"),
    ("tensor.gemm_calls.tn", "count"),
    ("tensor.guarded_subtile_share", "fraction"),
    ("tensor.gemm_gflops", "GFLOP/s"),
    ("codec.encoded_bytes", "B"),
    ("codec.frames", "count"),
    ("codec.ratio", "ratio"),
    ("codec.encode_s", "s"),
    ("codec.decode_s", "s"),
    ("fold.s_per_update", "s"),
    ("pool.hit_ratio", "fraction"),
    ("pool.rebuilds", "count"),
    ("pool.evictions", "count"),
    ("pool.resident_bytes", "B"),
    ("scheduler.offload_share", "fraction"),
    ("simnet.round_virtual_s", "s"),
    ("net.order_rtt_p50_s", "s"),
    ("net.proto_encode_s", "s"),
    ("net.envelope_bytes_per_round", "B"),
    ("net.connects", "count"),
    ("net.backoffs", "count"),
    ("net.drops", "count"),
    ("checkpoint.save_s", "s"),
    ("checkpoint.bytes", "B"),
    ("telemetry.overhead_share", "fraction"),
]


def log(msg):
    print(msg, flush=True)


def warn(msg):
    print(msg, file=sys.stderr, flush=True)


def sub_seed(seed, k):
    """Attempt k's experiment seed (SplitMix64 of the invocation seed)."""
    z = (seed * 1_000_003 + k + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return (z ^ (z >> 31)) & 0xFFFFFFFF


def median(values):
    values = sorted(values)
    n = len(values)
    if n == 0:
        return float("nan")
    return values[n // 2] if n % 2 else (values[n // 2 - 1] + values[n // 2]) / 2


def quantile(values, q):
    """Linear-interpolated quantile."""
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def tail_percentile(n):
    """The highest whole percentile with at least ten samples beyond it
    (never below the median)."""
    best = 50
    for p in range(50, 100):
        if n * (100 - p) / 100 >= 10:
            best = p
    return best


def build():
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        warn("perfbench: build failed")
        sys.exit(1)
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(os.path.abspath(target), "release", "aergia-perfbench")
    if not os.path.isfile(binary):
        warn(f"perfbench: built binary missing at {binary}")
        sys.exit(1)
    return binary, os.path.join(os.path.abspath(target), "perfbench-runs")


def cpu_seconds(pid):
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / 100.0
    except (OSError, IndexError, ValueError):
        return 0.0


class Attempt:
    """One fresh-process attempt under the watchdog."""

    def __init__(self, binary, workload, seed, traced, run_dir, twin=False, host=False):
        args = [binary, "--workload", workload]
        if host:
            args.append("--host")
        else:
            args += ["--seed", str(seed), "--trace", "1" if traced else "0", "--dir", run_dir]
            if twin:
                args.append("--twin")
        self.proc = subprocess.Popen(args, stdout=subprocess.PIPE, text=True)
        self.lines = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self):
        for line in self.proc.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def wait(self, limit_s):
        """Returns (report, error). Kills the attempt on a watchdog hit."""
        started = last_beat = time.monotonic()
        idle_from, idle_cpu = started, cpu_seconds(self.proc.pid)
        report, done = None, False
        while not done:
            try:
                line = self.lines.get(timeout=0.25)
            except queue.Empty:
                line = ""
            now = time.monotonic()
            if line is None:
                done = True
            elif line:
                last_beat = idle_from = now
                idle_cpu = cpu_seconds(self.proc.pid)
                if line.startswith("result "):
                    report = json.loads(line[len("result "):])
                continue
            if done:
                break
            cpu = cpu_seconds(self.proc.pid)
            why = None
            if now - idle_from >= IDLE_WINDOW_S:
                if cpu - idle_cpu < IDLE_CPU_S:
                    why = f"no heartbeat and no CPU progress for {now - idle_from:.1f} s"
                idle_from, idle_cpu = now, cpu
            if now - last_beat >= STALL_S:
                why = f"no heartbeat for {now - last_beat:.0f} s"
            if now - started >= limit_s:
                why = f"time limit of {limit_s:.0f} s reached"
            if why:
                self.kill()
                return None, f"watchdog: {why}"
        code = self.proc.wait()
        if code != 0:
            return None, f"exit code {code}"
        if report is None:
            return None, "no result line"
        return report, None

    def kill(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()


def run_attempt(binary, workload, seed, traced, run_dir, limit_s, twin=False):
    attempt = Attempt(binary, workload, seed, traced, run_dir, twin=twin)
    try:
        report, error = attempt.wait(limit_s)
    finally:
        attempt.kill()
    if report is not None and report.get("failed_checks"):
        error = "output check failed: " + "; ".join(report["failed_checks"])
    return report, error


def host_context(binary, workload):
    attempt = Attempt(binary, workload, 0, False, "", host=True)
    try:
        report, error = attempt.wait(10.0)
    finally:
        attempt.kill()
    return report or {"error": error}


class Invocation:
    def __init__(self, binary, runs_root, workload, seed, seconds):
        self.binary = binary
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.monotonic()
        self.run_dir = os.path.join(runs_root, f"{workload}-{seed}-{os.getpid()}")
        os.makedirs(self.run_dir, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.incorrect = False

    def elapsed(self):
        return time.monotonic() - self.started

    def attempt(self, seed, traced=False, twin=False):
        """Runs one attempt; hung, crashed or failed-check attempts are
        logged with their workload and seed and counted as failed."""
        limit = max(1.0, HARD_CAP_S - self.elapsed())
        t0 = time.monotonic()
        report, error = run_attempt(
            self.binary, self.workload, seed, traced, self.run_dir, limit, twin
        )
        self.attempted += 1
        took = time.monotonic() - t0
        mode = "traced" if traced else "untraced"
        if error:
            self.failed += 1
            if error.startswith("output check failed"):
                self.incorrect = True
            warn(f"perfbench: FAILED {self.workload} seed {seed} ({mode}): {error}")
            log(f"attempt {self.attempted - 1}: {mode} seed {seed} FAILED after {took:.1f} s: {error}")
            return None
        log(f"attempt {self.attempted - 1}: {mode} seed {seed} ok in {took:.1f} s "
            f"({len(report['rounds_s'])} rounds)")
        return report

    def close(self):
        shutil.rmtree(self.run_dir, ignore_errors=True)


def measure_untraced(inv):
    """Attempts until the measuring time is used; returns the good reports."""
    good, durations = [], []
    # The networked workload repeats one seed so its in-process twin (run
    # by the first attempt) vouches for every attempt's batch counts.
    fixed_seed = inv.workload == "loopback-tcp"
    while True:
        guess = median(durations) if durations else FIRST_GUESS[inv.workload]
        if good and inv.elapsed() + guess > inv.seconds:
            break
        if inv.elapsed() > HARD_CAP_S - guess:
            break
        # A failed attempt is retried with the same seed, so the inputs
        # of an invocation never depend on which attempts hung.
        seed = inv.seed if fixed_seed else sub_seed(inv.seed, len(good))
        twin = fixed_seed and not any(r.get("twin_checked") for r in good)
        t0 = time.monotonic()
        report = inv.attempt(seed, twin=twin)
        if report is not None:
            durations.append(time.monotonic() - t0)
            good.append(report)
    return good


def summarise_untraced(inv, reports):
    rounds = [r for rep in reports for r in rep["rounds_s"]]
    round_wall = sum(rounds)
    if inv.workload == "loopback-tcp":
        twin = next(rep for rep in reports if "samples" in rep)
        for rep in reports:
            rep.setdefault("samples", twin["samples"])
    tail_p = tail_percentile(len(rounds))
    metrics = {
        "setup_s": median([s for r in reports for s in r["setups_s"]]),
        "round_p50_s": median(rounds),
        "round_tail_s": quantile(rounds, tail_p / 100),
        "run_s": median([r["run_s"] for r in reports]),
        "samples_per_s": sum(r["samples"] for r in reports) / round_wall,
        "client_updates_per_s": sum(r["updates"] for r in reports) / round_wall,
        "virtual_time_s": median([r["virtual_time_s"] for r in reports]),
        "final_accuracy": median([r["final_accuracy"] for r in reports]),
        "bytes_per_round": median([r["bytes_per_round"] for r in reports]),
        "peak_rss_mib": median([r["peak_rss_mib"] for r in reports]),
    }
    notes = {
        "setup_s": f"median of {sum(len(r['setups_s']) for r in reports)} setups",
        "round_p50_s": f"n={len(rounds)} rounds",
        "round_tail_s": f"p{tail_p}, n={len(rounds)} rounds",
        "run_s": f"median of {len(reports)} runs",
        "samples_per_s": "simulated samples (timing mode)"
        if inv.workload not in REAL_MODE else "own + offloaded batches x batch size",
        "final_accuracy": "chance level: timing mode trains nothing"
        if inv.workload not in REAL_MODE else f"median of {len(reports)} runs",
    }
    return metrics, notes


def measure_traced(inv):
    """Pairs of one untraced and one traced attempt of the same seed, in
    alternating order, until the measuring time is used (at least one
    pair). A failed attempt is counted and retried with the same seed."""
    plain, traced, durations = [], [], []
    k = 0
    while True:
        guess = median(durations) if durations else 2 * FIRST_GUESS[inv.workload]
        if traced and inv.elapsed() + guess > inv.seconds:
            break
        seed = inv.seed if inv.workload == "loopback-tcp" else sub_seed(inv.seed, k)
        t0 = time.monotonic()
        pair = {}
        for is_traced in ((False, True) if k % 2 == 0 else (True, False)):
            while pair.get(is_traced) is None and inv.elapsed() < HARD_CAP_S - guess / 2:
                pair[is_traced] = inv.attempt(seed, traced=is_traced)
        k += 1
        if None in (pair.get(False), pair.get(True)):
            break
        durations.append(time.monotonic() - t0)
        if pair[False]["fingerprint"] != pair[True]["fingerprint"]:
            inv.failed += 1
            inv.incorrect = True
            warn(f"perfbench: FAILED {inv.workload} seed {seed}: traced and untraced "
                 "final weights differ")
            continue
        plain.append(pair[False])
        traced.append(pair[True])
    return plain, traced


def summarise_traced(plain, traced):
    names = [name for name, _ in PER_LAYER if name != "telemetry.overhead_share"]
    layers = {name: median([t["layers"][name] for t in traced]) for name in names}
    layers["telemetry.overhead_share"] = (
        median([t["run_s"] for t in traced]) / median([p["run_s"] for p in plain]) - 1.0
    )
    accounted = (layers["transport.train_s"] + layers["transport.offload_train_s"]
                 + layers["engine.federator_self_s"])
    notes = {
        "tensor.gemm_gflops": traced[0]["layers"]["tensor.gemm_tile"],
        "engine.round_s": f"transport.train_s + transport.offload_train_s + "
                          f"engine.federator_self_s = {accounted:.6g} s",
        "telemetry.overhead_share": f"traced vs untraced run_s over {len(traced)} pairs",
    }
    return layers, notes


def run_workload(binary, runs_root, workload, seed, seconds, trace):
    log(f"perfbench: workload={workload} seed={seed} seconds={seconds} trace={trace}")
    inv = Invocation(binary, runs_root, workload, seed, seconds)
    try:
        if trace:
            plain, traced = measure_traced(inv)
            if not traced:
                warn(f"perfbench: {workload} seed {seed}: no successful traced pair")
                return None
            metrics, notes = summarise_traced(plain, traced)
            units = dict(PER_LAYER)
        else:
            reports = measure_untraced(inv)
            if not reports:
                warn(f"perfbench: {workload} seed {seed}: no successful attempt")
                return None
            metrics, notes = summarise_untraced(inv, reports)
            units = dict(END_TO_END)
        host = host_context(binary, workload)
    finally:
        inv.close()
    log("host: " + " ".join(f"{k}={v}" for k, v in host.items()))
    for name, unit in (PER_LAYER if trace else END_TO_END):
        note = f"  ({notes[name]})" if name in notes else ""
        log(f"{name} = {metrics[name]:.6g} {unit}{note}")
    share = inv.failed / inv.attempted if inv.attempted else 0.0
    log(f"failed_share = {share:.3f} ({inv.failed} of {inv.attempted} attempts)")
    return {
        "correct": not inv.incorrect,
        "attempted": inv.attempted,
        "failed": inv.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args()
    binary, runs_root = build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for workload in workloads:
        result = run_workload(binary, runs_root, workload, args.seed, args.seconds, args.trace)
        if result is None:
            status = 1
            continue
        print(json.dumps(result), flush=True)
    sys.exit(status)


if __name__ == "__main__":
    main()
