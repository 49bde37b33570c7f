#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the packet-chasing reproduction.

    python3 chasebench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 chasebench/run.py --selftest [--seed N]

Run from the root of a checkout. It builds the `chasebench` worker
(this directory's Cargo package) against the checkout's crates, runs
the reference for the seed once, then runs the workload in fresh worker
processes for S seconds and prints one JSON result as its last stdout
line. See README.md next to this file for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WIDTH = len(os.sched_getaffinity(0))

# Workload name -> (worker arguments, PC_BENCH_THREADS).
WORKLOADS = {
    "paper-1t": (["paper"], 1),
    "fleet-1t": (["fleet"], 1),
}
# A traced fleet-1t run also runs the same fleet at the host's full
# width, for the `*.wide.*` layer metrics. Full width is no end-to-end
# workload: on a shared 2-core host its median wall time moved between
# 0.35 s and 0.62 s from run to run (spread 30 %), past any bound.
WIDE = {"fleet-1t": (["fleet"], WIDTH)}
# Spawns per run that only time set-up, on top of one per iteration.
SETUP_SPAWNS = 30
# The output-changing fault the negative control arms.
FAULT = "corrupted-lead:0"
EXPERIMENTS = ["fig5", "fig6", "fig7", "fig8", "table1", "fig10", "fig11", "fig12ab",
               "fig12cd", "fig13", "fingerprint", "table2", "fig14", "fig15", "fig16"]
TEMPLATES = ["tcp-recv_DDIO", "tcp-recv_NoDDIO", "tcp-recv_Adaptive", "nginx_DDIO",
             "nginx_Adaptive", "file-copy_DDIO", "web-mix_DDIO", "kv-store_DDIO",
             "dns-flood_Adaptive", "large-transfer_NoDDIO"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(BENCH_DIR, "target"))


def build():
    """Builds the worker; returns its path, or None when the build fails."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(target_dir(), "release", "chasebench")


class Worker:
    """One finished worker process and what it reported. With
    `reference` ops given, it compares its outputs at once and keeps
    only the count of failures, so the orchestrator stays small."""

    def __init__(self, exe, args, threads, seed, reference=None, spans=None, is_reference=False):
        # A PC_FAULT in the environment reaches the measured workers
        # only: that is how the output check's negative control runs.
        env = {k: v for k, v in os.environ.items() if k not in ("PC_RX_ENGINE", "PC_RSS_QUEUES")}
        env["PC_BENCH_THREADS"] = str(1 if is_reference else threads)
        # glibc moves its mmap threshold up as large blocks are freed,
        # so how much freed memory the heap keeps, and with it the peak
        # resident set, depended on the seed: the fleet's read 16.7-16.8
        # or 18.1-18.2 MB, nothing between. Pinned at its 32 MiB
        # maximum, every smaller block is on the heap from the start;
        # wall time did not move.
        env["MALLOC_MMAP_THRESHOLD_"] = str(32 << 20)
        if is_reference:
            env["PC_RX_ENGINE"] = "per-access"
            env.pop("PC_FAULT", None)
        cmd = [exe] + args + ["--seed", str(seed)] + (["--trace", spans] if spans else [])
        # setup_s is the worker's start-up cost: fork and exec, the
        # dynamic loader, the Rust runtime and the workload's set-up
        # before its first simulated operation. The program's own
        # set-up work (test beds, rings, eviction sets) runs inside the
        # timed phase.
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
        first = proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.stdout.close()
        self.ok = os.waitstatus_to_exitcode(status) == 0 and first == "ready\n"
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.ops, self.counters, self.timed_s, self.rss_mb = {}, {}, None, None
        for line in rest.splitlines():
            kind, _, tail = line.partition(" ")
            if kind == "op":
                name, _, output = tail.partition(" ")
                self.ops[name] = output
            elif kind == "timed_ns":
                self.timed_s = int(tail) / 1e9
            elif kind == "peak_rss_kb":
                self.rss_mb = int(tail) / 1024.0
            elif kind == "counter":
                name, _, value = tail.partition(" ")
                self.counters[name] = int(value)
        self.ok = (self.ok and self.timed_s is not None and self.rss_mb is not None
                   and bool(self.ops))
        if reference is not None:
            self.failed = self.failures(reference)
            self.ops = None

    def failures(self, reference):
        """Operations whose output differs from the reference."""
        return sum(1 for name, out in reference.items() if self.ops.get(name) != out)


def load_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f]


def union_length(intervals):
    total, end = 0, None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def span_table(spans):
    """Per span name: count, inclusive seconds and self seconds, where
    self time is the duration minus the part its children cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    table = {}
    for s in spans:
        dur = s["end"] - s["start"]
        covered = union_length([(max(a, s["start"]), min(b, s["end"]))
                                for a, b in children.get(s["id"], []) if b > s["start"] and a < s["end"]])
        row = table.setdefault(s["name"], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur / 1e9
        row[2] += (dur - covered) / 1e9
    return table


def pool_stats(spans):
    """pc-par: jobs, busy seconds, utilization and imbalance over every
    fan-out span and its job spans."""
    jobs_of = {}
    for s in spans:
        if s["name"] == "pc-par.job":
            jobs_of.setdefault(s["parent"], []).append(s)
    jobs = busy = capacity = worst = mean = 0
    for f in spans:
        if f["name"] != "pc-par.fanout" or f["id"] not in jobs_of:
            continue
        per_thread = {}
        for j in jobs_of[f["id"]]:
            per_thread[j["thread"]] = per_thread.get(j["thread"], 0) + j["end"] - j["start"]
        jobs += len(jobs_of[f["id"]])
        busy += sum(per_thread.values())
        capacity += (f["end"] - f["start"]) * len(per_thread)
        worst += max(per_thread.values())
        mean += sum(per_thread.values()) / len(per_thread)
    return {
        "pc-par.jobs": (jobs, "count"),
        "pc-par.busy_s": (busy / 1e9, "s"),
        "pc-par.util": (busy / capacity if capacity else 0.0, "ratio"),
        "pc-par.imbalance": (worst / mean if mean else 0.0, "ratio"),
    }


def layer_metrics(spans, counters):
    """The per-layer table of one traced worker: name -> (value, unit)."""
    table = span_table(spans)
    c = counters.get

    def busy(name):
        return (table.get(name, [0, 0.0, 0.0])[1], "s")

    def count(name):
        return (table.get(name, [0, 0.0, 0.0])[0], "count")

    m = {}
    for e in EXPERIMENTS:
        m[f"bench.{e}.busy_s"] = busy(f"bench.{e}")
    for t in TEMPLATES:
        m[f"bench.tenant.{t}.count"] = count(f"bench.tenant.{t}")
        m[f"bench.tenant.{t}.busy_s"] = busy(f"bench.tenant.{t}")
    m.update(pool_stats(spans))
    attempts = c("core.chase.attempts", 0)
    windows = c("core.windows", 0)
    accesses = c("pc-cache.accesses", 0)
    m.update({
        "core.testbed_new.count": count("core.testbed_new"),
        "core.testbed_new.busy_s": busy("core.testbed_new"),
        "core.chase.busy_s": busy("core.chase"),
        "core.chase.attempts": (attempts, "count"),
        "core.chase.observed": (c("core.chase.observed", 0), "count"),
        "core.chase.out_of_syncs": (c("core.chase.out_of_syncs", 0), "count"),
        "core.chase.yield": (c("core.chase.observed", 0) / attempts if attempts else 0.0, "ratio"),
        "core.classify.busy_s": busy("core.classify"),
        "core.frames": (c("core.frames", 0), "count"),
        "core.window_frames_mean": (c("core.window_frames", 0) / windows if windows else 0.0, "frames"),
        "pc-probe.evset_build.count": count("pc-probe.evset_build"),
        "pc-probe.evset_build.busy_s": busy("pc-probe.evset_build"),
        "pc-probe.prime.count": count("pc-probe.prime"),
        "pc-probe.prime.busy_s": busy("pc-probe.prime"),
        "pc-net.schedule.busy_s": busy("pc-net.schedule"),
        "pc-net.frames": (c("pc-net.frames", 0), "count"),
        "pc-nic.emit_ns_per_frame": (c("pc-nic.emit_ps_per_frame", 0) / 1000, "ns"),
        "pc-cache.replay_ns_per_op.1t": (c("pc-cache.replay_ps_per_op.1t", 0) / 1000, "ns"),
        "pc-cache.replay_ns_per_op.wide": (c("pc-cache.replay_ps_per_op.wide", 0) / 1000, "ns"),
        "pc-cache.accesses": (accesses, "count"),
        "pc-cache.miss_rate": (c("pc-cache.misses", 0) / accesses if accesses else 0.0, "ratio"),
    })
    for d in ["nginx", "tcp_recv", "file_copy", "http_load"]:
        m[f"pc-defense.{d}.busy_s"] = busy(f"pc-defense.{d}")
    return m, table


def wide_metrics(runs, wide_runs, wide_layers):
    """The same fleet at the host's full width against 1 thread: what
    the pc-par fan-out, nested sharding and fused windows cost or save
    (all 0 on workloads without a full-width counterpart)."""
    m = {"pc-par.wide.speedup": (0.0, "ratio"), "pc-par.wide.cpu_ratio": (0.0, "ratio"),
         "pc-par.wide.util": (0.0, "ratio"), "pc-par.wide.imbalance": (0.0, "ratio"),
         "core.wide.window_frames_mean": (0.0, "frames")}
    if wide_runs:
        m.update({
            "pc-par.wide.speedup": (median([w.timed_s for w in runs])
                                    / median([w.timed_s for w in wide_runs]), "ratio"),
            "pc-par.wide.cpu_ratio": (median([w.cpu_s for w in wide_runs])
                                      / median([w.cpu_s for w in runs]), "ratio"),
            "pc-par.wide.util": (median([r["pc-par.util"][0] for r in wide_layers]), "ratio"),
            "pc-par.wide.imbalance":
                (median([r["pc-par.imbalance"][0] for r in wide_layers]), "ratio"),
            "core.wide.window_frames_mean":
                (median([r["core.window_frames_mean"][0] for r in wide_layers]), "frames"),
        })
    return {name: {"value": v, "unit": unit} for name, (v, unit) in m.items()}


def declared_names(trace):
    """The metric names BENCHMARK.json declares for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(exe, workload, seed, seconds, trace):
    args, threads = WORKLOADS[workload]
    reference = Worker(exe, args, threads, seed, is_reference=True)
    if not reference.ok:
        log("reference run failed")
        return None
    spans_path = os.path.join(target_dir(), "chasebench-spans.jsonl")

    def worker(args, threads, spans=None):
        return Worker(exe, args, threads, seed, reference=reference.ops, spans=spans)

    def traced_worker(args, threads):
        """A traced worker and its layer table (None if it crashed)."""
        t = worker(args, threads, spans_path)
        return t, layer_metrics(load_spans(spans_path), t.counters) if t.ok else None

    wide = WIDE.get(workload) if trace else None
    runs, traced, wide_runs, wide_traced = [], [], [], []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        runs.append(worker(args, threads))
        if trace:
            traced.append(traced_worker(args, threads))
        if wide:
            wide_runs.append(worker(*wide))
            wide_traced.append(traced_worker(*wide))
    checked = runs + wide_runs + [t for t, _ in traced + wide_traced]
    if not all(w.ok for w in checked):
        log("a worker crashed")
        return None
    attempted = len(reference.ops) * len(checked)
    failed = sum(w.failed for w in checked)
    wall = median([w.timed_s for w in runs])
    if trace:
        layers = [layer for _, (layer, _) in traced]
        metrics = {name: {"value": median([m[name][0] for m in layers]), "unit": unit}
                   for name, (_, unit) in layers[0].items()}
        metrics["trace.overhead"] = {
            "value": median([t.timed_s for t, _ in traced]) / wall - 1, "unit": "ratio"}
        metrics.update(wide_metrics(runs, wide_runs, [layer for _, (layer, _) in wide_traced]))
        log(f"{'span':<36}{'count':>9}{'total_s':>11}{'self_s':>11}")
        for name, (n, total, own) in sorted(traced[-1][1][1].items(), key=lambda kv: -kv[1][2]):
            log(f"{name:<36}{n:>9}{total:>11.4f}{own:>11.4f}")
    else:
        setups = [w.setup_s for w in runs] + [
            Worker(exe, args + ["--setup-only"], threads, seed).setup_s for _ in range(SETUP_SPAWNS)]
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "cpu_s": {"value": median([w.cpu_s for w in runs]), "unit": "s"},
            "setup_s": {"value": median(setups), "unit": "s"},
            "peak_rss_mb": {"value": median([w.rss_mb for w in runs]), "unit": "MB"},
        }
    log(f"{workload}: {len(checked)} workers, {failed}/{attempted} operations failed")
    log(f"  {'failed_frac':<36}{failed / attempted:>14.6f} ratio")
    for name, m in metrics.items():
        log(f"  {name:<36}{m['value']:>14.6f} {m['unit']}")
    if set(metrics) != declared_names(trace):
        log("metric names differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ declared_names(trace))}")
        return None
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def selftest(exe, seed):
    """Checks the benchmark itself; returns True when every check holds."""
    ok = True

    def check(what, passed):
        nonlocal ok
        ok = ok and passed
        log(f"selftest {'ok  ' if passed else 'FAIL'} {what}")

    # The composed traced paths must reproduce evaluate_closed_world
    # (inside the paper workload) and run_fleet_outcomes exactly, on a
    # seed other than the one being measured.
    spans_path = os.path.join(target_dir(), "chasebench-spans.jsonl")
    workers = {}
    for name, (args, threads) in [*WORKLOADS.items(), ("fleet at full width", WIDE["fleet-1t"])]:
        plain = Worker(exe, args, threads, seed + 1)
        traced = Worker(exe, args, threads, seed + 1, spans=spans_path)
        check(f"{name}: traced outputs equal the library's at seed {seed + 1}",
              plain.ok and traced.ok and traced.failures(plain.ops) == 0)
        workers[name] = plain, traced
    fleet, traced = workers["fleet-1t"]
    # The traffic the pc-nic/pc-cache micro-timings replay is the
    # fleet's own: replayed on fresh test beds, it gives the fleet's
    # tenant outcomes.
    traffic = Worker(exe, ["traffic"], 1, seed + 1)
    check("fleet-1t: the timed NIC traffic reproduces the fleet's test-bed tenants",
          traffic.ok and fleet.ok
          and all(fleet.ops.get(name) == out for name, out in traffic.ops.items()))
    threads = traced.counters.get("pc-cache.replay_threads.wide", 0)
    check(f"fleet-1t: pc-cache.replay_ns_per_op.wide replayed at {threads} threads "
          f"(host width {WIDTH})", threads > 1 if WIDTH > 1 else threads == 1)
    # Negative control: an armed output-changing fault must be caught.
    os.environ["PC_FAULT"] = FAULT
    result = run_workload(exe, "fleet-1t", seed, 0, 0)
    del os.environ["PC_FAULT"]
    check(f"fleet-1t: PC_FAULT={FAULT} makes failed_frac > 0",
          result is not None and result["failed"] > 0 and not result["correct"])
    # Both kinds of run print exactly the metric names BENCHMARK.json
    # declares (run_workload refuses otherwise).
    for trace in (0, 1):
        result = run_workload(exe, "fleet-1t", seed, 0, trace)
        check(f"--trace {trace}: metric names match BENCHMARK.json and outputs are correct",
              result is not None and result["correct"])
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true", help="check the benchmark itself")
    a = p.parse_args()
    if not a.selftest and a.workload is None:
        p.error("--workload is required")
    if a.seed < 0:
        p.error("--seed must be non-negative")
    exe = build()
    if exe is None:
        log("build failed")
        return 1
    if a.selftest:
        return 0 if selftest(exe, a.seed) else 1
    result = run_workload(exe, a.workload, a.seed, a.seconds, a.trace)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
