#!/usr/bin/env python3
"""The repository benchmark: campaign workloads, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig2-cg --seed 3 --seconds 12 --trace 0

It builds perfbench/driver.cpp against the repository's xgft_sim library
(into .bench_build/perfbench), runs the workload through engine::Runner in
worker processes, checks every output, and prints each metric by name with
its unit.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics: the campaign repeats in fresh
processes for --seconds and medians are taken.  --trace 1 reports the
per-layer metrics from one traced serial pass (perfbench/README.md lists
them).  --seed N shifts every seed= value of the campaign text by N; seed 0
is the builtin text byte for byte.  perfbench/selftest.py is the quick
self-test.
"""

import argparse
import collections
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
WORKLOADS = ("fig2-cg", "loadsweep", "bigsweep-4k", "faultsweep")
NPROC = len(os.sched_getaffinity(0))
# One pool width for every workload and host; at most nproc.
POOL_WIDTH = min(4, NPROC)
# Shard workers per job in the end-to-end runs (0: the engine's idle-share
# default).  bigsweep-4k's single job would shard across the pool, and the
# sharded core's wall time swings 2x between runs on a shared VM (10-19 s
# measured at 4 shards; sets of ten serial runs spread by 2-11%), so its
# end-to-end runs use the serial core.  The per-layer pool run keeps the
# default and reports its cost.
E2E_SIM_THREADS = {"bigsweep-4k": 1}
# Seconds after the build by which every driver process has ended: one that
# is still running then is killed and the run fails.
RUN_LIMIT_S = 170
deadline = float("inf")

# Counts every run of a workload must reproduce exactly.
COUNT_KEYS = ("jobs", "jobs_ok", "counts", "cache", "output_bytes")


class BenchError(Exception):
    """A failure that ends the run without a result line."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    for need in ("CMakeLists.txt", "src/engine/runner.hpp"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            raise BenchError(f"{need} not found: run inside a repository "
                             "checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench_driver",
                    "-j", str(NPROC)], stdout=sys.stderr, check=True)


def driver(args):
    """Runs one driver subcommand; returns its JSON line with the process's
    peak RSS in MB and CPU seconds (user plus system) added."""
    proc = subprocess.Popen([DRIVER] + args, stdout=subprocess.PIPE)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code
    if code != 0:
        raise BenchError(f"driver {' '.join(args)} exited with {code}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError(f"driver {' '.join(args)} printed no result")
    res = json.loads(lines[-1])
    res["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    res["cpu_s"] = usage.ru_utime + usage.ru_stime
    return res


def digests(out_dir):
    result = {}
    for name in ("campaign.csv", "manifest.json"):
        with open(os.path.join(out_dir, name), "rb") as f:
            result[name] = hashlib.sha256(f.read()).hexdigest()
    return result


class Session:
    """One benchmark invocation: workload, seed, and the checks it made."""

    def __init__(self, workload, seed, quick):
        self.workload = workload
        self.seed = seed
        self.quick = quick
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.out_root = os.path.join(BUILD, "out",
                                     f"{workload}-seed{seed}" +
                                     ("-quick" if quick else ""))

    def args(self, command, *extra):
        base = [command, "--workload", self.workload, "--seed",
                str(self.seed)]
        return base + (["--quick"] if self.quick else []) + list(extra)

    def out_dir(self, tag):
        path = os.path.join(self.out_root, tag)
        os.makedirs(path, exist_ok=True)
        return path

    def campaign(self, tag, threads, sim_threads=0):
        """One engine::Runner campaign in its own process."""
        out = self.out_dir(tag)
        res = driver(self.args("run", "--threads", str(threads),
                               "--sim-threads", str(sim_threads),
                               "--out", out))
        res["digests"] = digests(out)
        self.count_jobs(res, tag)
        return res

    def setup(self):
        """One set-up-only process; returns the set-up seconds of its
        passes."""
        res = driver(self.args("setup"))
        self.attempted += res["jobs"]
        if res["jobs_ok"] != res["jobs"]:
            self.failed += res["jobs"] - res["jobs_ok"]
            self.problems.append("set-up pass: job(s) failed")
        return res["setup_s"]

    def traced(self):
        out = self.out_dir("traced")
        res = driver(self.args("traced", "--out", out))
        res["digests"] = digests(out)
        self.count_jobs(res, "traced")
        return res

    def count_jobs(self, res, tag):
        self.attempted += res["jobs"]
        bad = res["jobs"] - res["jobs_ok"]
        if bad:
            self.failed += bad
            self.problems.append(f"{tag}: {bad} job(s) failed, first: "
                                 f"{res['first_error']}")

    def check_outputs(self, runs, reference):
        """Each run's CSV and manifest must match @p reference's."""
        for tag, res in runs:
            if res["digests"] != reference:
                self.failed += 1
                self.problems.append(f"{tag}: output differs from the "
                                     "reference")

    def golden(self):
        """The recorded output digests, which exist for seed 0 only."""
        if self.seed != 0 or self.quick:
            return None
        with open(os.path.join(HERE, "golden.json")) as f:
            return json.load(f)["seed0"][self.workload]

    def check_repeat(self, runs, extra=None):
        """Count-type results must be identical across all runs, and across
        invocations of the same binary on the same workload and seed.  Runs
        with failed jobs are already counted in failed, and their counts are
        not comparable, so they skip this check."""
        if any(res["jobs_ok"] != res["jobs"] for _, res in runs):
            return
        first_tag, first = runs[0]
        want = {k: first[k] for k in COUNT_KEYS}
        for tag, res in runs[1:]:
            got = {k: res[k] for k in COUNT_KEYS}
            if got != want:
                raise BenchError(f"nondeterminism: counts of {tag} differ "
                                 f"from {first_tag}: {got} vs {want}")
        record = dict(want, **(extra or {}))
        with open(DRIVER, "rb") as f:
            binary = hashlib.sha256(f.read()).hexdigest()[:16]
        path = os.path.join(BUILD, "counts", binary,
                            os.path.basename(self.out_root) + ".json")
        if os.path.isfile(path):
            with open(path) as f:
                before = json.load(f)
            for key in set(before) & set(record):
                if before[key] != record[key]:
                    raise BenchError(f"nondeterminism: {key} differs from "
                                     f"an earlier run: {record[key]} vs "
                                     f"{before[key]}")
            record = dict(before, **record)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(record, f, sort_keys=True)


def events(res):
    """Simulated events of a run; at least 1, so that a run whose jobs all
    failed still gives a result (its failures are counted in failed)."""
    return max(1, res["counts"]["events"])


def end_to_end(s, seconds):
    """Tracing off: until --seconds have passed (at least twice), one
    campaign at pool width POOL_WIDTH and one set-up process run in turn,
    each in a fresh process; every metric is a median over them.  Set-up
    time varies more between processes than between the passes of one, so
    it is sampled in as many processes as the campaign."""
    runs = []
    setups = []
    start = time.monotonic()
    sim_threads = E2E_SIM_THREADS.get(s.workload, 0)
    while len(runs) < 2 or time.monotonic() - start < seconds:
        tag = f"run{len(runs)}"
        runs.append((tag, s.campaign(tag, POOL_WIDTH, sim_threads)))
        setups.append(s.setup())
    samples = [r for _, r in runs]
    reference = s.golden()
    if reference is None:
        runs.append(("serial", s.campaign("serial", 1)))
        reference = runs[-1][1]["digests"]
    s.check_outputs(runs, reference)
    s.check_repeat(runs)
    median = statistics.median
    metrics = {
        "wall_s": (median([r["wall_s"] for r in samples]), "s"),
        "setup_s": (median([median(p) for p in setups]), "s"),
        "sim_ns_per_event": (median([r["job_wall_ns"] / events(r)
                                     for r in samples]), "ns"),
        "cpu_ns_per_event": (median([r["cpu_s"] * 1e9 / events(r)
                                     for r in samples]), "ns"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in samples]), "MB"),
    }
    notes = {"campaign_runs": len(samples),
             "setup_passes": sum(len(p) for p in setups),
             "reference": "serial run" if len(runs) > len(samples)
                          else "golden.json"}
    return metrics, notes


def per_layer(s):
    """Tracing on: one campaign at pool width POOL_WIDTH, one untraced serial
    campaign and one traced serial pass."""
    parallel = s.campaign("parallel", POOL_WIDTH)
    serial = s.campaign("serial", 1)
    traced = s.traced()
    runs = [("parallel", parallel), ("serial", serial), ("traced", traced)]
    s.check_outputs(runs, s.golden() or serial["digests"])
    s.check_repeat(runs, extra={
        key: traced[key] for key in (
            "tables_compiled", "table_bytes", "chunks_built", "chunks_total",
            "resolve_calls", "route_sets_interned", "resolve_id_sum")})

    # A span that a failed job never reached reads 0.
    self_ms = collections.defaultdict(float, traced["self_ms"])
    counts = traced["counts"]
    wall_ms = traced["wall_s"] * 1e3
    layers = ("xgft", "patterns", "routing", "core", "fault", "sim", "trace",
              "analysis", "engine")
    layer_self = {layer: sum(v for k, v in self_ms.items()
                             if k.split(".")[0] == layer) for layer in layers}
    glue = ("engine.campaign", "engine.job")
    accounted = sum(v for k, v in self_ms.items() if k not in glue)
    chunks = (traced["chunks_built"] / traced["chunks_total"]
              if traced["chunks_total"] else 1.0)
    cache = parallel["cache"]

    metrics = {
        "xgft.topology_build_ms": (self_ms["xgft.topology"], "ms"),
        "patterns.workload_build_ms": (self_ms["patterns.workload"], "ms"),
        "routing.router_build_ms": (self_ms["routing.router"], "ms"),
        "routing.routers_built": (traced["cache"]["router_misses"], "count"),
        "core.table_compile_ms": (self_ms["core.table"], "ms"),
        "core.tables_compiled": (traced["tables_compiled"], "count"),
        "core.table_bytes": (traced["table_bytes"], "bytes"),
        "core.chunks_built_frac": (chunks, "ratio"),
        "fault.degraded_compile_ms": (self_ms["fault.degraded_compile"], "ms"),
        "fault.degraded_tables": (traced["cache"]["degraded_misses"], "count"),
        "fault.segments_rerouted": (counts["segments_rerouted"], "count"),
        "fault.messages_dropped": (counts["messages_dropped"], "count"),
        "sim.network_build_ms": (self_ms["sim.network_build"], "ms"),
        "sim.run_ms": (self_ms["sim.run"], "ms"),
        "sim.ns_per_event": (self_ms["sim.run"] * 1e6 / events(traced),
                             "ns"),
        "sim.events": (counts["events"], "count"),
        "sim.segments": (counts["segments"], "count"),
        "sim.messages": (counts["messages"], "count"),
        "sim.route_sets_interned": (traced["route_sets_interned"], "count"),
        "sim.route_arena_entries": (counts["route_arena_entries"], "count"),
        "trace.resolve_ns_per_call": (
            traced["resolve_ns"] / max(1, traced["resolve_calls"]), "ns"),
        "trace.crossbar_ms": (self_ms["trace.crossbar"], "ms"),
        "analysis.contention_ms": (self_ms["analysis.contention"], "ms"),
        "engine.output_ms": (self_ms["engine.output"], "ms"),
        "engine.output_bytes": (traced["output_bytes"], "bytes"),
        "engine.sim_threads_used": (parallel["sim_threads_used"], "count"),
        "engine.speedup_vs_serial": (serial["wall_s"] / parallel["wall_s"],
                                     "x"),
        "engine.pool_busy_frac": (
            parallel["job_wall_ns"] / 1e9 /
            (parallel["wall_s"] * POOL_WIDTH), "ratio"),
    }
    for memo in ("topology", "router", "table", "reference", "degraded",
                 "compressed"):
        for kind in ("hits", "misses"):
            metrics[f"engine.{memo}_{kind}"] = (cache[f"{memo}_{kind}"],
                                               "count")
    for layer in layers:
        metrics[f"{layer}.self_ms"] = (layer_self[layer], "ms")
    metrics.update({
        "traced.wall_ms": (wall_ms, "ms"),
        "traced.accounted_frac": (accounted / wall_ms, "ratio"),
        "traced.overhead_ratio": (traced["wall_s"] / serial["wall_s"], "x"),
    })
    notes = {"traced_spans": traced["spans"],
             "spans_file": os.path.relpath(
                 os.path.join(s.out_root, "traced", "spans.jsonl"), ROOT)}
    return metrics, notes


def host_fingerprint():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    toolchain = driver(["host"])
    return {"nproc": NPROC, "cpu_model": model,
            "compiler": toolchain["compiler"],
            "build_type": toolchain["build_type"], "pool_width": POOL_WIDTH}


def main(argv):
    global deadline
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="shrunk workloads, for the self-test")
    args = ap.parse_args(argv)
    if not 0 <= args.seed <= 2**40 or args.seconds < 1:
        ap.error("--seed must be in [0, 2^40] and --seconds >= 1")

    try:
        build()
        deadline = time.monotonic() + RUN_LIMIT_S
        host = host_fingerprint()
        session = Session(args.workload, args.seed, args.quick)
        shutil.rmtree(session.out_root, ignore_errors=True)
        if args.trace:
            metrics, notes = per_layer(session)
        else:
            metrics, notes = end_to_end(session, args.seconds)
    except (BenchError, subprocess.CalledProcessError, OSError,
            ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 1

    for problem in session.problems:
        log(f"perfbench: check failed: {problem}")
    print("host " + json.dumps(host, sort_keys=True))
    print("run " + json.dumps(dict(workload=args.workload, seed=args.seed,
                                   trace=args.trace, **notes),
                              sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:>18.6g} {unit}")
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
