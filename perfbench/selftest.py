#!/usr/bin/env python3
"""Quick self-test of the benchmark: shrunk workloads, result shape, names.

    python3 perfbench/selftest.py

For every workload and both --trace modes it runs perfbench/run.py --quick
and checks the last output line: exactly the keys correct, attempted, failed
and metrics; every check passed; the metric names and units are exactly the
ones BENCHMARK.json lists for that mode.  It also checks that --seed shifts
every seed= value of the campaign text, and that the benchmark fails without
a result line when the repository's sources are absent.  Exits non-zero on
the first failure.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join("perfbench", "run.py")]
BARE = os.path.join(ROOT, ".bench_build", "perfbench-selftest-bare")


def fail(msg):
    print(f"selftest: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_result(line, spec, mode, where):
    try:
        res = json.loads(line)
    except ValueError:
        fail(f"{where}: last line is not JSON: {line!r}")
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{where}: result keys {sorted(res)}")
    if res["correct"] is not True or res["failed"] != 0:
        fail(f"{where}: checks failed: {res['failed']} of {res['attempted']}")
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        fail(f"{where}: attempted = {res['attempted']!r}")
    want = {m["name"]: m["unit"] for m in spec[mode]}
    got = res["metrics"]
    if list(got) != list(want):
        fail(f"{where}: metric names differ from BENCHMARK.json {mode}: "
             f"missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}")
    for name, metric in got.items():
        if set(metric) != {"value", "unit"} or metric["unit"] != want[name]:
            fail(f"{where}: {name} = {metric}, unit should be {want[name]}")
        value = metric["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            fail(f"{where}: {name} has a non-numeric value {value!r}")
        if mode == "end_to_end" and value <= 0:
            fail(f"{where}: end-to-end metric {name} is {value}")


def shift_seeds(text, shift):
    return re.sub(r"seed=([0-9.{},]+)",
                  lambda m: "seed=" + re.sub(
                      r"[0-9]+", lambda n: str(int(n.group()) + shift),
                      m.group(1)),
                  text)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    driver = os.path.join(ROOT, ".bench_build", "perfbench",
                          "perfbench_driver")
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, mode in ((0, "end_to_end"), (1, "per_layer")):
            where = f"{workload} --trace {trace}"
            proc = subprocess.run(
                RUN + ["--workload", workload, "--seed", "2", "--seconds",
                       "1", "--trace", str(trace), "--quick"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                fail(f"{where}: exit {proc.returncode}\n{proc.stderr}")
            check_result(proc.stdout.strip().splitlines()[-1], spec, mode,
                         where)
            print(f"selftest: ok {where}")
        texts = {seed: subprocess.run(
            [driver, "campaign", "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, check=True).stdout
            for seed in (0, 7)}
        if "seed=" not in texts[0] or shift_seeds(texts[0], 7) != texts[7]:
            fail(f"{workload}: --seed 7 does not shift every seed= value")

    # Only BENCHMARK.json and the benchmark's own files: no sources to build.
    shutil.rmtree(BARE, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(BARE, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), BARE)
    proc = subprocess.run(
        RUN + ["--workload", "fig2-cg", "--seed", "1", "--seconds", "1",
               "--trace", "0"],
        cwd=BARE, capture_output=True, text=True, timeout=180)
    shutil.rmtree(BARE, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        fail("a directory without the sources produced a result")
    print("selftest: ok seed shifting and bare-directory failure")


if __name__ == "__main__":
    main()
