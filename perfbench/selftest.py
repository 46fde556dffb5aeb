#!/usr/bin/env python3
"""Self-checks of the tbsvd benchmark.

    python3 perfbench/selftest.py

Checks that
  * tbsvd_perf's own checks pass (tbsvd_perf --mode selftest): a perturbed,
    NaN or short spectrum is counted as failed, and span self times add up
    to the root span;
  * every metric name a run prints appears in BENCHMARK.json, for a short
    untraced and a short traced run, and metrics.json documents exactly the
    per-layer metrics of BENCHMARK.json;
  * the tail percentile keeps at least ten samples beyond it;
  * in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero without printing a result.
Exits non-zero when any check fails.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own runner)

failures = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def bench_run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900,
                          check=False)


def main():
    bench = run.load_json(os.path.join(ROOT, "BENCHMARK.json"))
    doc = run.load_json(os.path.join(HERE, "metrics.json"))
    binary = run.build()

    r = subprocess.run([binary, "--mode", "selftest"], capture_output=True,
                       text=True, timeout=120, check=False)
    out = json.loads(r.stdout.strip().splitlines()[-1])
    expect(r.returncode == 0 and not out["failures"],
           "tbsvd_perf self-checks" + "".join(" / " + f for f in out["failures"]))

    per_layer = {m["name"] for m in bench["per_layer"]}
    expect(set(doc["per_layer"]) == per_layer,
           "metrics.json documents exactly the per-layer metrics")
    workloads = ({w["name"] for w in bench["workloads"]} |
                 set(doc["manual_workloads"]))
    expect(all(n.split(".", 1)[0] in doc["layers"] for n in per_layer),
           "every per-layer metric belongs to a layer of metrics.json")
    expect(all(set(layer["applies_to"]) <= workloads and
               all(m["workload"] in workloads for m in layer["should_move"])
               for layer in doc["layers"].values()),
           "layers name only known workloads")

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        r = bench_run(ROOT, "--workload", "batched_mix", "--seed", "1",
                      "--seconds", "1", "--trace", str(trace))
        lines = r.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        expect(r.returncode == 0 and result.get("correct") is True,
               f"--trace {trace} run is correct")
        expect(set(result.get("metrics", {})) ==
               {m["name"] for m in bench[key]},
               f"--trace {trace} prints exactly the {key} metric names")

    samples = [float(i) for i in range(37)]
    pct, value, beyond = run.tail(samples)
    expect(pct == 72 and beyond == 10 and value == 26.0,
           "tail of 37 samples is p72 with 10 beyond")
    expect(run.tail(samples[:12])[0] == 50, "tail falls back to p50")

    bare = os.path.join(run.build_dir(), "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    r = bench_run(bare, "--workload", "batched_mix", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    expect(r.returncode != 0 and '"correct"' not in r.stdout,
           "without the library sources the benchmark fails, printing no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
