#!/usr/bin/env python3
"""tbsvd benchmark: one workload, one run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds the library and the benchmark driver from source (CMake, into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), runs the
workload and prints two JSON lines on stdout: a report with every metric,
its unit and the run's context, then the result object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are the per-layer metrics of a separate traced run.
Exits 1 when an output check failed, 2 on a usage or build error.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COLD_PROCESSES = 4  # fresh processes besides the measuring one for setup_s
RUN_LIMIT_S = 170   # every run ends well inside the 180 s allowed


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configures once and builds incrementally; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "svd.hpp")):
        die("tbsvd sources (src/) not found next to perfbench/")
    out = build_dir()
    cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    steps = [["cmake", "--build", out, "-j", "4"]]
    if not any(os.path.isfile(os.path.join(out, f))
               for f in ("build.ninja", "Makefile")):
        steps.insert(0, cmd)
    for step in steps:
        r = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=850, check=False)
        if r.returncode != 0:
            die(f"build step failed: {' '.join(step)}")
    return os.path.join(out, "tbsvd_perf")


def child_env():
    # The implicit calibration lookup falls back to $XDG_CACHE_HOME; point
    # it at an empty directory of the build so that a developer's
    # ~/.cache/tbsvd/tune.json never changes the measured program. A set
    # TBSVD_TUNE_FILE is passed through and makes the driver refuse to run.
    env = dict(os.environ)
    env["XDG_CACHE_HOME"] = os.path.join(build_dir(), "no-tune-cache")
    return env


def run_child(binary, deadline, *args):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        die("out of time before the run finished", 1)
    try:
        r = subprocess.run([binary, *args], capture_output=True, text=True,
                           env=child_env(), timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        die(f"{' '.join(args)}: timed out", 1)
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 and args[:2] != ("--mode", "selftest"):
        die(f"tbsvd_perf {' '.join(args)} exited {r.returncode}")
    if not lines:
        die(f"tbsvd_perf {' '.join(args)} printed nothing")
    out = json.loads(lines[-1])
    out["returncode"] = r.returncode
    return out


def tail(samples):
    """Highest whole percentile, at most p90, with >= 10 samples beyond its
    nearest-rank value; p50 when there are fewer than 20 samples. Above
    p90 a fast workload's tail is set by a dozen samples that the host's
    stalls decide, and it stops repeating from run to run."""
    s = sorted(samples)
    n = len(s)
    for p in range(90, 49, -1):
        idx = math.ceil(p / 100 * n) - 1
        if n - idx - 1 >= 10:
            return p, s[idx], n - idx - 1
    idx = math.ceil(n / 2) - 1
    return 50, s[idx], n - idx - 1


def end_to_end(meas, colds):
    samples = meas["samples_s"]
    p50 = statistics.median(samples)
    pct, tail_s, beyond = tail(samples)
    setup = statistics.median([meas["cold_s"]] + [c["cold_s"] for c in colds])
    values = {
        "solve_s_p50": p50,
        "solve_s_tail": tail_s,
        "gflops": meas["flops_per_call"] / p50 * 1e-9,
        "problems_per_s": meas["problems_per_call"] / p50,
        "setup_s": setup,
        "peak_rss_mb": meas["peak_rss_mb"],
    }
    # sv_err_eps and failed_frac are bounded absolutely, by the output
    # checks, so they are reported here and not as bounded metrics.
    context = {"tail_percentile": pct, "tail_samples_beyond": beyond,
               "samples": len(samples),
               "setup_samples_s": [meas["cold_s"]] + [c["cold_s"] for c in colds],
               "sv_err_eps": {"value": max([meas["err_eps"]] +
                                           [c["err_eps"] for c in colds]),
                              "unit": "eps"}}
    return values, context


def applies_to(doc, name):
    """Workloads a per-layer metric applies to: those of its layer, the
    prefix before the first dot of its name."""
    return doc["layers"][name.split(".", 1)[0]]["applies_to"]


def check_names(printed, declared, what):
    """Every metric name printed must be declared in BENCHMARK.json."""
    unknown = sorted(set(printed) - set(declared))
    if unknown:
        die(f"{what} metrics not in BENCHMARK.json: {', '.join(unknown)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = ap.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    doc = load_json(os.path.join(HERE, "metrics.json"))
    if a.workload not in ([w["name"] for w in bench["workloads"]] +
                          list(doc["manual_workloads"])):
        die(f"unknown workload {a.workload}")
    if a.seconds < 1 or a.seed < 0:
        die("--seconds must be >= 1 and --seed >= 0")

    binary = build()
    deadline = time.monotonic() + RUN_LIMIT_S
    common = ("--workload", a.workload, "--seed", str(a.seed),
              "--seconds", str(a.seconds))
    # The output checks must reject a perturbed result on every run.
    selftest = run_child(binary, deadline, "--mode", "selftest")
    self_ok = selftest["returncode"] == 0 and not selftest["failures"]

    declared = {m["name"]: m["unit"]
                for m in bench["per_layer" if a.trace else "end_to_end"]}
    if a.trace:
        os.makedirs(os.path.join(build_dir(), "traces"), exist_ok=True)
        trace_file = os.path.join(build_dir(), "traces",
                                  f"{a.workload}-seed{a.seed}.json")
        run = run_child(binary, deadline, "--mode", "trace", *common,
                        "--trace-out", trace_file)
        layers = run["layers"]
        check_names(layers, declared, "per-layer")
        applies = sorted(n for n in doc["per_layer"]
                         if a.workload in applies_to(doc, n))
        if sorted(layers) != applies:
            die("traced run does not match metrics.json applies_to: "
                + ", ".join(sorted(set(layers) ^ set(applies))))
        values = {n: layers.get(n, 0.0) for n in declared}
        context = {"spans": run["spans"], "trace_file": run["trace_file"]}
        attempted, failed = run["attempted"], run["failed"]
        why, first = run["why"], run
    else:
        colds = [run_child(binary, deadline, "--mode", "cold", *common)
                 for _ in range(COLD_PROCESSES)]
        meas = run_child(binary, deadline, "--mode", "measure", *common)
        values, context = end_to_end(meas, colds)
        check_names(values, declared, "end-to-end")
        attempted = meas["attempted"] + sum(c["attempted"] for c in colds)
        failed = meas["failed"] + sum(c["failed"] for c in colds)
        why = meas["why"] or next((c["why"] for c in colds if c["why"]), "")
        first = meas
        context["failed_frac"] = {"value": failed / attempted,
                                  "unit": "fraction"}

    missing = sorted(set(declared) - set(values))
    if missing:
        die(f"metrics not produced: {', '.join(missing)}")
    if any(not isinstance(v, (int, float)) or not math.isfinite(v)
           for v in values.values()):
        die("a metric is not a finite number")
    metrics = {n: {"value": values[n], "unit": declared[n]} for n in declared}
    correct = failed == 0 and self_ok
    report = {
        "workload": a.workload, "seed": a.seed, "seconds": a.seconds,
        "trace": a.trace, "metrics": metrics, "context": context,
        "resolved": first["resolved"], "stamp": first["stamp"],
        "selftest_failures": selftest["failures"], "first_failure": why,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
