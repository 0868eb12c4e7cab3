#!/usr/bin/env python3
"""Benchmark of symgates: gate sweeps, LMG profiles and pointwise analysis.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): `sweep` calls ``symgates.cli.main(["sweep",
...])`` for B1..B8, `lmg` calls ``main(["lmg", "--t-max", ...])`` for seeded
couplings, and `pointwise` makes seeded scalar calls of the library.  Each
is a closed loop: one caller, one process, one thread.  A point is one CSV
row for sweep and lmg and one request for pointwise; a request is one
``cli.main`` call for sweep and lmg.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json:

- points_per_s: points per second of request time in the timed phase;
- request_p50_us, request_p99_us: per-request latency.  Each round holds
  one heavy request per eight light ones, so p50 measures the light and
  p99 the heavy requests;
- setup_s: median over SETUP_SAMPLES fresh interpreters of the time to
  import symgates and make the first call of each entry point the workload
  uses;
- peak_rss_mb: peak resident memory of the workload process.

The three times are scaled to a host on which a fixed reference unit of
work takes ``workloads.REFERENCE_S``; the unit runs between requests and
after each set-up (see workloads.py).  The figures as measured, and the
reference unit's duration, are printed too and go in the ``info`` line.

With ``--trace 1`` it runs half the time untraced and half with timing
wrappers around the public functions of each module (tracing.py), and
reports the per-layer metrics: ``<module>.<function>.calls``, ``.self_s``
(time in the function minus its traced callees) and ``.per_call_us`` (time
per call including callees), call ratios per point, CSV bytes, and the
tracing overhead.  Every workload reports every per-layer metric; for a
function the workload does not call, ``.calls``, ``.self_s`` and
``.per_call_us`` read 0, so read ``.per_call_us`` together with ``.calls``.
The span self times plus ``trace.remainder_s`` (time in the benchmark's own
loop, reference units included) add up to ``trace.wall_s``.  Traced times
are as measured, not scaled.

After the timed phase the oracle (oracle.py) checks every output; points
that raised or failed it are counted in ``failed``.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Workload processes run one at a time, with the BLAS
and OpenMP thread pools pinned to one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 7
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_TIMEOUT_S = 30
RUN_TIMEOUT_EXTRA_S = 60  # beyond --seconds, for set-up, warm-up and the oracle
WORKLOAD_DEADLINE_S = 170  # every process of one workload has ended by then


class BenchmarkError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env.pop("PYTHONPATH", None)  # the worker imports symgates from this checkout's src
    return env


def _run_worker(args: list[str], timeout: float, deadline: float) -> dict:
    timeout = min(timeout, deadline - time.monotonic())
    try:
        proc = subprocess.run([sys.executable, "-m", "perfbench.worker", *args], cwd=ROOT,
                              env=_child_env(), capture_output=True, text=True,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker {args} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(f"worker {args} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(name: str, seed: int, seconds: float, trace: int, tmp: str) -> dict:
    """Run one workload: set-up samples, then the timed worker."""
    deadline = time.monotonic() + WORKLOAD_DEADLINE_S
    common = ["--workload", name, "--seed", str(seed), "--tmp", tmp]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            sample = _run_worker(common + ["--setup-only"], SETUP_TIMEOUT_S, deadline)
            setups.append((sample["setup_s"], sample["setup_s_as_measured"]))
    result = _run_worker(common + ["--seconds", repr(seconds), "--trace", str(trace)],
                         seconds + RUN_TIMEOUT_EXTRA_S, deadline)
    setups.append((result["setup_s"], result["setup_s_as_measured"]))
    if not trace:
        result["metrics"]["setup_s"] = statistics.median(s for s, _ in setups)
        result["as_measured"]["setup_s"] = statistics.median(s for _, s in setups)
    result["setup_samples"] = len(setups)
    return result


def select_metrics(result: dict, specs: list[dict]) -> dict:
    """The metrics BENCHMARK.json names, with their units."""
    missing = [spec["name"] for spec in specs if spec["name"] not in result["metrics"]]
    if missing:
        raise BenchmarkError(f"metrics not measured: {missing}")
    return {spec["name"]: {"value": result["metrics"][spec["name"]], "unit": spec["unit"]}
            for spec in specs}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def report(name: str, result: dict, metrics: dict) -> None:
    attempted, failed = result["attempted"], result["failed"]
    samples = result["samples"]
    print(f"== {name}: {samples['requests']} requests, {result['setup_samples']} set-up samples")
    measured = result.get("as_measured", {})
    width = max(map(len, metrics))
    for metric, entry in metrics.items():
        line = f"  {metric:<{width}}  {entry['value']:.6g} {entry['unit']}"
        if metric in measured:
            line += f"  (as measured {measured[metric]:.6g})"
        print(line)
    if "reference_s" in measured:
        print(f"  reference unit took {measured['reference_s'] * 1e3:.4g} ms "
              f"(times are scaled to {result['reference_target_s'] * 1e3:.4g} ms)")
    print(f"  {'failed_frac':<{width}}  {failed / attempted:.6g} ({failed} of {attempted} points)")
    if "trace" in result:
        t = result["trace"]
        print(f"  spans {t['spans']}: self {t['self_s_total']:.6g} s + remainder "
              f"{t['wall_s'] - t['self_s_total']:.6g} s = traced wall {t['wall_s']:.6g} s")
        if not result["trace_ok"]:
            print(f"  failure: root spans total {t['root_s_total']:.6g} s, more than the "
                  "traced wall time")
    for error in result["errors"]:
        print(f"  failure: {error}")


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = tuple(w["name"] for w in spec["workloads"])
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "symgates" / "__init__.py").is_file():
        print(f"error: no symgates source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    specs = spec["per_layer" if args.trace else "end_to_end"]
    names = workloads if args.workload == "all" else (args.workload,)
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    correct, attempted, failed, metrics, info = True, 0, 0, {}, {}
    try:
        for name in names:
            result = measure(name, args.seed, args.seconds, args.trace, tmp)
            selected = select_metrics(result, specs)
            report(name, result, selected)
            correct &= result["failed"] == 0 and result.get("trace_ok", True)
            attempted += result["attempted"]
            failed += result["failed"]
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + key: value for key, value in selected.items()})
            info[name] = {"samples": result["samples"], "csv_sha256": result["csv_sha256"],
                          "as_measured": result.get("as_measured")}
            info["numpy"] = result["numpy"]
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    info.update(seed=args.seed, seconds=args.seconds, trace=args.trace,
                python=platform.python_version(), cpu=cpu_model(), nproc=os.cpu_count(),
                affinity=len(os.sched_getaffinity(0)))
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
