"""Workload process: set-up time, the timed phases and the oracle.

run.py starts it as ``python3 -m perfbench.worker`` from the repository
root, one process at a time.  Its last line of standard output is one JSON
object.  Only the standard library is imported before the set-up clock
starts, so set-up time includes importing numpy through symgates.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REFERENCES = 5  # reference units after set-up; their median scales it
RATIO_FUNCTIONS = ("linalg.is_unitary", "linalg.expm_hermitian", "gates.lmg_hamiltonian")


def import_package():
    """Import symgates from this checkout's source tree and nowhere else."""
    sys.path.insert(0, str(SRC))
    import symgates
    import symgates.cli  # noqa: F401  (the CLI workloads' entry point)

    origin = Path(symgates.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"symgates was imported from {origin}, not from {SRC}")
    return symgates


def end_to_end_metrics(phase) -> dict:
    import numpy as np

    p50, p99 = np.percentile(phase.scaled * 1e6, [50, 99])
    return {
        "points_per_s": phase.points_per_s,
        "request_p50_us": float(p50),
        "request_p99_us": float(p99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def as_measured(phase) -> dict:
    """The timing metrics before scaling to the reference unit."""
    import numpy as np

    p50, p99 = np.percentile(phase.latencies * 1e6, [50, 99])
    return {"points_per_s": phase.points / float(phase.latencies.sum()),
            "request_p50_us": float(p50), "request_p99_us": float(p99),
            "reference_s": phase.reference_s}


def per_layer_metrics(summary, base, traced, csv_bytes: int) -> dict:
    from perfbench.tracing import TRACED_NAMES

    metrics = {}
    for name in TRACED_NAMES:
        calls, self_s, total_s = summary.per_function.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = self_s
        metrics[f"{name}.per_call_us"] = total_s / calls * 1e6 if calls else 0.0
    for name in RATIO_FUNCTIONS:
        metrics[f"{name}.calls_per_point"] = metrics[f"{name}.calls"] / traced.points
    metrics["cli.csv_bytes"] = csv_bytes
    metrics["trace.overhead_frac"] = base.points_per_s / traced.points_per_s - 1.0
    metrics["trace.wall_s"] = traced.wall_s
    metrics["trace.remainder_s"] = traced.wall_s - summary.self_s_total
    metrics["trace.points"] = traced.points
    return metrics


def measure(symgates, workloads, args) -> dict:
    import numpy as np

    from perfbench import tracing

    wl = workloads.make(args.workload, symgates, np.random.default_rng(args.seed), args.tmp)
    workloads.run_phase(wl, 0.0)  # one untimed round
    gc.collect()
    out = {}
    if args.trace:
        base = workloads.run_phase(wl, args.seconds / 2)
        tracer = tracing.Tracer()
        first = wl.count
        gc.collect()
        with tracing.installed(tracer):
            traced = workloads.run_phase(wl, args.seconds / 2)
        summary = tracer.summary()
        out["metrics"] = per_layer_metrics(summary, base, traced, wl.output_bytes(first))
        # Self times add up to the root spans by construction (the self-tests
        # check that arithmetic); what can fail is that the root spans lie
        # inside the traced phase.
        out["trace_ok"] = summary.root_s_total <= traced.wall_s
        out["trace"] = {"spans": summary.spans, "self_s_total": summary.self_s_total,
                        "root_s_total": summary.root_s_total, "wall_s": traced.wall_s}
        phases = (base, traced)
    else:
        phase = workloads.run_phase(wl, args.seconds)
        out["metrics"] = end_to_end_metrics(phase)
        out["as_measured"] = as_measured(phase)
        out["reference_target_s"] = workloads.REFERENCE_S
        phases = (phase,)
    out["samples"] = {"requests": sum(p.requests for p in phases)}
    verdict = wl.check()
    out.update(attempted=wl.attempted, failed=verdict.failed,
               errors=verdict.errors, csv_sha256=verdict.csv_sha256,
               numpy=np.__version__)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True, help="directory for the CSV files")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # The CLI prints a line per call; keep it off the result stream.
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        t0 = time.perf_counter()
        symgates = import_package()
        t1 = time.perf_counter()
        from perfbench import workloads  # benchmark code, not part of set-up

        t2 = time.perf_counter()
        workloads.first_calls(symgates, args.workload, args.tmp)
        setup_s = (t1 - t0) + (time.perf_counter() - t2)
        workloads.reference_unit()  # warm-up
        reference_s = statistics.median(workloads.reference_unit()
                                        for _ in range(SETUP_REFERENCES))
        result = {"setup_s": setup_s * workloads.REFERENCE_S / reference_s,
                  "setup_s_as_measured": setup_s}
        if not args.setup_only:
            result.update(measure(symgates, workloads, args))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
