"""One benchmark worker: a fresh interpreter that sets up a workload and measures it.

Started by ``run.py``.  It imports pipemap from the checkout's ``src``, sets
up the workload, prints ``ready``, then runs passes until ``--seconds`` have
passed (at least one pass; with ``--trace 1`` at least one untraced and one
traced pass, alternating).  The workload's reference work (``reference.py``)
is timed before every window and after the last, and each window records the
host factor of the samples on either side of it.  Its last stdout line is one
JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import traceback
from itertools import groupby
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def import_pipemap():
    """Import pipemap from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import pipemap

    if Path(pipemap.__file__).resolve().parent != src / "pipemap":
        raise ImportError(f"pipemap was imported from {pipemap.__file__}, not from {src}")
    return pipemap


def provenance(pipemap) -> dict:
    import importlib.util

    import numpy

    from pipemap import _kernels

    return {
        "backend": _kernels.ACTIVE_BACKEND,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "pipemap": pipemap.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def pass_rate(windows) -> float:
    """Operations per host-scaled second of a pass."""
    return (sum(w["ops"] for w in windows)
            / sum(w["seconds"] / w["host_factor"] for w in windows))


def measure(workload, seconds: float, trace: bool, spans_path: Path) -> dict:
    import reference
    import tracing
    from workloads import Stopwatch, WindowResult, digest

    tracer = tracing.Tracer() if trace else None
    untraced = tracing.NullTracer()
    windows: list[dict] = []
    layer_passes: list[dict] = []
    first_parts: list[str] = []
    per_pass = workload.windows_per_pass
    min_windows = (2 if trace else 1) * per_pass
    ref_samples = [reference.sample(workload.reference)]
    deadline = perf_counter() + seconds
    last = 0.0  # wall seconds of the latest window, checks and reference included
    k = 0
    queries = 0
    # Runs stop only at pass boundaries, so every pass is complete.  Start
    # another pass while at least half of it fits before the deadline, so
    # that on average a worker measures for its whole share.
    while (k < min_windows or k % per_pass
           or perf_counter() + last * per_pass / 2 <= deadline):
        began = perf_counter()
        j = k // per_pass
        traced = trace and j % 2 == 1
        tr = tracer if traced else untraced
        if traced and k % per_pass == 0:
            start = len(tracer.spans)
            queries = 0
            tracer.install()
        tr.op = k
        clock = Stopwatch()
        try:
            res = workload.run_window(k, tr, clock)
        except Exception:  # an operation that raises counts as failed
            traceback.print_exc()
            res = WindowResult(workload.window_ops, workload.window_ops, 0, ["error"])
        finally:
            if traced and k % per_pass == per_pass - 1:
                tracer.uninstall()
        ref_samples.append(reference.sample(workload.reference))
        ref_s = (ref_samples[-2] + ref_samples[-1]) / 2
        windows.append({"pass": j, "traced": traced, "ops": res.ops,
                        "failed": res.failed, "seconds": clock.seconds,
                        "ref_s": ref_s,
                        "host_factor": reference.host_factor(workload.reference, ref_s)})
        if j == 0:
            first_parts += res.parts
        queries += res.queries
        if traced and k % per_pass == per_pass - 1:
            layer_passes.append(tracing.layer_metrics(tracer.spans[start:], queries))
        k += 1
        last = perf_counter() - began

    passes = []
    for j, group in groupby(windows, key=lambda w: w["pass"]):
        group = list(group)
        passes.append({"pass": j, "traced": group[0]["traced"], "rate": pass_rate(group),
                       "unscaled_rate": (sum(w["ops"] for w in group)
                                         / sum(w["seconds"] for w in group))})
    out = {
        "op": workload.op,
        "windows": windows,
        "passes": passes,
        "digest": digest(first_parts),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cold_solve_s": workload.cold_solve_s,
        "reference": workload.reference,
        # The first sample is taken right after set-up and scales the set-up time.
        "setup_host_factor": reference.host_factor(workload.reference, ref_samples[0]),
    }
    if trace:
        rates = {flag: statistics.median(p["rate"] for p in passes if p["traced"] == flag)
                 for flag in (False, True)}
        out["layers"] = tracing.median_metrics(layer_passes)
        out["overhead_ratio"] = rates[True] / rates[False]
        out["absent_layers"] = sorted(tracer.absent_layers)
        out["missing_targets"] = [f"{t.module}.{t.attr}" for t in tracer.missing]
        tracer.write_csv(spans_path)
        out["spans_file"] = str(spans_path.relative_to(ROOT))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="directory for scratch files")
    args = parser.parse_args(argv)

    pipemap = import_pipemap()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, Path(args.out))
    workload.setup()
    print("ready", flush=True)
    spans_path = Path(args.out) / f"spans-{workload.name}-seed{args.seed}.csv"
    result = measure(workload, args.seconds, bool(args.trace), spans_path)
    result["provenance"] = provenance(pipemap)
    workload.scratch_file("csv").unlink(missing_ok=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
