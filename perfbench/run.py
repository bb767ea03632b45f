"""pipemap benchmark: runs one workload and prints its metrics as JSON.

    python3 perfbench/run.py --workload exact-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --workload exact-sweep --seed 1 --record-digest

Run it from anywhere inside a checkout that holds ``src/pipemap``.  With
``--trace 0`` it starts three fresh worker interpreters one after the other,
each measuring a third of ``--seconds``, and reports the end-to-end metrics
of ``BENCHMARK.json``; with ``--trace 1`` one worker alternates untraced and
traced passes and the per-layer metrics are reported.

Times are scaled to a nominal host (``reference.py``).  ``ops_per_s`` is the
median over passes of operations per host-scaled second, where a window's
scaled seconds are its seconds divided by its host factor.  ``setup_s`` is the
median over workers of the set-up time divided by the host factor sampled
right after it.  The unscaled figures and the host factor are printed and
kept in the result record.  The last stdout line
is ``{"correct", "attempted", "failed", "metrics"}``; the full record, with
provenance, goes to ``perfbench/out/``.  ``--workload all`` prints a table of
every workload instead.  ``--record-digest`` stores the output digest of the
seed in ``perfbench/digests.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
UNTRACED_WORKERS = 3
WORKER_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def git_commit() -> str:
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("PIPEMAP_THREADS", None)  # campaigns stay on one worker thread
    env.pop("PYTHONPATH", None)
    env.update(
        PIPEMAP_NO_NUMBA="1",  # every number comes from the numpy kernel
        PYTHONDONTWRITEBYTECODE="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_worker(workload: str, seed: int, seconds: float, trace: bool) -> tuple[float, dict]:
    """Start one worker; return its set-up seconds and its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(int(trace)),
           "--out", str(OUT)]
    OUT.mkdir(exist_ok=True)
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker for {workload} failed with exit code {proc.returncode}")
    return setup_s, json.loads(out.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the workers of one workload and build its result record."""
    n = 1 if trace else UNTRACED_WORKERS
    runs = [run_worker(workload, seed, seconds / n, trace) for _ in range(n)]
    results = [r for _, r in runs]
    windows = [w for r in results for w in r["windows"]]
    passes = [p for r in results for p in r["passes"]]
    attempted = sum(w["ops"] for w in windows)
    failed = sum(w["failed"] for w in windows)

    digests = {r["digest"] for r in results}
    recorded = load_digests().get(workload, {}).get(str(seed))
    digest_ok = len(digests) == 1 and (recorded is None or recorded in digests)
    if not digest_ok:
        failed = attempted

    spec = load_spec()
    metrics: dict[str, dict] = {}
    if trace:
        result = results[0]
        values = dict(result["layers"])
        values["exact.cold_solve_s"] = result["cold_solve_s"]
        values["tracing.overhead_ratio"] = result["overhead_ratio"]
        for m in spec["per_layer"]:
            entry = {"value": values[m["name"]], "unit": m["unit"]}
            if m["name"].split(".")[0] in result["absent_layers"]:
                entry = {"value": None, "unit": m["unit"], "absent": True}
            metrics[m["name"]] = entry
    else:
        values = {
            "ops_per_s": statistics.median(p["rate"] for p in passes),
            "setup_s": statistics.median(s / r["setup_host_factor"] for s, r in runs),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        }
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    record = {
        "workload": workload,
        "op": results[0]["op"],
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "digest": sorted(digests),
        "digest_recorded": recorded,
        "digest_ok": digest_ok,
        # The same figures as measured, before scaling by the host factor.
        "unscaled": {
            "ops_per_s": statistics.median(p["unscaled_rate"] for p in passes),
            "setup_s": statistics.median(s for s, _ in runs),
        },
        "reference": results[0]["reference"],
        "host_factor": statistics.median(w["host_factor"] for w in windows),
        "provenance": {**results[0]["provenance"], "seed": seed, "git_commit": git_commit()},
        "workers": [{"setup_s": s, **{k: v for k, v in r.items() if k != "provenance"}}
                    for s, r in runs],
    }
    path = OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record


def load_digests() -> dict:
    if not DIGESTS.exists():
        return {}
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def record_digest(workload: str, seed: int) -> str:
    _, result = run_worker(workload, seed, 0.0, False)
    digests = load_digests()
    table = {**digests.get(workload, {}), str(seed): result["digest"]}
    digests[workload] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    return result["digest"]


def summary(record: dict) -> list[str]:
    lines = [f"{record['workload']} (seed {record['seed']}, "
             f"backend {record['provenance']['backend']}):"]
    for name, m in record["metrics"].items():
        value = "absent" if m.get("absent") else f"{m['value']:.6g}"
        note = f"  ({record['op']}s per second)" if name == "ops_per_s" else ""
        lines.append(f"  {name:<40} {value:>14} {m['unit']}{note}")
    rate = record["failed"] / record["attempted"]
    lines.append(f"  {'error_rate':<40} {rate:>14.6g} ratio "
                 f"({record['failed']} of {record['attempted']} operations)")
    status = "not recorded" if record["digest_recorded"] is None else (
        "matches" if record["digest_ok"] else "MISMATCH")
    lines.append(f"  {'digest':<40} {status}")
    unscaled = ", ".join(f"{k} {v:.6g}" for k, v in record["unscaled"].items())
    lines.append(f"  host factor {record['host_factor']:.4g} ({record['reference']} "
                 f"reference); unscaled: {unscaled}")
    return lines


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digest", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "pipemap" / "__init__.py").is_file():
        print(f"no pipemap sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    try:
        if args.record_digest:
            for name in names if args.workload == "all" else [args.workload]:
                print(name, args.seed, record_digest(name, args.seed))
            return 0
        if args.workload == "all":
            records = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
            for record in records:
                print("\n".join(summary(record)))
            return 0 if all(r["correct"] for r in records) else 1
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print("\n".join(summary(record)))
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
