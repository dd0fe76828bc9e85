"""grngc benchmark: one command runs a workload, checks its outputs and prints
every metric by name with its unit.

    python3 perfbench/run.py --workload var5_kan --seed 1 --seconds 24 --trace 0

Run from the root of a checkout. The run starts N_WORKERS worker processes
one after another (never two at once). Each imports grngc from src/, sets up
the workload and runs its pipeline for its share of --seconds. With
--trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 the workers also wrap grngc's layer boundaries in spans, the
last line carries the per-layer metrics, and the spans are written to
perfbench/out/. Workloads are described in perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

N_WORKERS = 3        # set-ups per run, reported as their median
DEADLINE_S = 170.0   # the whole run, all workers included
# single-threaded BLAS: steadier timings on a shared machine, never > nproc
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "GRNGC_NUMBA": "0"}

END_TO_END = {
    "setup_s": "s", "pipeline_s": "s", "train_samples_per_s": "1/s",
    "step_ms_p50": "ms", "step_ms_p90": "ms", "score_samples_per_s": "1/s",
    "peak_rss_mb": "MB", "auroc": "ratio", "auprc": "ratio",
    "success_rate": "ratio",
}
PER_LAYER = {
    "splines.basis_ms": "ms", "splines.points_per_s": "1/s",
    "splines.basis_bytes": "bytes",
    "core.loss_graph_ms": "ms", "core.penalty_ms": "ms",
    "core.penalty_replays": "count",
    "diffengine.nodes_per_step": "count", "diffengine.graph_mb_per_step": "MB",
    "diffengine.backward_ms": "ms", "forecasters.forward_ms": "ms",
    "core.val_ms": "ms", "core.step_other_ms": "ms",
    "core.score_ms": "ms", "core.score_replays": "count",
    "datagen.simulate_ms": "ms", "datagen.windows_ms": "ms",
    "metrics.evaluate_ms": "ms",
    "kernels.bspline_ms": "ms", "kernels.bspline_flops": "count",
    "kernels.bspline_bytes": "bytes", "kernels.lorenz96_ms": "ms",
    "kernels.lorenz96_flops": "count", "kernels.lorenz96_bytes": "bytes",
    "trace.overhead_ms": "ms",
    **{f"{layer}.{kind}": unit for layer in LAYERS
       for kind, unit in (("calls", "count"), ("busy_ms", "ms"))},
}


def run_workers(workload, seed, seconds, trace, tiny):
    """Start the workers one at a time. Returns (results, number that died)."""
    env = dict(os.environ, **WORKER_ENV)
    results, dead = [], 0
    start = time.perf_counter()
    for index in range(N_WORKERS):
        remaining = DEADLINE_S - (time.perf_counter() - start)
        if remaining < 5:
            break
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", repr(seconds / N_WORKERS),
               "--trace", str(int(trace)), "--index", str(index)]
        if tiny:
            cmd.append("--tiny")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            print(f"worker {index}: killed after {remaining:.0f} s", file=sys.stderr)
            dead += 1
            continue
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"worker {index}: exit code {proc.returncode}", file=sys.stderr)
            dead += 1
            continue
        results.append(json.loads(lines[-1]))
    return results, dead


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summarize(results, dead, trace):
    """Check outputs across workers and reduce them to the reported metrics.

    Returns (metrics, attempted, failed, notes)."""
    reps = [r for res in results for r in res["reps"]]
    hashes = [r["gc_sha256"] for r in reps if "gc_sha256" in r]
    reference = hashes[0] if hashes else None
    failed = dead
    for r in reps:
        if r.get("gc_sha256", reference) != reference:
            r["problems"].append("gc_matrix differs from another run with the same seed")
        if r["problems"]:
            failed += 1
            print("check failed: " + "; ".join(r["problems"]), file=sys.stderr)
    attempted = len(reps) + dead
    ok = [r for r in reps if not r["problems"]]
    notes = {}
    if trace:
        return layer_summary(results, ok), attempted, failed, notes

    plain = [r for r in ok if not r["traced"]]
    step_ms = [t for res in results for t in res["steps_ms"]]
    train_sps = [r["train_sps"] for r in plain if "train_sps" in r] or \
        [res["setup_train_sps"] for res in results if res["setup_train_sps"]]
    m = {}
    if results:
        m["setup_s"] = statistics.median(res["setup_s"] for res in results)
        m["peak_rss_mb"] = statistics.median(res["peak_rss_mb"] for res in results)
        notes["setup_s"] = notes["peak_rss_mb"] = f"median of {len(results)} processes"
    if plain:
        m["pipeline_s"] = statistics.median(r["pipeline_s"] for r in plain)
        m["score_samples_per_s"] = statistics.median(r["score_sps"] for r in plain)
        m["auroc"], m["auprc"] = plain[0]["auroc"], plain[0]["auprc"]
        notes["pipeline_s"] = notes["score_samples_per_s"] = f"median of {len(plain)} runs"
    if train_sps:
        m["train_samples_per_s"] = statistics.median(train_sps)
        notes["train_samples_per_s"] = f"median of {len(train_sps)} trainings"
    if len(step_ms) >= 2:
        m["step_ms_p50"] = percentile(step_ms, 50)
        m["step_ms_p90"] = percentile(step_ms, 90)
        notes["step_ms_p50"] = notes["step_ms_p90"] = f"{len(step_ms)} steps"
    m["success_rate"] = 1.0 - failed / attempted if attempted else 0.0
    return m, attempted, failed, notes


def layer_summary(results, ok):
    m = {}
    for name in PER_LAYER:
        values = [res["layers"][name] for res in results if name in res.get("layers", {})]
        if values:
            m[name] = statistics.median(values)
    traced = [r["pipeline_s"] for r in ok if r["traced"]]
    plain = [r["pipeline_s"] for r in ok if not r["traced"]]
    if traced and plain:
        m["trace.overhead_ms"] = 1e3 * (statistics.median(traced) - statistics.median(plain))
    return m


def write_spans(workload, seed, results):
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    doc = {"workload": workload, "seed": seed,
           "fields": ["name", "start_s", "end_s", "parent", "rep"],
           "workers": [{"index": res["index"], "env": res["env"], "spans": res["spans"]}
                       for res in results]}
    path = out / f"spans-{workload}-seed{seed}.json"
    path.write_text(json.dumps(doc))
    return path


def bench(workload, seed, seconds, trace, tiny=False):
    """Run one benchmark and return its result object (the last stdout line)."""
    results, dead = run_workers(workload, seed, seconds, trace, tiny)
    metrics, attempted, failed, notes = summarize(results, dead, trace)
    units = PER_LAYER if trace else END_TO_END
    if results:
        print("env " + json.dumps(results[0]["env"], sort_keys=True))
    if trace and results:
        print(f"spans written to {write_spans(workload, seed, results).relative_to(ROOT)}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:>16.6g} {units[name]:6s} {notes.get(name, '')}")
    return {
        "correct": failed == 0 and set(metrics) == set(units),
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description="Run one grngc benchmark workload.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "grngc" / "__init__.py").is_file():
        print(f"no grngc sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
