"""Benchmark for cograss: one workload, one seed, one run.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Inputs are made from ``--seed`` before
anything is timed.  Every measurement is a fresh single-threaded worker
interpreter (worker.py) with ``PYTHONHASHSEED`` fixed, so every cache in
the library starts cold; workers run one at a time.  The outputs of every
op are checked against the closed form or the golden files.

``--trace 0`` measures for ``--seconds``: set-up-only workers, then whole
jobs while the next one still fits.  It reports the end-to-end metrics:
``setup_s`` and ``run_s`` as medians over the workers, op latencies over
every op sample of every job.  Their timings are scaled to a reference
CPU speed that the worker samples while it runs (worker.Speedometer);
the ``wall.*`` metrics give the same timings as measured.  ``--trace 1``
runs one untraced and one traced job and reports the per-layer metrics of
the traced one.  The
result line, the last line on stdout, carries the metrics BENCHMARK.json
declares; every metric is printed above it and written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_RUNS = 5          # set-up-only workers per untraced run
DEADLINE_S = 170        # a run never outlives this, whatever --seconds says
HASH_SEED = "0"

END_TO_END = {"setup_s": "s", "run_s": "s", "op_ms_p50": "ms", "op_ms_tail": "ms",
              "peak_rss_mb": "MB", "wall.setup_s": "s", "wall.run_s": "s",
              "wall.op_ms_p50": "ms", "wall.op_ms_tail": "ms", "ref_us": "us"}
# A tail needs at least ten samples beyond it and must lie at p90 or above.
TAIL_BEYOND = 10
TAIL_MIN_SAMPLES = 100


def declared(kind: str) -> dict:
    """{name: unit} of the metrics BENCHMARK.json declares under ``kind``."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def tail_index(n: int):
    """Index of the highest order statistic with ten samples beyond it, or None
    when that order statistic would lie below p90."""
    return n - TAIL_BEYOND - 1 if n >= TAIL_MIN_SAMPLES else None


def tail_percentile(n: int):
    return None if tail_index(n) is None else 100 * (n - TAIL_BEYOND) / n


def run_worker(request: dict, deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    env.pop("PYTHONOPTIMIZE", None)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("no time left for another worker")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                          input=json.dumps(request), capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=timeout)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_job(workload, ops, job) -> list[int]:
    """Indices of ops that raised or gave a wrong output."""
    return [i for i, (op, out) in enumerate(zip(ops, job["outputs"]))
            if out is None or not workload.check(op, out)]


def measure(workload, ops, contexts, seconds, trace, spans_path):
    """Run the workers of one run; return (jobs, setups, traced job, failed ops),
    where setups are the results of the untraced workers."""
    deadline = time.monotonic() + DEADLINE_S
    base = {"workload": workload.name, "contexts": contexts, "trace": False,
            "spans_path": None}
    jobs, setups, failed, traced = [], [], [], None

    def job(with_trace=False):
        started = time.monotonic()
        try:
            result = run_worker(dict(base, ops=ops, trace=with_trace,
                                     spans_path=spans_path), deadline)
        except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
            print(f"job failed: {exc}", file=sys.stderr)
            failed.append(len(ops))
            return None
        result["worker_s"] = time.monotonic() - started
        bad = check_job(workload, ops, result)
        for i in bad:
            print(f"op {i} failed: {ops[i]} {result['errors'].get(str(i), 'wrong output')}",
                  file=sys.stderr)
        failed.append(len(bad))
        if not with_trace:
            setups.append(result)
        return result

    start = time.monotonic()
    if trace:
        untraced = job()
        jobs = [untraced] if untraced else []
        traced = job(with_trace=True)
        return jobs, setups, traced, failed
    for _ in range(SETUP_RUNS):
        setups.append(run_worker(dict(base, ops=None), deadline))
    while True:
        result = job()
        if result is None:
            break
        jobs.append(result)
        elapsed = time.monotonic() - start
        if elapsed + max(j["worker_s"] for j in jobs) > seconds:
            break
    return jobs, setups, traced, failed


def tail_ms(samples):
    index = tail_index(len(samples))
    return None if index is None else samples[index] * 1e3


def end_to_end(jobs, setups) -> dict:
    """Set-up, job time and memory as medians over the run's workers; op
    latencies over the op samples of all its jobs.  The plain names are
    timings scaled to the reference speed; ``wall.*`` are as measured."""
    median = statistics.median
    samples = sorted(t for j in jobs for t in j["op_s"])
    wall = sorted(t for j in jobs for t in j["op_wall_s"])
    return {"setup_s": median(w["setup_s"] for w in setups),
            "run_s": median(j["run_s"] for j in jobs),
            "op_ms_p50": median(samples) * 1e3,
            "op_ms_tail": tail_ms(samples),
            "peak_rss_mb": median(j["peak_rss_kb"] for j in jobs) / 1024,
            "wall.setup_s": median(w["setup_wall_s"] for w in setups),
            "wall.run_s": median(j["run_wall_s"] for j in jobs),
            "wall.op_ms_p50": median(wall) * 1e3,
            "wall.op_ms_tail": tail_ms(wall),
            "ref_us": median(w["ref_s"] for w in setups) * 1e6}


def per_layer(workload, ops, jobs, traced) -> dict:
    out = dict(traced["layers"])
    untraced = jobs[0]
    out["trace.overhead_s"] = traced["run_s"] - untraced["run_s"]
    suite_s = (dict(zip(ops, untraced["op_wall_s"])) if workload.name == "verify-sweep"
               else {})
    for name in workloads.VerifySweep().make_ops(0):
        out[f"checks.suite.{name}.s"] = suite_s.get(name, 0.0)
    return out


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith(".calls") or name.endswith(".built"):
        return "count"
    if name.endswith("_ratio"):
        return "ratio"
    return "s"


def run_workload(name: str, seed: int, seconds: float, trace: bool, names: dict):
    """Make one run of one workload, print its block; return its result, with
    the metrics ``names`` maps to their units, or None."""
    workload = workloads.WORKLOADS[name]()
    ops = workload.make_ops(seed)
    contexts = [list(c) for c in workload.contexts()]
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    jobs, setups, traced, failed = measure(workload, ops, contexts, seconds, trace,
                                           str(OUT / f"{stem}.spans.json"))
    attempted = len(ops) * len(failed)
    failures = sum(failed)
    if not jobs or (trace and traced is None):
        print(f"{name}: no job completed", file=sys.stderr)
        return None
    metrics = per_layer(workload, ops, jobs, traced) if trace else end_to_end(jobs, setups)

    n_ops, n_samples = len(ops), sum(len(j["op_s"]) for j in jobs)
    tail_pct = tail_percentile(n_samples)
    print(f"workload {name}  seed {seed}  trace {int(trace)}  "
          f"jobs {len(jobs) + (traced is not None)}  ops/job {n_ops}  "
          f"op samples {n_samples}  tail = "
          + (f"p{tail_pct:.1f} (order statistic {tail_index(n_samples) + 1})"
             if tail_pct else f"none (fewer than {TAIL_MIN_SAMPLES} op samples)"))
    print(f"fail_ratio {failures}/{attempted} = {failures / attempted:.4f}")
    for metric, value in metrics.items():
        note = "" if metric in names else "  (reported, not bounded)"
        print(f"  {metric:48s} {value!s:>24} {unit_of(metric)}{note}")
    record = {"workload": name, "seed": seed, "trace": int(trace), "seconds": seconds,
              "ops_per_job": n_ops, "op_samples": n_samples, "tail_percentile": tail_pct,
              "attempted": attempted, "failed": failures,
              "setup_samples": [{k: w[k] for k in ("setup_s", "setup_wall_s", "ref_s")}
                                for w in setups],
              "jobs": [{k: v for k, v in j.items() if k != "outputs"} for j in jobs],
              "traced": traced and {k: v for k, v in traced.items() if k != "outputs"},
              "metrics": metrics}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    return {"correct": failures == 0, "attempted": attempted, "failed": failures,
            "metrics": {metric: {"value": metrics[metric], "unit": unit}
                        for metric, unit in names.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description="cograss benchmark: one run per workload")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"],
                        help="'all' runs every workload in turn and prefixes each "
                             "metric with its workload on the result line")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if sys.flags.optimize:
        print("refusing to run under -O: cograss keeps invariants in asserts",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "cograss" / "__init__.py").is_file():
        print(f"no cograss sources under {ROOT / 'src'}: run from a checkout",
              file=sys.stderr)
        return 2

    # Every worker imports cograss from bytecode, also where the environment
    # keeps Python from writing it (PYTHONDONTWRITEBYTECODE).
    compileall.compile_dir(ROOT / "src", quiet=1)
    metric_names = declared("per_layer" if args.trace else "end_to_end")
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace),
                                  metric_names)
               for name in names}
    if None in results.values():
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{metric}": m for name, r in results.items()
                    for metric, m in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
