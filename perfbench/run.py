"""Benchmark of the unruh-teleport CLI: figures, sweep-json and verify workloads.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --record perfbench/baseline.json

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``. Each workload runs in a child process of its own, so
its peak RSS is its own. ``--trace 0`` measures the end-to-end metrics
untraced; ``--trace 1`` adds one traced pass and reports the per-layer
metrics and the tracing overhead. The metrics printed on the last line of
stdout are the ones ``BENCHMARK.json`` lists; a readable summary and the
full per-layer table go to stderr, and the whole result, with the
environment and the output hashes, to ``.perfbench/`` in the checkout.
``--workload all`` runs every workload both ways and prints one table each.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from jobs import WORKLOADS
from speed import REFERENCE_S, reference_seconds, scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 11
CHILD_TIMEOUT_S = 150.0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# What one work unit is, per workload, for the readable summary.
WORK_UNIT = {"figures": "points_per_s", "sweep-json": "points_per_s", "verify": "trials_per_s"}


class BenchmarkError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _spawn(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line; return it and the set-up time."""
    env = dict(os.environ, **THREAD_ENV)
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
    )
    ready, _, _ = select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)
    line = proc.stdout.readline() if ready else ""
    setup_s = time.perf_counter() - started
    if line.strip() != "ready":
        _finish(proc, 0.0)
        raise BenchmarkError(f"worker did not get ready (exit code {proc.returncode})")
    return proc, setup_s


def _finish(proc: subprocess.Popen, timeout: float) -> None:
    """Wait for a worker to end, killing it past ``timeout``; raise if it failed."""
    try:
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchmarkError("worker timed out and was killed") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with code {proc.returncode}")


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Set up ``SETUP_SAMPLES`` times, run the workload once, return its result."""
    if not (ROOT / "src" / "unruh_teleport" / "cli.py").is_file():
        raise BenchmarkError(f"no package source at {ROOT / 'src' / 'unruh_teleport'}")
    results = ROOT / ".perfbench"
    results.mkdir(exist_ok=True)
    work = results / f"work-{workload}-{seed}-{os.getpid()}"
    result_file = results / f"{workload}-seed{seed}-trace{trace}.json"
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
              "--trace", str(trace), "--work", str(work)]
    try:
        setups, raw_setups = [], []
        for _ in range(SETUP_SAMPLES):
            before = reference_seconds()
            proc, setup_s = _spawn([*common, "--probe"])
            _finish(proc, CHILD_TIMEOUT_S)
            setups.append(scale(setup_s, before, reference_seconds()))
            raw_setups.append(setup_s)
        proc, _ = _spawn([*common, "--result", str(result_file)])
        _finish(proc, CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = json.loads(result_file.read_text(encoding="utf-8"))
    result["setup_samples_s"] = setups
    result["raw"]["setup_s"] = statistics.median(raw_setups)
    result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    result_file.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return result


def listed_metrics(result: dict, trace: int) -> dict:
    """The metrics BENCHMARK.json lists for this mode, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        raise BenchmarkError(f"result lacks metrics {missing}")
    return {m["name"]: result["metrics"][m["name"]] for m in wanted}


def summary(result: dict, trace: int) -> str:
    """Readable report of one run: every metric by name with its unit."""
    workload = result["workload"]
    attempted, failed = result["attempted"], result["failed"]
    lines = [
        f"== {workload} (seed {result['seed']}, {result['seconds']} s, trace {trace}) ==",
        f"  env: {json.dumps(result['env'])}",
        f"  jobs attempted {attempted}, failed {failed}, "
        f"failed_ratio {failed / attempted:.4f}",
        f"  reference computation: median {result['reference_s_median']:.4f} s "
        f"(times below are scaled to {REFERENCE_S} s; raw wall values in brackets)",
    ]
    for failure in result["failures"]:
        lines.append(f"  FAILED {failure['job']} ({failure['phase']}): {failure['reasons']}")
    metrics = result["metrics"]
    if trace:
        lines.append(
            f"  tracing overhead: untraced {metrics['trace.untraced_work_per_s']['value']:.1f}"
            f" vs traced {metrics['trace.traced_work_per_s']['value']:.1f} {WORK_UNIT[workload]}"
            f" (slowdown x{metrics['trace.slowdown']['value']:.2f})"
        )
        lines.append(f"  cli.import_s {metrics['cli.import_s']['value']:.4f} s")
        lines.append(f"  {'layer':<34}{'calls':>10}{'total_s':>12}{'self_s':>12}  other")
        for layer, stats in result["layers"].items():
            other = {k: v for k, v in stats.items() if k not in ("calls", "total_s", "self_s")}
            if "calls" not in stats:
                lines.append(f"  {layer:<34}{'':>34}  {other}")
                continue
            lines.append(
                f"  {layer:<34}{stats['calls']:>10}{stats['total_s']:>12.4f}"
                f"{stats['self_s']:>12.4f}  {other or ''}"
            )
        if result["missing_targets"]:
            lines.append(f"  not found in the package: {result['missing_targets']}")
    else:
        named = {"work_per_s": WORK_UNIT[workload]}
        for name in ("work_per_s", "job_p50_s", "job_tail_s", "peak_rss_mb"):
            metric = metrics[name]
            label = named.get(name, name)
            note = ""
            if name == "job_tail_s":
                note = f"  (p{result['tail_percentile']:g} of {result['timed_jobs']} jobs)"
            raw = result["raw"].get(name)
            raw_text = f" [{raw:.6g}]" if raw is not None else ""
            lines.append(f"  {label:<14} {metric['value']:.6g}{raw_text} {metric['unit']}{note}")
    lines.append(
        f"  setup_s        {metrics['setup_s']['value']:.6g} [{result['raw']['setup_s']:.6g}] s"
        f"  (median of {len(result['setup_samples_s'])}; cli import {result['import_s']:.4f} s)"
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="with --workload all: write the combined record here")
    args = parser.parse_args(argv)
    if args.record and args.workload != "all":
        parser.error("--record needs --workload all")
    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, args.trace)
            print(summary(result, args.trace), file=sys.stderr)
            line = {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": listed_metrics(result, args.trace),
            }
            print(json.dumps(line))
            return 0
        record = {}
        for workload in WORKLOADS:
            runs = {}
            for trace in (0, 1):
                result = run_workload(workload, args.seed, args.seconds, trace)
                print(summary(result, trace), flush=True)
                runs["traced" if trace else "untraced"] = result
            record[workload] = runs
        if args.record:
            args.record.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        return 0
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
