"""One workload in one process: set up, run jobs in a closed loop, check outputs.

Started by ``run.py``; not meant to be run by hand. It prints ``ready`` once
the CLI is imported and the job inputs are written, which is where the
parent stops the set-up clock. Everything else it reports goes to the
result file named by ``--result``; job outputs hold only what the CLI wrote.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from jobs import Job, build_jobs

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least ten jobs
    beyond it, by nearest rank, but never below the median. With fewer than
    21 jobs that is the (upper) median itself."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(n - 10, n // 2 + 1)
    return 100.0 * rank / n, ordered[rank - 1]


def environment(seed: int) -> dict:
    import numpy

    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(ROOT),
        "seed": seed,
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Runner:
    """Runs jobs through ``cli.main`` and keeps one record per run.

    The reference computation runs after every job, so each job's latency
    can be scaled by the machine speed measured on either side of it.
    """

    def __init__(self, cli, out_dir: Path) -> None:
        # Imported here, not at the top: it loads numpy, which must not be
        # loaded before the timed import of the CLI.
        from speed import reference_seconds, scale

        self.reference_seconds, self.scale = reference_seconds, scale
        self.cli = cli
        self.out_dir = out_dir
        self.runs: list[dict] = []
        self.reference_s = reference_seconds()
        out_dir.mkdir(parents=True, exist_ok=True)

    def output(self, job: Job) -> Path:
        return self.out_dir / f"{job.name}.{job.fmt}"

    def run(self, job: Job, phase: str) -> dict:
        path = self.output(job)
        path.unlink(missing_ok=True)
        argv = list(job.argv) if job.fmt == "text" else [*job.argv, "--out", str(path)]
        messages = io.StringIO()
        code, error = None, None
        started = time.perf_counter()
        try:
            with redirect_stderr(messages):
                if job.fmt == "text":
                    with open(path, "w", encoding="utf-8") as sink, redirect_stdout(sink):
                        code = self.cli.main(argv)
                else:
                    code = self.cli.main(argv)
        except Exception as exc:  # a crash is a failed job, not a failed benchmark
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - started
        before, self.reference_s = self.reference_s, self.reference_seconds()
        digest = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
        record = {
            "job": job.name,
            "phase": phase,
            "raw_latency_s": latency,
            "latency_s": self.scale(latency, before, self.reference_s),
            "reference_s": 0.5 * (before + self.reference_s),
            "units": job.units,
            "exit_code": code,
            "error": error or messages.getvalue().strip() or None,
            "sha256": digest,
        }
        self.runs.append(record)
        return record

    def loop(self, jobs: list[Job], seconds: float, phase: str) -> None:
        """Closed loop: the next job starts when the previous one returns."""
        deadline = time.perf_counter() + seconds
        index = 0
        while True:
            self.run(jobs[index % len(jobs)], phase)
            index += 1
            if time.perf_counter() >= deadline:
                return


def check_outputs(runner: Runner, jobs: list[Job], workload: str, seed: int) -> dict[str, list[str]]:
    """Problems per job name, from the last output each job left on disk."""
    import check

    problems: dict[str, list[str]] = {}
    gated: dict[str, int | None] = {}
    last = {run["job"]: run for run in runner.runs}
    for job in jobs:
        data = runner.output(job).read_bytes() if runner.output(job).exists() else b""
        if job.sweep is not None:
            rng = random.Random(f"check:{workload}:{seed}:{job.name}")
            problems[job.name] = check.check_sweep(job, data, rng)
        else:
            gated[job.name], problems[job.name] = check.verify_gated_count(
                data, last[job.name]["exit_code"]
            )
    if len(set(gated.values())) > 1:
        for name in gated:
            problems[name].append(f"gated-check counts differ between jobs: {gated}")
    return problems


def judge(runs: list[dict], problems: dict[str, list[str]]) -> None:
    """Mark each run failed or not: nonzero exit, exception, failed output
    check, or bytes that differ from the job's first run."""
    first: dict[str, str | None] = {}
    for run in runs:
        first.setdefault(run["job"], run["sha256"])
        reasons = []
        if run["exit_code"] != 0:
            reasons.append(f"exit code {run['exit_code']}: {run['error']}")
        if run["sha256"] is None:
            reasons.append("no output written")
        elif run["sha256"] != first[run["job"]]:
            reasons.append("output bytes differ from the job's first run")
        reasons.extend(problems.get(run["job"], []))
        run["failed"] = bool(reasons)
        run["reasons"] = reasons


def rate(runs: list[dict], key: str = "latency_s") -> float:
    """Work units per second of job time."""
    return sum(run["units"] for run in runs) / sum(run[key] for run in runs)


def layer_metrics(table: dict[str, dict[str, float]]) -> dict[str, tuple[float, str]]:
    from tracing import EXTRA_COUNTS, TARGETS

    units = {"calls": "count", "total_s": "s", "self_s": "s", "bytes": "B",
             "pure_branch": "count", "clamped": "count", "accept_ratio": "ratio"}
    metrics = {}
    for module, attr in TARGETS:
        for stat in ("calls", "total_s", "self_s"):
            metrics[f"{module}.{attr}.{stat}"] = (0, units[stat])
    for name in EXTRA_COUNTS:
        metrics[name] = (0, units[name.rsplit(".", 1)[1]])
    for layer, stats in table.items():
        for stat, value in stats.items():
            metrics[f"{layer}.{stat}"] = (value, units[stat])
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--probe", action="store_true", help="stop once set up")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import_started = time.perf_counter()
    import unruh_teleport.cli as cli

    import_s = time.perf_counter() - import_started
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"unruh_teleport came from {cli.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 3
    jobs = build_jobs(args.workload, args.seed, args.work / "inputs")
    print("ready", flush=True)
    if args.probe:
        return 0

    runner = Runner(cli, args.work / "out")
    runner.run(jobs[0], "warmup")
    runner.loop(jobs, args.seconds / 2 if args.trace else args.seconds, "timed")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds}
    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        from tracing import Tracer, layer_table, traced

        tracer = Tracer()
        with traced(tracer) as missing:
            for job_id, job in enumerate(jobs):
                tracer.job_id = job_id
                runner.run(job, "traced")
        # Span times are scaled like job latencies, by the reference speed
        # measured around each traced job.
        scales = [run["latency_s"] / run["raw_latency_s"] for run in runner.runs[-len(jobs):]]
        table = layer_table(tracer, scales)
        spans_path = args.result.with_suffix(".spans.npz")
        tracer.save(str(spans_path))
        result.update(missing_targets=missing, spans_file=spans_path.name, layers=table)
        metrics.update(layer_metrics(table))
        metrics["cli.import_s"] = (import_s, "s")

    ran = {run["job"]: run for run in reversed(runner.runs)}  # each job's first run
    jobs = [job for job in jobs if job.name in ran]
    problems = check_outputs(runner, jobs, args.workload, args.seed)
    judge(runner.runs, problems)
    timed = [run for run in runner.runs if run["phase"] == "timed"]
    latencies = [run["latency_s"] for run in timed]
    tail_q, tail_s = tail(latencies)
    if args.trace:
        traced_runs = [run for run in runner.runs if run["phase"] == "traced"]
        untraced, traced_rate = rate(timed), rate(traced_runs)
        metrics["trace.untraced_work_per_s"] = (untraced, "1/s")
        metrics["trace.traced_work_per_s"] = (traced_rate, "1/s")
        metrics["trace.slowdown"] = (untraced / traced_rate, "ratio")
    else:
        metrics.update(
            work_per_s=(rate(timed), "1/s"),
            job_p50_s=(statistics.median(latencies), "s"),
            job_tail_s=(tail_s, "s"),
            peak_rss_mb=(peak_rss_mb, "MB"),
        )
    raw = [run["raw_latency_s"] for run in timed]
    failed = [run for run in runner.runs if run["failed"]]
    result.update(
        reference_s_median=statistics.median(run["reference_s"] for run in runner.runs),
        raw={
            "work_per_s": rate(timed, "raw_latency_s"),
            "job_p50_s": statistics.median(raw),
            "job_tail_s": tail(raw)[1],
        },
        env=environment(args.seed),
        import_s=import_s,
        jobs_per_pass=len(jobs),
        timed_jobs=len(timed),
        timed_latencies_s=[[run["job"], run["latency_s"], run["raw_latency_s"]] for run in timed],
        tail_percentile=tail_q,
        attempted=len(runner.runs),
        failed=len(failed),
        failures=[{k: run[k] for k in ("job", "phase", "reasons")} for run in failed][:20],
        sha256={job.name: ran[job.name]["sha256"] for job in jobs},
        metrics={name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    )
    args.result.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
