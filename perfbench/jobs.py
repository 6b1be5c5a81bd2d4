"""Seeded job lists for the three benchmark workloads.

A job is one CLI command, run in-process through ``unruh_teleport.cli.main``,
that writes its output to a file. Each job carries what the output check
needs to know about it. This module uses only the standard library, so a
setup probe can build the job list without importing numpy first.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

WORKLOADS = ("figures", "sweep-json", "verify")

DOMAINS = {"theta": (0.0, math.pi), "phi": (0.0, 2.0 * math.pi), "r": (0.0, math.pi / 4)}

CHANNELS = {
    "bell-phi-plus": (1.0, -1.0, 1.0),
    "bell-psi-minus": (-1.0, -1.0, -1.0),
    "x-state": (-0.9, -0.8, -0.7),
}
WEIGHTS = {
    "wsma": (1.0 + 0.0j, 0.0j),
    "bsma": (complex(1.0 / math.sqrt(2.0)), complex(1.0 / math.sqrt(2.0))),
}

# The paper's figure datasets, as the benchmark expects the CLI to produce
# them: estimand, swept variables (outer first), fixed values, channel and
# mode weights. Kept here rather than read from the package so that the
# output check does not trust the code it checks.
FIGURES: dict[str, tuple[str, tuple[str, str], dict[str, float], str, str]] = {
    "1a": ("theta", ("theta", "r"), {"phi": math.pi / 4}, "bell-phi-plus", "wsma"),
    "1b": ("theta", ("theta", "r"), {"phi": math.pi / 4}, "bell-phi-plus", "bsma"),
    "2a": ("theta", ("theta", "phi"), {"r": math.pi / 8}, "bell-phi-plus", "wsma"),
    "2c": ("theta", ("theta", "phi"), {"r": math.pi / 8}, "bell-phi-plus", "bsma"),
    "3a": ("theta", ("theta", "phi"), {"r": math.pi / 8}, "bell-psi-minus", "bsma"),
    "3c": ("theta", ("theta", "phi"), {"r": math.pi / 8}, "x-state", "wsma"),
    "4a": ("phi", ("phi", "r"), {"theta": math.pi / 4}, "bell-phi-plus", "wsma"),
    "4b": ("phi", ("phi", "r"), {"theta": math.pi / 4}, "bell-phi-plus", "bsma"),
    "4c": ("phi", ("phi", "theta"), {"r": math.pi / 8}, "bell-phi-plus", "wsma"),
    "4d": ("phi", ("phi", "theta"), {"r": math.pi / 8}, "bell-phi-plus", "bsma"),
    "5a": ("phi", ("theta", "phi"), {"r": math.pi / 8}, "bell-psi-minus", "bsma"),
    "5c": ("phi", ("theta", "phi"), {"r": math.pi / 8}, "x-state", "wsma"),
    "6a": ("r", ("theta", "r"), {"phi": math.pi / 4}, "bell-phi-plus", "wsma"),
    "6b": ("r", ("theta", "r"), {"phi": math.pi / 4}, "bell-phi-plus", "bsma"),
    "6c": ("r", ("phi", "r"), {"theta": math.pi / 4}, "bell-phi-plus", "wsma"),
    "6d": ("r", ("phi", "r"), {"theta": math.pi / 4}, "bell-phi-plus", "bsma"),
}

FIGURE_GRID = 64
SWEEP_GRID = 48
VERIFY_TRIALS = 1000
VERIFY_SEEDS_PER_PASS = 2


@dataclass(frozen=True)
class Sweep:
    """The physics of one sweep job: what its rows must contain."""

    estimand: str
    norm: str
    method: str
    dyadic: tuple[float, float, float]
    qr: complex
    ql: complex
    axes: tuple[tuple[str, float, float, int], ...]
    fixed: dict[str, float] = field(hash=False)


@dataclass(frozen=True)
class Job:
    """One CLI command. ``argv`` omits the output flag; the runner adds it."""

    name: str
    argv: tuple[str, ...]
    fmt: str  # "csv", "json" or "text"; "text" jobs write to stdout
    units: int  # Fisher grid points written, or verify trials run
    sweep: Sweep | None = None


def figures_jobs(rng: random.Random) -> list[Job]:
    jobs = []
    for fig_id, (estimand, swept, fixed, channel, weights) in FIGURES.items():
        sweep = Sweep(
            estimand=estimand,
            norm="as-published",
            method="analytic",
            dyadic=CHANNELS[channel],
            qr=WEIGHTS[weights][0],
            ql=WEIGHTS[weights][1],
            axes=tuple((name, *DOMAINS[name], FIGURE_GRID) for name in swept),
            fixed=dict(fixed),
        )
        argv = ("figures", "--id", fig_id, "--grid", str(FIGURE_GRID))
        jobs.append(Job(f"fig-{fig_id}", argv, "csv", FIGURE_GRID**2, sweep))
    rng.shuffle(jobs)
    return jobs


def _physical_x_state(rng: random.Random) -> tuple[float, float, float]:
    """Uniform draw from [-1, 1]^3 whose two-qubit state is positive with margin."""
    while True:
        c1, c2, c3 = (rng.uniform(-1.0, 1.0) for _ in range(3))
        eigenvalues = (1 - c1 - c2 - c3, 1 - c1 + c2 + c3, 1 + c1 - c2 + c3, 1 + c1 + c2 - c3)
        if min(eigenvalues) / 4.0 >= 1e-3:
            return (c1, c2, c3)


def _random_weights(rng: random.Random) -> tuple[complex, complex]:
    mu = rng.uniform(0.0, math.pi / 2.0)
    chi, xi = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi)
    return math.cos(mu) * cmath.exp(1j * chi), math.sin(mu) * cmath.exp(1j * xi)


def sweep_json_jobs(rng: random.Random, inputs: Path) -> list[Job]:
    """One sweep per (channel kind, weight kind) pair: 4 x 3 = 12 jobs.

    Every sweep has an r axis over the whole of [0, pi/4], so the
    one-sided fd stencils run at both edges, and the Bell channels with
    wsma weights are pure at r = 0. Each spec is written under ``inputs``.
    """
    inputs.mkdir(parents=True, exist_ok=True)
    estimands = ["theta", "phi", "r"] * 4
    rng.shuffle(estimands)
    jobs = []
    pairs = [(c, w) for c in ("bell-phi-plus", "bell-psi-minus", "werner", "x-state")
             for w in ("wsma", "bsma", "complex")]
    for index, ((channel, weights), estimand) in enumerate(zip(pairs, estimands)):
        if channel == "werner":
            fidelity = rng.uniform(0.0, 1.0)
            dyadic = (-fidelity, -fidelity, -fidelity)
        elif channel == "x-state":
            dyadic = _physical_x_state(rng)
        else:
            dyadic = CHANNELS[channel]
        qr, ql = _random_weights(rng) if weights == "complex" else WEIGHTS[weights]
        other = rng.choice(("theta", "phi"))
        swept = (other, "r") if rng.random() < 0.5 else ("r", other)
        held = "phi" if other == "theta" else "theta"
        fixed = {held: rng.uniform(*DOMAINS[held])}
        sweep = Sweep(
            estimand=estimand,
            norm="normalized",
            method="fd",
            dyadic=dyadic,
            qr=qr,
            ql=ql,
            axes=tuple((name, *DOMAINS[name], SWEEP_GRID) for name in swept),
            fixed=fixed,
        )
        unruh: dict[str, Any] = {} if weights == "complex" else {"mode": weights}
        unruh.update(qr=[qr.real, qr.imag], ql=[ql.real, ql.imag])
        spec = {
            "estimand": estimand,
            "norm": sweep.norm,
            "method": sweep.method,
            "channel": dict(zip(("preset", "c11", "c22", "c33"), (channel, *dyadic))),
            "unruh": unruh,
            "axes": [
                {"name": name, "start": start, "stop": stop, "count": count}
                for name, start, stop, count in sweep.axes
            ],
            "fixed": fixed,
        }
        name = f"sweep-{index:02d}-{channel}-{weights}-{estimand}"
        spec_path = inputs / f"{name}.spec.json"
        spec_path.write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")
        argv = ("sweep", "--spec", str(spec_path), "--format", "json")
        jobs.append(Job(name, argv, "json", SWEEP_GRID**2, sweep))
    return jobs


def verify_jobs(rng: random.Random) -> list[Job]:
    seeds = rng.sample(range(1, 2**31), VERIFY_SEEDS_PER_PASS)
    return [
        Job(
            f"verify-{seed}",
            ("verify", "--trials", str(VERIFY_TRIALS), "--seed", str(seed)),
            "text",
            VERIFY_TRIALS,
        )
        for seed in seeds
    ]


def build_jobs(workload: str, seed: int, inputs: Path) -> list[Job]:
    """The job list of one pass, with every input file written under ``inputs``.

    The same (workload, seed) always gives the same jobs in the same order.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "figures":
        return figures_jobs(rng)
    if workload == "verify":
        return verify_jobs(rng)
    if workload == "sweep-json":
        return sweep_json_jobs(rng, inputs)
    raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")
