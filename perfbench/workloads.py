"""The four benchmark workloads, each one `dysonmap` CLI command.

A seed picks one of `VARIANTS` input variants (`seed % VARIANTS`).  The
variants jitter kappa, and the sweep's axis range, only inside ranges where
every variant keeps the same verdicts: the three s1 workloads pass every
check, and every drift_sweep point fails validation.  (At dim 40,
metric_constancy grows steeply with kappa and fails from kappa = 0.108.)
The reference outputs of every variant are recorded in `reference/`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

VARIANTS = 8
PI = "3.141592653589793"

# Thread and worker settings removed from every child environment, so a
# workload runs with exactly the settings listed in its `env`.
_CONTROLLED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                   "DYSONMAP_WORKERS", "PYTHONPATH")


@dataclass(frozen=True)
class Invocation:
    """One CLI invocation: arguments after `dysonmap`, without `--out`."""

    args: list[str]
    env: dict[str, str]
    points: int
    # Scenario overrides that the set-up probe applies before scenario_from_doc.
    sets: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.args[0]

    @property
    def scenario(self) -> str:
        return self.args[1]


def _kappa(variant: int) -> float:
    return round(0.094 + 0.0015 * variant, 6)


def _set_args(sets: dict) -> list[str]:
    return [a for key, value in sets.items() for a in ("--set", f"{key}={value}")]


def s1_run(variant: int) -> Invocation:
    sets = {"kappa": _kappa(variant)}
    return Invocation(["run", "s1", *_set_args(sets)], {}, 1, sets)


def drift_sweep(variant: int) -> Invocation:
    lo = round(0.05 + 0.005 * variant, 6)
    hi = round(0.15 + 0.01 * variant, 6)
    env = {"DYSONMAP_WORKERS": "2", "OPENBLAS_NUM_THREADS": "1"}
    return Invocation(["sweep", "gamma_drift", "--axis", f"kappa:{lo}:{hi}:2"], env, 2)


def s1_dim40(variant: int) -> Invocation:
    sets = {"dim": 40, "grid.steps": 9600, "kappa": _kappa(variant)}
    return Invocation(["diagnose", "s1", *_set_args(sets)], {}, 1, sets)


def pt_scan(variant: int) -> Invocation:
    sets = {"kappa": _kappa(variant)}
    axis = f"alpha.c.arg:0:{PI}:8001"
    return Invocation(["pt-phase", "s1", *_set_args(sets), "--axis", axis], {}, 8001, sets)


WORKLOADS = {f.__name__: f for f in (s1_run, drift_sweep, s1_dim40, pt_scan)}

# Exit code every variant of a workload must return.
EXPECTED_EXIT = {"s1_run": 0, "drift_sweep": 1, "s1_dim40": 0, "pt_scan": 0}


def invocation(workload: str, seed: int) -> Invocation:
    return WORKLOADS[workload](seed % VARIANTS)


def child_env(root: Path, inv: Invocation) -> dict[str, str]:
    """The environment of a child process: this checkout's `src` first."""
    env = {k: v for k, v in os.environ.items() if k not in _CONTROLLED_ENV}
    env["PYTHONPATH"] = str(root / "src")
    env.update(inv.env)
    return env
