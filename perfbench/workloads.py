"""Benchmark workloads: seeded conesum configurations and the CLI call for each.

Every workload is one ``conesum`` subcommand on a configuration derived from
the benchmark seed.  Seeds map onto ``VARIANTS`` input variants
(``seed % VARIANTS``); variant 0 is the unjittered configuration, and every
other variant jitters M2's radius by up to +-5% and each eps by up to the
workload's ``eps_jitter`` (the eps ladder stays strictly decreasing because
neighbouring rungs differ by a factor of two).  A reference output is stored
for every variant under ``refs/``, so outputs can be checked for any seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

VARIANTS = 16

M2_RADIUS = 2.0
M2_JITTER = 0.05
EPS_JITTER = 0.10


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    base_config: dict  # overrides on top of conesum's DEFAULTS
    eps: float | None  # connected-sum eps for `spectrum`, None for `sweep`
    outputs: tuple[str, ...]  # files the checker reads from the output directory
    hodge_dual: bool = False  # check Hodge duality of spectrum.csv
    eps_jitter: float = EPS_JITTER


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="sweep",
            subcommand="sweep",
            base_config={"epsilons": [0.2, 0.1, 0.05, 0.025]},
            eps=None,
            outputs=("sweep.csv", "report.json"),
        ),
        Workload(
            name="crosscheck",
            subcommand="spectrum",
            base_config={"solver": {"method": "both"}},
            eps=0.05,
            outputs=("spectrum.csv",),
            # Below eps ~0.047 `method=both` raises SolverDisagreementError
            # (perfbench/README.md, "Known defect"), so eps stays at 0.05.
            eps_jitter=0.0,
        ),
        Workload(
            name="hodge",
            subcommand="spectrum",
            base_config={"n": 3, "degrees": [0, 1, 2, 3, 4], "lam_max": 100.0},
            eps=0.025,
            outputs=("spectrum.csv",),
            hodge_dual=True,
        ),
    )
}


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def _jitter(rng: random.Random, value: float, rel: float) -> float:
    return round(value * (1.0 + rng.uniform(-rel, rel)), 6)


def inputs(workload: Workload, variant: int) -> tuple[dict, float | None]:
    """(config dict for ``--config``, eps for ``--eps``) of one variant."""
    cfg = {key: (dict(val) if isinstance(val, dict) else val) for key, val in workload.base_config.items()}
    cfg.setdefault("m1", {"type": "spindle", "radius": 1.0})
    cfg["m2"] = {"type": "truncated_spindle", "radius": M2_RADIUS, "cut": 1.0}
    cfg.setdefault("n", 2)
    eps = workload.eps
    if variant == 0:
        return cfg, eps
    rng = random.Random(f"{workload.name}/{variant}")
    cfg["m2"]["radius"] = _jitter(rng, M2_RADIUS, M2_JITTER)
    if "epsilons" in cfg:
        cfg["epsilons"] = [_jitter(rng, e, workload.eps_jitter) for e in cfg["epsilons"]]
        if any(a <= b for a, b in zip(cfg["epsilons"], cfg["epsilons"][1:])):
            raise ValueError(f"jittered eps ladder is not strictly decreasing: {cfg['epsilons']}")
    if eps is not None and workload.eps_jitter:
        eps = _jitter(rng, eps, workload.eps_jitter)
    return cfg, eps


def argv(workload: Workload, config_path: str, out_dir: str, eps: float | None) -> list[str]:
    """Arguments for ``conesum.cli.main``."""
    args = [workload.subcommand, "--config", config_path, "--out", out_dir]
    if eps is not None:
        args += ["--eps", repr(eps)]
    if workload.subcommand == "sweep":
        args += ["--jobs", "1"]
    return args
