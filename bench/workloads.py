"""The four benchmark workloads: CLI argvs generated from a seed, and their digests.

A workload is one ``python -m repro.runner`` grid.  The program only ever
sees the generated argv; ``--seed S`` is an offset added to every base
seed, so the same S always produces the same grid.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

ROUND_SCENARIOS = (
    "ho-classic-otr",
    "ho-classic-uv",
    "ho-classic-lv",
    "ho-round-mobile-omission",
    "ho-round-rotating-partition",
    "ho-round-bursty-loss",
    "ho-round-eventually-stable-coordinator",
)
MONITORED_SCENARIOS = (
    "ho-classic-otr",
    "ho-round-mobile-omission",
    "ho-round-rotating-partition",
    "ho-round-bursty-loss",
    "ho-round-eventually-stable-coordinator",
)
STEP_SCENARIOS = ("ho-step-down-otr", "ho-step-arbitrary-otr", "ho-theorem8-translation")

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


@dataclass(frozen=True)
class Workload:
    """One grid: fixed axes, base seeds the ``--seed`` offset shifts, and sinks."""

    name: str
    why: str
    grid: Tuple[str, ...]
    base_seeds: Tuple[int, ...]
    replicas: int
    sinks: Tuple[str, ...] = ("jsonl", "json")

    def sink_path(self, out_dir: str, sink: str) -> str:
        return os.path.join(out_dir, f"{self.name}.{sink}")

    def argv(
        self,
        seed: int,
        out_dir: str,
        replicas: Optional[int] = None,
        base_seeds: Optional[Sequence[int]] = None,
    ) -> List[str]:
        """The full-size CLI argv at offset *seed*, sinks under *out_dir*."""
        seeds = self.base_seeds if base_seeds is None else base_seeds
        argv = [
            *self.grid,
            "--seeds", *(str(base + seed) for base in seeds),
            "--replicas", str(self.replicas if replicas is None else replicas),
            "--workers", "1",
            "--quiet",
        ]
        for sink in self.sinks:
            argv += [f"--{sink}", self.sink_path(out_dir, sink)]
        return argv

    def warmup_argv(self, seed: int, out_dir: str) -> List[str]:
        """The reduced sweep of set-up: same axes, 2 replicas, one base seed.

        It touches every lazy import, JIT compile/cache load and scratch
        allocation the full-size sweep needs, at a fraction of its cost.
        """
        return self.argv(seed, out_dir, replicas=2, base_seeds=self.base_seeds[:1])


# Grid sizes are a quarter of a "reference" n=64 R=256 sweep on purpose: the
# driver's cap of ~37 s per run (set-up included) leaves room for about seven
# timed sweeps of ~2 s each, and best-of-7 is what makes the timing steady.
# The axes (n, scenarios, fault models, horizon, monitors, backend) are the
# full-size ones, so the share of time per layer is the same as at R=256.
WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="round-grid",
        why="round-level hot path at n=64, decide-poll-retire mode: hashing, "
        "unpacking and transition kernels do the work, the runner almost none",
        grid=(
            "--scenarios", *ROUND_SCENARIOS,
            "--fault-models", "fault-free", "crash-stop", "crash-recovery",
            "--n", "64",
            "--param", "rounds=40",
        ),
        base_seeds=(1,),
        replicas=64,
    ),
    Workload(
        name="monitored-grid",
        why="same round loop, no early retirement, all six predicate monitors "
        "every round: a gain for decide-and-retire that costs observe-every-round shows",
        grid=(
            "--scenarios", *MONITORED_SCENARIOS,
            "--fault-models", "fault-free", "crash-stop",
            "--n", "64",
            "--param", "rounds=40",
            "--param", "run_full_horizon=true",
            "--predicates", "p_otr,p_restr_otr,p_su,p_k,p_2otr,p_1/1otr",
        ),
        base_seeds=(1,),
        replicas=32,
    ),
    Workload(
        name="wide-grid",
        why="560 tiny mixed-n cells on the super backend with all three sinks: "
        "per-cell costs dominate, so an n=64 kernel optimisation should leave it flat",
        grid=(
            "--scenarios", *ROUND_SCENARIOS,
            "--fault-models", "fault-free", "crash-stop", "crash-recovery", "lossy",
            "--ns", "4", "7", "10", "13", "16",
            "--param", "rounds=40",
            "--backend", "super",
        ),
        base_seeds=(0, 100, 200, 300),
        replicas=8,
        sinks=("jsonl", "csv", "json"),
    ),
    Workload(
        name="step-grid",
        why="step-level half of the paper (Theorems 3-8): most cells fall back to "
        "step-scalar inside predimpl/sysmodel, which no round-level optimisation touches",
        grid=(
            "--scenarios", *STEP_SCENARIOS,
            "--fault-models", "fault-free", "crash-stop", "crash-recovery", "lossy",
            "--ns", "4", "7",
        ),
        base_seeds=(1,),
        replicas=20,
    ),
)

BY_NAME: Dict[str, Workload] = {workload.name: workload for workload in WORKLOADS}


def digest(aggregates: Mapping[str, Any]) -> str:
    """sha256 of the canonical JSON of a summary's ``aggregates`` object.

    Aggregates hold simulated statistics only (no wall time, no backend
    labels), so the digest is the same on every tier and every host.
    """
    canonical = json.dumps(aggregates, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_golden(path: str = GOLDEN_PATH) -> Dict[str, Dict[str, str]]:
    """``{workload: {seed: digest}}`` as pinned by ``run.py --regen-golden``."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["digests"]


def pinned_digest(name: str, seed: int) -> Optional[str]:
    """The golden digest of workload *name* at offset *seed*, if one is pinned."""
    return load_golden().get(name, {}).get(str(seed))
