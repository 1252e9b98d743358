"""Correctness gates, checked on the files one CLI run wrote.

One operation is one schedule level of one study.  A level fails when the
command exited non-zero, when its row is missing or any of its errors is
not finite, or when its study's gate fails; a failed gate fails every
level of that study.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Study:
    """A study a workload runs: its id, schedule and gate.

    ``gate(l2_errors, rates)`` gets the study's L2 error per level and the
    run's ``rates.csv`` slopes keyed by (config id, norm).
    """

    id: str
    n_schedule: tuple[int, ...]
    gate: Callable[[list[float], dict], bool]


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    l2: dict = field(default_factory=dict)


def read_levels(path: Path) -> list[dict]:
    """Rows of a ``<id>.csv``: ``n`` as int, every ``error_*`` as float."""
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    return [
        {"n": int(row["n"]), **{k: float(v) for k, v in row.items() if k.startswith("error_")}}
        for row in rows
    ]


def read_rates(path: Path) -> dict:
    """Slopes of ``rates.csv`` keyed by (config id, norm)."""
    with open(path, newline="") as handle:
        return {(r["config_id"], r["norm"]): float(r["slope"]) for r in csv.DictReader(handle)}


def band_gate(config_id: str, band: tuple[float, float]):
    """The study's fitted L2 slope lies inside ``band``."""
    lo, hi = band

    def gate(l2, rates):
        slope = rates.get((config_id, "l2"), math.nan)
        return lo <= slope <= hi

    return gate


def criterion_12(l2, rates) -> bool:
    """Errors strictly decrease and the finest is at most a quarter of the coarsest."""
    return all(b < a for a, b in zip(l2, l2[1:])) and l2[-1] <= l2[0] / 4.0


def non_increasing(l2, rates) -> bool:
    return all(b <= a for a, b in zip(l2, l2[1:]))


def check(out_dir: Path, exit_code: int, studies) -> Outcome:
    """Count attempted and failed levels of one run, and keep the L2
    errors per level of every study whose CSV could be read."""
    outcome = Outcome()
    rates = {}
    if exit_code == 0 and (out_dir / "rates.csv").is_file():
        rates = read_rates(out_dir / "rates.csv")
    for study in studies:
        expected = len(study.n_schedule)
        outcome.attempted += expected
        path = out_dir / f"{study.id}.csv"
        if exit_code != 0 or not path.is_file():
            outcome.failed += expected
            continue
        levels = read_levels(path)
        good = sum(
            row["n"] == n and all(math.isfinite(v) for v in row.values())
            for n, row in zip(study.n_schedule, levels)
        )
        l2 = [row["error_l2"] for row in levels]
        outcome.l2[study.id] = l2
        outcome.failed += expected if not study.gate(l2, rates) else expected - good
    return outcome
