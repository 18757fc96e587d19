"""Decode-latency measurement: time per output token across repeated runs.

Only decode steps count; prefill is excluded by construction because the
generation loop times each incremental step separately with the monotonic
performance clock. Warmup runs absorb cache effects and are discarded, and
the configurations compared are run in turn rather than in blocks.
"""

from __future__ import annotations

import csv
import statistics
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError
from .model import GenerationResult


TPOT_RUNS, TPOT_WARMUP = 5, 2  # measured and warm-up rounds per configuration


@dataclass(frozen=True)
class TpotResult:
    """Seconds per decode token, summarized over the measured runs."""

    per_run: tuple[float, ...]
    mean: float
    median: float
    decode_tokens: int

    @property
    def iqr(self) -> float:
        """Distance between the quartiles of the per-run means: a median
        that moves by less than this is within the runs' own spread."""
        q1, q3 = np.percentile(self.per_run, [25, 75])
        return float(q3 - q1)


def measure_tpot(run_fns: dict[str, Callable[[], GenerationResult]],
                 n_runs: int = TPOT_RUNS,
                 warmup: int = TPOT_WARMUP) -> dict[str, TpotResult]:
    """Average each generator's per-step decode times over repeated runs.

    The generators take turns (A B C A B C ...), warmup rounds included,
    so drift in the host's speed lands on every configuration alike
    instead of on whichever one was timed in the slow stretch.
    """
    if n_runs < 1:
        raise ConfigError(f"need at least one measured run, got {n_runs}")
    if warmup < 0:
        raise ConfigError(f"warmup count cannot be negative, got {warmup}")
    for _ in range(warmup):
        for run_fn in run_fns.values():
            run_fn()
    per_run: dict[str, list[float]] = {name: [] for name in run_fns}
    tokens = dict.fromkeys(run_fns, 0)
    for _ in range(n_runs):
        for name, run_fn in run_fns.items():
            result = run_fn()
            if not result.decode_times:
                raise ConfigError(
                    f"{name} run produced no decode steps; generate at least two tokens")
            per_run[name].append(sum(result.decode_times) / len(result.decode_times))
            tokens[name] += len(result.decode_times)
    return {name: TpotResult(per_run=tuple(runs), mean=statistics.fmean(runs),
                             median=statistics.median(runs),
                             decode_tokens=tokens[name])
            for name, runs in per_run.items()}


@dataclass
class LatencyReport:
    """Named absolute measurements plus relative ratios derived from them."""

    entries: dict[str, TpotResult] = field(default_factory=dict)

    def relative(self, name: str, baseline: str) -> float:
        """Median-TPOT ratio of a method against a named baseline."""
        for key in (name, baseline):
            if key not in self.entries:
                raise ConfigError(f"no measurement named {key!r}")
        return self.entries[name].median / self.entries[baseline].median


def write_latency_csv(path: str, report: LatencyReport, baseline: str) -> None:
    if baseline not in report.entries:
        raise ConfigError(f"no measurement named {baseline!r}")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "mean_tpot", "median_tpot", "iqr_tpot",
                    "decode_tokens", "relative_to_" + baseline])
        for name, r in report.entries.items():
            w.writerow([name, r.mean, r.median, r.iqr, r.decode_tokens,
                        report.relative(name, baseline)])
