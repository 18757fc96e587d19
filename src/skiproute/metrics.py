"""Text-overlap scores and aggregate skip statistics.

The scores operate on token sequences of any hashable type, so byte ids
and words both work; every score is invariant under relabeling the
vocabulary. Skip statistics summarize a batch of frozen per-prompt
decisions and can be dumped to CSV and re-aggregated exactly.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DatasetError, ShapeError
from .router import SkipDecision


def _ngrams(tokens: Sequence, n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu_n(candidate: Sequence, reference: Sequence, max_n: int = 2) -> float:
    """Geometric mean of clipped n-gram precisions with a brevity penalty.

    Unsmoothed: any order with zero overlap zeroes the score, and an empty
    candidate scores 0 outright.
    """
    if max_n < 1:
        raise ConfigError(f"max_n must be positive, got {max_n}")
    candidate = list(candidate)
    reference = list(reference)
    if not candidate:
        return 0.0

    log_sum = 0.0
    for n in range(1, max_n + 1):
        cand = _ngrams(candidate, n)
        total = sum(cand.values())
        if total == 0:
            return 0.0
        ref = _ngrams(reference, n)
        clipped = sum(min(c, ref[g]) for g, c in cand.items())
        if clipped == 0:
            return 0.0
        log_sum += math.log(clipped / total) / max_n

    c, r = len(candidate), len(reference)
    brevity = 1.0 if c >= r else math.exp(1.0 - r / c)
    return brevity * math.exp(log_sum)


# ------------------------------------------------------- skip statistics


@dataclass(frozen=True)
class SkipStats:
    """Aggregate view of many per-prompt skip decisions."""

    n_layers: int
    n_prompts: int
    layer_skip_fraction: tuple[float, ...]
    average_skip_fraction: float
    # the smallest decision margin min |rho - 0.5| over every prompt
    margin_min: float
    # how many different skip sets the prompts chose
    n_skip_sets: int
    # 25th, 50th and 75th percentiles of the per-prompt decision margin
    margin_quartiles: tuple[float, float, float]


def collect_skip_stats(decisions: Sequence[SkipDecision]) -> SkipStats:
    if not decisions:
        raise DatasetError("no decisions to aggregate")
    n_layers = len(decisions[0].passed)
    for d in decisions:
        if len(d.passed) != n_layers:
            raise ShapeError("decisions disagree on the layer count")
    skipped = np.array([[not p for p in d.passed] for d in decisions], dtype=np.float64)
    fractions = skipped.mean(axis=0)
    margins = [d.margin for d in decisions]
    return SkipStats(n_layers=n_layers, n_prompts=len(decisions),
                     layer_skip_fraction=tuple(float(f) for f in fractions),
                     average_skip_fraction=float(fractions.mean()),
                     margin_min=min(margins),
                     n_skip_sets=len({d.passed for d in decisions}),
                     margin_quartiles=tuple(
                         float(q) for q in np.percentile(margins, (25, 50, 75))))


def write_decision_log(path: str, decisions: Sequence[SkipDecision]) -> None:
    """One raw row per prompt: probabilities, then skip flags."""
    if not decisions:
        raise DatasetError("no decisions to write")
    m = len(decisions[0].passed)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["prompt"] + [f"rho_{i}" for i in range(m)]
                   + [f"skip_{i}" for i in range(m)])
        for idx, d in enumerate(decisions):
            w.writerow([idx] + [repr(r) for r in d.rho]
                       + [int(not p) for p in d.passed])


def read_decision_log(path: str) -> list[SkipDecision]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or not rows[0] or rows[0][0] != "prompt":
        raise DatasetError(f"not a decision log: {path}")
    m = sum(1 for name in rows[0] if name.startswith("rho_"))
    if m == 0 or len(rows[0]) != 1 + 2 * m:
        raise DatasetError(f"malformed decision log header in {path}")
    out = []
    for row in rows[1:]:
        if len(row) != 1 + 2 * m:
            raise DatasetError(f"decision row with {len(row)} fields, wanted {1 + 2 * m}")
        try:
            decision = SkipDecision.from_rhos([float(v) for v in row[1:1 + m]])
        except ValueError:
            raise DatasetError(f"decision row {row[0]}: a rho is not a number") from None
        if not all(0.0 <= r <= 1.0 for r in decision.rho):
            raise DatasetError(f"decision row {row[0]}: a rho outside [0, 1]")
        flags = row[1 + m:]
        if any(f not in ("0", "1") for f in flags):
            raise DatasetError(f"decision row {row[0]}: a skip flag other than 0 or 1")
        if tuple(f == "0" for f in flags) != decision.passed:
            raise DatasetError(f"decision row {row[0]}: a skip flag contradicts its rho")
        out.append(decision)
    return out
