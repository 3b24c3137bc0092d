"""Monte Carlo estimator reports: an estimate, its standard error and the
counts of paths that entered it and that were dropped.

A report holds numbers, not verdicts.  Each study states its own test where
it decides (how many standard errors, paired or pooled), and the harness
checks the flagged paths against all the paths a study ran."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .inputs import FieldError


class EmptySampleError(FieldError):
    """An estimate was asked of no samples: every path of its run was flagged."""


@dataclass(frozen=True)
class EstimatorReport:
    """A Monte Carlo estimate with its standard error.

    ``samples`` counts the paths that entered the estimate and ``excluded``
    those dropped because they went non-finite; accepted runs require the
    excluded fraction of all paths run to stay below 1e-4.
    """

    estimate: float
    se: float
    samples: int
    excluded: int = 0
    overflowed: int = 0

    def __post_init__(self):
        if not (self.se >= 0.0 or math.isnan(self.se)):
            raise ValueError(f"standard error must be nonnegative, got {self.se}")
        if self.samples <= 0:
            raise ValueError("sample count must be positive")

    def to_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "se": self.se,
            "paths": self.samples,
            "excluded": self.excluded,
        }


def from_samples(values, excluded: int = 0) -> EstimatorReport:
    """Build a report from per-path sample values (mean and SE of the mean).

    A mean that is not finite has an infinite SE, and so has a single
    sample; ``overflowed`` counts the infinite values."""
    values = np.asarray(values, dtype=float)
    n = values.size
    if n == 0:
        raise EmptySampleError("cannot build a report from an empty sample")
    est = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 and math.isfinite(est) else math.inf
    return EstimatorReport(est, se, n, excluded=excluded,
                           overflowed=int(np.isinf(values).sum()))
