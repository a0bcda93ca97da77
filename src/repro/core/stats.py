"""Statistical tools used by the evaluation (Sections 6.1, 8.4-8.7).

* Mann-Whitney U test — the non-parametric test the paper uses for comparing
  execution-time distributions (bushy vs. left-deep plans, scan ablations),
* linear regression R² — the "number of joins is an irrelevant proxy for
  execution time" analysis behind Figure 2,
* bootstrap confidence intervals — the error bars of Figures 4 and 5.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MannWhitneyResult:
    """Outcome of a Mann-Whitney U test."""

    statistic: float
    p_value: float
    alternative: str

    def significant(self, alpha: float = 0.05) -> bool:
        return self.p_value < alpha


def mann_whitney_u_test(
    sample_a: np.ndarray,
    sample_b: np.ndarray,
    alternative: str = "two-sided",
) -> MannWhitneyResult:
    """Mann-Whitney U test between two samples (no normality assumption)."""
    sample_a = np.asarray(sample_a, dtype=float)
    sample_b = np.asarray(sample_b, dtype=float)
    if sample_a.size == 0 or sample_b.size == 0:
        return MannWhitneyResult(statistic=0.0, p_value=1.0, alternative=alternative)
    # Imported here: ``scipy.stats`` costs 0.6 s and every worker, plan server
    # and driver imports this module on its way to its first operation.
    from scipy import stats as scipy_stats

    result = scipy_stats.mannwhitneyu(sample_a, sample_b, alternative=alternative)
    return MannWhitneyResult(
        statistic=float(result.statistic),
        p_value=float(result.pvalue),
        alternative=alternative,
    )


@dataclass(frozen=True)
class RegressionResult:
    """Simple linear regression summary (slope, intercept, R²)."""

    slope: float
    intercept: float
    r_squared: float
    n: int


def linear_regression_r2(x: np.ndarray, y: np.ndarray) -> RegressionResult:
    """Least-squares fit of ``y`` on ``x`` with the out-of-sample-style R².

    Following the paper's Figure 2 analysis, R² is computed as
    ``1 - SS_res / SS_tot`` and can therefore be negative when the predictor
    explains less variance than the mean — which is exactly the paper's point
    about using the number of joins as a proxy for execution time.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.size != y.size or x.size < 2:
        return RegressionResult(slope=0.0, intercept=float(np.mean(y) if y.size else 0.0), r_squared=0.0, n=int(x.size))
    # Leave-one-out residuals give an honest (possibly negative) R² even when
    # the fit is evaluated on the same small sample it was computed from.
    residuals = np.empty_like(y)
    for i in range(x.size):
        mask = np.ones(x.size, dtype=bool)
        mask[i] = False
        slope_i, intercept_i = np.polyfit(x[mask], y[mask], 1)
        residuals[i] = y[i] - (slope_i * x[i] + intercept_i)
    slope, intercept = np.polyfit(x, y, 1)
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return RegressionResult(slope=float(slope), intercept=float(intercept), r_squared=float(r_squared), n=int(x.size))


@dataclass(frozen=True)
class ConfidenceInterval:
    """A bootstrap confidence interval around a sample mean."""

    mean: float
    low: float
    high: float
    confidence: float

    @property
    def half_width(self) -> float:
        return (self.high - self.low) / 2.0


def bootstrap_confidence_interval(
    values: np.ndarray,
    confidence: float = 0.95,
    n_resamples: int = 2000,
    seed: int = 0,
) -> ConfidenceInterval:
    """Percentile bootstrap CI of the mean of ``values``."""
    values = np.asarray(values, dtype=float).reshape(-1)
    if values.size == 0:
        return ConfidenceInterval(mean=0.0, low=0.0, high=0.0, confidence=confidence)
    if values.size == 1:
        v = float(values[0])
        return ConfidenceInterval(mean=v, low=v, high=v, confidence=confidence)
    rng = np.random.default_rng(seed)
    resamples = rng.choice(values, size=(n_resamples, values.size), replace=True)
    means = resamples.mean(axis=1)
    alpha = (1.0 - confidence) / 2.0
    return ConfidenceInterval(
        mean=float(values.mean()),
        low=float(np.quantile(means, alpha)),
        high=float(np.quantile(means, 1.0 - alpha)),
        confidence=confidence,
    )


def relative_difference(before: float, after: float) -> float:
    """Signed relative difference ``(before - after) / before`` (Figure 7's metric)."""
    if before == 0:
        return 0.0
    return (before - after) / before


def slowdown_factor(new_ms: float, reference_ms: float) -> float:
    """How many times slower ``new_ms`` is than ``reference_ms`` (≥ 1 means slower)."""
    return float(new_ms / max(reference_ms, 1e-9))
