"""Detection metrics over bonafide/spoof score sets.

Scores follow the higher-is-more-bonafide convention and, for act_dcf and
cllr, are interpreted as natural-log likelihood ratios.  The threshold
sweep places candidate thresholds at midpoints between consecutive
distinct pooled scores plus -inf/+inf sentinels; a miss is a bonafide
score strictly below the threshold, a false accept is a spoof score at
or above it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyClass, InvalidParameter, NonFiniteScore

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class MetricConfig:
    """Costs and spoof prior for the detection cost function."""

    c_miss: float = 1.0
    c_fa: float = 10.0
    pi_spoof: float = 0.05

    def __post_init__(self):
        # a NaN fails both comparisons
        if not (0.0 <= self.c_miss < math.inf and 0.0 <= self.c_fa < math.inf):
            raise InvalidParameter(
                f"costs must be finite and nonnegative, got c_miss="
                f"{self.c_miss}, c_fa={self.c_fa}")
        if not 0.0 < self.pi_spoof < 1.0:
            raise InvalidParameter(
                f"pi_spoof must lie in (0, 1), got {self.pi_spoof}")
        if min(self.c_miss * (1.0 - self.pi_spoof),
               self.c_fa * self.pi_spoof) <= 0.0:
            raise InvalidParameter("DCF normalizer must be positive")


@dataclass(eq=False)
class ScoreSet:
    """Finite detector scores split by ground-truth class."""

    bonafide: np.ndarray
    spoof: np.ndarray

    def __post_init__(self):
        self.bonafide = self._coerce("bonafide", self.bonafide)
        self.spoof = self._coerce("spoof", self.spoof)

    @staticmethod
    def _coerce(name, values):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1:
            raise InvalidParameter(f"{name} scores must be one-dimensional")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteScore(f"{name} scores contain NaN or infinity")
        return arr


def _require(s: ScoreSet):
    if len(s.bonafide) == 0 or len(s.spoof) == 0:
        raise EmptyClass("need at least one bonafide and one spoof score")


def _sweep(s: ScoreSet):
    """Candidate thresholds with miss / false-accept counts at each."""
    bon = np.sort(s.bonafide)
    spf = np.sort(s.spoof)
    pooled = np.unique(np.concatenate((bon, spf)))
    thresholds = np.concatenate((
        [-np.inf], (pooled[:-1] + pooled[1:]) / 2.0, [np.inf]))
    n_miss = np.searchsorted(bon, thresholds, side="left")
    n_fa = len(spf) - np.searchsorted(spf, thresholds, side="left")
    return thresholds, n_miss, n_fa, len(bon), len(spf)


def min_dcf_and_eer(s: ScoreSet, cfg: MetricConfig = MetricConfig()) -> tuple:
    """minDCF and EER (percent) from one threshold sweep.

    The EER is taken at the nearest crossing; its |p_miss - p_fa|
    comparison runs on exact integer cross products so that rational ties
    resolve to the smaller threshold instead of whichever side float
    rounding happens to favor.
    """
    _require(s)
    _, n_miss, n_fa, nb, ns = _sweep(s)
    w_miss = cfg.c_miss * (1.0 - cfg.pi_spoof)
    w_fa = cfg.c_fa * cfg.pi_spoof
    costs = w_miss * (n_miss / nb) + w_fa * (n_fa / ns)
    dcf = float(costs.min() / min(w_miss, w_fa))
    i = int(np.argmin(np.abs(n_miss * ns - n_fa * nb)))
    return dcf, 100.0 * (n_miss[i] / nb + n_fa[i] / ns) / 2.0


def eer(s: ScoreSet) -> float:
    """Equal error rate in percent at the nearest-crossing threshold."""
    return min_dcf_and_eer(s)[1]


def min_dcf(s: ScoreSet, cfg: MetricConfig = MetricConfig()) -> float:
    """Minimum normalized detection cost over the threshold sweep."""
    return min_dcf_and_eer(s, cfg)[0]


def bayes_threshold(cfg: MetricConfig = MetricConfig()) -> float:
    """Score threshold of the Bayes decision rule for cfg."""
    return math.log(
        (cfg.c_fa * cfg.pi_spoof) / (cfg.c_miss * (1.0 - cfg.pi_spoof)))


def act_dcf(s: ScoreSet, cfg: MetricConfig = MetricConfig()) -> float:
    """Normalized detection cost at the fixed Bayes threshold."""
    _require(s)
    tau = bayes_threshold(cfg)
    p_miss = int(np.count_nonzero(s.bonafide < tau)) / len(s.bonafide)
    p_fa = int(np.count_nonzero(s.spoof >= tau)) / len(s.spoof)
    w_miss = cfg.c_miss * (1.0 - cfg.pi_spoof)
    w_fa = cfg.c_fa * cfg.pi_spoof
    return (w_miss * p_miss + w_fa * p_fa) / min(w_miss, w_fa)


def cllr(s: ScoreSet) -> float:
    """Cost of log-likelihood ratios in bits.

    Each term is converted to bits before averaging, which keeps the
    all-zero-scores case at exactly 1.0 for every class size.
    """
    _require(s)
    bon_bits = np.logaddexp(0.0, -s.bonafide) / _LN2
    spf_bits = np.logaddexp(0.0, s.spoof) / _LN2
    return float(0.5 * (bon_bits.mean() + spf_bits.mean()))


def gaussian_scores(n_bon: int, n_spf: int, mu_bon: float, mu_spf: float,
                    sigma: float, seed: int) -> ScoreSet:
    """Equal-variance Gaussian score sets for metric validation.

    The analytic EER of this model is 100*Phi(-(mu_bon-mu_spf)/(2*sigma)).
    Bonafide scores are drawn before spoof scores from a single PCG64
    stream, so a fixed seed pins the whole set.
    """
    if n_bon <= 0 or n_spf <= 0:
        raise InvalidParameter("class sizes must be positive")
    if sigma <= 0.0:
        raise InvalidParameter("sigma must be positive")
    rng = np.random.Generator(np.random.PCG64(seed))
    return ScoreSet(rng.normal(mu_bon, sigma, n_bon),
                    rng.normal(mu_spf, sigma, n_spf))
