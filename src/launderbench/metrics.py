"""Detection metrics over bonafide/spoof score sets.

Scores follow the higher-is-more-bonafide convention and, for act_dcf and
cllr, are interpreted as natural-log likelihood ratios.  cell_metrics
scores one cell; its minDCF, actDCF and EER come from one count curve:
cumulative counts of misses (bonafide scores below a cut) and false
accepts (spoof scores above it) over the ascending scores, cut between
consecutive distinct scores, so no float midpoint is ever computed.
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


def _require(n_bon: int, n_spf: int):
    if n_bon == 0 or n_spf == 0:
        raise EmptyClass("need at least one bonafide and one spoof score")


def error_counts(scores: np.ndarray, is_bon: np.ndarray) -> tuple:
    """Miss and false-accept counts at each cut, then the class sizes.

    scores are ascending, in any order within a run of equal scores, and
    is_bon flags the bonafide ones.  Cut k lies above the k smallest
    distinct scores.
    """
    nb = int(np.count_nonzero(is_bon))
    ns = len(is_bon) - nb
    _require(nb, ns)
    # rows below each cut: none, those before each later run, then all
    below = np.flatnonzero(np.r_[True, scores[1:] != scores[:-1], True])
    n_miss = np.append(0, np.cumsum(is_bon))[below]
    return n_miss, ns - (below - n_miss), nb, ns


def bayes_threshold(cfg: MetricConfig = MetricConfig()) -> float:
    """Score threshold of the Bayes decision rule for cfg."""
    return math.log(
        (cfg.c_fa * cfg.pi_spoof) / (cfg.c_miss * (1.0 - cfg.pi_spoof)))


def cell_metrics(scores: np.ndarray, is_bon: np.ndarray,
                 cfg: MetricConfig = MetricConfig()) -> tuple:
    """minDCF, actDCF, Cllr and EER (percent) of ascending flagged scores.

    The EER is taken at the nearest crossing, found on exact integer
    cross products so that rational ties resolve to the lower cut, not to
    whichever side float rounding happens to favor.  A score equal to the
    Bayes threshold is accepted.  Cllr terms are in bits before averaging,
    which keeps all-zero scores at exactly 1.0 for every class size.
    """
    n_miss, n_fa, nb, ns = error_counts(scores, is_bon)
    w_miss = cfg.c_miss * (1.0 - cfg.pi_spoof)
    w_fa = cfg.c_fa * cfg.pi_spoof
    costs = w_miss * (n_miss / nb) + w_fa * (n_fa / ns)
    i = int(np.argmin(np.abs(n_miss * ns - n_fa * nb)))
    below = int(np.searchsorted(scores, bayes_threshold(cfg)))
    miss = int(np.count_nonzero(is_bon[:below]))
    act = w_miss * (miss / nb) + w_fa * ((ns - (below - miss)) / ns)
    nats = (np.logaddexp(0.0, -scores[is_bon]),
            np.logaddexp(0.0, scores[~is_bon]))
    with np.errstate(over="ignore"):
        cllr = float(0.5 * ((nats[0] / _LN2).mean()
                            + (nats[1] / _LN2).mean()))
    if cllr == math.inf:
        # terms near the largest double overflow the sums: add each term's
        # share of the average instead, which overflows only if it does
        cllr = sum(float(np.sum(t * (0.5 / (_LN2 * len(t))))) for t in nats)
    return (float(costs.min() / min(w_miss, w_fa)), act / min(w_miss, w_fa),
            cllr, 100.0 * (n_miss[i] / nb + n_fa[i] / ns) / 2.0)


def _scored(s: ScoreSet, cfg: MetricConfig) -> tuple:
    """cell_metrics of both classes merged in ascending order."""
    scores = np.concatenate((s.bonafide, s.spoof))
    order = np.argsort(scores)
    return cell_metrics(scores[order], order < len(s.bonafide), cfg)


def min_dcf(s: ScoreSet, cfg: MetricConfig = MetricConfig()) -> float:
    """Minimum normalized detection cost over the sweep."""
    return _scored(s, cfg)[0]


def act_dcf(s: ScoreSet, cfg: MetricConfig = MetricConfig()) -> float:
    """Normalized detection cost at the fixed Bayes threshold."""
    return _scored(s, cfg)[1]


def cllr(s: ScoreSet) -> float:
    """Cost of log-likelihood ratios in bits."""
    return _scored(s, MetricConfig())[2]


def eer(s: ScoreSet) -> float:
    """Equal error rate in percent at the nearest-crossing cut."""
    return _scored(s, MetricConfig())[3]


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
