"""Detection metrics over bonafide/spoof score sets.

Scores follow the higher-is-more-bonafide convention and, for act_dcf and
cllr, are interpreted as natural-log likelihood ratios.  block_metrics
scores blocks of cells, a block being cells that share one bonafide set,
from each class's scores as ascending slices: each cell's minDCF and EER
are read off integer counts (bonafide scores at or below a cut, the
cell's spoof scores above it) at cut 0 and at the cut just above each
spoof score, so no float midpoint is ever computed, and its actDCF off
the two counts below the Bayes threshold.  Each score's Cllr term is
computed once by cllr_bits and averaged per class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyClass, InvalidParameter, NonFiniteScore

_LN2 = math.log(2.0)
# rows swept at once: this bounds the sweep's temporaries, and the grid
# sweeps faster in chunks of this size than in one pass over every row
_SWEEP_ROWS = 1 << 16


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


def bayes_threshold(cfg: MetricConfig = MetricConfig()) -> float:
    """Score threshold of the Bayes decision rule for cfg."""
    return math.log(
        (cfg.c_fa * cfg.pi_spoof) / (cfg.c_miss * (1.0 - cfg.pi_spoof)))


def cllr_bits(scores: np.ndarray, bonafide: bool) -> np.ndarray:
    """Each score's Cllr term in bits: log2(1 + e^-s) for a bonafide score,
    log2(1 + e^s) for a spoof one.  Terms past the largest double are inf."""
    with np.errstate(over="ignore"):
        return np.logaddexp(0.0, -scores if bonafide else scores) / _LN2


def _starts(ends):
    """Where each slice starts, given where each ends."""
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1]
    return starts


def _run_bounds(values, starts):
    """Starts of the runs of equal values in values, cut also at starts,
    then len(values)."""
    cut = np.empty(len(values) + 1, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=cut[1:-1])
    cut[starts] = True
    cut[-1] = True
    return np.flatnonzero(cut)


def _run_of(bounds, i):
    """Start and end of the run that holds each index i."""
    k = np.searchsorted(bounds, i, side="right")
    return bounds[k - 1], bounds[k]


def _sweep(spf, miss, ends, nb, w_miss, w_fa, tau):
    """Per cell: its least cost; top, its first spoof score at or past the
    EER crossing, with the cell's spoofs at or above top and above top and
    the bonafide scores at or below top; its spoofs below tau; its size.

    spf holds each cell's spoof scores ascending, cell i ending at ends[i],
    miss the count of bonafide scores of its block at or below each, and
    nb each cell's bonafide count.
    """
    starts = _starts(ends)
    ns = ends - starts
    # a single cell broadcasts
    per_row = (lambda v: v) if len(ends) == 1 else (lambda v: np.repeat(v, ns))
    # the cut above each spoof score; where equal spoof scores follow it,
    # fa counts them too, which only raises the cost over that of the cut
    # above the last of them
    fa = per_row(ends - 1) - np.arange(len(spf))
    nb_row, ns_row = per_row(nb), per_row(ns)
    costs = w_miss * (miss / nb_row) + w_fa * (fa / ns_row)
    # cut 0 misses nothing and accepts every spoof
    min_cost = np.minimum(np.minimum.reduceat(costs, starts), w_fa)
    del costs
    short = np.add.reduceat(miss * ns_row < fa * nb_row, starts,
                            dtype=np.intp)
    del fa, nb_row, ns_row
    # the first cut at or past the crossing lies in the run of equal spoof
    # scores holding t, or below it past bonafide-only scores
    t = starts + short
    run_lo, run_hi = _run_of(_run_bounds(spf, starts), t)
    return (min_cost, ends - run_lo, ends - run_hi, spf[t], miss[t],
            np.add.reduceat(spf < tau, starts, dtype=np.intp), ns)


def _chunks(ends):
    """(first cell, end cell, first row, end row) of runs of whole cells of
    about _SWEEP_ROWS rows, at least one cell each."""
    first = row = 0
    while first < len(ends):
        last = max(first + 1, int(np.searchsorted(ends, row + _SWEEP_ROWS,
                                                  side="right")))
        yield first, last, row, int(ends[last - 1])
        first, row = last, int(ends[last - 1])


def _cllr_overflow(bon, spf):
    """Cllr of terms near the largest double, which overflow their sums:
    each term's share of the average is added instead, which overflows
    only if the average does."""
    nats = (np.logaddexp(0.0, -bon), np.logaddexp(0.0, spf))
    return sum(float(np.sum(v * (0.5 / (_LN2 * len(v))))) for v in nats)


def block_metrics(bon, bon_bits, bon_ends, spf, spf_bits, spf_ends,
                  parts=None, cfg: MetricConfig = MetricConfig()) -> tuple:
    """minDCF, actDCF, Cllr and EER (percent) lists of the cells of blocks.

    A block is the cells that share one bonafide set.  Block b's bonafide
    scores are bon up to bon_ends[b] and its spoof scores spf up to
    spf_ends[b], each ascending and non-empty, and the *_bits are their
    cllr_bits.  Each block is a cell, and parts, if given, splits the blocks
    into more cells as (order, ends, block): spf[order] holds each part's
    spoof scores ascending, part i ending at ends[i] and lying in block
    block[i].  The lists hold the blocks' cells, then the parts'.

    Cost is evaluated only at cut 0 and at the cut just above each spoof
    score: moving a cut up past spoof-only scores, or down past
    bonafide-only ones, never raises it, even in floating point, so the
    least of these is the least over every cut.  The EER is taken at the
    nearest crossing, found on exact integer cross products so that
    rational ties resolve to the lower cut, not to whichever side float
    rounding happens to favor.  A score equal to the Bayes threshold is
    accepted.  Cllr terms are in bits before averaging, which keeps
    all-zero scores at exactly 1.0 for every class size.
    """
    bon_ends = np.asarray(bon_ends, dtype=np.intp)
    spf_ends = np.asarray(spf_ends, dtype=np.intp)
    bon_starts, spf_starts = _starts(bon_ends), _starts(spf_ends)
    w_miss = cfg.c_miss * (1.0 - cfg.pi_spoof)
    w_fa = cfg.c_fa * cfg.pi_spoof
    tau = bayes_threshold(cfg)

    # bonafide scores at or below each spoof score: bonafide score k of a
    # block (from 0) lies above its first under[k + 1] spoof scores, so
    # those from under[k] up to under[k + 1] have k at or below them
    miss = np.empty(len(spf), dtype=np.intp)
    bon_below, bon_cllr = [], []
    for b0, b1, s0, s1 in zip(bon_starts.tolist(), bon_ends.tolist(),
                              spf_starts.tolist(), spf_ends.tolist()):
        under = np.concatenate(
            ([0], np.searchsorted(spf[s0:s1], bon[b0:b1]), [s1 - s0]))
        miss[s0:s1] = np.repeat(np.arange(b1 - b0 + 1), under[1:] - under[:-1])
        bon_below.append(np.searchsorted(bon[b0:b1], tau))
        bon_cllr.append(np.add.reduce(bon_bits[b0:b1]) / (b1 - b0))

    nb = bon_ends - bon_starts
    layouts = [(None, spf_ends, np.arange(len(bon_ends)))]
    if parts is not None:
        order, ends, block = parts
        layouts.append((order, np.asarray(ends, dtype=np.intp),
                        np.asarray(block, dtype=np.intp)))
    swept = []
    for rows, ends, block in layouts:
        for c0, c1, r0, r1 in _chunks(ends):
            take = slice(r0, r1) if rows is None else rows[r0:r1]
            swept.append(_sweep(spf[take], miss[take], ends[c0:c1] - r0,
                                nb[block[c0:c1]], w_miss, w_fa, tau))
    min_cost, fa_lo, fa_hi, top, miss_top, spf_below, ns = (
        np.concatenate(v) if len(v) > 1 else v[0] for v in zip(*swept))
    block = np.concatenate([block for _, _, block in layouts])
    nb, base = nb[block], bon_starts[block]

    # fa_lo counts the spoofs at or above top, fa_hi those above it.  At
    # fa_lo the crossing must miss need bonafide scores.  If the need-th
    # lies below top, the crossing is the cut above it and the cut before
    # it the one below it; else they are the cuts above and below top.
    # Either way the pair misses the bonafide scores below v, the lower of
    # the two, and those at or below v: the bounds of the run of bonafide
    # scores equal to v, or both miss_top when none is.
    need = -((-fa_lo * nb) // ns)
    lower = bon[base + need - 1] < top
    at = base + np.where(lower, need, np.maximum(miss_top, 1)) - 1
    on_bon = lower | (bon[at] == top)
    run_start, run_end = _run_of(_run_bounds(bon, bon_starts), at)
    miss_lo = np.where(on_bon, run_start - base, miss_top)
    miss_hi = np.where(on_bon, run_end - base, miss_top)
    fa_hi = np.where(lower, fa_lo, fa_hi)
    # ties go to the lower cut
    low = fa_lo * nb - miss_lo * ns <= miss_hi * ns - fa_hi * nb
    eer = 100.0 * (np.where(low, miss_lo, miss_hi) / nb
                   + np.where(low, fa_lo, fa_hi) / ns) / 2.0

    act = (w_miss * (np.array(bon_below)[block] / nb)
           + w_fa * ((ns - spf_below) / ns))
    scale = min(w_miss, w_fa)
    cllr = []
    with np.errstate(over="ignore"):
        for rows, ends, cells in layouts:
            bits = spf_bits if rows is None else spf_bits[rows]
            lo = 0
            for b, hi in zip(cells.tolist(), ends.tolist()):
                value = float(0.5 * (bon_cllr[b]
                                     + np.add.reduce(bits[lo:hi]) / (hi - lo)))
                if value == math.inf:
                    value = _cllr_overflow(
                        bon[bon_starts[b]:bon_ends[b]],
                        spf[lo:hi] if rows is None else spf[rows[lo:hi]])
                cllr.append(value)
                lo = hi
    return ((min_cost / scale).tolist(), (act / scale).tolist(), cllr,
            eer.tolist())


def _scored(s: ScoreSet, cfg: MetricConfig) -> tuple:
    """block_metrics of the set as one cell."""
    _require(len(s.bonafide), len(s.spoof))
    bon, spf = np.sort(s.bonafide), np.sort(s.spoof)
    values = block_metrics(bon, cllr_bits(bon, True), [len(bon)], spf,
                           cllr_bits(spf, False), [len(spf)], cfg=cfg)
    return tuple(v[0] for v in values)


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
