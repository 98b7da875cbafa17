"""Detection metric correctness against a brute-force oracle."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from launderbench.errors import EmptyClass, InvalidParameter, NonFiniteScore
from launderbench.metrics import (MetricConfig, ScoreSet, act_dcf,
                                  bayes_threshold, cllr, eer,
                                  gaussian_scores, min_dcf)

# --- reference implementation: plain-Python threshold sweep ---


def ref_thresholds(bon, spf):
    pooled = sorted(set(bon) | set(spf))
    taus = [float("-inf")]
    for lo, hi in zip(pooled, pooled[1:]):
        taus.append((lo + hi) / 2.0)
    taus.append(float("inf"))
    return taus


def ref_counts(bon, spf, tau):
    n_miss = sum(1 for b in bon if b < tau)
    n_fa = sum(1 for v in spf if v >= tau)
    return n_miss, n_fa


def ref_eer(bon, spf):
    nb, ns = len(bon), len(spf)
    best_gap = None
    best = None
    for tau in ref_thresholds(bon, spf):
        n_miss, n_fa = ref_counts(bon, spf, tau)
        gap = abs(n_miss * ns - n_fa * nb)
        if best_gap is None or gap < best_gap:
            best_gap = gap
            best = (n_miss / nb, n_fa / ns)
    return 100.0 * (best[0] + best[1]) / 2.0


def ref_min_dcf(bon, spf, cfg):
    nb, ns = len(bon), len(spf)
    w_miss = cfg.c_miss * (1.0 - cfg.pi_spoof)
    w_fa = cfg.c_fa * cfg.pi_spoof
    best = None
    for tau in ref_thresholds(bon, spf):
        n_miss, n_fa = ref_counts(bon, spf, tau)
        cost = w_miss * (n_miss / nb) + w_fa * (n_fa / ns)
        if best is None or cost < best:
            best = cost
    return best / min(w_miss, w_fa)


def ref_act_dcf(bon, spf, cfg):
    tau = math.log(
        (cfg.c_fa * cfg.pi_spoof) / (cfg.c_miss * (1.0 - cfg.pi_spoof)))
    n_miss, n_fa = ref_counts(bon, spf, tau)
    w_miss = cfg.c_miss * (1.0 - cfg.pi_spoof)
    w_fa = cfg.c_fa * cfg.pi_spoof
    return (w_miss * (n_miss / len(bon))
            + w_fa * (n_fa / len(spf))) / min(w_miss, w_fa)


def random_score_sets(count, seed=0):
    """Random sets with deliberate ties and shared values across classes."""
    rng = np.random.Generator(np.random.PCG64(seed))
    for _ in range(count):
        nb = int(rng.integers(1, 51))
        ns = int(rng.integers(1, 51))
        pool = np.round(rng.normal(0.0, 2.0, 12), 1)
        bon = rng.choice(pool, nb).tolist()
        spf = rng.choice(pool, ns).tolist()
        yield bon, spf


class TestMetricConfig:
    def test_defaults(self):
        cfg = MetricConfig()
        assert (cfg.c_miss, cfg.c_fa, cfg.pi_spoof) == (1.0, 10.0, 0.05)

    @pytest.mark.parametrize("kw", [dict(c_miss=-1.0), dict(c_fa=-0.5),
                                    dict(pi_spoof=0.0), dict(pi_spoof=1.0),
                                    dict(pi_spoof=-0.2), dict(c_miss=0.0),
                                    dict(c_fa=0.0), dict(c_miss=math.nan),
                                    dict(c_miss=math.inf), dict(c_fa=math.nan),
                                    dict(c_fa=math.inf)])
    def test_invalid(self, kw):
        with pytest.raises(InvalidParameter):
            MetricConfig(**kw)


class TestScoreSet:
    def test_coercion(self):
        s = ScoreSet([1, 2], (0.5,))
        assert s.bonafide.dtype == np.float64
        assert s.spoof.tolist() == [0.5]

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteScore):
            ScoreSet([1.0, np.nan], [0.0])
        with pytest.raises(NonFiniteScore):
            ScoreSet([1.0], [np.inf])

    def test_two_dimensional_rejected(self):
        with pytest.raises(InvalidParameter):
            ScoreSet([[1.0, 2.0]], [0.0])

    def test_empty_class_rejected_by_metrics(self):
        s = ScoreSet([], [1.0])
        for fn in (eer, cllr):
            with pytest.raises(EmptyClass):
                fn(s)
        with pytest.raises(EmptyClass):
            min_dcf(s, MetricConfig())
        with pytest.raises(EmptyClass):
            act_dcf(s, MetricConfig())


class TestEer:
    def test_perfect_separation(self):
        assert eer(ScoreSet([2.0, 3.0], [0.0, 1.0])) == 0.0

    def test_fully_inverted(self):
        assert eer(ScoreSet([0.0, 1.0], [2.0, 3.0])) == 100.0

    def test_rational_tie_breaks_to_smaller_threshold(self):
        # gaps |1/3-1/2| and |2/3-1/2| tie exactly in rationals; float
        # rounding alone would favor the larger threshold (58.333)
        value = eer(ScoreSet([1.0, 2.0, 4.0], [0.0, 3.0]))
        assert value == 100.0 * (1 / 3 + 1 / 2) / 2.0
        assert value == pytest.approx(41.667, abs=5e-4)

    def test_oracle_equality(self):
        for bon, spf in random_score_sets(300, seed=1):
            assert eer(ScoreSet(bon, spf)) == ref_eer(bon, spf)

    def test_bounds(self):
        for bon, spf in random_score_sets(100, seed=2):
            assert 0.0 <= eer(ScoreSet(bon, spf)) <= 100.0

    def test_monotone_transform_invariance(self):
        for bon, spf in random_score_sets(40, seed=3):
            base = eer(ScoreSet(bon, spf))
            warped = eer(ScoreSet(np.exp(bon), np.exp(spf)))
            assert warped == base

    def test_permutation_invariance(self):
        rng = np.random.Generator(np.random.PCG64(5))
        bon, spf = [1.0, 2.0, 4.0, 2.0], [0.0, 3.0, 0.5]
        base = eer(ScoreSet(bon, spf))
        assert eer(ScoreSet(rng.permutation(bon),
                            rng.permutation(spf))) == base


# perfectly separated pairs whose float midpoint rounds onto the lower
# score or overflows to infinity
EDGE_PAIRS = [(math.nextafter(1.0, 2.0), 1.0), (1.7e308, 1e308),
              (-1e308, -1.7e308)]


@pytest.mark.parametrize("bon, spf", EDGE_PAIRS)
def test_separated_edge_pairs(bon, spf):
    s = ScoreSet([bon], [spf])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert eer(s) == 0.0
        assert min_dcf(s) == 0.0


class TestMinDcf:
    def test_perfect_separation(self):
        assert min_dcf(ScoreSet([2.0, 3.0], [0.0, 1.0])) == 0.0

    def test_worked_example(self):
        # min cost 0.25 sits between scores 0 and 1; normalizer 0.5
        assert min_dcf(ScoreSet([1.0, 2.0, 4.0], [0.0, 3.0])) == 0.5

    def test_oracle_equality(self):
        cfgs = [MetricConfig(), MetricConfig(1.0, 1.0, 0.5),
                MetricConfig(5.0, 2.0, 0.2)]
        for i, (bon, spf) in enumerate(random_score_sets(150, seed=4)):
            cfg = cfgs[i % len(cfgs)]
            assert min_dcf(ScoreSet(bon, spf), cfg) == ref_min_dcf(
                bon, spf, cfg)

    def test_bounded_by_one(self):
        for bon, spf in random_score_sets(100, seed=6):
            assert 0.0 <= min_dcf(ScoreSet(bon, spf)) <= 1.0

    def test_monotone_transform_invariance(self):
        for bon, spf in random_score_sets(40, seed=9):
            s = ScoreSet(bon, spf)
            warped = ScoreSet(np.exp(bon), np.exp(spf))
            assert min_dcf(warped) == min_dcf(s)


class TestBayesThreshold:
    def test_symmetric_operating_point(self):
        assert bayes_threshold(MetricConfig(1.0, 1.0, 0.5)) == 0.0

    def test_default_value(self):
        assert bayes_threshold(MetricConfig()) == pytest.approx(
            math.log(0.5 / 0.95), abs=1e-12)
        assert bayes_threshold(MetricConfig()) == pytest.approx(
            -0.64185, abs=1e-5)

    def test_increasing_in_prior(self):
        taus = [bayes_threshold(MetricConfig(pi_spoof=p))
                for p in (0.05, 0.2, 0.5, 0.8)]
        assert taus == sorted(taus)
        assert len(set(taus)) == len(taus)


class TestActDcf:
    def test_worked_example(self):
        # both spoof scores clear the default Bayes threshold: p_fa = 1
        assert act_dcf(ScoreSet([1.0, 2.0, 4.0], [0.0, 3.0])) == 1.0

    def test_calibrated_separable(self):
        assert act_dcf(ScoreSet([5.0, 6.0], [-7.0, -8.0])) == 0.0

    @pytest.mark.parametrize("bon, spf, expected", [
        ([0.0], [0.0], 1.0), ([0.0], [-1.0], 0.0), ([1.0], [0.0], 1.0)])
    def test_tie_at_threshold(self, bon, spf, expected):
        # a score equal to the threshold is accepted: a bonafide one is
        # no miss, a spoof one is a false accept
        cfg = MetricConfig(1.0, 1.0, 0.5)
        assert bayes_threshold(cfg) == 0.0
        assert act_dcf(ScoreSet(bon, spf), cfg) == expected

    def test_oracle_equality(self):
        cfgs = [MetricConfig(), MetricConfig(2.0, 1.0, 0.3)]
        for i, (bon, spf) in enumerate(random_score_sets(150, seed=10)):
            cfg = cfgs[i % len(cfgs)]
            assert act_dcf(ScoreSet(bon, spf), cfg) == ref_act_dcf(
                bon, spf, cfg)

    def test_dominates_min_dcf(self):
        for bon, spf in random_score_sets(150, seed=11):
            s = ScoreSet(bon, spf)
            assert act_dcf(s) >= min_dcf(s)


class TestCllr:
    @pytest.mark.parametrize("nb,ns", [(1, 1), (3, 2), (25, 25), (100, 7)])
    def test_all_zero_scores_exactly_one(self, nb, ns):
        assert cllr(ScoreSet(np.zeros(nb), np.zeros(ns))) == 1.0

    def test_well_calibrated(self):
        expected = math.log2(1.0 + math.exp(-10.0))
        assert cllr(ScoreSet([10.0], [-10.0])) == pytest.approx(
            expected, abs=1e-12)
        assert cllr(ScoreSet([10.0], [-10.0])) == pytest.approx(
            6.55e-5, abs=1e-6)

    def test_inverted_llrs(self):
        expected = math.log2(1.0 + math.exp(10.0))
        assert cllr(ScoreSet([-10.0], [10.0])) == pytest.approx(
            expected, rel=1e-12)
        assert cllr(ScoreSet([-10.0], [10.0])) == pytest.approx(
            14.43, abs=0.01)

    def test_overflow_safe(self):
        value = cllr(ScoreSet([-1000.0], [1000.0]))
        assert math.isfinite(value)
        assert value == pytest.approx(1000.0 / math.log(2.0), rel=1e-9)
        assert cllr(ScoreSet([1000.0], [-1000.0])) >= 0.0

    def test_terms_near_the_largest_double_stay_finite(self):
        # two spoof terms of 1e308 / ln 2 bits overflow their plain sum,
        # but not their mean; no overflow warning may escape
        bon_bits = math.log1p(math.exp(-1.0)) / math.log(2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = cllr(ScoreSet([1.0], [1e308, 1e308]))
            assert value == pytest.approx(
                0.5 * (bon_bits + 1e308 / math.log(2.0)), rel=1e-12)
            # past the largest double the average itself overflows
            assert cllr(ScoreSet([-1.7e308], [1.7e308])) == math.inf

    def test_nonnegative(self):
        for bon, spf in random_score_sets(100, seed=12):
            assert cllr(ScoreSet(bon, spf)) >= 0.0

    def test_mean_over_classes(self):
        # per-class averaging: duplicating the spoof list changes nothing
        a = cllr(ScoreSet([0.5, 1.0], [-0.25]))
        b = cllr(ScoreSet([0.5, 1.0], [-0.25, -0.25]))
        assert a == b


class TestGaussianScores:
    def test_shapes_and_determinism(self):
        a = gaussian_scores(10, 20, 1.0, -1.0, 1.0, seed=42)
        b = gaussian_scores(10, 20, 1.0, -1.0, 1.0, seed=42)
        c = gaussian_scores(10, 20, 1.0, -1.0, 1.0, seed=43)
        assert len(a.bonafide) == 10 and len(a.spoof) == 20
        assert np.array_equal(a.bonafide, b.bonafide)
        assert np.array_equal(a.spoof, b.spoof)
        assert not np.array_equal(a.bonafide, c.bonafide)

    @pytest.mark.parametrize("kw", [dict(n_bon=0), dict(n_spf=-1),
                                    dict(sigma=0.0), dict(sigma=-1.0)])
    def test_invalid(self, kw):
        base = dict(n_bon=5, n_spf=5, mu_bon=1.0, mu_spf=-1.0, sigma=1.0,
                    seed=0)
        base.update(kw)
        with pytest.raises(InvalidParameter):
            gaussian_scores(**base)

    def test_empirical_eer_near_analytic(self):
        s = gaussian_scores(100_000, 100_000, 1.0, -1.0, 1.0, seed=2024)
        # analytic EER = 100*Phi(-1) = 15.866%
        assert eer(s) == pytest.approx(15.866, abs=0.5)

    def test_class_means(self):
        s = gaussian_scores(50_000, 50_000, 2.0, -3.0, 0.5, seed=7)
        assert s.bonafide.mean() == pytest.approx(2.0, abs=0.02)
        assert s.spoof.mean() == pytest.approx(-3.0, abs=0.02)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=1, max_size=20),
       st.lists(st.integers(-6, 6), min_size=1, max_size=20))
def test_sweep_metrics_match_reference(bon_i, spf_i):
    bon = [v / 2.0 for v in bon_i]
    spf = [v / 2.0 for v in spf_i]
    s = ScoreSet(bon, spf)
    assert eer(s) == ref_eer(bon, spf)
    # the second config's Bayes threshold, 0.0, lies on the score grid
    for cfg in (MetricConfig(), MetricConfig(1.0, 1.0, 0.5)):
        assert min_dcf(s, cfg) == ref_min_dcf(bon, spf, cfg)
        assert act_dcf(s, cfg) == ref_act_dcf(bon, spf, cfg)
