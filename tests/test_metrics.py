"""Metric correctness against independent brute-force oracles.

The oracles here are deliberately naive: all-pairs counting for AUROC,
confusion-matrix enumeration for detection F1, and threshold-by-threshold
recomputation for the coverage machinery. The fast implementations must agree
with them, not the other way round.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfcal.calibrators import ConfidenceLog
from selfcal.metrics import (
    accuracy_coverage_curve,
    auroc,
    auroc_risk,
    cascade_curve,
    coverage_at_risk,
    delta_conf,
    detection_f1,
    risk_coverage,
)


def brute_auroc(pos, neg) -> float:
    """All-pairs win rate, ties counted half. O(n^2), the oracle."""
    pos = np.asarray(pos, dtype=np.float64)[:, None]
    neg = np.asarray(neg, dtype=np.float64)[None, :]
    wins = (pos > neg).sum() + 0.5 * (pos == neg).sum()
    return float(wins / (pos.size * neg.size))


def brute_detection_f1(id_scores, adv_scores, threshold) -> float:
    """Per-sample confusion-matrix enumeration for both detection classes."""
    tp_adv = fp_adv = fn_adv = tp_id = fp_id = fn_id = 0
    for s in adv_scores:
        if s < threshold:
            tp_adv += 1
        else:
            fn_adv += 1
            fp_id += 1
    for s in id_scores:
        if s < threshold:
            fp_adv += 1
            fn_id += 1
        else:
            tp_id += 1

    def f1(tp, fp, fn):
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        return 2 * p * r / (p + r) if p + r else 0.0

    return (f1(tp_adv, fp_adv, fn_adv) + f1(tp_id, fp_id, fn_id)) / 2


def make_log(conf, correct):
    conf = np.asarray(conf, dtype=np.float64)
    correct = np.asarray(correct, dtype=np.int64)
    return ConfidenceLog(conf, correct, np.zeros(len(conf), dtype=np.int64),
                         tuple(["id"] * len(conf)))


# conf .9 correct, .6 wrong, .4 correct — the worked three-row log.
HAND_LOG = make_log([0.9, 0.6, 0.4], [1, 0, 1])


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0.9, 0.8], [0.1]) == 1.0

    def test_one_win_one_loss(self):
        # pairs: (.9 > .5) wins, (.3 < .5) loses -> 0.5
        assert auroc([0.9, 0.3], [0.5]) == 0.5

    def test_tie_convention(self):
        assert auroc([0.5], [0.5]) == 0.5

    def test_empty_side_errors(self):
        with pytest.raises(ValueError, match="AUROC"):
            auroc([], [0.5])
        with pytest.raises(ValueError, match="AUROC"):
            auroc([0.5], [])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n_pos = int(rng.integers(1, 400))
            n_neg = int(rng.integers(1, 400))
            # Quantized scores force plenty of ties.
            pos = np.round(rng.random(n_pos), 2)
            neg = np.round(rng.random(n_neg), 2)
            assert abs(auroc(pos, neg) - brute_auroc(pos, neg)) <= 1e-12

    def test_complement_identity_tie_free(self):
        rng = np.random.default_rng(1)
        scores = rng.permutation(np.linspace(0.0, 1.0, 60))
        pos, neg = scores[:25], scores[25:]
        assert auroc(pos, neg) + auroc(neg, pos) == pytest.approx(1.0, abs=1e-12)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(2)
        pos = rng.random(80)
        neg = rng.random(90)
        base = auroc(pos, neg)
        assert auroc(np.exp(pos), np.exp(neg)) == pytest.approx(base, abs=1e-12)
        assert auroc(3 * pos + 2, 3 * neg + 2) == pytest.approx(base, abs=1e-12)


class TestDeltaConf:
    def test_arithmetic(self):
        assert delta_conf([0.9, 0.7], [0.5, 0.3]) == pytest.approx(40.0, abs=1e-9)

    def test_identical_distributions(self):
        assert delta_conf([0.4, 0.6], [0.6, 0.4]) == pytest.approx(0.0, abs=1e-12)

    def test_extremes(self):
        assert delta_conf([1.0, 1.0], [0.0, 0.0]) == 100.0

    def test_antisymmetric(self):
        rng = np.random.default_rng(3)
        a, b = rng.random(50), rng.random(70)
        assert delta_conf(a, b) == pytest.approx(-delta_conf(b, a), abs=1e-9)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            delta_conf([], [0.5])


class TestRiskCoverage:
    def test_hand_log_enumeration(self):
        points = {t: (cov, risk) for t, cov, risk in risk_coverage(HAND_LOG)}
        # t=0 and t=.4 accept everything: coverage 1, risk 1/3.
        assert points[0.0] == (1.0, pytest.approx(1 / 3))
        assert points[0.4] == (1.0, pytest.approx(1 / 3))
        # t=.6 accepts {.9 correct, .6 wrong}: coverage 2/3, risk 1/2.
        assert points[0.6] == (pytest.approx(2 / 3), pytest.approx(0.5))
        # t=.9 accepts only the correct .9: risk 0.
        assert points[0.9] == (pytest.approx(1 / 3), 0.0)
        # t=1 accepts nothing -> omitted.
        assert 1.0 not in points

    def test_zero_threshold_is_overall_error_rate(self, base_model, synth_data):
        from selfcal.calibrators import Calibrator
        log = Calibrator("vanilla", base_model).build_log(synth_data.test, "id")
        t0 = risk_coverage(log)[0]
        assert t0[0] == 0.0 and t0[1] == 1.0
        assert t0[2] == pytest.approx(1.0 - log.correct.mean(), abs=1e-12)

    def test_coverage_non_increasing(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(2, 200))
            log = make_log(np.round(rng.random(n), 2), rng.integers(0, 2, n))
            covs = [c for _, c, _ in risk_coverage(log)]
            assert all(a >= b - 1e-12 for a, b in zip(covs, covs[1:]))

    def test_empty_log_errors(self):
        with pytest.raises(ValueError):
            risk_coverage(make_log([], []))


class TestAurocRisk:
    def test_perfect_separation_is_zero(self):
        log = make_log([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0])
        assert auroc_risk(log) == 0.0

    def test_anti_separation_is_one(self):
        log = make_log([0.1, 0.2, 0.9, 0.8], [1, 1, 0, 0])
        assert auroc_risk(log) == 1.0

    def test_hand_log(self):
        # correct scores [.9, .4] vs wrong [.6]: auroc 0.5 -> risk 0.5
        assert auroc_risk(HAND_LOG) == pytest.approx(0.5, abs=1e-12)

    def test_complement_of_auroc(self):
        rng = np.random.default_rng(5)
        conf = rng.random(200)
        correct = rng.integers(0, 2, 200)
        log = make_log(conf, correct)
        direct = auroc(conf[correct == 1], conf[correct == 0])
        assert auroc_risk(log) == pytest.approx(1.0 - direct, abs=1e-15)


class TestCoverageAtRisk:
    def test_easy_target_full_coverage(self):
        log = make_log([0.9, 0.8, 0.7], [1, 1, 0])
        assert coverage_at_risk(log, 0.5) == 1.0

    def test_unreachable_target_is_none(self):
        log = make_log([0.9, 0.8], [0, 0])
        assert coverage_at_risk(log, 0.9) is None

    def test_hand_log_exact_target(self):
        assert coverage_at_risk(HAND_LOG, 1.0) == pytest.approx(1 / 3)

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            coverage_at_risk(HAND_LOG, 0.0)

    def test_accuracy_curve_consistent(self):
        for (t1, c1, r1), (t2, c2, a2) in zip(risk_coverage(HAND_LOG),
                                              accuracy_coverage_curve(HAND_LOG)):
            assert t1 == t2 and c1 == c2
            assert a2 == pytest.approx(1.0 - r1, abs=1e-12)


class TestDetectionF1:
    def test_clean_separation(self):
        assert detection_f1([0.9, 0.9], [0.1, 0.1], 0.5) == 1.0

    def test_zero_threshold_flags_nothing(self):
        # Nothing flagged: adversarial class has no predictions -> F1 0 there.
        got = detection_f1([0.9], [0.1], 0.0)
        id_f1 = 2 * 1 / (2 * 1 + 1 + 0)  # tp=1 fp=1 fn=0
        assert got == pytest.approx((0.0 + id_f1) / 2, abs=1e-12)

    def test_mixed_case_matches_enumeration(self):
        # id=[.9,.4], adv=[.3,.6], threshold .5: one hit and one miss per side.
        got = detection_f1([0.9, 0.4], [0.3, 0.6], 0.5)
        oracle = brute_detection_f1([0.9, 0.4], [0.3, 0.6], 0.5)
        assert got == pytest.approx(oracle, abs=1e-12)
        assert oracle == pytest.approx(0.5, abs=1e-12)

    def test_matches_enumeration_randomly(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            id_scores = rng.random(int(rng.integers(1, 50)))
            adv_scores = rng.random(int(rng.integers(1, 50)))
            t = float(rng.random())
            assert detection_f1(id_scores, adv_scores, t) == pytest.approx(
                brute_detection_f1(id_scores, adv_scores, t), abs=1e-12)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            detection_f1([], [0.1], 0.5)


class TestCascadeCurve:
    def test_endpoints(self):
        small = make_log([0.9, 0.4, 0.7, 0.2], [1, 0, 1, 0])
        large_correct = np.array([1, 1, 0, 1])
        points, _ = cascade_curve(small, large_correct, thresholds=[0.0, 1.01])
        assert points[0] == (0.0, pytest.approx(small.correct.mean()))
        assert points[1] == (1.01, pytest.approx(large_correct.mean()))

    def test_identical_models_flat(self):
        small = make_log([0.9, 0.4, 0.7], [1, 0, 1])
        points, area = cascade_curve(small, small.correct.copy())
        expected = small.correct.mean()
        assert all(a == pytest.approx(expected, abs=1e-12) for _, a in points)
        assert area == pytest.approx(expected, abs=1e-12)

    def test_misaligned_inputs_error(self):
        small = make_log([0.9, 0.4], [1, 0])
        with pytest.raises(ValueError, match="misaligned"):
            cascade_curve(small, np.array([1, 0, 1]))

    def test_routing_rule(self):
        # At t=0.5 the low-confidence rows (conf < .5) switch to the large model.
        small = make_log([0.9, 0.4, 0.7, 0.2], [0, 0, 1, 0])
        large_correct = np.array([1, 1, 1, 1])
        points, _ = cascade_curve(small, large_correct, thresholds=[0.5])
        assert points[0][1] == pytest.approx(3 / 4)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

# Quantized scores: plenty of ties, and every transform below keeps them
# distinct and ordered in floating point.
SCORES = st.lists(st.integers(0, 40).map(lambda k: k / 8), min_size=1, max_size=60)
INCREASING = (np.exp, lambda x: 3 * x - 2, lambda x: x ** 3, lambda x: -1 / (1 + x))


@settings(max_examples=150, deadline=None)
@given(pos=SCORES, neg=SCORES)
def test_auroc_symmetry_property(pos, neg):
    assert auroc(pos, neg) + auroc(neg, pos) == pytest.approx(1.0, abs=1e-12)
    assert auroc(pos, neg) == pytest.approx(brute_auroc(pos, neg), abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(pos=SCORES, neg=SCORES, f=st.sampled_from(INCREASING))
def test_auroc_monotone_transform_property(pos, neg, f):
    pos, neg = np.array(pos), np.array(neg)
    base = auroc(pos, neg)
    assert auroc(f(pos), f(neg)) == base
    # A strictly decreasing transform swaps the sides.
    assert auroc(-f(pos), -f(neg)) == auroc(neg, pos)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 1.0), st.booleans()), min_size=1, max_size=60))
def test_risk_coverage_monotone_property(rows):
    log = make_log([c for c, _ in rows], [int(k) for _, k in rows])
    thresholds, covs, risks = zip(*risk_coverage(log))
    assert all(a < b for a, b in zip(thresholds, thresholds[1:]))
    assert all(a >= b for a, b in zip(covs, covs[1:]))
    conf = np.array([c for c, _ in rows])
    assert list(covs) == [(conf >= t).sum() / conf.size for t in thresholds]
    assert covs[0] == 1.0 and covs[-1] >= 1 / conf.size
    assert all(0.0 <= r <= 1.0 for r in risks)
