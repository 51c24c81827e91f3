import numpy as np
import pytest

from kernelkl import (
    AuditTable,
    InvalidInputError,
    audit,
    demographic_parity,
    equality_of_odds,
    equality_of_opportunity,
    estimator,
    fairness,
)
from kernelkl.estimator import EstimatorConfig
from kernelkl.optimize import OptimizerConfig


def fast_cfg():
    return EstimatorConfig(optimizer=OptimizerConfig(max_iter=300))


def independent_table(n=4000, seed=0, with_labels=False):
    rng = np.random.default_rng(seed)
    pred = rng.normal(size=n)
    attr = rng.integers(0, 2, size=n).astype(float)
    labels = rng.integers(0, 2, size=n) if with_labels else None
    return AuditTable(predictions=pred, attribute=attr, labels=labels)


def dependent_table(n=4000, seed=0):
    # prediction literally equals the binary attribute: I = H(A) = log 2
    rng = np.random.default_rng(seed)
    attr = rng.integers(0, 2, size=n).astype(float)
    return AuditTable(predictions=attr.copy(), attribute=attr)


class TestAuditTable:
    def test_length(self):
        assert len(independent_table(100)) == 100

    def test_mismatched_lengths(self):
        with pytest.raises(InvalidInputError):
            AuditTable(predictions=np.zeros(5), attribute=np.zeros(4))

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            AuditTable(predictions=np.array([np.nan, 0.0]), attribute=np.zeros(2))

    def test_labels_length_checked(self):
        with pytest.raises(InvalidInputError):
            AuditTable(predictions=np.zeros(5), attribute=np.zeros(5), labels=np.zeros(4))

    def test_two_dimensional_rejected(self):
        with pytest.raises(InvalidInputError):
            AuditTable(predictions=np.zeros((5, 1)), attribute=np.zeros((5, 1)))


class TestDemographicParity:
    def test_independent_near_zero(self):
        mi = demographic_parity(independent_table(seed=1), fast_cfg(), seed=1)
        assert mi <= 0.03

    def test_identical_columns_near_log_two(self):
        mi = demographic_parity(dependent_table(seed=2), fast_cfg(), seed=2)
        assert mi == pytest.approx(np.log(2.0), abs=0.05)

    def test_nonnegative(self):
        mi = demographic_parity(independent_table(seed=3), fast_cfg(), seed=3)
        assert mi >= 0.0

    def test_constant_prediction_degenerate_zero(self):
        table = AuditTable(predictions=np.zeros(100), attribute=np.random.default_rng(4).normal(size=100))
        assert demographic_parity(table, fast_cfg()) == 0.0

    def test_deterministic(self):
        table = independent_table(500, seed=5)
        a = demographic_parity(table, fast_cfg(), seed=9)
        b = demographic_parity(table, fast_cfg(), seed=9)
        assert a == b

    def test_too_few_rows(self):
        with pytest.raises(InvalidInputError):
            demographic_parity(AuditTable(predictions=np.arange(3.0), attribute=np.arange(3.0)))


class TestEqualityOfOdds:
    def test_requires_labels(self):
        with pytest.raises(InvalidInputError):
            equality_of_odds(independent_table(100), fast_cfg())

    def test_every_class_too_small(self):
        # four classes of three rows, each below the 4-row minimum
        rng = np.random.default_rng(5)
        table = AuditTable(predictions=rng.normal(size=12), attribute=rng.normal(size=12), labels=np.arange(12) % 4)
        with pytest.raises(InvalidInputError, match="every label class"):
            equality_of_odds(table, fast_cfg())

    def test_independent_near_zero(self):
        table = independent_table(4000, seed=6, with_labels=True)
        assert equality_of_odds(table, fast_cfg(), seed=6) <= 0.03

    def test_dependent_within_classes(self):
        # prediction equals attribute inside each class: conditional MI near log 2
        rng = np.random.default_rng(7)
        attr = rng.integers(0, 2, size=4000).astype(float)
        labels = rng.integers(0, 2, size=4000)
        table = AuditTable(predictions=attr.copy(), attribute=attr, labels=labels)
        assert equality_of_odds(table, fast_cfg(), seed=7) == pytest.approx(np.log(2.0), abs=0.06)

    def test_decomposition_matches_weighted_sum(self):
        # the aggregate equals the class-frequency-weighted sum of per-class
        # opportunity values exactly, because both use the same per-class seeds
        rng = np.random.default_rng(8)
        n = 2000
        pred = rng.normal(size=n)
        attr = rng.normal(size=n)
        labels = rng.integers(0, 3, size=n)
        table = AuditTable(predictions=pred, attribute=attr, labels=labels)
        cfg = fast_cfg()
        eo = equality_of_odds(table, cfg, seed=8)
        weighted = 0.0
        for cls in np.unique(labels):
            w = np.mean(labels == cls)
            weighted += w * equality_of_opportunity(table, cls, cfg, seed=8)
        assert eo == pytest.approx(weighted, abs=1e-12)

    def test_small_class_skipped(self):
        rng = np.random.default_rng(9)
        n = 200
        pred = rng.normal(size=n)
        attr = rng.normal(size=n)
        labels = np.zeros(n, dtype=int)
        labels[:2] = 1  # below the 4-row minimum: skipped, not fatal
        table = AuditTable(predictions=pred, attribute=attr, labels=labels)
        report = audit(table, fast_cfg(), seed=9)
        assert report.skipped_classes == (1,)
        assert 1 not in report.per_class_detail


class TestEqualityOfOpportunity:
    def test_missing_class(self):
        table = independent_table(100, seed=10, with_labels=True)
        with pytest.raises(InvalidInputError):
            equality_of_opportunity(table, 5, fast_cfg())

    def test_requires_labels(self):
        with pytest.raises(InvalidInputError):
            equality_of_opportunity(independent_table(100), 1, fast_cfg())

    def test_independent_near_zero(self):
        table = independent_table(4000, seed=11, with_labels=True)
        assert equality_of_opportunity(table, 1, fast_cfg(), seed=11) <= 0.03

    def test_tiny_class_rejected(self):
        rng = np.random.default_rng(12)
        labels = np.zeros(100, dtype=int)
        labels[0] = 1
        table = AuditTable(predictions=rng.normal(size=100), attribute=rng.normal(size=100), labels=labels)
        with pytest.raises(InvalidInputError):
            equality_of_opportunity(table, 1, fast_cfg())


class TestAudit:
    def test_without_labels_only_parity(self):
        report = audit(independent_table(500, seed=13), fast_cfg(), seed=13)
        assert report.equality_of_odds_mi is None
        assert report.equality_of_opportunity_mi is None
        assert report.demographic_parity_mi >= 0

    def test_with_labels_and_positive_class(self):
        table = independent_table(1000, seed=14, with_labels=True)
        report = audit(table, fast_cfg(), seed=14, positive_class=1)
        assert report.equality_of_odds_mi is not None
        assert report.equality_of_opportunity_mi is not None
        assert set(report.per_class_detail) == {0, 1}
        weights = [w for w, _ in report.per_class_detail.values()]
        assert sum(weights) == pytest.approx(1.0)

    def test_positive_class_without_labels_refused_before_any_estimate(self, monkeypatch):
        def no_estimate(*args, **kwargs):
            raise AssertionError("estimate_mi ran before the refusal")

        monkeypatch.setattr(fairness, "estimate_mi", no_estimate)
        with pytest.raises(InvalidInputError, match="equality of opportunity requires a label column"):
            audit(independent_table(500, seed=13), fast_cfg(), seed=13, positive_class=1)

    @pytest.fixture()
    def estimate_calls(self, monkeypatch):
        calls = []
        estimate_mi = fairness.estimate_mi

        def counted(*args, **kwargs):
            calls.append(args)
            return estimate_mi(*args, **kwargs)

        monkeypatch.setattr(fairness, "estimate_mi", counted)
        return calls

    @pytest.mark.parametrize("positive_class,message", [(7, "not present"), (2, "fewer than")])
    def test_bad_positive_class_refused_before_any_estimate(self, estimate_calls, positive_class, message):
        table = independent_table(10_000, seed=13, with_labels=True)
        labels = table.labels.copy()
        labels[:3] = 2
        table = AuditTable(predictions=table.predictions, attribute=table.attribute, labels=labels)
        with pytest.raises(InvalidInputError, match=message):
            audit(table, fast_cfg(), seed=13, positive_class=positive_class)
        assert estimate_calls == []

    def test_valid_audit_makes_four_estimates(self, estimate_calls):
        # parity, one per class, and the positive class once more
        audit(independent_table(400, seed=13, with_labels=True), fast_cfg(), seed=13, positive_class=1)
        assert len(estimate_calls) == 4

    @pytest.mark.parametrize("metric", [
        lambda table, cfg, **seed: audit(table, cfg, positive_class=1, **seed),
        lambda table, cfg, **seed: demographic_parity(table, cfg, **seed),
        lambda table, cfg, **seed: equality_of_odds(table, cfg, **seed),
        lambda table, cfg, **seed: equality_of_opportunity(table, 1, cfg, **seed),
    ], ids=["audit", "demographic_parity", "equality_of_odds", "equality_of_opportunity"])
    def test_seed_defaults_to_the_config_seed(self, metric):
        table = independent_table(400, seed=17, with_labels=True)
        cfg = EstimatorConfig(optimizer=OptimizerConfig(max_iter=100))
        seeded = EstimatorConfig(optimizer=OptimizerConfig(max_iter=100, seed=5))
        assert metric(table, seeded) == metric(table, cfg, seed=5)
        assert metric(table, cfg) == metric(table, cfg, seed=0)

    def test_deterministic(self):
        table = independent_table(600, seed=15, with_labels=True)
        r1 = audit(table, fast_cfg(), seed=4, positive_class=0)
        r2 = audit(table, fast_cfg(), seed=4, positive_class=0)
        assert r1 == r2


def plug_in_mi(a, b):
    """Mutual information in nats of the empirical joint table of two 0/1 columns."""
    joint = np.histogram2d(a, b, bins=2, range=[[-0.5, 1.5], [-0.5, 1.5]])[0] / a.size
    outer = joint.sum(axis=1, keepdims=True) * joint.sum(axis=0, keepdims=True)
    cells = joint > 0
    return float(np.sum(joint[cells] * np.log(joint[cells] / outer[cells])))


class TestImbalancedColumns:
    @pytest.mark.parametrize("minority_share", [0.05, 0.2, 0.5])
    @pytest.mark.parametrize("positive_rate", [0.05, 0.1, 0.3])
    def test_parity_matches_plug_in_mi(self, positive_rate, minority_share):
        # binary columns where most pooled pairs share a cell; the minority
        # group is predicted positive at 1.5x the rate of the majority
        rng = np.random.default_rng(16)
        n = 2000
        attr = (rng.random(n) < minority_share).astype(float)
        pred = (rng.random(n) < positive_rate * np.where(attr == 1, 1.5, 1.0)).astype(float)
        mi = demographic_parity(AuditTable(predictions=pred, attribute=attr), fast_cfg(), seed=16)
        assert np.isfinite(mi) and mi >= 0.0
        assert mi == pytest.approx(plug_in_mi(pred, attr), abs=0.02)

    def test_parity_on_a_wide_attribute_code(self):
        # 10% positive predictions and 10% of rows with attribute 1000: more
        # than half the pooled pairs coincide, and the bandwidth comes from the
        # pairs of distinct rows, not a unit fallback too small for the codes
        rng = np.random.default_rng(18)
        n = 5000
        pred = (rng.random(n) < 0.1).astype(float)
        attr = np.where(rng.random(n) < 0.1, 1000.0, 0.0)
        mi = demographic_parity(AuditTable(predictions=pred, attribute=attr), fast_cfg(), seed=0)
        assert np.isfinite(mi) and mi >= 0.0
        assert mi == pytest.approx(plug_in_mi(pred, attr / 1000), abs=0.02)


class TestLargeCategoricalAudit:
    def test_every_estimate_is_a_certified_newton_optimum(self, monkeypatch):
        # 100k rows, 3 groups, labels 60/40: each estimate's Q sample has at
        # most 6 distinct rows, so each is solved by Newton to its gap
        rng = np.random.default_rng(5)
        n = 100_000
        labels = (rng.random(n) < 0.4).astype(int)
        attr = rng.choice(3, size=n, p=[0.5, 0.3, 0.2])
        pred = rng.random(n) < np.array([[0.2, 0.35, 0.5], [0.55, 0.7, 0.9]])[labels, attr]
        table = AuditTable(predictions=pred.astype(float), attribute=attr.astype(float), labels=labels)
        traces = []
        for name in ("run_newton", "run_primal"):
            def spy(*args, solver=getattr(estimator, name), name=name):
                beta, trace = solver(*args)
                traces.append((name, trace))
                return beta, trace

            monkeypatch.setattr(estimator, name, spy)
        report = audit(table, seed=0, positive_class=1)
        assert [name for name, _ in traces] == ["run_newton"] * 4
        assert all(t.converged and t.gap <= OptimizerConfig().gamma for _, t in traces)
        # the generator's MI: parity 0.0313 nats, odds 0.0373
        assert report.demographic_parity_mi == pytest.approx(0.0313, abs=0.005)
        assert report.equality_of_odds_mi == pytest.approx(0.0373, abs=0.005)
