"""Metric suite vs brute-force oracles: worked examples, exhaustive small
cases, randomized agreement, and invariances."""

import itertools
import math
import signal
import struct
from contextlib import contextmanager

import numpy as np
import pytest

from ecglearn.dataio import TaskKind
from ecglearn.errors import DataError, EcglearnError
from ecglearn.learn import auc_score, average_precision, compute_metrics
from oracles import oracle_ap, oracle_auc, oracle_auc_tie_loop, oracle_report

BINARIZED = ("accuracy", "f1", "sensitivity", "specificity", "ppv", "gmean")


def all_binary_matrices(n, k):
    for bits in itertools.product((0, 1), repeat=n * k):
        yield np.array(bits, dtype=np.float64).reshape(n, k)


class TestWorkedExamples:
    def test_ap_ranked_list(self):
        # relevance [1,0,1,1,0,0] in ranked order: AP = (1 + 2/3 + 3/4)/3
        scores = np.array([6.0, 5.0, 4.0, 3.0, 2.0, 1.0])
        targets = np.array([1, 0, 1, 1, 0, 0])
        expected = (1.0 + 2.0 / 3.0 + 3.0 / 4.0) / 3.0
        assert abs(average_precision(scores, targets) - expected) < 1e-12
        assert abs(expected - 0.8056) < 1e-4
        assert abs(oracle_ap(scores.tolist(), targets.tolist()) - expected) < 1e-12

    def test_gmean_from_sens_spec(self):
        # sens 0.8 (4/5 positives hit), spec 0.9 (9/10 negatives correct)
        targets = np.array([1] * 5 + [0] * 10)[:, None]
        pred = np.array([1] * 4 + [0] + [0] * 9 + [1])[:, None]
        report = compute_metrics(pred.astype(float), targets, TaskKind.BINARY)
        assert abs(report.sensitivity - 0.8) < 1e-12
        assert abs(report.specificity - 0.9) < 1e-12
        assert abs(report.gmean - math.sqrt(0.72)) < 1e-12
        assert abs(report.gmean - 0.8485) < 1e-4

    def test_perfect_predictions_all_ones(self):
        rng = np.random.default_rng(0)
        targets = (rng.random((20, 3)) < 0.5).astype(np.int8)
        targets[0] = [1, 1, 1]
        targets[1] = [0, 0, 0]
        report = compute_metrics(targets.astype(np.float64), targets,
                                 TaskKind.MULTILABEL)
        for m in BINARIZED + ("map", "auc"):
            assert getattr(report, m) == pytest.approx(1.0, abs=1e-12), m

    def test_gmean_identity_per_class(self):
        rng = np.random.default_rng(1)
        scores = rng.random((30, 4))
        targets = (rng.random((30, 4)) < 0.4).astype(np.int8)
        report = compute_metrics(scores, targets, TaskKind.MULTILABEL)
        for stats in report.per_class.values():
            assert abs(stats["gmean"] ** 2
                       - stats["sensitivity"] * stats["specificity"]) < 1e-12


class TestExhaustiveSmall:
    """Exhaustive agreement with the oracle on small binary matrices.

    Metrics decompose per class (macro averaging), so column-level
    exhaustiveness at n <= 4 plus full-matrix exhaustiveness at n*k <= 6
    covers every distinguishable behavior; bigger shapes are sampled in
    TestRandomizedAgreement.
    """

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_single_column_exhaustive(self, n):
        for score_bits in itertools.product((0.0, 1.0), repeat=n):
            for tgt_bits in itertools.product((0, 1), repeat=n):
                scores = np.array(score_bits)[:, None]
                targets = np.array(tgt_bits, dtype=np.int8)[:, None]
                report = compute_metrics(scores, targets, TaskKind.MULTILABEL)
                expect = oracle_report(scores.tolist(), targets.tolist())
                for m in BINARIZED:
                    assert getattr(report, m) == expect[m], (m, score_bits, tgt_bits)
                for m in ("map", "auc"):
                    got, want = getattr(report, m), expect[m]
                    if math.isnan(want):
                        assert math.isnan(got)
                    else:
                        assert abs(got - want) < 1e-12

    @pytest.mark.parametrize("shape", [(1, 2), (2, 2), (1, 3), (2, 3), (3, 2)])
    def test_full_matrix_exhaustive(self, shape):
        n, k = shape
        for scores in all_binary_matrices(n, k):
            for targets in all_binary_matrices(n, k):
                report = compute_metrics(scores, targets.astype(np.int8),
                                         TaskKind.MULTILABEL)
                expect = oracle_report(scores.tolist(),
                                       targets.astype(int).tolist())
                for m in BINARIZED:
                    assert getattr(report, m) == expect[m]
                for m in ("map", "auc"):
                    got, want = getattr(report, m), expect[m]
                    if math.isnan(want):
                        assert math.isnan(got)
                    else:
                        assert abs(got - want) < 1e-12


class TestRandomizedAgreement:
    def test_thousand_random_score_matrices(self):
        rng = np.random.default_rng(7)
        for trial in range(1000):
            n = int(rng.integers(2, 33))
            k = int(rng.integers(1, 6))
            scores = rng.normal(size=(n, k))
            targets = (rng.random((n, k)) < rng.uniform(0.15, 0.85)).astype(np.int8)
            report = compute_metrics(scores, targets, TaskKind.MULTILABEL,
                                     threshold=0.0)
            expect = oracle_report(scores.tolist(), targets.tolist(),
                                   threshold=0.0)
            for m in BINARIZED:
                assert getattr(report, m) == expect[m], (m, trial)
            for m in ("map", "auc"):
                got, want = getattr(report, m), expect[m]
                if math.isnan(want):
                    assert math.isnan(got)
                else:
                    assert abs(got - want) < 1e-12, (m, trial)

    def test_multiclass_argmax_path(self):
        rng = np.random.default_rng(8)
        for trial in range(200):
            n, k = int(rng.integers(3, 20)), int(rng.integers(2, 5))
            z = rng.normal(size=(n, k))
            e = np.exp(z - z.max(axis=1, keepdims=True))
            scores = e / e.sum(axis=1, keepdims=True)
            targets = np.zeros((n, k), dtype=np.int8)
            targets[np.arange(n), rng.integers(0, k, size=n)] = 1
            report = compute_metrics(scores, targets, TaskKind.MULTICLASS)
            expect = oracle_report(scores.tolist(), targets.tolist(),
                                   kind="multiclass")
            for m in BINARIZED:
                assert getattr(report, m) == expect[m], (m, trial)
            for m in ("map", "auc"):
                got, want = getattr(report, m), expect[m]
                if math.isnan(want):
                    assert math.isnan(got)
                else:
                    assert abs(got - want) < 1e-12

    def test_ties_handled_identically(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            n = int(rng.integers(3, 15))
            scores = rng.integers(0, 3, size=n).astype(np.float64)  # many ties
            targets = (rng.random(n) < 0.5).astype(np.int8)
            got_auc = auc_score(scores, targets)
            want_auc = oracle_auc(scores.tolist(), targets.tolist())
            if want_auc is None:
                assert got_auc is None
            else:
                assert abs(got_auc - want_auc) < 1e-12
            got_ap = average_precision(scores, targets)
            want_ap = oracle_ap(scores.tolist(), targets.tolist())
            if want_ap is None:
                assert got_ap is None
            else:
                assert abs(got_ap - want_ap) < 1e-12


class TestInvariances:
    def test_ranking_metrics_monotone_invariant(self):
        rng = np.random.default_rng(10)
        scores = rng.normal(size=40)
        targets = (rng.random(40) < 0.4).astype(np.int8)
        for transform in (np.exp, lambda s: 2 * s + 1, np.tanh):
            assert abs(average_precision(scores, targets)
                       - average_precision(transform(scores), targets)) < 1e-12
            assert abs(auc_score(scores, targets)
                       - auc_score(transform(scores), targets)) < 1e-12

    def test_binarized_invariant_under_threshold_preserving_transform(self):
        rng = np.random.default_rng(11)
        scores = rng.random((25, 3))
        targets = (rng.random((25, 3)) < 0.5).astype(np.int8)
        warped = 0.5 + (scores - 0.5) ** 3  # monotone, fixes 0.5
        a = compute_metrics(scores, targets, TaskKind.MULTILABEL)
        b = compute_metrics(warped, targets, TaskKind.MULTILABEL)
        for m in BINARIZED:
            assert getattr(a, m) == getattr(b, m)


# scores with a non-finite entry: (scores, targets), one class
NON_FINITE_SCORES = {
    "nan-first": ([math.nan, 0.5], [1, 0]),
    "nan-tied": ([0.5, math.nan, 0.5, math.nan], [1, 0, 0, 1]),
    "all-nan": ([math.nan] * 3, [1, 0, 1]),
    "pos-inf": ([math.inf, 0.2, math.inf, 0.1], [1, 0, 0, 1]),
    "neg-inf": ([-math.inf, 0.2, -math.inf], [0, 1, 1]),
    "mixed": ([math.inf, math.nan, -math.inf, 0.0, math.nan], [1, 1, 0, 0, 1]),
}


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the main thread after ``seconds`` of wall time."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestNonFiniteScores:
    @pytest.mark.parametrize("fn", [auc_score, average_precision,
                                    lambda s, t: compute_metrics(
                                        s[:, None], t[:, None], TaskKind.BINARY)],
                             ids=["auc", "ap", "compute_metrics"])
    @pytest.mark.parametrize("case", sorted(NON_FINITE_SCORES))
    def test_returns_or_refuses_in_time(self, fn, case):
        scores, targets = (np.array(v) for v in NON_FINITE_SCORES[case])
        with time_limit(5):
            try:
                fn(scores.astype(np.float64), targets)
            except EcglearnError:
                pass

    def test_finite_scores_give_the_same_auc_bytes(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            n = int(rng.integers(2, 40))
            scores = rng.integers(0, 4, size=n) * rng.choice([0.1, 1.0, 3.7])
            targets = rng.integers(0, 2, size=n)
            got, want = auc_score(scores, targets), oracle_auc_tie_loop(scores,
                                                                        targets)
            assert (got is None) == (want is None)
            if got is not None:
                assert struct.pack("<d", got) == struct.pack("<d", want)


class TestUndefinedClasses:
    def test_absent_class_excluded_with_warning(self):
        scores = np.array([[0.9, 0.2], [0.8, 0.3], [0.1, 0.4]])
        targets = np.array([[1, 0], [1, 0], [0, 0]], dtype=np.int8)  # class 1 empty
        report = compute_metrics(scores, targets, TaskKind.MULTILABEL,
                                 class_names=("a", "b"))
        assert any("b: AP undefined" in w for w in report.warnings)
        assert not math.isnan(report.map)  # class a still defined
        assert math.isnan(report.per_class["b"]["ap"])

    def test_all_classes_absent_gives_nan(self):
        scores = np.array([[0.9], [0.1]])
        targets = np.zeros((2, 1), dtype=np.int8)
        report = compute_metrics(scores, targets, TaskKind.BINARY)
        assert math.isnan(report.map) and math.isnan(report.auc)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError, match="matching 2-d"):
            compute_metrics(np.zeros((3, 2)), np.zeros((3, 3), dtype=np.int8),
                            TaskKind.MULTILABEL)

    def test_report_roundtrip(self):
        rng = np.random.default_rng(12)
        scores = rng.random((10, 2))
        targets = (rng.random((10, 2)) < 0.5).astype(np.int8)
        report = compute_metrics(scores, targets, TaskKind.MULTILABEL)
        from ecglearn.learn import MetricsReport
        again = MetricsReport.from_dict(report.to_dict())
        assert again.f1 == report.f1 and again.warnings == report.warnings
