import numpy as np
import pytest

from helpers import pearson_reference
from surfplan import (
    HeuristicWeights,
    LabeledCase,
    NoiseProfile,
    OracleConfig,
    PredictionRequest,
    PredictionResult,
    SplitConfig,
    SweepConfig,
    ValidationError,
    build_training_cases,
    evaluate_model,
    fit_heuristic,
    fit_pipeline_cases,
    generate_dataset,
    logical_error_rate,
    pearson,
    split,
)
from surfplan import models
from surfplan.heuristics import Standardizer
from surfplan.ml.pipeline import predict_many


class TestPearson:
    def test_perfect_correlation(self):
        assert pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_perfect_anticorrelation(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_hand_computed_value(self):
        # 9 / sqrt(84)
        assert pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(0.981981, abs=1e-5)

    def test_symmetry_and_affine_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=30)
        y = rng.normal(size=30)
        assert pearson(x, y) == pytest.approx(pearson(y, x), abs=1e-15)
        assert pearson(3.0 * x + 5.0, y) == pytest.approx(pearson(x, y), abs=1e-12)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            x = rng.normal(size=n).tolist()
            y = (rng.normal(size=n) + np.asarray(x)).tolist()
            assert pearson(x, y) == pytest.approx(pearson_reference(x, y), abs=1e-12)

    def test_errors(self):
        with pytest.raises(ValidationError, match="mismatch"):
            pearson([1, 2], [1, 2, 3])
        with pytest.raises(ValidationError, match="two points"):
            pearson([1], [1])
        with pytest.raises(ValidationError, match="constant"):
            pearson([1, 1, 1], [1, 2, 3])


class TestSplit:
    def test_fraction(self):
        train, test = split(list(range(10)), SplitConfig(test_fraction=0.2, seed=0))
        assert len(test) == 2 and len(train) == 8

    def test_deterministic(self):
        data = list(range(50))
        config = SplitConfig(test_fraction=0.3, seed=9)
        assert split(data, config) == split(data, config)

    def test_partition(self):
        data = list(range(37))
        train, test = split(data, SplitConfig(test_fraction=0.25, seed=4))
        assert sorted(train + test) == data

    def test_too_few_records(self):
        with pytest.raises(ValidationError):
            split([1, 2, 3], SplitConfig())


class _PerRequest:
    """A model's batch call: one ``predict_result`` per request."""

    def predict_many(self, requests):
        return [self.predict_result(request) for request in requests]


class _Memorizer(_PerRequest):
    """Answers every request with its known optimal label."""

    def __init__(self, cases):
        self.answers = {(case.request.noise.as_tuple(),
                         case.request.target_logical_error_rate):
                        (case.distance, case.rounds) for case in cases}

    def predict_result(self, request):
        d, r = self.answers[(request.noise.as_tuple(),
                             request.target_logical_error_rate)]
        return PredictionResult(raw_distance=float(d), rounded_distance=d,
                                raw_rounds=float(r), rounded_rounds=r)


class _Constant(_PerRequest):
    def predict_result(self, request):
        return PredictionResult(raw_distance=9.0, rounded_distance=9,
                                raw_rounds=8.2, rounded_rounds=9)


@pytest.fixture(scope="module")
def labeled_setup():
    sweep = SweepConfig(profiles_per_run=5, seed=21)
    oracle = OracleConfig()
    records = generate_dataset(sweep, oracle)
    cases = build_training_cases(records, sweep, oracle)
    return sweep, oracle, cases


class TestEvaluateModel:
    def test_memorizer_scores_perfectly(self, labeled_setup):
        sweep, oracle, cases = labeled_setup
        report = evaluate_model(_Memorizer(cases), cases, oracle)
        assert report.pearson_raw_distance == pytest.approx(1.0)
        assert report.pearson_rounded_distance == pytest.approx(1.0)
        assert report.pearson_raw_rounds == pytest.approx(1.0)
        assert report.pearson_rounded_rounds == pytest.approx(1.0)
        assert report.achievement_fraction == 1.0
        assert all(delta <= 0 for delta in report.dler_tler_deltas)

    def test_constant_prediction_reports_undefined(self, labeled_setup):
        sweep, oracle, cases = labeled_setup
        report = evaluate_model(_Constant(), cases, oracle)
        assert report.pearson_raw_distance is None
        assert report.pearson_rounded_distance is None
        # targets vary so the label side is fine; prediction is constant
        assert report.n_cases == len(cases)

    def test_fraction_consistent_with_deltas(self, labeled_setup):
        sweep, oracle, cases = labeled_setup
        model = fit_pipeline_cases(cases, oracle=oracle)
        report = evaluate_model(model, cases, oracle)
        fraction = sum(1 for d in report.dler_tler_deltas if d <= 0) / report.n_cases
        assert report.achievement_fraction == pytest.approx(fraction)

    def test_dler_matches_oracle_requery(self, labeled_setup):
        sweep, oracle, cases = labeled_setup
        model = fit_pipeline_cases(cases, oracle=oracle)
        report = evaluate_model(model, cases, oracle)
        for i, case in enumerate(cases[:10]):
            result = model.predict_result(case.request)
            expected = logical_error_rate(result.rounded_distance,
                                          result.rounded_rounds,
                                          case.request.noise, oracle)
            assert report.dler[i] == expected

    def test_predicts_all_cases_in_one_batch(self, labeled_setup):
        sweep, oracle, cases = labeled_setup
        model = fit_pipeline_cases(cases, oracle=oracle)
        batches, predict_many = [], model.predict_many

        def counted(requests):
            batches.append(len(requests))
            return predict_many(requests)

        model.predict_many = counted
        report = evaluate_model(model, cases, oracle)
        assert batches == [len(cases)]
        singles = [model.predict_result(case.request) for case in cases]
        assert report.predicted_raw_distance == [r.raw_distance for r in singles]
        assert report.predicted_distance == [r.rounded_distance for r in singles]
        assert report.predicted_raw_rounds == [r.raw_rounds for r in singles]
        assert report.predicted_rounds == [r.rounded_rounds for r in singles]
        assert report.latency_std_ms == 0.0

    def test_latency_statistics_present(self, labeled_setup):
        sweep, oracle, cases = labeled_setup
        report = evaluate_model(_Constant(), cases, oracle)
        assert np.isfinite(report.latency_mean_ms)
        assert np.isfinite(report.latency_std_ms)
        assert report.latency_mean_ms >= 0.0

    def test_empty_test_set_rejected(self, labeled_setup):
        sweep, oracle, cases = labeled_setup
        with pytest.raises(ValidationError):
            evaluate_model(_Constant(), [], oracle)


class TestCompareModels:
    def test_same_model_twice_gives_identical_rows(self, labeled_setup):
        from surfplan import compare_models
        sweep, oracle, cases = labeled_setup
        sweep_records = generate_dataset(sweep, oracle)
        train, test = split(cases, SplitConfig(test_fraction=0.3, seed=1))
        rows = compare_models(["pipeline", "pipeline"], train_records=sweep_records,
                              train_cases=train, test_cases=test,
                              sweep=sweep, oracle=oracle)
        assert rows[0].pearson_raw_distance == rows[1].pearson_raw_distance
        assert rows[0].pearson_raw_rounds == rows[1].pearson_raw_rounds

    def test_row_count_and_sorting(self, labeled_setup):
        from surfplan import compare_models
        sweep, oracle, cases = labeled_setup
        sweep_records = generate_dataset(sweep, oracle)
        train, test = split(cases, SplitConfig(test_fraction=0.3, seed=1))
        names = ["pipeline", "linear", "heuristic:range_search_w"]
        rows = compare_models(names, train_records=sweep_records, train_cases=train,
                              test_cases=test, sweep=sweep, oracle=oracle)
        assert len(rows) == len(names)
        scores = [row.pearson_raw_distance for row in rows if row.pearson_raw_distance
                  is not None]
        assert scores == sorted(scores, reverse=True)

    def test_shared_heuristic_fits_equal_single_fits(self, labeled_setup, monkeypatch):
        # Each heuristic fitted from compare_models' shared training state
        # equals the same kind fitted alone: scalers, columns and predictions.
        from surfplan import compare_models
        sweep, oracle, cases = labeled_setup
        records = generate_dataset(sweep, oracle)
        train, test = split(cases, SplitConfig(test_fraction=0.3, seed=1))
        weights = HeuristicWeights(0.5, 0.25, 0.15, 0.1)
        fitted, fit_named_model = [], models.fit_named_model

        def kept(name, **options):
            model = fit_named_model(name, **options)
            fitted.append((name, model))
            return model

        monkeypatch.setattr(models, "fit_named_model", kept)
        compare_models(list(models.MODEL_NAMES), train_records=records, train_cases=train,
                       test_cases=test, sweep=sweep, oracle=oracle, weights=weights)
        requests = [case.request for case in test]
        heuristics = [(name, model) for name, model in fitted if name.startswith("heuristic:")]
        assert [name for name, _ in heuristics] == list(models.HEURISTIC_NAMES)
        for _, shared in heuristics:
            alone = fit_heuristic(records, shared.kind, weights, oracle)
            assert shared.stage1_scaler == alone.stage1_scaler
            assert shared.stage2_scaler == alone.stage2_scaler
            for column in ("noise", "log_ler", "distance", "rounds"):
                assert getattr(shared, column).tobytes() == getattr(alone, column).tobytes()
            assert repr(predict_many(shared, requests)) == repr(predict_many(alone, requests))

    def test_scalers_are_fitted_once_per_comparison(self, labeled_setup, monkeypatch):
        # One stage-2 scaler and one stage-1 scaler per weighted flag for all
        # eight heuristics, where fitting each alone takes two apiece.
        from surfplan import compare_models
        sweep, oracle, cases = labeled_setup
        records = generate_dataset(sweep, oracle)
        train, test = split(cases, SplitConfig(test_fraction=0.3, seed=1))
        fits, fit = [], Standardizer.fit

        def counted(features):
            fits.append(features.shape)
            return fit(features)

        monkeypatch.setattr(Standardizer, "fit", counted)
        compare_models(list(models.MODEL_NAMES), train_records=records, train_cases=train,
                       test_cases=test, sweep=sweep, oracle=oracle)
        assert len(fits) == 3
