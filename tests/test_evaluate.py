import math

import numpy as np
import pytest

from helpers import pearson_reference
from surfplan import (
    Dataset,
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
from surfplan import heuristics, models
from surfplan.dataio import report_scalars
from surfplan.heuristics import (
    NEIGHBOR_METHODS,
    HeuristicTraining,
    Standardizer,
    _stage1_columns,
    _standardized_columns,
)
from surfplan.ml.pipeline import predict_many


class TestPearson:
    def test_two_dimensional_input_rejected(self):
        with pytest.raises(ValidationError, match="one-dimensional"):
            pearson([[1.0, 2.0], [3.0, 4.0]], [1.0, 2.0])

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

    def test_overflowing_centered_sums_are_undefined(self):
        # Finite inputs whose centered sums overflow have no coefficient; an
        # overflow is not a correlation of -0.0 (pytest turns numpy's
        # overflow warning into an error). Nor is a product of the sums
        # that underflows to zero a division by zero.
        huge = [1e300 * (1 + i % 7) / 7 for i in range(30)]
        with pytest.raises(ValidationError, match="overflow"):
            pearson(huge, list(range(30)))
        with pytest.raises(ValidationError, match="overflow"):
            pearson(list(range(30)), huge)
        with pytest.raises(ValidationError, match="underflow"):
            pearson([1e-160, 2e-160, 4e-160], [1e-5, 2e-5, 3e-5])

    def test_ordinary_inputs_keep_their_bits(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x, y = rng.normal(size=(2, int(rng.integers(2, 40)))) * 10.0 ** rng.integers(-5, 5)
            dx, dy = x - x.mean(), y - y.mean()
            expected = float(np.dot(dx, dy) / math.sqrt(float(np.dot(dx, dx))
                                                        * float(np.dot(dy, dy))))
            assert pearson(x, y).hex() == expected.hex()


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

    def test_a_split_that_leaves_no_test_case_is_rejected(self):
        # floor(12 * 0.05) is 0: the split would leave nothing to score.
        with pytest.raises(ValidationError) as caught:
            split(list(range(12)), SplitConfig(test_fraction=0.05))
        assert str(caught.value) == "a test_fraction of 0.05 leaves no test case among 12 cases"
        assert len(split(list(range(20)), SplitConfig(test_fraction=0.05))[1]) == 1


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
        return PredictionResult(raw_distance=float(d), raw_rounds=float(r))


class _Constant(_PerRequest):
    def predict_result(self, request):
        return PredictionResult(raw_distance=9.0, raw_rounds=8.2)


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

    def test_label_within_the_target_slack_is_achieved(self):
        # This profile's label at 1e-6 is (3, 3), where the rate is one ulp
        # above the target: labels accept it through meets_target, and so
        # must the achievement fraction, the p95 ratios and positive_count.
        profile = NoiseProfile(0.0, 6.324555320336759e-05, 0.0, 0.0)
        cases = build_training_cases(Dataset.from_rows([profile.as_tuple()], [3], [3], [1e-3]),
                                     menu=(1e-6,))
        assert [(case.distance, case.rounds) for case in cases] == [(3, 3)]
        report = evaluate_model(_Memorizer(cases), cases)
        assert report.dler == [1.0000000000000002e-06]
        assert report.achievement_fraction == 1.0
        assert report.positive_delta_over_target_p95 is None
        assert report_scalars(report)["deltas"]["positive_count"] == 0

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

    def test_latency_statistics_present(self, labeled_setup):
        sweep, oracle, cases = labeled_setup
        report = evaluate_model(_Constant(), cases, oracle)
        assert np.isfinite(report.latency_mean_ms)
        assert report.latency_mean_ms >= 0.0

    def test_empty_test_set_rejected(self, labeled_setup):
        sweep, oracle, cases = labeled_setup
        with pytest.raises(ValidationError):
            evaluate_model(_Constant(), [], oracle)


class TestCompareModels:
    def test_same_model_twice_gives_identical_rows(self, labeled_setup):
        # Two comparisons fit each model the same way.
        from surfplan import compare_models
        sweep, oracle, cases = labeled_setup
        sweep_records = generate_dataset(sweep, oracle)
        train, test = split(cases, SplitConfig(test_fraction=0.3, seed=1))
        first, second = (compare_models(["pipeline", "heuristic:range_search_w"],
                                        train_records=sweep_records, train_cases=train,
                                        test_cases=test, sweep=sweep, oracle=oracle)
                         for _ in range(2))
        assert first == second

    @pytest.mark.parametrize("names, message", [
        (["linear", "linear"], "model 'linear' is named more than once"),
        (["pipeline", "heuristic:range_search_w", "pipeline"],
         "model 'pipeline' is named more than once"),
        (["linear"], "compare_models needs at least two model names"),
        (["linear", "bogus"], "unknown model 'bogus'"),
    ])
    def test_model_names_are_checked(self, labeled_setup, monkeypatch, names, message):
        # The rule `surfplan compare --models` follows: no model is fitted.
        from surfplan import compare_models
        sweep, oracle, cases = labeled_setup
        train, test = split(cases, SplitConfig(test_fraction=0.3, seed=1))
        monkeypatch.setattr(models, "fit_named_model", None)
        with pytest.raises(ValidationError, match=message):
            compare_models(names, train_records=generate_dataset(sweep, oracle),
                           train_cases=train, test_cases=test, sweep=sweep, oracle=oracle)

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
            assert shared == alone
            for stage in (0, 1):
                (shared_scaler, shared_columns), (alone_scaler, alone_columns) = (
                    model.training.standardized(stage, shared.kind.weighted)
                    for model in (shared, alone))
                assert shared_scaler == alone_scaler
                assert ([column.tobytes() for column in shared_columns]
                        == [column.tobytes() for column in alone_columns])
                assert (shared.training.axis(stage, shared.kind.weighted).tobytes()
                        == alone.training.axis(stage, shared.kind.weighted).tobytes())
            (shared_decades, shared_values), (alone_decades, alone_values) = (
                model.training.decades() for model in (shared, alone))
            assert shared_decades.tobytes() == alone_decades.tobytes()
            assert shared_values == alone_values
            for column in ("noise", "log_ler", "distance", "rounds"):
                assert (getattr(shared.training, column).tobytes()
                        == getattr(alone.training, column).tobytes())
            assert repr(predict_many(shared, requests)) == repr(predict_many(alone, requests))

    def test_scalers_are_fitted_once_per_comparison(self, labeled_setup, monkeypatch):
        # One stage-2 scaler and one stage-1 scaler per weighted flag for all
        # eight heuristics, where fitting each alone takes two apiece; and
        # one interpolator stage-1 axis per weighted flag and one decade
        # array, where each interpolator would derive its own.
        from surfplan import compare_models
        sweep, oracle, cases = labeled_setup
        records = generate_dataset(sweep, oracle)
        train, test = split(cases, SplitConfig(test_fraction=0.3, seed=1))
        fits, fit = [], Standardizer.fit
        axes, stage1_axis = [], heuristics._stage1_axis
        decades, rint = [], np.rint

        def counted(features):
            fits.append(features.shape)
            return fit(features)

        def counted_axis(weighted, weights, rates):
            if isinstance(rates, np.ndarray):  # the training columns, not a query
                axes.append(weighted)
            return stage1_axis(weighted, weights, rates)

        def counted_rint(values, *args, **kwargs):
            decades.append(np.shape(values))
            return rint(values, *args, **kwargs)

        monkeypatch.setattr(Standardizer, "fit", counted)
        monkeypatch.setattr(heuristics, "_stage1_axis", counted_axis)
        monkeypatch.setattr(np, "rint", counted_rint)
        compare_models(list(models.MODEL_NAMES), train_records=records, train_cases=train,
                       test_cases=test, sweep=sweep, oracle=oracle)
        assert len(fits) == 3
        assert sorted(axes) == [False, True]
        assert decades == [(len(records),)]

    def test_each_distinct_query_is_searched_once_per_comparison(self, labeled_setup,
                                                                 monkeypatch):
        # The four neighbor heuristics search the training columns once per
        # distinct (stage, weighted flag, query) of the comparison and answer
        # every repeat from the shared state's memo. Stage 1 has at most one
        # query per test case and flag, stage 2 one per distinct (rounded
        # distance, target) that the neighbor models predict.
        from surfplan import compare_models
        sweep, oracle, cases = labeled_setup
        records = generate_dataset(sweep, oracle)
        train, test = split(cases, SplitConfig(test_fraction=0.3, seed=1))
        weights, requests = HeuristicWeights(), [case.request for case in test]
        training = HeuristicTraining(records, weights)
        expected = set()
        for weighted in (True, False):
            stage1, stage2 = (training.standardized(stage, weighted)[0] for stage in (0, 1))
            for request in requests:
                log_target = math.log10(request.target_logical_error_rate)
                expected.add((0, weighted, _standardized_columns(_stage1_columns(
                    weighted, weights, request.noise.as_tuple(), log_target), stage1)))
        assert len(expected) <= 2 * len(test)
        for kind in heuristics.all_kinds():
            if kind.method in NEIGHBOR_METHODS:
                for request, result in zip(requests, predict_many(
                        fit_heuristic(records, kind, weights, oracle), requests)):
                    expected.add((1, None, _standardized_columns(
                        (float(result.rounded_distance),
                         math.log10(request.target_logical_error_rate)), stage2)))
        searched, distances = [], heuristics._distances

        def counted(columns, query):
            searched.append(tuple(query))
            return distances(columns, query)

        monkeypatch.setattr(heuristics, "_distances", counted)
        compare_models(list(models.MODEL_NAMES), train_records=records, train_cases=train,
                       test_cases=test, sweep=sweep, oracle=oracle, weights=weights)
        assert len(searched) == len(expected)
        assert sorted(searched) == sorted(query for _, _, query in expected)
