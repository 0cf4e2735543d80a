import numpy as np
import pytest
from helpers import record_columns
from hypothesis import given, settings
from hypothesis import strategies as st

from surfplan import (
    DEFAULT_TARGET_MENU,
    AboveThresholdError,
    BoostConfig,
    Dataset,
    ForestConfig,
    LabeledCase,
    NoiseProfile,
    OracleConfig,
    PredictionRequest,
    SweepConfig,
    ValidationError,
    build_training_cases,
    find_optimal_params,
    fit_pipeline,
    fit_pipeline_cases,
    generate_dataset,
    logical_error_rate,
    predict,
    predict_many,
    rate_grids,
    round_distance,
)
from surfplan.ml import fit_linear_pipeline
from surfplan.ml.ensemble import fit_boosted, fit_forest
from surfplan.ml.pipeline import (
    STAGE1_SCHEMA,
    distinct_profiles,
    stage1_features,
    stage2_features,
)
from surfplan.models import MODEL_NAMES, fit_named_model


def _case(profile, target, d, r):
    return LabeledCase(request=PredictionRequest(
        noise=profile, target_logical_error_rate=target), distance=d, rounds=r)


def _scalar_labels(records, sweep, oracle, menu):
    """Training cases labeled one scalar find_optimal_params call per pair."""
    cases = []
    for profile in distinct_profiles(records):
        for target in menu:
            request = PredictionRequest(noise=profile, target_logical_error_rate=target)
            optimal = find_optimal_params(request, sweep, oracle)
            if optimal is not None:
                cases.append(_case(profile, target, optimal.distance, optimal.rounds))
    return cases


@pytest.fixture(scope="module")
def small_run():
    sweep = SweepConfig(profiles_per_run=6, seed=10)
    oracle = OracleConfig()
    records = generate_dataset(sweep, oracle)
    cases = build_training_cases(records, sweep, oracle)
    return sweep, oracle, records, cases


class TestLabelConstruction:
    def test_infeasible_pairs_dropped(self, small_run):
        sweep, oracle, records, cases = small_run
        assert 0 < len(cases) <= 6 * 6
        for case in cases:
            assert case.distance in sweep.distances
            assert sweep.rounds_min <= case.rounds <= sweep.rounds_max

    @given(data=st.data())
    @settings(max_examples=30)
    def test_labels_are_grid_optima(self, small_run, data):
        # Every (profile, target) pair gets the scalar search's answer, and a
        # pair is dropped exactly when that search finds nothing; a menu that
        # repeats a target, or has no feasible pair, is rejected. Targets on,
        # just inside and just outside TARGET_REL_TOL of a grid rate probe the
        # tolerance.
        sweep, oracle, records, cases = small_run
        assert cases == _scalar_labels(records, sweep, oracle, DEFAULT_TARGET_MENU)
        extra = data.draw(st.lists(st.builds(
            NoiseProfile, depolarizing=st.floats(0.0, 5e-3), gate=st.floats(1e-5, 1e-2),
            reset=st.floats(0.0, 1e-2), readout=st.floats(0.0, 1e-2)), max_size=2))
        more = generate_dataset(sweep, oracle, profiles=extra)
        records = Dataset.from_rows(*map(np.concatenate, zip(record_columns(records),
                                                             record_columns(more))))
        grid_rate = st.builds(
            lambda rate, factor: rate * factor,
            st.sampled_from(records.logical_error_rate.tolist()),
            st.sampled_from([1.0, 1.0 - 5e-13, 1.0 + 5e-13, 1.0 - 3e-12, 1.0 + 3e-12]))
        random_target = st.floats(-15.0, -1.0).map(lambda e: 10.0 ** e)
        menu = tuple(data.draw(st.lists(st.one_of(grid_rate, random_target),
                                        min_size=1, max_size=6)))
        expected = _scalar_labels(records, sweep, oracle, menu)
        if len(set(menu)) < len(menu):
            with pytest.raises(ValidationError, match="is repeated"):
                build_training_cases(records, sweep, oracle, menu)
        elif not expected:
            with pytest.raises(ValidationError, match="no feasible"):
                build_training_cases(records, sweep, oracle, menu)
        else:
            assert build_training_cases(records, sweep, oracle, menu) == expected

    @pytest.mark.parametrize("menu", [(1e-30,), (1e-30, 1e-40), ()])
    def test_a_menu_without_a_feasible_pair_is_rejected(self, small_run, menu):
        sweep, oracle, records, _ = small_run
        with pytest.raises(ValidationError) as caught:
            build_training_cases(records, sweep, oracle, menu)
        assert str(caught.value) == ("no feasible (profile, target) pairs; every menu "
                                     "target is out of reach for the dataset's profiles")

    def test_an_empty_dataset_is_rejected(self, small_run):
        sweep, oracle, records, _ = small_run
        with pytest.raises(ValidationError, match="empty dataset"):
            build_training_cases(Dataset.from_rows((), (), (), ()), sweep, oracle)

    def test_a_repeated_target_is_rejected_before_the_feasibility_check(self, small_run):
        sweep, oracle, records, _ = small_run
        # (1e-30, 1e-30) has no feasible pair either: the repeat is found first.
        for menu in ((1e-6, 1e-6), (1e-4, 1e-30, 1e-30), (1e-30, 1e-30)):
            with pytest.raises(ValidationError, match=f"target {menu[-1]!r} is repeated"):
                build_training_cases(records, sweep, oracle, menu)


class TestFitPipeline:
    def test_no_cases_rejected(self):
        with pytest.raises(ValidationError, match="no labeled cases"):
            fit_pipeline_cases([])

    def test_neither_records_nor_cases_rejected(self):
        for records in (None, Dataset.from_rows((), (), (), ())):
            with pytest.raises(ValidationError, match="needs records or labeled cases"):
                fit_named_model("pipeline", records=records)

    def test_memorizes_single_pattern(self):
        profile = NoiseProfile(1e-4, 1e-3, 1e-4, 2e-3)
        cases = [_case(profile, 1e-5, 9, 8)]
        model = fit_pipeline_cases(cases)
        result = model.predict_result(cases[0].request)
        assert result.rounded_distance == 9
        assert result.rounded_rounds == 8

    def test_stage2_sees_rounded_stage1_outputs(self, small_run):
        sweep, oracle, records, cases = small_run
        stage1_cfg = BoostConfig(n_estimators=5, learning_rate=0.3)
        stage2_cfg = ForestConfig(seed=77)
        model = fit_pipeline_cases(cases, stage1_cfg, stage2_cfg, oracle)

        # Re-run the two fits by hand and require identical stage-2 behavior.
        mat1 = stage1_features([case.request for case in cases])
        y1 = np.asarray([case.distance for case in cases], dtype=float)
        stage1 = fit_boosted(mat1, y1, stage1_cfg)
        raw, mat2 = stage2_features(stage1, mat1)
        assert not np.array_equal(raw, mat2[:, 0]), "fixture failed to exercise rounding"
        assert all(value == round_distance(float(r)) for value, r in zip(mat2[:, 0], raw))
        y2 = np.asarray([case.rounds for case in cases], dtype=float)
        stage2 = fit_forest(mat2, y2, stage2_cfg)
        probe = np.column_stack([np.array([3.0, 9.0, 15.0]), np.array([-4.0, -6.0, -9.0])])
        assert np.array_equal(model.stage2.predict(probe), stage2.predict(probe))

    def test_fit_from_records_matches_fit_from_cases(self, small_run):
        sweep, oracle, records, cases = small_run
        cfg1 = BoostConfig(n_estimators=10)
        cfg2 = ForestConfig(seed=5)
        direct = fit_pipeline(records, cfg1, cfg2, sweep, oracle)
        via_cases = fit_pipeline_cases(cases, cfg1, cfg2, oracle)
        request = cases[0].request
        assert direct.predict_result(request) == via_cases.predict_result(request)


class TestPredict:
    def test_an_empty_batch_gives_no_results(self, small_run):
        sweep, oracle, records, cases = small_run
        assert stage1_features([]).shape == (0, len(STAGE1_SCHEMA))
        for model in (fit_pipeline_cases(cases, BoostConfig(n_estimators=5), oracle=oracle),
                      fit_linear_pipeline(cases, oracle)):
            assert predict_many(model, []) == []

    def test_result_invariants_on_random_requests(self, small_run):
        sweep, oracle, records, cases = small_run
        model = fit_pipeline_cases(cases, BoostConfig(n_estimators=20))
        rng = np.random.default_rng(0)
        for _ in range(50):
            request = PredictionRequest(
                noise=NoiseProfile(
                    depolarizing=float(rng.uniform(*sweep.depolarizing_range)),
                    gate=float(rng.uniform(*sweep.gate_range)),
                    reset=float(rng.uniform(*sweep.reset_range)),
                    readout=float(rng.uniform(*sweep.readout_range))),
                target_logical_error_rate=float(10 ** rng.uniform(-9, -3)))
            result = predict(model, request)
            assert result.rounded_distance % 2 == 1
            assert result.rounded_distance >= 3
            assert result.rounded_distance >= result.raw_distance
            assert result.rounded_rounds >= 1

    def test_deeper_target_needs_larger_code(self, small_run):
        sweep, oracle, records, cases = small_run
        model = fit_pipeline_cases(cases, oracle=oracle)
        profile = NoiseProfile(*records.profiles[0].tolist())
        shallow = predict(model, PredictionRequest(
            noise=profile, target_logical_error_rate=1e-4))
        deep = predict(model, PredictionRequest(
            noise=profile, target_logical_error_rate=1e-9))
        assert deep.rounded_distance > shallow.rounded_distance
        assert deep.rounded_rounds > shallow.rounded_rounds

    def test_above_threshold_flagged(self, small_run):
        sweep, oracle, records, cases = small_run
        model = fit_pipeline_cases(cases, oracle=oracle)
        hot = PredictionRequest(noise=NoiseProfile(0, 0.03, 0, 0),
                                target_logical_error_rate=1e-4)
        with pytest.raises(AboveThresholdError):
            model.predict_result(hot)

    def test_every_path_gives_one_threshold_message(self, small_run):
        sweep, oracle, records, cases = small_run
        hot = PredictionRequest(noise=NoiseProfile(0, 0.03, 0, 0),
                                target_logical_error_rate=1e-4)
        calls = {name: fit_named_model(name, records=records, cases=cases,
                                       oracle=oracle).predict_result
                 for name in MODEL_NAMES}
        calls["find_optimal_params"] = lambda request: find_optimal_params(
            request, sweep, oracle)
        calls["logical_error_rate"] = lambda request: logical_error_rate(
            3, 3, request.noise, oracle)
        calls["rate_grids"] = lambda request: rate_grids(
            [request.noise.as_tuple()], sweep.distances, sweep.rounds(), oracle)
        assert len(calls) == 13
        for name, call in calls.items():
            with pytest.raises(AboveThresholdError) as raised:
                call(hot)
            assert str(raised.value) == (
                "effective error 1.500e-02 is at or above threshold 1.000e-02"), name

    @pytest.mark.parametrize("name", ["pipeline", "linear"])
    def test_predict_many_matches_scalar_path(self, small_run, name):
        sweep, oracle, records, cases = small_run
        model = fit_named_model(name, cases=cases, oracle=oracle)
        requests = [case.request for case in cases[:10]]
        batch = predict_many(model, requests)
        single = [model.predict_result(request) for request in requests]
        assert batch == single
