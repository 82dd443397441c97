"""Folding, systems, leakage guards, ablation and significance comparison."""

import math
import os
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import numpy as np
import pytest

from gazescore.corpus import Essay, EssaySet, build_vocab, denormalize_score, normalize_score
from gazescore.experiments import (
    DEFAULT_GAZE_WEIGHTS,
    GAZE_WEIGHT_GRID,
    AblationReport,
    Cell,
    ComparisonReport,
    ExperimentConfig,
    ExperimentData,
    ExperimentReport,
    FoldResult,
    FoldSpec,
    LeakageError,
    Prediction,
    SYSTEMS,
    _assert_no_stats_leakage,
    _assert_no_vocab_leakage,
    _examples_for,
    ablation_cells,
    ablation_report,
    assemble_report,
    compare,
    execute_cells,
    fold_cells,
    format_report,
    grid_cells,
    grid_fold,
    grid_report,
    load_folds,
    make_folds,
    prepare_cell,
    run_fold,
    save_folds,
    train_cell,
)
from gazescore import experiments
from gazescore.cli import _write_records_csv, load_selected_records
from gazescore.gaze import (
    GazeRecord,
    GazeTable,
    bin_all,
    filter_readers,
    gaze_targets,
    reader_stats,
)
from gazescore.metrics import paired_t_test
from gazescore.model import EssayScorer
from gazescore.training import TrainingDiverged, dev_qwk, evaluate_breakdown, prepare_example
from oracle import gaze_lists, run_experiment

TOKENS = ["the", "cat", "sat", "on", "a", "mat", "dog", "ran", "far", "blue"]

TINY_MODEL = {
    "embedding_dim": 6,
    "conv_kernel": 3,
    "conv_filters": 4,
    "lstm_hidden": 4,
    "modeling_hidden": 4,
    "dropout": 0.0,
}

TINY_TRAIN = {"epochs": 1, "batch_size": 8}


def make_essay(essay_id, essay_set, rng, n_sentences=2, n_tokens=4):
    sentences = [
        [TOKENS[rng.integers(len(TOKENS))] for _ in range(n_tokens)]
        for _ in range(n_sentences)
    ]
    raw = int(rng.integers(essay_set.score_min, essay_set.score_max + 1))
    return Essay(
        essay_id=essay_id,
        set_id=essay_set.set_id,
        sentences=sentences,
        raw_score=raw,
        normalized_score=normalize_score(raw, essay_set),
    )


def make_records(essay, reader_id="r1"):
    records = []
    for position, _ in enumerate(essay.tokens):
        records.append(GazeRecord(
            essay_id=essay.essay_id,
            reader_id=reader_id,
            ia_index=position,
            token="w",
            dwell_time_ms=100.0 + 10.0 * position,
            first_fixation_ms=80.0,
            is_regression=position % 2,
            run_count=1 + position % 3,
            skip=0,
        ))
    return records


def with_records(table, records):
    """``table`` with ``records`` appended."""
    return GazeTable.concat([table, GazeTable.from_records(records)])


def dwell_times_scaled_by_essay(table):
    """``table`` with each dwell time scaled by a factor of its essay."""
    return GazeTable.from_records(
        r._replace(dwell_time_ms=r.dwell_time_ms * (r.essay_id % 5 + 1))
        for r in map(GazeRecord._make, table.rows()))


def make_data(n_target=10, pool_size=0, with_records=False,
              article=None, target_set_id=1, seed=0,
              target_records=False):
    rng = np.random.default_rng(seed)
    target_set = EssaySet(target_set_id, 0, 3, source_article=article)
    sets = {target_set_id: target_set}
    essays = {}
    target_ids = []
    for i in range(n_target):
        essay = make_essay(100 + i, target_set, rng)
        essays[essay.essay_id] = essay
        target_ids.append(essay.essay_id)

    pool_ids = []
    records = []
    if pool_size:
        pool_set = EssaySet(3, 0, 3)
        sets[3] = pool_set
        for i in range(pool_size):
            essay = make_essay(900 + i, pool_set, rng)
            essays[essay.essay_id] = essay
            pool_ids.append(essay.essay_id)
            if with_records:
                records.extend(make_records(essay))
    if target_records:
        for essay_id in target_ids:
            records.extend(make_records(essays[essay_id]))

    folds = {target_set_id: make_folds(target_ids, seed=seed)}
    return ExperimentData(
        essays=essays,
        sets=sets,
        folds=folds,
        gaze_essay_ids=frozenset(pool_ids),
        gaze_records=GazeTable.from_records(records),
    )


# ---------------------------------------------------------------- folds

class TestMakeFolds:
    def test_ten_essays_give_6_2_2(self):
        folds = make_folds(range(10), seed=0)
        assert len(folds) == 5
        for fold in folds:
            assert (len(fold.train), len(fold.dev), len(fold.test)) == (6, 2, 2)

    def test_each_fold_partitions_the_set(self):
        ids = list(range(40, 53))
        for fold in make_folds(ids, seed=3):
            assert fold.all_ids == set(ids)
            assert len(fold.train) + len(fold.dev) + len(fold.test) == len(ids)

    def test_test_chunks_are_disjoint_and_cover(self):
        ids = list(range(11))
        folds = make_folds(ids, seed=1)
        seen = []
        for fold in folds:
            seen.extend(fold.test)
        assert sorted(seen) == sorted(ids)
        assert len(seen) == len(set(seen))

    def test_dev_is_next_test_chunk(self):
        folds = make_folds(range(10), seed=2)
        for k, fold in enumerate(folds):
            assert tuple(fold.dev) == tuple(folds[(k + 1) % 5].test)

    def test_same_seed_same_folds(self):
        assert make_folds(range(20), seed=7) == make_folds(range(20), seed=7)

    def test_different_seed_different_shuffle(self):
        a = make_folds(range(20), seed=7)
        b = make_folds(range(20), seed=8)
        assert any(x.test != y.test for x, y in zip(a, b))

    def test_too_few_essays_rejected(self):
        with pytest.raises(ValueError, match="at least 5"):
            make_folds(range(4), seed=0)

    def test_exactly_five_essays_fold(self):
        folds = make_folds(range(5), seed=0)
        for fold in folds:
            assert (len(fold.train), len(fold.dev), len(fold.test)) == (3, 1, 1)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_folds([1, 2, 3, 4, 4], seed=0)


class TestFoldSpec:
    def test_overlapping_roles_rejected(self):
        with pytest.raises(ValueError, match="two fold roles"):
            FoldSpec(fold_id=0, train=(1, 2), dev=(2,), test=(3,))

    def test_empty_role_rejected(self):
        with pytest.raises(ValueError, match="at least one essay"):
            FoldSpec(fold_id=0, train=(1,), dev=(), test=(2,))


class TestFoldFiles:
    def test_round_trip(self, tmp_path):
        folds = make_folds(range(10), seed=5)
        path = tmp_path / "folds.txt"
        save_folds(path, folds)
        assert load_folds(path) == folds

    def test_file_is_plain_csv_lines(self, tmp_path):
        path = tmp_path / "folds.txt"
        save_folds(path, make_folds(range(5), seed=0))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 25
        assert all(len(line.split(",")) == 3 for line in lines)

    def test_malformed_line_names_position(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0,train,1\n0,train\n")
        with pytest.raises(ValueError, match="bad.txt:2"):
            load_folds(path)

    def test_unknown_role_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0,eval,1\n")
        with pytest.raises(ValueError, match="unknown role"):
            load_folds(path)

    def test_non_integer_ids_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0,train,abc\n")
        with pytest.raises(ValueError, match="must be integers"):
            load_folds(path)

    @pytest.mark.parametrize("lines, reason", [
        ("0,train,1\n0,dev,2\n0,test,3\n2,train,4\n2,test,5\n",
         ": fold 2: every fold role needs at least one essay"),
        # both named the wrong fault and no line: "fold 0: essay 1 appears in two fold roles"
        ("0,train,1\n0,dev,2\n0,test,1\n", ":3: fold 0 essay 1 repeats line 1"),
        ("0,train,2\n0,train,2\n0,dev,1\n0,test,3\n", ":2: fold 0 essay 2 repeats line 1"),
    ], ids=["missing_role", "two_roles", "one_role_twice"])
    def test_a_bad_fold_names_the_file_and_the_fold(self, tmp_path, lines, reason):
        path = tmp_path / "set_3.txt"
        path.write_text(lines)
        with pytest.raises(ValueError) as error:
            load_folds(path)
        assert str(error.value) == f"{path}{reason}"

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(ValueError, match="no folds"):
            load_folds(path)


# ------------------------------------------------------- configuration

class TestExperimentConfig:
    def test_six_systems_exist(self):
        assert len(SYSTEMS) == 6

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError, match="unknown system"):
            ExperimentConfig(system="magic", target_sets=(1,))

    def test_empty_target_sets_rejected(self):
        with pytest.raises(ValueError, match="target_sets"):
            ExperimentConfig(system="self_attention", target_sets=())

    def test_unknown_gaze_attribute_rejected(self):
        with pytest.raises(ValueError, match="unknown gaze attribute"):
            ExperimentConfig(system="essays_gaze", target_sets=(1,),
                             gaze_attributes=("DT", "Blink"))

    def test_missing_weight_rejected_for_gaze_system(self):
        with pytest.raises(ValueError, match="no loss weight"):
            ExperimentConfig(system="essays_gaze", target_sets=(1,),
                             gaze_attributes=("DT",), gaze_loss_weights={})

    def test_architecture_per_system(self):
        for system, expected in [
            ("self_attention", "self_attention"),
            ("co_attention", "co_attention"),
            ("co_attention_gaze", "co_attention"),
            ("only_prompt", "self_attention"),
            ("extra_essays", "self_attention"),
            ("essays_gaze", "self_attention"),
        ]:
            assert SYSTEMS[system].architecture == expected

    @pytest.mark.parametrize("field, values, message", [
        ("target_sets", (3, 4, 3), r"target_sets lists \[3\] more than once"),
        ("gaze_attributes", ("DT", "IR", "DT"), r"gaze_attributes lists \['DT'\] more than once"),
    ], ids=["target_sets", "gaze_attributes"])
    def test_duplicates_rejected(self, field, values, message):
        config = dict(system="essays_gaze", target_sets=(3,), gaze_attributes=("DT", "IR"))
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**{**config, field: values})

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_rejected(self, weight):
        # such a weight would let every cell train, then fail with TrainingDiverged
        with pytest.raises(ValueError, match=r"gaze loss weight for DT must be finite"):
            ExperimentConfig(system="essays_gaze", target_sets=(1,), gaze_attributes=("DT",),
                             gaze_loss_weights={"DT": weight})

    @pytest.mark.parametrize("weight", [-0.05, -1e-300])
    def test_negative_weight_rejected_and_zero_kept(self, weight):
        # a negative weight would make the loss reward gaze error
        with pytest.raises(ValueError) as error:
            ExperimentConfig(system="essays_gaze", target_sets=(1,), gaze_attributes=("DT",),
                             gaze_loss_weights={"DT": weight})
        assert str(error.value) == f"gaze loss weight for DT must be >= 0, got {weight}"
        ExperimentConfig(system="essays_gaze", target_sets=(1,), gaze_attributes=("DT",),
                         gaze_loss_weights={"DT": 0.0})

    def test_default_weights_match_published_values(self):
        assert DEFAULT_GAZE_WEIGHTS == {
            "DT": 0.05, "FFD": 0.05, "IR": 0.01, "RC": 0.01, "Skip": 0.1}
        assert GAZE_WEIGHT_GRID == (0.5, 0.1, 0.05, 0.01, 0.001)


class TestExperimentData:
    def test_fold_with_unknown_essay_rejected(self):
        data = make_data()
        bad_folds = {1: [FoldSpec(0, train=(100, 101), dev=(102,), test=(5555,))]}
        with pytest.raises(ValueError, match="unknown essays"):
            ExperimentData(essays=data.essays, sets=data.sets, folds=bad_folds)

    def test_fold_listing_another_sets_essay_rejected(self):
        data = make_data(pool_size=2)
        bad_folds = {1: [FoldSpec(4, train=(100, 101), dev=(102,), test=(103, 901))]}
        with pytest.raises(ValueError,
                           match=r"set 1 fold 4 lists essays \[901\] of another set"):
            ExperimentData(essays=data.essays, sets=data.sets, folds=bad_folds)

    def test_unknown_pool_essay_rejected(self):
        data = make_data()
        with pytest.raises(ValueError, match="unknown essays"):
            ExperimentData(essays=data.essays, sets=data.sets, folds=data.folds,
                           gaze_essay_ids=frozenset({31337}))


# ------------------------------------------------------------- running

def run_tiny(system, data, **overrides):
    kwargs = dict(
        system=system,
        target_sets=(1,),
        seed=0,
        model_params=dict(TINY_MODEL),
        train_params=dict(TINY_TRAIN),
    )
    kwargs.update(overrides)
    config = ExperimentConfig(**kwargs)
    return config, run_experiment(config, data)


class TestRunExperiment:
    def test_self_attention_covers_all_folds(self):
        data = make_data()
        _, report = run_tiny("self_attention", data)
        assert len(report.fold_results) == 5
        assert [r.fold_id for r in report.fold_results] == [0, 1, 2, 3, 4]
        for result in report.fold_results:
            assert result.n_train == 6
            assert result.n_augmented == 0

    def test_test_predictions_cover_exactly_the_test_partition(self):
        data = make_data()
        _, report = run_tiny("self_attention", data)
        for result in report.fold_results:
            fold = data.folds[1][result.fold_id]
            assert set(result.test_predictions) == set(fold.test)

    def test_predictions_are_raw_scale_integers_in_range(self):
        data = make_data()
        _, report = run_tiny("self_attention", data)
        for result in report.fold_results:
            for predicted, actual, _ in result.test_predictions.values():
                assert 0 <= predicted <= 3
                assert isinstance(predicted, int)
                assert 0 <= actual <= 3

    def test_deterministic_given_seed(self):
        report_a = run_tiny("self_attention", make_data())[1]
        report_b = run_tiny("self_attention", make_data())[1]
        assert [r.test_qwk for r in report_a.fold_results] == \
               [r.test_qwk for r in report_b.fold_results]
        assert [r.test_predictions for r in report_a.fold_results] == \
               [r.test_predictions for r in report_b.fold_results]

    def test_seed_changes_results(self):
        base = run_tiny("self_attention", make_data())[1]
        other = run_tiny("self_attention", make_data(), seed=99)[1]
        assert [r.test_predictions for r in base.fold_results] != \
               [r.test_predictions for r in other.fold_results]

    def test_only_prompt_is_plain_self_attention_run(self):
        data = make_data()
        _, report = run_tiny("only_prompt", data)
        assert all(r.n_augmented == 0 for r in report.fold_results)

    def test_extra_essays_adds_whole_pool(self):
        data = make_data(pool_size=6)
        _, report = run_tiny("extra_essays", data)
        for result in report.fold_results:
            assert result.n_augmented == 6
            assert result.n_train == 12

    def test_extra_essays_without_pool_rejected(self):
        data = make_data(pool_size=0)
        with pytest.raises(ValueError, match="pool"):
            run_tiny("extra_essays", data)

    def test_essays_gaze_trains_with_gaze_records(self):
        data = make_data(pool_size=6, with_records=True)
        config, report = run_tiny("essays_gaze", data)
        assert SYSTEMS[config.system].uses_gaze
        for result in report.fold_results:
            assert result.n_augmented == 6
        assert config.gaze_loss_weights == DEFAULT_GAZE_WEIGHTS

    def test_essays_gaze_without_records_rejected(self):
        data = make_data(pool_size=6, with_records=False)
        with pytest.raises(ValueError, match="gaze records"):
            run_tiny("essays_gaze", data)

    def test_co_attention_needs_article(self):
        # an article without tokens is no article; the run is rejected before any cell
        for article in (None, "", " \n\t"):
            data = make_data(article=article)
            with pytest.raises(ValueError, match="needs a source article"):
                run_tiny("co_attention", data)

    def test_embedding_dim_is_the_embeddings_size(self):
        data = make_data()
        data.embedding_vectors = {token: np.full(3, 0.01) for token in TOKENS}
        config = ExperimentConfig(system="self_attention", target_sets=(1,),
                                  model_params=dict(TINY_MODEL), train_params=dict(TINY_TRAIN))
        # an explicit size that differs is rejected once, before any cell exists
        with pytest.raises(ValueError,
                           match="embedding_dim 6 does not match the 3-dimensional embeddings"):
            fold_cells(config, data)
        unsized = replace(config, model_params={
            key: value for key, value in TINY_MODEL.items() if key != "embedding_dim"})
        sized = replace(config, model_params={**TINY_MODEL, "embedding_dim": 3})
        assert prepare_cell(unsized, data, 1, data.folds[1][0]).model.config.embedding_dim == 3
        assert [r.test_predictions for r in run_experiment(unsized, data).fold_results] == \
               [r.test_predictions for r in run_experiment(sized, data).fold_results]

    def test_co_attention_runs_with_article(self):
        data = make_data(article="The sun rose early. Birds sang on the mat.")
        _, report = run_tiny("co_attention", data)
        assert len(report.fold_results) == 5

    def test_co_attention_test_scores_match_per_essay_forward(self):
        data = make_data(article="The sun rose early. Birds sang on the mat.")
        config = ExperimentConfig(system="co_attention", target_sets=(1,), seed=0,
                                  model_params=dict(TINY_MODEL, dropout=0.5),
                                  train_params=dict(TINY_TRAIN, epochs=2))
        fold = data.folds[1][0]
        result = run_fold(config, data, 1, fold)
        setup, _ = train_cell(config, data, 1, fold)  # same seed, same best state
        predictions = {}
        model = setup.model
        for example in setup.test_examples:
            article = model.encode_essay(model.article_sentence_ids, None)[1]
            score = model.forward(example.sentence_ids, article=article).score_value
            predictions[example.essay_id] = Prediction(
                denormalize_score(score, setup.essay_set), example.raw_score,
                (score - example.score_target) ** 2)
        assert result.test_predictions == predictions

    def test_co_attention_gaze_on_prompt_specific_set(self):
        data = make_data(article="The sun rose early. Birds sang.",
                         target_records=True)
        _, report = run_tiny("co_attention_gaze", data)
        assert len(report.fold_results) == 5
        assert all(r.n_augmented == 0 for r in report.fold_results)

    def test_unknown_target_set_rejected(self):
        data = make_data()
        with pytest.raises(ValueError, match="unknown target set"):
            run_tiny("self_attention", data, target_sets=(2,))

    def test_missing_folds_rejected(self):
        data = make_data()
        data.sets[2] = EssaySet(2, 1, 6)
        with pytest.raises(ValueError, match="no folds for set 2"):
            run_tiny("self_attention", data, target_sets=(2,))

    def test_log_receives_cell_lines(self):
        data = make_data()
        lines = []
        config = ExperimentConfig(system="self_attention", target_sets=(1,),
                                  model_params=dict(TINY_MODEL),
                                  train_params=dict(TINY_TRAIN))
        run_experiment(config, data, log=lines.append)
        cells = [l for l in lines if l.startswith("system=")]
        assert len(cells) == 5
        assert cells[0] == "system=self_attention set=1 fold=0"

    def test_vocab_size_override_rejected(self):
        data = make_data()
        params = dict(TINY_MODEL, vocab_size=100)
        with pytest.raises(ValueError, match="vocab_size"):
            run_tiny("self_attention", data, model_params=params)

    @pytest.mark.parametrize("model_params, train_params, message", [
        (dict(TINY_MODEL, dropout=1.5), TINY_TRAIN, "dropout"),
        (dict(TINY_MODEL, conv_kernel=4), TINY_TRAIN, "conv_kernel"),
        (dict(TINY_MODEL, vocab_size=100), TINY_TRAIN, "vocab_size"),
        (TINY_MODEL, dict(TINY_TRAIN, epochs=-1), "epochs"),
        (TINY_MODEL, dict(TINY_TRAIN, batch_size=0), "batch_size"),
    ], ids=["dropout", "conv_kernel", "vocab_size", "epochs", "batch_size"])
    def test_fold_cells_rejects_a_bad_cell_option(self, model_params, train_params,
                                                  message):
        # checked once for the run, while building its cells, not in each cell
        config = ExperimentConfig(system="self_attention", target_sets=(1,),
                                  model_params=dict(model_params),
                                  train_params=dict(train_params))
        with pytest.raises(ValueError, match=message):
            fold_cells(config, make_data())


def _cell_task(config, data, set_id, fold, log=None):
    """Picklable stand-in for run_fold: fold 2 fails, the rest echo their inputs."""
    if fold.fold_id == 2:
        raise LeakageError(f"set {set_id} fold {fold.fold_id} leaks")
    return (config.seed, set_id, fold.fold_id, data["offset"] + fold.fold_id)


def _fold_2_error(kind):
    """The exception ``_logging_task`` raises in fold 2 when its data is ``kind``."""
    if kind == "diverged":  # rebuilt from its fields when pickled, not from its __dict__
        return TrainingDiverged(1, 0, {"w": float("inf")})
    return LeakageError("fold 2 leaks")


def _logging_task(config, data, set_id, fold, log=None):
    """Picklable task that logs two lines per cell; fold 2 fails after its first."""
    log(f"start {fold.fold_id}")
    if fold.fold_id == 2:
        raise _fold_2_error(data)
    log(f"end {fold.fold_id}")
    return fold.fold_id


def _exiting_task(config, data, set_id, fold, log=None):
    """Picklable task whose process dies in fold ``data``."""
    if fold.fold_id == data:
        os._exit(1)
    return fold.fold_id


class TestExecuteCells:
    def test_failed_cell_does_not_stop_the_others(self):
        config = ExperimentConfig(system="self_attention", target_sets=(1,), seed=4)
        cells = fold_cells(config, make_data())
        outcomes = {}
        for jobs in (1, 2):
            results, failures = execute_cells(_cell_task, {"offset": 10}, cells, jobs=jobs)
            assert [cell for cell, _ in failures] == [cells[2]]
            outcomes[jobs] = (results, [(type(e), str(e)) for _, e in failures])
        assert outcomes[1] == outcomes[2]
        assert outcomes[1] == (
            [(4, 1, k, 10 + k) for k in (0, 1, 3, 4)],
            [(LeakageError, "set 1 fold 2 leaks")],
        )

    def test_log_gets_each_cell_label_in_order(self):
        config = ExperimentConfig(system="self_attention", target_sets=(1,))
        lines = []
        execute_cells(_cell_task, {"offset": 0}, fold_cells(config, make_data(), "probe"),
                      log=lines.append)
        assert lines == [f"probe set=1 fold={k}" for k in range(5)]

    def test_log_gets_each_cells_lines_after_its_label_at_any_jobs(self):
        cells = fold_cells(ExperimentConfig(system="self_attention", target_sets=(1,)),
                           make_data(), "probe")
        expected = []
        for k in range(5):
            expected += [f"probe set=1 fold={k}", f"start {k}"] + ([f"end {k}"] * (k != 2))
        for kind in ("leakage", "diverged"):
            error = _fold_2_error(kind)
            for jobs in (1, 2, 3):
                lines = []
                results, failures = execute_cells(_logging_task, kind, cells, jobs=jobs,
                                                  log=lines.append)
                assert lines == expected
                assert results == [0, 1, 3, 4]
                assert [(c, type(e), str(e)) for c, e in failures] == [
                    (cells[2], type(error), str(error))]

    def test_a_dead_worker_fails_its_cell(self):
        cells = fold_cells(ExperimentConfig(system="self_attention", target_sets=(1,)),
                           make_data(), "probe")
        lines = []
        results, failures = execute_cells(_exiting_task, 1, cells, jobs=2, log=lines.append)
        assert lines == [cell.label for cell in cells]
        failed = [cell for cell, _ in failures]
        assert cells[1] in failed
        assert all(isinstance(error, BrokenProcessPool) for _, error in failures)
        assert results == [c.fold.fold_id for c in cells if c not in failed]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fail_fast_logs_the_failed_cells_lines(self, jobs):
        # a failed cell lands in failures, its lines logged after its label,
        # and the next cell still runs
        cells = fold_cells(ExperimentConfig(system="self_attention", target_sets=(1,)),
                           make_data(), "probe")
        lines = []
        _, failures = execute_cells(_logging_task, "leakage", cells, jobs=jobs,
                                    log=lines.append)
        [(cell, error)] = failures
        assert cell is cells[2] and isinstance(error, LeakageError)
        assert str(error) == "fold 2 leaks"
        start = lines.index("probe set=1 fold=2")
        assert lines[start:start + 3] == ["probe set=1 fold=2", "start 2", "probe set=1 fold=3"]

    def test_workers_receive_data_once_and_cells_only_their_arguments(self, monkeypatch):
        made, submitted = [], []

        class Recording(experiments.ProcessPoolExecutor):
            def __init__(self, **kwargs):
                made.append(kwargs)
                super().__init__(**kwargs)

            def submit(self, fn, *args):
                submitted.append(args)
                return super().submit(fn, *args)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", Recording)
        data = {"offset": 10}
        cells = fold_cells(ExperimentConfig(system="self_attention", target_sets=(1,)),
                           make_data())
        results, _ = execute_cells(_cell_task, data, cells, jobs=8)
        assert [r[-1] for r in results] == [10, 11, 13, 14]
        assert len(made) == 1 and made[0]["initargs"] == (data, _cell_task)
        assert made[0]["max_workers"] == len(cells)
        assert submitted == [(c.config, c.set_id, c.fold) for c in cells]


class TestReportArithmetic:
    def test_set_mean_is_mean_of_fold_qwks(self):
        _, report = run_tiny("self_attention", make_data())
        folds = report.per_set()[1]
        expected = sum(r.test_qwk for r in folds) / len(folds)
        assert report.set_mean_qwk(1) == expected

    def test_grand_mean_is_mean_of_set_means(self):
        _, report = run_tiny("self_attention", make_data())
        means = report.set_means()
        assert report.grand_mean_qwk() == sum(means.values()) / len(means)

    def test_format_report_contains_means(self):
        _, report = run_tiny("self_attention", make_data())
        text = format_report(report)
        assert "grand mean qwk" in text
        assert "set 1 mean qwk" in text
        assert text.count("\n") >= 7


# ------------------------------------------------------------- leakage

class TestLeakage:
    def test_pool_overlapping_held_out_rejected(self):
        data = make_data(pool_size=6)
        fold0 = data.folds[1][0]
        poisoned = frozenset(data.gaze_essay_ids | {fold0.test[0]})
        bad = ExperimentData(essays=data.essays, sets=data.sets, folds=data.folds,
                             gaze_essay_ids=poisoned)
        with pytest.raises(LeakageError, match="held out"):
            run_tiny("extra_essays", bad)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_leaking_pool_is_rejected_before_any_cell(self, jobs, monkeypatch):
        data = make_data(pool_size=6)
        essay_id = data.folds[1][3].dev[0]
        bad = replace(data, gaze_essay_ids=data.gaze_essay_ids | {essay_id})
        config = ExperimentConfig(system="extra_essays", target_sets=(1,),
                                  model_params=dict(TINY_MODEL),
                                  train_params=dict(TINY_TRAIN))
        monkeypatch.setattr(experiments, "prepare_cell", None)  # no cell may start
        lines = []
        with pytest.raises(LeakageError, match=rf"gaze pool essays \[{essay_id}\] are held out"):
            run_experiment(config, bad, log=lines.append, jobs=jobs)
        assert lines == []

    def test_worker_cells_raise_their_own_exception(self):
        # fold 0's gaze records are all on its own dev and test essays
        data = make_data(article="The sun rose. Birds sang.", target_records=True)
        fold = data.folds[1][0]
        data.gaze_records = data.gaze_records.take(
            np.isin(data.gaze_records.essay_id, list(set(fold.dev) | set(fold.test))))
        config = ExperimentConfig(system="co_attention_gaze", target_sets=(1,),
                                  gaze_attributes=("DT",), model_params=dict(TINY_MODEL),
                                  train_params=dict(TINY_TRAIN))
        with pytest.raises(ValueError, match="all of them are on essays held out in set 1 fold 0"):
            run_experiment(config, data, jobs=2)

    def test_prepare_cell_still_rejects_a_leaking_pool(self):
        # called directly, without validate_run, the vocabulary check catches it
        data = make_data(pool_size=6)
        fold = data.folds[1][0]
        bad = replace(data, gaze_essay_ids=data.gaze_essay_ids | {fold.test[0]})
        config = ExperimentConfig(system="extra_essays", target_sets=(1,),
                                  model_params=dict(TINY_MODEL))
        with pytest.raises(LeakageError, match="vocabulary built from held-out essays"):
            prepare_cell(config, bad, 1, fold)

    def test_vocab_leakage_assertion_fires(self):
        data = make_data()
        from gazescore.corpus import build_vocab
        vocab = build_vocab([data.essays[100], data.essays[101]])
        with pytest.raises(LeakageError, match="vocabulary"):
            _assert_no_vocab_leakage(vocab, {101, 203})

    def test_vocab_leakage_assertion_passes_when_disjoint(self):
        data = make_data()
        from gazescore.corpus import build_vocab
        vocab = build_vocab([data.essays[100]])
        _assert_no_vocab_leakage(vocab, {101, 102})

    def test_stats_leakage_assertion_fires(self):
        essay_set = EssaySet(3, 0, 3)
        essay = make_essay(7, essay_set, np.random.default_rng(0))
        stats = reader_stats(GazeTable.from_records(make_records(essay)), {7: essay})
        with pytest.raises(LeakageError, match="held-out"):
            _assert_no_stats_leakage(stats, {7})
        _assert_no_stats_leakage(stats, {8})

    def test_held_out_gaze_records_are_excluded_from_stats(self):
        # prompt-specific gaze run where every essay has records: records for
        # the fold's dev/test essays must not reach reader statistics, and
        # the run must complete without tripping the assertions
        data = make_data(article="The sun rose. Birds sang.", target_records=True)
        _, report = run_tiny("co_attention_gaze", data)
        assert len(report.fold_results) == 5

    def test_cell_whose_gaze_records_are_all_held_out_fails(self):
        data = make_data(article="The sun rose. Birds sang.", target_records=True)
        fold = data.folds[1][0]
        held_out = set(fold.dev) | set(fold.test)
        data.gaze_records = data.gaze_records.take(
            np.isin(data.gaze_records.essay_id, list(held_out)))
        config = ExperimentConfig(system="co_attention_gaze", target_sets=(1,),
                                  model_params=dict(TINY_MODEL))
        fold_cells(config, data)  # the run as a whole has gaze records
        with pytest.raises(ValueError, match="all of them are on essays held out in set 1 fold 0"):
            prepare_cell(config, data, 1, fold)

    def test_leakage_error_is_assertion_error(self):
        assert issubclass(LeakageError, AssertionError)


@pytest.mark.parametrize("system", ["self_attention", "co_attention_gaze"])
def test_evaluation_never_calls_forward(system, monkeypatch):
    # dev QWK, loss breakdowns and test scoring all run on the batched evaluation
    # path; only training, which passes an rng, builds graphs through forward.
    # Dev QWK and test scoring ask for no gaze head, a loss breakdown for every one
    train_forward, forward_batch = EssayScorer.forward, EssayScorer.forward_batch
    asked = []  # the heads each forward_batch call asks for

    def training_only(self, sentence_ids, rng=None, article=None, heads=None):
        if rng is None:
            raise AssertionError("evaluation called EssayScorer.forward")
        return train_forward(self, sentence_ids, rng, article, heads)

    def recording(self, batch_sentence_ids, heads=None):
        asked.append(heads)
        return forward_batch(self, batch_sentence_ids, heads)

    monkeypatch.setattr(EssayScorer, "forward", training_only)
    monkeypatch.setattr(EssayScorer, "forward_batch", recording)
    data = make_data(article="The sun rose early. Birds sang on the mat.",
                     target_records=True)
    config = ExperimentConfig(system=system, target_sets=(1,), seed=0,
                              model_params=dict(TINY_MODEL, dropout=0.5),
                              train_params=dict(TINY_TRAIN, epochs=2))
    fold = data.folds[1][0]
    result = run_fold(config, data, 1, fold)  # a dev pass per epoch, then the test set
    assert len(result.test_predictions) == len(fold.test)
    setup = prepare_cell(config, data, 1, fold)
    assert -1.0 <= dev_qwk(setup.model, setup.dev_examples, data.sets) <= 1.0
    breakdown = evaluate_breakdown(setup.model, setup.dev_examples)
    assert asked == [(), (), (), (), None]  # two dev passes, the test set, dev_qwk, the breakdown
    assert math.isfinite(breakdown.score_mse)
    if system == "co_attention_gaze":
        assert breakdown.gaze_token_counts["DT"] > 0


class TestReaderFilters:
    """``reader_filter`` resolves once, as the records load, to every reader or a set of ids."""

    def load(self, tmp_path, reader_filter, metadata=None):
        essay = make_essay(7, EssaySet(3, 0, 3), np.random.default_rng(0))
        records = GazeTable.from_records(make_records(essay, "r1") + make_records(essay, "r2"))
        _write_records_csv(tmp_path / "gaze.csv", records)
        metadata_path = None
        if metadata is not None:
            metadata_path = tmp_path / "readers.csv"
            metadata_path.write_text(metadata)
        kept, _, essay_ids = load_selected_records(
            {"reader_filter": reader_filter}, tmp_path / "gaze.csv", metadata_path)
        assert essay_ids == {7}
        return records, kept

    def test_all_keeps_everything(self, tmp_path):
        records, kept = self.load(tmp_path, "all", "reader_id,native\nr1,0\n")
        assert list(kept.rows()) == list(records.rows())

    def test_native_only_uses_metadata(self, tmp_path):
        _, kept = self.load(tmp_path, "native_only", "reader_id,native\nr1,1\nr2,0\n")
        assert set(kept.reader_id.tolist()) == {"r1"}

    def test_native_only_without_metadata_rejected(self, tmp_path):
        for metadata in (None, "reader_id,native\nr1,no\n"):
            with pytest.raises(ValueError, match="native"):
                self.load(tmp_path, "native_only", metadata)

    def test_explicit_list_filters(self, tmp_path):
        _, kept = self.load(tmp_path, "r2")
        assert set(kept.reader_id.tolist()) == {"r2"}
        assert filter_readers(kept, frozenset({"r1"})).reader_id.tolist() == []


class TestExamplesFor:
    def test_attaches_binned_gaze_per_reader(self):
        # each example carries the binned sequences of its own essay's readers
        essay_set = EssaySet(3, 0, 3)
        rng = np.random.default_rng(0)
        essays = {i: make_essay(i, essay_set, rng) for i in (7, 8, 9)}
        records = GazeTable.from_records(
            make_records(essays[7], "r1") + make_records(essays[7], "r2")
            + make_records(essays[8], "r1"))
        sequences, _ = bin_all(records, reader_stats(records, essays), essays)
        vocab = build_vocab(essays.values())
        targets = {essay_id: gaze_targets(gaze) for essay_id, gaze in sequences.items()}
        examples = _examples_for([9, 8, 7], essays, vocab, targets)
        assert [ex.essay_id for ex in examples] == [9, 8, 7]
        assert examples[0].gaze_targets == {}
        for example, readers in ((examples[1], ("r1",)), (examples[2], ("r1", "r2"))):
            lists = gaze_lists(sequences[example.essay_id], len(essays[example.essay_id].tokens))
            gaze = {rid: lists[rid] for rid in readers}
            expected = prepare_example(replace(essays[example.essay_id], gaze=gaze), vocab)
            assert example.gaze_targets.keys() == expected.gaze_targets.keys()
            for attribute, (positions, values) in expected.gaze_targets.items():
                np.testing.assert_array_equal(example.gaze_targets[attribute][0], positions)
                np.testing.assert_array_equal(example.gaze_targets[attribute][1], values)
        assert all(essay.gaze is None for essay in essays.values())


def assert_same_gaze_targets(examples, reference):
    assert [ex.essay_id for ex in examples] == [ex.essay_id for ex in reference]
    for example, expected in zip(examples, reference):
        assert example.gaze_targets.keys() == expected.gaze_targets.keys()
        for attribute, (positions, values) in expected.gaze_targets.items():
            np.testing.assert_array_equal(example.gaze_targets[attribute][0], positions)
            np.testing.assert_array_equal(example.gaze_targets[attribute][1], values)


class TestGazeMemo:
    """A run bins its gaze once per distinct set of held-out gaze essays."""

    @pytest.fixture
    def gaze_passes(self, monkeypatch):
        calls = {"bin_all": 0, "reader_stats": 0}
        for name in calls:
            def counted(*args, _name=name, _original=getattr(experiments, name)):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(experiments, name, counted)
        return calls

    def essays_gaze(self):
        return ExperimentConfig(system="essays_gaze", target_sets=(1,), seed=0,
                                model_params=dict(TINY_MODEL), train_params=dict(TINY_TRAIN))

    def test_unseen_prompt_run_bins_once(self, gaze_passes):
        run_experiment(self.essays_gaze(), make_data(pool_size=6, with_records=True))
        assert gaze_passes == {"bin_all": 1, "reader_stats": 1}

    def test_ablation_bins_once(self, gaze_passes):
        data = make_data(pool_size=6, with_records=True)
        cells = ablation_cells(self.essays_gaze(), data, "DT")
        results, failures = execute_cells(run_fold, data, cells)
        assert failures == []
        assert len(results) == 10
        assert gaze_passes == {"bin_all": 1, "reader_stats": 1}

    def test_prompt_specific_gaze_bins_once_per_fold(self, gaze_passes):
        # every fold holds out other gaze essays, so none can reuse another's bins
        _, report = run_tiny("co_attention_gaze",
                             make_data(article="The sun rose. Birds sang.", target_records=True))
        assert len(report.fold_results) == 5
        assert gaze_passes == {"bin_all": 5, "reader_stats": 5}

    def test_cells_sharing_held_out_gaze_share_target_arrays(self):
        data = make_data(pool_size=6, with_records=True)
        first, second = (prepare_cell(self.essays_gaze(), data, 1, fold)
                         for fold in data.folds[1][:2])
        pool = {ex.essay_id: ex for ex in first.train_examples if ex.gaze_targets}
        assert set(pool) == data.gaze_essay_ids
        for example in second.train_examples:
            if example.essay_id in pool:
                assert example.gaze_targets is pool[example.essay_id].gaze_targets

    # essays_gaze on pool records reuses fold 0's entry; on target-set records
    # co_attention_gaze holds out other gaze essays in fold 1 and replaces it
    @pytest.mark.parametrize("system", ["essays_gaze", "co_attention_gaze"])
    def test_a_memo_of_another_fold_changes_no_example(self, system):
        def fresh():
            return make_data(pool_size=6, with_records=system == "essays_gaze",
                             target_records=system == "co_attention_gaze",
                             article="The sun rose. Birds sang.")

        config = replace(self.essays_gaze(), system=system)
        data = fresh()
        folds = data.folds[1]
        prepare_cell(config, data, 1, folds[0])
        reused = prepare_cell(config, data, 1, folds[1])
        reference = prepare_cell(config, fresh(), 1, folds[1])
        for role in ("train_examples", "dev_examples", "test_examples"):
            assert_same_gaze_targets(getattr(reused, role), getattr(reference, role))
        assert any(ex.gaze_targets for ex in reused.train_examples)
        assert any(ex.gaze_targets for ex in reused.dev_examples) == (system != "essays_gaze")
        assert all(ex.gaze_targets == {} for ex in reused.test_examples)

    # E, the only target-set essay with gaze, is fold 0's dev essay: fold 4 trains
    # on it (statistics must be redone) and fold 1 tests on it (bins must be redone)
    @pytest.mark.parametrize("earlier_fold", [4, 1])
    def test_the_key_holds_the_held_out_and_the_test_gaze_essays(self, earlier_fold):
        def fresh():
            data = make_data(pool_size=6, with_records=True)
            dev_essay = data.essays[data.folds[1][0].dev[0]]
            data.gaze_records = with_records(data.gaze_records, make_records(dev_essay))
            return data

        config = self.essays_gaze()
        data = fresh()
        folds = data.folds[1]
        assert folds[0].dev[0] in folds[1].test
        prepare_cell(config, data, 1, folds[earlier_fold])
        reused = prepare_cell(config, data, 1, folds[0])
        reference = prepare_cell(config, fresh(), 1, folds[0])
        assert reference.dev_examples[0].gaze_targets
        for role in ("train_examples", "dev_examples"):
            assert_same_gaze_targets(getattr(reused, role), getattr(reference, role))

    def test_replaced_records_are_binned_again(self, gaze_passes):
        data = make_data(article="The sun rose. Birds sang.", target_records=True)
        config = replace(self.essays_gaze(), system="co_attention_gaze")
        fold = data.folds[1][0]
        before = prepare_cell(config, data, 1, fold)
        data.gaze_records = dwell_times_scaled_by_essay(data.gaze_records)
        after = prepare_cell(config, data, 1, fold)
        assert gaze_passes == {"bin_all": 2, "reader_stats": 2}
        reference = make_data(article="The sun rose. Birds sang.", target_records=True)
        reference.gaze_records = data.gaze_records
        expected = prepare_cell(config, reference, 1, fold)
        for role in ("train_examples", "dev_examples"):
            assert_same_gaze_targets(getattr(after, role), getattr(expected, role))
        assert any(not np.array_equal(old.gaze_targets["DT"][1], new.gaze_targets["DT"][1])
                   for old, new in zip(before.train_examples, after.train_examples))


# ------------------------------------------------------------ ablation

class TestAblate:
    def test_zero_weight_attribute_has_zero_delta(self):
        # the attribute already contributes nothing, so disabling it must
        # reproduce the identical run and a delta of exactly zero
        data = make_data(pool_size=6, with_records=True)
        config = ExperimentConfig(
            system="essays_gaze", target_sets=(1,), seed=0,
            gaze_attributes=("DT",), gaze_loss_weights={"DT": 0.0},
            model_params=dict(TINY_MODEL), train_params=dict(TINY_TRAIN),
        )
        cells = ablation_cells(config, data, "DT")
        results, failures = execute_cells(run_fold, data, cells)
        assert failures == []
        report = ablation_report("DT", cells, results)
        assert isinstance(report, AblationReport)
        assert report.delta_grand() == 0.0
        assert report.delta_per_set() == {1: 0.0}
        full = [r.test_qwk for r in report.full.fold_results]
        ablated = [r.test_qwk for r in report.ablated.fold_results]
        assert full == ablated

    def test_ablated_run_echoes_zeroed_weight(self):
        data = make_data(pool_size=6, with_records=True)
        config = ExperimentConfig(
            system="essays_gaze", target_sets=(1,), seed=0,
            gaze_attributes=("DT", "Skip"),
            gaze_loss_weights={"DT": 0.05, "Skip": 0.1},
            model_params=dict(TINY_MODEL), train_params=dict(TINY_TRAIN),
        )
        cells = ablation_cells(config, data, "Skip")
        half = len(cells) // 2
        assert half > 0 and len(cells) == 2 * half
        for cell in cells[:half]:
            assert cell.config.gaze_loss_weights == {"DT": 0.05, "Skip": 0.1}
        for cell in cells[half:]:
            assert cell.config.gaze_loss_weights == {"DT": 0.05, "Skip": 0.0}
        model = prepare_cell(cells[-1].config, data, 1, cells[-1].fold).model
        assert model.config.gaze_loss_weights == {"DT": 0.05, "Skip": 0.0}

    def test_ablate_rejects_gazeless_system(self):
        data = make_data()
        config = ExperimentConfig(system="self_attention", target_sets=(1,),
                                  model_params=dict(TINY_MODEL),
                                  train_params=dict(TINY_TRAIN))
        with pytest.raises(ValueError, match="no gaze loss"):
            ablation_cells(config, data, "DT")

    def test_ablate_rejects_unconfigured_attribute(self):
        data = make_data(pool_size=6, with_records=True)
        config = ExperimentConfig(
            system="essays_gaze", target_sets=(1,),
            gaze_attributes=("DT",), gaze_loss_weights={"DT": 0.05},
            model_params=dict(TINY_MODEL), train_params=dict(TINY_TRAIN),
        )
        with pytest.raises(ValueError, match="not among configured"):
            ablation_cells(config, data, "IR")


# ---------------------------------------------------------- comparison

def synthetic_report(system, errors_by_fold, qwk_value=0.5):
    """Assemble an ExperimentReport without training anything."""
    results = []
    for fold_id, errors in enumerate(errors_by_fold):
        results.append(FoldResult(
            set_id=1, fold_id=fold_id, test_qwk=qwk_value,
            best_epoch=0, best_dev_qwk=float("nan"),
            test_predictions={eid: Prediction(1, 1, error) for eid, error in errors.items()},
            n_train=6, n_augmented=0,
        ))
    return ExperimentReport(system=system, seed=0, fold_results=tuple(results))


class TestCompare:
    def errors(self, values, start=0):
        return {start + i: v for i, v in enumerate(values)}

    def test_matches_direct_paired_t_test(self):
        report_a = synthetic_report("a", [self.errors([0.1, 0.2, 0.3])])
        report_b = synthetic_report("b", [self.errors([0.2, 0.1, 0.5])])
        result = compare(report_a, report_b)
        direct = paired_t_test([0.1, 0.2, 0.3], [0.2, 0.1, 0.5])
        assert result.overall == direct
        assert result.per_set[1] == direct
        assert result.system_a == "a" and result.system_b == "b"

    def test_antisymmetric_in_argument_order(self):
        report_a = synthetic_report("a", [self.errors([0.1, 0.4, 0.2, 0.9])])
        report_b = synthetic_report("b", [self.errors([0.3, 0.1, 0.6, 0.2])])
        ab = compare(report_a, report_b)
        ba = compare(report_b, report_a)
        assert ab.overall.t_statistic == -ba.overall.t_statistic
        assert ab.overall.p_value == ba.overall.p_value

    def test_pairs_matched_by_essay_id_not_order(self):
        report_a = synthetic_report("a", [{10: 0.1, 11: 0.2}])
        report_b = synthetic_report("b", [{11: 0.4, 10: 0.3}])
        result = compare(report_a, report_b)
        direct = paired_t_test([0.1, 0.2], [0.3, 0.4])
        assert result.overall == direct

    def test_self_comparison_rejected(self):
        report = synthetic_report("a", [self.errors([0.1, 0.2, 0.3])])
        with pytest.raises(ValueError, match="zero variance"):
            compare(report, report)

    def test_fold_mismatch_rejected(self):
        report_a = synthetic_report("a", [self.errors([0.1, 0.2])])
        report_b = synthetic_report("b", [self.errors([0.1, 0.2]),
                                          self.errors([0.3, 0.4], start=10)])
        with pytest.raises(ValueError, match="different sets or folds"):
            compare(report_a, report_b)

    def test_different_test_essays_rejected(self):
        report_a = synthetic_report("a", [{1: 0.1, 2: 0.2}])
        report_b = synthetic_report("b", [{1: 0.1, 3: 0.2}])
        with pytest.raises(ValueError, match="share fold files"):
            compare(report_a, report_b)

    def test_significance_flag(self):
        report_a = synthetic_report("a", [self.errors([0.0, 0.0, 0.0, 0.01])])
        report_b = synthetic_report("b", [self.errors([0.9, 0.91, 0.92, 0.93])])
        result = compare(report_a, report_b)
        assert isinstance(result, ComparisonReport)
        assert result.overall.p_value < 0.05
        assert result.significant

    def test_pairing_description_mentions_squared_error(self):
        report_a = synthetic_report("a", [self.errors([0.1, 0.2, 0.3])])
        report_b = synthetic_report("b", [self.errors([0.2, 0.1, 0.5])])
        assert "squared error" in compare(report_a, report_b).pairing


class TestCompareEndToEnd:
    def test_two_real_runs_compare(self):
        data = make_data()
        report_a = run_tiny("self_attention", data)[1]
        report_b = run_tiny("self_attention", data, seed=99)[1]
        result = compare(report_a, report_b)
        assert result.overall.n_pairs == 10
        assert math.isfinite(result.overall.t_statistic)
        assert 0.0 <= result.overall.p_value <= 1.0


# --------------------------------------------------------- grid search

class TestGridCell:
    def base_config(self):
        return ExperimentConfig(
            system="co_attention_gaze", target_sets=(1,), seed=0,
            model_params=dict(TINY_MODEL), train_params=dict(TINY_TRAIN),
        )

    def run_grid(self, config, data, attributes, weights):
        cells = grid_cells(config, data, attributes, weights)
        results, failures = execute_cells(grid_fold, data, cells)
        assert failures == []
        return cells, results

    def test_returns_one_pair_per_fold_with_dev_labels(self):
        data = make_data(article="The sun rose. Birds sang.", target_records=True)
        _, results = self.run_grid(self.base_config(), data, ("DT",), (0.05,))
        assert len(results) == 5
        for mse, count in results:
            assert count > 0
            assert mse >= 0.0

    def test_unlabeled_dev_partitions_report_zero_counts(self):
        # unseen-prompt setting: the target set's dev essays carry no gaze;
        # grid_cells rejects such a run, so its cells are built directly
        data = make_data(pool_size=6, with_records=True)
        config = ExperimentConfig(
            system="essays_gaze", target_sets=(1,), seed=0, gaze_attributes=("DT",),
            model_params=dict(TINY_MODEL), train_params=dict(TINY_TRAIN),
        )
        results, failures = execute_cells(grid_fold, data, fold_cells(config, data))
        assert failures == []
        assert len(results) == 5
        assert all(count == 0 for _, count in results)

    def test_rejects_a_non_finite_weight(self):
        data = make_data(article="The sun rose. Birds sang.", target_records=True)
        with pytest.raises(ValueError, match="gaze loss weight for DT must be finite, got nan"):
            grid_cells(self.base_config(), data, ("DT",), (0.05, math.nan))

    def test_rejects_a_run_without_dev_gaze(self):
        data = make_data(pool_size=6, with_records=True)
        config = replace(self.base_config(), system="essays_gaze")
        with pytest.raises(ValueError, match=r"no dev essay of target sets \[1\] has a gaze"):
            grid_cells(config, data, ("DT",), (0.05, 0.5))
        # a dev record that bin_all cannot place (ia_index out of range) is no dev gaze
        dev_essay = data.essays[data.folds[1][0].dev[0]]
        data.gaze_records = with_records(data.gaze_records,
                                         [make_records(dev_essay)[0]._replace(ia_index=999)])
        with pytest.raises(ValueError, match=r"no dev essay of target sets \[1\] has a gaze"):
            grid_cells(config, data, ("DT",), (0.05, 0.5))
        # one target-set dev record is enough
        data.gaze_records = with_records(data.gaze_records, make_records(dev_essay))
        assert len(grid_cells(config, data, ("DT",), (0.05, 0.5))) == 10

    def test_dev_examples_carry_gaze_binned_with_train_side_statistics(self):
        data = make_data(article="The sun rose. Birds sang.", target_records=True)
        # dwell times vary by essay, so statistics that saw the dev records would differ
        data.gaze_records = dwell_times_scaled_by_essay(data.gaze_records)
        fold = data.folds[1][0]
        setup = prepare_cell(self.base_config(), data, 1, fold)
        held_out = set(fold.dev) | set(fold.test)
        records = data.gaze_records
        stats = reader_stats(records.take(~np.isin(records.essay_id, list(held_out))),
                             data.essays)
        sequences, _ = bin_all(records.take(np.isin(records.essay_id, list(fold.dev))),
                               stats, data.essays)
        vocab = build_vocab([data.essays[i] for i in fold.train])
        targets = {essay_id: gaze_targets(gaze) for essay_id, gaze in sequences.items()}
        expected = _examples_for(fold.dev, data.essays, vocab, targets)
        assert [ex.essay_id for ex in setup.dev_examples] == list(fold.dev)
        for example, reference in zip(setup.dev_examples, expected):
            assert example.gaze_targets.keys() == reference.gaze_targets.keys() != set()
            for attribute, (positions, values) in reference.gaze_targets.items():
                np.testing.assert_array_equal(example.gaze_targets[attribute][0], positions)
                np.testing.assert_array_equal(example.gaze_targets[attribute][1], values)
        assert all(ex.gaze_targets == {} for ex in setup.test_examples)

    def test_feeds_grid_search_selection(self):
        data = make_data(article="The sun rose. Birds sang.", target_records=True)
        best, table = grid_report(*self.run_grid(self.base_config(), data, ("DT",), (0.05, 0.1)))
        assert best["DT"] in (0.05, 0.1)
        assert set(table["DT"]) == {0.05, 0.1}
        assert table["DT"][best["DT"]] == min(table["DT"].values())

    def test_rejects_gazeless_system(self):
        data = make_data(article="The sun rose. Birds sang.", target_records=True)
        config = replace(self.base_config(), system="co_attention")
        with pytest.raises(ValueError, match="no gaze loss to search over"):
            grid_cells(config, data, ("DT",), (0.05,))

    def test_rejects_an_empty_grid(self):
        # no cells would mean no validate_run: set 2 does not exist
        config = replace(self.base_config(), target_sets=(2,))
        for attributes, weights in ((), (0.05,)), (("DT",), ()):
            with pytest.raises(ValueError, match="at least one attribute and one weight"):
                grid_cells(config, make_data(), attributes, weights)

    def test_assemble_report_orders_folds(self):
        config = ExperimentConfig(system="self_attention", target_sets=(1,))
        results = [
            FoldResult(set_id=1, fold_id=k, test_qwk=0.5, best_epoch=0,
                       best_dev_qwk=0.5, test_predictions={},
                       n_train=6, n_augmented=0)
            for k in (3, 0, 4, 1, 2)
        ]
        report = assemble_report(config, results)
        assert [r.fold_id for r in report.fold_results] == [0, 1, 2, 3, 4]
        assert report.system == "self_attention"


class TestGridReport:
    def report(self, folds_of_point):
        """grid_report of one cell per (dev gaze MSE, token count) of each (attribute, weight)."""
        config = ExperimentConfig(system="co_attention_gaze", target_sets=(1,))
        cells, results = [], []
        for (attribute, weight), folds in folds_of_point.items():
            point = replace(config, gaze_attributes=(attribute,),
                            gaze_loss_weights={attribute: weight})
            for fold_id, result in enumerate(folds):
                cells.append(Cell(point, 1, None, f"{attribute} {weight} fold={fold_id}"))
                results.append(result)
        return grid_report(cells, results)

    def test_single_value_grid(self):
        best, table = self.report({("DT", 0.05): [(0.3, 10)]})
        assert best == {"DT": 0.05}
        assert table["DT"][0.05] == pytest.approx(0.3)

    def test_picks_minimum_mse(self):
        mse = {0.5: 0.30, 0.1: 0.20, 0.05: 0.10, 0.01: 0.15, 0.001: 0.25}
        best, _ = self.report({("FFD", weight): [(mse[weight], 100)]
                               for weight in sorted(GAZE_WEIGHT_GRID)})
        assert best == {"FFD": 0.05}

    def test_token_weighted_fold_mean(self):
        best, table = self.report({("DT", 0.01): [(0.25, 2), (0.25, 2)],  # mean 0.25
                                   ("DT", 0.1): [(0.0, 1), (0.4, 3)]})    # mean 0.3
        assert table["DT"][0.1] == pytest.approx(0.3)
        assert table["DT"][0.01] == pytest.approx(0.25)
        assert best == {"DT": 0.01}

    def test_tie_breaks_to_smaller_weight(self):
        best, _ = self.report({("Skip", w): [(0.2, 5)] for w in (0.5, 0.001, 0.05)})
        assert best == {"Skip": 0.001}

    def test_rejects_unlabeled_attribute(self):
        with pytest.raises(ValueError, match="no labeled tokens for DT"):
            self.report({("DT", 0.1): [(0.0, 0)]})
