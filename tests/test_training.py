"""Training-loop tests: loss algebra, determinism, selection, equivalences."""

import gc
import math
import pickle
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from gazescore import numerics
from gazescore import training as training_module
from gazescore.corpus import Essay, EssaySet, Vocabulary, build_vocab, denormalize_score
from gazescore.gaze import BinnedGaze, collector_paused
from gazescore.metrics import qwk
from gazescore.model import ARCHITECTURES, EssayScorer, ModelConfig
from gazescore.numerics import backward, zero_grads
from gazescore.optim import RMSProp
from gazescore.training import (
    EpochStats,
    LossBreakdown,
    TrainConfig,
    TrainExample,
    TrainingDiverged,
    dev_qwk,
    evaluate_breakdown,
    format_epoch_line,
    multitask_loss,
    prepare_example,
    train,
)

SETS = {3: EssaySet(3, 0, 3)}
TINY = dict(embedding_dim=4, conv_kernel=3, conv_filters=3, lstm_hidden=3,
            modeling_hidden=3, dropout=0.0, vocab_size=12)


ARTICLE = [[2, 3, 4], [5, 6, 7, 8], [9, 10]]


def tiny_model(gaze=(), weights=None, seed=1, architecture="self_attention", **overrides):
    params = dict(TINY)
    params.update(overrides)
    config = ModelConfig(architecture=architecture, gaze_attributes=tuple(gaze),
                         gaze_loss_weights=weights or {}, **params)
    article = ARTICLE if architecture == "co_attention" else None
    return EssayScorer(config, np.random.default_rng(seed), article_sentence_ids=article)


def make_examples(n=10, with_gaze=False, seed=0, base=100):
    rng = np.random.default_rng(seed)
    examples = []
    for i in range(n):
        n_sent = int(rng.integers(1, 4))
        sents = [[int(rng.integers(2, 12)) for _ in range(int(rng.integers(2, 6)))]
                 for _ in range(n_sent)]
        raw = i % 4
        gaze_targets = {}
        if with_gaze:
            flat = [t for s in sents for t in s]
            idx = np.arange(len(flat), dtype=np.int64)
            # bin value is a pure function of the token id
            dt = np.array([1.0 if t % 2 == 0 else 0.2 for t in flat])
            gaze_targets["DT"] = (idx, dt)
        examples.append(TrainExample(
            essay_id=i + base, set_id=3, sentence_ids=sents,
            score_target=raw / 3, raw_score=raw, gaze_targets=gaze_targets))
    return examples


def zeroed(model):
    model.load_state_dict({k: np.zeros_like(v) for k, v in model.state_dict().items()})
    return model


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_train_config_defaults_match_published_values():
    config = TrainConfig()
    assert config.batch_size == 100
    assert config.epochs == 100
    assert config.learning_rate == 0.001
    assert config.momentum == 0.9


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)


# ---------------------------------------------------------------------------
# multitask loss
# ---------------------------------------------------------------------------

def test_loss_score_only_half_prediction():
    # zero parameters make the score exactly 0.5; target 1.0 -> MSE 0.25
    model = zeroed(tiny_model())
    example = make_examples(1)[0]
    example.score_target = 1.0
    outputs = [model.forward(example.sentence_ids)]
    loss, breakdown = multitask_loss(outputs, [example], {})
    assert float(loss.data) == pytest.approx(0.25)
    assert breakdown.score_mse == pytest.approx(0.25)
    assert sum(breakdown.gaze_token_counts.values()) == 0


def test_loss_without_gaze_labels_equals_score_mse():
    model = tiny_model(gaze=("DT",), weights={"DT": 0.5})
    examples = make_examples(3)  # no gaze targets attached
    outputs = [model.forward(ex.sentence_ids) for ex in examples]
    loss, breakdown = multitask_loss(outputs, examples, {"DT": 0.5})
    assert float(loss.data) == pytest.approx(breakdown.score_mse)
    assert breakdown.gaze_mse["DT"] == 0.0


def test_loss_perfect_predictions_vanish():
    model = tiny_model(gaze=("DT",))
    example = make_examples(1, with_gaze=True)[0]
    out = model.forward(example.sentence_ids)
    example.score_target = out.score_value
    idx = example.gaze_targets["DT"][0]
    example.gaze_targets["DT"] = (idx, out.gaze_predictions["DT"].data[idx, 0].copy())
    loss, breakdown = multitask_loss([out], [example], {"DT": 0.5})
    assert breakdown.score_mse == pytest.approx(0.0, abs=1e-18)
    assert breakdown.gaze_mse["DT"] == pytest.approx(0.0, abs=1e-18)
    assert float(loss.data) == pytest.approx(0.0, abs=1e-18)


def test_loss_weighted_total_identity():
    model = tiny_model(gaze=("DT",))
    examples = make_examples(4, with_gaze=True)
    outputs = [model.forward(ex.sentence_ids) for ex in examples]
    weights = {"DT": 0.05}
    loss, breakdown = multitask_loss(outputs, examples, weights)
    assert float(loss.data) == pytest.approx(
        breakdown.score_mse + 0.05 * breakdown.gaze_mse["DT"])


def test_loss_rejects_empty_batch():
    with pytest.raises(ValueError):
        multitask_loss([], [], {})


def test_loss_batch_composition_invariance():
    # union loss equals the count-weighted mean of split losses
    model = tiny_model(gaze=("DT",))
    examples = make_examples(6, with_gaze=True)
    outputs = [model.forward(ex.sentence_ids) for ex in examples]
    _, union = multitask_loss(outputs, examples, {"DT": 0.1})
    _, part_a = multitask_loss(outputs[:2], examples[:2], {"DT": 0.1})
    _, part_b = multitask_loss(outputs[2:], examples[2:], {"DT": 0.1})
    score_mean = (part_a.score_mse * 2 + part_b.score_mse * 4) / 6
    assert union.score_mse == pytest.approx(score_mean, rel=1e-12)
    tokens_a = part_a.gaze_token_counts["DT"]
    tokens_b = part_b.gaze_token_counts["DT"]
    gaze_mean = (part_a.gaze_mse["DT"] * tokens_a + part_b.gaze_mse["DT"] * tokens_b) \
        / (tokens_a + tokens_b)
    assert union.gaze_mse["DT"] == pytest.approx(gaze_mean, rel=1e-12)
    assert union.gaze_token_counts["DT"] == tokens_a + tokens_b


def test_zero_weight_terms_stay_out_of_the_graph():
    model = tiny_model(gaze=("DT",))
    examples = make_examples(2, with_gaze=True)
    outputs = [model.forward(ex.sentence_ids) for ex in examples]
    loss, breakdown = multitask_loss(outputs, examples, {"DT": 0.0})
    assert breakdown.gaze_mse["DT"] > 0.0  # still measured
    params = model.parameters()
    zero_grads(params)
    backward(loss, parameters=params)
    named = model.named_parameters()
    np.testing.assert_array_equal(named["gaze.DT.w"].grad,
                                  np.zeros_like(named["gaze.DT.w"].data))
    assert np.any(named["conv.w"].grad != 0)


# ---------------------------------------------------------------------------
# example preparation
# ---------------------------------------------------------------------------

def test_prepare_example_encodes_and_collects_targets():
    essay = Essay(essay_id=7, set_id=3,
                  sentences=[["alpha", "beta"], ["gamma"]],
                  raw_score=2, normalized_score=2 / 3)
    binned = BinnedGaze(dt_bin=5, ffd_bin=0, ir_bin=1, rc_bin=2, skip_bin=0)
    essay.gaze = {
        "r2": [None, binned, None],
        "r1": [binned, None, None],
    }
    vocab = build_vocab([Essay(1, 3, [["alpha", "beta", "gamma"]], 1, 1 / 3)])
    example = prepare_example(essay, vocab)
    assert example.essay_id == 7
    assert example.sentence_ids == [[vocab.index("alpha"), vocab.index("beta")],
                                    [vocab.index("gamma")]]
    assert example.score_target == pytest.approx(2 / 3)
    idx, values = example.gaze_targets["DT"]
    # readers iterate in sorted order: r1 labels token 0, r2 labels token 1
    np.testing.assert_array_equal(idx, [0, 1])
    np.testing.assert_allclose(values, [1.0, 1.0])
    idx_rc, values_rc = example.gaze_targets["RC"]
    np.testing.assert_allclose(values_rc, [0.4, 0.4])


def test_gaze_target_arrays_are_read_only():
    # examples of several cells share one essay's target arrays
    essay = Essay(essay_id=7, set_id=3, sentences=[["alpha", "beta"]],
                  raw_score=2, normalized_score=2 / 3)
    binned = BinnedGaze(dt_bin=5, ffd_bin=0, ir_bin=1, rc_bin=2, skip_bin=0)
    essay.gaze = {"r1": [binned, None], "r2": [None, binned]}
    example = prepare_example(essay, build_vocab([essay]))
    assert set(example.gaze_targets) == {"DT", "FFD", "IR", "RC", "Skip"}
    for positions, values in example.gaze_targets.values():
        for array in (positions, values):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0


def test_prepare_example_without_gaze():
    essay = Essay(essay_id=7, set_id=3, sentences=[["alpha"]],
                  raw_score=0, normalized_score=0.0)
    vocab = build_vocab([essay])
    assert prepare_example(essay, vocab).gaze_targets == {}


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_identical_seeds_identical_histories():
    def run():
        model = tiny_model(gaze=("DT",), weights={"DT": 0.1})
        result = train(model, make_examples(6, with_gaze=True), make_examples(3, seed=9, base=900),
                       TrainConfig(batch_size=2, epochs=3, seed=5), SETS)
        return result

    a, b = run(), run()
    assert [s.breakdown.score_mse for s in a.history] == \
           [s.breakdown.score_mse for s in b.history]
    assert [s.dev_qwk for s in a.history] == [s.dev_qwk for s in b.history]
    for name in a.final_state:
        np.testing.assert_array_equal(a.final_state[name], b.final_state[name])


def test_zero_epochs_returns_initial_checkpoint():
    model = tiny_model()
    before = model.state_dict()
    result = train(model, make_examples(4), [], TrainConfig(epochs=0, seed=0), SETS)
    assert result.history == []
    assert math.isnan(result.best_dev_qwk)
    for name, arr in before.items():
        np.testing.assert_array_equal(result.best_state[name], arr)


def test_overfit_smoke_ten_essays():
    # 10-essay synthetic set, 200 epochs at lr 0.001 drives score MSE
    # under 1e-3 (frozen development oracle)
    model = tiny_model(embedding_dim=8, conv_filters=6, lstm_hidden=6,
                       modeling_hidden=6)
    result = train(model, make_examples(10), [],
                   TrainConfig(batch_size=1, epochs=200, seed=7), SETS)
    assert result.history[-1].breakdown.score_mse < 1e-3


def test_gaze_mse_halves_on_deterministic_bins():
    # gaze targets are a pure function of token identity, so 100 epochs
    # must cut the configured attribute's MSE by at least half
    model = tiny_model(gaze=("DT",), weights={"DT": 0.5})
    examples = make_examples(8, with_gaze=True)
    initial = evaluate_breakdown(model, examples)
    result = train(model, examples, [], TrainConfig(batch_size=2, epochs=100, seed=7), SETS)
    assert initial.gaze_mse["DT"] > 0
    assert result.history[-1].breakdown.gaze_mse["DT"] <= 0.5 * initial.gaze_mse["DT"]


def test_divergence_aborts_with_diagnostics():
    model = tiny_model()
    model.embedding.data[2, 0] = np.nan
    with pytest.raises(TrainingDiverged) as excinfo:
        train(model, make_examples(4), [], TrainConfig(batch_size=2, epochs=1, seed=0),
              SETS)
    assert excinfo.value.epoch == 1
    assert excinfo.value.batch_index == 0
    assert "embedding" in excinfo.value.param_norms
    assert "epoch 1" in str(excinfo.value)


def test_divergence_in_the_dev_pass_aborts_with_diagnostics():
    # the epoch's only step throws the parameters far enough out that the dev
    # pass predicts nan, although every batch loss was finite
    config = TrainConfig(batch_size=4, epochs=1, seed=0, learning_rate=1e200)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(TrainingDiverged) as excinfo:
        train(tiny_model(), make_examples(4), make_examples(3, base=900), config, SETS)
    assert (excinfo.value.epoch, excinfo.value.batch_index) == (1, None)
    assert "embedding" in excinfo.value.param_norms
    assert str(excinfo.value).startswith("non-finite prediction at epoch 1, dev pass; ")
    # without a dev set nothing is scored, so the same step ends in a nan QWK
    with np.errstate(over="ignore", invalid="ignore"):
        result = train(tiny_model(), make_examples(4), [], config, SETS)
    assert math.isnan(result.best_dev_qwk)


def test_divergence_survives_pickling():
    # a worker process hands the exception back to the parent by pickle
    for batch_index in (1, None):
        error = TrainingDiverged(3, batch_index, {"embedding": 2.5, "conv": 1.0})
        copy = pickle.loads(pickle.dumps(error))
        assert (copy.epoch, copy.batch_index, copy.param_norms) == (3, batch_index,
                                                                     error.param_norms)
        assert str(copy) == str(error)


def test_divergence_names_the_parameter_that_blew_up():
    # a norm that squares its entries overflows above about 1e154, so every
    # norm read inf and the message named the first three parameters
    model = tiny_model()
    model.conv_w.data[:] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norms = training_module._param_norms(model)
        message = str(TrainingDiverged(1, 0, norms))
    assert math.isfinite(norms["conv.w"]) and norms["conv.w"] > 1e200
    assert message.split("largest parameter norms: ")[1].startswith("conv.w=")
    for name, tensor in model.named_parameters().items():
        if name != "conv.w":
            assert norms[name] == pytest.approx(np.linalg.norm(tensor.data), rel=1e-12), name
    assert norms["conv.b"] == 0.0
    model.conv_b.data[1] = np.nan
    model.lstm_b.data[0] = -np.inf
    norms = training_module._param_norms(model)
    assert norms["conv.b"] == norms["lstm.b"] == math.inf


def test_train_rejects_overlapping_dev():
    examples = make_examples(4)
    with pytest.raises(ValueError, match="overlap"):
        train(tiny_model(), examples, examples[:1], TrainConfig(epochs=1), SETS)


def test_warning_when_attribute_unlabeled():
    model = tiny_model(gaze=("IR",), weights={"IR": 0.01})
    with pytest.warns(UserWarning, match="IR"):
        train(model, make_examples(2), [], TrainConfig(epochs=0, seed=0), SETS)


def test_checkpoint_selection_best_dev_qwk():
    model = tiny_model()
    result = train(model, make_examples(8), make_examples(4, seed=33, base=900),
                   TrainConfig(batch_size=2, epochs=5, seed=3), SETS)
    qwks = [s.dev_qwk for s in result.history]
    best = max(qwks)
    assert result.best_dev_qwk == best
    # ties break toward the earlier epoch
    assert result.best_epoch == qwks.index(best) + 1


def test_empty_dev_selects_final_checkpoint():
    model = tiny_model()
    result = train(model, make_examples(4), [],
                   TrainConfig(batch_size=2, epochs=3, seed=0), SETS)
    assert all(math.isnan(s.dev_qwk) for s in result.history)
    for name in result.final_state:
        np.testing.assert_array_equal(result.best_state[name], result.final_state[name])
    assert result.best_epoch == 3


def test_zero_gaze_weight_run_matches_no_gaze_loss_run_bitwise():
    def run(weights):
        model = tiny_model(gaze=("DT", "Skip"), weights=weights, seed=2)
        examples = make_examples(6, with_gaze=True)
        with pytest.warns(UserWarning, match="Skip"):  # Skip has no labels here
            return train(model, examples, make_examples(3, seed=9, base=900),
                         TrainConfig(batch_size=3, epochs=3, seed=11), SETS)

    zero_weighted = run({"DT": 0.0, "Skip": 0.0})
    unweighted = run({})
    for name in zero_weighted.final_state:
        np.testing.assert_array_equal(zero_weighted.final_state[name],
                                      unweighted.final_state[name])
    assert [s.dev_qwk for s in zero_weighted.history] == \
           [s.dev_qwk for s in unweighted.history]


def test_zero_gaze_weight_run_matches_headless_model_on_shared_parameters():
    examples = make_examples(6, with_gaze=True)
    dev = make_examples(3, seed=9, base=900)
    config = TrainConfig(batch_size=3, epochs=3, seed=11)
    with_heads = train(tiny_model(gaze=("DT",), weights={"DT": 0.0}, seed=2),
                       examples, dev, config, SETS)
    headless = train(tiny_model(seed=2), examples, dev, config, SETS)
    for name, arr in headless.final_state.items():
        np.testing.assert_array_equal(with_heads.final_state[name], arr)
    # the unused heads never moved from their initial values
    init = tiny_model(gaze=("DT",), weights={"DT": 0.0}, seed=2).state_dict()
    np.testing.assert_array_equal(with_heads.final_state["gaze.DT.w"],
                                  init["gaze.DT.w"])


def test_training_log_lines():
    lines = []
    model = tiny_model(gaze=("DT",), weights={"DT": 0.1})
    train(model, make_examples(4, with_gaze=True), make_examples(2, seed=9, base=900),
          TrainConfig(batch_size=2, epochs=2, seed=0), SETS, log=lines.append)
    assert len(lines) == 2
    assert lines[0].startswith("epoch=1 ")
    assert "score_mse=" in lines[0]
    assert "gaze_mse_DT=" in lines[0]
    assert "dev_qwk=" in lines[0]


def test_format_epoch_line_is_key_value():
    stats = EpochStats(
        epoch=3,
        breakdown=LossBreakdown(score_mse=0.5, gaze_mse={"DT": 0.25},
                                gaze_token_counts={"DT": 10}),
        dev_qwk=0.75)
    line = format_epoch_line(stats)
    assert line == "epoch=3 score_mse=0.5 gaze_mse_DT=0.25 dev_qwk=0.75"


def test_dev_qwk_denormalizes_predictions():
    model = zeroed(tiny_model())  # predicts 0.5 -> raw 2 on the 0-3 scale
    examples = make_examples(4)
    value = dev_qwk(model, examples, SETS)
    # constant prediction against varied truth is exactly zero
    assert value == 0.0
    assert math.isnan(dev_qwk(model, [], SETS))


def test_evaluate_breakdown_runs_in_eval_mode():
    model = tiny_model(gaze=("DT",), weights={"DT": 0.5}, dropout=0.5)
    examples = make_examples(3, with_gaze=True)
    a = evaluate_breakdown(model, examples)
    b = evaluate_breakdown(model, examples)
    assert a.score_mse == b.score_mse  # no dropout noise
    assert a.gaze_token_counts == b.gaze_token_counts
    assert sum(a.gaze_token_counts.values()) > 0


def trained_co_attention_model():
    """A co_attention model trained until its predicted raw scores differ between essays."""
    model = tiny_model(gaze=("DT",), weights={"DT": 0.5}, architecture="co_attention",
                       dropout=0.5)
    train(model, make_examples(8, with_gaze=True), [],
          TrainConfig(batch_size=4, epochs=20, seed=4, learning_rate=0.03), SETS)
    return model


def per_essay_forward(model, sentence_ids):
    """Evaluation-mode forward with the article encoded again for this essay alone."""
    article = model.encode_essay(model.article_sentence_ids, None)[1]
    return model.forward(sentence_ids, article=article)


def test_dev_qwk_matches_per_essay_forward_on_co_attention():
    model = trained_co_attention_model()
    examples = make_examples(8, seed=21, base=700)
    sets = {3: EssaySet(3, 0, 60)}  # a wide range, so raw predictions resolve small changes
    pairs = [(denormalize_score(per_essay_forward(model, ex.sentence_ids).score_value, sets[3]),
              ex.raw_score) for ex in examples]
    reference = qwk(pairs, 0, 60)
    assert len({predicted for predicted, _ in pairs}) > 1
    assert np.array_equal(dev_qwk(model, examples, sets), reference)


def test_evaluate_breakdown_matches_per_essay_forward_on_co_attention():
    model = trained_co_attention_model()
    examples = make_examples(5, with_gaze=True, seed=22, base=700)
    weights = {"DT": 0.5}
    _, reference = multitask_loss([per_essay_forward(model, ex.sentence_ids) for ex in examples],
                                  examples, weights)
    assert evaluate_breakdown(model, examples) == reference  # every field, exactly


def test_train_encodes_the_article_once_per_batch_and_per_evaluation_pass():
    model = tiny_model(architecture="co_attention", dropout=0.5)
    encode_article = model.encode_article
    modes = []

    def counting(rng=None):
        modes.append(rng is not None)
        return encode_article(rng)

    model.encode_article = counting
    train(model, make_examples(4), make_examples(2, seed=9, base=900),
          TrainConfig(batch_size=2, epochs=2, seed=0), SETS)
    # per epoch two batches and one dev pass
    assert modes == [True, True, False, True, True, False]


def test_train_frees_each_batch_graph_before_the_next_forward(monkeypatch):
    # a batch's loss (and so its graph) must be gone before the next batch,
    # or the next dev pass, encodes the article
    model = tiny_model(gaze=("DT",), weights={"DT": 0.5}, architecture="co_attention",
                       dropout=0.5)
    losses = []

    def recording_loss(outputs, examples, weights):
        loss, breakdown = multitask_loss(outputs, examples, weights)
        losses.append(weakref.ref(loss.data))
        return loss, breakdown

    encode_article = model.encode_article

    def checking(rng=None):
        assert all(ref() is None for ref in losses), "an earlier batch's graph is alive"
        return encode_article(rng)

    monkeypatch.setattr(training_module, "multitask_loss", recording_loss)
    model.encode_article = checking
    train(model, make_examples(6, with_gaze=True), make_examples(2, seed=9, base=900),
          TrainConfig(batch_size=2, epochs=2, seed=0), SETS)
    assert len(losses) == 6


def test_evaluate_breakdown_scores_without_a_graph():
    # evaluation records no graph at all: every output forward_batch returns
    # without an rng is a leaf, and the breakdown still equals the loss over
    # per-essay outputs
    for architecture in ("self_attention", "co_attention"):
        model = tiny_model(gaze=("DT",), weights={"DT": 0.5}, architecture=architecture)
        examples = make_examples(4, with_gaze=True)
        _, expected = multitask_loss([model.forward(ex.sentence_ids) for ex in examples],
                                     examples, {"DT": 0.5})
        returned = []
        forward_batch = model.forward_batch

        def recording(batch_sentence_ids, rng=None):
            outputs = forward_batch(batch_sentence_ids, rng)
            returned.extend(outputs)
            return outputs

        model.forward_batch = recording
        assert evaluate_breakdown(model, examples) == expected
        tensors = [t for out in returned for t in (out.predicted_score,
                                                   *out.gaze_predictions.values())]
        assert len(tensors) == 8
        assert all(t._parents == () and t._grad_fn is None and not t.requires_grad
                   for t in tensors)


@pytest.mark.parametrize("architecture", ["self_attention", "co_attention"])
def test_training_forward_after_an_evaluation_pass_records_every_gradient(architecture):
    # a dev pass runs without a graph; the next training forward must record
    # one, and backward must give every parameter the gradient it gets without
    # the dev pass
    def gradients(evaluate_first):
        model = tiny_model(gaze=("DT",), weights={"DT": 0.5}, architecture=architecture,
                           dropout=0.5)
        examples = make_examples(4, with_gaze=True)
        if evaluate_first:
            dev_qwk(model, make_examples(2, seed=9, base=900), SETS)
        outputs = model.forward_batch([ex.sentence_ids for ex in examples],
                                      np.random.default_rng(0))
        loss, _ = multitask_loss(outputs, examples, {"DT": 0.5})
        assert loss._grad_fn is not None
        zero_grads(model.parameters())
        backward(loss)
        assert all(p.grad is not None for p in model.parameters())
        return {name: p.grad for name, p in model.named_parameters().items()}

    after_eval, fresh = gradients(True), gradients(False)
    assert list(after_eval) == list(fresh)
    assert all(np.array_equal(after_eval[name], fresh[name]) for name in fresh)


@pytest.mark.parametrize("architecture", ["self_attention", "co_attention"])
def test_train_leaves_no_cyclic_garbage(architecture):
    # reference counting alone frees every graph, which is what makes pausing
    # the collector per step safe: an op whose closure captured its own output
    # would leave a cycle here. The collector stays off for the whole run so
    # no automatic pass can clear such a cycle before the check.
    model = tiny_model(gaze=("DT",), weights={"DT": 0.5}, architecture=architecture,
                       dropout=0.5)
    train_examples = make_examples(6, with_gaze=True)
    dev_examples = make_examples(2, seed=9, base=900)
    gc.collect()
    gc.disable()
    try:
        train(model, train_examples, dev_examples, TrainConfig(batch_size=2, epochs=2, seed=0),
              SETS)
        assert not gc.isenabled()
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("enabled", [True, False])
def test_train_step_pauses_the_collector_and_restores_its_state(monkeypatch, enabled):
    model = tiny_model()
    optimizer = RMSProp(model.parameters(), lr=0.001, decay=0.9, momentum=0.9, eps=1e-6)
    batch = make_examples(2)
    during = []

    def recording_loss(*args):
        during.append(gc.isenabled())
        return multitask_loss(*args)

    monkeypatch.setattr(training_module, "multitask_loss", recording_loss)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        training_module._train_step(model, optimizer, batch, {}, 10.0,
                                    np.random.default_rng(0), 1, 0)
        assert gc.isenabled() is enabled
        model.output_b.data[:] = np.nan
        with pytest.raises(TrainingDiverged):
            training_module._train_step(model, optimizer, batch, {}, 10.0,
                                        np.random.default_rng(0), 1, 1)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert during == [False, False]


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_backward_releases_the_batch_graph_and_parameters_keep_their_gradients(architecture):
    model = tiny_model(gaze=("DT",), weights={"DT": 0.5}, architecture=architecture,
                       dropout=0.5)
    examples = make_examples(4, with_gaze=True)
    outputs = model.forward_batch([ex.sentence_ids for ex in examples], np.random.default_rng(0))
    loss, _ = multitask_loss(outputs, examples, {"DT": 0.5})
    interior = [node for node in numerics._topological_order(loss) if node._grad_fn is not None]
    assert len(interior) > 10
    backward(loss, parameters=model.parameters())
    assert all(node._parents == () and node.grad is None for node in interior)
    assert all(p.grad is not None for p in model.parameters())


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_backward_peak_memory_stays_near_what_forward_left(architecture, benchmark_batch):
    # held: the model and the batch's graph after forward and loss. Backward
    # frees each node's saved arrays as it passes them, so its peak adds little
    # more than the parameters' gradients (about 1.16x and 1.13x of 10.0 and
    # 12.3 MB held on 10 essays, 1.10x and 1.02x of 75.3 and 84.8 MB on the
    # benchmark's 100, where the peak sits in the loss's gaze terms); on 10
    # essays, keeping every saved array and interior gradient to the end read
    # about 1.56x, building the dense embedding gradient before the graph is
    # freed rather than from the queued rows after it 1.27x, and copying the
    # first gaze head's and attention's input gradients into a new sum rather
    # than adding into them in place 1.18x
    for size in (10, len(benchmark_batch.train)):
        batch = benchmark_batch.train[:size]
        # a full collection empties the interpreter's free lists, so the figures
        # do not depend on what ran before; paused, as in a training step
        gc.collect()
        with collector_paused():
            tracemalloc.start()
            try:
                model = benchmark_batch.model(architecture)
                outputs = model.forward_batch([ex.sentence_ids for ex in batch],
                                              np.random.default_rng(1))
                loss = multitask_loss(outputs, batch, model.config.gaze_loss_weights)[0]
                held = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                zero_grads(model.parameters())
                backward(loss, parameters=model.parameters())
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        line = (f"[training memory] {architecture}, {size} essays: {held / 1e6:.1f} MB after "
                f"forward and loss, {peak / 1e6:.1f} MB peak through backward "
                f"({peak / held:.2f}x)")
        print("\n" + line)
        assert peak <= 1.2 * held, line


@pytest.mark.parametrize("architecture, bound_mb", [("self_attention", 9.0),
                                                    ("co_attention", 11.0)])
def test_training_batch_graph_holds_one_copy_of_its_token_encodings(
        architecture, bound_mb, benchmark_batch):
    # the graph alone, the model excluded, after forward and loss: 10.5 and
    # 12.7 MB while each sentence's encoder saved its padded embeddings and the
    # gaze heads read a concatenated copy of the token encodings, 7.2 and 9.1
    # MB with the padding rebuilt in backward and one token block per essay
    batch = benchmark_batch.train[:10]
    tracemalloc.start()
    try:
        model = benchmark_batch.model(architecture)
        before = tracemalloc.get_traced_memory()[0]
        outputs = model.forward_batch([ex.sentence_ids for ex in batch], np.random.default_rng(1))
        loss = multitask_loss(outputs, batch, model.config.gaze_loss_weights)[0]
        graph = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert loss.requires_grad and graph <= bound_mb * 1e6, f"the graph holds {graph / 1e6:.1f} MB"


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_gaze_heads_read_the_token_encodings_where_the_encoders_wrote_them(architecture):
    # each essay gets one (n_tokens, F) block; every non-empty sentence's
    # encoder writes its rows of it, in order, and the heads read the block
    model = tiny_model(gaze=("DT", "FFD"), weights={"DT": 0.5, "FFD": 0.2},
                       architecture=architecture, dropout=0.5)
    essays = [[[2, 3, 4], [], [5], [6, 7]], [[8]], [[], [9, 10], [11, 2, 3, 3]]]
    outputs = model.forward_batch(essays, np.random.default_rng(0))
    width = model.config.conv_filters
    for sentences, output in zip(essays, outputs):
        inputs = {id(p._parents[0]): p._parents[0] for p in output.gaze_predictions.values()}
        assert len(inputs) == 1
        tokens = next(iter(inputs.values())).data
        assert tokens.shape == (sum(len(ids) for ids in sentences), width)
        encoders = [node for node in numerics._topological_order(output.predicted_score)
                    if model.embedding in node._parents
                    and np.shares_memory(node.data, tokens)]
        start = tokens.__array_interface__["data"][0]
        placed = sorted(((e.data.__array_interface__["data"][0] - start) // (8 * width),
                         len(e.data)) for e in encoders)
        offsets = np.cumsum([0] + [len(ids) for ids in sentences])
        assert placed == [(offsets[i], len(ids)) for i, ids in enumerate(sentences) if ids]
