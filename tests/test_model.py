"""Architecture tests: shapes, attention, head isolation, end-to-end gradients."""

import hashlib

import numpy as np
import pytest

from gazescore import numerics as nm
from gazescore.model import (ARCHITECTURES, EVAL_SLICE, EssayScorer, ForwardOutput,
                             ModelConfig)
from gazescore.corpus import EssaySet
from gazescore.numerics import Tensor, backward, zero_grads
from gazescore.training import TrainConfig, TrainExample, multitask_loss, train

TINY = dict(embedding_dim=4, conv_kernel=3, conv_filters=3, lstm_hidden=3,
            modeling_hidden=3, dropout=0.0, vocab_size=12)

ARTICLE = [[2, 3, 4], [5, 6]]
ESSAY = [[2, 5, 7, 3], [8, 9], [4]]


def tiny_model(architecture="self_attention", gaze=(), seed=0, dropout=0.0, **overrides):
    params = dict(TINY)
    params["dropout"] = dropout
    params.update(overrides)
    config = ModelConfig(architecture=architecture, gaze_attributes=tuple(gaze),
                         **params)
    article = ARTICLE if architecture == "co_attention" else None
    return EssayScorer(config, np.random.default_rng(seed),
                       article_sentence_ids=article)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_defaults_match_published_hyperparameters():
    config = ModelConfig()
    assert config.embedding_dim == 50
    assert config.conv_kernel == 5
    assert config.conv_filters == 100
    assert config.lstm_hidden == 100
    assert config.modeling_hidden == 100
    assert config.dropout == 0.5
    assert config.vocab_size == 4000


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(architecture="transformer")
    with pytest.raises(ValueError):
        ModelConfig(conv_kernel=4)
    with pytest.raises(ValueError):
        ModelConfig(dropout=1.0)
    with pytest.raises(ValueError):
        ModelConfig(gaze_attributes=("DT", "XX"))
    with pytest.raises(ValueError):
        ModelConfig(gaze_attributes=("DT",), gaze_loss_weights={"FFD": 0.1})


@pytest.mark.parametrize("name", ["embedding_dim", "conv_kernel", "conv_filters", "lstm_hidden",
                                  "modeling_hidden", "vocab_size"])
@pytest.mark.parametrize("value", [0, -1])
def test_config_rejects_sizes_below_one(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be >= 1, got {value}$"):
        ModelConfig(**{name: value})


def test_config_rejects_duplicate_gaze_attributes():
    with pytest.raises(ValueError, match=r"gaze_attributes lists \['DT'\] more than once"):
        ModelConfig(gaze_attributes=("DT", "Skip", "DT"))


def test_coattention_requires_article():
    config = ModelConfig(architecture="co_attention", **TINY)
    with pytest.raises(ValueError, match="source article"):
        EssayScorer(config, np.random.default_rng(0))
    with pytest.raises(ValueError, match="source article"):
        EssayScorer(config, np.random.default_rng(0), article_sentence_ids=[[]])


# ---------------------------------------------------------------------------
# sentence and essay encoding
# ---------------------------------------------------------------------------

def test_sentence_vector_shape_is_filter_count():
    model = tiny_model()
    conv, pooled, alpha = model.encode_sentence([2, 3, 4, 5], rng=None)
    assert conv.data.shape == (4, TINY["conv_filters"])
    assert pooled.data.shape == (1, TINY["conv_filters"])


def test_single_token_attention_is_one():
    model = tiny_model()
    _, _, alpha = model.encode_sentence([7], rng=None)
    np.testing.assert_array_equal(alpha.data, [[1.0]])


def test_word_attention_sums_to_one():
    model = tiny_model()
    _, _, alpha = model.encode_sentence([2, 3, 4, 5, 6], rng=None)
    assert alpha.data.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(alpha.data >= 0)


def test_empty_sentence_gives_flagged_zero_vector():
    model = tiny_model()
    conv, pooled, alpha = model.encode_sentence([], rng=None)
    assert conv is None and alpha is None
    np.testing.assert_array_equal(pooled.data, np.zeros((1, TINY["conv_filters"])))
    conv_outputs = model.encode_essay([[2, 3], []], rng=None)[0]
    assert conv_outputs[0] is not None and conv_outputs[1] is None


def test_permuting_identical_tokens_is_noop():
    model = tiny_model()
    ids = [2, 5, 2]
    swapped = [ids[2], ids[1], ids[0]]
    _, pooled_a, _ = model.encode_sentence(ids, rng=None)
    _, pooled_b, _ = model.encode_sentence(swapped, rng=None)
    np.testing.assert_array_equal(pooled_a.data, pooled_b.data)


def test_essay_hidden_states_shape():
    model = tiny_model()
    _, hidden, essay_vector, sent_alpha = model.encode_essay(ESSAY, rng=None)
    assert hidden.data.shape == (len(ESSAY), TINY["lstm_hidden"])
    assert essay_vector.data.shape == (1, TINY["lstm_hidden"])
    assert sent_alpha.data.shape == (1, len(ESSAY))
    assert sent_alpha.data.sum() == pytest.approx(1.0, abs=1e-12)


def test_lstm_is_one_graph_node():
    model = tiny_model()
    inputs = Tensor(np.random.default_rng(1).standard_normal((4, TINY["conv_filters"])),
                    requires_grad=True)
    hidden = model._lstm(inputs)
    assert hidden.data.shape == (4, TINY["lstm_hidden"])
    assert hidden._parents == (inputs, model.lstm_wx, model.lstm_wh, model.lstm_b)


def test_one_sentence_essay_pooled_vector_is_its_hidden_state():
    model = tiny_model()
    _, hidden, essay_vector, sent_alpha = model.encode_essay([[2, 3, 4]], rng=None)
    np.testing.assert_array_equal(sent_alpha.data, [[1.0]])
    np.testing.assert_allclose(essay_vector.data, hidden.data, atol=1e-15)


# ---------------------------------------------------------------------------
# forward output
# ---------------------------------------------------------------------------

def test_forward_score_in_open_unit_interval():
    for architecture in ARCHITECTURES:
        out = tiny_model(architecture).forward(ESSAY)
        assert isinstance(out, ForwardOutput)
        assert 0.0 < out.score_value < 1.0


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_forward_batch_outputs_leave_the_graph_in_evaluation_only(architecture):
    model = tiny_model(architecture, gaze=("DT", "Skip"), dropout=0.5)
    essays = [ESSAY, [[3, 4]], ESSAY[:2]]
    evaluated = model.forward_batch(essays)
    assert isinstance(evaluated, list) and len(evaluated) == len(essays)
    for out, essay in zip(evaluated, essays):
        direct = model.forward(essay)  # outside forward_batch, as a checkpoint check runs
        assert out.score_value == direct.score_value
        assert direct.predicted_score._parents and direct.predicted_score._grad_fn is not None
        tensors = [out.predicted_score, *out.gaze_predictions.values()]
        assert len(tensors) == 3 and all(not t._parents for t in tensors)


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_rng_at_zero_dropout_changes_nothing(architecture):
    # an rng means training, and at dropout 0 training draws nothing
    model = tiny_model(architecture, gaze=("DT",))
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    trained, evaluated = model.forward(ESSAY, rng=rng), model.forward(ESSAY)
    assert rng.bit_generator.state == state
    assert trained.predicted_score.data.tobytes() == evaluated.predicted_score.data.tobytes()
    assert (trained.gaze_predictions["DT"].data.tobytes()
            == evaluated.gaze_predictions["DT"].data.tobytes())


def test_forward_without_dropout_is_deterministic():
    model = tiny_model()
    a = model.forward(ESSAY)
    b = model.forward(ESSAY)
    np.testing.assert_array_equal(a.predicted_score.data, b.predicted_score.data)


def test_forward_rejects_empty_essay():
    with pytest.raises(ValueError):
        tiny_model().forward([])


def test_training_forward_with_dropout_scores_inside_the_unit_interval():
    model = tiny_model(dropout=0.5)
    out = model.forward(ESSAY, rng=np.random.default_rng(0))
    assert 0.0 < out.score_value < 1.0


def test_zero_parameters_give_score_half():
    model = tiny_model()
    model.load_state_dict({k: np.zeros_like(v) for k, v in model.state_dict().items()})
    assert tiny_model().forward(ESSAY) is not None  # sanity: fresh model works too
    assert model.forward(ESSAY).score_value == 0.5


def test_self_attention_ignores_articles_entirely():
    config = ModelConfig(architecture="self_attention", **TINY)
    model = EssayScorer(config, np.random.default_rng(0), article_sentence_ids=ARTICLE)
    assert model.article_sentence_ids is None
    assert "coattn.affinity" not in model.named_parameters()
    assert model.encode_article() is None


def test_encode_article_with_an_rng_gives_one_hidden_row_per_article_sentence():
    model = tiny_model("co_attention", dropout=0.5)
    hidden = model.encode_article(rng=np.random.default_rng(0))
    assert hidden.data.shape == (len(ARTICLE), TINY["lstm_hidden"])


# ---------------------------------------------------------------------------
# gaze heads
# ---------------------------------------------------------------------------

def test_gaze_predictions_align_with_non_padding_tokens():
    model = tiny_model(gaze=("DT", "FFD", "IR", "RC", "Skip"))
    out = model.forward(ESSAY)
    n_tokens = sum(len(s) for s in ESSAY)
    assert set(out.gaze_predictions) == {"DT", "FFD", "IR", "RC", "Skip"}
    for prediction in out.gaze_predictions.values():
        assert prediction.data.shape == (n_tokens, 1)
        assert np.all((prediction.data > 0) & (prediction.data < 1))


def test_gaze_alignment_skips_empty_sentences():
    model = tiny_model(gaze=("DT",))
    out = model.forward([[2, 3], [], [4]])
    assert out.gaze_predictions["DT"].data.shape == (3, 1)


def test_zero_weight_gaze_head_predicts_half():
    model = tiny_model(gaze=("DT",))
    state = model.state_dict()
    state["gaze.DT.w"] = np.zeros_like(state["gaze.DT.w"])
    state["gaze.DT.b"] = np.zeros_like(state["gaze.DT.b"])
    model.load_state_dict(state)
    np.testing.assert_array_equal(
        model.forward(ESSAY).gaze_predictions["DT"].data,
        np.full((sum(map(len, ESSAY)), 1), 0.5))


def test_gaze_heads_are_independent():
    model = tiny_model(gaze=("DT", "IR"))
    before = model.forward(ESSAY).gaze_predictions["IR"].data.copy()
    state = model.state_dict()
    state["gaze.DT.w"] = np.zeros_like(state["gaze.DT.w"])
    model.load_state_dict(state)
    after = model.forward(ESSAY).gaze_predictions["IR"].data
    np.testing.assert_array_equal(before, after)


def test_gaze_heads_blind_to_lstm_parameters():
    # heads read convolution outputs only; sentence-level recurrence is
    # downstream of them
    model = tiny_model(gaze=("DT",))
    before = model.forward(ESSAY).gaze_predictions["DT"].data.copy()
    score_before = model.forward(ESSAY).score_value
    state = model.state_dict()
    state["lstm.wx"] = state["lstm.wx"] + 0.7
    state["lstm.wh"] = state["lstm.wh"] - 0.3
    model.load_state_dict(state)
    after = model.forward(ESSAY).gaze_predictions["DT"].data
    np.testing.assert_array_equal(before, after)
    assert model.forward(ESSAY).score_value != score_before


# ---------------------------------------------------------------------------
# co-attention
# ---------------------------------------------------------------------------

def test_coattend_singleton_rows():
    model = tiny_model("co_attention")
    h_essay = Tensor(np.random.default_rng(1).normal(size=(1, 3)))
    h_article = Tensor(np.random.default_rng(2).normal(size=(1, 3)))
    essay2article, article2essay = model.coattend(h_essay, h_article)
    np.testing.assert_allclose(essay2article.data, h_article.data, atol=1e-15)
    np.testing.assert_allclose(article2essay.data, h_essay.data, atol=1e-15)


def test_coattend_rowsoftmax_mixtures_are_convex():
    # every mixed row lies inside the convex hull of the other side's rows
    model = tiny_model("co_attention")
    rng = np.random.default_rng(3)
    h_essay = Tensor(rng.normal(size=(4, 3)))
    h_article = Tensor(rng.normal(size=(2, 3)))
    essay2article, article2essay = model.coattend(h_essay, h_article)
    assert essay2article.data.shape == (4, 3)
    assert article2essay.data.shape == (2, 3)
    lo, hi = h_article.data.min(axis=0), h_article.data.max(axis=0)
    assert np.all(essay2article.data >= lo - 1e-12)
    assert np.all(essay2article.data <= hi + 1e-12)


def test_affinity_symmetric_for_identical_inputs_and_identity_matrix():
    model = tiny_model("co_attention")
    model.affinity.data = np.eye(3)
    rng = np.random.default_rng(4)
    h = Tensor(rng.normal(size=(3, 3)))
    affinity = nm.matmul(nm.matmul(h, model.affinity), nm.transpose(h))
    np.testing.assert_allclose(affinity.data, affinity.data.T, atol=1e-12)


# ---------------------------------------------------------------------------
# parameter plumbing
# ---------------------------------------------------------------------------

def test_state_dict_round_trip():
    model = tiny_model("co_attention", gaze=("DT",))
    clone = tiny_model("co_attention", gaze=("DT",), seed=99)
    assert clone.forward(ESSAY).score_value != model.forward(ESSAY).score_value
    clone.load_state_dict(model.state_dict())
    assert clone.forward(ESSAY).score_value == model.forward(ESSAY).score_value


def test_load_state_dict_validates_names_and_shapes():
    model = tiny_model()
    state = model.state_dict()
    state.pop("conv.w")
    with pytest.raises(ValueError, match="mismatch"):
        model.load_state_dict(state)
    bad = model.state_dict()
    bad["conv.w"] = np.zeros((1, 1))
    with pytest.raises(ValueError, match="shape"):
        model.load_state_dict(bad)


def test_parameter_initialisers():
    params = tiny_model("co_attention", gaze=("DT", "FFD"), seed=32).named_parameters()
    assert all(t.requires_grad for t in params.values())
    biases = {name for name in params if name.endswith(".b")}
    assert {"conv.b", "lstm.b", "coattn.e2a.b", "output.b", "gaze.DT.b"} <= biases
    for name, tensor in params.items():
        if name in biases:
            np.testing.assert_array_equal(tensor.data, np.zeros(tensor.data.shape))
        else:
            assert np.all(np.abs(tensor.data) <= 0.05), name
            assert np.any(tensor.data != 0.0), name
    np.testing.assert_array_equal(params["embedding"].data[0], np.zeros(4))


def test_pad_embedding_row_zero_and_pinnable():
    model = tiny_model(gaze=("DT",))
    np.testing.assert_array_equal(model.embedding.data[0], np.zeros(4))
    out = model.forward(ESSAY)
    backward(nm.mse(out.predicted_score, Tensor(np.array([[1.0]]))))
    nm._fill_grads(model.parameters())
    model.pin_pad_embedding()
    np.testing.assert_array_equal(model.embedding.grad[0], np.zeros(4))


def test_shared_parameters_identical_with_and_without_gaze_heads():
    # heads are constructed last, so earlier draws coincide for equal seeds
    with_heads = tiny_model("co_attention", gaze=("DT", "FFD"), seed=5)
    without = tiny_model("co_attention", seed=5)
    for name, tensor in without.named_parameters().items():
        np.testing.assert_array_equal(tensor.data,
                                      with_heads.named_parameters()[name].data)


# ---------------------------------------------------------------------------
# end-to-end gradient check
# ---------------------------------------------------------------------------

def multitask_scalar_loss(model, essay, score_target, gaze_target_value):
    out = model.forward(essay)
    loss = nm.mse(out.predicted_score, Tensor(np.array([[score_target]])))
    for attribute, prediction in out.gaze_predictions.items():
        target = Tensor(np.full(prediction.data.shape, gaze_target_value))
        loss = nm.add(loss, nm.mse(prediction, target))
    return loss


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_end_to_end_gradient_check(architecture):
    model = tiny_model(architecture, gaze=("DT", "Skip"), seed=11)
    params = model.parameters()

    def loss_value():
        return float(multitask_scalar_loss(model, ESSAY, 0.8, 0.4).data)

    zero_grads(params)
    backward(multitask_scalar_loss(model, ESSAY, 0.8, 0.4))
    nm._fill_grads(params)
    h = 1e-6
    for tensor in params:
        analytic = tensor.grad
        assert analytic is not None, tensor.name
        flat = tensor.data.reshape(-1)
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_value()
            flat[i] = orig - h
            down = loss_value()
            flat[i] = orig
            numeric[i] = (up - down) / (2 * h)
        np.testing.assert_allclose(
            analytic.reshape(-1), numeric, atol=1e-7, rtol=1e-4,
            err_msg=f"gradient mismatch in {tensor.name} ({architecture})")


# ---------------------------------------------------------------------------
# fused LSTM step against the per-gate composition it replaced
# ---------------------------------------------------------------------------

class PerGateLSTMScorer(EssayScorer):
    """EssayScorer with the LSTM built from narrow/sigmoid/tanh/mul/add nodes."""

    def _lstm(self, inputs):
        h_size = self.config.lstm_hidden
        h = Tensor(np.zeros((1, h_size)))
        c = Tensor(np.zeros((1, h_size)))
        hidden_states = []
        for t in range(inputs.data.shape[0]):
            x_t = nm.narrow(inputs, 0, t, t + 1)
            z = nm.add(nm.add(nm.matmul(x_t, self.lstm_wx), nm.matmul(h, self.lstm_wh)),
                       self.lstm_b)
            i = nm.sigmoid(nm.narrow(z, 1, 0, h_size))
            f = nm.sigmoid(nm.narrow(z, 1, h_size, 2 * h_size))
            g = nm.tanh(nm.narrow(z, 1, 2 * h_size, 3 * h_size))
            o = nm.sigmoid(nm.narrow(z, 1, 3 * h_size, 4 * h_size))
            c = nm.add(nm.mul(f, c), nm.mul(i, g))
            h = nm.mul(o, nm.tanh(c))
            hidden_states.append(h)
        return nm.concat(hidden_states, axis=0) if len(hidden_states) > 1 else hidden_states[0]


def reference_pair(architecture):
    """(EssayScorer, PerGateLSTMScorer) with identical initial parameters."""
    weights = {"DT": 0.5, "Skip": 0.1}
    params = dict(TINY, dropout=0.5, lstm_hidden=5)
    config = ModelConfig(architecture=architecture, gaze_attributes=tuple(weights),
                         gaze_loss_weights=weights, **params)
    article = ARTICLE if architecture == "co_attention" else None
    return tuple(cls(config, np.random.default_rng(3), article_sentence_ids=article)
                 for cls in (EssayScorer, PerGateLSTMScorer))


def reference_examples():
    rng = np.random.default_rng(9)
    examples = []
    for i in range(6):
        sents = [[int(rng.integers(1, 12)) for _ in range(int(rng.integers(1, 6)))]
                 for _ in range(int(rng.integers(1, 5)))]
        n_tokens = sum(len(s) for s in sents)
        targets = {attribute: (np.arange(n_tokens, dtype=np.int64), rng.random(n_tokens))
                   for attribute in ("DT", "Skip")}
        examples.append(TrainExample(essay_id=i, set_id=3, sentence_ids=sents,
                                     score_target=(i % 4) / 3, raw_score=i % 4,
                                     gaze_targets=targets))
    return examples


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_fused_lstm_gradients_match_per_gate_reference_bitwise(architecture):
    examples = reference_examples()
    scores, grads = [], []
    for model in reference_pair(architecture):
        rng = np.random.default_rng(4)
        outputs = [model.forward(ex.sentence_ids, rng=rng) for ex in examples]
        loss, _ = multitask_loss(outputs, examples, dict(model.config.gaze_loss_weights))
        backward(loss)
        nm._fill_grads(model.parameters())
        scores.append([out.predicted_score.data for out in outputs])
        grads.append({name: t.grad for name, t in model.named_parameters().items()})
    fused, reference = grads
    assert all(np.array_equal(a, b) for a, b in zip(*scores))
    for name in reference:
        assert np.array_equal(fused[name], reference[name]), name


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_fused_lstm_training_matches_per_gate_reference_bitwise(architecture):
    examples = reference_examples()
    config = TrainConfig(batch_size=len(examples), epochs=3, seed=5)
    fused, reference = (train(model, examples, [], config, {3: EssaySet(3, 0, 3)}).final_state
                        for model in reference_pair(architecture))
    for name in reference:
        assert fused[name].tobytes() == reference[name].tobytes(), name


# ---------------------------------------------------------------------------
# one article encoding per batch against one per essay
# ---------------------------------------------------------------------------

def own_article(model, rng):
    """A fresh training-mode encoding of the article; None for self_attention."""
    if model.article_sentence_ids is None:
        return None
    return model.encode_essay(model.article_sentence_ids, rng)[1]


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_shared_article_gradients_match_per_essay_encoding(architecture):
    weights = {"DT": 0.5, "Skip": 0.1}
    config = ModelConfig(architecture=architecture, gaze_attributes=tuple(weights),
                         gaze_loss_weights=weights, **dict(TINY, lstm_hidden=5))
    article = ARTICLE if architecture == "co_attention" else None
    examples = reference_examples()
    scores, grads = [], []
    for shared in (True, False):
        model = EssayScorer(config, np.random.default_rng(3), article_sentence_ids=article)
        rng = np.random.default_rng(4)
        if shared:
            hidden = model.encode_article(rng=rng)
            outputs = [model.forward(ex.sentence_ids, rng=rng, article=hidden)
                       for ex in examples]
        else:  # the reference: every essay encodes its own copy of the article
            outputs = [model.forward(ex.sentence_ids, rng=rng, article=own_article(model, rng))
                       for ex in examples]
        loss, _ = multitask_loss(outputs, examples, weights)
        backward(loss)
        nm._fill_grads(model.parameters())
        scores.append([out.predicted_score.data for out in outputs])
        grads.append({name: t.grad for name, t in model.named_parameters().items()})
    shared, reference = grads
    assert all(np.array_equal(a, b) for a, b in zip(*scores))
    # the article's gradient is summed in another order, so compare each
    # parameter against the whole gradient: tiny ones are pure cancellation
    bound = 0.0 if architecture == "self_attention" else \
        1e-12 * np.sqrt(sum(np.sum(g ** 2) for g in reference.values()))
    for name in reference:
        assert np.max(np.abs(shared[name] - reference[name])) <= bound, name


# ---------------------------------------------------------------------------
# batched evaluation
# ---------------------------------------------------------------------------

def parity_essays():
    """Essays of every shape evaluation pads: empty and one-token sentences,
    one-sentence essays, uneven lengths, and more than one slice of them."""
    rng = np.random.default_rng(11)
    essays = [[[5]], [[3, 4], [], [7]], [[], [2, 9]], [[]], [[4], [6], [8]],
              [list(range(2, 12)), [3]]]
    while len(essays) <= EVAL_SLICE + 20:
        essays.append([[int(t) for t in rng.integers(1, TINY["vocab_size"],
                                                      size=rng.choice([0, 1, 2, 5, 9]))]
                       for _ in range(rng.integers(1, 8))])
    return essays


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_batched_evaluation_matches_per_essay_forward(architecture):
    model = tiny_model(architecture, gaze=("DT", "Skip"), dropout=0.5)
    # unit-scale weights spread the scores over (0, 1); PAD's row is nonzero
    # too, and neither path may read it for padding
    rng = np.random.default_rng(12)
    state = {name: rng.normal(scale=2.0, size=value.shape)
             for name, value in model.state_dict().items()}
    assert np.all(state["embedding"][0] != 0.0)
    model.load_state_dict(state)
    essays = parity_essays()
    evaluated = model.forward_batch(essays)
    assert len(essays) > EVAL_SLICE and len(evaluated) == len(essays)
    largest = 0.0
    for essay, out in zip(essays, evaluated):
        reference = model.forward(essay)
        largest = max(largest, abs(out.score_value - reference.score_value))
        assert out.predicted_score.data.shape == (1, 1)
        assert list(out.gaze_predictions) == list(reference.gaze_predictions)
        for attribute, expected in reference.gaze_predictions.items():
            got = out.gaze_predictions[attribute].data
            assert got.shape == expected.data.shape
            np.testing.assert_allclose(got, expected.data, rtol=0, atol=1e-10)
        assert all(not t._parents for t in (out.predicted_score,
                                            *out.gaze_predictions.values()))
    spread = [out.score_value for out in evaluated]
    assert max(spread) - min(spread) > 0.1
    print(f"\n[eval parity] {architecture}: largest batched-vs-forward score difference "
          f"{largest:.3g} over {len(essays)} essays")
    assert largest <= 1e-10


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_batched_evaluation_gaze_predictions_equal_forward_bitwise_at_paper_dims(architecture):
    # the conv rows of a padded block are forward's: one-token sentences stay
    # one-row matmuls, and padding adds zero rows whatever PAD's embedding is
    vocab = 40
    config = ModelConfig(architecture=architecture, vocab_size=vocab, dropout=0.0,
                         gaze_attributes=("DT", "FFD", "IR", "RC", "Skip"))
    rng = np.random.default_rng(21)
    model = EssayScorer(config, rng, embedding_matrix=rng.normal(size=(vocab, 50)),
                        article_sentence_ids=[[2, 3, 4, 5], [6, 7]])
    lengths = [[1], [0, 1, 3], [7, 0, 1, 1], [12, 30, 1], [1, 1], [0, 5], [25, 2, 0, 9, 1]]
    essays = [[[int(t) for t in rng.integers(1, vocab, size=n)] for n in sizes]
              for sizes in lengths * 3]
    for essay, out in zip(essays, model.forward_batch(essays)):
        reference = model.forward(essay).gaze_predictions
        assert list(out.gaze_predictions) == list(reference)
        for attribute, expected in reference.items():
            np.testing.assert_array_equal(out.gaze_predictions[attribute].data, expected.data)


def evaluation_digest(model, essays):
    """sha256 over forward_batch's scores and sorted gaze predictions, essay by essay."""
    digest = hashlib.sha256()
    for out in model.forward_batch(essays):
        digest.update(out.predicted_score.data.tobytes())
        for attribute in sorted(out.gaze_predictions):
            digest.update(out.gaze_predictions[attribute].data.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_evaluation_of_the_benchmark_essays_repeats_bit_for_bit(architecture, benchmark_batch):
    # the benchmark's 50 eval essays at paper defaults with all five gaze
    # heads, from seed-1 parameters. The bits depend on the BLAS build, so
    # no digest is pinned; a change to evaluation's bits shows in the line
    model = benchmark_batch.model(architecture)
    digest = evaluation_digest(model, benchmark_batch.eval_essays)
    print(f"\n[eval digest] {architecture}: {digest} over "
          f"{len(benchmark_batch.eval_essays)} essays")
    assert evaluation_digest(model, benchmark_batch.eval_essays) == digest


def test_batched_evaluation_rejects_an_empty_essay():
    with pytest.raises(ValueError, match="no sentences"):
        tiny_model().forward_batch([ESSAY, []])


@pytest.mark.parametrize("token_id", [-1, TINY["vocab_size"]])
def test_batched_evaluation_rejects_a_token_id_outside_the_vocabulary(token_id):
    # as the graph's encode_tokens does: -1 would otherwise read the last row
    model = tiny_model()
    essay = [[2, 3], [token_id, 2]]
    with pytest.raises(IndexError, match="^encode_tokens: index out of range"):
        model.forward(essay)
    with pytest.raises(IndexError, match="^forward_batch: index out of range"):
        model.forward_batch([ESSAY, essay])
