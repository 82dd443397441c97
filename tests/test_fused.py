"""Fused ops against the op chains they replace, bit for bit.

``encode_tokens``, ``additive_attention`` and ``dense`` each run a chain of
single ops as one graph node, and ``lstm`` runs the per-gate composition of
every time step as one. Their forward values and every input's gradient
must equal the chain's to the last bit, alone and inside the model's
training loop.
"""

from dataclasses import replace

import numpy as np
import pytest

from gazescore import numerics as nm
from gazescore import training
from gazescore.corpus import EssaySet
from gazescore.gaze import GAZE_ATTRIBUTES
from gazescore.model import ARCHITECTURES, EssayScorer, ForwardOutput, ModelConfig
from gazescore.numerics import Tensor, backward
from gazescore.training import TrainConfig, TrainExample, format_epoch_line, train
from test_tensor import reference_lstm


def chain_encode_tokens(table, ids, conv_w, conv_b, p, rng):
    embedded = nm.gather_rows(table, ids)
    if rng is not None:
        embedded = nm.dropout(embedded, p, rng)
    return nm.tanh(nm.add(nm.conv1d(embedded, conv_w), conv_b))


def chain_additive_attention(states, w, b, v):
    u = nm.tanh(nm.add(nm.matmul(states, w), b))
    alpha = nm.softmax(nm.transpose(nm.matmul(u, v)), axis=-1)
    return nm.matmul(alpha, states), alpha


def chain_dense(x, w, b, activation):
    return {"tanh": nm.tanh, "sigmoid": nm.sigmoid}[activation](nm.add(nm.matmul(x, w), b))


# ---------------------------------------------------------------------------
# each op against its chain
# ---------------------------------------------------------------------------

PRIORS = ("none", "held", "shared")


def run(build, arrays, prior, seed=0, frozen=()):
    """(output, alpha or None, each leaf's gradient) of sum(out * W) through build.

    ``prior`` "held" starts every leaf with a gradient left from an earlier
    backward, which the caller still holds, so it must not be written;
    "shared" feeds build tanh(leaf) nodes that the loss also reads, so each
    input already holds a gradient when the op's node replays. The leaves
    at the indices in ``frozen`` do not require a gradient.
    """
    rng = np.random.default_rng(seed)
    leaves = [Tensor(a.copy(), requires_grad=k not in frozen) for k, a in enumerate(arrays)]
    held = []
    if prior == "held":
        for leaf in leaves:
            leaf.grad = rng.standard_normal(leaf.data.shape)
            held.append((leaf.grad, leaf.grad.copy()))
    inputs = [nm.tanh(leaf) for leaf in leaves] if prior == "shared" else leaves
    result = build(inputs)
    out, alpha = result if isinstance(result, tuple) else (result, None)
    loss = nm.tensor_sum(nm.mul(out, Tensor(rng.standard_normal(out.data.shape))))
    if prior == "shared":
        for t in inputs:
            loss = nm.add(loss, nm.tensor_sum(nm.mul(t, Tensor(rng.standard_normal(t.data.shape)))))
    backward(loss)
    for array, copy in held:
        assert array.tobytes() == copy.tobytes()
    return out.data, alpha, [leaf.grad for leaf in leaves]


def assert_same(fused, chain):
    (out, alpha, grads), (ref_out, ref_alpha, ref_grads) = fused, chain
    assert out.tobytes() == ref_out.tobytes()
    if ref_alpha is not None:
        assert alpha.data.tobytes() == ref_alpha.data.tobytes()
    for grad, ref_grad in zip(grads, ref_grads):
        assert (grad is None and ref_grad is None) or grad.tobytes() == ref_grad.tobytes()


@pytest.mark.parametrize("ids", [[3], [1, 4, 1, 2, 4, 1], [0, 2, 5, 3]])
@pytest.mark.parametrize("kernel", [3, 5])
@pytest.mark.parametrize("p", [0.0, 0.5])
@pytest.mark.parametrize("prior", PRIORS)
def test_encode_tokens_equals_its_chain(ids, kernel, p, prior):
    rng = np.random.default_rng(1)
    arrays = [rng.standard_normal((6, 4)), rng.standard_normal((kernel, 4, 3)),
              rng.standard_normal(3)]
    results, draws = [], []
    for op in (nm.encode_tokens, chain_encode_tokens):
        dropout_rng = np.random.default_rng(7)  # two rngs with one seed
        results.append(run(lambda ts: op(ts[0], ids, ts[1], ts[2], p, dropout_rng),
                           arrays, prior))
        draws.append(dropout_rng.random())
    assert_same(*results)
    assert draws[0] == draws[1]  # the mask took the same draws


@pytest.mark.parametrize("prior", PRIORS)
def test_encode_tokens_without_rng_equals_its_chain(prior):
    rng = np.random.default_rng(2)
    arrays = [rng.standard_normal((5, 2)), rng.standard_normal((3, 2, 4)), rng.standard_normal(4)]
    assert_same(*(run(lambda ts: op(ts[0], [4, 0, 4], ts[1], ts[2], 0.5, None), arrays, prior)
                  for op in (nm.encode_tokens, chain_encode_tokens)))


@pytest.mark.parametrize("rows", [1, 5])
@pytest.mark.parametrize("prior", PRIORS)
def test_additive_attention_equals_its_chain(rows, prior):
    rng = np.random.default_rng(3)
    arrays = [rng.standard_normal((rows, 4)), rng.standard_normal((4, 3)),
              rng.standard_normal(3), rng.standard_normal((3, 1))]
    fused, chain = (run(lambda ts: op(*ts), arrays, prior)
                    for op in (nm.additive_attention, chain_additive_attention))
    assert_same(fused, chain)
    assert fused[1]._grad_fn is None  # alpha holds values only


@pytest.mark.parametrize("activation", ["tanh", "sigmoid"])
@pytest.mark.parametrize("rows", [1, 4])
@pytest.mark.parametrize("prior", PRIORS)
def test_dense_equals_its_chain(activation, rows, prior):
    rng = np.random.default_rng(4)
    arrays = [rng.standard_normal((rows, 3)), rng.standard_normal((3, 2)), rng.standard_normal(2)]
    assert_same(*(run(lambda ts: op(ts[0], ts[1], ts[2], activation), arrays, prior)
                  for op in (nm.dense, chain_dense)))


@pytest.mark.parametrize("frozen", [(), (0,), (1,), (2,), (1, 2)])
@pytest.mark.parametrize("prior", PRIORS)
def test_lstm_equals_the_per_gate_composition(prior, frozen):
    # the backward adds each step's wx and wh terms into _owned_grad buffers
    rng = np.random.default_rng(5)
    arrays = [rng.standard_normal((4, 3)), rng.standard_normal((3, 8)),
              rng.standard_normal((2, 8)), rng.standard_normal(8)]
    arrays[0][1] = 0.0  # zero inputs, as the first step's hidden state, give signed zero terms
    assert_same(*(run(lambda ts: op(*ts), arrays, prior, frozen=frozen)
                  for op in (nm.lstm, reference_lstm)))


def test_fused_ops_reject_bad_shapes():
    with pytest.raises(nm.ShapeError):
        nm.dense(np.ones((2, 3)), np.ones((2, 2)), np.ones(2), "tanh")
    with pytest.raises(nm.ShapeError):
        nm.dense(np.ones((2, 3)), np.ones((3, 2)), np.ones((3, 2)), "tanh")  # bias widens
    with pytest.raises(ValueError, match="activation"):
        nm.dense(np.ones((2, 3)), np.ones((3, 2)), np.ones(2), "relu")
    with pytest.raises(nm.ShapeError):
        nm.additive_attention(np.ones((2, 3)), np.ones((2, 2)), np.ones(2), np.ones((2, 1)))
    with pytest.raises(nm.ShapeError):
        nm.encode_tokens(np.ones((4, 3)), [1], np.ones((2, 3, 2)), np.ones(2), 0.0, None)
    with pytest.raises(IndexError):
        nm.encode_tokens(np.ones((4, 3)), [4], np.ones((3, 3, 2)), np.ones(2), 0.0, None)
    with pytest.raises(ValueError, match="probability"):
        nm.encode_tokens(np.ones((4, 3)), [1], np.ones((3, 3, 2)), np.ones(2), 1.0,
                         np.random.default_rng(0))


# ---------------------------------------------------------------------------
# the model against one built from the chains
# ---------------------------------------------------------------------------

class ChainScorer(EssayScorer):
    """EssayScorer built from the single-op chains the fused ops replace."""

    def _additive_attention(self, states, w, b, v):
        return chain_additive_attention(states, w, b, v)

    def encode_sentence(self, token_ids, rng):
        if len(token_ids) == 0:
            return None, Tensor(np.zeros((1, self.config.conv_filters))), None
        conv = chain_encode_tokens(self.embedding, np.asarray(token_ids, dtype=np.int64),
                                   self.conv_w, self.conv_b, self.config.dropout, rng)
        pooled, alpha = self._additive_attention(
            conv, self.word_attn_w, self.word_attn_b, self.word_attn_v)
        return conv, pooled, alpha

    def forward(self, sentence_ids, rng=None, article=None, heads=None):
        if not sentence_ids:
            raise ValueError("forward: essay has no sentences")
        conv_outputs, essay_hidden, essay_vector, _ = self.encode_essay(sentence_ids, rng)
        if self.config.architecture == "co_attention":
            if article is None:
                article = self.encode_article(rng)
            essay2article, article2essay = self.coattend(essay_hidden, article)
            e2a_pooled, _ = self._additive_attention(
                essay2article, self.e2a_attn_w, self.e2a_attn_b, self.e2a_attn_v)
            a2e_pooled, _ = self._additive_attention(
                article2essay, self.a2e_attn_w, self.a2e_attn_b, self.a2e_attn_v)
            modeling_in = nm.concat([essay_vector, e2a_pooled, a2e_pooled], axis=1)
        else:
            modeling_in = essay_vector
        if rng is not None:
            modeling_in = nm.dropout(modeling_in, self.config.dropout, rng)
        modeled = chain_dense(modeling_in, self.modeling_w, self.modeling_b, "tanh")
        score = chain_dense(modeled, self.output_w, self.output_b, "sigmoid")
        real_convs = [c for c in conv_outputs if c is not None]
        gaze_predictions = {}
        heads = self.config.gaze_attributes if heads is None else heads
        if heads and real_convs:
            all_tokens = nm.concat(real_convs, axis=0)
            for attribute in heads:
                gaze_predictions[attribute] = chain_dense(
                    all_tokens, self.gaze_w[attribute], self.gaze_b[attribute], "sigmoid")
        return ForwardOutput(predicted_score=score, gaze_predictions=gaze_predictions)


WEIGHTS = {"DT": 0.5, "FFD": 0.2, "Skip": 0.1}
ARTICLE = [[2, 3, 4], [5], [6, 7, 2, 9]]


def model_pair(architecture, gaze=tuple(WEIGHTS), **dims):
    params = dict(embedding_dim=4, conv_kernel=3, conv_filters=3, lstm_hidden=5,
                  modeling_hidden=3, dropout=0.5, vocab_size=12)
    params.update(dims)
    config = ModelConfig(architecture=architecture, gaze_attributes=tuple(gaze),
                         gaze_loss_weights={a: WEIGHTS.get(a, 0.3) for a in gaze}, **params)
    article = ARTICLE if architecture == "co_attention" else None
    return tuple(cls(config, np.random.default_rng(3), article_sentence_ids=article)
                 for cls in (EssayScorer, ChainScorer))


def mixed_examples(rng, n, base=0):
    """Essays with empty and one-token sentences, every third one unlabelled;
    labelled tokens repeat, as when several readers label one token."""
    shapes = [[0, 1, 4], [1], [3, 0], [0, 0], [5, 2, 1, 1], [2, 6]]
    examples = []
    for i in range(n):
        sents = [[int(rng.integers(1, 12)) for _ in range(length)]
                 for length in shapes[i % len(shapes)]]
        n_tokens = sum(len(s) for s in sents)
        targets = {}
        if i % 3 != 2 and n_tokens:
            idx = np.sort(rng.integers(0, n_tokens, size=2 * n_tokens))
            targets = {a: (idx, rng.random(idx.size)) for a in WEIGHTS}
        examples.append(TrainExample(essay_id=base + i, set_id=3, sentence_ids=sents,
                                     score_target=(i % 4) / 3, raw_score=i % 4,
                                     gaze_targets=targets))
    return examples


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_fused_training_matches_the_op_chains_bitwise(architecture):
    rng = np.random.default_rng(11)
    examples, dev = mixed_examples(rng, 9), mixed_examples(rng, 4, base=100)
    config = TrainConfig(batch_size=len(examples), epochs=3, seed=5)
    fused, chain = (train(model, examples, dev, config, {3: EssaySet(3, 0, 3)})
                    for model in model_pair(architecture))
    for state in ("final_state", "best_state"):
        for name, array in getattr(chain, state).items():
            assert getattr(fused, state)[name].tobytes() == array.tobytes(), (state, name)
    assert ([format_epoch_line(s) for s in fused.history]
            == [format_epoch_line(s) for s in chain.history])


def graph_nodes_per_essay(model, examples, monkeypatch):
    """Interior nodes of the graphs one training step on ``examples`` builds,
    per essay: each essay's as ``_forward_backward_by_essay`` builds it, root
    and every gaze head it runs included (a co-attention essay's stops at the
    article's stand-in leaf), and the article's once, shared over the essays."""
    counts = []

    def count(*nodes):
        counts.append(sum(n._grad_fn is not None for n in nm._topological_order(*nodes)))
        return nodes[0]

    essay_root, encode_article = training._essay_root, model.encode_article

    def counted_root(output, *args):
        root, finite = essay_root(output, *args)
        return count(root, *output.gaze_predictions.values()), finite

    def counted_article(rng=None):
        states = encode_article(rng)
        return states if states is None else count(states)

    monkeypatch.setattr(training, "_essay_root", counted_root)
    monkeypatch.setattr(model, "encode_article", counted_article)
    training._batch_gradients(model, model.parameters(), examples,
                              model.config.gaze_loss_weights, np.random.default_rng(0), 1, 0)
    return sum(counts) / len(examples)


# nodes per essay a training step may build; before the fused ops each
# essay took 12 nodes per sentence, about 183 with self-attention
NODE_BOUNDS = [("self_attention", 45), ("co_attention", 60)]


@pytest.mark.parametrize("architecture, bound", NODE_BOUNDS)
def test_twelve_sentence_essays_train_on_a_few_dozen_nodes(architecture, bound, monkeypatch):
    rng = np.random.default_rng(12)
    examples = []
    for i in range(10):
        sents = [[int(rng.integers(1, 12)) for _ in range(int(rng.integers(5, 20)))]
                 for _ in range(12)]
        n_tokens = sum(len(s) for s in sents)
        idx = np.sort(rng.integers(0, n_tokens, size=3 * n_tokens))
        examples.append(TrainExample(
            essay_id=i, set_id=3, sentence_ids=sents, score_target=0.5, raw_score=1,
            gaze_targets={a: (idx, rng.random(idx.size)) for a in GAZE_ATTRIBUTES}))
    model = model_pair(architecture, gaze=GAZE_ATTRIBUTES)[0]
    assert graph_nodes_per_essay(model, examples, monkeypatch) <= bound


@pytest.mark.parametrize("architecture, bound", NODE_BOUNDS)
def test_the_benchmark_batch_trains_on_a_few_dozen_nodes(architecture, bound, benchmark_batch,
                                                         monkeypatch):
    # the benchmark's first 10 train essays, 12 sentences each, at paper
    # defaults with all five gaze heads: 37.0 nodes per essay, and 52.2 with
    # co-attention (48.0 per essay and the article's 42 over the 10 essays).
    # The benchmark tracer's numerics.graph_nodes_per_essay counts only the
    # single ops it wraps, so this count is the one that sees the fused ops
    nodes = graph_nodes_per_essay(benchmark_batch.model(architecture),
                                  benchmark_batch.train[:10], monkeypatch)
    line = f"[graph nodes] {architecture}: {nodes:.1f} per essay"
    print("\n" + line)
    assert nodes <= bound, line


def partly_labelled_copies(examples):
    """Copies of ``examples`` with every third one unlabelled and every fourth
    of the rest labelled for DT alone."""
    return [replace(ex, gaze_targets={} if k % 3 == 2 else
                    {"DT": ex.gaze_targets["DT"]} if k % 4 == 1 else ex.gaze_targets)
            for k, ex in enumerate(examples)]


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_a_partly_labelled_batch_builds_no_head_that_no_label_reads(
        architecture, benchmark_batch, monkeypatch):
    # the benchmark's first 12 train essays, 4 of them unlabelled and 2 labelled
    # for DT alone: an unlabelled essay builds neither the five heads nor the
    # concat of its token block, a DT-only one four heads fewer, so a step
    # builds 32 nodes fewer than on the fully labelled essays
    model = benchmark_batch.model(architecture)
    full = graph_nodes_per_essay(model, benchmark_batch.train[:12], monkeypatch)
    monkeypatch.undo()
    nodes = graph_nodes_per_essay(model, partly_labelled_copies(benchmark_batch.train[:12]),
                                  monkeypatch)
    line = (f"[partly labelled graph nodes] {architecture}: {nodes:.1f} per essay, "
            f"{full:.1f} fully labelled")
    print("\n" + line)
    assert (full - nodes) * 12 == pytest.approx(32), line
