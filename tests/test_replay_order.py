"""Backward's replay order, and a training step's gradients against the batch graph's.

``backward`` replays every graph in one order, the reference order: the
reverse of a depth-first post-order from the loss. A training step builds one
essay's graph at a time (a co-attention model's article once, before the
essays) and holds some nodes back; its gradients must equal, bit for bit,
those of ``backward`` over the batch's graph.
"""

import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazescore import numerics as nm
from gazescore import training
from gazescore.model import ARCHITECTURES
from gazescore.numerics import Tensor
from oracle import batch_graph, batch_loss
from test_acceptance import OP_INSTANCES, _model_loss_case
from test_fused import WEIGHTS, mixed_examples, model_pair


def assert_backward_replays_the_reference_order(loss):
    """Record the order in which ``backward(loss)`` calls each interior node's
    gradient function, and check it is the reverse of ``_topological_order(loss)``."""
    reference = [node for node in nm._topological_order(loss)[::-1] if node._grad_fn is not None]
    called = []

    def recording(node, grad_fn):
        def grad_fn_recorded(g):
            called.append(id(node))
            grad_fn(g)
        return grad_fn_recorded

    for node in reference:
        node._grad_fn = recording(node, node._grad_fn)
    nm.backward(loss)
    assert called == [id(node) for node in reference]


@pytest.mark.parametrize("op", sorted(OP_INSTANCES))
def test_an_op_instance_replays_in_the_reference_order(op):
    rng = np.random.default_rng(20240601)
    for _ in range(10):
        arrays, build = OP_INSTANCES[op](rng)
        out = build([Tensor(a, requires_grad=True) for a in arrays])
        loss = nm.tensor_sum(nm.mul(out, Tensor(rng.standard_normal(out.data.shape))))
        assert_backward_replays_the_reference_order(loss)


def test_a_model_instance_of_the_gradient_oracle_replays_in_the_reference_order():
    rng = np.random.default_rng(20240601)
    for _ in range(10):
        assert_backward_replays_the_reference_order(_model_loss_case(rng)[1]())
    # the batch graph a training step is checked against, on essays with
    # empty and one-token sentences, for the fused model and the single-op chains
    examples = mixed_examples(np.random.default_rng(11), 9)
    for architecture in ARCHITECTURES:
        for model in model_pair(architecture):
            outputs = batch_graph(model, [ex.sentence_ids for ex in examples],
                                  np.random.default_rng(5))
            loss, _ = batch_loss(outputs, examples, model.config.gaze_loss_weights,
                                  model.config.gaze_attributes)
            assert len(nm._topological_order(loss)) > 100
            assert_backward_replays_the_reference_order(loss)


def partly_labelled(examples):
    """``examples`` with every fourth one labelled for DT alone, so that the
    essays' encoders are first reached by three different loss terms."""
    for k, ex in enumerate(examples):
        if k % 4 == 1 and ex.gaze_targets:
            ex.gaze_targets = {"DT": ex.gaze_targets["DT"]}
    return examples


def assert_step_gives_the_batch_graphs_gradients(model, examples, weights):
    """A training step's gradients and breakdown on ``examples``, one essay's
    graph at a time, against backward(batch_loss(batch_graph(...))), bit for bit."""
    params = model.parameters()
    breakdown = training._batch_gradients(model, params, examples, weights,
                                          np.random.default_rng(5), 1, 0)
    by_essay = {name: p.grad for name, p in model.named_parameters().items()}
    outputs = batch_graph(model, [ex.sentence_ids for ex in examples], np.random.default_rng(5))
    loss, expected = batch_loss(outputs, examples, weights, model.config.gaze_attributes)
    nm.zero_grads(params)
    nm.backward(loss)
    nm._fill_grads(params)
    assert breakdown == expected
    for name, p in model.named_parameters().items():
        label = (type(model).__name__, len(examples), name)
        assert np.array_equal(by_essay[name], p.grad), label
        assert by_essay[name].tobytes() == p.grad.tobytes(), label


@pytest.mark.parametrize("partly", [False, True])
@pytest.mark.parametrize("dropout", [0.0, 0.5])
def test_a_self_attention_step_gives_the_batch_graphs_gradients_bitwise(dropout, partly):
    # one essay's graph at a time, seeded with its share of the loss's
    # gradient, on essays with empty and one-token sentences, unlabelled ones
    # among them, with FFD at weight 0, for the fused model and the single-op chains
    weights = {"DT": 0.5, "FFD": 0.0, "Skip": 0.1}
    for model in model_pair("self_attention", dropout=dropout):
        examples = mixed_examples(np.random.default_rng(11), 9)
        if partly:
            examples = partly_labelled(examples)
        assert_step_gives_the_batch_graphs_gradients(model, examples, weights)


@pytest.mark.parametrize("partly", [False, True])
@pytest.mark.parametrize("dropout", [0.0, 0.5])
def test_a_co_attention_step_gives_the_batch_graphs_gradients_bitwise(dropout, partly):
    # the article encoded once, each essay's graph on a stand-in for its
    # states, the article's backward after the last essay's; batches whose
    # last essay is labelled (1, 2 and 8 essays) or not (9), of essays with
    # empty and one-token sentences, with FFD at weight 0, in shuffled order
    # too, for the fused model and the single-op chains
    weights = {"DT": 0.5, "FFD": 0.0, "Skip": 0.1}
    for model in model_pair("co_attention", dropout=dropout):
        examples = mixed_examples(np.random.default_rng(11), 9)
        if partly:
            examples = partly_labelled(examples)
        for size in (1, 2, 8, 9):
            assert_step_gives_the_batch_graphs_gradients(model, examples[:size], weights)
        shuffled = [examples[k] for k in np.random.default_rng(3).permutation(9)]
        assert_step_gives_the_batch_graphs_gradients(model, shuffled, weights)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_a_step_gives_the_batch_graphs_gradients_on_random_batches(data):
    # 1 to 9 essays with empty and one-token sentences, each labelled for its
    # own subset of the gaze terms, weighted 0, 0.05, 0.5 or 1, in shuffled
    # order, at dropout 0 and 0.5, for both architectures, the fused model and
    # the single-op chains
    architecture = data.draw(st.sampled_from(ARCHITECTURES))
    dropout = data.draw(st.sampled_from([0.0, 0.5]))
    model = model_pair(architecture, dropout=dropout)[data.draw(st.integers(0, 1))]
    size = data.draw(st.integers(1, 9))
    essays = mixed_examples(np.random.default_rng(data.draw(st.integers(0, 2**16))), size)
    labels = data.draw(st.lists(st.sets(st.sampled_from(sorted(WEIGHTS))),
                                min_size=size, max_size=size))
    weights = data.draw(st.fixed_dictionaries(
        {attribute: st.sampled_from([0.0, 0.05, 0.5, 1.0]) for attribute in WEIGHTS}))
    examples = [replace(essays[k], gaze_targets={a: targets for a, targets
                                                 in essays[k].gaze_targets.items()
                                                 if a in labels[k]})
                for k in data.draw(st.permutations(range(size)))]
    assert_step_gives_the_batch_graphs_gradients(model, examples, weights)


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_a_training_forward_runs_the_heads_of_its_labelled_attributes_alone(
        architecture, monkeypatch):
    # an unlabelled essay's forward builds no gaze head node, a labelled one
    # those of the attributes it has rows for, FFD's at weight 0 included,
    # whose MSE the breakdown reports
    model = model_pair(architecture)[0]
    examples = partly_labelled(mixed_examples(np.random.default_rng(11), 9))
    heads = {id(w): attribute for attribute, w in model.gaze_w.items()}
    built = []  # per forward, the attributes of the head nodes it builds
    dense, forward = nm.dense, model.forward

    def recording_dense(x, w, b, activation):
        if id(w) in heads:
            built[-1].append(heads[id(w)])
        return dense(x, w, b, activation)

    def recording_forward(*args, **kwargs):
        built.append([])
        return forward(*args, **kwargs)

    monkeypatch.setattr(nm, "dense", recording_dense)
    monkeypatch.setattr(model, "forward", recording_forward)
    breakdown = training._batch_gradients(model, model.parameters(), examples,
                                          {"DT": 0.5, "FFD": 0.0, "Skip": 0.1},
                                          np.random.default_rng(5), 1, 0)
    expected = [[a for a in model.config.gaze_attributes
                 if any(ex.sentence_ids) and len(ex.gaze_targets.get(a, ((), ()))[0])]
                for ex in examples]
    assert built == expected
    assert [] in expected and ["DT"] in expected and ["DT", "FFD", "Skip"] in expected
    assert breakdown.gaze_mse["FFD"] > 0


@pytest.mark.parametrize("size", [5, 8, 9])
def test_a_co_attention_step_holds_the_encoders_and_the_last_lstm_for_the_article(
        size, monkeypatch):
    # the nodes a co-attention step holds back until the article's backward,
    # and the turn each replays at: the encoders of every labelled essay at
    # its own; the last essay's LSTM, the concat that feeds it and its word
    # attentions right after the article; the last essay's encoders with
    # them, or at its own turn when it is labelled, with its token block's
    # concat or, with one sentence, its gaze heads, which read its encoder
    # after its word attention (essay 4 is labelled with four sentences,
    # essay 7 with one, essay 8 not)
    model = model_pair("co_attention")[0]
    examples = partly_labelled(mixed_examples(np.random.default_rng(11), size))
    labelled = [bool(ex.gaze_targets and any(ex.sentence_ids)) for ex in examples]
    last = size - 1
    graphs = []  # each essay's output and interior nodes with their parents, before its backward
    essay_root = training._essay_root

    def recording_root(output, example, labelled, score_coeff, terms):
        root, finite = essay_root(output, example, labelled, score_coeff, terms)
        graphs.append((output, [(node, node._parents) for node in nm._topological_order(root)
                                if node._grad_fn is not None]))
        return root, finite

    holds = {}  # turn -> the interior nodes _EssayBackward holds for it

    class RecordingHolds(dict):
        def __setitem__(self, turn, nodes):
            holds[turn] = [node for node in nodes if node._grad_fn is not None]
            super().__setitem__(turn, nodes)

    init = training._EssayBackward.__init__

    def recording_init(self, *args):
        init(self, *args)
        self._held = RecordingHolds()

    monkeypatch.setattr(training, "_essay_root", recording_root)
    monkeypatch.setattr(training._EssayBackward, "__init__", recording_init)
    _, essays = training._forward_backward_by_essay(
        model, examples, model.config.gaze_loss_weights, np.random.default_rng(5))

    def ids(nodes):
        return {id(node) for node in nodes}

    def made_by(essay, parameter):
        return [node for node, parents in graphs[essay][1] if any(p is parameter for p in parents)]

    expected = {(essays._ranks[essay], essay): ids(made_by(essay, model.embedding))
                for essay in range(last) if labelled[essay]}
    [(lstm, (lstm_input, *_))] = [(node, parents) for node, parents in graphs[last][1]
                                  if any(p is model.lstm_wx for p in parents)]
    expected[(0, last)] = ids([lstm, lstm_input, *made_by(last, model.word_attn_w)])
    encoders = ids(made_by(last, model.embedding))
    if labelled[last]:
        dt_head = graphs[last][0].gaze_predictions["DT"]
        [tokens] = [parents[0] for node, parents in graphs[last][1] if node is dt_head]
        if tokens in made_by(last, model.embedding):  # one sentence, read by the heads
            encoders |= ids(head for w in model.gaze_w.values() for head in made_by(last, w))
        else:
            encoders.add(id(tokens))
        expected[(essays._ranks[last], last)] = encoders
    else:
        expected[(0, last)] |= encoders
    article = holds.pop((0, last - 0.5))
    assert {turn: ids(nodes) for turn, nodes in holds.items()} == expected
    assert article[0] is essays._article[0]  # the article's states, seeded, then its graph
    # an unlabelled essay before the last runs its encoders at once
    assert any(not labelled[essay] for essay in range(last))


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_an_essays_token_block_is_freed_once_its_backward_returns(architecture, monkeypatch):
    # held encoders keep their gradient through tanh, not their output, so
    # nothing holds a labelled essay's token block once its backward has run;
    # the last co-attention essay's waits for the article's backward
    model = model_pair(architecture)[0]
    examples = partly_labelled(mixed_examples(np.random.default_rng(11), 9))
    blocks = []
    essay_root = training._essay_root

    def recording_root(output, example, labelled, score_coeff, terms):
        assert all(block() is None for block in blocks)  # the earlier essays' are gone
        if example.gaze_targets and any(example.sentence_ids):
            tokens = output.gaze_predictions["DT"]._parents[0].data
            blocks.append(weakref.ref(tokens if tokens.base is None else tokens.base))
        return essay_root(output, example, labelled, score_coeff, terms)

    monkeypatch.setattr(training, "_essay_root", recording_root)
    training._batch_gradients(model, model.parameters(), examples,
                              model.config.gaze_loss_weights, np.random.default_rng(5), 1, 0)
    assert len(blocks) == 5 and all(block() is None for block in blocks)
