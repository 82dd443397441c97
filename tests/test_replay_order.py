"""Backward's replay order against the depth-first order it regroups.

``backward`` runs a training batch's nodes one essay at a time. The reference
is the reverse of a depth-first post-order from the loss, the order backward
ran every graph in before. Each tensor's consumers must still add into its
gradient in the reference's order, so every gradient equals the reference's
bit for bit, and a graph whose nodes carry no essay mark runs in exactly the
reference order.
"""

import numpy as np
import pytest

from gazescore import numerics as nm
from gazescore.model import ARCHITECTURES
from gazescore.numerics import Tensor
from gazescore.training import multitask_loss
from test_acceptance import OP_INSTANCES, _model_loss_case
from test_fused import mixed_examples, model_pair


def reference_order(root):
    """The nodes under root in the reverse of a depth-first post-order from it."""
    return nm._topological_order(root)[::-1]


def same_nodes(a, b):
    return [id(node) for node in a] == [id(node) for node in b]


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_essay_by_essay_gradients_equal_the_reference_orders_bitwise(architecture,
                                                                      monkeypatch):
    # essays with empty and one-token sentences, every third one unlabelled,
    # at dropout 0.5; the same seeds build the same graph twice
    examples = mixed_examples(np.random.default_rng(11), 9)
    model = model_pair(architecture)[0]
    assert model.config.dropout == 0.5

    def gradients():
        outputs = model.forward_batch([ex.sentence_ids for ex in examples],
                                      np.random.default_rng(5))
        loss, _ = multitask_loss(outputs, examples, model.config.gaze_loss_weights)
        order, reference = nm._replay_order(loss), reference_order(loss)
        regrouped = not same_nodes(order, reference)
        assert sorted(map(id, order)) == sorted(map(id, reference))
        nm.zero_grads(model.parameters())
        nm.backward(loss, model.parameters())
        return regrouped, {name: p.grad for name, p in model.named_parameters().items()}

    regrouped, grouped = gradients()
    assert regrouped
    monkeypatch.setattr(nm, "_replay_order", reference_order)
    reference = gradients()[1]
    assert list(grouped) == list(reference)
    for name, grad in reference.items():
        assert grouped[name].tobytes() == grad.tobytes(), name


@pytest.mark.parametrize("op", sorted(OP_INSTANCES))
def test_an_op_instance_replays_in_the_reference_order(op):
    rng = np.random.default_rng(20240601)
    for _ in range(10):
        arrays, build = OP_INSTANCES[op](rng)
        out = build([Tensor(a, requires_grad=True) for a in arrays])
        loss = nm.tensor_sum(nm.mul(out, Tensor(rng.standard_normal(out.data.shape))))
        assert same_nodes(nm._replay_order(loss), reference_order(loss))


def test_a_model_instance_of_the_gradient_oracle_replays_in_the_reference_order():
    rng = np.random.default_rng(20240601)
    for _ in range(10):
        loss = _model_loss_case(rng)[1]()
        assert same_nodes(nm._replay_order(loss), reference_order(loss))


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_the_single_op_chains_scored_without_marks_replay_in_the_reference_order(
        architecture):
    # forward, called per essay, marks no node; forward_batch marks each essay's
    examples = mixed_examples(np.random.default_rng(11), 9)
    model = model_pair(architecture)[1]
    rng = np.random.default_rng(5)
    outputs = [model.forward(ex.sentence_ids, rng) for ex in examples]
    loss, _ = multitask_loss(outputs, examples, model.config.gaze_loss_weights)
    reference = reference_order(loss)
    assert len(reference) > 100 and all(node._essay == -1 for node in reference)
    assert same_nodes(nm._replay_order(loss), reference)
