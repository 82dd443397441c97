"""Gradient checks and graph-machinery tests for the autodiff engine.

Every differentiable op is checked against central finite differences at
float64. The comparison uses |analytic - numeric| <= atol + rtol * |numeric|
with rtol 1e-4, which corresponds to a relative error well below 1e-4 for
gradients of order one.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazescore import numerics as nm
from gazescore.numerics import (
    ShapeError,
    Tensor,
    backward,
    zero_grads,
)

ATOL = 1e-7
RTOL = 1e-4


def numeric_gradient(f, tensors, h=1e-6):
    """Central-difference gradient of scalar f() w.r.t. each tensor's data."""
    grads = []
    for t in tensors:
        g = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = f()
            flat[i] = orig - h
            down = f()
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def check_gradients(build, tensors, seed=0):
    """Compare backward() gradients of build(tensors) to finite differences.

    ``build`` maps the tensors to an output Tensor of any shape; a fixed
    random projection reduces it to a scalar so every output coordinate
    influences the loss.
    """
    rng = np.random.default_rng(seed)
    out = build(*tensors)
    proj = rng.normal(size=out.data.shape)

    def loss_tensor():
        o = build(*tensors)
        return nm.tensor_sum(nm.mul(o, Tensor(proj)))

    zero_grads(tensors)
    loss = loss_tensor()
    backward(loss, parameters=tensors)
    numeric = numeric_gradient(lambda: float(loss_tensor().data), tensors)
    for t, num in zip(tensors, numeric):
        assert t.grad is not None
        np.testing.assert_allclose(t.grad, num, atol=ATOL, rtol=RTOL)


def param(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


# ---------------------------------------------------------------------------
# per-op gradient checks
# ---------------------------------------------------------------------------

def test_matmul_gradients():
    rng = np.random.default_rng(1)
    a, b = param(rng, 4, 3), param(rng, 3, 5)
    check_gradients(nm.matmul, [a, b])


def test_add_gradients_same_shape():
    rng = np.random.default_rng(2)
    check_gradients(nm.add, [param(rng, 3, 4), param(rng, 3, 4)])


def test_add_gradients_broadcast_row():
    rng = np.random.default_rng(3)
    check_gradients(nm.add, [param(rng, 3, 4), param(rng, 4)])


def test_add_gradients_broadcast_keepdim():
    rng = np.random.default_rng(4)
    check_gradients(nm.add, [param(rng, 3, 4), param(rng, 3, 1)])


def test_mul_gradients_broadcast():
    rng = np.random.default_rng(5)
    check_gradients(nm.mul, [param(rng, 2, 5), param(rng, 1, 5)])


def test_mul_gradients_scalar_operand():
    rng = np.random.default_rng(6)
    check_gradients(nm.mul, [param(rng, 3, 3), param(rng)])


def test_neg_gradients():
    rng = np.random.default_rng(7)
    check_gradients(nm.neg, [param(rng, 4)])


def test_concat_gradients_axis0():
    rng = np.random.default_rng(8)
    ts = [param(rng, 2, 3), param(rng, 4, 3), param(rng, 1, 3)]
    check_gradients(lambda *xs: nm.concat(xs, axis=0), ts)


def test_concat_gradients_axis1():
    rng = np.random.default_rng(9)
    ts = [param(rng, 3, 2), param(rng, 3, 5)]
    check_gradients(lambda *xs: nm.concat(xs, axis=1), ts)


def test_conv1d_gradients():
    rng = np.random.default_rng(10)
    x, w = param(rng, 7, 3), param(rng, 5, 3, 4)
    check_gradients(nm.conv1d, [x, w])


def test_conv1d_gradients_short_sequence():
    # sequence shorter than the kernel still convolves via padding
    rng = np.random.default_rng(11)
    x, w = param(rng, 2, 3), param(rng, 5, 3, 4)
    check_gradients(nm.conv1d, [x, w])


def test_conv1d_same_length_output():
    rng = np.random.default_rng(12)
    out = nm.conv1d(param(rng, 9, 2), param(rng, 3, 2, 6))
    assert out.data.shape == (9, 6)


def test_conv1d_matches_manual_window_sum():
    rng = np.random.default_rng(13)
    x, w = rng.normal(size=(6, 2)), rng.normal(size=(3, 2, 4))
    out = nm.conv1d(Tensor(x), Tensor(w)).data
    pad = np.vstack([np.zeros((1, 2)), x, np.zeros((1, 2))])
    for t in range(6):
        expect = sum(pad[t + j] @ w[j] for j in range(3))
        np.testing.assert_allclose(out[t], expect, atol=1e-12)


def test_sigmoid_gradients():
    rng = np.random.default_rng(14)
    check_gradients(nm.sigmoid, [param(rng, 3, 4)])


def test_sigmoid_extreme_inputs_stable():
    out = nm.sigmoid(Tensor([-800.0, 0.0, 800.0]))
    assert np.all(np.isfinite(out.data))
    np.testing.assert_allclose(out.data, [0.0, 0.5, 1.0], atol=1e-12)


def test_tanh_gradients():
    rng = np.random.default_rng(15)
    check_gradients(nm.tanh, [param(rng, 5)])


def test_softmax_gradients():
    rng = np.random.default_rng(16)
    check_gradients(lambda x: nm.softmax(x, axis=-1), [param(rng, 3, 5)])


def test_softmax_axis0_gradients():
    rng = np.random.default_rng(17)
    check_gradients(lambda x: nm.softmax(x, axis=0), [param(rng, 4, 2)])


def test_softmax_rows_sum_to_one_with_large_logits():
    x = Tensor(np.array([[1000.0, 1000.0, 999.0], [-1000.0, -1000.0, -1000.0]]))
    out = nm.softmax(x, axis=-1).data
    np.testing.assert_allclose(out.sum(axis=-1), [1.0, 1.0], atol=1e-12)


def test_masked_softmax_gradients():
    rng = np.random.default_rng(18)
    mask = np.array([[1, 1, 0, 1], [1, 0, 0, 1], [0, 1, 1, 1]])
    check_gradients(lambda x: nm.masked_softmax(x, mask, axis=-1), [param(rng, 3, 4)])


def test_masked_softmax_masked_positions_zero():
    rng = np.random.default_rng(19)
    mask = np.array([[1, 0, 1], [0, 0, 0]])
    out = nm.masked_softmax(param(rng, 2, 3), mask, axis=-1).data
    assert out[0, 1] == 0.0
    np.testing.assert_allclose(out[0].sum(), 1.0, atol=1e-12)
    # a fully masked row yields zeros, not NaN
    np.testing.assert_array_equal(out[1], np.zeros(3))


def test_masked_softmax_fully_masked_row_gradients():
    rng = np.random.default_rng(20)
    mask = np.array([[1, 1, 1], [0, 0, 0]])
    check_gradients(lambda x: nm.masked_softmax(x, mask, axis=-1), [param(rng, 2, 3)])


def test_dropout_gradients_fixed_mask():
    rng = np.random.default_rng(21)
    x = param(rng, 6, 5)
    # reseed inside the builder so finite differences see the same mask
    check_gradients(lambda t: nm.dropout(t, 0.4, np.random.default_rng(99)), [x])


def test_dropout_zero_probability_is_identity():
    x = param(np.random.default_rng(22), 4, 4)
    out = nm.dropout(x, 0.0, np.random.default_rng(0))
    assert out is x


def test_dropout_scales_survivors():
    x = Tensor(np.ones((2000,)), requires_grad=True)
    out = nm.dropout(x, 0.25, np.random.default_rng(23))
    kept = out.data != 0
    np.testing.assert_allclose(out.data[kept], 1.0 / 0.75)
    assert 0.65 < kept.mean() < 0.85


def test_dropout_rejects_bad_probability():
    x = Tensor(np.ones(3))
    with pytest.raises(ValueError):
        nm.dropout(x, 1.0, np.random.default_rng(0))


def test_mse_gradients():
    rng = np.random.default_rng(24)
    check_gradients(nm.mse, [param(rng, 4, 3), param(rng, 4, 3)])


def test_mse_scalar_value():
    pred = Tensor([1.0, 2.0, 3.0])
    target = Tensor([1.0, 0.0, 0.0])
    assert float(nm.mse(pred, target).data) == pytest.approx((0.0 + 4.0 + 9.0) / 3.0)


def test_gather_rows_gradients_with_repeats():
    rng = np.random.default_rng(25)
    table = param(rng, 6, 3)
    ids = np.array([0, 2, 2, 5, 0])
    check_gradients(lambda t: nm.gather_rows(t, ids), [table])


def test_gather_rows_accumulates_repeated_ids():
    table = Tensor(np.zeros((4, 2)), requires_grad=True)
    out = nm.gather_rows(table, [1, 1, 1])
    backward(nm.tensor_sum(out))
    np.testing.assert_array_equal(table.grad[1], [3.0, 3.0])
    np.testing.assert_array_equal(table.grad[0], [0.0, 0.0])


def test_gather_rows_gradient_matches_dense_reference_bitwise():
    # the row-sparse backward must add each row's terms in the order the
    # dense np.add.at table did, and sum the two calls' tables the same way
    rng = np.random.default_rng(33)
    data = rng.standard_normal((7, 3))
    first, second = np.array([4, 1, 4, 4, 6]), np.array([1, 6, 1, 0])
    w1, w2 = rng.standard_normal((5, 3)), rng.standard_normal((4, 3))
    table = Tensor(data, requires_grad=True)
    backward(nm.add(nm.tensor_sum(nm.mul(nm.gather_rows(table, first), Tensor(w1))),
                    nm.tensor_sum(nm.mul(nm.gather_rows(table, second), Tensor(w2)))))
    dense = []
    for ids, w in ((first, w1), (second, w2)):
        gt = np.zeros_like(data)
        np.add.at(gt, ids, w)
        dense.append(gt)
    assert np.array_equal(table.grad, dense[0] + dense[1])


def test_gather_rows_bounds_checked():
    table = Tensor(np.zeros((4, 2)))
    with pytest.raises(IndexError):
        nm.gather_rows(table, [0, 4])
    with pytest.raises(IndexError):
        nm.gather_rows(table, [-1])


def test_narrow_gradients():
    rng = np.random.default_rng(26)
    check_gradients(lambda x: nm.narrow(x, 1, 2, 5), [param(rng, 3, 7)])


def test_narrow_bounds():
    x = Tensor(np.zeros((3, 7)))
    with pytest.raises(ShapeError):
        nm.narrow(x, 1, 5, 5)
    with pytest.raises(ShapeError):
        nm.narrow(x, 0, 0, 4)


def test_sum_gradients_all():
    rng = np.random.default_rng(27)
    check_gradients(nm.tensor_sum, [param(rng, 3, 4)])


def test_sum_gradients_axis():
    rng = np.random.default_rng(28)
    check_gradients(lambda x: nm.tensor_sum(x, axis=0), [param(rng, 3, 4)])
    check_gradients(lambda x: nm.tensor_sum(x, axis=1, keepdims=True), [param(rng, 3, 4)])


def test_transpose_gradients():
    rng = np.random.default_rng(29)
    check_gradients(nm.transpose, [param(rng, 3, 5)])


def reference_lstm(x, wx, wh, b):
    """The per-step composition nm.lstm replaces: hidden states (n, H)."""
    h_size = wh.data.shape[0]
    h = Tensor(np.zeros((1, h_size)))
    c = Tensor(np.zeros((1, h_size)))
    hidden_states = []
    for t in range(x.data.shape[0]):
        z = nm.add(nm.add(nm.matmul(nm.narrow(x, 0, t, t + 1), wx), nm.matmul(h, wh)), b)
        i = nm.sigmoid(nm.narrow(z, 1, 0, h_size))
        f = nm.sigmoid(nm.narrow(z, 1, h_size, 2 * h_size))
        g = nm.tanh(nm.narrow(z, 1, 2 * h_size, 3 * h_size))
        o = nm.sigmoid(nm.narrow(z, 1, 3 * h_size, 4 * h_size))
        c = nm.add(nm.mul(f, c), nm.mul(i, g))
        h = nm.mul(o, nm.tanh(c))
        hidden_states.append(h)
    return nm.concat(hidden_states, axis=0)


def test_lstm_gradients():
    rng = np.random.default_rng(34)
    check_gradients(nm.lstm, [param(rng, 3, 2), param(rng, 2, 12), param(rng, 3, 12),
                              param(rng, 12)])


@pytest.mark.parametrize("x_requires_grad", [True, False])
def test_lstm_matches_per_gate_composition_bitwise(x_requires_grad):
    """Two sequences share the weights, so each weight gradient sums many steps."""
    rng = np.random.default_rng(35)
    f_size, h_size = 4, 5
    xs_data = [rng.standard_normal((n, f_size)) for n in (3, 6)]
    weights_data = [rng.standard_normal((f_size, 4 * h_size)),
                    rng.standard_normal((h_size, 4 * h_size)),
                    2.0 * rng.standard_normal(4 * h_size)]
    weights_data[2][:3] = [40.0, -40.0, 0.0]  # saturated and zero pre-activations
    projections = [Tensor(rng.standard_normal((len(x), h_size))) for x in xs_data]

    runs = []
    for lstm in (nm.lstm, reference_lstm):
        xs = [Tensor(x, requires_grad=x_requires_grad) for x in xs_data]
        weights = [Tensor(w, requires_grad=True) for w in weights_data]
        outs = [lstm(x, *weights) for x in xs]
        backward(nm.add(*[nm.tensor_sum(nm.mul(out, proj))
                          for out, proj in zip(outs, projections)]))
        runs.append((outs, xs, weights))
    (outs, xs, weights), (ref_outs, ref_xs, ref_weights) = runs

    for out, ref in zip(outs, ref_outs):
        assert np.array_equal(out.data, ref.data)
    for w, ref in zip(weights, ref_weights):
        assert np.array_equal(w.grad, ref.grad)
    for x, ref in zip(xs, ref_xs):
        if x_requires_grad:
            assert np.array_equal(x.grad, ref.grad)
        else:
            assert x.grad is None and ref.grad is None


def test_composite_expression_gradients():
    # small attention-like pipeline exercising op composition
    rng = np.random.default_rng(30)
    h = param(rng, 5, 4)
    w = param(rng, 4, 4)
    v = param(rng, 4, 1)

    def build(h, w, v):
        scores = nm.matmul(nm.tanh(nm.matmul(h, w)), v)
        alpha = nm.softmax(nm.transpose(scores), axis=-1)
        return nm.matmul(alpha, h)

    check_gradients(build, [h, w, v])


# ---------------------------------------------------------------------------
# graph machinery
# ---------------------------------------------------------------------------

def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        backward(nm.add(x, x))


def test_backward_diamond_graph_accumulates():
    x = Tensor(np.array([3.0]), requires_grad=True)
    y = nm.add(nm.mul(x, x), nm.mul(x, x))  # 2x^2, dy/dx = 4x
    backward(nm.tensor_sum(y))
    np.testing.assert_allclose(x.grad, [12.0])


def test_backward_reused_node_multiple_consumers():
    x = Tensor(np.array([2.0]), requires_grad=True)
    s = nm.mul(x, x)  # x^2
    out = nm.add(s, nm.mul(s, s))  # x^2 + x^4 -> grad 2x + 4x^3 = 36
    backward(nm.tensor_sum(out))
    np.testing.assert_allclose(x.grad, [36.0])


def test_backward_zero_fills_unreached_parameters():
    x = Tensor(np.array([1.0]), requires_grad=True)
    unused = Tensor(np.ones((2, 2)), requires_grad=True)
    backward(nm.tensor_sum(nm.mul(x, x)), parameters=[x, unused])
    np.testing.assert_array_equal(unused.grad, np.zeros((2, 2)))


def test_backward_accumulates_across_calls():
    x = Tensor(np.array([2.0]), requires_grad=True)
    backward(nm.tensor_sum(nm.mul(x, x)))
    first = x.grad.copy()
    backward(nm.tensor_sum(nm.mul(x, x)))
    np.testing.assert_allclose(x.grad, 2 * first)
    zero_grads([x])
    assert x.grad is None


def test_add_shares_its_gradient_and_a_later_contribution_leaves_it_alone():
    # add hands one array to both inputs; b's path into a replays after y's,
    # so a's second contribution must not be added into the shared array
    a = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    b = nm.mul(a, Tensor(np.array([3.0, 5.0, 7.0])))
    y = nm.add(a, b)
    w = np.array([2.0, -1.0, 4.0])
    backward(nm.tensor_sum(nm.mul(y, Tensor(w))))
    np.testing.assert_array_equal(b.grad, w)
    np.testing.assert_array_equal(y.grad, w)
    np.testing.assert_array_equal(a.grad, w + w * [3.0, 5.0, 7.0])


def test_gradient_held_from_an_earlier_backward_is_not_written():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)

    def loss():  # two contributions, so x.grad is a buffer backward allocated
        return nm.tensor_sum(nm.add(nm.mul(x, Tensor(np.array([3.0, 5.0]))),
                                    nm.mul(x, Tensor(np.array([-1.0, 2.0])))))

    backward(loss())
    held = x.grad
    first = held.copy()
    backward(loss())
    np.testing.assert_array_equal(held, first)
    np.testing.assert_array_equal(x.grad, 2 * first)


def test_deep_chain_does_not_overflow_recursion():
    x = Tensor(np.array([1.0]), requires_grad=True)
    y = x
    for _ in range(5000):
        y = nm.add(y, x)
    backward(nm.tensor_sum(y))
    np.testing.assert_allclose(x.grad, [5001.0])


def test_no_grad_tracking_without_requires_grad():
    a = Tensor(np.ones(3))
    b = Tensor(np.ones(3))
    out = nm.add(a, b)
    assert not out.requires_grad
    assert out._grad_fn is None


# ---------------------------------------------------------------------------
# shape validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "fn,args",
    [
        (nm.matmul, (Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))),
        (nm.matmul, (Tensor(np.ones(3)), Tensor(np.ones(3)))),
        (nm.add, (Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))))),
        (nm.mul, (Tensor(np.ones((3, 2))), Tensor(np.ones((2, 3))))),
        (nm.mse, (Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))),
        (nm.conv1d, (Tensor(np.ones((5, 3))), Tensor(np.ones((4, 3, 2))))),
        (nm.conv1d, (Tensor(np.ones((5, 3))), Tensor(np.ones((3, 2, 2))))),
        (nm.transpose, (Tensor(np.ones(3)),)),
        (nm.lstm, (Tensor(np.ones((2, 3))), Tensor(np.ones((3, 8))), Tensor(np.ones((2, 4))),
                   Tensor(np.ones(8)))),
        (nm.lstm, (Tensor(np.ones((2, 3))), Tensor(np.ones((2, 8))), Tensor(np.ones((2, 8))),
                   Tensor(np.ones(8)))),
        (nm.lstm, (Tensor(np.ones((0, 3))), Tensor(np.ones((3, 8))), Tensor(np.ones((2, 8))),
                   Tensor(np.ones(8)))),
    ],
)
def test_shape_errors(fn, args):
    with pytest.raises(ShapeError):
        fn(*args)


def test_shape_error_message_names_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        nm.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_concat_shape_mismatch():
    with pytest.raises(ShapeError):
        nm.concat([Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4)))], axis=0)


def test_concat_of_one_tensor_is_that_tensor():
    t = Tensor(np.ones((2, 3)), requires_grad=True)
    assert nm.concat([t], axis=1) is t
    with pytest.raises(ValueError, match="at least one"):
        nm.concat([])


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
@settings(max_examples=50, deadline=None)
def test_softmax_is_distribution(xs):
    out = nm.softmax(Tensor(np.array([xs])), axis=-1).data
    assert np.all(out >= 0)
    assert out.sum() == pytest.approx(1.0, abs=1e-9)


@given(st.floats(-30, 30))
@settings(max_examples=50, deadline=None)
def test_sigmoid_range_and_symmetry(x):
    lo = nm.sigmoid(Tensor([x])).data[0]
    hi = nm.sigmoid(Tensor([-x])).data[0]
    assert 0.0 <= lo <= 1.0
    assert lo + hi == pytest.approx(1.0, abs=1e-12)
