"""Optimizer tests with hand-computed step values frozen as literals."""

import numpy as np
import pytest

from gazescore import numerics as nm
from gazescore.numerics import Tensor
from gazescore.optim import RMSProp, clip_global_norm


def make_param(values):
    t = Tensor(np.array(values, dtype=np.float64), requires_grad=True)
    return t


def test_zero_gradient_is_fixed_point():
    p = make_param([1.0, -2.0, 3.0])
    opt = RMSProp([p])
    p.grad = np.zeros(3)
    before = p.data.copy()
    for _ in range(5):
        opt.step()
    np.testing.assert_array_equal(p.data, before)


def test_missing_gradient_skips_parameter():
    p, q = make_param([1.0]), make_param([2.0])
    opt = RMSProp([p, q])
    p.grad = np.array([0.5])
    opt.step()
    assert q.data[0] == 2.0
    assert p.data[0] != 1.0


def test_single_step_matches_hand_calculation():
    # lr 0.001, decay 0.9, momentum 0.9, eps 1e-6, g = 0.5 from w = 1:
    #   avg  = 0.1 * 0.25            = 0.025
    #   step = 0.001 * 0.5 / sqrt(avg + 1e-6)
    #   w    = 1 - step              = 0.9968377855834876
    p = make_param([1.0])
    opt = RMSProp([p], lr=0.001, decay=0.9, momentum=0.9, eps=1e-6)
    p.grad = np.array([0.5])
    opt.step()
    np.testing.assert_allclose(p.data, [0.9968377855834876], atol=1e-15)


def test_second_step_applies_momentum_and_decay():
    # continuing the single-step example with the same gradient:
    #   avg  = 0.9 * 0.025 + 0.1 * 0.25 = 0.0475
    #   step = 0.9 * step1 + 0.001 * 0.5 / sqrt(avg + 1e-6)
    #   w    = 0.991697659418564
    p = make_param([1.0])
    opt = RMSProp([p], lr=0.001, decay=0.9, momentum=0.9, eps=1e-6)
    for _ in range(2):
        p.grad = np.array([0.5])
        opt.step()
    np.testing.assert_allclose(p.data, [0.991697659418564], atol=1e-15)


def test_updates_are_sign_symmetric():
    # mirrored gradients produce mirrored trajectories around the start
    p_pos, p_neg = make_param([0.0, 0.0]), make_param([0.0, 0.0])
    opt_pos, opt_neg = RMSProp([p_pos]), RMSProp([p_neg])
    rng = np.random.default_rng(0)
    for _ in range(10):
        g = rng.normal(size=2)
        p_pos.grad, p_neg.grad = g.copy(), -g
        opt_pos.step()
        opt_neg.step()
    np.testing.assert_allclose(p_pos.data, -p_neg.data, atol=1e-15)


def test_identical_runs_are_deterministic():
    def run():
        p = make_param([[1.0, 2.0], [3.0, 4.0]])
        opt = RMSProp([p], lr=0.01)
        rng = np.random.default_rng(7)
        for _ in range(20):
            p.grad = rng.normal(size=(2, 2))
            opt.step()
        return p.data

    np.testing.assert_array_equal(run(), run())


def test_descends_on_quadratic():
    # minimize (w - 3)^2; gradient 2(w - 3)
    p = make_param([0.0])
    opt = RMSProp([p], lr=0.05)
    for _ in range(500):
        p.grad = 2.0 * (p.data - 3.0)
        opt.step()
    assert abs(p.data[0] - 3.0) < 0.05


def test_rejects_duplicate_parameters():
    p = make_param([1.0])
    with pytest.raises(ValueError):
        RMSProp([p, p])


def test_zero_grad_clears_all():
    p, q = make_param([1.0]), make_param([2.0])
    p.grad, q.grad = np.array([1.0]), np.array([1.0])
    nm.zero_grads([p, q])
    assert p.grad is None and q.grad is None


def test_clip_global_norm_rescales():
    p, q = make_param([0.0, 0.0]), make_param([0.0])
    p.grad = np.array([3.0, 0.0])
    q.grad = np.array([4.0])
    norm = clip_global_norm([p, q], max_norm=1.0)
    assert norm == pytest.approx(5.0)
    clipped = np.sqrt((p.grad ** 2).sum() + (q.grad ** 2).sum())
    assert clipped == pytest.approx(1.0)
    # direction is preserved
    np.testing.assert_allclose(p.grad, [0.6, 0.0])
    np.testing.assert_allclose(q.grad, [0.8])


def test_clip_global_norm_noop_below_threshold():
    p = make_param([0.0, 0.0])
    p.grad = np.array([0.3, 0.4])
    norm = clip_global_norm([p], max_norm=10.0)
    assert norm == pytest.approx(0.5)
    np.testing.assert_array_equal(p.grad, [0.3, 0.4])


def test_clip_global_norm_ignores_missing_grads():
    p, q = make_param([0.0]), make_param([0.0])
    p.grad = np.array([2.0])
    assert clip_global_norm([p, q], max_norm=1.0) == pytest.approx(2.0)
    assert q.grad is None


def test_clip_global_norm_rejects_nonpositive():
    with pytest.raises(ValueError):
        clip_global_norm([], max_norm=0.0)
