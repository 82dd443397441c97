"""End-to-end acceptance checks, one per release criterion.

Each test prints a single PASS/FAIL line; run with

    python3 -m pytest tests/test_acceptance.py -v -s

Criteria 1-8 are self-contained. Criterion 9 reproduces the headline
comparison on real corpus data and is skipped unless GAZESCORE_FULLDATA_DIR
points at a directory with essays.tsv, sets.cfg and gaze.csv in the formats
documented in the README.
"""

import json
import os
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import gazescore.numerics as nm
from gazescore.corpus import (
    Essay,
    EssaySet,
    build_vocab,
    load_essays,
    load_set_metadata,
    normalize_score,
)
from gazescore.experiments import (
    ExperimentConfig,
    ExperimentData,
    LeakageError,
    compare,
    format_report,
    make_folds,
)
from gazescore.gaze import (
    GAZE_ATTRIBUTES,
    GazeRecord,
    GazeTable,
    bin_fixation,
    bin_run_count,
    load_gaze_records,
)
from gazescore.metrics import agreement_counts, qwk
from gazescore.model import EssayScorer, ModelConfig
from gazescore.numerics import Tensor
from gazescore.training import (
    TrainConfig,
    dev_qwk,
    evaluate_breakdown,
    prepare_example,
    train,
)
from oracle import run_experiment

FIXTURES = Path(__file__).parent / "fixtures"
FULL_DATA_ENV = "GAZESCORE_FULLDATA_DIR"

WORDS = ["the", "cat", "sat", "on", "a", "mat", "dog", "ran", "far", "blue",
         "tree", "bird", "sun", "sky"]

SET_0_3 = EssaySet(3, 0, 3)


def _report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    line = f"[acceptance {number}] {status} {name}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert passed, line


# =====================================================================
# 1. gradient oracle: central finite differences for every op and for
#    the end-to-end model, relative error < 1e-4, under 60 s
# =====================================================================

FD_STEP = 1e-6
FD_TOLERANCE = 1e-4


def _finite_difference(f, arrays):
    grads = []
    for arr in arrays:
        grad = np.zeros_like(arr)
        flat, gflat = arr.reshape(-1), grad.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + FD_STEP
            up = f()
            flat[i] = keep - FD_STEP
            down = f()
            flat[i] = keep
            gflat[i] = (up - down) / (2.0 * FD_STEP)
        grads.append(grad)
    return grads


def _relative_error(auto, fd):
    if auto.size == 0:
        return 0.0
    gap = np.abs(auto - fd)
    scale = np.maximum(np.abs(auto) + np.abs(fd), 1e-3)
    return float((gap / scale).max())


def _check_op_instance(arrays, raw_build, rng):
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = raw_build(tensors)
    weights = rng.standard_normal(out.data.shape)
    nm.backward(nm.tensor_sum(nm.mul(out, Tensor(weights))))

    def scalar():
        fresh = raw_build([Tensor(a) for a in arrays])
        return float(nm.tensor_sum(nm.mul(fresh, Tensor(weights))).data)

    fd_grads = _finite_difference(scalar, arrays)
    worst = 0.0
    for tensor, fd in zip(tensors, fd_grads):
        auto = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        worst = max(worst, _relative_error(np.asarray(auto), fd))
    return worst


def _broadcast_pair(rng):
    n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    shapes = [((n, m), (n, m)), ((n, m), (m,)), ((n, m), (n, 1)),
              ((n, m), (1, m)), ((n, m), ())]
    sa, sb = shapes[int(rng.integers(len(shapes)))]
    return [rng.standard_normal(sa), rng.standard_normal(sb)]


def _inst_matmul(rng):
    n, k, m = (int(rng.integers(1, 5)) for _ in range(3))
    return [rng.standard_normal((n, k)), rng.standard_normal((k, m))], \
        lambda ts: nm.matmul(ts[0], ts[1])


def _inst_add(rng):
    return _broadcast_pair(rng), lambda ts: nm.add(ts[0], ts[1])


def _inst_multiply(rng):
    return _broadcast_pair(rng), lambda ts: nm.mul(ts[0], ts[1])


def _inst_concat(rng):
    axis = int(rng.integers(0, 2))
    other = int(rng.integers(1, 4))
    parts = []
    for _ in range(int(rng.integers(2, 5))):
        size = int(rng.integers(1, 4))
        parts.append(rng.standard_normal((size, other) if axis == 0 else (other, size)))
    return parts, lambda ts: nm.concat(ts, axis=axis)


def _inst_conv1d(rng):
    t_len, cin, cout = int(rng.integers(1, 7)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
    k = int(rng.choice([1, 3, 5]))
    return [rng.standard_normal((t_len, cin)), rng.standard_normal((k, cin, cout))], \
        lambda ts: nm.conv1d(ts[0], ts[1])


def _inst_sigmoid(rng):
    shape = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
    return [rng.standard_normal(shape)], lambda ts: nm.sigmoid(ts[0])


def _inst_tanh(rng):
    shape = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
    return [rng.standard_normal(shape)], lambda ts: nm.tanh(ts[0])


def _inst_softmax(rng):
    shape = (int(rng.integers(1, 5)), int(rng.integers(2, 5)))
    axis = int(rng.choice([0, 1, -1]))
    return [rng.standard_normal(shape)], lambda ts: nm.softmax(ts[0], axis=axis)


def _inst_dropout(rng):
    shape = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
    p = float(rng.choice([0.25, 0.5]))
    seed = int(rng.integers(1 << 31))
    return [rng.standard_normal(shape)], \
        lambda ts: nm.dropout(ts[0], p, np.random.default_rng(seed))


def _inst_mse(rng):
    shape = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
    return [rng.standard_normal(shape), rng.standard_normal(shape)], \
        lambda ts: nm.mse(ts[0], ts[1])


def _inst_gather_rows(rng):
    n, d = int(rng.integers(2, 6)), int(rng.integers(1, 4))
    ids = rng.integers(0, n, size=int(rng.integers(1, 7)))  # repeats accumulate
    return [rng.standard_normal((n, d))], lambda ts: nm.gather_rows(ts[0], ids)


def _inst_narrow(rng):
    rank = int(rng.choice([2, 3]))
    shape = tuple(int(rng.integers(2, 5)) for _ in range(rank))
    axis = int(rng.integers(0, rank))
    start = int(rng.integers(0, shape[axis]))
    stop = int(rng.integers(start + 1, shape[axis] + 1))
    return [rng.standard_normal(shape)], lambda ts: nm.narrow(ts[0], axis, start, stop)


def _inst_lstm(rng):
    n, f, h = (int(rng.integers(1, 4)) for _ in range(3))
    return [rng.standard_normal((n, f)), rng.standard_normal((f, 4 * h)),
            rng.standard_normal((h, 4 * h)), rng.standard_normal(4 * h)], \
        lambda ts: nm.lstm(*ts)


def _inst_sum(rng):
    shape = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
    axis = [None, 0, 1][int(rng.integers(0, 3))]
    keepdims = bool(rng.integers(0, 2)) if axis is not None else False
    return [rng.standard_normal(shape)], \
        lambda ts: nm.tensor_sum(ts[0], axis=axis, keepdims=keepdims)


def _inst_transpose(rng):
    shape = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
    return [rng.standard_normal(shape)], lambda ts: nm.transpose(ts[0])


def _inst_encode_tokens(rng):
    n, d, cout = int(rng.integers(2, 6)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
    k = int(rng.choice([1, 3, 5]))
    ids = rng.integers(0, n, size=int(rng.integers(1, 7)))  # repeats accumulate
    p = float(rng.choice([0.0, 0.5]))
    seed = int(rng.integers(1 << 31))
    return [rng.standard_normal((n, d)), rng.standard_normal((k, d, cout)),
            rng.standard_normal(cout)], \
        lambda ts: nm.encode_tokens(ts[0], ids, ts[1], ts[2], p, np.random.default_rng(seed))


def _inst_additive_attention(rng):
    n, d, a = (int(rng.integers(1, 5)) for _ in range(3))
    return [rng.standard_normal((n, d)), rng.standard_normal((d, a)), rng.standard_normal(a),
            rng.standard_normal((a, 1))], \
        lambda ts: nm.additive_attention(*ts)[0]


def _inst_dense(rng):
    n, k, m = (int(rng.integers(1, 5)) for _ in range(3))
    activation = str(rng.choice(["tanh", "sigmoid"]))
    return [rng.standard_normal((n, k)), rng.standard_normal((k, m)), rng.standard_normal(m)], \
        lambda ts: nm.dense(ts[0], ts[1], ts[2], activation)


OP_INSTANCES = {
    "matmul": _inst_matmul,
    "add": _inst_add,
    "multiply": _inst_multiply,
    "concat": _inst_concat,
    "conv1d": _inst_conv1d,
    "sigmoid": _inst_sigmoid,
    "tanh": _inst_tanh,
    "softmax": _inst_softmax,
    "dropout": _inst_dropout,
    "mse": _inst_mse,
    "gather_rows": _inst_gather_rows,
    "narrow": _inst_narrow,
    "lstm": _inst_lstm,
    "sum": _inst_sum,
    "transpose": _inst_transpose,
    "encode_tokens": _inst_encode_tokens,
    "additive_attention": _inst_additive_attention,
    "dense": _inst_dense,
}


def _model_loss_case(rng):
    vocab_size = 8
    architecture = "co_attention" if rng.random() < 0.5 else "self_attention"
    attributes = tuple(a for a in GAZE_ATTRIBUTES if rng.random() < 0.4)
    config = ModelConfig(
        embedding_dim=int(rng.integers(2, 5)),
        conv_kernel=3,
        conv_filters=int(rng.integers(2, 5)),
        lstm_hidden=int(rng.integers(2, 5)),
        modeling_hidden=int(rng.integers(2, 4)),
        dropout=0.0,
        vocab_size=vocab_size,
        gaze_attributes=attributes,
        gaze_loss_weights={a: 1.0 for a in attributes},
        architecture=architecture,
    )
    article = None
    if architecture == "co_attention":
        article = [[int(rng.integers(1, vocab_size)) for _ in range(int(rng.integers(2, 5)))]
                   for _ in range(int(rng.integers(1, 3)))]
    model = EssayScorer(config, np.random.default_rng(int(rng.integers(1 << 31))),
                        article_sentence_ids=article)
    sentences = [[int(rng.integers(1, vocab_size)) for _ in range(int(rng.integers(2, 5)))]
                 for _ in range(int(rng.integers(1, 4)))]
    total = sum(len(s) for s in sentences)
    target = float(rng.random())
    gaze_cases = {}
    for attribute in attributes:
        k = int(rng.integers(1, total + 1))
        idx = np.sort(rng.choice(total, size=k, replace=False)).astype(np.int64)
        gaze_cases[attribute] = (idx, rng.random((k, 1)))

    def loss():
        out = model.forward(sentences)
        value = nm.mse(out.predicted_score, Tensor(np.array([[target]])))
        for attribute, (idx, values) in gaze_cases.items():
            picked = nm.gather_rows(out.gaze_predictions[attribute], idx)
            value = nm.add(value, nm.mse(picked, Tensor(values)))
        return value

    return model, loss


def _check_model_instance(rng):
    model, loss = _model_loss_case(rng)
    params = model.parameters()
    nm.zero_grads(params)
    nm.backward(loss())
    nm._fill_grads(params)
    autodiff = {name: np.array(t.grad) for name, t in model.named_parameters().items()}
    worst = 0.0
    for name, tensor in model.named_parameters().items():
        flat = tensor.data.reshape(-1)
        coords = rng.choice(flat.size, size=min(2, flat.size), replace=False)
        for i in coords:
            keep = flat[i]
            flat[i] = keep + FD_STEP
            up = float(loss().data)
            flat[i] = keep - FD_STEP
            down = float(loss().data)
            flat[i] = keep
            fd = (up - down) / (2.0 * FD_STEP)
            auto = autodiff[name].reshape(-1)[i]
            gap = abs(auto - fd) / max(abs(auto) + abs(fd), 1e-3)
            worst = max(worst, gap)
    return worst


def test_01_gradient_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(20240601)
    missing = set(nm.OP_KINDS) ^ set(OP_INSTANCES)
    worst_by_op = {}
    for op_name, make_instance in sorted(OP_INSTANCES.items()):
        worst = 0.0
        for _ in range(50):
            arrays, raw_build = make_instance(rng)
            worst = max(worst, _check_op_instance(arrays, raw_build, rng))
        worst_by_op[op_name] = worst
    model_worst = max(_check_model_instance(rng) for _ in range(50))
    elapsed = time.monotonic() - start

    bad_ops = {k: v for k, v in worst_by_op.items() if v >= FD_TOLERANCE}
    passed = (not missing and not bad_ops and model_worst < FD_TOLERANCE
              and elapsed < 60.0)
    detail = (f"{len(OP_INSTANCES)} ops x 50 + model x 50, worst op err "
              f"{max(worst_by_op.values()):.2e}, worst model err "
              f"{model_worst:.2e}, {elapsed:.1f}s")
    if missing:
        detail = f"op coverage mismatch: {sorted(missing)}; " + detail
    if bad_ops:
        detail = f"failing ops: {bad_ops}; " + detail
    _report(1, "gradient oracle", passed, detail)


# =====================================================================
# 2. agreement statistic vs an independent direct-formula computation
# =====================================================================

def _qwk_direct(pred, actual, lo, hi):
    """Direct double-loop kappa over the declared range; no shared code."""
    n = len(pred)
    pair_counts = Counter(zip(pred, actual))
    hist_p, hist_a = Counter(pred), Counter(actual)
    num = 0.0
    den = 0.0
    for i in range(lo, hi + 1):
        for j in range(lo, hi + 1):
            w = (i - j) ** 2
            num += w * pair_counts.get((i, j), 0)
            den += w * hist_p.get(i, 0) * hist_a.get(j, 0) / n
    if den == 0.0:
        return 1.0
    return 1.0 - num / den


def test_02_qwk_oracle():
    rng = np.random.default_rng(20240602)
    max_diff = 0.0
    for case in range(1000):
        hi = 60 if case < 20 else int(rng.integers(1, 61))
        n = int(rng.integers(2, 60))
        if rng.random() < 0.3 and hi > 2:
            # interior ratings: kappa must respect the declared range anyway
            lo_r = int(rng.integers(0, hi - 1))
            hi_r = int(rng.integers(lo_r + 1, hi + 1))
        else:
            lo_r, hi_r = 0, hi
        pred = rng.integers(lo_r, hi_r + 1, size=n).tolist()
        actual = rng.integers(lo_r, hi_r + 1, size=n).tolist()
        direct = _qwk_direct(pred, actual, 0, hi)
        ours = qwk(zip(pred, actual), 0, hi)
        max_diff = max(max_diff, abs(ours - direct))

    constant = qwk([(2, a) for a in [0, 1, 2, 3, 4, 0, 3, 1]], 0, 4)
    perfect = qwk([(v, v) for v in [0, 3, 1, 4, 2, 2, 0]], 0, 4)

    passed = max_diff <= 1e-12 and constant == 0.0 and perfect == 1.0
    _report(2, "qwk oracle", passed,
            f"1000 sequences max diff {max_diff:.2e}, constant -> {constant}, "
            f"perfect -> {perfect}")


# =====================================================================
# 3. binning boundary conformance
# =====================================================================

def _reference_fixation_bin(fv, mu, sigma):
    """Interval reading of the binning rule; valid for sigma > 0 only."""
    if fv == 0:
        return 0
    if fv <= mu - sigma:
        return 1
    if fv <= mu - 0.5 * sigma:
        return 2
    if fv <= mu + 0.5 * sigma:
        return 3
    if fv <= mu + sigma:
        return 4
    return 5


def test_03_binning_boundaries():
    up = float(np.nextafter(0.0, 1.0))
    cases = [
        (0.0, 100.0, 16.0, 0),
        (0.0, 0.0, 0.0, 0),
        (84.0, 100.0, 16.0, 1),                        # exactly mu - sigma
        (float(np.nextafter(84.0, 200.0)), 100.0, 16.0, 2),
        (92.0, 100.0, 16.0, 2),                        # exactly mu - sigma/2
        (float(np.nextafter(92.0, 200.0)), 100.0, 16.0, 3),
        (100.0, 100.0, 16.0, 3),                       # exactly mu
        (108.0, 100.0, 16.0, 3),                       # exactly mu + sigma/2
        (float(np.nextafter(108.0, 200.0)), 100.0, 16.0, 4),
        (116.0, 100.0, 16.0, 4),                       # exactly mu + sigma
        (float(np.nextafter(116.0, 200.0)), 100.0, 16.0, 5),
        (400.0, 100.0, 16.0, 5),
        (30.0, 50.0, 0.0, 1),                          # sigma 0, below the mean
        (50.0, 50.0, 0.0, 3),                          # sigma 0, exactly the mean
        (float(np.nextafter(50.0, 100.0)), 50.0, 0.0, 5),
        (up, 10.0, 16.0, 2),                           # mu - sigma < 0
        (2.0, 10.0, 16.0, 2),                          # exactly mu - sigma/2
        (18.0, 10.0, 16.0, 3),
        (26.0, 10.0, 16.0, 4),
        (27.0, 10.0, 16.0, 5),
    ]
    wrong = [(fv, mu, sigma, bin_fixation(fv, mu, sigma), expected)
             for fv, mu, sigma, expected in cases
             if bin_fixation(fv, mu, sigma) != expected]

    # bin 1 is unreachable whenever mu - sigma < 0
    unreachable = all(bin_fixation(fv, 10.0, 16.0) != 1
                      for fv in np.linspace(1e-12, 300.0, 4001))

    rng = np.random.default_rng(20240603)
    cross_bad = 0
    for _ in range(5000):
        mu = float(rng.uniform(0.0, 200.0))
        sigma = float(rng.uniform(0.1, 60.0))
        fv = float(rng.uniform(0.0, 300.0))
        if bin_fixation(fv, mu, sigma) != _reference_fixation_bin(fv, mu, sigma):
            cross_bad += 1

    run_counts_ok = all(bin_run_count(v) == min(v, 5) for v in range(13))

    passed = not wrong and unreachable and cross_bad == 0 and run_counts_ok
    detail = f"{len(cases)} boundary cases, 5000 cross-checks, run counts 0-12"
    if wrong:
        detail = f"wrong cases: {wrong[:3]}; " + detail
    _report(3, "binning boundary conformance", passed, detail)


# =====================================================================
# 4. stored annotator ratings reproduce the published agreement numbers
# =====================================================================

def test_04_annotator_agreement_fixture():
    with open(FIXTURES / "annotator_ratings.json", encoding="utf-8") as fh:
        fixture = json.load(fh)
    truth = fixture["ground_truth"]
    lo, hi = fixture["score_range"]
    expected = fixture["expected"]

    qwks, corrects, closes = {}, {}, {}
    for annotator, ratings in sorted(fixture["annotators"].items()):
        pairs = list(zip(ratings, truth))
        correct, close = agreement_counts(pairs)
        qwks[annotator] = qwk(pairs, lo, hi)
        corrects[annotator] = correct
        closes[annotator] = close

    counts_exact = (corrects == {k: int(v) for k, v in expected["correct"].items()}
                    and closes == {k: int(v) for k, v in expected["close"].items()})
    annotator8 = (corrects["8"], closes["8"]) == (29, 45)
    mean_qwk = sum(qwks.values()) / len(qwks)
    mean_correct = sum(corrects.values()) / len(corrects)
    mean_close = sum(closes.values()) / len(closes)
    means_ok = (abs(mean_qwk - 0.646) < 1e-3
                and mean_correct == 22.25 and mean_close == 42.75)

    passed = counts_exact and annotator8 and means_ok
    _report(4, "annotator agreement fixture", passed,
            f"annotator 8 correct/close {corrects['8']}/{closes['8']}, "
            f"mean qwk {mean_qwk:.4f}, mean correct {mean_correct}, "
            f"mean close {mean_close}")


# =====================================================================
# 5. overfit smoke test
# =====================================================================

def _synthetic_essays(n, seed, words, max_sentences, min_tokens, max_tokens):
    rng = np.random.default_rng(seed)
    essays = []
    for i in range(n):
        n_sent = int(rng.integers(1, max_sentences + 1))
        sentences = [
            [words[int(rng.integers(len(words)))]
             for _ in range(int(rng.integers(min_tokens, max_tokens + 1)))]
            for _ in range(n_sent)
        ]
        raw = i % 4
        essays.append(Essay(
            essay_id=100 + i, set_id=3, sentences=sentences, raw_score=raw,
            normalized_score=normalize_score(raw, SET_0_3)))
    return essays


def test_05_overfit_smoke():
    start = time.monotonic()
    essays = _synthetic_essays(10, seed=0, words=WORDS[:10],
                               max_sentences=3, min_tokens=2, max_tokens=5)
    vocab = build_vocab(essays)
    examples = [prepare_example(e, vocab) for e in essays]
    config = ModelConfig(embedding_dim=8, conv_kernel=3, conv_filters=6,
                         lstm_hidden=6, modeling_hidden=6, dropout=0.0,
                         vocab_size=len(vocab))
    model = EssayScorer(config, np.random.default_rng(1))
    result = train(model, examples, [],
                   TrainConfig(batch_size=1, epochs=200, seed=7), {3: SET_0_3})
    model.load_state_dict(result.final_state)
    mse = evaluate_breakdown(model, examples).score_mse
    train_qwk = dev_qwk(model, examples, {3: SET_0_3})
    elapsed = time.monotonic() - start

    scores = sorted({e.raw_score for e in essays})
    passed = (len(vocab) <= 50 and scores == [0, 1, 2, 3]
              and mse < 1e-3 and train_qwk == 1.0 and elapsed < 120.0)
    _report(5, "overfit smoke test", passed,
            f"10 essays, vocab {len(vocab)}, mse {mse:.2e}, "
            f"qwk {train_qwk}, {elapsed:.1f}s")


# =====================================================================
# 6. multi-task signal: deterministic gaze bins learned at the
#    production loss weights
# =====================================================================

PRODUCTION_WEIGHTS = {"DT": 0.05, "FFD": 0.05, "IR": 0.01, "RC": 0.01, "Skip": 0.1}


def _token_bin_targets(token_index):
    """Unit-scaled bin targets as a pure function of token identity."""
    return {
        "DT": (1 + token_index % 5) / 5,
        "FFD": (1 + (token_index * 3) % 5) / 5,
        "IR": (token_index % 2) / 1,
        "RC": (1 + (token_index * 7) % 5) / 5,
        "Skip": ((token_index // 2) % 2) / 1,
    }


def _gaze_labeled_examples(essays, vocab, attributes):
    examples = []
    for essay in essays:
        example = prepare_example(essay, vocab)
        flat = vocab.encode([t for s in essay.sentences for t in s])
        idx = np.arange(len(flat), dtype=np.int64)
        targets = {
            attribute: (idx, np.array([_token_bin_targets(t)[attribute] for t in flat]))
            for attribute in attributes
        }
        examples.append(replace(example, gaze_targets=targets))
    return examples


def test_06_multitask_signal():
    essays = _synthetic_essays(10, seed=0, words=WORDS[:10],
                               max_sentences=2, min_tokens=2, max_tokens=3)
    vocab = build_vocab(essays)
    examples = _gaze_labeled_examples(essays, vocab, PRODUCTION_WEIGHTS)
    config = ModelConfig(embedding_dim=12, conv_kernel=3, conv_filters=8,
                         lstm_hidden=8, modeling_hidden=8, dropout=0.0,
                         vocab_size=len(vocab),
                         gaze_attributes=tuple(PRODUCTION_WEIGHTS),
                         gaze_loss_weights=dict(PRODUCTION_WEIGHTS))
    model = EssayScorer(config, np.random.default_rng(1))
    initial = evaluate_breakdown(model, examples)
    result = train(model, examples, [],
                   TrainConfig(batch_size=1, epochs=100, learning_rate=0.003, seed=7),
                   {3: SET_0_3})
    model.load_state_dict(result.final_state)
    final = evaluate_breakdown(model, examples)

    ratios = {a: final.gaze_mse[a] / initial.gaze_mse[a]
              for a in sorted(PRODUCTION_WEIGHTS)}
    passed = all(r <= 0.5 for r in ratios.values()) and final.score_mse < 1e-2
    _report(6, "multi-task signal", passed,
            "mse ratios " + " ".join(f"{a}={r:.2f}" for a, r in ratios.items())
            + f", score mse {final.score_mse:.2e}")


# =====================================================================
# 7. zero-weight gaze terms leave the loss history bit-identical
# =====================================================================

def test_07_zero_weight_equivalence():
    essays = _synthetic_essays(8, seed=2, words=WORDS[:10],
                               max_sentences=2, min_tokens=2, max_tokens=4)
    vocab = build_vocab(essays)
    examples = _gaze_labeled_examples(essays, vocab, ("DT", "Skip"))

    shared = dict(embedding_dim=6, conv_kernel=3, conv_filters=4, lstm_hidden=4,
                  modeling_hidden=4, dropout=0.0, vocab_size=len(vocab))
    zero_cfg = ModelConfig(**shared, gaze_attributes=("DT", "Skip"),
                           gaze_loss_weights={"DT": 0.0, "Skip": 0.0})
    none_cfg = ModelConfig(**shared)
    schedule = TrainConfig(batch_size=2, epochs=25, seed=9)

    model_zero = EssayScorer(zero_cfg, np.random.default_rng(11))
    model_none = EssayScorer(none_cfg, np.random.default_rng(11))
    result_zero = train(model_zero, examples, [], schedule, {3: SET_0_3})
    result_none = train(model_none, examples, [], schedule, {3: SET_0_3})

    history_zero = [s.breakdown.score_mse for s in result_zero.history]
    history_none = [s.breakdown.score_mse for s in result_none.history]
    histories_identical = history_zero == history_none

    shared_keys = set(result_zero.final_state) & set(result_none.final_state)
    params_identical = all(
        np.array_equal(result_zero.final_state[k], result_none.final_state[k])
        for k in shared_keys)

    passed = histories_identical and params_identical
    _report(7, "zero-weight equivalence", passed,
            f"{len(history_zero)} epochs bit-identical: {histories_identical}, "
            f"{len(shared_keys)} shared parameters identical: {params_identical}")


# =====================================================================
# 8. harness integrity: exact 60/20/20 folds, 48-essay augmentation,
#    leakage guards silent across the full system matrix
# =====================================================================

def _harness_essay(essay_id, essay_set, rng):
    sentences = [[WORDS[int(rng.integers(len(WORDS)))] for _ in range(4)]
                 for _ in range(2)]
    raw = int(rng.integers(essay_set.score_min, essay_set.score_max + 1))
    return Essay(essay_id, essay_set.set_id, sentences, raw,
                 normalize_score(raw, essay_set))


def _harness_records(essay, reader_id="r1"):
    records = []
    for position, token in enumerate(essay.tokens):
        records.append(GazeRecord(
            essay_id=essay.essay_id, reader_id=reader_id, ia_index=position,
            token=token, dwell_time_ms=100.0 + 10.0 * position,
            first_fixation_ms=80.0 + 5.0 * (position % 4),
            is_regression=position % 2, run_count=1 + position % 3, skip=0))
    return records


def test_08_harness_integrity():
    rng = np.random.default_rng(29)
    article = ("The water cycle moves heat around the planet. Clouds form from "
               "rising vapour. Rain then returns the water to the sea.")
    set1 = EssaySet(1, 0, 3, source_article=article)
    set3 = EssaySet(3, 0, 3)
    set8 = EssaySet(8, 0, 10)

    essays, records = {}, []
    set1_ids, set3_ids, pool_ids = [], [], []
    for i in range(20):
        essay = _harness_essay(100 + i, set1, rng)
        essays[essay.essay_id] = essay
        set1_ids.append(essay.essay_id)
        records.extend(_harness_records(essay))
    for i in range(20):
        essay = _harness_essay(300 + i, set3, rng)
        essays[essay.essay_id] = essay
        set3_ids.append(essay.essay_id)
    for i in range(48):
        essay = _harness_essay(900 + i, set8, rng)
        essays[essay.essay_id] = essay
        pool_ids.append(essay.essay_id)
        records.extend(_harness_records(essay))

    data = ExperimentData(
        essays=essays, sets={1: set1, 3: set3, 8: set8},
        folds={1: make_folds(set1_ids, seed=13), 3: make_folds(set3_ids, seed=13)},
        gaze_essay_ids=frozenset(pool_ids), gaze_records=GazeTable.from_records(records))

    folds_exact = True
    for set_id, ids in ((1, set1_ids), (3, set3_ids)):
        test_cover = []
        for fold in data.folds[set_id]:
            folds_exact &= (len(fold.train), len(fold.dev), len(fold.test)) == (12, 4, 4)
            folds_exact &= not (set(fold.train) & set(fold.dev))
            folds_exact &= not (set(fold.train) & set(fold.test))
            folds_exact &= not (set(fold.dev) & set(fold.test))
            folds_exact &= fold.all_ids == set(ids)
            test_cover.extend(fold.test)
        folds_exact &= sorted(test_cover) == sorted(ids)

    matrix = [("self_attention", (1,)), ("co_attention", (1,)),
              ("co_attention_gaze", (1,)), ("only_prompt", (3,)),
              ("extra_essays", (3,)), ("essays_gaze", (3,))]
    model_params = dict(embedding_dim=6, conv_kernel=3, conv_filters=4,
                        lstm_hidden=4, modeling_hidden=4, dropout=0.0)
    train_params = dict(epochs=1, batch_size=16)

    reports = {}
    leakage = None
    try:
        for system, targets in matrix:
            config = ExperimentConfig(system=system, target_sets=targets, seed=3,
                                      model_params=model_params,
                                      train_params=train_params)
            reports[system] = run_experiment(config, data)
    except LeakageError as err:
        leakage = str(err)

    augmentation_exact = True
    predictions_cover = True
    if leakage is None:
        for system, targets in matrix:
            report = reports[system]
            expected_augmented = 48 if system in ("extra_essays", "essays_gaze") else 0
            fold_specs = {f.fold_id: f for f in data.folds[targets[0]]}
            for result in report.fold_results:
                augmentation_exact &= result.n_augmented == expected_augmented
                predictions_cover &= (set(result.test_predictions)
                                      == set(fold_specs[result.fold_id].test))
            augmentation_exact &= len(report.fold_results) == 5

    passed = folds_exact and leakage is None and augmentation_exact and predictions_cover
    detail = (f"folds 12/4/4 exact: {folds_exact}, six systems ran, "
              f"augmentation +48: {augmentation_exact}, "
              f"test covers exact: {predictions_cover}")
    if leakage is not None:
        detail = f"leakage guard fired: {leakage}; " + detail
    _report(8, "harness integrity", passed, detail)


# =====================================================================
# 9. optional full-data reproduction of the headline comparison
# =====================================================================

def test_09_full_data_reproduction():
    root = os.environ.get(FULL_DATA_ENV)
    if not root:
        print(f"[acceptance 9] SKIP full-data reproduction ({FULL_DATA_ENV} not set)",
              flush=True)
        pytest.skip(f"set {FULL_DATA_ENV} to run the full-data reproduction")
    root = Path(root)
    epochs = int(os.environ.get("GAZESCORE_FULLDATA_EPOCHS", "100"))
    seed = int(os.environ.get("GAZESCORE_FULLDATA_SEED", "7"))

    sets = load_set_metadata(root / "sets.cfg")
    essays, _ = load_essays(root / "essays.tsv", sets)
    records, _ = load_gaze_records(root / "gaze.csv")

    usable = {e.essay_id: e for e in essays if not e.degenerate}
    target_sets = tuple(s for s in (3, 4, 5, 6) if s in sets)
    assert target_sets == (3, 4, 5, 6), f"sets 3-6 required, found {target_sets}"

    by_set = {}
    for essay in usable.values():
        by_set.setdefault(essay.set_id, []).append(essay.essay_id)
    folds = {s: make_folds(sorted(by_set[s]), seed=seed) for s in target_sets}
    gaze_ids = frozenset(records.essay_id.tolist()) & set(usable)

    data = ExperimentData(essays=usable, sets=sets, folds=folds,
                          gaze_essay_ids=gaze_ids, gaze_records=records)

    systems = ("only_prompt", "self_attention", "co_attention",
               "co_attention_gaze", "extra_essays", "essays_gaze")
    reports = {}
    for system in systems:
        config = ExperimentConfig(system=system, target_sets=target_sets, seed=seed,
                                  train_params={"epochs": epochs})
        reports[system] = run_experiment(config, data, log=print)
        print(format_report(reports[system]), flush=True)

    plain = reports["co_attention"]
    gazed = reports["co_attention_gaze"]
    gaze_mean = gazed.grand_mean_qwk()
    plain_mean = plain.grand_mean_qwk()
    comparison = compare(gazed, plain)
    p_value = comparison.overall.p_value

    passed = gaze_mean > plain_mean and p_value < 0.05
    _report(9, "full-data reproduction", passed,
            f"gaze mean {gaze_mean:.3f} vs plain mean {plain_mean:.3f}, "
            f"p {p_value:.4f} over {comparison.overall.n_pairs} pairs")
