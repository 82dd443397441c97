"""Multi-task training: joint score and gaze losses, RMSProp, selection.

The loss couples a mean-squared score error over the batch with one
weighted mean-squared gaze term per configured attribute. Gaze terms
average over labeled (essay, reader, token) triples, so essays with more
readers weigh proportionally to their label count. Attributes whose weight
is zero are reported but kept out of the loss graph entirely; that makes a
zero-weight run bit-identical to a run with no gaze loss at all, which the
tests rely on.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from .corpus import denormalize_score
from .gaze import collector_paused, gaze_targets
from .metrics import qwk
from .numerics import Tensor, backward, zero_grads
from .optim import RMSProp, clip_global_norm


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 100
    epochs: int = 100
    learning_rate: float = 0.001
    momentum: float = 0.9
    seed: int = 0
    clip_norm: float = 10.0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")


@dataclass
class LossBreakdown:
    score_mse: float
    gaze_mse: dict  # attribute -> float
    gaze_token_counts: dict = field(default_factory=dict)  # attribute -> int


@dataclass
class TrainExample:
    """One essay prepared for the loop: encoded text plus aligned targets."""
    essay_id: int
    set_id: int
    sentence_ids: list
    score_target: float
    raw_score: int
    # attribute -> (token index array, unit target array), read-only, as other
    # cells' examples may share them; every attribute shares one index array,
    # whose indices repeat when several readers labeled the same token
    gaze_targets: dict = field(default_factory=dict)


class TrainingDiverged(RuntimeError):
    """A batch's loss, or with ``batch_index`` None a dev prediction, is not finite."""

    def __init__(self, epoch, batch_index, param_norms):
        self.epoch = epoch
        self.batch_index = batch_index
        self.param_norms = param_norms
        worst = sorted(param_norms.items(), key=lambda kv: -kv[1])[:3]
        summary = ", ".join(f"{name}={norm:.3g}" for name, norm in worst)
        if batch_index is None:
            where = f"prediction at epoch {epoch}, dev pass"
        else:
            where = f"loss at epoch {epoch}, batch {batch_index}"
        super().__init__(f"non-finite {where}; largest parameter norms: {summary}")

    def __reduce__(self):
        # rebuilt from its fields, so a worker process can return it
        return type(self), (self.epoch, self.batch_index, self.param_norms)


def prepare_example(essay, vocab, targets=None):
    """Encode an essay's sentences; its gaze targets are ``targets``, else those of ``essay.gaze``."""
    sentence_ids = [vocab.encode(s) for s in essay.sentences]
    if targets is None:
        targets = gaze_targets(essay.gaze or {})
    return TrainExample(
        essay_id=essay.essay_id,
        set_id=essay.set_id,
        sentence_ids=sentence_ids,
        score_target=essay.normalized_score,
        raw_score=essay.raw_score,
        gaze_targets=targets,
    )


def multitask_loss(outputs, examples, weights):
    """(loss Tensor, LossBreakdown) for one batch.

    ``outputs`` are ForwardOutput per example, in the same order. Gaze
    terms with zero weight or no labeled tokens never enter the graph;
    their measured MSE is still reported in the breakdown.
    """
    if not examples:
        raise ValueError("multitask_loss: empty batch")
    if len(outputs) != len(examples):
        raise ValueError("multitask_loss: outputs and examples differ in length")
    scores = nm.concat([out.predicted_score for out in outputs], axis=0)
    score_targets = Tensor(
        np.array([[ex.score_target] for ex in examples], dtype=np.float64))
    score_mse = nm.mse(scores, score_targets)

    attributes = []
    for out in outputs:
        for attribute in out.gaze_predictions:
            if attribute not in attributes:
                attributes.append(attribute)
    gaze_mse_tensors = {}
    gaze_counts = {}
    for attribute in attributes:
        prediction_parts = []
        target_parts = []
        for out, ex in zip(outputs, examples):
            if attribute not in out.gaze_predictions or attribute not in ex.gaze_targets:
                continue
            indices, values = ex.gaze_targets[attribute]
            if indices.size == 0:
                continue
            prediction_parts.append(nm.gather_rows(out.gaze_predictions[attribute], indices))
            target_parts.append(values)
        count = int(sum(p.data.shape[0] for p in prediction_parts))
        gaze_counts[attribute] = count
        if count == 0:
            continue
        stacked = nm.concat(prediction_parts, axis=0)
        targets = Tensor(np.concatenate(target_parts).reshape(-1, 1))
        gaze_mse_tensors[attribute] = nm.mse(stacked, targets)

    loss = score_mse
    for attribute, mse_tensor in gaze_mse_tensors.items():
        weight = weights.get(attribute, 0.0)
        if weight != 0.0:
            loss = nm.add(loss, nm.mul(mse_tensor, Tensor(np.asarray(weight))))

    gaze_mse = {a: (float(gaze_mse_tensors[a].data) if a in gaze_mse_tensors else 0.0)
                for a in attributes}
    breakdown = LossBreakdown(
        score_mse=float(score_mse.data),
        gaze_mse=gaze_mse,
        gaze_token_counts=gaze_counts,
    )
    return loss, breakdown


@dataclass
class EpochStats:
    epoch: int
    breakdown: LossBreakdown
    dev_qwk: float


@dataclass
class TrainResult:
    best_state: dict
    best_epoch: int
    best_dev_qwk: float
    final_state: dict
    history: list  # EpochStats per epoch


def format_epoch_line(stats):
    fields = [f"epoch={stats.epoch}", f"score_mse={stats.breakdown.score_mse:.6g}"]
    for attribute in sorted(stats.breakdown.gaze_mse):
        fields.append(f"gaze_mse_{attribute}={stats.breakdown.gaze_mse[attribute]:.6g}")
    fields.append(f"dev_qwk={stats.dev_qwk:.6g}")
    return " ".join(fields)


def _norm(array):
    """Euclidean norm as max|x| * ||x / max|x|||, finite wherever the norm is;
    inf when an entry is not finite."""
    top = float(np.max(np.abs(array), initial=0.0))
    if not math.isfinite(top):
        return math.inf
    if top == 0.0:
        return 0.0
    return top * math.sqrt(float(np.sum((array / top) ** 2)))


def _param_norms(model):
    return {name: _norm(t.data) for name, t in model.named_parameters().items()}


def dev_qwk(model, examples, sets, epoch=None):
    """QWK of denormalized predictions against raw scores; nan when empty. A
    non-finite prediction raises TrainingDiverged for ``epoch``'s dev pass."""
    if not examples:
        return float("nan")
    set_ids = {ex.set_id for ex in examples}
    if len(set_ids) != 1:
        raise ValueError(f"dev set spans multiple essay sets: {sorted(set_ids)}")
    essay_set = sets[next(iter(set_ids))]
    scores = [out.score_value for out in model.forward_batch([ex.sentence_ids for ex in examples])]
    if not all(map(math.isfinite, scores)):
        raise TrainingDiverged(epoch, None, _param_norms(model))
    pairs = [(denormalize_score(score, essay_set), ex.raw_score)
             for score, ex in zip(scores, examples)]
    return qwk(pairs, essay_set.score_min, essay_set.score_max)


def evaluate_breakdown(model, examples):
    """Evaluation-mode LossBreakdown over a whole example list."""
    return multitask_loss(model.forward_batch([ex.sentence_ids for ex in examples]),
                          examples, {})[1]


def _aggregate_epoch(batch_breakdowns, batch_sizes):
    """Token- and essay-weighted mean of per-batch breakdowns."""
    total_essays = sum(batch_sizes)
    score_mse = sum(b.score_mse * n for b, n in zip(batch_breakdowns, batch_sizes))
    score_mse /= total_essays
    attributes = sorted({a for b in batch_breakdowns for a in b.gaze_mse})
    gaze_mse = {}
    gaze_counts = {}
    for attribute in attributes:
        count = sum(b.gaze_token_counts.get(attribute, 0) for b in batch_breakdowns)
        gaze_counts[attribute] = count
        if count == 0:
            gaze_mse[attribute] = 0.0
        else:
            gaze_mse[attribute] = sum(
                b.gaze_mse.get(attribute, 0.0) * b.gaze_token_counts.get(attribute, 0)
                for b in batch_breakdowns) / count
    return LossBreakdown(
        score_mse=score_mse,
        gaze_mse=gaze_mse,
        gaze_token_counts=gaze_counts,
    )


@collector_paused()
def _train_step(model, optimizer, batch, weights, clip_norm, rng, epoch, batch_index):
    """One optimizer step on one batch; returns its LossBreakdown.

    Only this frame holds the batch's graph; backward frees it as it replays
    it, and the outputs and loss left go on return. It is acyclic, so the
    cyclic collector, which would only walk it, is paused.
    """
    outputs = model.forward_batch([ex.sentence_ids for ex in batch], rng)
    loss, breakdown = multitask_loss(outputs, batch, weights)
    if not math.isfinite(float(loss.data)):
        raise TrainingDiverged(epoch, batch_index, _param_norms(model))
    params = optimizer.parameters
    zero_grads(params)
    backward(loss, parameters=params)
    model.pin_pad_embedding()
    clip_global_norm(params, clip_norm)
    optimizer.step()
    return breakdown


def train(model, train_examples, dev_examples, config, sets, log=None):
    """Seeded mini-batch training with best-dev-QWK checkpoint selection.

    Returns a TrainResult. The per-epoch breakdown aggregates training-mode
    batch losses; dev QWK is computed after each epoch in evaluation mode.
    An empty dev set yields nan QWK and the final epoch's checkpoint; a
    non-finite batch loss or dev prediction raises TrainingDiverged. A
    batch's essays share one article encoding, so one article dropout mask.
    Training starts at once: no evaluation pass precedes the first epoch.
    """
    train_examples = list(train_examples)
    dev_examples = list(dev_examples)
    if not train_examples:
        raise ValueError("train: no training examples")
    overlap = {e.essay_id for e in train_examples} & {e.essay_id for e in dev_examples}
    if overlap:
        raise ValueError(f"train/dev overlap on essay ids: {sorted(overlap)[:5]}")
    weights = dict(model.config.gaze_loss_weights)
    for attribute in model.config.gaze_attributes:
        if not any(attribute in ex.gaze_targets for ex in train_examples):
            warnings.warn(
                f"gaze attribute {attribute} configured but unlabeled in the "
                f"training set; its head trains only through shared layers")

    rng = np.random.default_rng(config.seed)
    optimizer = RMSProp(model.parameters(), lr=config.learning_rate, decay=0.9,
                        momentum=config.momentum, eps=1e-6)
    best_state = model.state_dict()
    best_epoch = 0
    best_qwk = -math.inf
    history = []

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(train_examples))
        batch_breakdowns = []
        batch_sizes = []
        for batch_start in range(0, len(order), config.batch_size):
            batch_index = batch_start // config.batch_size
            batch = [train_examples[i] for i in order[batch_start:batch_start + config.batch_size]]
            batch_breakdowns.append(_train_step(model, optimizer, batch, weights,
                                                config.clip_norm, rng, epoch, batch_index))
            batch_sizes.append(len(batch))
        epoch_breakdown = _aggregate_epoch(batch_breakdowns, batch_sizes)
        epoch_qwk = dev_qwk(model, dev_examples, sets, epoch)
        stats = EpochStats(epoch=epoch, breakdown=epoch_breakdown, dev_qwk=epoch_qwk)
        history.append(stats)
        if log is not None:
            log(format_epoch_line(stats))
        if math.isnan(epoch_qwk) or epoch_qwk > best_qwk:
            best_qwk = epoch_qwk
            best_epoch = epoch
            best_state = model.state_dict()

    return TrainResult(
        best_state=best_state,
        best_epoch=best_epoch,
        best_dev_qwk=best_qwk if history else float("nan"),
        final_state=model.state_dict(),
        history=history,
    )
