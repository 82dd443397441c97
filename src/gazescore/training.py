"""Multi-task training: joint score and gaze losses, RMSProp, selection.

The loss couples a mean-squared score error over the batch with one
weighted mean-squared gaze term per configured attribute. Gaze terms
average over labeled (essay, reader, token) triples, so essays with more
readers weigh proportionally to their label count. Attributes whose weight
is zero are reported but add nothing to the loss or its gradient; that makes
a zero-weight run bit-identical to a run with no gaze loss at all, which the
tests rely on. ``multitask_loss`` computes the loss and its breakdown with
numpy on the outputs' values; ``_labelled_rows`` says, from the example
alone, which gaze rows of an essay it reads, for the loss, the gradient and
``train``'s warning about an attribute no essay labels alike.

A step builds one essay's graph at a time: each essay's backward runs as
soon as its forward ends, seeded with that essay's share of the batch loss's
gradient, and the loss itself comes from the outputs' values afterwards. A
co-attention model's essays all read one article graph, encoded once per
batch, whose backward runs after the last essay's; the nodes whose sums must
follow it wait, and a waiting encoder keeps only its gradient. Every
gradient equals, bit for bit, that of ``backward`` over one graph of the
whole batch (the batch graph): the article encoded once, each essay's
``forward`` on it, and the loss built from graph ops over their outputs.
The tests build that graph (``tests/oracle.py``) and check it.
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
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if not self.clip_norm > 0:  # nan too, which would switch clipping off
            raise ValueError(f"clip_norm must be > 0, got {self.clip_norm}")


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


def _labelled_rows(example, attributes):
    """{attribute: (rows, targets)} of the gaze rows an essay's loss reads, for
    those of ``attributes`` (in their order) it has: the essay must have a
    token, and the attribute at least one labelled row. ``rows`` are the
    token indices, checked against the essay's token count, and ``targets``
    the (rows, 1) labels."""
    n_tokens = sum(map(len, example.sentence_ids))
    labelled = {}
    for attribute in attributes:
        indices, values = example.gaze_targets.get(attribute, ((), ()))
        if n_tokens and len(indices):
            rows = nm._gather_ids("gather_rows", np.empty((n_tokens, 0)), indices)
            labelled[attribute] = rows, np.asarray(values, dtype=np.float64).reshape(-1, 1)
    return labelled


def _mse(predictions, targets):
    """The mean of the squared differences of the concatenated arrays."""
    diff = np.concatenate(predictions) - np.concatenate(targets)
    return float((diff * diff).mean())


def multitask_loss(outputs, examples, weights):
    """(loss, LossBreakdown) for one batch, from the outputs' values.

    ``outputs`` are ForwardOutput per example, in the same order. The loss
    is the score's MSE plus each gaze attribute's MSE over its labelled rows
    times its weight, added in the order the attributes first appear in the
    outputs. Gaze terms with zero weight or no labelled rows add nothing;
    their measured MSE is still reported in the breakdown.
    """
    if not examples:
        raise ValueError("multitask_loss: empty batch")
    if len(outputs) != len(examples):
        raise ValueError("multitask_loss: outputs and examples differ in length")
    score_mse = _mse([out.predicted_score.data for out in outputs],
                     [np.array([[ex.score_target]], dtype=np.float64) for ex in examples])
    loss = score_mse
    gaze_mse, gaze_counts = {}, {}
    labelled = [_labelled_rows(ex, out.gaze_predictions) for out, ex in zip(outputs, examples)]
    for attribute in dict.fromkeys(a for out in outputs for a in out.gaze_predictions):
        parts = [(out.gaze_predictions[attribute].data[rows[attribute][0]], rows[attribute][1])
                 for out, rows in zip(outputs, labelled) if attribute in rows]
        gaze_counts[attribute] = sum(len(targets) for _, targets in parts)
        gaze_mse[attribute] = 0.0
        if parts:
            gaze_mse[attribute] = _mse(*zip(*parts))
            weight = float(weights.get(attribute, 0.0))
            if weight != 0.0:
                loss = loss + gaze_mse[attribute] * weight
    return loss, LossBreakdown(score_mse=score_mse, gaze_mse=gaze_mse,
                               gaze_token_counts=gaze_counts)


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


def _essay_root(output, example, labelled, score_coeff, terms):
    """(node, finite): ``_seeded``'s node that gives one essay's outputs their
    share of the gradient the batch's loss gives them, and whether every seed
    is finite.

    Each seed is mse's input gradient: the score's with 2 / batch size, and
    each weighted gaze term's, in ``terms``' (attribute, the loss's gradient
    into its mse, 2 / rows) order, on the essay's ``labelled`` rows (as
    ``_labelled_rows`` gives them), which it reaches as gather_rows'
    backward would.
    """
    target = np.array([[example.score_target]], dtype=np.float64)
    seeds = [(output.predicted_score,
              nm._mse_grad(1.0, score_coeff, output.predicted_score.data - target), None)]
    for attribute, g, coeff in terms:
        if attribute in labelled:
            rows, targets = labelled[attribute]
            prediction = output.gaze_predictions[attribute]
            seeds.append((prediction, nm._mse_grad(g, coeff, prediction.data[rows] - targets),
                          rows))
    return nm._seeded(seeds), all(np.isfinite(grad).all() for _, grad, _ in seeds)


class _EssayBackward:
    """The backward of a batch's essays, one essay's graph at a time, with
    every sum in the order the batch's graph gives it.

    An essay's sentence encoders are the only nodes whose place in the
    batch graph's reference order depends on the other essays. The first
    loss term to reach them decides it: the last weighted gaze term the
    essay has rows for, or else the score. The batch replays the encoders by
    that term's rank (0 for the score, k for the k-th weighted gaze term),
    then by essay: those are the turns. So each essay's backward runs at once
    but for its encoders (the readers of the embedding and the conv weights),
    which ``backward`` holds back until every turn before theirs has run;
    when every essay has the same rank, no encoder waits. Held back or not,
    the encoders add the same terms in the same order: no other node of an
    essay reads the embedding or the conv weights.

    With a co-attention ``article`` (the article's LSTM states node, and the
    stand-in leaf the essays read in its place), the batch's graph reaches
    the article's graph from the last essay's score, just before that
    essay's LSTM. So the article takes the turn (0, last - 1/2), after every
    other essay the score reaches first, and every later turn waits for the
    last essay. That essay holds back every reader of the parameters the
    article reads, and what must follow those readers (``_split_held``): its
    LSTM, word attentions, encoders and the concats between them, which the
    batch's graph replays after the article's. What its score reaches
    replays at turn (0, last), right after the article; what its gaze heads
    reach, whether the score does or not (a labelled essay's encoders, and
    their token concat or, with one sentence, the heads themselves), takes
    the essay's own turn. Once the last essay has run, the stand-in's
    gradient, which the essays' backwards added in batch order, seeds the
    article's node.
    """

    def __init__(self, model, ranks, article=None):
        self._encoders = (model.embedding, model.conv_w, model.conv_b)
        self._ranks, self._last, self._article = ranks, len(ranks) - 1, article
        turns = {(rank, essay) for essay, rank in enumerate(ranks)}
        if article is not None:  # the article's turn, then the last essay's score's
            self._article_turns = (0, self._last - 0.5), (0, self._last)
            turns.update(self._article_turns)
        self._turns = sorted(turns)
        self._next = 0
        self._held = {}  # turn -> the held nodes that replay at it
        self._waiting = []  # (essay, root) left for finish

    def add(self, essay, root, finite):
        """Run the backward from essay ``essay``'s ``root`` now, unless a seed
        of it or of an earlier essay is not finite: then leave it to ``finish``,
        which the caller runs once the batch loss is known to be finite."""
        if finite and not self._waiting:
            self._run(essay, root)
        else:
            self._waiting.append((essay, root))

    def finish(self):
        for essay, root in self._waiting:
            self._run(essay, root)

    def _run(self, essay, root):
        turn = (self._ranks[essay], essay)
        if self._article is not None and essay == self._last:
            self._run_last(root)
        elif self._turns[self._next] == turn:
            backward(root)
            self._next += 1
        else:
            self._held[turn] = backward(root, hold=self._encoders)
        while self._next < len(self._turns) and self._turns[self._next] in self._held:
            nm._replay(self._held.pop(self._turns[self._next]))
            self._next += 1

    def _run_last(self, root):
        states, stand_in = self._article
        article_turn, score_turn = self._article_turns
        article_order = nm._topological_order(states)
        # what the gaze heads, the root's parents after the score, reach
        gaze = set(map(id, nm._topological_order(*root._parents[1:])))
        held = backward(root, hold=[node for node in article_order if node._grad_fn is None])
        self._held[score_turn] = [node for node in held if id(node) not in gaze]
        if self._ranks[self._last]:
            self._held[(self._ranks[self._last], self._last)] = [
                node for node in held if id(node) in gaze]
        states.grad = stand_in.grad
        article_order.reverse()
        self._held[article_turn] = article_order


def _loss_terms(model, batch, weights):
    """(terms, ranks, labelled): the weighted gaze terms of ``batch``'s loss, in
    the order ``multitask_loss`` adds them, as ``_essay_root`` takes them, each
    essay's rank (see ``_EssayBackward``): 1 + the index of the last term it
    has rows for, else 0, and each essay's ``_labelled_rows``."""
    rows = {}  # labelled rows of each attribute over the batch
    labelled = [_labelled_rows(ex, model.config.gaze_attributes) for ex in batch]
    for essay_rows in labelled:
        for attribute, (indices, _) in essay_rows.items():
            rows[attribute] = rows.get(attribute, 0) + indices.size
    # mul's backward gives each term's mse the loss's gradient, 1, times the weight
    terms = [(attribute, 1.0 * np.float64(weights[attribute]), 2.0 / rows[attribute])
             for attribute in model.config.gaze_attributes
             if attribute in rows and weights.get(attribute, 0.0) != 0.0]
    ranks = [max([k + 1 for k, (attribute, _, _) in enumerate(terms) if attribute in attributes],
                 default=0) for attributes in labelled]
    return terms, ranks, labelled


def _forward_backward_by_essay(model, batch, weights, rng):
    """Each essay's forward, then at once its backward from ``_essay_root``
    through ``_EssayBackward``; returns (the essays' outputs, whose released
    nodes keep their values, and the ``_EssayBackward``, whose ``finish`` the
    caller runs after its loss check).

    The article and the essays take the dropout draws the batch graph
    takes: the article's first, then each essay's, in batch order. Every
    essay reads the article's states through one stand-in leaf, so its
    backward stops there.
    """
    terms, ranks, labelled = _loss_terms(model, batch, weights)
    states = model.encode_article(rng)
    article = None if states is None else Tensor(states.data, requires_grad=True)
    essays = _EssayBackward(model, ranks, None if states is None else (states, article))
    outputs = []
    for essay, ex in enumerate(batch):
        outputs.append(model.forward(ex.sentence_ids, rng, article=article))
        essays.add(essay, *_essay_root(outputs[-1], ex, labelled[essay], 2.0 / len(batch), terms))
        labelled[essay] = None  # its seeds keep what the backward reads; the rest goes now
    return outputs, essays


def _batch_gradients(model, params, batch, weights, rng, epoch, batch_index):
    """The gradients of one batch's loss in the parameters' ``grad``; returns
    its LossBreakdown, or raises TrainingDiverged if the loss is not finite.

    The step trains essay by essay: each essay's backward runs as soon as
    its forward ends (``_forward_backward_by_essay``), and ``multitask_loss``
    over the outputs' values gives the loss. A co-attention model encodes
    its article once, and the article's backward runs after the last
    essay's. Every gradient equals, bit for bit, the batch graph's (see
    the module docstring).
    """
    zero_grads(params)
    outputs, essays = _forward_backward_by_essay(model, batch, weights, rng)
    loss, breakdown = multitask_loss(outputs, batch, weights)
    if not math.isfinite(loss):
        raise TrainingDiverged(epoch, batch_index, _param_norms(model))
    essays.finish()
    nm._fill_grads(params)
    return breakdown


@collector_paused()
def _train_step(model, optimizer, batch, weights, clip_norm, rng, epoch, batch_index):
    """One optimizer step on one batch; returns its LossBreakdown.

    Only this frame holds the batch's graphs; backward frees each as it
    replays it. They are acyclic, so the cyclic collector, which would only
    walk them, is paused.
    """
    params = optimizer.parameters
    breakdown = _batch_gradients(model, params, batch, weights, rng, epoch, batch_index)
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
    labelled = {attribute for ex in train_examples
                for attribute in _labelled_rows(ex, model.config.gaze_attributes)}
    for attribute in model.config.gaze_attributes:
        if attribute not in labelled:
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
