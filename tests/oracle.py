"""Reference paths the tests check the library against.

The library runs none of these. A training step builds one essay's graph
at a time, and its gradients must equal those of ``batch_loss`` over
``batch_graph``'s one graph over the batch; ``training.multitask_loss``, on
values, must equal ``batch_loss`` bit for bit. The CLI runs every cell of a
run and lists each failure; ``run_experiment`` runs the same cells and
raises the first failure.
``bin_all`` gives each essay's bins as arrays; ``gaze_lists`` reads them as
one list per reader, as the per-record binning loop built them.
"""

import numpy as np

from gazescore import numerics as nm
from gazescore.experiments import assemble_report, execute_cells, fold_cells, run_fold
from gazescore.gaze import BinnedGaze
from gazescore.numerics import Tensor
from gazescore.training import LossBreakdown


def batch_graph(model, batch_sentence_ids, rng):
    """One graph over a training batch: each essay's ``forward`` output, in a
    list, every essay reading one article encoding. ``rng`` draws the dropout
    masks: the article's first, then each essay's, in batch order."""
    article = model.encode_article(rng)
    return [model.forward(sentence_ids, rng, article=article)
            for sentence_ids in batch_sentence_ids]


def batch_loss(outputs, examples, weights):
    """(loss Tensor, LossBreakdown) for one batch, the loss as a graph over
    the outputs: ``training.multitask_loss`` built from graph ops, the loss
    whose gradients a training step must equal.

    ``outputs`` are ForwardOutput per example, in the same order. Gaze
    terms with zero weight or no labeled tokens never enter the graph;
    their measured MSE is still reported in the breakdown.
    """
    if not examples:
        raise ValueError("batch_loss: empty batch")
    if len(outputs) != len(examples):
        raise ValueError("batch_loss: outputs and examples differ in length")
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


def run_experiment(config, data, log=None, jobs=1):
    """Train and evaluate one system over every fold of every target set; the
    ExperimentReport. A failed cell's exception is raised once every cell has run."""
    results, failures = execute_cells(run_fold, data, fold_cells(config, data), jobs, log)
    if failures:
        raise failures[0][1]
    return assemble_report(config, results)


def gaze_lists(essay_gaze, n_tokens):
    """{reader_id: [BinnedGaze or None per token]} of an EssayGaze over an
    essay of ``n_tokens`` tokens, readers sorted."""
    lists = {reader_id: [None] * n_tokens for reader_id in essay_gaze}
    for reader_id, position, token_bins in zip(essay_gaze.reader_ids(),
                                               essay_gaze.positions.tolist(),
                                               essay_gaze.bins.tolist()):
        lists[reader_id][position] = BinnedGaze._make(token_bins)
    return lists
