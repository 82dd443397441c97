"""Reference paths the tests check the library against.

The library runs neither of these. A training step builds one essay's graph
at a time, and its gradients must equal those of ``batch_graph``'s one graph
over the batch. The CLI runs every cell of a run and lists each failure;
``run_experiment`` runs the same cells and raises the first failure.
"""

from gazescore.experiments import assemble_report, execute_cells, fold_cells, run_fold


def batch_graph(model, batch_sentence_ids, rng):
    """One graph over a training batch: each essay's ``forward`` output, in a
    list, every essay reading one article encoding. ``rng`` draws the dropout
    masks: the article's first, then each essay's, in batch order."""
    article = model.encode_article(rng)
    return [model.forward(sentence_ids, rng, article=article)
            for sentence_ids in batch_sentence_ids]


def run_experiment(config, data, log=None, jobs=1):
    """Train and evaluate one system over every fold of every target set; the
    ExperimentReport. A failed cell's exception is raised once every cell has run."""
    results, failures = execute_cells(run_fold, data, fold_cells(config, data), jobs, log)
    if failures:
        raise failures[0][1]
    return assemble_report(config, results)
