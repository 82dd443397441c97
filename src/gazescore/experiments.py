"""Cross-validated grading experiments: folds, systems, ablation, comparison.

Each essay set is evaluated with 5-fold cross validation where every fold
splits the set 60/20/20 into train/dev/test. Six named systems cover the
prompt-specific architectures (with and without co-attention over the source
article, with and without auxiliary gaze losses) and the unseen-prompt
setting (training on a different pool of gaze-annotated essays, optionally
augmented into the target set's own training partition). Each system is one
row of ``SYSTEMS``, which every cell reads.

Runs, ablations and the gaze-weight grid search are lists of cells (one
configuration on one (set, fold)) that :func:`execute_cells` runs, here or in
worker processes; a cell's outcome, with a worker's logged lines, is a value.
A failed cell stops no other: every cell runs, and the CLI lists every failure.
Beside each kind of cell list is what assembles its results into the
command's result (:func:`assemble_report`, :func:`ablation_report`,
:func:`grid_report`); the CLI only writes their files.

``ExperimentData.gaze_records`` hold only the readers a run learns from:
callers choose the readers as the records load, once per run, and no cell
filters readers again. A run with embeddings takes its model's
``embedding_dim`` from the vectors' size.

Data that could leak evaluation information is guarded by runtime provenance
assertions: the vocabulary must be built only from training essays, and
reader gaze statistics must never include records from dev or test essays of
the fold being run. A gaze pool that holds such an essay is rejected before
any cell runs. Those statistics, and the gaze targets binned with them,
depend only on which gaze essays a cell holds out, so they are computed once
per distinct such set: cells that hold out the same ones (every cell of an
unseen-prompt run) reuse the result kept on their process's
``ExperimentData``, and each cell still runs the statistics assertion.
"""

import math
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .corpus import (build_vocab, denormalize_score, matrix_from_vectors, open_text,
                     text_to_sentences)
from .gaze import GAZE_ATTRIBUTES, GazeTable, any_within, bin_all, gaze_targets, reader_stats
from .metrics import SignificanceResult, paired_t_test, qwk
from .model import EssayScorer, ModelConfig
from .training import TrainConfig, evaluate_breakdown, prepare_example, train

# A system's model architecture (co_attention attends over the source article),
# whether its loss adds the gaze terms, and whether it trains on the gaze pool too.
System = namedtuple("System", "architecture uses_gaze augments_train")

# only_prompt's row equals self_attention's: one system under two names.
SYSTEMS = {
    "self_attention": System("self_attention", False, False),
    "co_attention": System("co_attention", False, False),
    "co_attention_gaze": System("co_attention", True, False),
    "only_prompt": System("self_attention", False, False),
    "extra_essays": System("self_attention", False, True),
    "essays_gaze": System("self_attention", True, True),
}

# Per-attribute auxiliary loss weights used by the fixed-weight systems.
DEFAULT_GAZE_WEIGHTS = {"DT": 0.05, "FFD": 0.05, "IR": 0.01, "RC": 0.01, "Skip": 0.1}

# The weights a grid search tries for each attribute unless given others.
GAZE_WEIGHT_GRID = (0.5, 0.1, 0.05, 0.01, 0.001)

N_FOLDS = 5

FOLD_ROLES = ("train", "dev", "test")


class LeakageError(AssertionError):
    """Evaluation data reached a place where only training data may go."""


@dataclass(frozen=True)
class FoldSpec:
    """One cross-validation fold of a single essay set."""

    fold_id: int
    train: tuple
    dev: tuple
    test: tuple

    def __post_init__(self):
        groups = (self.train, self.dev, self.test)
        seen = set()
        for group in groups:
            for essay_id in group:
                if essay_id in seen:
                    raise ValueError(f"essay {essay_id} appears in two fold roles")
                seen.add(essay_id)
        if not (self.train and self.dev and self.test):
            raise ValueError("every fold role needs at least one essay")

    @property
    def all_ids(self):
        return set(self.train) | set(self.dev) | set(self.test)


def make_folds(essay_ids, seed):
    """Split one set's essay ids into 5 rotated 60/20/20 folds.

    The ids are shuffled once with the given seed and cut into five chunks;
    fold k tests on chunk k, validates on chunk (k+1) mod 5, and trains on
    the remaining three chunks. Needs at least 5 essays.
    """
    ids = list(essay_ids)
    if len(ids) != len(set(ids)):
        raise ValueError("duplicate essay ids")
    if len(ids) < N_FOLDS:
        raise ValueError(f"need at least {N_FOLDS} essays to fold, got {len(ids)}")
    order = np.random.default_rng(seed).permutation(len(ids))
    shuffled = [ids[i] for i in order]
    chunks = [list(chunk) for chunk in np.array_split(np.array(shuffled, dtype=object), N_FOLDS)]
    folds = []
    for k in range(N_FOLDS):
        test = chunks[k]
        dev = chunks[(k + 1) % N_FOLDS]
        train = []
        for j in range(N_FOLDS):
            if j != k and j != (k + 1) % N_FOLDS:
                train.extend(chunks[j])
        folds.append(FoldSpec(fold_id=k, train=tuple(train), dev=tuple(dev), test=tuple(test)))
    return folds


def save_folds(path, folds):
    """Write folds as lines of ``fold_id,role,essay_id``."""
    with open(path, "w", encoding="utf-8") as fh:
        for fold in folds:
            for role in FOLD_ROLES:
                for essay_id in getattr(fold, role):
                    fh.write(f"{fold.fold_id},{role},{essay_id}\n")


def load_folds(path):
    """Read folds saved by :func:`save_folds`, preserving stored order; a fold
    may list an essay once."""
    groups, lines = {}, {}  # lines: (fold_id, essay_id) -> the line that lists it
    with open_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != 3:
                raise ValueError(f"{path}:{line_no}: expected fold_id,role,essay_id")
            fold_id_text, role, essay_id_text = fields
            try:
                fold_id = int(fold_id_text)
                essay_id = int(essay_id_text)
            except ValueError:
                raise ValueError(f"{path}:{line_no}: fold_id and essay_id must be integers")
            if role not in FOLD_ROLES:
                raise ValueError(f"{path}:{line_no}: unknown role {role!r}")
            first = lines.setdefault((fold_id, essay_id), line_no)
            if first != line_no:
                raise ValueError(f"{path}:{line_no}: fold {fold_id} essay {essay_id} repeats "
                                 f"line {first}")
            groups.setdefault(fold_id, {r: [] for r in FOLD_ROLES})[role].append(essay_id)
    folds = []
    for fold_id in sorted(groups):
        roles = groups[fold_id]
        try:
            folds.append(FoldSpec(fold_id, *(tuple(roles[role]) for role in FOLD_ROLES)))
        except ValueError as error:
            raise ValueError(f"{path}: fold {fold_id}: {error}") from None
    if not folds:
        raise ValueError(f"{path}: no folds found")
    return folds


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that determines one experiment run."""

    system: str
    target_sets: tuple
    seed: int = 0
    gaze_attributes: tuple = GAZE_ATTRIBUTES
    gaze_loss_weights: dict = field(default_factory=lambda: dict(DEFAULT_GAZE_WEIGHTS))
    vocab_size: int = 4000
    model_params: dict = field(default_factory=dict)
    train_params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.system not in SYSTEMS:
            raise ValueError(f"unknown system {self.system!r}; expected one of {tuple(SYSTEMS)}")
        if not self.target_sets:
            raise ValueError("target_sets must not be empty")
        for name in ("target_sets", "gaze_attributes"):
            values = tuple(getattr(self, name))
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ValueError(f"{name} lists {repeated} more than once")
        for attribute in self.gaze_attributes:
            if attribute not in GAZE_ATTRIBUTES:
                raise ValueError(f"unknown gaze attribute {attribute!r}")
        if SYSTEMS[self.system].uses_gaze:
            if not self.gaze_attributes:
                raise ValueError(f"system {self.system!r} needs at least one gaze attribute")
            missing = [a for a in self.gaze_attributes if a not in self.gaze_loss_weights]
            if missing:
                raise ValueError(f"no loss weight configured for {missing}")
        # grid_cells' weights come through here too, one replace per grid point
        for attribute, weight in self.gaze_loss_weights.items():
            if not math.isfinite(weight):
                raise ValueError(f"gaze loss weight for {attribute} must be finite, "
                                 f"got {weight}")
            if weight < 0:  # the loss would reward gaze error; 0 ablates the term
                raise ValueError(f"gaze loss weight for {attribute} must be >= 0, got {weight}")


@dataclass
class ExperimentData:
    """Corpus, folds and gaze material shared by every fold of a run."""

    essays: dict                      # essay_id -> Essay
    sets: dict                        # set_id -> EssaySet
    folds: dict                       # set_id -> [FoldSpec] * 5
    gaze_essay_ids: frozenset = frozenset()   # external gaze-annotated pool
    gaze_records: GazeTable = field(default_factory=GazeTable.from_records)
    embedding_vectors: dict = None    # token -> vector, or None for random init
    # the last cell's gaze targets, for cells that hold out the same gaze essays
    _gaze_memo: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for set_id, folds in self.folds.items():
            for fold in folds:
                unknown = fold.all_ids - set(self.essays)
                if unknown:
                    raise ValueError(
                        f"set {set_id} fold {fold.fold_id} references unknown "
                        f"essays {sorted(unknown)}")
                foreign = sorted(i for i in fold.all_ids if self.essays[i].set_id != set_id)
                if foreign:
                    raise ValueError(
                        f"set {set_id} fold {fold.fold_id} lists essays {foreign} "
                        "of another set")
        missing = self.gaze_essay_ids - set(self.essays)
        if missing:
            raise ValueError(f"gaze pool references unknown essays {sorted(missing)}")


class Prediction(NamedTuple):
    """One test essay's outcome; its fields are predictions.csv's columns after the ids."""

    predicted_raw: int
    actual_raw: int
    squared_error: float              # on normalized scores


@dataclass(frozen=True)
class FoldResult:
    """One fold's outcome; its scalar fields, in order, are report.csv's columns after system."""

    set_id: int
    fold_id: int
    test_qwk: float
    best_dev_qwk: float
    best_epoch: int
    n_train: int
    n_augmented: int
    test_predictions: dict            # essay_id -> Prediction


@dataclass(frozen=True)
class ExperimentReport:
    """Per-fold results with recomputable per-set and grand means."""

    system: str
    seed: int
    fold_results: tuple               # FoldResult, ordered by (set_id, fold_id)

    def per_set(self):
        grouped = {}
        for result in self.fold_results:
            grouped.setdefault(result.set_id, []).append(result)
        return grouped

    def set_mean_qwk(self, set_id):
        results = self.per_set()[set_id]
        return sum(r.test_qwk for r in results) / len(results)

    def set_means(self):
        return {set_id: self.set_mean_qwk(set_id) for set_id in sorted(self.per_set())}

    def grand_mean_qwk(self):
        means = self.set_means()
        return sum(means.values()) / len(means)


def _assert_no_vocab_leakage(vocab, held_out_ids):
    leaked = vocab.provenance & held_out_ids
    if leaked:
        raise LeakageError(
            f"vocabulary built from held-out essays {sorted(leaked)}")


def _assert_no_stats_leakage(stats, held_out_ids):
    for reader_stat in stats.values():
        leaked = reader_stat.provenance & held_out_ids
        if leaked:
            raise LeakageError(
                f"reader {reader_stat.reader_id} statistics include held-out "
                f"essays {sorted(leaked)}")


def _fold_seed(base_seed, set_id, fold_id):
    # distinct deterministic seed per (set, fold) cell
    return base_seed * 100000 + set_id * 1000 + fold_id


def _examples_for(essay_ids, essays, vocab, targets):
    return [prepare_example(essays[essay_id], vocab, targets.get(essay_id, {}))
            for essay_id in essay_ids]


def _fold_gaze_targets(data, fold, system_name, set_id):
    """{essay_id: gaze targets} of every gaze essay outside the fold's test partition.

    The reader statistics come from the train-side records that ``bin_all``
    can place, and bin the dev records too. Both depend on nothing but which
    gaze essays the fold holds out, so ``data`` keeps the last such result
    for the next cell that holds out the same ones; the leakage assertion
    runs every time.
    """
    test_ids = set(fold.test)
    held_out = set(fold.dev) | test_ids
    records = data.gaze_records
    record_ids = set(np.unique(records.essay_id).tolist())
    if record_ids <= held_out:
        raise ValueError(
            f"system {system_name!r} needs gaze records but all of them are on "
            f"essays held out in set {set_id} fold {fold.fold_id}")
    key = (frozenset(record_ids & held_out), frozenset(record_ids & test_ids))
    memo = data._gaze_memo
    if (memo is None or memo[0] is not records or memo[1] is not data.essays
            or memo[2] != key):
        usable = records.take(~np.isin(records.essay_id, list(test_ids)))
        stats = reader_stats(usable.take(~np.isin(usable.essay_id, list(held_out))),
                             data.essays)
        # a token's bins depend only on its record and its reader's statistics,
        # so one pass bins the train and the dev side
        sequences, _ = bin_all(usable, stats, data.essays)
        targets = {essay_id: gaze_targets(gaze) for essay_id, gaze in sequences.items()}
        memo = data._gaze_memo = (records, data.essays, key, stats, targets)
    stats, targets = memo[3:]
    _assert_no_stats_leakage(stats, held_out)
    return targets


def cell_configs(config, data, vocab_size, seed):
    """(ModelConfig, TrainConfig) of a cell of ``config``, which differ only in these two.

    With embedding vectors in ``data``, ``embedding_dim`` is their size; a
    model option naming another size is rejected.
    """
    if "vocab_size" in config.model_params:
        raise ValueError("vocab_size is derived from the fold's training vocabulary")
    model_params = dict(config.model_params)
    if data.embedding_vectors:
        size = len(next(iter(data.embedding_vectors.values())))
        given = model_params.setdefault("embedding_dim", size)
        if given != size:
            raise ValueError(f"embedding_dim {given} does not match the "
                             f"{size}-dimensional embeddings")
    system = SYSTEMS[config.system]
    attributes = tuple(config.gaze_attributes) if system.uses_gaze else ()
    weights = {a: float(config.gaze_loss_weights[a]) for a in attributes}
    return (ModelConfig(architecture=system.architecture, gaze_attributes=attributes,
                        gaze_loss_weights=weights, vocab_size=vocab_size, **model_params),
            TrainConfig(**{**config.train_params, "seed": seed}))


@dataclass
class CellSetup:
    """Everything needed to train and evaluate one (set, fold) cell."""

    model: EssayScorer
    train_examples: list
    dev_examples: list
    test_examples: list
    train_config: TrainConfig
    essay_set: object
    n_augmented: int


def prepare_cell(config, data, set_id, fold):
    """Build the model, vocabulary and examples for one fold, leakage-checked.

    Dev examples carry gaze targets binned with the train-side reader
    statistics (training reads only their scores); test examples carry none.
    """
    system = SYSTEMS[config.system]
    essay_set = data.sets[set_id]
    held_out = set(fold.dev) | set(fold.test)

    # validate_run keeps held-out essays out of the pool
    augmented_ids = sorted(data.gaze_essay_ids - set(fold.train)) if system.augments_train else []
    train_ids = list(fold.train) + augmented_ids

    train_essays = [data.essays[i] for i in train_ids]
    vocab = build_vocab(train_essays, max_size=config.vocab_size)
    _assert_no_vocab_leakage(vocab, held_out)

    cell_seed = _fold_seed(config.seed, set_id, fold.fold_id)
    model_config, train_config = cell_configs(config, data, len(vocab), cell_seed)

    embedding_matrix = None
    if data.embedding_vectors is not None:
        embedding_matrix = matrix_from_vectors(data.embedding_vectors, model_config.embedding_dim,
                                               vocab, np.random.default_rng(cell_seed))

    targets = {}
    if system.uses_gaze:
        targets = _fold_gaze_targets(data, fold, config.system, set_id)

    article_ids = None
    if system.architecture == "co_attention":
        article_ids = [vocab.encode(s) for s in text_to_sentences(essay_set.source_article)]

    model = EssayScorer(
        model_config, np.random.default_rng(cell_seed),
        embedding_matrix=embedding_matrix,
        article_sentence_ids=article_ids,
    )

    train_examples = _examples_for(train_ids, data.essays, vocab, targets)
    dev_examples = _examples_for(fold.dev, data.essays, vocab, targets)
    test_examples = _examples_for(fold.test, data.essays, vocab, {})

    train_id_set = {ex.essay_id for ex in train_examples}
    leaked = train_id_set & set(fold.test)
    if leaked:
        raise LeakageError(f"test essays {sorted(leaked)} found in training examples")

    return CellSetup(
        model=model,
        train_examples=train_examples,
        dev_examples=dev_examples,
        test_examples=test_examples,
        train_config=train_config,
        essay_set=essay_set,
        n_augmented=len(augmented_ids),
    )


def train_cell(config, data, set_id, fold, log=None):
    """Prepare one cell, train it and load its best state into its model.

    Returns (CellSetup, TrainResult).
    """
    setup = prepare_cell(config, data, set_id, fold)
    result = train(setup.model, setup.train_examples, setup.dev_examples,
                   setup.train_config, {set_id: setup.essay_set}, log=log)
    setup.model.load_state_dict(result.best_state)
    return setup, result


def run_fold(config, data, set_id, fold, log=None):
    """Train one cell and score its test partition."""
    setup, result = train_cell(config, data, set_id, fold, log)
    pairs = []
    predictions = {}
    outputs = setup.model.forward_batch([ex.sentence_ids for ex in setup.test_examples], heads=())
    for example, output in zip(setup.test_examples, outputs):
        predicted = output.score_value
        raw = denormalize_score(predicted, setup.essay_set)
        predictions[example.essay_id] = Prediction(
            raw, example.raw_score, float((predicted - example.score_target) ** 2))
        pairs.append((int(example.raw_score), raw))
    test_qwk = qwk(pairs, setup.essay_set.score_min, setup.essay_set.score_max)

    return FoldResult(
        set_id=set_id,
        fold_id=fold.fold_id,
        test_qwk=test_qwk,
        best_dev_qwk=result.best_dev_qwk,
        best_epoch=result.best_epoch,
        n_train=len(setup.train_examples),
        n_augmented=setup.n_augmented,
        test_predictions=predictions,
    )


# One configuration to train and score on one (set, fold); ``label`` names
# the cell in logs and failure lists.
Cell = namedtuple("Cell", "config set_id fold label")


def fold_cells(config, data, name=None):
    """The cells of one configuration in (set, fold) order, preconditions checked.

    ``name`` starts every cell's label; it defaults to the system.
    """
    validate_run(config, data)
    name = name or f"system={config.system}"
    return [Cell(config, set_id, fold, f"{name} set={set_id} fold={fold.fold_id}")
            for set_id in sorted(config.target_sets)
            for fold in data.folds[set_id]]


# What a worker process of :func:`execute_cells` received at start: (data, task)
_worker = None


def _start_worker(data, task):
    global _worker
    _worker = (data, task)


def _run_cell(task, data, config, set_id, fold, log):
    """(result, None) of one cell, or (None, error) if it raised; numpy does not warn
    in a cell, since a warning prints once per process, so once per worker."""
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return task(config, data, set_id, fold, log), None
    except Exception as error:
        return None, error


def _run_worker_cell(config, set_id, fold):
    """(result, error, logged lines) of one cell on the worker's data."""
    data, task = _worker
    lines = []
    return (*_run_cell(task, data, config, set_id, fold, lines.append), lines)


def execute_cells(task, data, cells, jobs=1, log=None):
    """Run ``task(config, data, set_id, fold, log)`` for every cell.

    ``log`` gets each cell's label and then the lines the task logged, in
    cell order, so it gets the same lines at any ``jobs``. One job, or one
    cell, runs here and logs as it goes; otherwise a pool of
    ``min(jobs, len(cells))`` worker processes gets ``data`` and ``task``
    once, as each starts, a cell sends only its own arguments, and its
    outcome comes back as (result, error, lines), logged as its turn comes;
    a cell whose outcome cannot come back (its worker died) fails with no lines.
    Returns (results, failures): the finished cells' results in cell order
    and a (cell, exception) pair for each cell that raised; a failed cell
    stops no other.
    """
    results, failures = [], []
    workers = min(jobs, len(cells))
    pool = ProcessPoolExecutor(max_workers=workers, initializer=_start_worker,
                               initargs=(data, task)) if workers > 1 else None
    try:
        futures = [pool.submit(_run_worker_cell, c.config, c.set_id, c.fold) if pool else None
                   for c in cells]
        for cell, future in zip(cells, futures):
            if log is not None:
                log(cell.label)
            if future is None:
                result, error = _run_cell(task, data, cell.config, cell.set_id, cell.fold, log)
            else:
                try:
                    result, error, lines = future.result()
                except Exception as lost:  # a dead worker or an unpicklable outcome
                    result, error, lines = None, lost, ()
                if log is not None:
                    for line in lines:
                        log(line)
            if error is None:
                results.append(result)
            else:
                failures.append((cell, error))
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return results, failures


def assemble_report(config, fold_results):
    """Build an ExperimentReport from fold results run elsewhere (e.g. workers)."""
    ordered = tuple(sorted(fold_results, key=lambda r: (r.set_id, r.fold_id)))
    return ExperimentReport(system=config.system, seed=config.seed, fold_results=ordered)


def validate_run(config, data):
    """Raise ValueError, before any cell exists, if the run cannot work at all.

    It checks the target sets, the article and gaze inputs the system
    needs, and the options every cell's ModelConfig and TrainConfig take; a
    gaze pool holding a dev or test essay of ``data.folds`` raises LeakageError.
    """
    system = SYSTEMS[config.system]
    for set_id in config.target_sets:
        if set_id not in data.sets:
            raise ValueError(f"unknown target set {set_id}")
        if set_id not in data.folds:
            raise ValueError(f"no folds for set {set_id}")
        if system.architecture == "co_attention" and not any(
                text_to_sentences(data.sets[set_id].source_article or "")):
            raise ValueError(
                f"system {config.system!r} needs a source article but set "
                f"{set_id} has none with any tokens")
    if system.uses_gaze and not data.gaze_records:
        raise ValueError(f"system {config.system!r} needs gaze records")
    if system.augments_train and not data.gaze_essay_ids:
        raise ValueError(f"system {config.system!r} needs a gaze essay pool to augment with")
    leaked = data.gaze_essay_ids & {i for set_id in config.target_sets
                                    for fold in data.folds[set_id] for i in fold.dev + fold.test}
    if system.augments_train and leaked:
        raise LeakageError(f"gaze pool essays {sorted(leaked)} are held out in the run's folds")
    # a system learns gaze from the essays it trains on: its target sets' essays,
    # and the pool's if it augments
    pool = data.gaze_essay_ids if system.augments_train else frozenset()
    if system.uses_gaze and not _gaze_within_tokens(data, pool | {
            i for set_id in config.target_sets for fold in data.folds[set_id]
            for i in fold.all_ids}):
        raise ValueError(f"system {config.system!r} learns gaze from its "
                         f"{'gaze pool and ' if pool else ''}target sets' essays, but no "
                         f"{'pool essay or ' if pool else ''}essay of target sets "
                         f"{list(config.target_sets)} has a gaze record within its tokens")
    cell_configs(config, data, config.vocab_size, config.seed)


def _gaze_within_tokens(data, essay_ids):
    """Whether a gaze record on one of ``essay_ids`` falls within its essay's tokens."""
    return any_within(data.gaze_records, {i: data.essays[i] for i in essay_ids})


def grid_cells(config, data, attributes, weights):
    """One cell per (attribute, weight, set, fold), the attribute alone at that weight."""
    if not SYSTEMS[config.system].uses_gaze:
        raise ValueError(f"system {config.system!r} has no gaze loss to search over")
    if not (attributes and weights):  # no cells would leave the run unchecked
        raise ValueError("a grid search needs at least one attribute and one weight")
    cells = [cell
             for attribute in attributes
             for weight in sorted(set(weights))
             for cell in fold_cells(
                 replace(config, gaze_attributes=(attribute,),
                         gaze_loss_weights={attribute: float(weight)}),
                 data, f"grid attribute={attribute} weight={weight}")]
    # grid points are scored on dev gaze bin_all can place, so a run without any fails
    if not _gaze_within_tokens(data, {i for cell in cells for i in cell.fold.dev}):
        raise ValueError(f"a grid search scores dev gaze, but no dev essay of target sets "
                         f"{list(config.target_sets)} has a gaze record within its tokens")
    return cells


def grid_fold(config, data, set_id, fold, log=None):
    """Train a single-attribute cell; its (dev gaze MSE, dev labeled-token count).

    A dev partition without gaze records gives a zero count.
    """
    setup, _ = train_cell(config, data, set_id, fold, log)
    (attribute,) = config.gaze_attributes
    breakdown = evaluate_breakdown(setup.model, setup.dev_examples)
    return (breakdown.gaze_mse.get(attribute, 0.0),
            breakdown.gaze_token_counts.get(attribute, 0))


def grid_report(cells, results):
    """Per-attribute weight selection from the complete results of :func:`grid_cells`.

    A grid point's folds combine as the token-weighted mean of their dev
    gaze MSE; the lowest mean wins, and ties break toward the smaller
    weight. Returns ({attribute: best weight}, {attribute: {weight: mean
    mse}}), both in cell order: :func:`grid_cells` gives attributes in
    their configured order and each one's weights ascending.
    """
    folds_of = {}
    for cell, result in zip(cells, results):
        (point,) = cell.config.gaze_loss_weights.items()
        folds_of.setdefault(point, []).append(result)
    table = {}
    for (attribute, weight), folds in folds_of.items():
        total_tokens = sum(count for _, count in folds)
        if total_tokens == 0:
            raise ValueError(f"grid search: no labeled tokens for {attribute}")
        table.setdefault(attribute, {})[weight] = (
            sum(mse * count for mse, count in folds) / total_tokens)
    best = {attribute: min(means, key=lambda w: (means[w], w))
            for attribute, means in table.items()}
    return best, table


@dataclass(frozen=True)
class AblationReport:
    """Full-system vs single-attribute-disabled comparison."""

    attribute: str
    full: ExperimentReport
    ablated: ExperimentReport

    def delta_per_set(self):
        full_means = self.full.set_means()
        ablated_means = self.ablated.set_means()
        return {set_id: full_means[set_id] - ablated_means[set_id] for set_id in full_means}

    def delta_grand(self):
        return self.full.grand_mean_qwk() - self.ablated.grand_mean_qwk()


def ablation_cells(config, data, attribute):
    """The cells of ``config``, then those of ``config`` with ``attribute``'s weight at 0."""
    if attribute not in config.gaze_attributes:
        raise ValueError(f"cannot ablate {attribute!r}: "
                         f"not among configured attributes {config.gaze_attributes}")
    if not SYSTEMS[config.system].uses_gaze:
        raise ValueError(f"system {config.system!r} has no gaze loss to ablate")
    ablated = replace(config, gaze_loss_weights={**config.gaze_loss_weights, attribute: 0.0})
    return (fold_cells(config, data)
            + fold_cells(ablated, data, f"system={config.system} ablate={attribute}"))


def ablation_report(attribute, cells, results):
    """The AblationReport of the complete results of :func:`ablation_cells`."""
    half = len(cells) // 2
    full, ablated = cells[0].config, cells[-1].config
    return AblationReport(attribute, assemble_report(full, results[:half]),
                          assemble_report(ablated, results[half:]))


@dataclass(frozen=True)
class ComparisonReport:
    """Paired significance test between two systems on identical folds."""

    system_a: str
    system_b: str
    overall: SignificanceResult
    per_set: dict
    pairing: str = "per-essay squared error on normalized scores, matched by essay id"

    @property
    def significant(self):
        return self.overall.p_value < 0.05


def _matched_errors(report_a, report_b):
    keyed_a = {(r.set_id, r.fold_id): r for r in report_a.fold_results}
    keyed_b = {(r.set_id, r.fold_id): r for r in report_b.fold_results}
    if set(keyed_a) != set(keyed_b):
        raise ValueError("reports cover different sets or folds; cannot pair")
    per_set = {}
    for key in sorted(keyed_a):
        result_a, result_b = keyed_a[key], keyed_b[key]
        if set(result_a.test_predictions) != set(result_b.test_predictions):
            raise ValueError(
                f"set {key[0]} fold {key[1]}: test essays differ between reports; "
                "runs must share fold files")
        set_id = key[0]
        bucket = per_set.setdefault(set_id, ([], []))
        for essay_id in sorted(result_a.test_predictions):
            bucket[0].append(result_a.test_predictions[essay_id].squared_error)
            bucket[1].append(result_b.test_predictions[essay_id].squared_error)
    return per_set


def compare(report_a, report_b):
    """Paired t-test of per-essay squared errors between two reports.

    Both reports must have been produced on identical folds; essays are
    matched by id within each (set, fold) cell. Comparing a report against
    itself is rejected (all differences are zero).
    """
    per_set_errors = _matched_errors(report_a, report_b)
    per_set = {}
    all_a, all_b = [], []
    for set_id, (errors_a, errors_b) in sorted(per_set_errors.items()):
        all_a.extend(errors_a)
        all_b.extend(errors_b)
        try:
            per_set[set_id] = paired_t_test(errors_a, errors_b)
        except ValueError:
            per_set[set_id] = None
    overall = paired_t_test(all_a, all_b)
    return ComparisonReport(
        system_a=report_a.system,
        system_b=report_b.system,
        overall=overall,
        per_set=per_set,
    )


def format_report(report):
    """Human-readable results table: per-fold QWKs, set means, grand mean."""
    lines = [f"system: {report.system}    seed: {report.seed}"]
    lines.append(f"{'set':>4} {'fold':>4} {'test_qwk':>9} {'dev_qwk':>9} {'best_epoch':>10}")
    for result in report.fold_results:
        dev = f"{result.best_dev_qwk:9.4f}" if not math.isnan(result.best_dev_qwk) else "      nan"
        lines.append(
            f"{result.set_id:>4} {result.fold_id:>4} {result.test_qwk:9.4f} "
            f"{dev} {result.best_epoch:>10}")
    for set_id, mean in report.set_means().items():
        lines.append(f"set {set_id} mean qwk: {mean:.4f}")
    lines.append(f"grand mean qwk: {report.grand_mean_qwk():.4f}")
    return "\n".join(lines) + "\n"

