"""Cross-validated grading experiments: folds, systems, ablation, comparison.

Each essay set is evaluated with 5-fold cross validation where every fold
splits the set 60/20/20 into train/dev/test. Six named systems cover the
prompt-specific architectures (with and without co-attention over the source
article, with and without auxiliary gaze losses) and the unseen-prompt
setting (training on a different pool of gaze-annotated essays, optionally
augmented into the target set's own training partition).

Runs, ablations and the gaze-weight grid search are lists of cells (one
configuration on one (set, fold)) that :func:`execute_cells` runs, here or in
worker processes. The library entry points stop at the first failed cell and
raise its own exception; the CLI runs every cell and lists every failure.

Data that could leak evaluation information is guarded by runtime provenance
assertions: the vocabulary must be built only from training essays, and
reader gaze statistics must never include records from dev or test essays of
the fold being run.
"""

import csv
import math
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .corpus import build_vocab, denormalize_score, matrix_from_vectors, text_to_sentences
from .gaze import GAZE_ATTRIBUTES, READER_FILTERS, bin_all, filter_readers, reader_stats
from .metrics import SignificanceResult, paired_t_test, qwk
from .model import EssayScorer, ModelConfig
from .training import TrainConfig, evaluate_breakdown, prepare_example, train

# A system attends over the prompt's source article, adds the gaze terms to
# its loss, and/or trains on the external gaze-annotated pool as well.
System = namedtuple("System", "uses_article uses_gaze augments_train")

# only_prompt's row equals self_attention's: one system under two names.
SYSTEMS = {
    "self_attention": System(False, False, False),
    "co_attention": System(True, False, False),
    "co_attention_gaze": System(True, True, False),
    "only_prompt": System(False, False, False),
    "extra_essays": System(False, False, True),
    "essays_gaze": System(False, True, True),
}

# Per-attribute auxiliary loss weights used by the fixed-weight systems.
DEFAULT_GAZE_WEIGHTS = {"DT": 0.05, "FFD": 0.05, "IR": 0.01, "RC": 0.01, "Skip": 0.1}

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
    """Read folds saved by :func:`save_folds`, preserving stored order."""
    groups = {}
    with open(path, "r", encoding="utf-8") as fh:
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
            groups.setdefault(fold_id, {r: [] for r in FOLD_ROLES})[role].append(essay_id)
    folds = []
    for fold_id in sorted(groups):
        roles = groups[fold_id]
        folds.append(FoldSpec(
            fold_id=fold_id,
            train=tuple(roles["train"]),
            dev=tuple(roles["dev"]),
            test=tuple(roles["test"]),
        ))
    if not folds:
        raise ValueError(f"{path}: no folds found")
    return folds


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that determines one experiment run."""

    system: str
    target_sets: tuple
    seed: int = 0
    gaze_reader_filter: object = "all"
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
        if isinstance(self.gaze_reader_filter, str):
            if self.gaze_reader_filter not in READER_FILTERS:
                raise ValueError(
                    f"gaze_reader_filter must be one of {READER_FILTERS} "
                    "or an explicit reader id collection")
        else:
            object.__setattr__(self, "gaze_reader_filter", tuple(self.gaze_reader_filter))
        for attribute in self.gaze_attributes:
            if attribute not in GAZE_ATTRIBUTES:
                raise ValueError(f"unknown gaze attribute {attribute!r}")
        if self.uses_gaze:
            missing = [a for a in self.gaze_attributes if a not in self.gaze_loss_weights]
            if missing:
                raise ValueError(f"no loss weight configured for {missing}")

    @property
    def uses_article(self):
        return SYSTEMS[self.system].uses_article

    @property
    def uses_gaze(self):
        return SYSTEMS[self.system].uses_gaze

    @property
    def augments_train(self):
        return SYSTEMS[self.system].augments_train

    @property
    def architecture(self):
        return "co_attention" if self.uses_article else "self_attention"


@dataclass
class ExperimentData:
    """Corpus, folds and gaze material shared by every fold of a run."""

    essays: dict                      # essay_id -> Essay
    sets: dict                        # set_id -> EssaySet
    folds: dict                       # set_id -> [FoldSpec] * 5
    gaze_essay_ids: frozenset = frozenset()   # external gaze-annotated pool
    gaze_records: tuple = ()
    reader_metadata: dict = field(default_factory=dict)  # reader_id -> info dict
    embedding_vectors: dict = None    # token -> vector, or None for random init
    embedding_dim: int = None

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


@dataclass(frozen=True)
class FoldResult:
    """Outcome of training and testing one fold."""

    set_id: int
    fold_id: int
    test_qwk: float
    best_epoch: int
    best_dev_qwk: float
    test_predictions: dict            # essay_id -> (predicted_raw, actual_raw)
    squared_errors: dict              # essay_id -> squared normalized error
    n_train: int
    n_augmented: int


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


def _article_sentence_ids(essay_set, vocab):
    if essay_set.source_article is None:
        raise ValueError(
            f"set {essay_set.set_id} has no source article but the system attends over one")
    return [vocab.encode(s) for s in text_to_sentences(essay_set.source_article)]


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


def _examples_for(essay_ids, essays, vocab, gaze_sequences):
    per_essay = {}
    for (essay_id, reader_id), sequence in (gaze_sequences or {}).items():
        per_essay.setdefault(essay_id, {})[reader_id] = sequence
    return [prepare_example(replace(essays[essay_id], gaze=per_essay.get(essay_id)), vocab)
            for essay_id in essay_ids]


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
    essay_set = data.sets[set_id]
    held_out = set(fold.dev) | set(fold.test)

    train_ids = list(fold.train)
    augmented_ids = []
    if config.augments_train:
        augmented_ids = sorted(data.gaze_essay_ids - set(train_ids))
        overlap = data.gaze_essay_ids & held_out
        if overlap:
            raise LeakageError(
                f"gaze pool essays {sorted(overlap)} are held out in set {set_id} "
                f"fold {fold.fold_id}")
        train_ids = train_ids + augmented_ids

    train_essays = [data.essays[i] for i in train_ids]
    vocab = build_vocab(train_essays, max_size=config.vocab_size)
    _assert_no_vocab_leakage(vocab, held_out)

    cell_seed = _fold_seed(config.seed, set_id, fold.fold_id)
    rng = np.random.default_rng(cell_seed)

    embedding_matrix = None
    if data.embedding_vectors is not None:
        embedding_matrix = matrix_from_vectors(
            data.embedding_vectors, data.embedding_dim, vocab, rng)

    gaze_sequences = dev_sequences = None
    weights = {}
    attributes = ()
    if config.uses_gaze:
        usable_records = filter_readers(
            data.gaze_records, config.gaze_reader_filter, data.reader_metadata)
        train_side = [r for r in usable_records if r.essay_id not in held_out]
        if not train_side:
            raise ValueError(
                f"system {config.system!r} needs gaze records but none remain "
                f"after filtering")
        stats = reader_stats(train_side)
        _assert_no_stats_leakage(stats, held_out)
        gaze_sequences, _ = bin_all(train_side, stats, data.essays)
        dev_ids = set(fold.dev)
        dev_sequences, _ = bin_all([r for r in usable_records if r.essay_id in dev_ids],
                                   stats, data.essays)
        weights = {a: float(config.gaze_loss_weights[a]) for a in config.gaze_attributes}
        attributes = tuple(config.gaze_attributes)

    article_ids = None
    if config.uses_article:
        article_ids = _article_sentence_ids(essay_set, vocab)

    model_kwargs = dict(config.model_params)
    if "vocab_size" in model_kwargs:
        raise ValueError("vocab_size is derived from the fold's training vocabulary")
    model_kwargs["vocab_size"] = len(vocab)
    model_config = ModelConfig(
        architecture=config.architecture,
        gaze_attributes=attributes,
        gaze_loss_weights=weights,
        **model_kwargs,
    )
    model = EssayScorer(
        model_config, np.random.default_rng(cell_seed),
        embedding_matrix=embedding_matrix,
        article_sentence_ids=article_ids,
    )

    train_examples = _examples_for(train_ids, data.essays, vocab, gaze_sequences)
    dev_examples = _examples_for(fold.dev, data.essays, vocab, dev_sequences)
    test_examples = _examples_for(fold.test, data.essays, vocab, None)

    train_id_set = {ex.essay_id for ex in train_examples}
    leaked = train_id_set & set(fold.test)
    if leaked:
        raise LeakageError(f"test essays {sorted(leaked)} found in training examples")

    train_kwargs = dict(config.train_params)
    train_kwargs["seed"] = cell_seed
    train_config = TrainConfig(**train_kwargs)

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
    squared_errors = {}
    outputs = setup.model.forward_batch([ex.sentence_ids for ex in setup.test_examples])
    for example, output in zip(setup.test_examples, outputs):
        predicted = output.score_value
        raw = denormalize_score(predicted, setup.essay_set)
        predictions[example.essay_id] = (raw, example.raw_score)
        squared_errors[example.essay_id] = float((predicted - example.score_target) ** 2)
        pairs.append((int(example.raw_score), raw))
    test_qwk = qwk(pairs, setup.essay_set.score_min, setup.essay_set.score_max)

    return FoldResult(
        set_id=set_id,
        fold_id=fold.fold_id,
        test_qwk=test_qwk,
        best_epoch=result.best_epoch,
        best_dev_qwk=result.best_dev_qwk,
        test_predictions=predictions,
        squared_errors=squared_errors,
        n_train=len(setup.train_examples),
        n_augmented=setup.n_augmented,
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


def execute_cells(task, data, cells, jobs=1, log=None, fail_fast=False):
    """Run ``task(config, data, set_id, fold, log)`` for every cell.

    One job runs the cells here, in order, and ``log`` gets each label and
    then the task's lines; more run them in a pool of ``jobs`` worker
    processes and ``log`` gets the labels only. Returns (results, failures):
    the finished cells' results in cell order and a (cell, exception) pair
    for each cell that raised. With ``fail_fast`` the first failed cell's
    exception propagates instead, and cells still waiting to start are
    dropped.
    """
    results, failures = [], []
    with ExitStack() as stack:
        if jobs > 1:
            pool = ProcessPoolExecutor(max_workers=jobs)
            stack.callback(pool.shutdown, cancel_futures=True)
            outcomes = [pool.submit(task, c.config, data, c.set_id, c.fold).result
                        for c in cells]
        else:
            outcomes = [partial(task, c.config, data, c.set_id, c.fold, log) for c in cells]
        for cell, outcome in zip(cells, outcomes):
            if log is not None:
                log(cell.label)
            try:
                results.append(outcome())
            except Exception as error:
                if fail_fast:
                    raise
                failures.append((cell, error))
    return results, failures


def run_experiment(config, data, log=None, jobs=1):
    """Train and evaluate one system over every fold of every target set.

    ``jobs`` above 1 runs the cells in that many worker processes; the
    report is the same.
    """
    results, _ = execute_cells(run_fold, data, fold_cells(config, data), jobs, log,
                               fail_fast=True)
    return assemble_report(config, results)


def assemble_report(config, fold_results):
    """Build an ExperimentReport from fold results run elsewhere (e.g. workers)."""
    ordered = tuple(sorted(fold_results, key=lambda r: (r.set_id, r.fold_id)))
    return ExperimentReport(system=config.system, seed=config.seed, fold_results=ordered)


def validate_run(config, data):
    """All preconditions checked before any training starts."""
    for set_id in config.target_sets:
        if set_id not in data.sets:
            raise ValueError(f"unknown target set {set_id}")
        if set_id not in data.folds:
            raise ValueError(f"no folds for set {set_id}")
        if config.uses_article and data.sets[set_id].source_article is None:
            raise ValueError(
                f"system {config.system!r} needs a source article but set "
                f"{set_id} has none")
    if config.uses_gaze and not data.gaze_records:
        raise ValueError(f"system {config.system!r} needs gaze records")
    if config.augments_train and not data.gaze_essay_ids:
        raise ValueError(f"system {config.system!r} needs a gaze essay pool to augment with")


def grid_cells(config, data, attributes, weights):
    """One cell per (attribute, weight, set, fold), the attribute alone at that weight."""
    return [cell
            for attribute in attributes
            for weight in sorted(set(weights))
            for cell in fold_cells(
                replace(config, gaze_attributes=(attribute,),
                        gaze_loss_weights={attribute: float(weight)}),
                data, f"grid attribute={attribute} weight={weight}")]


def grid_fold(config, data, set_id, fold, log=None):
    """Train a single-attribute cell; its (dev gaze MSE, dev labeled-token count).

    A dev partition without gaze records gives a zero count.
    """
    setup, _ = train_cell(config, data, set_id, fold, log)
    (attribute,) = config.gaze_attributes
    breakdown = evaluate_breakdown(setup.model, setup.dev_examples,
                                   setup.model.config.gaze_loss_weights)
    return (breakdown.gaze_mse.get(attribute, 0.0),
            breakdown.gaze_token_counts.get(attribute, 0))


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
    if not config.uses_gaze:
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
        if set(result_a.squared_errors) != set(result_b.squared_errors):
            raise ValueError(
                f"set {key[0]} fold {key[1]}: test essays differ between reports; "
                "runs must share fold files")
        set_id = key[0]
        bucket = per_set.setdefault(set_id, ([], []))
        for essay_id in sorted(result_a.squared_errors):
            bucket[0].append(result_a.squared_errors[essay_id])
            bucket[1].append(result_b.squared_errors[essay_id])
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


def report_rows(report):
    """Machine-readable rows (dicts) for delimited output."""
    rows = []
    for result in report.fold_results:
        rows.append({
            "system": report.system,
            "set_id": result.set_id,
            "fold_id": result.fold_id,
            "test_qwk": repr(result.test_qwk),
            "best_dev_qwk": repr(result.best_dev_qwk),
            "best_epoch": result.best_epoch,
            "n_train": result.n_train,
            "n_augmented": result.n_augmented,
        })
    return rows


def write_report_csv(path, report):
    rows = report_rows(report)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
