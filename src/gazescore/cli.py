"""Command-line pipeline: preprocess, bin-gaze, train, run, ablate, gridsearch, report.

``main`` runs the steps every command shares, driven by the ``COMMANDS``
table (handler, help, required and optional input keys): it resolves the
options from a flat key-value config file plus command-line overrides
(overrides win) and the seed, resolves and checks every input, and writes
a manifest into the output directory before any other file. The manifest
records the command, the resolved options, the seed, sha256 digests of
every input file, and the package version, so a finished directory is
self-describing. Reruns into a directory that already holds a manifest are
refused unless --force is given. With --dry-run it stops there; otherwise
it calls the handler with (options, seed, paths, out_dir, jobs).

Every command given gaze records keeps the readers ``reader_filter`` selects
as they load (``load_selected_records``), so a run's cells see only those.

Each file written and read back is declared once: ``report.csv`` by
``FoldResult``'s scalar fields, ``predictions.csv`` by ``Prediction``'s
fields, a corpus cache by ``Essay``'s fields. ``_write_csv`` writes every
CSV file. The results the files hold are assembled in ``experiments``.

train, run, ablate and gridsearch run their cells in --jobs worker
processes, by default one per usable CPU. At any --jobs they run every
cell, list each failed cell in failures.txt and on stderr, and exit 1 if
any failed. run reports the cells that finished; the others write results
only when every cell succeeded. Each cell prints its label and then its
epoch lines, in cell order, so stdout and stderr are the same at any --jobs.
"""

import argparse
import csv
import hashlib
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import fields, replace
from itertools import repeat
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from . import __version__
from .checkpoint import save_checkpoint
from .corpus import (
    Essay,
    EssaySet,
    build_vocab,
    load_essays,
    load_set_metadata,
    open_text,
    parse_embedding_file,
)
from .experiments import (
    DEFAULT_GAZE_WEIGHTS,
    GAZE_WEIGHT_GRID,
    ExperimentConfig,
    ExperimentData,
    ExperimentReport,
    FoldResult,
    LeakageError,
    Prediction,
    ablation_cells,
    ablation_report,
    assemble_report,
    compare,
    execute_cells,
    fold_cells,
    format_report,
    grid_cells,
    grid_fold,
    grid_report,
    load_folds,
    make_folds,
    run_fold,
    save_folds,
    train_cell,
)
from .gaze import (
    GAZE_ATTRIBUTES,
    GAZE_CSV_COLUMNS,
    BinnedGaze,
    GazeTable,
    bin_all,
    collector_paused,
    csv_rows,
    filter_readers,
    load_gaze_records,
    load_reader_metadata,
    reader_stats,
)
from .model import ModelConfig
from .training import TrainConfig, format_epoch_line

DATA_DIR_ENV = "GAZESCORE_DATA"

MANIFEST_NAME = "manifest.json"

CORPUS_CACHE_FORMAT = "gazescore-corpus 1"

# the Essay fields a corpus cache keeps, all but the gaze that binning
# attaches, and the types each must load as
CACHED_ESSAY_FIELDS = {name: hint for name, hint in get_type_hints(Essay).items()
                       if name != "gaze"}

# a corpus cache's set entry: each key, the EssaySet field it holds, and its type
CACHED_SET_FIELDS = {key: (name, get_type_hints(EssaySet)[name]) for key, name in
                     (("score_min", "score_min"), ("score_max", "score_max"),
                      ("article", "source_article"))}

# report.csv: the run's system, then how each of FoldResult's scalar fields parses
_REPORT_PARSERS = {name: parse for name, parse in get_type_hints(FoldResult).items()
                   if parse is not dict}
REPORT_COLUMNS = ("system", *_REPORT_PARSERS)

# predictions.csv: one row per test essay, how its ids and then each of Prediction's fields parse
_PREDICTION_PARSERS = {**dict.fromkeys(("set_id", "fold_id", "essay_id"), int),
                       **get_type_hints(Prediction)}
PREDICTION_COLUMNS = tuple(_PREDICTION_PARSERS)

# input keys naming directories, which their commands check themselves
DIRECTORY_KEYS = ("folds_dir", "run_a", "run_b")

# optional input keys of train, run, ablate and gridsearch
EXPERIMENT_INPUTS = ("records_clean", "embeddings_cache", "reader_metadata", "folds_dir")


def _numeric_options(config_cls):
    """Option key -> int or float, one per numeric field of ``config_cls``.

    vocab_size and seed are options of their own, resolved apart.
    """
    return {f.name: type(f.default) for f in fields(config_cls)
            if type(f.default) in (int, float) and f.name not in ("vocab_size", "seed")}


MODEL_KEYS = _numeric_options(ModelConfig)

TRAIN_KEYS = _numeric_options(TrainConfig)

# how option-type errors name each type
TYPE_NAMES = {int: "an integer", float: "a number"}


class CliError(Exception):
    """Expected failure reported to stderr with a nonzero exit."""


# ------------------------------------------------------------ options

def parse_config_file(path):
    """Flat ``key = value`` lines; # comments and blank lines ignored."""
    options = {}
    with open_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise CliError(f"{path}:{line_no}: expected key = value")
            key, _, value = stripped.partition("=")
            key = key.strip()
            if not key:
                raise CliError(f"{path}:{line_no}: empty key")
            options[key] = value.strip()
    return options


def resolve_options(args):
    """Config file options overlaid with --set pairs; overrides win. Every key
    must be in ``OPTION_KEYS``, so one config file can serve every command."""
    options = {}
    if args.config:
        options.update(parse_config_file(args.config))
    overrides = {}
    for pair in args.set or []:
        key, _, value = pair.partition("=")
        if "=" not in pair or not key.strip():
            raise CliError(f"--set expects key=value, got {pair!r}")
        overrides[key.strip()] = value.strip()
    options.update(overrides)
    for key in options:
        if key not in OPTION_KEYS:
            raise CliError(f"unknown option {key!r}")
    return options, overrides


def resolve_seed(args, options):
    return args.seed if args.seed is not None else opt(options, "seed", int, 0)


def resolve_path(value):
    """Relative paths resolve under $GAZESCORE_DATA when it is set."""
    path = Path(value)
    data_dir = os.environ.get(DATA_DIR_ENV)
    if data_dir and not path.is_absolute():
        return Path(data_dir) / path
    return path


def opt_path(options, key, required=False):
    value = options.get(key)
    if value is None or value == "":
        if required:
            raise CliError(f"missing required option {key!r}")
        return None
    return resolve_path(value)


def _cast(key, value, cast):
    try:
        return cast(value)
    except ValueError:
        raise CliError(f"option {key!r} must be {TYPE_NAMES[cast]}, got {value!r}")


def opt(options, key, cast, default=None):
    """Option ``key`` cast to int or float; ``default`` when it is not given."""
    value = options.get(key)
    return default if value is None else _cast(key, value, cast)


def opt_list(options, key, default=(), cast=str):
    """Comma-separated option ``key``, each field cast; ``default`` when unset or empty."""
    value = options.get(key)
    if value is None or value == "":
        return tuple(default)
    return tuple(_cast(key, field.strip(), cast) for field in value.split(",") if field.strip())


def typed_params(options, table):
    return {key: opt(options, key, cast) for key, cast in table.items() if key in options}


def check_inputs(paths):
    """Each given input file must exist and, but for a gaze CSV, be non-empty."""
    for key, path in paths.items():
        if path is None or key in DIRECTORY_KEYS:
            continue
        if not path.is_file():
            raise CliError(f"cannot read input file: {path}")
        if key != "gaze_csv" and path.stat().st_size == 0:
            raise CliError(f"empty input file: {path}")


# ----------------------------------------------------------- manifest

def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return "sha256:" + digest.hexdigest()


def digest_inputs(paths):
    digests = {}
    for path in paths:
        if path is None:
            continue
        path = Path(path)
        if path.is_file():
            digests[str(path)] = sha256_file(path)
        elif path.is_dir():
            for child in sorted(path.iterdir()):
                if child.is_file():
                    digests[str(child)] = sha256_file(child)
    return digests


def start_run(args, options, overrides, seed, input_paths):
    """Create the output directory and write manifest + resolved config.

    The manifest always lands before any command output; a directory that
    already holds one is refused unless --force was given.
    """
    out_dir = Path(args.out)
    manifest_path = out_dir / MANIFEST_NAME
    if manifest_path.exists() and not args.force:
        raise CliError(
            f"output directory {out_dir} already contains a run "
            f"(found {MANIFEST_NAME}); pass --force to overwrite")
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": args.command,
        "config_file": str(args.config) if args.config else None,
        "resolved_options": {k: options[k] for k in sorted(options)},
        "overrides": {k: overrides[k] for k in sorted(overrides)},
        "seed": seed,
        "jobs": args.jobs,
        "dry_run": bool(args.dry_run),
        "input_digests": digest_inputs(input_paths),
        "out_dir": str(out_dir),
        "data_dir_env": os.environ.get(DATA_DIR_ENV),
        "version": __version__,
    }
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out_dir / "resolved.cfg", "w", encoding="utf-8") as fh:
        fh.write(f"seed = {seed}\n")
        for key in sorted(options):
            if key != "seed":
                fh.write(f"{key} = {options[key]}\n")
    return out_dir


# ------------------------------------------------------- corpus cache

@contextmanager
def _fields_of(path):
    """Report a KeyError raised in the block as ``path`` missing that field."""
    try:
        yield
    except KeyError as error:
        raise CliError(f"{path}: missing field {error.args[0]!r}") from None


def _json_load(path, fh, **options):
    """``json.load(fh, **options)`` of open file ``path``, which raises a file
    that is not UTF-8 or not JSON as an error naming it."""
    try:
        return json.load(fh, **options)
    except ValueError as error:
        raise CliError(f"{path}: not JSON ({error})") from None


def _json_object(path, value, what):
    """``value``, which ``what`` in the JSON file ``path`` names, if it is an object."""
    if not isinstance(value, dict):
        raise CliError(f"{path}: {what} is not a JSON object")
    return value


def _json_types(hint):
    """The types of the JSON values a scalar type or union such as ``str | None``
    admits: an int for a float, but never a bool for an int or float."""
    types = frozenset(get_args(hint) or (hint,))
    return types | {int} if float in types else types


def _is_json_of(value, hint):
    """Whether a JSON value is of type ``hint``, a list type or as ``_json_types``."""
    if get_origin(hint) is not list:
        return type(value) in _json_types(hint)
    (item,) = get_args(hint)
    if get_origin(item) is list:
        return type(value) is list and all(_is_json_of(v, item) for v in value)
    return type(value) is list and {*map(type, value)} <= _json_types(item)


def _typed(path, what, entry, key, hint):
    """``entry[key]``, which ``what`` in the JSON file ``path`` names, if it is of type ``hint``."""
    value = entry[key]
    if not _is_json_of(value, hint):
        expected = str(hint) if get_args(hint) else hint.__name__
        raise CliError(f"{path}: {what}: field {key!r} must be {expected}, "
                       f"not {type(value).__name__}")
    return value


def write_corpus_cache(path, essays, sets):
    payload = {
        "format": CORPUS_CACHE_FORMAT,
        "sets": {
            str(set_id): {key: getattr(essay_set, name)
                          for key, (name, _) in CACHED_SET_FIELDS.items()}
            for set_id, essay_set in sets.items()
        },
        "essays": [{name: getattr(essay, name) for name in CACHED_ESSAY_FIELDS}
                   for essay in essays],
    }
    with open(path, "w", encoding="utf-8") as fh:
        # json.dumps runs the C encoder, which json.dump never does; the bytes are the same
        fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        fh.write("\n")


def _interned_sentences(entry):
    """``json.load``'s object hook: an entry's ``sentences``, if a list of
    lists of str, with each token interned, so the parse keeps one str per
    distinct token and frees each essay's copies as the essay is decoded.
    Any other value stays as it is, for ``_typed`` to name."""
    sentences = entry.get("sentences")
    if type(sentences) is list and all(type(sentence) is list for sentence in sentences):
        try:
            entry["sentences"] = [list(map(sys.intern, sentence)) for sentence in sentences]
        except TypeError:  # a token that is not a str
            pass
    return entry


@collector_paused()
def load_corpus_cache(path):
    """(essays by id, sets by id) from a corpus cache, each field of the type
    it declares; equal tokens are one str."""
    with open(path, "r", encoding="utf-8") as fh, _fields_of(path):
        payload = _json_object(path, _json_load(path, fh, object_hook=_interned_sentences),
                               "the top level")
        if payload.get("format") != CORPUS_CACHE_FORMAT:
            raise CliError(f"{path}: not a corpus cache (format {payload.get('format')!r})")
        sets = {}
        for set_key, entry in _json_object(path, payload["sets"], "'sets'").items():
            try:
                set_id = int(set_key)
            except ValueError:
                raise CliError(f"{path}: set id {set_key!r} is not an integer") from None
            entry = _json_object(path, entry, f"set {set_key}")
            values = {name: _typed(path, f"set {set_key}", entry, key, hint)
                      for key, (name, hint) in CACHED_SET_FIELDS.items()}
            try:
                sets[set_id] = EssaySet(set_id=set_id, **values)
            except ValueError as error:  # an empty score range
                raise CliError(f"{path}: {error}") from None
        if not isinstance(payload["essays"], list):
            raise CliError(f"{path}: 'essays' is not a JSON array")
        essays = {}
        for n, entry in enumerate(payload["essays"]):
            what = f"essay entry {n}"
            entry = _json_object(path, entry, what)
            essay = Essay(**{name: _typed(path, what, entry, name, hint)
                             for name, hint in CACHED_ESSAY_FIELDS.items()})
            if essay.essay_id in essays:
                raise CliError(f"{path}: {what}: essay_id {essay.essay_id} repeats an "
                               "earlier entry")
            if essay.set_id not in sets:
                raise CliError(f"{path}: {what}: set_id {essay.set_id} has no entry in 'sets'")
            essays[essay.essay_id] = essay
    return essays, sets


# ----------------------------------------------------------- commands

def cmd_preprocess(options, seed, paths, out_dir, jobs):
    essays_path = paths["essays"]
    embeddings_path = paths["embeddings"]
    sets = load_set_metadata(paths["set_metadata"])
    essays, report = load_essays(essays_path, sets)
    if not essays:
        raise CliError(f"no essays loaded from {essays_path}")

    vocab = build_vocab(essays, max_size=opt(options, "vocab_size", int, 4000))
    coverage_line = "embedding coverage: not computed (no embeddings given)"
    if embeddings_path is not None:
        corpus_tokens = {t for e in essays for t in e.tokens}
        vectors, dimension = parse_embedding_file(
            embeddings_path, restrict_tokens=corpus_tokens)
        if not vectors:
            raise CliError(f"no embedding vector in {embeddings_path} is for a corpus token")
        with open(out_dir / "embeddings_cache.txt", "w", encoding="utf-8") as fh:
            for token in sorted(vectors):
                values = " ".join(f"{v:.17g}" for v in vectors[token])
                fh.write(f"{token} {values}\n")
        real = [t for t in vocab.token_to_index if vocab.token_to_index[t] >= 2]
        matched = sum(1 for t in real if t in vectors)
        coverage = matched / len(real) if real else 0.0
        coverage_line = (
            f"embedding coverage: {matched}/{len(real)} vocab tokens "
            f"({coverage:.4f}), dimension {dimension}")

    # written once the embeddings are accepted, so a rejected run leaves no cache
    write_corpus_cache(out_dir / "corpus_cache.json", essays, sets)
    index_to_token = sorted(vocab.token_to_index, key=vocab.token_to_index.get)
    with open(out_dir / "vocab.txt", "w", encoding="utf-8") as fh:
        for index, token in enumerate(index_to_token):
            fh.write(f"{index}\t{token}\n")

    lines = []
    for set_id in sorted(report.per_set_counts):
        lines.append(f"set {set_id}: {report.per_set_counts[set_id]} essays")
    lines.append(f"total essays: {len(essays)}")
    lines.append(f"rejected rows: {len(report.rejected)}")
    lines.append(f"vocabulary size: {len(vocab)}")
    lines.append(coverage_line)
    with open(out_dir / "preprocess_report.txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
        for line_no, reason in report.rejected:
            fh.write(f"rejected line {line_no}: {reason}\n")
    print("\n".join(lines))
    return 0


def _write_csv(path, header, rows):
    """A header line, then one line per row; a float is written as its repr."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_records_csv(path, records):
    _write_csv(path, GAZE_CSV_COLUMNS, records.rows())


def _binned_label_rows(sequences):
    """binned_labels.csv's rows from bin_all's {essay_id: EssayGaze}: essays by
    id, then each essay's labeled tokens, readers sorted, then positions."""
    for essay_id in sorted(sequences):
        gaze = sequences[essay_id]
        yield from zip(repeat(essay_id), gaze.reader_ids(), gaze.positions.tolist(),
                       *gaze.bins.T.tolist())


def load_selected_records(options, path, metadata_path):
    """Load gaze CSV ``path``: (the records of the readers that option
    ``reader_filter`` selects, the GazeLoadReport, the ids of every essay
    with a valid record, whichever its readers)."""
    native = load_reader_metadata(metadata_path) if metadata_path else frozenset()
    records, report = load_gaze_records(path)
    essay_ids = frozenset(records.essay_id.tolist())
    name = options.get("reader_filter", "all")
    if name == "native_only":
        if not native:
            raise ValueError("reader_filter native_only needs reader metadata "
                             "with at least one native reader")
        records = filter_readers(records, native)
    elif name != "all":  # any other value lists reader ids
        records = filter_readers(records, frozenset(opt_list(options, "reader_filter")))
    return records, report, essay_ids


def cmd_bin_gaze(options, seed, paths, out_dir, jobs):
    gaze_path = paths["gaze_csv"]
    essays, _ = load_corpus_cache(paths["corpus_cache"])
    records, report, _ = load_selected_records(options, gaze_path, paths["reader_metadata"])
    valid_rows = report.total_rows - len(report.rejected)
    if valid_rows and not records:
        raise CliError(f"reader_filter {options.get('reader_filter')!r} keeps no reader of the "
                       f"{valid_rows} valid gaze rows in {gaze_path}")

    stats = reader_stats(records, essays)
    sequences, diagnostics = bin_all(records, stats, essays)
    placed = len(records) - len(diagnostics)

    _write_records_csv(out_dir / "records_clean.csv", records)
    _write_csv(out_dir / "binned_labels.csv", ("essay_id", "reader_id", "ia_index",
                                               *BinnedGaze._fields),
               _binned_label_rows(sequences))
    with open(out_dir / "reader_stats.txt", "w", encoding="utf-8") as fh:
        fh.write("reader_id dt_mean dt_std ffd_mean ffd_std n_records\n")
        for reader_id in sorted(stats):
            s = stats[reader_id]
            fh.write(f"{reader_id} {s.dt_mean:.17g} {s.dt_std:.17g} "
                     f"{s.ffd_mean:.17g} {s.ffd_std:.17g} {s.n_records}\n")
    with open(out_dir / "alignment_errors.log", "w", encoding="utf-8") as fh:
        for line_no, reason in report.rejected:
            fh.write(f"line {line_no}: {reason}\n")
        for reason in diagnostics:
            fh.write(f"{reason}\n")

    summary = (f"rows: {report.total_rows}, kept records: {len(records)}, "
               f"binned tokens: {placed}, readers: {len(stats)}")
    print(summary)
    if report.total_rows == 0:
        print(f"warning: no gaze rows in {gaze_path}", file=sys.stderr)
        return 0
    if placed == 0:  # every row was rejected, or kept by the reader filter and not placed
        print(f"error: all {len(report.rejected) + len(records)} gaze rows failed; see "
              f"{out_dir / 'alignment_errors.log'}", file=sys.stderr)
        return 1
    return 0


def _run_cells(options, seed, paths, out_dir, jobs, task, cells_of=fold_cells):
    """Build the cells of train/run/ablate/gridsearch and run ``task`` on each.

    Returns (config, cells, results, failures) as ``execute_cells`` gives
    them. Generated folds are written only once ``cells_of`` has built and
    checked the cells.
    """
    records_path = paths["records_clean"]
    embeddings_path = paths["embeddings_cache"]
    folds_dir = paths["folds_dir"]
    essays, sets = load_corpus_cache(paths["corpus_cache"])

    records, gaze_essays = GazeTable.from_records(), frozenset()
    if records_path is not None:
        records, _, gaze_essays = load_selected_records(options, records_path,
                                                        paths["reader_metadata"])

    vectors = None
    if embeddings_path is not None:
        vectors, _ = parse_embedding_file(embeddings_path)
        if not vectors:
            raise CliError(f"no embedding vectors found in {embeddings_path}")

    system = options.get("system")
    if not system:
        raise CliError("missing required option 'system'")
    target_sets = opt_list(options, "target_sets", cast=int)
    if not target_sets and "set" in options:
        target_sets = (opt(options, "set", int),)
    if not target_sets:
        raise CliError("missing required option 'target_sets'")

    folds = {}
    for set_id in (s for s in target_sets if s in sets):  # validate_run names unknown sets
        if folds_dir is not None:
            fold_file = Path(folds_dir) / f"set_{set_id}.txt"
            if not fold_file.is_file():
                raise CliError(f"cannot read fold file: {fold_file}")
            folds[set_id] = load_folds(fold_file)
        else:
            set_ids = sorted(e.essay_id for e in essays.values() if e.set_id == set_id)
            folds[set_id] = make_folds(set_ids, seed=seed)

    gaze_ids = frozenset(opt_list(options, "gaze_essay_ids", cast=int))
    if not gaze_ids:  # the default pool: every gaze essay the corpus holds
        gaze_ids = gaze_essays.intersection(essays)
        if gaze_ids != gaze_essays:
            print(f"warning: gaze pool leaves out essays missing from the corpus "
                  f"{sorted(gaze_essays - gaze_ids)}", file=sys.stderr)

    data = ExperimentData(
        essays=essays,
        sets=sets,
        folds=folds,
        gaze_essay_ids=gaze_ids,
        gaze_records=records,
        embedding_vectors=vectors,
    )

    attributes = opt_list(options, "gaze_attributes", GAZE_ATTRIBUTES)
    weights = {}
    for attribute in attributes:
        weights[attribute] = opt(
            options, f"gaze_weight_{attribute}", float, DEFAULT_GAZE_WEIGHTS.get(attribute, 0.0))
    config = ExperimentConfig(
        system=system,
        target_sets=target_sets,
        seed=seed,
        gaze_attributes=attributes,
        gaze_loss_weights=weights,
        vocab_size=opt(options, "vocab_size", int, 4000),
        model_params=typed_params(options, MODEL_KEYS),
        train_params=typed_params(options, TRAIN_KEYS),
    )
    cells = cells_of(config, data)
    if folds_dir is None:
        fold_out = out_dir / "folds"
        fold_out.mkdir(exist_ok=True)
        for set_id, fold_list in folds.items():
            save_folds(fold_out / f"set_{set_id}.txt", fold_list)
    # the checks have seen the whole corpus; the cells read only their folds'
    # essays and the pool's, so the workers get those and the rest is freed
    read = gaze_ids.union(*(fold.all_ids for fold_list in folds.values() for fold in fold_list))
    data = replace(data, essays={i: essay for i, essay in essays.items() if i in read})
    del essays
    results, failures = execute_cells(task, data, cells, jobs, log=print)
    return config, cells, results, failures


def _publish(path, text):
    """Write ``text`` to ``path``, then echo it to stdout."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(text, end="")


def _write_report_files(out_dir, report, prefix=""):
    with open(out_dir / f"{prefix}report.txt", "w", encoding="utf-8") as fh:
        fh.write(format_report(report))
    _write_csv(out_dir / f"{prefix}report.csv", REPORT_COLUMNS,
               ([report.system, *(getattr(result, name) for name in _REPORT_PARSERS)]
                for result in report.fold_results))
    _write_csv(out_dir / f"{prefix}predictions.csv", PREDICTION_COLUMNS,
               ([result.set_id, result.fold_id, essay_id, *result.test_predictions[essay_id]]
                for result in report.fold_results
                for essay_id in sorted(result.test_predictions)))


def _report_failures(out_dir, failures):
    """List failed cells in failures.txt and on stderr; the exit status."""
    if not failures:
        return 0
    lines = [f"{cell.label}: {type(error).__name__}: {error}" for cell, error in failures]
    with open(out_dir / "failures.txt", "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in lines)
    for line in lines:
        print(f"failed: {line}", file=sys.stderr)
    return 1


def cmd_run(options, seed, paths, out_dir, jobs):
    config, _, results, failures = _run_cells(options, seed, paths, out_dir, jobs, run_fold)
    if results:
        report = assemble_report(config, results)
        _write_report_files(out_dir, report)
        print(format_report(report), end="")
    return _report_failures(out_dir, failures)


def cmd_train(options, seed, paths, out_dir, jobs):
    # the one command with a default system
    options = dict(options, system=options.get("system") or "self_attention")
    fold_id = opt(options, "fold", int, 0)

    def pick_fold(config, data):
        if len(config.target_sets) != 1:
            raise CliError("train works on a single set; give set=<id>")
        (set_id,) = config.target_sets
        folds = data.folds.get(set_id, [])
        chosen = [fold for fold in folds if fold.fold_id == fold_id]
        # checks what run checks, on the one fold it trains
        cells = fold_cells(config, replace(data, folds={set_id: chosen}) if chosen else data)
        if not chosen:
            raise CliError(f"fold {fold_id} out of range; set {set_id} "
                           f"has fold ids {[fold.fold_id for fold in folds]}")
        return cells

    *_, results, failures = _run_cells(options, seed, paths, out_dir, jobs, train_cell, pick_fold)
    if failures:
        return _report_failures(out_dir, failures)
    ((_, result),) = results
    save_checkpoint(out_dir / "checkpoint_best.txt", result.best_state)
    save_checkpoint(out_dir / "checkpoint_final.txt", result.final_state)
    with open(out_dir / "history.log", "w", encoding="utf-8") as fh:
        fh.writelines(format_epoch_line(stats) + "\n" for stats in result.history)
    summary = (f"best_epoch={result.best_epoch} "
               f"best_dev_qwk={result.best_dev_qwk:.6g} "
               f"epochs={len(result.history)}")
    _publish(out_dir / "train_summary.txt", summary + "\n")
    return 0


def cmd_ablate(options, seed, paths, out_dir, jobs):
    attribute = options.get("attribute")

    def cells_of(config, data):
        if not attribute:
            raise CliError("missing required option 'attribute'")
        return ablation_cells(config, data, attribute)

    _, cells, results, failures = _run_cells(options, seed, paths, out_dir, jobs, run_fold,
                                             cells_of)
    if failures:
        return _report_failures(out_dir, failures)
    result = ablation_report(attribute, cells, results)
    _write_report_files(out_dir, result.full, prefix="full_")
    _write_report_files(out_dir, result.ablated, prefix="ablated_")
    lines = [f"ablated attribute: {attribute}"]
    for set_id, delta in sorted(result.delta_per_set().items()):
        lines.append(f"set {set_id} delta qwk: {delta:.6g}")
    lines.append(f"grand delta qwk: {result.delta_grand():.6g}")
    lines.append(f"full grand mean qwk: {result.full.grand_mean_qwk():.6g}")
    lines.append(f"ablated grand mean qwk: {result.ablated.grand_mean_qwk():.6g}")
    _publish(out_dir / "ablation.txt", "\n".join(lines) + "\n")
    return 0


def cmd_gridsearch(options, seed, paths, out_dir, jobs):
    grid = opt_list(options, "grid", GAZE_WEIGHT_GRID, cast=float)
    _, cells, results, failures = _run_cells(
        options, seed, paths, out_dir, jobs, grid_fold,
        lambda config, data: grid_cells(config, data, config.gaze_attributes, grid))
    if failures:
        return _report_failures(out_dir, failures)
    best, table = grid_report(cells, results)

    lines = []
    for attribute, means in table.items():
        for weight, mean in means.items():
            marker = " *" if weight == best[attribute] else ""
            lines.append(f"{attribute} weight={weight:g} dev_gaze_mse={mean:.6g}{marker}")
        lines.append(f"best {attribute}: {best[attribute]:g}")
    _publish(out_dir / "gridsearch.txt", "\n".join(lines) + "\n")
    _write_csv(out_dir / "gridsearch.csv", ("attribute", "weight", "dev_gaze_mse", "best"),
               ([attribute, weight, mean, int(weight == best[attribute])]
                for attribute, means in table.items() for weight, mean in means.items()))
    return 0


def load_run_directory(run_dir):
    """Rebuild an ExperimentReport from a run directory's csv files and manifest."""
    run_dir = Path(run_dir)
    report_path = run_dir / "report.csv"
    predictions_path = run_dir / "predictions.csv"
    manifest_path = run_dir / MANIFEST_NAME
    for path in (report_path, predictions_path, manifest_path):
        if not path.is_file():
            raise CliError(f"cannot read run file: {path}")
    with open(manifest_path, encoding="utf-8") as fh, _fields_of(manifest_path):
        seed = _json_object(manifest_path, _json_load(manifest_path, fh), "the top level")["seed"]
    predictions = {}
    with csv_rows(predictions_path, csv.DictReader) as rows, _fields_of(predictions_path):
        for row in rows:
            set_id, fold_id, essay_id, *outcome = _parsed_cells(
                predictions_path, rows, row, _PREDICTION_PARSERS).values()
            predictions.setdefault((set_id, fold_id), {})[essay_id] = Prediction(*outcome)
    results = []
    system = None
    with csv_rows(report_path, csv.DictReader) as rows, _fields_of(report_path):
        for row in rows:
            scalars = _parsed_cells(report_path, rows, row, {"system": str, **_REPORT_PARSERS})
            system = scalars.pop("system")
            key = (scalars["set_id"], scalars["fold_id"])
            results.append(FoldResult(**scalars, test_predictions=predictions.get(key, {})))
    if not results:
        raise CliError(f"no fold results in {report_path}")
    return ExperimentReport(system=system, seed=seed,
                            fold_results=tuple(sorted(results, key=lambda r: (r.set_id, r.fold_id))))


def _parsed_cells(path, rows, row, parsers):
    """{column: parse(cell)} of each (column, parse) of ``parsers``, from the
    row ``row`` of CSV file ``path`` that DictReader ``rows`` just read."""
    cells = {}
    for column, parse in parsers.items():
        if row[column] is None:  # the row ends before the column
            raise CliError(f"{path}: line {rows.line_num} has no {column} cell")
        try:
            cells[column] = parse(row[column])
        except ValueError as error:
            raise CliError(f"{path}: line {rows.line_num}: {error}") from None
    return cells


def cmd_report(options, seed, paths, out_dir, jobs):
    run_b = paths["run_b"]
    report_a = load_run_directory(paths["run_a"])
    if run_b is None:
        _publish(out_dir / "rendered_report.txt", format_report(report_a))
        return 0
    report_b = load_run_directory(run_b)
    comparison = compare(report_a, report_b)
    lines = [
        f"comparing {comparison.system_a} vs {comparison.system_b}",
        f"pairing: {comparison.pairing}",
        f"overall: t={comparison.overall.t_statistic:.6g} "
        f"p={comparison.overall.p_value:.6g} n={comparison.overall.n_pairs}",
        f"significant at 0.05: {'yes' if comparison.significant else 'no'}",
    ]
    for set_id, result in sorted(comparison.per_set.items()):
        if result is None:
            lines.append(f"set {set_id}: not testable (zero variance)")
        else:
            lines.append(f"set {set_id}: t={result.t_statistic:.6g} "
                         f"p={result.p_value:.6g} n={result.n_pairs}")
    _publish(out_dir / "comparison.txt", "\n".join(lines) + "\n")
    return 0


# --------------------------------------------------------------- main

# name -> (handler, help, required input keys, optional input keys); input
# keys are config keys naming paths, resolved against $GAZESCORE_DATA when
# relative
COMMANDS = {
    "preprocess": (cmd_preprocess, "Tokenize essays into a corpus cache",
                   ("essays", "set_metadata"), ("embeddings",)),
    "bin-gaze": (cmd_bin_gaze, "Validate and bin raw gaze records",
                 ("gaze_csv", "corpus_cache"), ("reader_metadata",)),
    "train": (cmd_train, "Train one fold and save checkpoints",
              ("corpus_cache",), EXPERIMENT_INPUTS),
    "run": (cmd_run, "Run a full cross-validated experiment",
            ("corpus_cache",), EXPERIMENT_INPUTS),
    "ablate": (cmd_ablate, "Measure one gaze attribute's contribution",
               ("corpus_cache",), EXPERIMENT_INPUTS),
    "gridsearch": (cmd_gridsearch, "Select gaze loss weights on dev data",
                   ("corpus_cache",), EXPERIMENT_INPUTS),
    "report": (cmd_report, "Render a saved run or compare two runs", ("run_a",), ("run_b",)),
}

# every key a config file or --set may give: an input key of some command, or
# an option some command reads
OPTION_KEYS = frozenset({
    *(key for _, _, required, optional in COMMANDS.values() for key in required + optional),
    "seed", "vocab_size", "system", "target_sets", "set", "fold", "attribute", "grid",
    "reader_filter", "gaze_essay_ids", "gaze_attributes",
    *(f"gaze_weight_{attribute}" for attribute in GAZE_ATTRIBUTES), *MODEL_KEYS, *TRAIN_KEYS})


def usable_cpus():
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def build_parser():
    cpus = usable_cpus()
    parser = argparse.ArgumentParser(
        prog="gazescore",
        description="Essay grading pipeline with auxiliary gaze-behaviour losses.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _, _) in COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--config", default=None, help="flat key=value config file")
        sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                         help="override a config option (repeatable)")
        sub.add_argument("--seed", type=int, default=None,
                         help="master seed (overrides config)")
        sub.add_argument("--out", required=True, help="output directory")
        sub.add_argument("--jobs", type=int, default=cpus,
                         help="worker processes for train, run, ablate and gridsearch "
                              f"cells (default: the {cpus} usable CPUs)")
        sub.add_argument("--dry-run", action="store_true",
                         help="write manifest and resolved config, do no work")
        sub.add_argument("--force", action="store_true",
                         help="allow rerunning into an existing output directory")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    handler, _, required, optional = COMMANDS[args.command]
    try:
        options, overrides = resolve_options(args)
        seed = resolve_seed(args, options)
        paths = {key: opt_path(options, key, required=key in required)
                 for key in required + optional}
        check_inputs(paths)
        out_dir = start_run(args, options, overrides, seed, paths.values())
        if args.dry_run:
            return 0
        return handler(options, seed, paths, out_dir, args.jobs)
    except (CliError, LeakageError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
