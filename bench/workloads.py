"""The three workloads: closed loops over gazescore's public entry points.

Each workload is one caller in one process; every call starts after the
previous one returns. The amount of work is fixed by ``seconds`` (the
constants below size it to about that many seconds on a 2-core machine at
the commit that introduced the benchmark), so a faster program finishes
sooner but always does the same work for a given seed and ``seconds``.
Every operation's output is checked; a failed check counts the operation
as failed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs

SETUP_REPEATS = 3
BATCH_SIZE = 100
CHECKPOINT_SCORED_ESSAYS = 10
PAPER_MODEL = dict(embedding_dim=50, conv_kernel=5, conv_filters=100, lstm_hidden=100,
                   modeling_hidden=100, dropout=0.5)
CV_MODEL = dict(embedding_dim=16, conv_kernel=3, conv_filters=16, lstm_hidden=16,
                modeling_hidden=16, dropout=0.5)
CV_TRAIN = dict(epochs=1, batch_size=33)
CV_FOLDS = 5
# epochs and rounds (``group`` eval passes, then one preprocessing repeat)
# per second of the --seconds budget
TRAIN_WORK = {
    "train_self_attn": dict(architecture="self_attention", epochs=7 / 30, rounds=6 / 30,
                            group=4),
    "train_coattn": dict(architecture="co_attention", epochs=3 / 30, rounds=6 / 30, group=2),
}
CV_PIPELINES_PER_S = 1 / 30   # full preprocess, bin-gaze, run pipelines
CV_EVAL_PASSES = 4         # at each of three points per pipeline


class Ledger:
    """Operations attempted and failed, with a reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, operation, problem=None, count=1):
        self.attempted += count
        if problem is not None:
            self.failed += 1
            self.reasons.append(f"{operation}: {problem}")
        return problem is None


def _median(values):
    return statistics.median(values) if values else math.nan


def _mean(values):
    return statistics.fmean(values) if values else math.nan


def _throughput(rates):
    """Items per second over passes of equal size: total items over total time."""
    return statistics.harmonic_mean(rates) if rates else math.nan


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_seconds(src_dir):
    """Seconds a fresh interpreter spends importing the package."""
    code = ("import time; t = time.perf_counter(); "
            "import gazescore.cli, gazescore.training, gazescore.model; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _work(rate, seconds, minimum=2):
    return max(minimum, int(round(rate * seconds)))


def eval_passes(model, examples, sets, passes, ledger, first=None):
    """(essays per second of each eval-mode dev_qwk pass, first QWK seen).

    Every pass must return a QWK in [-1, 1] equal to ``first``, the value of
    an identical earlier call, when one is given.
    """
    from gazescore import training

    rates = []
    for _ in range(passes):
        start = perf_counter()
        try:
            value = training.dev_qwk(model, examples, sets)
        except Exception as error:  # the benchmark must report, not crash
            ledger.record("dev_qwk", f"{type(error).__name__}: {error}")
            continue
        rates.append(len(examples) / (perf_counter() - start))
        problem = None
        if not (math.isfinite(value) and -1.0 <= value <= 1.0):
            problem = f"qwk {value} outside [-1, 1]"
        elif first is not None and value != first:
            problem = f"qwk {value} differs from identical call {first}"
        first = value if first is None else first
        ledger.record("dev_qwk", problem)
    return rates, first


# ------------------------------------------------------------------ train_*

def _build_model(architecture, vocab, train_inputs, seed):
    from gazescore.experiments import DEFAULT_GAZE_WEIGHTS
    from gazescore.gaze import GAZE_ATTRIBUTES
    from gazescore.model import EssayScorer, ModelConfig

    config = ModelConfig(
        architecture=architecture, vocab_size=len(vocab),
        gaze_attributes=tuple(GAZE_ATTRIBUTES),
        gaze_loss_weights=dict(DEFAULT_GAZE_WEIGHTS), **PAPER_MODEL)
    article = None
    if architecture == "co_attention":
        article = [vocab.encode(sentence) for sentence in train_inputs.article_sentences]
    return EssayScorer(config, np.random.default_rng(seed), article_sentence_ids=article)


def _loss_problem(line):
    """Non-finite loss fields in one epoch line, or None."""
    for field in line.split():
        key, _, value = field.partition("=")
        if "mse" in key:
            try:
                if not math.isfinite(float(value)):
                    return f"{key}={value}"
            except ValueError:
                return f"unreadable {field!r}"
    return None


def _same_arrays(a, b):
    """Same names in the same order, each array equal in dtype, shape and bits."""
    def exact(array):
        array = np.asarray(array)
        return array.dtype, array.shape, array.tobytes()

    return list(a) == list(b) and all(exact(a[k]) == exact(b[k]) for k in a)


def train_workload(name, seed, seconds, work_dir, src_dir):
    from gazescore import corpus, training

    spec = TRAIN_WORK[name]
    ledger = Ledger()
    data = inputs.make_train_inputs(seed)
    sets = {data.essay_set.set_id: data.essay_set}

    def prepare():
        vocab = corpus.build_vocab(data.train_essays, max_size=inputs.VOCAB_SIZE)
        return (vocab, [training.prepare_example(e, vocab) for e in data.train_essays],
                [training.prepare_example(e, vocab) for e in data.eval_essays])

    setup, prep = [], []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds(src_dir)
        start = perf_counter()
        vocab, train_examples, eval_examples = prepare()
        prepared = perf_counter()
        model = _build_model(spec["architecture"], vocab, data, seed)
        setup.append(imported + perf_counter() - start)
        prep.append(prepared - start)

    # The host's speed drifts within seconds, so eval passes alternate with
    # preprocessing repeats in two blocks, one before and one after training:
    # the samples then cover the whole run. A forward costs the same whatever
    # the parameter values, so passes before training count alike. A pass
    # lasts well under a second, so the two blocks get about a third of the
    # run: fewer passes left the metric at the mercy of a few seconds' speed.
    rates = []

    def eval_and_prepare(rounds):
        # the first pass of a block is warm-up
        first = eval_passes(model, eval_examples, sets, 1, ledger)[1]
        for _ in range(rounds):
            passed, first = eval_passes(model, eval_examples, sets, spec["group"], ledger,
                                        first)
            rates.extend(passed)
            started = perf_counter()
            prepare()
            prep.append(perf_counter() - started)

    rounds = _work(spec["rounds"], seconds)
    eval_and_prepare(rounds // 2)

    epochs = _work(spec["epochs"], seconds)
    batches = math.ceil(len(train_examples) / BATCH_SIZE)
    marks = []

    def at_epoch_end(line):
        marks.append(perf_counter())
        ledger.record("train step", _loss_problem(line), count=batches)

    config = training.TrainConfig(batch_size=BATCH_SIZE, epochs=epochs, seed=seed)
    start = perf_counter()
    try:
        training.train(model, train_examples, [], config, sets, log=at_epoch_end)
    except Exception as error:  # the benchmark must report, not crash
        ledger.record("train step", f"{type(error).__name__}: {error}")
    else:
        if len(marks) != epochs:
            ledger.record("train", f"log marked {len(marks)} of {epochs} epochs")
    run_s = perf_counter() - start
    # the first epoch, which includes train's initial eval pass, is warm-up
    steps = [(b - a) / batches for a, b in zip(marks, marks[1:])]

    eval_and_prepare(rounds - rounds // 2)

    ledger.record("checkpoint round trip",
                  _checkpoint_problem(model, spec["architecture"], vocab, data, seed,
                                      eval_examples, work_dir))

    metrics = {
        "setup_s": _median(setup),
        "train_step_s": _median(steps),
        "eval_essays_per_s": _throughput(rates),
        "preprocess_s": _mean(prep),
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    samples = {"setup_s": setup, "train_step_s": steps, "eval_essays_per_s": rates,
               "preprocess_s": prep}
    return metrics, samples, ledger


def _checkpoint_problem(model, architecture, vocab, data, seed, examples, work_dir):
    from gazescore import checkpoint

    path = Path(work_dir) / "checkpoint.txt"
    state = model.state_dict()
    try:
        checkpoint.save_checkpoint(path, state)
        loaded = checkpoint.load_checkpoint(path)
    except Exception as error:
        return f"{type(error).__name__}: {error}"
    if not _same_arrays(state, loaded):
        return "reloaded arrays are not bit-identical"
    reloaded = _build_model(architecture, vocab, data, seed + 1)
    reloaded.load_state_dict(loaded)
    for example in examples[:CHECKPOINT_SCORED_ESSAYS]:
        before = model.forward(example.sentence_ids).score_value
        after = reloaded.forward(example.sentence_ids).score_value
        if before != after:
            return f"essay {example.essay_id} scores {after!r} after reload, {before!r} before"
    return None


# ------------------------------------------------------------------ cv_run

def _cli(argv):
    """(exit code, last stderr line) of one in-process gazescore command."""
    from gazescore import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, (err.getvalue().strip().splitlines() or [""])[-1]


def _command(argv, ledger, check=None):
    """Run one command as one operation; its wall seconds, or None if it failed.

    ``check`` returns why the command's outputs are wrong, or None.
    """
    start, elapsed = perf_counter(), None
    try:
        code, message = _cli(argv)
        elapsed = perf_counter() - start
        problem = f"exit {code}: {message}" if code != 0 else (check and check())
    except Exception as error:  # the benchmark must report, not crash
        problem = f"{type(error).__name__}: {error}"
    return elapsed if ledger.record(argv[0], problem) else None


def _run_problem(run_dir, files):
    """Why a finished `run` directory is wrong, or None."""
    if (run_dir / "failures.txt").exists():
        return "failures.txt written: " + (run_dir / "failures.txt").read_text()[:200]
    with open(run_dir / "report.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != CV_FOLDS or not all(math.isfinite(float(r["test_qwk"])) for r in rows):
        return f"report.csv has {len(rows)} rows, expected {CV_FOLDS} with finite QWK"
    expected = set()
    with open(run_dir / "folds" / f"set_{inputs.CV_TARGET_SET}.txt", encoding="utf-8") as fh:
        for line in fh:
            fold, role, essay = line.strip().split(",")
            if role == "test":
                expected.add((int(fold), int(essay)))
    with open(run_dir / "predictions.csv", newline="", encoding="utf-8") as fh:
        predicted = [(int(r["fold_id"]), int(r["essay_id"])) for r in csv.DictReader(fh)]
    essays = [essay for _, essay in predicted]
    if (len(predicted) != len(set(predicted)) or set(predicted) != expected
            or sorted(essays) != sorted(files.target_ids)):
        return "predictions.csv does not cover each test essay exactly once"
    return None


def _trained_essays(run_dir):
    with open(run_dir / "report.csv", newline="", encoding="utf-8") as fh:
        return sum(int(r["n_train"]) for r in csv.DictReader(fh)) * CV_TRAIN["epochs"]


def _preprocess(files, out_dir, seed, ledger):
    """Wall seconds of `preprocess` then `bin-gaze` into out_dir, or None."""
    cache = out_dir / "prep" / "corpus_cache.json"
    prep_s = _command(["preprocess", "--out", str(out_dir / "prep"), "--seed", str(seed),
                       "--set", f"essays={files.essays}",
                       "--set", f"set_metadata={files.set_metadata}",
                       "--set", f"vocab_size={inputs.VOCAB_SIZE}"], ledger)
    bin_s = prep_s and _command(["bin-gaze", "--out", str(out_dir / "gaze"), "--seed", str(seed),
                                 "--set", f"gaze_csv={files.gaze_csv}",
                                 "--set", f"corpus_cache={cache}",
                                 "--set", f"reader_metadata={files.reader_metadata}"], ledger)
    return prep_s + bin_s if bin_s else None


def _evaluator(cache, seed, ledger):
    """Eval-mode dev_qwk passes over the variable-length corpus, dims-16 model.

    dev_qwk takes one essay set at a time, so a pass scores the target set
    and then the pool; its rate counts the essays of both.
    """
    from gazescore import cli, corpus, training
    from gazescore.model import EssayScorer, ModelConfig

    essays, sets = cli.load_corpus_cache(cache)
    vocab = corpus.build_vocab(essays.values(), max_size=inputs.VOCAB_SIZE)
    groups = [[training.prepare_example(e, vocab) for e in essays.values() if e.set_id == set_id]
              for set_id in (inputs.CV_TARGET_SET, inputs.CV_POOL_SET)]
    model = EssayScorer(ModelConfig(vocab_size=len(vocab), **CV_MODEL),
                        np.random.default_rng(seed))
    firsts = [None] * len(groups)

    def evaluate():
        rates = []
        for _ in range(CV_EVAL_PASSES):
            seconds = 0.0
            for index, group in enumerate(groups):
                measured, firsts[index] = eval_passes(model, group, sets, 1, ledger,
                                                      firsts[index])
                seconds += len(group) / measured[0] if measured else math.nan
            rates.append(sum(len(group) for group in groups) / seconds)
        return [rate for rate in rates if math.isfinite(rate)]

    return evaluate


def cv_workload(name, seed, seconds, work_dir, src_dir):
    ledger = Ledger()
    work_dir = Path(work_dir)
    files = inputs.write_cv_inputs(seed, work_dir / "inputs")
    setup = [import_seconds(src_dir) for _ in range(SETUP_REPEATS)]

    # Preprocessing runs once before and twice after each `run`, and eval
    # passes run between the commands, so each metric samples the whole run
    # while the host's speed drifts.
    preprocess, runs, per_100, rates = [], [], [], []
    options = [f"{k}={v}" for k, v in {**CV_MODEL, **CV_TRAIN}.items()]
    for iteration in range(_work(CV_PIPELINES_PER_S, seconds, minimum=1)):
        base = work_dir / f"pipeline{iteration}"
        prep_s = _preprocess(files, base, seed, ledger)
        if prep_s is None:
            continue
        preprocess.append(prep_s)
        evaluate = _evaluator(base / "prep" / "corpus_cache.json", seed, ledger)
        rates += evaluate()
        run_dir = base / "run"
        argv = ["run", "--out", str(run_dir), "--seed", str(seed),
                "--set", f"corpus_cache={base / 'prep' / 'corpus_cache.json'}",
                "--set", f"records_clean={base / 'gaze' / 'records_clean.csv'}",
                "--set", f"reader_metadata={files.reader_metadata}",
                "--set", "system=essays_gaze",
                "--set", f"target_sets={inputs.CV_TARGET_SET}",
                "--set", f"vocab_size={inputs.VOCAB_SIZE}"]
        for option in options:
            argv += ["--set", option]
        run_s = _command(argv, ledger, check=lambda: _run_problem(run_dir, files))
        if run_s:
            runs.append(run_s)
            per_100.append(run_s * 100.0 / _trained_essays(run_dir))
        rates += evaluate()
        for repeat in ("again", "third"):
            prep_s = _preprocess(files, base / repeat, seed, ledger)
            if prep_s is not None:
                preprocess.append(prep_s)
        rates += evaluate()

    metrics = {
        "setup_s": _median(setup),
        "train_step_s": _median(per_100),
        "eval_essays_per_s": _throughput(rates),
        "preprocess_s": _mean(preprocess),
        "run_s": _median(runs),
        "peak_rss_mb": peak_rss_mb(),
    }
    samples = {"setup_s": setup, "eval_essays_per_s": rates, "preprocess_s": preprocess,
               "run_s": runs}
    return metrics, samples, ledger


WORKLOADS = {
    "train_self_attn": train_workload,
    "train_coattn": train_workload,
    "cv_run": cv_workload,
}
