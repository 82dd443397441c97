"""Seeded input generation for every workload.

The program only ever sees what these functions return or write. Shapes
(essay and sentence lengths, gaze coverage, pool size) come from fixed
templates and the seed only permutes them and draws the words, scores and
gaze values, so every seed asks the program for the same amount of work
and run-to-run spread reflects the program, not the draw.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# paper-default essay shape: 263 tokens in 12 sentences
TRAIN_SENTENCE_LENGTHS = (10, 14, 17, 19, 21, 22, 23, 24, 26, 28, 29, 30)
TRAIN_ESSAYS = 100          # one 100-essay batch per epoch
EVAL_ESSAYS = 50
TRAIN_READERS = 3
READER_COVERAGE = 0.9       # share of tokens each reader labels
ARTICLE_SENTENCES = 20
ARTICLE_SENTENCE_TOKENS = 25
LEXICON_SIZE = 6000
VOCAB_SIZE = 4000
SCORE_MIN, SCORE_MAX = 0, 3

# cross-validation corpus: target set essays plus the gaze-annotated pool
CV_TARGET_SET = 1
CV_POOL_SET = 9
CV_TARGET_ESSAYS = 30
CV_POOL_ESSAYS = 48
CV_READERS = 8
CV_NATIVE_READERS = 5
CV_TARGET_WORDS = (150, 650)
CV_POOL_WORDS = (150, 380)
# sentence lengths in tokens (period included), cycled to fill an essay
CV_SENTENCE_CYCLE = (12, 50, 7, 23, 2, 31, 16, 44, 9, 27, 19, 3, 38, 14, 21, 5)


def word(index):
    return f"w{index}"


def _lexicon_weights():
    ranks = np.arange(LEXICON_SIZE, dtype=np.float64)
    weights = 1.0 / (ranks + 20.0)
    return weights / weights.sum()


def _draw_words(rng, count, weights):
    return rng.choice(LEXICON_SIZE, size=count, p=weights)


@dataclass
class TrainInputs:
    """Essays for the train_* workloads, as gazescore corpus objects."""

    train_essays: list      # corpus.Essay with gaze attached
    eval_essays: list       # corpus.Essay without gaze
    article_sentences: list  # list of token lists
    essay_set: object       # corpus.EssaySet


def _essay_token_stream(rng, n_essays, weights, cover_lexicon):
    per_essay = sum(TRAIN_SENTENCE_LENGTHS)
    total = n_essays * per_essay
    if cover_lexicon:
        # every type of a 4100-word head appears at least once, so the
        # frequency-capped vocabulary always holds exactly VOCAB_SIZE words
        head = rng.permutation(VOCAB_SIZE + 100)
        rest = _draw_words(rng, total - head.size, weights)
        stream = rng.permutation(np.concatenate([head, rest]))
    else:
        stream = _draw_words(rng, total, weights)
    return stream.reshape(n_essays, per_essay)


def _sentences(rng, tokens):
    lengths = rng.permutation(TRAIN_SENTENCE_LENGTHS)
    sentences, start = [], 0
    for length in lengths:
        sentences.append([word(int(t)) for t in tokens[start:start + length]])
        start += length
    return sentences


def _binned_gaze(rng, n_tokens, binned_cls):
    """reader -> per-token BinnedGaze or None, exactly READER_COVERAGE labelled."""
    gaze = {}
    n_missing = n_tokens - int(round(READER_COVERAGE * n_tokens))
    for reader in range(TRAIN_READERS):
        missing = set(rng.choice(n_tokens, size=n_missing, replace=False).tolist())
        bins = rng.integers(0, 6, size=(n_tokens, 3))
        flags = rng.integers(0, 2, size=(n_tokens, 2))
        sequence = []
        for position in range(n_tokens):
            if position in missing:
                sequence.append(None)
                continue
            dt, ffd, rc = (int(v) for v in bins[position])
            ir, skip = (int(v) for v in flags[position])
            sequence.append(binned_cls(dt_bin=dt, ffd_bin=ffd, ir_bin=ir,
                                       rc_bin=rc, skip_bin=skip))
        gaze[f"r{reader}"] = sequence
    return gaze


def make_train_inputs(seed):
    from gazescore.corpus import Essay, EssaySet, normalize_score
    from gazescore.gaze import BinnedGaze

    rng = np.random.default_rng([seed, 1])
    weights = _lexicon_weights()
    essay_set = EssaySet(set_id=1, score_min=SCORE_MIN, score_max=SCORE_MAX)

    def essays(tokens, first_id, with_gaze):
        out = []
        for offset, row in enumerate(tokens):
            raw = int(rng.integers(SCORE_MIN, SCORE_MAX + 1))
            out.append(Essay(
                essay_id=first_id + offset,
                set_id=1,
                sentences=_sentences(rng, row),
                raw_score=raw,
                normalized_score=normalize_score(raw, essay_set),
                gaze=_binned_gaze(rng, row.size, BinnedGaze) if with_gaze else None,
            ))
        return out

    train_tokens = _essay_token_stream(rng, TRAIN_ESSAYS, weights, cover_lexicon=True)
    eval_tokens = _essay_token_stream(rng, EVAL_ESSAYS, weights, cover_lexicon=False)
    article = _draw_words(rng, ARTICLE_SENTENCES * ARTICLE_SENTENCE_TOKENS, weights)
    article_sentences = [
        [word(int(t)) for t in row]
        for row in article.reshape(ARTICLE_SENTENCES, ARTICLE_SENTENCE_TOKENS)]
    return TrainInputs(
        train_essays=essays(train_tokens, 1000, with_gaze=True),
        eval_essays=essays(eval_tokens, 5000, with_gaze=False),
        article_sentences=article_sentences,
        essay_set=essay_set,
    )


# ---------------------------------------------------------------- cv_run

@dataclass
class CvFiles:
    essays: Path
    set_metadata: Path
    gaze_csv: Path
    reader_metadata: Path
    target_ids: list        # essay ids of the target set


def _sentence_lengths(n_words, cycle_offset):
    """Token lengths (period included) of sentences holding n_words words."""
    lengths, remaining, i = [], n_words, cycle_offset
    while remaining > 0:
        words = min(CV_SENTENCE_CYCLE[i % len(CV_SENTENCE_CYCLE)] - 1, remaining)
        lengths.append(words + 1)
        remaining -= words
        i += 1
    return lengths


def _essay_templates(n, word_range):
    """Fixed (word count, sentence lengths) shapes spanning word_range."""
    counts = np.linspace(word_range[0], word_range[1], n).round().astype(int)
    return [_sentence_lengths(int(c), i) for i, c in enumerate(counts)]


def _text(rng, sentence_lengths, weights):
    """Essay text plus its token list exactly as gazescore will tokenize it."""
    sentences, tokens = [], []
    for length in sentence_lengths:
        words = [word(int(t)) for t in _draw_words(rng, length - 1, weights)]
        sentences.append(" ".join(words) + ".")
        tokens.extend(words + ["."])
    return " ".join(sentences), tokens


def _gaze_rows(rng, essay_id, tokens, reader_id):
    n = len(tokens)
    skip = rng.random(n) < 0.2
    ffd = rng.uniform(80.0, 300.0, n).round(1)
    extra = rng.uniform(0.0, 400.0, n).round(1)
    run_count = rng.integers(1, 7, n)
    regression = rng.integers(0, 2, n)
    rows = []
    for i, token in enumerate(tokens):
        if skip[i]:
            rows.append((essay_id, reader_id, i, token, 0.0, 0.0, 0, 0, 1))
        else:
            rows.append((essay_id, reader_id, i, token, float(ffd[i] + extra[i]),
                         float(ffd[i]), int(regression[i]), int(run_count[i]), 0))
    return rows


def write_cv_inputs(seed, directory):
    """Write essays TSV, set metadata, gaze CSV and reader metadata."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 2])
    weights = _lexicon_weights()

    target_shapes = _essay_templates(CV_TARGET_ESSAYS, CV_TARGET_WORDS)
    pool_shapes = _essay_templates(CV_POOL_ESSAYS, CV_POOL_WORDS)
    target_shapes = [target_shapes[i] for i in rng.permutation(CV_TARGET_ESSAYS)]
    pool_shapes = [pool_shapes[i] for i in rng.permutation(CV_POOL_ESSAYS)]

    rows = ["essay_id\tessay_set\tessay\tdomain1_score"]
    target_ids, pool_tokens = [], {}
    for offset, shape in enumerate(target_shapes):
        essay_id = 100 + offset
        text, _ = _text(rng, shape, weights)
        score = int(rng.integers(SCORE_MIN, SCORE_MAX + 1))
        rows.append(f"{essay_id}\t{CV_TARGET_SET}\t{text}\t{score}")
        target_ids.append(essay_id)
    for offset, shape in enumerate(pool_shapes):
        essay_id = 9000 + offset
        text, tokens = _text(rng, shape, weights)
        score = int(rng.integers(SCORE_MIN, SCORE_MAX + 1))
        rows.append(f"{essay_id}\t{CV_POOL_SET}\t{text}\t{score}")
        pool_tokens[essay_id] = tokens
    essays_path = directory / "essays.tsv"
    essays_path.write_text("\n".join(rows) + "\n", encoding="utf-8")

    metadata_path = directory / "sets.cfg"
    metadata_path.write_text(
        f"set{CV_TARGET_SET}.score_min {SCORE_MIN}\nset{CV_TARGET_SET}.score_max {SCORE_MAX}\n"
        f"set{CV_POOL_SET}.score_min {SCORE_MIN}\nset{CV_POOL_SET}.score_max {SCORE_MAX}\n",
        encoding="utf-8")

    readers = [f"r{i}" for i in range(1, CV_READERS + 1)]
    gaze_path = directory / "gaze.csv"
    with open(gaze_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("essay_id", "reader_id", "ia_index", "token", "dwell_time_ms",
                         "first_fixation_ms", "is_regression", "run_count", "skip"))
        for essay_id, tokens in pool_tokens.items():
            for reader_id in readers:
                writer.writerows(_gaze_rows(rng, essay_id, tokens, reader_id))

    reader_path = directory / "readers.csv"
    reader_path.write_text(
        "reader_id,native\n" + "".join(
            f"{rid},{'yes' if i < CV_NATIVE_READERS else 'no'}\n"
            for i, rid in enumerate(readers)),
        encoding="utf-8")
    return CvFiles(essays=essays_path, set_metadata=metadata_path, gaze_csv=gaze_path,
                   reader_metadata=reader_path, target_ids=target_ids)
