"""Fixtures shared across test modules."""

import importlib.util
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from gazescore.cli import write_corpus_cache
from gazescore.corpus import (
    ASAP_SCORE_RANGES,
    Vocabulary,
    build_vocab,
    load_essays,
    load_set_metadata,
)
from gazescore.experiments import DEFAULT_GAZE_WEIGHTS
from gazescore.gaze import GAZE_ATTRIBUTES
from gazescore.model import EssayScorer, ModelConfig
from gazescore.training import prepare_example


# Taghipour & Ng (EMNLP 2016), Table 1: each ASAP set's essay count and mean
# length in words; 12,978 essays in all
ASAP_SETS = {1: (1783, 350), 2: (1800, 350), 3: (1726, 150), 4: (1772, 150),
             5: (1805, 150), 6: (1800, 150), 7: (1569, 250), 8: (723, 650)}
ASAP_LEXICON = 20_000
ASAP_SENTENCE_WORDS = (8, 30)  # a sentence's word count, drawn uniformly


def write_asap_inputs(directory, seed, scale=1.0):
    """An ASAP-shaped essays TSV and set metadata in ``directory``.

    Each set holds ``ceil(scale * count)`` essays of Table 1's counts, each
    of 0.5 to 1.5 times its set's mean length in Zipf-drawn words (``w<rank>``),
    in sentences that end in a period; scores are drawn in the set's range.
    Returns (essays path, set metadata path).
    """
    directory = Path(directory)
    rng = np.random.default_rng([seed, 36])
    weights = 1.0 / np.arange(1, ASAP_LEXICON + 1)
    weights /= weights.sum()
    lines = ["essay_id\tessay_set\tessay\tdomain1_score"]
    metadata = []
    for set_id, (count, mean_words) in ASAP_SETS.items():
        low, high = ASAP_SCORE_RANGES[set_id]
        metadata.append(f"set{set_id}.score_min {low}\nset{set_id}.score_max {high}\n")
        for offset in range(math.ceil(scale * count)):
            n_words = int(rng.integers(mean_words // 2, mean_words * 3 // 2 + 1))
            words = [f"w{rank}" for rank in rng.choice(ASAP_LEXICON, n_words, p=weights)]
            sentences, start = [], 0
            while start < n_words:
                stop = start + int(rng.integers(*ASAP_SENTENCE_WORDS, endpoint=True))
                sentences.append(" ".join(words[start:stop]) + ".")
                start = stop
            score = int(rng.integers(low, high, endpoint=True))
            lines.append(f"{set_id * 100_000 + offset}\t{set_id}\t{' '.join(sentences)}\t{score}")
    essays_path, metadata_path = directory / "essays.tsv", directory / "sets.cfg"
    essays_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    metadata_path.write_text("".join(metadata), encoding="utf-8")
    return essays_path, metadata_path


@pytest.fixture(scope="session")
def asap_corpus_cache(tmp_path_factory):
    """A corpus cache of ASAP's eight sets at 0.155 of their size, 2,015 essays
    (seed 1), written as preprocess writes it."""
    directory = tmp_path_factory.mktemp("asap")
    essays_path, metadata_path = write_asap_inputs(directory, 1, scale=0.155)
    sets = load_set_metadata(metadata_path)
    essays, _ = load_essays(essays_path, sets)
    write_corpus_cache(directory / "corpus_cache.json", essays, sets)
    return directory / "corpus_cache.json"


@dataclass(frozen=True)
class BenchmarkBatch:
    """The train workloads' inputs at seed 1, encoded with their vocabulary."""

    vocab: Vocabulary
    train: list        # TrainExample of each of the 100 train essays, gaze targets included
    eval_essays: list  # sentence ids of each of the 50 eval essays
    article: list      # sentence ids of the source article

    def model(self, architecture):
        """A model at paper defaults with all five gaze heads, from seed-1 parameters."""
        config = ModelConfig(architecture=architecture, vocab_size=len(self.vocab),
                             gaze_attributes=tuple(GAZE_ATTRIBUTES),
                             gaze_loss_weights=dict(DEFAULT_GAZE_WEIGHTS))
        return EssayScorer(config, np.random.default_rng(1), article_sentence_ids=self.article)


@contextmanager
def benchmark_inputs():
    """The benchmark's input module, bench/inputs.py, loaded for the block."""
    spec = importlib.util.spec_from_file_location(
        "benchmark_inputs", Path(__file__).resolve().parents[1] / "bench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = inputs  # its dataclasses look their module up
    try:
        spec.loader.exec_module(inputs)
        yield inputs
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="session")
def benchmark_cv_files(tmp_path_factory):
    """The cv_run workload's input files at seed 1: its essays and its 48-essay gaze pool."""
    with benchmark_inputs() as inputs:
        return inputs.write_cv_inputs(1, tmp_path_factory.mktemp("benchmark_cv"))


@pytest.fixture(scope="session")
def benchmark_batch():
    with benchmark_inputs() as inputs:
        data = inputs.make_train_inputs(1)
    vocab = build_vocab(data.train_essays, max_size=inputs.VOCAB_SIZE)
    return BenchmarkBatch(
        vocab=vocab,
        train=[prepare_example(e, vocab) for e in data.train_essays],
        eval_essays=[prepare_example(e, vocab).sentence_ids for e in data.eval_essays],
        article=[vocab.encode(s) for s in data.article_sentences])
