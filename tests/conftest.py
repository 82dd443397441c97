"""Fixtures shared across test modules."""

import importlib.util
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from gazescore.corpus import Vocabulary, build_vocab
from gazescore.experiments import DEFAULT_GAZE_WEIGHTS
from gazescore.gaze import GAZE_ATTRIBUTES
from gazescore.model import EssayScorer, ModelConfig
from gazescore.training import prepare_example


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
