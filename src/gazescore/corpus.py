"""Essay ingestion: parsing, tokenization, vocabulary, scores, embeddings.

Essays arrive as a tab-separated file with columns (essay_id, essay_set,
essay, domain1_score). Score ranges per set come from a flat key-value
metadata file. Tokenization lowercases and detaches punctuation into
separate tokens; placeholder tokens like @name1 survive as single tokens.
Sentences split on terminal punctuation followed by whitespace.
"""

from __future__ import annotations

import math
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
PAD_INDEX = 0
UNK_INDEX = 1

# sequence caps keep convolution and recurrence shapes bounded
MAX_TOKENS_PER_SENTENCE = 50
MAX_SENTENCES_PER_ESSAY = 60

# canonical resolved-score ranges for the eight ASAP prompts
ASAP_SCORE_RANGES = {
    1: (2, 12),
    2: (1, 6),
    3: (0, 3),
    4: (0, 3),
    5: (0, 4),
    6: (0, 4),
    7: (0, 30),
    8: (0, 60),
}

_TOKEN_RE = re.compile(r"@\w+|\w+|[^\w\s]")
_SENTENCE_RE = re.compile(r"(?<=[.!?])\s+")


@dataclass(frozen=True)
class EssaySet:
    set_id: int
    score_min: int
    score_max: int
    source_article: str | None = None

    def __post_init__(self):
        if self.score_min >= self.score_max:
            raise ValueError(
                f"set {self.set_id}: score_min {self.score_min} must be below "
                f"score_max {self.score_max}")


@dataclass
class Essay:
    essay_id: int
    set_id: int
    sentences: list[list[str]]
    raw_score: int
    normalized_score: float
    degenerate: bool = False
    # {reader_id: [BinnedGaze or None per token]}; bin_all's EssayGaze reaches training as
    # gaze_targets instead
    gaze: dict | None = None

    @property
    def tokens(self):
        return [t for sentence in self.sentences for t in sentence]


@dataclass
class LoadReport:
    per_set_counts: dict = field(default_factory=dict)
    rejected: list = field(default_factory=list)  # (line_number, reason)
    total_rows: int = 0


def tokenize(text):
    """Lowercase word/punctuation tokens; @placeholders stay whole."""
    return _TOKEN_RE.findall(text.lower())


def split_sentences(text):
    """Split on '.', '!' or '?' followed by whitespace; never returns []."""
    stripped = text.strip()
    if not stripped:
        return [""]
    parts = [p for p in _SENTENCE_RE.split(stripped) if p.strip()]
    return parts if parts else [stripped]


def text_to_sentences(text):
    """Tokenized, capped sentence structure for one essay text; equal tokens
    are one interned str, so a corpus holds one per distinct token."""
    return [list(map(sys.intern, tokenize(raw)[:MAX_TOKENS_PER_SENTENCE]))
            for raw in split_sentences(text)[:MAX_SENTENCES_PER_ESSAY]]


def normalize_score(raw, essay_set):
    """Map an in-range integer score to [0, 1]."""
    if not essay_set.score_min <= raw <= essay_set.score_max:
        raise ValueError(
            f"score {raw} outside range [{essay_set.score_min}, {essay_set.score_max}] "
            f"of set {essay_set.set_id}")
    span = essay_set.score_max - essay_set.score_min
    return (raw - essay_set.score_min) / span


def denormalize_score(pred, essay_set):
    """Map a [0, 1] prediction back to an integer score, half away from zero."""
    if not 0.0 <= pred <= 1.0:
        raise ValueError(f"prediction {pred} outside [0, 1]")
    value = pred * (essay_set.score_max - essay_set.score_min) + essay_set.score_min
    rounded = int(math.copysign(math.floor(abs(value) + 0.5), value))
    return min(max(rounded, essay_set.score_min), essay_set.score_max)


@contextmanager
def open_text(path, newline=None):
    """UTF-8 text file ``path`` open for reading in the block, which raises a
    UnicodeDecodeError as a ValueError naming the file."""
    with open(path, "r", encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as error:
            raise ValueError(f"{path}: not UTF-8 ({error})") from None


def load_set_metadata(path):
    """Parse the flat key-value set metadata file into {set_id: EssaySet}.

    Recognized keys: set<id>.score_min, set<id>.score_max, set<id>.article
    (path to the source-article text, relative to the metadata file).
    Lines starting with '#' and blank lines are ignored.
    """
    import os

    raw = {}
    with open_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split(None, 1)
            if len(fields) != 2:
                raise ValueError(f"{path}:{line_no}: expected 'key value', got {line!r}")
            key, value = fields
            m = re.fullmatch(r"set(\d+)\.(score_min|score_max|article)", key)
            if not m:
                raise ValueError(f"{path}:{line_no}: unrecognized key {key!r}")
            set_id, prop = int(m.group(1)), m.group(2)
            raw.setdefault(set_id, {})[prop] = value, line_no

    base = os.path.dirname(os.path.abspath(path))
    sets = {}
    for set_id, props in sorted(raw.items()):
        scores = {}
        for prop in ("score_min", "score_max"):
            if prop not in props:
                raise ValueError(f"{path}: set {set_id} missing {prop}")
            value, line_no = props[prop]
            try:
                scores[prop] = int(value)
            except ValueError as error:
                raise ValueError(f"{path}:{line_no}: {error}") from None
        article = None
        if "article" in props:
            article_path = os.path.join(base, props["article"][0])
            with open_text(article_path) as fh:
                article = fh.read()
        sets[set_id] = EssaySet(set_id=set_id, **scores, source_article=article)
    return sets


def load_essays(path, sets):
    """Parse the essay TSV into (list of Essay, LoadReport).

    A leading row whose first field is ``essay_id`` is taken as a header.
    Malformed rows, out-of-range scores and repeats of an essay id already
    loaded are rejected with per-record diagnostics in the report rather
    than aborting the load.
    """
    essays = []
    first_lines = {}  # essay_id -> line of the row that loaded it
    report = LoadReport(per_set_counts={sid: 0 for sid in sets})
    with open_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            # reading ends a row only at \n, \r\n or \r; any other line break is text
            line = line.removesuffix("\n")
            if line_no == 1 and line.split("\t")[0].strip().lower() == "essay_id":
                continue
            if not line.strip():
                continue
            report.total_rows += 1
            columns = line.split("\t")
            if len(columns) < 4:
                report.rejected.append(
                    (line_no, f"expected 4 tab-separated columns, got {len(columns)}"))
                continue
            try:
                essay_id = int(columns[0])
                set_id = int(columns[1])
                text = columns[2]
                raw_score = int(columns[3])
            except ValueError as exc:
                report.rejected.append((line_no, f"malformed field: {exc}"))
                continue
            if essay_id in first_lines:
                report.rejected.append((line_no, f"essay {essay_id}: already loaded from "
                                                 f"line {first_lines[essay_id]}"))
                continue
            if set_id not in sets:
                report.rejected.append((line_no, f"unknown essay set {set_id}"))
                continue
            essay_set = sets[set_id]
            if not essay_set.score_min <= raw_score <= essay_set.score_max:
                report.rejected.append((
                    line_no,
                    f"essay {essay_id}: score {raw_score} outside set {set_id} range "
                    f"[{essay_set.score_min}, {essay_set.score_max}]"))
                continue
            sentences = text_to_sentences(text)
            degenerate = all(len(s) == 0 for s in sentences)
            essays.append(Essay(
                essay_id=essay_id,
                set_id=set_id,
                sentences=sentences,
                raw_score=raw_score,
                normalized_score=normalize_score(raw_score, essay_set),
                degenerate=degenerate,
            ))
            report.per_set_counts[set_id] += 1
            first_lines[essay_id] = line_no
    return essays, report


class Vocabulary:
    """Frequency-ranked token table with reserved PAD and UNK slots.

    ``provenance`` records which essay ids contributed tokens, so later
    stages can assert that no test-partition essay leaked into the build.
    """

    def __init__(self, token_to_index, provenance=frozenset()):
        self.token_to_index = dict(token_to_index)
        self.provenance = frozenset(provenance)

    def __len__(self):
        return len(self.token_to_index)

    def index(self, token):
        return self.token_to_index.get(token, UNK_INDEX)

    def encode(self, tokens):
        return [self.index(t) for t in tokens]


def build_vocab(train_essays, max_size=4000):
    """Top-``max_size`` tokens by frequency; ties keep first-occurrence order."""
    train_essays = list(train_essays)
    if not train_essays:
        raise ValueError("build_vocab: training set is empty")
    if max_size < 1:
        raise ValueError(f"build_vocab: max_size must be >= 1, got {max_size}")
    counts = {}
    first_seen = {}
    position = 0
    for essay in train_essays:
        for token in essay.tokens:
            if token not in counts:
                counts[token] = 0
                first_seen[token] = position
                position += 1
            counts[token] += 1
    ranked = sorted(counts, key=lambda t: (-counts[t], first_seen[t]))[:max_size]
    token_to_index = {PAD_TOKEN: PAD_INDEX, UNK_TOKEN: UNK_INDEX}
    for token in ranked:
        token_to_index[token] = len(token_to_index)
    return Vocabulary(token_to_index, provenance=frozenset(e.essay_id for e in train_essays))


def parse_embedding_file(path, restrict_tokens=None):
    """Stream a word-vector file into ({token: vector}, dimension).

    ``restrict_tokens``, when given, keeps only those tokens (bounds memory
    when the file is much larger than the corpus vocabulary). Dimension is
    taken from the first line; later lines must agree. A kept vector must
    be finite.
    """
    vectors = {}
    dimension = None
    with open_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            token, values = fields[0], fields[1:]
            if dimension is None:
                dimension = len(values)
                if dimension == 0:
                    raise ValueError(f"{path}:{line_no}: no embedding values on line")
            elif len(values) != dimension:
                raise ValueError(
                    f"{path}:{line_no}: expected {dimension} values, got {len(values)}")
            if restrict_tokens is None or token in restrict_tokens:
                try:
                    vector = np.array([float(v) for v in values], dtype=np.float64)
                except ValueError as error:
                    raise ValueError(f"{path}:{line_no}: {error}") from None
                if not np.all(np.isfinite(vector)):
                    raise ValueError(f"{path}:{line_no}: non-finite value in {token!r}'s vector")
                vectors[token] = vector
    return vectors, dimension


def matrix_from_vectors(vectors, dimension, vocab, rng):
    """Embedding matrix for ``vocab``; absent tokens get seeded uniform rows.

    The PAD row is all zeros.
    """
    matrix = rng.uniform(-0.05, 0.05, size=(len(vocab), dimension))
    matrix[PAD_INDEX] = 0.0
    for token, index in vocab.token_to_index.items():
        if token in vectors:
            vector = np.asarray(vectors[token], dtype=np.float64)
            if vector.shape != (dimension,):
                raise ValueError(
                    f"embedding for {token!r} has shape {vector.shape}, "
                    f"expected ({dimension},)")
            matrix[index] = vector
    if not np.all(np.isfinite(matrix)):
        raise ValueError("embedding table contains non-finite values")
    return matrix

