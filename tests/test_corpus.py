"""Corpus loading, tokenization, scoring-scale, and vocabulary tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazescore.corpus import (
    ASAP_SCORE_RANGES,
    MAX_SENTENCES_PER_ESSAY,
    MAX_TOKENS_PER_SENTENCE,
    PAD_INDEX,
    UNK_INDEX,
    EssaySet,
    build_vocab,
    denormalize_score,
    load_essays,
    load_set_metadata,
    matrix_from_vectors,
    normalize_score,
    parse_embedding_file,
    split_sentences,
    text_to_sentences,
    tokenize,
)

SET3 = EssaySet(set_id=3, score_min=0, score_max=3)
SET5 = EssaySet(set_id=5, score_min=0, score_max=4)
SET1 = EssaySet(set_id=1, score_min=2, score_max=12)


def make_essay(essay_id, text, set_id=3, raw=2):
    from gazescore.corpus import Essay

    essay_set = EssaySet(set_id, *ASAP_SCORE_RANGES[set_id])
    return Essay(
        essay_id=essay_id,
        set_id=set_id,
        sentences=text_to_sentences(text),
        raw_score=raw,
        normalized_score=normalize_score(raw, essay_set),
    )


# ---------------------------------------------------------------------------
# tokenization and sentence splitting
# ---------------------------------------------------------------------------

def test_tokenize_lowercases_and_detaches_punctuation():
    assert tokenize("The cat, quickly!") == ["the", "cat", ",", "quickly", "!"]


def test_tokenize_keeps_placeholders_whole():
    assert tokenize("Dear @NAME1, thanks.") == ["dear", "@name1", ",", "thanks", "."]


def test_tokenize_contractions():
    assert tokenize("don't") == ["don", "'", "t"]


def test_split_sentences_on_terminal_punctuation():
    text = "First one. Second one! Third?  Fourth"
    assert split_sentences(text) == ["First one.", "Second one!", "Third?", "Fourth"]


def test_split_sentences_without_terminal_punctuation():
    assert split_sentences("no punctuation at all") == ["no punctuation at all"]


def test_split_sentences_empty_text():
    assert split_sentences("   ") == [""]


def test_abbreviation_period_splits_anyway():
    # declared rule: '.', '!', '?' + whitespace always splits
    assert split_sentences("Mr. Smith waved.") == ["Mr.", "Smith waved."]


def test_sentence_and_token_caps():
    long_sentence = " ".join(f"w{i}" for i in range(80)) + "."
    text = " ".join([long_sentence] * 70)
    sentences = text_to_sentences(text)
    assert len(sentences) == MAX_SENTENCES_PER_ESSAY
    assert all(len(s) == MAX_TOKENS_PER_SENTENCE for s in sentences)


@given(st.text(max_size=200))
@settings(max_examples=100, deadline=None)
def test_tokenize_is_pure(text):
    assert tokenize(text) == tokenize(text)
    assert text_to_sentences(text) == text_to_sentences(text)


# ---------------------------------------------------------------------------
# score normalization
# ---------------------------------------------------------------------------

def test_normalize_midpoint_of_zero_to_four():
    assert normalize_score(2, SET5) == 0.5


def test_normalize_top_of_range_is_one():
    assert normalize_score(3, SET3) == 1.0
    assert normalize_score(0, SET3) == 0.0


def test_denormalize_frozen_derived_example():
    # 0.49999 * 10 + 2 = 6.9999, rounds to 7
    assert denormalize_score(0.49999, SET1) == 7


def test_denormalize_rounds_half_away_from_zero():
    assert denormalize_score(0.5, SET3) == 2  # 1.5 -> 2
    assert denormalize_score(0.125, SET5) == 1  # 0.5 -> 1


def test_denormalize_clamps_to_range():
    assert denormalize_score(1.0, SET1) == 12
    assert denormalize_score(0.0, SET1) == 2


def test_out_of_range_inputs_rejected():
    with pytest.raises(ValueError):
        normalize_score(4, SET3)
    with pytest.raises(ValueError):
        normalize_score(-1, SET5)
    with pytest.raises(ValueError):
        denormalize_score(1.2, SET3)
    with pytest.raises(ValueError):
        denormalize_score(-0.1, SET3)


def test_round_trip_identity_on_every_asap_range():
    for set_id, (lo, hi) in ASAP_SCORE_RANGES.items():
        essay_set = EssaySet(set_id, lo, hi)
        for raw in range(lo, hi + 1):
            assert denormalize_score(normalize_score(raw, essay_set), essay_set) == raw


@given(st.integers(1, 8), st.data())
@settings(max_examples=100, deadline=None)
def test_round_trip_property(set_id, data):
    lo, hi = ASAP_SCORE_RANGES[set_id]
    raw = data.draw(st.integers(lo, hi))
    essay_set = EssaySet(set_id, lo, hi)
    assert denormalize_score(normalize_score(raw, essay_set), essay_set) == raw


def test_essay_set_validates_range():
    with pytest.raises(ValueError):
        EssaySet(set_id=9, score_min=4, score_max=4)


# ---------------------------------------------------------------------------
# set metadata
# ---------------------------------------------------------------------------

def write_metadata(tmp_path, include_article=True):
    article = tmp_path / "article3.txt"
    article.write_text("The source article. It has two sentences.")
    lines = ["# ASAP score ranges"]
    for set_id, (lo, hi) in ASAP_SCORE_RANGES.items():
        lines.append(f"set{set_id}.score_min {lo}")
        lines.append(f"set{set_id}.score_max {hi}")
    if include_article:
        lines.append("set3.article article3.txt")
    path = tmp_path / "sets.conf"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_load_set_metadata_matches_published_ranges(tmp_path):
    sets = load_set_metadata(write_metadata(tmp_path))
    assert set(sets) == set(range(1, 9))
    assert (sets[3].score_min, sets[3].score_max) == (0, 3)
    assert (sets[8].score_min, sets[8].score_max) == (0, 60)
    assert (sets[1].score_min, sets[1].score_max) == (2, 12)
    assert "source article" in sets[3].source_article
    assert sets[1].source_article is None


def test_load_set_metadata_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("set1.colour red\n")
    with pytest.raises(ValueError, match="unrecognized key"):
        load_set_metadata(path)


def test_load_set_metadata_requires_both_bounds(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("set1.score_min 2\n")
    with pytest.raises(ValueError, match="missing score_max"):
        load_set_metadata(path)


def test_load_set_metadata_names_the_line_of_a_bound_that_is_not_an_integer(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("# scores\nset1.score_max 3\nset1.score_min zero\n")
    with pytest.raises(ValueError) as error:
        load_set_metadata(path)
    assert str(error.value) == f"{path}:3: invalid literal for int() with base 10: 'zero'"


@pytest.mark.parametrize("text, reason", [
    # each escaped without the file's name, or loaded no set and so no essay
    ("set1.score_min 3\nset1.score_max 3\n", ": set 1: score_min 3 must be below score_max 3"),
    ("set1.score_min 0\nset1.score_max 3\nset1.article absent.txt\n",
     ":3: [Errno 2] No such file or directory: '{dir}/absent.txt'"),
    ("# no set\n", ": no essay set"),
], ids=["empty_range", "absent_article", "no_set"])
def test_load_set_metadata_names_the_file_of_a_bad_set(tmp_path, text, reason):
    path = tmp_path / "bad.conf"
    path.write_text(text)
    with pytest.raises(ValueError) as error:
        load_set_metadata(path)
    assert str(error.value) == f"{path}{reason.format(dir=tmp_path)}"


# ---------------------------------------------------------------------------
# essay loading
# ---------------------------------------------------------------------------

def write_essays(tmp_path, rows, header=True):
    lines = []
    if header:
        lines.append("essay_id\tessay_set\tessay\tdomain1_score")
    lines.extend(rows)
    path = tmp_path / "essays.tsv"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_load_essays_counts_conserved(tmp_path):
    sets = load_set_metadata(write_metadata(tmp_path))
    rows = [
        "1\t3\tA short answer. It is fine.\t2",
        "2\t3\tAnother answer!\t3",
        "3\t5\tSomething else.\t4",
        "4\t1\tA letter to the editor.\t8",
        "5\t8\tA long narrative.\t30",
    ]
    essays, report = load_essays(write_essays(tmp_path, rows), sets)
    assert len(essays) == 5
    assert sum(report.per_set_counts.values()) == 5
    assert report.per_set_counts[3] == 2
    assert report.rejected == []


def test_load_essays_set3_top_score_normalizes_to_one(tmp_path):
    sets = load_set_metadata(write_metadata(tmp_path))
    essays, _ = load_essays(
        write_essays(tmp_path, ["9\t3\tGreat answer.\t3"]), sets)
    assert essays[0].raw_score == 3
    assert essays[0].normalized_score == 1.0


def test_load_essays_header_autodetected(tmp_path):
    sets = load_set_metadata(write_metadata(tmp_path))
    no_header = write_essays(tmp_path, ["1\t3\tText here.\t2"], header=False)
    essays, report = load_essays(no_header, sets)
    assert len(essays) == 1 and report.total_rows == 1


def test_load_essays_rejects_out_of_range_score(tmp_path):
    sets = load_set_metadata(write_metadata(tmp_path))
    essays, report = load_essays(
        write_essays(tmp_path, ["1\t3\tFine text.\t9", "2\t3\tOk.\t1"]), sets)
    assert len(essays) == 1
    assert len(report.rejected) == 1
    line_no, reason = report.rejected[0]
    assert "essay 1" in reason and "outside set 3 range" in reason


def test_load_essays_skips_malformed_rows(tmp_path):
    sets = load_set_metadata(write_metadata(tmp_path))
    rows = [
        "1\t3\tgood row.\t2",
        "not\tenough",
        "x\t3\tbad id.\t2",
        "3\t99\tunknown set.\t1",
    ]
    essays, report = load_essays(write_essays(tmp_path, rows), sets)
    assert len(essays) == 1
    assert len(report.rejected) == 3
    assert report.total_rows == 4


def test_load_essays_empty_text_flagged_degenerate(tmp_path):
    sets = load_set_metadata(write_metadata(tmp_path))
    essays, _ = load_essays(write_essays(tmp_path, ["1\t3\t\t2"]), sets)
    assert essays[0].degenerate
    assert essays[0].sentences == [[]]
    assert essays[0].tokens == []


def test_load_essays_ends_rows_only_at_newlines(tmp_path):
    # a form feed, \x85 or U+2028 in an essay's text is text, not a row's end
    sets = load_set_metadata(write_metadata(tmp_path))
    rows = ["1\t3\tPage one.\x0cPage two.\t2", "2\t3\tPlain text.\t1",
            "3\t5\tFirst\x85second\u2028third.\t4", "4\t1\tA letter.\t8"]
    essays, report = load_essays(write_essays(tmp_path, rows, header=False), sets)
    assert report.rejected == [] and report.total_rows == 4
    assert [essay.essay_id for essay in essays] == [1, 2, 3, 4]
    assert essays[0].tokens == ["page", "one", ".", "page", "two", "."]
    assert essays[2].tokens == ["first", "second", "third", "."]


def test_load_essays_keeps_one_str_per_distinct_token(tmp_path):
    # tokenizing makes a new str per occurrence; a corpus keeps one per token
    sets = load_set_metadata(write_metadata(tmp_path))
    rows = ["1\t3\tThe river rose. The river fell, and rose again!\t2",
            "2\t5\tRiver banks: the river rose.\t4"]
    essays, _ = load_essays(write_essays(tmp_path, rows), sets)
    tokens = [token for essay in essays for token in essay.tokens]
    assert tokens.count("river") == 4
    assert len({id(token) for token in tokens}) == len(set(tokens))


# ---------------------------------------------------------------------------
# vocabulary
# ---------------------------------------------------------------------------

def test_build_vocab_small_corpus():
    essays = [make_essay(1, "alpha beta gamma alpha")]
    vocab = build_vocab(essays, max_size=4000)
    assert len(vocab) == 3 + 2  # three tokens plus PAD and UNK
    assert vocab.index("alpha") == 2  # most frequent gets the first real slot
    assert vocab.index("<pad>") == PAD_INDEX
    assert vocab.index("never-seen") == UNK_INDEX


def test_build_vocab_tie_break_is_first_occurrence():
    essays = [make_essay(1, "zebra apple zebra apple mango")]
    vocab = build_vocab(essays)
    assert vocab.index("zebra") < vocab.index("apple") < vocab.index("mango")


def test_build_vocab_max_size_cap():
    text = " ".join(f"tok{i}" for i in range(30))
    vocab = build_vocab([make_essay(1, text)], max_size=10)
    assert len(vocab) == 10 + 2


@pytest.mark.parametrize("max_size", [0, -1])
def test_build_vocab_rejects_max_size_below_one(max_size):
    # a negative slice would silently drop the rarest tokens
    with pytest.raises(ValueError, match=f"max_size must be >= 1, got {max_size}"):
        build_vocab([make_essay(1, "alpha beta gamma")], max_size=max_size)


def test_build_vocab_records_provenance():
    essays = [make_essay(1, "a b"), make_essay(7, "c d")]
    vocab = build_vocab(essays)
    assert vocab.provenance == frozenset({1, 7})


def test_build_vocab_rejects_empty():
    with pytest.raises(ValueError):
        build_vocab([])


def test_encode_maps_unknowns():
    vocab = build_vocab([make_essay(1, "known words here")])
    ids = vocab.encode(["known", "mystery"])
    assert ids[0] >= 2 and ids[1] == UNK_INDEX


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------

def write_embeddings(tmp_path, lines):
    path = tmp_path / "vectors.txt"
    path.write_text("\n".join(lines) + ("\n" if lines else ""))
    return path


def embedding_matrix(path, vocab, seed):
    """Embedding matrix for ``vocab``, read the way a fold does."""
    vectors, dimension = parse_embedding_file(path)
    return matrix_from_vectors(vectors, dimension, vocab, np.random.default_rng(seed))


def test_load_embeddings_copies_matching_rows(tmp_path):
    vocab = build_vocab([make_essay(1, "apple banana")])
    path = write_embeddings(tmp_path, ["apple 0.1 0.2 0.3", "cherry 1 2 3"])
    matrix = embedding_matrix(path, vocab, 0)
    assert matrix.shape == (len(vocab), 3)
    np.testing.assert_allclose(matrix[vocab.index("apple")], [0.1, 0.2, 0.3])


def test_load_embeddings_fallback_rows_bounded(tmp_path):
    vocab = build_vocab([make_essay(1, "apple banana")])
    path = write_embeddings(tmp_path, ["apple 0.9 0.9"])
    matrix = embedding_matrix(path, vocab, 0)
    missing_row = matrix[vocab.index("banana")]
    assert np.all(np.abs(missing_row) <= 0.05)


def test_load_embeddings_pad_row_zero(tmp_path):
    vocab = build_vocab([make_essay(1, "apple")])
    path = write_embeddings(tmp_path, ["apple 1 1"])
    matrix = embedding_matrix(path, vocab, 0)
    np.testing.assert_array_equal(matrix[PAD_INDEX], [0.0, 0.0])


def test_load_embeddings_empty_file(tmp_path):
    # an empty file has no dimension; callers reject it rather than guess one
    assert parse_embedding_file(write_embeddings(tmp_path, [])) == ({}, None)


def test_load_embeddings_rejects_ragged_dimensions(tmp_path):
    path = write_embeddings(tmp_path, ["apple 1 2 3", "banana 1 2"])
    with pytest.raises(ValueError, match=":2"):
        parse_embedding_file(path)


def test_load_embeddings_names_the_line_of_a_value_that_is_not_a_number(tmp_path):
    path = write_embeddings(tmp_path, ["apple 1 2", "banana 3 x"])
    with pytest.raises(ValueError) as error:
        parse_embedding_file(path)
    assert str(error.value) == f"{path}:2: could not convert string to float: 'x'"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_embeddings_rejects_non_finite_values_it_keeps(value, tmp_path):
    path = write_embeddings(tmp_path, ["apple 1 2", f"banana 3 {value}", f"cherry {value} 4"])
    with pytest.raises(ValueError, match=r"vectors\.txt:2: non-finite"):
        parse_embedding_file(path)
    # a skipped vector is never read into the table
    vectors, _ = parse_embedding_file(path, restrict_tokens={"apple"})
    assert list(vectors) == ["apple"]


def test_load_embeddings_deterministic_given_seed(tmp_path):
    vocab = build_vocab([make_essay(1, "apple banana cherry")])
    path = write_embeddings(tmp_path, ["apple 1 2"])
    m1 = embedding_matrix(path, vocab, 5)
    m2 = embedding_matrix(path, vocab, 5)
    np.testing.assert_array_equal(m1, m2)
