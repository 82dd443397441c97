"""Gaze binning, reader statistics, and alignment tests."""

import csv
import gc
import io
import math
import tracemalloc
from dataclasses import replace
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazescore import gaze
from gazescore.corpus import Essay, build_vocab, load_essays, load_set_metadata
from gazescore.gaze import (
    GAZE_ATTRIBUTES,
    GAZE_CSV_COLUMNS,
    GAZE_MAX_BIN,
    CHUNK_ROWS,
    BinnedGaze,
    EssayGaze,
    GazeLoadReport,
    GazeRecord,
    GazeTable,
    bin_all,
    bin_fixation,
    bin_run_count,
    filter_readers,
    gaze_targets,
    labeled,
    load_gaze_records,
    load_reader_metadata,
    reader_stats,
)
from gazescore.training import prepare_example
from oracle import gaze_lists


def record(essay_id=1, reader="r1", ia=0, dt=100.0, ffd=80.0, ir=0, rc=1, skip=0):
    return GazeRecord(
        essay_id=essay_id, reader_id=reader, ia_index=ia, token="tok",
        dwell_time_ms=dt, first_fixation_ms=ffd, is_regression=ir,
        run_count=rc, skip=skip)


def skip_record(essay_id=1, reader="r1", ia=0):
    return record(essay_id, reader, ia, dt=0.0, ffd=0.0, ir=0, rc=0, skip=1)


def table(records):
    return GazeTable.from_records(records)


def records_of(gaze_table):
    return [GazeRecord._make(row) for row in gaze_table.rows()]


def essay_with_tokens(essay_id, n_tokens):
    return Essay(
        essay_id=essay_id, set_id=3,
        sentences=[[f"w{i}" for i in range(n_tokens)]],
        raw_score=1, normalized_score=1 / 3)


def essays_of(records):
    """Essays just long enough to place every row of GazeTable ``records``."""
    return {essay_id: essay_with_tokens(essay_id, int(records.ia_index[
        records.essay_id == essay_id].max()) + 1) for essay_id in set(records.essay_id.tolist())}


def stats_of(records):
    """reader_stats over every row of GazeTable ``records`` but duplicates."""
    return reader_stats(records, essays_of(records))


# ---------------------------------------------------------------------------
# record invariants and loading
# ---------------------------------------------------------------------------

def write_gaze_csv(tmp_path, rows):
    header = "essay_id,reader_id,ia_index,token,dwell_time_ms,first_fixation_ms,is_regression,run_count,skip"
    path = tmp_path / "gaze.csv"
    path.write_text("\n".join([header] + rows) + "\n")
    return path


def test_record_validation_catches_violations(tmp_path):
    cases = [
        (record(), None),
        (skip_record(), None),
        (record(dt=50.0, ffd=80.0), "exceeds"),
        (record(dt=10.0, ffd=5.0, rc=0, skip=1), "skipped"),
        (record(dt=0.0, ffd=0.0, rc=2, skip=1), "skipped"),
        (record(dt=-1.0, ffd=-1.0), "negative"),
        (record(ir=2), "is_regression"),
        (record(ia=-1), "ia_index"),
    ]
    path = write_gaze_csv(tmp_path, [",".join(map(str, case)) for case, _ in cases])
    records, report = load_gaze_records(path)
    assert records_of(records) == [case for case, problem in cases if problem is None]
    reasons = dict(report.rejected)
    for line, (_, problem) in enumerate(cases, start=2):
        if problem is None:
            assert line not in reasons
        else:
            assert problem in reasons[line]


def test_load_gaze_records_round_trip(tmp_path):
    path = write_gaze_csv(tmp_path, [
        "1,r1,0,the,250,120,0,2,0",
        "1,r1,1,cat,0,0,0,0,1",
        "2,r2,0,dog,90,90,1,1,0",
    ])
    records, report = load_gaze_records(path)
    assert len(records) == 3 and report.rejected == []
    assert records.dwell_time_ms[0] == 250.0
    assert records.skip[1] == 1
    assert records.is_regression[2] == 1


def test_load_gaze_records_rejects_invalid_rows(tmp_path):
    path = write_gaze_csv(tmp_path, [
        "1,r1,0,the,50,120,0,1,0",   # FFD > DT
        "1,r1,1,cat,abc,0,0,0,1",    # malformed number
        "1,r1,2,dog,100,50,0,1,0",   # fine
        "1,r1,3,big,nan,0,0,1,0",    # non-finite dwell time
        "1,r1,4,red,inf,50,0,1,0",   # non-finite dwell time
        "1,r1,5,hat,100,nan,0,1,0",  # non-finite first fixation
        "1",                         # no reader id or later fields
    ])
    records, report = load_gaze_records(path)
    assert len(records) == 1
    assert len(report.rejected) == 6
    assert report.rejected[0][0] == 2  # line number of the first bad row
    assert report.rejected[2:5] == [(line, "non-finite fixation duration") for line in (5, 6, 7)]
    assert report.rejected[5][0] == 8 and report.rejected[5][1].startswith("malformed field")


def test_load_gaze_records_rejects_fixations_above_one_hour(tmp_path):
    rows = ["1,r1,0,the,250,120,0,2,0", "1,r1,1,cat,0,0,0,0,1", "2,r1,0,dog,90,90,1,1,0"]
    path = write_gaze_csv(tmp_path, [*rows[:2], "1,r1,2,big,1e300,10,0,1,0",
                                     "1,r1,3,red,3600001,3600001,0,1,0",
                                     "1,r1,4,hat,3600000,3600000,0,1,0", rows[2]])
    records, report = load_gaze_records(path)
    assert report.rejected == [(4, "fixation duration above one hour"),
                               (5, "fixation duration above one hour")]
    assert records.dwell_time_ms.tolist() == [250.0, 0.0, 3600000.0, 90.0]
    stats = stats_of(records)["r1"]
    assert all(map(math.isfinite, (stats.dt_mean, stats.dt_std, stats.ffd_mean, stats.ffd_std)))
    (tmp_path / "clean").mkdir()
    clean = write_gaze_csv(tmp_path / "clean", [*rows[:2], "1,r1,4,hat,3600000,3600000,0,1,0",
                                                rows[2]])
    assert stats_of(load_gaze_records(clean)[0]) == {"r1": stats}


def test_load_gaze_records_keeps_one_object_per_distinct_reader_id_and_token(tmp_path):
    # the csv module makes a str per cell; rows span several chunks
    tokens = ["the", "cat", "the", "sat"] * (CHUNK_ROWS // 4 + 1)
    path = write_gaze_csv(tmp_path, [f"{essay_id},{reader_id},{i},{token},100,80,0,1,0"
                                     for essay_id in (1, 2) for reader_id in ("ra", "rb")
                                     for i, token in enumerate(tokens)])
    records, report = load_gaze_records(path)
    assert len(records) == 4 * len(tokens) > CHUNK_ROWS and report.rejected == []
    for column, values in ((records.reader_id, {"ra", "rb"}), (records.token, set(tokens))):
        assert set(column.tolist()) == values
        assert len({id(value) for value in column}) == len(values)


def test_a_reader_id_with_spaces_around_it_loads_stripped(tmp_path):
    path = write_gaze_csv(tmp_path, ["1, r1 ,0,the,100,80,0,1,0", "1,r1,1,cat,100,80,0,1,0",
                                     "1,\tr2 ,0,dog,100,80,0,1,0"])
    records, report = load_gaze_records(path)
    assert report.rejected == []
    assert records.reader_id.tolist() == ["r1", "r1", "r2"]
    assert records.reader_id[0] is records.reader_id[1]


def test_records_and_bins_declare_their_columns():
    assert GAZE_CSV_COLUMNS == GazeRecord._fields
    assert [name.removesuffix("_bin") for name in BinnedGaze._fields] == [
        attribute.lower() for attribute in GAZE_ATTRIBUTES]


def test_load_gaze_records_requires_columns(tmp_path):
    path = tmp_path / "gaze.csv"
    path.write_text("essay_id,reader_id\n1,r1\n")
    with pytest.raises(ValueError, match="missing gaze CSV columns"):
        load_gaze_records(path)


def test_load_gaze_records_without_header_holds_no_rows(tmp_path):
    path = tmp_path / "gaze.csv"
    path.write_text("")
    records, report = load_gaze_records(path)
    assert len(records) == 0 and report == GazeLoadReport()


def test_a_row_that_ends_before_its_token_is_rejected(tmp_path):
    # with the token last, a row one cell short loaded with the token 'None'
    path = tmp_path / "gaze.csv"
    path.write_text("essay_id,reader_id,ia_index,dwell_time_ms,first_fixation_ms,"
                    "is_regression,run_count,skip,token\n"
                    "9000,r1,0,100,80,0,1,0\n9000,r1,1,100,80,0,1,0,cat\n9000,r1,2,100,80,0,1,0,\n")
    records, report = load_gaze_records(path)
    assert list(records.rows()) == [(9000, "r1", 1, "cat", 100.0, 80.0, 0, 1, 0),
                                    (9000, "r1", 2, "", 100.0, 80.0, 0, 1, 0)]
    assert report.rejected == [(2, "malformed field: the row ends before its token")]


def test_a_blank_reader_id_is_rejected(tmp_path):
    # it loaded as a reader named '', whose rows took statistics of their own
    path = write_gaze_csv(tmp_path, ["9000,r1,0,the,100,80,0,1,0", "9000, ,1,cat,100,80,0,1,0",
                                     "9000,,2,sat,100,80,0,1,0"])
    records, report = load_gaze_records(path)
    assert list(records.rows()) == [(9000, "r1", 0, "the", 100.0, 80.0, 0, 1, 0)]
    assert report.rejected == [(3, "malformed field: reader_id is blank"),
                               (4, "malformed field: reader_id is blank")]


def test_load_reader_metadata(tmp_path):
    path = tmp_path / "readers.csv"
    path.write_text("reader_id,native,age\nr1,1,30\nr2,0,24\nr3,true,41\n r4 ,YES,19\n")
    readers = load_reader_metadata(path)
    assert readers == frozenset({"r1", "r3", "r4"})
    records = table([record(reader=rid) for rid in ("r1", "r2", "r3")])
    kept = filter_readers(records, readers)
    assert kept.reader_id.tolist() == ["r1", "r3"]


def test_load_reader_metadata_missing_column(tmp_path):
    path = tmp_path / "readers.csv"
    path.write_text("reader_id,handedness\nr1,left\n")
    with pytest.raises(ValueError, match="native"):
        load_reader_metadata(path)


# ---------------------------------------------------------------------------
# reader statistics
# ---------------------------------------------------------------------------

def test_reader_stats_constant_series():
    stats = stats_of(table([record(dt=100, ffd=100, ia=i, rc=1) for i in range(3)]))
    assert stats["r1"].dt_mean == 100.0
    assert stats["r1"].dt_std == 0.0
    assert stats["r1"].n_records == 3


def test_reader_stats_population_deviation():
    # DT = [0, 200]: population sigma is 100, not the sample value 141.4
    recs = [record(dt=0.0, ffd=0.0, rc=0, ia=0), record(dt=200.0, ffd=150.0, ia=1)]
    stats = stats_of(table(recs))
    assert stats["r1"].dt_mean == 100.0
    assert stats["r1"].dt_std == 100.0
    assert stats["r1"].ffd_mean == 75.0


def test_reader_stats_partition_by_reader():
    recs = [record(reader="a", dt=10, ffd=10), record(reader="b", dt=1000, ffd=900)]
    stats = stats_of(table(recs))
    assert set(stats) == {"a", "b"}
    assert stats["a"].dt_mean == 10.0
    assert stats["b"].dt_mean == 1000.0


def test_reader_stats_read_the_first_row_of_each_token():
    # a later row for the same (essay, reader, token) is a duplicate bin_all
    # skips; the same token of another essay or reader is not
    recs = [record(dt=0.0, ia=0), record(dt=200.0, ia=1), record(essay_id=2, dt=50.0, ia=1),
            record(reader="r2", dt=80.0, ia=1)]
    stats = stats_of(table(recs + [record(dt=900.0, ffd=700.0, ia=1), recs[0]]))
    assert stats == stats_of(table(recs))
    assert stats["r1"].n_records == 3 and stats["r1"].dt_mean == 250.0 / 3


def test_reader_stats_read_only_the_rows_bin_all_can_place():
    # a row for a missing essay or for a token beyond its essay's end moves
    # no statistic, and a reader left with none counts none
    essays = {1: essay_with_tokens(1, 3), 2: essay_with_tokens(2, 2)}
    recs = [record(dt=100.0, ffd=90.0, ia=0), record(dt=300.0, ffd=200.0, ia=2),
            record(essay_id=2, dt=60.0, ffd=60.0, ia=1)]
    unplaceable = [record(dt=5000.0, ffd=4000.0, ia=3), record(essay_id=9, dt=7.0, ffd=7.0),
                   record(essay_id=2, dt=900.0, ffd=800.0, ia=2),
                   record(reader="r2", ia=5), record(reader="r2", essay_id=9)]
    stats = reader_stats(table(recs + unplaceable), essays)
    assert stats["r1"] == reader_stats(table(recs), essays)["r1"]
    assert stats["r1"].n_records == 3 and stats["r1"].provenance == frozenset({1, 2})
    assert stats["r2"] == gaze.ReaderStats("r2", 0.0, 0.0, 0.0, 0.0, 0)
    assert list(reader_stats(table(unplaceable), essays)) == ["r1", "r2"]


def test_an_unplaceable_row_leaves_the_bins_as_they_were():
    essays = {1: essay_with_tokens(1, 3)}
    clean = table([record(dt=100.0, ffd=90.0, ia=0), record(dt=300.0, ffd=200.0, ia=2),
                   record(dt=140.0, ffd=100.0, ia=1)])
    noisy = table(records_of(clean) + [record(dt=5000.0, ffd=4000.0, ia=7)])
    expected, _ = bin_all(clean, reader_stats(clean, essays), essays)
    binned, diagnostics = bin_all(noisy, reader_stats(noisy, essays), essays)
    assert diagnostics == ["essay 1, reader r1: ia_index 7 out of range for 3 tokens"]
    assert gaze_lists(binned[1], 3) == gaze_lists(expected[1], 3)


def test_statistics_over_no_row_place_no_row():
    # a reader whose statistics count no record (every row it had, here on
    # the train side, was unplaceable) places none of its rows elsewhere
    essays = {1: essay_with_tokens(1, 3), 2: essay_with_tokens(2, 3)}
    train, dev = table([record(ia=5)]), table([record(essay_id=2, ia=0), record(essay_id=2, ia=4)])
    stats = reader_stats(train, essays)
    assert stats["r1"].n_records == 0
    sequences, diagnostics = bin_all(dev, stats, essays)
    assert sequences == {}
    assert diagnostics == ["essay 2: no statistics for reader r1",
                           "essay 2, reader r1: ia_index 4 out of range for 3 tokens"]


def test_reader_stats_provenance_tracks_essays():
    recs = [record(essay_id=5), record(essay_id=9, ia=1)]
    assert stats_of(table(recs))["r1"].provenance == frozenset({5, 9})


# ---------------------------------------------------------------------------
# fixation binning
# ---------------------------------------------------------------------------

def test_bin_fixation_zero_is_bin_zero():
    assert bin_fixation(0.0, 100.0, 40.0) == 0
    assert bin_fixation(0.0, 0.0, 0.0) == 0


def test_bin_fixation_mean_lands_in_middle_bin():
    assert bin_fixation(100.0, 100.0, 40.0) == 3


def test_bin_fixation_derived_boundaries():
    # mu = 100, sigma = 40: boundaries at 60, 80, 120, 140
    assert bin_fixation(141.0, 100.0, 40.0) == 5
    assert bin_fixation(140.0, 100.0, 40.0) == 4
    assert bin_fixation(59.0, 100.0, 40.0) == 1
    assert bin_fixation(60.0, 100.0, 40.0) == 1
    assert bin_fixation(61.0, 100.0, 40.0) == 2
    assert bin_fixation(80.0, 100.0, 40.0) == 2
    assert bin_fixation(81.0, 100.0, 40.0) == 3
    assert bin_fixation(120.0, 100.0, 40.0) == 3
    assert bin_fixation(121.0, 100.0, 40.0) == 4


def test_bin_fixation_zero_sigma_collapse():
    assert bin_fixation(100.0, 100.0, 0.0) == 3
    assert bin_fixation(99.0, 100.0, 0.0) == 1
    assert bin_fixation(101.0, 100.0, 0.0) == 5


def test_bin_fixation_negative_lower_boundary():
    # mu - sigma < 0 makes bin 1 unreachable for this reader
    assert bin_fixation(1.0, 10.0, 40.0) == 3
    assert bin_fixation(25.0, 10.0, 40.0) == 3
    assert bin_fixation(35.0, 10.0, 40.0) == 4
    assert bin_fixation(51.0, 10.0, 40.0) == 5


def test_bin_fixation_rejects_negative():
    with pytest.raises(ValueError):
        bin_fixation(-1.0, 100.0, 40.0)
    with pytest.raises(ValueError):
        bin_fixation(1.0, 100.0, -40.0)


@given(
    st.floats(0, 500),
    st.floats(0, 300),
    st.floats(0.001, 200),
)
@settings(max_examples=300, deadline=None)
def test_bin_fixation_cases_partition(fv, mu, sigma):
    # the six written cases cover [0, inf) exactly once for sigma > 0;
    # the FV = 0 case is carved out before the interval cases apply
    cases = [
        fv == 0,
        0 < fv <= mu - sigma,
        fv > 0 and mu - sigma < fv <= mu - 0.5 * sigma,
        fv > 0 and mu - 0.5 * sigma < fv <= mu + 0.5 * sigma,
        fv > 0 and mu + 0.5 * sigma < fv <= mu + sigma,
        fv > 0 and fv > mu + sigma,
    ]
    assert sum(cases) == 1
    assert bin_fixation(fv, mu, sigma) == cases.index(True)


@given(
    st.floats(0, 500), st.floats(0, 500),
    st.floats(0, 300), st.floats(0, 200),
)
@settings(max_examples=300, deadline=None)
def test_bin_fixation_monotone(fv1, fv2, mu, sigma):
    lo, hi = sorted([fv1, fv2])
    assert bin_fixation(lo, mu, sigma) <= bin_fixation(hi, mu, sigma)


# ---------------------------------------------------------------------------
# run count and record binning
# ---------------------------------------------------------------------------

def test_bin_run_count_values():
    assert bin_run_count(0) == 0
    assert bin_run_count(4) == 4
    assert bin_run_count(5) == 5
    assert bin_run_count(7) == 5
    with pytest.raises(ValueError):
        bin_run_count(-1)


@pytest.mark.parametrize("dt, ffd, value", [(-5.0, 80.0, -5.0), (100.0, -7.5, -7.5)])
def test_bin_all_rejects_a_hand_built_table_with_a_negative_fixation(dt, ffd, value):
    # the loader rejects such rows, but a GazeTable built by hand can hold them
    records = table([record(essay_id=2, reader="r2"), record(), record(ia=1, dt=dt, ffd=ffd)])
    stats = stats_of(table([record(), record(reader="r2")]))
    with pytest.raises(ValueError, match=f"^fixation value must be nonnegative, got {value}$"):
        bin_all(records, stats, {1: essay_with_tokens(1, 2), 2: essay_with_tokens(2, 1)})


def test_bin_all_skip_chain():
    records = table([record(dt=100, ffd=80), skip_record(ia=1)])
    essays = {1: essay_with_tokens(1, 2)}
    sequences, _ = bin_all(records, reader_stats(records, essays), essays)
    binned = gaze_lists(sequences[1], 2)["r1"][1]
    assert binned.skip_bin == 1
    assert binned.dt_bin == 0
    assert binned.ffd_bin == 0
    assert binned.rc_bin == 0


def training_targets(gaze):
    """prepare_example's gaze targets for a one-sentence essay read as ``gaze``."""
    n_tokens = max(len(sequence) for sequence in gaze.values())
    essay = replace(essay_with_tokens(1, n_tokens), gaze=gaze)
    return prepare_example(essay, build_vocab([essay])).gaze_targets


def test_bin_all_regression_unit_target():
    records = table([record(ir=1)])
    essays = {1: essay_with_tokens(1, 1)}
    sequences, _ = bin_all(records, reader_stats(records, essays), essays)
    (binned,) = gaze_lists(sequences[1], 1)["r1"]
    assert binned.ir_bin == 1
    positions, values = training_targets({"r1": [binned]})["IR"]
    assert positions.tolist() == [0]
    assert values.tolist() == [1.0]


def test_unit_target_is_bin_over_max():
    first = BinnedGaze(dt_bin=3, ffd_bin=5, ir_bin=0, rc_bin=2, skip_bin=1)
    second = BinnedGaze(dt_bin=1, ffd_bin=0, ir_bin=1, rc_bin=5, skip_bin=0)
    # readers in sorted order, then positions; unlabeled tokens give no target
    targets = training_targets({"r2": [None, second], "r1": [first, None, second]})
    assert tuple(targets) == GAZE_ATTRIBUTES
    (positions,) = {id(p): p for p, _ in targets.values()}.values()
    assert positions.tolist() == [0, 2, 1] and not positions.flags.writeable
    bins = {"DT": [3, 1, 1], "FFD": [5, 0, 0], "IR": [0, 1, 1], "RC": [2, 5, 5],
            "Skip": [1, 0, 0]}
    for attribute, (_, values) in targets.items():
        assert values.dtype == np.float64
        assert values.tolist() == [b / GAZE_MAX_BIN[attribute] for b in bins[attribute]]


# ---------------------------------------------------------------------------
# alignment
# ---------------------------------------------------------------------------

def test_bin_all_aligns_and_masks():
    essays = {1: essay_with_tokens(1, 4)}
    recs = [record(ia=0, dt=100, ffd=90), record(ia=2, dt=300, ffd=200, rc=2)]
    stats = reader_stats(table(recs), essays)
    sequences, diagnostics = bin_all(table(recs), stats, essays)
    assert diagnostics == []
    seq = gaze_lists(sequences[1], 4)["r1"]
    assert len(seq) == 4
    assert seq[0] is not None and seq[2] is not None
    assert seq[1] is None and seq[3] is None


def test_bin_all_rejects_out_of_range_index():
    essays = {1: essay_with_tokens(1, 2)}
    recs = table([record(ia=5)])
    sequences, diagnostics = bin_all(recs, reader_stats(recs, essays), essays)
    assert sequences == {}
    assert "out of range" in diagnostics[0]


def test_bin_all_rejects_duplicates_and_unknowns():
    essays = {1: essay_with_tokens(1, 3)}
    recs = table([record(ia=0), record(ia=0), record(essay_id=9, ia=0)])
    sequences, diagnostics = bin_all(recs, reader_stats(recs, essays), essays)
    assert len(diagnostics) == 2
    assert any("duplicate" in d for d in diagnostics)
    assert any("no such essay" in d for d in diagnostics)
    assert gaze_lists(sequences[1], 3)["r1"][0] is not None


def test_bin_all_per_reader_isolation():
    # changing another reader's records must not move this reader's bins
    essays = {1: essay_with_tokens(1, 2)}
    mine = [record(reader="a", ia=0, dt=100, ffd=90),
            record(reader="a", ia=1, dt=300, ffd=250, rc=3)]
    other_v1 = [record(reader="b", ia=0, dt=10, ffd=10)]
    other_v2 = [record(reader="b", ia=0, dt=5000, ffd=4000, rc=4)]
    first, second = table(mine + other_v1), table(mine + other_v2)
    seq1 = gaze_lists(bin_all(first, reader_stats(first, essays), essays)[0][1], 2)
    seq2 = gaze_lists(bin_all(second, reader_stats(second, essays), essays)[0][1], 2)
    assert seq1["a"] == seq2["a"]
    assert seq1["b"] != seq2["b"]



# ---------------------------------------------------------------------------
# differential tests: the column code against the row-at-a-time code it replaced
# ---------------------------------------------------------------------------

def reference_token(text):
    """A token cell's text; a row too short to reach it is malformed."""
    if text is None:
        raise TypeError("the row ends before its token")
    return text


def reference_reader_id(text):
    """A reader id cell's text, stripped; a blank one is malformed."""
    if not str.strip(text):
        raise ValueError("reader_id is blank")
    return text.strip()


_REFERENCE_PARSERS = {**get_type_hints(GazeRecord), "reader_id": reference_reader_id,
                      "token": reference_token}
_INT64_RANGE = range(-2**63, 2**63)


def reference_parse(column, text):
    value = _REFERENCE_PARSERS[column](text)
    # integers that do not fit in int64 are malformed, where the old loader kept them
    if _REFERENCE_PARSERS[column] is int and value not in _INT64_RANGE:
        raise ValueError(f"{column} {value} is outside the int64 range")
    return value


def reference_problem(r):
    """The per-record validation the loader's ordered masks replaced."""
    if r.ia_index < 0:
        return f"ia_index {r.ia_index} is negative"
    if r.dwell_time_ms < 0 or r.first_fixation_ms < 0:
        return "negative fixation duration"
    if not (math.isfinite(r.dwell_time_ms) and math.isfinite(r.first_fixation_ms)):
        return "non-finite fixation duration"
    if r.dwell_time_ms > 3_600_000 or r.first_fixation_ms > 3_600_000:
        return "fixation duration above one hour"
    if r.run_count < 0:
        return f"run_count {r.run_count} is negative"
    if r.is_regression not in (0, 1):
        return f"is_regression must be 0 or 1, got {r.is_regression}"
    if r.skip not in (0, 1):
        return f"skip must be 0 or 1, got {r.skip}"
    if r.first_fixation_ms > r.dwell_time_ms:
        return f"first fixation {r.first_fixation_ms} exceeds dwell time {r.dwell_time_ms}"
    if r.skip == 1 and (r.dwell_time_ms != 0 or r.first_fixation_ms != 0 or r.run_count != 0):
        return "skipped token has nonzero fixation data"
    if r.run_count >= 1 and r.skip != 0:
        return "positive run count on a skipped token"
    return None


def reference_load(path):
    """The csv.DictReader loader: a parse per field, then a validation, per row."""
    records = []
    report = GazeLoadReport()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            return records, report
        missing = [c for c in GAZE_CSV_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise ValueError(f"{path}: missing gaze CSV columns: {', '.join(missing)}")
        for line_no, row in enumerate(reader, start=2):
            report.total_rows += 1
            try:
                record = GazeRecord(*[reference_parse(column, row[column])
                                      for column in GAZE_CSV_COLUMNS])
            except (ValueError, TypeError) as exc:
                report.rejected.append((line_no, f"malformed field: {exc}"))
                continue
            problem = reference_problem(record)
            if problem is not None:
                report.rejected.append((line_no, problem))
                continue
            records.append(record)
    return records, report


def _outcome(load, path):
    """(repr of the kept rows as plain tuples, the report), or the ValueError's text."""
    try:
        records, report = load(path)
    except ValueError as error:
        return str(error)
    rows = records.rows() if isinstance(records, GazeTable) else map(tuple, records)
    return repr(list(rows)), report


_WILD_INTS = st.sampled_from(
    ["-3", "2", "1_000", " 7 ", "+2", "1.0", "", "x", "9223372036854775807",
     "9223372036854775808", "-9223372036854775809", "100000000000000000000"])
_WILD_FLOATS = st.sampled_from(
    ["-1.5", "-0.0", "nan", "inf", "-inf", "1e308", "abc", "", " 5 ", "1_0.5"])
_TEXT = st.one_of(st.sampled_from(["r1", " r2 ", "the", "", "a,b", 'say "hi"', "two\nlines",
                                   "cr\rhere", " lead"]),
                  st.text(alphabet=',"\n ab', max_size=4))
_WILD = {"essay_id": _WILD_INTS, "ia_index": _WILD_INTS, "is_regression": _WILD_INTS,
         "run_count": _WILD_INTS, "skip": _WILD_INTS, "dwell_time_ms": _WILD_FLOATS,
         "first_fixation_ms": _WILD_FLOATS}


@st.composite
def gaze_cells(draw):
    """{column: cell text} of a valid record, a cell or two sometimes made wild."""
    skip = draw(st.integers(0, 4)) == 0
    ffd = 0.0 if skip else draw(st.floats(0, 300))
    dt = 0.0 if skip else ffd + draw(st.sampled_from([0.0, 0.5, 120.0, 1 / 3]))
    cells = {"essay_id": str(draw(st.integers(0, 3))), "reader_id": draw(_TEXT),
             "ia_index": draw(st.sampled_from(["0", "1", " 2", "+3", "4_0"])),
             "token": draw(_TEXT), "dwell_time_ms": draw(st.sampled_from([repr(dt), f"{dt:g}"])),
             "first_fixation_ms": repr(ffd), "is_regression": str(draw(st.integers(0, 1))),
             "run_count": "0" if skip else str(draw(st.integers(0, 7))),
             "skip": str(int(skip))}
    if draw(st.integers(0, 2)) == 0:
        column = draw(st.sampled_from(GAZE_CSV_COLUMNS))
        cells[column] = draw(_WILD.get(column, _TEXT))
    return cells


@st.composite
def gaze_csv_texts(draw):
    extras = draw(st.lists(st.sampled_from(["notes", "", *GAZE_CSV_COLUMNS]), max_size=3))
    columns = list(GAZE_CSV_COLUMNS)
    if draw(st.integers(0, 9)) == 0:
        columns.remove(draw(st.sampled_from(GAZE_CSV_COLUMNS)))
    header = draw(st.permutations(columns + extras))
    last = {column: index for index, column in enumerate(header) if column in GAZE_CSV_COLUMNS}
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 6)) == 0:
            rows.append([])  # a blank line
            continue
        cells = draw(gaze_cells())
        # the loaders read a repeated column's last copy; the others hold any text
        row = [cells[column] if last.get(column) == index else draw(_TEXT)
               for index, column in enumerate(header)]
        if draw(st.integers(0, 5)) == 0:
            row = row[:draw(st.integers(0, len(row)))]  # too short: the missing cells are no text
        elif draw(st.integers(0, 5)) == 0:
            row += ["spare"]
        rows.append(row)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    blank_first_line = draw(st.integers(0, 9)) == 0  # read as an empty header
    return ("\n" if blank_first_line else "") + buffer.getvalue()


@given(text=gaze_csv_texts(), chunk_rows=st.sampled_from([1, 2, 3, CHUNK_ROWS]))
@settings(max_examples=300, deadline=None)
def test_load_gaze_records_matches_the_row_loader(tmp_path_factory, text, chunk_rows):
    path = tmp_path_factory.getbasetemp() / "differential_gaze.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gaze, "CHUNK_ROWS", chunk_rows)
        assert _outcome(load_gaze_records, path) == _outcome(reference_load, path)


def test_load_gaze_records_rejects_integers_outside_int64(tmp_path):
    path = write_gaze_csv(tmp_path, [
        "100000000000000000000,r1,0,the,250,120,0,2,0",
        "1,r1,100000000000000000000,the,250,120,0,2,0",
        "1,r1,0,the,250,120,0,100000000000000000000,0",
        "1,r1,0,the,250,120,0,-9223372036854775809,0",
        "9223372036854775807,r1,9223372036854775807,the,250,120,0,9223372036854775807,0",
    ])
    records, report = load_gaze_records(path)
    assert report.rejected == [
        (2, "malformed field: essay_id 100000000000000000000 is outside the int64 range"),
        (3, "malformed field: ia_index 100000000000000000000 is outside the int64 range"),
        (4, "malformed field: run_count 100000000000000000000 is outside the int64 range"),
        (5, "malformed field: run_count -9223372036854775809 is outside the int64 range"),
    ]
    assert records.essay_id.dtype == records.run_count.dtype == np.int64
    assert records.run_count.tolist() == [2**63 - 1]


def reference_bin_fixation(fv, mu, sigma):
    """The scalar six-case binning that bin_fixation generalised to arrays."""
    if fv == 0:
        return 0
    if sigma == 0:
        return 1 if fv < mu else 3 if fv == mu else 5
    if fv <= mu - sigma:
        return 1
    if fv <= mu - 0.5 * sigma:
        return 2
    if fv <= mu + 0.5 * sigma:
        return 3
    if fv <= mu + sigma:
        return 4
    return 5


def reference_reader_stats(records, essays):
    by_reader, seen = {}, set()
    for r in records:
        recs = by_reader.setdefault(r.reader_id, [])
        if r.essay_id not in essays or r.ia_index >= len(essays[r.essay_id].tokens):
            continue  # a row bin_all cannot place
        if (r.essay_id, r.reader_id, r.ia_index) not in seen:  # else a duplicate bin_all logs
            seen.add((r.essay_id, r.reader_id, r.ia_index))
            recs.append(r)
    return {reader_id: gaze.ReaderStats(reader_id, 0.0, 0.0, 0.0, 0.0, 0) if not recs
            else gaze.ReaderStats(
        reader_id=reader_id,
        dt_mean=float(np.array([r.dwell_time_ms for r in recs]).mean()),
        dt_std=float(np.array([r.dwell_time_ms for r in recs]).std()),
        ffd_mean=float(np.array([r.first_fixation_ms for r in recs]).mean()),
        ffd_std=float(np.array([r.first_fixation_ms for r in recs]).std()),
        n_records=len(recs),
        provenance=frozenset(r.essay_id for r in recs)) for reader_id, recs in by_reader.items()}


def reference_bin_record(r, stats):
    return BinnedGaze(
        dt_bin=reference_bin_fixation(r.dwell_time_ms, stats.dt_mean, stats.dt_std),
        ffd_bin=reference_bin_fixation(r.first_fixation_ms, stats.ffd_mean, stats.ffd_std),
        ir_bin=int(r.is_regression), rc_bin=min(int(r.run_count), 5), skip_bin=int(r.skip))


def reference_bin_all(records, stats, essays):
    """The per-record binning loop that bin_all's column code replaced."""
    sequences, diagnostics = {}, []
    for r in records:
        essay = essays.get(r.essay_id)
        if essay is None:
            diagnostics.append(f"essay {r.essay_id}: no such essay for reader {r.reader_id}")
            continue
        if r.reader_id not in stats:
            diagnostics.append(f"essay {r.essay_id}: no statistics for reader {r.reader_id}")
            continue
        n_tokens = len(essay.tokens)
        if r.ia_index >= n_tokens:
            diagnostics.append(f"essay {r.essay_id}, reader {r.reader_id}: ia_index "
                               f"{r.ia_index} out of range for {n_tokens} tokens")
            continue
        seq = sequences.setdefault(r.essay_id, {}).setdefault(r.reader_id, [None] * n_tokens)
        if seq[r.ia_index] is not None:
            diagnostics.append(f"essay {r.essay_id}, reader {r.reader_id}: duplicate "
                               f"record for token {r.ia_index}")
            continue
        seq[r.ia_index] = reference_bin_record(r, stats[r.reader_id])
    return sequences, diagnostics


_BIN_ESSAYS = {1: essay_with_tokens(1, 3), 2: essay_with_tokens(2, 6), 3: essay_with_tokens(3, 0)}

_BIN_RECORDS = st.lists(st.builds(
    record,
    essay_id=st.sampled_from([1, 2, 3, 9]),  # 3 has no tokens, 9 is no essay
    reader=st.sampled_from(["a", "b", "c"]),
    ia=st.integers(0, 7),
    dt=st.sampled_from([0.0, 60.0, 100.0, 100.0, 140.0, 0.1 + 0.2, 1e6]),
    ffd=st.sampled_from([0.0, 60.0, 80.0, 1 / 3]),
    ir=st.integers(0, 1), rc=st.integers(0, 9), skip=st.integers(0, 1)), max_size=40)


@given(records=_BIN_RECORDS, stats_readers=st.sets(st.sampled_from(["a", "b", "c"])))
@settings(max_examples=300, deadline=None)
def test_bin_all_matches_the_per_record_loop(records, stats_readers):
    # readers outside stats_readers have no statistics; one-record or constant
    # readers have sigma 0
    stats = reader_stats(table(records), _BIN_ESSAYS)
    assert stats == reference_reader_stats(records, _BIN_ESSAYS)
    stats = {reader_id: s for reader_id, s in stats.items() if reader_id in stats_readers}
    sequences, diagnostics = bin_all(table(records), stats, _BIN_ESSAYS)
    expected_sequences, expected_diagnostics = reference_bin_all(records, stats, _BIN_ESSAYS)
    assert diagnostics == expected_diagnostics
    # essays by id, and each essay's readers sorted
    assert list(sequences) == sorted(sequences)
    assert all(list(essay_gaze) == sorted(essay_gaze) for essay_gaze in sequences.values())
    # same entries holding the same Python ints, compared per essay and per reader
    lists = {e: gaze_lists(g, len(_BIN_ESSAYS[e].tokens)) for e, g in sequences.items()}
    assert repr(sorted((e, sorted(g.items())) for e, g in lists.items())) == repr(
        sorted((e, sorted(g.items())) for e, g in expected_sequences.items()))


# ---------------------------------------------------------------------------
# bin_all's arrays
# ---------------------------------------------------------------------------

def _binned_essays(records, stats_readers):
    stats = {reader_id: s for reader_id, s in reader_stats(table(records), _BIN_ESSAYS).items()
             if reader_id in stats_readers}
    sequences, _ = bin_all(table(records), stats, _BIN_ESSAYS)
    assert all(isinstance(essay_gaze, EssayGaze) for essay_gaze in sequences.values())
    return sequences


@given(records=_BIN_RECORDS, stats_readers=st.sets(st.sampled_from(["a", "b", "c"])))
@settings(max_examples=300, deadline=None)
def test_bin_all_arrays_hold_the_labeled_tokens(records, stats_readers):
    for essay_id, essay_gaze in _binned_essays(records, stats_readers).items():
        tokens = labeled(gaze_lists(essay_gaze, len(_BIN_ESSAYS[essay_id].tokens)))
        assert essay_gaze.reader_ids() == [reader_id for reader_id, _, _ in tokens]
        assert essay_gaze.positions.tolist() == [position for _, position, _ in tokens]
        assert essay_gaze.bins.tolist() == [list(binned) for _, _, binned in tokens]


@given(records=_BIN_RECORDS, stats_readers=st.sets(st.sampled_from(["a", "b", "c"])))
@settings(max_examples=200, deadline=None)
def test_gaze_targets_of_the_arrays_are_those_of_the_lists_bit_for_bit(records, stats_readers):
    for essay_id, essay_gaze in _binned_essays(records, stats_readers).items():
        from_arrays = gaze_targets(essay_gaze)
        from_lists = gaze_targets(gaze_lists(essay_gaze, len(_BIN_ESSAYS[essay_id].tokens)))
        assert tuple(from_arrays) == tuple(from_lists) == GAZE_ATTRIBUTES
        for attribute in GAZE_ATTRIBUTES:
            for got, expected in zip(from_arrays[attribute], from_lists[attribute], strict=True):
                assert (got.dtype, got.shape, got.tobytes()) == (
                    expected.dtype, expected.shape, expected.tobytes())
                assert not got.flags.writeable


def test_the_benchmark_gaze_pool_loads_and_bins_in_bounded_memory(benchmark_cv_files):
    # cv_run's 48 essays x 8 readers; the list form of each token's bins and a
    # str per cell peaked at 37.4 MB here
    files = benchmark_cv_files
    essays, _ = load_essays(files.essays, load_set_metadata(files.set_metadata))
    essays = {essay.essay_id: essay for essay in essays}
    gc.collect()
    tracemalloc.start()
    try:
        records, _ = load_gaze_records(files.gaze_csv)
        sequences, diagnostics = bin_all(records, reader_stats(records, essays), essays)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert diagnostics == [] and len(sequences) == 48
    print(f"[gaze memory] {peak / 1e6:.1f} MB peak to load and bin {len(records)} gaze rows")
    assert peak < 25e6
