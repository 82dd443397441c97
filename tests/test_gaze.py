"""Gaze binning, reader statistics, and alignment tests."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazescore.corpus import Essay, build_vocab
from gazescore.gaze import (
    GAZE_ATTRIBUTES,
    GAZE_CSV_COLUMNS,
    GAZE_MAX_BIN,
    BinnedGaze,
    GazeLoadReport,
    GazeRecord,
    bin_all,
    bin_fixation,
    bin_record,
    bin_run_count,
    filter_readers,
    load_gaze_records,
    load_reader_metadata,
    reader_stats,
)
from gazescore.training import prepare_example


def record(essay_id=1, reader="r1", ia=0, dt=100.0, ffd=80.0, ir=0, rc=1, skip=0):
    return GazeRecord(
        essay_id=essay_id, reader_id=reader, ia_index=ia, token="tok",
        dwell_time_ms=dt, first_fixation_ms=ffd, is_regression=ir,
        run_count=rc, skip=skip)


def skip_record(essay_id=1, reader="r1", ia=0):
    return record(essay_id, reader, ia, dt=0.0, ffd=0.0, ir=0, rc=0, skip=1)


def essay_with_tokens(essay_id, n_tokens):
    return Essay(
        essay_id=essay_id, set_id=3,
        sentences=[[f"w{i}" for i in range(n_tokens)]],
        raw_score=1, normalized_score=1 / 3)


# ---------------------------------------------------------------------------
# record invariants and loading
# ---------------------------------------------------------------------------

def test_record_validation_catches_violations():
    assert record().validate() is None
    assert skip_record().validate() is None
    assert "exceeds" in record(dt=50.0, ffd=80.0).validate()
    assert "skipped" in record(dt=10.0, ffd=5.0, rc=0, skip=1).validate()
    assert "skipped" in record(dt=0.0, ffd=0.0, rc=2, skip=1).validate()
    assert "negative" in record(dt=-1.0, ffd=-1.0).validate()
    assert record(ir=2).validate() is not None
    assert record(ia=-1).validate() is not None


def write_gaze_csv(tmp_path, rows):
    header = "essay_id,reader_id,ia_index,token,dwell_time_ms,first_fixation_ms,is_regression,run_count,skip"
    path = tmp_path / "gaze.csv"
    path.write_text("\n".join([header] + rows) + "\n")
    return path


def test_load_gaze_records_round_trip(tmp_path):
    path = write_gaze_csv(tmp_path, [
        "1,r1,0,the,250,120,0,2,0",
        "1,r1,1,cat,0,0,0,0,1",
        "2,r2,0,dog,90,90,1,1,0",
    ])
    records, report = load_gaze_records(path)
    assert len(records) == 3 and report.rejected == []
    assert records[0].dwell_time_ms == 250.0
    assert records[1].skip == 1
    assert records[2].is_regression == 1


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
    assert load_gaze_records(path) == ([], GazeLoadReport())


def test_load_reader_metadata(tmp_path):
    path = tmp_path / "readers.csv"
    path.write_text("reader_id,native,age\nr1,1,30\nr2,0,24\nr3,true,41\n")
    readers = load_reader_metadata(path)
    assert readers["r1"]["native"] is True
    assert readers["r2"]["native"] is False
    assert readers["r3"]["native"] is True
    assert readers["r1"]["age"] == "30"
    records = [record(reader=rid) for rid in ("r1", "r2", "r3")]
    kept = filter_readers(records, "native_only", readers)
    assert [r.reader_id for r in kept] == ["r1", "r3"]


def test_load_reader_metadata_missing_column(tmp_path):
    path = tmp_path / "readers.csv"
    path.write_text("reader_id,handedness\nr1,left\n")
    with pytest.raises(ValueError, match="native"):
        load_reader_metadata(path)


# ---------------------------------------------------------------------------
# reader statistics
# ---------------------------------------------------------------------------

def test_reader_stats_constant_series():
    stats = reader_stats([record(dt=100, ffd=100, ia=i, rc=1) for i in range(3)])
    assert stats["r1"].dt_mean == 100.0
    assert stats["r1"].dt_std == 0.0
    assert stats["r1"].n_records == 3


def test_reader_stats_population_deviation():
    # DT = [0, 200]: population sigma is 100, not the sample value 141.4
    recs = [record(dt=0.0, ffd=0.0, rc=0, ia=0), record(dt=200.0, ffd=150.0, ia=1)]
    stats = reader_stats(recs)
    assert stats["r1"].dt_mean == 100.0
    assert stats["r1"].dt_std == 100.0
    assert stats["r1"].ffd_mean == 75.0


def test_reader_stats_partition_by_reader():
    recs = [record(reader="a", dt=10, ffd=10), record(reader="b", dt=1000, ffd=900)]
    stats = reader_stats(recs)
    assert set(stats) == {"a", "b"}
    assert stats["a"].dt_mean == 10.0
    assert stats["b"].dt_mean == 1000.0


def test_reader_stats_provenance_tracks_essays():
    recs = [record(essay_id=5), record(essay_id=9, ia=1)]
    assert reader_stats(recs)["r1"].provenance == frozenset({5, 9})


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


def test_bin_record_skip_chain():
    stats = reader_stats([record(dt=100, ffd=80), skip_record(ia=1)])["r1"]
    binned = bin_record(skip_record(), stats)
    assert binned.skip_bin == 1
    assert binned.dt_bin == 0
    assert binned.ffd_bin == 0
    assert binned.rc_bin == 0


def training_targets(gaze):
    """prepare_example's gaze targets for a one-sentence essay read as ``gaze``."""
    n_tokens = max(len(sequence) for sequence in gaze.values())
    essay = replace(essay_with_tokens(1, n_tokens), gaze=gaze)
    return prepare_example(essay, build_vocab([essay])).gaze_targets


def test_bin_record_regression_unit_target():
    stats = reader_stats([record(ir=1)])["r1"]
    binned = bin_record(record(ir=1), stats)
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
    stats = reader_stats(recs)
    sequences, diagnostics = bin_all(recs, stats, essays)
    assert diagnostics == []
    seq = sequences[1]["r1"]
    assert len(seq) == 4
    assert seq[0] is not None and seq[2] is not None
    assert seq[1] is None and seq[3] is None


def test_bin_all_rejects_out_of_range_index():
    essays = {1: essay_with_tokens(1, 2)}
    recs = [record(ia=5)]
    sequences, diagnostics = bin_all(recs, reader_stats(recs), essays)
    assert sequences == {}
    assert "out of range" in diagnostics[0]


def test_bin_all_rejects_duplicates_and_unknowns():
    essays = {1: essay_with_tokens(1, 3)}
    recs = [record(ia=0), record(ia=0), record(essay_id=9, ia=0)]
    sequences, diagnostics = bin_all(recs, reader_stats(recs), essays)
    assert len(diagnostics) == 2
    assert any("duplicate" in d for d in diagnostics)
    assert any("no such essay" in d for d in diagnostics)
    assert sequences[1]["r1"][0] is not None


def test_bin_all_per_reader_isolation():
    # changing another reader's records must not move this reader's bins
    essays = {1: essay_with_tokens(1, 2)}
    mine = [record(reader="a", ia=0, dt=100, ffd=90),
            record(reader="a", ia=1, dt=300, ffd=250, rc=3)]
    other_v1 = [record(reader="b", ia=0, dt=10, ffd=10)]
    other_v2 = [record(reader="b", ia=0, dt=5000, ffd=4000, rc=4)]
    seq1, _ = bin_all(mine + other_v1, reader_stats(mine + other_v1), essays)
    seq2, _ = bin_all(mine + other_v2, reader_stats(mine + other_v2), essays)
    assert seq1[1]["a"] == seq2[1]["a"]
    assert seq1[1]["b"] != seq2[1]["b"]

