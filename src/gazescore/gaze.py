"""Reader gaze ingestion, per-reader statistics, and target binning.

Five gaze attributes are tracked per interest area (one area per token):
dwell time (DT) and first fixation duration (FFD) in milliseconds, the
binary is-regression flag (IR), the run count (RC), and the binary skip
flag. Fixation durations are binned per reader against that reader's own
mean and population standard deviation, which normalizes idiosyncratic
reading speed across readers. Training divides each bin by the
attribute's ``GAZE_MAX_BIN`` so it can serve as a [0, 1] regression target
for a sigmoid head.

A ``GazeRecord`` (one row of the gaze CSV) and a ``BinnedGaze`` (one
token's bins) are named tuples: each declares its own column order, which
the CSV files, the loader and the training targets all read from it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import NamedTuple, get_type_hints

import numpy as np

GAZE_ATTRIBUTES = ("DT", "FFD", "IR", "RC", "Skip")
GAZE_MAX_BIN = {"DT": 5, "FFD": 5, "IR": 1, "RC": 5, "Skip": 1}

# named reader filters; any other filter is an explicit collection of reader ids
READER_FILTERS = ("all", "native_only")


class GazeRecord(NamedTuple):
    """One gaze CSV row; the fields are the CSV's columns, in order."""

    essay_id: int
    reader_id: str
    ia_index: int
    token: str
    dwell_time_ms: float
    first_fixation_ms: float
    is_regression: int
    run_count: int
    skip: int

    def validate(self):
        """Return a diagnostic string for the first violated invariant, else None."""
        if self.ia_index < 0:
            return f"ia_index {self.ia_index} is negative"
        if self.dwell_time_ms < 0 or self.first_fixation_ms < 0:
            return "negative fixation duration"
        if not (math.isfinite(self.dwell_time_ms) and math.isfinite(self.first_fixation_ms)):
            return "non-finite fixation duration"
        if self.run_count < 0:
            return f"run_count {self.run_count} is negative"
        if self.is_regression not in (0, 1):
            return f"is_regression must be 0 or 1, got {self.is_regression}"
        if self.skip not in (0, 1):
            return f"skip must be 0 or 1, got {self.skip}"
        if self.first_fixation_ms > self.dwell_time_ms:
            return (f"first fixation {self.first_fixation_ms} exceeds "
                    f"dwell time {self.dwell_time_ms}")
        if self.skip == 1 and (self.dwell_time_ms != 0 or self.first_fixation_ms != 0
                               or self.run_count != 0):
            return "skipped token has nonzero fixation data"
        if self.run_count >= 1 and self.skip != 0:
            return "positive run count on a skipped token"
        return None


GAZE_CSV_COLUMNS = GazeRecord._fields

# how each column's text becomes its field: by the field's type, reader ids stripped
_COLUMN_PARSERS = {**get_type_hints(GazeRecord), "reader_id": str.strip}


@dataclass(frozen=True)
class ReaderStats:
    reader_id: str
    dt_mean: float
    dt_std: float
    ffd_mean: float
    ffd_std: float
    n_records: int
    provenance: frozenset = frozenset()  # essay ids the stats were computed over


class BinnedGaze(NamedTuple):
    """One token's bins, fields in GAZE_ATTRIBUTES order."""

    dt_bin: int
    ffd_bin: int
    ir_bin: int
    rc_bin: int
    skip_bin: int


@dataclass
class GazeLoadReport:
    rejected: list = field(default_factory=list)  # (line_number, reason)
    total_rows: int = 0


def load_gaze_records(path):
    """Parse the gaze CSV into (records, GazeLoadReport).

    Rows violating the record invariants are rejected with per-row
    diagnostics; the rest of the file still loads. A file without a header
    line holds no rows.
    """
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
                record = GazeRecord(*[parse(row[column])
                                      for column, parse in _COLUMN_PARSERS.items()])
            except (ValueError, TypeError) as exc:
                report.rejected.append((line_no, f"malformed field: {exc}"))
                continue
            problem = record.validate()
            if problem is not None:
                report.rejected.append((line_no, problem))
                continue
            records.append(record)
    return records, report


def load_reader_metadata(path):
    """Reader metadata CSV with at least (reader_id, native) columns.

    Returns {reader_id: {"native": bool, ...extra columns as strings}}.
    """
    readers = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for required in ("reader_id", "native"):
            if required not in (reader.fieldnames or []):
                raise ValueError(f"{path}: missing column {required!r}")
        for row in reader:
            rid = row["reader_id"].strip()
            info = {k: v for k, v in row.items() if k not in ("reader_id", "native")}
            info["native"] = row["native"].strip().lower() in ("1", "true", "yes")
            readers[rid] = info
    return readers


def filter_readers(records, reader_filter, reader_metadata):
    """The records of the readers ``reader_filter`` selects.

    ``reader_filter`` is ``"all"``, ``"native_only"`` (the readers that
    ``reader_metadata`` marks native; an error when it marks none) or a
    non-string collection of reader ids.
    """
    if reader_filter == "all":
        return list(records)
    if reader_filter == "native_only":
        allowed = {rid for rid, info in reader_metadata.items() if info.get("native")}
        if not allowed:
            raise ValueError("reader_filter native_only needs reader metadata "
                             "with at least one native reader")
    elif isinstance(reader_filter, str):
        raise ValueError(f"reader_filter must be one of {READER_FILTERS} "
                         f"or a collection of reader ids, got {reader_filter!r}")
    else:
        allowed = set(reader_filter)
    return [r for r in records if r.reader_id in allowed]


def reader_stats(records):
    """Per-reader population mean and std of DT and FFD over all records."""
    by_reader = {}
    for record in records:
        by_reader.setdefault(record.reader_id, []).append(record)
    stats = {}
    for reader_id, recs in by_reader.items():
        dt = np.array([r.dwell_time_ms for r in recs], dtype=np.float64)
        ffd = np.array([r.first_fixation_ms for r in recs], dtype=np.float64)
        stats[reader_id] = ReaderStats(
            reader_id=reader_id,
            dt_mean=float(dt.mean()),
            dt_std=float(dt.std()),
            ffd_mean=float(ffd.mean()),
            ffd_std=float(ffd.std()),
            n_records=len(recs),
            provenance=frozenset(r.essay_id for r in recs),
        )
    return stats


def bin_fixation(fv, mu, sigma):
    """Six-case fixation binning against a reader's mean and deviation.

    0 if FV = 0
    1 if 0 < FV <= mu - sigma
    2 if mu - sigma < FV <= mu - 0.5 sigma
    3 if mu - 0.5 sigma < FV <= mu + 0.5 sigma
    4 if mu + 0.5 sigma < FV <= mu + sigma
    5 if FV > mu + sigma

    With sigma = 0 the middle intervals collapse; the value at exactly mu
    stays in the central bin, anything below lands in bin 1 and anything
    above in bin 5.
    """
    if fv < 0:
        raise ValueError(f"fixation value must be nonnegative, got {fv}")
    if sigma < 0:
        raise ValueError(f"standard deviation must be nonnegative, got {sigma}")
    if fv == 0:
        return 0
    if sigma == 0:
        if fv < mu:
            return 1
        if fv == mu:
            return 3
        return 5
    if fv <= mu - sigma:
        return 1
    if fv <= mu - 0.5 * sigma:
        return 2
    if fv <= mu + 0.5 * sigma:
        return 3
    if fv <= mu + sigma:
        return 4
    return 5


def bin_run_count(rc):
    """Run-count bins 0 through 4 are the count itself; 5 collects the rest."""
    if rc < 0:
        raise ValueError(f"run count must be nonnegative, got {rc}")
    return min(int(rc), 5)


def bin_record(record, stats):
    """BinnedGaze for one record using its reader's statistics."""
    return BinnedGaze(
        dt_bin=bin_fixation(record.dwell_time_ms, stats.dt_mean, stats.dt_std),
        ffd_bin=bin_fixation(record.first_fixation_ms, stats.ffd_mean, stats.ffd_std),
        ir_bin=int(record.is_regression),
        rc_bin=bin_run_count(record.run_count),
        skip_bin=int(record.skip),
    )


def bin_all(records, stats, essays):
    """Binned gaze sequences aligned to essay tokens.

    ``essays`` maps essay_id to an Essay (token counts come from there).
    Returns ({essay_id: {reader_id: [BinnedGaze or None per token]}},
    diagnostics). Tokens with no record for a reader stay None and are
    excluded from the gaze loss mask downstream. Records addressing a
    missing essay, an out-of-range token, an unknown reader, or a position
    already filled get one diagnostic each; every other record is placed.
    """
    sequences = {}
    diagnostics = []
    token_counts = {}
    for record in records:
        essay = essays.get(record.essay_id)
        if essay is None:
            diagnostics.append(
                f"essay {record.essay_id}: no such essay for reader {record.reader_id}")
            continue
        if record.reader_id not in stats:
            diagnostics.append(
                f"essay {record.essay_id}: no statistics for reader {record.reader_id}")
            continue
        n_tokens = token_counts.get(record.essay_id)
        if n_tokens is None:
            n_tokens = token_counts[record.essay_id] = len(essay.tokens)
        if record.ia_index >= n_tokens:
            diagnostics.append(
                f"essay {record.essay_id}, reader {record.reader_id}: ia_index "
                f"{record.ia_index} out of range for {n_tokens} tokens")
            continue
        gaze = sequences.setdefault(record.essay_id, {})
        seq = gaze.get(record.reader_id)
        if seq is None:
            seq = gaze[record.reader_id] = [None] * n_tokens
        if seq[record.ia_index] is not None:
            diagnostics.append(
                f"essay {record.essay_id}, reader {record.reader_id}: duplicate "
                f"record for token {record.ia_index}")
            continue
        seq[record.ia_index] = bin_record(record, stats[record.reader_id])
    return sequences, diagnostics


def labeled(gaze):
    """(reader_id, position, BinnedGaze) of every labeled token of an essay's
    {reader_id: [BinnedGaze or None per token]}: readers sorted, then positions."""
    return [(reader_id, position, binned) for reader_id in sorted(gaze)
            for position, binned in enumerate(gaze[reader_id]) if binned is not None]


def gaze_targets(gaze):
    """An essay's per-token gaze targets, from {reader_id: [BinnedGaze or None per token]}.

    Returns {attribute: (token index array, unit target array)}, empty when
    no token is labeled. The arrays depend on no vocabulary, so examples of
    several cells may share them; all of them are read-only.
    """
    tokens = labeled(gaze)
    if not tokens:
        return {}
    positions = np.array([token[1] for token in tokens], dtype=np.int64)
    positions.flags.writeable = False
    # one column per attribute, in GAZE_ATTRIBUTES order
    bins = np.array([tuple(token[2]) for token in tokens], dtype=np.int64)
    targets = {}
    for k, attribute in enumerate(GAZE_ATTRIBUTES):
        values = bins[:, k] / GAZE_MAX_BIN[attribute]
        values.flags.writeable = False
        targets[attribute] = (positions, values)
    return targets
