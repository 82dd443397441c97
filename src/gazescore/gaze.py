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
the CSV files, the loader and the training targets all read from it. A
``GazeTable`` holds many gaze rows as one numpy column per ``GazeRecord``
field; loading, reader filters, statistics and binning all work on whole
columns.
"""

from __future__ import annotations

import csv
import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter
from typing import NamedTuple, get_type_hints

import numpy as np

GAZE_ATTRIBUTES = ("DT", "FFD", "IR", "RC", "Skip")
GAZE_MAX_BIN = {"DT": 5, "FFD": 5, "IR": 1, "RC": 5, "Skip": 1}

# named reader filters; any other filter is an explicit collection of reader ids
READER_FILTERS = ("all", "native_only")

# rows parsed at a time: a chunk's cells live as Python objects only until
# its columns are built, which bounds the loader's peak memory
CHUNK_ROWS = 4096


@contextmanager
def collector_paused():
    """Pause the cyclic garbage collector for a block that makes many acyclic
    objects, which a collection would only walk."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


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


GAZE_CSV_COLUMNS = GazeRecord._fields

# how each column's text becomes its field: by the field's type, reader ids stripped
_COLUMN_PARSERS = {**get_type_hints(GazeRecord), "reader_id": str.strip}
_COLUMN_DTYPES = {name: {int: np.int64, float: np.float64, str: object}[kind]
                  for name, kind in get_type_hints(GazeRecord).items()}
_INT64 = np.iinfo(np.int64)


class GazeTable:
    """Gaze rows as numpy columns, one attribute per ``GazeRecord`` field.

    Its length is its row count.
    """

    __slots__ = GAZE_CSV_COLUMNS

    def __init__(self, *columns):
        for name, column in zip(GAZE_CSV_COLUMNS, columns, strict=True):
            setattr(self, name, column)

    @classmethod
    def from_records(cls, records=()):
        """The table of ``records``, tuples in ``GazeRecord`` field order."""
        records = list(records)
        return cls(*(np.array([record[k] for record in records], dtype=_COLUMN_DTYPES[name])
                     for k, name in enumerate(GAZE_CSV_COLUMNS)))

    @classmethod
    def concat(cls, tables):
        return cls(*map(np.concatenate, zip(*(table.columns() for table in tables))))

    def columns(self):
        return tuple(getattr(self, name) for name in GAZE_CSV_COLUMNS)

    def take(self, rows):
        """The table of ``rows``, a boolean mask or an index array."""
        return GazeTable(*(column[rows] for column in self.columns()))

    def __len__(self):
        return len(self.essay_id)

    def rows(self):
        """Each row as a tuple of Python values in field order."""
        for start in range(0, len(self), CHUNK_ROWS):
            yield from zip(*(column[start:start + CHUNK_ROWS].tolist()
                             for column in self.columns()))


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


@collector_paused()
def load_gaze_records(path):
    """Parse the gaze CSV into (GazeTable, GazeLoadReport).

    Rows violating the record invariants are rejected with per-row
    diagnostics, the first violated one per row; the rest of the file still
    loads. Blank lines are skipped and not counted: the report numbers row
    k (from 1) as line k + 1. Where a column is named twice, its last copy
    is read, and a row too short for a column reads no text there. A file
    without a header line holds no rows.
    """
    tables = [GazeTable.from_records()]
    report = GazeLoadReport()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return tables[0], report
        missing = [c for c in GAZE_CSV_COLUMNS if c not in header]
        if missing:
            raise ValueError(f"{path}: missing gaze CSV columns: {', '.join(missing)}")
        position = {column: index for index, column in enumerate(header)}
        indices = [position[column] for column in GAZE_CSV_COLUMNS]
        width = max(indices) + 1
        cells_of = itemgetter(*indices)
        while chunk := list(islice(reader, CHUNK_ROWS)):
            rows = list(filter(None, chunk))
            if not rows:
                continue
            if min(map(len, rows)) < width:
                rows = [row + [None] * (width - len(row)) for row in rows]
            first_line = report.total_rows + 2
            report.total_rows += len(rows)
            tables.append(_parse_rows(zip(*map(cells_of, rows)), len(rows), first_line,
                                      report.rejected))
    return GazeTable.concat(tables), report


def _parse_rows(cells_by_column, n_rows, first_line, rejected):
    """The table of the valid rows among ``n_rows`` rows, given as one tuple of
    cells per column in field order; appends the others to ``rejected``."""
    columns, problems = [], {}
    for name, cells in zip(GAZE_CSV_COLUMNS, cells_by_column):
        values, malformed = _parse_column(name, cells, n_rows)
        columns.append(values)
        for row, reason in malformed.items():
            problems.setdefault(row, f"malformed field: {reason}")
    table = GazeTable(*columns)
    _find_violations(table, problems)
    rejected.extend((first_line + row, problems[row]) for row in sorted(problems))
    keep = np.ones(n_rows, dtype=bool)
    keep[list(problems)] = False
    return table.take(keep)


def _parse_column(name, cells, n_rows):
    """(the column's array, {row: reason} of its cells that do not parse)."""
    parse, dtype = _COLUMN_PARSERS[name], _COLUMN_DTYPES[name]
    try:
        return np.fromiter(map(parse, cells), dtype, n_rows), {}
    except (ValueError, TypeError, OverflowError):
        pass
    values, malformed = [], {}
    for row, cell in enumerate(cells):
        try:
            value = parse(cell)
        except (ValueError, TypeError) as exc:
            malformed[row], value = str(exc), parse("0")
        else:
            if dtype is np.int64 and not _INT64.min <= value <= _INT64.max:
                malformed[row], value = f"{name} {value} is outside the int64 range", 0
        values.append(value)
    return np.array(values, dtype), malformed


def _find_violations(t, problems):
    """Add to ``problems`` each other row of table ``t`` that breaks a record
    invariant, with the first invariant it breaks."""
    dt, ffd, ir, rc, skip = (t.dwell_time_ms, t.first_fixation_ms, t.is_regression,
                             t.run_count, t.skip)
    invariants = (
        (t.ia_index < 0, lambda i: f"ia_index {t.ia_index[i]} is negative"),
        ((dt < 0) | (ffd < 0), lambda i: "negative fixation duration"),
        (~(np.isfinite(dt) & np.isfinite(ffd)), lambda i: "non-finite fixation duration"),
        (rc < 0, lambda i: f"run_count {rc[i]} is negative"),
        ((ir != 0) & (ir != 1), lambda i: f"is_regression must be 0 or 1, got {ir[i]}"),
        ((skip != 0) & (skip != 1), lambda i: f"skip must be 0 or 1, got {skip[i]}"),
        (ffd > dt, lambda i: f"first fixation {ffd[i].item()} exceeds dwell time {dt[i].item()}"),
        ((skip == 1) & ((dt != 0) | (ffd != 0) | (rc != 0)),
         lambda i: "skipped token has nonzero fixation data"),
    )
    unchecked = np.ones(len(t), dtype=bool)
    unchecked[list(problems)] = False
    for broken, reason in invariants:
        for row in np.flatnonzero(broken & unchecked).tolist():
            problems[row] = reason(row)
        unchecked &= ~broken


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
    """The GazeTable of the rows of ``records`` whose readers ``reader_filter`` selects.

    ``reader_filter`` is ``"all"``, ``"native_only"`` (the readers that
    ``reader_metadata`` marks native; an error when it marks none) or a
    non-string collection of reader ids.
    """
    if reader_filter == "all":
        return records
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
    reader_ids, reader_of = _groups(records.reader_id)
    return records.take(np.array([rid in allowed for rid in reader_ids], dtype=bool)[reader_of])


def _groups(column):
    """(the distinct values of ``column`` in order of first appearance, each
    row's index into them)."""
    values = column.tolist()
    index = {value: k for k, value in enumerate(dict.fromkeys(values))}
    return list(index), np.fromiter(map(index.__getitem__, values), np.intp, len(values))


def _runs(keys):
    """Row indices sorted stably by the nonnegative ``keys``, and the (start,
    stop) of each run of equal keys in them, runs in key order."""
    order = np.argsort(keys, kind="stable")
    starts = np.flatnonzero(np.diff(keys[order], prepend=-1)).tolist()
    return order, list(zip(starts, [*starts[1:], len(order)]))


def reader_stats(records):
    """Per-reader population mean and std of DT and FFD over a GazeTable's rows."""
    reader_ids, reader_of = _groups(records.reader_id)
    order, spans = _runs(reader_of)
    stats = {}
    for reader_id, (start, stop) in zip(reader_ids, spans):
        rows = order[start:stop]  # in table order, so each sum adds in the same order
        dt = records.dwell_time_ms[rows]
        ffd = records.first_fixation_ms[rows]
        stats[reader_id] = ReaderStats(
            reader_id=reader_id,
            dt_mean=float(dt.mean()),
            dt_std=float(dt.std()),
            ffd_mean=float(ffd.mean()),
            ffd_std=float(ffd.std()),
            n_records=len(rows),
            provenance=frozenset(records.essay_id[rows].tolist()),
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
    above in bin 5. The arguments are scalars, giving an int, or arrays,
    giving an int64 array of their broadcast shape.
    """
    fv, mu, sigma = (np.asarray(a, dtype=np.float64) for a in (fv, mu, sigma))
    if (fv < 0).any():
        raise ValueError(f"fixation value must be nonnegative, got {fv[fv < 0].flat[0]}")
    if (sigma < 0).any():
        raise ValueError(f"standard deviation must be nonnegative, got {sigma[sigma < 0].flat[0]}")
    flat = sigma == 0
    with np.errstate(all="ignore"):  # overflow and inf - inf behave as for Python floats
        bins = np.select(
            [fv == 0, flat & (fv < mu), flat & (fv == mu), flat,
             fv <= mu - sigma, fv <= mu - 0.5 * sigma, fv <= mu + 0.5 * sigma, fv <= mu + sigma],
            [0, 1, 3, 5, 1, 2, 3, 4], 5)
    return bins if bins.ndim else int(bins)


def bin_run_count(rc):
    """Run-count bins 0 through 4 are the count itself; 5 collects the rest.

    ``rc`` is an integer, giving an int, or an integer array, giving an
    int64 array.
    """
    rc = np.asarray(rc, dtype=np.int64)
    if (rc < 0).any():
        raise ValueError(f"run count must be nonnegative, got {rc[rc < 0].flat[0]}")
    bins = np.minimum(rc, 5)
    return bins if bins.ndim else int(bins)


@collector_paused()
def bin_all(records, stats, essays):
    """Binned gaze sequences aligned to essay tokens, from a GazeTable's rows.

    ``essays`` maps essay_id to an Essay (token counts come from there).
    Returns ({essay_id: {reader_id: [BinnedGaze or None per token]}},
    diagnostics). Tokens with no record for a reader stay None and are
    excluded from the gaze loss mask downstream. Records addressing a
    missing essay, an out-of-range token, an unknown reader, or a position
    an earlier record filled get one diagnostic each, in table order; every
    other record is placed.
    """
    essay_ids, essay_of = np.unique(records.essay_id, return_inverse=True)
    essay_ids = essay_ids.tolist()
    reader_ids, reader_of = _groups(records.reader_id)
    n_tokens = np.array([len(essays[e].tokens) if e in essays else -1 for e in essay_ids],
                        dtype=np.int64)
    row_tokens = n_tokens[essay_of]
    ia_index = records.ia_index
    no_essay = row_tokens < 0
    no_stats = ~no_essay & ~np.array([r in stats for r in reader_ids], dtype=bool)[reader_of]
    out_of_range = ~(no_essay | no_stats) & (ia_index >= row_tokens)
    # a position's first record is placed, and each later one is a duplicate
    group = essay_of * len(reader_ids) + reader_of
    candidates = np.flatnonzero(~(no_essay | no_stats | out_of_range))
    _, first = np.unique(group[candidates] * (int(n_tokens.max(initial=0)) + 1)
                         + ia_index[candidates], return_index=True)
    placed = np.zeros(len(records), dtype=bool)
    placed[candidates[first]] = True

    diagnostics = []
    for i in np.flatnonzero(~placed).tolist():
        essay_id, reader_id = essay_ids[essay_of[i]], reader_ids[reader_of[i]]
        if no_essay[i]:
            diagnostics.append(f"essay {essay_id}: no such essay for reader {reader_id}")
        elif no_stats[i]:
            diagnostics.append(f"essay {essay_id}: no statistics for reader {reader_id}")
        elif out_of_range[i]:
            diagnostics.append(f"essay {essay_id}, reader {reader_id}: ia_index "
                               f"{ia_index[i]} out of range for {row_tokens[i]} tokens")
        else:
            diagnostics.append(f"essay {essay_id}, reader {reader_id}: duplicate "
                               f"record for token {ia_index[i]}")

    rows = np.flatnonzero(placed)
    order, spans = _runs(group[rows])
    rows = rows[order]
    sequences = {}
    # each (essay, reader) run in the order of its first record, as entries were first made
    for start, stop in sorted(spans, key=lambda span: rows[span[0]]):
        run, i = rows[start:stop], rows[start]
        reader_id = reader_ids[reader_of[i]]
        s = stats[reader_id]
        sequence = [None] * int(row_tokens[i])
        for position, token_bins in zip(ia_index[run].tolist(), map(
                BinnedGaze,
                bin_fixation(records.dwell_time_ms[run], s.dt_mean, s.dt_std).tolist(),
                bin_fixation(records.first_fixation_ms[run], s.ffd_mean, s.ffd_std).tolist(),
                records.is_regression[run].tolist(),
                bin_run_count(records.run_count[run]).tolist(),
                records.skip[run].tolist())):
            sequence[position] = token_bins
        sequences.setdefault(essay_ids[essay_of[i]], {})[reader_id] = sequence
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
