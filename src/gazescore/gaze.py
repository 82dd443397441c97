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
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import groupby, islice
from operator import itemgetter
from typing import NamedTuple, get_type_hints

import numpy as np

from .corpus import open_text

GAZE_ATTRIBUTES = ("DT", "FFD", "IR", "RC", "Skip")
GAZE_MAX_BIN = {"DT": 5, "FFD": 5, "IR": 1, "RC": 5, "Skip": 1}

# a longer dwell time or first fixation on one token is a recording fault, and
# one such row would overflow its reader's deviation
MAX_FIXATION_MS = 3_600_000.0  # one hour

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


def _token(cell):
    """A token cell's text; a row too short to reach the cell has none."""
    if cell is None:
        raise TypeError("the row ends before its token")
    return cell


def _reader_id(cell):
    """A reader id cell's text, stripped; a blank one names no reader."""
    reader_id = str.strip(cell)
    if not reader_id:
        raise ValueError("reader_id is blank")
    return reader_id


# how each column's text becomes its field: by the field's type, reader ids
# as _reader_id reads them, and a missing token rejected as a missing reader id is
_COLUMN_PARSERS = {**get_type_hints(GazeRecord), "reader_id": _reader_id, "token": _token}
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


@contextmanager
def csv_rows(path, reader=csv.reader):
    """``reader`` over the rows of CSV file ``path`` for the block, which
    raises a csv.Error (an unbalanced quote reads on to the field size
    limit) or a byte that is not UTF-8 as a ValueError naming the file."""
    with open_text(path, newline="") as fh:
        try:
            yield reader(fh)
        except csv.Error as error:
            raise ValueError(f"{path}: malformed CSV ({error})") from None


def table_rows(path, parsers, key, label):
    """(line, {column: parse(cell)}) of each row of CSV file ``path`` past its
    header line, for each (column, parse) of ``parsers``.

    A row repeating an earlier row's values in the ``key`` columns raises
    naming both lines, the row by ``label`` formatted with its values. Every
    fault of a row raises as a ValueError ``<path>:<line>: <reason>``; a
    header without a column of ``parsers`` raises naming the column.
    """
    with csv_rows(path, csv.DictReader) as reader:
        for column in parsers:
            if column not in (reader.fieldnames or ()):
                raise ValueError(f"{path}: missing column {column!r}")
        lines = {}
        for row in reader:
            line, values = reader.line_num, {}
            for column, parse in parsers.items():
                if row[column] is None:  # the row ends before the column
                    raise ValueError(f"{path}:{line}: no {column} cell")
                try:
                    values[column] = parse(row[column])
                except ValueError as error:
                    raise ValueError(f"{path}:{line}: {error}") from None
            row_key = tuple(values[column] for column in key)
            if row_key in lines:
                raise ValueError(f"{path}:{line}: {label.format(**values)} repeats line "
                                 f"{lines[row_key]}")
            lines[row_key] = line
            yield line, values


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
    with csv_rows(path) as reader:
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
        return _column(map(parse, cells), dtype, n_rows), {}
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
    return _column(values, dtype, n_rows), malformed


def _column(values, dtype, n_rows):
    """The array of ``n_rows`` parsed values; of text, one str object per
    distinct value rather than one per cell."""
    return np.fromiter(map(sys.intern, values) if dtype is object else values, dtype, n_rows)


def _find_violations(t, problems):
    """Add to ``problems`` each other row of table ``t`` that breaks a record
    invariant, with the first invariant it breaks."""
    dt, ffd, ir, rc, skip = (t.dwell_time_ms, t.first_fixation_ms, t.is_regression,
                             t.run_count, t.skip)
    invariants = (
        (t.ia_index < 0, lambda i: f"ia_index {t.ia_index[i]} is negative"),
        ((dt < 0) | (ffd < 0), lambda i: "negative fixation duration"),
        (~(np.isfinite(dt) & np.isfinite(ffd)), lambda i: "non-finite fixation duration"),
        ((dt > MAX_FIXATION_MS) | (ffd > MAX_FIXATION_MS),
         lambda i: "fixation duration above one hour"),
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
    """The frozenset of the ids of the native readers of a reader metadata CSV.

    The CSV has at least the columns reader_id and native; native is true
    when it reads 1, true or yes, in any case. A reader listed twice raises.
    """
    rows = table_rows(path, {"reader_id": _reader_id,
                             "native": lambda cell: cell.strip().lower() in ("1", "true", "yes")},
                      ("reader_id",), "reader {reader_id!r}")
    return frozenset(row["reader_id"] for _, row in rows if row["native"])


def filter_readers(records, readers):
    """The GazeTable of the rows of ``records`` whose reader id is in set ``readers``."""
    reader_ids, reader_of = _groups(records.reader_id)
    return records.take(np.array([rid in readers for rid in reader_ids], dtype=bool)[reader_of])


def _groups(column):
    """(the distinct values of ``column`` in order of first appearance, each
    row's index into them)."""
    values = column.tolist()
    index = {value: k for k, value in enumerate(dict.fromkeys(values))}
    return list(index), np.fromiter(map(index.__getitem__, values), np.intp, len(values))


def _spans(keys):
    """The (start, stop) of each run of equal values in the sorted nonnegative ``keys``."""
    starts = np.flatnonzero(np.diff(keys, prepend=-1)).tolist()
    return list(zip(starts, [*starts[1:], len(keys)]))


def reader_stats(records, essays):
    """Per-reader population mean and std of DT and FFD over the rows of a
    GazeTable that ``bin_all`` can place in ``essays`` (essay_id -> Essay).

    A row for an essay ``essays`` lacks, or for a token beyond its essay's
    end, is left out, and so is one repeating an earlier row's (essay,
    reader, ia_index), which ``bin_all`` logs as a duplicate. A reader left
    with no row counts ``n_records`` 0, with every moment 0.0, and
    ``bin_all`` places none of its rows.
    """
    reader_ids, reader_of = _groups(records.reader_id)
    rows = _placeable(records, essays, reader_of, len(reader_ids))[0]
    # by reader, each reader's in table order, so each sum adds in the same order
    rows = rows[np.lexsort((rows, reader_of[rows]))]
    readers = reader_of[rows]
    spans = {int(readers[start]): (start, stop) for start, stop in _spans(readers)}
    stats = {}
    for k, reader_id in enumerate(reader_ids):
        if k not in spans:
            stats[reader_id] = ReaderStats(reader_id, 0.0, 0.0, 0.0, 0.0, 0)
            continue
        kept = rows[slice(*spans[k])]
        dt = records.dwell_time_ms[kept]
        ffd = records.first_fixation_ms[kept]
        stats[reader_id] = ReaderStats(
            reader_id=reader_id,
            dt_mean=float(dt.mean()),
            dt_std=float(dt.std()),
            ffd_mean=float(ffd.mean()),
            ffd_std=float(ffd.std()),
            n_records=len(kept),
            provenance=frozenset(records.essay_id[kept].tolist()),
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


class EssayGaze:
    """One essay's binned gaze, as ``bin_all`` gives it.

    ``positions`` and ``bins`` (one column per attribute, in GAZE_ATTRIBUTES
    order) hold its labeled tokens, readers sorted by id and then positions,
    as ``labeled`` lists them; both are read-only views of arrays that the
    essays of one ``bin_all`` call share. Iterating it gives its reader ids,
    sorted.
    """

    __slots__ = ("positions", "bins", "_spans")

    def __init__(self, spans, positions, bins):
        # spans: {reader_id: (start, stop) of its rows in the arrays}, readers sorted
        self._spans, self.positions, self.bins = spans, positions, bins

    def __iter__(self):
        return iter(self._spans)

    def reader_ids(self):
        """The reader id of each row of the arrays."""
        return [reader_id for reader_id, span in self._spans.items() for _ in range(*span)]


@collector_paused()
def bin_all(records, stats, essays):
    """Binned gaze aligned to essay tokens, from a GazeTable's rows.

    ``essays`` maps essay_id to an Essay (token counts come from there).
    Returns ({essay_id: EssayGaze}, diagnostics), essays in id order. Tokens
    with no record for a reader stay unlabeled and are excluded from the
    gaze loss mask downstream. Records addressing a missing essay, an
    out-of-range token, an unknown reader, or a position an earlier record
    filled get one diagnostic each, in table order; every other record is
    placed.
    """
    reader_ids, rows, groups, diagnostics = _place(records, stats, essays)
    n_readers = max(len(reader_ids), 1)  # with no reader, no row is placed
    readers = groups % n_readers
    # each reader's DT mean and std, then FFD's
    moments = np.array([[s.dt_mean, s.dt_std, s.ffd_mean, s.ffd_std] if (s := stats.get(r))
                        else [0.0] * 4 for r in reader_ids], dtype=np.float64)
    positions = records.ia_index[rows]
    bins = np.empty((len(rows), len(GAZE_ATTRIBUTES)), dtype=np.int64)
    # in slices, as bin_fixation's choices each take the length of its input
    for start in range(0, len(rows), CHUNK_ROWS):
        chunk = slice(start, start + CHUNK_ROWS)
        dt_mean, dt_std, ffd_mean, ffd_std = moments[readers[chunk]].T
        bins[chunk, 0] = bin_fixation(records.dwell_time_ms[rows[chunk]], dt_mean, dt_std)
        bins[chunk, 1] = bin_fixation(records.first_fixation_ms[rows[chunk]], ffd_mean, ffd_std)
    bins[:, 2] = records.is_regression[rows]
    bins[:, 3] = bin_run_count(records.run_count[rows])
    bins[:, 4] = records.skip[rows]
    positions.flags.writeable = bins.flags.writeable = False

    # one pass over the (essay, reader) runs: essays by id, each one's readers sorted
    runs = [(*divmod(int(groups[start]), n_readers), start, stop) for start, stop in _spans(groups)]
    sequences = {}
    for _, essay_runs in groupby(runs, key=itemgetter(0)):
        essay_runs = list(essay_runs)
        low, high = essay_runs[0][2], essay_runs[-1][3]
        spans = {reader_ids[reader]: (start - low, stop - low)
                 for _, reader, start, stop in essay_runs}
        sequences[int(records.essay_id[rows[low]])] = EssayGaze(
            spans, positions[low:high], bins[low:high])
    return sequences, diagnostics


def _place(records, stats, essays):
    """Which rows of ``records`` bin_all places: (the distinct reader ids
    sorted, the placed rows by essay id, then reader id, then position, each
    placed row's essay index times the number of readers plus its reader
    index, the diagnostics)."""
    reader_ids, reader_of = _groups(records.reader_id)
    # readers numbered in id order, as labeled sorts them
    order = sorted(range(len(reader_ids)), key=reader_ids.__getitem__)
    reader_ids, reader_of = [reader_ids[k] for k in order], np.argsort(order)[reader_of]
    rows, groups, row_tokens = _placeable(records, essays, reader_of, len(reader_ids))
    # statistics over no row place nothing: such a row reads as one with none
    counted = [r in stats and stats[r].n_records > 0 for r in reader_ids]
    if not all(counted):
        kept = np.array(counted, dtype=bool)[groups % len(reader_ids)]
        rows, groups = rows[kept], groups[kept]
    placed = np.zeros(len(records), dtype=bool)
    placed[rows] = True

    diagnostics = []
    unplaced = np.flatnonzero(~placed)
    for essay_id, reader, ia_index, n_tokens in zip(
            *(column[unplaced].tolist()
              for column in (records.essay_id, reader_of, records.ia_index, row_tokens))):
        reader_id = reader_ids[reader]
        if n_tokens < 0:
            diagnostics.append(f"essay {essay_id}: no such essay for reader {reader_id}")
        # a reader without statistics says so before a range does; one whose
        # statistics cover no row, only for a row in range
        elif not counted[reader] and (reader_id not in stats or ia_index < n_tokens):
            diagnostics.append(f"essay {essay_id}: no statistics for reader {reader_id}")
        elif ia_index >= n_tokens:
            diagnostics.append(f"essay {essay_id}, reader {reader_id}: ia_index "
                               f"{ia_index} out of range for {n_tokens} tokens")
        else:
            diagnostics.append(f"essay {essay_id}, reader {reader_id}: duplicate "
                               f"record for token {ia_index}")
    return reader_ids, rows, groups, diagnostics


def _placeable(records, essays, reader_of, n_readers):
    """The rows of GazeTable ``records`` that ``bin_all`` can place: those on
    an essay ``essays`` (essay_id -> Essay) holds, within its tokens, and the
    first of their (essay, reader, ia_index), where ``reader_of`` numbers each
    row's reader below ``n_readers``.

    Returns (those rows, sorted by essay id, then reader number, then
    ia_index; each one's essay index, essays numbered by id, times
    ``n_readers`` plus its reader number; the token count of each row's
    essay, -1 for one ``essays`` does not hold).
    """
    essay_of, row_tokens = _row_tokens(records, essays)
    candidates = np.flatnonzero(records.ia_index < row_tokens)
    width = int(row_tokens.max(initial=0)) + 1
    keys, first = np.unique((essay_of[candidates] * n_readers + reader_of[candidates]) * width
                            + records.ia_index[candidates], return_index=True)
    return candidates[first], keys // width, row_tokens


def any_within(records, essays):
    """Whether a row of GazeTable ``records`` falls within the tokens of an
    essay that ``essays`` (essay_id -> Essay) holds."""
    return bool(np.any(records.ia_index < _row_tokens(records, essays)[1]))


def _row_tokens(records, essays):
    """(each row's essay index, essays numbered by id, each row's essay's
    token count, -1 for one ``essays`` does not hold)."""
    essay_ids, essay_of = np.unique(records.essay_id, return_inverse=True)
    n_tokens = np.array([sum(map(len, essays[e].sentences)) if e in essays else -1
                         for e in essay_ids.tolist()], dtype=np.int64)
    return essay_of, n_tokens[essay_of]


def labeled(gaze):
    """(reader_id, position, BinnedGaze) of every labeled token of an essay's
    {reader_id: [BinnedGaze or None per token]}: readers sorted, then positions."""
    return [(reader_id, position, binned) for reader_id in sorted(gaze)
            for position, binned in enumerate(gaze[reader_id]) if binned is not None]


def gaze_targets(gaze):
    """An essay's per-token gaze targets, from its EssayGaze or
    {reader_id: [BinnedGaze or None per token]}.

    Returns {attribute: (token index array, unit target array)}, empty when
    no token is labeled. The arrays depend on no vocabulary, so examples of
    several cells may share them; all of them are read-only.
    """
    if isinstance(gaze, EssayGaze):
        positions, bins = gaze.positions, gaze.bins
    else:
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
