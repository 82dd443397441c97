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
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import islice
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


# how each column's text becomes its field: by the field's type, reader ids
# stripped, and a missing token rejected as a missing reader id is
_COLUMN_PARSERS = {**get_type_hints(GazeRecord), "reader_id": str.strip, "token": _token}
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
    when it reads 1, true or yes, in any case.
    """
    with csv_rows(path, csv.DictReader) as reader:
        for required in ("reader_id", "native"):
            if required not in (reader.fieldnames or []):
                raise ValueError(f"{path}: missing column {required!r}")
        native = []
        for row in reader:
            for column in ("reader_id", "native"):
                if row[column] is None:  # the row ends before the column
                    raise ValueError(f"{path}: line {reader.line_num} has no {column} cell")
            if row["native"].strip().lower() in ("1", "true", "yes"):
                native.append(row["reader_id"].strip())
        return frozenset(native)


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


def _runs(keys):
    """Row indices sorted stably by the nonnegative ``keys``, and the (start,
    stop) of each run of equal keys in them, runs in key order."""
    order = np.argsort(keys, kind="stable")
    starts = np.flatnonzero(np.diff(keys[order], prepend=-1)).tolist()
    return order, list(zip(starts, [*starts[1:], len(order)]))


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
    order = np.lexsort((records.ia_index, reader_of, records.essay_id))  # stable
    left_out = np.zeros(len(order), dtype=bool)
    left_out[order[1:]] = np.logical_and.reduce([
        np.diff(column[order]) == 0 for column in (records.essay_id, reader_of, records.ia_index)])
    _, essay_of, n_tokens = _essay_tokens(records, essays)
    left_out |= records.ia_index >= n_tokens[essay_of]  # a missing essay counts -1 tokens
    if left_out.any():
        records, reader_of = records.take(~left_out), reader_of[~left_out]
    order, spans = _runs(reader_of)
    spans = {int(reader_of[order[start]]): (start, stop) for start, stop in spans}  # by reader
    stats = {}
    for k, reader_id in enumerate(reader_ids):
        if k not in spans:
            stats[reader_id] = ReaderStats(reader_id, 0.0, 0.0, 0.0, 0.0, 0)
            continue
        rows = order[slice(*spans[k])]  # in table order, so each sum adds in the same order
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


class EssayGaze(Mapping):
    """One essay's binned gaze, as ``bin_all`` gives it.

    ``positions`` and ``bins`` (one column per attribute, in GAZE_ATTRIBUTES
    order) hold its labeled tokens, readers sorted by id and then positions,
    as ``labeled`` lists them; both are read-only views of arrays that the
    essays of one ``bin_all`` call share. As a read-only Mapping it is the
    list form {reader_id: [BinnedGaze or None per token]}, readers in the
    order of their first record, each list built when it is read.
    """

    __slots__ = ("n_tokens", "positions", "bins", "_spans")

    def __init__(self, n_tokens, spans, positions, bins):
        # spans: {reader_id: (start, stop) of its rows in the arrays}
        self.n_tokens, self._spans, self.positions, self.bins = n_tokens, spans, positions, bins

    def __getitem__(self, reader_id):
        start, stop = self._spans[reader_id]
        sequence = [None] * self.n_tokens
        for position, token_bins in zip(self.positions[start:stop].tolist(),
                                        self.bins[start:stop].tolist()):
            sequence[position] = BinnedGaze._make(token_bins)
        return sequence

    def __iter__(self):
        return iter(self._spans)

    def __len__(self):
        return len(self._spans)

    def reader_ids(self):
        """The reader id of each row of the arrays."""
        return [reader_id for reader_id in sorted(self._spans)
                for _ in range(*self._spans[reader_id])]


@collector_paused()
def bin_all(records, stats, essays):
    """Binned gaze aligned to essay tokens, from a GazeTable's rows.

    ``essays`` maps essay_id to an Essay (token counts come from there).
    Returns ({essay_id: EssayGaze}, diagnostics), essays in the order of
    their first placed record. Tokens with no record for a reader stay
    unlabeled and are excluded from the gaze loss mask downstream. Records
    addressing a missing essay, an out-of-range token, an unknown reader, or
    a position an earlier record filled get one diagnostic each, in table
    order; every other record is placed.
    """
    essay_ids, reader_ids, n_tokens, rows, groups, diagnostics = _place(records, stats, essays)
    readers = groups % max(len(reader_ids), 1)  # with no reader, no row is placed
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

    # each (essay, reader) run in the order of its first record, as the list form made them
    starts = np.flatnonzero(np.diff(groups, prepend=-1))
    bounds = [*starts.tolist(), len(rows)]
    spans = {}
    for _, start, stop in sorted(zip(np.minimum.reduceat(rows, starts).tolist(),
                                     bounds, bounds[1:])):
        essay, reader = divmod(int(groups[start]), len(reader_ids))
        spans.setdefault(essay, {})[reader_ids[reader]] = start, stop
    sequences = {}
    for essay, runs in spans.items():
        low = min(start for start, _ in runs.values())
        high = max(stop for _, stop in runs.values())
        runs = {reader_id: (start - low, stop - low) for reader_id, (start, stop) in runs.items()}
        sequences[essay_ids[essay]] = EssayGaze(int(n_tokens[essay]), runs,
                                                positions[low:high], bins[low:high])
    return sequences, diagnostics


def _place(records, stats, essays):
    """Which rows of ``records`` bin_all places: (the distinct essay ids, the
    distinct reader ids sorted, each essay's token count, the placed rows by
    essay, then reader id, then position, each placed row's essay index times
    the number of readers plus its reader index, the diagnostics)."""
    essay_ids, essay_of, n_tokens = _essay_tokens(records, essays)
    reader_ids, reader_of = _groups(records.reader_id)
    # readers numbered in id order, as labeled sorts them
    order = sorted(range(len(reader_ids)), key=reader_ids.__getitem__)
    reader_ids, reader_of = [reader_ids[k] for k in order], np.argsort(order)[reader_of]
    row_tokens = n_tokens[essay_of]
    ia_index = records.ia_index
    no_essay = row_tokens < 0
    no_stats = ~no_essay & ~np.array([r in stats for r in reader_ids], dtype=bool)[reader_of]
    out_of_range = ~(no_essay | no_stats) & (ia_index >= row_tokens)
    empty = np.array([r in stats and stats[r].n_records == 0 for r in reader_ids], dtype=bool)
    if empty.any():  # statistics over no row place nothing: such a row reads as one with none
        no_stats |= ~(no_essay | out_of_range) & empty[reader_of]
    # a position's first record is placed, and each later one is a duplicate;
    # the unique keys sort the placed rows
    width = int(n_tokens.max(initial=0)) + 1
    candidates = np.flatnonzero(~(no_essay | no_stats | out_of_range))
    keys, first = np.unique((essay_of[candidates] * len(reader_ids) + reader_of[candidates])
                            * width + ia_index[candidates], return_index=True)
    rows = candidates[first]
    placed = np.zeros(len(records), dtype=bool)
    placed[rows] = True

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
    return essay_ids, reader_ids, n_tokens, rows, keys // width, diagnostics


def _essay_tokens(records, essays):
    """(the distinct essay ids of ``records``, each row's index into them,
    each essay's token count, -1 for one ``essays`` does not hold)."""
    essay_ids, essay_of = np.unique(records.essay_id, return_inverse=True)
    essay_ids = essay_ids.tolist()
    n_tokens = np.array([sum(map(len, essays[e].sentences)) if e in essays else -1
                         for e in essay_ids], dtype=np.int64)
    return essay_ids, essay_of, n_tokens


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
