"""Versioned text container for named parameter arrays.

Format (one file, UTF-8):

    gazescore-checkpoint 1
    param <name> <dtype> <ndim> <dim0> <dim1> ...
    <value> <value> ... (row-major, %.17g, possibly wrapped over lines)
    param <name> ...
    ...

A parameter is its ``param`` line and every value line up to the next one;
blank lines are ignored. %.17g round-trips float64 exactly, so save followed
by load is bit-exact. Parameter names must not contain whitespace.
"""

import math
from array import array

import numpy as np

FORMAT_NAME = "gazescore-checkpoint"
FORMAT_VERSION = 1
_VALUES_PER_LINE = 8


class CheckpointError(ValueError):
    """Raised when a checkpoint file is malformed or version-incompatible."""


def save_checkpoint(path, named_arrays):
    """Write a mapping of name -> numpy array to ``path``.

    Accepts any mapping; iteration order is preserved in the file.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{FORMAT_NAME} {FORMAT_VERSION}\n")
        for name, arr in named_arrays.items():
            arr = np.asarray(arr)
            if any(ch.isspace() for ch in name):
                raise CheckpointError(f"parameter name contains whitespace: {name!r}")
            dims = " ".join(str(d) for d in arr.shape)
            fh.write(f"param {name} {arr.dtype.name} {arr.ndim} {dims}".rstrip() + "\n")
            flat = arr.reshape(-1)
            for start in range(0, flat.size, _VALUES_PER_LINE):
                chunk = flat[start:start + _VALUES_PER_LINE]
                fh.write(" ".join(f"{v:.17g}" for v in chunk) + "\n")


def load_checkpoint(path):
    """Read a checkpoint file back into a dict of name -> numpy array, in file order."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2 or header[0] != FORMAT_NAME:
            raise CheckpointError(f"{path}: not a {FORMAT_NAME} file")
        if not header[1].isdecimal() or int(header[1]) != FORMAT_VERSION:
            raise CheckpointError(
                f"{path}: unsupported version {header[1]}, expected {FORMAT_VERSION}")
        blocks = []  # (parameter line, its fields, the values after it as doubles)
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if line.startswith("param "):
                blocks.append((line, line.split(), array("d")))
            elif blocks:
                try:
                    blocks[-1][2].fromlist([float(v) for v in line.split()])
                except ValueError as error:
                    raise CheckpointError(f"{path}:{line_no}: {error}") from None
            elif line:
                raise CheckpointError(f"{path}: values before any parameter header")
    arrays = {}  # every value was parsed as read; the blocks are checked in file order
    for line, fields, values in blocks:
        try:
            name, dtype, ndim = fields[1], np.dtype(fields[2]), int(fields[3])
            shape = tuple(int(d) for d in fields[4:])
            if dtype.kind not in "biuf" or any(d < 0 for d in shape):  # values are numbers
                raise ValueError("not a numeric array shape")
        except (IndexError, TypeError, ValueError):
            raise CheckpointError(f"{path}: malformed parameter header: {line!r}") from None
        if len(shape) != ndim:
            raise CheckpointError(f"{path}: dimension count mismatch in: {line!r}")
        if name in arrays:
            raise CheckpointError(f"{path}: duplicate parameter {name!r}")
        if len(values) != math.prod(shape):
            raise CheckpointError(f"{path}: parameter {name!r} has {len(values)} values, "
                                  f"expected {math.prod(shape)}")
        arrays[name] = np.fromiter(values, dtype=dtype).reshape(shape)
    return arrays
