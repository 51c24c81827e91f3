"""CSV dataset reading and writing for the command-line surface.

Files are UTF-8, comma-separated, '.' decimal, with one header row of column
names followed by rectangular numeric rows.
"""

import csv
import warnings

import numpy as np

from .errors import InvalidInputError


def read_csv_dataset(path):
    """Read (column_names, n x C float array); errors cite the offending row.

    The rows are parsed in one ``np.loadtxt`` pass, which reads each cell as
    ``float()`` does.  Where it raises or could read the file otherwise (a
    quoted or ``1_000`` cell, a blank line, a non-finite value), the file is
    parsed again with the csv module, cell by cell, so that an error names
    the row and column.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            header = next(csv.reader(fh), [])
            data = _load_rows(fh, len(header)) if header else None
            if data is None:
                fh.seek(0)
                rows = list(csv.reader(fh))
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    if data is not None:
        return header, data
    if not rows:
        raise InvalidInputError(f"{path}: empty file")
    header = rows[0]
    if not header:
        raise InvalidInputError(f"{path}: empty header row")
    return header, _parse_cells(path, header, rows)


def _load_rows(lines, ncols):
    """The remaining lines as an n x ncols array, or None where the csv reading might differ."""
    count = 0

    def counted():
        nonlocal count
        for line in lines:
            count += 1
            yield line

    try:
        with warnings.catch_warnings():
            # a header-only file: "input contained no data"
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(counted(), delimiter=",", ndmin=2, comments=None)
    except ValueError:
        return None
    # loadtxt skips blank lines, which the csv reader reports as rows of no cells
    if data.shape != (count, ncols) or not np.all(np.isfinite(data)):
        return None
    return data


def _parse_cells(path, header, rows):
    """Parse cell by cell; raises naming the first ragged, unparseable or non-finite cell."""
    ncols = len(header)
    data = np.empty((len(rows) - 1, ncols))
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != ncols:
            raise InvalidInputError(f"{path}: row {i} has {len(row)} cells, expected {ncols}")
        for j, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                raise InvalidInputError(
                    f"{path}: row {i}, column {header[j]!r}: cannot parse {cell!r} as a number"
                ) from None
            if not np.isfinite(value):
                raise InvalidInputError(f"{path}: row {i}, column {header[j]!r}: non-finite value")
            data[i - 2, j] = value
    return data


def write_csv_dataset(path, header, data):
    """Write a dataset with repr-exact floats so identical data gives identical bytes."""
    data = np.asarray(data)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in data:
            writer.writerow([repr(float(v)) for v in row])


def resolve_columns(header, names, flag):
    """Map comma-separated column names (or indices) to positions."""
    out = []
    for name in names:
        if name in header:
            out.append(header.index(name))
            continue
        try:
            idx = int(name)
        except ValueError:
            raise InvalidInputError(f"{flag}: unknown column {name!r} (header: {', '.join(header)})") from None
        if not 0 <= idx < len(header):
            raise InvalidInputError(f"{flag}: column index {idx} out of range")
        out.append(idx)
    return out
