"""CSV tables and key-value configuration files.

Tables are plain CSV with a required header row and all-numeric cells;
floats are printed with 17 significant digits so write-then-read is the
identity on finite values. One writer, ``RowWriter``, prints every numeric
CSV: ``write_table`` writes through it, and a chain streams each retained
draw to it as the draw is kept, the row being the chain's own storage
(``sampler.Chain.values``), not a copy. Configuration files hold one
``key=value`` pair per line with '#' comments; keys must mirror the model
and MCMC field names exactly, and unknown keys are rejected.
"""

from __future__ import annotations

import array
import csv
import math

import numpy as np

__all__ = ["Table", "RowWriter", "read_table", "write_table", "read_config"]


class Table:
    """Numeric table with ordered names, held as one (rows, columns) array.

    ``values`` is that row-major float array, ``table[name]`` a view of one
    of its columns, and ``matrix()`` of all the columns in order is
    ``values`` itself, not a copy.
    """

    def __init__(self, names, values):
        self.names = list(names)
        self.values = np.asarray(values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[1] != len(self.names):
            raise ValueError(
                f"table of {len(self.names)} names needs a 2-D array of as many "
                f"columns, got shape {self.values.shape}"
            )

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    def __getitem__(self, name: str) -> np.ndarray:
        if name not in self.names:
            raise KeyError(f"table has no column {name!r}; columns: {', '.join(self.names)}")
        return self.values[:, self.names.index(name)]

    def matrix(self, names=None) -> np.ndarray:
        if names is None or list(names) == self.names:
            return self.values
        return np.column_stack([self[name] for name in names]) if names else np.empty((0, 0))


class RowWriter:
    """A numeric CSV written one row at a time.

    ``writer(names, row)`` writes the header ``names`` on its first call
    (``header`` writes it alone), then the row: each float with 17
    significant digits ("%.17g"), from a template built once per file. It is
    the ``stream`` signature of ``sampler.fit``.
    """

    def __init__(self, path):
        self.fh = open(path, "w", newline="")
        self.template = None

    def header(self, names):
        csv.writer(self.fh).writerow(names)
        self.template = ",".join(["%.17g"] * len(names)) + "\r\n"

    def __call__(self, names, row):
        if self.template is None:
            self.header(names)
        self.fh.write(self.template % tuple(row.tolist()))

    def close(self):
        self.fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def write_table(path, names, columns) -> None:
    """Write the equal-length ``columns`` (keyed by name, or in ``names``
    order) as a numeric CSV with header, through one ``RowWriter``."""
    names = list(names)
    columns = [columns[name] for name in names] if isinstance(columns, dict) else list(columns)
    lengths = sorted({len(c) for c in columns})
    if len(lengths) > 1:
        raise ValueError(f"ragged table: column lengths {lengths}")
    with RowWriter(path) as write:
        write.header(names)
        for row in np.column_stack(columns):
            write(names, row)


def read_table(path) -> Table:
    """Parse a numeric CSV; header is required, NaN and ragged rows rejected.

    The values grow, row after row, in one flat buffer of 8-byte doubles
    that becomes the table's (rows, columns) array without a copy.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: missing header row") from None
        names = [h.strip() for h in header]
        if any(not name for name in names):
            raise ValueError(f"{path}:1: empty column name in header")
        flat = array.array("d")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(names):
                raise ValueError(
                    f"{path}:{lineno}: expected {len(names)} fields, got {len(row)}"
                )
            for j, cell in enumerate(row):
                try:
                    value = float(cell)
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: field {names[j]!r} is not numeric: {cell!r}"
                    ) from None
                if math.isnan(value):
                    raise ValueError(f"{path}:{lineno}: NaN in field {names[j]!r}")
                flat.append(value)
    return Table(names, np.frombuffer(flat).reshape(-1, len(names)))


def read_config(path, allowed_keys) -> dict:
    """Parse ``key=value`` lines; keys outside ``allowed_keys`` are errors."""
    allowed = set(allowed_keys)
    out: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {text!r}")
            key, _, value = text.partition("=")
            key, value = key.strip(), value.strip()
            if key not in allowed:
                raise ValueError(
                    f"{path}:{lineno}: unknown key {key!r}; allowed: "
                    f"{', '.join(sorted(allowed))}"
                )
            if key in out:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            out[key] = value
    return out
