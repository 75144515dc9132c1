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

import csv
import math

import numpy as np

__all__ = ["Table", "RowWriter", "read_table", "write_table", "read_config"]


class Table:
    """Column-oriented numeric table with ordered names."""

    def __init__(self, names, columns):
        self.names = list(names)
        self.columns = {name: np.asarray(columns[name], dtype=float) for name in self.names}
        lengths = {c.shape[0] for c in self.columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"ragged table: column lengths {sorted(lengths)}")

    @property
    def n_rows(self) -> int:
        if not self.names:
            return 0
        return self.columns[self.names[0]].shape[0]

    def __getitem__(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise KeyError(f"table has no column {name!r}; columns: {', '.join(self.names)}")
        return self.columns[name]

    def matrix(self, names=None) -> np.ndarray:
        names = self.names if names is None else list(names)
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
    table = Table(names, columns if isinstance(columns, dict) else dict(zip(names, columns)))
    with RowWriter(path) as write:
        write.header(names)
        for row in table.matrix():
            write(names, row)


def read_table(path) -> Table:
    """Parse a numeric CSV; header is required, NaN and ragged rows rejected."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: missing header row") from None
        names = [h.strip() for h in header]
        if any(not name for name in names):
            raise ValueError(f"{path}:1: empty column name in header")
        data = [[] for _ in names]
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
                data[j].append(value)
    return Table(names, {name: np.array(col) for name, col in zip(names, data)})


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
