"""Tabular data model: variable schemas and validated datasets.

A :class:`Schema` declares each modeled variable as either continuous or
ordinal (positive integer codes ``1..levels``), plus optional label and
auxiliary columns.  A :class:`Dataset` is a schema-validated numeric table;
missing values are rejected rather than imputed.

This module holds the package's one input rule: :func:`ordinal_codes`
accepts only whole numbers in ``1..levels`` (OrdinalOutOfRange otherwise),
and :func:`check_rows` accepts a table of the schema's width whose cells
are all finite (MissingValue otherwise) and whose ordinal cells pass
:func:`ordinal_codes`.  Margins, latent estimators, scenario profiles and
grids, and scoring call these two instead of checking on their own.
"""

from __future__ import annotations

import csv
import json
import numbers
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    EmptyDataset,
    MissingColumn,
    MissingValue,
    NonNumericCell,
    OrdinalOutOfRange,
    SchemaError,
)

CONTINUOUS = "continuous"
ORDINAL = "ordinal"

#: Largest code accepted when no level count is given: beyond 2**53 floats
#: no longer tell neighbouring whole numbers apart.
_MAX_CODE = 2.0**53

#: Fewest rows a dependence estimate or fit accepts: each latent
#: correlation, each pair-copula fit, each vine and each class of a classifier.
MIN_ROWS = 10


@dataclass(frozen=True)
class VariableSpec:
    """Declaration of a single modeled variable.  An ordinal one's ``levels``
    is a whole number >= 2 (an ``int`` or an integral float), kept as ``int``."""

    name: str
    kind: str
    levels: Optional[int] = None

    def __post_init__(self):
        if not self.name:
            raise SchemaError("variable name must be nonempty")
        if self.kind not in (CONTINUOUS, ORDINAL):
            raise SchemaError(f"unknown variable kind {self.kind!r}")
        if self.kind == ORDINAL:
            whole = isinstance(self.levels, numbers.Integral) or (
                isinstance(self.levels, float) and self.levels.is_integer()
            )
            if isinstance(self.levels, bool) or not whole or self.levels < 2:
                raise SchemaError(
                    f"ordinal variable {self.name!r} needs a whole number of "
                    f"levels >= 2, got {self.levels!r}"
                )
            object.__setattr__(self, "levels", int(self.levels))
        elif self.levels is not None:
            raise SchemaError(
                f"continuous variable {self.name!r} must not declare levels"
            )

    @property
    def is_ordinal(self) -> bool:
        return self.kind == ORDINAL


@dataclass(frozen=True)
class Schema:
    """Ordered variable declarations plus optional label/aux column names."""

    variables: tuple[VariableSpec, ...]
    label: Optional[str] = None
    aux: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        names = [v.name for v in self.variables]
        if len(names) != len(set(names)):
            raise SchemaError("duplicate variable names in schema")
        if not names:
            raise SchemaError("schema declares no variables")
        for special in (self.label, self.aux):
            if special is not None and special in names:
                raise SchemaError(
                    f"column {special!r} cannot be both a variable and label/aux"
                )
        if self.label is not None and self.label == self.aux:
            raise SchemaError("label and aux must be distinct columns")

    @property
    def d(self) -> int:
        return len(self.variables)

    @property
    def names(self) -> list[str]:
        return [v.name for v in self.variables]

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise MissingColumn(f"no variable named {name!r} in schema") from None

    def to_dict(self) -> dict:
        return {
            "variables": [
                {"name": v.name, "kind": v.kind}
                if v.levels is None
                else {"name": v.name, "kind": v.kind, "levels": v.levels}
                for v in self.variables
            ],
            "label": self.label,
            "aux": self.aux,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "Schema":
        raw = obj.get("variables") if isinstance(obj, dict) else None
        if not isinstance(raw, list) or not all(
            isinstance(e, dict) and {"name", "kind"} <= e.keys() for e in raw
        ):
            raise SchemaError("schema 'variables' must be a list of objects with name and kind")
        variables = tuple(
            VariableSpec(
                name=str(entry["name"]),
                kind=str(entry["kind"]),
                levels=entry.get("levels"),
            )
            for entry in raw
        )
        return cls(
            variables=variables,
            label=obj.get("label"),
            aux=obj.get("aux"),
        )

    @classmethod
    def from_json(cls, path) -> "Schema":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def _parse_cell(text: str, column: str, row: int) -> float:
    text = text.strip()
    if text == "":
        raise MissingValue(f"empty cell in column {column!r}, data row {row}")
    try:
        value = float(text)
    except ValueError:
        raise NonNumericCell(
            f"cannot parse {text!r} in column {column!r}, data row {row}"
        ) from None
    if not np.isfinite(value):
        raise MissingValue(
            f"non-finite value {text!r} in column {column!r}, data row {row}"
        )
    return value


def ordinal_codes(x, levels: Optional[int] = None) -> np.ndarray:
    """``x`` as integer ordinal codes.

    Raises
    ------
    OrdinalOutOfRange
        If a value is not a whole number in ``1..levels`` (``1..`` without
        an upper end when ``levels`` is None); NaN and +/-inf are not whole.
    """
    x = np.asarray(x, dtype=float)
    hi = _MAX_CODE if levels is None else levels
    ok = (x >= 1.0) & (x <= hi) & (x == np.floor(x))
    if not ok.all():
        bad = float(x[~ok].flat[0])
        allowed = ">= 1" if levels is None else f"in 1..{levels}"
        raise OrdinalOutOfRange(f"ordinal code {bad!r} is not a whole number {allowed}")
    return x.astype(int)


def check_rows(schema: Schema, x) -> np.ndarray:
    """``x`` as a float table of ``schema``'s variables, one row per case.

    The one input rule for modeled values: every cell finite, every ordinal
    cell a code of :func:`ordinal_codes`.

    Raises
    ------
    SchemaError
        If ``x`` is not 2-D with one column per schema variable.
    MissingValue
        For a non-finite cell.
    OrdinalOutOfRange
        For an ordinal cell that is not a whole number in ``1..levels``.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != schema.d:
        raise SchemaError(f"data has shape {x.shape}, schema expects {schema.d} columns")
    finite = np.isfinite(x)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise MissingValue(
            f"non-finite value {float(x[i, j])!r} in column {schema.names[j]!r}, row {i}"
        )
    for j, spec in enumerate(schema.variables):
        if spec.is_ordinal:
            try:
                ordinal_codes(x[:, j], spec.levels)
            except OrdinalOutOfRange as exc:
                raise OrdinalOutOfRange(f"column {spec.name!r}: {exc}") from None
    return x


def _check_labels(values: np.ndarray) -> None:
    if not np.all(np.isin(values, (0.0, 1.0))):
        bad = values[~np.isin(values, (0.0, 1.0))][0]
        raise NonNumericCell(f"label column contains {bad!r}; labels must be 0 or 1")


@dataclass
class Dataset:
    """A validated table of modeled variables with optional labels and aux.

    ``x`` has one column per schema variable, in schema order.  Ordinal
    columns hold integer codes stored as floats.
    """

    schema: Schema
    x: np.ndarray
    labels: Optional[np.ndarray] = None
    aux: Optional[np.ndarray] = None

    def __post_init__(self):
        self.x = check_rows(self.schema, self.x)
        if self.labels is not None:
            self.labels = np.asarray(self.labels)
            if self.labels.shape != (self.n,):
                raise SchemaError("labels length does not match data")
            _check_labels(self.labels.astype(float))
            self.labels = self.labels.astype(int)
        if self.aux is not None:
            self.aux = np.asarray(self.aux, dtype=float)
            if self.aux.shape != (self.n,):
                raise SchemaError("aux length does not match data")
            if not np.all(np.isfinite(self.aux)):
                raise MissingValue("aux column contains non-finite values")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    def column(self, name: str) -> np.ndarray:
        return self.x[:, self.schema.index_of(name)]

    def subset(self, idx) -> "Dataset":
        return Dataset(
            schema=self.schema,
            x=self.x[idx],
            labels=None if self.labels is None else self.labels[idx],
            aux=None if self.aux is None else self.aux[idx],
        )

    def split_by_class(self) -> dict[int, "Dataset"]:
        """Partition rows by label; empty classes are kept and warned about."""
        if self.labels is None:
            raise SchemaError("cannot split a dataset without labels")
        parts = {}
        for cls in (0, 1):
            mask = self.labels == cls
            if not np.any(mask):
                warnings.warn(f"class {cls} has no rows", stacklevel=2)
            parts[cls] = self.subset(mask)
        return parts

    def to_csv(self, path) -> None:
        """Write the table: floats as ``%.17g``, 17 significant digits, so
        reload is exact, and ordinal codes and labels as integers, with CRLF
        line ends.  The header goes through ``csv.writer``, which quotes a
        name that needs it; the rows are formatted in one ``%`` pass over
        the whole table."""
        header = list(self.schema.names)
        specs = ["%d" if spec.is_ordinal else "%.17g" for spec in self.schema.variables]
        columns = [self.x]
        if self.schema.label is not None and self.labels is not None:
            header.append(self.schema.label)
            specs.append("%d")
            columns.append(self.labels[:, None])
        if self.schema.aux is not None and self.aux is not None:
            header.append(self.schema.aux)
            specs.append("%.17g")
            columns.append(self.aux[:, None])
        row = ",".join(specs) + "\r\n"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerow(header)
            fh.write(row * self.n % tuple(np.hstack(columns).ravel().tolist()))


def load_dataset(path, schema: Schema) -> Dataset:
    """Read a CSV with a header row and validate it against ``schema``.

    Raises
    ------
    MissingColumn, MissingValue, NonNumericCell, OrdinalOutOfRange, EmptyDataset, SchemaError
        On malformed input, such as a column the schema reads appearing twice
        in the header; messages identify the offending column and row.  A
        record the CSV reader cannot read (a field longer than
        ``csv.field_size_limit()``, say) is a ``NonNumericCell``.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDataset(f"{path}: file is empty") from None
        except csv.Error as exc:
            raise NonNumericCell(f"{path}: header row cannot be read: {exc}") from None
        header = [h.strip() for h in header]
        col_index = {}
        for want in schema.names + [c for c in (schema.label, schema.aux) if c]:
            if want not in header:
                raise MissingColumn(f"{path}: required column {want!r} not found")
            if header.count(want) > 1:
                raise SchemaError(f"{path}: column {want!r} appears more than once in the header")
            col_index[want] = header.index(want)
        # ``stop``: what ended the rows early, raised unless a row before it fails
        records, row_numbers, stop, irow = [], [], None, 0
        try:
            for irow, rec in enumerate(reader, start=1):
                if not rec or all(cell.strip() == "" for cell in rec):
                    continue
                if len(rec) != len(header):
                    stop = NonNumericCell(
                        f"{path}: data row {irow} has {len(rec)} cells, header has {len(header)}"
                    )
                    break
                records.append(rec)
                row_numbers.append(irow)
        except csv.Error as exc:
            stop = NonNumericCell(f"{path}: data row {irow + 1} cannot be read: {exc}")
    columns = {}
    try:
        for name, k in col_index.items():
            columns[name] = np.array([float(rec[k]) for rec in records], dtype=float)
        parsed = all(np.isfinite(col).all() for col in columns.values())
    except ValueError:
        parsed = False
    if not parsed:
        # the first bad cell in row order raises, as a row-by-row parse meets it
        for irow, rec in zip(row_numbers, records):
            for name, k in col_index.items():
                _parse_cell(rec[k], name, irow)
    if stop is not None:
        raise stop
    if not records:
        raise EmptyDataset(f"{path}: no data rows")
    x = np.column_stack([columns[name] for name in schema.names])
    labels = None
    if schema.label is not None:
        labels = columns[schema.label]
        _check_labels(labels)
        labels = labels.astype(int)
    aux = columns[schema.aux] if schema.aux is not None else None
    return Dataset(schema=schema, x=x, labels=labels, aux=aux)
