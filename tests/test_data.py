import csv

import numpy as np
import pytest

from vinerisk.data import Dataset, Schema, VariableSpec, _parse_cell, load_dataset
from vinerisk.errors import (
    EmptyDataset,
    MissingColumn,
    MissingValue,
    NonNumericCell,
    OrdinalOutOfRange,
    SchemaError,
)


@pytest.fixture
def schema():
    return Schema(
        variables=(
            VariableSpec("bmi", "continuous"),
            VariableSpec("bloodloss", "ordinal", levels=3),
        ),
        label="y",
        aux="nights",
    )


def test_variable_spec_validation():
    with pytest.raises(SchemaError):
        VariableSpec("x", "categorical")
    with pytest.raises(SchemaError):
        VariableSpec("x", "ordinal", levels=1)
    with pytest.raises(SchemaError):
        VariableSpec("x", "continuous", levels=3)


BAD_LEVELS = [3.9, 2.5, "3", True, False, float("nan"), float("inf"), None]


@pytest.mark.parametrize("levels", BAD_LEVELS, ids=repr)
def test_ordinal_levels_must_be_a_whole_number(levels):
    with pytest.raises(SchemaError, match="whole number of levels"):
        VariableSpec("o", "ordinal", levels=levels)
    with pytest.raises(SchemaError, match="whole number of levels"):
        Schema.from_dict({"variables": [{"name": "o", "kind": "ordinal", "levels": levels}]})


@pytest.mark.parametrize("levels", [3, 3.0, np.int64(3), np.float64(3.0)], ids=repr)
def test_ordinal_levels_are_stored_as_int(levels):
    assert type(VariableSpec("o", "ordinal", levels=levels).levels) is int
    schema = Schema.from_dict({"variables": [{"name": "o", "kind": "ordinal", "levels": levels}]})
    assert schema.variables[0].levels == 3
    assert type(schema.variables[0].levels) is int


BAD_SHAPES = {
    "variables-as-object": {"variables": {"x1": "continuous"}},
    "top-level-list": [{"name": "x1", "kind": "continuous"}],
    "variables-as-names": {"variables": ["x1"]},
    "entry-without-name": {"variables": [{"kind": "continuous"}]},
    "entry-without-kind": {"variables": [{"name": "x1"}]},
}


@pytest.mark.parametrize("obj", BAD_SHAPES.values(), ids=BAD_SHAPES.keys())
def test_schema_of_the_wrong_shape_is_a_schema_error(obj):
    with pytest.raises(SchemaError, match="'variables' must be a list of objects"):
        Schema.from_dict(obj)


def test_schema_rejects_duplicates_and_collisions():
    v = VariableSpec("a", "continuous")
    with pytest.raises(SchemaError):
        Schema(variables=(v, VariableSpec("a", "continuous")))
    with pytest.raises(SchemaError):
        Schema(variables=(v,), label="a")


def test_schema_roundtrip(schema):
    again = Schema.from_dict(schema.to_dict())
    assert again == schema
    assert again.index_of("bloodloss") == 1
    with pytest.raises(MissingColumn):
        again.index_of("nope")


def test_dataset_validation(schema):
    x = np.array([[22.5, 1.0], [31.0, 3.0]])
    ds = Dataset(schema, x, labels=np.array([0, 1]), aux=np.array([2.0, 7.0]))
    assert ds.n == 2 and ds.d == 2
    with pytest.raises(OrdinalOutOfRange):
        Dataset(schema, np.array([[22.5, 4.0]]), labels=np.array([0]))
    with pytest.raises(OrdinalOutOfRange):
        Dataset(schema, np.array([[22.5, 1.5]]), labels=np.array([0]))
    with pytest.raises(MissingValue):
        Dataset(schema, np.array([[np.nan, 1.0]]), labels=np.array([0]))


def test_split_by_class_keeps_empty_class(schema):
    x = np.array([[20.0, 1.0], [25.0, 2.0], [30.0, 3.0]])
    ds = Dataset(schema, x, labels=np.array([1, 1, 1]), aux=np.array([1.0, 2.0, 3.0]))
    with pytest.warns(UserWarning, match="class 0 has no rows"):
        parts = ds.split_by_class()
    assert parts[0].n == 0
    assert parts[1].n == 3


def test_csv_roundtrip(tmp_path, schema):
    rng = np.random.default_rng(3)
    x = np.column_stack(
        [rng.normal(25, 4, size=20), rng.integers(1, 4, size=20).astype(float)]
    )
    ds = Dataset(
        schema,
        x,
        labels=rng.integers(0, 2, size=20),
        aux=rng.normal(5, 2, size=20),
    )
    path = tmp_path / "d.csv"
    ds.to_csv(path)
    back = load_dataset(path, schema)
    # %.17g float formatting makes the round trip exact
    np.testing.assert_array_equal(back.x, ds.x)
    np.testing.assert_array_equal(back.labels, ds.labels)
    np.testing.assert_array_equal(back.aux, ds.aux)


def test_load_errors(tmp_path, schema):
    p = tmp_path / "bad.csv"
    p.write_text("bmi,bloodloss,y,nights\n")
    with pytest.raises(EmptyDataset):
        load_dataset(p, schema)

    p.write_text("bmi,y,nights\n22,0,1\n")
    with pytest.raises(MissingColumn, match="bloodloss"):
        load_dataset(p, schema)

    p.write_text("bmi,bloodloss,y,nights\n22,oops,0,1\n")
    with pytest.raises(NonNumericCell, match="bloodloss"):
        load_dataset(p, schema)

    p.write_text("bmi,bloodloss,y,nights\n22,,0,1\n")
    with pytest.raises(MissingValue, match="row 1"):
        load_dataset(p, schema)


def test_load_rejects_a_read_column_repeated_in_the_header(tmp_path, schema):
    p = tmp_path / "dup.csv"
    p.write_text("bmi,bloodloss,bmi,y,nights\n22,1,23,0,1\n")
    with pytest.raises(SchemaError, match="'bmi'"):
        load_dataset(p, schema)
    p.write_text("bmi,bloodloss,y,nights,y\n22,1,0,1,1\n")
    with pytest.raises(SchemaError, match="'y'"):
        load_dataset(p, schema)
    # a repeated column the schema does not read is ignored
    p.write_text("bmi,extra,bloodloss,extra,y,nights\n22,5,1,6,0,1\n")
    assert load_dataset(p, schema).x.tolist() == [[22.0, 1.0]]


def test_unlabeled_schema(tmp_path):
    schema = Schema(variables=(VariableSpec("x", "continuous"),))
    p = tmp_path / "u.csv"
    p.write_text("x\n1.5\n2.5\n")
    ds = load_dataset(p, schema)
    assert ds.labels is None and ds.aux is None
    assert ds.x.shape == (2, 1)


# ---------------------------------------------------------------------------
# column-wise CSV reading and writing against the row-by-row forms
# ---------------------------------------------------------------------------


def _row_by_row_csv(ds, path):
    """``Dataset.to_csv`` as it wrote one cell at a time."""
    header = list(ds.schema.names) + [ds.schema.label, ds.schema.aux]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(ds.n):
            row = []
            for j, spec in enumerate(ds.schema.variables):
                v = ds.x[i, j]
                row.append(str(int(v)) if spec.is_ordinal else format(v, ".17g"))
            row.append(str(int(ds.labels[i])))
            row.append(format(ds.aux[i], ".17g"))
            writer.writerow(row)


def test_to_csv_writes_the_bytes_of_the_row_by_row_writer(tmp_path, schema):
    rng = np.random.default_rng(5)
    n = 200
    bmi = rng.normal(25, 4, size=n) * 10.0 ** rng.integers(-300, 300, size=n)
    bmi[:4] = [-0.0, 5e-324, 1.7976931348623157e308, 0.1]
    x = np.column_stack([bmi, rng.integers(1, 4, size=n).astype(float)])
    ds = Dataset(schema, x, labels=rng.integers(0, 2, size=n), aux=rng.normal(5, 2, size=n))
    ds.to_csv(tmp_path / "columns.csv")
    _row_by_row_csv(ds, tmp_path / "rows.csv")
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


_TOO_LONG = '"' + "a" * (csv.field_size_limit() + 1) + '"'


def _row_by_row_error(path, schema):
    """The error the row-by-row parse raised first: ``(type, message)``.  A
    row the CSV reader cannot read is a ``NonNumericCell`` naming it."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        names = schema.names + [schema.label, schema.aux]
        irow = 0
        try:
            for irow, rec in enumerate(reader, start=1):
                if not rec or all(cell.strip() == "" for cell in rec):
                    continue
                if len(rec) != len(header):
                    raise NonNumericCell(
                        f"{path}: data row {irow} has {len(rec)} cells, header has {len(header)}"
                    )
                for name in names:
                    _parse_cell(rec[header.index(name)], name, irow)
        except (MissingValue, NonNumericCell) as exc:
            return type(exc), str(exc)
        except csv.Error as exc:
            return NonNumericCell, f"{path}: data row {irow + 1} cannot be read: {exc}"
    return None


@pytest.mark.parametrize(
    "rows",
    [
        ["22,1,0,1", "23,oops,0,1", "x,1,0,1"],  # a later row's earlier column
        ["22,1,0,1", "nan,,0,1"],  # two bad cells in one row: the first column
        ["22,1,0,1", "", " , ", "24,2,,1"],  # blank rows still count
        ["22,1,0,1", "23,2,0,inf", "1e400,1,0,1"],  # non-finite, the aux column too
        ["22,1,0,1", "23,2,0", "24,,0,1"],  # a short row before a bad cell
        ["22,x,0,1", "23,2,0"],  # a bad cell before a short row
        ["22,1,0,1", "23, 2 ,0,1", "  ,1,0,1"],  # a blank cell among spaced ones
        ["22,,0,1", f"23,{_TOO_LONG},0,1"],  # a bad cell before an unreadable row
        ["22,1,0,1", f"23,{_TOO_LONG},0,1", "24,,0,1"],  # an unreadable row first
    ],
)
def test_load_raises_the_error_the_row_by_row_parse_met_first(tmp_path, schema, rows):
    p = tmp_path / "bad.csv"
    p.write_text("bmi,bloodloss,y,nights\n" + "\n".join(rows) + "\n")
    want = _row_by_row_error(p, schema)
    with pytest.raises((MissingValue, NonNumericCell)) as got:
        load_dataset(p, schema)
    assert (type(got.value), str(got.value)) == want


_LONG_FIELD = '"' + "a" * 200_000 + '"'


@pytest.mark.parametrize(
    "text,where",
    [
        (f"bmi,bloodloss,y,nights\n\n22,1,0,1\n{_LONG_FIELD},1,0,1\n", "data row 3"),
        (f"bmi,{_LONG_FIELD},y,nights\n22,1,0,1\n", "header row"),
    ],
    ids=["data-row", "header"],
)
def test_an_unreadable_csv_field_is_a_non_numeric_cell_naming_its_row(tmp_path, schema, text, where):
    # a 200 000-character quoted field is past csv.field_size_limit()
    p = tmp_path / "long.csv"
    p.write_text(text)
    with pytest.raises(NonNumericCell) as got:
        load_dataset(p, schema)
    assert str(got.value).startswith(f"{p}: {where} cannot be read: field larger than field limit")


_GOLDEN_SCHEMA = Schema(
    variables=(
        VariableSpec("dose", "continuous"),
        VariableSpec("grade, 1-3", "ordinal", levels=3),
        VariableSpec("age", "continuous"),
    ),
    label="outcome",
    aux="weight",
)

_GOLDEN_BYTES = (
    b'dose,"grade, 1-3",age,outcome,weight\r\n'
    b"-0,1,1e-300,1,0.5\r\n"
    b"10000000000000000,3,0.10000000000000001,0,10000000000000000\r\n"
    b"2.5,2,-0.33333333333333331,1,-0\r\n"
)


def _golden_dataset():
    x = np.array([[-0.0, 1.0, 1e-300], [1e16, 3.0, 0.1], [2.5, 2.0, -1.0 / 3.0]])
    return Dataset(_GOLDEN_SCHEMA, x, labels=np.array([1, 0, 1]), aux=np.array([0.5, 1e16, -0.0]))


def test_to_csv_golden_bytes(tmp_path):
    path = tmp_path / "golden.csv"
    _golden_dataset().to_csv(path)
    assert path.read_bytes() == _GOLDEN_BYTES


def test_the_golden_file_loads_back_exactly(tmp_path):
    path = tmp_path / "golden.csv"
    path.write_bytes(_GOLDEN_BYTES)
    ds, back = _golden_dataset(), load_dataset(path, _GOLDEN_SCHEMA)
    # bytes, so that -0.0 must come back as -0.0
    assert back.x.tobytes() == ds.x.tobytes()
    assert back.aux.tobytes() == ds.aux.tobytes()
    np.testing.assert_array_equal(back.labels, ds.labels)

