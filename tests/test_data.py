import numpy as np
import pytest

from vinerisk.data import Dataset, Schema, VariableSpec, load_dataset
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
