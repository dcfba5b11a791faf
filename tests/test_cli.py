import csv
import json

import numpy as np
import pytest

from vinerisk.cli import _parse_grid, _parse_seeds, main
from vinerisk.classifier import RISK_GROUPS
from vinerisk.data import Dataset, Schema, VariableSpec
from vinerisk.scenario import BMI_CATEGORIES, GridSpec


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def workspace(tmp_path, capsys):
    """Simulated data, schema sidecar and a fitted model on disk."""
    data = tmp_path / "train.csv"
    code, _, err = _run(
        capsys,
        "simulate",
        "--seed", "0",
        "--n-train", "40",
        "--n-test", "20",
        "--out", str(data),
    )
    assert code == 0, err
    schema = tmp_path / "train.csv.schema.json"
    model = tmp_path / "model.json"
    code, _, err = _run(
        capsys,
        "fit",
        "--seed", "0",
        "--data", str(data),
        "--schema", str(schema),
        "--out", str(model),
    )
    assert code == 0, err
    return {"dir": tmp_path, "data": data, "schema": schema, "model": model}


class TestParsing:
    def test_seed_ranges(self):
        assert _parse_seeds("0:4") == [0, 1, 2, 3]
        assert _parse_seeds("3,5,9") == [3, 5, 9]
        assert _parse_seeds("7") == [7]

    def test_grid_syntax(self):
        g = _parse_grid("x1:-2:2")
        assert isinstance(g, GridSpec)
        assert (g.lo, g.hi, g.points) == (-2.0, 2.0, 200)
        assert _parse_grid("x1:0:1:31").points == 31
        assert _parse_grid("k:levels=1,2,3").levels == (1, 2, 3)
        with pytest.raises(ValueError):
            _parse_grid("x1")
        with pytest.raises(ValueError):
            _parse_grid("x1:0:1:5:9")


class TestSimulate:
    def test_writes_data_and_schema(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code, _, err = _run(
            capsys, "simulate", "--seed", "1", "--n-train", "10", "--n-test", "5",
            "--out", str(out),
        )
        assert code == 0 and err == ""
        rows = _read_rows(out)
        assert len(rows) == 30
        assert set(rows[0]) == {"x1", "x2", "y"}
        sidecar = json.loads((tmp_path / "d.csv.schema.json").read_text())
        assert [v["name"] for v in sidecar["variables"]] == ["x1", "x2"]
        assert sidecar["label"] == "y"

    def test_split_outputs(self, tmp_path, capsys):
        code, _, _ = _run(
            capsys, "simulate", "--seed", "1", "--n-train", "10", "--n-test", "5",
            "--out", str(tmp_path / "full.csv"),
            "--train-out", str(tmp_path / "tr.csv"),
            "--test-out", str(tmp_path / "te.csv"),
        )
        assert code == 0
        assert len(_read_rows(tmp_path / "tr.csv")) == 20
        assert len(_read_rows(tmp_path / "te.csv")) == 10

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        _run(capsys, "simulate", "--seed", "5", "--n-train", "15", "--n-test", "5", "--out", str(a))
        _run(capsys, "simulate", "--seed", "5", "--n-train", "15", "--n-test", "5",
             "--workers", "4", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_missing_seed_fails(self, tmp_path, capsys):
        code, _, err = _run(capsys, "simulate", "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert err.startswith("error:cli:")
        assert "\n" not in err.strip()

    def test_mixed_variant_schema(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        code, _, _ = _run(
            capsys, "simulate", "--seed", "2", "--variant", "mixed",
            "--n-train", "50", "--n-test", "0", "--out", str(out),
        )
        assert code == 0
        sidecar = json.loads((tmp_path / "m.csv.schema.json").read_text())
        assert sidecar["variables"][1]["kind"] == "ordinal"
        assert sidecar["variables"][1]["levels"] >= 1


class TestFitPredict:
    def test_predict_columns_and_normalization(self, workspace, capsys):
        out = workspace["dir"] / "probs.csv"
        code, _, err = _run(
            capsys, "predict",
            "--model", str(workspace["model"]),
            "--data", str(workspace["data"]),
            "--out", str(out),
        )
        assert code == 0, err
        rows = _read_rows(out)
        assert len(rows) == 120
        assert set(rows[0]) == {"row", "p_class0", "p_class1"}
        total = float(rows[0]["p_class0"]) + float(rows[0]["p_class1"])
        assert abs(total - 1.0) < 2e-6  # CSV keeps 6 significant digits

    def test_predict_group_columns(self, workspace, capsys):
        out = workspace["dir"] / "probs.csv"
        _run(
            capsys, "predict",
            "--model", str(workspace["model"]),
            "--data", str(workspace["data"]),
            "--alpha", "0.2,0.3",
            "--out", str(out),
        )
        rows = _read_rows(out)
        assert "group_alpha0.2" in rows[0] and "group_alpha0.3" in rows[0]
        assert all(r["group_alpha0.2"] in RISK_GROUPS for r in rows)

    def test_predict_is_deterministic(self, workspace, capsys):
        a = workspace["dir"] / "a.csv"
        b = workspace["dir"] / "b.csv"
        for out, workers in ((a, None), (b, "3")):
            argv = [
                "predict", "--model", str(workspace["model"]),
                "--data", str(workspace["data"]), "--out", str(out),
            ]
            if workers:
                argv += ["--workers", workers]
            assert main(argv) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_refit_is_deterministic(self, workspace, capsys):
        again = workspace["dir"] / "model2.json"
        code, _, _ = _run(
            capsys, "fit", "--seed", "0",
            "--data", str(workspace["data"]),
            "--schema", str(workspace["schema"]),
            "--out", str(again),
        )
        assert code == 0
        assert again.read_bytes() == workspace["model"].read_bytes()

    def test_bad_family_is_single_line_error(self, workspace, capsys):
        code, _, err = _run(
            capsys, "fit", "--seed", "0",
            "--data", str(workspace["data"]),
            "--schema", str(workspace["schema"]),
            "--families", "gaussian,nosuch",
            "--out", str(workspace["dir"] / "m.json"),
        )
        assert code == 1
        assert err.startswith("error:ValueError:")
        assert err.strip().count("\n") == 0

    def test_oversized_csv_field_is_single_line_error(self, workspace, capsys):
        # a 200 000-character quoted field is past csv.field_size_limit()
        rows = workspace["data"].read_text().splitlines()
        cells = rows[3].split(",")
        cells[1] = '"' + "a" * 200_000 + '"'
        rows[3] = ",".join(cells)
        data = workspace["dir"] / "long.csv"
        data.write_text("\n".join(rows) + "\n")
        code, _, err = _run(
            capsys, "fit", "--seed", "0",
            "--data", str(data),
            "--schema", str(workspace["schema"]),
            "--out", str(workspace["dir"] / "m.json"),
        )
        assert code == 1
        assert err.startswith(f"error:NonNumericCell:{data}: data row 3 cannot be read:")
        assert err.strip().count("\n") == 0


class TestEvaluateAndGroups:
    @pytest.fixture
    def probs(self, workspace, capsys):
        out = workspace["dir"] / "probs.csv"
        _run(
            capsys, "predict", "--model", str(workspace["model"]),
            "--data", str(workspace["data"]), "--out", str(out),
        )
        return out

    def test_evaluate_metrics_table(self, workspace, probs, capsys):
        out = workspace["dir"] / "metrics.csv"
        code, _, err = _run(
            capsys, "evaluate",
            "--posteriors", str(probs),
            "--data", str(workspace["data"]),
            "--schema", str(workspace["schema"]),
            "--out", str(out),
        )
        assert code == 0, err
        rows = _read_rows(out)
        got = {(r["metric"], r["class"]) for r in rows}
        assert got == {
            ("brier", "0"), ("brier", "1"), ("nll", "0"), ("nll", "1"),
            ("nll_mean", ""), ("nll_sum", ""), ("auc", ""),
        }
        values = {r["metric"]: float(r["value"]) for r in rows if r["class"] == ""}
        assert 0.0 <= values["auc"] <= 1.0
        assert values["nll_sum"] > values["nll_mean"]

    def test_evaluate_row_mismatch(self, workspace, probs, capsys):
        short = workspace["dir"] / "short.csv"
        lines = probs.read_text().splitlines()
        short.write_text("\n".join(lines[:5]) + "\n")
        code, _, err = _run(
            capsys, "evaluate",
            "--posteriors", str(short),
            "--data", str(workspace["data"]),
            "--schema", str(workspace["schema"]),
            "--out", str(workspace["dir"] / "m.csv"),
        )
        assert code == 1
        assert err.startswith("error:VineRiskError:")

    def test_evaluate_oversized_field_is_single_line_error(self, workspace, probs, capsys):
        lines = probs.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + ',"' + "a" * 200_000 + '"'
        long = workspace["dir"] / "long.csv"
        long.write_text("\n".join(lines) + "\n")
        code, _, err = _run(
            capsys, "evaluate",
            "--posteriors", str(long),
            "--data", str(workspace["data"]),
            "--schema", str(workspace["schema"]),
            "--out", str(workspace["dir"] / "m.csv"),
        )
        assert code == 1
        assert err.startswith(f"error:VineRiskError:{long}: line 4 cannot be read:")
        assert err.strip().count("\n") == 0

    def test_risk_groups_default_alphas(self, workspace, probs, capsys):
        out = workspace["dir"] / "groups.csv"
        code, _, err = _run(
            capsys, "risk-groups",
            "--posteriors", str(probs),
            "--data", str(workspace["data"]),
            "--schema", str(workspace["schema"]),
            "--out", str(out),
        )
        assert code == 0, err
        rows = _read_rows(out)
        assert len(rows) == 9  # three default alphas x three groups
        assert [r["group"] for r in rows[:3]] == list(RISK_GROUPS)
        assert {r["alpha"] for r in rows} == {"0.15", "0.2", "0.25"}
        assert set(rows[0]) == {
            "alpha", "group", "n", "n_class0", "n_class1", "aux_mean", "aux_sd"
        }
        n_total = sum(int(r["n"]) for r in rows if r["alpha"] == "0.2")
        assert n_total == 120


class TestScenario:
    def test_curve_output(self, workspace, capsys):
        profile = workspace["dir"] / "profile.json"
        profile.write_text(json.dumps({"x1": 0.0, "x2": 0.0}))
        out = workspace["dir"] / "curve.csv"
        meta = workspace["dir"] / "curve.meta.json"
        code, _, err = _run(
            capsys, "scenario",
            "--model", str(workspace["model"]),
            "--profile", str(profile),
            "--grid", "x1:-2:2:21",
            "--out", str(out),
            "--meta-out", str(meta),
        )
        assert code == 0, err
        rows = _read_rows(out)
        assert len(rows) == 21
        assert set(rows[0]) == {"value", "probability"}
        assert all(0.0 <= float(r["probability"]) <= 1.0 for r in rows)
        meta_obj = json.loads(meta.read_text())
        assert meta_obj["variable"] == "x1"
        assert meta_obj["adverse_class"] == 1

    def test_curve_on_bmi_names_its_categories(self, workspace, capsys):
        work = workspace["dir"]
        data, schema = work / "bmi.csv", work / "bmi.csv.schema.json"
        data.write_text(workspace["data"].read_text().replace("x1", "bmi"))
        schema.write_text(workspace["schema"].read_text().replace('"x1"', '"bmi"'))
        model = work / "bmi-model.json"
        code, _, err = _run(
            capsys, "fit", "--seed", "0",
            "--data", str(data), "--schema", str(schema), "--out", str(model),
        )
        assert code == 0, err
        profile = work / "bmi-profile.json"
        profile.write_text(json.dumps({"bmi": 0.0, "x2": 0.0}))
        meta = work / "bmi.meta.json"
        code, _, err = _run(
            capsys, "scenario",
            "--model", str(model),
            "--profile", str(profile),
            "--grid", "bmi:-2:2:5",
            "--out", str(work / "bmi-curve.csv"),
            "--meta-out", str(meta),
        )
        assert code == 0, err
        assert json.loads(meta.read_text()) == {
            "profile": {"bmi": 0.0, "x2": 0.0},
            "adverse_class": 1,
            "variable": "bmi",
            "categories": BMI_CATEGORIES,
        }

    def test_surface_output(self, workspace, capsys):
        profile = workspace["dir"] / "profile.json"
        profile.write_text(json.dumps({"x1": 0.0, "x2": 0.0}))
        out = workspace["dir"] / "surface.csv"
        meta = workspace["dir"] / "surface.meta.json"
        code, _, err = _run(
            capsys, "scenario",
            "--model", str(workspace["model"]),
            "--profile", str(profile),
            "--grid", "x1:-2:2:7",
            "--grid2", "x2:-2:2:5",
            "--out", str(out),
            "--meta-out", str(meta),
        )
        assert code == 0, err
        rows = _read_rows(out)
        assert len(rows) == 35
        assert set(rows[0]) == {"v1", "v2", "probability", "on_contour"}
        assert {r["on_contour"] for r in rows} <= {"true", "false"}
        meta_obj = json.loads(meta.read_text())
        assert meta_obj["var1"] == "x1" and meta_obj["var2"] == "x2"
        assert "contour_present" in meta_obj

    def test_unknown_grid_variable(self, workspace, capsys):
        profile = workspace["dir"] / "profile.json"
        profile.write_text(json.dumps({"x1": 0.0, "x2": 0.0}))
        code, _, err = _run(
            capsys, "scenario",
            "--model", str(workspace["model"]),
            "--profile", str(profile),
            "--grid", "zz:-1:1",
            "--out", str(workspace["dir"] / "c.csv"),
        )
        assert code == 1
        assert err.startswith("error:MissingColumn:")

    @pytest.fixture
    def mixed_model(self, tmp_path, capsys):
        """A model fitted on the mixed variant: x1 continuous, x2 ordinal."""
        data = tmp_path / "mixed.csv"
        code, _, err = _run(
            capsys, "simulate", "--seed", "0", "--variant", "mixed",
            "--n-train", "40", "--n-test", "0", "--out", str(data),
        )
        assert code == 0, err
        model = tmp_path / "mixed-model.json"
        code, _, err = _run(
            capsys, "fit", "--seed", "0", "--data", str(data),
            "--schema", str(tmp_path / "mixed.csv.schema.json"), "--out", str(model),
        )
        assert code == 0, err
        return model

    @pytest.mark.parametrize(
        "profile,grid",
        [
            ('{"x1": NaN, "x2": 1}', "x2:levels=1,2"),
            ('{"x1": Infinity, "x2": 1}', "x2:levels=1,2"),
            ('{"x1": 0.0, "x2": NaN}', "x1:-1:1:5"),
            ('{"x1": 0.0, "x2": Infinity}', "x1:-1:1:5"),
            ('{"x1": 0.0, "x2": 1}', "x1:-inf:2:5"),
            ('{"x1": 1%s, "x2": 1}' % ("0" * 400), "x2:levels=1,2"),
        ],
        ids=[
            "nan-continuous", "inf-continuous", "nan-ordinal", "inf-ordinal", "inf-grid",
            "int-beyond-float",
        ],
    )
    def test_non_finite_input_is_one_error_line(
        self, mixed_model, tmp_path, capsys, profile, grid
    ):
        path = tmp_path / "profile.json"
        path.write_text(profile)
        out = tmp_path / "scenario.csv"
        code, _, err = _run(
            capsys, "scenario", "--model", str(mixed_model), "--profile", str(path),
            "--grid", grid, "--out", str(out),
        )
        assert code == 1
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err
        assert not out.exists()


class TestDiagnose:
    @pytest.fixture
    def mixed_files(self, tmp_path):
        rng = np.random.default_rng(0)
        n = 240
        z = rng.multivariate_normal([0, 0], [[1, 0.5], [0.5, 1]], size=n)
        k = (np.digitize(rng.normal(size=n), [-0.5, 0.5]) + 1).astype(float)
        schema = Schema(
            variables=(
                VariableSpec("a", "continuous"),
                VariableSpec("b", "continuous"),
                VariableSpec("k", "ordinal", 3),
            )
        )
        ds = Dataset(schema, np.column_stack([z, k]))
        data = tmp_path / "mixed.csv"
        ds.to_csv(data)
        schema_path = tmp_path / "mixed.schema.json"
        schema_path.write_text(json.dumps(schema.to_dict()))
        return data, schema_path

    def test_band_table(self, tmp_path, mixed_files, capsys):
        data, schema_path = mixed_files
        out = tmp_path / "bands.csv"
        code, _, err = _run(
            capsys, "diagnose", "--seed", "0",
            "--data", str(data), "--schema", str(schema_path),
            "--x", "a", "--y", "b", "--z", "k",
            "--replicates", "150",
            "--out", str(out),
        )
        assert code == 0, err
        rows = _read_rows(out)
        assert [r["category"] for r in rows] == ["1", "2", "3"]
        for r in rows:
            assert float(r["lower"]) <= float(r["observed"]) <= float(r["upper"])
            assert r["modeled"] == ""

    def test_scores_output(self, tmp_path, mixed_files, capsys):
        data, schema_path = mixed_files
        out = tmp_path / "bands.csv"
        scores = tmp_path / "scores.csv"
        code, _, err = _run(
            capsys, "diagnose", "--seed", "1",
            "--data", str(data), "--schema", str(schema_path),
            "--x", "a", "--y", "b", "--z", "k",
            "--replicates", "120",
            "--out", str(out),
            "--scores-out", str(scores),
        )
        assert code == 0, err
        rows = _read_rows(scores)
        assert len(rows) == 240
        assert set(rows[0]) == {"z_continuous", "z_latent"}

    def test_deterministic_bands(self, tmp_path, mixed_files, capsys):
        data, schema_path = mixed_files
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            code, _, _ = _run(
                capsys, "diagnose", "--seed", "9",
                "--data", str(data), "--schema", str(schema_path),
                "--x", "a", "--y", "b", "--z", "k",
                "--replicates", "120",
                "--out", str(out),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()


class TestBenchmark:
    def test_seed_list_equivalence(self, tmp_path, capsys):
        common = [
            "benchmark", "--variant", "continuous",
            "--n-train", "40", "--n-test", "20", "--modes", "oracle",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        code, _, err = _run(capsys, *common, "--seeds", "0:1", "--out", str(a))
        assert code == 0, err
        code, _, _ = _run(capsys, *common, "--seeds", "0", "--out", str(b))
        assert code == 0
        assert a.read_bytes() == b.read_bytes()
        meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
        assert meta["label_mapping"]["generator class 1 (frank, tau 0.5)"] == 1
        rows = _read_rows(a)
        assert set(rows[0]) == {
            "variant", "seed", "method", "mode", "split", "metric", "value"
        }

    def test_unknown_mode_is_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code, _, err = _run(
            capsys, "benchmark", "--variant", "continuous", "--seeds", "0",
            "--n-train", "40", "--n-test", "0", "--modes", "oracle,typo",
            "--out", str(out),
        )
        assert code == 1
        assert err.startswith("error:ValueError:") and "typo" in err
        assert err.strip().count("\n") == 0
        assert not out.exists()

    def test_grid_output(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        grid_out = tmp_path / "grid.csv"
        code, _, err = _run(
            capsys, "benchmark", "--variant", "continuous",
            "--seeds", "0", "--n-train", "40", "--n-test", "0",
            "--modes", "oracle", "--grid-points", "4",
            "--out", str(out), "--grid-out", str(grid_out),
        )
        assert code == 0, err
        rows = _read_rows(grid_out)
        assert len(rows) == 2 * 16
        assert all(0.0 <= float(r["p_class1"]) <= 1.0 for r in rows)


class TestConfigAndErrors:
    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"n-train": 12, "n-test": 3, "seed": 4}))
        out = tmp_path / "d.csv"
        code, _, err = _run(
            capsys, "simulate", "--config", str(conf), "--out", str(out)
        )
        assert code == 0, err
        assert len(_read_rows(out)) == 30

    def test_cli_flags_beat_config(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"n-train": 12, "n-test": 3, "seed": 4}))
        out = tmp_path / "d.csv"
        code, _, _ = _run(
            capsys, "simulate", "--config", str(conf),
            "--n-train", "5", "--out", str(out),
        )
        assert code == 0
        assert len(_read_rows(out)) == 16  # (5 + 3) per class

    def test_out_dir_redirection(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("VINERISK_OUT", str(tmp_path))
        monkeypatch.chdir(tmp_path)
        code, _, err = _run(
            capsys, "simulate", "--seed", "0", "--n-train", "5", "--n-test", "0",
            "--out", "rel.csv",
        )
        assert code == 0, err
        assert (tmp_path / "rel.csv").exists()
        assert (tmp_path / "rel.csv.schema.json").exists()

    def test_missing_input_file(self, tmp_path, capsys):
        code, _, err = _run(
            capsys, "fit", "--seed", "0",
            "--data", str(tmp_path / "ghost.csv"),
            "--schema", str(tmp_path / "ghost.json"),
            "--out", str(tmp_path / "m.json"),
        )
        assert code == 1
        assert err.startswith("error:")
        assert err.strip().count("\n") == 0

    def test_schema_of_the_wrong_shape_is_one_error_line(self, workspace, capsys):
        schema = workspace["dir"] / "object.json"
        schema.write_text(json.dumps({"variables": {"x1": "continuous"}}))
        code, _, err = _run(
            capsys, "fit", "--seed", "0",
            "--data", str(workspace["data"]), "--schema", str(schema),
            "--out", str(workspace["dir"] / "m.json"),
        )
        assert code == 1
        assert err.startswith("error:SchemaError:")
        assert err.strip().count("\n") == 0

    def test_bad_workers(self, tmp_path, capsys):
        code, _, err = _run(
            capsys, "simulate", "--seed", "0", "--workers", "0",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert "workers" in err

    def test_unknown_command_usage_error(self, capsys):
        code, _, err = _run(capsys, "frobnicate")
        assert code == 1
        assert err.startswith("error:cli:usage:")
