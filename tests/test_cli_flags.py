import json

from vinerisk.cli import _fit_config, _merge_config, build_parser
from vinerisk.vine import FitConfig

FIT = ["fit", "--data", "d.csv", "--schema", "s.json", "--out", "m.json"]


def _parse(*argv):
    return _merge_config(build_parser().parse_args(list(argv)))


def test_fit_without_fit_flags_uses_the_dataclass_defaults():
    assert _fit_config(_parse(*FIT, "--seed", "3")) == FitConfig()


def test_fit_flags_reach_the_config():
    args = _parse(
        *FIT, "--seed", "1", "--psi0", "0.8", "--families", "gaussian, frank",
        "--truncation-search", "full", "--indep-test-level", "0.05",
        "--margin-method", "empirical", "--prior-mode", "empirical",
    )
    assert _fit_config(args) == FitConfig(
        families=("gaussian", "frank"),
        psi0=0.8,
        truncation_search="full",
        indep_test_level=0.05,
        margin_method="empirical",
        priors="empirical",
    )


def test_nonpositive_indep_test_level_disables_the_pretest():
    for level in ("0", "-1"):
        args = _parse(*FIT, "--seed", "0", "--indep-test-level", level)
        assert _fit_config(args).indep_test_level is None


def test_config_file_values_are_coerced_to_numbers(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"psi0": "0.7", "indep-test-level": "0.02", "seed": "5"}))
    cfg = _fit_config(_parse(*FIT, "--config", str(conf)))
    assert cfg == FitConfig(psi0=0.7, indep_test_level=0.02)
