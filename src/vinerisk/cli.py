"""Command-line front-end.

Every subcommand is a pure function of its inputs, flags and seed: re-runs
are byte-identical and worker count never changes results.  Numeric CSV
cells carry 6 significant digits; JSON artifacts keep full precision.
Errors exit nonzero with a single ``error:<type>:<message>`` line.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import Optional

import numpy as np

from .classifier import (
    ClassifierModel,
    RiskPolicy,
    assign_risk_groups,
    evaluate_probs,
    fit_classifier,
    posterior,
    risk_group_report,
)
from .data import Schema, load_dataset
from .diagnostics import bootstrap_bands, latent_normal_scores, model_conditional_spearman
from .errors import VineRiskError
from .scenario import BaseProfile, GridSpec, risk_curve, risk_surface
from .simulation import CLASS_GENERATORS, DgpConfig, benchmark_run, simulate_dgp, split_train_test
from .vine import FitConfig

OUT_DIR_ENV = "VINERISK_OUT"


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors stay on one line."""

    def error(self, message):
        raise SystemExit(_fail(f"usage: {message}"))


def _fail(message: str, kind: str = "cli") -> int:
    line = " ".join(str(message).split())
    print(f"error:{kind}:{line}", file=sys.stderr)
    return 1


def _out_path(path: str) -> str:
    base = os.environ.get(OUT_DIR_ENV, "")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _write_csv(path: str, fieldnames, rows) -> None:
    with open(_out_path(path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        for row in rows:
            if isinstance(row, dict):
                writer.writerow([_fmt(row.get(k)) for k in fieldnames])
            else:
                writer.writerow([_fmt(v) for v in row])


def _write_json(path: str, obj) -> None:
    with open(_out_path(path), "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_alphas(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _parse_seeds(text: str) -> list[int]:
    """Seed lists as ``0:20`` (range, end exclusive) or ``1,2,7``."""
    if ":" in text:
        lo, hi = text.split(":", 1)
        return list(range(int(lo), int(hi)))
    return [int(v) for v in text.split(",") if v.strip()]


def _parse_grid(text: str) -> GridSpec:
    """Grid syntax: ``var:lo:hi[:points]`` or ``var:levels=1,2,3``."""
    name, _, rest = text.partition(":")
    if not rest:
        raise ValueError(f"grid {text!r} needs a range or level list")
    if rest.startswith("levels="):
        return GridSpec.level_list(name, [int(v) for v in rest[7:].split(",")])
    parts = rest.split(":")
    if len(parts) == 2:
        return GridSpec.linspace(name, float(parts[0]), float(parts[1]))
    if len(parts) == 3:
        return GridSpec.linspace(name, float(parts[0]), float(parts[1]), int(parts[2]))
    raise ValueError(f"grid {text!r} not understood")


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill unset flags from the ``--config`` JSON file (CLI wins)."""
    path = getattr(args, "config", None)
    if not path:
        return args
    with open(path) as fh:
        conf = json.load(fh)
    for key, value in conf.items():
        attr = key.replace("-", "_")
        if getattr(args, attr, None) is None and hasattr(args, attr):
            setattr(args, attr, value)
    return args


def _set_flags(args, **convert) -> dict:
    """The named flags that are set, on the command line or by ``--config``,
    each passed through its conversion.  Unset flags are left out, so the
    function or dataclass they feed supplies its own default."""
    out = {}
    for name, conv in convert.items():
        value = getattr(args, name, None)
        if value is not None and value != "":
            out[name] = conv(value)
    return out


def _fit_config(args) -> FitConfig:
    kw = _set_flags(
        args,
        families=lambda text: tuple(f.strip() for f in text.split(",")),
        psi0=float,
        truncation_search=str,
        indep_test_level=lambda level: None if float(level) <= 0.0 else float(level),
        margin_method=str,
        prior_mode=str,
    )
    if "prior_mode" in kw:
        kw["priors"] = kw.pop("prior_mode")
    return FitConfig(**kw)


def _labeled_posteriors(args):
    """The labeled dataset of ``--data`` and the classes and probabilities
    of the ``--posteriors`` CSV (its ``p_class<k>`` columns), one row each."""
    ds = load_dataset(args.data, Schema.from_json(args.schema))
    if ds.labels is None:
        raise VineRiskError(f"{args.command} needs a labeled dataset")
    with open(args.posteriors, newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            records = list(reader)
        except csv.Error as exc:
            # line_num counts the lines read before the one the reader failed on
            line = reader.line_num + 1
            raise VineRiskError(f"{args.posteriors}: line {line} cannot be read: {exc}") from None
    cols = [c for c in reader.fieldnames or [] if c.startswith("p_class")]
    if not cols:
        raise VineRiskError(f"{args.posteriors} has no p_class* columns")
    cols.sort(key=lambda c: int(c[len("p_class"):]))
    probs = np.asarray([[float(rec[c]) for c in cols] for rec in records], dtype=float)
    if probs.shape[0] != ds.n:
        raise VineRiskError(f"posterior rows ({probs.shape[0]}) != data rows ({ds.n})")
    return ds, [int(c[len("p_class"):]) for c in cols], probs


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    cfg = DgpConfig(**_set_flags(args, variant=str, n_train=int, n_test=int, seed=int))
    ds = simulate_dgp(cfg)
    ds.to_csv(_out_path(args.out))
    schema_out = args.schema_out or args.out + ".schema.json"
    _write_json(schema_out, ds.schema.to_dict())
    if args.train_out or args.test_out:
        train, test = split_train_test(ds, cfg)
        if args.train_out:
            train.to_csv(_out_path(args.train_out))
        if args.test_out:
            test.to_csv(_out_path(args.test_out))
    return 0


def _cmd_fit(args) -> int:
    schema = Schema.from_json(args.schema)
    train = load_dataset(args.data, schema)
    model = fit_classifier(train, _fit_config(args))
    model.save(_out_path(args.out))
    return 0


def _cmd_predict(args) -> int:
    model = ClassifierModel.load(args.model)
    ds = load_dataset(args.data, model.schema)
    probs = posterior(model, ds.x)
    fields = ["row"] + [f"p_class{c}" for c in model.classes]
    rows = []
    alphas = _parse_alphas(args.alpha) if args.alpha else []
    if alphas:
        adverse = model.classes[-1]
        k = model.class_index(adverse)
        group_cols = {}
        for a in alphas:
            group_cols[a] = assign_risk_groups(probs[:, k], RiskPolicy(a, adverse))
            fields.append(f"group_alpha{_fmt(a)}")
    for i in range(ds.n):
        row = {"row": i}
        for j, c in enumerate(model.classes):
            row[f"p_class{c}"] = float(probs[i, j])
        for a in alphas:
            row[f"group_alpha{_fmt(a)}"] = group_cols[a][i]
        rows.append(row)
    _write_csv(args.out, fields, rows)
    return 0


def _cmd_evaluate(args) -> int:
    ds, classes, probs = _labeled_posteriors(args)
    metrics = evaluate_probs(probs, ds.labels, classes)
    rows = []
    for cls in classes:
        rows.append({"metric": "brier", "class": cls, "value": metrics["brier_per_class"][cls]})
    for cls in classes:
        rows.append({"metric": "nll", "class": cls, "value": metrics["nll_per_class"][cls]})
    rows.append({"metric": "nll_mean", "class": "", "value": metrics["nll_mean"]})
    rows.append({"metric": "nll_sum", "class": "", "value": metrics["nll_sum"]})
    if metrics["auc"] is not None:
        rows.append({"metric": "auc", "class": "", "value": metrics["auc"]})
    _write_csv(args.out, ["metric", "class", "value"], rows)
    return 0


def _cmd_risk_groups(args) -> int:
    ds, classes, probs = _labeled_posteriors(args)
    alphas = _parse_alphas(args.alpha or "0.15,0.20,0.25")
    adverse = classes[-1]
    p_adv = probs[:, classes.index(adverse)]
    rows = risk_group_report(p_adv, ds.labels, alphas, adverse, aux=ds.aux)
    fields = ["alpha", "group", "n"]
    fields += [f"n_class{c}" for c in sorted(set(int(v) for v in ds.labels))]
    fields += ["aux_mean", "aux_sd"]
    _write_csv(args.out, fields, rows)
    return 0


def _cmd_scenario(args) -> int:
    model = ClassifierModel.load(args.model)
    with open(args.profile) as fh:
        base = BaseProfile(json.load(fh))
    grid1 = _parse_grid(args.grid)
    meta = {"profile": base.values, "adverse_class": model.classes[-1]}
    if args.grid2:
        grid2 = _parse_grid(args.grid2)
        surf = risk_surface(model, base, grid1, grid2)
        _write_csv(
            args.out,
            ["v1", "v2", "probability", "on_contour"],
            surf.rows(),
        )
        meta.update(surf.metadata())
    else:
        curve = risk_curve(model, base, grid1)
        _write_csv(args.out, ["value", "probability"], curve.rows())
        meta.update(curve.metadata())
    if args.meta_out:
        _write_json(args.meta_out, meta)
    return 0


def _cmd_diagnose(args) -> int:
    schema = Schema.from_json(args.schema)
    ds = load_dataset(args.data, schema)
    x = ds.column(args.x)
    y = ds.column(args.y)
    z = ds.column(args.z)
    res = bootstrap_bands(
        x, y, z, seed=int(args.seed), **_set_flags(args, replicates=int, level=float)
    )
    modeled = {}
    if args.model:
        model = ClassifierModel.load(args.model)
        label = int(args.for_class) if args.for_class is not None else model.classes[-1]
        vine = model.vines[model.class_index(label)]
        pair = (model.schema.index_of(args.x), model.schema.index_of(args.y))
        try:
            modeled = model_conditional_spearman(vine, pair, res.categories)
        except KeyError:
            modeled = {}
    res.modeled = modeled or None
    _write_csv(
        args.out,
        ["category", "observed", "lower", "upper", "modeled"],
        res.rows(),
    )
    if args.scores_out:
        zx, zk = latent_normal_scores(
            x,
            z,
            schema.variables[schema.index_of(args.z)].levels,
            seed=int(args.seed),
        )
        _write_csv(
            args.scores_out,
            ["z_continuous", "z_latent"],
            zip(zx.tolist(), zk.tolist()),
        )
    return 0


def _cmd_benchmark(args) -> int:
    seeds = _parse_seeds(args.seeds)
    variants = (
        ["continuous", "mixed"] if (args.variant or "both") == "both" else [args.variant]
    )
    modes = tuple((args.modes or "oracle,mbic").split(","))
    all_rows = []
    all_grid = []
    for variant in variants:
        cfg = DgpConfig(variant=variant, **_set_flags(args, n_train=int, n_test=int))
        rows, grid = benchmark_run(
            cfg, seeds, fit_config=_fit_config(args), modes=modes,
            **_set_flags(args, grid_points=int),
        )
        for r in rows:
            r["variant"] = variant
        for g in grid:
            g["variant"] = variant
        all_rows.extend(rows)
        all_grid.extend(grid)
    _write_csv(
        args.out,
        ["variant", "seed", "method", "mode", "split", "metric", "value"],
        all_rows,
    )
    if args.grid_out and all_grid:
        _write_csv(
            args.grid_out,
            ["variant", "seed", "method", "mode", "x1", "x2", "p_class1"],
            all_grid,
        )
    meta_out = args.meta_out or args.out + ".meta.json"
    _write_json(
        meta_out,
        {
            "label_mapping": {
                f"generator class {k} ({g.family}, tau {g.tau})": label
                for k, (label, g) in enumerate(CLASS_GENERATORS.items(), start=1)
            },
            "seeds": seeds,
            "variants": variants,
            "modes": list(modes),
            "nll_conventions": ["nll_sum (summed)", "nll_mean (averaged)"],
        },
    )
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _add_common(p: _Parser, func, *, stochastic: bool) -> None:
    """The subcommand's body ``func`` and the flags every subcommand takes;
    a stochastic one also takes ``--seed`` and fails without it."""
    p.add_argument("--config", help="JSON file supplying defaults for any flag")
    p.add_argument("--workers", type=int, default=None,
                   help="reserved; results never depend on it")
    if stochastic:
        p.add_argument("--seed", type=int, required=False, default=None)
    p.set_defaults(func=func, stochastic=stochastic)


def _add_fit_flags(p: _Parser) -> None:
    p.add_argument("--psi0", type=float, default=None)
    p.add_argument("--families", default=None,
                   help="comma-separated candidate copula families")
    p.add_argument("--truncation-search", choices=("greedy", "full"), default=None)
    p.add_argument("--indep-test-level", type=float, default=None,
                   help="pairwise independence pretest level (<=0 disables)")
    p.add_argument("--margin-method", choices=("kernel", "empirical"), default=None)
    p.add_argument("--prior-mode", choices=("equal", "empirical"), default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="vinerisk")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[], help="generate benchmark data")
    _add_common(p, _cmd_simulate, stochastic=True)
    p.add_argument("--variant", choices=("continuous", "mixed"), default=None)
    p.add_argument("--n-train", type=int, default=None)
    p.add_argument("--n-test", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--schema-out", default=None)
    p.add_argument("--train-out", default=None)
    p.add_argument("--test-out", default=None)

    p = sub.add_parser("fit", help="train a classifier from CSV")
    _add_common(p, _cmd_fit, stochastic=True)
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--out", required=True)
    _add_fit_flags(p)

    p = sub.add_parser("predict", help="posterior probabilities for a CSV")
    _add_common(p, _cmd_predict, stochastic=False)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--alpha", default=None, help="comma list adds group columns")

    p = sub.add_parser("evaluate", help="calibration metrics for posteriors")
    _add_common(p, _cmd_evaluate, stochastic=False)
    p.add_argument("--posteriors", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("risk-groups", help="low/moderate/high group report")
    _add_common(p, _cmd_risk_groups, stochastic=False)
    p.add_argument("--posteriors", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--alpha", default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("scenario", help="risk curves and surfaces")
    _add_common(p, _cmd_scenario, stochastic=False)
    p.add_argument("--model", required=True)
    p.add_argument("--profile", required=True, help="JSON {variable: value}")
    p.add_argument("--grid", required=True)
    p.add_argument("--grid2", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--meta-out", default=None)

    p = sub.add_parser("diagnose", help="conditional-dependence diagnostics")
    _add_common(p, _cmd_diagnose, stochastic=True)
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--z", required=True, help="ordinal conditioning variable")
    p.add_argument("--replicates", type=int, default=None)
    p.add_argument("--level", type=float, default=None)
    p.add_argument("--model", default=None)
    p.add_argument("--for-class", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--scores-out", default=None)

    p = sub.add_parser("benchmark", help="copula vs logistic comparison")
    _add_common(p, _cmd_benchmark, stochastic=False)
    p.add_argument("--variant", choices=("continuous", "mixed", "both"), default=None)
    p.add_argument("--seeds", required=True, help="e.g. 0:20 or 3,5,9")
    p.add_argument("--n-train", type=int, default=None)
    p.add_argument("--n-test", type=int, default=None)
    p.add_argument("--modes", default=None, help="subset of oracle,mbic")
    p.add_argument("--grid-points", type=int, default=None)
    p.add_argument("--grid-out", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--meta-out", default=None)
    p.add_argument("--seed", type=int, default=None, help="unused; seeds drive RNG")
    _add_fit_flags(p)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args = _merge_config(args)
        if args.stochastic and args.seed is None:
            return _fail(f"{args.command} requires --seed")
        if args.workers is not None and args.workers < 1:
            return _fail("--workers must be >= 1")
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except VineRiskError as exc:
        return _fail(str(exc), type(exc).__name__)
    except (OSError, ValueError, KeyError, OverflowError, json.JSONDecodeError) as exc:
        return _fail(str(exc), type(exc).__name__)


if __name__ == "__main__":
    sys.exit(main())
