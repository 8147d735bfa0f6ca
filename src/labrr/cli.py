"""Command-line interface: ``synth | train | benchmark | predict``.

Exit codes: 0 success; 1 a singular training solve, or every benchmark trial
failed; 2 a bad argument or config-file value, or inputs that do not fit
together (too few samples, mismatched dimensions); 3 a file that cannot be
read or written, a malformed data or model file, or data whose scaling to
[-1, 1], or a model's kernel, predictions or label range, overflows float64.
:func:`main` alone maps file, data and solver errors to codes, logging one
line and no traceback.
``LABRR_LOG`` (``quiet`` / ``info`` / ``debug``) controls stderr verbosity;
results and summaries go to stdout or the requested output files.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import asdict, replace

import numpy as np

from .data import (
    _WRITE_BLOCK_ROWS,
    Dataset,
    EmptyDataset,
    InsufficientData,
    ParseError,
    SplitSpec,
    UnscalableData,
    apply_feature_scaling,
    apply_label_scaling,
    invert_label_scaling,
    load_csv,
    load_matrix_csv,
    normalize,
    save_csv,
    split,
    synth,
)
from .metrics import make_report, project, sparsity_r0
from .numerics import SingularSystem, one_blas_thread
from .ridgeless import load_model, predict, save_model
from .trainer import TrainConfig, train

__all__ = ["build_parser", "load_results", "main"]

LOG = logging.getLogger("labrr")

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_ARGS = 2
EXIT_IO = 3

_LOG_LEVELS = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}

# (flag, TrainConfig field, type, help) — defaults live in TrainConfig itself.
_TRAIN_FLAGS = [
    ("--B", "error_budget", float, "squared-error budget that stops training"),
    ("--k", "grow_count", int, "support points added per growth step"),
    ("--eta", "learning_rate", float, "SGD learning rate for the bandwidths"),
    ("--L", "inner_steps", int, "SGD steps per round"),
    ("--n0", "initial_support", int, "initial support size"),
    ("--sigma0", "init_bandwidth", float, "initial bandwidth value"),
    ("--batch", "batch_size", int, "mini-batch size"),
    ("--theta-min", "bandwidth_min", float, "lower bandwidth clip"),
    ("--theta-max", "bandwidth_max", float, "upper bandwidth clip"),
    ("--max-outer", "max_rounds", int, "cap on outer rounds"),
    ("--max-support-ratio", "max_support_ratio", float, "support cap as a fraction of training size"),
    ("--selection", "selection", str, "initial support strategy (y_uniform|x_kmeans|extreme_y)"),
    ("--jitter", "jitter", float, "diagonal regularization of every solve"),
    ("--momentum", "momentum", float, "heavy-ball coefficient (0 = plain SGD)"),
]

# JSON types a config file may give each setting; a float also takes an integer.
_JSON_TYPES = {float: (int, float), int: (int,), str: (str,)}
_FLAG_KEYS = {dest: _JSON_TYPES[typ] for _, dest, typ, _ in _TRAIN_FLAGS}
_TRAIN_KEYS = _FLAG_KEYS | {"seed": (int,)}
_BENCH_KEYS = _FLAG_KEYS | {"trials": (int,), "train_fraction": (int, float), "base_seed": (int,),
                            "clip": (int, float, type(None))}


def _configure_logging() -> None:
    raw = os.environ.get("LABRR_LOG", "info").strip().lower()
    level = _LOG_LEVELS.get(raw, logging.INFO)
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(message)s", level=level)
    logging.getLogger().setLevel(level)
    if raw and raw not in _LOG_LEVELS:
        LOG.warning("unknown LABRR_LOG value %r; using info", raw)


def _add_train_flags(sp: argparse.ArgumentParser, with_seed: bool) -> None:
    for flag, dest, typ, help_text in _TRAIN_FLAGS:
        sp.add_argument(flag, dest=dest, type=typ, default=None, help=help_text)
    if with_seed:
        sp.add_argument("--seed", dest="seed", type=int, default=None,
                        help="seed for selection and batch sampling")
    sp.add_argument("--config", default=None,
                    help="JSON file of defaults; explicit flags win over it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="labrr",
        description="Kernel ridgeless regression with locally adaptive bandwidths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    sp.add_argument("--fn", required=True, help="function id: f1, f2, or f3")
    sp.add_argument("--n", required=True, type=int, help="number of samples")
    sp.add_argument("--noise", type=float, default=0.0,
                    help="noise variance as a fraction of label variance")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True, help="output CSV path")
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("train", help="train on a full CSV (no split)")
    sp.add_argument("--data", required=True, help="training CSV (last column = label)")
    sp.add_argument("--out", required=True, help="output model file")
    sp.add_argument("--trace", default=None, help="optional JSONL trace of the rounds")
    _add_train_flags(sp, with_seed=True)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("benchmark", help="repeated split/train/evaluate trials")
    sp.add_argument("--data", default=None, help="dataset CSV (last column = label)")
    sp.add_argument("--fn", default=None, help="synthetic function id instead of --data")
    sp.add_argument("--n", type=int, default=None, help="synthetic sample count")
    sp.add_argument("--noise", type=float, default=0.0, help="synthetic noise ratio")
    sp.add_argument("--trials", type=int, default=None, help="number of trials (default 50)")
    sp.add_argument("--train-fraction", dest="train_fraction", type=float, default=None)
    sp.add_argument("--base-seed", dest="base_seed", type=int, default=None)
    sp.add_argument("--test-csv", dest="test_csv", default=None,
                    help="fixed test CSV; trials then train on the full --data file")
    sp.add_argument("--clip", type=float, default=None,
                    help="clamp normalized predictions into [-M, M]")
    sp.add_argument("--out", default=None, help="results file (JSON lines)")
    _add_train_flags(sp, with_seed=False)
    sp.set_defaults(func=cmd_benchmark)

    sp = sub.add_parser("predict", help="predict with a saved model")
    sp.add_argument("--model", required=True, help="model file from train")
    sp.add_argument("--data", required=True,
                    help="feature CSV (a trailing label column is ignored)")
    sp.add_argument("--out", default=None, help="output CSV (default stdout)")
    sp.add_argument("--clip", type=float, default=None,
                    help="clamp normalized predictions into [-M, M]")
    sp.set_defaults(func=cmd_predict)

    return parser


# ---------------------------------------------------------------------------
# Config assembly


def _settings(parser: argparse.ArgumentParser, args: argparse.Namespace, keys: dict) -> dict:
    """Config-file values with the flags the user gave laid over them.

    ``keys`` maps every setting the command takes to the JSON types a config
    file may give it; any fault in the file is an argument error (exit 2).
    """
    doc: dict = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or not UTF-8
            parser.error(f"cannot read config file {args.config}: {exc}")
        if not isinstance(doc, dict):
            parser.error("config file must hold a JSON object")
    for key, value in doc.items():
        if key not in keys:
            hint = "; trial t runs with seed base_seed + t, so set base_seed" if key == "seed" else ""
            parser.error(f"unknown config key {key!r}{hint}")
        if isinstance(value, bool) or not isinstance(value, keys[key]):
            parser.error(f"config key {key!r} has the wrong type: {value!r}")
    flags = {key: getattr(args, key) for key in keys if getattr(args, key, None) is not None}
    return doc | flags


def _train_config(parser: argparse.ArgumentParser, settings: dict) -> TrainConfig:
    """The TrainConfig of the merged settings, over TrainConfig's own defaults."""
    if "error_budget" not in settings:
        parser.error("--B is required (or supply error_budget in --config)")
    try:
        return TrainConfig(**{k: v for k, v in settings.items() if k in _TRAIN_KEYS})
    except ValueError as exc:
        parser.error(str(exc))


# ---------------------------------------------------------------------------
# Subcommands


def _synth(parser: argparse.ArgumentParser, args: argparse.Namespace, seed: int) -> Dataset:
    try:
        return synth(args.fn, args.n, args.noise, seed)
    except ValueError as exc:  # an unknown function id, a bad count or noise ratio
        parser.error(str(exc))


def cmd_synth(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    dataset = _synth(parser, args, args.seed)
    save_csv(dataset, args.out)
    print(
        f"wrote {args.out}: n={dataset.n} d={dataset.dim} "
        f"label_variance={float(np.var(dataset.y)):.6g}"
    )
    return EXIT_OK


def _max_train_sq_error(model, dataset: Dataset) -> float:
    return float(np.max((predict(model, dataset.x) - dataset.y) ** 2))


def cmd_train(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    config = _train_config(parser, _settings(parser, args, _TRAIN_KEYS))
    dataset = normalize(load_csv(args.data))
    try:
        model, trace = train(dataset, config)
    except InsufficientData as exc:
        parser.error(f"insufficient data: {exc}")

    save_model(model, args.out)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            for record in trace.rounds:
                fh.write(json.dumps(record.to_dict()) + "\n")

    if not trace.converged:
        LOG.warning("did not reach the error budget (stop reason: %s)", trace.stop_reason)
    for record in trace.rounds:
        LOG.debug(
            "round %d: support=%d max_err=%.3e",
            record.round_index, record.n_support, record.max_sq_error,
        )
    max_err = _max_train_sq_error(model, dataset)
    print(
        f"model {args.out}: support={model.n_support} r0={sparsity_r0(model)} "
        f"rounds={trace.n_rounds} stop={trace.stop_reason} "
        f"max_train_sq_error={max_err:.6g}"
    )
    return EXIT_OK


def _aggregate(trials: list[dict]) -> dict:
    good = [t for t in trials if "error" not in t]
    agg: dict = {
        "record": "aggregate",
        "n_trials": len(trials),
        "n_failed": len(trials) - len(good),
    }
    if good:
        r2 = np.asarray([t["r_squared"] for t in good])
        agg.update(
            mean_r_squared=float(r2.mean()),
            std_r_squared=float(r2.std()),
            mean_mse=float(np.mean([t["mse"] for t in good])),
            mean_n_support=float(np.mean([t["n_support"] for t in good])),
            mean_r0=float(np.mean([t["r0"] for t in good])),
        )
    return agg


def load_results(path) -> tuple[dict | None, list[dict], dict]:
    """Read a results file and re-check the aggregate against the trial rows."""
    with open(path, "r", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    config = next((r for r in records if r.get("record") == "config"), None)
    trials = [r for r in records if r.get("record") == "trial"]
    aggregates = [r for r in records if r.get("record") == "aggregate"]
    if not aggregates:
        raise ValueError(f"{path}: no aggregate record")
    stored = aggregates[-1]
    fresh = _aggregate(trials)
    for key, value in fresh.items():
        if key == "record":
            continue
        prev = stored.get(key)
        if isinstance(value, float):
            if prev is None or abs(prev - value) > 1e-12:
                raise ValueError(f"{path}: aggregate field {key!r} does not match trials")
        elif prev != value:
            raise ValueError(f"{path}: aggregate field {key!r} does not match trials")
    return config, trials, stored


def cmd_benchmark(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    settings = _settings(parser, args, _BENCH_KEYS)
    if (args.data is None) == (args.fn is None):
        parser.error("give exactly one of --data or --fn")
    trials = settings.get("trials", 50)
    train_fraction = float(settings.get("train_fraction", 0.8))
    base_seed = settings.get("base_seed", 0)
    clip = settings.get("clip")
    if trials < 1:
        parser.error(f"trials must be at least 1, got {trials}")
    if clip is not None and not (clip > 0.0):
        parser.error(f"clip must be positive, got {clip}")
    try:
        SplitSpec(base_seed, 0, train_fraction)
    except ValueError as exc:
        parser.error(str(exc))
    base_config = _train_config(parser, settings)

    if args.data is not None:
        raw = load_csv(args.data)
    elif args.n is None:
        parser.error("--fn needs --n")
    else:
        raw = _synth(parser, args, base_seed)
    dataset = normalize(raw)
    fixed_test = None
    if args.test_csv is not None:
        raw_test = load_csv(args.test_csv)
        if raw_test.dim != dataset.dim:
            parser.error(
                f"test CSV has dim {raw_test.dim}, training data has dim {dataset.dim}"
            )
        fixed_test = Dataset(
            apply_feature_scaling(dataset.norm_meta, raw_test.x),
            apply_label_scaling(dataset.norm_meta, raw_test.y),
            dataset.norm_meta,
            raw_test.name,
        )

    effective = {
        "record": "config",
        "dataset": dataset.name,
        "n": dataset.n,
        "dim": dataset.dim,
        "trials": trials,
        "train_fraction": train_fraction,
        "base_seed": base_seed,
        "clip": clip,
        "fixed_test": args.test_csv,
        "train_config": {k: v for k, v in asdict(base_config).items() if k != "seed"},
    }

    records: list[dict] = []
    for trial in range(trials):
        config = replace(base_config, seed=base_seed + trial)
        started = time.perf_counter()
        try:
            if fixed_test is not None:
                train_ds, test_ds = dataset, fixed_test
            else:
                train_ds, test_ds = split(
                    dataset, SplitSpec(base_seed, trial, train_fraction)
                )
            with one_blas_thread():
                model, trace = train(train_ds, config)
                preds = predict(model, test_ds.x)
                max_train_sq_error = _max_train_sq_error(model, train_ds)
            if clip is not None:
                preds = project(preds, float(clip))
            report = make_report(
                test_ds.y, preds, model,
                max_train_sq_error=max_train_sq_error,
                wall_clock_seconds=time.perf_counter() - started,
            )
            row = {
                "record": "trial",
                "trial": trial,
                "seed": config.seed,
                **report.to_dict(),
                "n_train": train_ds.n,
                "rounds": trace.n_rounds,
                "converged": trace.converged,
                "stop_reason": trace.stop_reason,
            }
            LOG.info(
                "trial %d: r2=%.5f support=%d rounds=%d stop=%s",
                trial, report.r_squared, report.n_support, trace.n_rounds, trace.stop_reason,
            )
        except (SingularSystem, ValueError) as exc:  # the trial fails, the run goes on
            row = {
                "record": "trial",
                "trial": trial,
                "seed": config.seed,
                "error": f"{type(exc).__name__}: {exc}",
                "wall_clock_seconds": time.perf_counter() - started,
            }
            LOG.warning("trial %d failed: %s", trial, row["error"])
        records.append(row)

    aggregate = _aggregate(records)
    lines = [effective, *records, aggregate]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(json.dumps(line) + "\n")

    good = [r for r in records if "error" not in r]
    print(f"# {dataset.name}: {len(good)}/{trials} trials ok")
    print("trial  r_squared   mse         support  r0    rounds  stop")
    for row in records:
        if "error" in row:
            print(f"{row['trial']:<6} FAILED: {row['error']}")
        else:
            print(
                f"{row['trial']:<6} {row['r_squared']:<11.6f} {row['mse']:<11.4e} "
                f"{row['n_support']:<8} {row['r0']:<5} {row['rounds']:<7} {row['stop_reason']}"
            )
    if good:
        print(
            f"aggregate: mean_r2={aggregate['mean_r_squared']:.6f} "
            f"std_r2={aggregate['std_r_squared']:.6f} "
            f"mean_support={aggregate['mean_n_support']:.1f}"
        )
        return EXIT_OK
    LOG.error("all %d trials failed", trials)
    return EXIT_FAILED


def cmd_predict(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.clip is not None and not (args.clip > 0.0):
        parser.error(f"clip must be positive, got {args.clip}")
    model = load_model(args.model)
    matrix = load_matrix_csv(args.data)

    if matrix.shape[1] == model.dim:
        features = matrix
    elif matrix.shape[1] == model.dim + 1:
        features = matrix[:, :-1]  # trailing label column, ignored
    else:
        LOG.error(
            "%s has %d columns; model needs %d features (or %d with a label column)",
            args.data, matrix.shape[1], model.dim, model.dim + 1,
        )
        return EXIT_ARGS

    del matrix  # ``features`` keeps it alive only while it is unscaled
    if model.norm_meta is not None:
        features = apply_feature_scaling(model.norm_meta, features)
    values = predict(model, features)
    del features
    if args.clip is not None:
        values = project(values, args.clip)
    if model.norm_meta is not None:
        values = invert_label_scaling(model.norm_meta, values)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            _write_predictions(fh, values)
    else:
        _write_predictions(sys.stdout, values)
    return EXIT_OK


def _write_predictions(fh, values: np.ndarray) -> None:
    """A ``prediction`` header, then one ``repr`` per line, formatted and
    written ``_WRITE_BLOCK_ROWS`` values at a time."""
    fh.write("prediction\n")
    for lo in range(0, values.shape[0], _WRITE_BLOCK_ROWS):
        fh.write("".join([repr(v) + "\n" for v in values[lo:lo + _WRITE_BLOCK_ROWS].tolist()]))


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(parser, args)
    except (OSError, ParseError, EmptyDataset, UnscalableData) as exc:
        LOG.error("%s", exc)
        return EXIT_IO
    except SingularSystem as exc:
        LOG.error("training failed: %s", exc)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
