"""Command-line interface: ``synth | train | benchmark | predict``.

Exit codes: 0 success; 1 a numerical failure in training
(``NumericalFailure``: a singular solve, ``SingularSystem``, or a diverged SGD
step, ``DivergedStep``), exhausted memory (``MemoryError``), or every
benchmark trial failed (a trial fails on a ``NumericalFailure``, a constant
test side or a prediction that overflows, and on nothing else); 2 a bad
argument or setting (``InvalidSetting``), inputs that do not fit together
(``DimensionMismatch``, and ``InsufficientData``, which ``benchmark`` meets
in its first trial), or a ``benchmark`` whose labels are all equal
(``DegenerateLabels``); 3 a file
that cannot be read or written (``OSError``), a malformed data or model file
(``ParseError``, ``EmptyDataset``), or data whose scaling, or a model's
kernel, predictions or label range, overflows float64 (``UnscalableData``).
:func:`main` alone maps library errors to codes, by type, in one line on stderr
(argparse's ``error:`` line for exit 2) and no traceback.
``LABRR_LOG`` (``quiet`` / ``info`` / ``debug``) controls stderr verbosity;
results and summaries go to stdout or the requested output files.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import sys
import time
import typing
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .data import (
    Dataset,
    EmptyDataset,
    InsufficientData,
    InvalidSetting,
    ParseError,
    SplitSpec,
    UnscalableData,
    _MAX_COUNT,
    _check_fields,
    _write_rows,
    apply_feature_scaling,
    invert_label_scaling,
    load_csv,
    load_matrix_csv,
    normalize,
    save_csv,
    split,
    synth,
)
from .metrics import DegenerateLabels, _check_clip, mse, project, r_squared, sparsity_r0
from .numerics import DimensionMismatch, NumericalFailure
from .ridgeless import load_model, predict, save_model
from .trainer import TrainConfig, train

__all__ = ["build_parser", "main"]

LOG = logging.getLogger("labrr")

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_IO = 3

_LOG_LEVELS = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}

# (flag, TrainConfig field, help) — types and defaults live in TrainConfig itself.
_TRAIN_FLAGS = [
    ("--B", "error_budget", "squared-error budget that stops training"),
    ("--k", "grow_count", "support points added per growth step"),
    ("--eta", "learning_rate", "SGD learning rate for the bandwidths"),
    ("--L", "inner_steps", "SGD steps per round"),
    ("--n0", "initial_support", "initial support size"),
    ("--sigma0", "init_bandwidth", "initial bandwidth value"),
    ("--batch", "batch_size", "mini-batch size"),
    ("--theta-min", "bandwidth_min", "lower bandwidth clip"),
    ("--theta-max", "bandwidth_max", "upper bandwidth clip"),
    ("--max-outer", "max_rounds", "cap on outer rounds"),
    ("--max-support-ratio", "max_support_ratio", "support cap as a fraction of training size"),
    ("--selection", "selection", "initial support strategy (y_uniform|x_kmeans)"),
    ("--jitter", "jitter", "diagonal regularization of every solve"),
]


@dataclass(frozen=True)
class BenchmarkConfig:
    """``benchmark``'s own settings, checked on construction as
    ``TrainConfig`` is: a value of the wrong type or out of range raises
    :class:`~labrr.data.InvalidSetting`, as does a last trial's seed past
    int64.  Trial ``t`` splits with
    ``SplitSpec(base_seed, t, train_fraction)`` and trains with seed
    ``base_seed + t``; ``clip``, when set, clamps the normalized
    predictions into ``[-clip, clip]``."""

    trials: int = 50
    train_fraction: float = 0.8
    base_seed: int = 0
    clip: float | None = None

    def __post_init__(self) -> None:
        _check_fields(self)
        if self.trials < 1:
            raise InvalidSetting(f"trials must be at least 1, got {self.trials}")
        if self.base_seed + self.trials - 1 > _MAX_COUNT:
            raise InvalidSetting(f"base_seed + trials - 1, the last trial's seed, must be at most {_MAX_COUNT}")
        _check_clip(self.clip)
        SplitSpec(self.base_seed, 0, self.train_fraction)  # checks train_fraction's range


_TRAIN_TYPES = typing.get_type_hints(TrainConfig)
_TRAIN_KEYS = {f.name for f in fields(TrainConfig)}
_BENCH_KEYS = _TRAIN_KEYS - {"seed"} | {f.name for f in fields(BenchmarkConfig)}


def _configure_logging() -> None:
    raw = os.environ.get("LABRR_LOG", "info").strip().lower()
    level = _LOG_LEVELS.get(raw, logging.INFO)
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(message)s", level=level)
    logging.getLogger().setLevel(level)
    if raw and raw not in _LOG_LEVELS:
        LOG.warning("unknown LABRR_LOG value %r; using info", raw)


def _add_train_flags(sp: argparse.ArgumentParser, with_seed: bool) -> None:
    for flag, dest, help_text in _TRAIN_FLAGS:
        sp.add_argument(flag, dest=dest, type=_TRAIN_TYPES[dest], default=None, help=help_text)
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

    sp = sub.add_parser("synth", help="generate a synthetic dataset CSV", allow_abbrev=False)
    sp.add_argument("--fn", required=True, help="function id: f1, f2, or f3")
    sp.add_argument("--n", required=True, type=int, help="number of samples")
    sp.add_argument("--noise", type=float, default=0.0,
                    help="noise variance as a fraction of label variance")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True, help="output CSV path")
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("train", help="train on a full CSV (no split)", allow_abbrev=False)
    sp.add_argument("--data", required=True, help="training CSV (last column = label)")
    sp.add_argument("--out", required=True, help="output model file")
    sp.add_argument("--trace", default=None, help="optional JSONL trace of the rounds")
    _add_train_flags(sp, with_seed=True)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("benchmark", help="repeated split/train/evaluate trials", allow_abbrev=False)
    sp.add_argument("--data", required=True, help="dataset CSV (last column = label)")
    sp.add_argument("--trials", type=int, default=None,
                    help=f"number of trials (default {BenchmarkConfig.trials})")
    sp.add_argument("--train-fraction", dest="train_fraction", type=float, default=None)
    sp.add_argument("--base-seed", dest="base_seed", type=int, default=None)
    sp.add_argument("--clip", type=float, default=None,
                    help="clamp normalized predictions into [-M, M]")
    sp.add_argument("--out", default=None, help="results file (JSON lines)")
    _add_train_flags(sp, with_seed=False)
    sp.set_defaults(func=cmd_benchmark)

    sp = sub.add_parser("predict", help="predict with a saved model", allow_abbrev=False)
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


def _settings(parser: argparse.ArgumentParser, args: argparse.Namespace, keys: set) -> dict:
    """Config-file values with the flags the user gave laid over them.

    ``keys`` names every setting the command takes; the settings objects
    (``TrainConfig``, ``BenchmarkConfig``) check their types and ranges.
    """
    doc: dict = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or not UTF-8
            raise InvalidSetting(f"cannot read config file {args.config}: {exc}") from None
        if not isinstance(doc, dict):
            parser.error("config file must hold a JSON object")
    for key in doc:
        if key not in keys:
            hint = "; trial t runs with seed base_seed + t, so set base_seed" if key == "seed" else ""
            parser.error(f"unknown config key {key!r}{hint}")
    flags = {key: getattr(args, key) for key in keys if getattr(args, key, None) is not None}
    return doc | flags


def _train_config(parser: argparse.ArgumentParser, settings: dict) -> TrainConfig:
    """The TrainConfig of the merged settings, over TrainConfig's own defaults."""
    if "error_budget" not in settings:
        parser.error("--B is required (or supply error_budget in --config)")
    return TrainConfig(**{k: v for k, v in settings.items() if k in _TRAIN_KEYS})


# ---------------------------------------------------------------------------
# Subcommands


def cmd_synth(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    dataset = synth(args.fn, args.n, args.noise, args.seed)
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
    model, trace = train(dataset, config)

    save_model(model, args.out)
    if args.trace:
        _write_jsonl(args.trace, [asdict(record) for record in trace.rounds])

    if not trace.converged:
        LOG.warning("did not reach the error budget (stop reason: %s)", trace.stop_reason)
    for record in trace.rounds:
        LOG.debug(
            "round %d: support=%d max_err=%.3e factorizations=%d",
            record.round, record.n_support, record.max_sq_error, record.factorizations,
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


def _write_jsonl(path, records: list[dict]) -> None:
    """Write one JSON object per line: the ``--trace`` and ``benchmark --out`` format."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def cmd_benchmark(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    settings = _settings(parser, args, _BENCH_KEYS)
    bench = BenchmarkConfig(**{k: v for k, v in settings.items() if k not in _TRAIN_KEYS})
    base_config = _train_config(parser, settings)

    dataset = normalize(load_csv(args.data))
    if np.all(dataset.y == dataset.y[0]):  # then so is every trial's test side
        raise DegenerateLabels(f"{dataset.name}: all labels are equal, so no trial's R-squared is defined")

    effective = {
        "record": "config",
        "dataset": dataset.name,
        "n": dataset.n,
        "dim": dataset.dim,
        **asdict(bench),
        "train_config": {k: v for k, v in asdict(base_config).items() if k != "seed"},
    }

    records: list[dict] = []
    for trial in range(bench.trials):
        config = replace(base_config, seed=bench.base_seed + trial)
        started = time.perf_counter()
        try:
            train_ds, test_ds = split(dataset, SplitSpec(bench.base_seed, trial, bench.train_fraction))
            model, trace = train(train_ds, config)
            preds = predict(model, test_ds.x)
            if bench.clip is not None:
                preds = project(preds, bench.clip)
            row = {
                "record": "trial",
                "trial": trial,
                "seed": config.seed,
                "r_squared": r_squared(test_ds.y, preds),
                "mse": mse(test_ds.y, preds),
                "n_test": test_ds.n,
                "n_support": model.n_support,
                "r0": sparsity_r0(model),
                "max_train_sq_error": _max_train_sq_error(model, train_ds),
                "wall_clock_seconds": time.perf_counter() - started,
                "n_train": train_ds.n,
                "rounds": trace.n_rounds,
                "converged": trace.converged,
                "stop_reason": trace.stop_reason,
            }
            LOG.info(
                "trial %d: r2=%.5f support=%d rounds=%d stop=%s",
                trial, row["r_squared"], row["n_support"], trace.n_rounds, trace.stop_reason,
            )
        except (NumericalFailure, DegenerateLabels, UnscalableData) as exc:  # the trial fails, the run goes on
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
    if args.out:
        _write_jsonl(args.out, [effective, *records, aggregate])

    good = [r for r in records if "error" not in r]
    print(f"# {dataset.name}: {len(good)}/{bench.trials} trials ok")
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
    LOG.error("all %d trials failed", bench.trials)
    return EXIT_FAILED


def cmd_predict(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    _check_clip(args.clip)
    model = load_model(args.model)
    matrix = load_matrix_csv(args.data)

    if matrix.shape[1] == model.dim:
        features = matrix
    elif matrix.shape[1] == model.dim + 1:
        features = matrix[:, :-1]  # trailing label column, ignored
    else:
        raise DimensionMismatch(
            f"{args.data} has {matrix.shape[1]} columns; model needs {model.dim} features "
            f"(or {model.dim + 1} with a label column)"
        )

    del matrix  # ``features`` keeps it alive only while it is unscaled
    if model.norm_meta is not None:
        features = apply_feature_scaling(model.norm_meta, features)
    values = predict(model, features)
    del features
    if args.clip is not None:
        values = project(values, args.clip)
    if model.norm_meta is not None:
        values = invert_label_scaling(model.norm_meta, values)

    with open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        _write_rows(fh, ["prediction"], [values], "\n")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(parser, args)
    except (OSError, ParseError, EmptyDataset, UnscalableData) as exc:
        LOG.error("%s", exc)
        return EXIT_IO
    except NumericalFailure as exc:
        LOG.error("training failed: %s", exc)
        return EXIT_FAILED
    except MemoryError as exc:
        LOG.error("out of memory: %s", exc)
        return EXIT_FAILED
    except (InvalidSetting, InsufficientData, DimensionMismatch, DegenerateLabels) as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
