"""End-to-end tests of the command-line interface (in-process via main)."""

import dataclasses
import hashlib
import json
import logging
import os
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import labrr
from labrr import cli, trainer
from labrr.cli import _aggregate, main
from labrr.data import (
    InvalidSetting,
    SplitSpec,
    apply_feature_scaling,
    invert_label_scaling,
    load_csv,
    normalize,
    save_csv,
    synth,
)
from labrr.kernels import BandwidthSet
from labrr.ridgeless import LabModel, fit_lab, load_model, model_to_dict, predict, save_model
from labrr.trainer import TrainConfig, train


def _labrr_env():
    """Environment for a subprocess that imports this checkout's ``labrr``."""
    src = str(Path(labrr.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def _write_synth_csv(path, fn="f1", n=30, noise=0.0, seed=1):
    save_csv(synth(fn, n, noise, seed=seed), path)
    return str(path)


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_csv(tmp_path, capsys):
    out = tmp_path / "data.csv"
    rc = main(["synth", "--fn", "f1", "--n", "25", "--seed", "3", "--out", str(out)])
    assert rc == 0
    ds = load_csv(out)
    assert ds.n == 25
    assert ds.dim == 2
    stdout = capsys.readouterr().out
    assert "n=25" in stdout
    assert "d=2" in stdout


def test_synth_f2_has_six_features(tmp_path):
    out = tmp_path / "f2.csv"
    assert main(["synth", "--fn", "f2", "--n", "10", "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header == "x1,x2,x3,x4,x5,x6,y"


def test_synth_unknown_function_exits_2(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["synth", "--fn", "f9", "--n", "10", "--out", str(tmp_path / "x.csv")])
    assert err.value.code == 2


def test_synth_bad_count_exits_2(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["synth", "--fn", "f1", "--n", "0", "--out", str(tmp_path / "x.csv")])
    assert err.value.code == 2


# ---------------------------------------------------------------------------
# train


def _train_args(data, out, **extra):
    args = [
        "train", "--data", data, "--out", out,
        "--B", "1e-6", "--n0", "30", "--max-support-ratio", "1.0",
        "--jitter", "0", "--L", "0",
    ]
    for flag, value in extra.items():
        args += [flag, str(value)]
    return args


def test_train_interpolates_and_saves_model(tmp_path, capsys):
    data = _write_synth_csv(tmp_path / "d.csv")
    out = tmp_path / "model.json"
    rc = main(_train_args(data, str(out)))
    assert rc == 0
    model = load_model(out)
    assert model.n_support == 30
    stdout = capsys.readouterr().out
    assert stdout.startswith("model ")
    assert "stop=error_budget_met" in stdout
    assert "support=30" in stdout


def test_train_rerun_is_byte_identical(tmp_path):
    data = _write_synth_csv(tmp_path / "d.csv")
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(_train_args(data, str(out_a))) == 0
    assert main(_train_args(data, str(out_b))) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_train_writes_trace(tmp_path):
    data = _write_synth_csv(tmp_path / "d.csv", n=40)
    out = tmp_path / "model.json"
    trace = tmp_path / "trace.jsonl"
    rc = main([
        "train", "--data", data, "--out", str(out), "--trace", str(trace),
        "--B", "1e-4", "--n0", "10", "--k", "5", "--L", "2", "--batch", "8",
        "--max-outer", "4",
    ])
    assert rc == 0
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert len(records) >= 1
    assert set(records[0]) == {
        "round", "n_support", "max_sq_error", "mean_sq_error", "inner_losses", "factorizations",
    }
    assert records[0]["round"] == 0
    assert all(1 <= r["factorizations"] <= len(r["inner_losses"]) for r in records)


def test_train_debug_log_names_each_round_s_factorizations(tmp_path, monkeypatch, caplog):
    monkeypatch.setenv("LABRR_LOG", "debug")
    data = _write_synth_csv(tmp_path / "d.csv", n=40)
    caplog.clear()
    assert main([
        "train", "--data", data, "--out", str(tmp_path / "m.json"),
        "--B", "1e-4", "--n0", "10", "--k", "5", "--L", "3", "--batch", "8", "--max-outer", "2",
    ]) == 0
    rounds = [r.getMessage() for r in caplog.records if r.getMessage().startswith("round ")]
    assert len(rounds) == 2
    assert all("factorizations=" in line for line in rounds)


def test_singular_sgd_step_exits_1_naming_its_round_step_and_support(tmp_path, capfd, caplog):
    # Every point twice: ``y_uniform`` at 21 of the 40 rows takes both copies
    # of the smallest label (ranks 0 and 1), so without jitter the first
    # step's Gram is singular.
    rng = np.random.default_rng(4)
    rows = np.repeat(np.column_stack([rng.uniform(size=(20, 2)), rng.normal(size=20)]), 2, axis=0)
    data = tmp_path / "dup.csv"
    data.write_text("".join(f"{a!r},{b!r},{c!r}\n" for a, b, c in rows.tolist()))
    capfd.readouterr()
    caplog.clear()
    code = main([
        "train", "--data", str(data), "--out", str(tmp_path / "m.json"), "--B", "1e-3",
        "--n0", "21", "--jitter", "0", "--L", "2", "--batch", "4",
    ])
    assert code == 1
    assert "Traceback" not in capfd.readouterr().err
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1
    assert errors[0].startswith("training failed: round 0 (21 support points), SGD step 0: pivot below")


def test_diverged_sgd_step_exits_1_in_train_and_fails_its_benchmark_trial(tmp_path, monkeypatch, capfd, caplog):
    step = trainer.batch_loss_and_grad

    def nan_gradient(*args):
        loss, grad = step(*args)
        grad[0, 0] = np.nan
        return loss, grad

    monkeypatch.setattr(trainer, "batch_loss_and_grad", nan_gradient)
    data = _write_synth_csv(tmp_path / "d.csv", n=40)
    settings = ["--data", data, "--B", "1e-3", "--n0", "10", "--L", "2", "--batch", "4"]
    capfd.readouterr()
    caplog.clear()
    assert main(["train", "--out", str(tmp_path / "m.json"), *settings]) == 1
    assert "Traceback" not in capfd.readouterr().err
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert errors == ["training failed: round 0 (10 support points), SGD step 0 made a bandwidth NaN"]

    out = tmp_path / "results.jsonl"
    assert main(["benchmark", "--trials", "1", "--out", str(out), *settings]) == 1
    trials = [r for r in map(json.loads, out.read_text().splitlines()) if r.get("record") == "trial"]
    assert [t["error"].split(",")[0] for t in trials] == ["DivergedStep: round 0 (10 support points)"]


def test_train_selection_flag(tmp_path):
    data = _write_synth_csv(tmp_path / "d.csv", n=40)
    out = tmp_path / "model.json"
    rc = main([
        "train", "--data", data, "--out", str(out),
        "--B", "1e-3", "--n0", "8", "--L", "1", "--max-outer", "2",
        "--selection", "x_kmeans",
    ])
    assert rc == 0


def test_train_insufficient_data_exits_2(tmp_path):
    data = _write_synth_csv(tmp_path / "d.csv", n=10)
    with pytest.raises(SystemExit) as err:
        main(["train", "--data", data, "--out", str(tmp_path / "m.json"),
              "--B", "1e-3", "--n0", "50"])
    assert err.value.code == 2


def test_train_invalid_budget_exits_2(tmp_path):
    data = _write_synth_csv(tmp_path / "d.csv")
    with pytest.raises(SystemExit) as err:
        main(["train", "--data", data, "--out", str(tmp_path / "m.json"), "--B", "-1"])
    assert err.value.code == 2


def test_train_missing_budget_exits_2(tmp_path):
    data = _write_synth_csv(tmp_path / "d.csv")
    with pytest.raises(SystemExit) as err:
        main(["train", "--data", data, "--out", str(tmp_path / "m.json")])
    assert err.value.code == 2


def test_train_missing_data_is_io_error(tmp_path):
    rc = main(["train", "--data", str(tmp_path / "absent.csv"),
               "--out", str(tmp_path / "m.json"), "--B", "1e-3"])
    assert rc == 3


def test_train_config_file_supplies_defaults(tmp_path):
    data = _write_synth_csv(tmp_path / "d.csv")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "error_budget": 1e-6, "initial_support": 30, "max_support_ratio": 1.0,
        "jitter": 0.0, "inner_steps": 0,
    }))
    out = tmp_path / "model.json"
    rc = main(["train", "--data", data, "--out", str(out), "--config", str(cfg)])
    assert rc == 0
    assert load_model(out).n_support == 30


def test_train_flag_overrides_config_file(tmp_path):
    data = _write_synth_csv(tmp_path / "d.csv")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "error_budget": 1e-6, "initial_support": 5, "max_support_ratio": 1.0,
        "jitter": 0.0, "inner_steps": 0,
    }))
    out = tmp_path / "model.json"
    rc = main(["train", "--data", data, "--out", str(out), "--config", str(cfg),
               "--n0", "30"])
    assert rc == 0
    assert load_model(out).n_support == 30


def test_train_unknown_config_key_exits_2(tmp_path):
    data = _write_synth_csv(tmp_path / "d.csv")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"error_budget": 1e-3, "learning_rte": 0.1}))
    with pytest.raises(SystemExit) as err:
        main(["train", "--data", data, "--out", str(tmp_path / "m.json"),
              "--config", str(cfg)])
    assert err.value.code == 2


def test_train_non_object_config_exits_2(tmp_path):
    data = _write_synth_csv(tmp_path / "d.csv")
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2, 3]")
    with pytest.raises(SystemExit) as err:
        main(["train", "--data", data, "--out", str(tmp_path / "m.json"),
              "--config", str(cfg)])
    assert err.value.code == 2


def test_train_missing_config_file_exits_2(tmp_path):
    data = _write_synth_csv(tmp_path / "d.csv")
    with pytest.raises(SystemExit) as err:
        main(["train", "--data", data, "--out", str(tmp_path / "m.json"),
              "--config", str(tmp_path / "absent.json"), "--B", "1e-3"])
    assert err.value.code == 2


# ---------------------------------------------------------------------------
# benchmark


def _bench_args(out, trials=2):
    data = _write_synth_csv(Path(out).with_name("bench.csv"), n=60, seed=0)
    return [
        "benchmark", "--data", data, "--trials", str(trials),
        "--B", "1e-3", "--n0", "10", "--k", "5", "--L", "3",
        "--batch", "16", "--max-outer", "5", "--out", out,
    ]


def test_benchmark_writes_jsonl(tmp_path, capsys):
    out = tmp_path / "results.jsonl"
    rc = main(_bench_args(str(out)))
    assert rc == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 4  # config + 2 trials + aggregate
    assert records[0]["record"] == "config"
    assert records[0]["trials"] == 2
    assert [r["record"] for r in records[1:3]] == ["trial", "trial"]
    assert records[3]["record"] == "aggregate"
    assert records[3]["n_trials"] == 2
    assert records[3]["n_failed"] == 0
    stdout = capsys.readouterr().out
    assert "2/2 trials ok" in stdout
    assert "aggregate: mean_r2=" in stdout


def _load_results(path) -> tuple[dict | None, list[dict], dict]:
    """Read a ``benchmark --out`` file and re-check the aggregate against the trial rows."""
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


def test_benchmark_results_pass_load_results(tmp_path):
    out = tmp_path / "results.jsonl"
    assert main(_bench_args(str(out))) == 0
    config, trials, aggregate = _load_results(out)
    assert config is not None
    assert len(trials) == 2
    assert aggregate["mean_r_squared"] == pytest.approx(
        np.mean([t["r_squared"] for t in trials])
    )


def test_benchmark_trials_use_distinct_seeds_and_splits(tmp_path):
    out = tmp_path / "results.jsonl"
    assert main(_bench_args(str(out))) == 0
    _, trials, _ = _load_results(out)
    assert [t["seed"] for t in trials] == [0, 1]
    assert trials[0]["r_squared"] != trials[1]["r_squared"]


def _strip_clocks(record):
    return {k: v for k, v in record.items() if k != "wall_clock_seconds"}


def test_benchmark_rerun_reproduces_results(tmp_path):
    out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(_bench_args(str(out_a))) == 0
    assert main(_bench_args(str(out_b))) == 0
    rec_a = [json.loads(line) for line in out_a.read_text().splitlines()]
    rec_b = [json.loads(line) for line in out_b.read_text().splitlines()]
    assert [_strip_clocks(r) for r in rec_a] == [_strip_clocks(r) for r in rec_b]


def test_benchmark_tampered_aggregate_is_rejected(tmp_path):
    out = tmp_path / "results.jsonl"
    assert main(_bench_args(str(out))) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    records[-1]["mean_r_squared"] += 0.1
    out.write_text("".join(json.dumps(r) + "\n" for r in records))
    with pytest.raises(ValueError):
        _load_results(out)


def test_benchmark_reads_only_data(tmp_path, capsys):
    # ``synth`` writes the data; ``benchmark`` has no synthetic source of its own.
    data = _write_synth_csv(tmp_path / "d.csv")
    with pytest.raises(SystemExit) as err:
        main(["benchmark", "--trials", "1", "--B", "1e-3"])
    assert err.value.code == 2
    assert "--data" in capsys.readouterr().err
    with pytest.raises(SystemExit) as err:
        main(["benchmark", "--data", data, "--fn", "f1", "--n", "30",
              "--trials", "1", "--B", "1e-3"])
    assert err.value.code == 2
    assert "unrecognized arguments: --fn f1 --n 30" in capsys.readouterr().err


def test_benchmark_validates_trials_and_clip(tmp_path):
    data = _write_synth_csv(tmp_path / "d.csv")
    with pytest.raises(SystemExit) as err:
        main(["benchmark", "--data", data, "--trials", "0", "--B", "1e-3"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["benchmark", "--data", data, "--trials", "1",
              "--B", "1e-3", "--clip", "-1"])
    assert err.value.code == 2


@pytest.mark.parametrize("bad", [
    {"trials": True}, {"trials": "3"}, {"trials": 2.0}, {"base_seed": 1.5}, {"clip": "2"},
    {"train_fraction": None}, {"clip": 10**400}, {"train_fraction": 10**400},
    {"trials": 0}, {"trials": 2**63}, {"clip": 0.0}, {"clip": float("nan")},
    {"train_fraction": 1}, {"base_seed": -1}, {"base_seed": 2**63 - 1, "trials": 2},
], ids=repr)
def test_benchmark_config_checks_its_settings(bad):
    with pytest.raises(InvalidSetting):
        cli.BenchmarkConfig(**bad)


def test_benchmark_config_stores_its_floats_as_floats():
    bench = cli.BenchmarkConfig(trials=2**63 - 1, train_fraction=np.float32(0.5), clip=2)
    assert (type(bench.train_fraction), type(bench.clip)) == (float, float)
    assert cli.BenchmarkConfig().clip is None


# The fewest arguments each settings object needs.
_REQUIRED = {SplitSpec: {"seed": 0}, TrainConfig: {"error_budget": 1e-3}, cli.BenchmarkConfig: {}}


@pytest.mark.parametrize("settings", [SplitSpec, TrainConfig, cli.BenchmarkConfig], ids=lambda c: c.__name__)
def test_every_settings_object_refuses_a_bool_by_one_rule(settings):
    # The one rule also refuses, in every integer field, seeds included, a
    # negative value and one past int64, before the object's own ranges.
    with pytest.raises(InvalidSetting, match=r"must be of type (int|float), got True"):
        settings(True)
    int_fields = [f.name for f in dataclasses.fields(settings) if f.type == "int"]
    assert int_fields
    for name in int_fields:
        for bad in (-1, 2**63):
            with pytest.raises(InvalidSetting, match=rf"^{name} must be an integer in \[0, {2**63 - 1}\]"):
                settings(**{**_REQUIRED[settings], name: bad})


def test_benchmark_record_writes_an_integer_clip_as_a_float(tmp_path):
    # The config record spreads the checked settings, so a JSON-integer clip
    # is written as the float every trial clamps with.
    cfg = _file(tmp_path, "cfg.json", json.dumps({"error_budget": 1e-3, "clip": 2, "trials": 1}))
    out = tmp_path / "results.jsonl"
    assert main(["benchmark", "--data", _write_synth_csv(tmp_path / "d.csv"), "--config", cfg,
                 "--n0", "4", "--L", "1", "--batch", "4", "--max-outer", "1", "--out", str(out)]) == 0
    config = json.loads(out.read_text().splitlines()[0])
    assert list(config)[4:8] == ["trials", "train_fraction", "base_seed", "clip"]
    assert type(config["clip"]) is float and config["clip"] == 2.0


# Forty f1 rows whose labels are all 0.5.
_CONSTANT_LABELS = "x1,x2,y\n" + "".join(f"{i / 40},{1 - i / 40},0.5\n" for i in range(40))


def test_benchmark_constant_labels_stop_before_trial_0(tmp_path, monkeypatch, capsys):
    # Every split of constant labels has a constant test side, where R² is
    # undefined, so the run exits 2 before it trains anything.
    calls = []
    monkeypatch.setattr("labrr.cli.train", lambda dataset, config: calls.append(config.seed))
    with pytest.raises(SystemExit) as err:
        main(["benchmark", "--data", _file(tmp_path, "const.csv", _CONSTANT_LABELS),
              "--trials", "2", "--B", "1e-3", "--n0", "5", "--L", "2", "--batch", "8", "--max-outer", "2"])
    assert err.value.code == 2
    assert calls == []
    assert "all labels are equal" in capsys.readouterr().err


def test_benchmark_constant_test_side_of_one_split_fails_that_trial_only(tmp_path):
    # One label of twenty differs, so only the splits that hold it out of the
    # test side leave a constant one there.
    rows = "".join(f"{i / 20},{1 - i / 20},{1.0 if i == 0 else 0.5}\n" for i in range(20))
    out = tmp_path / "results.jsonl"
    rc = main(["benchmark", "--data", _file(tmp_path, "almost.csv", "x1,x2,y\n" + rows),
               "--trials", "4", "--B", "1e-3", "--n0", "4", "--L", "1", "--batch", "4",
               "--max-outer", "2", "--out", str(out)])
    assert rc == 0
    _, trials, _ = _load_results(out)
    errors = [t.get("error", "") for t in trials]
    assert any(e.startswith("DegenerateLabels") for e in errors)
    assert "" in errors


def test_benchmark_one_row_test_side_stops_at_trial_0(tmp_path, monkeypatch):
    # Five rows at the default fraction leave one test row, too few for R²
    # in every trial alike, so the run exits 2 after training trial 0 only.
    calls = []

    def counted(dataset, config):
        calls.append(config.seed)
        return train(dataset, config)

    monkeypatch.setattr("labrr.cli.train", counted)
    with pytest.raises(SystemExit) as err:
        main(["benchmark", "--data", _write_synth_csv(tmp_path / "five.csv", n=5, seed=0),
              "--trials", "2", "--B", "1e-3", "--n0", "2", "--L", "1", "--batch", "2"])
    assert err.value.code == 2
    assert calls == [0]


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_benchmark_all_trials_failing_returns_1(tmp_path, capsys):
    # Identical feature rows make the jitter-free Gram matrix singular in
    # every trial; the run must report rc 1 and per-trial errors.
    rows = ["x1,x2,y"] + [f"1.0,2.0,{i}.0" for i in range(30)]
    data = tmp_path / "flat.csv"
    data.write_text("\n".join(rows) + "\n")
    out = tmp_path / "results.jsonl"
    rc = main([
        "benchmark", "--data", str(data), "--trials", "2", "--B", "1e-3",
        "--n0", "4", "--L", "1", "--jitter", "0", "--out", str(out),
    ])
    assert rc == 1
    records = [json.loads(line) for line in out.read_text().splitlines()]
    trials = [r for r in records if r.get("record") == "trial"]
    assert len(trials) == 2
    assert all("error" in t for t in trials)
    assert records[-1]["n_failed"] == 2
    assert "FAILED" in capsys.readouterr().out


def test_benchmark_programming_error_in_a_trial_escapes_main(tmp_path, monkeypatch):
    # A trial fails only on what a valid trial can meet; any other error is a
    # defect, which must surface instead of becoming a failed-trial row.
    def broken(y_true, y_pred):
        raise ValueError("a defect in the metric")

    monkeypatch.setattr("labrr.cli.r_squared", broken)
    out = tmp_path / "results.jsonl"
    with pytest.raises(ValueError, match="a defect in the metric"):
        main(["benchmark", "--data", _write_synth_csv(tmp_path / "d.csv"), "--trials", "2", "--B", "1e-3",
              "--n0", "4", "--L", "1", "--batch", "4", "--max-outer", "2", "--out", str(out)])
    assert not out.exists()


def test_benchmark_config_file_keys(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "error_budget": 1e-3, "trials": 2, "base_seed": 5,
        "initial_support": 10, "grow_count": 5, "inner_steps": 2,
        "batch_size": 16, "max_rounds": 3,
    }))
    out = tmp_path / "results.jsonl"
    data = _write_synth_csv(tmp_path / "d.csv", n=60, seed=5)
    rc = main(["benchmark", "--data", data, "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    config, trials, _ = _load_results(out)
    assert config["base_seed"] == 5
    assert [t["seed"] for t in trials] == [5, 6]
    assert "seed" not in config["train_config"]  # each trial has its own


def test_benchmark_config_seed_points_to_base_seed(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"error_budget": 1e-3, "seed": 99}))
    with pytest.raises(SystemExit) as err:
        main(["benchmark", "--data", _write_synth_csv(tmp_path / "d.csv"), "--config", str(cfg)])
    assert err.value.code == 2
    assert "base_seed" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# predict


@pytest.fixture()
def trained(tmp_path):
    data = _write_synth_csv(tmp_path / "d.csv")
    model_path = tmp_path / "model.json"
    assert main(_train_args(data, str(model_path))) == 0
    return data, model_path


def test_predict_round_trips_training_labels(tmp_path, trained):
    data, model_path = trained
    out = tmp_path / "preds.csv"
    rc = main(["predict", "--model", str(model_path), "--data", data,
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "prediction"
    preds = np.array([float(v) for v in lines[1:]])
    truth = load_csv(data).y
    assert preds.shape == truth.shape
    assert np.abs(preds - truth).max() <= 1e-6
    # One shortest round-trip repr per line, LF line endings.
    expected = "".join(f"{line}\n" for line in ["prediction", *map(repr, preds.tolist())])
    assert out.read_bytes() == expected.encode("ascii")


def test_predict_to_stdout(capsys, trained):
    data, model_path = trained
    capsys.readouterr()  # drain the fixture's training summary
    rc = main(["predict", "--model", str(model_path), "--data", data])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "prediction"
    assert len(lines) == 31


@pytest.mark.parametrize("n_rows", [1, 4096, 4097, 8195])
def test_predict_writes_one_repr_per_line_across_write_blocks(tmp_path, capsys, trained, n_rows):
    # Rows are formatted 4096 at a time; a block boundary adds or drops no
    # line, and ``--out`` and stdout carry the same bytes.
    _, model_path = trained
    probes = tmp_path / "probes.csv"
    save_csv(synth("f1", n_rows, 0.0, seed=7), probes)
    model = load_model(model_path)
    meta = model.norm_meta
    expected = invert_label_scaling(meta, predict(model, apply_feature_scaling(meta, load_csv(probes).x)))
    text = "prediction\n" + "".join(repr(v) + "\n" for v in expected.tolist())
    out = tmp_path / "preds.csv"
    capsys.readouterr()  # drain the fixture's training summary
    assert main(_predict(model_path, str(probes), "--out", str(out))) == 0
    assert out.read_bytes() == text.encode("ascii")
    assert main(_predict(model_path, str(probes))) == 0
    assert capsys.readouterr().out == text


def test_predict_far_probe_reads_the_label_midpoint_without_a_warning(tmp_path, trained):
    # Every row overflows the probe's squared distance to inf, which the
    # kernel's floor absorbs: the prediction is the label range's midpoint.
    # Against bandwidths of 3 a lone 8e307 row also overflows its cross term
    # to +inf, and the product of a one-row block sums the two into NaN.
    data, model_path = trained
    y = load_csv(data).y
    wide = _edited_model(tmp_path, model_path, lambda doc: doc.update(
        bandwidths=[[3.0] * doc["dim"] for _ in doc["bandwidths"]]))
    for model, rows in ((model_path, "1e160,0.2\n1e200,0.2\n"), (wide, "8e307,0.2\n")):
        probes = _file(tmp_path, "far.csv", rows)
        proc = subprocess.run(
            [sys.executable, "-m", "labrr", *_predict(model, probes)],
            capture_output=True, text=True, env=_labrr_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        lines = proc.stdout.splitlines()
        assert lines[0] == "prediction" and len(lines) == 1 + rows.count("\n")
        assert len(set(lines[1:])) == 1
        assert float(lines[1]) == pytest.approx((y.min() + y.max()) / 2.0, rel=1e-12)


def test_bulk_predict_holds_no_full_size_temporaries(tmp_path):
    # Besides the parsed matrix, the scaled features and the predictions,
    # only fixed-size blocks are held: 1 MB kernel blocks in ``predict`` and
    # ``_WRITE_BLOCK_ROWS`` lines of text.  The parsed matrix is dropped once
    # scaled.  Joining every line at once while it is still held (about
    # 11 MB here) or building 8 MB kernel blocks (about 14 MB) breaks the bound.
    n_rows = 50_000
    train_set = normalize(synth("f2", 500, 0.0, seed=40))
    theta = np.random.default_rng(41).uniform(0.5, 40.0, size=train_set.x.shape)
    model = fit_lab(train_set.x, train_set.y, theta, norm_meta=train_set.norm_meta)
    model_path, probes_path, out = tmp_path / "model.json", tmp_path / "probes.csv", tmp_path / "preds.csv"
    save_model(model, model_path)
    probes = synth("f2", n_rows, 0.0, seed=42)
    save_csv(probes, probes_path)
    tracemalloc.start()
    try:
        rc = main(["predict", "--model", str(model_path), "--data", str(probes_path), "--out", str(out)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0
    arrays = n_rows * (model.dim + 1) * 8 + n_rows * model.dim * 8 + n_rows * 8
    assert peak < arrays + (1 << 20)
    # Written in blocks, with the bytes of one join of every line.
    meta = model.norm_meta
    values = invert_label_scaling(meta, predict(model, apply_feature_scaling(meta, probes.x)))
    expected = "".join(f"{line}\n" for line in ["prediction", *map(repr, values.tolist())])
    assert out.read_bytes() == expected.encode("ascii")


def test_train_model_does_not_depend_on_the_blas_thread_count(tmp_path):
    # At this size two OpenBLAS threads factor and multiply in another order
    # than one; ``train`` runs at one thread per pool whatever the host sets.
    data = _write_synth_csv(tmp_path / "d.csv", fn="f2", n=300, seed=3)
    digests = set()
    for threads in ("1", "2"):
        out = tmp_path / f"model-{threads}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "labrr", "train", "--data", data, "--out", str(out), "--B", "1e-4",
             "--seed", "1", "--max-outer", "1", "--n0", "150", "--batch", "128", "--L", "5"],
            capture_output=True, text=True, timeout=120,
            env=dict(_labrr_env(), OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads),
        )
        assert proc.returncode == 0, proc.stderr
        digests.add(hashlib.sha256(out.read_bytes()).hexdigest())
    assert len(digests) == 1


def test_predict_does_not_depend_on_the_blas_thread_count(tmp_path):
    # Past one block of rows, two OpenBLAS threads sum a block's products in
    # another order than one; ``predict`` runs at one thread per pool.  Small
    # bandwidths keep most kernel entries off the floor, so that order shows
    # in the written predictions (22 of these 2000 rows at two threads).
    train_set = normalize(synth("f2", 500, 0.0, seed=40))
    theta = np.random.default_rng(41).uniform(0.5, 2.0, size=train_set.x.shape)
    model_path, probes_path = tmp_path / "model.json", tmp_path / "probes.csv"
    save_model(fit_lab(train_set.x, train_set.y, theta, norm_meta=train_set.norm_meta), model_path)
    save_csv(synth("f2", 2000, 0.0, seed=42), probes_path)
    digests = set()
    for threads in ("1", "2"):
        out = tmp_path / f"preds-{threads}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "labrr", "predict", "--model", str(model_path),
             "--data", str(probes_path), "--out", str(out)],
            capture_output=True, text=True, timeout=120,
            env=dict(_labrr_env(), OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads),
        )
        assert proc.returncode == 0, proc.stderr
        digests.add(hashlib.sha256(out.read_bytes()).hexdigest())
    assert len(digests) == 1


def test_predict_accepts_feature_only_csv(tmp_path, trained):
    data, model_path = trained
    ds = load_csv(data)
    feats = tmp_path / "features.csv"
    feats.write_text(
        "x1,x2\n" + "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in ds.x)
    )
    out = tmp_path / "preds.csv"
    rc = main(["predict", "--model", str(model_path), "--data", str(feats),
               "--out", str(out)])
    assert rc == 0
    preds = np.array([float(v) for v in out.read_text().splitlines()[1:]])
    assert np.abs(preds - ds.y).max() <= 1e-6


def test_predict_clip_bounds_predictions(tmp_path, trained):
    data, model_path = trained
    out = tmp_path / "preds.csv"
    rc = main(["predict", "--model", str(model_path), "--data", data,
               "--clip", "0.5", "--out", str(out)])
    assert rc == 0
    preds = np.array([float(v) for v in out.read_text().splitlines()[1:]])
    y = load_csv(data).y
    mid = (y.min() + y.max()) / 2.0
    half = (y.max() - y.min()) / 2.0
    assert np.all(preds >= mid - 0.5 * half - 1e-9)
    assert np.all(preds <= mid + 0.5 * half + 1e-9)


def test_predict_invalid_clip_exits_2(trained, tmp_path):
    data, model_path = trained
    with pytest.raises(SystemExit) as err:
        main(["predict", "--model", str(model_path), "--data", data, "--clip", "0"])
    assert err.value.code == 2
    # The clip is checked before any file is read, so absent files exit 2, not 3.
    for argv in (["predict", "--model", str(tmp_path / "absent.json"), "--data", data, "--clip", "0"],
                 ["benchmark", "--data", str(tmp_path / "absent.csv"), "--B", "1e-3", "--clip", "-1"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


def test_predict_corrupt_model_returns_3(tmp_path, trained):
    data, _ = trained
    broken = tmp_path / "broken.json"
    broken.write_text("not a model {")
    rc = main(["predict", "--model", str(broken), "--data", data])
    assert rc == 3


def test_predict_missing_files_return_3(tmp_path, trained):
    data, model_path = trained
    assert main(["predict", "--model", str(tmp_path / "absent.json"),
                 "--data", data]) == 3
    assert main(["predict", "--model", str(model_path),
                 "--data", str(tmp_path / "absent.csv")]) == 3


# ---------------------------------------------------------------------------
# Malformed inputs: one documented exit code each, one log line, no traceback

_NAN_LABEL = "x1,x2,y\n0.1,0.2,0.3\n0.4,0.5,nan\n0.6,0.7,0.8\n"
# Finite cells whose column range (2e308) overflows float64.
_HUGE_RANGE = "x1,x2,y\n1e308,0.2,0.3\n-1e308,0.5,0.4\n0.6,0.7,0.8\n"
# A config setting whose JSON integer, 10**400, is past float64's range.
_PAST_FLOAT64 = '{"%s": 1' + "0" * 400 + "}"


def _file(tmp_path, name, content):
    path = tmp_path / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    return str(path)


def _edited_model(tmp_path, model_path, edit):
    doc = json.loads(model_path.read_text())
    edit(doc)
    return _file(tmp_path, "edited_model.json", json.dumps(doc))


def _one_dim_model(tmp_path, **fields):
    # One point in one dimension, where ``true == 1`` matches the real dim.
    doc = model_to_dict(LabModel([[0.0]], BandwidthSet([[1.0]]), [1.0]))
    doc.update(fields)
    return _file(tmp_path, "one_dim_model.json", json.dumps(doc))


def _train(data, tmp_path, *extra):
    return ["train", "--data", data, "--out", str(tmp_path / "m.json"), "--B", "1e-3", *extra]


def _predict(model, data, *extra):
    return ["predict", "--model", str(model), "--data", data, *extra]


def _synth(tmp_path, fn, *extra):
    return ["synth", "--fn", fn, "--n", "10", "--out", str(tmp_path / "s.csv"), *extra]


# name -> (argv builder over (tmp_path, training CSV, model path), exit code)
_BAD_INPUTS = {
    "nan-label-train": (lambda t, d, m: _train(_file(t, "nan.csv", _NAN_LABEL), t), 3),
    "nan-label-benchmark": (lambda t, d, m: [
        "benchmark", "--data", _file(t, "nan.csv", _NAN_LABEL), "--trials", "1", "--B", "1e-3"], 3),
    "inf-feature-predict": (lambda t, d, m: _predict(m, _file(t, "inf.csv", "0.1,inf\n0.2,0.3\n")), 3),
    "model-without-dim": (lambda t, d, m: _predict(_edited_model(t, m, lambda doc: doc.pop("dim")), d), 3),
    "model-without-feature-max": (lambda t, d, m: _predict(
        _edited_model(t, m, lambda doc: doc["normalization"].pop("feature_max")), d), 3),
    "model-with-string-jitter": (lambda t, d, m: _predict(
        _edited_model(t, m, lambda doc: doc.update(jitter="small")), d), 3),
    "model-with-infinite-jitter": (lambda t, d, m: _predict(
        _edited_model(t, m, lambda doc: doc.update(jitter=float("inf"))), d), 3),
    "model-with-boolean-jitter": (lambda t, d, m: _predict(
        _edited_model(t, m, lambda doc: doc.update(jitter=True)), d), 3),
    "model-with-boolean-dim": (lambda t, d, m: _predict(
        _one_dim_model(t, dim=True), _file(t, "x.csv", "0.5\n")), 3),
    "model-with-n-support-past-int64": (lambda t, d, m: _predict(
        _edited_model(t, m, lambda doc: doc.update(n_support=2**63)), d), 3),
    "model-without-features": (lambda t, d, m: _predict(
        _one_dim_model(t, dim=0, support_x=[[]], bandwidths=[[]]), _file(t, "x.csv", "0.5\n")), 3),
    "non-json-model": (lambda t, d, m: _predict(_file(t, "broken.json", "not a model {"), d), 3),
    "non-utf8-csv": (lambda t, d, m: _train(_file(t, "latin1.csv", b"x1,x2,y\n0.1,0.2,caf\xe9\n"), t), 3),
    "typo-in-first-row": (lambda t, d, m: _train(
        _file(t, "typo.csv", "0.1,abc,1\n1,2,3\n4,5,6\n7,8,9\n"), t), 3),
    "missing-data-file": (lambda t, d, m: _train(str(t / "absent.csv"), t), 3),
    "missing-model-file": (lambda t, d, m: _predict(t / "absent.json", d), 3),
    "unwritable-train-out": (lambda t, d, m: [
        "train", "--data", d, "--out", str(t), "--B", "1e-6", "--n0", "30",
        "--max-support-ratio", "1.0", "--jitter", "0", "--L", "0"], 3),
    "unwritable-predict-out": (lambda t, d, m: _predict(m, d, "--out", str(t)), 3),
    "synth-nan-noise": (lambda t, d, m: _synth(t, "f1", "--noise", "nan"), 2),
    "synth-infinite-noise": (lambda t, d, m: _synth(t, "f1", "--noise", "inf"), 2),
    "synth-overflowing-noise": (lambda t, d, m: _synth(t, "f2", "--noise", "1e308"), 2),
    "synth-negative-seed": (lambda t, d, m: _synth(t, "f1", "--seed", "-1"), 2),
    "synth-seed-past-int64": (lambda t, d, m: _synth(t, "f1", "--seed", str(2**63)), 2),
    # Rows past what numpy can address: one past its largest dimension, and
    # one whose array size overflows a byte count.
    "synth-n-past-the-largest-dimension": (lambda t, d, m: _synth(t, "f1", "--n", str(10**23)), 2),
    "synth-n-past-the-largest-array": (lambda t, d, m: _synth(t, "f1", "--n", str(2**61)), 2),
    "wrong-column-count-predict": (lambda t, d, m: _predict(
        m, _file(t, "wide.csv", "a,b,c,d,e\n1,2,3,4,5\n")), 2),
    "benchmark-negative-base-seed": (lambda t, d, m: [
        "benchmark", "--data", d, "--base-seed", "-1", "--B", "1e-3"], 2),
    "benchmark-empty-split": (lambda t, d, m: [
        "benchmark", "--data", d, "--train-fraction", "0.01", "--trials", "1", "--B", "1e-3"], 2),
    "benchmark-support-past-the-split": (lambda t, d, m: [
        "benchmark", "--data", d, "--n0", "29", "--trials", "1", "--B", "1e-3"], 2),
    # ``synth`` writes synthetic data; ``benchmark`` reads only ``--data``.
    # Options are spelled in full, so ``--n`` does not stand for ``--n0``.
    "benchmark-data-with-n": (lambda t, d, m: [
        "benchmark", "--data", d, "--n", "5", "--trials", "1", "--B", "1e-3"], 2),
    "benchmark-data-with-noise": (lambda t, d, m: [
        "benchmark", "--data", d, "--noise", "nan", "--trials", "1", "--B", "1e-3"], 2),
    "removed-fn-benchmark": (lambda t, d, m: ["benchmark", "--fn", "f1", "--n", "30", "--B", "1e-3"], 2),
    "no-data-benchmark": (lambda t, d, m: ["benchmark", "--B", "1e-3"], 2),
    "config-fractional-rounds": (lambda t, d, m: _train(
        d, t, "--config", _file(t, "cfg.json", '{"max_rounds": 1.5}')), 2),
    "config-string-trials": (lambda t, d, m: [
        "benchmark", "--data", d, "--B", "1e-3",
        "--config", _file(t, "cfg.json", '{"trials": "3"}')], 2),
    "config-not-json": (lambda t, d, m: _train(d, t, "--config", _file(t, "cfg.json", "{oops")), 2),
    "infinite-jitter-train": (lambda t, d, m: _train(d, t, "--jitter", "inf"), 2),
    "infinite-bandwidths-train": (lambda t, d, m: _train(d, t, "--sigma0", "inf", "--theta-max", "inf"), 2),
    "infinite-learning-rate-train": (lambda t, d, m: _train(d, t, "--eta", "inf"), 2),
    "config-seed-benchmark": (lambda t, d, m: [
        "benchmark", "--data", d, "--B", "1e-3",
        "--config", _file(t, "cfg.json", '{"seed": 99}')], 2),
    "overflowing-range-train": (lambda t, d, m: _train(_file(t, "huge.csv", _HUGE_RANGE), t), 3),
    "overflowing-probe-predict": (lambda t, d, m: _predict(m, _file(t, "huge.csv", "1e308,0.2\n")), 3),
    "underscore-number-predict": (lambda t, d, m: _predict(m, _file(t, "under.csv", "0.1,0.2\n1_0,0.3\n")), 3),
    "non-ascii-digit-predict": (lambda t, d, m: _predict(
        m, _file(t, "digits.csv", "0.1,\u0662\n".encode("utf-8"))), 3),
    "empty-csv-predict": (lambda t, d, m: _predict(m, _file(t, "empty.csv", "")), 3),
    # A cell past the csv module's 131072-character field limit.
    "oversized-cell-predict": (lambda t, d, m: _predict(m, _file(t, "big.csv", "1" * 200_000 + ",0.2\n")), 3),
    "header-only-csv-predict": (lambda t, d, m: _predict(m, _file(t, "head.csv", "x1,x2\n\n")), 3),
    "bandwidths-past-the-cap-train": (lambda t, d, m: _train(
        d, t, "--sigma0", "1e200", "--theta-min", "1e199", "--theta-max", "1e200"), 2),
    "model-with-overflowing-bandwidths": (lambda t, d, m: _predict(_edited_model(
        t, m, lambda doc: doc.update(bandwidths=[[1e200] * doc["dim"] for _ in doc["bandwidths"]])), d), 3),
    "model-with-underflowing-bandwidth": (lambda t, d, m: _predict(_edited_model(
        t, m, lambda doc: doc["bandwidths"][0].__setitem__(0, 1e-170)), _file(t, "far.csv", "1e160,0.2\n")), 3),
    "bandwidths-below-the-floor-train": (lambda t, d, m: _train(d, t, "--sigma0", "1e-200", "--theta-min", "1e-200"), 2),
    "model-with-overflowing-alpha": (lambda t, d, m: _predict(_edited_model(
        t, m, lambda doc: doc.update(alpha=[1e308] * len(doc["alpha"]))), d), 3),
    "model-with-overflowing-label-range": (lambda t, d, m: _predict(_edited_model(
        t, m, lambda doc: doc["normalization"].update(label_min=-1e308, label_max=1e308)), d), 3),
    "model-with-far-support-point": (lambda t, d, m: _predict(_edited_model(
        t, m, lambda doc: doc.update(support_x=[[1e200] * doc["dim"], *doc["support_x"][1:]])), d), 3),
    "benchmark-one-row-test-split": (lambda t, d, m: [
        "benchmark", "--data", _write_synth_csv(t / "five.csv", n=5, seed=0), "--trials", "2", "--B", "1e-3",
        "--n0", "2", "--L", "1", "--batch", "2"], 2),
    "benchmark-constant-labels": (lambda t, d, m: [
        "benchmark", "--data", _file(t, "const.csv", _CONSTANT_LABELS), "--trials", "2", "--B", "1e-3",
        "--n0", "5", "--L", "2", "--batch", "8", "--max-outer", "2"], 2),
    "removed-test-csv-benchmark": (lambda t, d, m: [
        "benchmark", "--data", d, "--test-csv", d, "--trials", "1", "--B", "1e-3"], 2),
    "model-with-string-alpha": (lambda t, d, m: _predict(_edited_model(
        t, m, lambda doc: doc.update(alpha=[repr(a) for a in doc["alpha"]])), d), 3),
    "model-with-boolean-bandwidth": (lambda t, d, m: _predict(_edited_model(
        t, m, lambda doc: doc["bandwidths"][0].__setitem__(0, True)), d), 3),
    "model-with-string-label-min": (lambda t, d, m: _predict(_edited_model(
        t, m, lambda doc: doc["normalization"].update(label_min=repr(doc["normalization"]["label_min"]))), d), 3),
    "model-with-integer-alpha-past-float64": (lambda t, d, m: _predict(_edited_model(
        t, m, lambda doc: doc["alpha"].__setitem__(0, 10**400)), d), 3),
    "abbreviated-flag-train": (lambda t, d, m: _train(d, t, "--max-out", "1"), 2),
    "removed-momentum-flag-train": (lambda t, d, m: _train(d, t, "--momentum", "0.5"), 2),
    "removed-momentum-config-train": (lambda t, d, m: _train(
        d, t, "--config", _file(t, "cfg.json", '{"momentum": 0.5}')), 2),
    "removed-extreme-y-selection-train": (lambda t, d, m: _train(d, t, "--selection", "extreme_y"), 2),
    "config-learning-rate-past-float64-train": (lambda t, d, m: _train(
        d, t, "--config", _file(t, "cfg.json", _PAST_FLOAT64 % "learning_rate")), 2),
    "config-jitter-past-float64-train": (lambda t, d, m: _train(
        d, t, "--config", _file(t, "cfg.json", _PAST_FLOAT64 % "jitter")), 2),
    "config-learning-rate-past-float64-benchmark": (lambda t, d, m: [
        "benchmark", "--data", d, "--B", "1e-3",
        "--config", _file(t, "cfg.json", _PAST_FLOAT64 % "learning_rate")], 2),
    "config-jitter-past-float64-benchmark": (lambda t, d, m: [
        "benchmark", "--data", d, "--B", "1e-3",
        "--config", _file(t, "cfg.json", _PAST_FLOAT64 % "jitter")], 2),
    "config-train-fraction-past-float64-benchmark": (lambda t, d, m: [
        "benchmark", "--data", d, "--B", "1e-3",
        "--config", _file(t, "cfg.json", _PAST_FLOAT64 % "train_fraction")], 2),
    "config-clip-past-float64-benchmark": (lambda t, d, m: [
        "benchmark", "--data", d, "--B", "1e-3", "--trials", "1",
        "--config", _file(t, "cfg.json", _PAST_FLOAT64 % "clip")], 2),
    # Loop counts past int64, the largest count numpy can hold.
    "inner-steps-past-int64-train": (lambda t, d, m: _train(d, t, "--L", str(10**20), "--max-outer", "1"), 2),
    "config-max-rounds-past-int64-train": (lambda t, d, m: _train(
        d, t, "--config", _file(t, "cfg.json", _PAST_FLOAT64 % "max_rounds")), 2),
    "trials-past-int64-benchmark": (lambda t, d, m: [
        "benchmark", "--data", d, "--trials", str(10**20), "--B", "1e-3"], 2),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
def test_malformed_input_exits_with_its_code(case, tmp_path, trained, capfd, caplog):
    build, expected = _BAD_INPUTS[case]
    data, model_path = trained
    argv = build(tmp_path, data, model_path)
    capfd.readouterr()
    caplog.clear()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's path for argument errors
        code = exc.code
    err = capfd.readouterr().err
    assert code == expected
    assert "Traceback" not in err
    if expected == 2:
        assert "error:" in err
    else:
        errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1
        assert errors[0].exc_info is None and "\n" not in errors[0].getMessage()


def test_out_of_memory_exits_1_with_one_log_line(tmp_path, monkeypatch, capfd, caplog):
    def exhausted(*args):
        raise MemoryError("Unable to allocate 14.6 TiB for an array with shape (1000000000000, 2)")

    monkeypatch.setattr("labrr.cli.synth", exhausted)
    capfd.readouterr()
    caplog.clear()
    assert main(["synth", "--fn", "f1", "--n", "1000000000000", "--out", str(tmp_path / "s.csv")]) == 1
    assert "Traceback" not in capfd.readouterr().err
    errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1
    assert errors[0].exc_info is None and "Unable to allocate" in errors[0].getMessage()


def test_malformed_input_prints_one_stderr_line(tmp_path):
    bad = _file(tmp_path, "nan.csv", _NAN_LABEL)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from labrr.cli import main; sys.exit(main())",
         "train", "--data", bad, "--out", str(tmp_path / "m.json"), "--B", "1e-3"],
        capture_output=True, text=True, env=_labrr_env(), timeout=120,
    )
    assert proc.returncode == 3
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert "nan.csv" in proc.stderr and "row 3, column 3" in proc.stderr


_MAGNITUDES = [10.0 ** k for k in range(-150, 151, 25)]
_EXTREME_CELLS = [sign * v for v in (0.0, 5e-324, 1e-300, 1.0, 1e160, 8e307) for sign in (1.0, -1.0)]
_LABEL_BOUNDS = [sign * v for v in (0.0, 1.0, 1e308) for sign in (1.0, -1.0)]


@pytest.fixture(scope="module")
def f1_model_doc(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    data = _write_synth_csv(tmp / "d.csv")
    model_path = tmp / "model.json"
    assert main(_train_args(data, str(model_path), **{"--sigma0": 3.0})) == 0
    return json.loads(model_path.read_text())


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    scales=st.tuples(*[st.sampled_from(_MAGNITUDES)] * 2, st.sampled_from(_MAGNITUDES + [1e306, 1e308])),
    label_bounds=st.tuples(*[st.sampled_from(_LABEL_BOUNDS)] * 2),
    probes=st.lists(st.tuples(*[st.sampled_from(_EXTREME_CELLS)] * 2), min_size=1, max_size=3),
)
def test_predict_on_extreme_magnitudes_exits_cleanly(
    f1_model_doc, tmp_path, capfd, caplog, scales, label_bounds, probes
):
    x_scale, theta_scale, alpha_scale = scales
    label_min, label_max = label_bounds
    doc = dict(
        f1_model_doc,
        normalization=dict(f1_model_doc["normalization"], label_min=label_min, label_max=label_max),
        support_x=[[v * x_scale for v in row] for row in f1_model_doc["support_x"]],
        bandwidths=[[v * theta_scale for v in row] for row in f1_model_doc["bandwidths"]],
        alpha=[v * alpha_scale for v in f1_model_doc["alpha"]],
    )
    model = _file(tmp_path, "model.json", json.dumps(doc))
    data = _file(tmp_path, "probes.csv", "".join(f"{a!r},{b!r}\n" for a, b in probes))
    capfd.readouterr()
    caplog.clear()
    code = main(_predict(model, data))
    out, err = capfd.readouterr()
    assert code in (0, 2, 3)
    assert "Traceback" not in err and err.count("\n") <= 1
    assert len([r for r in caplog.records if r.levelno >= logging.WARNING]) <= 1
    if code == 0:
        values = [float(v) for v in out.splitlines()[1:]]
        assert len(values) == len(probes) and np.isfinite(values).all()


# ---------------------------------------------------------------------------
# Structure-aware fuzz: valid inputs, mutated one part at a time

# Values a mutation writes into a JSON document: JSON's own types, numbers at
# float64's edges (``json.dumps`` writes the non-finite ones as ``Infinity``
# and ``NaN``, which the reader takes) and an integer past float64.
_JSON_VALUES = [
    None, True, False, 0, -1, 1, 2, 2**63, 10**400, -0.0, 5e-324, 1e-300, 1e-3, 0.5, 3.0, 1e150,
    1.7e308, -1.7e308, float("inf"), float("nan"), "", "1.0", [], [1.0], {},
]
# Cells a mutation writes into a CSV: numbers at float64's edges and past it,
# words, spellings that the reader rejects though Python's ``float`` takes
# some of them, and cells that change the row's shape or quoting.
_CSV_CELLS = [
    "", " ", "0", "-0.0", "5e-324", "1e-300", "1e150", "1e308", "-1e308", "1e400", "nan", "inf",
    "-inf", "abc", "1_0", "\u0662", "0x10", "1,2", '"0.5"', '"', "1\n2",
]
_CONFIG_COUNTS = {"inner_steps", "max_rounds", "trials", "initial_support", "grow_count", "batch_size"}
_FUZZ_TRAIN = ["--B", "1e-3", "--n0", "4", "--L", "2", "--batch", "4", "--max-outer", "2"]
_FUZZ_CONFIG = {
    "error_budget": 1e-3, "initial_support": 4, "inner_steps": 2, "batch_size": 4, "max_rounds": 2,
    "grow_count": 2, "init_bandwidth": 1.0, "learning_rate": 0.05, "jitter": 1e-8,
}
_DELETE = object()


@pytest.fixture(scope="module")
def fuzz_seeds(tmp_path_factory):
    """A 16-row f1 CSV as rows of cells, and the document of a model trained on it."""
    tmp = tmp_path_factory.mktemp("mutate")
    data = _write_synth_csv(tmp / "d.csv", n=16, seed=5)
    model_path = tmp / "model.json"
    assert main(["train", "--data", data, "--out", str(model_path), *_FUZZ_TRAIN]) == 0
    rows = [line.split(",") for line in Path(data).read_text().splitlines()]
    return rows, json.loads(model_path.read_text())


def _json_paths(node, path=()):
    """The path of every value in a JSON document, containers included."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from _json_paths(child, path + (key,))


def _mutate_json(doc, path, value):
    """A copy of ``doc`` with the value at ``path`` replaced, or deleted."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    if value is _DELETE:
        del node[last]
    else:
        node[last] = value
    return doc


def _fuzz_model_argv(data, tmp_path, rows, model_doc):
    """``predict`` with a model document mutated field by field."""
    for _ in range(data.draw(st.integers(1, 2))):
        paths = list(_json_paths(model_doc))
        if paths:
            value = data.draw(st.sampled_from([*_JSON_VALUES, _DELETE]))
            model_doc = _mutate_json(model_doc, data.draw(st.sampled_from(paths)), value)
    return _predict(_file(tmp_path, "model.json", json.dumps(model_doc)), _csv_file(tmp_path, rows))


def _fuzz_csv_argv(data, tmp_path, rows, model_doc):
    """``train``, ``benchmark`` or ``predict`` on a CSV mutated cell by cell."""
    rows = [list(row) for row in rows]
    for _ in range(data.draw(st.integers(1, 2))):
        row = data.draw(st.sampled_from(rows))
        row[data.draw(st.integers(0, len(row) - 1))] = data.draw(st.sampled_from(_CSV_CELLS))
    csv = _csv_file(tmp_path, rows)
    return data.draw(st.sampled_from([
        ["train", "--data", csv, "--out", str(tmp_path / "m.json"), *_FUZZ_TRAIN],
        ["benchmark", "--data", csv, "--trials", "2", *_FUZZ_TRAIN],
        _predict(_file(tmp_path, "model.json", json.dumps(model_doc)), csv),
    ]))


def _fuzz_config_argv(data, tmp_path, rows, model_doc):
    """``train`` or ``benchmark`` with a ``--config`` document mutated key by key."""
    command = data.draw(st.sampled_from(["train", "benchmark"]))
    doc = dict(_FUZZ_CONFIG)
    for _ in range(data.draw(st.integers(1, 2))):
        key = data.draw(st.sampled_from(sorted(cli._BENCH_KEYS | {"seed", "unknown"})))
        if key in _CONFIG_COUNTS:  # a count between these bands only runs long
            values = st.one_of(st.integers(-1, 4), st.integers(2**63, 10**400), st.sampled_from(
                [v for v in _JSON_VALUES if not isinstance(v, int) or isinstance(v, bool)]))
        else:
            values = st.sampled_from([*_JSON_VALUES, _DELETE])
        value = data.draw(values)
        if value is _DELETE:
            doc.pop(key, None)
        else:
            doc[key] = value
    argv = ["--config", _file(tmp_path, "cfg.json", json.dumps(doc))]
    if command == "train":
        return ["train", "--data", _csv_file(tmp_path, rows), "--out", str(tmp_path / "m.json"), *argv]
    if "trials" not in doc:  # not the default of 50
        argv += ["--trials", "2"]
    return ["benchmark", "--data", _csv_file(tmp_path, rows), *argv]


def _csv_file(tmp_path, rows):
    return _file(tmp_path, "d.csv", "".join(",".join(row) + "\n" for row in rows))


@settings(max_examples=250, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(mutate=st.sampled_from([_fuzz_model_argv, _fuzz_csv_argv, _fuzz_config_argv]), data=st.data())
def test_mutated_input_exits_with_a_documented_code(fuzz_seeds, tmp_path, capfd, caplog, mutate, data):
    argv = mutate(data, tmp_path, *fuzz_seeds)
    capfd.readouterr()
    caplog.clear()
    try:
        # Any warning escapes ``main`` and fails the example; the filter covers
        # the command alone, not Hypothesis's own reporting.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
    except SystemExit as exc:  # argparse's path for argument errors
        code = exc.code
    err = capfd.readouterr().err
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code == 2:  # argparse's usage, then its one ``error:`` line
        assert "error:" in err.splitlines()[-1]
    else:
        assert err.count("\n") <= 1
    errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) <= 1 and all(r.exc_info is None and "\n" not in r.getMessage() for r in errors)


# ---------------------------------------------------------------------------
# misc


def test_no_command_exits_2():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_log_env_does_not_break_commands(tmp_path, monkeypatch):
    monkeypatch.setenv("LABRR_LOG", "debug")
    out = tmp_path / "d.csv"
    assert main(["synth", "--fn", "f3", "--n", "8", "--out", str(out)]) == 0


@pytest.mark.parametrize("module", ["labrr", "labrr.cli"])
def test_python_dash_m_entry_point(tmp_path, module):
    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        [sys.executable, "-m", module, "synth", "--fn", "f1", "--n", "6", "--out", str(out)],
        capture_output=True, text=True, env=_labrr_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert load_csv(out).n == 6


@pytest.mark.skipif(shutil.which("labrr") is None, reason="console script not on PATH")
def test_console_script_entry_point(tmp_path):
    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        ["labrr", "synth", "--fn", "f1", "--n", "6", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert out.exists()
