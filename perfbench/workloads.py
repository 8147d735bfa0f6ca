"""The three benchmark workloads: seeded inputs, one timed call, its checks.

Every workload is a closed loop driven by ``run.py``: each call starts when
the previous one returns.  A workload builds all of its inputs from the seed
in :meth:`setup`, hands labrr only those generated inputs in :meth:`call`,
and verifies the outputs in :meth:`check`, outside the timed region.

* ``noisy-small-support`` -- the criterion-6 shape: f1, n=750, 20% label
  noise, 150 support points and one round of 600 SGD steps at batch 64, d=2.
  Every step pays fixed per-call costs (validation, bandwidth copies, a
  150x150 Gram, a 64x150 cross-kernel, a 150^3 LU), so per-call overhead
  dominates and growth evaluation does almost nothing.
* ``grow-large-support`` -- the airfoil-shaped proxy: f2, n=1503, d=6, the
  criterion-8 config capped at 10 rounds, so support grows from 20 to 290.
  Calls stay a few seconds long, so the host-speed reference measured
  around each call tracks the host state during it.
  O(n^3) LU, the square Gram, the per-dimension gradient loop at d=6 and a
  growth evaluation over the remainder dominate.
* ``cli-predict-bulk`` -- ``labrr predict`` in process on 100k probe rows
  against a saved 500-point, d=6 model: a tall rows-by-support kernel with
  no LU and no gradient, plus CSV parsing, JSON model load and file writes.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import labrr.cli
import labrr.trainer
import numpy as np
from hostspeed import GROWTH, SMALL, ReferenceShape
from labrr.data import (
    Dataset,
    SplitSpec,
    apply_feature_scaling,
    apply_label_scaling,
    invert_label_scaling,
    normalize,
    save_csv,
    split,
    synth,
)
from labrr.metrics import r_squared
from labrr.ridgeless import fit_lab, predict, save_model
from labrr.trainer import TrainConfig

#: CLI predictions must match in-process prediction to this relative error.
PREDICT_RTOL = 1e-12


def _rmse(a: np.ndarray, b: np.ndarray) -> float:
    return math.sqrt(float(np.mean((a - b) ** 2)))


@dataclasses.dataclass(frozen=True)
class TrainSpec:
    fn: str
    n: int
    noise_ratio: float
    trials: int
    config: dict
    r2_floor: float | None = None
    warmup_steps: int = 20
    warmup_support: int | None = None
    reference: ReferenceShape = SMALL


@dataclasses.dataclass(frozen=True)
class PredictSpec:
    n_support: int
    n_probes: int
    reference: ReferenceShape = SMALL


_C6_CONFIG = dict(
    error_budget=1e-3, batch_size=64, grow_count=20, selection="x_kmeans",
    initial_support=150, max_support_ratio=0.25, init_bandwidth=1.1,
    inner_steps=600, jitter=1e-2, learning_rate=0.02,
    bandwidth_min=0.5, bandwidth_max=8.0,
)
_C8_CONFIG = dict(
    error_budget=1e-4, grow_count=30, learning_rate=0.01, inner_steps=30,
    initial_support=20, init_bandwidth=10.0, batch_size=128,
    bandwidth_min=0.5, bandwidth_max=40.0, max_support_ratio=0.7487,
)

#: Full-size specs, and the tiny ones the smoke tests run.
SPECS = {
    "full": {
        "noisy-small-support": TrainSpec("f1", 750, 0.2, 16, _C6_CONFIG, r2_floor=0.9),
        "grow-large-support": TrainSpec(
            "f2", 1503, 0.0, 2, dict(_C8_CONFIG, max_rounds=10), warmup_steps=2, warmup_support=290,
            reference=GROWTH,
        ),
        "cli-predict-bulk": PredictSpec(500, 100_000),
    },
    "tiny": {
        "noisy-small-support": TrainSpec(
            "f1", 400, 0.2, 2,
            dict(_C6_CONFIG, initial_support=100, inner_steps=20), r2_floor=0.7, warmup_steps=2,
        ),
        "grow-large-support": TrainSpec(
            "f2", 200, 0.0, 1, dict(_C8_CONFIG, max_rounds=3, inner_steps=5), warmup_steps=2,
            reference=GROWTH,
        ),
        "cli-predict-bulk": PredictSpec(40, 500),
    },
}


class TrainWorkload:
    """Repeated ``labrr.trainer.train`` on ``spec.trials`` seeded datasets.

    Call ``i`` trains trial ``i % trials``; repeats of a trial must give
    byte-identical model files.  Quality is judged against clean test labels.
    """

    work_unit = "sgd_steps"
    root_span = "trainer.train"

    def __init__(self, spec: TrainSpec, seed: int, workdir: Path) -> None:
        self.spec = spec
        self.seed = seed
        self.workdir = workdir
        self.trials: list[tuple[Dataset, Dataset, TrainConfig]] = []
        self.first_bytes: dict[int, bytes] = {}
        self.records: dict[int, dict] = {}

    @property
    def min_calls(self) -> int:
        # Every trial once, then trial 0 again for the repeat gate.
        return self.spec.trials + 1

    def setup(self) -> None:
        spec, seed = self.spec, self.seed
        self.trials = []
        for t in range(spec.trials):
            # Each trial draws its own dataset, so a run's quality averages
            # over several datasets rather than several splits of one.
            clean = normalize(synth(spec.fn, spec.n, 0.0, seed=seed * 1000 + t))
            train_set, test_set = split(clean, SplitSpec(seed, t, 0.8))
            if spec.noise_ratio > 0.0:
                rng = np.random.default_rng([seed, t, 97])
                noise = rng.normal(0.0, math.sqrt(spec.noise_ratio * train_set.y.var()), train_set.n)
                train_set = Dataset(train_set.x, train_set.y + noise, train_set.norm_meta, spec.fn)
            self.trials.append((train_set, test_set, TrainConfig(seed=seed + t, **spec.config)))
        # Warm-up: one short round at the workload's largest support size, so
        # lazy library set-up and the allocator's first growth to full-size
        # temporaries are paid here rather than by the first timed call.
        train_set, _, config = self.trials[0]
        warmup = dataclasses.replace(
            config,
            initial_support=spec.warmup_support or config.initial_support,
            inner_steps=spec.warmup_steps,
            max_rounds=1,
        )
        labrr.trainer.train(train_set, warmup)

    @staticmethod
    def entry():
        return labrr.trainer.train

    def call(self, i: int, train_fn):
        train_set, _, config = self.trials[i % self.spec.trials]
        return train_fn(train_set, config)

    def check(self, i: int, output) -> tuple[list[str], int, dict]:
        """Gate one call; returns (failures, work done, per-call record)."""
        model, trace = output
        t = i % self.spec.trials
        _, test_set, _ = self.trials[t]
        failures = []
        preds = predict(model, test_set.x)
        if not np.all(np.isfinite(preds)):
            failures.append(f"trial {t}: non-finite test prediction")
        path = self.workdir / f"model-{t}.json"
        save_model(model, path)
        blob = path.read_bytes()
        if self.first_bytes.setdefault(t, blob) != blob:
            failures.append(f"trial {t}: repeat produced a different model file")
        record = {
            "call": i,
            "trial": t,
            "stop_reason": trace.stop_reason,
            "n_support": model.n_support,
            "rounds": trace.n_rounds,
            "test_r2": r_squared(test_set.y, preds),
            "test_rmse": _rmse(preds, test_set.y),
        }
        self.records.setdefault(t, record)
        return failures, sum(len(r.inner_losses) for r in trace.rounds), record

    def summary(self) -> tuple[list[str], dict]:
        """Quality over the distinct trials run, plus the workload-level gates."""
        done = [self.records[t] for t in sorted(self.records)]
        r2 = float(np.mean([r["test_r2"] for r in done]))
        failures = []
        if self.spec.r2_floor is not None and not r2 >= self.spec.r2_floor:
            failures.append(f"mean test R2 {r2:.4f} below the floor {self.spec.r2_floor}")
        return failures, {
            "test_r2": r2,
            "test_rmse": float(np.mean([r["test_rmse"] for r in done])),
            "n_support": float(np.mean([r["n_support"] for r in done])),
            "r2_floor": self.spec.r2_floor,
            "distinct_trials": len(done),
        }


class PredictWorkload:
    """``labrr predict`` through ``labrr.cli.main`` on a bulk probe CSV.

    Set-up fits a model on f2 points with seeded random bandwidths (no
    training), saves it, and writes the probe CSV with clean f2 labels, which
    the CLI ignores as a trailing label column.
    """

    work_unit = "predict_rows"
    root_span = "cli.predict"
    min_calls = 1

    def __init__(self, spec: PredictSpec, seed: int, workdir: Path) -> None:
        self.spec = spec
        self.seed = seed
        self.workdir = workdir
        self.model_path = workdir / "model.json"
        self.probe_path = workdir / "probes.csv"
        self.out_path = workdir / "predictions.csv"
        self.model_bytes: bytes | None = None
        self.first_output: bytes | None = None
        self.reference: np.ndarray | None = None
        self.quality: dict = {}

    def setup(self) -> None:
        spec, seed = self.spec, self.seed
        train_set = normalize(synth("f2", spec.n_support, 0.0, seed=seed))
        rng = np.random.default_rng([seed, 2])
        theta = rng.uniform(0.5, 40.0, size=train_set.x.shape)
        self.model = fit_lab(train_set.x, train_set.y, theta, norm_meta=train_set.norm_meta)
        save_model(self.model, self.model_path)
        self.probes = synth("f2", spec.n_probes, 0.0, seed=seed + 1)
        save_csv(self.probes, self.probe_path)
        blob = self.model_path.read_bytes()
        if self.model_bytes is not None and blob != self.model_bytes:
            raise RuntimeError("repeated set-up produced a different model file")
        self.model_bytes = blob

    @staticmethod
    def entry():
        return labrr.cli.main

    def call(self, i: int, main_fn):
        return main_fn(
            ["predict", "--model", str(self.model_path), "--data", str(self.probe_path),
             "--out", str(self.out_path)]
        )

    def check(self, i: int, exit_code) -> tuple[list[str], int, dict]:
        if exit_code != 0:
            return [f"call {i}: labrr predict exited with {exit_code}"], 0, {"call": i}
        blob = self.out_path.read_bytes()
        if self.first_output is None:
            failures, rows, record = self._check_values(i, blob)
            if not failures:
                self.first_output = blob
            return failures, rows, record
        if blob != self.first_output:
            return [f"call {i}: output differs from the first call"], 0, {"call": i}
        return [], self.spec.n_probes, {"call": i, "rows": self.spec.n_probes}

    def _check_values(self, i: int, blob: bytes) -> tuple[list[str], int, dict]:
        lines = blob.decode("utf-8").splitlines()
        values = np.array([float(v) for v in lines[1:]])
        if lines[0] != "prediction" or values.shape[0] != self.spec.n_probes:
            return [f"call {i}: malformed predictions file"], 0, {"call": i}
        meta = self.model.norm_meta
        if self.reference is None:
            features = apply_feature_scaling(meta, self.probes.x)
            self.reference = invert_label_scaling(meta, predict(self.model, features))
        failures = []
        if not np.all(np.isfinite(values)):
            failures.append(f"call {i}: non-finite prediction")
        rel = float(np.max(np.abs(values - self.reference)) / np.max(np.abs(self.reference)))
        if not rel <= PREDICT_RTOL:
            failures.append(f"call {i}: CLI predictions differ from in-process by {rel:.3e}")
        self.quality = {
            "test_rmse": _rmse(apply_label_scaling(meta, values), apply_label_scaling(meta, self.probes.y)),
            "test_r2": r_squared(self.probes.y, values),
            "max_rel_error": rel,
        }
        record = {"call": i, "rows": values.shape[0], "n_support": self.model.n_support}
        return failures, values.shape[0], record

    def summary(self) -> tuple[list[str], dict]:
        failures = [] if self.quality else ["no predictions file was checked"]
        return failures, dict(self.quality, n_support=float(self.model.n_support))


def make(name: str, size: str, seed: int, workdir: Path):
    spec = SPECS[size][name]
    cls = PredictWorkload if isinstance(spec, PredictSpec) else TrainWorkload
    return cls(spec, seed, workdir)
