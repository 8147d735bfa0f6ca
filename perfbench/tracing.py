"""In-memory span tracing of labrr's layers, driven from outside the package.

The benchmark never edits ``src/``.  Instead, for traced calls only, it
rebinds the names that labrr's modules look up at call time (for example
``labrr.trainer.lab_matrix``) to thin wrappers that push a span on a stack,
call the original, and pop the span.  :func:`installed` restores every
original on exit, so untraced calls run the unmodified code.

A span records its name, start, end, parent id, workload and trial, plus a
few counts taken from the call's arguments (rows, matrix order, bytes).
Self time is the span's duration minus the time its children cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time

import labrr.cli
import labrr.numerics
import labrr.ridgeless
import labrr.trainer
import numpy as np


def _rows(values) -> int:
    arr = np.asarray(values)
    return 1 if arr.ndim == 1 else int(arr.shape[0])


def _kernel_attrs(rows, cols, *_args, **_kwargs) -> dict:
    return {"entries": _rows(rows) * _rows(cols)}


def _order_attrs(a, *_args, **_kwargs) -> dict:
    return {"n": _rows(a)}


def _predict_attrs(_model, t, *_args, **_kwargs) -> dict:
    return {"rows": _rows(t)}


def _file_attrs(path, *_args, **_kwargs) -> dict:
    return {"bytes": os.path.getsize(path)}


#: (owner, attribute, span name, argument counter).  Both kernel call sites
#: share one span name, as do both factorization sites: ``solve_regularized``
#: is a factorization whose child ``numerics.solve`` span is subtracted as
#: self time.
TARGETS = [
    (labrr.trainer, "lab_matrix", "kernels.lab_matrix", _kernel_attrs),
    (labrr.ridgeless, "lab_matrix", "kernels.lab_matrix", _kernel_attrs),
    (labrr.trainer, "FactorizedMatrix", "numerics.factor", _order_attrs),
    (labrr.ridgeless, "solve_regularized", "numerics.factor", _order_attrs),
    (labrr.numerics.FactorizedMatrix, "solve", "numerics.solve", None),
    (labrr.trainer, "batch_loss_and_grad", "trainer.grad", None),
    (labrr.trainer, "sgd_round", "trainer.sgd_round", None),
    (labrr.trainer, "fit_lab", "ridgeless.fit_lab", None),
    (labrr.trainer, "predict", "ridgeless.predict", _predict_attrs),
    (labrr.cli, "load_model", "ridgeless.load_model", None),
    (labrr.cli, "load_matrix_csv", "data.load_matrix_csv", _file_attrs),
    (labrr.cli, "predict", "ridgeless.predict", _predict_attrs),
]


class Tracer:
    """Span stack plus the flat list of every span recorded so far."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.trial = -1
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def wrap(self, name: str, fn, attrs=None):
        """Return ``fn`` wrapped so that each call records one span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "workload": self.workload,
                "trial": self.trial,
            }
            if attrs is not None:
                span.update(attrs(*args, **kwargs))
            self.spans.append(span)
            self._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every target to its traced wrapper for the duration."""
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in TARGETS]
        try:
            for (owner, attr, name, attrs), (_, _, fn) in zip(TARGETS, originals):
                setattr(owner, attr, self.wrap(name, fn, attrs))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def write(self, path) -> None:
        """Write every span as one JSON line; called once, at the end."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


#: Per-layer metrics with their units, in the order they are reported.
LAYER_METRICS = {
    "kernels.lab_matrix.s": "s",
    "kernels.lab_matrix.calls": "count",
    "kernels.lab_matrix.entries": "count",
    "kernels.lab_matrix.ns_per_entry": "ns",
    "kernels.lab_matrix.share": "ratio",
    "numerics.factor.s": "s",
    "numerics.factor.calls": "count",
    "numerics.factor.gflop": "gflop",
    "numerics.factor.gflop_per_s": "gflop/s",
    "numerics.factor.calls_per_step": "ratio",
    "numerics.factor.share": "ratio",
    "numerics.solve.s": "s",
    "numerics.solve.calls": "count",
    "trainer.grad.s": "s",
    "trainer.grad.self_s": "s",
    "trainer.grad.calls": "count",
    "trainer.grad.self_share": "ratio",
    "trainer.sgd_round.self_s": "s",
    "trainer.sgd_round.steps": "count",
    "trainer.sgd_round.self_share": "ratio",
    "trainer.growth_eval.s": "s",
    "trainer.growth_eval.points": "count",
    "trainer.train.self_s": "s",
    "trainer.train.rounds": "count",
    "ridgeless.fit_lab.s": "s",
    "ridgeless.predict.s": "s",
    "ridgeless.predict.rows": "count",
    "data.load_matrix_csv.s": "s",
    "data.load_matrix_csv.bytes": "bytes",
    "ridgeless.load_model.s": "s",
    "cli.predict.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(spans: list[dict], n_calls: int, call_s: float, overhead_ratio: float) -> dict:
    """Per-layer numbers, as totals per workload call.

    ``n_calls`` is the number of traced workload calls the spans cover and
    ``call_s`` their mean traced wall time; a ``share`` is a layer's seconds
    over ``call_s``, which caps what speeding that layer up can save.
    """
    by_id = {span["id"]: span for span in spans}
    child_s: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            child_s[span["parent"]] = child_s.get(span["parent"], 0.0) + span["end"] - span["start"]

    def dur(span):
        return span["end"] - span["start"]

    def self_s(span):
        return dur(span) - child_s.get(span["id"], 0.0)

    def named(name):
        return [span for span in spans if span["name"] == name]

    def total(name, measure=dur):
        return sum(measure(span) for span in named(name)) / n_calls

    def count(name, key=None):
        return sum(span[key] if key else 1 for span in named(name)) / n_calls

    def ratio(num, den):
        return num / den if den else 0.0

    under_train = [
        span
        for span in spans
        if span["name"] in ("ridgeless.fit_lab", "ridgeless.predict")
        and span["parent"] is not None
        and by_id[span["parent"]]["name"] == "trainer.train"
    ]
    kernel_s = total("kernels.lab_matrix")
    factor_s = total("numerics.factor", self_s)
    factor_gflop = sum(2.0 * span["n"] ** 3 / 3.0 for span in named("numerics.factor")) / n_calls / 1e9
    steps = count("trainer.grad")
    grad_self = total("trainer.grad", self_s)
    round_self = total("trainer.sgd_round", self_s)
    values = {
        "kernels.lab_matrix.s": kernel_s,
        "kernels.lab_matrix.calls": count("kernels.lab_matrix"),
        "kernels.lab_matrix.entries": count("kernels.lab_matrix", "entries"),
        "kernels.lab_matrix.ns_per_entry": 1e9 * ratio(kernel_s, count("kernels.lab_matrix", "entries")),
        "kernels.lab_matrix.share": ratio(kernel_s, call_s),
        "numerics.factor.s": factor_s,
        "numerics.factor.calls": count("numerics.factor"),
        "numerics.factor.gflop": factor_gflop,
        "numerics.factor.gflop_per_s": ratio(factor_gflop, factor_s),
        "numerics.factor.calls_per_step": ratio(count("numerics.factor"), steps),
        "numerics.factor.share": ratio(factor_s, call_s),
        "numerics.solve.s": total("numerics.solve"),
        "numerics.solve.calls": count("numerics.solve"),
        "trainer.grad.s": total("trainer.grad"),
        "trainer.grad.self_s": grad_self,
        "trainer.grad.calls": steps,
        "trainer.grad.self_share": ratio(grad_self, call_s),
        "trainer.sgd_round.self_s": round_self,
        "trainer.sgd_round.steps": steps,
        "trainer.sgd_round.self_share": ratio(round_self, call_s),
        "trainer.growth_eval.s": sum(dur(span) for span in under_train) / n_calls,
        "trainer.growth_eval.points": sum(span.get("rows", 0) for span in under_train) / n_calls,
        "trainer.train.self_s": total("trainer.train", self_s),
        "trainer.train.rounds": count("trainer.sgd_round"),
        "ridgeless.fit_lab.s": total("ridgeless.fit_lab"),
        "ridgeless.predict.s": total("ridgeless.predict"),
        "ridgeless.predict.rows": count("ridgeless.predict", "rows"),
        "data.load_matrix_csv.s": total("data.load_matrix_csv"),
        "data.load_matrix_csv.bytes": count("data.load_matrix_csv", "bytes"),
        "ridgeless.load_model.s": total("ridgeless.load_model"),
        "cli.predict.self_s": total("cli.predict", self_s),
        "trace.overhead_ratio": overhead_ratio,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS.items()}
