"""Unit tests for the bandwidth gradient, SGD round, and training loop."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from labrr import ridgeless, trainer
from labrr.data import Dataset, InsufficientData, InvalidSetting, SplitSpec, normalize, split, synth
from labrr.kernels import MIN_BANDWIDTH, BandwidthSet, lab_matrix
from labrr.metrics import sparsity_r0
from labrr.numerics import DimensionMismatch, DivergedStep, FactorizedMatrix, SingularSystem
from labrr.ridgeless import LabModel, SupportSystem, fit_lab, predict
from labrr.trainer import (
    SELECTION_STRATEGIES,
    TrainConfig,
    batch_loss_and_grad,
    grow_support,
    select_initial_support,
    sgd_round,
    train,
)


def test_batch_loss_and_grad_hand_values():
    # One support point at the origin with label 1 and bandwidth 1, one batch
    # point at distance 1 with label 0: loss = exp(-2), d/dtheta = -4 exp(-2).
    system = SupportSystem([[0.0]], [1.0], 0.0)
    loss, grad = batch_loss_and_grad(system, BandwidthSet([[1.0]]).values, *system.featurize([[1.0]], [0.0]))
    assert loss == pytest.approx(0.1353352832366127, rel=1e-12)
    assert grad.shape == (1, 1)
    assert grad[0, 0] == pytest.approx(-0.5413411329464508, rel=1e-12)


def test_batch_loss_and_grad_accepts_raw_theta():
    system = SupportSystem([[0.0]], [1.0], 0.0)
    batch = system.featurize([[1.0]], [0.0])
    loss_a, grad_a = batch_loss_and_grad(system, np.array([[1.0]]), *batch)
    loss_b, grad_b = batch_loss_and_grad(system, BandwidthSet([[1.0]]).values, *batch)
    assert loss_a == loss_b
    assert np.array_equal(grad_a, grad_b)


def _assert_grad_matches_finite_differences(rng, n_support, n_batch, dim):
    step = 1e-5
    sx = rng.uniform(-1.0, 1.0, size=(n_support, dim))
    sy = rng.normal(size=n_support)
    bx = rng.uniform(-1.0, 1.0, size=(n_batch, dim))
    by = rng.normal(size=n_batch)
    th = rng.uniform(0.3, 3.0, size=(n_support, dim))
    system = SupportSystem(sx, sy, 1e-6)
    batch = system.featurize(bx, by)
    _, grad = batch_loss_and_grad(system, th, *batch)
    fd = np.empty_like(grad)
    for j in range(n_support):
        for m in range(dim):
            bumped = th.copy()
            bumped[j, m] = th[j, m] + step
            up, _ = batch_loss_and_grad(system, bumped, *batch)
            bumped[j, m] = th[j, m] - step
            down, _ = batch_loss_and_grad(system, bumped, *batch)
            fd[j, m] = (up - down) / (2.0 * step)
    rel = np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-12)
    assert rel <= 1e-4


def test_batch_grad_matches_finite_differences():
    rng = np.random.default_rng(77)
    for _ in range(10):
        _assert_grad_matches_finite_differences(rng, 4, 3, 2)


def test_batch_grad_matches_finite_differences_in_six_dimensions():
    rng = np.random.default_rng(78)
    for _ in range(3):
        _assert_grad_matches_finite_differences(rng, 6, 5, 6)


def _difference_form_loss_and_grad(sx, sy, th, jitter, bx, by):
    """The SGD step written with ``lab_matrix`` and a per-dimension loop over
    explicit differences: the reference for the expanded form."""
    gram = lab_matrix(sx, sx, th)
    solver = FactorizedMatrix(gram, jitter)
    alpha = solver.solve(sy)
    cross = lab_matrix(bx, sx, th)
    resid = cross @ alpha - by
    u = solver.solve(cross.T @ resid, transpose=True)
    grad = np.empty_like(th)
    for m in range(th.shape[1]):
        direct = (resid[:, None] * cross * (bx[:, m, None] - sx[None, :, m]) ** 2).sum(axis=0)
        through = (u[:, None] * gram * (sx[:, m, None] - sx[None, :, m]) ** 2).sum(axis=0)
        grad[:, m] = direct - through
    return float(resid @ resid), -4.0 * th * alpha[:, None] * grad


@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_batch_loss_and_grad_matches_difference_form(offset):
    # The grow-large-support shape.  Far from the origin the expanded squares
    # only stay accurate because the step centers the points first.
    rng = np.random.default_rng(290)
    sx = rng.uniform(0.0, 1.0, size=(290, 6)) + offset
    sy = rng.normal(size=290)
    bx = rng.uniform(0.0, 1.0, size=(128, 6)) + offset
    by = rng.normal(size=128)
    th = rng.uniform(0.5, 5.0, size=(290, 6))
    system = SupportSystem(sx, sy, 1e-2)
    loss, grad = batch_loss_and_grad(system, th, *system.featurize(bx, by))
    ref_loss, ref_grad = _difference_form_loss_and_grad(sx, sy, th, 1e-2, bx, by)
    assert loss == pytest.approx(ref_loss, rel=1e-9)
    assert np.abs(grad - ref_grad).max() <= 1e-9 * np.abs(ref_grad).max()


@st.composite
def _offset_kernel_inputs(draw):
    d, n_rows, n_cols = draw(st.integers(1, 6)), draw(st.integers(1, 8)), draw(st.integers(1, 8))
    offset = draw(st.sampled_from([0.0, 1e3, 1e6]))
    coords = st.floats(-1.0, 1.0, allow_nan=False)
    rows = draw(arrays(np.float64, (n_rows, d), elements=coords)) + offset
    cols = draw(arrays(np.float64, (n_cols, d), elements=coords)) + offset
    theta = draw(arrays(np.float64, (n_cols, d), elements=st.floats(0.05, 3.0)))
    return rows, cols, theta


@settings(max_examples=200, deadline=None)
@given(inputs=_offset_kernel_inputs())
def test_expanded_kernel_matches_lab_matrix(inputs):
    rows, cols, theta = inputs
    # ``predict``'s kernel, one column per unit coefficient vector (a product
    # with a unit vector is exact).
    expanded = np.column_stack([predict(LabModel(cols, theta, e), rows) for e in np.eye(len(cols))])
    assert np.abs(expanded - lab_matrix(rows, cols, theta)).max() <= 1e-12
    system = SupportSystem(cols, np.zeros(len(cols)), 0.0)
    gram = system.kernel_t(theta, system.features[:0]).T
    assert np.abs(gram - lab_matrix(cols, cols, theta)).max() <= 1e-12


def test_sgd_step_gram_has_exact_unit_diagonal(monkeypatch):
    grams = []

    def recording(a, jitter, **kwargs):
        grams.append(a.copy())
        return FactorizedMatrix(a, jitter, **kwargs)

    monkeypatch.setattr(trainer, "FactorizedMatrix", recording)
    rng = np.random.default_rng(5)
    sx = rng.uniform(0.0, 1.0, size=(40, 3)) + 1e3
    th = rng.uniform(0.5, 8.0, size=(40, 3))
    system = SupportSystem(sx, rng.normal(size=40), 1e-2)
    batch_loss_and_grad(system, th, *system.featurize(sx[:7] + 0.01, rng.normal(size=7)))
    (gram,) = grams
    assert np.all(np.diagonal(gram) == 1.0)
    assert np.abs(gram - lab_matrix(sx, sx, th)).max() <= 1e-12


@st.composite
def _support_system_runs(draw):
    n, d = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    coords = st.floats(-1.0, 1.0, allow_nan=False)
    offset = draw(st.sampled_from([0.0, 1e3]))
    sx = draw(arrays(np.float64, (n, d), elements=coords)) + offset
    sy = draw(arrays(np.float64, n, elements=coords))
    steps = []
    for _ in range(draw(st.integers(2, 4))):
        n_batch = draw(st.integers(1, 6))
        steps.append((
            draw(arrays(np.float64, (n, d), elements=st.floats(0.05, 3.0))),
            draw(arrays(np.float64, (n_batch, d), elements=coords)) + offset,
            draw(arrays(np.float64, n_batch, elements=coords)),
        ))
    return sx, sy, draw(st.floats(1e-2, 1.0)), steps


@settings(max_examples=100, deadline=None)
@given(run=_support_system_runs())
def test_reused_support_system_matches_a_fresh_one_bit_for_bit(run):
    # Each step rebuilds the system's Gram; nothing of an earlier step may
    # reach a later one.
    sx, sy, jitter, steps = run
    system = SupportSystem(sx, sy, jitter)
    for theta, bx, by in steps:
        loss, grad = batch_loss_and_grad(system, theta, *system.featurize(bx, by))
        fresh = SupportSystem(sx, sy, jitter)
        fresh_loss, fresh_grad = batch_loss_and_grad(fresh, theta, *fresh.featurize(bx, by))
        assert loss == fresh_loss
        assert np.array_equal(grad, fresh_grad)


@settings(max_examples=100, deadline=None)
@given(run=_support_system_runs())
def test_fit_lab_solves_for_the_alpha_of_the_sgd_step(run):
    # The fitted model is the interpolant the step differentiated: both build
    # the Gram through ``SupportSystem`` and factor the same matrix.
    sx, sy, jitter, steps = run
    step_alphas = []

    class Recording(FactorizedMatrix):
        def solve(self, b, transpose=False):
            x = super().solve(b, transpose)
            if not transpose:
                step_alphas.append(x)
            return x

    system = SupportSystem(sx, sy, jitter)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trainer, "FactorizedMatrix", Recording)
        for theta, bx, by in steps:
            batch_loss_and_grad(system, theta, *system.featurize(bx, by))
    assert len(step_alphas) == len(steps)
    for (theta, _, _), alpha in zip(steps, step_alphas):
        assert np.array_equal(fit_lab(sx, sy, theta, jitter).alpha, alpha)


@settings(max_examples=40, deadline=None)
@given(run=_support_system_runs())
def test_sgd_step_changes_nothing_it_was_given(run):
    # The step factors a private copy and builds its kernel in arrays of its
    # own: the system, the batch and the bandwidths come back as they went in.
    sx, sy, jitter, steps = run
    system = SupportSystem(sx, sy, jitter)
    kept = {name: getattr(system, name).copy() for name in ("x", "y", "centered", "features")}
    for theta, bx, by in steps:
        features, labels = system.featurize(bx, by)
        inputs = (theta.copy(), features.copy(), labels.copy())
        _, grad = batch_loss_and_grad(system, theta, features, labels)
        for before, after in zip(inputs, (theta, features, labels)):
            assert np.array_equal(before, after)
        for name, before in kept.items():
            assert np.array_equal(getattr(system, name), before)
        for given_array in (theta, features, labels, *(getattr(system, name) for name in kept)):
            assert not np.shares_memory(grad, given_array)


def test_sgd_round_gradient_shares_no_memory_with_its_buffers(monkeypatch):
    # The round updates its bandwidths in place after each step, so a gradient
    # that aliased them would change under anyone who keeps it, such as a
    # tracer recording each step.  The step returns memory shared with none
    # of its inputs.
    step = trainer.batch_loss_and_grad
    seen = []

    def recording(system, th, batch_features, batch_y, round_lu):
        loss, grad = step(system, th, batch_features, batch_y, round_lu)
        seen.append([np.shares_memory(grad, a) for a in (th, batch_features, batch_y)])
        return loss, grad

    monkeypatch.setattr(trainer, "batch_loss_and_grad", recording)
    rng = np.random.default_rng(12)
    config = _round_config(inner_steps=3, batch_size=4, jitter=1e-2)
    sgd_round(
        SupportSystem(rng.normal(size=(5, 2)), rng.normal(size=5), config.jitter),
        BandwidthSet.uniform(5, 2, 1.0), rng.normal(size=(9, 2)), rng.normal(size=9), config, rng,
    )
    assert seen == [[False, False, False]] * 3


def test_train_builds_one_support_system_per_round_and_looks_up_the_step_by_name(monkeypatch):
    # A round's SGD steps and its fit share one system, built by ``train``.
    # The benchmark's tracer rebinds ``trainer.batch_loss_and_grad``; every
    # step must go through that name, on its round's system.
    built, stepped = [], []
    step = trainer.batch_loss_and_grad

    class Counting(SupportSystem):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    def recording(system, *args):
        stepped.append(system)
        return step(system, *args)

    monkeypatch.setattr(trainer, "SupportSystem", Counting)
    monkeypatch.setattr(ridgeless, "SupportSystem", Counting)
    monkeypatch.setattr(trainer, "batch_loss_and_grad", recording)
    ds = normalize(synth("f1", 40, 0.0, seed=6))
    config = TrainConfig(
        error_budget=1e-14, initial_support=10, grow_count=5, inner_steps=4, max_rounds=3, batch_size=8,
    )
    _, trace = train(ds, config)
    assert trace.n_rounds == 3
    assert len(built) == 3
    assert len(stepped) == 12
    assert all(system is built[k // 4] for k, system in enumerate(stepped))


def test_batch_loss_and_grad_checks_shapes():
    th = BandwidthSet(np.ones((3, 2)))
    # A batch of another dimension than the support.
    with pytest.raises(DimensionMismatch):
        SupportSystem(np.zeros((3, 2)), np.zeros(3), 0.1).featurize(np.zeros((2, 1)), np.zeros(2))
    # Bandwidths for 3 points against 4 support points.
    system = SupportSystem(np.zeros((4, 2)), np.zeros(4), 0.1)
    with pytest.raises(DimensionMismatch):
        batch_loss_and_grad(system, th.values, *system.featurize(np.zeros((2, 2)), np.zeros(2)))
    # One label per batch row: neither a broadcast label nor extra labels.
    system = SupportSystem(np.eye(3, 2), np.zeros(3), 0.1)
    for n_rows, n_labels in [(4, 1), (2, 3)]:
        with pytest.raises(DimensionMismatch):
            system.featurize(np.ones((n_rows, 2)), np.zeros(n_labels))
        features, _ = system.featurize(np.ones((n_rows, 2)), np.zeros(n_rows))
        with pytest.raises(DimensionMismatch):
            batch_loss_and_grad(system, th.values, features, np.zeros(n_labels))
    with pytest.raises(ValueError):
        system.featurize([[np.nan, 0.0]], [0.0])
    # The round checks its remainder and bandwidths once, for every step.
    rng = np.random.default_rng(5)
    config = _round_config(inner_steps=2, batch_size=3, jitter=0.1)
    for rem_x, rem_y, support_x in [
        (rng.normal(size=(6, 2)), rng.normal(size=9), np.eye(3, 2)),
        (rng.normal(size=(6, 1)), rng.normal(size=6), np.eye(3, 2)),
        (rng.normal(size=(6, 3)), rng.normal(size=6), np.eye(3, 2)),
        (rng.normal(size=(6, 2)), rng.normal(size=6), np.eye(4, 2)),
    ]:
        system = SupportSystem(support_x, np.zeros(len(support_x)), config.jitter)
        with pytest.raises(DimensionMismatch):
            sgd_round(system, th, rem_x, rem_y, config, rng)


@pytest.mark.parametrize("bad_step", [0, 3])
def test_sgd_round_raises_at_the_step_whose_update_makes_a_bandwidth_nan(monkeypatch, bad_step):
    calls = []
    step = trainer.batch_loss_and_grad

    def nan_at_bad_step(*args):
        loss, grad = step(*args)
        if len(calls) == bad_step:
            grad[0, 0] = np.nan
        calls.append(loss)
        return loss, grad

    monkeypatch.setattr(trainer, "batch_loss_and_grad", nan_at_bad_step)
    rng = np.random.default_rng(6)
    config = _round_config(inner_steps=4, batch_size=3, jitter=1e-2)
    with pytest.raises(DivergedStep, match=f"step {bad_step} made a bandwidth NaN"):
        sgd_round(
            SupportSystem(rng.normal(size=(5, 2)), rng.normal(size=5), config.jitter),
            BandwidthSet.uniform(5, 2, 1.0),
            rng.normal(size=(9, 2)), rng.normal(size=9), config, rng,
        )
    assert len(calls) == bad_step + 1


def test_a_step_whose_update_overflows_warns_nothing():
    # ``learning_rate * grad`` overflows at such rates.  The step holds itself
    # finite and expects the overflow, so numpy must not print a
    # RuntimeWarning for it (under pytest's error::RuntimeWarning it raises).
    config = TrainConfig(
        error_budget=1e-9, learning_rate=1e305, inner_steps=5, initial_support=10,
        batch_size=16, max_rounds=2, jitter=1e-8,
    )
    model, _ = train(normalize(synth("f1", 60, 0.0, seed=3)), config)
    assert np.isfinite(model.alpha).all() and np.isfinite(model.theta.values).all()


def test_batch_loss_is_zero_on_support_points():
    # Querying the (jitter-free) interpolant on its own support reproduces
    # the labels, so the batch loss vanishes there.
    rng = np.random.default_rng(3)
    sx = rng.normal(size=(5, 2))
    sy = rng.normal(size=5)
    th = BandwidthSet(rng.uniform(0.5, 2.0, size=(5, 2)))
    system = SupportSystem(sx, sy, 0.0)
    loss, _ = batch_loss_and_grad(system, th.values, *system.featurize(sx, sy))
    assert loss <= 1e-18


def _round_config(**overrides):
    base = dict(
        error_budget=1.0,
        learning_rate=0.1,
        inner_steps=1,
        batch_size=1,
        jitter=0.0,
        bandwidth_min=1e-4,
        bandwidth_max=1e4,
    )
    base.update(overrides)
    return TrainConfig(**base)


def test_sgd_round_single_step_hand_value():
    config = _round_config()
    theta, losses, _ = sgd_round(
        SupportSystem([[0.0]], [1.0], config.jitter), BandwidthSet([[1.0]]),
        [[1.0]], [0.0], config, np.random.default_rng(0),
    )
    assert losses == [pytest.approx(0.1353352832366127, rel=1e-12)]
    assert theta.values[0, 0] == pytest.approx(1.0541341132946451, rel=1e-12)


def test_sgd_round_respects_bounds():
    rng = np.random.default_rng(8)
    sx = rng.normal(size=(4, 2))
    sy = rng.normal(size=4)
    rem_x = rng.normal(size=(12, 2))
    rem_y = rng.normal(size=12)
    config = _round_config(
        learning_rate=1e6, inner_steps=5, batch_size=4,
        bandwidth_min=0.5, bandwidth_max=2.0, init_bandwidth=1.0,
    )
    theta, losses, _ = sgd_round(
        SupportSystem(sx, sy, config.jitter), BandwidthSet.uniform(4, 2, 1.0), rem_x, rem_y, config, rng,
    )
    assert len(losses) == 5
    assert np.all(theta.values >= 0.5)
    assert np.all(theta.values <= 2.0)


def test_sgd_round_empty_remainder_is_identity():
    start = BandwidthSet([[1.3, 0.7]])
    config = _round_config(inner_steps=10)
    theta, losses, _ = sgd_round(
        SupportSystem([[0.0, 0.0]], [1.0], config.jitter), start,
        np.zeros((0, 2)), np.zeros(0), config, np.random.default_rng(0),
    )
    assert losses == []
    assert np.array_equal(theta.values, start.values)


def test_sgd_round_zero_steps_is_identity():
    start = BandwidthSet([[2.0]])
    config = _round_config(inner_steps=0)
    theta, losses, _ = sgd_round(
        SupportSystem([[0.0]], [1.0], config.jitter), start, [[1.0]], [0.0],
        config, np.random.default_rng(0),
    )
    assert losses == []
    assert np.array_equal(theta.values, start.values)


def test_sgd_round_zero_learning_rate_records_losses_only():
    start = BandwidthSet([[2.0]])
    config = _round_config(learning_rate=0.0, inner_steps=3)
    theta, losses, _ = sgd_round(
        SupportSystem([[0.0]], [1.0], config.jitter), start, [[1.0]], [0.0],
        config, np.random.default_rng(0),
    )
    assert len(losses) == 3
    assert np.array_equal(theta.values, start.values)


@pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
@pytest.mark.parametrize(
    "label_scale, learning_rate",
    # The second case overflows ``learning_rate * grad`` on its first step.
    [(1.0, 0.05), (1e3, 1e308)],
)
def test_sgd_round_is_plain_sgd_bit_for_bit(label_scale, learning_rate):
    rng = np.random.default_rng(11)
    sx, sy = rng.normal(size=(6, 2)), label_scale * rng.normal(size=6)
    rem_x, rem_y = rng.normal(size=(20, 2)), label_scale * rng.normal(size=20)
    start = BandwidthSet(rng.uniform(0.5, 2.0, size=(6, 2)))
    config = _round_config(
        learning_rate=learning_rate, inner_steps=6, batch_size=5, jitter=1e-3,
        bandwidth_min=0.1, bandwidth_max=10.0,
    )
    system = SupportSystem(sx, sy, config.jitter)
    theta, losses, _ = sgd_round(system, start, rem_x, rem_y, config, np.random.default_rng(7))

    draws = np.random.default_rng(7)
    th = start.values.copy()
    plain_losses = []
    for _ in range(config.inner_steps):
        picks = draws.choice(rem_x.shape[0], size=config.batch_size, replace=False)
        loss, grad = batch_loss_and_grad(system, BandwidthSet(th).values, *system.featurize(rem_x[picks], rem_y[picks]))
        plain_losses.append(loss)
        # Steps along -(lr * grad) and adds it, where the round subtracts
        # lr * grad; IEEE negation is exact, so the two agree bit for bit.
        # The same trust region: no bandwidth moves by more than half of itself.
        step = np.clip(-(config.learning_rate * grad), -config.bandwidth_max, config.bandwidth_max)
        ratio = np.abs(step / th).max()
        if ratio > trainer.MAX_RELATIVE_STEP:
            step *= trainer.MAX_RELATIVE_STEP / ratio
        th += step
        np.clip(th, config.bandwidth_min, config.bandwidth_max, out=th)
    assert losses == plain_losses
    assert theta.values.tobytes() == th.tobytes()


def test_grow_support_hand_case():
    picks = grow_support([0.5, 2.0, 2.0, 0.1], 2)
    assert picks.tolist() == [1, 2]


def test_grow_support_orders_largest_first():
    picks = grow_support([0.1, 3.0, 0.2, 1.0], 3)
    assert picks.tolist() == [1, 3, 2]


def test_grow_support_more_than_available_returns_all():
    assert grow_support([1.0, 2.0], 5).tolist() == [1, 0]


def test_grow_support_validation():
    with pytest.raises(ValueError):
        grow_support([1.0, 2.0], 0)


def _toy_dataset():
    y = np.array([10.0, 0.0, 5.0, 7.0, 3.0])
    x = np.arange(10.0).reshape(5, 2)
    return Dataset(x, y)


def test_select_initial_support_y_uniform_hand_case():
    idx = select_initial_support(_toy_dataset(), 3, "y_uniform", seed=0)
    assert idx.tolist() == [1, 2, 0]


def test_select_initial_support_single_point_is_smallest_label():
    idx = select_initial_support(_toy_dataset(), 1, "y_uniform", seed=0)
    assert idx.tolist() == [1]


def test_select_initial_support_kmeans_properties():
    ds = normalize(synth("f1", 80, 0.0, seed=4))
    first = select_initial_support(ds, 12, "x_kmeans", seed=9)
    second = select_initial_support(ds, 12, "x_kmeans", seed=9)
    assert np.array_equal(first, second)
    assert len(set(first.tolist())) == 12
    assert np.all(first >= 0)
    assert np.all(first < ds.n)


def test_select_initial_support_kmeans_tops_up_collapsed_representatives():
    # Three locations, each holding four points: k-means representatives
    # collapse onto the first point of each location (indices 0, 4, 8), and
    # evenly spaced label ranks fill the remaining three picks.
    x = np.repeat(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), 4, axis=0)
    ds = Dataset(x, np.arange(12.0))
    picks = {seed: select_initial_support(ds, 6, "x_kmeans", seed).tolist() for seed in range(4)}
    assert picks == {
        0: [8, 4, 0, 2, 6, 11],
        1: [4, 8, 0, 2, 6, 11],
        2: [4, 8, 0, 2, 6, 11],
        3: [0, 8, 4, 2, 6, 11],
    }


def _kmeans_every_sweep(x, count, seed):
    """``_kmeans_representatives`` without its fixed-point exit."""
    rng = np.random.default_rng(seed)
    centers = x[rng.choice(x.shape[0], size=count, replace=False)].copy()
    x_sq = (x * x).sum(axis=1)
    for _ in range(trainer._KMEANS_SWEEPS):
        d2 = x_sq[:, None] + (centers * centers).sum(axis=1)[None, :] - 2.0 * (x @ centers.T)
        assign = d2.argmin(axis=1)
        counts = np.bincount(assign, minlength=count)
        sums = np.zeros_like(centers)
        np.add.at(sums, assign, x)
        occupied = counts > 0
        centers[occupied] = sums[occupied] / counts[occupied, None]
    d2 = x_sq[:, None] + (centers * centers).sum(axis=1)[None, :] - 2.0 * (x @ centers.T)
    return [int(i) for i in d2.argmin(axis=0)]


@st.composite
def _kmeans_inputs(draw):
    n, d = draw(st.integers(1, 30)), draw(st.integers(1, 3))
    # Grid values make duplicate points, whose extra centers own empty clusters.
    coords = st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(-3.0, 3.0))
    x = draw(arrays(np.float64, (n, d), elements=coords))
    count = draw(st.one_of(st.just(n), st.integers(1, n)))
    return x, count, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(inputs=_kmeans_inputs())
# Six points on two locations, one center per point: four clusters stay empty.
@example(inputs=(np.repeat([[0.0, 0.0], [1.0, 0.0]], 3, axis=0), 6, 0))
def test_kmeans_fixed_point_exit_matches_every_sweep(inputs):
    x, count, seed = inputs
    assert trainer._kmeans_representatives(x, count, seed) == _kmeans_every_sweep(x, count, seed)


def test_select_initial_support_validation():
    ds = _toy_dataset()
    with pytest.raises(InsufficientData):
        select_initial_support(ds, 6, "y_uniform", seed=0)
    with pytest.raises(ValueError):
        select_initial_support(ds, 2, "nope", seed=0)
    with pytest.raises(ValueError):
        select_initial_support(ds, 2, "extreme_y", seed=0)
    with pytest.raises(ValueError):
        select_initial_support(ds, 0, "y_uniform", seed=0)


def test_strategy_tuple_is_frozen_api():
    assert SELECTION_STRATEGIES == ("y_uniform", "x_kmeans")


def test_train_all_points_in_support_interpolates_immediately():
    ds = normalize(synth("f1", 25, 0.0, seed=2))
    config = TrainConfig(
        error_budget=1e-4, initial_support=25, max_support_ratio=1.0,
        jitter=0.0, inner_steps=5,
    )
    model, trace = train(ds, config)
    assert trace.converged
    assert trace.stop_reason == "error_budget_met"
    assert trace.n_rounds == 1
    assert trace.rounds[0].n_support == 25
    assert model.n_support == 25
    # With an empty remainder there is nothing to sample batches from.
    assert trace.rounds[0].inner_losses == []


def test_train_stop_reason_all_data_in_support():
    # A huge jitter keeps the support residuals above the budget even with
    # every point absorbed, so the loop stops by exhaustion instead.
    ds = normalize(synth("f1", 20, 0.0, seed=2))
    config = TrainConfig(
        error_budget=1e-10, initial_support=20, max_support_ratio=1.0,
        jitter=1.0, inner_steps=0,
    )
    _, trace = train(ds, config)
    assert not trace.converged
    assert trace.stop_reason == "all_data_in_support"


def test_train_stop_reason_max_rounds():
    ds = normalize(synth("f1", 60, 0.0, seed=5))
    config = TrainConfig(
        error_budget=1e-14, initial_support=5, grow_count=2,
        inner_steps=2, max_rounds=3, batch_size=8,
    )
    _, trace = train(ds, config)
    assert not trace.converged
    assert trace.stop_reason == "max_rounds"
    assert trace.n_rounds == 3


def test_train_stop_reason_support_cap():
    ds = normalize(synth("f1", 30, 0.0, seed=5))
    config = TrainConfig(
        error_budget=1e-14, initial_support=5, grow_count=10,
        inner_steps=1, max_support_ratio=0.2, batch_size=8,
    )
    model, trace = train(ds, config)
    assert not trace.converged
    assert trace.stop_reason == "support_cap"
    # cap = int(0.2 * 30) = 6: one growth round of min(10, 1) = 1 point.
    assert model.n_support == 6


def test_train_support_only_grows():
    ds = normalize(synth("f1", 80, 0.1, seed=6))
    config = TrainConfig(
        error_budget=1e-6, initial_support=8, grow_count=4,
        inner_steps=3, max_rounds=6, batch_size=16,
    )
    model, trace = train(ds, config)
    sizes = [r.n_support for r in trace.rounds]
    assert sizes[0] == 8
    assert all(b >= a for a, b in zip(sizes, sizes[1:]))
    assert [r.round_index for r in trace.rounds] == list(range(trace.n_rounds))
    assert model.n_support == sizes[-1]


def test_newcomers_at_the_bandwidth_floor_stay_inside_it():
    # Without SGD steps nothing clips the newcomers' mean profile, and the
    # mean of 20 bandwidths of 1e-150 rounds one ulp below 1e-150.
    ds = normalize(synth("f1", 40, 0.0, seed=6))
    config = TrainConfig(
        error_budget=1e-14, initial_support=20, grow_count=5, inner_steps=0, max_rounds=2,
        init_bandwidth=MIN_BANDWIDTH, bandwidth_min=MIN_BANDWIDTH,
    )
    model, _ = train(ds, config)
    assert model.n_support == 25
    assert model.theta.values.min() == MIN_BANDWIDTH


def test_one_round_factors_through_the_names_the_tracer_counts(monkeypatch):
    # The benchmark's tracer counts factorizations by rebinding
    # ``trainer.FactorizedMatrix`` (every SGD step) and
    # ``ridgeless.solve_regularized`` (the round's fit); a factorization that
    # bypasses them would vanish from its counts.
    counts = {"step": 0, "fit": 0}
    step_factor, fit_solve = trainer.FactorizedMatrix, ridgeless.solve_regularized

    def counting_step(*args, **kwargs):
        counts["step"] += 1
        return step_factor(*args, **kwargs)

    def counting_fit(*args, **kwargs):
        counts["fit"] += 1
        return fit_solve(*args, **kwargs)

    monkeypatch.setattr(trainer, "FactorizedMatrix", counting_step)
    monkeypatch.setattr(ridgeless, "solve_regularized", counting_fit)
    ds = normalize(synth("f1", 40, 0.0, seed=6))
    config = TrainConfig(error_budget=1e-14, initial_support=10, inner_steps=7, max_rounds=1, batch_size=8)
    train(ds, config)
    assert counts == {"step": 7, "fit": 1}


def test_train_is_bitwise_deterministic():
    ds = normalize(synth("f1", 70, 0.05, seed=9))
    config = TrainConfig(
        error_budget=1e-4, initial_support=10, grow_count=5,
        inner_steps=4, max_rounds=5, batch_size=16,
    )
    model_a, trace_a = train(ds, config)
    model_b, trace_b = train(ds, config)
    assert np.array_equal(model_a.support_x, model_b.support_x)
    assert np.array_equal(model_a.theta.values, model_b.theta.values)
    assert np.array_equal(model_a.alpha, model_b.alpha)
    assert trace_a.stop_reason == trace_b.stop_reason
    assert [r.max_sq_error for r in trace_a.rounds] == [r.max_sq_error for r in trace_b.rounds]


def test_train_seed_changes_model():
    ds = normalize(synth("f1", 70, 0.05, seed=9))
    base = dict(
        error_budget=1e-4, initial_support=10, grow_count=5,
        inner_steps=4, max_rounds=5, batch_size=16,
    )
    model_a, _ = train(ds, TrainConfig(seed=0, **base))
    model_b, _ = train(ds, TrainConfig(seed=1, **base))
    assert not np.array_equal(model_a.theta.values, model_b.theta.values)


def test_train_converges_on_clean_function():
    ds = normalize(synth("f1", 300, 0.0, seed=12))
    config = TrainConfig(
        error_budget=1e-3, grow_count=20, learning_rate=0.001, inner_steps=30,
        initial_support=20, init_bandwidth=2.0, batch_size=64,
        bandwidth_min=0.5, bandwidth_max=10.0, seed=0,
    )
    _, trace = train(ds, config)
    assert trace.converged
    assert trace.stop_reason == "error_budget_met"
    assert trace.rounds[-1].max_sq_error <= 1e-3
    assert trace.rounds[-1].max_sq_error < trace.rounds[0].max_sq_error


def test_train_model_r0_equals_support_size():
    ds = normalize(synth("f1", 60, 0.0, seed=3))
    config = TrainConfig(
        error_budget=1e-3, initial_support=10, grow_count=5,
        inner_steps=3, max_rounds=4, batch_size=16,
    )
    model, _ = train(ds, config)
    assert sparsity_r0(model) == model.n_support


def test_sgd_does_not_diverge_on_noisy_small_support_seed_9803_trial_5():
    # The benchmark's noisy-small-support trial 5 at seed 9803: f1, n=750,
    # 20% label noise, the criterion-6 config.  Without the trust region
    # (``MAX_RELATIVE_STEP``) its batch loss climbs from about 22 to about
    # 4e10 within the one round, and the test R^2 ends near -92.
    clean = normalize(synth("f1", 750, 0.0, seed=9803005))
    train_set, _ = split(clean, SplitSpec(9803, 5, 0.8))
    noise = np.random.default_rng([9803, 5, 97]).normal(
        0.0, np.sqrt(0.2 * train_set.y.var()), train_set.n
    )
    noisy = Dataset(train_set.x, train_set.y + noise, train_set.norm_meta, "f1")
    config = TrainConfig(
        error_budget=1e-3, batch_size=64, grow_count=20, selection="x_kmeans",
        initial_support=150, max_support_ratio=0.25, init_bandwidth=1.1,
        inner_steps=600, jitter=1e-2, learning_rate=0.02,
        bandwidth_min=0.5, bandwidth_max=8.0, seed=9808,
    )
    _, trace = train(noisy, config)
    losses = trace.rounds[0].inner_losses
    assert max(losses) < 10.0 * losses[0]


@pytest.mark.parametrize(
    "overrides",
    [
        {"error_budget": 0.0},
        {"error_budget": -1.0},
        {"grow_count": 0},
        {"learning_rate": -0.1},
        {"inner_steps": -1},
        {"initial_support": 0},
        {"bandwidth_min": 0.0},
        {"bandwidth_min": 2.0, "bandwidth_max": 1.0},
        {"init_bandwidth": 100.0, "bandwidth_max": 10.0},
        {"init_bandwidth": 1e-6},
        {"batch_size": 0},
        {"max_rounds": 0},
        {"max_support_ratio": 0.0},
        {"max_support_ratio": 1.5},
        {"selection": "bogus"},
        {"seed": -1},
        {"grow_count": 2.0},
        {"inner_steps": 2.5},
        {"initial_support": 10.0},
        {"batch_size": 8.0},
        {"max_rounds": 3.0},
        {"seed": 1.5},
        {"inner_steps": True},
        {"seed": False},
        {"jitter": -1e-9},
        {"learning_rate": float("nan")},
        {"jitter": float("nan")},
        {"jitter": float("inf")},
        {"learning_rate": float("inf")},
        {"bandwidth_max": float("inf")},
        {"init_bandwidth": float("inf"), "bandwidth_max": float("inf")},
        {"init_bandwidth": float("inf")},
        {"init_bandwidth": float("nan")},
        {"bandwidth_max": 1e200},
        {"init_bandwidth": 1e200, "bandwidth_min": 1e199, "bandwidth_max": 1e200},
        {"bandwidth_min": 1e-200},
        {"error_budget": "1e-3"},
        {"learning_rate": True},
        {"jitter": None},
        {"selection": 3},
        {"grow_count": "10"},
        {"learning_rate": 10**400},
        {"jitter": 10**400},
        {"error_budget": 10**400},
    ],
)
def test_train_config_validation(overrides):
    kwargs = dict(error_budget=1e-3)
    kwargs.update(overrides)
    with pytest.raises(InvalidSetting):  # a ValueError, and the type the CLI maps to exit 2
        TrainConfig(**kwargs)
    with pytest.raises(ValueError):
        dataclasses.replace(TrainConfig(error_budget=1e-3), **overrides)


def test_train_config_defaults_validate():
    config = TrainConfig(error_budget=1e-3)
    TrainConfig(error_budget=1e-3, bandwidth_max=1e150)
    TrainConfig(error_budget=1e-3, inner_steps=np.int32(3), seed=np.int64(2))
    # A float field given as an integer is stored as the float it converts to.
    assert type(TrainConfig(error_budget=1, jitter=0).jitter) is float
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.jitter = 1.0


def _log_uniform(lo, hi):
    """Floats spread over the decades of ``[lo, hi]`` (0 < lo <= hi), ends included."""
    exponents = st.floats(np.log10(lo), np.log10(hi))
    return st.one_of(st.sampled_from([lo, hi]), exponents.map(lambda e: float(np.clip(10.0 ** e, lo, hi))))


@st.composite
def _train_inputs(draw):
    """A small adversarial dataset and a ``TrainConfig`` with every field
    drawn across its valid range."""
    n, d = draw(st.integers(1, 30)), draw(st.integers(1, 3))
    # Grid values make duplicate rows and ties; the draws below add constant
    # columns, columns scaled by 1e+-200, constant labels and every row twice.
    cells = st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(-3.0, 3.0))
    x = draw(arrays(np.float64, (n, d), elements=cells))
    y = draw(arrays(np.float64, n, elements=cells))
    if draw(st.booleans()):
        x[:, draw(st.integers(0, d - 1))] = draw(cells)
    x *= draw(arrays(np.float64, d, elements=st.sampled_from([1.0, 1e-200, 1e200])))
    if draw(st.booleans()):
        y[:] = draw(cells)
    if draw(st.booleans()):
        x, y = np.repeat(x, 2, axis=0), np.repeat(y, 2)
    n = x.shape[0]
    # Bandwidths far from 1 make flat or diagonal kernels with tiny gradients,
    # so the defaults and unit bandwidths get their share of the draws.
    bounds = st.tuples(*[_log_uniform(MIN_BANDWIDTH, 1e150)] * 2).map(sorted)
    lo, hi = draw(st.one_of(st.just((1e-4, 1e4)), bounds))
    config = TrainConfig(
        error_budget=draw(_log_uniform(1e-300, 1e300)),
        grow_count=draw(st.integers(1, n)),
        learning_rate=draw(st.one_of(st.just(0.0), _log_uniform(1e-300, 1.7e308))),
        inner_steps=draw(st.integers(0, 4)),
        initial_support=draw(st.integers(1, n)),
        init_bandwidth=draw(st.one_of(st.just(float(np.clip(1.0, lo, hi))), _log_uniform(lo, hi))),
        batch_size=draw(st.integers(1, n)),
        bandwidth_min=lo,
        bandwidth_max=hi,
        max_rounds=draw(st.integers(1, 4)),
        max_support_ratio=draw(st.floats(0.0, 1.0, exclude_min=True)),
        selection=draw(st.sampled_from(SELECTION_STRATEGIES)),
        seed=draw(st.integers(0, 2**32 - 1)),
        jitter=draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0), _log_uniform(1e-300, 1.0))),
    )
    return Dataset(x, y), config


@settings(max_examples=200, deadline=None, derandomize=True)
@given(inputs=_train_inputs())
# Random draws rarely meet a gradient large enough for ``learning_rate *
# grad`` to overflow; this rate does on its first step.
@example(inputs=(synth("f1", 30, 0.0, seed=3), TrainConfig(
    error_budget=1e-9, learning_rate=1.7e308, inner_steps=2, initial_support=10, batch_size=8, max_rounds=2,
)))
def test_train_returns_a_finite_model_or_raises_singular_system(inputs):
    dataset, config = inputs
    try:
        # Any warning fails the example; the filter covers training alone, not
        # Hypothesis's own reporting.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model, _ = train(normalize(dataset), config)
    except SingularSystem:
        return
    assert np.isfinite(model.alpha).all()
    theta = model.theta.values
    assert ((config.bandwidth_min <= theta) & (theta <= config.bandwidth_max)).all()


# ---------------------------------------------------------------------------
# Solving a step through an earlier step's LU


def _noisy_small_support_round(inner_steps):
    # The criterion-6 shape of the noisy-small-support benchmark: f1 with 20%
    # label noise, 150 x_kmeans support points, batch 64, jitter 1e-2.
    ds = normalize(synth("f1", 600, 0.2, seed=31))
    config = TrainConfig(
        error_budget=1e-3, batch_size=64, grow_count=20, selection="x_kmeans",
        initial_support=150, max_support_ratio=0.25, init_bandwidth=1.1,
        inner_steps=inner_steps, jitter=1e-2, learning_rate=0.02,
        bandwidth_min=0.5, bandwidth_max=8.0,
    )
    support = select_initial_support(ds, 150, "x_kmeans", 0)
    rest = np.setdiff1d(np.arange(ds.n), support)
    system = SupportSystem(ds.x[support], ds.y[support], config.jitter)
    return system, BandwidthSet.uniform(150, 2, 1.1), ds.x[rest], ds.y[rest], config


def test_a_round_whose_gram_moves_tries_reuse_once_then_factors_every_step(monkeypatch):
    system, theta, rem_x, rem_y, config = _noisy_small_support_round(inner_steps=6)
    attempts = []
    nearby = FactorizedMatrix.solve_nearby

    def recording(self, *args, **kwargs):
        x = nearby(self, *args, **kwargs)
        attempts.append(x is None)
        return x

    monkeypatch.setattr(FactorizedMatrix, "solve_nearby", recording)
    theta_a, losses_a, factorizations = sgd_round(system, theta, rem_x, rem_y, config, np.random.default_rng(4))
    assert attempts[-1] and len(attempts) <= 2  # one step's attempt, declined
    assert factorizations == 6

    # With no round solver, each step gets a fresh one, which always factors:
    # the same bits.
    step = trainer.batch_loss_and_grad
    monkeypatch.setattr(trainer, "batch_loss_and_grad", lambda *args: step(*args[:4]))
    theta_b, losses_b, _ = sgd_round(system, theta, rem_x, rem_y, config, np.random.default_rng(4))
    assert losses_a == losses_b
    assert theta_a.values.tobytes() == theta_b.values.tobytes()


def _two_step_system(jitter):
    rng = np.random.default_rng(21)
    system = SupportSystem(rng.uniform(size=(6, 2)), rng.normal(size=6), jitter)
    return system, np.full((6, 2), 5.0), system.featurize(rng.uniform(size=(4, 2)), rng.normal(size=4))


def _step_solve_args(system, th, batch):
    features, labels = batch
    n = th.shape[0]
    kt = system.kernel_t(th, features)
    return system, kt[:, :n].T, kt[:, n:], labels


def test_round_lu_solves_through_its_held_lu_until_the_gram_moves():
    # ``_RoundLU.solve`` is the step's one solve path.  Its first call factors,
    # bit for bit as a fresh solver does; a call at the same bandwidths solves
    # through the held LU; a call whose Gram moved too far factors again, bit
    # for bit as a fresh solver does, and the round stops reusing.
    system, th, batch = _two_step_system(jitter=1e-3)
    round_lu = trainer._RoundLU()
    first = round_lu.solve(*_step_solve_args(system, th, batch))
    fresh = trainer._RoundLU().solve(*_step_solve_args(system, th, batch))
    assert [a.tobytes() for a in first] == [a.tobytes() for a in fresh]
    held = round_lu.solver
    again = round_lu.solve(*_step_solve_args(system, th, batch))
    assert round_lu.solver is held and round_lu.factorizations == 1
    for a, b in zip(again, first):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max())

    moved = 1.5 * th  # its square more than doubles: the acceptance test declines
    after = round_lu.solve(*_step_solve_args(system, moved, batch))
    fresh = trainer._RoundLU().solve(*_step_solve_args(system, moved, batch))
    assert [a.tobytes() for a in after] == [a.tobytes() for a in fresh]
    assert not round_lu.reusing and round_lu.solver is None and round_lu.factorizations == 2


def test_a_singular_next_gram_declines_reuse_and_raises_as_the_direct_path_does():
    # Bandwidths at the floor make every kernel entry 1: without jitter the
    # Gram is all ones, singular.
    system, th, batch = _two_step_system(jitter=0.0)
    round_lu = trainer._RoundLU()
    batch_loss_and_grad(system, th, *batch, round_lu)
    floor = np.full_like(th, MIN_BANDWIDTH)
    with pytest.raises(SingularSystem):
        batch_loss_and_grad(system, floor, *batch)
    with pytest.raises(SingularSystem):
        batch_loss_and_grad(system, floor, *batch, round_lu)
    assert not round_lu.reusing and round_lu.solver is None


def test_a_non_finite_next_gram_declines_reuse_and_raises_as_the_direct_path_does():
    system, th, batch = _two_step_system(jitter=1e-3)
    round_lu = trainer._RoundLU()
    batch_loss_and_grad(system, th, *batch, round_lu)
    kernel_t = system.kernel_t

    def poisoned(*args):
        kt = kernel_t(*args)
        kt[1, 3] = np.nan
        return kt

    system.kernel_t = poisoned  # the same bandwidths: only the refinement can decline
    for lu in (None, round_lu):
        with pytest.raises(ValueError, match="non-finite"):
            batch_loss_and_grad(system, th, *batch, lu)
    assert not round_lu.reusing and round_lu.factorizations == 1


def test_a_round_whose_gram_stands_still_factors_through_the_tracer_names_once(monkeypatch):
    # The twin of ``test_one_round_factors_through_the_names_the_tracer_counts``
    # where reuse engages: at learning rate 0 the Gram never moves, so every
    # step after the first solves through the first step's LU.
    counts = {"step": 0, "fit": 0}
    step_factor, fit_solve = trainer.FactorizedMatrix, ridgeless.solve_regularized

    def counting_step(*args, **kwargs):
        counts["step"] += 1
        return step_factor(*args, **kwargs)

    def counting_fit(*args, **kwargs):
        counts["fit"] += 1
        return fit_solve(*args, **kwargs)

    monkeypatch.setattr(trainer, "FactorizedMatrix", counting_step)
    monkeypatch.setattr(ridgeless, "solve_regularized", counting_fit)
    ds = normalize(synth("f1", 40, 0.0, seed=6))
    config = TrainConfig(
        error_budget=1e-14, initial_support=10, inner_steps=7, max_rounds=1, batch_size=8,
        learning_rate=0.0, init_bandwidth=10.0, bandwidth_max=40.0,
    )
    _, trace = train(ds, config)
    assert counts == {"step": 1, "fit": 1}
    assert trace.rounds[0].factorizations == 1
