"""Unit tests for the per-support-point bandwidth kernels."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from labrr.kernels import (
    _EXP_FLOOR,
    BandwidthSet,
    _clamped_exp,
    lab_matrix,
    rbf_matrix,
)
from labrr.numerics import DimensionMismatch
from labrr.ridgeless import LabModel, SupportSystem, predict


def test_entry_unit_bandwidth_unit_distance():
    value = lab_matrix([[0.0, 0.0]], [[1.0, 0.0]], [[1.0, 1.0]])
    assert value.shape == (1, 1)
    assert value[0, 0] == pytest.approx(0.36787944117144233, rel=1e-15)


def test_entry_is_one_exactly_at_zero_distance():
    t = np.array([0.3, -1.7, 2.2])
    assert lab_matrix([t], [t], [[5.0, 0.1, 3.3]])[0, 0] == 1.0
    # The unit diagonal of a square matrix, whatever each column's bandwidths.
    rng = np.random.default_rng(5)
    x = rng.normal(size=(6, 3))
    k = lab_matrix(x, x, rng.uniform(0.1, 4.0, size=(6, 3)))
    assert np.diagonal(k).tolist() == [1.0] * 6


def test_entry_range_and_symmetry_in_sign():
    rng = np.random.default_rng(3)
    for _ in range(50):
        d = int(rng.integers(1, 5))
        t, x = rng.normal(size=(1, d)), rng.normal(size=(1, d))
        th = rng.uniform(0.1, 4.0, size=(1, d))
        k = lab_matrix(t, x, th)[0, 0]
        assert 0.0 < k <= 1.0
        # At one shared bandwidth the kernel depends on the difference only
        # through its square, so swapping the points keeps the entry.
        assert lab_matrix(x, t, th)[0, 0] == pytest.approx(k, rel=1e-15)


def test_difference_form_underflows_to_zero_on_far_points():
    # exp(-100**2) is below the smallest subnormal; only the expanded form floors.
    assert lab_matrix([[0.0]], [[100.0]], [[1.0]]).tolist() == [[0.0]]
    assert lab_matrix([[0.0], [100.0]], [[100.0]], [[1.0]]).tolist() == [[0.0], [1.0]]


def test_expanded_form_floors_far_points():
    floor = np.exp(_EXP_FLOOR)
    assert predict(LabModel([[100.0]], [[1.0]], [1.0]), [[0.0]]).tolist() == [floor]
    system = SupportSystem([[0.0], [100.0]], [0.0, 0.0], 0.0)
    gram = system.kernel_t(np.ones((2, 1)), system.features[:0]).T
    assert gram.tolist() == [[1.0, floor], [floor, 1.0]]


def test_clamped_exp_clamps_in_place_and_keeps_nan():
    floor = np.exp(_EXP_FLOOR)
    exponents = np.array([0.5, 1e300, np.inf, -351.0, -1e300, -np.inf, np.nan])
    out = _clamped_exp(exponents)
    assert out is exponents
    assert out[:3].tolist() == [1.0] * 3
    assert out[3:6].tolist() == [floor] * 3
    # A NaN exponent stays NaN, so ``predict`` floors far rows with
    # ``np.fmax`` before the clamp.
    assert np.isnan(out[6])


def test_entry_shape_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        lab_matrix([[0.0, 0.0]], [[1.0]], [[1.0, 1.0]])
    with pytest.raises(DimensionMismatch):
        lab_matrix([[0.0]], [[1.0]], [[1.0, 1.0]])


def test_entry_nonpositive_bandwidth_rejected():
    with pytest.raises(ValueError, match="bandwidths must be at least"):
        lab_matrix([[0.0]], [[1.0]], [[0.0]])
    with pytest.raises(ValueError, match="bandwidths must be at least"):
        lab_matrix([[0.0]], [[1.0]], [[1e-160]])


def test_square_matrix_uses_column_bandwidths():
    # Two 1-d points with different bandwidths: entry (i, j) is evaluated
    # with the bandwidth of column point j, so the matrix is asymmetric.
    points = np.array([[0.0], [1.0]])
    theta = np.array([[1.0], [2.0]])
    k = lab_matrix(points, points, theta)
    assert k[0, 0] == 1.0 and k[1, 1] == 1.0
    assert k[0, 1] == pytest.approx(0.01831563888873418, rel=1e-15)  # exp(-4)
    assert k[1, 0] == pytest.approx(0.36787944117144233, rel=1e-15)  # exp(-1)


def test_matrix_blocked_rows_match_direct_evaluation():
    # More rows than the internal block size, checked against the formula.
    rng = np.random.default_rng(9)
    rows = rng.normal(size=(600, 2))
    cols = rng.normal(size=(7, 2))
    th = rng.uniform(0.3, 2.0, size=(7, 2))
    k = lab_matrix(rows, cols, th)
    diff = (rows[:, None, :] - cols[None, :, :]) * th[None, :, :]
    assert np.array_equal(k, np.exp(-(diff**2).sum(axis=2)))


def test_matrix_entries_match_the_entry_formula():
    rng = np.random.default_rng(21)
    rows = rng.normal(size=(4, 3))
    cols = rng.normal(size=(5, 3))
    th = rng.uniform(0.2, 2.5, size=(5, 3))
    k = lab_matrix(rows, cols, th)
    for i in range(4):
        for j in range(5):
            r, c = rows[i], cols[j]
            assert k[i, j] == pytest.approx(np.exp(-((th[j] * (r - c)) ** 2).sum()), rel=1e-15)


def test_matrix_dimension_checks():
    with pytest.raises(DimensionMismatch):
        lab_matrix(np.ones((2, 3)), np.ones((2, 2)), np.ones((2, 2)))
    with pytest.raises(DimensionMismatch):
        lab_matrix(np.ones((2, 2)), np.ones((3, 2)), np.ones((2, 2)))


def test_rbf_is_symmetric_with_unit_diagonal():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(12, 3))
    k = rbf_matrix(x, x, 1.3)
    assert np.array_equal(np.diag(k), np.ones(12))
    assert k == pytest.approx(k.T, rel=1e-15)


def test_rbf_is_the_uniform_bandwidth_special_case():
    rng = np.random.default_rng(6)
    x1, x2 = rng.normal(size=(5, 2)), rng.normal(size=(4, 2))
    uniform = BandwidthSet.uniform(4, 2, 1.7)
    assert np.array_equal(rbf_matrix(x1, x2, 1.7), lab_matrix(x1, x2, uniform))


def test_rbf_sigma_validation():
    x = np.zeros((3, 2))
    with pytest.raises(ValueError):
        rbf_matrix(x, x, 0.0)
    with pytest.raises(ValueError):
        rbf_matrix(x, x, 1e-160)
    with pytest.raises(TypeError):  # sigma is one scalar, never a vector
        rbf_matrix(x, x, [1.0, 2.0])


def test_bandwidth_set_requires_positive_entries():
    with pytest.raises(ValueError):
        BandwidthSet(np.array([[1.0, 0.0]]))
    with pytest.raises(ValueError):
        BandwidthSet(np.array([[1.0, -2.0]]))
    with pytest.raises(ValueError):
        BandwidthSet(np.array([[1.0, 1e-160]]))


def test_bandwidth_set_copies_its_input():
    source = np.array([[1.0, 2.0]])
    bw = BandwidthSet(source)
    source[0, 0] = 99.0
    assert bw.values[0, 0] == 1.0


def test_bandwidth_set_is_frozen():
    bw = BandwidthSet.uniform(2, 2, 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        bw.values = np.ones((2, 2))


def test_bandwidth_uniform_factory():
    bw = BandwidthSet.uniform(3, 2, 0.5)
    assert bw.values.shape == (3, 2)
    assert np.array_equal(bw.values, np.full((3, 2), 0.5))
    with pytest.raises(ValueError):
        BandwidthSet.uniform(0, 2, 1.0)
    with pytest.raises(ValueError):
        BandwidthSet.uniform(2, 2, -1.0)
    with pytest.raises(ValueError):
        BandwidthSet.uniform(2, 2, 1e-160)


# ---------------------------------------------------------------------------
# Kernel invariants


@st.composite
def _kernel_inputs(draw):
    # Coordinates in [-2, 2] and bandwidths up to 3 keep every exponent under
    # 12**2 * 3 = 432, far from exp's underflow to 0 near 745.
    d, n_rows, n_cols = draw(st.integers(1, 3)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    coords = st.floats(-2.0, 2.0, allow_nan=False)
    rows = draw(arrays(np.float64, (n_rows, d), elements=coords))
    cols = draw(arrays(np.float64, (n_cols, d), elements=coords))
    theta = draw(arrays(np.float64, (n_cols, d), elements=st.floats(0.05, 3.0)))
    hits = draw(st.lists(st.integers(0, n_cols - 1), max_size=4))
    return rows, cols, theta, hits


@settings(max_examples=200, deadline=None)
@given(inputs=_kernel_inputs())
def test_lab_matrix_entries_in_unit_interval_and_one_at_coincident_points(inputs):
    rows, cols, theta, hits = inputs
    rows = np.vstack([rows, cols[hits]])  # some rows repeat a column point exactly
    k = lab_matrix(rows, cols, theta)
    assert k.shape == (rows.shape[0], cols.shape[0])
    assert bool(((k > 0.0) & (k <= 1.0)).all())
    first_hit = rows.shape[0] - len(hits)
    for i, j in enumerate(hits, start=first_hit):
        assert k[i, j] == 1.0


def _assert_floored_kernel(k, reference):
    floor = np.exp(_EXP_FLOOR)
    assert bool(((k >= floor) & (k <= 1.0)).all())
    # A product of two entries, as in an LU of the Gram, stays normal.
    assert k.min() ** 2 >= np.finfo(float).tiny
    # Above the floor the entries are the kernel's own values.
    assert np.abs(k - np.maximum(reference, floor)).max() <= 1e-12


def test_expanded_kernel_has_no_subnormal_or_zero_entries():
    # Exponents from 0 down to -1e4: exp underflows to subnormals near -708
    # and to 0 near -745, slow in exp and in BLAS, and a product of two
    # entries already underflows below about -354, slow in BLAS.
    rng = np.random.default_rng(9)
    rows = np.sqrt(np.linspace(0.0, 1e4, 4001))[:, None] * rng.uniform(0.5, 1.0, size=(1, 3))
    cols = np.zeros((1, 3)) + rng.uniform(-1e-3, 1e-3, size=(5, 3))
    th_sq = rng.uniform(0.2, 1.0, size=(5, 3))
    exponents = -(((rows[:, None, :] - cols[None, :, :]) ** 2) * th_sq[None, :, :]).sum(axis=2)
    assert exponents.max() > -1.0 and exponents.min() < -1e3
    # ``predict``'s kernel, one column per unit coefficient vector (a product
    # with a unit vector is exact).
    theta = np.sqrt(th_sq)
    k = np.column_stack([predict(LabModel(cols, theta, e), rows) for e in np.eye(len(cols))])
    _assert_floored_kernel(k, lab_matrix(rows, cols, theta))

    # The support Gram: every 40th probe row as a support point spans the
    # same exponents, from 0 on the diagonal down to about -1e4.
    support = rows[::40]
    theta = np.sqrt(rng.uniform(0.2, 1.0, size=support.shape))
    system = SupportSystem(support, np.zeros(len(support)), 0.0)
    gram = system.kernel_t(theta, system.features[:0]).T
    reference = lab_matrix(support, support, theta)
    assert reference.min() == 0.0
    _assert_floored_kernel(gram, reference)
