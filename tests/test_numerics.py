"""Unit tests for the dense solver substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import lu_factor, lu_solve

from labrr.numerics import (
    DimensionMismatch,
    FactorizedMatrix,
    SingularSystem,
    as_matrix,
    as_pair,
    as_vector,
    solve_regularized,
)


def test_identity_solve_returns_rhs():
    b = np.array([3.0, -1.5, 2.25])
    x = solve_regularized(np.eye(3), b)
    assert np.array_equal(x, b)


def test_known_diagonal_solve():
    a = np.array([[2.0, 0.0], [0.0, 4.0]])
    x = solve_regularized(a, np.array([2.0, 8.0]))
    assert x == pytest.approx([1.0, 2.0], rel=1e-14)


def test_jitter_shifts_the_diagonal():
    # (I + 1*I) x = b  =>  x = b / 2
    b = np.array([4.0, -6.0])
    x = solve_regularized(np.eye(2), b, jitter=1.0)
    assert x == pytest.approx([2.0, -3.0], rel=1e-14)


def test_negative_jitter_rejected():
    for jitter in (-1e-9, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="jitter"):
            FactorizedMatrix(np.eye(2), jitter)
        with pytest.raises(ValueError, match="jitter"):
            solve_regularized(np.eye(2), np.ones(2), jitter=jitter)


def test_random_asymmetric_solves_recover_known_solution():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 12))
        a = rng.normal(size=(n, n)) + n * np.eye(n)  # diagonally dominant
        x_true = rng.normal(size=n)
        x = solve_regularized(a, a @ x_true)
        assert np.max(np.abs(x - x_true)) <= 1e-10


def test_transpose_solve_matches_solving_the_transpose():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(6, 6)) + 6.0 * np.eye(6)
    b = rng.normal(size=6)
    u = FactorizedMatrix(a).solve(b, transpose=True)
    assert u == pytest.approx(np.linalg.solve(a.T, b), rel=1e-12)


def test_factorization_reusable_for_both_orientations():
    rng = np.random.default_rng(13)
    a = rng.normal(size=(5, 5)) + 5.0 * np.eye(5)
    fm = FactorizedMatrix(a)
    b1, b2 = rng.normal(size=5), rng.normal(size=5)
    assert a @ fm.solve(b1) == pytest.approx(b1, rel=1e-12)
    assert a.T @ fm.solve(b2, transpose=True) == pytest.approx(b2, rel=1e-12)


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_singular_matrix_raises():
    with pytest.raises(SingularSystem):
        solve_regularized(np.array([[1.0, 1.0], [1.0, 1.0]]), np.ones(2))


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_zero_matrix_raises():
    with pytest.raises(SingularSystem):
        solve_regularized(np.zeros((3, 3)), np.ones(3))


def test_singular_matrix_rescued_by_jitter():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    x = solve_regularized(a, np.array([2.0, 2.0]), jitter=1e-3)
    assert (a + 1e-3 * np.eye(2)) @ x == pytest.approx([2.0, 2.0], rel=1e-12)


def test_non_square_matrix_rejected():
    with pytest.raises(DimensionMismatch):
        FactorizedMatrix(np.ones((2, 3)))


def test_empty_matrix_rejected():
    with pytest.raises(DimensionMismatch):
        FactorizedMatrix(np.zeros((0, 0)))


def test_rhs_length_checked():
    fm = FactorizedMatrix(np.eye(3))
    with pytest.raises(DimensionMismatch):
        fm.solve(np.ones(4))


def test_as_matrix_rejects_wrong_rank_and_nan():
    with pytest.raises(DimensionMismatch):
        as_matrix(np.ones(3))
    with pytest.raises(ValueError):
        as_matrix(np.array([[1.0, np.nan]]))


def test_as_vector_rejects_wrong_rank_and_inf():
    with pytest.raises(DimensionMismatch):
        as_vector(np.ones((2, 2)))
    with pytest.raises(ValueError):
        as_vector(np.array([1.0, np.inf]))


def test_as_pair_needs_one_label_per_row():
    x, y = as_pair([[1.0, 2.0], [3.0, 4.0]], [5, 6], "x", "y")
    assert x.shape == (2, 2) and y.dtype == np.float64
    for labels in ([5.0], [5.0, 6.0, 7.0], [[5.0, 6.0]]):
        with pytest.raises(DimensionMismatch):
            as_pair(np.ones((2, 2)), labels, "x", "y")
    with pytest.raises(DimensionMismatch):
        as_pair(np.ones(2), np.ones(2), "x", "y")
    with pytest.raises(ValueError):
        as_pair(np.ones((2, 2)), [1.0, np.nan], "x", "y")


def test_solve_is_deterministic():
    rng = np.random.default_rng(17)
    a = rng.normal(size=(8, 8)) + 8.0 * np.eye(8)
    b = rng.normal(size=8)
    assert np.array_equal(solve_regularized(a, b), solve_regularized(a, b))


# ---------------------------------------------------------------------------
# FactorizedMatrix owns the jitter


@st.composite
def _jittered_systems(draw):
    n = draw(st.integers(1, 8))
    entries = st.floats(-1.0, 1.0, allow_nan=False)
    a = draw(arrays(np.float64, (n, n), elements=entries)) + (n + 1) * np.eye(n)  # strictly dominant
    if draw(st.booleans()):
        a = np.asfortranarray(a)
    jitter = draw(st.floats(0.0, 10.0))
    return a, jitter, draw(arrays(np.float64, n, elements=entries))


@settings(max_examples=200, deadline=None)
@given(system=_jittered_systems())
def test_jittered_solves_equal_lu_of_the_explicit_matrix_bit_for_bit(system):
    a, jitter, b = system
    before = a.copy()
    fm = FactorizedMatrix(a, jitter)
    reference = lu_factor(before + jitter * np.eye(a.shape[0]))
    for trans in (0, 1):
        assert np.array_equal(fm.solve(b, transpose=bool(trans)), lu_solve(reference, b, trans=trans))
    # C- or Fortran-order, the caller's matrix is never touched.
    assert not np.shares_memory(fm._lu_piv[0], a)
    assert np.array_equal(a, before)
