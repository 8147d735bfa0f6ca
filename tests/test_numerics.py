"""Unit tests for the dense solver substrate."""

import logging

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
    one_blas_thread,
    solve_regularized,
)
from labrr import numerics
from labrr.numerics import _blas_thread_controls


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


def test_one_dimensional_matrix_rejected():
    with pytest.raises(DimensionMismatch, match="must be 2-d"):
        FactorizedMatrix(np.ones(4))


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
    layout = draw(st.sampled_from(["C", "F", "column block"]))
    if layout == "F":
        a = np.asfortranarray(a)
    elif layout == "column block":
        # The SGD step's layout: the Gram is the transposed first n columns of
        # a wide C-order array whose other columns hold the cross-kernel.
        wide = draw(arrays(np.float64, (n, n + draw(st.integers(0, 5))), elements=entries))
        wide[:, :n] = a.T
        a = wide[:, :n].T
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0), (2, 1), (3, 3)])
@pytest.mark.parametrize("layout", ["C", "F", "column block"])
def test_non_finite_entries_raise_value_error(bad, where, layout):
    # The finiteness check rides on the dlange row-sum norm: a non-finite entry
    # makes it non-finite, also beside entries that would otherwise dominate.
    a = np.eye(4) + 1e300 * np.ones((4, 4))
    a[where] = bad
    if layout == "F":
        a = np.asfortranarray(a)
    elif layout == "column block":
        wide = np.zeros((4, 6))
        wide[:, :4] = a.T
        a = wide[:, :4].T
    with pytest.raises(ValueError, match="contains non-finite entries"):
        FactorizedMatrix(a, 1e-2)
    with pytest.raises(ValueError, match="contains non-finite entries"):
        solve_regularized(a, np.ones(4))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_finite_matrix_whose_row_sums_overflow_is_singular(sign):
    # Every entry is finite, so nothing is rejected as non-finite, but the
    # row-sum norm overflows to inf and no pivot can clear it.
    a = sign * np.array([[1e308, 1e308, -1e308], [1e308, -1e308, 1e308], [-1e308, 1e308, 1e308]])
    with pytest.raises(SingularSystem):
        FactorizedMatrix(a)
    with pytest.raises(SingularSystem):
        solve_regularized(a, np.ones(3), jitter=1.0)


def test_one_blas_thread_pins_both_pools_and_restores_their_counts():
    controls = _blas_thread_controls()
    if not controls:
        pytest.skip("no bundled OpenBLAS thread control in this install")
    before = [get() for get, _ in controls]
    try:
        for _, set_ in controls:
            set_(2)
        with one_blas_thread():
            assert [get() for get, _ in controls] == [1, 1]
        assert [get() for get, _ in controls] == [2, 2]
        with pytest.raises(RuntimeError), one_blas_thread():
            raise RuntimeError
        assert [get() for get, _ in controls] == [2, 2]
    finally:
        for (_, set_), count in zip(controls, before):
            set_(count)


def test_one_blas_thread_without_thread_controls_does_nothing_and_says_so(monkeypatch, caplog):
    monkeypatch.setattr(numerics, "_BLAS_POOLS", ((np, "numpy.libs", "no-such-blas-*.so", ""),))
    _blas_thread_controls.cache_clear()
    try:
        with caplog.at_level(logging.DEBUG, logger="labrr.numerics"), one_blas_thread():
            assert solve_regularized(np.eye(2), np.ones(2)).tolist() == [1.0, 1.0]
        with one_blas_thread():
            pass
    finally:
        _blas_thread_controls.cache_clear()
    assert [r.levelno for r in caplog.records] == [logging.DEBUG]
    assert "no OpenBLAS thread control in numpy.libs" in caplog.records[0].getMessage()


@st.composite
def _nearby_systems(draw):
    # A diagonally dominant matrix, a move of it by ``scale`` and a right-hand side.
    n = draw(st.integers(1, 12))
    entries = st.floats(-1.0, 1.0, allow_nan=False)
    a = draw(arrays(np.float64, (n, n), elements=entries)) + (n + 1.0) * np.eye(n)
    move = draw(arrays(np.float64, (n, n), elements=entries)) * draw(st.sampled_from([0.0, 1e-15, 1e-10, 1e-6, 1e-2]))
    b = draw(arrays(np.float64, n, elements=st.floats(-1e3, 1e3, allow_nan=False)))
    # No start, the LU's own first iterate ``B^-1 b``, or any finite vector.
    start = draw(st.one_of(st.none(), st.just("lu"), arrays(np.float64, n, elements=st.floats(-1e3, 1e3))))
    return a, a + move, b, draw(st.sampled_from([0.0, 1e-5, 1e-2])), draw(st.booleans()), start


@settings(max_examples=200, deadline=None)
@given(system=_nearby_systems())
def test_an_accepted_nearby_solve_meets_the_backward_error_rule_and_agrees_with_a_direct_solve(system):
    old, new, b, jitter, transpose, start = system
    lu = FactorizedMatrix(old, jitter)
    if isinstance(start, str):
        start = lu.solve(b, transpose)
        # Started at the iterate a solve without a start makes first: the same bits.
        cold = lu.solve_nearby(new, b, transpose)
        warm = lu.solve_nearby(new, b, transpose, start)
        assert (warm is None) == (cold is None) and (cold is None or np.array_equal(warm, cold))
    x = lu.solve_nearby(new, b, transpose, start)
    if x is None:  # the acceptance test declined; the direct path takes over
        return
    a = (new + jitter * np.eye(len(b))).T if transpose else new + jitter * np.eye(len(b))
    op = new.T if transpose else new
    residual = np.abs(b - (op @ x + jitter * x)).max()
    assert residual <= numerics.UNIT_ROUNDOFF * (np.abs(a).sum(axis=1).max() * np.abs(x).max() + np.abs(b).max())
    direct = FactorizedMatrix(new, jitter).solve(b, transpose)
    kappa = np.linalg.cond(a, np.inf)
    # Below the normal range a result is rounded to a multiple of the smallest
    # subnormal, not to a relative u, so each of the n terms of a solve may add
    # an absolute error of that size (Higham, 2nd ed., eq. 2.8).
    underflow = len(b) * np.finfo(np.float64).smallest_subnormal
    assert np.abs(x - direct).max() <= 10 * kappa * (numerics.UNIT_ROUNDOFF * np.abs(direct).max() + underflow)


def test_nearby_solve_declines_on_a_non_finite_matrix():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(6, 6)) + 8.0 * np.eye(6)
    b = rng.normal(size=6)
    lu = FactorizedMatrix(a)
    assert lu.solve_nearby(a, b) is not None
    for bad in (np.nan, np.inf):
        moved = a.copy()
        moved[2, 4] = bad
        for transpose in (False, True):
            assert lu.solve_nearby(moved, b, transpose) is None
    with pytest.raises(DimensionMismatch):
        lu.solve_nearby(a[:5, :5], b[:5])
    with pytest.raises(ValueError):
        lu.solve_nearby(a, np.full(6, np.nan))


def test_nearby_solve_declines_on_a_numerically_singular_matrix():
    # No bound on how far the matrix moved is taken, so the acceptance test
    # alone must refuse a matrix with no solution: two equal columns (rows of
    # its transpose) leave a residual no sweep can shrink for a generic ``b``.
    rng = np.random.default_rng(5)
    a = rng.normal(size=(6, 6)) + 8.0 * np.eye(6)
    b = rng.normal(size=6)
    lu = FactorizedMatrix(a)
    singular = a.copy()
    singular[:, 4] = singular[:, 1]
    with pytest.raises(SingularSystem):
        FactorizedMatrix(singular)
    for transpose in (False, True):
        assert lu.solve_nearby(a, b, transpose) is not None
        assert lu.solve_nearby(singular, b, transpose) is None


def test_a_nearby_solve_that_misses_the_acceptance_test_declines_even_within_the_backward_error_rule():
    # Refinement stalls at a residual of 2048u, under the normwise backward-error
    # rule's budget but over the acceptance test's ``u (2 ||b|| - ||r||)``: the
    # one test decides, so the solve declines and the direct path takes over.
    rng = np.random.default_rng(7)
    a = rng.uniform(-1.0, 1.0, (4, 4)) + 5.0 * np.eye(4)
    b = rng.uniform(-1e3, 1e3, 4)
    lu = FactorizedMatrix(a)
    for transpose in (False, True):
        op = a.T if transpose else a
        x = lu.solve(b, transpose)
        residual = np.abs(b - op @ x).max()
        assert residual <= numerics.UNIT_ROUNDOFF * (np.abs(op).sum(axis=1).max() * np.abs(x).max() + np.abs(b).max())
        assert residual > numerics.UNIT_ROUNDOFF * (2.0 * np.abs(b).max() - residual)
        assert lu.solve_nearby(a, b, transpose) is None


def _moved_system():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(6, 6)) + 8.0 * np.eye(6)
    return FactorizedMatrix(a, 1e-2), a + 1e-9 * rng.normal(size=(6, 6)), rng.normal(size=6)


def test_a_start_that_meets_the_acceptance_test_is_returned_without_a_triangular_solve(monkeypatch):
    lu, moved, b = _moved_system()
    solves = []
    solve = FactorizedMatrix.solve

    def counting(self, *args, **kwargs):
        solves.append(args)
        return solve(self, *args, **kwargs)

    for transpose in (False, True):
        start = lu.solve_nearby(moved, b, transpose)
        assert start is not None
        with monkeypatch.context() as patch:
            patch.setattr(FactorizedMatrix, "solve", counting)
            assert lu.solve_nearby(moved, b, transpose, start) is start
        assert solves == []


def test_a_start_of_the_wrong_shape_raises():
    lu, moved, b = _moved_system()
    for start in (np.ones(5), np.ones(7), np.ones((6, 1))):
        with pytest.raises(DimensionMismatch):
            lu.solve_nearby(moved, b, start=start)
    with pytest.raises(ValueError, match="non-finite"):
        lu.solve_nearby(moved, b, start=np.full(6, np.inf))
    with pytest.raises(DimensionMismatch):
        lu.solve_nearby(moved, b[:5], start=np.ones(6))
