"""Unit tests for the closed-form solvers and model serialization."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from labrr.data import NormMeta, ParseError, UnscalableData, apply_feature_scaling, normalize, synth
from labrr.kernels import _EXP_FLOOR, BandwidthSet, lab_matrix, rbf_matrix
from labrr.numerics import DimensionMismatch, SingularSystem
from labrr.ridgeless import (
    _PREDICT_BLOCK_ENTRIES,
    DEFAULT_JITTER,
    MIN_BANDWIDTH,
    LabModel,
    fit_asym_duals,
    fit_lab,
    load_model,
    model_from_dict,
    model_to_dict,
    predict,
    predict_f1,
    predict_f2,
    save_model,
)


def test_default_jitter_value():
    assert DEFAULT_JITTER == 1e-5


def test_two_point_fit_known_coefficients():
    # 1-d support {0, 1} with bandwidths 1 and 2 gives the asymmetric Gram
    # [[1, e^-4], [e^-1, 1]]; solving against labels (1, 1) by hand yields
    # alpha = ((1 - e^-4)/(1 - e^-5), (1 - e^-1)/(1 - e^-5)).
    model = fit_lab([[0.0], [1.0]], [1.0, 1.0], [[1.0], [2.0]], jitter=0.0)
    assert model.alpha == pytest.approx(
        [0.9883437690439604, 0.6364086465588308], rel=1e-12
    )


def test_zero_jitter_interpolates_support_labels():
    # d >= 2 keeps random support points well separated, so the jitter-free
    # Gram matrix stays well enough conditioned to interpolate sharply.
    rng = np.random.default_rng(12)
    for _ in range(10):
        n, d = int(rng.integers(3, 20)), int(rng.integers(2, 4))
        x = rng.uniform(-1.0, 1.0, size=(n, d))
        y = rng.normal(size=n)
        th = rng.uniform(0.5, 2.0, size=(n, d))
        model = fit_lab(x, y, th, jitter=0.0)
        assert np.max(np.abs(predict(model, x) - y)) <= 1e-6


def test_model_records_fit_inputs():
    x = np.array([[0.0, 0.0], [1.0, 1.0]])
    model = fit_lab(x, [1.0, -1.0], BandwidthSet.uniform(2, 2, 1.5))
    assert model.n_support == 2 and model.dim == 2
    assert model.jitter == DEFAULT_JITTER
    assert np.array_equal(model.theta.values, np.full((2, 2), 1.5))


def test_predict_single_point_matches_batch():
    ds = normalize(synth("f1", 30, seed=3))
    model = fit_lab(ds.x, ds.y, BandwidthSet.uniform(30, 2, 2.0))
    batch = predict(model, ds.x[:5])
    for i in range(5):
        single = predict(model, ds.x[i])
        assert isinstance(single, float)
        # Matrix-vector and matrix-matrix BLAS paths may sum in different
        # orders, so equality holds to rounding rather than bitwise.
        assert single == pytest.approx(batch[i], rel=1e-12, abs=1e-15)


def _assert_predict_matches_lab_matrix(model, points):
    values = predict(model, points)
    reference = lab_matrix(points, model.support_x, model.theta) @ model.alpha
    assert values.shape == reference.shape
    if reference.size:
        assert np.abs(values - reference).max() <= 1e-12 * np.abs(reference).max()


_N_SUPPORT = 300
_BLOCK = _PREDICT_BLOCK_ENTRIES // _N_SUPPORT


@pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
@pytest.mark.parametrize("n_rows", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
def test_blocked_predict_matches_lab_matrix(n_rows, offset):
    # Row counts around the block boundaries; far from the origin the
    # expanded form stays accurate only because it centers the points.
    rng = np.random.default_rng(n_rows)
    support = rng.uniform(0.0, 1.0, size=(_N_SUPPORT, 3)) + offset
    theta = rng.uniform(0.5, 5.0, size=(_N_SUPPORT, 3))
    model = LabModel(support, theta, rng.normal(size=_N_SUPPORT))
    points = rng.uniform(-0.2, 1.2, size=(n_rows, 3)) + offset
    _assert_predict_matches_lab_matrix(model, points)


def test_predict_matches_lab_matrix_on_narrow_bandwidths():
    # The bulk-predict shape: 500 support points at d=6 with bandwidths in
    # [0.5, 40], where most kernel exponents lie below exp's underflow.
    ds = normalize(synth("f2", 500, 0.0, seed=11))
    rng = np.random.default_rng(12)
    model = fit_lab(ds.x, ds.y, rng.uniform(0.5, 40.0, size=ds.x.shape), norm_meta=ds.norm_meta)
    points = apply_feature_scaling(ds.norm_meta, synth("f2", 1000, 0.0, seed=13).x)
    diff = (points[:, None, :] - model.support_x[None, :, :]) * model.theta.values[None, :, :]
    assert np.mean((diff * diff).sum(axis=2) > 745.0) > 0.5
    _assert_predict_matches_lab_matrix(model, points)
    single = predict(model, points[0])
    assert isinstance(single, float)
    assert single == pytest.approx(predict(model, points[:1])[0], rel=1e-12, abs=1e-15)


def test_kernel_floor_does_not_move_the_fit():
    # The criterion-8 shape (f2, d=6, bandwidths 10) at grow-large-support's
    # final size: over half of the Gram lies below the kernel's floor, yet
    # the fit matches a solve on the unfloored Gram.
    ds = normalize(synth("f2", 290, 0.0, seed=1))
    theta = np.full(ds.x.shape, 10.0)
    gram = lab_matrix(ds.x, ds.x, theta)
    assert np.mean(gram < np.exp(_EXP_FLOOR)) > 0.5
    reference = np.linalg.solve(gram + 1e-5 * np.eye(len(gram)), ds.y)
    alpha = fit_lab(ds.x, ds.y, theta, jitter=1e-5).alpha
    assert np.abs(alpha - reference).max() <= 1e-12 * np.abs(reference).max()


def test_predict_never_forms_the_full_kernel():
    rng = np.random.default_rng(20)
    theta = rng.uniform(0.5, 40.0, size=(500, 6))
    model = LabModel(rng.uniform(size=(500, 6)), theta, rng.normal(size=500))
    points = rng.uniform(size=(20_000, 6))
    full_kernel_bytes = points.shape[0] * model.n_support * 8
    tracemalloc.start()
    try:
        predict(model, points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < full_kernel_bytes / 4


@pytest.mark.parametrize("n_support", [1, 4])
def test_predict_memory_with_few_support_points_stays_near_one_block(n_support):
    # With few support points a block's quadratic features, not its kernel,
    # are the widest arrays, so they set the rows per block.
    rng = np.random.default_rng(21)
    model = LabModel(rng.uniform(size=(n_support, 6)), np.ones((n_support, 6)), np.ones(n_support))
    points = rng.uniform(size=(300_000, 6))
    tracemalloc.start()
    try:
        predict(model, points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < points.shape[0] * 8 + 2 * _PREDICT_BLOCK_ENTRIES * 8


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("support_x, theta", [
    ([[0.0], [1.0]], [[1e200], [1.0]]),  # bandwidths whose squares overflow
    ([[0.0], [1e200]], [[1.0], [1.0]]),  # a support point far outside the data
])
def test_predict_rejects_a_kernel_that_overflows(support_x, theta):
    model = LabModel(support_x, theta, [1.0, 1.0])
    with pytest.raises(UnscalableData):
        predict(model, [[0.5]])


def test_predict_checks_dimension():
    model = fit_lab([[0.0], [1.0]], [0.0, 1.0], [[1.0], [1.0]])
    with pytest.raises(DimensionMismatch):
        predict(model, np.zeros((3, 2)))


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_duplicate_support_points_raise_without_jitter():
    with pytest.raises(SingularSystem):
        fit_lab([[1.0], [1.0]], [0.0, 1.0], [[1.0], [1.0]], jitter=0.0)


@pytest.mark.filterwarnings("error")
def test_fit_lab_validates_shapes():
    for x, y, theta in [
        ([[0.0], [1.0]], [1.0], [[1.0], [1.0]]),  # one label for two points
        (np.empty((0, 2)), np.empty(0), np.empty((0, 2))),  # no support points
        ([[0.0], [1.0]], [1.0, 2.0], [[1.0]]),  # one bandwidth row for two points
        ([[0.0], [1.0]], [1.0, 2.0], [[1.0, 1.0], [1.0, 1.0]]),  # bandwidth dim 2
    ]:
        with pytest.raises(DimensionMismatch):
            fit_lab(x, y, theta)


@pytest.mark.parametrize("shape", [(1, 0), (0, 2)], ids=["no-features", "no-points"])
def test_model_needs_support_points_and_features(shape):
    with pytest.raises(DimensionMismatch):
        LabModel(np.empty(shape), np.ones(shape), np.zeros(shape[0]))


# ---------------------------------------------------------------------------
# Asymmetric dual pair


def _random_asymmetric_gram(rng, n, d=3):
    x = rng.uniform(-1.0, 1.0, size=(n, d))
    th = rng.uniform(0.3, 3.0, size=(n, d))
    return x, th, lab_matrix(x, x, th)


def test_duals_equal_their_training_residuals():
    rng = np.random.default_rng(31)
    for lam in (1e-3, 1e-1, 10.0):
        x, th, gram = _random_asymmetric_gram(rng, 20)
        y = rng.normal(size=20)
        duals = fit_asym_duals(gram, y, lam)
        resid_1 = y - predict_f1(gram, duals)
        resid_2 = y - predict_f2(gram.T, duals)
        assert np.max(np.abs(resid_1 - duals.alpha)) <= 1e-9
        assert np.max(np.abs(resid_2 - duals.beta)) <= 1e-9


def test_symmetric_gram_collapses_both_regressors_to_one():
    rng = np.random.default_rng(33)
    x = rng.uniform(-1.0, 1.0, size=(15, 2))
    gram = rbf_matrix(x, x, 1.2)
    duals = fit_asym_duals(gram, rng.normal(size=15), 1e-3)
    assert np.max(np.abs(duals.alpha - duals.beta)) <= 1e-10


def test_duals_validation():
    with pytest.raises(DimensionMismatch):
        fit_asym_duals(np.ones((2, 3)), np.ones(2), 1.0)
    with pytest.raises(DimensionMismatch):
        fit_asym_duals(np.eye(3), np.ones(2), 1.0)
    with pytest.raises(ValueError):
        fit_asym_duals(np.eye(2), np.ones(2), 0.0)


def test_predict_f1_checks_column_count():
    duals = fit_asym_duals(np.eye(3), np.ones(3), 1.0)
    with pytest.raises(DimensionMismatch):
        predict_f1(np.ones((2, 4)), duals)


# ---------------------------------------------------------------------------
# Serialization


def _fitted_model(with_meta=True):
    ds = normalize(synth("f1", 12, seed=7))
    meta = ds.norm_meta if with_meta else None
    return fit_lab(ds.x, ds.y, BandwidthSet.uniform(12, 2, 1.1), norm_meta=meta), ds


def test_save_load_round_trip(tmp_path):
    model, ds = _fitted_model()
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.support_x, model.support_x)
    assert np.array_equal(loaded.theta.values, model.theta.values)
    assert np.array_equal(loaded.alpha, model.alpha)
    assert loaded.jitter == model.jitter
    assert np.array_equal(predict(loaded, ds.x), predict(model, ds.x))


def test_norm_meta_round_trips(tmp_path):
    model, _ = _fitted_model()
    path = tmp_path / "model.json"
    save_model(model, path)
    meta = load_model(path).norm_meta
    assert np.array_equal(meta.feature_min, model.norm_meta.feature_min)
    assert meta.label_max == model.norm_meta.label_max


def test_model_without_norm_meta_round_trips(tmp_path):
    model, _ = _fitted_model(with_meta=False)
    path = tmp_path / "model.json"
    save_model(model, path)
    assert load_model(path).norm_meta is None


def test_save_is_byte_deterministic(tmp_path):
    model, _ = _fitted_model()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_model(model, p1)
    save_model(model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_wrong_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else", "version": 1}')
    with pytest.raises(ValueError):
        load_model(path)


def test_load_rejects_wrong_version():
    model, _ = _fitted_model()
    doc = model_to_dict(model)
    doc["version"] = 99
    with pytest.raises(ValueError):
        model_from_dict(doc)


def test_load_rejects_inconsistent_shape():
    model, _ = _fitted_model()
    doc = model_to_dict(model)
    doc["n_support"] = 5
    with pytest.raises(ValueError):
        model_from_dict(doc)


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(ValueError):
        load_model(path)


@pytest.mark.parametrize("mutate", [
    lambda doc: doc.pop("dim"),
    lambda doc: doc.pop("alpha"),
    lambda doc: doc["normalization"].pop("feature_max"),
    lambda doc: doc.update(jitter="small"),
    lambda doc: doc.update(jitter=None),
    lambda doc: doc.update(support_x={"a": 1}),
    lambda doc: doc.update(normalization=[1, 2]),
    lambda doc: doc.update(dim="2"),
    lambda doc: doc["normalization"].update(feature_min=[0.0], feature_max=[1.0]),
    lambda doc: doc.update(jitter=float("inf")),
    lambda doc: doc.update(jitter=True),
    lambda doc: doc.update(jitter="1e-5"),
    lambda doc: doc.update(n_support=float(doc["n_support"])),
], ids=["no-dim", "no-alpha", "no-feature-max", "str-jitter", "null-jitter",
        "object-support", "list-normalization", "str-dim", "short-normalization",
        "inf-jitter", "bool-jitter", "numeric-str-jitter", "float-n-support"])
def test_load_rejects_malformed_document(tmp_path, mutate):
    model, _ = _fitted_model()
    doc = model_to_dict(model)
    mutate(doc)
    with pytest.raises(ValueError):
        model_from_dict(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="bad.json"):
        load_model(path)


def test_load_rejects_a_model_without_features(tmp_path):
    # Without features every kernel entry is 1, so such a model would predict
    # the sum of its coefficients everywhere.
    doc = model_to_dict(LabModel([[0.0]], BandwidthSet([[1.0]]), [1.0]))
    doc.update(dim=0, support_x=[[]], bandwidths=[[]])
    with pytest.raises(ValueError):
        model_from_dict(doc)
    path = tmp_path / "featureless.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="featureless.json"):
        load_model(path)


@pytest.mark.parametrize("key", ["dim", "n_support"])
def test_load_rejects_boolean_counts(key):
    # One point in one dimension: ``true == 1``, so only the type check can
    # tell the boolean from the count.
    doc = model_to_dict(LabModel([[0.0]], BandwidthSet([[1.0]]), [1.0]))
    doc[key] = True
    with pytest.raises(ValueError, match=key):
        model_from_dict(doc)


_finite = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=MIN_BANDWIDTH, max_value=1e300)


@st.composite
def _models(draw):
    n, d = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    meta = None
    if draw(st.booleans()):
        meta = NormMeta(
            draw(arrays(np.float64, d, elements=_finite)),
            draw(arrays(np.float64, d, elements=_finite)),
            draw(_finite), draw(_finite),
        )
    return LabModel(
        support_x=draw(arrays(np.float64, (n, d), elements=_finite)),
        theta=BandwidthSet(draw(arrays(np.float64, (n, d), elements=_positive))),
        alpha=draw(arrays(np.float64, n, elements=_finite)),
        jitter=draw(st.floats(min_value=0.0, max_value=1e300)),
        norm_meta=meta,
    )


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(model=_models())
def test_save_load_round_trips_every_field(tmp_path, model):
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.support_x.tobytes() == model.support_x.tobytes()
    assert loaded.theta.values.tobytes() == model.theta.values.tobytes()
    assert loaded.alpha.tobytes() == model.alpha.tobytes()
    assert repr(loaded.jitter) == repr(model.jitter)
    if model.norm_meta is None:
        assert loaded.norm_meta is None
    else:
        assert json.dumps(loaded.norm_meta.to_dict()) == json.dumps(model.norm_meta.to_dict())


def test_norm_meta_serialization_round_trip():
    meta = NormMeta(np.array([0.0, 1.0]), np.array([2.0, 3.0]), -1.0, 4.0)
    back = NormMeta.from_dict(meta.to_dict())
    assert np.array_equal(back.feature_min, meta.feature_min)
    assert back.label_min == meta.label_min and back.label_max == meta.label_max
