"""Unit tests for CSV ingestion, scaling, splitting, and synthetic data."""

import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from labrr.data import (
    Dataset,
    EmptyDataset,
    InsufficientData,
    InvalidSetting,
    NormMeta,
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
from labrr.data import _WRITE_BLOCK_ROWS, _read_fast, _read_numeric_table, _read_strict
from labrr.data import _synth_f1, _synth_f2, _synth_f3
from labrr.numerics import DimensionMismatch


# ---------------------------------------------------------------------------
# Synthetic functions


def test_f1_value_at_origin():
    # (1 + sin 0) / (3.5 + sin 0) = 2/7
    assert _synth_f1(np.zeros((1, 2)))[0] == pytest.approx(2.0 / 7.0, rel=1e-15)


def test_f2_value_at_origin():
    # 10 sin 0 + 20 (0 - 0.5)^2 + 0 + 0 + 0 = 5
    assert _synth_f2(np.zeros((1, 6)))[0] == pytest.approx(5.0, rel=1e-15)


def test_f3_value_at_origin():
    assert _synth_f3(np.zeros((1, 4)))[0] == pytest.approx(1.0, rel=1e-15)


def test_f2_sixth_coordinate_is_inert():
    rng = np.random.default_rng(1)
    x = rng.uniform(-1.0, 1.0, size=(40, 6))
    shuffled = x.copy()
    shuffled[:, 5] = rng.permutation(shuffled[:, 5])
    assert np.array_equal(_synth_f2(x), _synth_f2(shuffled))


def test_synth_shapes_and_domains():
    for fn, dim, lo, hi in (("f1", 2, -2.0, 2.0), ("f2", 6, -1.0, 1.0), ("f3", 4, -0.25, 0.25)):
        ds = synth(fn, 60, seed=5)
        assert ds.x.shape == (60, dim) and ds.y.shape == (60,)
        assert ds.x.min() >= lo and ds.x.max() <= hi
        assert ds.name == fn


def test_synth_is_deterministic():
    a = synth("f1", 100, 0.3, seed=42)
    b = synth("f1", 100, 0.3, seed=42)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


def test_synth_noise_touches_labels_only():
    clean = synth("f1", 100, 0.0, seed=8)
    noisy = synth("f1", 100, 0.4, seed=8)
    assert np.array_equal(clean.x, noisy.x)
    assert not np.array_equal(clean.y, noisy.y)


def test_synth_zero_noise_is_the_clean_function():
    ds = synth("f3", 30, 0.0, seed=2)
    assert np.array_equal(ds.y, _synth_f3(ds.x))


def test_synth_noise_variance_calibration():
    ratio = 0.5
    clean = synth("f2", 10_000, 0.0, seed=77)
    noisy = synth("f2", 10_000, ratio, seed=77)
    injected = np.var(noisy.y - clean.y)
    target = ratio * np.var(clean.y)
    assert 0.8 * target <= injected <= 1.2 * target


def test_synth_rejects_bad_arguments():
    with pytest.raises(InvalidSetting, match="unknown function: 'f9'"):
        synth("f9", 10)
    # 1e308 times f2's label variance overflows float64.  Integers past int64
    # or float64, strings and bools break the rule of every setting.
    for bad in ({"n": 0}, {"n": 10.0}, {"n": True}, {"seed": -1}, {"seed": 1.5}, {"noise_ratio": -0.1},
                {"noise_ratio": float("nan")}, {"noise_ratio": float("inf")}, {"noise_ratio": 1e308},
                {"noise_ratio": 10**400}, {"noise_ratio": "0.1"}, {"noise_ratio": True}, {"seed": 2**63},
                {"n": 2**63}):
        with pytest.raises(InvalidSetting):
            synth(**{"function_id": "f2", "n": 10, **bad})


def test_split_spec_raises_invalid_setting():
    with pytest.raises(InvalidSetting):
        SplitSpec(-1)
    with pytest.raises(InvalidSetting):
        SplitSpec(0, 0, 1.0)


@pytest.mark.parametrize("args", [(0, 1.0), (1.5,), (True,), (0, 0, "0.8")], ids=repr)
def test_split_spec_checks_each_field_type(args):
    # Unchecked, the first two end in numpy's ``TypeError`` inside ``split``,
    # the string in a ``TypeError`` from ``<``, and ``True`` splits as seed 1.
    with pytest.raises(InvalidSetting, match="must be of type"):
        SplitSpec(*args)


def test_split_spec_stores_its_fraction_as_a_float():
    spec = SplitSpec(0, 0, np.float32(0.5))
    assert type(spec.train_fraction) is float and spec.train_fraction == 0.5


# ---------------------------------------------------------------------------
# Normalization


def test_normalize_maps_each_column_onto_minus_one_one():
    rng = np.random.default_rng(3)
    ds = Dataset(rng.uniform(5.0, 9.0, size=(50, 3)), rng.uniform(-20.0, -10.0, size=50))
    norm = normalize(ds)
    for j in range(3):
        assert norm.x[:, j].min() == pytest.approx(-1.0, abs=1e-12)
        assert norm.x[:, j].max() == pytest.approx(1.0, abs=1e-12)
    assert norm.y.min() == pytest.approx(-1.0, abs=1e-12)
    assert norm.y.max() == pytest.approx(1.0, abs=1e-12)
    assert norm.norm_meta is not None


def test_normalize_twice_rejected():
    ds = normalize(synth("f1", 20, seed=1))
    with pytest.raises(ValueError):
        normalize(ds)


def test_constant_column_normalizes_to_zero():
    x = np.column_stack([np.full(10, 4.0), np.arange(10.0)])
    norm = normalize(Dataset(x, np.arange(10.0)))
    assert np.array_equal(norm.x[:, 0], np.zeros(10))


def test_label_scaling_round_trip_is_identity():
    rng = np.random.default_rng(4)
    ds = normalize(Dataset(rng.normal(size=(30, 2)), rng.uniform(3.0, 8.0, size=30)))
    y_raw = rng.uniform(3.0, 8.0, size=12)
    back = invert_label_scaling(ds.norm_meta, apply_label_scaling(ds.norm_meta, y_raw))
    assert np.max(np.abs(back - y_raw)) <= 1e-12


def test_feature_scaling_matches_normalize():
    raw = synth("f1", 40, seed=9)
    norm = normalize(raw)
    assert np.array_equal(apply_feature_scaling(norm.norm_meta, raw.x), norm.x)


def test_overflowing_column_range_is_a_typed_error_naming_the_column():
    x = np.array([[0.0, 1e308], [1.0, -1e308], [2.0, 0.0]])
    with pytest.raises(UnscalableData, match="feature column 2"):
        normalize(Dataset(x, np.arange(3.0)))
    with pytest.raises(UnscalableData, match="label"):
        normalize(Dataset(x[:, :1], np.array([1e308, -1e308, 0.0])))


def test_overflowing_new_values_are_a_typed_error():
    meta = normalize(synth("f1", 20, seed=1)).norm_meta
    with pytest.raises(UnscalableData, match="feature column 1"):
        apply_feature_scaling(meta, np.array([[1e308, 0.0]]))
    with pytest.raises(UnscalableData, match="label"):
        apply_label_scaling(meta, np.array([-1e308]))


def test_feature_scaling_matches_the_one_expression_map_bit_for_bit():
    rng = np.random.default_rng(31)
    x = rng.normal(size=(500, 5)) * 10.0 ** rng.integers(-150, 150, size=(500, 5))
    x[:, 1] = -2.5  # a constant column
    meta = NormMeta(x.min(axis=0), x.max(axis=0), -3.0, 4.0)
    span = meta.feature_max - meta.feature_min
    safe = np.where(span == 0.0, 1.0, span)
    reference = np.where(span == 0.0, 0.0, 2.0 * (x - meta.feature_min) / safe - 1.0)
    assert apply_feature_scaling(meta, x).tobytes() == reference.tobytes()
    y = x[:, 0] / 10.0 ** 140
    assert apply_label_scaling(meta, y).tobytes() == (2.0 * (y + 3.0) / 7.0 - 1.0).tobytes()


def test_feature_scaling_holds_one_output_array():
    # The scaled matrix is built in place: besides it, only the finiteness
    # check's booleans (an eighth of it) are held.  Computing the map as one
    # expression holds a second full-size array at once.
    rng = np.random.default_rng(30)
    x = rng.uniform(-5.0, 5.0, size=(100_000, 6))
    x[:, 3] = 1.5  # a constant column
    meta = NormMeta(x.min(axis=0), x.max(axis=0), 0.0, 1.0)
    tracemalloc.start()
    try:
        scaled = apply_feature_scaling(meta, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * scaled.nbytes
    assert np.all(scaled[:, 3] == 0.0)


def test_feature_scaling_checks_dimension():
    norm = normalize(synth("f1", 10, seed=1))
    with pytest.raises(DimensionMismatch):
        apply_feature_scaling(norm.norm_meta, np.zeros((3, 5)))


# ---------------------------------------------------------------------------
# CSV


def test_csv_round_trip_is_bit_exact(tmp_path):
    ds = synth("f1", 25, 0.1, seed=6)
    path = tmp_path / "d.csv"
    save_csv(ds, path)
    loaded = load_csv(path)
    assert np.array_equal(loaded.x, ds.x)
    assert np.array_equal(loaded.y, ds.y)


@pytest.mark.parametrize("n", [0, 1, _WRITE_BLOCK_ROWS, _WRITE_BLOCK_ROWS + 1, 2 * _WRITE_BLOCK_ROWS + 3])
def test_save_csv_writes_what_the_csv_module_writes(tmp_path, n):
    rng = np.random.default_rng(n)
    ds = Dataset(rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-300, 300, size=(n, 3)), rng.normal(size=n))
    path = tmp_path / "d.csv"
    save_csv(ds, path)
    reference = tmp_path / "ref.csv"
    with open(reference, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j + 1}" for j in range(ds.dim)] + ["y"])
        for row, label in zip(ds.x, ds.y):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(label))])
    assert path.read_bytes() == reference.read_bytes()


def test_csv_header_is_detected_and_skipped(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("alpha,beta,label\n1.0,2.0,3.0\n4.0,5.0,6.0\n")
    ds = load_csv(path)
    assert ds.n == 2 and ds.dim == 2
    assert np.array_equal(ds.y, [3.0, 6.0])


def test_csv_without_header_loads_every_row(tmp_path):
    path = tmp_path / "n.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n")
    ds = load_csv(path)
    assert ds.n == 2 and np.array_equal(ds.y, [2.0, 4.0])


def test_csv_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "b.csv"
    path.write_text("\n1.0,2.0\n\n3.0,4.0\n\n")
    assert load_csv(path).n == 2


def test_csv_bad_cell_reports_row_and_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n1.0,2.0\n3.0,oops\n")
    with pytest.raises(ParseError) as err:
        load_csv(path)
    assert err.value.row == 3 and err.value.col == 2
    assert "oops" in str(err.value)
    # The first fault in file order, whatever its kind.
    path.write_text("x,y\n1.0,2.0\nnan,2.0\n3.0,4.0\nabc,5.0\n")
    for read in (load_csv, _read_strict):
        with pytest.raises(ParseError) as err:
            read(path)
        assert (err.value.row, err.value.col) == (3, 1)
        assert "'nan'" in str(err.value)


def test_csv_first_row_with_any_number_is_data(tmp_path):
    # A typo in the first data row must not turn it into a header.
    path = tmp_path / "typo.csv"
    path.write_text("0.1,abc,1\n1,2,3\n4,5,6\n7,8,9\n")
    with pytest.raises(ParseError) as err:
        load_csv(path)
    assert (err.value.row, err.value.col) == (1, 2)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("record", [1, 3])
def test_csv_cell_past_the_field_limit_is_a_parse_error(tmp_path, record):
    lines = ["x,y", "1.0,2.0", "3.0,4.0"]
    lines[record - 1] = "1" * 200_000 + ",2.0"
    path = tmp_path / "big.csv"
    path.write_text("\n".join(lines) + "\n")
    assert _read_fast(path) is None
    with pytest.raises(ParseError) as err:
        load_matrix_csv(path)
    assert (err.value.row, err.value.col) == (record, None)
    assert f"big.csv: row {record}: unreadable CSV record: field larger than field limit" in str(err.value)


def test_csv_non_utf8_is_a_parse_error(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes("x,y\n1.0,2.0\n3.0,caf\u00e9\n".encode("latin-1"))
    with pytest.raises(ParseError, match="UTF-8"):
        load_csv(path)


def test_csv_byte_order_mark_before_a_data_line_is_dropped(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf1.5,2.0\n3.0,4.0\n")
    assert np.array_equal(load_matrix_csv(path), [[1.5, 2.0], [3.0, 4.0]])


def test_csv_byte_order_mark_before_a_header_line_is_dropped(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbfx1,y\r\n1.5,2.0\r\n")
    ds = load_csv(path)
    assert np.array_equal(ds.x, [[1.5]]) and np.array_equal(ds.y, [2.0])


@pytest.mark.parametrize("cell", ["1_0", "1_000.5", "1e1_0", "\u0661", "\uff11", "1\u0660", "\ufeff1"])
def test_csv_python_only_number_spellings_are_rejected(tmp_path, cell):
    # float() reads all of these; the CSV grammar is ASCII decimal reals.
    path = tmp_path / "spelling.csv"
    path.write_text(f"x,y\n0.5,0.5\n0.5,{cell}\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_matrix_csv(path)
    assert (err.value.row, err.value.col) == (3, 2)
    assert str(err.value).endswith(f"not a number: {cell!r}")


def test_csv_non_ascii_whitespace_around_a_number_is_allowed(tmp_path):
    path = tmp_path / "nbsp.csv"
    path.write_text("\u00a01.5 ,\u20092.0\u3000\n", encoding="utf-8")
    assert np.array_equal(load_matrix_csv(path), [[1.5, 2.0]])
    assert np.array_equal(_read_strict(path)[0], [[1.5, 2.0]])


_FILES_EXAMPLES = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
_finite_tables = st.tuples(st.integers(1, 8), st.integers(2, 4)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.floats(allow_nan=False, allow_infinity=False))
)


@_FILES_EXAMPLES
@given(table=_finite_tables)
def test_csv_round_trip_of_any_finite_table_is_bit_exact(tmp_path, table):
    path = tmp_path / "t.csv"
    save_csv(Dataset(table[:, :-1], table[:, -1]), path)
    assert load_matrix_csv(path).tobytes() == table.tobytes()


@_FILES_EXAMPLES
@given(
    table=_finite_tables,
    where=st.tuples(st.integers(0, 7), st.integers(0, 3)),
    cell=st.sampled_from(["nan", "NaN", "inf", "-inf", "1e999", "abc", "1.2.3", ""]),
)
def test_csv_bad_cell_anywhere_reports_its_position(tmp_path, table, where, cell):
    i, j = where[0] % table.shape[0], where[1] % table.shape[1]
    cells = [[repr(float(v)) for v in row] for row in table]
    cells[i][j] = cell
    path = tmp_path / "bad.csv"
    header = ",".join("abcd"[: table.shape[1]])
    path.write_text("\n".join([header, *(",".join(row) for row in cells)]) + "\n")
    with pytest.raises(ParseError) as err:
        load_matrix_csv(path)
    assert (err.value.row, err.value.col) == (i + 2, j + 1)


# Cells numpy's parser reads as the strict reader does, and cells that send a
# file to the strict reader (quoted, Python-only spellings, non-finite, empty,
# non-numeric or not UTF-8).
_PADDING = st.sampled_from(["", "", "", " ", "\t", "\u00a0", "\u3000"])
_NUMERIC_CELLS = st.builds(
    lambda before, number, after: before + number + after,
    _PADDING,
    st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.integers(-10**6, 10**6).map(str),
        st.sampled_from(["+.5", "5.", "-0", "1E5", "1.e-3"]),
    ),
    _PADDING,
)
_FALLBACK_CELLS = st.sampled_from([
    '"1.5"', '"2', "1_0", "\u0661", "\uff11", "\ufeff1", "infinity", "-inf", "nan", "NaN", "1e999",
    "", " ", "abc", "0x10", "1d5", "\xe9",
])
_HEADER_CELLS = st.sampled_from(["x1", "y", " label ", '"a,b"', '"say ""hi"""', "", "\ufeffx"])
_BLANK_LINES = st.sampled_from(["", "   ", ",", " , ", '""'])


@st.composite
def _csv_files(draw):
    """A generated CSV as bytes, with two flags about its body.

    ``clean``: every body line is empty or a row of ``width`` numeric cells,
    so numpy's parser must decide the file.  ``csv_only``: the
    body holds a quote or a whitespace-only line, which only the strict
    reader can read.
    """
    width = draw(st.integers(1, 4))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    clean, csv_only = True, False
    lines = []
    if draw(st.booleans()):
        lines.append(",".join(draw(st.lists(_HEADER_CELLS, min_size=width, max_size=width))))
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 5)) == 0:
            line = draw(_BLANK_LINES)
            clean &= line == ""
            csv_only |= line != ""
        else:
            cells = draw(st.lists(_NUMERIC_CELLS, min_size=width, max_size=width))
            if draw(st.integers(0, 3)) == 0:
                cell = draw(_FALLBACK_CELLS)
                cells[draw(st.integers(0, width - 1))] = cell
                clean = False
                csv_only |= '"' in cell
            shape = draw(st.integers(0, 9))
            if shape == 0:
                cells.append("")  # trailing comma
                clean = False
            elif shape == 1 and width > 1:
                cells.pop()  # ragged row
                clean = False
            line = ",".join(cells)
            # Empty or whitespace fallback cells can leave a blank record.
            csv_only |= line != "" and not line.replace(",", "").strip()
        lines.append(line)
    text = newline.join(lines) + (newline if draw(st.booleans()) else "")
    data = text.encode("utf-8").replace("\xe9".encode("utf-8"), b"\xe9")  # not UTF-8
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    return data, clean, csv_only


def _outcome(read, path):
    try:
        matrix, first_row = read(path)
    except (ParseError, EmptyDataset) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "row", None), getattr(exc, "col", None)
    return matrix.shape, matrix.tobytes(), first_row


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(generated=_csv_files())
def test_csv_fast_and_strict_readers_agree(tmp_path, generated):
    data, clean, csv_only = generated
    path = tmp_path / "g.csv"
    path.write_bytes(data)
    strict = _outcome(_read_strict, path)
    fast = _read_fast(path)
    if fast is not None:
        assert (fast[0].shape, fast[0].tobytes(), fast[1]) == strict
    else:
        assert not clean or strict[0] == "EmptyDataset", "numpy's parser declined a clean file"
        if isinstance(strict[0], tuple):
            assert csv_only, "the strict reader accepted a file numpy's parser declined"
    assert _outcome(_read_numeric_table, path) == strict


def test_csv_ragged_row_is_an_error(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1.0,2.0,3.0\n4.0,5.0\n")
    with pytest.raises(ParseError) as err:
        load_csv(path)
    assert err.value.row == 2


def test_csv_single_column_is_an_error(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("1.0\n2.0\n")
    with pytest.raises(ParseError):
        load_csv(path)


@pytest.mark.filterwarnings("error")
def test_csv_empty_file_is_an_error(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(EmptyDataset):
        load_csv(path)
    path.write_text("only,a,header\n")
    with pytest.raises(EmptyDataset):
        load_csv(path)
    path.write_text("\n  \nonly,a,header\n,,\n\n")
    with pytest.raises(EmptyDataset):
        load_csv(path)


def test_load_matrix_csv_keeps_all_columns(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n")
    m = load_matrix_csv(path)
    assert m.shape == (2, 3) and m[1, 2] == 6.0


# ---------------------------------------------------------------------------
# Splitting


def test_split_sizes_disjoint_and_cover():
    ds = synth("f1", 101, seed=3)
    train, test = split(ds, SplitSpec(seed=5))
    assert train.n == 80 and test.n == 21  # floor(0.8 * 101)
    stacked = np.vstack([train.x, test.x])
    assert np.array_equal(np.sort(stacked, axis=0), np.sort(ds.x, axis=0))


def test_split_is_deterministic_for_fixed_split_spec():
    ds = synth("f1", 60, seed=3)
    a1, b1 = split(ds, SplitSpec(seed=9, trial_index=4))
    a2, b2 = split(ds, SplitSpec(seed=9, trial_index=4))
    assert np.array_equal(a1.x, a2.x) and np.array_equal(b1.y, b2.y)


def test_split_trials_differ():
    ds = synth("f1", 60, seed=3)
    a0, _ = split(ds, SplitSpec(seed=9, trial_index=0))
    a1, _ = split(ds, SplitSpec(seed=9, trial_index=1))
    assert not np.array_equal(a0.x, a1.x)


def test_split_preserves_norm_meta():
    ds = normalize(synth("f1", 50, seed=2))
    train, test = split(ds, SplitSpec(seed=1))
    assert train.norm_meta is ds.norm_meta and test.norm_meta is ds.norm_meta


def test_split_empty_side_raises():
    ds = synth("f1", 4, seed=1)
    with pytest.raises(InsufficientData):
        split(ds, SplitSpec(seed=0, train_fraction=0.1))  # floor(0.4) = 0 train rows


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 60),
    seed=st.integers(0, 2**32),
    trial=st.integers(0, 1000),
    fraction=st.floats(0.01, 0.99),
)
def test_split_is_a_deterministic_partition_for_each_seed_and_trial(n, seed, trial, fraction):
    ds = Dataset(np.arange(float(n))[:, None], np.zeros(n))  # the feature is the row number
    spec = SplitSpec(seed, trial, fraction)
    n_train = int(fraction * n)
    if n_train in (0, n):
        with pytest.raises(InsufficientData):
            split(ds, spec)
        return
    train, test = split(ds, spec)
    again_train, again_test = split(ds, SplitSpec(seed, trial, fraction))
    assert np.array_equal(train.x, again_train.x) and np.array_equal(test.x, again_test.x)
    assert train.n == n_train
    rows = np.concatenate([train.x[:, 0], test.x[:, 0]])
    assert np.array_equal(np.sort(rows), np.arange(float(n)))


def test_split_spec_validation():
    with pytest.raises(ValueError):
        SplitSpec(seed=0, train_fraction=0.0)
    with pytest.raises(ValueError):
        SplitSpec(seed=0, train_fraction=1.0)
    with pytest.raises(ValueError):
        SplitSpec(seed=-1)
    with pytest.raises(ValueError):
        SplitSpec(seed=0, trial_index=-2)


# ---------------------------------------------------------------------------
# Dataset container


def test_dataset_validates_row_alignment():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros(4))


def test_dataset_properties():
    ds = Dataset(np.zeros((7, 3)), np.zeros(7))
    assert ds.n == 7 and ds.dim == 3
