"""Dataset tests: generators, CSV round trips, vertical splits, batch plans."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from splitbus import broker, data, nn

from oracles import (
    copying_generate_synthetic, copying_split_rows, copying_vertical_split, write_csv,
)


def test_synthetic_classification_is_deterministic_and_balanced():
    a = data.generate_synthetic(1000, 20, 5, data.Task.CLASSIFICATION, seed=7)
    b = data.generate_synthetic(1000, 20, 5, data.Task.CLASSIFICATION, seed=7)
    c = data.generate_synthetic(1000, 20, 5, data.Task.CLASSIFICATION, seed=8)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.features, c.features)
    positive = float(a.labels.sum()) / a.num_rows
    assert abs(positive - 0.5) <= 0.05


def test_synthetic_classification_learnable_by_single_layer_oracle():
    """A logistic-regression-equivalent model must separate the classes (AUC > 0.8)."""
    table = data.generate_synthetic(2000, 20, 5, data.Task.CLASSIFICATION, seed=3)
    train, test = data.split_rows(table, test_fraction=0.3, seed=0)
    model = nn.init_mlp([20, 1], [nn.Activation.SIGMOID], seed=0)
    x_train, x_test = (t.features.astype(np.float64) for t in (train, test))
    for _ in range(300):
        out, tape = nn.forward(model, x_train)
        _, d_out = nn.cross_entropy_loss(out, train.labels)
        nn.backward(model, tape, d_out)
        nn.sgd_step(model, eta=0.5)
    scores, _ = nn.forward(model, x_test)
    auc = _rank_auc(test.labels.ravel(), scores.ravel())
    assert auc > 0.8, f"oracle AUC {auc:.3f}"


def _rank_auc(labels, scores):
    # Mann-Whitney with midranks; independent of the package's metric code.
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    pos = labels == 1
    n_pos, n_neg = pos.sum(), (~pos).sum()
    return (ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def test_synthetic_regression_has_noisy_linear_signal():
    table = data.generate_synthetic(500, 10, 4, data.Task.REGRESSION, seed=1)
    # least squares on the informative block should explain most of the variance
    x = table.features[:, :4]
    coef, *_ = np.linalg.lstsq(x, table.labels, rcond=None)
    resid = table.labels - x @ coef
    assert float(np.var(resid)) < 0.1 * float(np.var(table.labels))


def test_csv_round_trip_preserves_values(tmp_path):
    table = data.generate_synthetic(50, 6, 2, data.Task.REGRESSION, seed=5)
    path = tmp_path / "t.csv"
    write_csv(str(path), table)
    reloaded = data.load_csv(str(path), "label", data.Task.REGRESSION, standardize=False)
    _assert_same_bits(reloaded.features, table.features, np.float32)
    _assert_same_bits(reloaded.labels, table.labels)
    # with standardisation on, a standardised table is standardised again in
    # float64 and stored in float32, which moves it by float32 rounding only
    std_once = data.load_csv(str(path), "label", data.Task.REGRESSION)
    write_csv(str(path), std_once)
    std_twice = data.load_csv(str(path), "label", data.Task.REGRESSION)
    again = data.standardize_columns(std_once.features.astype(np.float64))
    _assert_same_bits(std_twice.features, again.astype(np.float32), np.float32)
    assert np.allclose(std_twice.features, std_once.features, rtol=0, atol=2e-6)


def test_csv_parse_error_names_row_and_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,label\n1.0,2.0,0\n1.5,oops,1\n")
    with pytest.raises(data.DataFormatError, match=r"row 3, column 2"):
        data.load_csv(str(path), "label", data.Task.CLASSIFICATION)


def test_csv_rejects_non_binary_classification_labels(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,label\n1.0,2\n")
    with pytest.raises(data.DataFormatError, match="0 or 1"):
        data.load_csv(str(path), "label", data.Task.CLASSIFICATION)


def test_csv_rejects_non_finite_values(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,label\n1.0,2.0,0\n1.5,nan,1\n")
    with pytest.raises(data.DataFormatError, match=r"'nan' at row 3, column 2"):
        data.load_csv(str(path), "label", data.Task.CLASSIFICATION)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_vertical_dataset_rejects_non_finite_entries(bad):
    # Data is checked for finiteness here, where it enters; nn.forward checks shapes only.
    table = data.generate_synthetic(20, 4, 2, data.Task.REGRESSION, seed=0)
    view = data.vertical_split(table, num_active=2, seed=0)
    for name in ("active_features", "passive_features", "labels"):
        values = {
            field: getattr(view, field).copy()
            for field in ("active_features", "passive_features", "labels")
        }
        values[name][3, 0] = bad
        with pytest.raises(ValueError, match=name):
            data.VerticalDataset(
                task=view.task, active_columns=view.active_columns,
                passive_columns=view.passive_columns, **values,
            )
    table.features[0, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        data.vertical_split(table, num_active=2, seed=0)


def test_vertical_dataset_accepts_zero_rows():
    # min and max of an empty array raise, so the finiteness check skips them.
    view = data.vertical_split(data.generate_synthetic(20, 4, 2, seed=0), num_active=2)
    fields = ("active_features", "passive_features", "labels")
    empty = dataclasses.replace(view, **{name: getattr(view, name)[:0] for name in fields})
    assert empty.num_rows == 0


def test_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("a,b,label\n1.0,2.0,0\n\n1.5,2.5,1\n\n")
    table = data.load_csv(str(path), "label", data.Task.CLASSIFICATION, standardize=False)
    assert table.features.tolist() == [[1.0, 2.0], [1.5, 2.5]]
    assert table.labels.tolist() == [[0.0], [1.0]]


@pytest.mark.parametrize(
    "body, message",
    [
        ("1.5,oops,1\n", r"'oops' at row 5, column 2"),
        ("1.5,nan,1\n", r"'nan' at row 5, column 2"),
        ("1.5,1\n", r"row 5 has 2 cells, expected 3"),
        ("1.5,2.5,1,7\n", r"row 5 has 4 cells, expected 3"),
    ],
)
def test_csv_errors_count_blank_lines_as_file_rows(tmp_path, body, message):
    path = tmp_path / "bad.csv"
    path.write_text("\na,b,label\n1.0,2.0,0\n\n" + body)
    with pytest.raises(data.DataFormatError, match=message):
        data.load_csv(str(path), "label", data.Task.CLASSIFICATION)


# Cells whose float() value has a quirk: digit separators, padding, a signed
# zero, the smallest subnormal, underflow to zero and non-ASCII digits.
ODD_CELLS = ["1_0", " 1.5 ", "-0", "4.9e-324", "1e-400", "\u0661\u0662\u0663", "\uff11\uff12.\uff15"]


def test_csv_cells_convert_exactly_as_float_does(tmp_path, monkeypatch):
    path = tmp_path / "odd.csv"
    lines = ["a,b,label"] + [f"{cell},{i}.25,{i % 2}" for i, cell in enumerate(ODD_CELLS)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    expected = np.array([float(cell) for cell in ODD_CELLS])

    def no_fallback(*args):
        raise AssertionError("a well-formed file took the per-cell path")

    with monkeypatch.context() as patch:
        patch.setattr(data, "_parse_cells", no_fallback)
        table = data.load_csv(str(path), "label", data.Task.CLASSIFICATION, standardize=False)
    # unscaled features are stored in float32, rounded as astype rounds float(cell)
    assert table.features.dtype == np.float32 and table.features.flags.c_contiguous
    assert np.array_equal(table.features[:, 0].view(np.uint32),
                          expected.astype(np.float32).view(np.uint32))
    # the per-cell fallback gives the same bits as the bulk conversion
    rows = tuple(line.split(",") for line in lines[1:])
    looped = data._parse_cells(str(path), rows, tuple(range(2, len(lines) + 1)), 3)
    assert np.array_equal(looped[:, 0].view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("cell", ["1e400", "-inf"])
def test_csv_rejects_infinite_values(tmp_path, cell):
    path = tmp_path / "bad.csv"
    path.write_text(f"a,b,label\n1.0,2.0,0\n1.5,{cell},1\n")
    with pytest.raises(data.DataFormatError, match=rf"non-finite value '{cell}' at row 3, column 2"):
        data.load_csv(str(path), "label", data.Task.CLASSIFICATION)


def test_standardize_columns_centres_and_scales():
    rng = np.random.default_rng(0)
    x = rng.normal(3.0, 5.0, size=(400, 4))
    x[:, 2] = 9.0  # constant column: centred but not divided
    z = data.standardize_columns(x)
    assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(z[:, [0, 1, 3]].std(axis=0), 1.0, atol=1e-12)
    assert np.allclose(z[:, 2], 0.0, atol=1e-12)


def test_standardize_columns_keeps_the_bits_of_ordinary_columns():
    rng = np.random.default_rng(1)
    x = rng.normal(3.0, 5.0, size=(300, 5)) * np.array([1.0, 1e-30, 1e30, 1e100, 2.0**399])
    centred = x - x.mean(axis=0, keepdims=True)  # the formula, without any rescaling
    std = np.sqrt(np.einsum("ij,ij->j", centred, centred) / x.shape[0])
    want = centred / np.where(std < 1e-12, 1.0, std)
    _assert_same_bits(data.standardize_columns(x), want)


def test_standardize_columns_rescales_columns_near_the_float64_maximum():
    rng = np.random.default_rng(2)
    base = rng.normal(0.0, 1.0, size=(200, 3))
    huge = base * np.array([1e200, 1e307, 1.0])  # squares and sums would overflow
    huge[:, 2] = 1.7e308  # a constant column at the top of the range
    z = data.standardize_columns(huge)
    assert np.all(np.isfinite(z))
    assert np.allclose(z[:, :2], data.standardize_columns(base[:, :2].copy()), rtol=0, atol=1e-12)
    assert np.allclose(z[:, 2], 0.0, atol=1e-12)


def test_csv_near_the_float64_maximum_loads_finite(tmp_path):
    path = tmp_path / "big.csv"
    rows = [f"{1e308 + k * 1.4e307!r},{k % 3}.5,{k % 2}" for k in range(6)]
    path.write_text("a,b,label\n" + "\n".join(rows) + "\n")
    table = data.load_csv(str(path), "label", data.Task.CLASSIFICATION)
    assert np.all(np.isfinite(table.features))
    assert np.allclose(table.features[:, 0].std(), 1.0, atol=1e-6)


def test_split_rows_is_disjoint_and_seeded():
    table = data.generate_synthetic(100, 4, 2, data.Task.CLASSIFICATION, seed=2)
    train, test = data.split_rows(table, test_fraction=0.3, seed=11)
    train2, _ = data.split_rows(table, test_fraction=0.3, seed=11)
    assert train.num_rows == 70 and test.num_rows == 30
    assert np.array_equal(train.features, train2.features)
    # every original row appears exactly once across the two sides
    stacked = np.vstack([train.features, test.features])
    assert stacked.shape == table.features.shape
    order_orig = np.lexsort(table.features.T)
    order_stacked = np.lexsort(stacked.T)
    assert np.array_equal(table.features[order_orig], stacked[order_stacked])


def test_vertical_split_partitions_columns_and_keeps_labels_active():
    table = data.generate_synthetic(60, 10, 3, data.Task.CLASSIFICATION, seed=4)
    view = data.vertical_split(table, num_active=4, seed=9)
    assert view.active_features.shape == (60, 4)
    assert view.passive_features.shape == (60, 6)
    together = sorted(view.active_columns.tolist() + view.passive_columns.tolist())
    assert together == list(range(10))
    assert np.array_equal(view.labels, table.labels)
    # same seed on a second table with the same width gives the same columns
    other = data.vertical_split(table, num_active=4, seed=9)
    assert np.array_equal(view.active_columns, other.active_columns)
    different = data.vertical_split(table, num_active=4, seed=10)
    assert not np.array_equal(view.active_columns, different.active_columns)
    for col_pos, col in enumerate(view.active_columns):
        want = table.features[:, col].astype(np.float32)
        assert np.array_equal(view.active_features[:, col_pos], want)


def test_batch_plan_partitions_all_rows_exactly_once():
    plan = data.make_batch_plan(1000, 256, seed=3)
    assert [b.size for b in plan.batches] == [256, 256, 256, 232]
    assert plan.num_batches == broker.channel_count_for(1000, 256)
    seen = np.concatenate([b.indices for b in plan.batches])
    assert np.array_equal(np.sort(seen), np.arange(1000))
    # batch ids are dense and ranges tile [0, n)
    assert [b.batch_id for b in plan.batches] == list(range(4))
    assert plan.batches[0].start == 0 and plan.batches[-1].stop == 1000
    for prev, nxt in zip(plan.batches, plan.batches[1:]):
        assert prev.stop == nxt.start


def test_batch_plan_reshuffles_with_seed():
    a = data.make_batch_plan(100, 32, seed=1)
    b = data.make_batch_plan(100, 32, seed=1)
    c = data.make_batch_plan(100, 32, seed=2)
    assert np.array_equal(a.permutation, b.permutation)
    assert not np.array_equal(a.permutation, c.permutation)


def test_single_batch_plan_when_batch_covers_everything():
    plan = data.make_batch_plan(77, 77, seed=0)
    assert plan.num_batches == 1
    assert plan.batches[0].sample_range == (0, 77)


# -- copy-free splits ------------------------------------------------------------


def _assert_same_bits(got: np.ndarray, want: np.ndarray, dtype=np.float64) -> None:
    assert got.dtype == want.dtype == dtype
    assert got.flags.c_contiguous and got.shape == want.shape
    as_bits = f"u{got.itemsize}"  # an unsigned integer as wide as the float
    assert np.array_equal(got.view(as_bits), want.view(as_bits))


VIEW_DTYPES = {"active_features": np.float32, "passive_features": np.float32,
               "labels": np.float64}


def _assert_same_views(got: data.VerticalDataset, want: data.VerticalDataset) -> None:
    for name, dtype in VIEW_DTYPES.items():
        _assert_same_bits(getattr(got, name), getattr(want, name), dtype)
    assert np.array_equal(got.active_columns, want.active_columns)
    assert np.array_equal(got.passive_columns, want.passive_columns)


BLOCK = data._BLOCK_ROWS


@pytest.mark.parametrize(
    "rows, features, informative",
    [(BLOCK * 2 + 37, 30, 12), (BLOCK * 2, 10, None), (BLOCK - 1, 7, 7), (5, 3, None)],
)
@pytest.mark.parametrize("task", [data.Task.CLASSIFICATION, data.Task.REGRESSION])
def test_generate_synthetic_is_bit_identical_to_copying_oracle(rows, features, informative, task):
    got = data.generate_synthetic(rows, features, informative, task, seed=rows, separation=0.3)
    want = copying_generate_synthetic(rows, features, informative, task, seed=rows, separation=0.3)
    _assert_same_bits(got.features, want.features.astype(np.float32), np.float32)
    _assert_same_bits(got.labels, want.labels)


def _csv_table(tmp_path) -> data.LabeledTable:
    path = tmp_path / "t.csv"
    write_csv(str(path), data.generate_synthetic(150, 9, 3, data.Task.CLASSIFICATION, seed=6))
    return data.load_csv(str(path), "label", data.Task.CLASSIFICATION)


@pytest.mark.parametrize("source", ["classification", "regression", "csv"])
def test_splits_are_bit_identical_to_copying_oracles(source, tmp_path):
    # Generated tables are checked against the float64 oracle path, whose
    # views are cast at the vertical split; a CSV table against its own rows.
    if source == "csv":
        table = wide = _csv_table(tmp_path)
    else:
        table = data.generate_synthetic(BLOCK + 11, 13, None, data.Task(source), seed=2)
        wide = copying_generate_synthetic(BLOCK + 11, 13, None, data.Task(source), seed=2)
    halves = data.split_rows(table, test_fraction=0.3, seed=5)
    oracle_halves = copying_split_rows(wide, test_fraction=0.3, seed=5)
    for got, want in zip(halves, oracle_halves):
        _assert_same_bits(got.features, want.features.astype(np.float32), np.float32)
        _assert_same_bits(got.labels, want.labels)
        assert got.task is want.task
        _assert_same_views(data.vertical_split(got, 4, seed=8), copying_vertical_split(want, 4, seed=8))


def test_split_outputs_are_independent_of_their_input():
    table = data.generate_synthetic(300, 8, 3, data.Task.CLASSIFICATION, seed=1)
    train, test = data.split_rows(table, test_fraction=0.3, seed=2)
    view = data.vertical_split(table, num_active=3, seed=3)
    outputs = (train.features, train.labels, test.features, test.labels)
    kept = [a.copy() for a in outputs]
    kept_view = {name: getattr(view, name).copy() for name in VIEW_DTYPES}
    table.features[...] = 7.0
    table.labels[...] = 0.5
    for got, want in zip(outputs, kept):
        _assert_same_bits(got, want, got.dtype)
    for name, dtype in VIEW_DTYPES.items():
        _assert_same_bits(getattr(view, name), kept_view[name], dtype)


def _traced_peak(build):
    """(peak bytes traced while ``build()`` runs, what it returned)."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    return peak, result


def _peak_over_outputs(build, outputs) -> float:
    """Peak memory traced while ``build()`` runs, over the bytes of what it returns."""
    peak, result = _traced_peak(build)
    return peak / sum(a.nbytes for a in outputs(result))


# The bytes of a GEN_SHAPE table (features and labels) when its features were
# float64: the memory bounds below keep the absolute budgets they had then.
GEN_SHAPE = (8000, 100, 50)
FLOAT64_TABLE = GEN_SHAPE[0] * (GEN_SHAPE[1] + 1) * 8


def test_data_path_writes_each_output_byte_once():
    """A whole-table temporary or a second copy of an output shows up as extra
    peak memory: the splits stay near 1x, the copying oracles reach 1.4-1.5x."""
    # warm up: numpy and the RNG allocate once on first use
    small = data.generate_synthetic(50, 6, 3, seed=0)
    data.vertical_split(data.split_rows(small)[0], num_active=3)

    # generation holds the float32 table, the informative columns in float64
    # and one drawn block; drawing the table in float64 first reads 1.53x
    generated, _ = _traced_peak(
        lambda: data.generate_synthetic(*GEN_SHAPE, data.Task.CLASSIFICATION, seed=1)
    )
    table = data.generate_synthetic(*GEN_SHAPE, data.Task.CLASSIFICATION, seed=1)
    split = _peak_over_outputs(
        lambda: data.split_rows(table, test_fraction=0.3, seed=2),
        lambda halves: [a for t in halves for a in (t.features, t.labels)],
    )
    dealt = _peak_over_outputs(
        lambda: data.vertical_split(table, num_active=50, seed=3),
        lambda v: (v.active_features, v.passive_features, v.labels),
    )
    assert generated <= 1.35 * FLOAT64_TABLE, f"generate_synthetic peak {generated / FLOAT64_TABLE:.2f}x"
    assert split <= 1.05, f"split_rows peak {split:.2f}x its outputs"
    assert dealt <= 1.15, f"vertical_split peak {dealt:.2f}x its outputs"


def test_bench_shaped_path_holds_no_float64_copy():
    """Generate, split the rows and deal both halves, keeping every stage alive
    as a benchmark's input builder does: 1.5x the float64 table in float32
    (table, row splits and views) plus generation's own temporaries.  One
    float64 stage (2.59x when the table was float64) fails it."""
    small = data.generate_synthetic(50, 6, 3, seed=0)  # warm up
    data.vertical_split(data.split_rows(small)[0], num_active=3)

    def build():
        table = data.generate_synthetic(*GEN_SHAPE, data.Task.CLASSIFICATION, seed=1)
        halves = data.split_rows(table, test_fraction=0.3, seed=2)
        return table, halves, [data.vertical_split(t, num_active=50, seed=3) for t in halves]

    peak, _ = _traced_peak(build)
    assert peak <= 1.7 * FLOAT64_TABLE, f"peak {peak / FLOAT64_TABLE:.2f}x the float64 table"


@pytest.mark.parametrize("block_rows", [1, 7, data._BLOCK_ROWS])
def test_table_features_are_the_input_cast_to_float32(block_rows, monkeypatch):
    # 1054 rows leave a partial last block at 7 and at 1024 rows a block.
    wide = copying_generate_synthetic(1054, 9, 4, seed=12)
    wide.features[5, :] *= 1e30  # large magnitudes too, inside the float32 range
    monkeypatch.setattr(data, "_BLOCK_ROWS", block_rows)
    table = data.LabeledTable(wide.features, wide.labels, wide.task)
    _assert_same_bits(table.features, wide.features.astype(np.float32), np.float32)
    assert table.labels is wide.labels  # labels stay as given, float64
    # generation draws and casts in the same blocks and keeps the stream's bits
    got = data.generate_synthetic(1054, 9, 4, seed=12)
    _assert_same_bits(got.features, copying_generate_synthetic(1054, 9, 4, seed=12)
                      .features.astype(np.float32), np.float32)


FLOAT32_MAX = float(np.finfo(np.float32).max)


@pytest.mark.parametrize("value", [1e39, -1e39, np.nextafter(FLOAT32_MAX, np.inf)])
def test_a_finite_value_beyond_float32_fails_at_the_table_naming_features(value):
    wide = copying_generate_synthetic(3000, 8, 4, seed=4)
    wide.features[2500, 5] = value  # finite in float64, inf in float32
    with pytest.raises(ValueError, match="features hold a value beyond the float32 range"):
        data.LabeledTable(wide.features, wide.labels, wide.task)
    wide.features[2500, 5] = FLOAT32_MAX  # the largest that fits
    edge = data.LabeledTable(wide.features, wide.labels, wide.task)
    assert edge.features[2500, 5] == FLOAT32_MAX and np.all(np.isfinite(edge.features))


@pytest.mark.parametrize("cell", ["1e39", "-1e39"])
def test_csv_value_beyond_float32_names_row_and_column(tmp_path, cell):
    path = tmp_path / "wide.csv"
    path.write_text(f"a,b,label\n1.0,2.0,0\n1.5,{cell},1\n")
    with pytest.raises(data.DataFormatError,
                       match=rf"beyond-float32-range value '{cell}' at row 3, column 2"):
        data.load_csv(str(path), "label", data.Task.CLASSIFICATION, standardize=False)
    # standardised, the column fits; a label stays float64 and may exceed float32
    scaled = data.load_csv(str(path), "label", data.Task.CLASSIFICATION)
    assert np.all(np.isfinite(scaled.features))
    path.write_text(f"a,b,label\n1.0,{FLOAT32_MAX!r},{cell}\n")
    raw = data.load_csv(str(path), "label", data.Task.REGRESSION, standardize=False)
    assert raw.features[0, 1] == FLOAT32_MAX and raw.labels[0, 0] == float(cell)


def test_vertical_dataset_takes_only_float32_features():
    view = data.vertical_split(data.generate_synthetic(20, 4, 2, seed=0), num_active=2)
    for name in ("active_features", "passive_features"):
        wide = getattr(view, name).astype(np.float64)
        with pytest.raises(ValueError, match=f"{name} must be float32, got float64"):
            dataclasses.replace(view, **{name: wide})  # runs __post_init__ again


def test_vertical_split_peak_is_its_outputs():
    # The table is already float32, so the split is a gather, and
    # VerticalDataset checks finiteness by min and max, without a mask.
    table = data.generate_synthetic(5000, 60, 20, seed=3)
    data.vertical_split(table, num_active=20, seed=1)  # warm-up
    peak, view = _traced_peak(lambda: data.vertical_split(table, num_active=20, seed=1))
    outputs = sum(getattr(view, name).nbytes for name in VIEW_DTYPES)
    assert peak <= outputs + 8192, (peak, outputs)  # + column indices


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
def test_csv_blocks_keep_every_row_and_its_bits(tmp_path, monkeypatch, ending):
    monkeypatch.setattr(data, "_CSV_BLOCK_ROWS", 2)
    table = copying_generate_synthetic(9, 4, 2, data.Task.CLASSIFICATION, seed=3)
    lines = ["a,b,c,d,label"]
    for r in range(table.num_rows):
        lines += ["", ",".join(repr(float(v)) for v in [*table.features[r], table.labels[r, 0]])]
    path = tmp_path / "blocks.csv"
    path.write_bytes((ending.join(lines) + ending).encode())
    raw = data.load_csv(str(path), "label", data.Task.CLASSIFICATION, standardize=False)
    _assert_same_bits(raw.features, table.features.astype(np.float32), np.float32)
    _assert_same_bits(raw.labels, table.labels)
    scaled = data.load_csv(str(path), "label", data.Task.CLASSIFICATION)
    want = data.standardize_columns(table.features.copy()).astype(np.float32)
    _assert_same_bits(scaled.features, want, np.float32)


@pytest.mark.parametrize(
    "row8, row9, message",
    [
        ("1.0,2.0,0", "1.5,oops,1", r"'oops' at row 9, column 2"),
        ("1.0,2.0,0", "1.5,nan,1", r"'nan' at row 9, column 2"),
        ("1.0,2.0,0", "1.5,1", r"row 9 has 2 cells, expected 3"),
        ("1.0,2.0", "1.5,1", r"row 8 has 2 cells, expected 3"),  # a whole block too narrow
    ],
)
def test_csv_errors_in_a_later_block_name_the_file_row(tmp_path, monkeypatch, row8, row9, message):
    monkeypatch.setattr(data, "_CSV_BLOCK_ROWS", 2)
    lines = ["a,b,label", "1.0,2.0,0", "", "1.0,2.0,1", "1.0,2.0,0", "1.0,2.0,1", "", row8, row9]
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines + ["1.0,2.0,1"]) + "\n")
    with pytest.raises(data.DataFormatError, match=message):
        data.load_csv(str(path), "label", data.Task.CLASSIFICATION)


def test_load_csv_peak_stays_within_twice_its_output(tmp_path):
    """Cells are converted a block of rows at a time, so the peak is the float64
    parse, the float32 table cast from it and the standardisation's
    temporaries; holding the whole file as str cells first peaked at 13.8x."""
    _csv_table(tmp_path)  # warm up
    table = data.generate_synthetic(20000, 50, 10, data.Task.CLASSIFICATION, seed=1)
    path = tmp_path / "big.csv"
    header = ",".join([f"f{i}" for i in range(50)] + ["label"])
    np.savetxt(path, np.hstack([table.features, table.labels]), fmt="%.17g", delimiter=",",
               header=header, comments="")
    del table
    float64_output = 20000 * (50 + 1) * 8  # the output's bytes when its features were float64
    peak, _ = _traced_peak(lambda: data.load_csv(str(path), "label", data.Task.CLASSIFICATION))
    assert peak <= 2.0 * float64_output, f"load_csv peak {peak / float64_output:.2f}x"
