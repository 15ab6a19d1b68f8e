"""Dataset tests: generators, CSV round trips, vertical splits, batch plans."""

import numpy as np
import pytest

from splitbus import broker, data, nn


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
    for _ in range(300):
        out, tape = nn.forward(model, train.features)
        _, d_out = nn.cross_entropy_loss(out, train.labels)
        grads, _ = nn.backward(model, tape, d_out)
        nn.sgd_step(model, grads, eta=0.5)
    scores, _ = nn.forward(model, test.features)
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
    data.write_csv(str(path), table)
    reloaded = data.load_csv(str(path), "label", data.Task.REGRESSION, standardize=False)
    assert np.allclose(reloaded.features, table.features, rtol=0, atol=1e-9)
    assert np.allclose(reloaded.labels, table.labels, rtol=0, atol=1e-9)
    # and with standardisation on, re-standardising a standardised table is a no-op
    std_once = data.load_csv(str(path), "label", data.Task.REGRESSION)
    data.write_csv(str(path), std_once)
    std_twice = data.load_csv(str(path), "label", data.Task.REGRESSION)
    assert np.allclose(std_twice.features, std_once.features, rtol=0, atol=1e-9)


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


def test_standardize_columns_centres_and_scales():
    rng = np.random.default_rng(0)
    x = rng.normal(3.0, 5.0, size=(400, 4))
    x[:, 2] = 9.0  # constant column: centred but not divided
    z = data.standardize_columns(x)
    assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(z[:, [0, 1, 3]].std(axis=0), 1.0, atol=1e-12)
    assert np.allclose(z[:, 2], 0.0, atol=1e-12)


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
        assert np.array_equal(view.active_features[:, col_pos], table.features[:, col])


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
