"""Unit tests for the dense-MLP math against loop and finite-difference oracles."""

import math

import numpy as np
import pytest

from splitbus import nn
import oracles


def test_forward_matches_per_unit_loop_oracle():
    for seed in range(8):
        model, x, _, _ = oracles.random_mlp_case(seed)
        fast, _ = nn.forward(model, x)
        slow = oracles.loop_forward(model, x)
        assert np.allclose(fast, slow, rtol=0, atol=1e-12)


def test_backward_matches_finite_differences():
    worst = 0.0
    for seed in range(30):
        model, x, y, loss = oracles.random_mlp_case(seed)
        out, tape = nn.forward(model, x)
        if loss == "ce":
            _, d_out = nn.cross_entropy_loss(out, y)
        else:
            _, d_out = nn.mse_loss(out, y)
        analytic, _ = nn.backward(model, tape, d_out)
        numeric = oracles.fd_model_grads(model, x, y, loss)
        for a, f in zip(analytic, numeric):
            worst = max(worst, oracles.max_relative_error(a.d_weight, f.d_weight))
            worst = max(worst, oracles.max_relative_error(a.d_bias, f.d_bias))
    assert worst <= 1e-5, f"worst relative error {worst:.3e}"


def test_input_gradient_matches_finite_differences():
    # The input gradient is what crosses the cut layer, so it gets its own check.
    for seed in (3, 11, 27):
        model, x, y, loss = oracles.random_mlp_case(seed)
        out, tape = nn.forward(model, x)
        d_out = (
            nn.cross_entropy_loss(out, y)[1] if loss == "ce" else nn.mse_loss(out, y)[1]
        )
        _, d_input = nn.backward(model, tape, d_out)
        numeric = oracles.fd_input_grad(model, x, y, loss)
        assert oracles.max_relative_error(d_input, numeric) <= 1e-5


def test_backward_without_input_grad_keeps_parameter_grads():
    for seed in range(12):
        model, x, y, loss = oracles.random_mlp_case(seed)
        out, tape = nn.forward(model, x)
        d_out = (
            nn.cross_entropy_loss(out, y)[1] if loss == "ce" else nn.mse_loss(out, y)[1]
        )
        full, d_input = nn.backward(model, tape, d_out)
        params_only, no_input = nn.backward(model, tape, d_out, input_grad=False)
        assert d_input is not None and no_input is None
        for a, b in zip(full, params_only):
            assert np.array_equal(a.d_weight, b.d_weight)
            assert np.array_equal(a.d_bias, b.d_bias)


@pytest.mark.parametrize("kind", list(nn.Activation))
def test_activation_backward_equals_float_mask_oracle(kind):
    rng = np.random.default_rng(17)
    for _ in range(20):
        preact = rng.normal(size=(9, 7))
        preact[rng.random(preact.shape) < 0.2] = 0.0  # exact kinks
        preact[0, 0] = 0.0
        preact[0, 1:5] = (-0.0, np.nan, np.inf, -np.inf)
        postact = nn._activate(kind, preact.copy())
        upstream = rng.normal(size=preact.shape)  # both signs: signed zeros after the mask
        upstream[rng.random(upstream.shape) < 0.1] = -0.0
        fast = nn._activation_backward(kind, upstream, postact)
        slow = oracles.float_mask_activation_backward(kind, upstream, preact, postact)
        assert fast.dtype == np.float64
        assert np.array_equal(fast.view(np.uint64), slow.view(np.uint64))  # bits, sign of 0 too


def bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.uint64)


def test_sigmoid_is_bit_identical_to_indexed_oracle():
    rng = np.random.default_rng(23)
    edges = np.array([0.0, -0.0, 700.5, -700.5, 745.2, -745.2, 800.0, -800.0, 1e300, -1e300])
    for scale in (1.0, 30.0, 1000.0):
        z = rng.normal(0.0, scale, size=(64, 9))
        z.ravel()[: edges.size] = edges
        assert np.array_equal(bits(nn._sigmoid(z)), bits(oracles.indexed_sigmoid(z)))


def _random_forward_case(rng: np.random.Generator, seed: int):
    """Random depth and widths, hidden sigmoids included, inputs scaled so
    that some preactivations pass |z| = 700 and exact (signed) zeros occur."""
    kinds = list(nn.Activation)
    depth = int(rng.integers(1, 5))
    dims = [int(rng.integers(1, 33)) for _ in range(depth + 1)]
    acts = [kinds[int(rng.integers(0, len(kinds)))] for _ in range(depth)]
    model = nn.init_mlp(dims, acts, seed=seed)
    for layer in model.layers:
        layer.bias[:] = rng.normal(0.0, 1.0, size=layer.bias.shape)
    x = rng.normal(0.0, 10.0 ** float(rng.integers(0, 4)), size=(int(rng.integers(1, 65)), dims[0]))
    x[rng.random(x.shape) < 0.1] = 0.0
    x[rng.random(x.shape) < 0.05] = -0.0
    return model, x


def test_forward_is_bit_identical_to_out_of_place_oracle():
    rng = np.random.default_rng(29)
    for seed in range(40):
        model, x = _random_forward_case(rng, seed)
        out, tape = nn.forward(model, x)
        ref_out, _, ref_post = oracles.out_of_place_forward(model, x)
        assert np.array_equal(bits(out), bits(ref_out)), seed
        for mine, theirs in zip(tape.postacts, ref_post):
            assert np.array_equal(bits(mine), bits(theirs)), seed


def test_postact_tape_is_bit_identical_to_preact_tape_oracle():
    # The tape no longer keeps preactivations and backward reads the ReLU
    # mask off the output; outputs and every gradient must keep their bits.
    rng = np.random.default_rng(31)
    largest_pre, hidden_sigmoids = 0.0, 0
    for seed in range(48):
        model, x = _random_forward_case(rng, seed)
        hidden_sigmoids += sum(
            layer.activation is nn.Activation.SIGMOID for layer in model.layers[:-1]
        )
        out, tape = nn.forward(model, x)
        ref_out, ref_pre, ref_post = oracles.out_of_place_forward(model, x)
        largest_pre = max([largest_pre] + [float(np.max(np.abs(p))) for p in ref_pre])
        assert np.array_equal(bits(out), bits(ref_out)), seed
        for mine, theirs in zip(tape.postacts, ref_post):
            assert np.array_equal(bits(mine), bits(theirs)), seed
        d_out = rng.normal(size=out.shape)
        d_out[rng.random(d_out.shape) < 0.1] = -0.0
        grads, d_input = nn.backward(model, tape, d_out)
        ref_grads, ref_input = oracles.preact_mask_backward(model, x, ref_pre, ref_post, d_out)
        assert np.array_equal(bits(d_input), bits(ref_input)), seed
        for mine, theirs in zip(grads, ref_grads):
            assert np.array_equal(bits(mine.d_weight), bits(theirs.d_weight)), seed
            assert np.array_equal(bits(mine.d_bias), bits(theirs.d_bias)), seed
    assert largest_pre > 700.0 and hidden_sigmoids > 0


def test_predict_is_bit_identical_to_forward_up_to_one_block():
    rng = np.random.default_rng(37)
    for seed, rows in enumerate((1, 2, 63, 500, nn.PREDICT_BLOCK_ROWS)):
        model, _ = _random_forward_case(rng, seed)
        x = rng.normal(0.0, 3.0, size=(rows, model.in_dim))
        x[rng.random(x.shape) < 0.05] = -0.0
        assert np.array_equal(bits(nn.predict(model, x)), bits(nn.forward(model, x)[0]))


def test_predict_matches_forward_over_several_blocks():
    # Past one block, BLAS may block the products differently, so only ulps may move.
    rng = np.random.default_rng(41)
    for seed, rows in enumerate((nn.PREDICT_BLOCK_ROWS + 1, 2 * nn.PREDICT_BLOCK_ROWS + 17, 3000)):
        model = nn.init_mlp(
            [40, 64, 32, 1], [nn.Activation.RELU, nn.Activation.SIGMOID, nn.Activation.IDENTITY],
            seed=seed,
        )
        x = rng.normal(size=(rows, 40))
        got = nn.predict(model, x)
        want = nn.forward(model, x)[0]
        assert got.shape == want.shape
        assert oracles.max_relative_error(got, want) <= 1e-12


def test_cross_entropy_at_half_is_log_two():
    pred = np.full((2, 1), 0.5)
    target = np.array([[1.0], [0.0]])
    loss, _ = nn.cross_entropy_loss(pred, target)
    assert loss == pytest.approx(math.log(2.0), rel=0, abs=1e-15)


def test_cross_entropy_clamp_keeps_loss_finite_and_grad_zero():
    pred = np.array([[0.0], [1.0]])
    target = np.array([[1.0], [0.0]])
    loss, grad = nn.cross_entropy_loss(pred, target)
    assert math.isfinite(loss)
    # Row 1: -log(clamp(0)); row 2: -log(1 - clamp(1)), in float arithmetic.
    expected = -(math.log(1e-12) + math.log1p(-(1.0 - 1e-12))) / 2.0
    assert loss == expected
    assert np.all(grad == 0.0)


def test_mse_loss_and_gradient_formula():
    pred = np.array([[1.0], [3.0]])
    target = np.array([[0.0], [1.0]])
    loss, grad = nn.mse_loss(pred, target)
    assert loss == pytest.approx((1.0 + 4.0) / 2.0)
    assert np.array_equal(grad, np.array([[1.0], [2.0]]))


def test_init_is_seeded_and_bounded():
    dims = [7, 16, 3]
    acts = [nn.Activation.RELU, nn.Activation.SIGMOID]
    a = nn.init_mlp(dims, acts, seed=123)
    b = nn.init_mlp(dims, acts, seed=123)
    c = nn.init_mlp(dims, acts, seed=124)
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.weight, lb.weight)
        assert np.all(la.bias == 0.0)
    assert any(
        not np.array_equal(la.weight, lc.weight) for la, lc in zip(a.layers, c.layers)
    )
    for layer, fan_in, fan_out in zip(a.layers, dims, dims[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(layer.weight) <= limit)


def test_sgd_step_applies_exact_update_and_bumps_version():
    model, x, y, loss = oracles.random_mlp_case(5)
    out, tape = nn.forward(model, x)
    d_out = nn.cross_entropy_loss(out, y)[1] if loss == "ce" else nn.mse_loss(out, y)[1]
    grads, _ = nn.backward(model, tape, d_out)
    before = [(l.weight.copy(), l.bias.copy()) for l in model.layers]
    version = model.param_version
    nn.sgd_step(model, grads, eta=0.05)
    assert model.param_version == version + 1
    for (w0, b0), layer, grad in zip(before, model.layers, grads):
        assert np.array_equal(layer.weight, w0 - 0.05 * grad.d_weight)
        assert np.array_equal(layer.bias, b0 - 0.05 * grad.d_bias)


def test_average_models_matches_elementwise_mean():
    dims = [4, 8, 1]
    acts = [nn.Activation.RELU, nn.Activation.IDENTITY]
    models = [nn.init_mlp(dims, acts, seed=s) for s in (1, 2, 3)]
    avg = nn.average_models(models)
    for idx, layer in enumerate(avg.layers):
        expect = (
            models[0].layers[idx].weight
            + models[1].layers[idx].weight
            + models[2].layers[idx].weight
        ) / 3.0
        assert np.array_equal(layer.weight, expect)


def test_average_of_single_model_is_bit_identical():
    model = nn.init_mlp([3, 5, 1], [nn.Activation.RELU, nn.Activation.SIGMOID], seed=9)
    avg = nn.average_models([model])
    for la, lb in zip(avg.layers, model.layers):
        assert np.array_equal(la.weight, lb.weight)
        assert np.array_equal(la.bias, lb.bias)


def test_average_models_rejects_structure_mismatch():
    a = nn.init_mlp([3, 5, 1], [nn.Activation.RELU, nn.Activation.SIGMOID], seed=1)
    b = nn.init_mlp([3, 4, 1], [nn.Activation.RELU, nn.Activation.SIGMOID], seed=1)
    with pytest.raises(ValueError):
        nn.average_models([a, b])


def test_forward_rejects_bad_input():
    model = nn.init_mlp([3, 2], [nn.Activation.IDENTITY], seed=0)
    with pytest.raises(ValueError):
        nn.forward(model, np.zeros((4, 5)))
    with pytest.raises(ValueError):
        nn.forward(model, np.zeros((4, 3), dtype=np.float32))
    with pytest.raises(ValueError):
        nn.predict(model, np.zeros((4, 5)))


def test_load_from_copies_values_not_references():
    src = nn.init_mlp([2, 3], [nn.Activation.IDENTITY], seed=4)
    dst = nn.init_mlp([2, 3], [nn.Activation.IDENTITY], seed=5)
    dst.load_from(src)
    assert np.array_equal(dst.layers[0].weight, src.layers[0].weight)
    src.layers[0].weight[0, 0] += 1.0
    assert not np.array_equal(dst.layers[0].weight, src.layers[0].weight)
