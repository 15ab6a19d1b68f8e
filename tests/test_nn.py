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
        full = [nn.LayerGrads(g.d_weight.copy(), g.d_bias.copy()) for g in full]
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


def test_cross_entropy_is_bit_identical_to_clip_sum_oracle():
    rng = np.random.default_rng(31)
    eps = nn.EPS_PROB
    edges = [0.0, eps, np.nextafter(eps, 0.0), np.nextafter(eps, 1.0), 0.5,
             1.0 - eps, np.nextafter(1.0 - eps, 0.0), np.nextafter(1.0 - eps, 2.0), 1.0]
    for rows in (1, 32, 257):
        pred = rng.uniform(0.0, 1.0, size=(rows, 1))
        pred.ravel()[: len(edges)] = edges[:rows]
        y = rng.integers(0, 2, size=(rows, 1)).astype(np.float64)
        loss, grad = nn.cross_entropy_loss(pred, y)
        want_loss, want_grad = oracles.clip_sum_cross_entropy_loss(pred, y)
        assert loss.hex() == want_loss.hex()
        assert np.array_equal(bits(grad), bits(want_grad))
    pred[3, 0] = np.nan  # propagates to the loss; the gradient there is zero
    loss, grad = nn.cross_entropy_loss(pred, y)
    want_loss, want_grad = oracles.clip_sum_cross_entropy_loss(pred, y)
    assert math.isnan(loss) and math.isnan(want_loss)
    assert grad[3, 0] == 0.0 and np.array_equal(bits(grad), bits(want_grad))


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


def _logit_cases(rng: np.random.Generator):
    edges = np.array([0.0, -0.0, 1e-300, 0.5, 20.0, -20.0, 36.0, 37.0, 40.0, -40.0,
                      700.0, -700.0, 745.0, -745.0, 800.0, -800.0])
    for rows in (1, 2, 32, 257):
        z = rng.normal(0.0, 10.0 ** float(rng.integers(0, 3)), size=(rows, 1))
        z.ravel()[: min(rows, edges.size)] = edges[:rows]
        rng.shuffle(z)
        yield z, rng.integers(0, 2, size=(rows, 1)).astype(np.float64)


def test_logistic_loss_matches_mpmath_oracle_up_to_800():
    # Each entry may miss by a few ulps of max(1, |z|): softplus(z) - y*z
    # cancels for large |z|, and so does z - softplus(z) in the gradient.
    rng = np.random.default_rng(43)
    eps = np.finfo(np.float64).eps
    largest = 0.0
    for z, y in _logit_cases(rng):
        loss, grad = nn.logistic_loss(z, y)
        want_loss, want_grad = oracles.mp_logistic_loss(z, y)
        scale = np.maximum(1.0, np.abs(z))
        assert abs(loss - want_loss) <= 4 * eps * float(np.mean(scale)), (loss, want_loss)
        assert np.all(np.abs(grad - want_grad) <= 4 * eps * scale / z.shape[0])
        assert math.isfinite(loss) and np.all(np.isfinite(grad))
        largest = max(largest, float(np.max(np.abs(z))))
    assert largest == 800.0
    for bad in (np.nan, np.inf, -np.inf):  # what aborts a run
        z = np.array([[0.5], [bad]])
        with np.errstate(invalid="ignore"):
            for y in (np.ones((2, 1)), np.zeros((2, 1))):
                assert not math.isfinite(nn.logistic_loss(z, y)[0])


def test_logistic_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(47)
    worst = 0.0
    for seed in range(12):
        rows, width = int(rng.integers(2, 9)), int(rng.integers(2, 17))
        model = nn.init_mlp([width, 8, 1], [nn.Activation.RELU, nn.Activation.IDENTITY], seed=seed)
        for layer in model.layers:
            layer.bias[:] = rng.uniform(0.05, 0.3, size=layer.bias.shape)
        x = rng.normal(0.0, 2.0, size=(rows, width))
        y = rng.integers(0, 2, size=(rows, 1)).astype(np.float64)
        out, tape = nn.forward(model, x)
        loss, d_out = nn.logistic_loss(out, y)
        h = 1e-6
        for r in range(rows):  # the loss against its own logits
            bumped = out.copy()
            bumped[r, 0] += h
            up = nn.logistic_loss(bumped, y)[0]
            bumped[r, 0] -= 2 * h
            down = nn.logistic_loss(bumped, y)[0]
            assert abs((up - down) / (2 * h) - d_out[r, 0]) <= 1e-8
        grads, d_input = nn.backward(model, tape, d_out)
        for got, want in zip(grads, oracles.fd_model_grads(model, x, y, "logit")):
            worst = max(worst, oracles.max_relative_error(got.d_weight, want.d_weight),
                        oracles.max_relative_error(got.d_bias, want.d_bias))
        worst = max(worst, oracles.max_relative_error(
            d_input, oracles.fd_input_grad(model, x, y, "logit")))
    assert worst <= 1e-5, f"worst relative error {worst:.3e}"


def _uint_bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.uint64 if a.dtype == np.float64 else np.uint32)


def _random_model(rng: np.random.Generator, seed: int, dtype) -> nn.MlpModel:
    kinds = list(nn.Activation)
    depth = int(rng.integers(1, 5))
    dims = [int(rng.integers(1, 33)) for _ in range(depth + 1)]
    acts = [kinds[int(rng.integers(0, len(kinds)))] for _ in range(depth)]
    model = nn.init_mlp(dims, acts, seed=seed, dtype=dtype)
    model.params[:] = rng.normal(0.0, 1.0, size=model.params.shape)
    return model


def test_flat_updates_are_bit_identical_to_per_layer_oracles():
    rng = np.random.default_rng(53)
    for seed in range(40):
        dtype = (np.float32, np.float64)[seed % 2]
        model = _random_model(rng, seed, dtype)
        assert all(np.shares_memory(layer.weight, model.params) for layer in model.layers)
        model.grad[:] = rng.normal(0.0, 1.0, size=model.grad.shape)
        model.grad[rng.random(model.grad.shape) < 0.1] = -0.0
        grads = [nn.LayerGrads(g.d_weight.copy(), g.d_bias.copy()) for g in model.grads]
        twin = model.clone()
        eta = float(rng.uniform(1e-4, 1.0))
        nn.sgd_step(model, eta)  # one flat update of the workspace
        oracles.per_layer_sgd_step(twin, grads, eta)
        assert np.array_equal(_uint_bits(model.params), _uint_bits(twin.params)), seed

        source = model.clone()
        source.params[:] = rng.normal(size=source.params.shape)
        mine, theirs = model.clone(), model.clone()
        mine.load_from(source)
        oracles.per_layer_load_from(theirs, source)
        assert np.array_equal(_uint_bits(mine.params), _uint_bits(theirs.params)), seed
        assert not np.shares_memory(mine.params, source.params)

        group = [model] + [model.clone() for _ in range(int(rng.integers(0, 4)))]
        for other in group[1:]:
            other.params[:] = rng.normal(size=other.params.shape)
        averaged = nn.average_models(group)
        for layer, (weight, bias) in zip(averaged.layers, oracles.per_layer_average(group)):
            assert np.array_equal(_uint_bits(layer.weight), _uint_bits(weight)), seed
            assert np.array_equal(_uint_bits(layer.bias), _uint_bits(bias)), seed


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_backward_into_the_workspace_keeps_the_bits(dtype):
    rng = np.random.default_rng(59)
    for seed in range(40):
        model, x = _random_forward_case(rng, seed)
        model = nn.MlpModel([nn.Layer(layer.weight.astype(dtype), layer.bias.astype(dtype),
                                      layer.activation) for layer in model.layers])
        x = x.astype(dtype)
        out, tape = nn.forward(model, x)
        d_out = rng.normal(size=out.shape).astype(dtype)
        d_out[rng.random(d_out.shape) < 0.1] = -0.0
        kept = d_out.copy()
        want, want_input = oracles.allocating_backward(model, tape, d_out)
        got, got_input = nn.backward(model, tape, d_out)
        assert got is model.grads
        assert np.array_equal(_uint_bits(d_out), _uint_bits(kept))  # the caller's array is read only
        assert np.array_equal(_uint_bits(got_input), _uint_bits(want_input)), seed
        for mine, theirs in zip(got, want):
            assert np.array_equal(_uint_bits(mine.d_weight), _uint_bits(theirs.d_weight)), seed
            assert np.array_equal(_uint_bits(mine.d_bias), _uint_bits(theirs.d_bias)), seed


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("dims", [[1, 1], [1, 4, 1], [5, 1, 3], [6, 1, 1, 2], [4, 3, 1]])
def test_dot_products_keep_the_bits_at_edge_shapes(dims, rows, dtype):
    # B = 1, width-1 layers and a width-1 input are where BLAS may take a
    # matrix-vector or outer-product path instead of a GEMM.
    rng = np.random.default_rng(61)
    for activation in (nn.Activation.RELU, nn.Activation.SIGMOID):
        acts = [activation] * (len(dims) - 2) + [nn.Activation.IDENTITY]
        model = nn.init_mlp(dims, acts, seed=len(dims), dtype=dtype)
        model.params[:] = rng.normal(size=model.params.size)  # biases too
        x = rng.normal(size=(rows, dims[0])).astype(dtype)
        out, tape = nn.forward(model, x)
        want_out, _, want_post = oracles.out_of_place_forward(model, x)
        assert np.array_equal(_uint_bits(out), _uint_bits(want_out))
        for mine, theirs in zip(tape.postacts, want_post):
            assert np.array_equal(_uint_bits(mine), _uint_bits(theirs))
        d_out = rng.normal(size=out.shape).astype(dtype)
        for input_grad in (True, False):
            want, want_input = oracles.allocating_backward(model, tape, d_out, input_grad)
            got, got_input = nn.backward(model, tape, d_out, input_grad=input_grad)
            assert (got_input is None) == (want_input is None) == (not input_grad)
            if input_grad:
                assert np.array_equal(_uint_bits(got_input), _uint_bits(want_input))
            for mine, theirs in zip(got, want):
                assert np.array_equal(_uint_bits(mine.d_weight), _uint_bits(theirs.d_weight))
                assert np.array_equal(_uint_bits(mine.d_bias), _uint_bits(theirs.d_bias))


def test_a_pickled_model_keeps_its_flat_layout():
    import pickle

    model = _random_model(np.random.default_rng(61), 3, np.float32)
    back = pickle.loads(pickle.dumps(model))
    assert np.array_equal(back.params, model.params) and back.dtype == model.dtype
    assert all(np.shares_memory(layer.weight, back.params) for layer in back.layers)
    assert back.param_version == model.param_version


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
    grads = [(g.d_weight.copy(), g.d_bias.copy()) for g in grads]  # the step scales the workspace
    before = [(l.weight.copy(), l.bias.copy()) for l in model.layers]
    version = model.param_version
    nn.sgd_step(model, eta=0.05)
    assert model.param_version == version + 1
    for (w0, b0), layer, (d_weight, d_bias) in zip(before, model.layers, grads):
        assert np.array_equal(layer.weight, w0 - 0.05 * d_weight)
        assert np.array_equal(layer.bias, b0 - 0.05 * d_bias)


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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_every_array_stays_in_the_model_dtype(dtype):
    # A silent upcast anywhere would run the float32 bottoms' GEMMs in float64.
    acts = [nn.Activation.RELU, nn.Activation.SIGMOID, nn.Activation.IDENTITY]
    model = nn.init_mlp([6, 9, 5, 3], acts, seed=3, dtype=dtype)
    x = np.random.default_rng(3).normal(size=(7, 6)).astype(dtype)
    out, tape = nn.forward(model, x)
    grads, d_input = nn.backward(model, tape, np.ones(out.shape, dtype=dtype))
    arrays = [out, d_input, nn.predict(model, x), *tape.inputs, *tape.postacts]
    arrays += [a for grad in grads for a in (grad.d_weight, grad.d_bias)]
    nn.sgd_step(model, eta=0.1)
    averaged = nn.average_models([model, model.clone()])
    arrays += [a for m in (model, averaged) for layer in m.layers
               for a in (layer.weight, layer.bias)]
    assert model.dtype == averaged.dtype == dtype
    assert [a.dtype for a in arrays] == [np.dtype(dtype)] * len(arrays)


def test_float32_init_is_the_float64_draw_rounded():
    dims, acts = [7, 16, 3], [nn.Activation.RELU, nn.Activation.SIGMOID]
    wide = nn.init_mlp(dims, acts, seed=123)
    narrow = nn.init_mlp(dims, acts, seed=123, dtype=np.float32)
    for lw, ln in zip(wide.layers, narrow.layers):
        assert np.array_equal(ln.weight, lw.weight.astype(np.float32))
        assert ln.bias.dtype == np.float32 and np.all(ln.bias == 0.0)


def test_dtype_mismatches_raise():
    acts = [nn.Activation.RELU, nn.Activation.IDENTITY]
    narrow = nn.init_mlp([3, 4, 2], acts, seed=0, dtype=np.float32)
    wide = nn.init_mlp([3, 4, 2], acts, seed=0)
    x = np.ones((5, 3))
    with pytest.raises(ValueError, match="input is float64"):
        nn.forward(narrow, x)
    with pytest.raises(ValueError, match="input is float64"):
        nn.predict(narrow, x)
    out, tape = nn.forward(narrow, x.astype(np.float32))
    with pytest.raises(ValueError, match="d_output is float64"):
        nn.backward(narrow, tape, np.ones(out.shape))
    with pytest.raises(ValueError, match="dtype"):
        nn.MlpModel([narrow.layers[0], wide.layers[1]])
    with pytest.raises(ValueError, match="bias is float64"):
        nn.Layer(narrow.layers[0].weight, np.zeros((1, 4)), nn.Activation.RELU)
    with pytest.raises(ValueError, match="dtype"):
        nn.average_models([narrow, wide])
    with pytest.raises(ValueError, match="dtype"):
        narrow.load_from(wide)
    with pytest.raises(ValueError, match="float32 or float64"):
        nn.forward(wide, x.astype(np.float16))
