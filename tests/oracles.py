"""Independent oracles used across the test suite.

Everything in here deliberately avoids the library's fast paths: forward
passes are per-unit Python loops, gradients come from central finite
differences, search answers come from plain enumeration, and closed-form
spot values are recomputed with mpmath at 50 digits.  Tests compare the
package against these, not the other way around.
"""

from __future__ import annotations

import math

import numpy as np

from splitbus import nn


def loop_forward(model: nn.MlpModel, x: np.ndarray) -> np.ndarray:
    """Forward pass written as explicit per-sample, per-unit loops."""
    current = x
    for layer in model.layers:
        rows = current.shape[0]
        fan_in, fan_out = layer.weight.shape
        out = np.zeros((rows, fan_out))
        for r in range(rows):
            for j in range(fan_out):
                acc = layer.bias[0, j]
                for i in range(fan_in):
                    acc += current[r, i] * layer.weight[i, j]
                if layer.activation is nn.Activation.RELU:
                    acc = acc if acc > 0.0 else 0.0
                elif layer.activation is nn.Activation.SIGMOID:
                    acc = 1.0 / (1.0 + math.exp(-acc)) if acc >= 0 else math.exp(acc) / (1.0 + math.exp(acc))
                out[r, j] = acc
        current = out
    return current


def float_mask_activation_backward(
    kind: nn.Activation, upstream: np.ndarray, preact: np.ndarray, postact: np.ndarray
) -> np.ndarray:
    """``upstream`` times the derivative materialised as a float64 array:
    the ReLU mask cast with ``astype``, and ones for the identity."""
    if kind is nn.Activation.RELU:
        deriv = (preact > 0.0).astype(np.float64)
    elif kind is nn.Activation.SIGMOID:
        deriv = postact * (1.0 - postact)
    else:
        deriv = np.ones_like(preact)
    return upstream * deriv


def loop_auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Midrank AUC with tie groups found by a scalar scan over sorted scores."""
    labels = np.asarray(labels).ravel()
    scores = np.asarray(scores).ravel()
    positives = labels == 1.0
    n_pos = int(positives.sum())
    n_neg = labels.size - n_pos
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(labels.size)
    sorted_scores = scores[order]
    i = 0
    while i < labels.size:
        j = i
        while j + 1 < labels.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    rank_sum = float(ranks[positives].sum())
    return (rank_sum - 0.5 * n_pos * (n_pos + 1)) / (n_pos * n_neg)


def _loss_value(model: nn.MlpModel, x: np.ndarray, y: np.ndarray, loss: str) -> float:
    out, _ = nn.forward(model, x)
    if loss == "ce":
        value, _ = nn.cross_entropy_loss(out, y)
    else:
        value, _ = nn.mse_loss(out, y)
    return value


def fd_model_grads(
    model: nn.MlpModel, x: np.ndarray, y: np.ndarray, loss: str, h: float = 1e-5
) -> list[nn.LayerGrads]:
    """Central finite differences of the batch loss w.r.t. every parameter."""
    grads = []
    for layer in model.layers:
        d_weight = np.zeros_like(layer.weight)
        for i in range(layer.weight.shape[0]):
            for j in range(layer.weight.shape[1]):
                orig = layer.weight[i, j]
                layer.weight[i, j] = orig + h
                up = _loss_value(model, x, y, loss)
                layer.weight[i, j] = orig - h
                down = _loss_value(model, x, y, loss)
                layer.weight[i, j] = orig
                d_weight[i, j] = (up - down) / (2.0 * h)
        d_bias = np.zeros_like(layer.bias)
        for j in range(layer.bias.shape[1]):
            orig = layer.bias[0, j]
            layer.bias[0, j] = orig + h
            up = _loss_value(model, x, y, loss)
            layer.bias[0, j] = orig - h
            down = _loss_value(model, x, y, loss)
            layer.bias[0, j] = orig
            d_bias[0, j] = (up - down) / (2.0 * h)
        grads.append(nn.LayerGrads(d_weight, d_bias))
    return grads


def fd_input_grad(
    model: nn.MlpModel, x: np.ndarray, y: np.ndarray, loss: str, h: float = 1e-5
) -> np.ndarray:
    """Central finite differences of the batch loss w.r.t. the input matrix."""
    grad = np.zeros_like(x)
    for r in range(x.shape[0]):
        for c in range(x.shape[1]):
            orig = x[r, c]
            x[r, c] = orig + h
            up = _loss_value(model, x, y, loss)
            x[r, c] = orig - h
            down = _loss_value(model, x, y, loss)
            x[r, c] = orig
            grad[r, c] = (up - down) / (2.0 * h)
    return grad


def max_relative_error(analytic: np.ndarray, reference: np.ndarray) -> float:
    """Largest entry of |a - r|, relative to the gradient tensor's own scale.

    Per-tensor normalisation keeps the metric meaningful for entries whose
    true gradient is orders of magnitude below the finite-difference noise
    floor (~1e-10 absolute with h = 1e-5).
    """
    scale = max(float(np.max(np.abs(analytic))), float(np.max(np.abs(reference))), 1e-8)
    return float(np.max(np.abs(analytic - reference))) / scale


def random_mlp_case(seed: int) -> tuple[nn.MlpModel, np.ndarray, np.ndarray, str]:
    """A random small model + batch for gradient checking (depth<=4, width<=16).

    Biases are re-drawn away from zero: with the library's zero bias init, a
    fully dead ReLU layer leaves downstream preactivations at exactly 0.0,
    which parks the finite-difference probe on the kink.
    """
    rng = np.random.default_rng(seed)
    depth = int(rng.integers(1, 5))
    dims = [int(rng.integers(2, 17)) for _ in range(depth)] + [int(rng.integers(1, 17))]
    loss = "ce" if rng.integers(0, 2) == 0 else "mse"
    acts = [nn.Activation.RELU] * (depth - 1)
    acts.append(nn.Activation.SIGMOID if loss == "ce" else nn.Activation.IDENTITY)
    model = nn.init_mlp(dims, acts, seed=int(rng.integers(0, 2**31)))
    for layer in model.layers:
        layer.bias[:] = rng.uniform(0.05, 0.3, size=layer.bias.shape)
    rows = int(rng.integers(2, 7))
    x = rng.normal(0.0, 1.0, size=(rows, dims[0]))
    if loss == "ce":
        y = rng.integers(0, 2, size=(rows, dims[-1])).astype(np.float64)
    else:
        y = rng.normal(0.0, 1.0, size=(rows, dims[-1]))
    return model, x, y, loss


def indexed_sigmoid(z: np.ndarray) -> np.ndarray:
    """The first ``nn._sigmoid``: each sign branch through boolean indexing."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def out_of_place_forward(
    model: nn.MlpModel, x: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """The first ``nn.forward``, bias added out of place: (output, preacts, postacts)."""
    preacts, postacts = [], []
    current = x
    for layer in model.layers:
        pre = current @ layer.weight + layer.bias
        if layer.activation is nn.Activation.RELU:
            post = np.maximum(pre, 0.0)
        elif layer.activation is nn.Activation.SIGMOID:
            post = indexed_sigmoid(pre)
        else:
            post = pre
        preacts.append(pre)
        postacts.append(post)
        current = post
    return current, preacts, postacts


def preact_mask_backward(
    model: nn.MlpModel,
    x: np.ndarray,
    preacts: list[np.ndarray],
    postacts: list[np.ndarray],
    d_output: np.ndarray,
) -> tuple[list[nn.LayerGrads], np.ndarray]:
    """The first ``nn.backward``, replaying a tape that kept the preactivations
    (``out_of_place_forward``'s) and reading the ReLU mask off ``pre > 0``:
    (per-layer gradients, gradient w.r.t. ``x``)."""
    inputs = [x] + postacts[:-1]
    grads: list[nn.LayerGrads] = [None] * len(model.layers)  # type: ignore[list-item]
    upstream = d_output
    for idx in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[idx]
        if layer.activation is nn.Activation.RELU:
            delta = upstream * (preacts[idx] > 0.0)
        elif layer.activation is nn.Activation.SIGMOID:
            delta = upstream * (postacts[idx] * (1.0 - postacts[idx]))
        else:
            delta = upstream
        grads[idx] = nn.LayerGrads(inputs[idx].T @ delta, delta.sum(axis=0, keepdims=True))
        upstream = delta @ layer.weight.T
    return grads, upstream


# -- delay model oracles -------------------------------------------------------


def mp_stage_time(coef: float, exp: float, batch: int, workers: int, cores: int) -> float:
    """coef * batch**exp * workers / cores at 50 decimal digits."""
    from mpmath import mp, mpf

    with mp.workdps(50):
        return float(mpf(coef) * mpf(batch) ** mpf(exp) * mpf(workers) / mpf(cores))


def mp_iteration_objective(c, w_a: int, w_p: int, batch: int) -> float:
    """High-precision re-evaluation of the planner's objective.

    Each of the two messages is a (batch, cut_width) float64 array behind a
    16-byte header, written out here rather than taken from the broker.
    """
    from mpmath import mp, mpf

    with mp.workdps(50):
        b = mpf(batch)
        active = (
            mpf(c.forward_coef_active) * b ** mpf(c.forward_exp_active)
            + mpf(c.top_forward_coef) * b ** mpf(c.top_forward_exp)
            + mpf(c.backward_coef_active) * b ** mpf(c.backward_exp_active)
            + mpf(c.top_backward_coef) * b ** mpf(c.top_backward_exp)
        ) * mpf(w_a) / mpf(c.cores_active)
        passive = (
            mpf(c.forward_coef_passive) * b ** mpf(c.forward_exp_passive)
            + mpf(c.backward_coef_passive) * b ** mpf(c.backward_exp_passive)
        ) * mpf(w_p) / mpf(c.cores_passive)
        comm = 2 * (16 + 8 * b * mpf(c.cut_width)) / mpf(c.bandwidth_bytes_per_sec)
        return float(max(active, passive) + comm)


def brute_force_search(c, space):
    """Enumerate every grid point through ``iteration_objective``; the oracle
    for ``planner.dp_search``, with the same (cost, B, w_a, w_p) tie-break."""
    from splitbus.planner import InfeasiblePlanError, PlanState, iteration_objective

    best = None
    for w_a in space.workers_active:
        for w_p in space.workers_passive:
            for b in space.batch_candidates:
                try:
                    cost = iteration_objective(c, w_a, w_p, b)
                except InfeasiblePlanError:
                    continue
                key = (cost, b, w_a, w_p)
                if best is None or key < best:
                    best = key
    if best is None:
        raise InfeasiblePlanError("no candidate batch size fits the memory bound")
    cost, b, w_a, w_p = best
    return PlanState(w_a, w_p, b, cost)


def random_delay_constants(rng: np.random.Generator, batch_candidates: list[int]):
    """Valid random constants; the smallest candidate batch always fits."""
    from splitbus.profiler import DelayConstants

    def coef() -> float:
        return float(rng.uniform(0.001, 2.5))

    def expo() -> float:
        return float(rng.uniform(-2.0, 2.0))

    base_a = float(rng.uniform(0.0, 1e6))
    base_p = float(rng.uniform(0.0, 1e6))
    slope_a = float(rng.uniform(1.0, 1e3))
    slope_p = float(rng.uniform(1.0, 1e3))
    smallest = min(batch_candidates)
    need_a = slope_a * smallest
    need_p = slope_p * smallest
    return DelayConstants(
        forward_coef_active=coef(), forward_exp_active=expo(),
        forward_coef_passive=coef(), forward_exp_passive=expo(),
        backward_coef_active=coef(), backward_exp_active=expo(),
        backward_coef_passive=coef(), backward_exp_passive=expo(),
        top_forward_coef=coef(), top_forward_exp=expo(),
        top_backward_coef=coef(), top_backward_exp=expo(),
        cut_width=int(rng.integers(1, 1025)),
        cores_active=int(rng.integers(1, 64)),
        cores_passive=int(rng.integers(1, 64)),
        bandwidth_bytes_per_sec=float(rng.uniform(1e6, 1e10)),
        mem_base_active=base_a,
        mem_base_passive=base_p,
        mem_slope_active=slope_a,
        mem_slope_passive=slope_p,
        mem_budget_active=base_a + need_a * float(rng.uniform(1.001, 50.0)),
        mem_budget_passive=base_p + need_p * float(rng.uniform(1.001, 50.0)),
    )


def realistic_constants(**overrides):
    """A fitted constant set from a real profiling run, frozen as a fixture.

    Negative exponents (per-call time shrinking with batch size) are what
    heavily vectorised stacks actually measure, so the planner tests get
    exercised on that regime rather than on toy monotone curves.
    """
    from splitbus.profiler import DelayConstants

    values = dict(
        forward_coef_active=0.018, forward_exp_active=-0.8015,
        forward_coef_passive=0.010, forward_exp_passive=-1.0071,
        backward_coef_active=0.066, backward_exp_active=-0.6069,
        backward_coef_passive=0.038, backward_exp_passive=-1.0546,
        top_forward_coef=0.011, top_forward_exp=-0.7514,
        top_backward_coef=0.072, top_backward_exp=-0.7834,
        cut_width=16,
        cores_active=32, cores_passive=32,
        bandwidth_bytes_per_sec=1.25e9,
        mem_base_active=1e8, mem_base_passive=1e8,
        mem_slope_active=1e6, mem_slope_passive=1e6,
        mem_budget_active=4e9, mem_budget_passive=4e9,
    )
    values.update(overrides)
    return DelayConstants(**values)
