"""Independent oracles used across the test suite.

Everything in here deliberately avoids the library's fast paths: forward
passes are per-unit Python loops, gradients come from central finite
differences, search answers come from plain enumeration, and closed-form
spot values are recomputed with mpmath at 50 digits.  Tests compare the
package against these, not the other way around.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from splitbus import config, data, nn


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
    elif loss == "logit":
        value, _ = nn.logistic_loss(out, y)
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


def clip_sum_cross_entropy_loss(
    predictions: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    """The first ``nn.cross_entropy_loss``: ``np.clip``, ``np.sum`` and
    ``1.0 - targets`` formed twice."""
    n = predictions.shape[0]
    clamped = np.clip(predictions, nn.EPS_PROB, 1.0 - nn.EPS_PROB)
    loss = float(-np.sum(targets * np.log(clamped) + (1.0 - targets) * np.log1p(-clamped)) / n)
    inside = (predictions > nn.EPS_PROB) & (predictions < 1.0 - nn.EPS_PROB)
    d_pred = -(targets / clamped - (1.0 - targets) / (1.0 - clamped)) / n
    return loss, np.where(inside, d_pred, 0.0)


def mp_logistic_loss(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean of log(1 + e^z) - y*z and its gradient (sigmoid(z) - y)/n at 60 digits."""
    from mpmath import mp, mpf

    with mp.workdps(60):
        n = logits.shape[0]
        total = mpf(0)
        grad = np.empty(logits.shape)
        for idx, (z, y) in enumerate(zip(logits.ravel().tolist(), targets.ravel().tolist())):
            z, y = mpf(z), mpf(y)
            total += mp.log1p(mp.exp(z)) - y * z
            grad.ravel()[idx] = float((1 / (1 + mp.exp(-z)) - y) / n)
        return float(total / n), grad


def allocating_backward(
    model: nn.MlpModel, tape: nn.ForwardTape, d_output: np.ndarray, input_grad: bool = True
) -> tuple[list[nn.LayerGrads], np.ndarray | None]:
    """The first postact-tape ``nn.backward``: each layer's parameter
    gradients in new arrays from ``@`` and ``np.add.reduce``, not written
    into the model's workspace."""
    grads: list[nn.LayerGrads] = [None] * len(model.layers)  # type: ignore[list-item]
    upstream, owned = d_output, False
    for idx in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[idx]
        delta = nn._activation_backward(layer.activation, upstream, tape.postacts[idx], owned)
        grads[idx] = nn.LayerGrads(tape.inputs[idx].T @ delta,
                                   np.add.reduce(delta, axis=0, keepdims=True))
        upstream = delta @ layer.weight.T if idx > 0 or input_grad else None
        owned = True
    return grads, upstream


def per_layer_sgd_step(model: nn.MlpModel, grads: list[nn.LayerGrads], eta: float) -> None:
    """The first ``nn.sgd_step``: ``w -= eta * g`` layer by layer."""
    for layer, grad in zip(model.layers, grads):
        layer.weight -= eta * grad.d_weight
        layer.bias -= eta * grad.d_bias


def per_layer_load_from(dst: nn.MlpModel, src: nn.MlpModel) -> None:
    """The first ``MlpModel.load_from``: one copy per weight and bias."""
    for mine, theirs in zip(dst.layers, src.layers):
        np.copyto(mine.weight, theirs.weight)
        np.copyto(mine.bias, theirs.bias)


def per_layer_average(models: list[nn.MlpModel]) -> list[tuple[np.ndarray, np.ndarray]]:
    """The first ``nn.average_models``: per layer, a left-to-right sum over
    the models divided by their count; (weight, bias) per layer."""
    count = float(len(models))
    averaged = []
    for idx, layer in enumerate(models[0].layers):
        w_sum = layer.weight.copy()
        b_sum = layer.bias.copy()
        for other in models[1:]:
            w_sum += other.layers[idx].weight
            b_sum += other.layers[idx].bias
        averaged.append((w_sum / count, b_sum / count))
    return averaged


# -- data oracles --------------------------------------------------------------


@dataclass
class WideTable:
    """A table as the first data path held it: features in float64.  The
    copying oracles build these, so they stay the float64 reference that
    the float32 tables are compared against."""

    features: np.ndarray
    labels: np.ndarray
    task: data.Task

    @property
    def num_rows(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]


def copying_generate_synthetic(
    num_rows: int,
    num_features: int,
    num_informative: int | None = None,
    task: data.Task = data.Task.CLASSIFICATION,
    seed: int = 0,
    separation: float = 0.35,
) -> WideTable:
    """The first ``data.generate_synthetic``: the whole table drawn at once in
    float64, and the class offsets of all rows built as one (rows,
    informative) temporary and then added."""
    if num_informative is None:
        num_informative = max(1, num_features // 5)
    rng = np.random.default_rng(seed)
    features = rng.normal(0.0, 1.0, size=(num_rows, num_features))
    if task is data.Task.CLASSIFICATION:
        ones = num_rows // 2
        labels = np.zeros((num_rows, 1))
        labels[:ones] = 1.0
        labels = labels[rng.permutation(num_rows)]
        offsets = separation * rng.uniform(0.7, 1.3, size=num_informative)
        signs = 2.0 * labels - 1.0
        features[:, :num_informative] += signs * offsets
    else:
        weights = rng.uniform(-1.0, 1.0, size=(num_informative, 1))
        signal = features[:, :num_informative] @ weights
        noise_scale = 0.1 * float(np.std(signal)) or 0.1
        labels = signal + rng.normal(0.0, noise_scale, size=(num_rows, 1))
    return WideTable(features, labels, task)


def copying_split_rows(
    table: WideTable | data.LabeledTable, test_fraction: float = 0.3, seed: int = 0
) -> tuple[WideTable, WideTable]:
    """The first ``data.split_rows``: fancy-indexed rows, then copied again,
    in the dtype ``table`` holds."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(table.num_rows)
    n_train = table.num_rows - int(round(table.num_rows * test_fraction))
    make = lambda idx: WideTable(table.features[idx].copy(), table.labels[idx].copy(), table.task)
    return make(order[:n_train]), make(order[n_train:])


def copying_vertical_split(
    table: WideTable | data.LabeledTable, num_active: int, seed: int = 0
) -> data.VerticalDataset:
    """The first ``data.vertical_split``: fancy-indexed columns, then copied
    again by a whole-matrix cast to ``data.FEATURE_DTYPE``."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(table.num_features)
    active_cols = np.sort(order[:num_active])
    passive_cols = np.sort(order[num_active:])
    return data.VerticalDataset(
        active_features=table.features[:, active_cols].astype(data.FEATURE_DTYPE),
        passive_features=table.features[:, passive_cols].astype(data.FEATURE_DTYPE),
        labels=table.labels.copy(),
        task=table.task,
        active_columns=active_cols,
        passive_columns=passive_cols,
    )


# -- delay model oracles -------------------------------------------------------


def model_memory_bytes(model: nn.MlpModel, batch_size: int) -> int:
    """Deterministic allocation model: parameters + gradients + activations.

    Counts what training one batch materialises: two copies of the parameter
    tensors (weights and their gradients), the input minibatch, and one
    activation per layer, which is what the ``nn.forward`` tape keeps for
    the backward pass, all in the model's dtype.
    """
    widths = model.in_dim + sum(layer.weight.shape[1] for layer in model.layers)
    return 2 * model.parameter_bytes + batch_size * model.dtype.itemsize * widths


def mp_stage_time(coef: float, exp: float, batch: int, workers: int) -> float:
    """coef * batch**exp * workers at 50 decimal digits."""
    from mpmath import mp, mpf

    with mp.workdps(50):
        return float(mpf(coef) * mpf(batch) ** mpf(exp) * mpf(workers))


def mp_iteration_objective(c, w_a: int, w_p: int, batch: int) -> float:
    """High-precision re-evaluation of the planner's objective: the slower
    party's step time times its worker count."""
    from mpmath import mp, mpf

    with mp.workdps(50):
        b = mpf(batch)
        step = {role.value: mpf(coef) * b ** mpf(exp) for role, (coef, exp) in c.stages.items()}
        return float(max(step["active_step"] * w_a, step["passive_step"] * w_p))


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
    from splitbus.profiler import CalibRole, DelayConstants

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
        stages={role: (coef(), expo()) for role in CalibRole},
        mem_base_active=base_a,
        mem_base_passive=base_p,
        mem_slope_active=slope_a,
        mem_slope_passive=slope_p,
        mem_budget_active=base_a + need_a * float(rng.uniform(1.001, 50.0)),
        mem_budget_passive=base_p + need_p * float(rng.uniform(1.001, 50.0)),
    )


# (coef, exp) per step, from 'splitbus profile' with the default
# configuration on a 2-CPU x86-64 host
REALISTIC_STAGES = {
    "passive_step": (1.473e-05, 0.3623),
    "active_step": (2.779e-05, 0.2890),
}


def realistic_constants(stages=None, **overrides):
    """A fitted constant set from a real profiling run, frozen as a fixture.

    Exponents well below 1 (a step's fixed per-call cost amortised over the
    batch) are what small vectorised models actually measure, so the planner
    tests get exercised on that regime rather than on toy linear curves.
    ``stages`` maps step names to the (coef, exp) pairs that replace the
    frozen ones.
    """
    from splitbus.profiler import CalibRole, DelayConstants

    table = {**REALISTIC_STAGES, **(stages or {})}
    values = dict(
        stages={CalibRole(name): pair for name, pair in table.items()},
        mem_base_active=1e8, mem_base_passive=1e8,
        mem_slope_active=1e6, mem_slope_passive=1e6,
        mem_budget_active=4e9, mem_budget_passive=4e9,
    )
    values.update(overrides)
    return DelayConstants(**values)


# -- file and wire helpers that only the tests use ------------------------------


def load_experiment_config(path: str) -> config.ExperimentConfig:
    """An experiment from a key = value file alone, without a plan or flags."""
    return config.experiment_from_mapping(config.read_key_value_file(path, "config"), path)


def read_jsonl(path: str) -> tuple[list[dict], dict | None]:
    """Parse a metrics file back into (epoch rows, summary or None)."""
    rows: list[dict] = []
    summary: dict | None = None
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            if obj.get("record") == "summary":
                summary = obj
            else:
                rows.append(obj)
    return rows, summary


def write_csv(path: str, table: data.LabeledTable) -> None:
    """Write a LabeledTable as CSV (features then a final `label` column).

    Floats are rendered with repr so a write/load round trip is lossless.
    """
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"f{i}" for i in range(table.num_features)] + ["label"])
        for r in range(table.num_rows):
            writer.writerow([repr(float(v)) for v in (*table.features[r], table.labels[r, 0])])


_WIRE_HEADER = struct.Struct("<QQ")


def serialize_payload(payload: np.ndarray) -> bytes:
    """Wire encoding: uint64-LE (rows, cols) header + float64-LE row-major data.

    ``broker.payload_byte_size`` counts a message's bytes in this format.
    """
    if payload.ndim != 2:
        raise ValueError("payload must be 2-D")
    rows, cols = payload.shape
    body = np.ascontiguousarray(payload, dtype="<f8").tobytes()
    return _WIRE_HEADER.pack(rows, cols) + body


def deserialize_payload(blob: bytes) -> np.ndarray:
    rows, cols = _WIRE_HEADER.unpack_from(blob, 0)
    expected = _WIRE_HEADER.size + 8 * rows * cols
    if len(blob) != expected:
        raise ValueError(f"payload blob is {len(blob)} bytes, expected {expected}")
    data = np.frombuffer(blob, dtype="<f8", offset=_WIRE_HEADER.size)
    return data.reshape(rows, cols).astype(np.float64)
