"""Dense MLP layers with hand-rolled backprop.

Everything in the trainer that touches model parameters goes through this
module: forward passes record a tape, ``backward`` replays it to produce
parameter gradients plus, unless switched off, the gradient w.r.t. the
layer-0 input (that input gradient is what crosses the party boundary at the
cut layer; a bottom model's raw-feature gradient goes nowhere), and
``sgd_step`` / ``average_models`` are the only mutation points.

All numerics are float64 numpy arrays, shaped (rows, cols) with rows =
samples.  No autodiff framework is involved, which keeps the arithmetic
order deterministic — several tests rely on bit-identical replays.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

# Probabilities are clamped into [EPS_PROB, 1 - EPS_PROB] before the log in
# cross-entropy; the gradient is the exact derivative of the clamped loss.
EPS_PROB = 1e-12


class Activation(enum.Enum):
    RELU = "relu"
    SIGMOID = "sigmoid"
    IDENTITY = "identity"


def as_matrix(x: np.ndarray, name: str = "array") -> np.ndarray:
    """Validate that *x* is a finite 2-D float64 matrix and return it."""
    if not isinstance(x, np.ndarray) or x.ndim != 2:
        raise ValueError(f"{name} must be a 2-D numpy array, got {x!r}")
    if x.dtype != np.float64:
        raise ValueError(f"{name} must be float64, got {x.dtype}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite entries")
    return x


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) never overflows; for z >= 0 it is exp(-z), otherwise exp(z).
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _apply_activation(kind: Activation, z: np.ndarray) -> np.ndarray:
    if kind is Activation.RELU:
        return np.maximum(z, 0.0)
    if kind is Activation.SIGMOID:
        return _sigmoid(z)
    return z


def _activation_backward(
    kind: Activation, upstream: np.ndarray, preact: np.ndarray, postact: np.ndarray
) -> np.ndarray:
    """``upstream`` times the activation's derivative, elementwise."""
    if kind is Activation.RELU:
        # Subgradient 0 at the kink; numpy multiplies by the mask as 1.0/0.0.
        return upstream * (preact > 0.0)
    if kind is Activation.SIGMOID:
        return upstream * (postact * (1.0 - postact))
    return upstream


@dataclass
class Layer:
    """One affine layer: weight is (fan_in, fan_out), bias is (1, fan_out)."""

    weight: np.ndarray
    bias: np.ndarray
    activation: Activation

    def __post_init__(self) -> None:
        as_matrix(self.weight, "weight")
        as_matrix(self.bias, "bias")
        if self.bias.shape != (1, self.weight.shape[1]):
            raise ValueError(
                f"bias shape {self.bias.shape} does not match weight {self.weight.shape}"
            )


@dataclass
class MlpModel:
    """A stack of dense layers plus a monotone parameter version counter."""

    layers: list[Layer]
    param_version: int = 0

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("model needs at least one layer")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.weight.shape[1] != nxt.weight.shape[0]:
                raise ValueError("consecutive layers disagree on width")

    @property
    def in_dim(self) -> int:
        return self.layers[0].weight.shape[0]

    @property
    def out_dim(self) -> int:
        return self.layers[-1].weight.shape[1]

    def layer_dims(self) -> list[int]:
        return [self.in_dim] + [layer.weight.shape[1] for layer in self.layers]

    def clone(self) -> "MlpModel":
        layers = [
            Layer(layer.weight.copy(), layer.bias.copy(), layer.activation)
            for layer in self.layers
        ]
        return MlpModel(layers, param_version=self.param_version)

    def load_from(self, other: "MlpModel") -> None:
        """Copy parameter values from a structurally identical model."""
        _check_same_structure(self, other)
        for mine, theirs in zip(self.layers, other.layers):
            np.copyto(mine.weight, theirs.weight)
            np.copyto(mine.bias, theirs.bias)
        self.param_version += 1

    @property
    def parameter_bytes(self) -> int:
        return sum(layer.weight.nbytes + layer.bias.nbytes for layer in self.layers)


@dataclass
class ForwardTape:
    """Per-layer intermediates recorded by ``forward`` for one batch.

    ``inputs[l]`` is what layer *l* consumed (so ``inputs[0]`` is the batch
    input), ``preacts[l]`` the affine output before the nonlinearity, and
    ``postacts[l]`` after it (``postacts[-1]`` is the model output).
    """

    inputs: list[np.ndarray] = field(default_factory=list)
    preacts: list[np.ndarray] = field(default_factory=list)
    postacts: list[np.ndarray] = field(default_factory=list)

    @property
    def batch_rows(self) -> int:
        return self.inputs[0].shape[0]

    def activation_bytes(self) -> int:
        total = 0
        for group in (self.inputs, self.preacts, self.postacts):
            total += sum(a.nbytes for a in group)
        return total


@dataclass
class LayerGrads:
    d_weight: np.ndarray
    d_bias: np.ndarray


def init_mlp(layer_dims: list[int], activations: list[Activation], seed: int) -> MlpModel:
    """Build a model with seeded uniform(+/- sqrt(6/(fan_in+fan_out))) weights.

    Biases start at zero.  The draw order (layer by layer, weights only) is
    part of the reproducibility contract: the same (dims, seed) pair always
    yields bit-identical parameters.
    """
    if len(activations) != len(layer_dims) - 1:
        raise ValueError("need one activation per layer")
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out, act in zip(layer_dims, layer_dims[1:], activations):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weight = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        bias = np.zeros((1, fan_out))
        layers.append(Layer(weight, bias, act))
    return MlpModel(layers)


def forward(model: MlpModel, x: np.ndarray) -> tuple[np.ndarray, ForwardTape]:
    """Run the batch through the model, returning (output, tape)."""
    as_matrix(x, "input")
    if x.shape[1] != model.in_dim:
        raise ValueError(f"input has {x.shape[1]} columns, model expects {model.in_dim}")
    tape = ForwardTape()
    current = x
    for layer in model.layers:
        tape.inputs.append(current)
        pre = current @ layer.weight
        pre += layer.bias
        post = _apply_activation(layer.activation, pre)
        tape.preacts.append(pre)
        tape.postacts.append(post)
        current = post
    return current, tape


def backward(
    model: MlpModel, tape: ForwardTape, d_output: np.ndarray, *, input_grad: bool = True
) -> tuple[list[LayerGrads], np.ndarray | None]:
    """Backprop ``d_output`` (dLoss/dOutput) through the taped forward pass.

    Returns per-layer parameter gradients and the gradient w.r.t. the batch
    input.  The input gradient is the payload that travels back across the
    cut layer during split training; with ``input_grad=False`` the layer-0
    product that computes it is skipped and ``None`` comes back instead.
    """
    if d_output.shape != tape.postacts[-1].shape:
        raise ValueError("d_output shape does not match the taped output")
    grads: list[LayerGrads] = [None] * len(model.layers)  # type: ignore[list-item]
    upstream = d_output
    for idx in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[idx]
        delta = _activation_backward(
            layer.activation, upstream, tape.preacts[idx], tape.postacts[idx]
        )
        grads[idx] = LayerGrads(
            d_weight=tape.inputs[idx].T @ delta,
            d_bias=delta.sum(axis=0, keepdims=True),
        )
        upstream = delta @ layer.weight.T if idx > 0 or input_grad else None
    return grads, upstream


def cross_entropy_loss(
    predictions: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy and its exact gradient w.r.t. predictions.

    Predictions are clamped into [EPS_PROB, 1 - EPS_PROB] before the logs.
    The gradient is the exact analytic derivative of that clamped
    expression, which is zero wherever the clamp saturates.
    """
    if predictions.shape != targets.shape:
        raise ValueError("prediction/target shape mismatch")
    n = predictions.shape[0]
    clamped = np.clip(predictions, EPS_PROB, 1.0 - EPS_PROB)
    loss = float(-np.sum(targets * np.log(clamped) + (1.0 - targets) * np.log1p(-clamped)) / n)
    inside = (predictions > EPS_PROB) & (predictions < 1.0 - EPS_PROB)
    d_pred = -(targets / clamped - (1.0 - targets) / (1.0 - clamped)) / n
    d_pred = np.where(inside, d_pred, 0.0)
    return loss, d_pred


def mse_loss(predictions: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error: (1/n) * sum((pred - y)^2), gradient 2*(pred - y)/n."""
    if predictions.shape != targets.shape:
        raise ValueError("prediction/target shape mismatch")
    n = predictions.shape[0]
    diff = predictions - targets
    loss = float(np.sum(diff * diff) / n)
    return loss, 2.0 * diff / n


def sgd_step(model: MlpModel, grads: list[LayerGrads], eta: float) -> None:
    """In-place vanilla SGD update; bumps the parameter version."""
    if len(grads) != len(model.layers):
        raise ValueError("gradient list does not match layer count")
    for layer, grad in zip(model.layers, grads):
        layer.weight -= eta * grad.d_weight
        layer.bias -= eta * grad.d_bias
    model.param_version += 1


def _check_same_structure(a: MlpModel, b: MlpModel) -> None:
    if len(a.layers) != len(b.layers):
        raise ValueError("models differ in depth")
    for la, lb in zip(a.layers, b.layers):
        if la.weight.shape != lb.weight.shape or la.activation is not lb.activation:
            raise ValueError("models differ in layer structure")


def average_models(models: list[MlpModel]) -> MlpModel:
    """Elementwise parameter mean across structurally identical models.

    Addition runs left-to-right in list order so the result is deterministic;
    averaging a single model reproduces it bit-for-bit.
    """
    if not models:
        raise ValueError("nothing to average")
    head = models[0]
    for other in models[1:]:
        _check_same_structure(head, other)
    count = float(len(models))
    layers = []
    for idx, layer in enumerate(head.layers):
        w_sum = layer.weight.copy()
        b_sum = layer.bias.copy()
        for other in models[1:]:
            w_sum += other.layers[idx].weight
            b_sum += other.layers[idx].bias
        layers.append(Layer(w_sum / count, b_sum / count, layer.activation))
    version = max(m.param_version for m in models) + 1
    return MlpModel(layers, param_version=version)
