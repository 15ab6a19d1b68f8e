"""Dense MLP layers with hand-rolled backprop.

Everything in the trainer that touches model parameters goes through this
module: ``forward`` records a tape, ``backward`` replays it to produce
parameter gradients plus, unless switched off, the gradient w.r.t. the
layer-0 input (that input gradient is what crosses the party boundary at the
cut layer; a bottom model's raw-feature gradient goes nowhere), and
``sgd_step`` / ``average_models`` are the only mutation points.  ``predict``
is inference: no tape, rows taken ``PREDICT_BLOCK_ROWS`` at a time, so a
large evaluation set holds one block's activations at once.  ``predict``
runs each layer through ``_layer_forward``; ``forward``, the per-batch hot
path, writes the same calls out inline over ``MlpModel.views``, one
``(weight, bias, activation, d_weight, d_bias)`` tuple per layer, which
``backward`` reads too.  Products go through ``np.dot``, which on
C-contiguous operands makes the same BLAS call as ``@`` with less dispatch
(``tests/test_nn.py`` pins the bits at the edge shapes).

Each model keeps its parameters in one flat array, ``MlpModel.params``: a
layer's weight and bias are views into it, so ``clone``, ``load_from`` and
``average_models`` are one array operation each.  ``backward`` writes the
parameter gradients into a workspace of the same shape, ``MlpModel.grad``
(per-layer views in ``MlpModel.grads``), and ``sgd_step`` updates the whole
model from it in one step.

The tape holds only what ``backward`` reads: each layer's input and its
output.  The activation is applied in place over the affine output, and the
ReLU mask is read off the output (``post > 0`` is ``pre > 0`` for every
input, NaN and signed zeros included).  Backward multiplies by an
activation's derivative in place wherever the upstream array is one it made
itself, never in the caller's ``d_output``.

Inputs are checked for shape, dtype and width on every call, but not for
finiteness: data is checked once where it enters (``data.VerticalDataset``),
and a loss that goes non-finite aborts training.

Compute follows the parameters' dtype.  A model is float32 or float64
throughout: every layer has one dtype, and inputs, ``d_output`` and
gradients must be in it too, so no call casts silently or runs a GEMM at
another precision.  The runtime builds the two bottom models in float32,
since nearly all of a run's multiply-adds are theirs and float32 GEMMs run
about twice as fast; the features they consume are stored in float32 from
the table on (``data.LabeledTable``, whose one cast refuses a finite value
that would become ``inf``), so nothing here casts input data.
The top model, the loss, the DP noise and the cut-layer messages stay
float64: that is where the small quantities live (a logit far from zero, a
noise draw, a loss sum), as in mixed-precision training (Micikevicius et al.
2018), and the cut layer's bytes do not change.

A classifier trains on logits: its last layer is the identity and
``logistic_loss`` takes the logits directly, ``mean(log(1 + e^z) - y*z)``,
with gradient ``(sigmoid(z) - y) / n``.  That is a handful of ufunc calls,
about a third of the time a sigmoid head, the clamped
``cross_entropy_loss`` on probabilities and the sigmoid's backward take at
small batches.  The sigmoid head and ``cross_entropy_loss`` serve models
built that way.

Arrays are shaped (rows, cols) with rows = samples.  No autodiff framework
is involved, which keeps the arithmetic order deterministic — several tests
rely on bit-identical replays.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

# Probabilities are clamped into [EPS_PROB, 1 - EPS_PROB] before the log in
# cross-entropy; the gradient is the exact derivative of the clamped loss.
EPS_PROB = 1e-12

# Rows per block in ``predict``: large enough that BLAS runs at full speed,
# small enough that a block's activations stay cache-sized.
PREDICT_BLOCK_ROWS = 1024


class Activation(enum.Enum):
    RELU = "relu"
    SIGMOID = "sigmoid"
    IDENTITY = "identity"


_RELU = Activation.RELU

# The dtypes a model may compute in.
_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def _check_matrix(x: np.ndarray, name: str) -> None:
    if not isinstance(x, np.ndarray) or x.ndim != 2:
        raise ValueError(f"{name} must be a 2-D numpy array, got {x!r}")
    if x.dtype not in _DTYPES:
        raise ValueError(f"{name} must be float32 or float64, got {x.dtype}")


def _check_dtype(x: np.ndarray, dtype: np.dtype, name: str) -> None:
    if x.dtype != dtype:
        raise ValueError(f"{name} is {x.dtype} but the model computes in {dtype}")


def as_matrix(x: np.ndarray, name: str = "array") -> np.ndarray:
    """Validate that *x* is a finite 2-D float32 or float64 matrix and return it."""
    _check_matrix(x, name)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite entries")
    return x


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) never overflows; for z >= 0 it is exp(-z), otherwise exp(z).
    e = np.exp(-np.abs(z))
    denominator = 1.0 + e
    return np.where(z >= 0, 1.0 / denominator, e / denominator)


def _activate(kind: Activation, z: np.ndarray) -> np.ndarray:
    """The activation of ``z``; ReLU overwrites ``z``, which is then returned."""
    if kind is Activation.RELU:
        return np.maximum(z, 0.0, out=z)
    if kind is Activation.SIGMOID:
        return _sigmoid(z)
    return z


def _activation_backward(
    kind: Activation, upstream: np.ndarray, postact: np.ndarray, in_place: bool = False
) -> np.ndarray:
    """``upstream`` times the activation's derivative, elementwise; with
    ``in_place`` the product overwrites ``upstream``, with the same bits."""
    out = upstream if in_place else None
    if kind is Activation.RELU:
        # Subgradient 0 at the kink; numpy multiplies by the mask as 1.0/0.0.
        return np.multiply(upstream, postact > 0.0, out=out)
    if kind is Activation.SIGMOID:
        return np.multiply(upstream, postact * (1.0 - postact), out=out)
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
        _check_dtype(self.bias, self.weight.dtype, "bias")


@dataclass
class LayerGrads:
    d_weight: np.ndarray
    d_bias: np.ndarray


class MlpModel:
    """A stack of dense layers plus a monotone parameter version counter.

    The layers' weights and biases are views into one flat array,
    ``params``; ``grad`` is a workspace of the same shape whose per-layer
    views are ``grads``.  The model copies the layers it is built from.
    """

    def __init__(self, layers: list[Layer], param_version: int = 0):
        if not layers:
            raise ValueError("model needs at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if prev.weight.shape[1] != nxt.weight.shape[0]:
                raise ValueError("consecutive layers disagree on width")
            if prev.weight.dtype != nxt.weight.dtype:
                raise ValueError("consecutive layers disagree on dtype")
        params = np.concatenate([a.ravel() for layer in layers for a in (layer.weight, layer.bias)])
        self._bind(params, [(layer.weight.shape, layer.activation) for layer in layers],
                   param_version)

    def _bind(self, params: np.ndarray, structure, param_version: int) -> None:
        """Adopt ``params`` as this model's parameters, laid out as ``structure``."""
        self.params = params
        self.grad = np.zeros_like(params)
        self.param_version = param_version
        self.layers: list[Layer] = []
        self.grads: list[LayerGrads] = []
        # (weight, bias, activation, d_weight, d_bias) per layer: what forward
        # and backward read, unpacked once here instead of per call.
        self.views: list[tuple] = []
        start = 0
        for (fan_in, fan_out), activation in structure:
            mid = start + fan_in * fan_out
            end = mid + fan_out
            layer = Layer(params[start:mid].reshape(fan_in, fan_out),
                          params[mid:end].reshape(1, fan_out), activation)
            grads = LayerGrads(self.grad[start:mid].reshape(fan_in, fan_out),
                               self.grad[mid:end].reshape(1, fan_out))
            self.layers.append(layer)
            self.grads.append(grads)
            self.views.append((layer.weight, layer.bias, activation,
                               grads.d_weight, grads.d_bias))
            start = end

    def _with_params(self, params: np.ndarray, param_version: int) -> "MlpModel":
        """A model of this one's structure that adopts ``params``."""
        model = MlpModel.__new__(MlpModel)
        model._bind(params, self.structure, param_version)
        return model

    def __reduce__(self):
        # Pickled views would come back as separate arrays; rebuild the flat layout.
        return MlpModel, (self.layers, self.param_version)

    @property
    def structure(self) -> list[tuple[tuple[int, int], Activation]]:
        return [(layer.weight.shape, layer.activation) for layer in self.layers]

    @property
    def dtype(self) -> np.dtype:
        """The dtype of every parameter, and of what the model consumes and produces."""
        return self.params.dtype

    @property
    def in_dim(self) -> int:
        return self.layers[0].weight.shape[0]

    @property
    def out_dim(self) -> int:
        return self.layers[-1].weight.shape[1]

    def clone(self) -> "MlpModel":
        return self._with_params(self.params.copy(), self.param_version)

    def load_from(self, other: "MlpModel") -> None:
        """Copy parameter values from a structurally identical model."""
        _check_same_structure(self, other)
        np.copyto(self.params, other.params)
        self.param_version += 1

    @property
    def parameter_bytes(self) -> int:
        return self.params.nbytes


@dataclass
class ForwardTape:
    """Per-layer intermediates recorded by ``forward`` for one batch.

    ``inputs[l]`` is what layer *l* consumed (so ``inputs[0]`` is the batch
    input) and ``postacts[l]`` its activated output (``postacts[-1]`` is the
    model output, and ``inputs[l + 1]`` is ``postacts[l]``).
    """

    inputs: list[np.ndarray] = field(default_factory=list)
    postacts: list[np.ndarray] = field(default_factory=list)


def init_mlp(
    layer_dims: list[int], activations: list[Activation], seed: int, dtype=np.float64
) -> MlpModel:
    """Build a model with seeded uniform(+/- sqrt(6/(fan_in+fan_out))) weights.

    Biases start at zero.  The draw order (layer by layer, weights only) is
    part of the reproducibility contract: the same (dims, seed) pair always
    yields bit-identical parameters.  The weights are drawn in float64 and
    then cast to ``dtype``, so a float32 model is the float64 one rounded.
    """
    if len(activations) != len(layer_dims) - 1:
        raise ValueError("need one activation per layer")
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out, act in zip(layer_dims, layer_dims[1:], activations):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weight = rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype, copy=False)
        bias = np.zeros((1, fan_out), dtype=dtype)
        layers.append(Layer(weight, bias, act))
    return MlpModel(layers)


def _check_input(model: MlpModel, x: np.ndarray) -> None:
    _check_matrix(x, "input")
    _check_dtype(x, model.dtype, "input")
    if x.shape[1] != model.in_dim:
        raise ValueError(f"input has {x.shape[1]} columns, model expects {model.in_dim}")


def _layer_forward(layer: Layer, x: np.ndarray) -> np.ndarray:
    """One layer: the affine map, then the activation over it in place."""
    z = np.dot(x, layer.weight)
    z += layer.bias
    return _activate(layer.activation, z)


def forward(model: MlpModel, x: np.ndarray) -> tuple[np.ndarray, ForwardTape]:
    """Run the batch through the model, returning (output, tape).

    Each layer is ``_layer_forward``'s arithmetic, written out with the ReLU
    inline: this is the per-batch hot path.
    """
    _check_input(model, x)
    inputs, postacts = [], []
    current = x
    for weight, bias, activation, _, _ in model.views:
        inputs.append(current)
        current = np.dot(current, weight)
        current += bias
        if activation is _RELU:
            np.maximum(current, 0.0, out=current)
        else:
            current = _activate(activation, current)
        postacts.append(current)
    return current, ForwardTape(inputs, postacts)


def predict(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """The model's output for every row of ``x``, without a tape.

    Rows go through in blocks of ``PREDICT_BLOCK_ROWS``.  Up to that many
    rows the result is bit-identical to ``forward(model, x)[0]``; past it,
    BLAS may sum a block's products in another order, so entries can differ
    from one full-batch ``forward`` in the last bits.
    """
    _check_input(model, x)
    out = np.empty((x.shape[0], model.out_dim), dtype=model.dtype)
    for start in range(0, x.shape[0], PREDICT_BLOCK_ROWS):
        block = x[start : start + PREDICT_BLOCK_ROWS]
        for layer in model.layers:
            block = _layer_forward(layer, block)
        out[start : start + PREDICT_BLOCK_ROWS] = block
    return out


def backward(
    model: MlpModel, tape: ForwardTape, d_output: np.ndarray, *, input_grad: bool = True
) -> tuple[list[LayerGrads], np.ndarray | None]:
    """Backprop ``d_output`` (dLoss/dOutput) through the taped forward pass.

    Writes the parameter gradients into the model's workspace and returns
    ``(model.grads, input gradient)``; the next call overwrites them.  The
    input gradient is the payload that travels back across the cut layer
    during split training; with ``input_grad=False`` the layer-0 product
    that computes it is skipped and ``None`` comes back instead.
    """
    if d_output.shape != tape.postacts[-1].shape:
        raise ValueError("d_output shape does not match the taped output")
    _check_dtype(d_output, model.dtype, "d_output")
    upstream, owned = d_output, False
    inputs, postacts, views = tape.inputs, tape.postacts, model.views
    for idx in range(len(views) - 1, -1, -1):
        weight, _, activation, d_weight, d_bias = views[idx]
        if activation is _RELU:  # _activation_backward's ReLU, inline
            delta = np.multiply(upstream, postacts[idx] > 0.0, out=upstream if owned else None)
        else:
            delta = _activation_backward(activation, upstream, postacts[idx], owned)
        np.dot(inputs[idx].T, delta, out=d_weight)
        np.add.reduce(delta, axis=0, keepdims=True, out=d_bias)
        upstream = np.dot(delta, weight.T) if idx > 0 or input_grad else None
        owned = True
    return model.grads, upstream


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
    # ufuncs called directly: np.clip and np.sum dispatch through Python
    # wrappers first, which costs more than the arithmetic at small batches.
    clamped = np.minimum(np.maximum(predictions, EPS_PROB), 1.0 - EPS_PROB)
    negatives = 1.0 - targets
    log_likelihood = targets * np.log(clamped) + negatives * np.log1p(-clamped)
    loss = float(-np.add.reduce(log_likelihood, axis=None) / n)
    inside = (predictions > EPS_PROB) & (predictions < 1.0 - EPS_PROB)
    d_pred = -(targets / clamped - negatives / (1.0 - clamped)) / n
    d_pred = np.where(inside, d_pred, 0.0)
    return loss, d_pred


def logistic_loss(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy on logits and its gradient w.r.t. the logits.

    The loss is ``mean(log(1 + e^z) - y*z)`` and the gradient
    ``(sigmoid(z) - y) / n``, with ``sigmoid(z) = exp(z - log(1 + e^z))``
    reusing the softplus the loss needs.  Neither overflows for any finite
    logit; each entry's error is a few ulps of ``max(1, |z|)``.  A NaN or
    infinite logit makes the loss NaN or infinite.
    """
    if logits.shape != targets.shape:
        raise ValueError("logit/target shape mismatch")
    n = logits.shape[0]
    softplus = np.logaddexp(0.0, logits)
    loss = float(np.add.reduce(softplus - targets * logits, axis=None) / n)
    d_logits = np.subtract(logits, softplus, out=softplus)
    np.exp(d_logits, out=d_logits)
    d_logits -= targets
    d_logits /= n
    return loss, d_logits


def mse_loss(predictions: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error: (1/n) * sum((pred - y)^2), gradient 2*(pred - y)/n."""
    if predictions.shape != targets.shape:
        raise ValueError("prediction/target shape mismatch")
    n = predictions.shape[0]
    diff = predictions - targets
    loss = float(np.add.reduce(diff * diff, axis=None) / n)
    return loss, 2.0 * diff / n


def sgd_step(model: MlpModel, eta: float) -> None:
    """In-place vanilla SGD from the gradients ``backward`` left in the
    model's workspace, ``grad *= eta; params -= grad``; bumps the parameter
    version.  The workspace holds ``eta`` times the gradient afterwards."""
    model.grad *= eta
    model.params -= model.grad
    model.param_version += 1


def _check_same_structure(a: MlpModel, b: MlpModel) -> None:
    if len(a.layers) != len(b.layers):
        raise ValueError("models differ in depth")
    if a.dtype != b.dtype:
        raise ValueError(f"models differ in dtype: {a.dtype} and {b.dtype}")
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
    total = head.params.copy()
    for other in models[1:]:
        total += other.params
    total /= count
    version = max(m.param_version for m in models) + 1
    return head._with_params(total, version)
