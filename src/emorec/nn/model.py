"""Model assembly: layer specs, shape validation, presets, checkpoints.

A Model is an ordered list of built layers plus the metadata needed to
replay it: spec, input shape, and init seed. Parameters initialize from the
package's documented generator, so equal seeds give bit-identical models.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from ..errors import InputTooShort, InvalidArchitectureForInputLength, ShapeMismatch
from ..rng import derive_seed
from .layers import (
    Conv1DLayer,
    DenseLayer,
    DropoutLayer,
    FlattenLayer,
    Layer,
    LSTMLayer,
    MaxPool1DLayer,
)

N_CLASSES = 8


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    filters: int = 0
    kernel: int = 0
    padding: str = "same"
    activation: str = "linear"
    pool: int = 0
    stride: int = 1
    rate: float = 0.0
    units: int = 0
    classes: int = N_CLASSES


def conv1d_spec(filters: int, kernel: int, padding: str = "same", activation: str = "relu") -> LayerSpec:
    return LayerSpec("conv1d", filters=filters, kernel=kernel, padding=padding, activation=activation)


def maxpool1d_spec(pool: int, stride: int) -> LayerSpec:
    return LayerSpec("maxpool1d", pool=pool, stride=stride)


def dropout_spec(rate: float) -> LayerSpec:
    return LayerSpec("dropout", rate=rate)


def flatten_spec() -> LayerSpec:
    return LayerSpec("flatten")


def dense_spec(units: int, activation: str = "linear") -> LayerSpec:
    return LayerSpec("dense", units=units, activation=activation)


def lstm_spec(units: int) -> LayerSpec:
    return LayerSpec("lstm", units=units)


def softmax_output_spec(classes: int = N_CLASSES) -> LayerSpec:
    return LayerSpec("softmax_output", classes=classes)


@dataclass(frozen=True)
class ModelSpec:
    name: str
    layers: tuple[LayerSpec, ...]
    notes: tuple[str, ...] = ()


class SoftmaxOutputLayer(Layer):
    """Terminal marker: validates the class count; forward passes logits
    through (the loss head applies the softmax)."""

    name = "softmax_output"

    def __init__(self, classes: int = N_CLASSES):
        self.classes = classes

    def build(self, in_shape, seed):
        if in_shape != (self.classes,):
            raise ShapeMismatch(f"softmax output expects ({self.classes},), got {in_shape}")
        return in_shape

    def forward(self, x, train=False, seed=0):
        return x

    def backward(self, dy):
        return dy


def _make_layer(ls: LayerSpec) -> Layer:
    if ls.kind == "conv1d":
        return Conv1DLayer(ls.filters, ls.kernel, ls.padding, ls.activation)
    if ls.kind == "maxpool1d":
        return MaxPool1DLayer(ls.pool, ls.stride)
    if ls.kind == "dropout":
        return DropoutLayer(ls.rate)
    if ls.kind == "flatten":
        return FlattenLayer()
    if ls.kind == "dense":
        return DenseLayer(ls.units, ls.activation)
    if ls.kind == "lstm":
        return LSTMLayer(ls.units)
    if ls.kind == "softmax_output":
        return SoftmaxOutputLayer(ls.classes)
    raise ValueError(f"unknown layer kind {ls.kind!r}")


class Model:
    def __init__(self, spec: ModelSpec, input_shape: tuple, seed: int, layers: list[Layer]):
        self.spec = spec
        self.input_shape = tuple(input_shape)
        self.seed = seed
        self.layers = layers

    def parameters(self) -> list[np.ndarray]:
        return [arr for layer in self.layers for _, arr in layer.params()]

    def gradients(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.grads()]

    def param_names(self) -> list[str]:
        return [
            f"{i}.{layer.name}.{name}"
            for i, layer in enumerate(self.layers)
            for name, _ in layer.params()
        ]

    def forward(self, x: np.ndarray, train: bool = False, step_seed: int = 0) -> np.ndarray:
        """Logits for a (B, *input_shape) batch."""
        if x.shape[1:] != self.input_shape:
            raise ShapeMismatch(f"model input shape is {self.input_shape}, got a batch of {x.shape}")
        for i, layer in enumerate(self.layers):
            x = layer.forward(x, train=train, seed=derive_seed(step_seed, i))
        return x

    def backward(self, dlogits: np.ndarray) -> None:
        """Set every layer's parameter gradients; the input gradient of the
        first layer is not computed."""
        d = dlogits
        for layer in reversed(self.layers):
            d = layer.backward(d)


def build_model(spec: ModelSpec, input_shape: tuple, seed: int = 0) -> Model:
    """Instantiate and initialize a model, chaining shapes layer by layer.

    Raises InvalidArchitectureForInputLength when a pooling stage would
    receive fewer samples than its window.
    """
    if not spec.layers or spec.layers[-1].kind != "softmax_output":
        raise ValueError("model spec must end in a softmax_output layer")
    layers = []
    shape = tuple(input_shape)
    for i, ls in enumerate(spec.layers):
        layer = _make_layer(ls)
        try:
            shape = layer.build(shape, derive_seed(seed, i))
        except InputTooShort as exc:
            raise InvalidArchitectureForInputLength(
                f"layer {i} ({layer.name}) cannot accept shape {shape}: {exc}"
            ) from exc
        layers.append(layer)
    layers[0].input_grad = False
    return Model(spec, input_shape, seed, layers)


# --------------------------------------------------------------------------
# Presets
# --------------------------------------------------------------------------


def cnn_preset(input_len: int) -> ModelSpec:
    """Four same-padded conv blocks (256, 256, 128, 64 filters, kernel 5,
    relu) each followed by MaxPool(5, 2), dropout 0.2 before the last block,
    then Flatten -> Dense(32, relu) -> dropout 0.3 -> Dense(8) -> softmax.

    Pools that would outrun the shrinking length are dropped, and each drop
    is recorded in ModelSpec.notes (they surface in the train report).
    """
    pool, stride = 5, 2
    layers: list[LayerSpec] = []
    notes: list[str] = []
    length = input_len
    for block, filters in enumerate([256, 256, 128, 64], start=1):
        if block == 4:
            layers.append(dropout_spec(0.2))
        layers.append(conv1d_spec(filters, 5, "same", "relu"))
        if length >= pool:
            layers.append(maxpool1d_spec(pool, stride))
            length = (length - pool) // stride + 1
        else:
            notes.append(
                f"maxpool after conv block {block} dropped: length {length} < pool {pool}"
            )
    layers += [
        flatten_spec(),
        dense_spec(32, "relu"),
        dropout_spec(0.3),
        dense_spec(N_CLASSES, "linear"),
        softmax_output_spec(),
    ]
    return ModelSpec("cnn", tuple(layers), tuple(notes))


def lstm_preset(units: int = 128) -> ModelSpec:
    """LSTM(units) -> dropout 0.3 -> Dense(8) -> softmax over a (T, D)
    feature sequence."""
    return ModelSpec(
        "lstm",
        (lstm_spec(units), dropout_spec(0.3), dense_spec(N_CLASSES, "linear"), softmax_output_spec()),
    )


# --------------------------------------------------------------------------
# Checkpoints: JSON text header, then '#BINARY' sentinel, then the flat
# little-endian float64 parameter buffer in layer order.
# --------------------------------------------------------------------------

_SENTINEL = b"\n#BINARY\n"


def save_checkpoint(model: Model, path) -> None:
    header = {
        "format": "emorec-checkpoint-v1",
        "name": model.spec.name,
        "input_shape": list(model.input_shape),
        "seed": model.seed,
        "notes": list(model.spec.notes),
        "layers": [asdict(ls) for ls in model.spec.layers],
        "params": [
            {"name": n, "shape": list(p.shape)}
            for n, p in zip(model.param_names(), model.parameters())
        ],
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, indent=1).encode("utf-8"))
        fh.write(_SENTINEL)
        for p in model.parameters():
            fh.write(np.ascontiguousarray(p, dtype="<f8").tobytes())


def load_checkpoint(path) -> Model:
    with open(path, "rb") as fh:
        blob = fh.read()
    cut = blob.find(_SENTINEL)
    if cut < 0:
        raise ValueError(f"not a model checkpoint (missing binary sentinel): {path}")
    header = json.loads(blob[:cut].decode("utf-8"))
    if header.get("format") != "emorec-checkpoint-v1":
        raise ValueError(f"unknown checkpoint format in {path}")
    spec = ModelSpec(
        header["name"],
        tuple(LayerSpec(**d) for d in header["layers"]),
        tuple(header.get("notes", ())),
    )
    model = build_model(spec, tuple(header["input_shape"]), header["seed"])
    payload = blob[cut + len(_SENTINEL) :]
    sizes = [int(np.prod(meta["shape"])) for meta in header["params"]]
    if len(payload) != 8 * sum(sizes):
        raise ValueError(f"checkpoint parameter buffer size mismatch in {path}")
    buf = np.frombuffer(payload, dtype="<f8")
    offset = 0
    for n, meta, p in zip(sizes, header["params"], model.parameters()):
        p[...] = buf[offset : offset + n].reshape(meta["shape"])
        offset += n
    return model
