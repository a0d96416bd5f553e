"""Model assembly: layer specs, shape validation, presets, checkpoints.

A Model is an ordered list of built layers plus the metadata needed to
replay it: spec, input shape, and init seed. Parameters initialize from the
package's documented generator, so equal seeds give bit-identical models.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from ..artifacts import replacing
from ..audio_io import EMOTIONS
from ..errors import EmorecError, InputTooShort, InvalidArchitectureForInputLength, ShapeMismatch
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

N_CLASSES = len(EMOTIONS)


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


@dataclass(frozen=True)
class ModelSpec:
    name: str
    layers: tuple[LayerSpec, ...]
    notes: tuple[str, ...] = ()


# kind: (its layer class, None for the head; the LayerSpec fields it reads, in call order)
_KINDS = {
    "conv1d": (Conv1DLayer, ("filters", "kernel", "padding", "activation")),
    "maxpool1d": (MaxPool1DLayer, ("pool", "stride")),
    "dropout": (DropoutLayer, ("rate",)),
    "flatten": (FlattenLayer, ()),
    "dense": (DenseLayer, ("units", "activation")),
    "lstm": (LSTMLayer, ("units",)),
    "softmax_output": (None, ("classes",)),
}


def _make_layer(ls: LayerSpec) -> Layer | None:
    """The layer `ls` builds (None for the head); an unread field must keep its default."""
    if ls.kind not in _KINDS:
        raise ValueError(f"unknown layer kind {ls.kind!r}")
    cls, reads = _KINDS[ls.kind]
    for f in fields(ls)[1:]:
        if f.name not in reads and getattr(ls, f.name) != f.default:
            raise ValueError(f"{ls.kind} reads no {f.name}, got {getattr(ls, f.name)!r}")
    return cls(*(getattr(ls, name) for name in reads)) if cls else None


class Model:
    helper = None  # the executor step_helper lends while it runs

    def __init__(self, spec: ModelSpec, input_shape: tuple, seed: int, layers: list[Layer]):
        self.spec = spec
        self.input_shape = tuple(input_shape)
        self.seed = seed
        self.layers = layers

    def parameters(self) -> list[np.ndarray]:
        return [getattr(layer, n) for layer in self.layers for n in layer.param_names]

    def gradients(self) -> list[np.ndarray]:
        """The gradient buffers, in parameters() order."""
        return [getattr(layer, "d" + n) for layer in self.layers for n in layer.param_names]

    def param_names(self) -> list[str]:
        return [f"{i}.{layer.name}.{n}" for i, layer in enumerate(self.layers) for n in layer.param_names]

    def forward(self, x: np.ndarray, train: bool = False, step_seed: int = 0) -> np.ndarray:
        """Logits for a (B, *input_shape) batch."""
        if x.shape[1:] != self.input_shape:
            raise ShapeMismatch(f"model input shape is {self.input_shape}, got a batch of {x.shape}")
        for i, layer in enumerate(self.layers):
            x = layer.forward(x, train=train, seed=derive_seed(step_seed, i))
        return x

    def backward(self, dlogits: np.ndarray) -> None:
        """Set every layer's parameter gradients; the input gradient of the
        first layer is not computed. Each layer gets a gradient that nothing
        else reads, so its backward may write over it."""
        d = dlogits
        for layer in reversed(self.layers):
            d = layer.backward(d)


@contextlib.contextmanager
def step_helper(model: Model):
    """Lend a model with conv layers one helper thread for the block. Each training
    step then gives it half of the work whose halves nothing reads until both are
    done: the conv forwards' later output rows (cut at a multiple of _ROW_ALIGN,
    possibly inside an output position), the conv backwards' weight-gradient
    products and Adam's later blocks. Every value is computed as without it, so
    training is bit-identical. The thread starts on its first work and is joined
    as the block exits, by return or raise; a model with no conv layer (the lstm)
    gets none."""
    if not any(isinstance(layer, Conv1DLayer) for layer in model.layers):
        yield
        return
    # imported here: a process that lends no helper does not load it (~0.4 MB)
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="emorec-step") as pool:
        for owner in (model, *model.layers):
            owner.helper = pool
        try:
            yield
        finally:
            for owner in (model, *model.layers):
                owner.helper = None


def build_model(spec: ModelSpec, input_shape: tuple, seed: int = 0) -> Model:
    """Instantiate and initialize a model, chaining shapes layer by layer.

    An entry sets only the fields its kind reads (_KINDS). The spec ends in a
    softmax_output entry that builds no layer: the last layer must output
    (classes,) logits, and the loss applies the softmax. Raises
    InvalidArchitectureForInputLength when a pool's window outruns its input.
    """
    kinds = [ls.kind for ls in spec.layers]
    if len(kinds) < 2 or kinds[-1] != "softmax_output" or kinds.count("softmax_output") > 1:
        raise ValueError("a model spec is its layers, then one softmax_output entry")
    *layers, _ = map(_make_layer, spec.layers)  # the head entry builds None
    head, shape = spec.layers[-1], tuple(input_shape)
    for i, layer in enumerate(layers):
        try:
            shape = layer.build(shape, derive_seed(seed, i))
        except InputTooShort as exc:
            raise InvalidArchitectureForInputLength(
                f"layer {i} ({layer.name}) cannot accept shape {shape}: {exc}"
            ) from exc
    if shape != (head.classes,):
        raise ShapeMismatch(f"softmax output expects ({head.classes},), got {shape}")
    layers[0].input_grad = False
    return Model(spec, input_shape, seed, layers)


# --------------------------------------------------------------------------
# Presets
# --------------------------------------------------------------------------


# both presets end in dropout 0.3 -> Dense(8) -> softmax
_HEAD = (
    LayerSpec("dropout", rate=0.3), LayerSpec("dense", units=N_CLASSES), LayerSpec("softmax_output")
)


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
            layers.append(LayerSpec("dropout", rate=0.2))
        layers.append(LayerSpec("conv1d", filters=filters, kernel=5, activation="relu"))
        if length >= pool:
            layers.append(LayerSpec("maxpool1d", pool=pool, stride=stride))
            length = (length - pool) // stride + 1
        else:
            notes.append(
                f"maxpool after conv block {block} dropped: length {length} < pool {pool}"
            )
    layers += [LayerSpec("flatten"), LayerSpec("dense", units=32, activation="relu"), *_HEAD]
    return ModelSpec("cnn", tuple(layers), tuple(notes))


def lstm_preset(units: int = 128) -> ModelSpec:
    """LSTM(units) -> dropout 0.3 -> Dense(8) -> softmax over a (T, D)
    feature sequence."""
    return ModelSpec("lstm", (LayerSpec("lstm", units=units), *_HEAD))


# --------------------------------------------------------------------------
# Checkpoints: JSON text header, then '#BINARY' sentinel, then the flat
# little-endian float64 parameter buffer in layer order.
# --------------------------------------------------------------------------

_SENTINEL = b"\n#BINARY\n"


def _param_list(model: Model) -> list[dict]:
    """The (name, shape) entries a checkpoint header lists, in payload order."""
    names = model.param_names()
    return [{"name": n, "shape": list(p.shape)} for n, p in zip(names, model.parameters())]


def save_checkpoint(model: Model, path) -> None:
    header = {
        "format": "emorec-checkpoint-v1",
        "name": model.spec.name,
        "input_shape": list(model.input_shape),
        "seed": model.seed,
        "notes": list(model.spec.notes),
        "layers": [asdict(ls) for ls in model.spec.layers],
        "params": _param_list(model),
    }
    with replacing(path, "wb") as fh:
        fh.write(json.dumps(header, indent=1).encode("utf-8"))
        fh.write(_SENTINEL)
        for p in model.parameters():
            fh.write(np.ascontiguousarray(p, dtype="<f8").tobytes())


def load_checkpoint(path) -> Model:
    """The model saved at `path`. A file it reads but cannot rebuild a model
    from raises ValueError naming `path`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    cut = blob.find(_SENTINEL)
    if cut < 0:
        raise ValueError(f"not a model checkpoint (missing binary sentinel): {path}")
    try:
        header = json.loads(blob[:cut].decode("utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValueError(f"unreadable checkpoint header in {path}: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != "emorec-checkpoint-v1":
        raise ValueError(f"unknown checkpoint format in {path}")
    try:
        spec = ModelSpec(
            header["name"],
            tuple(LayerSpec(**d) for d in header["layers"]),
            tuple(header.get("notes", ())),
        )
        model = build_model(spec, tuple(header["input_shape"]), header["seed"])
    except (ArithmeticError, KeyError, TypeError, ValueError, EmorecError) as exc:
        raise ValueError(f"checkpoint header builds no model in {path}: {exc!r}") from exc
    if header.get("params") != _param_list(model):
        raise ValueError(f"checkpoint parameter list does not match its layers in {path}")
    payload = blob[cut + len(_SENTINEL) :]
    if len(payload) != 8 * sum(p.size for p in model.parameters()):
        raise ValueError(f"checkpoint parameter buffer size mismatch in {path}")
    buf = np.frombuffer(payload, dtype="<f8")
    offset = 0
    for p in model.parameters():
        p[...] = buf[offset : offset + p.size].reshape(p.shape)
        offset += p.size
    return model
