"""Model assembly: preset shape chains, seeded init, parameter counting,
and the text+binary checkpoint format."""

import json

import numpy as np
import pytest

from emorec.errors import InvalidArchitectureForInputLength, ShapeMismatch
from emorec.nn.model import (
    LayerSpec,
    ModelSpec,
    _make_layer,
    build_model,
    cnn_preset,
    load_checkpoint,
    lstm_preset,
    save_checkpoint,
)

rng = np.random.default_rng(55)


def num_params(model):
    return sum(p.size for p in model.parameters())


def pooled_lengths(start, pools):
    length = start
    out = []
    for _ in range(pools):
        length = (length - 5) // 2 + 1
        out.append(length)
    return out


def test_cnn_preset_chain_42():
    spec = cnn_preset(42)
    kinds = [ls.kind for ls in spec.layers]
    # lengths 42 -> 19 -> 8 -> 2; the 4th pool would need length >= 5
    assert pooled_lengths(42, 3) == [19, 8, 2]
    assert kinds.count("maxpool1d") == 3
    assert kinds.count("conv1d") == 4
    assert len(spec.notes) == 1 and "block 4" in spec.notes[0]
    assert kinds[-1] == "softmax_output"
    model = build_model(spec, (42, 1), seed=0)
    assert model.forward(rng.standard_normal((3, 42, 1))).shape == (3, 8)


def test_cnn_preset_chain_60_and_20():
    spec60 = cnn_preset(60)
    assert [ls.kind for ls in spec60.layers].count("maxpool1d") == 3
    assert pooled_lengths(60, 3) == [28, 12, 4]
    assert len(spec60.notes) == 1

    spec20 = cnn_preset(20)
    # 20 -> 8 -> 2: only two pools fit
    assert [ls.kind for ls in spec20.layers].count("maxpool1d") == 2
    assert len(spec20.notes) == 2
    model = build_model(spec20, (20, 1), seed=1)
    assert model.forward(rng.standard_normal((2, 20, 1))).shape == (2, 8)


def test_explicit_infeasible_pool_raises():
    spec = ModelSpec(
        "tiny",
        (
            LayerSpec("conv1d", filters=4, kernel=5, activation="relu"),
            LayerSpec("maxpool1d", pool=5, stride=2),
            LayerSpec("maxpool1d", pool=5, stride=2),  # second pool sees length 2
            LayerSpec("flatten"),
            LayerSpec("dense", units=8),
            LayerSpec("softmax_output"),
        ),
    )
    with pytest.raises(InvalidArchitectureForInputLength):
        build_model(spec, (6, 1), seed=0)


def test_model_requires_softmax_terminal():
    spec = ModelSpec("bare", (LayerSpec("flatten"), LayerSpec("dense", units=8)))
    with pytest.raises(ValueError):
        build_model(spec, (4, 1), seed=0)


HEAD = LayerSpec("softmax_output")
DENSE = LayerSpec("dense", units=8)


@pytest.mark.parametrize(
    "layers",
    [(), (HEAD,), (HEAD, DENSE), (DENSE, HEAD, HEAD), (DENSE, HEAD, DENSE, HEAD)],
    ids=["empty", "head_only", "head_first", "two_heads", "head_inside"],
)
def test_build_model_takes_one_softmax_output_entry_last(layers):
    message = "^a model spec is its layers, then one softmax_output entry$"
    with pytest.raises(ValueError, match=message):
        build_model(ModelSpec("bad", layers), (4,), seed=0)


@pytest.mark.parametrize(
    "spec, shape", [(lstm_preset(6), (7, 3)), (cnn_preset(12), (12, 1))], ids=["lstm", "cnn"]
)
def test_the_softmax_output_entry_builds_no_layer(spec, shape):
    # every other entry keeps its index, which names and seeds its parameters
    model = build_model(spec, shape, seed=0)
    assert [layer.name for layer in model.layers] == [ls.kind for ls in spec.layers[:-1]]
    last = len(model.layers) - 1
    assert model.param_names()[-2:] == [f"{last}.dense.W", f"{last}.dense.b"]


def test_cnn_parameter_count():
    model = build_model(cnn_preset(42), (42, 1), seed=0)
    conv = lambda k, cin, cout: k * cin * cout + cout
    dense = lambda fin, fout: fin * fout + fout
    expected = (
        conv(5, 1, 256)
        + conv(5, 256, 256)
        + conv(5, 256, 128)
        + conv(5, 128, 64)
        + dense(2 * 64, 32)
        + dense(32, 8)
    )
    assert num_params(model) == expected


def test_lstm_parameter_count():
    model = build_model(lstm_preset(16), (10, 5), seed=0)
    u = 16
    expected = 5 * 4 * u + u * 4 * u + 4 * u + (u * 8 + 8)
    assert num_params(model) == expected


def test_seeded_init_replay():
    a = build_model(cnn_preset(20), (20, 1), seed=7)
    b = build_model(cnn_preset(20), (20, 1), seed=7)
    c = build_model(cnn_preset(20), (20, 1), seed=8)
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa, pb)
    assert any(
        not np.array_equal(pa, pc) for pa, pc in zip(a.parameters(), c.parameters())
    )


def test_lstm_forget_bias():
    model = build_model(lstm_preset(8), (4, 3), seed=0)
    names = model.param_names()
    b = model.parameters()[names.index("0.lstm.b")]
    assert np.all(b[8:16] == 1.0)
    assert np.all(b[:8] == 0.0)


def test_forward_rejects_flat_rows():
    model = build_model(cnn_preset(12), (12, 1), seed=0)
    with pytest.raises(ShapeMismatch):
        model.forward(rng.standard_normal((4, 12)))


@pytest.mark.parametrize(
    "spec, shape, batch",
    [
        (cnn_preset(42), (42, 1), (2, 40, 1)),
        (lstm_preset(4), (10, 4), (2, 12, 4)),
        (lstm_preset(4), (10, 4), (2, 10, 5)),
    ],
    ids=["cnn_shorter", "lstm_longer", "lstm_wider"],
)
def test_forward_rejects_other_input_shapes(spec, shape, batch):
    model = build_model(spec, shape, seed=0)
    with pytest.raises(ShapeMismatch):
        model.forward(np.zeros(batch))


def test_checkpoint_round_trip(tmp_path):
    model = build_model(cnn_preset(20), (20, 1), seed=3)
    x = rng.standard_normal((2, 20, 1))
    before = model.forward(x)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)

    blob = path.read_bytes()
    cut = blob.find(b"\n#BINARY\n")
    assert cut > 0
    header = json.loads(blob[:cut])
    assert header["format"] == "emorec-checkpoint-v1"
    assert header["layers"][-1]["kind"] == "softmax_output"  # built as no layer
    assert header["name"] == "cnn"
    assert header["input_shape"] == [20, 1]
    assert [p["name"] for p in header["params"]] == model.param_names()

    back = load_checkpoint(path)
    assert num_params(back) == num_params(model)
    assert np.array_equal(back.forward(x), before)
    for pa, pb in zip(model.parameters(), back.parameters()):
        assert np.array_equal(pa, pb)


def test_checkpoint_rejects_truncation(tmp_path):
    model = build_model(lstm_preset(4), (5, 3), seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    for cut in (16, 3):
        (tmp_path / "cut.ckpt").write_bytes(blob[:-cut])
        with pytest.raises(ValueError, match="size mismatch"):
            load_checkpoint(tmp_path / "cut.ckpt")


def _drop_last_param(header, payload):
    last = header["params"].pop()
    return header, payload[: -8 * int(np.prod(last["shape"]))]


def _rename_last_param(header, payload):
    header["params"][-1]["name"] = "bogus"
    return header, payload


@pytest.mark.parametrize(
    "edit", [_drop_last_param, _rename_last_param], ids=["last_dropped", "renamed"]
)
def test_checkpoint_rejects_params_its_layers_do_not_build(tmp_path, edit):
    # the payload size still matches the header, so only the list can tell
    path = tmp_path / "model.ckpt"
    save_checkpoint(build_model(cnn_preset(20), (20, 1), seed=3), path)
    blob = path.read_bytes()
    cut = blob.find(b"\n#BINARY\n")
    header, payload = edit(json.loads(blob[:cut]), blob[cut:])
    path.write_bytes(json.dumps(header, indent=1).encode("utf-8") + payload)
    with pytest.raises(ValueError, match="parameter list"):
        load_checkpoint(path)


class _ProductCounter(np.ndarray):
    """A weight view that counts the matrix products it takes part in."""

    count = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _ProductCounter.count += 1
        inputs = tuple(np.asarray(a) if isinstance(a, _ProductCounter) else a for a in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


@pytest.mark.parametrize(
    "spec, shape", [(lstm_preset(6), (7, 3)), (cnn_preset(12), (12, 1))], ids=["lstm", "cnn"]
)
def test_first_layer_skips_its_input_gradient(spec, shape):
    model = build_model(spec, shape, seed=4)
    first = model.layers[0]
    # layers built on their own, as in the gradient gate, and every inner
    # layer still compute dx
    assert not first.input_grad and all(layer.input_grad for layer in model.layers[1:])
    local = np.random.default_rng(61)
    x = local.standard_normal((3, *shape))
    dlogits = local.standard_normal((3, 8))

    def backward_pass(input_grad):
        """Every gradient, and the backward products that read layer 0's W."""
        first.input_grad = input_grad
        model.forward(x, train=True, step_seed=2)
        weights = first.W
        first.W, _ProductCounter.count = weights.view(_ProductCounter), 0
        try:
            assert model.backward(dlogits) is None
        finally:
            first.W = weights
        return [np.asarray(g).copy() for g in model.gradients()], _ProductCounter.count

    skipped, skipped_products = backward_pass(False)
    full, full_products = backward_pass(True)
    assert skipped_products == 0 and full_products > 0
    assert len(skipped) == len(full)
    assert all(np.array_equal(a, b) for a, b in zip(skipped, full))


@pytest.mark.parametrize(
    "call, error",
    [
        (
            lambda: build_model(ModelSpec("bad", (LayerSpec("dense", units=7), HEAD)), (4,)),
            ShapeMismatch,
        ),
        (lambda: _make_layer(LayerSpec("gru", units=4)), ValueError),
    ],
    ids=["softmax_class_count", "unknown_layer_kind"],
)
def test_guards_reject_bad_arguments(call, error):
    with pytest.raises(error):
        call()


def _header_edit(edit):
    """A checkpoint edit that rewrites the JSON header as edit(header)."""

    def apply(blob):
        cut = blob.find(b"\n#BINARY\n")
        return json.dumps(edit(json.loads(blob[:cut]))).encode("utf-8") + blob[cut:]

    return apply


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda blob: blob.replace(b"#BINARY", b"#BINARX"), "missing binary sentinel"),
        (
            lambda blob: blob.replace(b"emorec-checkpoint-v1", b"emorec-checkpoint-v9"),
            "unknown checkpoint format",
        ),
        (lambda blob: b"\xff" + blob, "unreadable checkpoint header"),
        (_header_edit(lambda h: [h]), "unknown checkpoint format"),
        (
            _header_edit(lambda h: {**h, "layers": [{**h["layers"][0], "bogus": 1}]}),
            "builds no model",
        ),
        (_header_edit(lambda h: {**h, "layers": 3}), "builds no model"),
        (_header_edit(lambda h: {k: v for k, v in h.items() if k != "seed"}), "builds no model"),
        (_header_edit(lambda h: {**h, "input_shape": "53"}), "builds no model"),
        (
            _header_edit(
                lambda h: {
                    **h,
                    "layers": [
                        {**ls, "activation": "tanh"} if ls["kind"] == "dense" else ls
                        for ls in h["layers"]
                    ],
                }
            ),
            "builds no model.*unknown activation 'tanh'",
        ),
    ],
    ids=[
        "no_sentinel",
        "unknown_format",
        "not_utf8",
        "json_list",
        "extra_layer_key",
        "layers_not_a_list",
        "no_seed",
        "input_shape_string",
        "dense_activation",
    ],
)
def test_checkpoint_rejects_a_malformed_header(tmp_path, edit, message):
    path = tmp_path / "model.ckpt"
    save_checkpoint(build_model(lstm_preset(4), (5, 3), seed=0), path)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(ValueError, match=message) as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


# (layer kind, size field, a saved model holding that kind)
SIZE_FIELDS = [
    ("conv1d", "filters", lambda: build_model(cnn_preset(20), (20, 1))),
    ("conv1d", "kernel", lambda: build_model(cnn_preset(20), (20, 1))),
    ("maxpool1d", "pool", lambda: build_model(cnn_preset(20), (20, 1))),
    ("maxpool1d", "stride", lambda: build_model(cnn_preset(20), (20, 1))),
    ("dense", "units", lambda: build_model(cnn_preset(20), (20, 1))),
    ("lstm", "units", lambda: build_model(lstm_preset(4), (5, 3))),
]


@pytest.mark.parametrize("size", [0, -1])
@pytest.mark.parametrize("kind,field,_", SIZE_FIELDS, ids=[f"{k}-{f}" for k, f, _ in SIZE_FIELDS])
def test_build_model_rejects_a_layer_size_below_one(kind, field, _, size):
    sizes = {"conv1d": dict(filters=4, kernel=3), "maxpool1d": dict(pool=2, stride=1)}
    layer = LayerSpec(kind, **{**sizes.get(kind, {"units": 4}), field: size})
    spec = ModelSpec("bad", (layer, LayerSpec("softmax_output")))
    with pytest.raises(ValueError, match=f"^{kind} {field} must be at least 1, got {size}$"):
        build_model(spec, (8, 1))


@pytest.mark.parametrize("size", [0, -1])
@pytest.mark.parametrize("kind,field,saved", SIZE_FIELDS, ids=[f"{k}-{f}" for k, f, _ in SIZE_FIELDS])
def test_checkpoint_rejects_a_layer_size_below_one(tmp_path, kind, field, saved, size):
    path = tmp_path / "model.ckpt"
    save_checkpoint(saved(), path)

    def edit(header):
        first = next(ls for ls in header["layers"] if ls["kind"] == kind)
        first[field] = size
        return header

    path.write_bytes(_header_edit(edit)(path.read_bytes()))
    with pytest.raises(ValueError, match=f"builds no model in .*{kind} {field} must be at least 1"):
        load_checkpoint(path)
