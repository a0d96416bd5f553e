"""From-scratch neural-network engine: layers, Adam, training, checkpoints."""

from .layers import (
    Conv1DLayer,
    DenseLayer,
    DropoutLayer,
    FlattenLayer,
    Layer,
    LSTMLayer,
    MaxPool1DLayer,
    glorot_uniform,
    softmax_cross_entropy,
)
from .model import (
    LayerSpec,
    Model,
    ModelSpec,
    N_CLASSES,
    SoftmaxOutputLayer,
    build_model,
    cnn_preset,
    conv1d_spec,
    dense_spec,
    dropout_spec,
    flatten_spec,
    load_checkpoint,
    lstm_preset,
    lstm_spec,
    maxpool1d_spec,
    save_checkpoint,
    softmax_output_spec,
)
from .optim import AdamState, adam_update
from .train import (
    TrainReport,
    evaluate,
    read_report_csv,
    train,
    write_confusion_csv,
    write_report_csv,
    write_timing_csv,
)
