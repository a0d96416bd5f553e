"""Config file parsing, defaults, validation, and resolved-text round trip."""

import pytest

from emorec.config import ExperimentConfig, load_config, parse_config_text
from emorec.errors import ConfigError


def test_defaults():
    cfg = ExperimentConfig()
    assert cfg.rate == 16000
    assert cfg.clip_seconds == 3.0
    assert cfg.noise_rate == 0.035
    assert cfg.stretch_rates == (0.8, 1.2)
    assert cfg.pitch_semitones == (-2.0, 2.0)
    assert cfg.n_fft == 1024 and cfg.hop == 256
    assert cfg.n_mels == 40 and cfg.n_mfcc == 40
    assert cfg.fmax_hz == 8000.0
    assert cfg.wavelet_family == "db4" and cfg.wavelet_levels == 5
    assert cfg.test_fraction == 0.25 and cfg.split_shuffle is True
    assert cfg.epochs == 50 and cfg.batch_size == 64 and cfg.lr == 0.001
    assert cfg.feature_mode == "mfcc" and cfg.model == "cnn"
    assert cfg.seed_augment == cfg.seed_init == cfg.seed_shuffle == cfg.seed_dropout == 0


def test_parse_typed_values():
    cfg = parse_config_text(
        """
        # comment line
        rate = 22050
        clip_seconds = 2.5
        augment = no

        stretch_rates = 0.9, 1.1
        pitch_semitones = 2
        models = cnn
        feature_modes = mfcc, wavelet
        seed_init = 42
        """
    )
    assert cfg.rate == 22050
    assert cfg.clip_seconds == 2.5
    assert cfg.augment is False
    assert cfg.stretch_rates == (0.9, 1.1)
    assert cfg.pitch_semitones == (2.0,)
    assert cfg.models == ("cnn",)
    assert cfg.feature_modes == ("mfcc", "wavelet")
    assert cfg.seed_init == 42


def test_parse_booleans_and_empty_tuples():
    assert parse_config_text("augment = true").augment is True
    assert parse_config_text("augment = 0").augment is False
    assert parse_config_text("split_shuffle = yes").split_shuffle is True
    assert parse_config_text("stretch_rates =").stretch_rates == ()
    assert parse_config_text("pitch_semitones = none").pitch_semitones == ()
    # an emptied list keeps its element type for a later value of its key
    assert parse_config_text("stretch_rates =\nstretch_rates = 1.1").stretch_rates == (1.1,)


def test_unknown_key_names_the_key():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("rate = 16000\nwibble = 3\n")
    assert "wibble" in str(exc.value)
    assert "line 2" in str(exc.value)


def test_bad_value_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("rate = fast")
    with pytest.raises(ConfigError):
        parse_config_text("rate 16000")  # no '='
    with pytest.raises(ConfigError):
        parse_config_text("augment = maybe")
    for bad in (
        "clip_seconds = nan",
        "clip_seconds = inf",
        "noise_rate = nan",
        "lr = nan",
        "lr = -inf",
        "stretch_rates = 0.8, abc",
        "stretch_rates = 0.8, nan",
        "pitch_semitones = up",
    ):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_text(bad)


def test_resolved_text_round_trip():
    cfg = parse_config_text("rate = 8000\nnoise_rate = 0.05\nmodels = lstm\naugment = false")
    text = cfg.resolved_text()
    back = parse_config_text(text)
    assert back == cfg
    # every field appears exactly once, in declaration order
    from dataclasses import fields

    keys = [line.split(" = ")[0] for line in text.strip().splitlines()]
    assert keys == [f.name for f in fields(ExperimentConfig)]
    assert len(keys) == len(set(keys))


def test_load_config_with_overrides(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("rate = 22050\nepochs = 3\n")
    cfg = load_config(path, overrides={"epochs": "7", "model": "lstm"})
    assert cfg.rate == 22050
    assert cfg.epochs == 7
    assert cfg.model == "lstm"
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.cfg")


def test_a_key_set_again_takes_its_last_value(tmp_path):
    assert parse_config_text("rate = 8000\nrate = 22050\n").rate == 22050
    path = tmp_path / "exp.cfg"
    path.write_text("seed_init = 3\nseed_init = 4")  # no final newline
    assert load_config(path).seed_init == 4
    assert load_config(path, overrides={"seed_init": "5"}).seed_init == 5


def test_validate_requires_a_corpus_root(tmp_path):
    cfg = ExperimentConfig()
    with pytest.raises(ConfigError):
        cfg.validate()
    cfg = parse_config_text(f"ravdess_root = {tmp_path}")
    cfg.validate()  # directory exists -> fine
    cfg2 = parse_config_text(f"ravdess_root = {tmp_path}/nope")
    with pytest.raises(ConfigError) as exc:
        cfg2.validate()
    assert "nope" in str(exc.value)


def test_validate_rejects_bad_choices(tmp_path):
    base = f"ravdess_root = {tmp_path}\n"
    for bad in (
        "feature_mode = cepstrum",
        "model = mlp",
        "window = kaiser",
        "wavelet_family = sym9",
        "test_fraction = 0",
        "test_fraction = 1",
        "rate = 0",
        "epochs = -1",
        "hop = 0",
        "wavelet_levels = 0",
        "stretch_rates = 3.0",
        "pitch_semitones = 20",
        "hop = 2048",
        "fmax_hz = 9000",
        "log_floor = 0",
        "clip_seconds = 0.05",
        "n_fft = 512\nclip_seconds = 0.05",  # 800 samples: under the vocoder's 1024
        "clip_seconds = 1e308",  # rate * clip_seconds overflows to inf
        "clip_seconds = 1e300",  # finite, but more samples than a WAV holds
        "rate = 1" + "0" * 400,  # too large for a float
        "wavelet_levels = 13\nclip_seconds = 1.0",  # db4 needs 8 * 2^12 = 32768 samples
        "n_mels = 128\nn_fft = 256\nhop = 128",  # mel filter 0 holds no FFT bin
        "noise_rate = 1e308",  # rate * peak * noise overflows to inf
        "noise_rate = 1.5",  # more than the clip's peak
    ):
        with pytest.raises(ConfigError):
            parse_config_text(base + bad).validate()
    parse_config_text(base + "n_fft = 512\nclip_seconds = 0.05\naugment = false").validate()
    noise_only = "stretch_rates = none\npitch_semitones = none"
    parse_config_text(base + "n_fft = 512\nclip_seconds = 0.05\n" + noise_only).validate()


def test_enabled_corpora_fixed_order(tmp_path):
    cfg = parse_config_text(f"tess_root = {tmp_path}\ncremad_root = {tmp_path}")
    assert [name for name, _ in cfg.enabled_corpora()] == ["cremad", "tess"]


def test_augment_plan_disabled_paths():
    assert parse_config_text("augment = false").augment_plan() is None
    empty = parse_config_text("noise_rate = 0\nstretch_rates =\npitch_semitones =")
    assert empty.augment_plan() is None
    plan = ExperimentConfig().augment_plan()
    assert plan is not None
    assert plan.noise_rate == 0.035
    assert plan.stretch_rates == (0.8, 1.2)
    assert plan.pitch_semitones == (-2.0, 2.0)
