import pytest

from emorec import synth
from emorec.nn import layers


@pytest.fixture(scope="session")
def tiny_corpus(tmp_path_factory):
    """24 short synthetic clips (3 per class), scannable as ravdess."""
    root = tmp_path_factory.mktemp("corpus")
    synth.generate_corpus(root, clips_per_class=3, seconds=1.0)
    return str(root)


@pytest.fixture
def split_all(monkeypatch):
    """No work threshold: every piece a step helper can halve splits."""
    monkeypatch.setattr(layers, "_SPLIT_MACS", 0)
