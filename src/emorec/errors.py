"""Exception types shared across the toolkit.

Every error raised on a contract violation has its own class so callers can
react precisely; all inherit from EmorecError.
"""


class EmorecError(Exception):
    """Base class for all toolkit errors."""


# --- audio_io ---

class MalformedContainer(EmorecError):
    """WAV file is not a well-formed RIFF/WAVE container."""


class UnsupportedEncoding(EmorecError):
    """WAV encoding outside PCM 8/16/24/32-bit or IEEE float-32, or >2 channels."""


class EmptyAudio(EmorecError):
    """Decoded audio holds zero frames."""


class UnknownLabelCode(EmorecError):
    """Filename label token not present in the corpus mapping."""


class EmptyScan(EmorecError):
    """Dataset scan produced zero records."""


# --- augment ---

class ClipTooShort(EmorecError):
    """Clip shorter than one analysis window of the phase vocoder."""


# --- dsp ---

class NonPowerOfTwoLength(EmorecError):
    """FFT input length is not a power of two."""


class DegenerateFilter(EmorecError):
    """Adjacent mel filter centers collapsed onto the same FFT bin."""


class OddLength(EmorecError):
    """DWT level input length is odd; caller must pad."""


class TooShort(EmorecError):
    """DWT level input shorter than the filter."""


class TooManyLevels(EmorecError):
    """Requested decomposition depth exceeds what the signal length allows."""


# --- dataset ---

class TooFewRows(EmorecError):
    """Standardizer fit needs at least two rows."""


class SchemaMismatch(EmorecError):
    """Column count or schema does not match the fitted statistics."""


class DegenerateSplit(EmorecError):
    """Train or test side of a split would be empty."""


# --- nn ---

class ShapeMismatch(EmorecError):
    """Tensor shapes do not chain for the requested operation."""


class InputTooShort(EmorecError):
    """Pooling window longer than its input."""


class InvalidArchitectureForInputLength(EmorecError):
    """A pooling stage in the model spec would receive fewer samples than its pool size."""


class NonFiniteOutput(EmorecError):
    """A layer produced a NaN or infinite value."""


class NoForwardState(EmorecError):
    """A layer's backward ran without a preceding forward(train=True)."""


# --- viz / cli ---

class IoFailure(EmorecError):
    """Export target could not be written."""


class ClipNotFound(EmorecError):
    """Clip selector matched no record."""


class ConfigError(EmorecError):
    """Experiment config is missing, malformed, or holds an unknown key."""


class WorkerFailed(EmorecError):
    """A forked extraction or training worker ended without sending its result."""
