"""Exception types shared across the toolkit.

Every error survives a pickle round trip with its message and attributes,
since results cross from worker processes to the parent.
"""


class LaunderbenchError(Exception):
    """Base class for all toolkit errors."""


# --- audio I/O ---

class UnsupportedFormat(LaunderbenchError):
    """File container/codec is not WAV or FLAC."""


class MultichannelInput(LaunderbenchError):
    """Audio has more than one channel; only mono is supported."""


class CorruptFile(LaunderbenchError):
    """File is truncated, fails checksum verification, or violates its format."""


class IoFailure(LaunderbenchError):
    """Filesystem write failed."""


class EmptyBuffer(LaunderbenchError):
    """Operation requires at least one sample."""


class SampleRateChangedByCodec(UserWarning):
    """Lossy codec returned a different sample rate; audio was resampled back."""


class BackendInvocationFailed(LaunderbenchError):
    """Codec command failed: not launched, bad exit status, or no output."""


# --- DSP ---

class InvalidParameter(LaunderbenchError):
    """Parameter outside its valid range or inconsistent attack fields."""


class SilentInput(LaunderbenchError):
    """Signal or noise has zero power; SNR mixing is undefined."""


class RateMismatch(LaunderbenchError):
    """Sample rates of two buffers differ where they must agree."""


class UnstableFilter(LaunderbenchError):
    """Filter has a pole on or outside the unit circle."""


class NoiseAssetMissing(LaunderbenchError):
    """A named noise recording is absent from the noise directory."""


# --- protocol ---

class MalformedLine(LaunderbenchError):
    """A manifest or score line does not match the expected field layout."""

    def __init__(self, line_no, reason):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason

    def __reduce__(self):
        return type(self), (self.line_no, self.reason)


class DuplicateId(LaunderbenchError):
    """The same utterance id appears more than once in a manifest."""


class NonFiniteScore(LaunderbenchError):
    """A score parsed to NaN or infinity."""


class MissingScore(LaunderbenchError):
    """Strict join: trials without a matching score."""

    def __init__(self, ids):
        super().__init__(f"{len(ids)} trial(s) without a score, e.g. {sorted(ids)[:5]}")
        self.ids = ids

    def __reduce__(self):
        return type(self), (self.ids,)


class OrphanScore(LaunderbenchError):
    """Strict join: scores without a matching trial."""

    def __init__(self, ids):
        super().__init__(f"{len(ids)} score(s) without a trial, e.g. {sorted(ids)[:5]}")
        self.ids = ids

    def __reduce__(self):
        return type(self), (self.ids,)


# --- metrics / reporting ---

class EmptyClass(LaunderbenchError):
    """A metric needs at least one bonafide and one spoof score."""


class InsufficientCells(LaunderbenchError):
    """Ranking asked for more cells than the table holds on that axis."""


# --- pipeline ---

class EmptyInput(LaunderbenchError):
    """Operation requires a non-empty collection."""


class ZeroSelection(LaunderbenchError):
    """fraction * N floors to zero; nothing would be selected."""


class WorkerDied(LaunderbenchError):
    """A worker process ended before returning its results."""
