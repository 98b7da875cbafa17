"""Mono audio container, WAV/FLAC file I/O, and the lossy-codec round trip."""

from __future__ import annotations

import io
import subprocess
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import flacio
from .errors import (BackendInvocationFailed, CorruptFile, EmptyBuffer,
                     InvalidParameter, IoFailure, MultichannelInput,
                     SampleRateChangedByCodec, UnsupportedFormat)

FORMATS = ("wav16", "flac")


@dataclass
class AudioBuffer:
    """A single-channel signal with amplitudes nominally in [-1, 1]."""

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise MultichannelInput(
                f"expected a one-dimensional signal, got shape {arr.shape}")
        self.samples = arr
        self.sample_rate_hz = int(self.sample_rate_hz)
        if self.sample_rate_hz <= 0:
            raise InvalidParameter(
                f"sample rate must be positive, got {self.sample_rate_hz}")

    @property
    def duration_seconds(self) -> float:
        return len(self.samples) / self.sample_rate_hz

    def __len__(self):
        return len(self.samples)


@dataclass
class CodecBackend:
    """Codec adapter running an external lossy encode/decode command pair.

    Placeholders {in}, {out}, and {bitrate_kbps} are substituted literally
    into whitespace-split argument vectors; no shell is involved.  Each
    call exchanges 16-bit WAV and the coded stream through files in its
    own temporary directory.
    """

    encode_command_template: str
    decode_command_template: str
    identity: str

    def __post_init__(self):
        for ph in ("{in}", "{out}", "{bitrate_kbps}"):
            if ph not in self.encode_command_template:
                raise InvalidParameter(
                    f"encode template is missing the {ph} placeholder")
        for ph in ("{in}", "{out}"):
            if ph not in self.decode_command_template:
                raise InvalidParameter(
                    f"decode template is missing the {ph} placeholder")

    def __call__(self, buf: AudioBuffer, bitrate_kbps: int) -> AudioBuffer:
        with tempfile.TemporaryDirectory(prefix="launder-codec-") as tmp:
            wav_path = Path(tmp) / "in.wav"
            mp3_path = Path(tmp) / "coded.mp3"
            out_path = Path(tmp) / "out.wav"
            write_audio(buf, wav_path, "wav16")
            _run_backend(_substitute(self.encode_command_template, {
                "{in}": str(wav_path), "{out}": str(mp3_path),
                "{bitrate_kbps}": str(int(bitrate_kbps))}), "encode")
            if not mp3_path.exists() or mp3_path.stat().st_size == 0:
                raise BackendInvocationFailed(
                    f"encode command produced no output at {mp3_path}")
            _run_backend(_substitute(self.decode_command_template, {
                "{in}": str(mp3_path), "{out}": str(out_path)}), "decode")
            if not out_path.exists():
                raise BackendInvocationFailed(
                    f"decode command produced no output at {out_path}")
            return read_audio(out_path)


def _scale_to_float(data) -> np.ndarray:
    if data.dtype == np.int16:
        return data.astype(np.float64) / 32768.0
    if data.dtype == np.int32:
        # 24-bit PCM arrives left-justified in int32, so one divisor serves both
        return data.astype(np.float64) / 2147483648.0
    if data.dtype == np.uint8:
        return (data.astype(np.float64) - 128.0) / 128.0
    if data.dtype in (np.float32, np.float64):
        return data.astype(np.float64)
    raise UnsupportedFormat(f"unsupported WAV sample type {data.dtype}")


def read_audio(path) -> AudioBuffer:
    """Read a mono WAV or FLAC file into an AudioBuffer scaled to [-1, 1]."""
    path = Path(path)
    try:
        blob = path.read_bytes()
    except (OSError, ValueError) as e:   # ValueError: a NUL in the path
        raise IoFailure(f"cannot read {path}: {e}") from e

    if blob[:4] == b"RIFF" and blob[8:12] == b"WAVE":
        from scipy.io import wavfile
        try:
            rate, data = wavfile.read(io.BytesIO(blob))
        except ValueError as e:
            if "nknown wave file format" in str(e):
                raise UnsupportedFormat(f"{path}: {e}") from e
            raise CorruptFile(f"{path}: {e}") from e
        except Exception as e:
            raise CorruptFile(f"{path}: {e}") from e
        if data.ndim != 1:
            raise MultichannelInput(
                f"{path}: {data.shape[1]} channels, only mono is supported")
        if data.dtype.kind == "f" and not np.isfinite(data).all():
            raise CorruptFile(f"{path}: float samples include NaN or infinity")
        return AudioBuffer(_scale_to_float(data), rate)

    if blob[:4] == b"fLaC" or blob[:3] == b"ID3":
        samples, rate, bps = flacio.decode_flac(blob)
        return AudioBuffer(samples.astype(np.float64) / (1 << (bps - 1)), rate)

    raise UnsupportedFormat(
        f"{path}: not a RIFF/WAVE or FLAC file (header {blob[:4]!r})")


def _quantize16(samples):
    q = np.rint(np.asarray(samples, dtype=np.float64) * 32768.0)
    clipped = int(np.count_nonzero(np.abs(samples) > 1.0))
    return np.clip(q, -32768, 32767).astype(np.int64), clipped


def write_audio(buf: AudioBuffer, path, format: str = "flac") -> int:
    """Write 16-bit audio; returns the count of saturated samples.

    Samples outside [-1, 1] are clamped to full scale rather than raising;
    the returned count lets callers report clipping totals.
    """
    if format not in FORMATS:
        raise UnsupportedFormat(
            f"unknown output format {format!r}; expected one of {FORMATS}")
    q, clipped = _quantize16(buf.samples)
    path = Path(path)
    try:
        if format == "wav16":
            from scipy.io import wavfile
            wavfile.write(path, buf.sample_rate_hz, q.astype("<i2"))
        else:
            blob = flacio.encode_flac(q, buf.sample_rate_hz)
            with open(path, "wb") as fh:
                fh.write(blob)
    except OSError as e:
        raise IoFailure(f"cannot write {path}: {e}") from e
    return clipped


def rms_power(buf: AudioBuffer) -> float:
    """Mean-square power (1/N)·Σ s²."""
    if len(buf.samples) == 0:
        raise EmptyBuffer("cannot compute power of an empty signal")
    return float(np.mean(np.square(buf.samples)))


def _substitute(template: str, mapping: dict) -> list:
    argv = []
    for token in template.split():
        for key, value in mapping.items():
            token = token.replace(key, value)
        argv.append(token)
    return argv


def _run_backend(argv, stage):
    try:
        proc = subprocess.run(argv, capture_output=True)
    except OSError as e:
        raise BackendInvocationFailed(
            f"{stage} command {argv[0]!r} could not be launched: {e}") from e
    if proc.returncode != 0:
        tail = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-3:]
        raise BackendInvocationFailed(
            f"{stage} command exited with status {proc.returncode}: "
            + " / ".join(tail))


def codec_roundtrip(buf: AudioBuffer, bitrate_kbps: int,
                    codec) -> AudioBuffer:
    """Encode to a lossy codec and decode back.

    A codec is any callable codec(buf, bitrate_kbps) -> AudioBuffer with
    an identity attribute: mp3tool's in-process LAME codec or the
    CodecBackend command adapter.  The decoded signal is trimmed or
    zero-padded to the input length with no delay compensation, and
    resampled back (with a warning) if the codec returns a different rate.
    """
    if bitrate_kbps <= 0:
        raise InvalidParameter(f"bitrate must be positive, got {bitrate_kbps}")
    out = codec(buf, bitrate_kbps)

    if out.sample_rate_hz != buf.sample_rate_hz:
        warnings.warn(
            f"codec returned {out.sample_rate_hz} Hz for "
            f"{buf.sample_rate_hz} Hz input; resampling back",
            SampleRateChangedByCodec, stacklevel=2)
        from .dsp import resample
        out = resample(out, buf.sample_rate_hz)

    return AudioBuffer(fit_length(out.samples, len(buf)), buf.sample_rate_hz)


def fit_length(samples: np.ndarray, n: int) -> np.ndarray:
    """The first n samples, zero-padded at the end when there are fewer."""
    return np.pad(samples[:n], (0, max(0, n - len(samples))))
