"""Mono audio container, WAV/FLAC file I/O, and the lossy-codec adapter."""

from __future__ import annotations

import os
import secrets
import struct
import subprocess
import tempfile
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import flacio
from .errors import (BackendInvocationFailed, CorruptFile, EmptyBuffer,
                     InvalidParameter, IoFailure, MultichannelInput,
                     UnsupportedFormat)

FORMATS = ("wav16", "flac")
# (WAV format code, bytes per sample) -> (sample dtype, zero, full scale);
# format 1 is PCM, 3 IEEE float, and 24-bit PCM is read into the top
# three bytes of an int32
_WAV_SAMPLES = {(1, 1): ("u1", 128.0, 128.0), (1, 2): ("<i2", 0.0, 2.0 ** 15),
                (1, 3): ("<i4", 0.0, 2.0 ** 31), (1, 4): ("<i4", 0.0, 2.0 ** 31),
                (3, 4): ("<f4", 0.0, 1.0), (3, 8): ("<f8", 0.0, 1.0)}
# the SubFormat GUID of WAVE_FORMAT_EXTENSIBLE, after its format code
_SUBFORMAT_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


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


def _read_wav(blob: bytes, path) -> AudioBuffer:
    """A mono PCM (8, 16, 24 or 32-bit) or float (32 or 64-bit) RIFF/WAVE
    file, plain or WAVE_FORMAT_EXTENSIBLE, scaled to [-1, 1].  A data
    chunk that claims more bytes than the file holds, as one written to a
    pipe (size 0xFFFFFFFF) or cut off mid-recording does, is read to its
    last whole sample, as scipy.io.wavfile reads it; any other chunk cut
    short makes the file corrupt."""
    chunks = {}
    at = 12
    while at + 8 <= len(blob) and b"data" not in chunks:
        name = blob[at:at + 4]
        size = int.from_bytes(blob[at + 4:at + 8], "little")
        body = blob[at + 8:at + 8 + size]
        short = len(body) < size
        if short and name != b"data":
            raise CorruptFile(f"{path}: {name!r} chunk of {size} bytes is "
                              f"cut short at {len(body)}")
        chunks.setdefault(name, body)
        at += 8 + size + size % 2
    fmt, data = chunks.get(b"fmt "), chunks.get(b"data")
    if fmt is None or len(fmt) < 16 or data is None:
        raise CorruptFile(f"{path}: no complete fmt chunk before a data chunk")
    code, channels, rate, _, align, bits = struct.unpack_from("<HHIIHH", fmt)
    if code == 0xFFFE and fmt[28:40] == _SUBFORMAT_TAIL:
        code = int.from_bytes(fmt[24:28], "little")
    if code not in (1, 3):
        raise UnsupportedFormat(
            f"{path}: WAV format code {code:#x} is neither PCM nor float")
    if channels != 1:
        raise (MultichannelInput if channels else CorruptFile)(
            f"{path}: {channels} channels, only mono is supported")
    if (code, align) not in _WAV_SAMPLES:
        raise UnsupportedFormat(
            f"{path}: unsupported {bits}-bit samples in {align}-byte frames")
    # the loop ends at the data chunk, so short says whether it was cut
    if len(data) % align and not short:
        raise CorruptFile(f"{path}: data chunk ends inside a sample")
    data = data[:len(data) - len(data) % align]
    dtype, zero, scale = _WAV_SAMPLES[code, align]
    if align == 3:
        data = np.pad(np.frombuffer(data, np.uint8).reshape(-1, 3),
                      ((0, 0), (1, 0)))
    samples = np.frombuffer(data, dtype)
    if code == 3 and not np.isfinite(samples).all():
        raise CorruptFile(f"{path}: float samples include NaN or infinity")
    return AudioBuffer((samples.astype(np.float64) - zero) / scale, rate)


def read_audio(path) -> AudioBuffer:
    """Read a mono WAV or FLAC file into an AudioBuffer scaled to [-1, 1]."""
    path = Path(path)
    try:
        blob = path.read_bytes()
    except (OSError, ValueError) as e:   # ValueError: a NUL in the path
        raise IoFailure(f"cannot read {path}: {e}") from e

    if blob[:4] == b"RIFF" and blob[8:12] == b"WAVE":
        return _read_wav(blob, path)

    if blob[:4] == b"fLaC" or blob[:3] == b"ID3":
        samples, rate, bps = flacio.decode_flac(blob)
        return AudioBuffer(samples.astype(np.float64) / (1 << (bps - 1)), rate)

    raise UnsupportedFormat(
        f"{path}: not a RIFF/WAVE or FLAC file (header {blob[:4]!r})")


def write_file(path, fill) -> None:
    """Write path as what fill(fh) writes into an open binary file, under a
    temporary name in its directory renamed onto path once complete, so a
    writer that fails or is killed never leaves a truncated file there."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.part")
    try:
        with open(tmp, "xb") as fh:
            fill(fh)
        os.replace(tmp, path)
    except OSError as e:
        raise IoFailure(f"cannot write {path}: {e}") from e
    finally:
        tmp.unlink(missing_ok=True)  # already gone once renamed


def write_audio(buf: AudioBuffer, path, format: str = "flac") -> int:
    """Write 16-bit audio with write_file; returns the count of saturated
    samples, which are clamped to full scale rather than raising, so that
    callers can report clipping totals."""
    if format not in FORMATS:
        raise UnsupportedFormat(
            f"unknown output format {format!r}; expected one of {FORMATS}")
    q = np.clip(np.rint(buf.samples * 32768.0), -32768, 32767).astype(np.int64)
    clipped = int(np.count_nonzero(np.abs(buf.samples) > 1.0))

    def fill(fh):
        if format == "wav16":
            with wave.open(fh, "wb") as w:
                w.setnchannels(1)
                w.setsampwidth(2)
                w.setframerate(buf.sample_rate_hz)
                w.writeframes(q.astype("<i2").tobytes())
        else:
            fh.write(flacio.encode_flac(q, buf.sample_rate_hz))

    write_file(path, fill)
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
