"""Laundering attacks and the filter/RIR primitives behind them.

Five attack families: reverberation (synthetic exponentially-decaying
room response), additive noise at a target SNR, lossy recompression
through the codec backend, resampling round trips, and Butterworth
lowpass filtering.  Every transform is a pure function of its inputs;
randomness enters only through explicit integer seeds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np

from .audio import (AudioBuffer, codec_roundtrip, fit_length, read_audio,
                    rms_power)
from .errors import (InvalidParameter, NoiseAssetMissing, RateMismatch,
                     SilentInput, UnstableFilter)
from .rng import derive_seed

RT60_CHOICES = (0.3, 0.6, 0.9)
NOISE_NAMES = ("babble", "volvo", "white", "cafe", "street")
SNR_DB_CHOICES = (0, 10, 20)
BITRATE_CHOICES = (16, 64, 128, 192, 256, 320)
TARGET_RATE_CHOICES = (8000, 11025, 22050, 44100)
LOWPASS_CUTOFF_HZ = 8000
LOWPASS_ORDER = 5
NOISE_RATE_HZ = 16000
LOADABLE_NOISES = ("babble", "volvo", "cafe", "street")

# kind -> parameter -> allowed values, in plan order; pipeline.plan_attacks
# draws one value per parameter (noise_name fans out over all its values)
ATTACK_GRID = {
    "reverberation": {"rt60_s": RT60_CHOICES},
    "additive_noise": {"noise_name": NOISE_NAMES, "snr_db": SNR_DB_CHOICES},
    "recompression": {"bitrate_kbps": BITRATE_CHOICES},
    "resampling": {"target_rate_hz": TARGET_RATE_CHOICES},
    "lowpass": {"cutoff_hz": (LOWPASS_CUTOFF_HZ,), "order": (LOWPASS_ORDER,)},
}


@dataclass(frozen=True)
class AttackSpec:
    """One laundering attack with exactly the parameters its kind needs."""

    kind: str
    rt60_s: float = None
    noise_name: str = None
    snr_db: int = None
    bitrate_kbps: int = None
    target_rate_hz: int = None
    cutoff_hz: float = None
    order: int = None

    def __post_init__(self):
        grid = ATTACK_GRID.get(self.kind)
        if grid is None:
            raise InvalidParameter(f"unknown attack kind {self.kind!r}")
        for f in fields(self)[1:]:
            value = getattr(self, f.name)
            if f.name not in grid:
                if value is not None:
                    raise InvalidParameter(
                        f"{f.name} does not apply to {self.kind} attacks")
            elif value is None:
                raise InvalidParameter(f"{self.kind} attack requires {f.name}")
            elif value not in grid[f.name]:
                raise InvalidParameter(
                    f"{f.name} must be one of {grid[f.name]}, got {value!r}")


@dataclass
class FilterCoefficients:
    """Cascade of second-order sections (b0, b1, b2, a1, a2)."""

    sections: tuple

    def is_stable(self) -> bool:
        # stability triangle for z^2 + a1 z + a2
        return all(abs(a2) < 1.0 and abs(a1) < 1.0 + a2
                   for _, _, _, a1, a2 in self.sections)


@dataclass
class NoiseLibrary:
    """Named noise recordings under one directory, loaded and cached lazily.

    Expected layout: <directory>/{babble,volvo,cafe,street}.wav.  White
    noise is synthesized on demand and never loaded from disk.  Assets are
    resampled to 16 kHz on load so SNR arithmetic sees matched rates.
    """

    directory: Path
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def get(self, name: str) -> AudioBuffer:
        if name in self._cache:
            return self._cache[name]
        if name not in LOADABLE_NOISES:
            raise InvalidParameter(
                f"{name!r} is not a loadable noise; expected one of "
                f"{LOADABLE_NOISES}")
        path = Path(self.directory) / f"{name}.wav"
        if not path.exists():
            raise NoiseAssetMissing(
                f"noise asset {name!r} not found at {path}")
        buf = read_audio(path)
        if len(buf) == 0:
            raise SilentInput(f"noise asset {name!r} at {path} is empty")
        if buf.sample_rate_hz != NOISE_RATE_HZ:
            buf = resample(buf, NOISE_RATE_HZ)
        self._cache[name] = buf
        return buf


def synthesize_rir(rt60_s: float, fs_hz: int, seed: int) -> AudioBuffer:
    """Statistical room impulse response: unit direct path plus a seeded
    Gaussian tail under the exponential envelope that hits -60 dB at RT60."""
    if rt60_s <= 0:
        raise InvalidParameter(f"rt60_s must be positive, got {rt60_s}")
    if fs_hz <= 0:
        raise InvalidParameter(f"fs_hz must be positive, got {fs_hz}")
    n = math.ceil(1.5 * rt60_s * fs_hz)
    t = np.arange(n) / fs_hz
    envelope = np.exp(-t * (3.0 * math.log(10.0)) / rt60_s)
    rng = np.random.Generator(np.random.PCG64(seed))
    h = rng.standard_normal(n) * envelope
    h[0] = 1.0
    return AudioBuffer(h, fs_hz)


def apply_reverberation(x: AudioBuffer, rt60_s: float, seed: int) -> AudioBuffer:
    rir = synthesize_rir(rt60_s, x.sample_rate_hz, seed)
    if len(x) == 0:
        return AudioBuffer(x.samples.copy(), x.sample_rate_hz)
    from scipy.signal import fftconvolve
    y = fftconvolve(x.samples, rir.samples)[:len(x)]
    peak_in = np.max(np.abs(x.samples))
    peak_out = np.max(np.abs(y))
    if peak_out > peak_in and peak_out > 0:
        y *= peak_in / peak_out
    return AudioBuffer(y, x.sample_rate_hz)


def generate_white_noise(n: int, seed: int) -> np.ndarray:
    """Unit-variance Gaussian noise; mix_noise applies the SNR gain."""
    if n <= 0:
        raise InvalidParameter(f"sample count must be positive, got {n}")
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.standard_normal(n)


def mix_noise(x: AudioBuffer, noise: AudioBuffer, snr_db: float,
              seed: int) -> AudioBuffer:
    """Add a cyclic noise segment at the exact target SNR.

    The segment starts at a seeded random offset and wraps around the
    noise recording; gain is computed from the powers of the signal and
    of that specific segment, so the realized SNR is exact by construction.
    """
    if noise.sample_rate_hz != x.sample_rate_hz:
        raise RateMismatch(
            f"noise is {noise.sample_rate_hz} Hz but signal is "
            f"{x.sample_rate_hz} Hz")
    if len(noise) == 0:
        raise SilentInput("noise recording is empty")
    p_signal = rms_power(x)
    if p_signal == 0:
        raise SilentInput("signal has zero power; SNR is undefined")
    rng = np.random.Generator(np.random.PCG64(seed))
    start = int(rng.integers(0, len(noise)))
    idx = (start + np.arange(len(x))) % len(noise)
    segment = noise.samples[idx]
    p_segment = float(np.mean(np.square(segment)))
    if p_segment == 0:
        raise SilentInput("selected noise segment has zero power")
    gain = math.sqrt(p_signal / (p_segment * 10.0 ** (snr_db / 10.0)))
    return AudioBuffer(x.samples + gain * segment, x.sample_rate_hz)


def design_butterworth_lowpass(order: int, cutoff_hz: float,
                               fs_hz: int) -> FilterCoefficients:
    """Butterworth lowpass as second-order sections.

    Analog prototype poles are prewarped and mapped by the bilinear
    transform; each section is normalized to unit DC gain.  A cutoff at
    or above Nyquist is clamped to 0.99*Nyquist with a warning.
    """
    if order < 1:
        raise InvalidParameter(f"order must be >= 1, got {order}")
    if cutoff_hz <= 0:
        raise InvalidParameter(f"cutoff must be positive, got {cutoff_hz}")
    if fs_hz <= 0:
        raise InvalidParameter(f"sample rate must be positive, got {fs_hz}")
    nyquist = fs_hz / 2.0
    effective = cutoff_hz
    if effective >= nyquist:
        effective = 0.99 * nyquist
        warnings.warn(
            f"lowpass cutoff {cutoff_hz} Hz is at or above Nyquist "
            f"({nyquist:.0f} Hz); clamped to {effective:.0f} Hz", stacklevel=2)

    warped = 2.0 * fs_hz * math.tan(math.pi * effective / fs_hz)
    k = np.arange(order)
    poles = warped * np.exp(1j * np.pi * (2 * k + order + 1) / (2 * order))
    zpoles = (2.0 * fs_hz + poles) / (2.0 * fs_hz - poles)

    sections = []
    for i in range(order // 2):
        p = zpoles[i]  # conjugate partner is zpoles[order - 1 - i]
        a1 = -2.0 * p.real
        a2 = abs(p) ** 2
        g = (1.0 + a1 + a2) / 4.0
        sections.append((g, 2.0 * g, g, a1, a2))
    if order % 2:
        p = zpoles[order // 2].real
        a1 = -p
        g = (1.0 + a1) / 2.0
        sections.append((g, g, 0.0, a1, 0.0))
    return FilterCoefficients(tuple(sections))


def apply_filter(x: AudioBuffer, c: FilterCoefficients) -> AudioBuffer:
    if not c.is_stable():
        raise UnstableFilter("filter has poles on or outside the unit circle")
    sos = np.array([[b0, b1, b2, 1.0, a1, a2]
                    for b0, b1, b2, a1, a2 in c.sections])
    if len(x) == 0:
        return AudioBuffer(x.samples.copy(), x.sample_rate_hz)
    from scipy.signal import sosfilt
    y = sosfilt(sos, x.samples)
    return AudioBuffer(y, x.sample_rate_hz)


@lru_cache(maxsize=64)
def _resample_kernel(up: int, down: int) -> np.ndarray:
    # designed at the upsampled rate: passband 0.9/max, stopband 1/max,
    # 80 dB of stopband attenuation
    from scipy.signal import firwin, kaiserord
    cutoff = 1.0 / max(up, down)
    numtaps, beta = kaiserord(80.0, 0.1 * cutoff)
    numtaps |= 1
    return firwin(numtaps, 0.95 * cutoff, window=("kaiser", beta))


def resample(x: AudioBuffer, target_rate_hz: int) -> AudioBuffer:
    """Polyphase rational-ratio resampling with a Kaiser anti-alias filter."""
    if target_rate_hz <= 0:
        raise InvalidParameter(
            f"target rate must be positive, got {target_rate_hz}")
    source = x.sample_rate_hz
    if target_rate_hz == source:
        return AudioBuffer(x.samples.copy(), source)
    ratio = Fraction(int(target_rate_hz), int(source))
    n_out = round(Fraction(len(x)) * ratio)
    if len(x) == 0:
        return AudioBuffer(np.zeros(0), target_rate_hz)
    h = _resample_kernel(ratio.numerator, ratio.denominator)
    from scipy.signal import resample_poly
    y = resample_poly(x.samples, ratio.numerator, ratio.denominator,
                      window=h)
    return AudioBuffer(fit_length(y, n_out), target_rate_hz)


def launder_resample(x: AudioBuffer, target_rate_hz: int) -> AudioBuffer:
    """Resample away and back, keeping the original rate and length."""
    y = resample(resample(x, target_rate_hz), x.sample_rate_hz)
    return AudioBuffer(fit_length(y.samples, len(x)), x.sample_rate_hz)


def apply_attack(x: AudioBuffer, spec: AttackSpec, seed: int,
                 noises: NoiseLibrary = None, backend=None) -> AudioBuffer:
    """Run one laundering attack; output keeps x's length and rate."""
    if spec.kind == "reverberation":
        return apply_reverberation(x, spec.rt60_s, seed)
    if spec.kind == "additive_noise":
        if spec.noise_name == "white":
            noise = AudioBuffer(
                generate_white_noise(max(len(x), 1),
                                     derive_seed(seed, "synth")),
                x.sample_rate_hz)
        else:
            if noises is None:
                raise InvalidParameter(
                    "additive_noise attack needs a NoiseLibrary")
            noise = noises.get(spec.noise_name)
        return mix_noise(x, noise, spec.snr_db, seed)
    if spec.kind == "recompression":
        if backend is None:
            raise InvalidParameter(
                "recompression attack needs a codec backend")
        return codec_roundtrip(x, spec.bitrate_kbps, backend)
    if spec.kind == "resampling":
        return launder_resample(x, spec.target_rate_hz)
    if spec.kind == "lowpass":
        coeffs = design_butterworth_lowpass(spec.order, spec.cutoff_hz,
                                            x.sample_rate_hz)
        return apply_filter(x, coeffs)
    raise InvalidParameter(f"unknown attack kind {spec.kind!r}")
