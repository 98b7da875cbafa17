"""Laundering attacks: their grid, draws and tags, and the transforms.

Five attack families, spelled out only in ATTACK_GRID: reverberation
(synthetic exponentially-decaying room response), additive noise at a
target SNR, lossy recompression through a codec round trip, resampling
round trips, and Butterworth lowpass filtering.  Each transform is a pure
function of its inputs; randomness enters only through integer seeds.
The transforms are numpy's FFTs and einsum loops, never BLAS calls, so
their bits do not depend on the BLAS thread count; they compute what
scipy.signal's fftconvolve, resample_poly and sosfilt do, up to rounding.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio import AudioBuffer, read_audio, rms_power
from .errors import (InvalidParameter, NoiseAssetMissing, RateMismatch,
                     SampleRateChangedByCodec, SilentInput, UnstableFilter)
from .rng import derive_seed, make_rng

RT60_CHOICES = (0.3, 0.6, 0.9)
NOISE_NAMES = ("babble", "volvo", "white", "cafe", "street")
SNR_DB_CHOICES = (0, 10, 20)
BITRATE_CHOICES = (16, 64, 128, 192, 256, 320)
TARGET_RATE_CHOICES = (8000, 11025, 22050, 44100)
LOWPASS_CUTOFF_HZ = 8000
LOWPASS_ORDER = 5
NOISE_RATE_HZ = 16000
LOADABLE_NOISES = ("babble", "volvo", "cafe", "street")
_FILTER_BLOCK = 64          # samples per step of the block IIR form
_FILTER_ROWS = 4096         # blocks per product, 2 MB of float64 samples

# kind -> parameter -> allowed values, in plan order; attack_specs draws
# one value per parameter (noise_name fans out over all its values)
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


def attack_tag(spec: AttackSpec) -> str:
    """Stable injective label for one attack parameterization: the noise
    name or else the kind, then each drawn parameter's value in grid order,
    spelled as the grid spells it (so 8000.0 tags as 8000), joined by "_"."""
    return "_".join([spec.noise_name or spec.kind] + [
        str(values[values.index(getattr(spec, param))])
        for param, values in ATTACK_GRID[spec.kind].items()
        if param != "noise_name"])


def attack_specs(seed, utt):
    """One spec per ATTACK_GRID kind, one per noise name for additive
    noise; each parameter is drawn by a fresh generator keyed by (seed,
    utt, slot), the slot being the kind, or noise:{name} for each noise."""
    for kind, grid in ATTACK_GRID.items():
        for name in grid.get("noise_name", (None,)):
            slot = kind if name is None else f"noise:{name}"
            yield AttackSpec(kind, noise_name=name, **{
                param: values[make_rng(seed, utt, slot).integers(len(values))]
                for param, values in grid.items() if param != "noise_name"})


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
    resampled to 16 kHz on load, and to another rate once per rate.
    """

    directory: Path
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def get(self, name: str, rate_hz: int = NOISE_RATE_HZ) -> AudioBuffer:
        if (name, rate_hz) in self._cache:
            return self._cache[name, rate_hz]
        if rate_hz != NOISE_RATE_HZ:
            self._cache[name, rate_hz] = resample(self.get(name), rate_hz)
            return self._cache[name, rate_hz]
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
        self._cache[name, rate_hz] = buf
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


def _fft_size(n: int) -> int:
    """The least 2**a * 3**b * 5**c >= n, the FFT length of a linear
    convolution of n samples (scipy.fft.next_fast_len(n, real=True))."""
    odd = (3 ** i * 5 ** j for i in range(n.bit_length())
           for j in range(n.bit_length()))
    return min(t << (-(-n // t) - 1).bit_length() for t in odd if t < 2 * n)


def apply_reverberation(x: AudioBuffer, rt60_s: float, seed: int) -> AudioBuffer:
    rir = synthesize_rir(rt60_s, x.sample_rate_hz, seed)
    if len(x) == 0:
        return AudioBuffer(x.samples.copy(), x.sample_rate_hz)
    size = _fft_size(len(x) + len(rir) - 1)
    y = np.fft.irfft(np.fft.rfft(x.samples, size)
                     * np.fft.rfft(rir.samples, size), size)[:len(x)]
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


@lru_cache(maxsize=16)
def _block_form(sections: tuple) -> tuple:
    """The cascade stepped L = _FILTER_BLOCK samples at a time: a block x
    entered in state s leaves y = x @ t + s @ o and the next block enters
    in s @ a + x @ k, s holding each section's two transposed direct
    form II states.  The four are read off L + 2*len(sections) runs of
    one block, stepped together: a unit impulse at each time from rest,
    then each unit state without input."""
    n = 2 * len(sections)
    x = np.vstack([np.eye(_FILTER_BLOCK), np.zeros((n, _FILTER_BLOCK))])
    s = np.vstack([np.zeros((_FILTER_BLOCK, n)), np.eye(n)])
    y = np.empty_like(x)
    for i in range(_FILTER_BLOCK):
        u = x[:, i]
        for m, (b0, b1, b2, a1, a2) in enumerate(sections):
            out = b0 * u + s[:, 2 * m]
            s[:, 2 * m:2 * m + 2] = np.stack(
                [b1 * u - a1 * out + s[:, 2 * m + 1], b2 * u - a2 * out], 1)
            u = out
        y[:, i] = u
    return y[:_FILTER_BLOCK], y[_FILTER_BLOCK:], s[_FILTER_BLOCK:], \
        s[:_FILTER_BLOCK]


def apply_filter(x: AudioBuffer, c: FilterCoefficients) -> AudioBuffer:
    """Run the cascade from rest over x, a block of samples at a time."""
    if not c.is_stable():
        raise UnstableFilter("filter has poles on or outside the unit circle")
    if len(x) == 0:
        return AudioBuffer(x.samples.copy(), x.sample_rate_hz)
    t, o, a, k = _block_form(tuple(map(tuple, c.sections)))
    blocks = -(-len(x) // _FILTER_BLOCK)
    spans = [(r, min(r + _FILTER_ROWS, blocks))
             for r in range(0, blocks, _FILTER_ROWS)]

    def rows(r0, r1):               # blocks r0 to r1 - 1, the last padded
        part = x.samples[r0 * _FILTER_BLOCK:r1 * _FILTER_BLOCK]
        return fit_length(part, (r1 - r0) * _FILTER_BLOCK).reshape(
            -1, _FILTER_BLOCK)

    # the state entering block j is the sum over i < j of
    # block i @ k @ a^(j-1-i): a prefix scan, by doubling
    s = np.zeros((blocks + 1, len(a)))
    for r0, r1 in spans:
        s[r0 + 1:r1 + 1] = np.einsum("bi,im->bm", rows(r0, r1), k)
    s = s[:blocks]
    step = 1
    while step < blocks:
        s[step:] += np.einsum("bi,im->bm", s[:-step], a)
        a = np.einsum("ij,jm->im", a, a)
        step *= 2
    y = np.empty((blocks, _FILTER_BLOCK))
    for r0, r1 in spans:
        np.einsum("bi,ij->bj", rows(r0, r1), t, out=y[r0:r1])
        y[r0:r1] += np.einsum("bm,mj->bj", s[r0:r1], o)
    return AudioBuffer(y.reshape(-1)[:len(x)], x.sample_rate_hz)


def fit_length(samples: np.ndarray, n: int) -> np.ndarray:
    """The first n samples, zero-padded at the end when there are fewer."""
    return np.pad(samples[:n], (0, max(0, n - len(samples))))


def _resample_kernel(up: int, down: int) -> np.ndarray:
    """Kaiser-window lowpass designed at the upsampled rate, as
    scipy.signal's kaiserord and firwin give it: 80 dB of stopband
    attenuation over a transition 0.1/max(up, down) of Nyquist wide, cut
    off at 0.95/max(up, down), an odd tap count and unit DC gain."""
    cutoff = 1.0 / max(up, down)
    width = 0.1 * cutoff
    numtaps = math.ceil((80.0 - 7.95) / 2.285 / (math.pi * width) + 1) | 1
    beta = 0.1102 * (80.0 - 8.7)
    m = np.arange(numtaps) - 0.5 * (numtaps - 1)
    h = 0.95 * cutoff * np.sinc(0.95 * cutoff * m)
    h *= np.kaiser(numtaps, beta)
    return h / np.sum(h)


@lru_cache(maxsize=64)
def _phases(up: int, down: int) -> tuple:
    """The kernel (times up) split into its up phases, as
    scipy.signal.resample_poly applies it centred and zero-padded:
    output o is taps[r] . x[q-n+1 : q+1], with q, r = divmod(o * down +
    half, up) and x zero outside the signal.  Returns (half, taps)."""
    h = _resample_kernel(up, down) * up
    n = -(-len(h) // up)                        # taps per phase
    taps = np.zeros(n * up)
    taps[:len(h)] = h
    return (len(h) - 1) // 2, taps.reshape(n, up).T[:, ::-1].copy()


def resample(x: AudioBuffer, target_rate_hz: int) -> AudioBuffer:
    """Polyphase rational-ratio resampling with a Kaiser anti-alias filter:
    the first round(len(x) * ratio) samples of resample_poly's output.
    Outputs o and o + up share a phase and read inputs down apart, so
    each phase is one einsum over a strided view of input windows."""
    if target_rate_hz <= 0:
        raise InvalidParameter(
            f"target rate must be positive, got {target_rate_hz}")
    source = x.sample_rate_hz
    if target_rate_hz == source:
        return AudioBuffer(x.samples.copy(), source)
    ratio = Fraction(int(target_rate_hz), int(source))
    up, down = ratio.numerator, ratio.denominator
    n_out = round(Fraction(len(x)) * ratio)
    if n_out == 0:
        return AudioBuffer(np.zeros(0), target_rate_hz)
    half, taps = _phases(up, down)
    n = taps.shape[1]
    last = ((n_out - 1) * down + half) // up    # the last input read
    padded = np.zeros(n - 1 + max(len(x), last + 1))
    padded[n - 1:n - 1 + len(x)] = x.samples
    windows = sliding_window_view(padded, n)    # windows[q] ends at x[q]
    y = np.empty(n_out)
    for j in range(min(up, n_out)):
        q, r = divmod(j * down + half, up)
        y[j::up] = np.einsum("mi,i->m", windows[q::down][:len(y[j::up])],
                             taps[r])
    return AudioBuffer(y, target_rate_hz)


def launder_resample(x: AudioBuffer, target_rate_hz: int) -> AudioBuffer:
    """Resample away and back, keeping the original rate and length."""
    y = resample(resample(x, target_rate_hz), x.sample_rate_hz)
    return AudioBuffer(fit_length(y.samples, len(x)), x.sample_rate_hz)


def codec_roundtrip(buf: AudioBuffer, bitrate_kbps: int,
                    codec) -> AudioBuffer:
    """Encode to a lossy codec and decode back.

    The codec is the audio.CodecBackend command adapter, or any callable
    codec(buf, bitrate_kbps) -> AudioBuffer.  The decoded signal is
    trimmed or zero-padded to the input length with no delay
    compensation, and resampled back (with a warning) if the codec
    returns a different rate.
    """
    if bitrate_kbps <= 0:
        raise InvalidParameter(f"bitrate must be positive, got {bitrate_kbps}")
    out = codec(buf, bitrate_kbps)

    if out.sample_rate_hz != buf.sample_rate_hz:
        warnings.warn(
            f"codec returned {out.sample_rate_hz} Hz for "
            f"{buf.sample_rate_hz} Hz input; resampling back",
            SampleRateChangedByCodec, stacklevel=2)
        out = resample(out, buf.sample_rate_hz)

    return AudioBuffer(fit_length(out.samples, len(buf)), buf.sample_rate_hz)


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
            noise = noises.get(spec.noise_name, x.sample_rate_hz)
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
