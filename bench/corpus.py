"""Seeded benchmark inputs: speech-like sources, noise assets, LPC-coded
FLAC fixtures and scored trial sets.

Everything here is built from a numpy Generator, so one seed gives the
same bytes.  The LPC writer is self-contained (its own bit packing and
CRCs) so that it keeps working when the program's FLAC internals change,
and so that the program's decoder is checked against an encoder it did
not write.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

RATE_HZ = 16000
SOURCE_SECONDS = 3.0
NOISE_SECONDS = 4.0
NOISE_NAMES = ("babble", "volvo", "cafe", "street")

# 13 attacks x 9 codecs, about 10% bonafide: the shape of the grid
# `report` is asked to fill.
ATTACKS = tuple(f"A{i:02d}" for i in range(17, 30))
CODECS = tuple(f"C{i:02d}" for i in range(9))
BONAFIDE_SHARE = 0.1


# ------------------------------------------------------------------ audio

def speech_like(rng, seconds=SOURCE_SECONDS, rate=RATE_HZ):
    """Syllable-gated harmonic signal under three formant bumps.

    Voiced syllables of 120-300 ms with short pauses, a slowly varying
    pitch, a little unvoiced noise and a -60 dB floor, so no block of the
    signal is digital silence.  Peak amplitude is 0.5.
    """
    n = int(round(seconds * rate))
    t = np.arange(n) / rate
    env = np.zeros(n)
    pos = int(rng.uniform(0.02, 0.15) * rate)
    while pos < n:
        dur = int(rng.uniform(0.12, 0.30) * rate)
        seg = np.sqrt(np.hanning(dur)) * rng.uniform(0.4, 1.0)
        end = min(n, pos + dur)
        env[pos:end] += seg[:end - pos]
        pos = end + int(rng.uniform(0.03, 0.15) * rate)

    f0_base = rng.uniform(95.0, 220.0)
    f0 = f0_base * (1.0 + 0.08 * np.sin(2 * np.pi * rng.uniform(0.3, 1.2) * t
                                        + rng.uniform(0, 2 * np.pi)))
    phase = 2 * np.pi * np.cumsum(f0) / rate
    formants = np.sort(rng.uniform([300, 900, 2000], [900, 2000, 3400]))
    widths = rng.uniform(80.0, 250.0, 3)
    voiced = np.zeros(n)
    for h in range(1, int(0.45 * rate / f0_base) + 1):
        freq = h * f0
        amp = np.zeros(n)
        for fc, bw, g in zip(formants, widths, (1.0, 0.5, 0.25)):
            amp += g * np.exp(-((freq - fc) / bw) ** 2)
        voiced += np.where(freq < 0.48 * rate, amp, 0.0) * np.sin(h * phase)
    noise = rng.standard_normal(n)
    x = env * (voiced / max(np.max(np.abs(voiced)), 1e-12)
               + 0.03 * noise) + 1e-3 * rng.standard_normal(n)
    return 0.5 * x / np.max(np.abs(x))


def quantize16(x):
    """The int16 values write_audio stores for float samples x."""
    return np.clip(np.rint(np.asarray(x) * 32768.0), -32768,
                   32767).astype(np.int64)


def noise_asset(name, rng, seconds=NOISE_SECONDS, rate=RATE_HZ):
    """Background noise with a name-dependent colour, peak 0.3."""
    n = int(round(seconds * rate))
    white = rng.standard_normal(n)
    if name == "babble":
        x = sum(speech_like(rng, seconds, rate) for _ in range(4))
    elif name == "volvo":
        x = np.cumsum(white)             # engine rumble: brown noise
        x -= np.convolve(x, np.ones(401) / 401, mode="same")
    elif name == "cafe":
        clatter = (rng.random(n) < 0.0008) * rng.standard_normal(n) * 20.0
        x = speech_like(rng, seconds, rate) + 0.3 * white + clatter
    else:
        spectrum = np.fft.rfft(white)
        spectrum /= np.sqrt(np.arange(1, len(spectrum) + 1))   # pink
        x = np.fft.irfft(spectrum, n)
    x = x - np.mean(x)
    return 0.3 * x / np.max(np.abs(x))


# ---------------------------------------------------------- LPC-coded FLAC

LPC_ORDER = 8
LPC_PRECISION = 13
LPC_BLOCKSIZE = 4096
LPC_MAX_PARTITION_ORDER = 2


def _crc_table(poly, width):
    top, mask = 1 << (width - 1), (1 << width) - 1
    table = []
    for i in range(256):
        c = i << (width - 8)
        for _ in range(8):
            c = ((c << 1) ^ poly) if c & top else c << 1
        table.append(c & mask)
    return table


_CRC8 = _crc_table(0x07, 8)
_CRC16 = _crc_table(0x8005, 16)


def crc8(data):
    c = 0
    for b in data:
        c = _CRC8[c ^ b]
    return c


def crc16(data):
    c = 0
    for b in data:
        c = ((c << 8) & 0xFF00) ^ _CRC16[(c >> 8) ^ b]
    return c


def pack_bits(fields):
    """MSB-first bits of (value, width) fields, zero-padded to whole bytes.

    Values must already be non-negative (two's complement masked to their
    width).  Zero-width fields are allowed.
    """
    values = np.fromiter((v for v, _ in fields), dtype=np.int64,
                         count=len(fields))
    widths = np.fromiter((w for _, w in fields), dtype=np.int64,
                         count=len(fields))
    return _pack(values, widths)


def _pack(values, widths):
    idx = np.repeat(np.arange(len(widths)), widths)
    starts = np.cumsum(widths) - widths
    shift = widths[idx] - 1 - (np.arange(int(widths.sum())) - starts[idx])
    bits = ((values[idx] >> np.minimum(shift, 63)) & 1).astype(np.uint8)
    return np.packbits(bits).tobytes()


def _signed(v, width):
    return int(v) & ((1 << width) - 1)


def _rice_fields(residual, k):
    """Rice(k) codes of signed residuals as (value, width) arrays:
    q zero bits, then a 1 and the k low bits."""
    u = (residual << 1) ^ (residual >> 63)
    values = np.zeros((len(u), 2), dtype=np.int64)
    widths = np.empty((len(u), 2), dtype=np.int64)
    values[:, 1] = (1 << k) | (u & ((1 << k) - 1))
    widths[:, 0] = u >> k
    widths[:, 1] = k + 1
    return values.ravel(), widths.ravel()


def _best_rice_k(residual):
    u = (residual << 1) ^ (residual >> 63)
    costs = [int((u >> k).sum()) + len(u) * (k + 1) for k in range(15)]
    return int(np.argmin(costs))


def _history(block, order):
    """Row i - order holds samples i-1, i-2, ..., i-order."""
    return np.lib.stride_tricks.sliding_window_view(block[:-1],
                                                    order)[:, ::-1]


def lpc_coefficients(block, order=LPC_ORDER, precision=LPC_PRECISION):
    """Least-squares predictor quantized to `precision` bits.

    Returns (qcoefs, shift) with qcoefs[j] weighting sample i-1-j and the
    prediction floor-shifted right by `shift`, as FLAC decoders apply it.
    """
    rows = _history(block, order)
    c, *_ = np.linalg.lstsq(rows.astype(np.float64),
                            block[order:].astype(np.float64), rcond=None)
    cmax = float(np.max(np.abs(c)))
    lim = (1 << (precision - 1)) - 1
    if cmax == 0.0:
        return np.zeros(order, dtype=np.int64), 0
    shift = precision - 1 - int(np.floor(np.log2(cmax))) - 1
    shift = max(0, min(15, shift))
    q = np.clip(np.rint(c * (1 << shift)), -lim - 1, lim).astype(np.int64)
    return q, shift


def lpc_residual(block, qcoefs, shift):
    order = len(qcoefs)
    return block[order:] - ((_history(block, order) @ qcoefs) >> shift)


def _coded_number(value):
    if value < 0x80:
        return bytes([value])
    if value < 0x800:
        return bytes([0xC0 | (value >> 6), 0x80 | (value & 0x3F)])
    raise ValueError("fixture too long for a two-byte frame number")


def _partition_order(n, order):
    p = LPC_MAX_PARTITION_ORDER
    while p and (n % (1 << p) or (n >> p) <= order):
        p -= 1
    return p


def _lpc_frame(block, index, rate_code):
    n = len(block)
    if n == LPC_BLOCKSIZE:
        bs_code, bs_extra = 0b1100, b""
    elif n <= 256:
        bs_code, bs_extra = 0b0110, bytes([n - 1])
    else:
        bs_code, bs_extra = 0b0111, (n - 1).to_bytes(2, "big")
    header = bytearray([0xFF, 0xF8, (bs_code << 4) | rate_code, 0b100 << 1])
    header += _coded_number(index)
    header += bs_extra
    header.append(crc8(header))

    order = LPC_ORDER
    if n <= 2 * order:
        fields = [(0, 1), (1, 6), (0, 1)] + [(_signed(v, 16), 16)
                                               for v in block]
        body = pack_bits(fields)
    else:
        qcoefs, shift = lpc_coefficients(block)
        resid = lpc_residual(block, qcoefs, shift)
        porder = _partition_order(n, order)
        head = [(0, 1), (32 + order - 1, 6), (0, 1)]
        head += [(_signed(v, 16), 16) for v in block[:order]]
        head += [(LPC_PRECISION - 1, 4), (shift, 5)]
        head += [(_signed(c, LPC_PRECISION), LPC_PRECISION) for c in qcoefs]
        head += [(0b00, 2), (porder, 4)]
        values = [np.array([v for v, _ in head], dtype=np.int64)]
        widths = [np.array([w for _, w in head], dtype=np.int64)]
        part = n >> porder
        start = 0
        for p in range(1 << porder):
            stop = part * (p + 1) - order
            chunk = resid[start:stop]
            k = _best_rice_k(chunk)
            v, w = _rice_fields(chunk, k)
            values += [np.array([k], dtype=np.int64), v]
            widths += [np.array([4], dtype=np.int64), w]
            start = stop
        body = _pack(np.concatenate(values), np.concatenate(widths))
    frame = bytes(header) + body
    return frame + crc16(frame).to_bytes(2, "big")


def encode_lpc_flac(samples, rate=RATE_HZ):
    """Mono 16-bit FLAC with order-8 LPC subframes and partitioned Rice
    residuals, as reference encoders write, plus VORBIS_COMMENT and
    PADDING blocks."""
    s = np.asarray(samples, dtype=np.int64)
    rate_code = {8000: 0b0100, 16000: 0b0101, 22050: 0b0110,
                 44100: 0b1001, 48000: 0b1010}[rate]
    frames = [_lpc_frame(s[i:i + LPC_BLOCKSIZE], fi, rate_code)
              for fi, i in enumerate(range(0, len(s), LPC_BLOCKSIZE))]
    sizes = [len(f) for f in frames] or [0]
    md5 = hashlib.md5(s.astype("<i2").tobytes()).digest()
    streaminfo = pack_bits([(LPC_BLOCKSIZE, 16), (LPC_BLOCKSIZE, 16),
                            (min(sizes), 24), (max(sizes), 24), (rate, 20),
                            (0, 3), (15, 5), (len(s), 36)]) + md5
    vendor = b"launderbench benchmark fixture"
    comment = (len(vendor).to_bytes(4, "little") + vendor
               + (0).to_bytes(4, "little"))
    out = bytearray(b"fLaC")
    for btype, body, last in ((0, streaminfo, False), (4, comment, False),
                              (1, bytes(512), True)):
        out.append((0x80 if last else 0) | btype)
        out += len(body).to_bytes(3, "big") + body
    for f in frames:
        out += f
    return bytes(out)


# ------------------------------------------------------------- trial sets

@dataclass
class TrialSet:
    """Trials in manifest order plus the score file order.

    `attack` and `codec` are indexes into ATTACKS and CODECS (attack -1
    for bonafide); `ids` are utterance ids; `scores` are float64 log-
    likelihood ratios.
    """

    ids: list
    bonafide: np.ndarray
    attack: np.ndarray
    codec: np.ndarray
    scores: np.ndarray
    score_order: np.ndarray

    def manifest_text(self):
        lines = []
        for uid, bon, a, c in zip(self.ids, self.bonafide.tolist(),
                                  self.attack.tolist(), self.codec.tolist()):
            if bon:
                lines.append(f"{uid} bonafide - {CODECS[c]} flac/{uid}.flac\n")
            else:
                lines.append(f"{uid} spoof {ATTACKS[a]} {CODECS[c]} "
                             f"flac/{uid}.flac\n")
        return "".join(lines)

    def scores_text(self):
        ids, scores = self.ids, self.scores.tolist()
        return "".join(f"{ids[i]} {scores[i]!r}\n"
                       for i in self.score_order.tolist())

    def cell(self, attack=None, codec=None):
        """(bonafide, spoof) score arrays of one breakdown cell, sorted."""
        bon = self.bonafide.copy()
        spf = ~self.bonafide
        if attack is not None:
            spf &= self.attack == attack
        if codec is not None:
            bon &= self.codec == codec
            spf &= self.codec == codec
        return np.sort(self.scores[bon]), np.sort(self.scores[spf])


def trial_set(n_trials, rng):
    """n_trials trials covering every attack x codec cell, shuffled.

    Spoof trials cycle through the 117 attack x codec pairs and bonafide
    trials through the 9 codecs, so every cell has both classes once
    n_trials is a few thousand.  Scores are Gaussian with a shift per
    attack and codec, so cells differ.
    """
    n_bon = int(round(BONAFIDE_SHARE * n_trials))
    n_spf = n_trials - n_bon
    bonafide = np.zeros(n_trials, dtype=bool)
    bonafide[:n_bon] = True
    pair = np.arange(n_spf) % (len(ATTACKS) * len(CODECS))
    attack = np.concatenate((np.full(n_bon, -1), pair // len(CODECS)))
    codec = np.concatenate((np.arange(n_bon) % len(CODECS),
                            pair % len(CODECS)))
    scores = np.where(
        bonafide,
        rng.normal(2.0 - 0.15 * codec, 1.2, n_trials),
        rng.normal(-2.0 + 0.25 * attack + 0.1 * codec, 1.5, n_trials))
    order = rng.permutation(n_trials)
    names = rng.permutation(n_trials)
    ids = [f"LA_{k:07d}" for k in names[order].tolist()]
    return TrialSet(ids, bonafide[order], attack[order], codec[order],
                    scores[order], rng.permutation(n_trials))
