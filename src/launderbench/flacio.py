"""FLAC stream reader and writer.

No native FLAC library is assumed.  The decoder handles standard streams:
constant, verbatim, fixed-predictor, and LPC subframes, both Rice coding
methods with escaped partitions, wasted bits, fixed and variable blocking,
and verifies the header CRC-8, per-frame CRC-16, and the stream MD5.  It
reads the frames as one string of '0'/'1' characters: a field is one
int(..., 2) of a slice, and a Rice partition of n codes is walked with one
bytes.find of the next terminating 1 per code, the k low bits of all n
codes then taken by one numpy gather.  Each frame's CRC-16 is checked
before prediction is undone; LPC prediction runs in a loop compiled once
per predictor order, with the history in locals, which fails a sample
outside int64 as soon as it is predicted.  The encoder emits mono 16-bit
streams using fixed predictors (orders 0-4) with single-partition Rice
residuals, which every compliant decoder reads; it picks the Rice
parameter by walking the convex coded size from an estimate, and packs
each frame's (value, width) fields into 64-bit words, each field touching
at most two.  Both CRCs, read and write, are computed without a per-byte
loop: a position table gives each byte's share of the CRC by its offset in
a 512-byte chunk, and the chunk CRCs are chained through the table of what
the register becomes over a chunk of zero bytes.

Only mono streams are accepted; multichannel decorrelation modes are
rejected up front rather than silently downmixed.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache, partial

import numpy as np

from .errors import CorruptFile, InvalidParameter, MultichannelInput

BLOCKSIZE = 4096

# Frame-header lookup tables (code -> value).
_BLOCKSIZE_CODES = {192: 0b0001, 576: 0b0010, 1152: 0b0011, 2304: 0b0100,
                    4608: 0b0101, 256: 0b1000, 512: 0b1001, 1024: 0b1010,
                    2048: 0b1011, 4096: 0b1100, 8192: 0b1101, 16384: 0b1110,
                    32768: 0b1111}
_BLOCKSIZE_FROM_CODE = {v: k for k, v in _BLOCKSIZE_CODES.items()}
_RATE_CODES = {88200: 0b0001, 176400: 0b0010, 192000: 0b0011, 8000: 0b0100,
               16000: 0b0101, 22050: 0b0110, 24000: 0b0111, 32000: 0b1000,
               44100: 0b1001, 48000: 0b1010, 96000: 0b1011}
_RATE_FROM_CODE = {v: k for k, v in _RATE_CODES.items()}
_DEPTH_FROM_CODE = {0b001: 8, 0b010: 12, 0b100: 16, 0b101: 20, 0b110: 24,
                    0b111: 32}


def _make_crc_table(poly, width):
    mask = (1 << width) - 1
    top = 1 << (width - 1)
    table = []
    for i in range(256):
        c = i << (width - 8)
        for _ in range(8):
            c = ((c << 1) ^ poly) if (c & top) else (c << 1)
        table.append(c & mask)
    return table


_CRC_POLY = {8: 0x07, 16: 0x8005}
_CRC_CHUNK = 512  # bytes per gather; each width's table is 512 x 256 uint16
_CRC_ROWS = np.arange(_CRC_CHUNK) * 256  # flat offset of each position row


@lru_cache(maxsize=None)
def _crc_kernel(width):
    """The position table and chunk advance of FLAC's CRC-8 or CRC-16,
    built on first use (a few ms).  positions[256 * i + b] is the CRC of
    byte b followed by _CRC_CHUNK - 1 - i zero bytes.  advance holds one
    (shift, table) per register byte, most significant first; XOR-ed, the
    looked-up entries are the register after _CRC_CHUNK more zero bytes.
    Register byte k carried over a chunk weighs what a byte at chunk
    offset k does, so those tables are the first rows of positions."""
    table = np.array(_make_crc_table(_CRC_POLY[width], width), np.uint16)
    rows = [table]
    for _ in range(_CRC_CHUNK - 1):  # each row one zero byte further on
        c = rows[-1]
        rows.append(((c << 8) & ((1 << width) - 1)) ^ table[c >> (width - 8)])
    rows.reverse()
    advance = [(width - 8 - 8 * k, rows[k].tolist())
               for k in range(width // 8)]
    return np.concatenate(rows), advance


def _crc(data, width):
    """FLAC's zero-init CRC-8 or CRC-16 of data.  The CRC is linear over
    GF(2) and leading zero bytes leave it zero, so the data is left-padded
    to whole chunks; each chunk's CRC is one gather from the position
    table and one XOR reduction, and the chunk CRCs are folded through the
    advance over a chunk."""
    positions, advance = _crc_kernel(width)
    n = len(data)
    m = -(-n // _CRC_CHUNK)
    index = np.zeros((m, _CRC_CHUNK), np.intp)
    index.ravel()[m * _CRC_CHUNK - n:] = np.frombuffer(data, np.uint8)
    index += _CRC_ROWS
    crc = 0
    for c in np.bitwise_xor.reduce(positions.take(index), axis=1).tolist():
        for shift, table in advance:
            c ^= table[crc >> shift & 0xFF]
        crc = c
    return crc


def _encode_utf8_number(value):
    """FLAC's UTF-8-style coding for frame/sample numbers (up to 36 bits)."""
    if value < 0x80:
        return bytes([value])
    for nbytes, limit, lead in ((2, 1 << 11, 0xC0), (3, 1 << 16, 0xE0),
                                (4, 1 << 21, 0xF0), (5, 1 << 26, 0xF8),
                                (6, 1 << 31, 0xFC), (7, 1 << 36, 0xFE)):
        if value < limit:
            out = bytearray(nbytes)
            for i in range(nbytes - 1, 0, -1):
                out[i] = 0x80 | (value & 0x3F)
                value >>= 6
            out[0] = lead | value
            return bytes(out)
    raise ValueError("number too large for FLAC coded-number field")


class _BitReader:
    """MSB-first reader over a stream held as one string of ASCII '0'/'1'
    bytes, one per bit; every read past the end raises CorruptFile."""

    def __init__(self, data, pos):
        self.bits = format(int.from_bytes(data, "big"),
                           f"0{8 * len(data)}b").encode()
        self.digits = np.frombuffer(self.bits, np.uint8)
        self.pos = 8 * pos

    def _advance(self, n):
        p = self.pos
        self.pos = p + n
        if self.pos > len(self.bits):
            raise CorruptFile("unexpected end of FLAC stream")
        return p

    def read(self, n):
        p = self._advance(n)
        return int(self.bits[p:p + n], 2)

    def read_signed(self, n):
        v = self.read(n)
        return v - (v >> (n - 1) << n)

    def read_unary(self):
        q = self.bits.find(b"1", self.pos) - self.pos
        if q < 0:
            raise CorruptFile("unexpected end of FLAC stream")
        self.pos += q + 1
        return q

    def read_signed_block(self, n, w):
        """n signed w-bit fields as an int64 array."""
        p = self._advance(n * w)
        digits = self.digits[p:p + n * w].reshape(n, w)
        v = (digits & 1).astype(np.int64) @ (1 << np.arange(w - 1, -1, -1))
        return v - (v >> (w - 1) << w)

    def read_rice_block(self, n, k):
        """n Rice(k)-coded signed residuals as an int64 array.  A code is
        quotient zeros, a terminating 1 and k low bits, so the walk finds
        each terminator and steps over its low bits; a find that fails
        returns -1, which reads as a negative quotient."""
        find = self.bits.find
        start = p = self.pos
        step = k + 1
        ends = np.array([p := find(b"1", p) + step for _ in range(n)],
                        np.int64)
        q = np.diff(ends, prepend=start) - step
        if n and (ends[-1] > len(self.bits) or q.min() < 0):
            raise CorruptFile("unexpected end of FLAC stream")
        self.pos = p
        u = q << k
        if k:
            low = self.digits[ends[:, None] - np.arange(k, 0, -1)] & 1
            u += low.astype(np.int64) @ (1 << np.arange(k - 1, -1, -1))
        return (u >> 1) ^ -(u & 1)


def _pack(values, widths):
    """MSB-first bits of unsigned (value, width) int64 fields, zero-padded
    to whole bytes.  A field wider than 63 bits holds its value in the low
    63 bits and leading zeros above, as long Rice quotients do.  A field's
    set bits end at bit cumsum(widths) - 1, so they touch that 64-bit word
    and at most the one before; fields never overlap, so adding the parts
    into the words ORs them."""
    last = np.cumsum(widths) - 1
    total = int(last[-1]) + 1 if len(last) else 0
    shift = (63 - (last & 63)).astype(np.uint64)
    v = values.astype(np.uint64)
    # words[0] lies before the first bit: it takes the empty parts of
    # fields that start in the first word, and of zero-width leading fields
    words = np.zeros(1 - (-total // 64), np.uint64)
    np.add.at(words, (last >> 6) + 1, v << shift)
    np.add.at(words, last >> 6, (v >> np.uint64(1)) >> (np.uint64(63) - shift))
    return words[1:].astype(">u8").tobytes()[:-(-total // 8)]


def _restore_fixed(order, warmup, resid):
    """Undo order-m fixed prediction by m cumulative sums."""
    series = np.asarray(resid, dtype=np.int64)
    if order == 0:
        return series
    w = np.asarray(warmup, dtype=np.int64)
    for level in range(order - 1, -1, -1):
        init = np.diff(w, level)[0] if level else w[0]
        series = np.concatenate(([init], series)).cumsum()
    return series


@lru_cache(maxsize=None)
def _lpc_kernel(order):
    """The restore loop of one LPC order, compiled on first use.  The
    coefficients c0.. and the last order samples h0 (newest).. are
    locals, the prediction is written out term by term, the history
    shifts by one tuple assignment per sample, and a sample outside int64
    is refused as soon as it is predicted, so a diverging predictor fails
    in a few samples instead of growing ever longer ints."""
    c = [f"c{j}" for j in range(order)]
    h = [f"h{j}" for j in range(order)]
    dot = " + ".join(f"{a} * {b}" for a, b in zip(c, h))
    src = f"""def restore(warmup, coefs, shift, resid):
    {", ".join(c)}, = coefs
    {", ".join(reversed(h))}, = warmup
    out = list(warmup)
    keep = out.append
    for e in resid:
        x = e + (({dot}) >> shift)
        if not {-1 << 63} <= x <= {(1 << 63) - 1}:
            raise CorruptFile("LPC prediction overflows 64 bits")
        keep(x)
        {", ".join(h)} = {", ".join(["x"] + h[:-1])}
    return out
"""
    namespace = {"CorruptFile": CorruptFile}
    exec(src, namespace)
    return namespace["restore"]


def _restore_lpc(order, warmup, coefs, shift, resid):
    return np.array(_lpc_kernel(order)(warmup, coefs, shift, resid.tolist()),
                    np.int64)


def _read_residual(br, blocksize, order):
    method = br.read(2)
    if method > 1:
        raise CorruptFile("reserved residual coding method")
    pbits = 4 + method
    escape = (1 << pbits) - 1
    porder = br.read(4)
    nparts = 1 << porder
    if blocksize % nparts:
        raise CorruptFile("partition count does not divide block size")
    part_len = blocksize >> porder
    parts = []
    for p in range(nparts):
        n = part_len - (order if p == 0 else 0)
        if n < 0:
            raise CorruptFile("predictor order exceeds first partition")
        param = br.read(pbits)
        if param != escape:
            parts.append(br.read_rice_block(n, param))
        else:
            nbits = br.read(5)
            parts.append(br.read_signed_block(n, nbits) if nbits
                         else np.zeros(n, dtype=np.int64))
    return np.concatenate(parts)


def _read_subframe(br, blocksize, bps):
    """Read one subframe; return (restore, residual, wasted bits), where
    restore(residual) undoes the prediction."""
    if br.read(1):
        raise CorruptFile("nonzero subframe padding bit")
    sftype = br.read(6)
    wasted = 1 + br.read_unary() if br.read(1) else 0
    eff_bps = bps - wasted
    if eff_bps <= 0:
        raise CorruptFile("wasted bits exceed sample size")

    if sftype <= 1:  # constant or verbatim: the samples are the residual
        resid = (np.full(blocksize, br.read_signed(eff_bps), dtype=np.int64)
                 if sftype == 0 else br.read_signed_block(blocksize, eff_bps))
        return partial(_restore_fixed, 0, []), resid, wasted
    if 8 <= sftype <= 12:
        order = sftype - 8
    elif sftype >= 32:
        order = sftype - 31
    else:
        raise CorruptFile("reserved subframe type")
    if order > blocksize:
        raise CorruptFile("predictor order exceeds block size")
    warmup = [br.read_signed(eff_bps) for _ in range(order)]
    if sftype < 32:
        restore = partial(_restore_fixed, order, warmup)
    else:
        prec = br.read(4)
        if prec == 0b1111:
            raise CorruptFile("invalid LPC precision code")
        shift = br.read_signed(5)
        if shift < 0:
            raise CorruptFile("negative LPC shift")
        coefs = [br.read_signed(prec + 1) for _ in range(order)]
        restore = partial(_restore_lpc, order, warmup, coefs, shift)
    return restore, _read_residual(br, blocksize, order), wasted


def _decode_frame(br, data, info):
    """Decode the frame at the reader's (byte-aligned) position; the
    CRC-16 is checked before prediction is undone."""
    start = br.pos // 8
    if br.read(14) != 0b11111111111110:
        raise CorruptFile("bad frame sync code")
    if br.read(1):
        raise CorruptFile("nonzero reserved bit in frame header")
    br.read(1)  # blocking strategy
    bs_code, rate_code = br.read(4), br.read(4)
    chan_code, depth_code = br.read(4), br.read(3)
    if br.read(1):
        raise CorruptFile("nonzero reserved bit in frame header")
    if chan_code > 0:
        raise MultichannelInput("FLAC frame has more than one channel")

    # coded frame/sample number (UTF-8 style)
    lead = br.read(8)
    if lead >= 0x80:
        nbytes = 8 - (lead ^ 0xFF).bit_length()
        if nbytes < 2 or nbytes > 7:
            raise CorruptFile("bad coded-number lead byte")
        br.read(8 * (nbytes - 1))

    if bs_code in _BLOCKSIZE_FROM_CODE:
        blocksize = _BLOCKSIZE_FROM_CODE[bs_code]
    elif bs_code == 0b0110:
        blocksize = br.read(8) + 1
    elif bs_code == 0b0111:
        blocksize = br.read(16) + 1
    else:
        raise CorruptFile("reserved block size code")

    if rate_code == 0b0000:
        rate = info["rate"]
    elif rate_code in _RATE_FROM_CODE:
        rate = _RATE_FROM_CODE[rate_code]
    elif rate_code == 0b1100:
        rate = br.read(8) * 1000
    elif rate_code == 0b1101:
        rate = br.read(16)
    elif rate_code == 0b1110:
        rate = br.read(16) * 10
    else:
        raise CorruptFile("invalid sample rate code")

    if depth_code == 0b000:
        bps = info["bps"]
    elif depth_code in _DEPTH_FROM_CODE:
        bps = _DEPTH_FROM_CODE[depth_code]
    else:
        raise CorruptFile("reserved sample size code")

    crc = _crc(data[start:br.pos // 8], 8)
    if br.read(8) != crc:
        raise CorruptFile("frame header CRC-8 mismatch")

    restore, resid, wasted = _read_subframe(br, blocksize, bps)
    br.pos += -br.pos % 8  # zero padding to the byte boundary
    crc = _crc(data[start:br.pos // 8], 16)
    if br.read(16) != crc:
        raise CorruptFile("frame CRC-16 mismatch")
    return restore(resid) << wasted, rate, bps


def decode_flac(data: bytes):
    """Decode a mono FLAC stream.

    Returns (samples, sample_rate, bits_per_sample) with samples as int64
    at full integer scale for the stream's bit depth.
    """
    pos = 0
    if data[:3] == b"ID3":
        if len(data) < 10:
            raise CorruptFile("truncated ID3 tag")
        size = 0
        for b in data[6:10]:
            size = (size << 7) | (b & 0x7F)
        pos = 10 + size
    if data[pos:pos + 4] != b"fLaC":
        raise CorruptFile("missing fLaC stream marker")
    pos += 4

    info = None
    while True:
        if pos + 4 > len(data):
            raise CorruptFile("truncated metadata block header")
        last = bool(data[pos] & 0x80)
        btype = data[pos] & 0x7F
        length = int.from_bytes(data[pos + 1:pos + 4], "big")
        pos += 4
        if pos + length > len(data):
            raise CorruptFile("truncated metadata block")
        if btype == 0:
            if length != 34:
                raise CorruptFile("STREAMINFO block has wrong length")
            blk = data[pos:pos + 34]
            packed = int.from_bytes(blk[10:18], "big")
            info = {
                "rate": packed >> 44,
                "channels": ((packed >> 41) & 0x7) + 1,
                "bps": ((packed >> 36) & 0x1F) + 1,
                "total": packed & ((1 << 36) - 1),
                "md5": blk[18:34],
            }
        elif btype == 127:
            raise CorruptFile("invalid metadata block type")
        pos += length
        if last:
            break
    if info is None:
        raise CorruptFile("missing STREAMINFO block")
    if info["channels"] != 1:
        raise MultichannelInput(
            f"FLAC stream has {info['channels']} channels; only mono is supported")
    if info["rate"] == 0:
        raise CorruptFile("STREAMINFO sample rate is zero")

    blocks = []
    rate = info["rate"]
    bps = info["bps"]
    br = _BitReader(data, pos)
    while br.pos < len(br.bits):
        block, frate, fbps = _decode_frame(br, data, info)
        if frate != rate or fbps != bps:
            raise CorruptFile("frame parameters disagree with STREAMINFO")
        blocks.append(block)

    samples = (np.concatenate(blocks) if blocks
               else np.empty(0, dtype=np.int64))
    if info["total"] and len(samples) != info["total"]:
        raise CorruptFile(
            f"decoded {len(samples)} samples, STREAMINFO says {info['total']}")

    if info["md5"] != b"\x00" * 16:
        # signed little-endian samples in (bps + 7) // 8 bytes each
        raw = (samples.astype("<i8").view(np.uint8).reshape(-1, 8)
               [:, :(bps + 7) // 8].tobytes())
        if hashlib.md5(raw).digest() != info["md5"]:
            raise CorruptFile("stream MD5 mismatch")
    return samples, rate, bps


def _rate_code_for(rate):
    if rate in _RATE_CODES:
        return _RATE_CODES[rate], b""
    if rate < (1 << 16):
        return 0b1101, rate.to_bytes(2, "big")
    if rate % 10 == 0 and rate // 10 < (1 << 16):
        return 0b1110, (rate // 10).to_bytes(2, "big")
    return 0b0000, b""  # resolved from STREAMINFO


def _blocksize_code_for(n):
    if n in _BLOCKSIZE_CODES:
        return _BLOCKSIZE_CODES[n], b""
    if n <= 256:
        return 0b0110, bytes([n - 1])
    return 0b0111, (n - 1).to_bytes(2, "big")


def _best_fixed_order(block):
    """Fixed predictor order 0-4 minimizing total absolute residual."""
    max_order = min(4, len(block) - 1)
    best_order, best_cost = 0, np.abs(block).sum()
    d = block
    for m in range(1, max_order + 1):
        d = np.diff(d)
        cost = np.abs(d).sum()
        if cost < best_cost:
            best_order, best_cost = m, cost
    return best_order


def _rice_plan(resid):
    """Pick the Rice parameter in 0..14 minimizing the exact coded size in
    bits, the smallest on a tie.  size(k) = sum(u >> k) + n(k + 1) is
    convex in k: size(k + 1) - size(k) = n - sum(ceil((u >> k) / 2)) never
    decreases.  So the walk from the estimate bit_length(mean u) - 1 to
    the first minimum finds what a scan of all 15 would."""
    u = (resid << 1) ^ (resid >> 63)  # zigzag fold
    n = len(u)

    def size(k):
        return int((u >> k).sum()) + n * (k + 1)

    k = min(14, max(0, (int(u.sum()) // n).bit_length() - 1))
    bits = size(k)
    if k and (below := size(k - 1)) <= bits:  # the first minimum is below
        k, bits = k - 1, below
        while k and (below := size(k - 1)) <= bits:
            k, bits = k - 1, below
    else:
        while k < 14 and (above := size(k + 1)) < bits:
            k, bits = k + 1, above
    return u, k, bits


def _encode_frame(block, index, rate):
    n = len(block)
    bs_code, bs_extra = _blocksize_code_for(n)
    rate_code, rate_extra = _rate_code_for(rate)
    header = bytearray([0xFF, 0xF8, (bs_code << 4) | rate_code,
                        (0b0000 << 4) | (0b100 << 1)])
    header += _encode_utf8_number(index)
    header += bs_extra
    header += rate_extra
    header.append(_crc(header, 8))

    # subframe: zero pad bit, 6-bit type, no wasted bits; then 16-bit
    # samples (the constant, the warm-up or the whole block) and Rice codes
    rice = None
    if np.all(block == block[0]):
        sftype, raw = 0b000000, block[:1]  # constant
    else:
        order = _best_fixed_order(block)
        resid = np.diff(block, order) if order else block
        u, k, rice_bits = _rice_plan(resid)
        if 16 * order + 10 + rice_bits < 16 * n:
            sftype, raw = 0b001000 | order, block[:order]  # fixed predictor
            rice = u, k
        else:
            sftype, raw = 0b000001, block  # verbatim
    values = [[sftype << 1], raw & 0xFFFF]
    widths = [[8], np.full(len(raw), 16)]
    if rice is not None:
        u, k = rice
        # 4-bit Rice parameters (0b00), partition order 0, parameter k;
        # then per residual: quotient zeros, a terminating 1, k low bits
        values += [[k], (1 << k) | (u & ((1 << k) - 1))]
        widths += [[10], (u >> k) + 1 + k]
    frame = bytes(header) + _pack(np.concatenate(values),
                                  np.concatenate(widths))
    return frame + _crc(frame, 16).to_bytes(2, "big")


def _check_streaminfo(n, sample_rate, blocksize):
    """STREAMINFO holds the rate in 20 bits, the total in 36 and block
    sizes in 16; a value out of range would be masked, not stored."""
    if not 1 <= sample_rate < 1 << 20:
        raise InvalidParameter(
            f"sample rate must lie in 1..{(1 << 20) - 1} Hz, got {sample_rate}")
    if n >= 1 << 36:
        raise InvalidParameter(f"{n} samples do not fit in 36 bits")
    if not 16 <= blocksize < 1 << 16:
        raise InvalidParameter(
            f"block size must lie in 16..{(1 << 16) - 1}, got {blocksize}")


def encode_flac(samples, sample_rate, blocksize=BLOCKSIZE):
    """Encode mono 16-bit samples (integer array in [-32768, 32767])."""
    s = np.asarray(samples, dtype=np.int64)
    if s.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    n = len(s)
    _check_streaminfo(n, sample_rate, blocksize)
    if n and not -32768 <= s.min() <= s.max() <= 32767:
        raise InvalidParameter(
            f"samples must lie in -32768..32767, got {s.min()}..{s.max()}")
    md5 = hashlib.md5(s.astype("<i2").tobytes()).digest()

    frames = []
    for fi, start in enumerate(range(0, n, blocksize)):
        block = s[start:start + blocksize]
        frames.append(_encode_frame(block, fi, sample_rate))
    frame_sizes = [len(f) for f in frames] or [0, 0]

    # min and max block size (the last frame may be shorter), min and max
    # frame size, rate, channels - 1, bits per sample - 1, total samples
    fields = [(blocksize, 16), (blocksize, 16), (min(frame_sizes), 24),
              (max(frame_sizes), 24), (sample_rate, 20), (0, 3), (15, 5),
              (n, 36)]
    values, widths = np.array(fields, dtype=np.int64).T
    streaminfo = _pack(values, widths) + md5

    out = bytearray(b"fLaC")
    out.append(0x80)                     # last metadata block, type 0
    out += len(streaminfo).to_bytes(3, "big")
    out += streaminfo
    for f in frames:
        out += f
    return bytes(out)
