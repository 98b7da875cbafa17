"""FLAC stream reader and writer.

No native FLAC library is assumed.  The decoder handles standard streams:
constant, verbatim, fixed-predictor, and LPC subframes, both Rice coding
methods with escaped partitions, wasted bits, fixed and variable blocking,
and verifies the header CRC-8, per-frame CRC-16, and the stream MD5.  The
encoder emits mono 16-bit streams using fixed predictors (orders 0-4) with
single-partition Rice residuals, which every compliant decoder reads.

Only mono streams are accepted; multichannel decorrelation modes are
rejected up front rather than silently downmixed.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import CorruptFile, MultichannelInput

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


_CRC8_TABLE = _make_crc_table(0x07, 8)
_CRC16_TABLE = _make_crc_table(0x8005, 16)


def _crc8(data):
    c = 0
    t = _CRC8_TABLE
    for b in data:
        c = t[c ^ b]
    return c


def _crc16(data):
    c = 0
    t = _CRC16_TABLE
    for b in data:
        c = ((c << 8) & 0xFF00) ^ t[(c >> 8) ^ b]
    return c


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
    """MSB-first bit reader over a bytes object."""

    def __init__(self, data, pos=0):
        self.data = data
        self.pos = pos
        self.acc = 0
        self.navail = 0

    def _fill(self, n):
        data, pos = self.data, self.pos
        while self.navail < n:
            take = min(6, len(data) - pos)
            if take == 0:
                raise CorruptFile("unexpected end of FLAC stream")
            self.acc = (self.acc << (8 * take)) | int.from_bytes(
                data[pos:pos + take], "big")
            pos += take
            self.navail += 8 * take
        self.pos = pos

    def read(self, n):
        if n == 0:
            return 0
        if self.navail < n:
            self._fill(n)
        self.navail -= n
        v = self.acc >> self.navail
        self.acc &= (1 << self.navail) - 1
        return v

    def read_signed(self, n):
        v = self.read(n)
        return v - (1 << n) if v >= (1 << (n - 1)) else v

    def read_unary(self):
        q = 0
        while True:
            if self.navail:
                if self.acc:
                    z = self.navail - self.acc.bit_length()
                    q += z
                    self.navail -= z + 1
                    self.acc &= (1 << self.navail) - 1
                    return q
                q += self.navail
                self.navail = 0
            self._fill(1)

    def read_rice_block(self, n, k, out):
        """Append n Rice(k)-coded signed residuals to the list `out`."""
        acc, navail, pos, data = self.acc, self.navail, self.pos, self.data
        append = out.append
        for _ in range(n):
            q = 0
            while True:
                if navail:
                    if acc:
                        z = navail - acc.bit_length()
                        q += z
                        navail -= z + 1
                        acc &= (1 << navail) - 1
                        break
                    q += navail
                    navail = 0
                take = min(6, len(data) - pos)
                if take == 0:
                    self.acc, self.navail, self.pos = acc, navail, pos
                    raise CorruptFile("unexpected end of FLAC stream")
                acc = (acc << (8 * take)) | int.from_bytes(
                    data[pos:pos + take], "big")
                pos += take
                navail += 8 * take
            if k:
                while navail < k:
                    take = min(6, len(data) - pos)
                    if take == 0:
                        self.acc, self.navail, self.pos = acc, navail, pos
                        raise CorruptFile("unexpected end of FLAC stream")
                    acc = (acc << (8 * take)) | int.from_bytes(
                        data[pos:pos + take], "big")
                    pos += take
                    navail += 8 * take
                navail -= k
                u = (q << k) | (acc >> navail)
                acc &= (1 << navail) - 1
            else:
                u = q
            append((u >> 1) ^ -(u & 1))
        self.acc, self.navail, self.pos = acc, navail, pos

    def align(self):
        drop = self.navail % 8
        self.navail -= drop
        self.acc &= (1 << self.navail) - 1

    def byte_pos(self):
        return self.pos - self.navail // 8


def _pack(values, widths):
    """MSB-first bits of unsigned (value, width) int64 fields, zero-padded
    to whole bytes.  A field wider than 63 bits holds its value in the low
    63 bits and leading zeros above, as long Rice quotients do."""
    field = np.repeat(np.arange(len(widths)), widths)
    shift = np.cumsum(widths)[field] - 1 - np.arange(len(field))
    bits = (values[field] >> np.minimum(shift, 63)) & 1
    return np.packbits(bits.astype(np.uint8)).tobytes()


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


def _restore_lpc(order, warmup, coefs, shift, resid):
    s = list(warmup) + [0] * len(resid)
    rev = list(range(order))
    for i, e in enumerate(resid, start=order):
        acc = 0
        for j in rev:
            acc += coefs[j] * s[i - 1 - j]
        s[i] = e + (acc >> shift)
    return np.asarray(s, dtype=np.int64)


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
    out = []
    for p in range(nparts):
        n = part_len - (order if p == 0 else 0)
        if n < 0:
            raise CorruptFile("predictor order exceeds first partition")
        param = br.read(pbits)
        if param == escape:
            nbits = br.read(5)
            if nbits:
                for _ in range(n):
                    out.append(br.read_signed(nbits))
            else:
                out.extend([0] * n)
        else:
            br.read_rice_block(n, param, out)
    return out


def _decode_subframe(br, blocksize, bps):
    if br.read(1):
        raise CorruptFile("nonzero subframe padding bit")
    sftype = br.read(6)
    wasted = 0
    if br.read(1):
        wasted = 1 + br.read_unary()
    eff_bps = bps - wasted
    if eff_bps <= 0:
        raise CorruptFile("wasted bits exceed sample size")

    if sftype == 0:
        v = br.read_signed(eff_bps)
        block = np.full(blocksize, v, dtype=np.int64)
    elif sftype == 1:
        block = np.asarray([br.read_signed(eff_bps) for _ in range(blocksize)],
                           dtype=np.int64)
    elif 8 <= sftype <= 12:
        order = sftype - 8
        if order > blocksize:
            raise CorruptFile("predictor order exceeds block size")
        warmup = [br.read_signed(eff_bps) for _ in range(order)]
        resid = _read_residual(br, blocksize, order)
        block = _restore_fixed(order, warmup, resid)
    elif sftype >= 32:
        order = sftype - 31
        if order > blocksize:
            raise CorruptFile("predictor order exceeds block size")
        warmup = [br.read_signed(eff_bps) for _ in range(order)]
        prec = br.read(4)
        if prec == 0b1111:
            raise CorruptFile("invalid LPC precision code")
        prec += 1
        shift = br.read_signed(5)
        if shift < 0:
            raise CorruptFile("negative LPC shift")
        coefs = [br.read_signed(prec) for _ in range(order)]
        resid = _read_residual(br, blocksize, order)
        block = _restore_lpc(order, warmup, coefs, shift, resid)
    else:
        raise CorruptFile("reserved subframe type")

    if wasted:
        block = block << wasted
    return block


def _decode_frame(data, pos, info):
    try:
        return _decode_frame_inner(data, pos, info)
    except IndexError:
        raise CorruptFile("truncated frame header") from None


def _decode_frame_inner(data, pos, info):
    start = pos
    if pos + 4 > len(data):
        raise CorruptFile("truncated frame header")
    b0, b1, b2, b3 = data[pos:pos + 4]
    if b0 != 0xFF or (b1 >> 2) != 0b111110:
        raise CorruptFile("bad frame sync code")
    if b1 & 0b10:
        raise CorruptFile("nonzero reserved bit in frame header")
    bs_code = b2 >> 4
    rate_code = b2 & 0xF
    chan_code = b3 >> 4
    depth_code = (b3 >> 1) & 0x7
    if b3 & 1:
        raise CorruptFile("nonzero reserved bit in frame header")
    if chan_code > 0:
        raise MultichannelInput("FLAC frame has more than one channel")
    pos += 4

    # coded frame/sample number (UTF-8 style)
    lead = data[pos]
    if lead < 0x80:
        nbytes = 1
    else:
        nbytes = 8 - (lead ^ 0xFF).bit_length()
        if nbytes < 2 or nbytes > 7:
            raise CorruptFile("bad coded-number lead byte")
    pos += nbytes
    if pos > len(data):
        raise CorruptFile("truncated coded number")

    if bs_code in _BLOCKSIZE_FROM_CODE:
        blocksize = _BLOCKSIZE_FROM_CODE[bs_code]
    elif bs_code == 0b0110:
        blocksize = data[pos] + 1
        pos += 1
    elif bs_code == 0b0111:
        blocksize = int.from_bytes(data[pos:pos + 2], "big") + 1
        pos += 2
    else:
        raise CorruptFile("reserved block size code")

    if rate_code == 0b0000:
        rate = info["rate"]
    elif rate_code in _RATE_FROM_CODE:
        rate = _RATE_FROM_CODE[rate_code]
    elif rate_code == 0b1100:
        rate = data[pos] * 1000
        pos += 1
    elif rate_code == 0b1101:
        rate = int.from_bytes(data[pos:pos + 2], "big")
        pos += 2
    elif rate_code == 0b1110:
        rate = int.from_bytes(data[pos:pos + 2], "big") * 10
        pos += 2
    else:
        raise CorruptFile("invalid sample rate code")

    if depth_code == 0b000:
        bps = info["bps"]
    elif depth_code in _DEPTH_FROM_CODE:
        bps = _DEPTH_FROM_CODE[depth_code]
    else:
        raise CorruptFile("reserved sample size code")

    if pos + 1 > len(data):
        raise CorruptFile("truncated frame header")
    if _crc8(data[start:pos]) != data[pos]:
        raise CorruptFile("frame header CRC-8 mismatch")
    pos += 1

    br = _BitReader(data, pos)
    block = _decode_subframe(br, blocksize, bps)
    br.align()
    end = br.byte_pos()
    if end + 2 > len(data):
        raise CorruptFile("truncated frame footer")
    stored = int.from_bytes(data[end:end + 2], "big")
    if _crc16(data[start:end]) != stored:
        raise CorruptFile("frame CRC-16 mismatch")
    return block, rate, bps, end + 2


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
    while pos < len(data):
        block, frate, fbps, pos = _decode_frame(data, pos, info)
        if frate != rate or fbps != bps:
            raise CorruptFile("frame parameters disagree with STREAMINFO")
        blocks.append(block)

    samples = (np.concatenate(blocks) if blocks
               else np.empty(0, dtype=np.int64))
    if info["total"] and len(samples) != info["total"]:
        raise CorruptFile(
            f"decoded {len(samples)} samples, STREAMINFO says {info['total']}")

    if info["md5"] != b"\x00" * 16:
        if bps == 16:
            raw = samples.astype("<i2").tobytes()
        elif bps == 8:
            raw = samples.astype("i1").tobytes()
        elif bps == 24:
            as32 = samples.astype("<i4").tobytes()
            raw = b"".join(as32[i:i + 3] for i in range(0, len(as32), 4))
        else:
            raw = None  # no cheap byte layout; skip verification
        if raw is not None and hashlib.md5(raw).digest() != info["md5"]:
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
    """Pick the Rice parameter minimizing the exact coded size in bits."""
    u = (resid << 1) ^ (resid >> 63)  # zigzag fold
    n = len(u)
    best_k, best_bits = 0, int(u.sum()) + n
    for k in range(1, 15):
        bits = int((u >> k).sum()) + n * (k + 1)
        if bits < best_bits:
            best_k, best_bits = k, bits
    return u, best_k, best_bits


def _encode_frame(block, index, rate):
    n = len(block)
    bs_code, bs_extra = _blocksize_code_for(n)
    rate_code, rate_extra = _rate_code_for(rate)
    header = bytearray([0xFF, 0xF8, (bs_code << 4) | rate_code,
                        (0b0000 << 4) | (0b100 << 1)])
    header += _encode_utf8_number(index)
    header += bs_extra
    header += rate_extra
    header.append(_crc8(header))

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
    return frame + _crc16(frame).to_bytes(2, "big")


def encode_flac(samples, sample_rate, blocksize=BLOCKSIZE):
    """Encode mono 16-bit samples (integer array in [-32768, 32767])."""
    s = np.asarray(samples, dtype=np.int64)
    if s.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    n = len(s)
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
