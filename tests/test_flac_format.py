"""FLAC container and bitstream tests.

The encoder is exercised through exact round-trips; decoder paths the
encoder never produces (LPC, wasted bits, escaped partitions, multiple
Rice partitions, variable blocking, odd header codes) are covered with
streams assembled bit by bit in this file, so reader and writer do not
vouch for each other.
"""

import hashlib
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from launderbench import flacio
from launderbench.errors import (CorruptFile, InvalidParameter,
                                 LaunderbenchError, MultichannelInput)
from launderbench.flacio import _blocksize_code_for, _encode_utf8_number

# ------------------------------------------------------- independent oracles
# The hand-made streams below are built with a bit-serial CRC and writer,
# not with flacio's table CRC and word packer, which are pinned to them.


def crc_prefixes(data, poly, width):
    """The zero-init, unreflected CRC of every prefix of data, shifted
    through the register one bit at a time: element n is CRC(data[:n])."""
    top, mask = 1 << (width - 1), (1 << width) - 1
    c, out = 0, [0]
    for b in data:
        c ^= b << (width - 8)
        for _ in range(8):
            c = ((c << 1) ^ poly if c & top else c << 1) & mask
        out.append(c)
    return out


def crc8(data):
    return crc_prefixes(data, 0x07, 8)[-1]


def crc16(data):
    return crc_prefixes(data, 0x8005, 16)[-1]


class BitWriter:
    """MSB-first writer: write(value, width) appends the low width bits of
    value one at a time; getvalue() zero-pads to whole bytes."""

    def __init__(self):
        self.bits = []

    def write(self, value, width):
        self.bits += [(value >> i) & 1 for i in range(width - 1, -1, -1)]

    def getvalue(self):
        bits = self.bits + [0] * (-len(self.bits) % 8)
        return bytes(int("".join(map(str, bits[i:i + 8])), 2)
                     for i in range(0, len(bits), 8))


def build_streaminfo(rate, channels, bps, total, md5=b"\x00" * 16,
                     min_bs=4096, max_bs=4096):
    bw = BitWriter()
    bw.write(min_bs, 16)
    bw.write(max_bs, 16)
    bw.write(0, 24)
    bw.write(0, 24)
    bw.write(rate, 20)
    bw.write(channels - 1, 3)
    bw.write(bps - 1, 5)
    bw.write(total, 36)
    info = bw.getvalue() + md5
    return b"fLaC" + bytes([0x80]) + len(info).to_bytes(3, "big") + info


DEPTH_CODES = {bps: code for code, bps in flacio._DEPTH_FROM_CODE.items()}


def build_frame(blocksize, fill_subframe, number=0, variable=False,
                rate_code=0b0101, rate_extra=b"", bps=16):
    """Assemble one mono frame; fill_subframe writes the subframe bits."""
    hdr = bytearray([0xFF, 0xF9 if variable else 0xF8])
    bs_code, bs_extra = _blocksize_code_for(blocksize)
    hdr.append((bs_code << 4) | rate_code)
    hdr.append(DEPTH_CODES[bps] << 1)
    hdr += _encode_utf8_number(number)
    hdr += bs_extra
    hdr += rate_extra
    hdr.append(crc8(hdr))
    bw = BitWriter()
    fill_subframe(bw)
    body = hdr + bw.getvalue()
    body += crc16(body).to_bytes(2, "big")
    return bytes(body)


def write_rice(bw, values, k):
    for r in values:
        u = (r << 1) ^ (r >> 63) if r < 0 else (r << 1)
        bw.write(1, (u >> k) + 1)  # unary quotient, terminating 1
        if k:
            bw.write(u & ((1 << k) - 1), k)


# ---------------------------------------------------------------- round trips

SIGNALS = {
    "noise": lambda n, rng: rng.integers(-32768, 32768, n),
    "ramp": lambda n, rng: np.arange(n) % 701 - 350,
    "constant": lambda n, rng: np.full(n, -12345),
    "tone": lambda n, rng: np.round(
        3000 * np.sin(2 * np.pi * 440 * np.arange(n) / 16000)).astype(int),
}


@pytest.mark.parametrize("n", [0, 1, 5, 192, 200, 4095, 4096, 4097, 12345])
@pytest.mark.parametrize("kind", sorted(SIGNALS))
def test_roundtrip_exact(n, kind):
    rng = np.random.default_rng(n * 7 + 1)
    x = SIGNALS[kind](n, rng).astype(np.int64)
    blob = flacio.encode_flac(x, 16000)
    y, rate, bps = flacio.decode_flac(blob)
    assert rate == 16000
    assert bps == 16
    assert np.array_equal(x, y)


@pytest.mark.parametrize("rate", [8000, 11025, 16000, 22050, 44100,
                                  12347, 655350])
def test_roundtrip_rates(rate):
    x = np.array([0, 100, -5, 32767, -32768, 7, 7, 7], dtype=np.int64)
    y, got_rate, _ = flacio.decode_flac(flacio.encode_flac(x, rate))
    assert got_rate == rate
    assert np.array_equal(x, y)


@pytest.mark.parametrize("blocksize", [192, 200, 256, 576, 1000, 1152])
def test_roundtrip_blocksizes(blocksize):
    rng = np.random.default_rng(blocksize)
    x = rng.integers(-2000, 2000, 2500).astype(np.int64)
    y, _, _ = flacio.decode_flac(flacio.encode_flac(x, 16000, blocksize))
    assert np.array_equal(x, y)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-32768, 32767), max_size=600),
       st.sampled_from([64, 4096]))
def test_roundtrip_property(xs, blocksize):
    x = np.asarray(xs, dtype=np.int64)
    y, _, _ = flacio.decode_flac(flacio.encode_flac(x, 16000, blocksize))
    assert np.array_equal(x, y)


def test_full_scale_and_alternating():
    x = np.tile([32767, -32768], 3000).astype(np.int64)
    y, _, _ = flacio.decode_flac(flacio.encode_flac(x, 16000))
    assert np.array_equal(x, y)


# -------------------------------------------------------------- encoder bytes

def hash_noise(n, amp, seed):
    """Integers in [-amp, amp] from a 32-bit integer hash, not an RNG stream."""
    x = (np.arange(n, dtype=np.uint64) + np.uint64(seed)) * np.uint64(0x9E3779B1)
    x &= np.uint64(0xFFFFFFFF)
    x ^= x >> np.uint64(15)
    x = (x * np.uint64(0x85EBCA77)) & np.uint64(0xFFFFFFFF)
    x ^= x >> np.uint64(13)
    return (x % np.uint64(2 * amp + 1)).astype(np.int64) - amp


def integrated_noise(n, order, amp, seed):
    """order-fold cumulative sum of hash noise: fixed order `order` wins."""
    x = hash_noise(n, amp, seed)
    for _ in range(order):
        x = np.cumsum(x)
    return x


def spike():
    x = np.zeros(4096, dtype=np.int64)
    x[1000] = 1000               # order 0, Rice k=0: a 2000-bit quotient
    return x


# name -> (signal, rate, blocksize, first subframe type, SHA-256 of the
# stream); the digests were recorded from earlier encoders: the bit-serial
# one, and for the last two the one with per-byte CRC loops and a packer
# that expanded every field into single bits
GOLDEN = {
    "empty": (lambda: np.zeros(0, dtype=np.int64), 16000, 4096, None,
              "ca3fe60a2134ea52c26b94a721f78a462e092f97af3564b3c3c3ce3275d76ee6"),
    "constant": (lambda: np.full(300, -12345), 16000, 4096, 0b000000,
                 "ec10adce68459724e77b6a94e1ac3cb2b279793908c351f555bd5f6f36ee8774"),
    "fixed_order0": (lambda: hash_noise(600, 100, 1), 16000, 4096, 0b001000,
                     "c81cabe36acc89f6db351615cf55529be122af28e79ad721f0f3bb61d7f86a46"),
    "fixed_order1": (lambda: integrated_noise(600, 1, 3, 2), 16000, 4096,
                     0b001001,
                     "cc247b42aff7ddbc9508c7c8e0d23d638389849871e4bcbdd92679d23045a58f"),
    "fixed_order2": (lambda: integrated_noise(600, 2, 1, 3), 16000, 4096,
                     0b001010,
                     "5d5330ef451f419697aaf6b89bd39091fed0ad2491ffbfa6b00dda6b8801a1da"),
    "fixed_order3": (lambda: integrated_noise(64, 3, 1, 4), 16000, 4096,
                     0b001011,
                     "406fe46891918b885f43ab3c6d22ffc943c6ba2ea7b2ef8373f7fe550b2806bc"),
    "fixed_order4": (lambda: integrated_noise(40, 4, 1, 5), 16000, 4096,
                     0b001100,
                     "075ec3187c29b4a9873936aca762e275a3f30411a94c668ba2f8cb073fa5705d"),
    "verbatim": (lambda: hash_noise(500, 32767, 6), 16000, 4096, 0b000001,
                 "aa0d7b7ba09fdd47ef6b8de9f43a71f7c1eace9b4516974cad5e2af971748789"),
    "short_last_frame_12345hz": (lambda: integrated_noise(1000, 1, 50, 7),
                                 12345, 192, 0b001001,
                                 "ba5da94343d505c56e1494736ea7d832bdfba11268e360b6244bf595a02e7611"),
    "rice_spike": (spike, 16000, 4096, 0b001000,
                   "761a9d4615bb1c224ed1a373a7816696cc54cdbff21842df6b28ce16233719ac"),
    # ~8 KB frames: CRC-16 over more than one 512-byte chunk
    "verbatim_3x4096": (lambda: hash_noise(3 * 4096, 32767, 8), 16000, 4096,
                        0b000001,
                        "36d7da740d632dc0b86243e31a65691143b8bed3885fb7f300b63dd9be81f754"),
    # frame numbers 128-199 take the 2-byte coded form
    "blocksize16_200_frames": (lambda: integrated_noise(16 * 200, 1, 3, 9),
                               16000, 16, 0b001001,
                               "86cfbfb3fa3631b2dc09ad902f87a00781e2b5c8a0cf7468fa1f545ebd8451a0"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_encoder_bytes_match_golden(name):
    make, rate, blocksize, sftype, digest = GOLDEN[name]
    x = make()
    blob = flacio.encode_flac(x, rate, blocksize)
    if sftype is not None:
        # STREAMINFO, then a frame header of 4 bytes, a 1-byte frame number,
        # the block size and rate extras and the CRC-8
        _, bs_extra = _blocksize_code_for(min(len(x), blocksize))
        _, rate_extra = flacio._rate_code_for(rate)
        assert blob[48 + len(bs_extra) + len(rate_extra)] >> 1 == sftype
    assert hashlib.sha256(blob).hexdigest() == digest


# ------------------------------------------------------------------ Rice plan

def scanned_rice_plan(resid):
    """The Rice parameter by scanning k = 0..14: the first exact minimum
    of the coded size."""
    u = (resid << 1) ^ (resid >> 63)
    sizes = [int((u >> k).sum()) + len(u) * (k + 1) for k in range(15)]
    best = min(sizes)
    return sizes.index(best), best


RICE_PLAN_EDGES = {
    "all-zero": [0] * 50,
    "one-element": [7],
    "max": [1 << 20] * 3,
    "min": [-(1 << 20)] * 3,
    "both": [1 << 20, -(1 << 20), 0],
    "tie-k0-k1": [1],            # size 3 at k = 0 and k = 1
    "tie-k3-k4": [-8, 7] * 4,    # u = 15, 14: size 40 at k = 3 and k = 4
}


@pytest.mark.parametrize("name", sorted(RICE_PLAN_EDGES))
def test_rice_plan_edges_match_scan(name):
    resid = np.array(RICE_PLAN_EDGES[name], dtype=np.int64)
    u, k, bits = flacio._rice_plan(resid)
    assert (k, bits) == scanned_rice_plan(resid)
    assert np.array_equal(u, (resid << 1) ^ (resid >> 63))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 20), min_size=1, max_size=4).flatmap(
    lambda scales: st.lists(st.one_of(
        [st.integers(-(1 << s), 1 << s) for s in scales]),
        min_size=1, max_size=300)))
def test_rice_plan_matches_scan(resid):
    resid = np.array(resid, dtype=np.int64)
    assert flacio._rice_plan(resid)[1:] == scanned_rice_plan(resid)


# ------------------------------------------------------------- container shape

def test_stream_layout_and_streaminfo():
    x = np.arange(-100, 5000, dtype=np.int64) % 30000 - 15000
    blob = flacio.encode_flac(x, 22050)
    assert blob[:4] == b"fLaC"
    assert blob[4] == 0x80          # single, last metadata block, type 0
    assert int.from_bytes(blob[5:8], "big") == 34
    packed = int.from_bytes(blob[18:26], "big")
    assert packed >> 44 == 22050
    assert ((packed >> 41) & 0x7) + 1 == 1
    assert ((packed >> 36) & 0x1F) + 1 == 16
    assert packed & ((1 << 36) - 1) == len(x)
    md5 = hashlib.md5(x.astype("<i2").tobytes()).digest()
    assert blob[26:42] == md5
    # first frame header: sync + fixed blocking
    assert blob[42] == 0xFF and blob[43] == 0xF8


def test_crc_check_values():
    # published check values for poly 0x07 (init 0) and poly 0x8005 (init 0,
    # unreflected) over the standard "123456789" vector
    for crc in (crc8, lambda d: flacio._crc(d, 8)):
        assert crc(b"123456789") == 0xF4
    for crc in (crc16, lambda d: flacio._crc(d, 16)):
        assert crc(b"123456789") == 0xFEE8


@pytest.mark.parametrize("fill", ["random", "zeros", "ones"])
@pytest.mark.parametrize("width", [8, 16])
def test_table_crc_matches_bit_serial_at_every_length(fill, width):
    # lengths 0-8191: empty input, part-filled first chunks and up to 16
    # chunks folded through the advance map
    n = 8191
    data = {"random": np.random.default_rng(width).integers(
                0, 256, n, dtype=np.uint8).tobytes(),
            "zeros": bytes(n), "ones": b"\xff" * n}[fill]
    want = crc_prefixes(data, {8: 0x07, 16: 0x8005}[width], width)
    assert [flacio._crc(data[:k], width) for k in range(n + 1)] == want


def pack_both(values, widths):
    """flacio._pack's bytes and the bit-serial writer's for the same
    fields."""
    bw = BitWriter()
    for v, w in zip(values.tolist(), widths.tolist()):
        bw.write(v, w)
    return flacio._pack(values, widths), bw.getvalue()


@pytest.mark.parametrize("seed", range(6))
def test_word_packer_matches_bit_serial_writer(seed):
    # fields up to 120 bits; one wider than 63 bits holds its value in the
    # low 63 and leading zeros above, as long Rice quotients do
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 400))
    widths = rng.integers(0, 121, n)
    values = rng.integers(0, 1 << 63, n, dtype=np.uint64).astype(np.int64)
    values &= (1 << np.minimum(widths, 63)) - 1
    got, want = pack_both(values, widths)
    assert got == want


@pytest.mark.parametrize("widths", [[], [0], [1], [7], [13, 2], [64], [65],
                                    [120, 3], [63, 1, 63, 5], [0, 64, 0]])
def test_word_packer_edges(widths):
    # empty input, zero-width fields, totals that are not whole bytes, and
    # fields ending on, just past and across 64-bit word boundaries
    widths = np.array(widths, dtype=np.int64)
    values = (1 << np.minimum(widths, 63)) - 1
    got, want = pack_both(values, widths)
    assert got == want


def test_coded_number_matches_utf8():
    for v in [0, 1, 0x7F, 0x80, 0x3FF, 0x7FF, 0x800, 0xFFFF, 0x10000,
              0x10FFFF]:
        assert _encode_utf8_number(v) == chr(v).encode("utf-8")
    # beyond the Unicode range the same scheme extends to 36 bits
    assert _encode_utf8_number((1 << 36) - 1) == bytes.fromhex("febfbfbfbfbfbf")
    with pytest.raises(ValueError):
        _encode_utf8_number(1 << 36)


# ------------------------------------------------------ hand-crafted bitstreams

def test_lpc_subframe():
    # order-2 LPC: pred = (3*s[n-1] - 1*s[n-2]) >> 1
    warmup = [100, 103]
    resid = [-2, 5, 0, 1, -7, 3]
    coefs = [3, -1]
    shift = 1
    expect = list(warmup)
    for e in resid:
        acc = coefs[0] * expect[-1] + coefs[1] * expect[-2]
        expect.append(e + (acc >> shift))

    def subframe(bw):
        bw.write(0, 1)
        bw.write(32 + 1, 6)      # LPC, order 2
        bw.write(0, 1)           # no wasted bits
        for w in warmup:
            bw.write(w, 16)
        bw.write(15 - 1, 4)      # precision 15
        bw.write(shift, 5)
        for c in coefs:
            bw.write(c, 15)
        bw.write(0b00, 2)
        bw.write(0, 4)           # one partition
        bw.write(3, 4)
        write_rice(bw, resid, 3)

    blob = (build_streaminfo(16000, 1, 16, len(expect))
            + build_frame(len(expect), subframe))
    y, _, _ = flacio.decode_flac(blob)
    assert y.tolist() == expect


def plain_lpc_restore(warmup, coefs, shift, resid):
    """The LPC restore loop as the format states it."""
    s = list(warmup)
    for e in resid:
        acc = sum(c * s[-1 - j] for j, c in enumerate(coefs))
        s.append(e + (acc >> shift))
    return s


def lpc_subframe(warmup, coefs, shift, prec, porder, parts, ks):
    """fill_subframe for an LPC subframe: the 16-bit warm-up, prec-bit
    coefficients, then 2**porder Rice partitions with parameters ks."""
    def fill(bw):
        bw.write(0, 1)
        bw.write(32 + len(coefs) - 1, 6)
        bw.write(0, 1)
        for w in warmup:
            bw.write(w, 16)
        bw.write(prec - 1, 4)
        bw.write(shift, 5)
        for c in coefs:
            bw.write(c, prec)
        bw.write(0b00, 2)
        bw.write(porder, 4)
        for part, k in zip(parts, ks):
            bw.write(k, 4)
            write_rice(bw, part, k)
    return fill


@pytest.mark.parametrize("order", range(1, 33))
def test_lpc_restore_at_every_order(order):
    """Each order's restore against the plain loop, with precision, shift,
    partition order and Rice parameters varied: a 256-sample frame, a
    short frame of order + 3 samples and one of order samples, which is
    all warm-up."""
    rng = np.random.default_rng(order)
    frames, expect = [], []
    for number, (n, porder) in enumerate(
            [(256, order % 4), (order + 3, 0), (order, 0)]):
        prec = int(rng.integers(1, 16))
        # |coefficients| sum to at most 2**shift, so the samples stay small
        lim = min((1 << (prec - 1)) - 1, (1 << 15) // order)
        coefs = rng.integers(-lim, lim + 1, order).tolist()
        least = (sum(map(abs, coefs)) - 1).bit_length()
        shift = int(rng.integers(least, 16))
        warmup = rng.integers(-32768, 32768, order).tolist()
        bounds = [0] + [(n >> porder) * (p + 1) - order
                        for p in range(1 << porder)]
        ks = rng.integers(0, 12, 1 << porder).tolist()
        parts = [rng.integers(-(2 << k), 2 << k, b - a).tolist()
                 for a, b, k in zip(bounds, bounds[1:], ks)]
        resid = sum(parts, [])
        expect += plain_lpc_restore(warmup, coefs, shift, resid)
        frames.append(build_frame(n, lpc_subframe(
            warmup, coefs, shift, prec, porder, parts, ks), number=number))
    blob = build_streaminfo(16000, 1, 16, len(expect)) + b"".join(frames)
    y, _, _ = flacio.decode_flac(blob)
    assert y.tolist() == expect


def test_lpc_order_beyond_block_size_is_refused():
    fill = lpc_subframe([1, 2, 3, 4, 5], [1, 0, 0, 0, 0], 0, 15, 0, [[]], [0])
    blob = build_streaminfo(16000, 1, 16, 4) + build_frame(4, fill)
    with pytest.raises(CorruptFile, match="predictor order exceeds block size"):
        flacio.decode_flac(blob)


def test_wasted_bits_shift_restored():
    def subframe(bw):
        bw.write(0, 1)
        bw.write(0, 6)           # constant
        bw.write(1, 1)           # wasted-bits flag
        bw.write(0b01, 2)        # unary 1 -> two wasted bits
        bw.write(1000, 14)       # value at 16 - 2 bits

    blob = build_streaminfo(16000, 1, 16, 5) + build_frame(5, subframe)
    y, _, _ = flacio.decode_flac(blob)
    assert y.tolist() == [4000] * 5


def test_escaped_partition_raw_residual():
    values = [-16, 15, 0, 3]

    def subframe(bw):
        bw.write(0, 1)
        bw.write(0b001000, 6)    # fixed predictor, order 0
        bw.write(0, 1)
        bw.write(0b00, 2)
        bw.write(0, 4)
        bw.write(0b1111, 4)      # escape
        bw.write(5, 5)           # raw 5-bit residuals
        for v in values:
            bw.write(v, 5)

    blob = build_streaminfo(16000, 1, 16, 4) + build_frame(4, subframe)
    y, _, _ = flacio.decode_flac(blob)
    assert y.tolist() == values


def test_escaped_partition_zero_bits_means_silence():
    def subframe(bw):
        bw.write(0, 1)
        bw.write(0b001000, 6)
        bw.write(0, 1)
        bw.write(0b00, 2)
        bw.write(0, 4)
        bw.write(0b1111, 4)
        bw.write(0, 5)           # zero-bit residuals decode as zeros

    blob = build_streaminfo(16000, 1, 16, 6) + build_frame(6, subframe)
    y, _, _ = flacio.decode_flac(blob)
    assert y.tolist() == [0] * 6


def test_four_rice_partitions_with_distinct_parameters():
    x = [10, 12, 15, 13, 9, 4, 0, -3, -2, 0, 5, 11, 14, 15, 12, 8]
    resid = np.diff(x).tolist()  # order-1 fixed prediction
    parts = [resid[0:3], resid[3:7], resid[7:11], resid[11:15]]
    ks = [0, 1, 2, 3]

    def subframe(bw):
        bw.write(0, 1)
        bw.write(0b001001, 6)    # fixed predictor, order 1
        bw.write(0, 1)
        bw.write(x[0], 16)
        bw.write(0b00, 2)
        bw.write(2, 4)           # partition order 2 -> 4 partitions
        for part, k in zip(parts, ks):
            bw.write(k, 4)
            write_rice(bw, part, k)

    blob = build_streaminfo(16000, 1, 16, 16) + build_frame(16, subframe)
    y, _, _ = flacio.decode_flac(blob)
    assert y.tolist() == x


def test_five_bit_rice_method():
    resid = [0, -1, 2, 40, -40]

    def subframe(bw):
        bw.write(0, 1)
        bw.write(0b001000, 6)
        bw.write(0, 1)
        bw.write(0b01, 2)        # 5-bit Rice parameters
        bw.write(0, 4)
        bw.write(17, 5)          # parameter below the 5-bit escape of 31
        write_rice(bw, resid, 17)

    blob = build_streaminfo(16000, 1, 16, 5) + build_frame(5, subframe)
    y, _, _ = flacio.decode_flac(blob)
    assert y.tolist() == resid


def rice_stream(resid, k, method=0b00):
    """One fixed order-0 frame holding resid as a single Rice(k)
    partition, and the bit offset in the stream where each code starts."""
    starts = []

    def subframe(bw):
        bw.write(0, 1)
        bw.write(0b001000, 6)
        bw.write(0, 1)
        bw.write(method, 2)
        bw.write(0, 4)
        bw.write(k, 4 + method)
        for r in resid:
            starts.append(len(bw.bits))
            write_rice(bw, [r], k)
        starts.append(len(bw.bits))

    info = build_streaminfo(16000, 1, 16, len(resid))
    frame = build_frame(len(resid), subframe)
    *starts, end = starts
    # the subframe's padded bytes end where the 2-byte CRC-16 begins
    head = 8 * (len(info) + len(frame) - 2 - (end + 7) // 8)
    return info + frame, [head + b for b in starts]


@pytest.mark.parametrize("resid, k, method", [
    ([0, -1, 1, 0, 3, -2], 0, 0b00),            # k = 0: quotient alone
    ([150, -3, 0, -150, 2], 0, 0b00),           # 300-zero quotients
    ([1 << 16, -(1 << 16), 7, 0], 2, 0b00),     # ~2**15-zero quotients
    ([0, 1, -1, 40000, -40000, 1 << 28], 15, 0b01),
    ([5, -5, (1 << 30) - 1, -(1 << 30)], 29, 0b01),
    ([3, -3, 1 << 31, -(1 << 31) + 1], 30, 0b01),
])
def test_rice_reader_edges(resid, k, method):
    blob, _ = rice_stream(resid, k, method)
    y, _, _ = flacio.decode_flac(blob)
    assert y.tolist() == resid


@pytest.mark.parametrize("k, last, cut_at", [(0, 150, 150), (20, 5 << 20, 21)],
                         ids=["in-quotient", "in-low-bits"])
def test_rice_reader_refuses_a_cut_code(k, last, cut_at):
    """The stream ends cut_at bits into its last code: inside a 300-zero
    quotient, or inside the 20 low bits that follow 10 zeros and a 1."""
    blob, starts = rice_stream([1, -2, last], k, 0b01)
    assert flacio.decode_flac(blob)[0].tolist() == [1, -2, last]
    with pytest.raises(CorruptFile, match="unexpected end"):
        flacio.decode_flac(blob[:(starts[-1] + cut_at) // 8])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 30).flatmap(lambda k: st.tuples(st.just(k), st.lists(
    st.integers(-(1 << (k + 6)), 1 << (k + 6)), max_size=40))))
def test_rice_block_reads_what_was_written(case):
    k, resid = case
    bw = BitWriter()
    write_rice(bw, resid, k)
    bw.write(0b10110, 5)  # trailing bits the read must leave in place
    br = flacio._BitReader(bw.getvalue(), 0)
    assert br.read_rice_block(len(resid), k).tolist() == resid
    assert br.read(5) == 0b10110


def test_variable_blocking_frames():
    a = [5, 6, 7, 8]
    b = [9, 10]

    def const_first(bw):
        bw.write(0, 1)
        bw.write(1, 6)           # verbatim
        bw.write(0, 1)
        for v in a:
            bw.write(v, 16)

    def const_second(bw):
        bw.write(0, 1)
        bw.write(1, 6)
        bw.write(0, 1)
        for v in b:
            bw.write(v, 16)

    blob = (build_streaminfo(16000, 1, 16, 6)
            + build_frame(4, const_first, number=0, variable=True)
            + build_frame(2, const_second, number=4, variable=True))
    y, _, _ = flacio.decode_flac(blob)
    assert y.tolist() == a + b


def test_kilohertz_rate_code():
    def subframe(bw):
        bw.write(0, 1)
        bw.write(0, 6)
        bw.write(0, 1)
        bw.write(77, 16)

    blob = (build_streaminfo(8000, 1, 16, 3)
            + build_frame(3, subframe, rate_code=0b1100, rate_extra=bytes([8])))
    y, rate, _ = flacio.decode_flac(blob)
    assert rate == 8000
    assert y.tolist() == [77] * 3


def test_id3v2_prefix_is_skipped():
    x = np.array([1, 2, 3, 4], dtype=np.int64)
    blob = flacio.encode_flac(x, 16000)
    tag = b"ID3" + bytes([4, 0, 0]) + bytes([0, 0, 0, 10]) + b"\x00" * 10
    y, _, _ = flacio.decode_flac(tag + blob)
    assert np.array_equal(x, y)


# ------------------------------------------------------------------ rejection

def valid_blob(n=500):
    rng = np.random.default_rng(3)
    return flacio.encode_flac(rng.integers(-500, 500, n).astype(np.int64),
                              16000)


def test_rejects_bad_marker():
    blob = bytearray(valid_blob())
    blob[3] = ord("X")
    with pytest.raises(CorruptFile):
        flacio.decode_flac(bytes(blob))


def test_rejects_truncation():
    blob = valid_blob()
    with pytest.raises(CorruptFile):
        flacio.decode_flac(blob[:-3])
    with pytest.raises(CorruptFile):
        flacio.decode_flac(blob[:40])


def test_rejects_header_crc8_mismatch():
    blob = bytearray(valid_blob())
    blob[46] ^= 0x01             # coded frame number byte
    with pytest.raises(CorruptFile):
        flacio.decode_flac(bytes(blob))


def test_rejects_frame_crc16_mismatch():
    blob = bytearray(valid_blob())
    blob[-1] ^= 0x40
    with pytest.raises(CorruptFile):
        flacio.decode_flac(bytes(blob))


def test_rejects_md5_mismatch():
    blob = bytearray(valid_blob())
    blob[30] ^= 0xFF             # inside the STREAMINFO MD5 field
    with pytest.raises(CorruptFile):
        flacio.decode_flac(bytes(blob))


@pytest.mark.parametrize("bps", [8, 12, 16, 20, 24, 32])
@pytest.mark.parametrize("wrong_md5", [False, True])
def test_md5_checked_at_every_depth(bps, wrong_md5):
    top = 1 << (bps - 1)
    x = [-top, top - 1, -1, 0, 1, top // 3, -top // 5]
    raw = b"".join(v.to_bytes((bps + 7) // 8, "little", signed=True)
                   for v in x)
    md5 = hashlib.md5(raw).digest()
    if wrong_md5:
        md5 = bytes([md5[0] ^ 1]) + md5[1:]

    def subframe(bw):
        bw.write(0, 1)
        bw.write(0b000001, 6)    # verbatim
        bw.write(0, 1)
        for v in x:
            bw.write(v, bps)

    blob = (build_streaminfo(16000, 1, bps, len(x), md5=md5)
            + build_frame(len(x), subframe, bps=bps))
    if wrong_md5:
        with pytest.raises(CorruptFile, match="MD5"):
            flacio.decode_flac(blob)
    else:
        y, _, got_bps = flacio.decode_flac(blob)
        assert y.tolist() == x and got_bps == bps


def test_rejects_total_sample_mismatch():
    def subframe(bw):
        bw.write(0, 1)
        bw.write(0, 6)
        bw.write(0, 1)
        bw.write(4, 16)

    blob = build_streaminfo(16000, 1, 16, 9) + build_frame(5, subframe)
    with pytest.raises(CorruptFile):
        flacio.decode_flac(blob)


def test_rejects_reserved_subframe_type():
    def subframe(bw):
        bw.write(0, 1)
        bw.write(0b000010, 6)
        bw.write(0, 1)
        bw.write(0, 16)

    blob = build_streaminfo(16000, 1, 16, 4) + build_frame(4, subframe)
    with pytest.raises(CorruptFile):
        flacio.decode_flac(blob)


def test_rejects_stereo_streaminfo():
    blob = build_streaminfo(16000, 2, 16, 0)
    with pytest.raises(MultichannelInput):
        flacio.decode_flac(blob)


def test_rejects_stereo_frame_even_if_streaminfo_lies():
    hdr = bytearray([0xFF, 0xF8, (0b1100 << 4) | 0b0101,
                     (0b0001 << 4) | (0b100 << 1)])
    hdr += _encode_utf8_number(0)
    hdr.append(crc8(hdr))
    blob = build_streaminfo(16000, 1, 16, 4096) + bytes(hdr)
    with pytest.raises(MultichannelInput):
        flacio.decode_flac(blob)


def test_rejects_reserved_blocksize_code():
    hdr = bytearray([0xFF, 0xF8, (0b0000 << 4) | 0b0101, 0b100 << 1])
    hdr += _encode_utf8_number(0)
    hdr.append(crc8(hdr))
    blob = build_streaminfo(16000, 1, 16, 4096) + bytes(hdr)
    with pytest.raises(CorruptFile, match="reserved block size code"):
        flacio.decode_flac(blob)


def test_rejects_negative_lpc_shift():
    def subframe(bw):
        bw.write(0, 1)
        bw.write(32, 6)          # LPC order 1
        bw.write(0, 1)
        bw.write(10, 16)
        bw.write(14, 4)
        bw.write(-1, 5)          # negative shift is invalid
        bw.write(1, 15)
        bw.write(0b00, 2)
        bw.write(0, 4)
        bw.write(0, 4)
        write_rice(bw, [0, 0, 0], 0)

    blob = build_streaminfo(16000, 1, 16, 4) + build_frame(4, subframe)
    with pytest.raises(CorruptFile):
        flacio.decode_flac(blob)


def test_rejects_invalid_lpc_precision():
    def subframe(bw):
        bw.write(0, 1)
        bw.write(32, 6)
        bw.write(0, 1)
        bw.write(10, 16)
        bw.write(0b1111, 4)      # reserved precision code
        bw.write(0, 5)
        bw.write(1, 15)

    blob = build_streaminfo(16000, 1, 16, 4) + build_frame(4, subframe)
    with pytest.raises(CorruptFile):
        flacio.decode_flac(blob)


@pytest.mark.parametrize("rate", [1, (1 << 20) - 1])
def test_streaminfo_rate_bounds_round_trip(rate):
    x = np.arange(40, dtype=np.int64) - 20
    y, got_rate, _ = flacio.decode_flac(flacio.encode_flac(x, rate))
    assert got_rate == rate and np.array_equal(x, y)


@pytest.mark.parametrize("blocksize", [16, (1 << 16) - 1])
def test_streaminfo_blocksize_bounds_round_trip(blocksize):
    x = np.arange(100, dtype=np.int64) - 20
    y, _, _ = flacio.decode_flac(flacio.encode_flac(x, 16000, blocksize))
    assert np.array_equal(x, y)


@pytest.mark.parametrize("rate, blocksize", [
    (0, 4096), (1 << 20, 4096), (2_000_000, 4096),
    (16000, 15), (16000, 1 << 16)])
def test_encoder_rejects_streaminfo_overflow(rate, blocksize):
    with pytest.raises(InvalidParameter):
        flacio.encode_flac(np.arange(10), rate, blocksize)


def test_encoder_rejects_36_bit_total():
    # a zero-stride view: 2^36 samples without allocating them
    huge = np.broadcast_to(np.int64(0), (1 << 36,))
    with pytest.raises(InvalidParameter, match="36 bits"):
        flacio.encode_flac(huge, 16000)
    flacio._check_streaminfo((1 << 36) - 1, 16000, 4096)


@pytest.mark.parametrize("bad", [32768, -32769, 40000])
def test_encoder_rejects_samples_beyond_16_bits(bad):
    x = np.zeros(100, dtype=np.int64)
    x[37] = bad
    with pytest.raises(InvalidParameter, match="-32768..32767"):
        flacio.encode_flac(x, 16000)


# ---------------------------------------------------------- corrupt streams

def prediction_overflow_stream(n=4800):
    """0.3 s of small noise at block size 1000 with byte 50, the first
    subframe header, set to 97: LPC order 17 with the wasted-bits flag,
    whose restored samples outgrow int64."""
    x = np.random.default_rng(2).integers(-10, 11, n)
    blob = bytearray(flacio.encode_flac(x, 16000, blocksize=1000))
    blob[50] = 97
    return bytes(blob)


def test_overflowing_prediction_is_corrupt_file():
    with pytest.raises(CorruptFile):
        flacio.decode_flac(prediction_overflow_stream())


def test_overflowing_prediction_with_valid_crc_is_corrupt_file():
    def subframe(bw):
        bw.write(0, 1)
        bw.write(32 + 1, 6)      # LPC, order 2
        bw.write(0, 1)
        bw.write(30000, 16)
        bw.write(30000, 16)
        bw.write(15 - 1, 4)      # precision 15
        bw.write(0, 5)           # no shift: each sample ~2^15 times the last
        bw.write(16383, 15)
        bw.write(16383, 15)
        bw.write(0b00, 2)
        bw.write(0, 4)
        bw.write(0, 4)
        write_rice(bw, [0] * 38, 0)

    blob = build_streaminfo(16000, 1, 16, 40) + build_frame(40, subframe)
    with pytest.raises(CorruptFile, match="overflow"):
        flacio.decode_flac(blob)


def test_diverging_lpc_frame_fails_fast():
    """One 65,535-sample order-32 frame whose coefficients are all
    2**14 - 1 with no shift: each sample is ~2**19 times the last, so the
    prediction leaves int64 within a few samples.  The restore must stop
    there, not carry ever longer ints through the frame."""
    order, n = 32, 65535
    fill = lpc_subframe([30000] * order, [16383] * order, 0, 15, 0,
                        [[0] * (n - order)], [0])
    blob = build_streaminfo(16000, 1, 16, n) + build_frame(n, fill)
    t0 = time.perf_counter()
    with pytest.raises(CorruptFile, match="LPC prediction overflows 64 bits"):
        flacio.decode_flac(blob)
    assert time.perf_counter() - t0 < 2.0


def lpc_stream():
    """Three order-2 LPC frames of 192, 192 and 100 samples, four Rice
    partitions each, the last partition of the last frame escaped."""
    rng = np.random.default_rng(5)
    coefs, shift = [3, -1], 1
    frames, samples = [], []
    for number, n in enumerate((192, 192, 100)):
        x = rng.integers(-300, 300, 2).tolist()
        resid = rng.integers(-20, 20, n - 2).tolist()
        for e in resid:
            x.append(e + ((coefs[0] * x[-1] + coefs[1] * x[-2]) >> shift))
        samples += x

        def subframe(bw, x=x, resid=resid, n=n):
            bw.write(0, 1)
            bw.write(32 + 1, 6)
            bw.write(0, 1)
            for w in x[:2]:
                bw.write(w, 16)
            bw.write(15 - 1, 4)
            bw.write(shift, 5)
            for c in coefs:
                bw.write(c, 15)
            bw.write(0b00, 2)
            bw.write(2, 4)       # four partitions
            q = n // 4
            bounds = [0, q - 2, 2 * q - 2, 3 * q - 2, n - 2]
            for p in range(4):
                part = resid[bounds[p]:bounds[p + 1]]
                if number == 2 and p == 3:
                    bw.write(0b1111, 4)
                    bw.write(7, 5)
                    for v in part:
                        bw.write(v, 7)
                else:
                    bw.write(p + 2, 4)
                    write_rice(bw, part, p + 2)

        frames.append(build_frame(n, subframe, number=number))
    md5 = hashlib.md5(np.asarray(samples).astype("<i2").tobytes()).digest()
    return (build_streaminfo(16000, 1, 16, len(samples), md5=md5)
            + b"".join(frames)), samples


def fixed_stream():
    """1500 samples of small noise at block size 1000: a short last frame."""
    x = np.random.default_rng(2).integers(-10, 11, 1500)
    return flacio.encode_flac(x, 16000, blocksize=1000), x.tolist()


def corruptions(blob, seed, count=150):
    """Seeded one- and two-byte overwrites, half of them within the first
    64 bytes (STREAMINFO, the first frame header and subframe header) or
    the 8 bytes after a frame sync code."""
    rng = np.random.default_rng(seed)
    syncs = [i for i in range(42, len(blob) - 1)
             if blob[i] == 0xFF and blob[i + 1] >> 2 == 0b111110]
    hot = list(range(64)) + [s + d for s in syncs for d in range(8)]
    for i in range(count):
        out = bytearray(blob)
        for _ in range(1 + i % 2):
            pick = hot if rng.random() < 0.5 else range(len(blob))
            out[pick[rng.integers(len(pick))] % len(blob)] = rng.integers(256)
        yield bytes(out)


@pytest.mark.parametrize("make", [lpc_stream, fixed_stream],
                         ids=["lpc", "fixed"])
def test_decoder_error_paths_stay_closed(make):
    blob, samples = make()
    assert flacio.decode_flac(blob)[0].tolist() == samples
    for end in range(len(blob)):
        with pytest.raises(CorruptFile):
            flacio.decode_flac(blob[:end])
    mutated = list(corruptions(blob, seed=len(blob)))
    if make is fixed_stream:
        mutated.append(prediction_overflow_stream(1500))
    for bad in mutated:
        try:
            flacio.decode_flac(bad)
        except LaunderbenchError:
            pass
