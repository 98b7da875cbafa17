"""FLAC container and bitstream tests.

The encoder is exercised through exact round-trips; decoder paths the
encoder never produces (LPC, wasted bits, escaped partitions, multiple
Rice partitions, variable blocking, odd header codes) are covered with
streams assembled bit by bit in this file, so reader and writer do not
vouch for each other.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from launderbench import flacio
from launderbench.errors import CorruptFile, MultichannelInput
from launderbench.flacio import (_blocksize_code_for, _crc8, _crc16,
                                 _encode_utf8_number)


class BitWriter:
    """Collects write(value, width) fields, masked to width, for _pack."""

    def __init__(self):
        self.values, self.widths = [], []

    def write(self, value, width):
        self.values.append(value & ((1 << width) - 1))
        self.widths.append(width)

    def getvalue(self):
        return flacio._pack(np.array(self.values, dtype=np.int64),
                            np.array(self.widths, dtype=np.int64))


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


def build_frame(blocksize, fill_subframe, number=0, variable=False,
                rate_code=0b0101, rate_extra=b""):
    """Assemble one mono 16-bit frame; fill_subframe writes the subframe bits."""
    hdr = bytearray([0xFF, 0xF9 if variable else 0xF8])
    bs_code, bs_extra = _blocksize_code_for(blocksize)
    hdr.append((bs_code << 4) | rate_code)
    hdr.append(0b100 << 1)
    hdr += _encode_utf8_number(number)
    hdr += bs_extra
    hdr += rate_extra
    hdr.append(_crc8(hdr))
    bw = BitWriter()
    fill_subframe(bw)
    body = hdr + bw.getvalue()
    body += _crc16(body).to_bytes(2, "big")
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
# stream); the digests were recorded from the bit-serial encoder
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
    assert _crc8(b"123456789") == 0xF4
    assert _crc16(b"123456789") == 0xFEE8


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
    hdr.append(_crc8(hdr))
    blob = build_streaminfo(16000, 1, 16, 4096) + bytes(hdr)
    with pytest.raises(MultichannelInput):
        flacio.decode_flac(blob)


def test_rejects_reserved_blocksize_code():
    hdr = bytearray([0xFF, 0xF8, (0b0000 << 4) | 0b0101, 0b100 << 1])
    hdr += _encode_utf8_number(0)
    hdr.append(_crc8(hdr))
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
