"""AudioBuffer, WAV/FLAC reading and writing, and signal statistics."""

import os
import struct
import wave
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from launderbench import flacio
from launderbench.audio import (AudioBuffer, read_audio, rms_power,
                                write_audio)
from launderbench.errors import (CorruptFile, EmptyBuffer, InvalidParameter,
                                 IoFailure, MultichannelInput,
                                 UnsupportedFormat)


def make_wav(path, payload, bits=16, fmt=1, channels=1, rate=16000):
    block = channels * bits // 8
    fmtc = struct.pack("<HHIIHH", fmt, channels, rate, rate * block, block,
                       bits)
    body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmtc)) + fmtc
            + b"data" + struct.pack("<I", len(payload)) + payload)
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


def make_extensible_wav(path, payload, bits, subformat, rate=16000):
    """A mono WAVE_FORMAT_EXTENSIBLE file whose SubFormat GUID carries
    the format code subformat."""
    block = bits // 8
    guid = (struct.pack("<I", subformat)
            + b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71")
    fmtc = struct.pack("<HHIIHHHHI", 0xFFFE, 1, rate, rate * block, block,
                       bits, 22, bits, 4) + guid
    body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmtc)) + fmtc
            + b"data" + struct.pack("<I", len(payload)) + payload)
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


class TestAudioBuffer:
    def test_duration(self):
        buf = AudioBuffer(np.zeros(8000), 16000)
        assert buf.duration_seconds == 0.5
        assert len(buf) == 8000

    def test_rejects_two_dimensional(self):
        with pytest.raises(MultichannelInput):
            AudioBuffer(np.zeros((100, 2)), 16000)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(InvalidParameter):
            AudioBuffer(np.zeros(10), 0)
        with pytest.raises(InvalidParameter):
            AudioBuffer(np.zeros(10), -8000)

    def test_samples_coerced_to_float(self):
        buf = AudioBuffer([1, 2, 3], 8000)
        assert buf.samples.dtype == np.float64


class TestRoundTrips:
    def test_wav16_bound_and_length(self, tmp_path):
        t = np.arange(16000) / 16000
        buf = AudioBuffer(0.8 * np.sin(2 * np.pi * 440 * t), 16000)
        write_audio(buf, tmp_path / "a.wav", "wav16")
        back = read_audio(tmp_path / "a.wav")
        assert back.sample_rate_hz == 16000
        assert len(back) == len(buf)
        assert np.max(np.abs(back.samples - buf.samples)) <= 2.0 ** -15

    @pytest.mark.parametrize("n", [0, 999, 1000])
    @pytest.mark.parametrize("rate", [16000, 44100])
    def test_wav16_bytes_match_stdlib_wave(self, tmp_path, n, rate):
        x = np.random.default_rng(n).uniform(-1.2, 1.2, n)
        write_audio(AudioBuffer(x, rate), tmp_path / "a.wav", "wav16")
        q = np.clip(np.rint(x * 32768.0), -32768, 32767).astype("<i2")
        with wave.open(str(tmp_path / "ref.wav"), "wb") as w:
            w.setnchannels(1)
            w.setsampwidth(2)
            w.setframerate(rate)
            w.writeframes(q.tobytes())
        assert (tmp_path / "a.wav").read_bytes() == \
            (tmp_path / "ref.wav").read_bytes()

    def test_flac_is_lossless_over_quantized_pcm(self, tmp_path):
        rng = np.random.default_rng(5)
        buf = AudioBuffer(rng.uniform(-1, 1, 12345), 22050)
        write_audio(buf, tmp_path / "a.wav", "wav16")
        write_audio(buf, tmp_path / "a.flac", "flac")
        from_wav = read_audio(tmp_path / "a.wav")
        from_flac = read_audio(tmp_path / "a.flac")
        assert from_flac.sample_rate_hz == 22050
        assert np.array_equal(from_wav.samples, from_flac.samples)

    def test_silence_flac(self, tmp_path):
        write_audio(AudioBuffer(np.zeros(16000), 16000),
                    tmp_path / "s.flac", "flac")
        back = read_audio(tmp_path / "s.flac")
        assert back.sample_rate_hz == 16000
        assert np.array_equal(back.samples, np.zeros(16000))

    @settings(max_examples=40, deadline=None)
    @given(xs=st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=1,
                       max_size=400))
    def test_wav16_bound_property(self, tmp_path_factory, xs):
        buf = AudioBuffer(np.asarray(xs), 16000)
        path = tmp_path_factory.mktemp("rt") / "x.wav"
        write_audio(buf, path, "wav16")
        back = read_audio(path)
        assert len(back) == len(buf)
        assert np.max(np.abs(back.samples - buf.samples)) <= 2.0 ** -15


class TestScaling:
    def test_full_scale_16bit(self, tmp_path):
        make_wav(tmp_path / "w.wav", struct.pack("<hh", 32767, -32768))
        buf = read_audio(tmp_path / "w.wav")
        assert buf.samples[0] == 32767 / 32768
        assert buf.samples[1] == -1.0

    def test_24bit_left_justified(self, tmp_path):
        payload = bytes([0x00, 0x00, 0x40]) + bytes([0x00, 0x00, 0xC0])
        make_wav(tmp_path / "w.wav", payload, bits=24)
        buf = read_audio(tmp_path / "w.wav")
        assert buf.samples[0] == pytest.approx(0.5)
        assert buf.samples[1] == pytest.approx(-0.5)

    def test_32bit_int(self, tmp_path):
        make_wav(tmp_path / "w.wav",
                 struct.pack("<ii", 2 ** 31 - 1, -2 ** 31), bits=32)
        buf = read_audio(tmp_path / "w.wav")
        assert buf.samples[0] == pytest.approx(1.0, abs=1e-9)
        assert buf.samples[1] == -1.0

    def test_float32(self, tmp_path):
        make_wav(tmp_path / "w.wav", struct.pack("<ff", 0.25, -0.75),
                 bits=32, fmt=3)
        buf = read_audio(tmp_path / "w.wav")
        assert buf.samples.tolist() == [0.25, -0.75]

    def test_uint8(self, tmp_path):
        make_wav(tmp_path / "w.wav", bytes([128, 255, 0]), bits=8)
        buf = read_audio(tmp_path / "w.wav")
        assert buf.samples[0] == 0.0
        assert buf.samples[1] == pytest.approx(127 / 128)
        assert buf.samples[2] == -1.0


def scipy_scaled(path):
    """scipy.io.wavfile's reading of path, scaled to [-1, 1] by the rule
    read_audio has always applied to it."""
    from scipy.io import wavfile
    rate, data = wavfile.read(path)
    divisor = {np.dtype(np.int16): 32768.0,
               np.dtype(np.int32): 2147483648.0}.get(data.dtype)
    if data.dtype == np.uint8:
        return rate, (data.astype(np.float64) - 128.0) / 128.0
    if divisor:
        return rate, data.astype(np.float64) / divisor
    return rate, data.astype(np.float64)


WAV_FORMATS = [  # (bits, format code, sample dtype)
    (8, 1, "u1"), (16, 1, "<i2"), (24, 1, None), (32, 1, "<i4"),
    (32, 3, "<f4"), (64, 3, "<f8")]


def wav_payload(bits, dtype, n=999):
    rng = np.random.default_rng(bits)
    if bits == 24:
        return rng.integers(0, 256, 3 * n, dtype=np.uint8).tobytes()
    if dtype[1] == "f":
        return rng.uniform(-1, 1, n).astype(dtype).tobytes()
    info = np.iinfo(dtype)
    return rng.integers(info.min, info.max, n, endpoint=True,
                        dtype=dtype).tobytes()


class TestWavOracle:
    """The RIFF reader against scipy.io.wavfile, which it replaces, on
    every format these tests build, plain and WAVE_FORMAT_EXTENSIBLE."""

    @pytest.mark.parametrize("extensible", [False, True],
                             ids=["plain", "extensible"])
    @pytest.mark.parametrize("bits,code,dtype", WAV_FORMATS,
                             ids=[f"{'pcm' if c == 1 else 'float'}{b}"
                                  for b, c, _ in WAV_FORMATS])
    def test_matches_scipy(self, tmp_path, bits, code, dtype, extensible):
        path = tmp_path / "w.wav"
        payload = wav_payload(bits, dtype)
        if extensible:
            make_extensible_wav(path, payload, bits, code, rate=22050)
        else:
            make_wav(path, payload, bits=bits, fmt=code, rate=22050)
        rate, want = scipy_scaled(path)
        got = read_audio(path)
        assert got.sample_rate_hz == rate == 22050
        assert got.samples.dtype == np.float64
        assert np.array_equal(got.samples, want)

    def test_written_wav16_matches_scipy(self, tmp_path):
        x = np.random.default_rng(3).uniform(-1.1, 1.1, 12345)
        write_audio(AudioBuffer(x, 44100), tmp_path / "a.wav", "wav16")
        rate, want = scipy_scaled(tmp_path / "a.wav")
        assert rate == 44100
        assert np.array_equal(read_audio(tmp_path / "a.wav").samples, want)

    def test_chunks_before_data_are_skipped_with_padding(self, tmp_path):
        path = tmp_path / "w.wav"
        make_wav(path, struct.pack("<hh", 16384, -16384))
        blob = path.read_bytes()
        odd = b"LIST" + struct.pack("<I", 3) + b"abc\x00"   # one pad byte
        at = blob.index(b"data")
        blob = blob[:at] + odd + blob[at:]
        path.write_bytes(blob[:4] + struct.pack("<I", len(blob) - 8)
                         + blob[8:])
        assert read_audio(path).samples.tolist() == [0.5, -0.5]

    def test_unknown_extensible_subformat(self, tmp_path):
        make_extensible_wav(tmp_path / "w.wav", b"\x00" * 8, 16, 0x11)
        with pytest.raises(UnsupportedFormat):
            read_audio(tmp_path / "w.wav")

    @pytest.mark.parametrize("bits,code", [(16, 3), (64, 1), (40, 1)])
    def test_unsupported_sample_width(self, tmp_path, bits, code):
        make_wav(tmp_path / "w.wav", b"\x00" * 40, bits=bits, fmt=code)
        with pytest.raises(UnsupportedFormat):
            read_audio(tmp_path / "w.wav")

    @pytest.mark.parametrize("cut", ["placeholder", "whole", "mid_sample"])
    @pytest.mark.parametrize("bits,code,dtype", WAV_FORMATS,
                             ids=[f"{'pcm' if c == 1 else 'float'}{b}"
                                  for b, c, _ in WAV_FORMATS])
    def test_data_past_the_end_matches_scipy(self, tmp_path, bits, code,
                                             dtype, cut):
        # a WAV written to a pipe carries a placeholder data size, and one
        # cut off mid-recording ends before its data chunk does: both are
        # read to their last whole sample
        path = tmp_path / "w.wav"
        make_wav(path, wav_payload(bits, dtype), bits=bits, fmt=code)
        blob = path.read_bytes()
        at = blob.index(b"data") + 4
        if cut == "placeholder":
            blob = blob[:at] + struct.pack("<I", 0xFFFFFFFF) + blob[at + 4:]
        else:
            blob = blob[:-(10 * bits // 8 + (cut == "mid_sample"))]
        path.write_bytes(blob)
        got = read_audio(path)
        with warnings.catch_warnings():     # scipy warns of the early end
            warnings.simplefilter("ignore", UserWarning)
            if (bits, cut) == (24, "mid_sample"):
                # scipy cannot shape a partial 24-bit sample: its reading
                # of the file cut back to whole samples
                with pytest.raises(ValueError):
                    scipy_scaled(path)
                path.write_bytes(blob[:-2])
            rate, want = scipy_scaled(path)
        assert got.sample_rate_hz == rate
        assert len(want) == 999 - 10 * (cut != "placeholder") \
            - (cut == "mid_sample")
        assert np.array_equal(got.samples, want)

    @pytest.mark.parametrize("cut", ["sample", "fmt", "no_data"])
    def test_damaged_file_is_corrupt(self, tmp_path, cut):
        path = tmp_path / "w.wav"
        make_wav(path, struct.pack("<hhh", 1, 2, 3))
        blob = path.read_bytes()
        blob = {"sample": blob[:-10] + struct.pack("<I", 5) + blob[-6:-1],
                "fmt": blob[:16] + struct.pack("<I", 12) + blob[20:32],
                "no_data": blob[:36]}[cut]
        path.write_bytes(blob)
        with pytest.raises(CorruptFile, match=str(path)):
            read_audio(path)


class TestClipping:
    def test_saturation_counts_only_beyond_full_scale(self, tmp_path):
        buf = AudioBuffer([0.5, 1.5, -2.0, 1.0, -1.0], 16000)
        clipped = write_audio(buf, tmp_path / "c.wav", "wav16")
        assert clipped == 2  # 1.5 and -2.0; exactly +-1.0 is representable
        back = read_audio(tmp_path / "c.wav")
        assert back.samples[1] == 32767 / 32768
        assert back.samples[2] == -1.0
        assert back.samples[3] == 32767 / 32768
        assert back.samples[4] == -1.0

    def test_clean_signal_reports_zero(self, tmp_path):
        buf = AudioBuffer(np.linspace(-1, 1, 100), 16000)
        assert write_audio(buf, tmp_path / "c.flac", "flac") == 0


class TestRmsPower:
    def test_examples(self):
        assert rms_power(AudioBuffer(np.full(100, 0.5), 16000)) == 0.25
        assert rms_power(AudioBuffer(np.zeros(50), 16000)) == 0.0

    def test_unit_sine_half_power(self):
        t = np.arange(16000) / 16000
        buf = AudioBuffer(np.sin(2 * np.pi * 100 * t), 16000)  # 100 periods
        assert rms_power(buf) == pytest.approx(0.5, abs=1e-12)

    def test_scale_quadratically(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(5000)
        base = rms_power(AudioBuffer(x, 16000))
        for g in (0.1, 0.5, 3.0):
            scaled = rms_power(AudioBuffer(g * x, 16000))
            assert scaled == pytest.approx(g * g * base, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(EmptyBuffer):
            rms_power(AudioBuffer(np.zeros(0), 16000))


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailure):
            read_audio(tmp_path / "nope.wav")

    def test_unknown_container(self, tmp_path):
        p = tmp_path / "x.ogg"
        p.write_bytes(b"OggS" + b"\x00" * 40)
        with pytest.raises(UnsupportedFormat):
            read_audio(p)

    def test_stereo_wav(self, tmp_path):
        make_wav(tmp_path / "w.wav", struct.pack("<hhhh", 1, 2, 3, 4),
                 channels=2)
        with pytest.raises(MultichannelInput):
            read_audio(tmp_path / "w.wav")

    def test_truncated_flac(self, tmp_path):
        write_audio(AudioBuffer(np.zeros(4000), 16000),
                    tmp_path / "a.flac", "flac")
        blob = (tmp_path / "a.flac").read_bytes()
        (tmp_path / "b.flac").write_bytes(blob[:len(blob) - 5])
        with pytest.raises(CorruptFile):
            read_audio(tmp_path / "b.flac")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_float_wav(self, tmp_path, bad):
        path = tmp_path / "w.wav"
        make_wav(path, struct.pack("<fff", 0.25, bad, -0.5), bits=32, fmt=3)
        with pytest.raises(CorruptFile, match=str(path)):
            read_audio(path)

    def test_compressed_wav_subformat(self, tmp_path):
        make_wav(tmp_path / "w.wav", b"\x00" * 8, fmt=0x11)  # IMA ADPCM
        with pytest.raises((UnsupportedFormat, CorruptFile)):
            read_audio(tmp_path / "w.wav")

    def test_bad_output_format(self, tmp_path):
        with pytest.raises(UnsupportedFormat):
            write_audio(AudioBuffer(np.zeros(10), 16000),
                        tmp_path / "x.mp3", "mp3")

    def test_unwritable_destination(self, tmp_path):
        with pytest.raises(IoFailure):
            write_audio(AudioBuffer(np.zeros(10), 16000),
                        tmp_path / "missing" / "x.wav", "wav16")


class TestAtomicWrite:
    @pytest.mark.parametrize("fmt,name", [("flac", "a.flac"),
                                          ("wav16", "a.wav")])
    def test_success_leaves_only_the_destination(self, tmp_path, fmt, name):
        write_audio(AudioBuffer(np.zeros(100), 16000), tmp_path / name, fmt)
        assert [p.name for p in tmp_path.iterdir()] == [name]

    def test_failed_encode_leaves_earlier_file_and_no_temp(self, tmp_path,
                                                           monkeypatch):
        dest = tmp_path / "a.flac"
        write_audio(AudioBuffer(np.zeros(100), 16000), dest)
        before = dest.read_bytes()

        def fail(samples, rate):
            raise InvalidParameter("encode failed")

        monkeypatch.setattr(flacio, "encode_flac", fail)
        with pytest.raises(InvalidParameter):
            write_audio(AudioBuffer(np.ones(100) / 2, 16000), dest)
        assert [p.name for p in tmp_path.iterdir()] == ["a.flac"]
        assert dest.read_bytes() == before

    def test_write_failing_mid_file_leaves_earlier_file(self, tmp_path,
                                                        monkeypatch):
        dest = tmp_path / "a.wav"
        write_audio(AudioBuffer(np.zeros(100), 16000), dest, "wav16")
        before = dest.read_bytes()

        def half_then_fail(self, data):
            self._file.write(b"RIFF\x00\x00")
            raise OSError("disk full")

        monkeypatch.setattr(wave.Wave_write, "writeframes", half_then_fail)
        with pytest.raises(IoFailure, match="disk full"):
            write_audio(AudioBuffer(np.ones(100) / 2, 16000), dest, "wav16")
        assert [p.name for p in tmp_path.iterdir()] == ["a.wav"]
        assert dest.read_bytes() == before

    def test_failed_rename_leaves_no_temp(self, tmp_path,
                                                  monkeypatch):
        # the bytes are all written, then the rename fails
        dest = tmp_path / "a.flac"

        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(IoFailure, match="rename failed"):
            write_audio(AudioBuffer(np.zeros(100), 16000), dest)
        assert list(tmp_path.iterdir()) == []
