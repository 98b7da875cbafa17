"""Codec contract: the round trip's length and rate handling, and the
external-command adapter's validation, rate changes and failure modes."""

import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from launderbench.audio import AudioBuffer, CodecBackend
from launderbench.dsp import codec_roundtrip
from launderbench.errors import (BackendInvocationFailed, InvalidParameter,
                                 SampleRateChangedByCodec)

COPY_BODY = "import shutil, sys\nshutil.copy(sys.argv[1], sys.argv[2])\n"
HALF_RATE_DECODER = Path(__file__).with_name("half_rate_decoder.py")


def copy_codec(buf, bitrate_kbps):
    return buf


def half_rate_codec(buf, bitrate_kbps):
    return AudioBuffer(buf.samples[::2], buf.sample_rate_hz // 2)


def truncating_codec(buf, bitrate_kbps):
    return AudioBuffer(buf.samples[:len(buf) // 2], buf.sample_rate_hz)


def extending_codec(buf, bitrate_kbps):
    return AudioBuffer(np.concatenate([buf.samples, np.zeros(500)]),
                       buf.sample_rate_hz)


def stub_backend(tmp_path, decode_body=COPY_BODY, encode_body=COPY_BODY):
    enc = tmp_path / "enc.py"
    dec = tmp_path / "dec.py"
    enc.write_text(encode_body)
    dec.write_text(decode_body)
    return CodecBackend(
        f"{sys.executable} {enc} {{in}} {{out}} {{bitrate_kbps}}",
        f"{sys.executable} {dec} {{in}} {{out}}",
        "stub")


def tone(seconds=0.5, rate=16000, freq=440.0, amp=0.6):
    t = np.arange(int(seconds * rate)) / rate
    return AudioBuffer(amp * np.sin(2 * np.pi * freq * t), rate)


class TestTemplateValidation:
    def test_encode_template_needs_all_placeholders(self):
        with pytest.raises(InvalidParameter):
            CodecBackend("enc {in} {out}", "dec {in} {out}", "x")
        with pytest.raises(InvalidParameter):
            CodecBackend("enc {out} {bitrate_kbps}", "dec {in} {out}", "x")

    def test_decode_template_needs_in_and_out(self):
        with pytest.raises(InvalidParameter):
            CodecBackend("enc {in} {out} {bitrate_kbps}", "dec {in}", "x")

    def test_valid_templates_pass(self):
        b = CodecBackend("enc {in} {out} {bitrate_kbps}", "dec {in} {out}",
                         "id-string")
        assert b.identity == "id-string"


class TestRoundtripContract:
    def test_copy_backend_preserves_signal(self):
        x = tone()
        out = codec_roundtrip(x, 128, copy_codec)
        assert out.sample_rate_hz == x.sample_rate_hz
        assert len(out) == len(x)
        assert np.array_equal(out.samples, x.samples)

    def test_adapter_leaves_temp_dir_clean(self, tmp_path, monkeypatch):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(work))
        x = tone()
        out = codec_roundtrip(x, 128, stub_backend(tmp_path))
        assert np.max(np.abs(out.samples - x.samples)) <= 2.0 ** -15
        assert list(work.iterdir()) == []

    def test_rate_change_resampled_back_with_warning(self):
        x = tone(freq=1000.0)
        with pytest.warns(SampleRateChangedByCodec):
            out = codec_roundtrip(x, 128, half_rate_codec)
        assert out.sample_rate_hz == 16000
        assert len(out) == len(x)

    def test_rate_change_through_the_adapter(self, tmp_path):
        enc = tmp_path / "enc.py"
        enc.write_text(COPY_BODY)
        backend = CodecBackend(
            f"{sys.executable} {enc} {{in}} {{out}} {{bitrate_kbps}}",
            f"{sys.executable} {HALF_RATE_DECODER} {{in}} {{out}}",
            "external")
        x = tone(freq=1000.0)
        with pytest.warns(SampleRateChangedByCodec, match="8000 Hz"):
            out = codec_roundtrip(x, 128, backend)
        assert out.sample_rate_hz == x.sample_rate_hz
        assert len(out) == len(x)
        assert np.corrcoef(out.samples[100:-100],
                           x.samples[100:-100])[0, 1] > 0.99

    def test_short_output_zero_padded(self):
        x = tone()
        out = codec_roundtrip(x, 128, truncating_codec)
        assert len(out) == len(x)
        assert np.all(out.samples[-100:] == 0.0)

    def test_long_output_trimmed(self):
        x = tone()
        out = codec_roundtrip(x, 128, extending_codec)
        assert len(out) == len(x)

    def test_nonpositive_bitrate_rejected(self):
        with pytest.raises(InvalidParameter):
            codec_roundtrip(tone(), 0, copy_codec)


class TestFailureModes:
    def test_missing_executable(self):
        backend = CodecBackend(
            "/definitely/not/here {in} {out} {bitrate_kbps}",
            "/definitely/not/here {in} {out}", "ghost")
        with pytest.raises(BackendInvocationFailed):
            codec_roundtrip(tone(), 128, backend)

    def test_nonzero_exit(self, tmp_path):
        backend = stub_backend(
            tmp_path, encode_body="import sys\nsys.exit(3)\n")
        with pytest.raises(BackendInvocationFailed, match="status 3"):
            codec_roundtrip(tone(), 128, backend)

    def test_encoder_writes_nothing(self, tmp_path):
        backend = stub_backend(tmp_path, encode_body="pass\n")
        with pytest.raises(BackendInvocationFailed, match="no output"):
            codec_roundtrip(tone(), 128, backend)

    def test_decoder_writes_nothing(self, tmp_path):
        backend = stub_backend(tmp_path, decode_body="pass\n")
        with pytest.raises(BackendInvocationFailed, match="no output"):
            codec_roundtrip(tone(), 128, backend)

