"""launder's output bytes, pinned: one run at a fixed seed over three
sources writes exactly these non-codec FLACs and this manifest.

The sources are a 16 kHz speech-like signal, 44.1 kHz noise (where the
8 kHz lowpass cuts), and an order-8 LPC FLAC stream as reference encoders
write it (test_fuzz's writer).  Recompression runs through the copy-stub
codec; its outputs are the codec's, so the pin leaves them out.  No
sample of the pinned outputs lies within 2e-6 LSB of a 16-bit rounding
tie, while FFT rounding moves a sample by ~1e-10 LSB, so the pin moves
when an attack's arithmetic or draws change, not when an FFT library
rounds a sum differently; a mismatch names the python and numpy versions
it was seen on.
"""

import hashlib
import platform

import numpy as np

import test_fuzz
from launderbench.audio import AudioBuffer, write_audio
from launderbench.cli import main
from test_cli import launder_argv, speech_like, write_corpus

PINNED = {
    "augmented.manifest":
        "96581dcecbb34bf8c0ea7031dc01f93d3dda53607e7a7423130906d3fa349d14",
    "u0/u0000_babble_0.flac":
        "398a8e6405361314dc39bf8208228e8612fc8b71863602a312f09cd66374a5cd",
    "u0/u0000_cafe_0.flac":
        "dca10d160accc9fc4617b4a24d05a25a1f5d153ee1d0bc3503da63279a61a2f3",
    "u0/u0000_lowpass_8000_5.flac":
        "c6e7bd4f48d7a829fac75e7b2cedd7bd96332a9c4838c48fdf0ab17b17f5f6b0",
    "u0/u0000_resampling_11025.flac":
        "59d52b28acde7bd6b9448ba9cafef46dfc6cca6237d39295ce17cfba7ee08ae0",
    "u0/u0000_reverberation_0.9.flac":
        "04ecb9d0f8872da5b843a9900e71d50077f2553fb3e1fbd2636a11c903adb181",
    "u0/u0000_street_10.flac":
        "79aa2b90d148eae678e7414bd3f318c18aafc33c7dabb2afdc2179a53fe494c3",
    "u0/u0000_volvo_10.flac":
        "f8da46baa3351ad0979c62a6a48f9b9826034c6b658551f937717d589c87a2b4",
    "u0/u0000_white_0.flac":
        "07bf4a54998e9539b840814e788833ecc2092c18ff1dbbe1ec8476e8b68e115e",
    "u0/u0001_babble_10.flac":
        "62d9186c67bf26051db5d10d80c44d34a3d012cb41ec00823b35027e6218f689",
    "u0/u0001_cafe_10.flac":
        "9262719aad8d6b8ff4fe41d01ba08bc0f9e77ecd48f5fe85c51b2d31244e9c7b",
    "u0/u0001_lowpass_8000_5.flac":
        "199e5dc561ac9fac87c3f39a24e29fe7e384515cc3ff8f0979005be84f6b4be9",
    "u0/u0001_resampling_11025.flac":
        "7ce034fa17c9e5d45f13bcbe3cac4b2df2826da52dcb881c8b5afb433cfae115",
    "u0/u0001_reverberation_0.9.flac":
        "d4f7522f582b5ed2fee444bea4d042cb8b08076bc06652d222393ad3a7c59ce0",
    "u0/u0001_street_0.flac":
        "e571628bc2b4c89f6b16d33fd0329e9a304c84ea28630add89162078169c8e3e",
    "u0/u0001_volvo_0.flac":
        "73546fa9a1ff46ac24ada8d1e53830d94db52ae4ae5f9908c1e3029497e5cb0c",
    "u0/u0001_white_20.flac":
        "b7eb45b80715671a12295d2b797e281d43e9ad4accaabac816fb0453270adddd",
    "u0/u0002_babble_20.flac":
        "48778ddb6edc4e573f4779b6a2134af8e94ad3f66290834300d35113fea55b56",
    "u0/u0002_cafe_20.flac":
        "2eb13f617c139f88064734de7c3de54b7b87aab0d2902feea33507c7a4da0154",
    "u0/u0002_lowpass_8000_5.flac":
        "1c36a5b3ddcbcfb96e04f8653087ebe38da7431aec8a7e181010c06e487cab9d",
    "u0/u0002_resampling_22050.flac":
        "cf8a88faa4e6596c7ed94b741f003a3a3b4e4c3cd1e7763434b01cc3211c3afb",
    "u0/u0002_reverberation_0.9.flac":
        "7a415aa7636cececbe489bb73636d799e7aa545ce6988c086a919f3b3029a938",
    "u0/u0002_street_20.flac":
        "d379f20f22895961cafbf86fd6f041235d76c3957a9217b5b5c2beb9abbc6d4b",
    "u0/u0002_volvo_10.flac":
        "e06cb07b923b959448d8e138e693affa38c968cacc0db6ebebd44d7c277736ea",
    "u0/u0002_white_20.flac":
        "fa692619751ab993feb41683506e0c453717cf14df69281f41504f2e80006403",
}


def write_sources(corpus):
    """Overwrite write_corpus's three sources with the pinned ones."""
    root = corpus["audio_root"]
    rng = np.random.default_rng(20)
    write_audio(AudioBuffer(speech_like(rng, seconds=1.0), 16000),
                root / "u0000.flac")
    write_audio(AudioBuffer(rng.uniform(-0.5, 0.5, 44100), 44100),
                root / "u0001.flac")
    blob, _ = test_fuzz.lpc_stream(test_fuzz.speech_like(21))
    (root / "u0002.flac").write_bytes(blob)


def test_launder_output_bytes_are_pinned(tmp_path):
    corpus = write_corpus(tmp_path, n_files=3)
    write_sources(corpus)
    out = tmp_path / "out"
    argv = ["--jobs", "1", "--fraction", "1.0", "--seed", "7"]
    assert main(launder_argv(corpus, out, argv)) == 0
    got = {p.relative_to(out).as_posix():
           hashlib.sha256(p.read_bytes()).hexdigest()
           for p in [out / "augmented.manifest", *out.rglob("*.flac")]
           if "_recompression_" not in p.name}
    moved = sorted(name for name in got.keys() | PINNED.keys()
                   if got.get(name) != PINNED.get(name))
    assert not moved, (
        f"on python {platform.python_version()} and numpy {np.__version__}, "
        f"{len(moved)} of {len(PINNED)} pinned outputs changed: "
        + ", ".join(moved))
