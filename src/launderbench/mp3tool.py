"""In-process MP3 codec on top of the system LAME library.

default_backend() binds libmp3lame once through ctypes and returns a
codec for audio.codec_roundtrip; any other encoder/decoder pair plugs in
through the audio.CodecBackend command adapter instead.

Encoding does not force the output sample rate: LAME picks a legal rate
for the requested bitrate (MPEG layer III does not allow every bitrate
at every rate), and the caller resamples back when they differ.
"""

from __future__ import annotations

import ctypes
import ctypes.util

import numpy as np

from .audio import AudioBuffer, _quantize16
from .errors import BackendInvocationFailed


class Mp3Data(ctypes.Structure):
    _fields_ = [("header_parsed", ctypes.c_int),
                ("stereo", ctypes.c_int),
                ("samplerate", ctypes.c_int),
                ("bitrate", ctypes.c_int),
                ("mode", ctypes.c_int),
                ("mode_ext", ctypes.c_int),
                ("framesize", ctypes.c_int),
                ("nsamp", ctypes.c_ulong),
                ("totalframes", ctypes.c_int),
                ("framenum", ctypes.c_int)]


def load_lame():
    for name in ("libmp3lame.so.0", "libmp3lame.so"):
        try:
            return ctypes.CDLL(name)
        except OSError:
            continue
    found = ctypes.util.find_library("mp3lame")
    if found:
        return ctypes.CDLL(found)
    raise OSError("libmp3lame shared library not found")


def _bind(lib):
    p = ctypes.c_void_p
    lib.lame_init.restype = p
    for fn in ("lame_set_in_samplerate", "lame_set_num_channels",
               "lame_set_brate", "lame_set_mode", "lame_set_quality",
               "lame_set_bWriteVbrTag"):
        getattr(lib, fn).argtypes = [p, ctypes.c_int]
    lib.lame_init_params.argtypes = [p]
    lib.lame_encode_buffer.argtypes = [
        p, ctypes.POINTER(ctypes.c_short), ctypes.POINTER(ctypes.c_short),
        ctypes.c_int, ctypes.POINTER(ctypes.c_ubyte), ctypes.c_int]
    lib.lame_encode_flush.argtypes = [
        p, ctypes.POINTER(ctypes.c_ubyte), ctypes.c_int]
    lib.lame_close.argtypes = [p]
    lib.hip_decode_init.restype = p
    lib.hip_decode1_headers.argtypes = [
        p, ctypes.POINTER(ctypes.c_ubyte), ctypes.c_size_t,
        ctypes.POINTER(ctypes.c_short), ctypes.POINTER(ctypes.c_short),
        ctypes.POINTER(Mp3Data)]
    lib.hip_decode_exit.argtypes = [p]
    lib.get_lame_version.restype = ctypes.c_char_p
    return lib


class LameCodec:
    """MP3 round trip through one ctypes binding of libmp3lame.

    Raises OSError on construction when the library cannot be loaded.
    """

    def __init__(self):
        self.lib = _bind(load_lame())
        version = self.lib.get_lame_version().decode("ascii", "replace")
        self.identity = f"libmp3lame-{version}"

    def __call__(self, buf: AudioBuffer, bitrate_kbps: int) -> AudioBuffer:
        pcm, _ = _quantize16(buf.samples)
        samples, rate = self.decode(
            self.encode(pcm, buf.sample_rate_hz, bitrate_kbps))
        return AudioBuffer(samples / 32768.0, rate)

    def encode(self, pcm_int16, rate: int, bitrate_kbps: int) -> bytes:
        """Mono 16-bit samples at rate Hz to a constant-bitrate MP3 stream."""
        pcm = np.ascontiguousarray(pcm_int16, dtype=np.int16)
        lib = self.lib
        gfp = lib.lame_init()
        if not gfp:
            raise BackendInvocationFailed("lame_init failed")
        try:
            lib.lame_set_in_samplerate(gfp, int(rate))
            lib.lame_set_num_channels(gfp, 1)
            lib.lame_set_brate(gfp, int(bitrate_kbps))
            lib.lame_set_mode(gfp, 3)          # mono
            lib.lame_set_quality(gfp, 2)
            lib.lame_set_bWriteVbrTag(gfp, 0)
            if lib.lame_init_params(gfp) < 0:
                raise BackendInvocationFailed(
                    f"LAME rejected {bitrate_kbps} kbit/s at {rate} Hz")
            n = len(pcm)
            out_size = n + n // 2 + 7200
            out = (ctypes.c_ubyte * out_size)()
            left = pcm.ctypes.data_as(ctypes.POINTER(ctypes.c_short))
            n1 = lib.lame_encode_buffer(gfp, left, left, n, out, out_size)
            if n1 < 0:
                raise BackendInvocationFailed(
                    f"lame_encode_buffer failed with {n1}")
            tail = (ctypes.c_ubyte * 7200)()
            n2 = lib.lame_encode_flush(gfp, tail, 7200)
            if n2 < 0:
                raise BackendInvocationFailed(
                    f"lame_encode_flush failed with {n2}")
            return bytes(out[:n1]) + bytes(tail[:n2])
        finally:
            lib.lame_close(gfp)

    def decode(self, blob: bytes):
        """MP3 stream to (int16 samples, sample rate)."""
        lib = self.lib
        hip = lib.hip_decode_init()
        if not hip:
            raise BackendInvocationFailed("hip_decode_init failed")
        info = Mp3Data()
        cap = 1152 * 64
        pcm_l = (ctypes.c_short * cap)()
        pcm_r = (ctypes.c_short * cap)()
        empty = (ctypes.c_ubyte * 1)()
        chunks = []

        def drain(got):
            # one frame comes out per call; pull until the decoder runs dry
            while got > 0:
                chunks.append(np.frombuffer(pcm_l, dtype=np.int16,
                                            count=got).copy())
                got = lib.hip_decode1_headers(hip, empty, 0, pcm_l, pcm_r,
                                              info)
            if got < 0:
                raise BackendInvocationFailed(
                    "MP3 bitstream could not be decoded")

        try:
            # feed small pieces so the decoder's internal input buffer never
            # overflows, draining completely between feeds
            step = 512
            for pos in range(0, len(blob), step):
                piece = blob[pos:pos + step]
                buf = (ctypes.c_ubyte * len(piece)).from_buffer_copy(piece)
                got = lib.hip_decode1_headers(hip, buf, len(piece),
                                              pcm_l, pcm_r, info)
                drain(got)
            drain(lib.hip_decode1_headers(hip, empty, 0, pcm_l, pcm_r, info))
        finally:
            lib.hip_decode_exit(hip)

        if not info.header_parsed:
            raise BackendInvocationFailed("no MP3 frame header found")
        samples = (np.concatenate(chunks) if chunks
                   else np.empty(0, dtype=np.int16))
        return samples, int(info.samplerate)


def default_backend() -> LameCodec:
    """The in-process LAME codec; OSError when libmp3lame is absent."""
    return LameCodec()
