"""Decode command for the codec tests: copies the 16-bit mono WAV named
by argv[1] to argv[2], keeping every other sample at half the rate, as a
decoder that returns another sample rate does.  Standard library only,
so that it starts fast."""

import sys
import wave

with wave.open(sys.argv[1], "rb") as src:
    rate = src.getframerate()
    pcm = memoryview(src.readframes(src.getnframes())).cast("h")
with wave.open(sys.argv[2], "wb") as dst:
    dst.setnchannels(1)
    dst.setsampwidth(2)
    dst.setframerate(rate // 2)
    dst.writeframes(pcm[::2].tobytes())
