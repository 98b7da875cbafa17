"""Laundering transforms: reverberation, noise mixing, filtering, resampling,
and the attack dispatcher."""

import numpy as np
import pytest
from scipy import signal as sps

from launderbench import dsp
from launderbench.audio import AudioBuffer, rms_power, write_audio
from launderbench.dsp import (AttackSpec, FilterCoefficients, NoiseLibrary,
                              apply_attack, apply_filter, apply_reverberation,
                              design_butterworth_lowpass, generate_white_noise,
                              launder_resample, mix_noise, resample,
                              synthesize_rir)
from launderbench.errors import (InvalidParameter, NoiseAssetMissing,
                                 RateMismatch, SilentInput, UnstableFilter)


def sine(freq, seconds=1.0, rate=16000, amp=0.5):
    t = np.arange(int(seconds * rate)) / rate
    return AudioBuffer(amp * np.sin(2 * np.pi * freq * t), rate)


def snr_db(reference, estimate):
    err = estimate - reference
    return 10 * np.log10(np.mean(reference ** 2) / np.mean(err ** 2))


class TestAttackSpec:
    def test_valid_grid_members(self):
        AttackSpec("reverberation", rt60_s=0.3)
        AttackSpec("additive_noise", noise_name="babble", snr_db=10)
        AttackSpec("recompression", bitrate_kbps=64)
        AttackSpec("resampling", target_rate_hz=11025)
        AttackSpec("lowpass", cutoff_hz=8000, order=5)

    def test_unknown_kind(self):
        with pytest.raises(InvalidParameter):
            AttackSpec("time_stretch")

    def test_missing_required_field(self):
        with pytest.raises(InvalidParameter):
            AttackSpec("reverberation")
        with pytest.raises(InvalidParameter):
            AttackSpec("additive_noise", noise_name="babble")

    def test_foreign_field_rejected(self):
        with pytest.raises(InvalidParameter):
            AttackSpec("reverberation", rt60_s=0.3, snr_db=0)
        with pytest.raises(InvalidParameter):
            AttackSpec("lowpass", cutoff_hz=8000, order=5, bitrate_kbps=64)

    def test_off_grid_values_rejected(self):
        with pytest.raises(InvalidParameter):
            AttackSpec("reverberation", rt60_s=0.45)
        with pytest.raises(InvalidParameter):
            AttackSpec("additive_noise", noise_name="rain", snr_db=0)
        with pytest.raises(InvalidParameter):
            AttackSpec("additive_noise", noise_name="white", snr_db=5)
        with pytest.raises(InvalidParameter):
            AttackSpec("recompression", bitrate_kbps=96)
        with pytest.raises(InvalidParameter):
            AttackSpec("resampling", target_rate_hz=48000)
        with pytest.raises(InvalidParameter):
            AttackSpec("lowpass", cutoff_hz=4000, order=5)
        with pytest.raises(InvalidParameter):
            AttackSpec("lowpass", cutoff_hz=8000, order=4)

    def test_hashable_and_distinct(self):
        grid = [AttackSpec("reverberation", rt60_s=r)
                for r in dsp.RT60_CHOICES]
        grid += [AttackSpec("recompression", bitrate_kbps=b)
                 for b in dsp.BITRATE_CHOICES]
        assert len(set(grid)) == len(grid)


GRID_PARAMS = [(kind, param) for kind, grid in dsp.ATTACK_GRID.items()
               for param in grid]


def grid_point(kind):
    """The first allowed value of every parameter of kind."""
    return {param: values[0]
            for param, values in dsp.ATTACK_GRID[kind].items()}


@pytest.mark.parametrize("kind,param", GRID_PARAMS)
class TestAttackGridRules:
    def test_missing_value(self, kind, param):
        kwargs = grid_point(kind)
        del kwargs[param]
        with pytest.raises(InvalidParameter, match=f"requires {param}"):
            AttackSpec(kind, **kwargs)

    def test_off_grid_value(self, kind, param):
        values = dsp.ATTACK_GRID[kind][param]
        off = "rain" if isinstance(values[0], str) else max(values) + 1
        with pytest.raises(InvalidParameter, match=f"{param} must be one of"):
            AttackSpec(kind, **{**grid_point(kind), param: off})

    def test_foreign_to_other_kinds(self, kind, param):
        value = dsp.ATTACK_GRID[kind][param][0]
        others = [k for k, grid in dsp.ATTACK_GRID.items() if param not in grid]
        assert others
        for other in others:
            with pytest.raises(InvalidParameter,
                               match=f"{param} does not apply to {other}"):
                AttackSpec(other, **{**grid_point(other), param: value})


class TestRir:
    def test_length_and_direct_path(self):
        h = synthesize_rir(0.6, 16000, 1)
        assert len(h) == 14400
        assert h.samples[0] == 1.0
        assert h.sample_rate_hz == 16000

    def test_matches_definition(self):
        # independent reconstruction of the documented model
        h = synthesize_rir(0.3, 8000, 77)
        n = int(np.ceil(1.5 * 0.3 * 8000))
        t = np.arange(n) / 8000
        env = np.exp(-t * (3 * np.log(10)) / 0.3)
        expected = np.random.Generator(np.random.PCG64(77)).standard_normal(n)
        expected *= env
        expected[0] = 1.0
        assert np.array_equal(h.samples, expected)

    def test_envelope_hits_minus_60_db_at_rt60(self):
        for rt60 in dsp.RT60_CHOICES:
            t = rt60
            env = np.exp(-t * 3 * np.log(10) / rt60)
            assert env == pytest.approx(1e-3, rel=1e-12)

    def test_deterministic(self):
        a = synthesize_rir(0.9, 16000, 123)
        b = synthesize_rir(0.9, 16000, 123)
        assert np.array_equal(a.samples, b.samples)
        c = synthesize_rir(0.9, 16000, 124)
        assert not np.array_equal(a.samples, c.samples)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameter):
            synthesize_rir(0.0, 16000, 1)
        with pytest.raises(InvalidParameter):
            synthesize_rir(0.6, 0, 1)


class TestReverberation:
    def test_impulse_recovers_rir_up_to_peak_rule(self):
        n = 4000
        x = np.zeros(n)
        x[0] = 1.0
        y = apply_reverberation(AudioBuffer(x, 16000), 0.3, 5)
        rir = synthesize_rir(0.3, 16000, 5).samples[:n]
        peak = np.max(np.abs(rir))
        expected = rir * (1.0 / peak) if peak > 1.0 else rir
        assert np.allclose(y.samples, expected, atol=1e-12)

    def test_zeros_in_zeros_out(self):
        y = apply_reverberation(AudioBuffer(np.zeros(1000), 16000), 0.6, 9)
        assert np.array_equal(y.samples, np.zeros(1000))

    def test_length_preserved(self):
        x = sine(300, seconds=0.7)
        y = apply_reverberation(x, 0.9, 2)
        assert len(y) == len(x)
        assert y.sample_rate_hz == x.sample_rate_hz

    def test_deterministic(self):
        x = sine(500)
        a = apply_reverberation(x, 0.6, 42)
        b = apply_reverberation(x, 0.6, 42)
        assert np.array_equal(a.samples, b.samples)

    def test_peak_never_exceeds_input_peak(self):
        rng = np.random.default_rng(8)
        x = AudioBuffer(0.95 * np.tanh(rng.standard_normal(8000)), 16000)
        y = apply_reverberation(x, 0.9, 3)
        assert np.max(np.abs(y.samples)) <= np.max(np.abs(x.samples)) + 1e-12

    @pytest.mark.parametrize("rt60", dsp.RT60_CHOICES)
    def test_schroeder_decay_on_output(self, rt60):
        # white burst followed by silence; the tail must decay at the RT60 rate
        rate = 16000
        burst = int(1.0 * rate)
        tail = int(1.4 * rt60 * rate)
        rng = np.random.default_rng(31)
        x = np.zeros(burst + tail)
        x[:burst] = 0.1 * rng.standard_normal(burst)
        y = apply_reverberation(AudioBuffer(x, rate), rt60, 11).samples
        decay = y[burst:]
        edc = np.cumsum(decay[::-1] ** 2)[::-1]
        edc_db = 10 * np.log10(edc / edc[0])
        t60 = np.argmax(edc_db <= -60.0) / rate
        assert t60 == pytest.approx(rt60, rel=0.2)

    def test_scale_covariance(self):
        x = sine(700, amp=0.01)
        g = 0.125
        a = apply_reverberation(AudioBuffer(g * x.samples, 16000), 0.6, 17)
        b = apply_reverberation(x, 0.6, 17)
        assert np.allclose(a.samples, g * b.samples, rtol=1e-9, atol=1e-15)


class TestWhiteNoise:
    def test_deterministic(self):
        assert np.array_equal(generate_white_noise(16000, 4),
                              generate_white_noise(16000, 4))

    def test_moments(self):
        w = generate_white_noise(16000, 9)
        assert abs(w.mean()) <= 4 / np.sqrt(16000)
        assert w.var() == pytest.approx(1.0, rel=0.1)

    def test_invalid_count(self):
        with pytest.raises(InvalidParameter):
            generate_white_noise(0, 1)


class TestMixNoise:
    def test_exact_snr_across_grid(self):
        rng = np.random.default_rng(2)
        x = AudioBuffer(0.1 * rng.standard_normal(16000), 16000)
        noise = AudioBuffer(0.7 * rng.standard_normal(9000), 16000)
        for snr in dsp.SNR_DB_CHOICES:
            y = mix_noise(x, noise, snr, 55)
            added = y.samples - x.samples
            got = 10 * np.log10(rms_power(x) / np.mean(added ** 2))
            assert got == pytest.approx(snr, abs=1e-6)

    def test_equal_power_gains(self):
        x = AudioBuffer(np.full(256, 0.5), 16000)
        noise = AudioBuffer(np.full(256, 0.5), 16000)
        y0 = mix_noise(x, noise, 0, 1)
        assert np.allclose(y0.samples - x.samples, 0.5)
        y20 = mix_noise(x, noise, 20, 1)
        assert np.allclose(y20.samples - x.samples, 0.05, rtol=1e-12)

    def test_short_noise_wraps(self):
        x = AudioBuffer(0.2 * np.ones(1000), 16000)
        noise = AudioBuffer(np.r_[np.ones(50), -np.ones(50)], 16000)
        y = mix_noise(x, noise, 0, 7)
        assert len(y) == 1000

    def test_deterministic_offset(self):
        rng = np.random.default_rng(6)
        x = AudioBuffer(0.1 * rng.standard_normal(4000), 16000)
        noise = AudioBuffer(rng.standard_normal(10000), 16000)
        a = mix_noise(x, noise, 10, 99)
        b = mix_noise(x, noise, 10, 99)
        c = mix_noise(x, noise, 10, 100)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_silent_signal(self):
        noise = AudioBuffer(np.ones(100), 16000)
        with pytest.raises(SilentInput):
            mix_noise(AudioBuffer(np.zeros(100), 16000), noise, 0, 1)

    def test_silent_noise(self):
        x = AudioBuffer(np.ones(100), 16000)
        with pytest.raises(SilentInput):
            mix_noise(x, AudioBuffer(np.zeros(100), 16000), 0, 1)
        with pytest.raises(SilentInput):
            mix_noise(x, AudioBuffer(np.zeros(0), 16000), 0, 1)

    def test_rate_mismatch(self):
        x = AudioBuffer(np.ones(100), 16000)
        with pytest.raises(RateMismatch):
            mix_noise(x, AudioBuffer(np.ones(100), 8000), 0, 1)


class TestButterworth:
    @pytest.mark.parametrize("order", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("fc,fs", [(4000, 16000), (1000, 8000),
                                       (300, 44100)])
    def test_matches_reference_design(self, order, fc, fs):
        mine = design_butterworth_lowpass(order, fc, fs)
        sos = np.array([[b0, b1, b2, 1, a1, a2]
                        for b0, b1, b2, a1, a2 in mine.sections])
        ref = sps.butter(order, fc / (fs / 2), "low", output="sos")
        w = np.linspace(0, np.pi * 0.999, 513)
        _, h_mine = sps.sosfreqz(sos, worN=w)
        _, h_ref = sps.sosfreqz(ref, worN=w)
        assert np.max(np.abs(np.abs(h_mine) - np.abs(h_ref))) < 1e-6

    def test_dc_and_cutoff_gains(self):
        c = design_butterworth_lowpass(5, 4000, 16000)
        sos = np.array([[b0, b1, b2, 1, a1, a2]
                        for b0, b1, b2, a1, a2 in c.sections])
        _, h = sps.sosfreqz(sos, worN=[1e-9, 2 * np.pi * 4000 / 16000])
        assert abs(h[0]) == pytest.approx(1.0, abs=1e-9)
        assert abs(h[1]) == pytest.approx(2 ** -0.5, abs=1e-6)

    def test_section_count(self):
        assert len(design_butterworth_lowpass(5, 100, 16000).sections) == 3
        assert len(design_butterworth_lowpass(4, 100, 16000).sections) == 2
        assert len(design_butterworth_lowpass(1, 100, 16000).sections) == 1

    def test_nyquist_cutoff_clamped_with_warning(self):
        with pytest.warns(UserWarning, match="clamp"):
            c = design_butterworth_lowpass(5, 8000, 16000)
        assert c.is_stable()
        # effective cutoff 7920 Hz: -3 dB there
        sos = np.array([[b0, b1, b2, 1, a1, a2]
                        for b0, b1, b2, a1, a2 in c.sections])
        _, h = sps.sosfreqz(sos, worN=[2 * np.pi * 7920 / 16000])
        assert abs(h[0]) == pytest.approx(2 ** -0.5, abs=1e-6)

    def test_stability_across_grid(self):
        for order in range(1, 11):
            for fc in (50, 1000, 7000, 7920):
                assert design_butterworth_lowpass(order, fc, 16000).is_stable()

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameter):
            design_butterworth_lowpass(0, 1000, 16000)
        with pytest.raises(InvalidParameter):
            design_butterworth_lowpass(5, -1, 16000)
        with pytest.raises(InvalidParameter):
            design_butterworth_lowpass(5, 1000, 0)


class TestApplyFilter:
    def test_zeros(self):
        c = design_butterworth_lowpass(5, 4000, 16000)
        y = apply_filter(AudioBuffer(np.zeros(500), 16000), c)
        assert np.array_equal(y.samples, np.zeros(500))

    def test_dc_steady_state(self):
        c = design_butterworth_lowpass(5, 2000, 16000)
        y = apply_filter(AudioBuffer(np.full(16000, 0.5), 16000), c)
        assert y.samples[-1] == pytest.approx(0.5, abs=1e-6)

    def test_stopband_attenuation(self):
        # 0.95*Nyquist tone through an order-5 lowpass at 0.25*Nyquist
        x = sine(7600, seconds=1.0)
        c = design_butterworth_lowpass(5, 2000, 16000)
        y = apply_filter(x, c)
        atten = 10 * np.log10(rms_power(x) / rms_power(y))
        assert atten >= 60.0

    def test_length_and_rate(self):
        x = sine(440, seconds=0.321)
        y = apply_filter(x, design_butterworth_lowpass(3, 1000, 16000))
        assert len(y) == len(x)
        assert y.sample_rate_hz == 16000

    def test_unstable_rejected(self):
        c = FilterCoefficients(((1.0, 0.0, 0.0, -2.0, 1.5),))
        with pytest.raises(UnstableFilter):
            apply_filter(AudioBuffer(np.zeros(10), 16000), c)


class TestResample:
    def test_identity(self):
        x = sine(440)
        y = resample(x, 16000)
        assert y.sample_rate_hz == 16000
        assert np.array_equal(y.samples, x.samples)

    def test_length_contract(self):
        x = AudioBuffer(np.zeros(16000), 16000)
        assert len(resample(x, 8000)) == 8000
        assert len(resample(x, 44100)) == 44100
        assert len(resample(x, 11025)) == 11025
        odd = AudioBuffer(np.zeros(12345), 16000)
        assert len(resample(odd, 11025)) == round(12345 * 11025 / 16000)

    def test_sine_fidelity_upward(self):
        x = sine(1000, seconds=1.0)
        y = resample(x, 44100)
        t = np.arange(44100) / 44100
        ideal = 0.5 * np.sin(2 * np.pi * 1000 * t)
        assert snr_db(ideal, y.samples) >= 40.0

    def test_empty(self):
        y = resample(AudioBuffer(np.zeros(0), 16000), 8000)
        assert len(y) == 0 and y.sample_rate_hz == 8000

    def test_invalid_rate(self):
        with pytest.raises(InvalidParameter):
            resample(sine(440), 0)


class TestLaunderResample:
    @pytest.mark.parametrize("target", dsp.TARGET_RATE_CHOICES)
    def test_rate_and_length_restored(self, target):
        x = sine(440, seconds=0.777)
        y = launder_resample(x, target)
        assert y.sample_rate_hz == 16000
        assert len(y) == len(x)

    def test_round_trip_fidelity(self):
        x = sine(1000, seconds=1.0)
        assert snr_db(x.samples, launder_resample(x, 44100).samples) >= 40.0

    def test_band_limitation_through_8k(self):
        x = sine(5000, seconds=1.0)  # above the 4 kHz intermediate Nyquist
        y = launder_resample(x, 8000)
        assert np.sqrt(rms_power(y) / rms_power(x)) <= 0.01

    def test_identity_target(self):
        x = sine(440)
        y = launder_resample(x, 16000)
        assert np.array_equal(y.samples, x.samples)


class TestNoiseLibrary:
    def make_assets(self, tmp_path, rate=16000):
        rng = np.random.default_rng(12)
        for name in dsp.LOADABLE_NOISES:
            buf = AudioBuffer(0.3 * rng.standard_normal(rate // 2), rate)
            write_audio(buf, tmp_path / f"{name}.wav", "wav16")

    def test_load_and_cache(self, tmp_path):
        self.make_assets(tmp_path)
        lib = NoiseLibrary(tmp_path)
        a = lib.get("babble")
        assert a.sample_rate_hz == 16000
        assert lib.get("babble") is a

    def test_resampled_on_load(self, tmp_path):
        self.make_assets(tmp_path, rate=8000)
        lib = NoiseLibrary(tmp_path)
        assert lib.get("volvo").sample_rate_hz == 16000

    def test_missing_asset_named(self, tmp_path):
        lib = NoiseLibrary(tmp_path)
        with pytest.raises(NoiseAssetMissing, match="cafe"):
            lib.get("cafe")

    def test_white_is_not_loadable(self, tmp_path):
        with pytest.raises(InvalidParameter):
            NoiseLibrary(tmp_path).get("white")

    def test_unknown_name(self, tmp_path):
        with pytest.raises(InvalidParameter):
            NoiseLibrary(tmp_path).get("rain")

    def test_empty_asset(self, tmp_path):
        write_audio(AudioBuffer(np.zeros(0), 16000),
                    tmp_path / "street.wav", "wav16")
        with pytest.raises(SilentInput):
            NoiseLibrary(tmp_path).get("street")


class TestApplyAttack:
    def test_white_noise_at_0db_doubles_power(self):
        rng = np.random.default_rng(3)
        x = AudioBuffer(0.1 * rng.standard_normal(16000), 16000)
        spec = AttackSpec("additive_noise", noise_name="white", snr_db=0)
        y = apply_attack(x, spec, 41)
        assert rms_power(y) / rms_power(x) == pytest.approx(2.0, rel=0.05)

    def test_loaded_noise_needs_library(self):
        spec = AttackSpec("additive_noise", noise_name="babble", snr_db=10)
        with pytest.raises(InvalidParameter):
            apply_attack(sine(440), spec, 1)

    def test_recompression_needs_backend(self):
        spec = AttackSpec("recompression", bitrate_kbps=64)
        with pytest.raises(InvalidParameter):
            apply_attack(sine(440), spec, 1)

    def test_lowpass_dispatch_clamps(self):
        spec = AttackSpec("lowpass", cutoff_hz=8000, order=5)
        with pytest.warns(UserWarning, match="clamp"):
            y = apply_attack(sine(440), spec, 1)
        assert len(y) == 16000

    def test_resampling_dispatch(self):
        spec = AttackSpec("resampling", target_rate_hz=8000)
        y = apply_attack(sine(440), spec, 1)
        assert len(y) == 16000 and y.sample_rate_hz == 16000

    def test_reverberation_deterministic_through_dispatch(self):
        spec = AttackSpec("reverberation", rt60_s=0.6)
        x = sine(250)
        a = apply_attack(x, spec, 123)
        b = apply_attack(x, spec, 123)
        assert np.array_equal(a.samples, b.samples)

    def test_every_attack_preserves_length_and_rate(self, tmp_path):
        rng = np.random.default_rng(14)
        x = AudioBuffer(0.2 * rng.standard_normal(8000), 16000)
        specs = [AttackSpec("reverberation", rt60_s=0.3),
                 AttackSpec("additive_noise", noise_name="white", snr_db=20),
                 AttackSpec("resampling", target_rate_hz=44100)]
        for spec in specs:
            y = apply_attack(x, spec, 8)
            assert len(y) == len(x)
            assert y.sample_rate_hz == x.sample_rate_hz
