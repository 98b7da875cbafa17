"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line on the real stderr (capture
temporarily disabled) so a full-suite run shows the criterion verdicts
inline.
"""

import math
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from launderbench.audio import AudioBuffer, read_audio, write_audio
from launderbench.cli import main
from launderbench.dsp import (design_butterworth_lowpass, mix_noise, resample,
                              synthesize_rir)
from launderbench.metrics import (MetricConfig, ScoreSet, act_dcf, cllr, eer,
                                  gaussian_scores, min_dcf)
from launderbench.pipeline import plan_attacks, select_subset
from launderbench.protocol import (TrialRecord, decode_ids, emit_manifest,
                                   parse_manifest, parse_scores)
from launderbench.reporting import (BreakdownTable, CellMetrics, GroupKey,
                                    rank_worst)


def manifest_records(text):
    return list(parse_manifest(text.encode())[0])


@contextmanager
def criterion(capsys, name):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"FAIL {name}", file=sys.stderr)
        raise
    else:
        with capsys.disabled():
            print(f"PASS {name}", file=sys.stderr)


# ---------------------------------------------------------------- oracle

def oracle_sweep(bon, spf):
    """All-thresholds error counts, plain Python."""
    pooled = sorted(set(bon) | set(spf))
    taus = [float("-inf")]
    taus += [(lo + hi) / 2.0 for lo, hi in zip(pooled, pooled[1:])]
    taus.append(float("inf"))
    return [(t, sum(1 for b in bon if b < t), sum(1 for s in spf if s >= t))
            for t in taus]


def oracle_eer(bon, spf):
    nb, ns = len(bon), len(spf)
    best_gap, best = None, None
    for _, nm, nf in oracle_sweep(bon, spf):
        gap = abs(nm * ns - nf * nb)
        if best_gap is None or gap < best_gap:
            best_gap, best = gap, (nm, nf)
    return 100.0 * (best[0] / nb + best[1] / ns) / 2.0


def oracle_min_dcf(bon, spf, cfg):
    w_miss = cfg.c_miss * (1.0 - cfg.pi_spoof)
    w_fa = cfg.c_fa * cfg.pi_spoof
    nb, ns = len(bon), len(spf)
    costs = [w_miss * (nm / nb) + w_fa * (nf / ns)
             for _, nm, nf in oracle_sweep(bon, spf)]
    return min(costs) / min(w_miss, w_fa)


def oracle_act_dcf(bon, spf, cfg):
    w_miss = cfg.c_miss * (1.0 - cfg.pi_spoof)
    w_fa = cfg.c_fa * cfg.pi_spoof
    tau = math.log((cfg.c_fa * cfg.pi_spoof)
                   / (cfg.c_miss * (1.0 - cfg.pi_spoof)))
    nm = sum(1 for b in bon if b < tau)
    nf = sum(1 for s in spf if s >= tau)
    cost = w_miss * (nm / len(bon)) + w_fa * (nf / len(spf))
    return cost / min(w_miss, w_fa)


def random_score_pairs(count, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    pool = np.round(rng.normal(0.0, 2.0, size=12), 1)
    for _ in range(count):
        nb = int(rng.integers(1, 51))
        ns = int(rng.integers(1, 51))
        yield (list(rng.choice(pool, size=nb)),
               list(rng.choice(pool, size=ns)))


def test_metric_oracle_equivalence(capsys):
    with criterion(capsys, "metric oracle equivalence (1000 random sets, exact)"):
        cfg = MetricConfig()
        start = time.monotonic()
        for bon, spf in random_score_pairs(1000, seed=20240817):
            s = ScoreSet(bon, spf)
            assert eer(s) == oracle_eer(bon, spf)
            assert min_dcf(s, cfg) == oracle_min_dcf(bon, spf, cfg)
            assert act_dcf(s, cfg) == oracle_act_dcf(bon, spf, cfg)
        assert time.monotonic() - start < 10.0


def test_analytic_calibration(capsys):
    with criterion(capsys, "analytic calibration (gaussian EER, Cllr unit, "
                   "act >= min)"):
        s = gaussian_scores(100_000, 100_000, 1.0, -1.0, 1.0, seed=7)
        assert abs(eer(s) - 15.866) < 0.5
        for nb, ns in ((1, 1), (25, 13), (1000, 999)):
            assert cllr(ScoreSet(np.zeros(nb), np.zeros(ns))) == 1.0
        cfg = MetricConfig()
        for bon, spf in random_score_pairs(300, seed=5150):
            ss = ScoreSet(bon, spf)
            assert act_dcf(ss, cfg) >= min_dcf(ss, cfg)


def test_hand_computed_dcf_fixture(capsys):
    with criterion(capsys, "hand-computed DCF fixture (0.5 / 1.0 / 41.667)"):
        bon, spf = [1.0, 2.0, 4.0], [0.0, 3.0]
        s = ScoreSet(bon, spf)
        cfg = MetricConfig(c_miss=1.0, c_fa=10.0, pi_spoof=0.05)
        assert min_dcf(s, cfg) == 0.5 == oracle_min_dcf(bon, spf, cfg)
        assert act_dcf(s, cfg) == 1.0 == oracle_act_dcf(bon, spf, cfg)
        expected = 100.0 * (1 / 3 + 1 / 2) / 2.0
        assert eer(s) == expected == oracle_eer(bon, spf)
        assert round(eer(s), 3) == 41.667


ATTACK_MIN_DCF = {
    "A17": 0.428, "A18": 0.865, "A19": 1.0, "A20": 0.994, "A21": 0.346,
    "A22": 0.357, "A23": 0.481, "A24": 0.268, "A25": 0.711, "A26": 0.857,
    "A27": 0.667, "A28": 0.626, "A29": 0.173, "A30": 1.0, "A31": 0.547,
    "A32": 0.766,
}
CODEC_MIN_DCF = {
    "C00": 0.383, "C01": 0.536, "C02": 0.535, "C03": 0.533, "C04": 0.627,
    "C05": 0.402, "C06": 0.573, "C07": 0.637, "C08": 0.705, "C09": 0.693,
    "C10": 0.711, "C11": 0.550,
}


def table_from_column(values, axis):
    cells = {}
    for name, v in values.items():
        key = (GroupKey(name, "*") if axis == "attack"
               else GroupKey("*", name))
        cells[key] = CellMetrics(v, 0.0, 0.0, 0.0, 1, 1)
    cells[GroupKey("*", "*")] = CellMetrics(0.5, 0.0, 0.0, 0.0, 1, 1)
    return BreakdownTable(cells=cells, config=MetricConfig())


def test_breakdown_ranking_fixture(capsys):
    with criterion(capsys, "reference minDCF columns rank as expected "
                           "(top 5)"):
        worst = rank_worst(table_from_column(ATTACK_MIN_DCF, "attack"),
                           "min_dcf", 5, axis="attack")
        assert [key.attack_id for key in worst] == [
            "A19", "A30", "A20", "A18", "A26"]
        worst = rank_worst(table_from_column(CODEC_MIN_DCF, "codec"),
                           "min_dcf", 5, axis="codec")
        assert [key.codec_id for key in worst] == [
            "C10", "C08", "C09", "C07", "C04"]


def test_pipeline_arithmetic(capsys):
    with criterion(capsys, "pipeline arithmetic (182,357 -> 18,235 -> 164,115)"):
        start = time.monotonic()
        trials = []
        for i in range(182_357):
            label = "bonafide" if i % 4 == 0 else "spoof"
            trials.append(TrialRecord(
                f"utt{i:06d}", label,
                "-" if label == "bonafide" else "A17",
                "C00", f"utt{i:06d}.flac"))
        # the ids are made in id order, so row order is id order
        rows = select_subset(range(len(trials)), 0.1, seed=11)
        selected = [trials[r] for r in rows]
        assert len(selected) == 18_235
        jobs = plan_attacks(selected, seed=11)
        assert len(jobs) == 164_115
        first = selected[0].utterance_id
        families = Counter(j.spec.kind for j in jobs
                           if j.source.utterance_id == first)
        assert families == {"reverberation": 1, "additive_noise": 5,
                            "recompression": 1, "resampling": 1,
                            "lowpass": 1}
        assert time.monotonic() - start < 30.0


COPY_BODY = "import shutil, sys\nshutil.copy(sys.argv[1], sys.argv[2])\n"


def write_corpus(root, n_files):
    audio_root = root / "audio"
    audio_root.mkdir()
    lines = []
    for i in range(n_files):
        utt = f"u{i:04d}"
        label = "bonafide" if i % 2 == 0 else "spoof"
        attack = "-" if label == "bonafide" else f"A{17 + i % 4}"
        lines.append(f"{utt} {label} {attack} C{i % 3:02d} {utt}.flac")
        x = 0.3 * np.sin(2 * np.pi * (180.0 + 35.0 * i)
                         * np.arange(2400) / 16000.0)
        write_audio(AudioBuffer(x, 16000), audio_root / f"{utt}.flac")
    manifest = root / "train.manifest"
    manifest.write_text("".join(line + "\n" for line in lines))

    noise_dir = root / "noise"
    noise_dir.mkdir()
    rng = np.random.Generator(np.random.PCG64(5))
    for name in ("babble", "volvo", "cafe", "street"):
        write_audio(AudioBuffer(0.1 * rng.standard_normal(6000), 16000),
                    noise_dir / f"{name}.wav", format="wav16")

    stub = root / "copy.py"
    stub.write_text(COPY_BODY)
    return {
        "manifest": manifest,
        "audio_root": audio_root,
        "noise_dir": noise_dir,
        "encode_cmd": f"{sys.executable} {stub} {{in}} {{out}} "
                      f"{{bitrate_kbps}}",
        "decode_cmd": f"{sys.executable} {stub} {{in}} {{out}}",
    }


def launder_argv(corpus, out_dir, extra=()):
    return ["launder",
            "--manifest", str(corpus["manifest"]),
            "--audio-root", str(corpus["audio_root"]),
            "--noise-dir", str(corpus["noise_dir"]),
            "--out", str(out_dir),
            "--encode-cmd", corpus["encode_cmd"],
            "--decode-cmd", corpus["decode_cmd"],
            *extra]


def test_launder_determinism(tmp_path, capsys):
    with criterion(capsys, "laundering is byte-deterministic across reruns"):
        start = time.monotonic()
        corpus = write_corpus(tmp_path, n_files=20)
        outs = (tmp_path / "run1", tmp_path / "run2")
        for out in outs:
            assert main(launder_argv(corpus, out, ["--seed", "3"])) == 0
        first = (outs[0] / "augmented.manifest").read_bytes()
        second = (outs[1] / "augmented.manifest").read_bytes()
        assert first == second
        non_codec = sorted(
            p.relative_to(outs[0]) for p in outs[0].rglob("*.flac")
            if "_recompression_" not in p.name)
        assert len(non_codec) == 16
        for rel in non_codec:
            assert (outs[0] / rel).read_bytes() == \
                (outs[1] / rel).read_bytes()
        assert time.monotonic() - start < 60.0


def test_dsp_analytics(capsys):
    with criterion(capsys, "DSP analytics (filter response, SNR, RT60, "
                   "resampling)"):
        # Butterworth magnitude at DC and cutoff
        coeffs = design_butterworth_lowpass(5, 3000.0, 16000)

        def magnitude(freq_hz):
            z1 = np.exp(-2j * np.pi * freq_hz / 16000.0)
            h = 1.0
            for b0, b1, b2, a1, a2 in coeffs:
                h *= (b0 + b1 * z1 + b2 * z1 * z1) \
                    / (1.0 + a1 * z1 + a2 * z1 * z1)
            return abs(h)

        assert abs(magnitude(0.0) - 1.0) <= 1e-9
        assert abs(magnitude(3000.0) - 1.0 / math.sqrt(2.0)) <= 1e-6

        # additive noise hits the target SNR before any saturation
        x = AudioBuffer(0.3 * np.sin(2 * np.pi * 440.0 * np.arange(8000)
                                     / 16000.0), 16000)
        rng = np.random.Generator(np.random.PCG64(21))
        noise = AudioBuffer(0.05 * rng.standard_normal(16000), 16000)
        mixed = mix_noise(x, noise, 10.0, seed=4)
        added = mixed.samples - x.samples
        snr = 10.0 * math.log10(np.mean(x.samples ** 2)
                                / np.mean(added ** 2))
        assert abs(snr - 10.0) <= 1e-6

        # impulse response envelope reaches -60 dB at RT60
        rt60, fs = 0.3, 16000
        h = synthesize_rir(rt60, fs, seed=9)
        assert h.samples[0] == 1.0
        k = round(rt60 * fs)
        t = np.arange(len(h)) / fs
        envelope = np.exp(-t * (3.0 * math.log(10.0)) / rt60)
        assert abs(envelope[k] - 1e-3) <= 1e-12
        tail = np.random.Generator(np.random.PCG64(9)).standard_normal(
            len(h))
        assert h.samples[k] == tail[k] * envelope[k]

        # 16k -> 44.1k -> 16k round trip preserves a passband sine
        n = 16000
        sine = AudioBuffer(0.5 * np.sin(2 * np.pi * 1000.0 * np.arange(n)
                                        / 16000.0), 16000)
        back = resample(resample(sine, 44100), 16000)
        err = back.samples - sine.samples
        snr = 10.0 * math.log10(np.mean(sine.samples ** 2)
                                / np.mean(err ** 2))
        assert snr >= 40.0

        # 16k -> 8k -> 16k kills a 5 kHz sine
        hi = AudioBuffer(0.5 * np.sin(2 * np.pi * 5000.0 * np.arange(n)
                                      / 16000.0), 16000)
        thin = resample(resample(hi, 8000), 16000)
        attenuation = 10.0 * math.log10(np.mean(hi.samples ** 2)
                                        / np.mean(thin.samples ** 2))
        assert attenuation >= 40.0


_ID_ALPHA = "abcdefghijklmnopqrstuvwxyz0123456789_."


def test_format_round_trips(tmp_path, capsys):
    with criterion(capsys, "format round trips (manifest, scores, wav16)"):
        rng = np.random.Generator(np.random.PCG64(99))
        trials = []
        for i in range(1000):
            label = "bonafide" if rng.integers(2) else "spoof"
            attack = "-" if label == "bonafide" else \
                "".join(rng.choice(list(_ID_ALPHA), size=4))
            trials.append(TrialRecord(
                f"u{i:05d}" + "".join(rng.choice(list(_ID_ALPHA), size=3)),
                label, attack,
                "".join(rng.choice(list(_ID_ALPHA), size=3)),
                "".join(rng.choice(list(_ID_ALPHA + "/-"), size=12))))
        assert manifest_records(emit_manifest(trials)) == trials

        values = list(rng.standard_normal(995)) + [
            0.1, -1 / 3, 1e300, 5e-324, -0.0]
        values = np.array(values, dtype=np.float64)
        ids = [f"s{i:05d}" for i in range(len(values))]
        back = parse_scores("".join(
            f"{u} {v!r}\n" for u, v in zip(ids, values.tolist())).encode())
        assert decode_ids(back.ids) == ids
        assert np.array_equal(back.scores.view(np.int64),
                              values.view(np.int64))

        x = AudioBuffer(0.8 * rng.uniform(-1.0, 1.0, 3001), 16000)
        write_audio(x, tmp_path / "rt.wav", format="wav16")
        back = read_audio(tmp_path / "rt.wav")
        assert back.sample_rate_hz == 16000
        assert np.max(np.abs(back.samples - x.samples)) <= 2.0 ** -15


def test_end_to_end_smoke(tmp_path, capsys):
    with criterion(capsys, "end-to-end smoke (launder -> evaluate -> report)"):
        start = time.monotonic()
        corpus = write_corpus(tmp_path, n_files=30)
        out = tmp_path / "laundered"
        assert main(launder_argv(corpus, out)) == 0

        augmented = out / "augmented.manifest"
        records = manifest_records(augmented.read_text())
        assert len(records) == 57

        rng = np.random.Generator(np.random.PCG64(123))
        scores = tmp_path / "llr.scores"
        scores.write_text("".join(
            f"{t.utterance_id} {float(v)!r}\n"
            for t, v in zip(records, rng.standard_normal(len(records)))))

        capsys.readouterr()
        assert main(["evaluate", "--manifest", str(augmented),
                     "--scores", str(scores)]) == 0
        values = dict(line.split("=") for line in
                      capsys.readouterr().out.splitlines())
        assert 0.0 <= float(values["eer"]) <= 100.0
        assert float(values["min_dcf"]) <= float(values["act_dcf"])

        report_dir = tmp_path / "report"
        assert main(["report", "--manifest", str(augmented),
                     "--scores", str(scores),
                     "--out", str(report_dir)]) == 0
        pooled = (report_dir / "report_pooled.tsv").read_text().splitlines()
        assert len(pooled) == 2
        assert len(pooled[0].split("\t")) == len(pooled[1].split("\t"))
        grid = (report_dir
                / "report_grid_min_dcf.tsv").read_text().splitlines()
        width = len(grid[0].split("\t"))
        assert grid[0].split("\t")[0] == "attack"
        assert width >= 2 and len(grid) >= 2
        assert all(len(line.split("\t")) == width for line in grid)
        assert time.monotonic() - start < 120.0
