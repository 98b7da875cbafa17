"""Selection, planning, batch execution, and augmented-manifest emission."""

import hashlib
import math
import sys
from collections import Counter

import numpy as np
import pytest

from launderbench import flacio, pipeline
from launderbench.audio import AudioBuffer, CodecBackend, read_audio, write_audio
from launderbench.dsp import (BITRATE_CHOICES, NOISE_NAMES, RT60_CHOICES,
                              SNR_DB_CHOICES, TARGET_RATE_CHOICES, AttackSpec,
                              NoiseLibrary, apply_attack)
from launderbench.errors import (CorruptFile, EmptyInput, InvalidParameter,
                                 IoFailure, ZeroSelection)
from launderbench.pipeline import (attack_tag, emit_augmented_manifest,
                                   execute_plan, plan_attacks, select_subset)
from launderbench.protocol import TrialRecord, parse_manifest
from launderbench.rng import derive_seed

COPY_BODY = "import shutil, sys\nshutil.copy(sys.argv[1], sys.argv[2])\n"


def fake_codec(buf, bitrate_kbps):
    """Deterministic in-process stand-in for a lossy codec: one sample of
    delay and amplitude steps of 1/bitrate."""
    y = np.round(buf.samples * bitrate_kbps) / bitrate_kbps
    return AudioBuffer(np.concatenate(([0.0], y)), buf.sample_rate_hz)


fake_codec.identity = "fake"


def make_trials(n, prefix="u"):
    out = []
    for i in range(n):
        label = "bonafide" if i % 3 == 0 else "spoof"
        attack = "-" if label == "bonafide" else f"A{i % 5:02d}"
        out.append(TrialRecord(f"{prefix}{i:05d}", label, attack, "C00",
                               f"{prefix}{i:05d}.flac"))
    return out


def grid_specs():
    specs = [AttackSpec(kind="reverberation", rt60_s=r) for r in RT60_CHOICES]
    specs += [AttackSpec(kind="additive_noise", noise_name=n, snr_db=s)
              for n in NOISE_NAMES for s in SNR_DB_CHOICES]
    specs += [AttackSpec(kind="recompression", bitrate_kbps=b)
              for b in BITRATE_CHOICES]
    specs += [AttackSpec(kind="resampling", target_rate_hz=r)
              for r in TARGET_RATE_CHOICES]
    specs.append(AttackSpec(kind="lowpass", cutoff_hz=8000, order=5))
    return specs


class TestAttackTag:
    @pytest.mark.parametrize("spec,tag", [
        (AttackSpec(kind="reverberation", rt60_s=0.3), "reverberation_0.3"),
        (AttackSpec(kind="reverberation", rt60_s=0.9), "reverberation_0.9"),
        (AttackSpec(kind="additive_noise", noise_name="white", snr_db=20),
         "white_20"),
        (AttackSpec(kind="additive_noise", noise_name="babble", snr_db=0),
         "babble_0"),
        (AttackSpec(kind="recompression", bitrate_kbps=64),
         "recompression_64"),
        (AttackSpec(kind="resampling", target_rate_hz=11025),
         "resampling_11025"),
        (AttackSpec(kind="lowpass", cutoff_hz=8000, order=5),
         "lowpass_8000_5"),
    ])
    def test_grammar(self, spec, tag):
        assert attack_tag(spec) == tag

    def test_injective_over_grid(self):
        specs = grid_specs()
        assert len(specs) == 29
        tags = [attack_tag(s) for s in specs]
        assert len(set(tags)) == len(tags)

    def test_tags_are_filename_safe(self):
        for tag in map(attack_tag, grid_specs()):
            assert all(c.isalnum() or c in "._" for c in tag)


class TestSelectSubset:
    def test_floor_count(self):
        assert len(select_subset(make_trials(120), 0.1, seed=1)) == 12
        assert len(select_subset(make_trials(37), 0.1, seed=1)) == 3

    def test_decimal_fraction_is_exact(self):
        # binary 0.7*10 = 6.999...; the decimal reading must keep 7
        assert len(select_subset(make_trials(10), 0.7, seed=0)) == 7

    def test_full_fraction(self):
        trials = make_trials(9)
        assert select_subset(trials, 1.0, seed=5) == sorted(
            trials, key=lambda t: t.utterance_id)

    def test_deterministic(self):
        trials = make_trials(200)
        a = select_subset(trials, 0.1, seed=77)
        b = select_subset(trials, 0.1, seed=77)
        assert a == b

    def test_seed_changes_selection(self):
        trials = make_trials(200)
        a = select_subset(trials, 0.1, seed=1)
        b = select_subset(trials, 0.1, seed=2)
        assert a != b

    def test_independent_of_input_order(self):
        trials = make_trials(150)
        rng = np.random.Generator(np.random.PCG64(3))
        shuffled = [trials[i] for i in rng.permutation(len(trials))]
        assert select_subset(trials, 0.2, seed=9) == select_subset(
            shuffled, 0.2, seed=9)

    def test_output_sorted_by_id(self):
        chosen = select_subset(make_trials(100), 0.3, seed=4)
        ids = [t.utterance_id for t in chosen]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            select_subset([], 0.1, seed=0)

    def test_zero_selection(self):
        with pytest.raises(ZeroSelection):
            select_subset(make_trials(5), 0.1, seed=0)

    @pytest.mark.parametrize("fraction", [0.0, -0.1, 1.5])
    def test_invalid_fraction(self, fraction):
        with pytest.raises(InvalidParameter):
            select_subset(make_trials(10), fraction, seed=0)


class TestPlanAttacks:
    def test_nine_jobs_per_file(self):
        selected = make_trials(7)
        jobs = plan_attacks(selected, seed=11)
        assert len(jobs) == 9 * 7

    def test_slot_structure(self):
        (t,) = make_trials(1)
        jobs = plan_attacks([t], seed=0)
        kinds = Counter(j.spec.kind for j in jobs)
        assert kinds == {"reverberation": 1, "additive_noise": 5,
                         "recompression": 1, "resampling": 1, "lowpass": 1}
        noise_names = {j.spec.noise_name for j in jobs
                       if j.spec.kind == "additive_noise"}
        assert noise_names == set(NOISE_NAMES)

    def test_deterministic(self):
        selected = make_trials(20)
        assert plan_attacks(selected, seed=5) == plan_attacks(selected, seed=5)

    def test_seed_changes_draws(self):
        selected = make_trials(40)
        a = plan_attacks(selected, seed=1)
        b = plan_attacks(selected, seed=2)
        assert [j.spec for j in a] != [j.spec for j in b]

    def test_job_fields(self):
        (t,) = make_trials(1)
        job = plan_attacks([t], seed=123)[0]
        tag = attack_tag(job.spec)
        assert job.output_utterance_id == f"{t.utterance_id}_{tag}"
        assert job.output_path == (
            f"{t.utterance_id[:2]}/{job.output_utterance_id}.flac")
        assert job.job_seed == derive_seed(123, t.utterance_id, tag)

    def test_draws_lie_in_grids(self):
        jobs = plan_attacks(make_trials(60), seed=8)
        for j in jobs:
            s = j.spec
            if s.kind == "reverberation":
                assert s.rt60_s in RT60_CHOICES
            elif s.kind == "additive_noise":
                assert s.snr_db in SNR_DB_CHOICES
            elif s.kind == "recompression":
                assert s.bitrate_kbps in BITRATE_CHOICES
            elif s.kind == "resampling":
                assert s.target_rate_hz in TARGET_RATE_CHOICES

    def test_draws_roughly_uniform(self):
        n = 1200
        jobs = plan_attacks(make_trials(n), seed=31)

        def check(values, choices):
            counts = Counter(values)
            p = 1.0 / len(choices)
            tol = 5.0 * math.sqrt(n * p * (1.0 - p))
            for c in choices:
                assert abs(counts[c] - n * p) < tol, (c, counts)

        check([j.spec.rt60_s for j in jobs
               if j.spec.kind == "reverberation"], RT60_CHOICES)
        check([j.spec.snr_db for j in jobs
               if j.spec.kind == "additive_noise"
               and j.spec.noise_name == "street"], SNR_DB_CHOICES)
        check([j.spec.bitrate_kbps for j in jobs
               if j.spec.kind == "recompression"], BITRATE_CHOICES)
        check([j.spec.target_rate_hz for j in jobs
               if j.spec.kind == "resampling"], TARGET_RATE_CHOICES)

    def test_snr_independent_across_noises(self):
        jobs = plan_attacks(make_trials(200), seed=2)
        by_noise = {}
        for j in jobs:
            if j.spec.kind == "additive_noise":
                by_noise.setdefault(j.spec.noise_name, []).append(j.spec.snr_db)
        vectors = list(by_noise.values())
        assert any(vectors[0] != v for v in vectors[1:])

    def test_empty_selection(self):
        with pytest.raises(EmptyInput):
            plan_attacks([], seed=0)

    @pytest.mark.parametrize("utt", ["../../evil", "/tmp/x", "..x"])
    def test_refuses_ids_that_leave_the_output_dir(self, utt):
        t = TrialRecord(utt, "bonafide", "-", "C00", "p.flac")
        with pytest.raises(InvalidParameter, match="outside the output"):
            plan_attacks(make_trials(2) + [t], seed=0)

    def test_dotted_id_stays_inside(self):
        t = TrialRecord("a.b", "bonafide", "-", "C00", "p.flac")
        assert {j.output_path.split("/")[0]
                for j in plan_attacks([t], seed=0)} == {"a."}

    # recorded from the hand-written plan that dsp.ATTACK_GRID replaced; a
    # renamed draw slot, a reordered grid or a changed tag changes them
    @pytest.mark.parametrize("seed,digest", [
        (0, "64f9cdcf1229fa351b77e5df6b09e4506b7226fcfe6d47b8ffaaf9547988ec8e"),
        (7, "42b4a99c5bb723ebc50fc96c1df1924ad7eca018e67acb6d5de46873002c2499"),
        (2024,
         "785b23e216f916e4cbd79d1757a6c026f5495c073c4c845b2382b49c9fee83a7"),
        (123456789,
         "50cf0c52cca0e917974a38004dfc2537eb4f2668d68461e1bd401ba3f9801a8a"),
    ])
    def test_plan_matches_golden(self, seed, digest):
        jobs = plan_attacks(make_trials(30), seed=seed)
        text = "".join(f"{j.output_utterance_id} {j.output_path} "
                       f"{j.job_seed} {j.spec!r}\n" for j in jobs)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Small audio tree + noise assets + copy-stub codec backend."""
    root = tmp_path_factory.mktemp("corpus")
    audio_root = root / "audio"
    audio_root.mkdir()
    rng = np.random.Generator(np.random.PCG64(99))
    trials = make_trials(3, prefix="sp")
    for i, t in enumerate(trials):
        n = 4000 + 100 * i
        x = 0.4 * np.sin(2 * np.pi * 330.0 * (1 + i) * np.arange(n) / 16000)
        write_audio(AudioBuffer(x, 16000), audio_root / t.source_path)
    noise_dir = root / "noise"
    noise_dir.mkdir()
    for name in ("babble", "volvo", "cafe", "street"):
        write_audio(AudioBuffer(0.1 * rng.standard_normal(8000), 16000),
                    noise_dir / f"{name}.wav", format="wav16")
    enc = root / "enc.py"
    enc.write_text(COPY_BODY)
    backend = CodecBackend(
        f"{sys.executable} {enc} {{in}} {{out}} {{bitrate_kbps}}",
        f"{sys.executable} {enc} {{in}} {{out}}",
        "copy-stub")
    return {"root": root, "audio_root": audio_root, "trials": trials,
            "noises": NoiseLibrary(noise_dir), "backend": backend}


class TestExecutePlan:
    def test_full_run_single_file(self, corpus, tmp_path):
        jobs = plan_attacks(corpus["trials"][:1], seed=42)
        report = execute_plan(jobs, corpus["audio_root"], tmp_path,
                              noises=corpus["noises"],
                              backend=corpus["backend"], parallelism=2)
        assert report.jobs_total == 9
        assert report.jobs_failed == 0
        assert report.jobs_succeeded == 9
        for job in jobs:
            out = read_audio(tmp_path / job.output_path)
            assert out.sample_rate_hz == 16000
            src = read_audio(corpus["audio_root"] / job.source.source_path)
            assert len(out) == len(src)

    def test_missing_source_is_isolated(self, corpus, tmp_path):
        broken = TrialRecord("zz999", "spoof", "A01", "C00", "zz999.flac")
        jobs = plan_attacks([corpus["trials"][0], broken], seed=1)
        report = execute_plan(jobs, corpus["audio_root"], tmp_path,
                              noises=corpus["noises"],
                              backend=corpus["backend"], parallelism=3)
        assert report.jobs_total == 18
        assert report.jobs_failed == 9
        assert report.jobs_succeeded == 9
        assert all(j.source.utterance_id == "zz999"
                   for j, _ in report.failures)

    def test_corrupt_source_is_isolated(self, corpus, tmp_path):
        # the first subframe header of this stream becomes LPC order 17,
        # whose restored samples outgrow int64
        x = np.random.default_rng(2).integers(-10, 11, 4800)
        blob = bytearray(flacio.encode_flac(x, 16000, blocksize=1000))
        blob[50] = 97
        (tmp_path / "bad.flac").write_bytes(blob)
        healthy = corpus["trials"][0]
        (tmp_path / healthy.source_path).write_bytes(
            (corpus["audio_root"] / healthy.source_path).read_bytes())
        bad = TrialRecord("bd001", "spoof", "A01", "C00", "bad.flac")
        for sources, out in (([healthy], "alone"), ([healthy, bad], "both")):
            report = execute_plan(plan_attacks(sources, seed=4), tmp_path,
                                  tmp_path / out, noises=corpus["noises"],
                                  backend=fake_codec, parallelism=2)
        assert (report.jobs_failed, report.jobs_succeeded) == (9, 9)
        assert all(j.source is bad and isinstance(e, CorruptFile)
                   for j, e in report.failures)
        for job in plan_attacks([healthy], seed=4):
            assert (tmp_path / "both" / job.output_path).read_bytes() == \
                (tmp_path / "alone" / job.output_path).read_bytes()

    def test_matches_per_job_decoding(self, corpus, tmp_path):
        jobs = plan_attacks(corpus["trials"][:2], seed=21)
        assert len(jobs) == 18
        for job in jobs:
            src = read_audio(corpus["audio_root"] / job.source.source_path)
            out = apply_attack(src, job.spec, job.job_seed,
                               noises=corpus["noises"], backend=fake_codec)
            dest = tmp_path / "expected" / job.output_path
            dest.parent.mkdir(parents=True, exist_ok=True)
            write_audio(out, dest, format="flac")
        for parallelism in (1, 3):
            out_dir = tmp_path / f"p{parallelism}"
            report = execute_plan(jobs, corpus["audio_root"], out_dir,
                                  noises=corpus["noises"], backend=fake_codec,
                                  parallelism=parallelism)
            assert report.jobs_failed == 0
            for job in jobs:
                assert (out_dir / job.output_path).read_bytes() == \
                    (tmp_path / "expected" / job.output_path).read_bytes()

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_each_source_read_once(self, corpus, tmp_path, monkeypatch,
                                   parallelism):
        # forked workers share the file, not the test's memory
        log = tmp_path / "reads.log"

        def counting_read(path):
            with open(log, "a") as fh:
                fh.write(path.name + "\n")
            return read_audio(path)

        monkeypatch.setattr(pipeline, "read_audio", counting_read)
        jobs = plan_attacks(corpus["trials"][:2], seed=8)
        report = execute_plan(jobs, corpus["audio_root"], tmp_path / "plan",
                              noises=corpus["noises"], backend=fake_codec,
                              parallelism=parallelism)
        assert report.jobs_failed == 0
        reads = log.read_text().splitlines()
        assert Counter(reads) == {t.source_path: 1
                                  for t in corpus["trials"][:2]}

        # alternate a healthy and a missing source, without a codec
        log.unlink()
        broken = TrialRecord("zz999", "spoof", "A01", "C00", "zz999.flac")
        pair = plan_attacks([corpus["trials"][0], broken], seed=8)
        jobs = [j for both in zip(pair[:9], pair[9:]) for j in both]
        report = execute_plan(jobs, corpus["audio_root"], tmp_path / "mixed",
                              noises=corpus["noises"], parallelism=parallelism)
        reads = log.read_text().splitlines()
        assert Counter(reads) == {corpus["trials"][0].source_path: 1,
                                  "zz999.flac": 1}
        assert [j for j, _ in report.failures] == [
            j for j in jobs
            if j.source is broken or j.spec.kind == "recompression"]
        assert all(isinstance(e, IoFailure if j.source is broken
                              else InvalidParameter)
                   for j, e in report.failures)

    def test_shared_source_is_read_only(self, corpus, tmp_path, monkeypatch):
        def in_place(x, *args, **kwargs):
            x.samples *= 2
            return x

        monkeypatch.setattr(pipeline, "apply_attack", in_place)
        jobs = plan_attacks(corpus["trials"][:1], seed=0)
        with pytest.raises(ValueError):
            execute_plan(jobs, corpus["audio_root"], tmp_path, parallelism=1)

    def test_missing_backend_recorded_not_raised(self, corpus, tmp_path):
        jobs = [j for j in plan_attacks(corpus["trials"][:1], seed=3)
                if j.spec.kind == "recompression"]
        report = execute_plan(jobs, corpus["audio_root"], tmp_path,
                              noises=corpus["noises"], backend=None)
        assert report.jobs_failed == 1
        assert isinstance(report.failures[0][1], InvalidParameter)

    def test_noncodec_rerun_byte_identical(self, corpus, tmp_path):
        jobs = [j for j in plan_attacks(corpus["trials"][:2], seed=7)
                if j.spec.kind != "recompression"]
        dirs = (tmp_path / "a", tmp_path / "b")
        for d in dirs:
            report = execute_plan(jobs, corpus["audio_root"], d,
                                  noises=corpus["noises"], parallelism=4)
            assert report.jobs_failed == 0
        for job in jobs:
            a = (dirs[0] / job.output_path).read_bytes()
            b = (dirs[1] / job.output_path).read_bytes()
            assert a == b

    def test_parallelism_does_not_change_outputs(self, corpus, tmp_path):
        jobs = [j for j in plan_attacks(corpus["trials"][:1], seed=13)
                if j.spec.kind in ("reverberation", "lowpass", "resampling")]
        report1 = execute_plan(jobs, corpus["audio_root"], tmp_path / "p1",
                               parallelism=1)
        report4 = execute_plan(jobs, corpus["audio_root"], tmp_path / "p4",
                               parallelism=4)
        assert report1.jobs_failed == report4.jobs_failed == 0
        for job in jobs:
            assert (tmp_path / "p1" / job.output_path).read_bytes() == \
                (tmp_path / "p4" / job.output_path).read_bytes()

    def test_recompression_output_deterministic(self, corpus, tmp_path):
        jobs = [j for j in plan_attacks(corpus["trials"], seed=17)
                if j.spec.kind == "recompression"]
        runs = {tmp_path / "p1": 1, tmp_path / "p1-again": 1,
                tmp_path / "p3": 3}
        for out_dir, parallelism in runs.items():
            report = execute_plan(jobs, corpus["audio_root"], out_dir,
                                  backend=fake_codec, parallelism=parallelism)
            assert report.jobs_failed == 0
        for job in jobs:
            first = (tmp_path / "p1" / job.output_path).read_bytes()
            for out_dir in runs:
                assert (out_dir / job.output_path).read_bytes() == first
            src = read_audio(corpus["audio_root"] / job.source.source_path)
            coded = fake_codec(src, job.spec.bitrate_kbps).samples
            out = read_audio(tmp_path / "p1" / job.output_path)
            assert np.max(np.abs(out.samples - coded[:len(src)])) <= 2.0 ** -16

    def test_clip_events_counted(self, corpus, tmp_path):
        # near-full-scale square wave overshoots through the lowpass
        src_dir = tmp_path / "loud"
        src_dir.mkdir()
        x = 0.98 * np.sign(np.sin(2 * np.pi * 400.0 * np.arange(8000) / 16000))
        t = TrialRecord("ld001", "bonafide", "-", "C00", "ld001.flac")
        write_audio(AudioBuffer(x, 16000), src_dir / t.source_path)
        jobs = [j for j in plan_attacks([t], seed=5)
                if j.spec.kind == "lowpass"]
        report = execute_plan(jobs, src_dir, tmp_path / "out")
        assert report.jobs_failed == 0
        assert report.clip_events > 0

    def test_unwritable_out_dir(self, corpus, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file in the way")
        jobs = plan_attacks(corpus["trials"][:1], seed=0)
        with pytest.raises(IoFailure):
            execute_plan(jobs, corpus["audio_root"], blocker,
                         noises=corpus["noises"])

    def test_invalid_parallelism(self, corpus, tmp_path):
        jobs = plan_attacks(corpus["trials"][:1], seed=0)
        with pytest.raises(InvalidParameter):
            execute_plan(jobs, corpus["audio_root"], tmp_path, parallelism=0)


class TestEmitAugmentedManifest:
    def test_record_arithmetic(self):
        original = make_trials(10)
        jobs = plan_attacks(original[:1], seed=6)
        text = emit_augmented_manifest(original, jobs)
        assert len(parse_manifest(text)) == 19

    def test_labels_and_conditions_inherited(self):
        original = make_trials(4)
        spoof = next(t for t in original if t.label == "spoof")
        jobs = plan_attacks([spoof], seed=2)
        records = parse_manifest(emit_augmented_manifest(original, jobs))
        copies = [r for r in records
                  if r.utterance_id.startswith(spoof.utterance_id + "_")]
        assert len(copies) == 9
        for r in copies:
            assert r.label == "spoof"
            assert r.attack_id == spoof.attack_id
            assert r.codec_id == spoof.codec_id

    def test_bonafide_copies_keep_placeholder(self):
        original = make_trials(3)
        bona = [t for t in original if t.label == "bonafide"]
        jobs = plan_attacks(bona, seed=2)
        records = parse_manifest(emit_augmented_manifest(original, jobs))
        for r in records:
            if r.label == "bonafide":
                assert r.attack_id == "-"

    def test_comments_record_tags_and_backend(self):
        original = make_trials(1)
        jobs = plan_attacks(original, seed=9)
        text = emit_augmented_manifest(original, jobs,
                                       backend_identity="stub-1.0")
        lines = text.splitlines()
        tagged = [ln for ln in lines if "# attack=" in ln]
        assert len(tagged) == 9
        for job in jobs:
            (line,) = [ln for ln in tagged
                       if ln.startswith(job.output_utterance_id + " ")]
            assert f"# attack={attack_tag(job.spec)}" in line
            if job.spec.kind == "recompression":
                assert "backend=stub-1.0" in line
            else:
                assert "backend=" not in line

    def test_paths_come_from_jobs(self):
        original = make_trials(1)
        jobs = plan_attacks(original, seed=9)
        records = parse_manifest(emit_augmented_manifest(original, jobs))
        by_id = {r.utterance_id: r for r in records}
        for job in jobs:
            assert by_id[job.output_utterance_id].source_path == \
                job.output_path

    def test_prefix_is_plain_manifest(self):
        from launderbench.protocol import emit_manifest
        original = make_trials(5)
        jobs = plan_attacks(original[:1], seed=1)
        text = emit_augmented_manifest(original, jobs)
        assert text.startswith(emit_manifest(original))
