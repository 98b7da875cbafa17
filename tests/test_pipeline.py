"""Selection, planning, batch execution, and augmented-manifest emission."""

import contextlib
import hashlib
import itertools
import math
import os
import sys
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from launderbench import dsp, flacio, pipeline, protocol
from launderbench.audio import AudioBuffer, CodecBackend, read_audio, write_audio
from launderbench.dsp import (ATTACK_GRID, BITRATE_CHOICES, NOISE_NAMES,
                              RT60_CHOICES,
                              SNR_DB_CHOICES, TARGET_RATE_CHOICES, AttackSpec,
                              NoiseLibrary, apply_attack)
from launderbench.errors import (CorruptFile, EmptyInput, InvalidParameter,
                                 IoFailure, ZeroSelection)
from launderbench.pipeline import (attack_tag, emit_augmented_manifest,
                                   execute_plan, plan_attacks, select_subset)
from launderbench.protocol import TrialRecord, parse_manifest
from launderbench.rng import derive_seed, make_rng

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


def make_ids(n):
    return [t.utterance_id for t in make_trials(n)]


def id_order(ids):
    return sorted(range(len(ids)), key=ids.__getitem__)


def manifest_records(text):
    return list(parse_manifest(text.encode())[0])


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
    # all 29 grid specs, each with the tag it has always had: tags name the
    # output files and seed each job, so a changed tag changes the outputs
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
        (AttackSpec(kind="reverberation", rt60_s=0.6), "reverberation_0.6"),
        (AttackSpec(kind="additive_noise", noise_name="babble", snr_db=10),
         "babble_10"),
        (AttackSpec(kind="additive_noise", noise_name="babble", snr_db=20),
         "babble_20"),
        (AttackSpec(kind="additive_noise", noise_name="volvo", snr_db=0),
         "volvo_0"),
        (AttackSpec(kind="additive_noise", noise_name="volvo", snr_db=10),
         "volvo_10"),
        (AttackSpec(kind="additive_noise", noise_name="volvo", snr_db=20),
         "volvo_20"),
        (AttackSpec(kind="additive_noise", noise_name="white", snr_db=0),
         "white_0"),
        (AttackSpec(kind="additive_noise", noise_name="white", snr_db=10),
         "white_10"),
        (AttackSpec(kind="additive_noise", noise_name="cafe", snr_db=0),
         "cafe_0"),
        (AttackSpec(kind="additive_noise", noise_name="cafe", snr_db=10),
         "cafe_10"),
        (AttackSpec(kind="additive_noise", noise_name="cafe", snr_db=20),
         "cafe_20"),
        (AttackSpec(kind="additive_noise", noise_name="street", snr_db=0),
         "street_0"),
        (AttackSpec(kind="additive_noise", noise_name="street", snr_db=10),
         "street_10"),
        (AttackSpec(kind="additive_noise", noise_name="street", snr_db=20),
         "street_20"),
        (AttackSpec(kind="recompression", bitrate_kbps=16),
         "recompression_16"),
        (AttackSpec(kind="recompression", bitrate_kbps=128),
         "recompression_128"),
        (AttackSpec(kind="recompression", bitrate_kbps=192),
         "recompression_192"),
        (AttackSpec(kind="recompression", bitrate_kbps=256),
         "recompression_256"),
        (AttackSpec(kind="recompression", bitrate_kbps=320),
         "recompression_320"),
        (AttackSpec(kind="resampling", target_rate_hz=8000),
         "resampling_8000"),
        (AttackSpec(kind="resampling", target_rate_hz=22050),
         "resampling_22050"),
        (AttackSpec(kind="resampling", target_rate_hz=44100),
         "resampling_44100"),
    ])
    def test_grammar(self, spec, tag):
        assert attack_tag(spec) == tag

    def test_no_tag_ends_with_another(self):
        # an output id is f"{id}_{tag}", so two ids could share one only if
        # a tag ended with "_" + another tag; launder relies on this
        tags = [attack_tag(AttackSpec(kind, **dict(zip(grid, values))))
                for kind, grid in ATTACK_GRID.items()
                for values in itertools.product(*grid.values())]
        assert len(tags) == len(set(tags)) == 29
        for a, b in itertools.product(tags, tags):
            assert not a.endswith("_" + b), (a, b)

    @pytest.mark.parametrize("seed", range(5))
    def test_one_ids_tags_are_distinct(self, seed):
        ids = ["u", "u_white", "u_white_20", "u_lowpass_8000", "v_babble"]
        jobs = plan_attacks([t._replace(utterance_id=u) for t, u in
                             zip(make_trials(len(ids)), ids)], seed)
        for u in ids:
            tags = [attack_tag(j.spec) for j in jobs
                    if j.source.utterance_id == u]
            assert len(tags) == len(set(tags)) == 9
        out_ids = [j.output_utterance_id for j in jobs]
        assert len(set(out_ids)) == len(out_ids)

    def test_injective_over_grid(self):
        specs = grid_specs()
        assert len(specs) == 29
        tags = [attack_tag(s) for s in specs]
        assert len(set(tags)) == len(tags)

    def test_tags_are_filename_safe(self):
        for tag in map(attack_tag, grid_specs()):
            assert all(c.isalnum() or c in "._" for c in tag)


# recorded from the record-based selection this replaced: the numbers n
# of the ids T_{n:04d} chosen from GOLDEN_IDS, in id order
GOLDEN_IDS = [f"T_{(i * 73) % 200:04d}" for i in range(200)]
GOLDEN_SELECTIONS = {
    (0, 0.1): [4, 11, 17, 21, 28, 31, 34, 42, 47, 77, 78, 85, 93, 97, 107,
               118, 128, 189, 192, 194],
    (0, 0.35): [4, 7, 11, 17, 21, 23, 24, 25, 26, 27, 28, 29, 31, 33, 34, 41,
                42, 47, 48, 49, 55, 57, 59, 68, 75, 76, 77, 78, 79, 85, 86,
                88, 93, 95, 97, 98, 99, 106, 107, 109, 110, 115, 118, 122,
                123, 124, 128, 129, 133, 138, 139, 141, 143, 151, 153, 155,
                168, 172, 174, 177, 178, 180, 183, 186, 189, 190, 192, 193,
                194, 198],
    (11, 0.1): [3, 20, 26, 28, 65, 73, 78, 92, 97, 101, 110, 119, 122, 131,
                137, 150, 152, 171, 174, 188],
    (11, 0.35): [0, 3, 5, 8, 9, 10, 13, 18, 20, 21, 25, 26, 28, 30, 39, 44,
                 47, 49, 50, 53, 64, 65, 66, 68, 72, 73, 75, 76, 77, 78, 81,
                 84, 85, 87, 88, 89, 92, 95, 97, 99, 100, 101, 106, 109, 110,
                 113, 119, 120, 121, 122, 123, 130, 131, 133, 137, 139, 150,
                 152, 160, 167, 171, 174, 176, 180, 181, 182, 183, 188, 196,
                 197],
    (77, 0.1): [8, 14, 26, 31, 54, 62, 66, 73, 88, 97, 104, 112, 121, 134,
                135, 142, 171, 186, 190, 194],
    (77, 0.35): [0, 8, 10, 14, 16, 17, 19, 21, 23, 25, 26, 31, 35, 36, 53,
                 54, 60, 61, 62, 65, 66, 73, 74, 76, 81, 82, 84, 87, 88, 91,
                 92, 93, 95, 96, 97, 103, 104, 106, 112, 114, 118, 121, 127,
                 134, 135, 137, 138, 142, 143, 146, 147, 148, 152, 153, 165,
                 166, 167, 171, 174, 176, 177, 181, 184, 186, 187, 190, 191,
                 194, 196, 199],
    **{(seed, 1.0): list(range(200)) for seed in (0, 11, 77)},
}


class TestSelectSubset:
    def test_floor_count(self):
        for n, count in ((120, 12), (37, 3)):
            assert len(select_subset(id_order(make_ids(n)), 0.1, 1)) == count

    def test_decimal_fraction_is_exact(self):
        # binary 0.7*10 = 6.999...; the decimal reading must keep 7
        assert len(select_subset(id_order(make_ids(10)), 0.7, 0)) == 7

    def test_full_fraction(self):
        ids = make_ids(9)[::-1]
        assert select_subset(id_order(ids), 1.0, seed=5) == list(
            range(8, -1, -1))

    def test_deterministic(self):
        ids = make_ids(200)
        a = select_subset(id_order(ids), 0.1, seed=77)
        b = select_subset(id_order(ids), 0.1, seed=77)
        assert a == b

    def test_seed_changes_selection(self):
        ids = make_ids(200)
        a = select_subset(id_order(ids), 0.1, seed=1)
        b = select_subset(id_order(ids), 0.1, seed=2)
        assert a != b

    def test_independent_of_input_order(self):
        ids = make_ids(150)
        rng = np.random.Generator(np.random.PCG64(3))
        shuffled = [ids[i] for i in rng.permutation(len(ids))]
        assert [ids[r] for r in select_subset(id_order(ids), 0.2, 9)] == [
            shuffled[r] for r in select_subset(id_order(shuffled), 0.2, 9)]

    def test_output_sorted_by_id(self):
        ids = make_ids(100)[::-1]
        chosen = [ids[r] for r in select_subset(id_order(ids), 0.3, seed=4)]
        assert chosen == sorted(chosen)
        assert len(set(chosen)) == len(chosen)

    @pytest.mark.parametrize("seed,fraction", sorted(GOLDEN_SELECTIONS))
    def test_selection_matches_golden(self, seed, fraction):
        rows = select_subset(id_order(GOLDEN_IDS), fraction, seed)
        assert [GOLDEN_IDS[r] for r in rows] == [
            f"T_{n:04d}" for n in GOLDEN_SELECTIONS[seed, fraction]]

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            select_subset(id_order([]), 0.1, seed=0)

    def test_zero_selection(self):
        with pytest.raises(ZeroSelection):
            select_subset(id_order(make_ids(5)), 0.1, seed=0)

    @pytest.mark.parametrize("fraction", [0.0, -0.1, 1.5])
    def test_invalid_fraction(self, fraction):
        with pytest.raises(InvalidParameter):
            select_subset(id_order(make_ids(10)), fraction, seed=0)


def string_sorted_selection(ids, fraction, seed):
    """Rows select_subset chose when it sorted the id strings itself."""
    count = int(Fraction(str(fraction)) * len(ids))
    ordered = sorted(range(len(ids)), key=ids.__getitem__)
    perm = make_rng(seed, "select").permutation(len(ids))
    return sorted((ordered[i] for i in perm[:count].tolist()),
                  key=ids.__getitem__)


# ids whose key order could part from Python's string order: prefixes,
# tails of the lowest code points, and multi-byte UTF-8 up to astral
ASCII_STRESS = ["a", "a\x00", "a\x01", "a\x00\x00", "a\x00b", "a\x01\x00",
                "ab", "aa", "A", "Z_", "_", "\x7f", "b\x00", "b"]
UNICODE_STRESS = ASCII_STRESS + ["\x80", "ü", "u", "uü", "ü\x00", "üa", "中",
                                 "中文", "中\x01", "\uffff", "\U00010000",
                                 "\U0001f600", "\U0001f600a", "\U0010ffff"]
LONG_ID = "a" * 100_000
# any character a manifest id may hold
_ID_CHARS = st.characters(blacklist_categories=("Cs",),
                          blacklist_characters="#").filter(
                              lambda c: not c.isspace())
# ids and the kind of their sort key (see protocol._sort_keys): at most
# eight varying byte columns pack into one integer ("u"), more keep the
# bytes ("S"), and an id too long for a fixed width makes bytes objects
# ("O")
_KEY_RNG = np.random.Generator(np.random.PCG64(5))
KEY_CASES = {
    "ascii": (ASCII_STRESS, "u"),
    "unicode": (UNICODE_STRESS, "u"),
    "ascii-long": (ASCII_STRESS + [LONG_ID], "O"),
    "unicode-long": (UNICODE_STRESS + [LONG_ID], "O"),
    "wide": (["".join(_KEY_RNG.choice(list("abcdef"), 12))
              for _ in range(60)], "S"),
    "long-prefix": ([f"speaker_0042_session_{i * 37:06d}" for i in range(60)],
                    "u"),
    "prefixes": (["ab", "abc", "a", "abcd", "abcde", "b", "abd", "ba"], "u"),
    "wide-prefixes": (["x", "x" + "y" * 12, "x" + "z" * 11, "xy",
                       "xz" + "a" * 9, "w"], "S"),
    "single": (["only"], "u"),
    "empty": ([], "u"),
}


class TestIdOrder:
    """TrialColumns.order, the id order launder selects by, is Python's
    order of the id strings."""

    @staticmethod
    def parsed(ids):
        rng = np.random.Generator(np.random.PCG64(len(ids)))
        ids = [ids[i] for i in rng.permutation(len(ids))]
        text = "".join(f"{u} bonafide - C00 p{i}.flac\n"
                       for i, u in enumerate(ids))
        return ids, parse_manifest(text.encode())[1]

    @pytest.mark.parametrize("ids,kind", KEY_CASES.values(), ids=KEY_CASES)
    def test_order_is_string_order(self, ids, kind):
        ids, trials = self.parsed(ids)
        assert trials.order.tolist() == id_order(ids)
        (key,) = protocol._sort_keys(trials.ids)
        assert key.dtype.kind == kind

    @pytest.mark.parametrize("fraction", [0.1, 0.35, 0.5, 1.0])
    @pytest.mark.parametrize("seed", [0, 11, 77])
    def test_selection_matches_string_sort(self, seed, fraction):
        ids, trials = self.parsed(UNICODE_STRESS + [LONG_ID])
        chosen = select_subset(trials.order, fraction, seed)
        assert chosen == string_sorted_selection(ids, fraction, seed)
        assert all(type(r) is int for r in chosen)

    @pytest.mark.parametrize("seed,fraction", sorted(GOLDEN_SELECTIONS))
    def test_golden_from_parsed_order(self, seed, fraction):
        ids, trials = self.parsed(GOLDEN_IDS)
        rows = select_subset(trials.order, fraction, seed)
        assert [ids[r] for r in rows] == [
            f"T_{n:04d}" for n in GOLDEN_SELECTIONS[seed, fraction]]

    @given(st.lists(st.text(_ID_CHARS, min_size=1, max_size=5), unique=True,
                    max_size=12))
    def test_order_of_any_ids(self, ids):
        ids, trials = self.parsed(ids)
        assert trials.order.tolist() == id_order(ids)


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

    @pytest.mark.parametrize("first,second", [("a/b", "a/./b"),
                                              ("a/b", "a//b"),
                                              ("a/./b", "a//b")])
    def test_refuses_ids_that_write_one_file(self, first, second):
        # distinct ids whose output paths normalize to one file
        pair = [TrialRecord(u, "bonafide", "-", "C00", "p.flac")
                for u in (first, second)]
        with pytest.raises(InvalidParameter, match="the same file") as exc:
            plan_attacks(make_trials(2) + pair, seed=0)
        assert f"{first!r} and {second!r}" in str(exc.value)

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

    # without sched_getaffinity, as on macOS, the CPUs are os.cpu_count()
    @pytest.mark.parametrize("cpus, workers, affinity",
                             [(2, 2, True), (8, 3, True), (2, 2, False)],
                             ids=["2-2", "8-3", "2-2-cpu_count"])
    def test_workers_capped_at_the_cpus(self, corpus, tmp_path, monkeypatch,
                                        cpus, workers, affinity):
        # forked runs its call inline here, so no process starts however
        # large parallelism is
        slices = []

        @contextlib.contextmanager
        def inline(call, died):
            slices.append([path for path, _ in call.args[0]])
            outcome = call()
            yield lambda: outcome

        jobs = plan_attacks(corpus["trials"], seed=6)
        want = execute_plan(jobs, corpus["audio_root"], tmp_path / "p1",
                            noises=corpus["noises"], backend=fake_codec,
                            parallelism=1)
        monkeypatch.setattr(pipeline, "forked", inline)
        if affinity:
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid: set(range(cpus)))
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        got = execute_plan(jobs, corpus["audio_root"], tmp_path / "big",
                           noises=corpus["noises"], backend=fake_codec,
                           parallelism=5000)
        paths = [t.source_path for t in corpus["trials"]]
        assert slices == [paths[w::workers] for w in range(workers)]
        assert got == want
        for job in jobs:
            assert (tmp_path / "big" / job.output_path).read_bytes() == \
                (tmp_path / "p1" / job.output_path).read_bytes()

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

    def test_noise_asset_resampled_once_per_rate(self, tmp_path):
        # each recorded-noise job on a 22,050 Hz source mixes a 16 kHz
        # asset at 22,050 Hz; the asset is resampled once, not per job
        audio_root, noise_dir = tmp_path / "audio", tmp_path / "noise"
        audio_root.mkdir()
        noise_dir.mkdir()
        rng = np.random.Generator(np.random.PCG64(3))
        trials = make_trials(2, prefix="hr")
        for t in trials:
            write_audio(AudioBuffer(0.3 * rng.standard_normal(5000), 22050),
                        audio_root / t.source_path)
        for name in dsp.LOADABLE_NOISES:
            write_audio(AudioBuffer(0.1 * rng.standard_normal(8000), 16000),
                        noise_dir / f"{name}.wav", format="wav16")
        jobs = [j for j in plan_attacks(trials, seed=8)
                if j.spec.kind == "additive_noise"]
        resample, asset_rates = dsp.resample, []

        def counting(x, rate):
            if x.sample_rate_hz == dsp.NOISE_RATE_HZ:
                asset_rates.append(rate)
            return resample(x, rate)

        with mock.patch.object(dsp, "resample", counting):
            report = execute_plan(jobs, audio_root, tmp_path / "out",
                                  noises=NoiseLibrary(noise_dir),
                                  parallelism=1)
        assert report.jobs_failed == 0
        assert asset_rates == [22050] * len(dsp.LOADABLE_NOISES)
        # the bytes of each job run with its own, freshly resampled noise
        for job in jobs:
            src = read_audio(audio_root / job.source.source_path)
            want = apply_attack(src, job.spec, job.job_seed,
                                noises=NoiseLibrary(noise_dir))
            write_audio(want, tmp_path / "want.flac", format="flac")
            assert (tmp_path / "out" / job.output_path).read_bytes() == (
                tmp_path / "want.flac").read_bytes()

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
        assert len(manifest_records(text)) == 19

    def test_labels_and_conditions_inherited(self):
        original = make_trials(4)
        spoof = next(t for t in original if t.label == "spoof")
        jobs = plan_attacks([spoof], seed=2)
        records = manifest_records(emit_augmented_manifest(original, jobs))
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
        records = manifest_records(emit_augmented_manifest(original, jobs))
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
        records = manifest_records(emit_augmented_manifest(original, jobs))
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
