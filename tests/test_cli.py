"""CLI behavior: flag defaults, subcommands, exit codes."""

import codecs
import errno
import hashlib
import io
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from launderbench import audio, cli, flacio, pipeline, protocol
from launderbench.audio import AudioBuffer, write_audio
from launderbench.cli import build_parser, main
from launderbench.errors import InvalidParameter
from launderbench.metrics import gaussian_scores
from launderbench.pipeline import plan_attacks
from launderbench.protocol import TrialRecord, parse_manifest

COPY_BODY = "import shutil, sys\nshutil.copy(sys.argv[1], sys.argv[2])\n"


def manifest_records(text):
    return list(parse_manifest(text.encode())[0])


def parse_args(argv):
    return build_parser().parse_args(argv)


def write_corpus(root, n_files=10):
    """Manifest + FLAC sources + noise assets + copy-stub codec."""
    audio_root = root / "audio"
    audio_root.mkdir()
    lines = []
    for i in range(n_files):
        utt = f"u{i:04d}"
        label = "bonafide" if i % 2 == 0 else "spoof"
        attack = "-" if label == "bonafide" else f"A{17 + i % 4}"
        codec = f"C{i % 3:02d}"
        lines.append(f"{utt} {label} {attack} {codec} {utt}.flac")
        x = 0.3 * np.sin(2 * np.pi * (200.0 + 40.0 * i)
                         * np.arange(2000) / 16000.0)
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


def read_summary(out_dir):
    text = (out_dir / "run_summary.txt").read_text()
    return dict(line.split("=", 1) for line in text.splitlines())


class TestConfigResolution:
    """Every setting is a flag; argparse holds the defaults and no
    environment variable or config file is read."""

    def test_defaults(self):
        launder = parse_args(["launder"])
        assert (launder.seed, launder.fraction, launder.jobs) == (0, 0.1, 4)
        for command in ("evaluate", "report"):
            args = parse_args([command])
            assert (args.c_miss, args.c_fa, args.pi_spoof) == (1.0, 10.0,
                                                               0.05)
            assert args.join == "strict"
            assert args.invert_scores is False
        assert parse_args(["report"]).format == "tsv"

    def test_missing_config_file(self, tmp_path, monkeypatch, capsys):
        manifest, scores = write_eval_fixture(tmp_path, bon=(1.0,),
                                              spf=(-1.0,))
        monkeypatch.setenv("LAUNDERBENCH_CONFIG", str(tmp_path / "absent"))
        assert main(["evaluate", "--manifest", str(manifest),
                     "--scores", str(scores)]) == 0

    @pytest.mark.parametrize("body", ["what is this",
                                      "unknown_key=3",
                                      "seed=abc",
                                      "fraction=2.0",
                                      "invert_scores=true"])
    def test_bad_config_file(self, body, tmp_path, monkeypatch, capsys):
        manifest, scores = write_eval_fixture(tmp_path)
        argv = ["evaluate", "--manifest", str(manifest),
                "--scores", str(scores)]
        assert main(argv) == 0
        expected = capsys.readouterr().out
        config = tmp_path / "cfg.txt"
        config.write_text(body + "\n")
        monkeypatch.setenv("LAUNDERBENCH_CONFIG", str(config))
        assert main(argv) == 0
        assert capsys.readouterr().out == expected


class TestLaunder:
    def test_ten_file_fixture(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        out = tmp_path / "out"
        rc = main(launder_argv(corpus, out))
        assert rc == 0
        records = manifest_records((out / "augmented.manifest").read_text())
        assert len(records) == 19
        flacs = sorted(p for p in out.rglob("*.flac"))
        assert len(flacs) == 9
        summary = read_summary(out)
        assert summary["selected"] == "1"
        assert summary["jobs_total"] == "9"
        assert summary["jobs_succeeded"] == "9"
        assert summary["jobs_failed"] == "0"
        for scoring_key in ("invert_scores", "join", "format", "c_miss",
                            "c_fa", "pi_spoof"):
            assert scoring_key not in summary
        assert summary["backend"] == "external"
        assert summary["python"] == platform.python_version()
        assert summary["numpy"] == np.__version__
        assert "scipy" not in summary
        assert summary["manifest_total"] == "10"
        assert summary["manifest_bonafide"] == "5"
        assert summary["manifest_spoof"] == "5"
        assert "laundered 9/9" in capsys.readouterr().err

    def test_source_at_another_rate_than_the_noise(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, n_files=1)
        x = 0.3 * np.sin(2 * np.pi * 300.0 * np.arange(2756) / 22050.0)
        write_audio(AudioBuffer(x, 22050), corpus["audio_root"] / "u0000.flac")
        out = tmp_path / "out"
        assert main(launder_argv(corpus, out, ["--fraction", "1.0"])) == 0
        assert "laundered 9/9" in capsys.readouterr().err

    def test_augmented_manifest_is_pinned(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, n_files=4)
        corpus["manifest"].write_text(
            "\ufeff# golden launder input\n"
            "u0000\tbonafide\t-\tC00\tu0000.flac\n"
            "\n"
            "u0001 spoof  A18\tC01 u0001.flac   # trailing comment\n"
            "   \n"
            "\tu0002 bonafide - C02 u0002.flac#tight comment\n"
            "u0003  spoof A20 C00  u0003.flac\n", encoding="utf-8")
        out = tmp_path / "out"
        argv = ["--fraction", "0.5", "--seed", "3", "--jobs", "1"]
        assert main(launder_argv(corpus, out, argv)) == 0
        text = (out / "augmented.manifest").read_bytes()
        # recorded from the per-record launder front end this replaced
        assert hashlib.sha256(text).hexdigest() == (
            "f5980e20c2dbd49b8861986c12b93a9289c5f43dcf60a0dd529bd4393396fb21")

    def test_no_codec_backend_fails_recompression_only(
            self, tmp_path, capsys, monkeypatch):
        reports = []
        execute_plan = cli.execute_plan

        def recording_execute_plan(*args, **kwargs):
            reports.append(execute_plan(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(cli, "execute_plan", recording_execute_plan)
        corpus = write_corpus(tmp_path)
        out = tmp_path / "out"
        argv = launder_argv(corpus, out, ["--fraction", "0.3"])
        del argv[argv.index("--encode-cmd"):argv.index("--decode-cmd") + 2]
        assert main(argv) == 2
        warning = [line for line in capsys.readouterr().err.splitlines()
                   if line.startswith("warning:")]
        assert len(warning) == 1
        assert "--encode-cmd" in warning[0] and "--decode-cmd" in warning[0]
        assert read_summary(out)["backend"] == "none"
        failures = reports[0].failures
        assert len(failures) == 3
        for job, error in failures:
            assert job.spec.kind == "recompression"
            assert type(error) is InvalidParameter

    @pytest.mark.parametrize("flag", ["--encode-cmd", "--decode-cmd"])
    def test_one_codec_flag_is_a_usage_error(self, tmp_path, capsys, flag):
        corpus = write_corpus(tmp_path)
        out = tmp_path / "out"
        argv = launder_argv(corpus, out)
        del argv[argv.index(flag):argv.index(flag) + 2]
        assert main(argv) == 1
        assert "--encode-cmd and --decode-cmd must be given together" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_missing_noise_asset_fails_fast(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        (corpus["noise_dir"] / "street.wav").unlink()
        out = tmp_path / "out"
        rc = main(launder_argv(corpus, out))
        assert rc == 1
        assert "street" in capsys.readouterr().err
        assert not out.exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        corpus = write_corpus(tmp_path)
        outs = (tmp_path / "out1", tmp_path / "out2")
        for out in outs:
            assert main(launder_argv(corpus, out, ["--seed", "5"])) == 0
        a, b = (sorted((out / "augmented.manifest").read_text().splitlines())
                for out in outs)
        assert a == b
        rel = sorted(p.relative_to(outs[0])
                     for p in outs[0].rglob("*.flac"))
        assert rel
        for r in rel:
            assert (outs[0] / r).read_bytes() == (outs[1] / r).read_bytes()

    def test_partial_failure_exits_two(self, tmp_path):
        corpus = write_corpus(tmp_path, n_files=2)
        manifest = corpus["manifest"]
        manifest.write_text(manifest.read_text()
                            + "u9999 spoof A17 C00 missing.flac\n")
        out = tmp_path / "out"
        rc = main(launder_argv(corpus, out, ["--fraction", "1.0"]))
        assert rc == 2
        summary = read_summary(out)
        assert summary["jobs_failed"] == "9"
        assert summary["jobs_succeeded"] == "18"

    def test_corrupt_source_exits_two(self, tmp_path):
        corpus = write_corpus(tmp_path, n_files=1)
        x = np.random.default_rng(2).integers(-10, 11, 4800)
        blob = bytearray(flacio.encode_flac(x, 16000, blocksize=1000))
        blob[50] = 97                # first subframe: LPC order 17, overflows
        (corpus["audio_root"] / "bad.flac").write_bytes(blob)
        manifest = corpus["manifest"]
        manifest.write_text(manifest.read_text()
                            + "u9999 spoof A17 C00 bad.flac\n")
        out = tmp_path / "out"
        assert main(launder_argv(corpus, out, ["--fraction", "1.0"])) == 2
        summary = read_summary(out)
        assert summary["jobs_failed"] == summary["jobs_succeeded"] == "9"
        assert (out / "augmented.manifest").exists()

    def test_missing_manifest_flag(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        argv = launder_argv(corpus, tmp_path / "out")
        del argv[argv.index("--manifest"):argv.index("--manifest") + 2]
        assert main(argv) == 1
        assert "--manifest" in capsys.readouterr().err

    def test_zero_selection(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        rc = main(launder_argv(corpus, tmp_path / "out",
                               ["--fraction", "0.01"]))
        assert rc == 1

    def test_malformed_manifest(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        corpus["manifest"].write_text("u1 bonafide A17 C00 p\n")
        rc = main(launder_argv(corpus, tmp_path / "out"))
        assert rc == 1
        assert "line 1" in capsys.readouterr().err

    def test_non_utf8_manifest(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        corpus["manifest"].write_bytes(b"u\xff0 bonafide - C00 u0000.flac\n")
        assert main(launder_argv(corpus, tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --manifest ")
        assert "UTF-8" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", [["--jobs", "0"], ["--fraction", "2"]])
    def test_refused_setting_writes_nothing(self, tmp_path, capsys, flag):
        corpus = write_corpus(tmp_path)
        sources = sorted(tmp_path.rglob("*.flac"))
        out = tmp_path / "out"
        assert main(launder_argv(corpus, out, flag)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        if flag[0] == "--jobs":
            assert err == "error: --jobs must be at least 1, got 0\n"
        assert not out.exists()
        assert sorted(tmp_path.rglob("*.flac")) == sources

    def test_escaping_id_writes_nothing(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        sources = sorted(tmp_path.rglob("*.flac"))
        corpus["manifest"].write_text(
            "../../evil bonafide - C00 u0000.flac\n")
        # deep enough that an escape would still land under tmp_path
        out = tmp_path / "a" / "b" / "out"
        assert main(launder_argv(corpus, out, ["--fraction", "1.0"])) == 1
        assert "outside the output directory" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()
        assert sorted(tmp_path.rglob("*.flac")) == sources

    def test_ids_writing_one_file_write_nothing(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        sources = sorted(tmp_path.rglob("*.flac"))
        corpus["manifest"].write_text(
            "a/b bonafide - C00 u0000.flac\n"
            "a/./b spoof A17 C00 u0001.flac\n"
            "a//b bonafide - C00 u0002.flac\n")
        out = tmp_path / "out"
        assert main(launder_argv(corpus, out, ["--fraction", "1.0"])) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: utterance ids 'a/./b' and 'a//b' would "
                              "write the same file")
        assert not out.exists()
        assert sorted(tmp_path.rglob("*.flac")) == sources

    def test_relaunder_clash_writes_nothing(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        first = tmp_path / "first"
        argv = ["--fraction", "1.0", "--seed", "3"]
        assert main(launder_argv(corpus, first, argv)) == 0
        outputs = sorted(first.rglob("*.flac"))
        augmented = first / "augmented.manifest"
        capsys.readouterr()
        # the same seed plans every output id of the first run again
        again = dict(corpus, manifest=augmented)
        second = tmp_path / "second"
        assert main(launder_argv(again, second, argv)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: output id ")
        named = err.split("'")[1]
        records = manifest_records(augmented.read_text())
        assert named in [r.utterance_id for r in records[10:]]
        assert not second.exists()
        assert sorted(first.rglob("*.flac")) == outputs

    def test_jobs_do_not_change_outputs(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, n_files=3)
        manifest = corpus["manifest"]
        manifest.write_text(manifest.read_text()
                            + "u9999 spoof A17 C00 missing.flac\n")
        out = tmp_path / "out"
        runs = {}
        for jobs in ("1", "2"):
            argv = ["--fraction", "1.0", "--seed", "9", "--jobs", jobs]
            assert main(launder_argv(corpus, out, argv)) == 2
            err = capsys.readouterr().err
            failed = [line for line in err.splitlines()
                      if line.startswith("failed ")]
            summary = read_summary(out)
            runs[jobs] = (out.rename(tmp_path / f"j{jobs}"), failed, summary)
        (j1, failed1, summary1), (j2, failed2, summary2) = runs.values()
        assert len(failed1) == 9
        assert failed1 == failed2
        assert summary1.pop("parallelism") == "1"
        assert summary2.pop("parallelism") == "2"
        assert summary1 == summary2
        names = sorted(p.relative_to(j1) for p in j1.rglob("*")
                       if p.is_file())
        assert sorted(p.relative_to(j2) for p in j2.rglob("*")
                      if p.is_file()) == names
        assert sum(1 for n in names if "_recompression_" in n.name) == 3
        for name in names:
            if name.name != "run_summary.txt":
                assert (j1 / name).read_bytes() == (j2 / name).read_bytes()

    def test_dead_worker_writes_no_manifest(self, tmp_path, capsys,
                                            monkeypatch):
        corpus = write_corpus(tmp_path, n_files=3)
        doomed = plan_attacks(manifest_records(corpus["manifest"].read_text()),
                              seed=0)[13].job_seed
        parent = os.getpid()
        apply_attack = pipeline.apply_attack

        def dying_attack(buf, spec, job_seed, **kwargs):
            if job_seed == doomed:
                assert os.getpid() != parent, "job ran inline"
                os._exit(7)
            return apply_attack(buf, spec, job_seed, **kwargs)

        monkeypatch.setattr(pipeline, "apply_attack", dying_attack)
        out = tmp_path / "out"
        argv = ["--fraction", "1.0", "--seed", "0", "--jobs", "2"]
        assert main(launder_argv(corpus, out, argv)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: a worker process died")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (out / "augmented.manifest").exists()
        assert not (out / "run_summary.txt").exists()
        assert_no_child_left()

    def test_killed_worker_leaves_no_codec_scratch(self, tmp_path, capsys,
                                                   monkeypatch):
        # u0000 and u0002 go to the first worker, u0001 to the second; the
        # second sleeps in its first encode while the first worker dies
        corpus = write_corpus(tmp_path, n_files=3)
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        marker = tmp_path / "encoding"
        stub = tmp_path / "slow_encode.py"
        stub.write_text("import os, time\n"
                        f"open({str(marker)!r}, 'w').write(str(os.getpid()))\n"
                        "time.sleep(30)\n")
        corpus["encode_cmd"] = (f"{sys.executable} {stub} {{in}} {{out}} "
                                f"{{bitrate_kbps}}")
        doomed = plan_attacks(manifest_records(corpus["manifest"].read_text()),
                              seed=0)[0].job_seed
        parent = os.getpid()
        apply_attack = pipeline.apply_attack

        def dying_attack(buf, spec, job_seed, **kwargs):
            if job_seed == doomed:
                assert os.getpid() != parent, "job ran inline"
                deadline = time.monotonic() + 30
                while not marker.exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
                os._exit(7)
            return apply_attack(buf, spec, job_seed, **kwargs)

        monkeypatch.setattr(pipeline, "apply_attack", dying_attack)
        argv = ["--fraction", "1.0", "--seed", "0", "--jobs", "2"]
        assert main(launder_argv(corpus, tmp_path / "out", argv)) == 1
        assert capsys.readouterr().err.startswith(
            "error: a worker process died")
        assert not list(scratch.glob("launder-codec-*"))
        assert_no_child_left()
        with pytest.raises(ProcessLookupError):
            os.kill(int(marker.read_text()), 0)    # the encoder is gone

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_codec_command_that_never_exits_fails_its_job(
            self, tmp_path, capsys, monkeypatch, jobs):
        # each encode starts a grandchild that holds its stderr pipe, then
        # sleeps past the bound, which is 1 s here
        corpus = write_corpus(tmp_path, n_files=2)
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(audio, "CODEC_FLOOR_S", 1.0)
        monkeypatch.setattr(audio, "CODEC_PER_AUDIO_S", 0.0)
        pids = tmp_path / "pids"
        stub = tmp_path / "hang.py"
        stub.write_text(
            "import os, subprocess, sys, time\n"
            "child = subprocess.Popen([sys.executable, '-c', "
            "'import time; time.sleep(60)'])\n"
            f"with open({str(pids)!r}, 'a') as f:\n"
            "    f.write(f'{os.getpid()} {child.pid}\\n')\n"
            "time.sleep(60)\n")
        corpus["encode_cmd"] = (f"{sys.executable} {stub} {{in}} {{out}} "
                                f"{{bitrate_kbps}}")
        argv = ["--fraction", "1.0", "--jobs", jobs]
        started = time.monotonic()
        assert main(launder_argv(corpus, tmp_path / "out", argv)) == 2
        assert time.monotonic() - started < 30
        err = capsys.readouterr().err
        assert err.count("encode command did not exit within its bound "
                         "of 1.0 s") == 2
        assert "laundered 16/18 jobs" in err
        assert_no_child_left()
        assert not list(scratch.glob("launder-codec-*"))
        started = pids.read_text().split()
        assert len(started) == 4
        for pid in map(int, started):
            assert ended(pid)

    def test_failed_fork_is_an_error_and_leaks_no_descriptor(
            self, tmp_path, capsys, monkeypatch):
        def no_fork():
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        corpus = write_corpus(tmp_path, n_files=3)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "fork", no_fork)
        fds = sorted(os.listdir("/proc/self/fd"))
        argv = ["--fraction", "1.0", "--jobs", "2"]
        assert main(launder_argv(corpus, tmp_path / "out", argv)) == 1
        assert sorted(os.listdir("/proc/self/fd")) == fds
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "out" / "augmented.manifest").exists()

    def test_no_worker_outlives_a_run(self, tmp_path):
        corpus = write_corpus(tmp_path, n_files=3)
        argv = ["--fraction", "1.0", "--jobs", "2"]
        assert main(launder_argv(corpus, tmp_path / "ok", argv)) == 0
        assert_no_child_left()
        manifest = corpus["manifest"]
        manifest.write_text(manifest.read_text()
                            + "u9999 spoof A17 C00 missing.flac\n")
        assert main(launder_argv(corpus, tmp_path / "part", argv)) == 2
        assert_no_child_left()

    def test_worker_exception_comes_back_as_its_type(self, tmp_path,
                                                     monkeypatch):
        # raised outside the per-job handlers, which catch toolkit and OS
        # errors only
        corpus = write_corpus(tmp_path, n_files=3)
        parent = os.getpid()

        def failing_attack(*args, **kwargs):
            assert os.getpid() != parent, "job ran inline"
            raise AssertionError("raised in a worker")

        monkeypatch.setattr(pipeline, "apply_attack", failing_attack)
        argv = ["--fraction", "1.0", "--jobs", "2"]
        with pytest.raises(AssertionError, match="raised in a worker"):
            main(launder_argv(corpus, tmp_path / "out", argv))
        assert not (tmp_path / "out" / "augmented.manifest").exists()
        assert_no_child_left()

    @pytest.mark.parametrize("fmt", ["flac", "wav16"])
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_empty_source_fails_only_its_noise_jobs(self, tmp_path, capsys,
                                                    jobs, fmt):
        corpus = write_corpus(tmp_path, n_files=2)
        write_audio(AudioBuffer(np.zeros(0), 16000),
                    corpus["audio_root"] / "empty.audio", format=fmt)
        manifest = corpus["manifest"]
        manifest.write_text(manifest.read_text()
                            + "u9999 spoof A17 C00 empty.audio\n")
        out = tmp_path / "out"
        argv = ["--fraction", "1.0", "--jobs", jobs]
        assert main(launder_argv(corpus, out, argv)) == 2
        summary = read_summary(out)
        assert summary["jobs_failed"] == "5"
        assert summary["jobs_succeeded"] == "22"
        err = capsys.readouterr().err
        assert "Traceback" not in err
        failed = [line for line in err.splitlines()
                  if line.startswith("failed ")]
        assert len(failed) == 5
        assert all(line.startswith("failed u9999_") for line in failed)
        kept = [r.utterance_id for r in manifest_records(
            (out / "augmented.manifest").read_text())]
        assert sorted(i.split("_")[1] for i in kept if "u9999_" in i) == [
            "lowpass", "recompression", "resampling", "reverberation"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_nul_in_source_path_fails_its_jobs(self, tmp_path, capsys,
                                               jobs):
        corpus = write_corpus(tmp_path, n_files=2)
        manifest = corpus["manifest"]
        manifest.write_text(manifest.read_text()
                            + "u9999 spoof A17 C00 u0000\x00.flac\n")
        out = tmp_path / "out"
        argv = ["--fraction", "1.0", "--jobs", jobs]
        assert main(launder_argv(corpus, out, argv)) == 2
        summary = read_summary(out)
        assert summary["jobs_failed"] == "9"
        assert summary["jobs_succeeded"] == "18"
        err = capsys.readouterr().err
        assert "Traceback" not in err
        failed = [line for line in err.splitlines()
                  if line.startswith("failed ")]
        assert len(failed) == 9
        assert all(line.startswith("failed u9999_") and "cannot read" in line
                   for line in failed)

    def test_nul_in_id_writes_nothing(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        sources = sorted(tmp_path.rglob("*.flac"))
        corpus["manifest"].write_text("u\x001 bonafide - C00 u0000.flac\n")
        out = tmp_path / "out"
        assert main(launder_argv(corpus, out, ["--fraction", "1.0"])) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: utterance id 'u\\x001' holds a NUL")
        assert "Traceback" not in err
        assert not out.exists()
        assert sorted(tmp_path.rglob("*.flac")) == sources


def write_eval_fixture(root, bon=(1.0, 2.0), spf=(-2.0, -1.0)):
    lines, scores = [], []
    for i, s in enumerate(bon):
        lines.append(f"b{i:03d} bonafide - C00 p")
        scores.append(f"b{i:03d} {s}")
    for i, s in enumerate(spf):
        lines.append(f"s{i:03d} spoof A17 C0{i % 2} p")
        scores.append(f"s{i:03d} {s}")
    manifest = root / "eval.manifest"
    manifest.write_text("".join(ln + "\n" for ln in lines))
    score_file = root / "scores.txt"
    score_file.write_text("".join(ln + "\n" for ln in scores))
    return manifest, score_file


class TestEvaluate:
    def test_separable(self, tmp_path, capsys):
        manifest, scores = write_eval_fixture(tmp_path)
        rc = main(["evaluate", "--manifest", str(manifest),
                   "--scores", str(scores)])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert [ln.split("=")[0] for ln in out] == [
            "min_dcf", "act_dcf", "cllr", "eer", "n_bon", "n_spf"]
        values = dict(ln.split("=") for ln in out)
        assert values["eer"] == "0.000000"
        assert values["min_dcf"] == "0.000000"
        assert values["n_bon"] == "2"
        assert values["n_spf"] == "2"

    def test_gaussian_fixture(self, tmp_path, capsys):
        s = gaussian_scores(30_000, 30_000, 1.0, -1.0, 1.0, seed=17)
        lines, scores = [], []
        for i, v in enumerate(s.bonafide):
            lines.append(f"b{i:06d} bonafide - C00 p")
            scores.append(f"b{i:06d} {v}")
        for i, v in enumerate(s.spoof):
            lines.append(f"s{i:06d} spoof A17 C00 p")
            scores.append(f"s{i:06d} {v}")
        manifest = tmp_path / "g.manifest"
        manifest.write_text("".join(ln + "\n" for ln in lines))
        score_file = tmp_path / "g.scores"
        score_file.write_text("".join(ln + "\n" for ln in scores))
        rc = main(["evaluate", "--manifest", str(manifest),
                   "--scores", str(score_file)])
        assert rc == 0
        out = dict(ln.split("=")
                   for ln in capsys.readouterr().out.splitlines())
        assert abs(float(out["eer"]) - 15.866) < 0.8

    def test_nan_score_cites_line(self, tmp_path, capsys):
        manifest, scores = write_eval_fixture(tmp_path)
        scores.write_text("b000 1.0\nb001 nan\ns000 0.0\ns001 0.0\n")
        rc = main(["evaluate", "--manifest", str(manifest),
                   "--scores", str(scores)])
        assert rc == 1
        assert "line 2" in capsys.readouterr().err

    def test_ids_differing_in_trailing_nuls_stay_apart(self, tmp_path,
                                                      capsys):
        manifest = tmp_path / "nul.manifest"
        manifest.write_text("a bonafide - C0 p\na\x00 spoof A1 C0 p\n"
                            "a\x00\x00 bonafide - C0 p\nb spoof A1 C0 p\n")
        scores = tmp_path / "nul.scores"
        scores.write_text("a\x00 1.0\nb -1.0\na\x00\x00 0.5\na 2.0\n")
        argv = ["evaluate", "--manifest", str(manifest),
                "--scores", str(scores)]
        assert main(argv) == 0
        assert capsys.readouterr().out == (
            "min_dcf=0.500000\nact_dcf=0.500000\ncllr=0.803411\n"
            "eer=50.000000\nn_bon=2\nn_spf=2\n")
        scores.write_text("a 1.0\nb -1.0\na\x00\x00 0.5\n")
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: 1 trial(s) without a score, e.g. ['a\\x00']\n")

    def test_invert_scores(self, tmp_path, capsys):
        manifest, scores = write_eval_fixture(tmp_path, bon=(-3.0, -2.0),
                                              spf=(2.0, 3.0))
        argv = ["evaluate", "--manifest", str(manifest),
                "--scores", str(scores)]
        main(argv)
        assert dict(ln.split("=") for ln in
                    capsys.readouterr().out.splitlines())["eer"] == \
            "100.000000"
        main(argv + ["--invert-scores"])
        assert dict(ln.split("=") for ln in
                    capsys.readouterr().out.splitlines())["eer"] == \
            "0.000000"

    def test_strict_join_missing_score(self, tmp_path, capsys):
        manifest, scores = write_eval_fixture(tmp_path)
        scores.write_text("b000 1.0\n")
        rc = main(["evaluate", "--manifest", str(manifest),
                   "--scores", str(scores)])
        assert rc == 1
        assert "without a score" in capsys.readouterr().err

    def test_intersect_join_drops(self, tmp_path, capsys):
        manifest, scores = write_eval_fixture(tmp_path)
        scores.write_text("b000 1.0\nb001 2.0\ns000 -1.0\ns001 -2.0\n"
                          "zzz 0.5\n")
        with pytest.warns(UserWarning, match="dropped 1"):
            rc = main(["evaluate", "--manifest", str(manifest),
                       "--scores", str(scores), "--join", "intersect"])
        assert rc == 0

    def test_single_class_is_an_input_error(self, tmp_path, capsys):
        manifest, scores = write_eval_fixture(tmp_path, spf=())
        rc = main(["evaluate", "--manifest", str(manifest),
                   "--scores", str(scores)])
        assert rc == 1
        assert "one bonafide and one spoof" in capsys.readouterr().err

    def test_non_finite_cost_is_an_input_error(self, tmp_path, capsys):
        manifest, scores = write_eval_fixture(tmp_path)
        rc = main(["evaluate", "--manifest", str(manifest),
                   "--scores", str(scores), "--c-miss", "inf"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", [["--c-fa", "-inf"], ["--c-fa=-inf"]])
    def test_negative_cost_is_an_input_error(self, tmp_path, capsys, flag):
        # argparse reads "-inf" after a space as a flag, so that form
        # fails as a usage error; a leading "-" is never a valid cost
        manifest, scores = write_eval_fixture(tmp_path)
        rc = main(["evaluate", "--manifest", str(manifest),
                   "--scores", str(scores), *flag])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    def test_non_utf8_scores(self, tmp_path, capsys):
        manifest, scores = write_eval_fixture(tmp_path)
        scores.write_bytes(b"b000 1.0\nb001 \xff\n")
        rc = main(["evaluate", "--manifest", str(manifest),
                   "--scores", str(scores)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --scores {scores} is not UTF-8")
        assert "Traceback" not in err

    def test_cllr_near_the_largest_double(self, tmp_path, capsys):
        manifest, scores = write_eval_fixture(tmp_path, bon=(1.0,),
                                              spf=(1e308, 1e308))
        rc = main(["evaluate", "--manifest", str(manifest),
                   "--scores", str(scores)])
        out, err = capsys.readouterr()
        assert (rc, err) == (0, "")
        cllr = float(dict(ln.split("=") for ln in out.splitlines())["cllr"])
        assert cllr == pytest.approx(1e308 / (2.0 * np.log(2.0)), rel=1e-12)

    def test_empty_intersection(self, tmp_path, capsys):
        manifest, scores = write_eval_fixture(tmp_path)
        scores.write_text("zzz 0.5\n")
        with pytest.warns(UserWarning):
            rc = main(["evaluate", "--manifest", str(manifest),
                       "--scores", str(scores), "--join", "intersect"])
        assert rc == 1


class TestReport:
    def fixture(self, root):
        # attack Abad inseparable, Amid partial, Agood separable
        lines, scores = [], []
        for i in range(4):
            lines.append(f"b{i:03d} bonafide - C0{i % 2} p")
            scores.append(f"b{i:03d} {2.0 + i}")
        spoof_scores = {"Abad": (4.0, 5.0), "Amid": (2.5, -1.0),
                        "Agood": (-5.0, -4.0)}
        i = 0
        for attack, values in spoof_scores.items():
            for v in values:
                lines.append(f"s{i:03d} spoof {attack} C0{i % 2} p")
                scores.append(f"s{i:03d} {v}")
                i += 1
        manifest = root / "r.manifest"
        manifest.write_text("".join(ln + "\n" for ln in lines))
        score_file = root / "r.scores"
        score_file.write_text("".join(ln + "\n" for ln in scores))
        return manifest, score_file

    def test_writes_files_and_ranks(self, tmp_path, capsys):
        manifest, scores = self.fixture(tmp_path)
        out = tmp_path / "rep"
        rc = main(["report", "--manifest", str(manifest),
                   "--scores", str(scores), "--out", str(out)])
        assert rc == 0
        names = {p.name for p in out.iterdir()}
        assert names == {
            "report_pooled.tsv", "report_by_attack.tsv",
            "report_by_codec.tsv", "report_skipped.txt", "report_summary.txt",
            "report_grid_min_dcf.tsv", "report_grid_act_dcf.tsv",
            "report_grid_cllr.tsv", "report_grid_eer.tsv"}
        stdout = capsys.readouterr().out.splitlines()
        assert len(stdout) == 8
        worst = dict(ln.split("=") for ln in stdout)
        assert worst["worst_min_dcf_by_attack"].split(",")[0] == "Abad"
        assert worst["worst_min_dcf_by_attack"].split(",")[-1] == "Agood"
        assert len(worst["worst_eer_by_codec"].split(",")) == 2

    def test_cllr_near_the_largest_double(self, tmp_path, capsys):
        # TestEvaluate's fixture: the pooled and attack cells hold both
        # 1e308 spoof terms, whose sum overflows, and codec C00 one of them
        manifest, scores = write_eval_fixture(tmp_path, bon=(1.0,),
                                              spf=(1e308, 1e308))
        out = tmp_path / "rep"
        rc = main(["report", "--manifest", str(manifest),
                   "--scores", str(scores), "--out", str(out)])
        err = capsys.readouterr().err
        assert (rc, err) == (0, f"wrote 8 report files under {out}\n")
        want = 0.5 * (np.log1p(np.exp(-1.0)) + 1e308) / np.log(2.0)
        for name in ("pooled", "by_attack", "by_codec"):
            row = (out / f"report_{name}.tsv").read_text().splitlines()[1]
            assert float(row.split("\t")[4]) == pytest.approx(
                want, rel=1e-12), name

    def test_summary_strict(self, tmp_path):
        manifest, scores = self.fixture(tmp_path)
        out = tmp_path / "rep"
        assert main(["report", "--manifest", str(manifest),
                     "--scores", str(scores), "--out", str(out)]) == 0
        assert (out / "report_summary.txt").read_text() == (
            f"command=report\nmanifest={manifest}\nscores={scores}\n"
            "trials_kept=10\nunscored_trials=0\norphan_scores=0\n"
            "skipped_cells=0\njoin=strict\ninvert_scores=False\n"
            "c_miss=1.0\nc_fa=10.0\npi_spoof=0.05\n"
            f"python={platform.python_version()}\nnumpy={np.__version__}\n")

    def test_summary_counts_intersect_drops(self, tmp_path):
        manifest, scores = self.fixture(tmp_path)
        kept = [ln for ln in scores.read_text().splitlines()
                if not ln.startswith(("b001", "b003"))]
        scores.write_text("".join(ln + "\n" for ln in kept + ["zzz 0.5"]))
        out = tmp_path / "rep"
        with pytest.warns(UserWarning, match="dropped 3"):
            rc = main(["report", "--manifest", str(manifest),
                       "--scores", str(scores), "--out", str(out),
                       "--join", "intersect", "--invert-scores",
                       "--c-fa", "5"])
        assert rc == 0
        summary = dict(ln.split("=", 1) for ln in
                       (out / "report_summary.txt").read_text().splitlines())
        # both C01 bonafide trials are unscored, so every C01 cell is
        # skipped: (*, C01) and the three attacks' (A, C01)
        assert {k: summary[k] for k in (
            "trials_kept", "unscored_trials", "orphan_scores",
            "skipped_cells", "join", "invert_scores", "c_fa", "python",
            "numpy")} == {
            "trials_kept": "8", "unscored_trials": "2", "orphan_scores": "1",
            "skipped_cells": "4", "join": "intersect",
            "invert_scores": "True", "c_fa": "5.0",
            "python": platform.python_version(), "numpy": np.__version__}
        assert len((out / "report_skipped.txt").read_text().splitlines()) \
            == 4

    def test_grid_file_shape(self, tmp_path):
        manifest, scores = self.fixture(tmp_path)
        out = tmp_path / "rep"
        main(["report", "--manifest", str(manifest), "--scores", str(scores),
              "--out", str(out), "--format", "csv"])
        lines = (out / "report_grid_eer.csv").read_text().splitlines()
        assert lines[0].split(",") == ["attack", "C00", "C01"]
        assert len(lines) == 4
        assert all(len(ln.split(",")) == 3 for ln in lines)

    def test_non_utf8_manifest(self, tmp_path, capsys):
        manifest, scores = self.fixture(tmp_path)
        manifest.write_bytes(manifest.read_bytes() + b"\xff\n")
        rc = main(["report", "--manifest", str(manifest),
                   "--scores", str(scores), "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --manifest {manifest} is not UTF-8")
        assert "Traceback" not in err
        assert not (tmp_path / "x").exists()

    def test_parse_failure(self, tmp_path, capsys):
        manifest, scores = self.fixture(tmp_path)
        scores.write_text("oops\n")
        rc = main(["report", "--manifest", str(manifest),
                   "--scores", str(scores), "--out", str(tmp_path / "x")])
        assert rc == 1
        assert not (tmp_path / "x").exists()

    def test_unrenderable_table_makes_no_out_dir(self, tmp_path, capsys):
        manifest, scores = write_eval_fixture(tmp_path, spf=())
        rc = main(["report", "--manifest", str(manifest),
                   "--scores", str(scores), "--out", str(tmp_path / "x")])
        assert rc == 1
        assert capsys.readouterr().err == "error: table holds no pooled cell\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("end,bom", [("\r\n", b""), ("\r", b""),
                                         ("\r\n", codecs.BOM_UTF8)])
    def test_line_ends_and_bom_read_as_lf(self, tmp_path, capsys, end, bom):
        # CR ends a line as LF does and the BOM is dropped before the
        # tokenizer, so these files never reach the per-line readers and
        # every output is byte-identical to the LF files'
        manifest, scores = self.fixture(tmp_path)
        argv = ["--manifest", str(manifest), "--scores", str(scores)]

        def run(out):
            assert main(["evaluate", *argv]) == 0
            assert main(["report", *argv, "--out", str(out)]) == 0
            return (capsys.readouterr().out,
                    {p.name: p.read_bytes() for p in out.iterdir()})

        want = run(tmp_path / "lf")
        for path in (manifest, scores):
            path.write_bytes(
                bom + path.read_bytes().replace(b"\n", end.encode()))
        with mock.patch.object(protocol, "_manifest_lines",
                               side_effect=AssertionError), \
                mock.patch.object(protocol, "_score_lines",
                                  side_effect=AssertionError):
            assert run(tmp_path / "cr") == want


class TestByteOrderMark:
    def test_bom_is_not_read_into_the_first_id(self, tmp_path, capsys):
        manifest, scores = write_eval_fixture(tmp_path)
        # the two files start with different ids, so a BOM read into
        # either first id leaves a trial without a score
        lines = scores.read_text().splitlines(keepends=True)
        scores.write_text("".join(reversed(lines)))
        argv = ["evaluate", "--manifest", str(manifest),
                "--scores", str(scores)]
        assert main(argv) == 0
        expected = capsys.readouterr().out
        for path in (manifest, scores):
            path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        assert main(argv) == 0
        assert capsys.readouterr().out == expected

        corpus = write_corpus(tmp_path, n_files=2)
        source = corpus["manifest"]
        source.write_bytes(codecs.BOM_UTF8 + source.read_bytes())
        out = tmp_path / "out"
        assert main(launder_argv(corpus, out, ["--fraction", "1.0"])) == 0
        records = manifest_records((out / "augmented.manifest").read_text())
        assert len(records) == 20
        assert not any("\ufeff" in r.utterance_id for r in records)
        assert not any("\ufeff" in str(p) for p in out.rglob("*"))


class TestTextOutputs:
    """Every text file in --out is UTF-8 bytes written by audio.write_file."""

    def report_fixture(self, root):
        manifest, scores = write_eval_fixture(root)
        manifest.write_bytes(manifest.read_bytes().replace(
            b"s001 spoof A17", "s001 spoof A\u00e9".encode()))
        return manifest, scores

    def outputs(self, argv, out, env_update=None):
        done = fresh_python("import sys\n"
                            "from launderbench import cli\n"
                            f"sys.exit(cli.main({argv!r}))\n", env_update)
        files = {p.relative_to(out): p.read_bytes()
                 for p in sorted(out.rglob("*")) if p.is_file()}
        shutil.rmtree(out)
        return done.returncode, done.stdout, done.stderr, files

    @pytest.mark.parametrize("command", ["launder", "report"])
    def test_non_utf8_locale_writes_the_same_bytes(self, tmp_path, command):
        out = tmp_path / "out"
        if command == "launder":
            corpus = write_corpus(tmp_path)
            path = corpus["manifest"]
            path.write_bytes(path.read_bytes().replace(
                b" A18 ", " A\u00e9 ".encode()))
            argv = launder_argv(corpus, out, ["--jobs", "1"])
        else:
            manifest, scores = self.report_fixture(tmp_path)
            argv = ["report", "--manifest", str(manifest),
                    "--scores", str(scores), "--out", str(out)]
        want = self.outputs(argv, out)
        assert want[0] == 0, want[2]
        text = want[3][Path("augmented.manifest" if command == "launder"
                            else "report_by_attack.tsv")]
        assert "A\u00e9".encode() in text
        ascii_locale = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0",
                        "PYTHONUTF8": "0"}
        assert self.outputs(argv, out, ascii_locale) == want

    @pytest.mark.parametrize("stage", ["mid-file", "rename"])
    @pytest.mark.parametrize("name", ["augmented.manifest",
                                      "report_by_attack.tsv"])
    def test_failed_write_leaves_the_previous_file(self, tmp_path, capsys,
                                                   monkeypatch, name, stage):
        out = tmp_path / "out"
        if name == "augmented.manifest":
            corpus = write_corpus(tmp_path)

            def run(seed):
                return main(launder_argv(corpus, out,
                                         ["--jobs", "1", "--seed", seed]))
        else:
            manifest, scores = self.report_fixture(tmp_path)

            def run(seed):
                # seed "1" reads the scores in the opposite sense
                return main(["report", "--manifest", str(manifest),
                             "--scores", str(scores), "--out", str(out)]
                            + ["--invert-scores"] * (seed == "1"))
        assert run("1") == 0
        other = (out / name).read_bytes()
        assert run("0") == 0
        before = (out / name).read_bytes()
        assert other != before
        capsys.readouterr()

        class HalfThenFail(io.FileIO):
            def write(self, data):
                super().write(bytes(data)[:len(data) // 2])
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        real_open, real_replace = open, os.replace
        if stage == "mid-file":
            monkeypatch.setattr(audio, "open", lambda path, mode: (
                HalfThenFail if name in path.name else real_open)(path, mode),
                raising=False)
        else:
            def replace(src, dst):
                if Path(dst).name == name:
                    raise OSError("rename failed")
                real_replace(src, dst)

            monkeypatch.setattr(os, "replace", replace)
        assert run("1") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out / name}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert (out / name).read_bytes() == before
        assert not [p for p in out.rglob("*") if p.name.endswith(".part")]
        # the run failed, so no summary marks the directory complete
        assert not [p for p in out.iterdir()
                    if p.name.endswith("_summary.txt")]


def fork_every_scores_file(monkeypatch):
    """Sets FORK_SCORES_BYTES to 0, so that every non-empty --scores file
    is parsed in a forked child; returns the list of the children's pids,
    which grows with each fork."""
    monkeypatch.setattr(cli, "FORK_SCORES_BYTES", 0)
    pids, fork = [], os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def ended(pid, seconds=5.0):
    """Whether process pid ends within seconds; a zombie has ended."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except FileNotFoundError:
            return True
        if stat.rsplit(")", 1)[1].split()[0] in ("Z", "X"):
            return True
        time.sleep(0.01)
    return False


class TestForkedScores:
    """A --scores file above FORK_SCORES_BYTES is parsed in a forked child
    while the manifest parses: what evaluate and report print, write and
    return is what the serial path gives, and no child outlives a call."""

    def run(self, command, manifest, scores, out):
        argv = [command, "--manifest", str(manifest), "--scores", str(scores)]
        return main(argv + (["--out", str(out)] if command == "report"
                            else []))

    def test_outputs_match_the_serial_path(self, tmp_path, capfd,
                                           monkeypatch):
        manifest, scores = TestReport().fixture(tmp_path)
        out = tmp_path / "out"

        def both():
            codes = [self.run(c, manifest, scores, out)
                     for c in ("evaluate", "report")]
            files = {p.name: p.read_bytes() for p in out.iterdir()}
            shutil.rmtree(out)
            return codes, capfd.readouterr(), files

        want = both()
        pids = fork_every_scores_file(monkeypatch)
        # captured at the file descriptors: the child writes nothing
        assert both() == want
        assert len(pids) == 2
        assert_no_child_left()

    @pytest.mark.parametrize("forked", [False, True])
    @pytest.mark.parametrize("command", ["evaluate", "report"])
    def test_manifest_error_comes_first(self, tmp_path, capsys, monkeypatch,
                                        command, forked):
        manifest, scores = write_eval_fixture(tmp_path)
        out = tmp_path / "out"
        good_manifest = manifest.read_bytes()
        manifest.write_text("b000 real - C00 p\n")
        assert self.run(command, manifest, scores, out) == 1
        want = capsys.readouterr().err
        assert want.startswith("error: line 1:")
        manifest.write_bytes(good_manifest)
        scores.write_text("oops\n")
        assert self.run(command, manifest, scores, out) == 1
        assert capsys.readouterr().err.startswith("error: line 1:")

        manifest.write_text("b000 real - C00 p\n")
        pids = fork_every_scores_file(monkeypatch) if forked else []
        assert self.run(command, manifest, scores, out) == 1
        assert capsys.readouterr().err == want
        assert len(pids) == forked
        assert not out.exists()
        assert_no_child_left()

    @pytest.mark.parametrize("command", ["evaluate", "report"])
    def test_score_error_matches_the_serial_path(self, tmp_path, capsys,
                                                 monkeypatch, command):
        manifest, scores = write_eval_fixture(tmp_path)
        out = tmp_path / "out"
        scores.write_text("b000 1.0\nb001 nan\ns000 0.0\ns001 0.0\n")
        assert self.run(command, manifest, scores, out) == 1
        want = capsys.readouterr().err
        pids = fork_every_scores_file(monkeypatch)
        assert self.run(command, manifest, scores, out) == 1
        assert capsys.readouterr().err == want
        assert len(pids) == 1
        assert not out.exists()
        assert_no_child_left()

    def test_any_exception_comes_back_as_its_type(self, tmp_path,
                                                  monkeypatch):
        manifest, scores = write_eval_fixture(tmp_path)
        pids = fork_every_scores_file(monkeypatch)
        monkeypatch.setattr(cli, "parse_scores", mock.Mock(
            side_effect=AssertionError("raised in the child")))
        with pytest.raises(AssertionError, match="raised in the child"):
            self.run("evaluate", manifest, scores, None)
        assert len(pids) == 1
        assert_no_child_left()

    @pytest.mark.parametrize("command", ["evaluate", "report"])
    def test_dead_child_is_an_input_error(self, tmp_path, capsys,
                                          monkeypatch, command):
        manifest, scores = write_eval_fixture(tmp_path)
        out = tmp_path / "out"
        pids = fork_every_scores_file(monkeypatch)
        parent = os.getpid()

        def dying_parse(raw):
            assert os.getpid() != parent, "scores parsed in the parent"
            os._exit(7)

        monkeypatch.setattr(cli, "parse_scores", dying_parse)
        assert self.run(command, manifest, scores, out) == 1
        assert capsys.readouterr().err == (
            f"error: the process reading --scores {scores} died before "
            f"returning its scores\n")
        assert len(pids) == 1
        assert not out.exists()
        assert_no_child_left()

    def test_interrupt_reaps_the_child(self, tmp_path, monkeypatch):
        manifest, scores = write_eval_fixture(tmp_path)
        pids = fork_every_scores_file(monkeypatch)
        monkeypatch.setattr(cli, "parse_manifest",
                            mock.Mock(side_effect=KeyboardInterrupt))
        with pytest.raises(KeyboardInterrupt):
            self.run("evaluate", manifest, scores, None)
        assert len(pids) == 1
        assert_no_child_left()

    def test_file_up_to_the_bound_never_forks(self, tmp_path, capsys,
                                              monkeypatch):
        manifest, scores = write_eval_fixture(tmp_path)
        out = tmp_path / "out"
        monkeypatch.setattr(os, "fork",
                            mock.Mock(side_effect=AssertionError("forked")))
        monkeypatch.setattr(cli, "FORK_SCORES_BYTES", scores.stat().st_size)
        assert self.run("evaluate", manifest, scores, out) == 0
        assert self.run("report", manifest, scores, out) == 0
        # a --scores that is absent or names no file is read serially
        # and refused after the manifest, with or without a bound
        monkeypatch.setattr(cli, "FORK_SCORES_BYTES", 0)
        capsys.readouterr()
        assert main(["evaluate", "--manifest", str(manifest)]) == 1
        assert self.run("evaluate", manifest, tmp_path, out) == 1
        assert capsys.readouterr().err == (
            "error: missing required --scores\n"
            f"error: --scores {tmp_path} is not a readable file\n")
        monkeypatch.setattr(cli, "FORK_SCORES_BYTES",
                            scores.stat().st_size - 1)
        with pytest.raises(AssertionError, match="forked"):
            self.run("evaluate", manifest, scores, out)


def fresh_python(code, env_update=None, drop=()):
    """Run code in a fresh interpreter that imports this package."""
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).parents[1]),
         env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    env.update(env_update or {})
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def speech_like(rng, seconds=3.0, rate=16000):
    """Harmonics of a gliding pitch, gated into syllables, over a little
    noise: a source long enough that the transforms' products are large."""
    t = np.arange(int(seconds * rate)) / rate
    f0 = 120.0 + 30.0 * np.sin(2 * np.pi * 0.7 * t)
    phase = 2 * np.pi * np.cumsum(f0) / rate
    voiced = sum(np.sin(k * phase) / k for k in range(1, 12))
    gate = np.sin(2 * np.pi * 3.0 * t) ** 2
    x = voiced * gate + 0.05 * rng.standard_normal(len(t))
    return 0.5 * x / np.abs(x).max()


class TestImports:
    def test_launder_loads_no_scipy(self, tmp_path):
        corpus = write_corpus(tmp_path)
        argv = launder_argv(corpus, tmp_path / "out",
                            ["--jobs", "1", "--fraction", "1.0"])
        done = fresh_python(
            "import sys\n"
            "from launderbench import cli\n"
            f"assert cli.main({argv!r}) == 0\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "assert not loaded, loaded\n")
        assert done.returncode == 0, done.stderr
        assert len(list((tmp_path / "out").rglob("*.flac"))) == 90

    def test_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # one BLAS thread against the library's default (a thread per CPU):
        # the FLAC bytes, and the float outputs of the transforms on a
        # longer 44.1 kHz signal, whose products are larger still
        corpus = write_corpus(tmp_path, n_files=2)
        rng = np.random.default_rng(8)
        for i in range(2):
            write_audio(AudioBuffer(speech_like(rng), 16000),
                        corpus["audio_root"] / f"u{i:04d}.flac")
        outputs = {}
        for threads in ("1", None):
            out = tmp_path / f"out-{threads}"
            argv = launder_argv(corpus, out,
                                ["--jobs", "1", "--fraction", "1.0"])
            done = fresh_python(
                "import hashlib\n"
                "import numpy as np\n"
                "from launderbench import cli, dsp\n"
                "from launderbench.audio import AudioBuffer\n"
                f"assert cli.main({argv!r}) == 0\n"
                "x = AudioBuffer(np.random.default_rng(0).uniform("
                "-0.5, 0.5, 20 * 44100), 44100)\n"
                "c = dsp.design_butterworth_lowpass(5, 8000, 44100)\n"
                "ys = [dsp.apply_reverberation(x, 0.9, 1), "
                "dsp.apply_filter(x, c)]\n"
                "ys += [dsp.launder_resample(x, rate) "
                "for rate in dsp.TARGET_RATE_CHOICES]\n"
                "print(hashlib.sha256(b''.join(y.samples.tobytes() "
                "for y in ys)).hexdigest())\n",
                {"OPENBLAS_NUM_THREADS": threads} if threads else None,
                drop=("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
            assert done.returncode == 0, done.stderr
            outputs[threads] = done.stdout, {
                p.relative_to(out): p.read_bytes() for p in out.rglob("*")
                if p.suffix in (".flac", ".manifest")}
        assert len(outputs["1"][1]) == 19
        assert outputs["1"] == outputs[None]

    def test_scoring_leaves_scipy_signal_unloaded(self, tmp_path):
        manifest, scores = write_eval_fixture(tmp_path)
        code = ("import sys\n"
                "from launderbench import cli\n"
                f"rc = cli.main(['evaluate', '--manifest', {str(manifest)!r},"
                f" '--scores', {str(scores)!r}])\n"
                "assert rc == 0, rc\n"
                "assert 'scipy.signal' not in sys.modules\n"
                "assert 'scipy.io' not in sys.modules\n")
        done = fresh_python(code)
        assert done.returncode == 0, done.stderr


class TestNoiseCheck:
    def test_all_present(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        rc = main(["noise-check", "--noise-dir", str(corpus["noise_dir"])])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 5
        assert out[-1] == "white synthesized"
        assert any(ln.startswith("babble rate=16000") for ln in out)

    def test_missing_asset(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        (corpus["noise_dir"] / "cafe.wav").unlink()
        rc = main(["noise-check", "--noise-dir", str(corpus["noise_dir"])])
        assert rc == 1
        assert "cafe" in capsys.readouterr().err


class TestUsage:
    def test_no_arguments(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        for command in ("frobnicate", "selftest"):
            assert main([command]) == 1
            err = capsys.readouterr().err
            assert f"invalid choice: '{command}'" in err
            assert "{launder,evaluate,report,noise-check}" in err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "launder" in capsys.readouterr().out

    def test_bad_flag_value(self, capsys):
        # argparse's choices are the one check of these values
        for argv in (["report", "--format", "xml"],
                     ["evaluate", "--join", "outer"]):
            assert main(argv) == 1
            assert capsys.readouterr().err.startswith("usage: ")
