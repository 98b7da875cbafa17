"""Command-line front end.

Subcommands: launder (build the attacked copies), evaluate (scores to
pooled metrics), report (breakdown tables), noise-check (asset
validation), selftest (quick built-in correctness checks).

Configuration precedence is CLI flag > config file > default, where the
config file is key=value text named by the LAUNDERBENCH_CONFIG
environment variable.  Exit codes: 0 success, 1 usage or input error,
2 batch finished with some jobs failed.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import mp3tool
from .audio import AudioBuffer, CodecBackend, read_audio, write_audio
from .dsp import (LOADABLE_NOISES, NoiseLibrary, design_butterworth_lowpass,
                  generate_white_noise, mix_noise, synthesize_rir, resample)
from .errors import EmptyClass, InvalidParameter, LaunderbenchError
from .metrics import (MetricConfig, ScoreSet, act_dcf, cllr, eer,
                      gaussian_scores, min_dcf)
from .pipeline import (attack_tag, emit_augmented_manifest, execute_plan,
                       plan_attacks, select_subset)
from .protocol import (TrialRecord, emit_manifest, join_scores,
                       manifest_stats, parse_manifest, parse_scores)
from .reporting import (METRIC_NAMES, POOLED, GroupKey, axis_keys,
                        compute_breakdown, rank_worst, render, render_skipped)

CONFIG_ENV_VAR = "LAUNDERBENCH_CONFIG"

_DEFAULTS = {
    "seed": 0,
    "fraction": 0.1,
    "jobs": 4,
    "noise_dir": None,
    "audio_root": None,
    "out": None,
    "encode_cmd": None,
    "decode_cmd": None,
    "c_miss": 1.0,
    "c_fa": 10.0,
    "pi_spoof": 0.05,
    "invert_scores": False,
    "join": "strict",
    "format": "tsv",
}
_INT_KEYS = {"seed", "jobs"}
_FLOAT_KEYS = {"fraction", "c_miss", "c_fa", "pi_spoof"}
_BOOL_KEYS = {"invert_scores"}


@dataclass(frozen=True)
class RunConfig:
    seed: int
    fraction: float
    parallelism: int
    noise_dir: object
    audio_root: object
    out_dir: object
    encode_cmd: object
    decode_cmd: object
    metrics: MetricConfig
    invert_scores: bool
    join_policy: str
    table_format: str

    def __post_init__(self):
        if not 0.0 < self.fraction <= 1.0:
            raise InvalidParameter(
                f"fraction must lie in (0, 1], got {self.fraction}")
        if self.parallelism < 1:
            raise InvalidParameter("jobs must be at least 1")
        if self.join_policy not in ("strict", "intersect"):
            raise InvalidParameter(
                f"join must be strict or intersect, got {self.join_policy!r}")
        if self.table_format not in ("tsv", "csv", "markdown"):
            raise InvalidParameter(
                f"format must be tsv, csv, or markdown, "
                f"got {self.table_format!r}")


def _parse_bool(text):
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise InvalidParameter(f"not a boolean: {text!r}")


def load_config_file(path) -> dict:
    """key=value lines with '#' comments; values typed per key."""
    values = {}
    text = Path(path).read_text()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidParameter(
                f"{path} line {line_no}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _DEFAULTS:
            raise InvalidParameter(f"{path} line {line_no}: unknown key "
                                   f"{key!r}")
        try:
            if key in _INT_KEYS:
                values[key] = int(value)
            elif key in _FLOAT_KEYS:
                values[key] = float(value)
            elif key in _BOOL_KEYS:
                values[key] = _parse_bool(value)
            else:
                values[key] = value
        except ValueError:
            raise InvalidParameter(
                f"{path} line {line_no}: bad value for {key}: {value!r}"
            ) from None
    return values


def resolve_config(args) -> RunConfig:
    """Merge defaults, config file, and CLI flags into one RunConfig."""
    merged = dict(_DEFAULTS)
    config_path = os.environ.get(CONFIG_ENV_VAR)
    if config_path:
        merged.update(load_config_file(config_path))
    for key in _DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return RunConfig(
        seed=merged["seed"],
        fraction=merged["fraction"],
        parallelism=merged["jobs"],
        noise_dir=merged["noise_dir"],
        audio_root=merged["audio_root"],
        out_dir=merged["out"],
        encode_cmd=merged["encode_cmd"],
        decode_cmd=merged["decode_cmd"],
        metrics=MetricConfig(merged["c_miss"], merged["c_fa"],
                             merged["pi_spoof"]),
        invert_scores=bool(merged["invert_scores"]),
        join_policy=merged["join"],
        table_format=merged["format"],
    )


def _require(value, flag, kind="path"):
    if value is None:
        raise InvalidParameter(f"missing required {flag}")
    if kind == "file" and not Path(value).is_file():
        raise InvalidParameter(f"{flag} {value} is not a readable file")
    if kind == "dir" and not Path(value).is_dir():
        raise InvalidParameter(f"{flag} {value} is not a directory")
    return Path(value)


def _resolve_backend(cfg):
    """Explicit templates win; otherwise in-process LAME if it loads."""
    if cfg.encode_cmd or cfg.decode_cmd:
        if not (cfg.encode_cmd and cfg.decode_cmd):
            raise InvalidParameter(
                "--encode-cmd and --decode-cmd must be given together")
        return CodecBackend(cfg.encode_cmd, cfg.decode_cmd, "external")
    try:
        return mp3tool.default_backend()
    except OSError as e:
        print(f"warning: no codec backend available ({e}); "
              f"recompression jobs will fail", file=sys.stderr)
        return None


def _read_scored(cfg, trials_path, scores_path):
    trials = parse_manifest(
        _require(trials_path, "--manifest", "file").read_text())
    scores = parse_scores(
        _require(scores_path, "--scores", "file").read_text())
    if cfg.invert_scores:
        scores = [type(s)(s.utterance_id, -s.score) for s in scores]
    return join_scores(trials, scores, policy=cfg.join_policy)


def cmd_launder(cfg: RunConfig, manifest_path) -> int:
    manifest_file = _require(manifest_path, "--manifest", "file")
    audio_root = _require(cfg.audio_root, "--audio-root", "dir")
    noise_dir = _require(cfg.noise_dir, "--noise-dir", "dir")
    if cfg.out_dir is None:
        raise InvalidParameter("missing required --out")
    trials = parse_manifest(manifest_file.read_text())

    noises = NoiseLibrary(noise_dir)
    for name in LOADABLE_NOISES:
        noises.get(name)
    backend = _resolve_backend(cfg)

    selected = select_subset(trials, cfg.fraction, cfg.seed)
    jobs = plan_attacks(selected, cfg.seed)
    report = execute_plan(jobs, audio_root, cfg.out_dir, noises=noises,
                          backend=backend, parallelism=cfg.parallelism)

    failed = {job for job, _ in report.failures}
    succeeded = [j for j in jobs if j not in failed]
    identity = backend.identity if backend is not None else None
    out_dir = Path(cfg.out_dir)
    (out_dir / "augmented.manifest").write_text(
        emit_augmented_manifest(trials, succeeded, backend_identity=identity))

    stats = manifest_stats(trials)
    summary = [
        ("command", "launder"),
        ("seed", cfg.seed),
        ("fraction", cfg.fraction),
        ("parallelism", cfg.parallelism),
        ("manifest", manifest_file),
        ("audio_root", audio_root),
        ("noise_dir", noise_dir),
        ("out_dir", out_dir),
        ("backend", identity or "none"),
        ("manifest_total", stats.total),
        ("manifest_bonafide", stats.bonafide),
        ("manifest_spoof", stats.spoof),
        ("selected", len(selected)),
        ("jobs_total", report.jobs_total),
        ("jobs_succeeded", report.jobs_succeeded),
        ("jobs_failed", report.jobs_failed),
        ("clip_events", report.clip_events),
    ]
    (out_dir / "run_summary.txt").write_text(
        "".join(f"{key}={value}\n" for key, value in summary))

    for job, error in report.failures:
        print(f"failed {job.output_utterance_id}: {error}", file=sys.stderr)
    print(f"laundered {report.jobs_succeeded}/{report.jobs_total} jobs "
          f"({report.clip_events} clipped samples) into {out_dir}",
          file=sys.stderr)
    return 0 if report.jobs_failed == 0 else 2


def cmd_evaluate(cfg: RunConfig, trials_path, scores_path) -> int:
    scored = _read_scored(cfg, trials_path, scores_path)
    table = compute_breakdown(scored, cfg.metrics, axes=())
    cell = table.cells.get(GroupKey(POOLED, POOLED))
    if cell is None:
        raise EmptyClass("need at least one bonafide and one spoof score")
    for metric in METRIC_NAMES:
        print(f"{metric}={getattr(cell, metric):.6f}")
    print(f"n_bon={cell.n_bon}")
    print(f"n_spf={cell.n_spf}")
    return 0


def cmd_report(cfg: RunConfig, trials_path, scores_path) -> int:
    scored = _read_scored(cfg, trials_path, scores_path)
    out_dir = Path(_require(cfg.out_dir, "--out"))
    table = compute_breakdown(scored, cfg.metrics)

    out_dir.mkdir(parents=True, exist_ok=True)
    fmt = cfg.table_format
    prefix = out_dir / "report"
    files = {
        f"{prefix}_pooled.{fmt}": render(table, "pooled", fmt),
        f"{prefix}_by_attack.{fmt}": render(table, "per_attack", fmt),
        f"{prefix}_by_codec.{fmt}": render(table, "per_codec", fmt),
        f"{prefix}_skipped.txt": render_skipped(table),
    }
    for metric in METRIC_NAMES:
        files[f"{prefix}_grid_{metric}.{fmt}"] = render(
            table, "grid", fmt, metric=metric)
    for path, text in files.items():
        Path(path).write_text(text)

    for metric in METRIC_NAMES:
        for axis in ("attack", "codec"):
            k = min(5, len(axis_keys(table, axis)))
            worst = rank_worst(table, metric, k, axis=axis)
            ids = ",".join(getattr(key, f"{axis}_id") for key in worst)
            print(f"worst_{metric}_by_{axis}={ids}")
    print(f"wrote {len(files)} report files under {out_dir}",
          file=sys.stderr)
    return 0


def cmd_noise_check(cfg: RunConfig) -> int:
    noise_dir = _require(cfg.noise_dir, "--noise-dir", "dir")
    library = NoiseLibrary(noise_dir)
    problems = 0
    for name in LOADABLE_NOISES:
        try:
            buf = library.get(name)
        except LaunderbenchError as e:
            print(f"error: {name}: {e}", file=sys.stderr)
            problems += 1
            continue
        print(f"{name} rate={buf.sample_rate_hz} samples={len(buf)} "
              f"seconds={buf.duration_seconds:.2f}")
    print("white synthesized")
    return 0 if problems == 0 else 1


def _filter_magnitude(coeffs, freq_hz, fs_hz):
    z1 = np.exp(-2j * np.pi * freq_hz / fs_hz)
    h = complex(coeffs.gain)
    for b0, b1, b2, a1, a2 in coeffs.sections:
        h *= (b0 + b1 * z1 + b2 * z1 * z1) / (1.0 + a1 * z1 + a2 * z1 * z1)
    return abs(h)


def _selftest_checks(tmp_dir):
    def sweep_fixture():
        s = ScoreSet([1.0, 2.0, 4.0], [0.0, 3.0])
        cfg = MetricConfig()
        assert eer(s) == 100.0 * (1 / 3 + 1 / 2) / 2.0
        assert min_dcf(s, cfg) == 0.5
        assert act_dcf(s, cfg) == 1.0
        assert cllr(ScoreSet(np.zeros(25), np.zeros(4))) == 1.0

    def gaussian_calibration():
        s = gaussian_scores(100_000, 100_000, 1.0, -1.0, 1.0, seed=7)
        assert abs(eer(s) - 15.8655) < 0.5

    def butterworth_response():
        coeffs = design_butterworth_lowpass(5, 3000.0, 16000)
        assert abs(_filter_magnitude(coeffs, 0.0, 16000) - 1.0) <= 1e-9
        assert abs(_filter_magnitude(coeffs, 3000.0, 16000)
                   - 1.0 / math.sqrt(2.0)) <= 1e-6

    def snr_mixing():
        n = 16000
        x = AudioBuffer(0.1 * np.sin(2 * np.pi * 440.0 * np.arange(n)
                                     / 16000.0), 16000)
        noise = AudioBuffer(0.05 * generate_white_noise(n, 3), 16000)
        mixed = mix_noise(x, noise, 10.0, seed=4)
        residual = mixed.samples - x.samples
        achieved = 10.0 * math.log10(
            np.mean(x.samples ** 2) / np.mean(residual ** 2))
        assert abs(achieved - 10.0) <= 1e-6

    def rir_decay():
        rt60, fs = 0.3, 16000
        h = synthesize_rir(rt60, fs, seed=5)
        again = synthesize_rir(rt60, fs, seed=5)
        assert np.array_equal(h.samples, again.samples)
        assert h.samples[0] == 1.0
        t = np.arange(len(h)) / fs
        env = np.exp(-t * (3.0 * math.log(10.0)) / rt60)
        k = round(rt60 * fs)
        assert abs(env[k] - 1e-3) <= 1e-12

    def resample_round_trip():
        n = 16000
        x = AudioBuffer(0.5 * np.sin(2 * np.pi * 1000.0 * np.arange(n)
                                     / 16000.0), 16000)
        back = resample(resample(x, 44100), 16000)
        err = back.samples - x.samples
        snr = 10.0 * math.log10(np.mean(x.samples ** 2) / np.mean(err ** 2))
        assert snr >= 40.0

    def file_round_trip():
        rng = np.random.Generator(np.random.PCG64(11))
        x = AudioBuffer(0.8 * rng.uniform(-1.0, 1.0, 3001), 16000)
        for fmt, suffix in (("flac", "flac"), ("wav16", "wav")):
            path = Path(tmp_dir) / f"selftest.{suffix}"
            write_audio(x, path, format=fmt)
            back = read_audio(path)
            assert back.sample_rate_hz == 16000
            assert np.max(np.abs(back.samples - x.samples)) <= 2.0 ** -15

    def manifest_identity():
        records = [TrialRecord("u001", "bonafide", "-", "C00", "a.flac"),
                   TrialRecord("u002", "spoof", "A17", "C03", "b.flac")]
        assert parse_manifest(emit_manifest(records)) == records

    return [
        ("metric_sweep_fixture", sweep_fixture),
        ("gaussian_calibration", gaussian_calibration),
        ("butterworth_response", butterworth_response),
        ("snr_mixing", snr_mixing),
        ("rir_decay", rir_decay),
        ("resample_round_trip", resample_round_trip),
        ("file_round_trip", file_round_trip),
        ("manifest_identity", manifest_identity),
    ]


def cmd_selftest() -> int:
    import tempfile
    failures = 0
    with tempfile.TemporaryDirectory(prefix="launder-selftest-") as tmp_dir:
        for name, check in _selftest_checks(tmp_dir):
            try:
                check()
            except Exception as e:
                failures += 1
                print(f"FAIL {name}: {e}")
            else:
                print(f"ok {name}")
    return 0 if failures == 0 else 1


class _Parser(argparse.ArgumentParser):
    """argparse front end with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_metric_flags(p):
    p.add_argument("--c-miss", type=float, dest="c_miss")
    p.add_argument("--c-fa", type=float, dest="c_fa")
    p.add_argument("--pi-spoof", type=float, dest="pi_spoof")
    p.add_argument("--invert-scores", action="store_true", default=None,
                   dest="invert_scores")
    p.add_argument("--join", choices=("strict", "intersect"))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="launderbench",
                     description="Laundering-attack augmentation and "
                                 "spoof-detection scoring toolkit")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("launder", help="build attacked copies of a corpus")
    p.add_argument("--manifest")
    p.add_argument("--audio-root", dest="audio_root")
    p.add_argument("--out")
    p.add_argument("--noise-dir", dest="noise_dir")
    p.add_argument("--seed", type=int)
    p.add_argument("--fraction", type=float)
    p.add_argument("--jobs", type=int)
    p.add_argument("--encode-cmd", dest="encode_cmd")
    p.add_argument("--decode-cmd", dest="decode_cmd")

    p = sub.add_parser("evaluate", help="pooled metrics from trial scores")
    p.add_argument("--manifest")
    p.add_argument("--scores")
    _add_metric_flags(p)

    p = sub.add_parser("report", help="breakdown tables from trial scores")
    p.add_argument("--manifest")
    p.add_argument("--scores")
    p.add_argument("--out")
    p.add_argument("--format", choices=("tsv", "csv", "markdown"))
    _add_metric_flags(p)

    p = sub.add_parser("noise-check", help="validate noise assets")
    p.add_argument("--noise-dir", dest="noise_dir")

    sub.add_parser("selftest", help="run built-in correctness checks")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        cfg = resolve_config(args)
        if args.command == "launder":
            return cmd_launder(cfg, args.manifest)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, args.manifest, args.scores)
        if args.command == "report":
            return cmd_report(cfg, args.manifest, args.scores)
        if args.command == "noise-check":
            return cmd_noise_check(cfg)
        return cmd_selftest()
    except (LaunderbenchError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
