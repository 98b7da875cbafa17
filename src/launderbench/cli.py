"""Command-line front end.

Subcommands: launder (build the attacked copies), evaluate (scores to
pooled metrics), report (breakdown tables), noise-check (asset
validation).

Configuration precedence is CLI flag > config file > default, where the
config file is key=value text named by the LAUNDERBENCH_CONFIG
environment variable.  Exit codes: 0 success, 1 usage or input error,
2 batch finished with some jobs failed.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import mp3tool
from .audio import CodecBackend
from .dsp import LOADABLE_NOISES, NoiseLibrary
from .errors import EmptyClass, InvalidParameter, LaunderbenchError
from .metrics import MetricConfig
from .pipeline import (emit_augmented_manifest, execute_plan, plan_attacks,
                       select_subset)
from .protocol import (JOIN_POLICIES, ScoreColumns, join_scores,
                       manifest_columns, manifest_stats, parse_manifest,
                       parse_scores)
from .reporting import (FORMATS, METRIC_NAMES, POOLED, GroupKey, axis_keys,
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
        if self.join_policy not in JOIN_POLICIES:
            raise InvalidParameter(
                f"join must be strict or intersect, got {self.join_policy!r}")
        if self.table_format not in FORMATS:
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
    """key=value lines with '#' comments; values take their default's type."""
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
        default = _DEFAULTS[key]
        parse = (_parse_bool if isinstance(default, bool)
                 else str if default is None else type(default))
        try:
            values[key] = parse(value)
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
    trials = manifest_columns(
        _require(trials_path, "--manifest", "file").read_text())
    scores = parse_scores(
        _require(scores_path, "--scores", "file").read_text())
    if cfg.invert_scores:
        scores = ScoreColumns(scores.ids, -scores.scores)
    return join_scores(trials, scores, policy=cfg.join_policy)


def _write_summary(path, items):
    Path(path).write_text("".join(f"{key}={value}\n" for key, value in items))


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
    _write_summary(out_dir / "run_summary.txt", summary)

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
    _write_summary(out_dir / "report_summary.txt", [
        ("command", "report"),
        ("manifest", trials_path),
        ("scores", scores_path),
        ("trials_kept", len(scored.scores)),
        ("unscored_trials", scored.unscored),
        ("orphan_scores", scored.orphans),
        ("skipped_cells", len(table.skipped)),
        ("join", cfg.join_policy),
        ("invert_scores", cfg.invert_scores),
        ("c_miss", cfg.metrics.c_miss),
        ("c_fa", cfg.metrics.c_fa),
        ("pi_spoof", cfg.metrics.pi_spoof),
    ])

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
    p.add_argument("--join", choices=JOIN_POLICIES)


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
    p.add_argument("--jobs", type=int,
                   help="number of sources processed at once (default 4)")
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
    p.add_argument("--format", choices=FORMATS)
    _add_metric_flags(p)

    p = sub.add_parser("noise-check", help="validate noise assets")
    p.add_argument("--noise-dir", dest="noise_dir")
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
        return cmd_noise_check(cfg)
    except (LaunderbenchError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
