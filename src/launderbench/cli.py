"""Command-line front end.

Subcommands: launder (build the attacked copies), evaluate (scores to
pooled metrics), report (breakdown tables), noise-check (asset
validation).

Every setting is a flag; `launderbench <command> --help` shows each
default.  Exit codes: 0 success, 1 usage or input error, 2 batch
finished with some jobs failed.

evaluate and report parse a --scores file larger than FORK_SCORES_BYTES
in a child process while the manifest parses, forked by pipeline.forked
as launder's --jobs workers are.  Their memory is then split over two
processes, and a peak RSS read with RUSAGE_SELF (the benchmark's
peak_rss_mb) does not see the child's.
"""

from __future__ import annotations

import argparse
import codecs
import contextlib
import functools
import platform
import sys
from pathlib import Path

import numpy as np

from .audio import CodecBackend, write_file
from .dsp import LOADABLE_NOISES, NoiseLibrary
from .errors import (CorruptFile, DuplicateId, EmptyClass,
                     InvalidParameter, LaunderbenchError)
from .metrics import MetricConfig
from .pipeline import (emit_augmented_manifest, execute_plan, forked,
                       plan_attacks, select_subset)
from .protocol import (JOIN_POLICIES, ScoreColumns, encode_ids, join_scores,
                       parse_manifest, parse_scores)
from .reporting import (FORMATS, METRIC_NAMES, POOLED, GroupKey,
                        compute_breakdown, rank_worst, render, render_skipped)


def _require(value, flag, kind="path"):
    if value is None:
        raise InvalidParameter(f"missing required {flag}")
    if kind == "file" and not Path(value).is_file():
        raise InvalidParameter(f"{flag} {value} is not a readable file")
    if kind == "dir" and not Path(value).is_dir():
        raise InvalidParameter(f"{flag} {value} is not a directory")
    return Path(value)


def _parse(parser, value, flag):
    """parser's reading of the bytes of the file a flag names, less a
    leading byte-order mark; bytes that are not UTF-8 are a CorruptFile."""
    path = _require(value, flag, "file")
    try:
        return parser(path.read_bytes().removeprefix(codecs.BOM_UTF8))
    except UnicodeDecodeError as e:
        raise CorruptFile(f"{flag} {path} is not UTF-8 text: {e}") from None


def _resolve_backend(args):
    """The command-template codec; None, with a warning, when neither
    template is given, so that only the recompression jobs fail."""
    if args.encode_cmd and args.decode_cmd:
        return CodecBackend(args.encode_cmd, args.decode_cmd, "external")
    if args.encode_cmd or args.decode_cmd:
        raise InvalidParameter(
            "--encode-cmd and --decode-cmd must be given together")
    print("warning: no codec backend (--encode-cmd and --decode-cmd not "
          "given); recompression jobs will fail", file=sys.stderr)
    return None


# A --scores file larger than this is parsed in a forked child while the
# manifest parses.  In a ~300 MB process on 2 CPUs, evaluate broke even
# with the fork between 5k and 10k trials (150 and 300 KB of scores); the
# bound, ~130k trials, keeps files near that crossover on the serial path.
FORK_SCORES_BYTES = 4 << 20


def _scores_reader(value):
    """A context whose value is a call that returns the ScoreColumns of the
    --scores file, or raises the error its parse raised.  A file larger
    than FORK_SCORES_BYTES is parsed from entry in a pipeline.forked child."""
    read = functools.partial(_parse, parse_scores, value, "--scores")
    if not (value is not None and Path(value).is_file()
            and Path(value).stat().st_size > FORK_SCORES_BYTES):
        return contextlib.nullcontext(read)
    return forked(read, f"the process reading --scores {value} died before "
                        f"returning its scores")


def _read_scored(args):
    """The metric settings, checked first, and the joined scores.  Any
    error of the manifest comes before any error of the scores."""
    metrics = MetricConfig(args.c_miss, args.c_fa, args.pi_spoof)
    with _scores_reader(args.scores) as read_scores:
        trials = _parse(parse_manifest, args.manifest, "--manifest")[1]
        scores = read_scores()
    if args.invert_scores:
        scores = ScoreColumns(scores.ids, -scores.scores)
    return metrics, join_scores(trials, scores, policy=args.join)


def _write_utf8(path, text):
    """text as UTF-8 through write_file; a path the file system gave as
    undecodable bytes is written back as those bytes."""
    write_file(path, lambda fh: fh.write(
        text.encode("utf-8", "surrogateescape")))


def _utf8_for_stdout(text):
    """text as a string stdout writes as text's UTF-8 bytes: stdout's
    surrogateescape writes each byte its encoding could not decode."""
    return text.encode("utf-8", "surrogateescape").decode(
        getattr(sys.stdout, "encoding", None) or "utf-8", "surrogateescape")


def _write_summary(path, items):
    """key=value lines of items, then the software stack: seeded output is
    byte-identical, and metrics bit-identical, on one stack only."""
    items = [*items, ("python", platform.python_version()),
             ("numpy", np.__version__)]
    _write_utf8(path, "".join(f"{key}={value}\n" for key, value in items))


def cmd_launder(args) -> int:
    if args.jobs < 1:
        raise InvalidParameter(f"--jobs must be at least 1, got {args.jobs}")
    rows, trials = _parse(parse_manifest, args.manifest, "--manifest")
    audio_root = _require(args.audio_root, "--audio-root", "dir")
    noise_dir = _require(args.noise_dir, "--noise-dir", "dir")
    out_dir = _require(args.out, "--out")

    noises = NoiseLibrary(noise_dir)
    for name in LOADABLE_NOISES:
        noises.get(name)
    backend = _resolve_backend(args)

    chosen = select_subset(trials.order, args.fraction, args.seed)
    selected = [rows[r] for r in chosen]
    jobs = plan_attacks(selected, args.seed)
    # distinct ids and tags give distinct output ids; one may be a manifest id
    out_ids = [job.output_utterance_id for job in jobs]
    taken = np.isin(encode_ids(out_ids), trials.ids)
    if taken.any():
        raise DuplicateId(f"output id {out_ids[taken.argmax()]!r} would "
                          f"appear more than once in augmented.manifest")
    report = execute_plan(jobs, audio_root, out_dir, noises=noises,
                          backend=backend, parallelism=args.jobs)

    failed = {job for job, _ in report.failures}
    succeeded = [j for j in jobs if j not in failed]
    identity = backend.identity if backend is not None else None
    _write_utf8(out_dir / "augmented.manifest", emit_augmented_manifest(
        rows, succeeded, backend_identity=identity))

    bonafide = int(trials.bonafide.sum())
    _write_summary(out_dir / "run_summary.txt", [
        ("command", "launder"),
        ("seed", args.seed),
        ("fraction", args.fraction),
        ("parallelism", args.jobs),
        ("manifest", Path(args.manifest)),
        ("audio_root", audio_root),
        ("noise_dir", noise_dir),
        ("out_dir", out_dir),
        ("backend", identity or "none"),
        ("manifest_total", len(trials.ids)),
        ("manifest_bonafide", bonafide),
        ("manifest_spoof", len(trials.ids) - bonafide),
        ("selected", len(selected)),
        ("jobs_total", report.jobs_total),
        ("jobs_succeeded", report.jobs_succeeded),
        ("jobs_failed", report.jobs_failed),
        ("clip_events", report.clip_events),
    ])

    for job, error in report.failures:
        print(f"failed {job.output_utterance_id}: {error}", file=sys.stderr)
    print(f"laundered {report.jobs_succeeded}/{report.jobs_total} jobs "
          f"({report.clip_events} clipped samples) into {out_dir}",
          file=sys.stderr)
    return 0 if report.jobs_failed == 0 else 2


def cmd_evaluate(args) -> int:
    metrics, scored = _read_scored(args)
    table = compute_breakdown(scored, metrics, grid=False)
    cell = table.cells.get(GroupKey(POOLED, POOLED))
    if cell is None:
        raise EmptyClass("need at least one bonafide and one spoof score")
    for metric in METRIC_NAMES:
        print(f"{metric}={getattr(cell, metric):.6f}")
    print(f"n_bon={cell.n_bon}")
    print(f"n_spf={cell.n_spf}")
    return 0


def cmd_report(args) -> int:
    metrics, scored = _read_scored(args)
    out_dir = _require(args.out, "--out")
    table = compute_breakdown(scored, metrics)

    fmt = args.format
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
    # made once every file has rendered, so a failed render leaves none
    out_dir.mkdir(parents=True, exist_ok=True)
    for path, text in files.items():
        _write_utf8(path, text)
    _write_summary(out_dir / "report_summary.txt", [
        ("command", "report"),
        ("manifest", args.manifest),
        ("scores", args.scores),
        ("trials_kept", len(scored.scores)),
        ("unscored_trials", scored.unscored),
        ("orphan_scores", scored.orphans),
        ("skipped_cells", len(table.skipped)),
        ("join", args.join),
        ("invert_scores", args.invert_scores),
        ("c_miss", metrics.c_miss),
        ("c_fa", metrics.c_fa),
        ("pi_spoof", metrics.pi_spoof),
    ])

    for metric in METRIC_NAMES:
        for axis in ("attack", "codec"):
            worst = rank_worst(table, metric, 5, axis=axis)
            ids = ",".join(getattr(key, f"{axis}_id") for key in worst)
            print(_utf8_for_stdout(f"worst_{metric}_by_{axis}={ids}"))
    print(f"wrote {len(files)} report files under {out_dir}",
          file=sys.stderr)
    return 0


def cmd_noise_check(args) -> int:
    noise_dir = _require(args.noise_dir, "--noise-dir", "dir")
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


_COMMANDS = {"launder": cmd_launder, "evaluate": cmd_evaluate,
             "report": cmd_report, "noise-check": cmd_noise_check}


class _Parser(argparse.ArgumentParser):
    """argparse front end: usage errors exit 1, --help shows defaults."""

    def __init__(self, **kwargs):
        super().__init__(
            formatter_class=argparse.ArgumentDefaultsHelpFormatter, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_metric_flags(p):
    p.add_argument("--c-miss", type=float, default=MetricConfig.c_miss,
                   help="cost of rejecting a bonafide trial")
    p.add_argument("--c-fa", type=float, default=MetricConfig.c_fa,
                   help="cost of accepting a spoof trial")
    p.add_argument("--pi-spoof", type=float, default=MetricConfig.pi_spoof,
                   help="prior probability of a spoof")
    p.add_argument("--invert-scores", action="store_true",
                   help="negate scores where higher means spoof")
    p.add_argument("--join", choices=JOIN_POLICIES, default="strict",
                   help="how trials and scores are matched")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="launderbench",
                     description="Laundering-attack augmentation and "
                                 "spoof-detection scoring toolkit")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("launder", help="build attacked copies of a corpus")
    p.add_argument("--manifest")
    p.add_argument("--audio-root")
    p.add_argument("--out")
    p.add_argument("--noise-dir")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of subset selection and attack draws")
    p.add_argument("--fraction", type=float, default=0.1,
                   help="share of the manifest laundered, in (0, 1]")
    p.add_argument("--jobs", type=int, default=4,
                   help="sources processed at once, each in a forked "
                        "worker process that holds its own decoded source; "
                        "at most one per CPU this process may run on; 1 "
                        "runs inline")
    p.add_argument("--encode-cmd", help="recompression encoder command, "
                   "run without a shell: {in} is 16-bit WAV, {out} the coded "
                   "file, {bitrate_kbps} the rate; needs --decode-cmd")
    p.add_argument("--decode-cmd", help="decoder command from the coded "
                   "file {in} to WAV {out}; needs --encode-cmd")

    p = sub.add_parser("evaluate", help="pooled metrics from trial scores")
    p.add_argument("--manifest")
    p.add_argument("--scores")
    _add_metric_flags(p)

    p = sub.add_parser("report", help="breakdown tables from trial scores")
    p.add_argument("--manifest")
    p.add_argument("--scores")
    p.add_argument("--out")
    p.add_argument("--format", choices=FORMATS, default="tsv",
                   help="table format")
    _add_metric_flags(p)

    p = sub.add_parser("noise-check", help="validate noise assets")
    p.add_argument("--noise-dir")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (LaunderbenchError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
