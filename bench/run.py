#!/usr/bin/env python3
"""launderbench benchmark: launder throughput and scoring throughput.

    python3 bench/run.py --workload score --seed 1 --seconds 20 --trace 0

Run from the repository root.  The benchmark builds its inputs from
--seed, drives ``launderbench.cli.main`` in-process from ``src/`` in a
closed loop (one process running the workload's schedule of
launder calls at --jobs 1 and 2, ``evaluate`` and ``report`` calls, round
after round for --seconds), checks every output, and prints one JSON
result as its last line.
With --trace 0 the result holds the end-to-end metrics of BENCHMARK.json;
with --trace 1 it holds the per-layer metrics from one untraced and one
traced round.  Scratch files live under .bench_work/ in the repository
and are removed at exit, except the trace file of a traced run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import corpus
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# The copy stub stands in for an MP3 codec: libmp3lame may be absent, and
# spawning two interpreters per recompression job would measure interpreter
# start-up and hide lock contention at --jobs 2.
ENCODE_CMD = "/usr/bin/env BR={bitrate_kbps} cp {in} {out}"
DECODE_CMD = "cp {in} {out}"


@dataclass(frozen=True)
class Workload:
    coding: str        # how sources are stored: "fixed" or "lpc"
    sources: int       # sources laundered per call (9 jobs each)
    trials: int        # trials in the scored manifest
    schedule: tuple    # one round: L1/L2 launder at --jobs 1/2, E evaluate,
                       # R report, I a fresh-interpreter import sample


# Every workload runs the whole tool (launder, evaluate, report) so that it
# reports every end-to-end metric; the workloads differ in where the work
# sits.  launder-lpc carries the launder work and a small score set; score
# carries 600k trials and a two-source launder of fixed-coded FLAC.  The
# host's speed drifts between two modes some 1.5x apart for seconds at a
# time, so the calls of each kind are spread evenly over the run rather
# than run back to back: each metric then averages over the same mix of
# modes as the whole run.
WORKLOADS = {
    "launder-lpc": Workload("lpc", sources=2, trials=10_000,
                            schedule=("L1", "E", "R", "E", "R", "I",
                                      "L2", "E", "R", "E", "R")),
    "score": Workload("fixed", sources=2, trials=600_000,
                      schedule=("I", "L1", "L2", "E", "I", "L2", "R", "I",
                                "L1", "E", "I", "L2", "L1", "R", "I")),
}
METRIC_OF = {"L1": "launder_j1_audio_s_per_s",
             "L2": "launder_j2_audio_s_per_s",
             "E": "evaluate_trials_per_s", "R": "report_trials_per_s"}
SETUP_REPS = 5


class Failures:
    """Operations attempted and failed: launder jobs, CLI calls, checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok


@dataclass
class Call:
    rc: int
    seconds: float
    stdout: str
    warnings: list


@dataclass
class Inputs:
    manifest: Path
    audio_root: Path
    noise_dir: Path
    samples: dict                   # source path -> int16 values
    trials: corpus.TrialSet
    trials_manifest: Path
    scores: Path
    expected: dict                  # (attack, codec) -> metrics.* values


# ----------------------------------------------------------------- inputs

def load_program():
    sys.path.insert(0, str(SRC))
    import launderbench
    from launderbench import (audio, cli, dsp, flacio, metrics, pipeline,
                              reporting)
    where = Path(launderbench.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"error: launderbench imported from {where}, "
                         f"not from {SRC}")
    return {"audio": audio, "cli": cli, "dsp": dsp, "flacio": flacio,
            "metrics": metrics, "pipeline": pipeline,
            "reporting": reporting}


def make_inputs(lb, wl, seed, work, failures):
    audio = lb["audio"]
    audio_root = work / "audio"
    noise_dir = work / "noise"
    audio_root.mkdir(parents=True)
    noise_dir.mkdir()
    lines, samples = [], {}
    for i in range(wl.sources):
        q = corpus.quantize16(corpus.speech_like(
            np.random.default_rng([seed, 1, i])))
        uid = f"src{i:03d}"
        if i % 2 == 0:
            lines.append(f"{uid} bonafide - C{i % 9:02d} {uid}.flac\n")
        else:
            lines.append(f"{uid} spoof A{17 + i % 13} C{i % 9:02d} "
                         f"{uid}.flac\n")
        path = audio_root / f"{uid}.flac"
        if wl.coding == "lpc":
            path.write_bytes(corpus.encode_lpc_flac(q))
        else:
            audio.write_audio(audio.AudioBuffer(q / 32768.0, corpus.RATE_HZ),
                              path)
        samples[f"{uid}.flac"] = q
        # a fixture the decoder misreads must not pass as decoder speed
        failures.check(decodes_to(lb, path.read_bytes(), q),
                       f"source fixture {path.name} does not decode to "
                       f"its samples")
    manifest = work / "sources.manifest"
    manifest.write_text("".join(lines))

    rng = np.random.default_rng([seed, 2])
    for name in corpus.NOISE_NAMES:
        audio.write_audio(audio.AudioBuffer(corpus.noise_asset(name, rng),
                                            corpus.RATE_HZ),
                          noise_dir / f"{name}.wav", format="wav16")

    trials = corpus.trial_set(wl.trials, np.random.default_rng([seed, 3]))
    trials_manifest = work / "trials.manifest"
    scores = work / "trials.scores"
    trials_manifest.write_text(trials.manifest_text())
    scores.write_text(trials.scores_text())
    return Inputs(manifest, audio_root, noise_dir, samples, trials,
                  trials_manifest, scores,
                  expected_metrics(lb["metrics"], trials))


def decoded(lb, blob):
    """Samples of a 16-bit, 16 kHz FLAC stream whose CRCs and stored MD5
    check out, else None."""
    try:
        got, rate, bps = lb["flacio"].decode_flac(blob)
    except Exception as e:  # any decoder failure is a failed check
        print(f"decode error: {type(e).__name__}: {e}", file=sys.stderr)
        return None
    md5 = hashlib.md5(np.asarray(got).astype("<i2").tobytes()).digest()
    if (rate, bps) != (corpus.RATE_HZ, 16) or md5 != stored_md5(blob) \
            or not any(stored_md5(blob)):
        return None
    return got


def decodes_to(lb, blob, expect):
    got = decoded(lb, blob)
    return got is not None and np.array_equal(got, expect)


def stored_md5(blob):
    # STREAMINFO is the first metadata block: 4 marker + 4 header bytes,
    # then 18 bytes of fields before the 16-byte MD5.
    return blob[26:42]


def expected_metrics(m, trials):
    """metrics.* on the generator's arrays for every reported cell."""
    cfg = m.MetricConfig()

    def cell(attack=None, codec=None):
        bon, spf = trials.cell(attack, codec)
        s = m.ScoreSet(bon, spf)
        return {"min_dcf": m.min_dcf(s, cfg), "act_dcf": m.act_dcf(s, cfg),
                "cllr": m.cllr(s), "eer": m.eer(s),
                "n_bon": len(bon), "n_spf": len(spf)}

    out = {("*", "*"): cell()}
    for a, name in enumerate(corpus.ATTACKS):
        out[(name, "*")] = cell(attack=a)
        for c, codec in enumerate(corpus.CODECS):
            out[(name, codec)] = cell(attack=a, codec=c)
    for c, codec in enumerate(corpus.CODECS):
        out[("*", codec)] = cell(codec=c)
    return out


# ------------------------------------------------------------------ set-up

class ImportProbe:
    """Fresh interpreters importing launderbench.cli.

    Samples are taken between rounds, so that one slow phase of the host
    does not set the median.  Each sample is the parent's wall time for
    the whole child (start-up, import, exit) and the import time the child
    measures itself.
    """

    def __init__(self):
        env = dict(os.environ)
        env.pop("LAUNDERBENCH_CONFIG", None)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        code = ("import time; t = time.perf_counter(); "
                "import launderbench.cli; print(time.perf_counter() - t)")
        self.env, self.argv = env, [sys.executable, "-c", code]
        self.walls, self.imports = [], []
        self._spawn()                              # writes bytecode caches

    def _spawn(self):
        proc = subprocess.run(self.argv, env=self.env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        return float(proc.stdout.strip().splitlines()[-1])

    def sample(self):
        t0 = time.perf_counter()
        self.imports.append(self._spawn())
        self.walls.append(time.perf_counter() - t0)

    def top_up(self, n=SETUP_REPS):
        while len(self.walls) < n:
            self.sample()


def noise_load_seconds(lb, noise_dir):
    times = []
    for _ in range(SETUP_REPS):
        library = lb["dsp"].NoiseLibrary(noise_dir)
        t0 = time.perf_counter()
        for name in corpus.NOISE_NAMES:
            library.get(name)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ------------------------------------------------------------------ calls

def call_cli(cli, argv, tracer=None, label=None):
    """Run one CLI call in-process, capturing its output and warnings.

    A full collection first puts the garbage collector in the same state
    before every call; otherwise its periodic full passes land on every
    n-th call and the benchmark's own heap would set their cost.
    """
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with warnings.catch_warnings(record=True) as caught, \
            redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        with tracer.calling(label) if tracer else nullcontext():
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            except Exception:  # a crashing call fails its checks
                traceback.print_exc()
                rc = None
            dt = time.perf_counter() - t0
    if rc != 0:
        print(f"{argv[0]} exited {rc}: {err.getvalue()[-2000:]}",
              file=sys.stderr)
    return Call(rc, dt, out.getvalue(), list(caught))


def launder_argv(inputs, out, seed, jobs, manifest=None):
    return ["launder", "--manifest", str(manifest or inputs.manifest),
            "--audio-root", str(inputs.audio_root),
            "--noise-dir", str(inputs.noise_dir), "--out", str(out),
            "--fraction", "1.0", "--seed", str(seed), "--jobs", str(jobs),
            "--encode-cmd", ENCODE_CMD, "--decode-cmd", DECODE_CMD]


def count_warnings(call):
    clamps = sum(1 for w in call.warnings if w.category is UserWarning
                 and "Nyquist" in str(w.message))
    rate_changes = sum(1 for w in call.warnings
                       if w.category.__name__ == "SampleRateChangedByCodec")
    return clamps, rate_changes


# ------------------------------------------------------------------ checks

class LaunderChecker:
    """Checks launder outputs; all calls must agree on the manifest and
    the non-codec FLAC bytes."""

    def __init__(self, lb, inputs, failures):
        self.lb, self.inputs, self.failures = lb, inputs, failures
        self.verified = set()          # digests of outputs already decoded
        self.reference = None

    def check(self, call, out_dir, what):
        f = self.failures
        summary = read_summary(out_dir)
        jobs_total = int(summary.get("jobs_total", 0))
        jobs_failed = int(summary.get("jobs_failed", jobs_total))
        f.attempted += jobs_total
        f.failed += jobs_failed
        n_sources = len(self.inputs.samples)
        f.check(call.rc == 0 and jobs_total == 9 * n_sources,
                f"{what}: exit {call.rc}, {jobs_total} jobs planned")
        path = out_dir / "augmented.manifest"
        manifest = path.read_bytes() if path.is_file() else b""
        lines = [line.split("#", 1)[0].split()
                 for line in manifest.decode().splitlines()[n_sources:]]
        f.check(len(lines) == jobs_total - jobs_failed
                and all(len(fields) == 5 for fields in lines),
                f"{what}: {len(lines)} augmented lines")
        non_codec = {}
        for fields in lines:
            if len(fields) != 5:
                continue
            rel = fields[4]
            source = fields[0].split("_", 1)[0] + ".flac"
            path = out_dir / rel
            blob = path.read_bytes() if path.is_file() else b""
            if source not in self.inputs.samples:
                f.check(False, f"{what}: output {rel} of unknown source")
                continue
            digest = hashlib.sha256(blob).hexdigest()
            if digest not in self.verified:
                ok = f.check(self.valid_output(blob, source),
                             f"{what}: output {rel} is not valid FLAC of "
                             f"the source length")
                if ok:
                    self.verified.add(digest)
            else:
                f.attempted += 1
            if "_recompression_" not in rel:
                non_codec[rel] = digest
        state = (manifest, non_codec)
        if self.reference is None:
            self.reference = state
        else:
            f.check(state == self.reference,
                    f"{what}: manifest or non-codec outputs differ from the "
                    f"first launder call")
        return jobs_total - jobs_failed

    def valid_output(self, blob, source):
        got = decoded(self.lb, blob)
        expect = len(self.inputs.samples[source])
        return got is not None and len(got) == expect

    def digest(self):
        manifest, non_codec = self.reference
        h = hashlib.sha256(manifest)
        for rel in sorted(non_codec):
            h.update(f"{rel} {non_codec[rel]}\n".encode())
        return h.hexdigest(), len(non_codec)


def read_summary(out_dir):
    path = out_dir / "run_summary.txt"
    if not path.is_file():
        return {}
    return dict(line.split("=", 1) for line in path.read_text().splitlines()
                if "=" in line)


def check_evaluate(call, inputs, failures):
    exp = inputs.expected[("*", "*")]
    want = {"min_dcf": f"{exp['min_dcf']:.6f}",
            "act_dcf": f"{exp['act_dcf']:.6f}", "cllr": f"{exp['cllr']:.6f}",
            "eer": f"{exp['eer']:.6f}", "n_bon": str(exp["n_bon"]),
            "n_spf": str(exp["n_spf"])}
    got = dict(line.split("=", 1) for line in call.stdout.splitlines()
               if "=" in line)
    failures.check(call.rc == 0 and got == want,
                   f"evaluate printed {got}, metrics.* give {want}")
    return got


def agrees(evaluated, row):
    """Whether evaluate's key=value output and a report row could print the
    same numbers: evaluate rounds to 6 decimals, report to 3, so the two
    may differ by half a unit of the third decimal plus half of the sixth.
    """
    names = ("min_dcf", "act_dcf", "cllr", "eer")
    try:
        return len(row) == 8 and all(
            abs(float(evaluated[m]) - float(v)) <= 5e-4 + 5e-7 + 1e-12
            for m, v in zip(names, row[2:6])) and [
            evaluated["n_bon"], evaluated["n_spf"]] == row[6:]
    except (KeyError, ValueError):
        return False


def check_report(call, inputs, evaluated, out_dir, failures):
    f = failures
    f.check(call.rc == 0, f"report exited {call.rc}")
    exp = inputs.expected
    metric_names = ("min_dcf", "act_dcf", "cllr", "eer")

    def rows(name):
        path = out_dir / name
        if not path.is_file():
            return []
        return [line.split("\t") for line in path.read_text().splitlines()]

    def row_ok(row):
        if len(row) != 8 or (row[0], row[1]) not in exp:
            return False
        e = exp[(row[0], row[1])]
        return row[2:] == [f"{e[m]:.3f}" for m in metric_names] + [
            str(e["n_bon"]), str(e["n_spf"])]

    pooled = rows("report_pooled.tsv")
    f.check(len(pooled) == 2 and row_ok(pooled[1]),
            f"pooled row {pooled[1:]} differs from metrics.*")
    f.check(len(pooled) == 2 and agrees(evaluated, pooled[1]),
            "evaluate output differs from the pooled report row")
    for name, n_rows in (("report_by_attack.tsv", len(corpus.ATTACKS)),
                         ("report_by_codec.tsv", len(corpus.CODECS))):
        body = rows(name)[1:]
        f.check(len(body) == n_rows, f"{name} has {len(body)} rows")
        for row in body:
            f.check(row_ok(row), f"{name} row {row} differs from metrics.*")
    for m in metric_names:
        grid = rows(f"report_grid_{m}.tsv")
        want = [["attack", *corpus.CODECS]] + [
            [a, *(f"{exp[(a, c)][m]:.3f}" for c in corpus.CODECS)]
            for a in corpus.ATTACKS]
        f.check(grid == want, f"report_grid_{m}.tsv differs from metrics.*")
    skipped = out_dir / "report_skipped.txt"
    f.check(skipped.is_file() and skipped.read_text() == "",
            "report skipped cells that have both classes")
    want_rank = []
    for m in metric_names:
        for axis, keys in (("attack", [(a, "*") for a in corpus.ATTACKS]),
                           ("codec", [("*", c) for c in corpus.CODECS])):
            worst = sorted(keys, key=lambda k: (-exp[k][m], k))[:5]
            ids = ",".join(k[0] if axis == "attack" else k[1] for k in worst)
            want_rank.append(f"worst_{m}_by_{axis}={ids}")
    f.check(call.stdout.splitlines() == want_rank,
            "report worst-cell rankings differ from metrics.*")


# ------------------------------------------------------------------ rounds

@dataclass
class Round:
    """(work, seconds) of every timed call, by schedule step."""

    calls: dict = field(default_factory=lambda: {k: [] for k in METRIC_OF})

    def total_s(self):
        return sum(s for calls in self.calls.values() for _, s in calls)


class Runner:
    def __init__(self, lb, wl, inputs, seed, work, failures, probe):
        self.lb, self.wl, self.inputs = lb, wl, inputs
        self.seed, self.work, self.failures = seed, work, failures
        self.probe = probe
        self.checker = LaunderChecker(lb, inputs, failures)
        self.count = 0
        self.events = {}                 # label -> (clamps, rate changes)
        self.evaluated = {}              # last evaluate output, parsed

    def warm_up(self):
        """One untimed single-source launder call, so lazy imports and
        caches are filled before timing."""
        first = self.inputs.manifest.read_text().splitlines()[0] + "\n"
        manifest = self.work / "warmup.manifest"
        manifest.write_text(first)
        out = self.work / "warmup"
        call_cli(self.lb["cli"], launder_argv(self.inputs, out, self.seed, 1,
                                              manifest))
        shutil.rmtree(out, ignore_errors=True)

    def round(self, tracer=None, once=False):
        """Run the workload's schedule once; odd rounds swap L1 and L2.

        With once, each kind of step runs only the first time it comes
        up, which keeps traced runs short.  Calls are labelled for the
        trace by kind and repetition within the round: launder-j1-0,
        evaluate-0, report-1 and so on.
        """
        r = Round()
        k, self.count = self.count, self.count + 1
        done = set()
        for step in self.wl.schedule:
            if once and step in done:
                continue
            done.add(step)
            if step == "I":
                self.probe.sample()
                continue
            if k % 2 and step in ("L1", "L2"):
                step = "L2" if step == "L1" else "L1"
            rep = len(r.calls[step])
            if step in ("L1", "L2"):
                sample = self.launder(int(step[1]), rep, k, tracer)
            elif step == "E":
                sample = self.evaluate(rep, tracer)
            else:
                sample = self.report(rep, k, tracer)
            r.calls[step].append(sample)
        return r

    def launder(self, jobs, rep, k, tracer):
        out = self.work / f"launder-{k}-{rep}-j{jobs}"
        label = f"launder-j{jobs}-{rep}"
        call = call_cli(self.lb["cli"], launder_argv(self.inputs, out,
                                                     self.seed, jobs),
                        tracer, label)
        self.events[label] = count_warnings(call)
        written = self.checker.check(call, out, f"launder --jobs {jobs}")
        shutil.rmtree(out, ignore_errors=True)
        return written * corpus.SOURCE_SECONDS, call.seconds

    def score_args(self):
        return ["--manifest", str(self.inputs.trials_manifest),
                "--scores", str(self.inputs.scores)]

    def evaluate(self, rep, tracer):
        call = call_cli(self.lb["cli"], ["evaluate", *self.score_args()],
                        tracer, f"evaluate-{rep}")
        self.failures.attempted += 1
        self.evaluated = check_evaluate(call, self.inputs, self.failures)
        return len(self.inputs.trials.ids), call.seconds

    def report(self, rep, k, tracer):
        out = self.work / f"report-{k}-{rep}"
        call = call_cli(self.lb["cli"],
                        ["report", *self.score_args(), "--out", str(out)],
                        tracer, f"report-{rep}")
        self.failures.attempted += 1
        check_report(call, self.inputs, self.evaluated, out, self.failures)
        shutil.rmtree(out, ignore_errors=True)
        return len(self.inputs.trials.ids), call.seconds


# ----------------------------------------------------------------- metrics

def throughput(rounds, step):
    """Work over wall time, summed over every call of one kind."""
    calls = [c for r in rounds for c in r.calls[step]]
    return sum(w for w, _ in calls) / sum(s for _, s in calls)


def per_layer(tracer, runner, untraced, traced, import_s, noise_s):
    """Layer metrics of the traced round.  Launder layers come from the
    --jobs 1 call, scoring layers from evaluate plus report."""
    spans = tracer.spans
    selfs = tracing.self_times(spans)
    launder = [s for s in spans if s.call == "launder-j1-0"]
    scoring = [s for s in spans if s.call in ("evaluate-0", "report-0")]
    report = [s for s in spans if s.call == "report-0"]
    roots = [s for s in spans if s.name == "cli.main"]

    def named(group, name):
        return [s for s in group if s.name == name]

    def total(group, name):
        return sum(s.seconds for s in named(group, name))

    def p(group, name, q):
        values = [1000.0 * s.seconds for s in named(group, name)]
        return float(np.percentile(values, q)) if values else 0.0

    def per_audio_s(name):
        group = named(launder, name)
        audio_s = sum(s.info.get("audio_s", 0.0) for s in group)
        return 1000.0 * total(launder, name) / audio_s if audio_s else 0.0

    def mean_self_ms(name):
        group = named(launder, name)
        return (1000.0 * sum(selfs[s.id] for s in group) / len(group)
                if group else 0.0)

    plans = named(launder, "pipeline.execute_plan")
    plan_info = plans[0].info if plans else {}
    writes = named(launder, "audio.write_audio")
    clipped = sum(s.info.get("clipped", 0) for s in writes)
    if plans:
        runner.failures.check(clipped == plan_info.get("clip_events"),
                              f"clipped samples {clipped} != AugmentReport "
                              f"clip_events {plan_info.get('clip_events')}")
    reads = named(launder, "audio.read_audio")
    sources = {s.info.get("path") for s in reads}
    attacks = named(launder, "dsp.apply_attack")
    breakdowns = named(report, "reporting.compute_breakdown")
    metric_spans = [s for s in scoring if s.name.startswith("metrics.")]
    n_scoring = len({s.call for s in scoring}) or 1
    clamps, rate_changes = runner.events.get("launder-j1-0", (0, 0))
    noise_loads = [s for s in named(launder, "dsp.noise_get")
                   if s.parent in {r.id for r in roots}]
    jobs_failed = sum(s.info.get("jobs_failed", 0) for s in spans
                      if s.name == "pipeline.execute_plan")

    m = {
        "flacio.decode_ms_per_audio_s": per_audio_s("flacio.decode_flac"),
        "flacio.decode_calls": len(named(launder, "flacio.decode_flac")),
        "flacio.encode_ms_per_audio_s": per_audio_s("flacio.encode_flac"),
        "flacio.encode_calls": len(named(launder, "flacio.encode_flac")),
        "flacio.bytes_decoded": sum(s.info.get("bytes", 0) for s in
                                    named(launder, "flacio.decode_flac")),
        "flacio.bytes_encoded": sum(s.info.get("bytes", 0) for s in
                                    named(launder, "flacio.encode_flac")),
        "audio.read_self_ms": mean_self_ms("audio.read_audio"),
        "audio.write_self_ms": mean_self_ms("audio.write_audio"),
        "audio.codec_roundtrip_ms.p50": p(launder, "audio.codec_roundtrip",
                                          50),
        "audio.clipped_samples": clipped,
    }
    for kind in ("reverberation", "additive_noise", "recompression",
                 "resampling", "lowpass"):
        values = [1000.0 * s.seconds for s in attacks
                  if s.info.get("kind") == kind]
        m[f"dsp.{kind}_ms.p50"] = statistics.median(values) if values else 0.0
    m.update({
        "dsp.nyquist_clamps": clamps,
        "dsp.codec_rate_changes": rate_changes,
        "dsp.noise_load_s": (sum(s.seconds for s in noise_loads)
                             if noise_loads else noise_s),
        "pipeline.decodes_per_source": (
            len(named(launder, "flacio.decode_flac")) / len(sources)
            if sources else 0.0),
        "pipeline.job_ms.p50": p(launder, "pipeline.job", 50),
        "pipeline.job_ms.p90": p(launder, "pipeline.job", 90),
        "pipeline.thread_scaling": (
            throughput([untraced], "L2") / throughput([untraced], "L1")),
        "pipeline.jobs_failed": jobs_failed,
        "pipeline.plan_ms": 1000.0 * (total(launder, "pipeline.select_subset")
                                      + total(launder,
                                              "pipeline.plan_attacks")),
        "protocol.parse_manifest_s": total(scoring, "protocol.parse_manifest")
        / n_scoring,
        "protocol.parse_scores_s": total(scoring, "protocol.parse_scores")
        / n_scoring,
        "protocol.join_scores_s": total(scoring, "protocol.join_scores")
        / n_scoring,
        "reporting.breakdown_self_s": sum(selfs[s.id] for s in breakdowns),
        "reporting.render_s": total(report, "reporting.render")
        + total(report, "reporting.render_skipped"),
        "reporting.cells": sum(s.info.get("cells", 0) for s in breakdowns),
        "reporting.cells_skipped": sum(s.info.get("skipped", 0)
                                       for s in breakdowns),
        "metrics.calls": len(metric_spans),
        "metrics.total_s": sum(s.seconds for s in metric_spans),
        "cli.import_s": import_s,
        "cli.self_s": sum(selfs[s.id] for s in roots),
        "trace.overhead_s": traced.total_s() - untraced.total_s(),
        "src_lines": src_lines(),
    })
    notes = {
        "pipeline.job_ms.p90": f"of {len(named(launder, 'pipeline.job'))} "
                               f"jobs",
        "audio.codec_roundtrip_ms.p50": "copy-stub codec, libmp3lame "
                                        "not used",
        "dsp.recompression_ms.p50": "copy-stub codec, libmp3lame not used",
        "trace.overhead_s": f"traced {traced.total_s():.3f} s - untraced "
                            f"{untraced.total_s():.3f} s",
    }
    for name in tracer.missing:
        print(f"unmeasured: {name} is not in the program; metrics built on "
              f"it read 0")
    return m, notes


def src_lines():
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "launderbench").glob("*.py")))


def environment():
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "codec": f"copy stub, libmp3lame never loaded: encode "
                     f"'{ENCODE_CMD}', decode '{DECODE_CMD}'",
            "src_lines": src_lines()}


# -------------------------------------------------------------------- main

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def timed_run(args, runner, probe, noise_s):
    """Rounds until --seconds have passed; the end-to-end metrics."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        rounds.append(runner.round())
    probe.top_up()
    wall_s = statistics.median(probe.walls)
    metrics = {METRIC_OF[step]: throughput(rounds, step)
               for step in METRIC_OF}
    metrics["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["setup_s"] = wall_s + noise_s
    notes = {}
    for step, name in METRIC_OF.items():
        calls = [c for r in rounds for c in r.calls[step]]
        per_call = [w / s for w, s in calls]
        notes[name] = (f"over {len(calls)} calls; per-call median "
                       f"{statistics.median(per_call):.6g}")
        print(f"samples {name}: " + " ".join(f"{v:.6g}" for v in per_call))
    print("samples setup_s (fresh import wall): "
          + " ".join(f"{v:.4f}" for v in probe.walls))
    notes["peak_rss_mb"] = "ru_maxrss of the benchmark process"
    notes["setup_s"] = (f"fresh import {wall_s:.3f} s, median of "
                        f"{len(probe.walls)}, + noise load {noise_s:.3f} s, "
                        f"median of {SETUP_REPS}")
    return metrics, notes


def traced_run(args, lb, runner, probe, noise_s):
    """One untraced and one traced round; the per-layer metrics."""
    untraced = runner.round(once=True)
    tracer = tracing.Tracer()
    tracing.install(tracer, lb)
    try:
        traced = runner.round(tracer, once=True)
    finally:
        tracer.unpatch_all()
    probe.top_up()
    metrics, notes = per_layer(tracer, runner, untraced, traced,
                               statistics.median(probe.imports), noise_s)
    trace_dir = WORK / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_path = trace_dir / f"{args.workload}-seed{args.seed}.jsonl"
    tracer.write(trace_path)
    print(f"trace: {len(tracer.spans)} spans written to "
          f"{trace_path.relative_to(ROOT)}")
    print("layer mp3tool: unmeasured (recompression runs the copy stub; "
          "libmp3lame is never loaded)")
    return metrics, notes


def run(args, spec, work):
    wl = WORKLOADS[args.workload]
    lb = load_program()
    os.environ.pop("LAUNDERBENCH_CONFIG", None)
    (work / "tmp").mkdir(parents=True)
    tempfile.tempdir = str(work / "tmp")
    env = environment()
    print("env " + " ".join(f"{k}={v!r}" for k, v in env.items()))
    print(f"workload {args.workload} seed {args.seed}: {wl.sources} "
          f"{wl.coding}-coded sources of {corpus.SOURCE_SECONDS} s at "
          f"{corpus.RATE_HZ} Hz (9 jobs each), {wl.trials} scored trials")

    failures = Failures()
    t0 = time.perf_counter()
    inputs = make_inputs(lb, wl, args.seed, work, failures)
    print(f"inputs built in {time.perf_counter() - t0:.2f} s (not timed)")
    noise_s = noise_load_seconds(lb, inputs.noise_dir)
    probe = ImportProbe()
    runner = Runner(lb, wl, inputs, args.seed, work, failures, probe)
    runner.warm_up()
    if args.trace:
        metrics, notes = traced_run(args, lb, runner, probe, noise_s)
        declared = spec["per_layer"]
    else:
        metrics, notes = timed_run(args, runner, probe, noise_s)
        declared = spec["end_to_end"]

    units = {d["name"]: d["unit"] for d in declared}
    if set(units) != set(metrics):
        raise SystemExit(f"error: measured {sorted(metrics)} but "
                         f"BENCHMARK.json declares {sorted(units)}")
    for name in units:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"metric {name} = {metrics[name]:.6g} {units[name]}{note}")
    digest, files = runner.checker.digest()
    print(f"digest non_codec_sha256={digest} files={files} "
          f"(augmented.manifest and non-recompression FLAC outputs)")
    print(f"failed_ratio = {failures.failed}/{failures.attempted} = "
          f"{failures.failed / max(failures.attempted, 1):.6g}")
    return {"correct": failures.failed == 0,
            "attempted": failures.attempted, "failed": failures.failed,
            "metrics": {name: {"value": float(metrics[name]),
                               "unit": units[name]} for name in units}}


def main(argv=None):
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "launderbench" / "cli.py").is_file() \
            or not spec_path.is_file():
        print(f"error: run from a launderbench checkout; {SRC} or "
              f"{spec_path} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        result = run(args, spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
