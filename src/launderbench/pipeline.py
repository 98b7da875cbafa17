"""Batch laundering: subset selection, attack planning, and execution.

A run takes a manifest, keeps a seeded fraction of its files, and plans
nine attacked copies per kept file: one reverberation, five additive
noises (one per noise name), one recompression, one resampling, and one
fixed lowpass.  Every random draw is keyed by (run seed, utterance id,
attack slot), so plans and non-codec output bytes are reproducible from
the manifest and the seed alone, regardless of manifest line order or
worker scheduling.

Execution runs one task per source: the source is read once, and its
attacks and writes run in plan order on that one decoded buffer.  A
failed read fails exactly that source's jobs; a failed attack or write
fails only its own job.  With more than one source and parallelism
above 1, sources run in forked worker processes; otherwise they run
inline, in the calling process, on the same code path.
"""

from __future__ import annotations

import multiprocessing
import posixpath
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .audio import read_audio, write_audio
from .dsp import ATTACK_GRID, AttackSpec, apply_attack
from .errors import (EmptyInput, InvalidParameter, IoFailure,
                     LaunderbenchError, WorkerDied, ZeroSelection)
from .protocol import emit_manifest
from .rng import derive_seed, make_rng


@dataclass(frozen=True)
class AugmentationJob:
    """One (source file, attack) pair scheduled for execution."""

    source: object
    spec: AttackSpec
    job_seed: int
    output_utterance_id: str
    output_path: str


@dataclass(frozen=True)
class AugmentReport:
    jobs_total: int
    clip_events: int
    failures: tuple

    @property
    def jobs_failed(self) -> int:
        return len(self.failures)

    @property
    def jobs_succeeded(self) -> int:
        return self.jobs_total - self.jobs_failed


def attack_tag(spec: AttackSpec) -> str:
    """Stable injective label for one attack parameterization."""
    if spec.kind == "reverberation":
        return f"reverberation_{spec.rt60_s:.1f}"
    if spec.kind == "additive_noise":
        return f"{spec.noise_name}_{spec.snr_db}"
    if spec.kind == "recompression":
        return f"recompression_{spec.bitrate_kbps}"
    if spec.kind == "resampling":
        return f"resampling_{spec.target_rate_hz}"
    return f"lowpass_{int(spec.cutoff_hz)}_{spec.order}"


def select_subset(trials, fraction: float, seed: int) -> list:
    """Keep floor(fraction*N) records, chosen by seeded shuffle.

    Ids are sorted before shuffling so the selection depends only on the
    set of ids, not on manifest line order.  The fraction is read as a
    decimal literal, so 0.7 of 10 files is exactly 7 even though
    0.7*10 < 7 in binary floats.
    """
    trials = list(trials)
    if not trials:
        raise EmptyInput("cannot select from an empty trial list")
    if not 0.0 < fraction <= 1.0:
        raise InvalidParameter(
            f"fraction must lie in (0, 1], got {fraction}")
    count = int(Fraction(str(fraction)) * len(trials))
    if count == 0:
        raise ZeroSelection(
            f"fraction {fraction} of {len(trials)} trials floors to zero")
    ordered = sorted(trials, key=lambda t: t.utterance_id)
    perm = make_rng(seed, "select").permutation(len(ordered))
    chosen = [ordered[i] for i in perm[:count]]
    chosen.sort(key=lambda t: t.utterance_id)
    return chosen


def _draw(seed, utt, slot, choices):
    rng = make_rng(seed, utt, slot)
    return choices[int(rng.integers(len(choices)))]


def _attack_specs(seed, utt):
    """One spec per ATTACK_GRID kind, one per noise name for additive
    noise; each kind draws under its own slot, each noise under
    noise:{name}."""
    for kind, grid in ATTACK_GRID.items():
        for name in grid.get("noise_name", (None,)):
            slot = kind if name is None else f"noise:{name}"
            yield AttackSpec(kind, noise_name=name, **{
                param: _draw(seed, utt, slot, values)
                for param, values in grid.items() if param != "noise_name"})


def plan_attacks(selected, seed: int) -> list:
    """Expand each selected record into its nine attack jobs.

    The whole plan is refused, before anything runs, when an id's output
    path would be absolute, climb out of the output directory, or hold a
    NUL byte, which no file name can.
    """
    selected = list(selected)
    if not selected:
        raise EmptyInput("cannot plan attacks for an empty selection")
    jobs = []
    for t in selected:
        utt = t.utterance_id
        for spec in _attack_specs(seed, utt):
            tag = attack_tag(spec)
            out_id = f"{utt}_{tag}"
            path = f"{utt[:2]}/{out_id}.flac"
            if "\0" in path:
                raise InvalidParameter(
                    f"utterance id {utt!r} holds a NUL byte, which no "
                    f"output file name can")
            if posixpath.isabs(path) or \
                    posixpath.normpath(path).split("/")[0] == "..":
                raise InvalidParameter(
                    f"utterance id {utt!r} would write outside the output "
                    f"directory: {path}")
            jobs.append(AugmentationJob(
                source=t,
                spec=spec,
                job_seed=derive_seed(seed, utt, tag),
                output_utterance_id=out_id,
                output_path=path))
    return jobs


def _run_source(state, task):
    """One source's jobs: one read, then each attack and write in plan
    order; (clips, error) per job."""
    jobs, audio_root, out_dir, noises, backend = state
    source_path, indices = task
    try:
        buf = read_audio(audio_root / source_path)
    except (LaunderbenchError, OSError) as e:
        return [(0, e)] * len(indices)
    # an attack that wrote into its input would corrupt the others
    buf.samples.flags.writeable = False
    results = []
    for i in indices:
        job = jobs[i]
        try:
            out = apply_attack(buf, job.spec, job.job_seed, noises=noises,
                               backend=backend)
            dest = out_dir / job.output_path
            dest.parent.mkdir(parents=True, exist_ok=True)
            results.append((write_audio(out, dest, format="flac"), None))
        except (LaunderbenchError, OSError) as e:
            results.append((0, e))
    return results


_worker_state = None   # set only inside a worker process, by _bind_worker


def _bind_worker(*state):
    global _worker_state
    _worker_state = state


def _run_in_worker(task):
    return _run_source(_worker_state, task)


def execute_plan(jobs, audio_root, out_dir, noises=None, backend=None,
                 parallelism: int = 4) -> AugmentReport:
    """Run jobs against audio under audio_root, writing FLAC to out_dir.

    Jobs are grouped by source path in first-seen order, and each group
    is one task: one read, then its attacks and writes in plan order on
    the shared, read-only decoded buffer.  Up to `parallelism` sources
    run at once, each in a forked worker process that inherits the jobs,
    noises and codec backend; only (source path, job indices) and the
    results cross the pipe.  Each worker holds its own decoded source, so
    memory grows with `parallelism`, and a warning raised in a worker is
    printed by that worker.  With parallelism 1 or a single source the
    sources run inline.

    Failures are collected in the report, in job order, instead of
    aborting the batch: an unreadable source fails exactly its own jobs
    with the read's error, and a failed attack or write fails only its
    job.  Only an unusable out_dir or a worker process that dies is
    fatal.
    """
    jobs = list(jobs)
    if parallelism < 1:
        raise InvalidParameter("parallelism must be at least 1")
    audio_root = Path(audio_root)
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write-probe"
        probe.write_bytes(b"")
        probe.unlink()
    except OSError as e:
        raise IoFailure(f"output directory {out_dir} is not writable: {e}")

    groups = {}
    for i, job in enumerate(jobs):
        groups.setdefault(job.source.source_path, []).append(i)
    groups = list(groups.items())

    state = (jobs, audio_root, out_dir, noises, backend)
    workers = min(parallelism, len(groups))
    if workers <= 1:
        outcomes = [_run_source(state, g) for g in groups]
    else:
        try:
            with ProcessPoolExecutor(
                    workers, mp_context=multiprocessing.get_context("fork"),
                    initializer=_bind_worker, initargs=state) as pool:
                outcomes = list(pool.map(_run_in_worker, groups))
        except BrokenProcessPool:
            raise WorkerDied("a worker process died before finishing its "
                             "sources") from None
    results = [None] * len(jobs)
    for (_, indices), outcome in zip(groups, outcomes):
        for i, result in zip(indices, outcome):
            results[i] = result

    clip_events = 0
    failures = []
    for job, (clips, err) in zip(jobs, results):
        if err is None:
            clip_events += clips
        else:
            failures.append((job, err))
    return AugmentReport(len(jobs), clip_events, tuple(failures))


def emit_augmented_manifest(original, jobs, backend_identity=None) -> str:
    """Original manifest plus one inherited-label record per job.

    Each appended line carries a trailing comment with the attack tag;
    recompression lines also note the codec backend identity when given.
    """
    parts = [emit_manifest(original)]
    for job in jobs:
        line = " ".join(job.source._replace(
            utterance_id=job.output_utterance_id,
            source_path=job.output_path))
        comment = f"  # attack={attack_tag(job.spec)}"
        if job.spec.kind == "recompression" and backend_identity:
            comment += f" backend={backend_identity}"
        parts.append(line + comment + "\n")
    return "".join(parts)
