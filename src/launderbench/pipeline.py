"""Batch laundering: subset selection, attack planning, and execution.

A run takes a manifest, keeps a seeded fraction of its rows, drawn from
their id order, and plans one attacked copy per kept file and spec that
dsp.attack_specs draws for its id, named by dsp.attack_tag and seeded by
(run seed, utterance id, tag), so plans and non-codec output bytes are
reproducible from the manifest and the seed alone, regardless of
manifest line order or worker scheduling.

Execution runs one task per source: the source is read once, and its
attacks and writes run in plan order on that one decoded buffer.  A
failed read fails exactly that source's jobs; a failed attack or write
fails only its own job.  With more than one source and parallelism
above 1, the sources are dealt in fixed slices to worker processes
started by forked, the program's one way to run work in a child;
otherwise they run inline, in the calling process, on the same code path.
"""

from __future__ import annotations

import contextlib
import functools
import os
import pickle
import posixpath
import signal
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .audio import read_audio, write_audio
from .dsp import apply_attack, attack_specs, attack_tag
from .errors import (EmptyInput, InvalidParameter, IoFailure,
                     LaunderbenchError, WorkerDied, ZeroSelection)
from .protocol import emit_manifest
from .rng import derive_seed, make_rng


@dataclass(frozen=True)
class AugmentationJob:
    """One (source file, attack) pair scheduled for execution."""

    source: object
    spec: object        # a dsp.AttackSpec
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


def select_subset(order, fraction: float, seed: int) -> list:
    """Rows of floor(fraction*N) ids, chosen by seeded shuffle, in id order.

    order lists the rows in id order (TrialColumns.order), so the
    selection depends only on the set of ids, not on manifest line order.
    The fraction is read as a decimal literal, so 0.7 of 10 files is
    exactly 7 even though 0.7*10 < 7 in binary floats.
    """
    n = len(order)
    if not n:
        raise EmptyInput("cannot select from an empty trial list")
    if not 0.0 < fraction <= 1.0:
        raise InvalidParameter(
            f"fraction must lie in (0, 1], got {fraction}")
    count = int(Fraction(str(fraction)) * n)
    if count == 0:
        raise ZeroSelection(
            f"fraction {fraction} of {n} trials floors to zero")
    perm = make_rng(seed, "select").permutation(n)
    return [int(order[i]) for i in sorted(perm[:count].tolist())]


def plan_attacks(selected, seed: int) -> list:
    """Expand each selected record into one job per attack drawn for it.

    The whole plan is refused, before anything runs, when an id's output
    path would be absolute, climb out of the output directory, hold a
    NUL byte, which no file name can, or normalize to another id's path.
    """
    selected = list(selected)
    if not selected:
        raise EmptyInput("cannot plan attacks for an empty selection")
    jobs = []
    writers = {}    # normalized output path -> the id that writes it
    for t in selected:
        utt = t.utterance_id
        for spec in attack_specs(seed, utt):
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
            other = writers.setdefault(posixpath.normpath(path), utt)
            if other != utt:
                raise InvalidParameter(
                    f"utterance ids {other!r} and {utt!r} would write the "
                    f"same file: {path}")
            jobs.append(AugmentationJob(
                source=t,
                spec=spec,
                job_seed=derive_seed(seed, utt, tag),
                output_utterance_id=out_id,
                output_path=path))
    return jobs


def _run_sources(tasks, jobs, audio_root, out_dir, noises, backend):
    """(job index, (clips, error)) per job of tasks, a source at a time:
    one read, then each attack and write in plan order."""
    done = []
    for source_path, indices in tasks:
        try:
            buf = read_audio(audio_root / source_path)
        except (LaunderbenchError, OSError) as e:
            done += [(i, (0, e)) for i in indices]
            continue
        # an attack that wrote into its input would corrupt the others
        buf.samples.flags.writeable = False
        for i in indices:
            job = jobs[i]
            try:
                out = apply_attack(buf, job.spec, job.job_seed, noises=noises,
                                   backend=backend)
                dest = out_dir / job.output_path
                dest.parent.mkdir(parents=True, exist_ok=True)
                done.append((i, (write_audio(out, dest, format="flac"), None)))
            except (LaunderbenchError, OSError) as e:
                done.append((i, (0, e)))
    return done


@contextlib.contextmanager
def forked(call, died):
    """Runs call() in a child forked on entry and yields received(), which
    returns what call() returned or raises what it raised, pickled back
    through a pipe; a child that dies before sending is a WorkerDied(died).
    On leaving, the child is killed if it is still running, and reaped."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        try:
            os.close(r)
            try:
                sent = (True, call())
            except BaseException as e:
                sent = (False, e)
            with open(w, "wb") as pipe:
                pickle.dump(sent, pipe, pickle.HIGHEST_PROTOCOL)
        finally:
            os._exit(0)

    def received():
        try:
            ok, result = pickle.load(pipe)
        except (EOFError, pickle.UnpicklingError):
            raise WorkerDied(died) from None
        if ok:
            return result
        raise result

    try:
        os.close(w)
        with open(r, "rb") as pipe:
            yield received
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def execute_plan(jobs, audio_root, out_dir, noises=None, backend=None,
                 parallelism: int = 4) -> AugmentReport:
    """Run jobs against audio under audio_root, writing FLAC to out_dir.

    Jobs are grouped by source path in first-seen order, and each group
    is one task: one read, then its attacks and writes in plan order on
    the shared, read-only decoded buffer.  Of W workers, the least of
    parallelism, the sources and the CPUs this process may run on, worker
    w runs every W-th task from the w-th in a forked child (inline if W is
    1), which inherits the jobs, noises and codec backend and sends back
    only its results.  Each worker holds its own decoded source, so memory
    grows with W, and a warning raised in a worker is printed by it.

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

    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)       # macOS has no sched_getaffinity
    workers = min(parallelism, len(groups), cpus)
    calls = [functools.partial(_run_sources, groups[w::workers], jobs,
                               audio_root, out_dir, noises, backend)
             for w in range(workers)]
    with contextlib.ExitStack() as stack:
        if workers > 1:
            calls = [stack.enter_context(forked(
                call, "a worker process died before finishing its sources"))
                for call in calls]
        results = dict(pair for call in calls for pair in call())

    clip_events = 0
    failures = []
    for i, job in enumerate(jobs):
        clips, err = results[i]
        if err is None:
            clip_events += clips
        else:
            failures.append((job, err))
    return AugmentReport(len(jobs), clip_events, tuple(failures))


def emit_augmented_manifest(original, jobs, backend_identity=None) -> str:
    """Manifest rows of five fields plus one inherited-label record per job.

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
