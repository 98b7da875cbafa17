"""In-memory spans around the program's layer boundaries.

The tracer replaces functions at the names their callers look up: the
program binds most names with ``from ... import``, so the attribute that
must be patched is the one in the calling module (``pipeline.read_audio``,
``cli.compute_breakdown``, ``reporting.eer``), while ``audio`` reaches the
FLAC codec through the module attribute ``flacio.decode_flac``.

Spans carry name, start, end, parent and thread id.  A span's parent is
the innermost open span of the same thread; a worker thread's outermost
span is parented to the span that was open when the pool was entered
(``pipeline.execute_plan``).  Self time is computed per thread, so work
that overlaps in another thread is never subtracted.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int
    thread: int
    call: str
    start: float
    end: float = None
    info: dict = field(default_factory=dict)

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self.call = None            # label of the CLI call being traced
        self.anchor = None          # parent for spans opened by pool threads
        self.missing = []           # patch targets the program lacks
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._open_jobs = {}
        self._patches = []

    # ---------------------------------------------------------- spans

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name):
        stack = self._stack()
        parent = stack[-1].id if stack else self.anchor
        span = Span(next(self._ids), name, parent, threading.get_ident(),
                    self.call, time.perf_counter())
        stack.append(span)
        self.spans.append(span)
        return span

    def end(self, span):
        """Close span and any spans of this thread still open above it."""
        now = time.perf_counter()
        stack = self._stack()
        while stack:
            top = stack.pop()
            if top.end is None:
                top.end = now
            if top is span:
                break
        if span.end is None:
            span.end = now

    # ------------------------------------------------------ job spans

    def begin_job(self):
        """Start a pipeline job span in this thread, ending the previous
        one if a failed job left it open."""
        tid = threading.get_ident()
        previous = self._open_jobs.pop(tid, None)
        if previous is not None:
            self.end(previous)
        self._open_jobs[tid] = self.begin("pipeline.job")

    def end_job(self):
        span = self._open_jobs.pop(threading.get_ident(), None)
        if span is not None:
            self.end(span)

    def close_jobs(self, end):
        for span in list(self._open_jobs.values()):
            if span.end is None:
                span.end = end
        self._open_jobs.clear()

    # ------------------------------------------------------- patching

    def wrap(self, name, fn, note=None, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before()
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                span.info["error"] = type(e).__name__
                raise
            finally:
                tracer.end(span)
                if after is not None:
                    after()
            if note is not None:
                span.info.update(note(args, result))
            return result

        return traced

    def patch(self, owner, attr, name, **hooks):
        """Replace owner.attr by a traced wrapper until unpatch_all()."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **hooks))

    def unpatch_all(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def calling(self, label):
        """Root span for one CLI call; every span opened inside is
        labelled with it."""
        self.call = label
        span = self.begin("cli.main")
        try:
            yield span
        finally:
            self.end(span)
            self.close_jobs(span.end)
            self.call = None

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent,
                    "thread": s.thread, "call": s.call, "start": s.start,
                    "end": s.end, "info": s.info}) + "\n")


def self_times(spans):
    """Span id -> duration minus the union of same-thread child spans."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        lo = hi = None
        intervals = sorted(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.id, ()) if c.thread == s.thread)
        for a, b in intervals:
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out[s.id] = s.seconds - covered
    return out


def install(tracer, lb):
    """Patch the program's layer boundaries; lb maps module names to the
    imported launderbench modules."""
    cli, pipeline, dsp = lb["cli"], lb["pipeline"], lb["dsp"]
    reporting, flacio = lb["reporting"], lb["flacio"]

    def decoded(args, result):
        samples, rate, _ = result
        return {"bytes": len(args[0]), "audio_s": len(samples) / rate}

    def encoded(args, result):
        return {"bytes": len(result), "audio_s": len(args[0]) / args[1]}

    def plan_done(args, result):
        return {"jobs_total": result.jobs_total,
                "jobs_failed": result.jobs_failed,
                "clip_events": result.clip_events}

    def breakdown(args, result):
        return {"cells": len(result.cells), "skipped": len(result.skipped)}

    def read_note(args, result):
        return {"path": str(args[0])}

    def execute_plan(original):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer.begin("pipeline.execute_plan")
            outer = tracer.anchor
            tracer.anchor = span.id
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.anchor = outer
                tracer.close_jobs(time.perf_counter())
                tracer.end(span)
            span.info.update(plan_done(args, result))
            return result
        return traced

    for attr, name in (("parse_manifest", "protocol.parse_manifest"),
                       ("parse_scores", "protocol.parse_scores"),
                       ("join_scores", "protocol.join_scores"),
                       ("select_subset", "pipeline.select_subset"),
                       ("plan_attacks", "pipeline.plan_attacks"),
                       ("render", "reporting.render"),
                       ("render_skipped", "reporting.render_skipped")):
        tracer.patch(cli, attr, name)
    tracer.patch(cli, "compute_breakdown", "reporting.compute_breakdown",
                 note=breakdown)
    if hasattr(cli, "execute_plan"):
        original = cli.execute_plan
        tracer._patches.append((cli, "execute_plan", original))
        cli.execute_plan = execute_plan(original)
    else:
        tracer.missing.append("cli.execute_plan")
    for owner in (cli, reporting):
        for metric in ("min_dcf", "act_dcf", "cllr", "eer"):
            tracer.patch(owner, metric, f"metrics.{metric}")
    tracer.patch(pipeline, "read_audio", "audio.read_audio",
                 note=read_note, before=tracer.begin_job)
    tracer.patch(pipeline, "write_audio", "audio.write_audio",
                 note=lambda a, r: {"clipped": int(r)},
                 after=tracer.end_job)
    tracer.patch(pipeline, "apply_attack", "dsp.apply_attack",
                 note=lambda a, r: {"kind": a[1].kind})
    tracer.patch(dsp, "codec_roundtrip", "audio.codec_roundtrip")
    tracer.patch(dsp.NoiseLibrary, "get", "dsp.noise_get")
    tracer.patch(flacio, "decode_flac", "flacio.decode_flac", note=decoded)
    tracer.patch(flacio, "encode_flac", "flacio.encode_flac", note=encoded)
