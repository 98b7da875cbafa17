"""Tests of the benchmark's own code: span self time across threads, the
LPC fixture writer, the score-output checks and the refusal to run
outside a checkout.

    python3 -m pytest bench/tests -q
"""

import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import corpus  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from launderbench import flacio  # noqa: E402


# ------------------------------------------------------------- self time

def span(sid, parent, thread, start, end):
    return tracing.Span(sid, f"s{sid}", parent, thread, None, start, end)


def test_self_time_subtracts_only_same_thread_children():
    spans = [
        span(1, None, 10, 0.0, 10.0),
        span(2, 1, 10, 2.0, 4.0),      # overlapping same-thread children:
        span(3, 1, 10, 3.0, 6.0),      # their union, 4 s, is subtracted
        span(4, 1, 20, 1.0, 9.0),      # pool thread: overlaps, not subtracted
        span(5, 4, 20, 8.0, 12.0),     # clipped to its parent's interval
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(6.0)
    assert selfs[4] == pytest.approx(7.0)
    assert selfs[5] == pytest.approx(4.0)


def test_tracer_parents_spans_per_thread():
    tracer = tracing.Tracer()
    barrier = threading.Barrier(2, timeout=10)

    def inner():
        barrier.wait()
        return 1

    traced_inner = tracer.wrap("inner", inner)
    traced_outer = tracer.wrap("outer", lambda: traced_inner())

    root = tracer.begin("root")
    tracer.anchor = root.id
    threads = [threading.Thread(target=traced_outer) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    tracer.anchor = None
    tracer.end(root)

    outers = [s for s in tracer.spans if s.name == "outer"]
    inners = [s for s in tracer.spans if s.name == "inner"]
    assert len(outers) == len(inners) == 2
    assert {s.thread for s in outers} == {s.thread for s in inners}
    assert len({s.thread for s in outers}) == 2
    by_id = {s.id: s for s in tracer.spans}
    for s in inners:
        assert by_id[s.parent].name == "outer"
        assert by_id[s.parent].thread == s.thread
    assert all(s.parent == root.id for s in outers)
    selfs = tracing.self_times(tracer.spans)
    assert selfs[root.id] == pytest.approx(root.seconds)
    for s in outers:
        child = next(c for c in inners if c.parent == s.id)
        assert selfs[s.id] == pytest.approx(s.seconds - child.seconds)


def test_failed_job_span_is_closed_by_next_job():
    tracer = tracing.Tracer()
    tracer.begin_job()
    first = tracer.spans[-1]
    tracer.begin_job()              # the first job never reached its write
    assert first.end is not None
    tracer.end_job()
    assert all(s.end is not None for s in tracer.spans)


# ------------------------------------------------------------ LPC fixtures

@pytest.mark.parametrize("n", [1, 16, 17, 100, 4095, 4096, 4097, 48000])
def test_lpc_fixture_round_trip(n):
    rng = np.random.default_rng(n)
    if n == 48000:
        q = corpus.quantize16(corpus.speech_like(rng))
    else:
        q = rng.integers(-32768, 32768, n)
    blob = corpus.encode_lpc_flac(q)
    got, rate, bps = flacio.decode_flac(blob)
    assert (rate, bps) == (corpus.RATE_HZ, 16)
    assert np.array_equal(got, q)
    assert run.decodes_to({"flacio": flacio}, blob, q)


def test_lpc_fixture_uses_order_8_lpc_subframes():
    q = corpus.quantize16(corpus.speech_like(np.random.default_rng(3)))
    blob = corpus.encode_lpc_flac(q)
    first_frame = blob.index(b"\xff\xf8")
    # 4096-sample frames have a 6-byte header; the subframe type follows
    assert blob[first_frame + 6] >> 1 == 32 + corpus.LPC_ORDER - 1
    assert len(blob) < 0.8 * 2 * len(q)


def test_crc_check_values():
    assert corpus.crc8(b"123456789") == 0xF4
    assert corpus.crc16(b"123456789") == 0xFEE8


def test_corrupt_fixture_fails_the_check():
    q = corpus.quantize16(corpus.speech_like(np.random.default_rng(4)))
    blob = bytearray(corpus.encode_lpc_flac(q))
    blob[-100] ^= 0x10
    assert not run.decodes_to({"flacio": flacio}, bytes(blob), q)


# ------------------------------------------------------------ score checks

@pytest.fixture
def scored(tmp_path, monkeypatch):
    monkeypatch.delenv("LAUNDERBENCH_CONFIG", raising=False)
    trials = corpus.trial_set(3000, np.random.default_rng(7))
    manifest = tmp_path / "t.manifest"
    scores = tmp_path / "t.scores"
    manifest.write_text(trials.manifest_text())
    scores.write_text(trials.scores_text())
    from launderbench import metrics
    return run.Inputs(None, None, None, {}, trials, manifest, scores,
                      run.expected_metrics(metrics, trials))


def score(inputs, out_dir):
    args = ["--manifest", str(inputs.trials_manifest),
            "--scores", str(inputs.scores)]
    from launderbench import cli
    ev = run.call_cli(cli, ["evaluate", *args])
    rep = run.call_cli(cli, ["report", *args, "--out", str(out_dir)])
    return ev, rep


def test_score_checks_pass_on_program_output(scored, tmp_path):
    failures = run.Failures()
    ev, rep = score(scored, tmp_path / "r")
    got = run.check_evaluate(ev, scored, failures)
    run.check_report(rep, scored, got, tmp_path / "r", failures)
    assert failures.failed == 0
    assert failures.attempted > 20


def test_score_checks_catch_a_wrong_cell(scored, tmp_path):
    failures = run.Failures()
    ev, rep = score(scored, tmp_path / "r")
    grid = tmp_path / "r" / "report_grid_eer.tsv"
    lines = grid.read_text().splitlines()
    cells = lines[3].split("\t")
    cells[4] = f"{float(cells[4]) + 0.5:.3f}"
    lines[3] = "\t".join(cells)
    grid.write_text("\n".join(lines) + "\n")
    got = run.check_evaluate(ev, scored, failures)
    run.check_report(rep, scored, got, tmp_path / "r", failures)
    assert failures.failed == 1


def test_evaluate_and_report_rounding_agree():
    row = ["*", "*", "0.124", "1.000", "0.500", "12.346", "10", "90"]
    evaluated = {"min_dcf": "0.123500", "act_dcf": "0.999501",
                 "cllr": "0.500000", "eer": "12.345500", "n_bon": "10",
                 "n_spf": "90"}
    assert run.agrees(evaluated, row)
    assert not run.agrees(dict(evaluated, eer="12.344000"), row)
    assert not run.agrees(dict(evaluated, n_bon="11"), row)
    assert not run.agrees({}, row)


def test_trial_set_fills_every_cell():
    trials = corpus.trial_set(2000, np.random.default_rng(1))
    assert len(set(trials.ids)) == 2000
    assert trials.bonafide.sum() == 200
    for a in range(len(corpus.ATTACKS)):
        for c in range(len(corpus.CODECS)):
            bon, spf = trials.cell(a, c)
            assert len(bon) and len(spf)


# ------------------------------------------------------------- checkout

def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "score", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
