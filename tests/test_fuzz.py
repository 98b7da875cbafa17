"""Input fuzzing: no FLAC stream and no manifest or score file gives a
traceback, a hang or a wrong result.

Two kinds of source stream are mutated: order-8 LPC streams, as
reference encoders write them, from a small writer kept in this file
(its own bit strings and CRCs, so the decoder is not checked against
code it shares), and the program's own fixed-predictor encoder output.
The mutations, drawn from one seeded random.Random per stream, are bit
flips, truncations (half of them in the last 16 bytes, among the last
Rice codes), overwritten byte runs, and, on the LPC streams,
frame-body edits whose frame CRC-16 is written anew, so that the edit
gets past the CRC check to the prediction restore.

Every mutated stream must decode to the original samples or raise a
LaunderbenchError, each within STREAM_SECONDS; a truncated stream must
raise CorruptFile saying where the stream ran out.  Each of the four
source streams gets MUTATIONS mutants, 1,400 decodes in all, which take
about 5 s on 2 shared CPUs, where the slowest decode took 15 ms.

evaluate and report each read SCORING_CASES drawn pairs of manifest and
score files (see scoring_case) through cli.main.  Each call must return
0 or 1 and print no traceback.  What it computes, or the error it
prints, must be what test_protocol's references read from the same
bytes: the per-line readers, after a strict UTF-8 check and less one
byte-order mark, and the dict join, broken down as the command does.
The 2 x 300 calls take about 2 s on 2 shared CPUs.  The fixtures' score
files are far below cli.FORK_SCORES_BYTES, so test_scoring_input_forked
runs the same cases again with the bound at 0: every non-empty score
file is then parsed in a forked child, and the results must be the
same.  Those 600 calls take about 5 s.
"""

import codecs
import collections
import contextlib
import hashlib
import random
import re
import shutil
import signal
import warnings
from unittest import mock

import numpy as np
import pytest
from scipy.signal import lfilter

from launderbench import cli, flacio, protocol, reporting
from launderbench.errors import CorruptFile, LaunderbenchError
from launderbench.metrics import MetricConfig
from test_cli import assert_no_child_left, fork_every_scores_file
from test_protocol import _per_line_records, _reference_join

MUTATIONS = 350          # mutated streams per source stream
STREAM_SECONDS = 1.0     # bound on one decode
RATE = 16000
LPC_ORDER = 8
LPC_PRECISION = 13
BLOCKSIZE = 4096
# what a truncated stream is refused with: cut inside a frame, inside
# the metadata, before the marker, or between two frames
TRUNCATED = ("unexpected end of FLAC stream|truncated metadata|"
             "missing fLaC|STREAMINFO says")


def speech_like(seed, n=8000):
    """16-bit speech-like samples: a seeded order-2 resonance driven by
    noise, under a slow envelope."""
    x = lfilter([1.0], [1.0, -1.8, 0.9],
                np.random.default_rng(seed).standard_normal(n))
    x *= 0.5 + 0.5 * np.sin(np.linspace(0, 3 * np.pi, n)) ** 2
    return np.rint(x / np.abs(x).max() * 20000).astype(np.int64)


# ----------------------------------------------------- test-local LPC writer

def crc_table(poly, width):
    top, mask = 1 << (width - 1), (1 << width) - 1
    table = []
    for b in range(256):
        c = b << (width - 8)
        for _ in range(8):
            c = ((c << 1) ^ poly if c & top else c << 1) & mask
        table.append(c)
    return table


CRC8, CRC16 = crc_table(0x07, 8), crc_table(0x8005, 16)


def crc8(data):
    c = 0
    for b in data:
        c = CRC8[c ^ b]
    return c


def crc16(data):
    c = 0
    for b in data:
        c = ((c << 8) & 0xFFFF) ^ CRC16[(c >> 8) ^ b]
    return c


def field(value, width):
    """The low width bits of value, MSB first, as a '0'/'1' string."""
    return format(int(value) & ((1 << width) - 1), f"0{width}b")


def to_bytes(bits):
    bits += "0" * (-len(bits) % 8)
    return int(bits, 2).to_bytes(len(bits) // 8, "big")


def rice(residual):
    """Rice(k) parameter and codes of signed residuals, k of least size."""
    u = np.where(residual >= 0, 2 * residual, -2 * residual - 1)
    k = int(np.argmin([(u >> k).sum() + len(u) * (k + 1) for k in range(15)]))
    codes = "".join("0" * int(v >> k) + "1" + (field(v, k) if k else "")
                    for v in u)
    return field(k, 4) + codes


def lpc_subframe(block):
    """An order-8 LPC subframe: least-squares coefficients quantized to
    13 bits, and four Rice partitions."""
    n, order = len(block), LPC_ORDER
    history = np.lib.stride_tricks.sliding_window_view(
        block[:-1], order)[:, ::-1]
    c = np.linalg.lstsq(history.astype(float), block[order:].astype(float),
                        rcond=None)[0]
    shift = LPC_PRECISION - 2 - int(np.floor(np.log2(np.abs(c).max())))
    shift = max(0, min(15, shift))
    lim = 1 << (LPC_PRECISION - 1)
    coefs = np.clip(np.rint(c * (1 << shift)), -lim, lim - 1).astype(np.int64)
    resid = block[order:] - ((history @ coefs) >> shift)
    bits = "0" + field(32 + order - 1, 6) + "0"
    bits += "".join(field(v, 16) for v in block[:order])
    bits += field(LPC_PRECISION - 1, 4) + field(shift, 5)
    bits += "".join(field(v, LPC_PRECISION) for v in coefs)
    bits += field(0, 2) + field(2, 4)
    part = n // 4
    bounds = [0, part - order, 2 * part - order, 3 * part - order, n - order]
    for a, b in zip(bounds, bounds[1:]):
        bits += rice(resid[a:b])
    return to_bytes(bits)


def lpc_stream(samples):
    """A mono 16-bit FLAC stream of LPC frames, then the (start, body,
    end) byte offsets of each frame: header, subframe, end of CRC-16."""
    frames, spans = [], []
    head = (b"fLaC" + b"\x00" + (34).to_bytes(3, "big")
            + to_bytes(field(BLOCKSIZE, 16) * 2 + field(0, 48)
                       + field(RATE, 20) + field(0, 3) + field(15, 5)
                       + field(len(samples), 36))
            + hashlib.md5(samples.astype("<i2").tobytes()).digest()
            + b"\x81" + (64).to_bytes(3, "big") + bytes(64))
    pos = len(head)
    for index, start in enumerate(range(0, len(samples), BLOCKSIZE)):
        block = samples[start:start + BLOCKSIZE]
        n = len(block)
        assert n % 4 == 0 and n // 4 > LPC_ORDER
        header = bytearray([0xFF, 0xF8, 0x75 if n != BLOCKSIZE else 0xC5,
                            0b1000, index])
        if n != BLOCKSIZE:
            header += (n - 1).to_bytes(2, "big")
        header.append(crc8(header))
        frame = bytes(header) + lpc_subframe(block)
        frames.append(frame + crc16(frame).to_bytes(2, "big"))
        spans.append((pos, pos + len(header), pos + len(frames[-1])))
        pos += len(frames[-1])
    return head + b"".join(frames), spans


# ------------------------------------------------------------------ mutations

def flip_bits(rng, blob):
    out = bytearray(blob)
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(8 * len(out))
        out[i // 8] ^= 0x80 >> (i % 8)
    return bytes(out)


def overwrite_run(rng, blob):
    """One run of 1-32 bytes overwritten by random bytes, zeros or 0xFF."""
    out = bytearray(blob)
    n = min(rng.randint(1, 32), len(out))
    at = rng.randrange(len(out) - n + 1)
    fill = rng.choice([None, 0x00, 0xFF])
    out[at:at + n] = (bytes(rng.randrange(256) for _ in range(n))
                      if fill is None else bytes([fill]) * n)
    return bytes(out)


def resealed(rng, blob, spans):
    """One frame's subframe edited, half the time within its first 32
    bytes (warm-up, shift and coefficients), and the frame's CRC-16
    written for the edited bytes."""
    start, body, end = rng.choice(spans)
    hi = body + 32 if rng.random() < 0.5 else end - 2
    edit = rng.choice([flip_bits, overwrite_run])
    frame = blob[start:body] + edit(rng, blob[body:hi]) + blob[hi:end - 2]
    return blob[:start] + frame + crc16(frame).to_bytes(2, "big") + blob[end:]


def mutants(seed, blob, spans=None):
    """MUTATIONS mutated copies of blob and whether each is a truncation."""
    rng = random.Random(seed)
    kinds = ["flip", "run", "cut"] + (["reseal"] if spans else [])
    for i in range(MUTATIONS):
        kind = kinds[i % len(kinds)]
        if kind == "flip":
            yield flip_bits(rng, blob), False
        elif kind == "run":
            yield overwrite_run(rng, blob), False
        elif kind == "cut":
            # half within the last frame's last Rice codes and CRC-16
            lo = len(blob) - 16 if rng.random() < 0.5 else 0
            yield blob[:rng.randrange(lo, len(blob))], True
        else:
            yield resealed(rng, blob, spans), False


@contextlib.contextmanager
def time_bound(seconds):
    """Raise TimeoutError in the block once seconds of wall time pass, so
    that a decode that never ends fails the test instead of hanging it."""
    def expire(signum, frame):
        raise TimeoutError(f"one decode ran over {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def check_mutants(seed, blob, samples, spans=None):
    with time_bound(STREAM_SECONDS):
        assert np.array_equal(flacio.decode_flac(blob)[0], samples)
    for bad, cut in mutants(seed, blob, spans):
        try:
            with time_bound(STREAM_SECONDS):
                y, rate, bps = flacio.decode_flac(bad)
        except LaunderbenchError as e:
            if cut:
                assert isinstance(e, CorruptFile), e
                assert re.search(TRUNCATED, str(e)), e
        else:
            assert not cut
            assert (rate, bps) == (RATE, 16)
            assert np.array_equal(y, samples)


@pytest.mark.parametrize("seed", [1, 2])
def test_mutated_lpc_streams(seed):
    samples = speech_like(seed)
    blob, spans = lpc_stream(samples)
    check_mutants(seed, blob, samples, spans)


@pytest.mark.parametrize("seed", [3, 4])
def test_mutated_encoder_streams(seed):
    samples = speech_like(seed)
    blob = flacio.encode_flac(samples, RATE)
    check_mutants(seed, blob, samples)


# ------------------------------------------------------------ scoring input

SCORING_CASES = 300      # evaluate calls, and as many report calls
NAMES = ["LA_", "u", "E_", "\u00fc"]
# ids come in pairs that differ in a tail: NULs, which fixed-width bytes
# must keep apart, or a run that makes a 300-byte id
TAIL_PAIRS = [("", "_"), ("", "\x00"), ("\x00", "\x00\x00"), ("", "x" * 296)]
# attack and codec vocabularies, two in three of them ASCII
VOCABULARIES = [(["A17", "A18", "A19"], ["C00", "C01", "C02"])] * 2 + [
    (["A17", "A\u00e918"], ["C00", "C\u00e901"])]
SCORES = ["1.5", "-2e-3", "0", "-0.0", "5e-324", "7", "1_0", "-1e300"]
BAD_SCORES = ["nan", "-inf", "Infinity", "1e400", "-1e309", "0x10", "1_",
              "high"]
# separators str.split() knows besides space and tab; the first five end
# a line for str.splitlines() too.  A file uses at most one, as a field
# separator, a line end or a lead
OTHER = ["\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\x1f", "\u00a0",
         "\u3000"]
NOT_UTF8 = [b"\xff", b"\xc3(", b"\xed\xa0\x80", b"\xf4\x90\x80\x80",
            b"\xe2\x82"]
DEFECTS = [None] * 10 + ["score", "nul", "count", "label", "mismatch",
                        "repeat", "rescored", "missing", "orphan", "utf8"]


def render(rng, rows):
    """File bytes of rows of fields, with drawn separators, line ends,
    leads, tails and blank lines, and maybe a byte-order mark.  Half the
    files use one other separator, and some carry comments."""
    seps, ends, leads = [" ", "\t", "  "], ["\n", "\r\n", "\r"], ["", " "]
    tails, blanks = ["", "", "\t"], ["", "", "  \n"]
    if rng.random() < 0.5:
        rng.choice([seps, ends, leads, leads]).append(rng.choice(OTHER))
    if rng.random() < 0.3:
        tails.append(" # note")
        blanks.append("# a comment\n")
    text = ""
    for fields in rows:
        text += rng.choice(blanks) + rng.choice(leads) + fields[0] + "".join(
            rng.choice(seps) + f for f in fields[1:])
        text += rng.choice(tails) + rng.choice(ends)
    if text and rng.random() < 0.3:
        text = text.rstrip("\n\r")
    return (codecs.BOM_UTF8 if rng.random() < 0.2 else b"") + text.encode()


def scoring_case(rng):
    """Manifest and score file bytes of one drawn trial set, which may
    carry one defect, and a join policy."""
    name, pair = rng.choice(NAMES), rng.choice(TAIL_PAIRS)
    attacks, codecs_ = rng.choice(VOCABULARIES)
    ids = [f"{name}{k // 2}{pair[k % 2]}" for k in range(rng.randint(0, 10))]
    rng.shuffle(ids)
    trials, scores = [], []
    for uid in ids:
        label = rng.choice(["bonafide", "spoof"])
        attack = "-" if label == "bonafide" else rng.choice(attacks)
        trials.append([uid, label, attack, rng.choice(codecs_), "p.flac"])
        scores.append([uid, rng.choice(SCORES) if rng.random() < 0.3
                       else repr(rng.gauss(0.0, 3.0))])
    rng.shuffle(scores)
    defect = rng.choice(DEFECTS) if ids else None
    at = rng.randrange(len(ids)) if ids else 0
    if defect == "score":
        scores[at][1] = rng.choice(BAD_SCORES)
    elif defect == "nul":
        scores[at][1] += "\x00"
    elif defect == "count":
        row = rng.choice([trials, scores])[at]
        row.append("x") if rng.random() < 0.5 else row.pop()
    elif defect == "label":
        trials[at][1] = "real"
    elif defect == "mismatch":
        trials[at][2] = "A17" if trials[at][2] == "-" else "-"
    elif defect == "repeat":
        trials.insert(rng.randrange(len(trials) + 1), list(trials[at]))
    elif defect == "rescored":
        scores.insert(rng.randrange(len(scores) + 1), [trials[at][0], "0.25"])
    elif defect == "missing":
        del scores[at]
    elif defect == "orphan":
        scores.insert(rng.randrange(len(scores) + 1), [f"{name}9", "0.5"])
    files = [render(rng, trials), render(rng, scores)]
    if defect == "utf8":
        i = rng.randrange(2)
        cut = rng.randrange(len(files[i]) + 1)
        files[i] = files[i][:cut] + rng.choice(NOT_UTF8) + files[i][cut:]
    return (*files, rng.choice(protocol.JOIN_POLICIES))


def utf8(path, flag):
    """The bytes of a file less one byte-order mark, if they are UTF-8."""
    raw = path.read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise CorruptFile(f"{flag} {path} is not UTF-8 text: {e}") from None
    return raw


def reference_table(manifest, scores, policy, axes):
    """The table test_protocol's per-line readers and dict join give for
    the files, or the message of the error they raise."""
    try:
        records = _per_line_records(utf8(manifest, "--manifest"))
        score_lines = protocol._score_lines(utf8(scores, "--scores"))
        ids, values, unscored, orphans = _reference_join(
            records, score_lines, policy)
        by_id = {r.utterance_id: r for r in records}
        kept = [by_id[u] for u in ids]
        attacks = tuple(sorted({r.attack_id for r in records}))
        codecs_ = tuple(sorted({r.codec_id for r in records}))
        scored = protocol.ScoredTrials(
            protocol.encode_ids(ids),
            np.array([r.label == "bonafide" for r in kept], dtype=bool),
            np.array([attacks.index(r.attack_id) for r in kept], np.intp),
            attacks,
            np.array([codecs_.index(r.codec_id) for r in kept], np.intp),
            codecs_, np.array(values, dtype=np.float64), unscored, orphans)
        return reporting.compute_breakdown(scored, MetricConfig(), axes)
    except LaunderbenchError as e:
        return str(e)


SCORING_COMMANDS = pytest.mark.parametrize(
    "command,axes", [("evaluate", ()), ("report", ("attack", "codec"))])


@SCORING_COMMANDS
def test_scoring_input(tmp_path, capsys, command, axes):
    check_scoring_input(tmp_path, capsys, command, axes)


@SCORING_COMMANDS
def test_scoring_input_forked(tmp_path, capsys, monkeypatch, command, axes):
    """The same cases with every non-empty score file parsed in a forked
    child, as files above cli.FORK_SCORES_BYTES are."""
    forks = fork_every_scores_file(monkeypatch)
    seen = check_scoring_input(tmp_path, capsys, command, axes)
    assert len(forks) == seen["non-empty scores"], seen
    assert_no_child_left()


def check_scoring_input(tmp_path, capsys, command, axes):
    """Runs command on SCORING_CASES drawn cases against the references;
    returns the counts of what the cases gave."""
    manifest, scores = tmp_path / "trials.manifest", tmp_path / "scores.txt"
    out = tmp_path / "report"
    rng = random.Random(f"scoring-{command}")
    seen = collections.Counter()
    for case in range(SCORING_CASES):
        m, s, policy = scoring_case(rng)
        manifest.write_bytes(m)
        scores.write_bytes(s)
        seen["non-empty scores"] += bool(s)
        argv = [command, "--manifest", str(manifest), "--scores",
                str(scores), "--join", policy]
        tables = []     # what the command breaks down

        def spy(*args, **kwargs):
            tables.append(reporting.compute_breakdown(*args, **kwargs))
            return tables[-1]

        with mock.patch.object(cli, "compute_breakdown", spy), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = cli.main(argv + (["--out", str(out)] if axes else []))
        err = capsys.readouterr().err
        want = reference_table(manifest, scores, policy, axes)
        where = (case, m, s, policy)
        assert rc in (0, 1) and "Traceback" not in err, where
        if isinstance(want, str):
            assert (rc, err) == (1, f"error: {want}\n"), where
            seen["refused"] += 1
        else:
            assert tables == [want], where
            assert rc == 0 or err.startswith(
                ("error: need at least one bonafide", "error: table holds no")
            ), where
            seen["scored" if rc == 0 else "unscorable"] += 1
        # report renders every file before it makes --out
        assert out.is_dir() == (command == "report" and rc == 0), where
        shutil.rmtree(out, ignore_errors=True)
    assert min(seen["refused"], seen["scored"]) >= SCORING_CASES // 5, seen
    return seen
