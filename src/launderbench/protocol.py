"""Manifest, trial, and score file handling.

Manifests are 5-field whitespace-separated text, one trial per line:

    <utterance_id> <label> <attack_id> <codec_id> <source_path>

with '#' starting a comment (full-line or trailing).  Score files carry
"<utterance_id> <score>" pairs where higher scores mean more
bonafide-like.  Attack and codec vocabularies are open; the bonafide
attack placeholder is the literal "-".

Both readers take a file's UTF-8 bytes, in which LF, CRLF and CR end a
line.  A manifest has one reader, parse_manifest: it returns the rows,
which decode a TrialRecord only when read, and the TrialColumns.  launder
selects rows by id and decodes the rows it keeps; scoring keeps the
columns.  parse_scores reads score files as columns.  Columns hold no
Python object per trial: ids, labels, attacks and codecs are gathered
from the bytes into fixed-width bytes arrays (see TrialColumns).  Ids are
sorted, deduplicated and matched as compact keys (see _sort_keys), most
often one integer per id: join_scores sorts the score keys and
binary-searches them in the trial keys.  Both files share one tokenizer
whose fast path covers plain ASCII.  Other bytes, and bytes failing a
bulk check, are decoded and parsed line by line, so every error names
its line; a clean per-line parse is written back and read as columns.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (DuplicateId, InvalidParameter, MalformedLine,
                     MissingScore, NonFiniteScore, OrphanScore)

LABELS = ("bonafide", "spoof")
BONAFIDE_ATTACK = "-"
JOIN_POLICIES = ("strict", "intersect")


class TrialRecord(NamedTuple):
    """One manifest line's fields; " ".join(record) is the line."""

    utterance_id: str
    label: str
    attack_id: str
    codec_id: str
    source_path: str


@dataclass(frozen=True, eq=False)
class TrialColumns:
    """Manifest trials as columns, in line order.

    ids holds each utterance id as a key (see encode_ids); order lists
    the rows with ids in ascending order, which is Python's order of the
    id strings, and launder selects its rows by it.  attack and codec hold
    indexes into the sorted vocabularies attacks and codecs.
    """

    ids: np.ndarray
    order: np.ndarray
    bonafide: np.ndarray
    attack: np.ndarray
    attacks: tuple
    codec: np.ndarray
    codecs: tuple


@dataclass(frozen=True, eq=False)
class ScoreColumns:
    """Score file entries as columns, in line order; ids are keys."""

    ids: np.ndarray
    scores: np.ndarray


@dataclass(frozen=True, eq=False)
class ScoredTrials:
    """Joined trials as columns, in manifest order, with their scores.

    ids are keys.  attacks and codecs are sorted, and attack and codec hold
    indexes into them, so ascending codes are ascending ids; parse_manifest
    gives the codes in the smallest unsigned dtype that holds them.
    unscored and orphans count the trials and scores an intersect join
    dropped.
    """

    ids: np.ndarray
    bonafide: np.ndarray
    attack: np.ndarray
    attacks: tuple
    codec: np.ndarray
    codecs: tuple
    scores: np.ndarray
    unscored: int
    orphans: int


# An id's key is its UTF-8 bytes, each plus one, in a bytes array.  numpy
# drops trailing NULs from bytes, so "a" and "a\x00" would share a key;
# the shift leaves no NUL in a key.  UTF-8 holds no byte above 0xF4, so
# the shift keeps byte order, which is code-point order: keys sort as
# Python sorts the ids.
_SHIFT = bytes((b + 1) % 256 for b in range(256))
_UNSHIFT = bytes((b - 1) % 256 for b in range(256))


def encode_ids(ids) -> np.ndarray:
    """Keys of the given id strings."""
    return np.array([u.encode().translate(_SHIFT) for u in ids], dtype="S")


def decode_ids(keys) -> list:
    """The id strings of keys."""
    return [k.translate(_UNSHIFT).decode() for k in keys.tolist()]


def _content_lines(raw):
    """Numbered non-blank lines of raw, comments cut; raw must be UTF-8."""
    for line_no, text in enumerate(raw.decode("utf-8").splitlines(), start=1):
        line = text.split("#", 1)[0].strip()
        if line:
            yield line_no, line


# ASCII bytes str.split() or str.splitlines() treat as separators besides
# space, tab, newline and carriage return, which the tokenizer reads
_OTHER_SEPARATORS = np.zeros(256, dtype=bool)
_OTHER_SEPARATORS[[0x0B, 0x0C, 0x1C, 0x1D, 0x1E, 0x1F]] = True


_GAPS = (0x20, 0x09, 0x0A, 0x0D, 0x23)
_SPAN = 1 << 22     # bytes the tokenizer scans at a time


def _tokens(raw, n_fields):
    """The starts and ends of the tokens of raw as (rows, n_fields)
    arrays, or None unless raw holds no separator but space, tab, LF and
    CR and every non-blank line has n_fields tokens.  CR ends a line as
    LF does; the empty line inside a CRLF holds no token.  A comment, from
    a '#' to the line end, separates tokens as a space does.

    raw is scanned a span at a time, so its byte-sized masks stay small.
    """
    buf = np.frombuffer(raw, dtype=np.uint8)
    position = np.int32 if len(buf) < 2 ** 31 else np.int64
    starts, ends, newlines = ([np.empty(0, position)] for _ in range(3))
    comments, open_comment = b"#" in raw, False
    for lo in range(0, len(buf), _SPAN):
        span = buf[lo:lo + _SPAN]
        hi = lo + len(span)
        if _OTHER_SEPARATORS[span[span < 0x20]].any():
            return None
        # gap[i] is whether byte lo - 1 + i separates tokens; the bytes
        # beyond raw do
        line_end = (span == 0x0A) | (span == 0x0D)
        gap = np.ones(len(span) + 2, dtype=bool)
        gap[1:-1] = line_end | (span == 0x20) | (span == 0x09)
        gap[0] = lo == 0 or buf[lo - 1] in _GAPS
        gap[-1] = hi == len(buf) or buf[hi] in _GAPS
        if comments:
            # a comment runs from a line's first '#', or from lo if the
            # span before left one open, to the line end
            hashes = np.flatnonzero(span == 0x23)
            hashes = np.r_[0, hashes] if open_comment else hashes
            breaks = np.append(np.flatnonzero(line_end), len(span))
            line, first = np.unique(np.searchsorted(breaks, hashes),
                                    return_index=True)
            bounds = np.c_[hashes[first], breaks[line]].ravel()
            comment = np.repeat(np.arange(len(bounds) + 1) % 2 == 1,
                                np.diff(bounds, prepend=0, append=len(span)))
            gap[1:-1] |= comment
            open_comment = bool(comment[-1])
        for found, at, mask in ((starts, lo, gap[:-2] > gap[1:-1]),
                                (ends, lo + 1, gap[1:-1] < gap[2:]),
                                (newlines, lo, line_end)):
            found.append((np.flatnonzero(mask) + at).astype(position))
    starts, ends, newlines = map(np.concatenate, (starts, ends, newlines))
    if len(starts) % n_fields:
        return None
    starts = starts.reshape(-1, n_fields)
    ends = ends.reshape(-1, n_fields)
    # a row's first and last token lie on one line, after the line of
    # the row before
    first = np.searchsorted(newlines, starts[:, 0])
    last = np.searchsorted(newlines, ends[:, -1])
    if np.any(first != last) or np.any(first[1:] == last[:-1]):
        return None
    return starts, ends


_CHUNK = 1 << 16    # rows gathered at a time


def _gather(raw, starts, ends, shift=1):
    """The tokens raw[start:end], each byte plus shift, as a bytes array.

    Rows are copied a chunk at a time from a window view of raw, so no
    index matrix is built; the few tokens whose window would run past the
    end of raw are copied one by one.  A token so long that a fixed width
    would outgrow the text makes an array of bytes objects instead.
    """
    lengths = ends - starts
    n, width = len(lengths), max(int(lengths.max(initial=0)), 1)
    if n * width > 2 * len(raw) + (1 << 16):
        table = _SHIFT if shift else None
        return np.array([raw[s:e].translate(table) for s, e in
                         zip(starts.tolist(), ends.tolist())], dtype=object)
    buf = np.frombuffer(raw, dtype=np.uint8)
    out = np.zeros((n, width), dtype=np.uint8)
    whole = int(np.searchsorted(starts, len(buf) - width, side="right"))
    if whole:
        windows = sliding_window_view(buf, width)
        span = np.arange(width)
        for lo in range(0, whole, _CHUNK):
            hi = min(lo + _CHUNK, whole)
            rows = windows[starts[lo:hi]]
            rows += shift
            rows *= span < lengths[lo:hi, None]
            out[lo:hi] = rows
    for r in range(whole, n):
        token = buf[starts[r]:ends[r]]
        out[r, :len(token)] = token + shift
    return out.view(f"S{width}").ravel()


def _read(raw, n_fields, columns):
    """columns(raw, starts, ends) of plain ASCII bytes, or None when the
    bytes or their columns need the per-line path."""
    if not raw.isascii():
        return None
    tokens = _tokens(raw, n_fields)
    return None if tokens is None else columns(raw, *tokens)


def _manifest_lines(raw):
    """Per-line manifest parse into five field lists; raises at the first
    bad line."""
    columns = [[] for _ in TrialRecord._fields]
    seen = set()
    for line_no, line in _content_lines(raw):
        fields = line.split()
        if len(fields) != 5:
            raise MalformedLine(
                line_no, f"expected 5 fields, found {len(fields)}")
        utt, label, attack_id = fields[:3]
        if label not in LABELS:
            raise MalformedLine(
                line_no, f"label must be one of {LABELS}, got {label!r}")
        if (label == "bonafide") != (attack_id == BONAFIDE_ATTACK):
            raise MalformedLine(
                line_no, f"label {label!r} is inconsistent with attack_id "
                f"{attack_id!r}: bonafide trials use \"-\" and spoof "
                f"trials name their attack")
        if utt in seen:
            raise DuplicateId(f"utterance {utt!r} appears more than once "
                              f"(line {line_no})")
        seen.add(utt)
        for column, field in zip(columns, fields):
            column.append(field)
    return columns


class ManifestRows(Sequence):
    """A manifest's rows, each decoded to a TrialRecord when read."""

    def __init__(self, raw, starts, ends):
        self._raw, self._starts, self._ends = raw, starts, ends

    def __len__(self):
        return len(self._starts)

    def __getitem__(self, row) -> TrialRecord:
        line = self._raw[self._starts[row]:self._ends[row]]
        return TrialRecord._make(line.decode().split())


def _fold_rows(v):
    """Rows whose columns hold the least and the greatest byte of v's
    columns: numpy reduces many short rows slowly, so blocks of 4096 rows
    are first reduced as one long row each."""
    m = len(v) - len(v) % 4096
    block = v[:m].reshape(-1, 4096 * v.shape[1])
    return np.concatenate([v[m:]] + [f(0).reshape(4096, -1) for f in
                                     (block.min, block.max) if m])


def _sort_keys(*keys):
    """Keys that sort and compare as the given id keys do, one per array:
    the keys cast to one dtype, or, if at most eight byte columns vary
    across all of them, those bytes read big-endian into one uint32 or
    uint64 per key (numpy sorts no narrower integer faster)."""
    common = np.result_type(*keys)
    keys = [np.ascontiguousarray(k, common) for k in keys]
    if common != object:
        views = [k.view(np.uint8).reshape(-1, common.itemsize) for k in keys]
        rows = np.concatenate([_fold_rows(v) for v in views])
        varying = np.flatnonzero(rows.min(0, initial=255)
                                 < rows.max(0, initial=0))
        if len(varying) <= 8:
            word = 4 if len(varying) <= 4 else 8
            bufs = [np.zeros((len(v), word), np.uint8) for v in views]
            for buf, v in zip(bufs, views):
                # a little-endian word holds its first byte last
                for j, c in enumerate(varying[::-1]):
                    buf[:, j] = v[:, c]
            return [buf.view(f"<u{word}").ravel() for buf in bufs]
    return keys


def _codes(keys):
    """Each key's index into the sorted vocabulary of keys, in the smallest
    unsigned dtype that holds it, which a stable argsort groups by radix up
    to 16 bits, and that vocabulary decoded."""
    vocab, code = np.unique(_sort_keys(keys)[0], return_inverse=True)
    row = np.empty(len(vocab), dtype=np.intp)
    row[code] = np.arange(len(code))    # any row of a code decodes it
    return (code.astype(np.min_scalar_type(max(len(vocab) - 1, 0))),
            tuple(decode_ids(keys[row])))


def _manifest_columns(raw, starts, ends):
    """ManifestRows and TrialColumns of tokenized manifest text, or None if
    an id repeats, a label is not in LABELS or a label disagrees with its
    attack."""
    ids = _gather(raw, starts[:, 0], ends[:, 0])
    (key,) = _sort_keys(ids)
    order = np.argsort(key)
    key = key[order]
    label = _gather(raw, starts[:, 1], ends[:, 1])
    bonafide_key, spoof_key = encode_ids(LABELS)
    bonafide = label == bonafide_key
    if np.any(key[1:] == key[:-1]) or not np.all(
            bonafide | (label == spoof_key)):
        return None
    attack, attacks = _codes(_gather(raw, starts[:, 2], ends[:, 2]))
    placeholder = (attacks.index(BONAFIDE_ATTACK)
                   if BONAFIDE_ATTACK in attacks else -1)
    if not np.array_equal(bonafide, attack == placeholder):
        return None
    codec, codecs = _codes(_gather(raw, starts[:, 3], ends[:, 3]))
    rows = ManifestRows(raw, starts[:, 0].copy(), ends[:, -1].copy())
    return rows, TrialColumns(ids, order, bonafide, attack, attacks, codec,
                              codecs)


def parse_manifest(raw: bytes) -> tuple:
    """The ManifestRows and TrialColumns of manifest bytes, in line order.

    Bytes the tokenizer or the bulk check of _manifest_columns rejects are
    decoded and read by _manifest_lines, which raises the error for the
    first bad line, or UnicodeDecodeError if they are not UTF-8.
    """
    read = _read(raw, 5, _manifest_columns)
    if read is None:
        clean = emit_manifest(zip(*_manifest_lines(raw))).encode()
        read = _manifest_columns(clean, *_tokens(clean, 5))
    return read


def _score_lines(raw):
    """Per-line score parse into ids and scores; raises at the first bad
    line."""
    ids, scores = [], []
    for line_no, line in _content_lines(raw):
        fields = line.split()
        if len(fields) != 2:
            raise MalformedLine(
                line_no, f"expected 2 fields, found {len(fields)}")
        utt, raw_score = fields
        try:
            score = float(raw_score)
        except ValueError:
            raise MalformedLine(
                line_no, f"score {raw_score!r} is not a number") from None
        if not math.isfinite(score):
            raise NonFiniteScore(
                f"score for {utt!r} on line {line_no} is {raw_score}")
        ids.append(utt)
        scores.append(score)
    return ids, scores


def _score_columns(raw, starts, ends):
    """ScoreColumns of tokenized score text, or None if a score is not a
    finite number float() reads."""
    # bytes arrays drop a trailing NUL, which float() refuses
    if np.any(np.frombuffer(raw, dtype=np.uint8)[ends[:, 1] - 1] == 0):
        return None
    try:
        # a score beyond the largest double reads as inf, as float() has it
        with np.errstate(over="ignore"):
            scores = _gather(raw, starts[:, 1], ends[:, 1], shift=0).astype(
                np.float64)
    except ValueError:
        return None
    if not np.isfinite(scores).all():
        return None
    return ScoreColumns(_gather(raw, starts[:, 0], ends[:, 0]), scores)


def parse_scores(raw: bytes) -> ScoreColumns:
    """Parse a score file's bytes into columns, preserving line order.

    Bytes the tokenizer or the bulk check of _score_columns rejects are
    decoded and read by _score_lines, which raises the error for the first
    bad line, or UnicodeDecodeError if they are not UTF-8.
    """
    read = _read(raw, 2, _score_columns)
    if read is None:
        clean = "".join(f"{u} {v!r}\n"
                        for u, v in zip(*_score_lines(raw))).encode()
        read = _score_columns(clean, *_tokens(clean, 2))
    return read


def join_scores(trials: TrialColumns, scores: ScoreColumns,
                policy: str = "strict") -> ScoredTrials:
    """Attach scores to trials by utterance id.

    strict demands a bijection and raises on any mismatch; intersect keeps
    the matched pairs (in trial order) and warns with the drop count.
    """
    if policy not in JOIN_POLICIES:
        raise InvalidParameter(
            f"policy must be 'strict' or 'intersect', got {policy!r}")
    by_trial, wanted = _sort_keys(trials.ids, scores.ids)
    order = np.argsort(wanted)
    wanted = wanted[order]
    if np.any(wanted[1:] == wanted[:-1]):
        # a stable sort keeps repeats in file order: the first repeat is
        # the earliest line that is not the first of its run
        order = np.argsort(scores.ids, kind="stable")
        repeat = scores.ids[order][1:] == scores.ids[order][:-1]
        first = int(order[1:][repeat].min())
        (utt,) = decode_ids(scores.ids[first:first + 1])
        raise DuplicateId(f"utterance {utt!r} is scored more than once")

    n = len(trials.ids)
    by_trial = by_trial[trials.order]
    at = np.searchsorted(by_trial, wanted)
    found = at < n
    found[found] = by_trial[at[found]] == wanted[found]
    rows = trials.order[at[found]]
    keep = np.zeros(n, dtype=bool)
    keep[rows] = True
    unscored, orphans = n - len(rows), len(wanted) - len(rows)
    if policy == "strict":
        if unscored:
            raise MissingScore(decode_ids(trials.ids[~keep]))
        if orphans:
            raise OrphanScore(decode_ids(scores.ids[np.sort(order[~found])]))
    elif unscored or orphans:
        warnings.warn(
            f"dropped {unscored + orphans} unmatched entries "
            f"({unscored} unscored trials, {orphans} orphan scores)",
            stacklevel=2)
    by_row = np.empty(n, dtype=np.float64)
    by_row[rows] = scores.scores[order[found]]
    return ScoredTrials(trials.ids[keep], trials.bonafide[keep],
                        trials.attack[keep], trials.attacks,
                        trials.codec[keep], trials.codecs, by_row[keep],
                        unscored, orphans)


def emit_manifest(rows) -> str:
    """Render rows of five fields back to manifest text; inverse of
    parse_manifest, as emit_manifest(parse_manifest(text.encode())[0])."""
    return "".join(" ".join(row) + "\n" for row in rows)
