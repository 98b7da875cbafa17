"""Manifest, trial, and score file handling.

Manifests are 5-field whitespace-separated text, one trial per line:

    <utterance_id> <label> <attack_id> <codec_id> <source_path>

with '#' starting a comment (full-line or trailing).  Score files carry
"<utterance_id> <score>" pairs where higher scores mean more
bonafide-like.  Attack and codec vocabularies are open; the bonafide
attack placeholder is the literal "-".

A manifest has one reader, parse_manifest: it returns the five field
lists and the TrialColumns.  launder selects rows from the columns and
makes a TrialRecord of each kept row only; scoring keeps the columns.
parse_scores reads score files as columns, and scoring joins trials and
scores by row index.  Both files share one tokenizer whose fast path
covers plain ASCII text.  Other text, and text failing a bulk check, is
parsed line by line, so every error names the line it comes from.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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

    attack and codec hold indexes into the sorted vocabularies attacks
    and codecs; index maps each utterance id to its row.
    """

    ids: list
    bonafide: np.ndarray
    attack: np.ndarray
    attacks: tuple
    codec: np.ndarray
    codecs: tuple
    index: dict


@dataclass(frozen=True, eq=False)
class ScoreColumns:
    """Score file entries as columns, in line order."""

    ids: list
    scores: np.ndarray


@dataclass(frozen=True, eq=False)
class ScoredTrials:
    """Joined trials as columns, in manifest order, with their scores.

    unscored and orphans count the trials and scores an intersect join
    dropped.
    """

    ids: list
    bonafide: np.ndarray
    attack: np.ndarray
    attacks: tuple
    codec: np.ndarray
    codecs: tuple
    scores: np.ndarray
    unscored: int
    orphans: int


def _content_lines(text):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_no, line


# bytes str.split() or str.splitlines() treat as separators besides
# space, tab and newline
_OTHER_SEPARATORS = np.zeros(256, dtype=bool)
_OTHER_SEPARATORS[[0x0B, 0x0C, 0x0D, 0x1C, 0x1D, 0x1E, 0x1F]] = True


def _fits_fast_path(text, n_fields):
    """Whether text is ASCII, holds no '#' and no separator but space, tab
    and newline, and has n_fields fields on every non-blank line."""
    if not text.isascii() or "#" in text:
        return False
    raw = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    if _OTHER_SEPARATORS[raw[raw < 0x20]].any():
        return False
    gap = (raw == 0x20) | (raw == 0x09) | (raw == 0x0A)
    starts = np.flatnonzero(~gap & np.concatenate(([True], gap[:-1])))
    per_line = np.bincount(np.searchsorted(np.flatnonzero(raw == 0x0A),
                                           starts))
    return bool(np.all((per_line == 0) | (per_line == n_fields)))


def _columns(text, n_fields):
    """The fields of every content line as n_fields lists of strings, or
    None when the text needs the per-line path."""
    if not _fits_fast_path(text, n_fields):
        return None
    tokens = text.split()
    return [tokens[i::n_fields] for i in range(n_fields)]


def _manifest_lines(text):
    """Per-line manifest parse into five field lists; raises at the first
    bad line."""
    columns = [[] for _ in TrialRecord._fields]
    seen = set()
    for line_no, line in _content_lines(text):
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


def _codes(values):
    vocab = sorted(set(values))
    code = {v: i for i, v in enumerate(vocab)}
    return (np.fromiter(map(code.__getitem__, values), dtype=np.intp,
                        count=len(values)), tuple(vocab))


def _trial_columns(ids, labels, attack_ids, codec_ids):
    """TrialColumns of tokenized fields, or None if an id repeats, a label
    is not in LABELS or a label disagrees with its attack."""
    index = dict(zip(ids, range(len(ids))))
    if len(index) != len(ids) or not set(labels) <= set(LABELS):
        return None
    bonafide = np.fromiter(map(LABELS[0].__eq__, labels), dtype=bool,
                           count=len(labels))
    attack, attacks = _codes(attack_ids)
    placeholder = (attacks.index(BONAFIDE_ATTACK)
                   if BONAFIDE_ATTACK in attacks else -1)
    if not np.array_equal(bonafide, attack == placeholder):
        return None
    codec, codecs = _codes(codec_ids)
    return TrialColumns(ids, bonafide, attack, attacks, codec, codecs, index)


def parse_manifest(text: str) -> tuple:
    """The five field lists of manifest text, in line order, and its
    TrialColumns.

    Text the tokenizer or the bulk check of _trial_columns rejects is
    read by _manifest_lines, which raises the error for the first bad
    line.
    """
    fields = _columns(text, 5)
    trials = None if fields is None else _trial_columns(*fields[:4])
    if trials is None:
        fields = _manifest_lines(text)
        trials = _trial_columns(*fields[:4])
    return fields, trials


def _score_lines(text):
    """Per-line score parse; raises at the first bad line."""
    ids, scores = [], []
    for line_no, line in _content_lines(text):
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
    return ScoreColumns(ids, np.array(scores, dtype=np.float64))


def parse_scores(text: str) -> ScoreColumns:
    """Parse score text into columns, preserving line order."""
    fields = _columns(text, 2)
    if fields is not None:
        ids, raw = fields
        try:
            scores = np.fromiter(map(float, raw), dtype=np.float64,
                                 count=len(raw))
        except ValueError:
            return _score_lines(text)
        if np.isfinite(scores).all():
            return ScoreColumns(ids, scores)
    return _score_lines(text)


def join_scores(trials: TrialColumns, scores: ScoreColumns,
                policy: str = "strict") -> ScoredTrials:
    """Attach scores to trials by utterance id.

    strict demands a bijection and raises on any mismatch; intersect keeps
    the matched pairs (in trial order) and warns with the drop count.
    """
    if policy not in JOIN_POLICIES:
        raise InvalidParameter(
            f"policy must be 'strict' or 'intersect', got {policy!r}")
    n = len(trials.ids)
    rows = np.fromiter(map(trials.index.get, scores.ids,
                           itertools.repeat(-1)),
                       dtype=np.intp, count=len(scores.ids))
    matched = rows >= 0
    hits = np.bincount(rows[matched], minlength=n)
    orphans = [scores.ids[j] for j in np.flatnonzero(~matched).tolist()]
    if hits.max(initial=0) > 1 or len(set(orphans)) < len(orphans):
        seen = set()   # set.add returns None, so this finds the first repeat
        repeat = next(u for u in scores.ids if u in seen or seen.add(u))
        raise DuplicateId(f"utterance {repeat!r} is scored more than once")

    missing = [trials.ids[i] for i in np.flatnonzero(hits == 0).tolist()]
    if policy == "strict":
        if missing:
            raise MissingScore(missing)
        if orphans:
            raise OrphanScore(orphans)
    elif missing or orphans:
        warnings.warn(
            f"dropped {len(missing) + len(orphans)} unmatched entries "
            f"({len(missing)} unscored trials, {len(orphans)} orphan scores)",
            stacklevel=2)
    by_row = np.empty(n, dtype=np.float64)
    by_row[rows[matched]] = scores.scores[matched]
    keep = hits > 0
    ids = trials.ids
    if missing:
        ids = [ids[i] for i in np.flatnonzero(keep).tolist()]
    return ScoredTrials(ids, trials.bonafide[keep], trials.attack[keep],
                        trials.attacks, trials.codec[keep], trials.codecs,
                        by_row[keep], len(missing), len(orphans))


def emit_manifest(rows) -> str:
    """Render rows of five fields back to manifest text; inverse of
    parse_manifest, as emit_manifest(zip(*parse_manifest(text)[0]))."""
    return "".join(" ".join(row) + "\n" for row in rows)


def emit_scores(scores: ScoreColumns) -> str:
    """Render score columns back to text; inverse of parse_scores.

    repr() round-trips doubles exactly, so parse_scores(emit_scores(s))
    reproduces every score bit for bit.
    """
    return "".join(f"{u} {v!r}\n"
                   for u, v in zip(scores.ids, scores.scores.tolist()))
