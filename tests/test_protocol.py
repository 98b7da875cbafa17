"""Manifest and score parsing, joining, and emission."""

import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from launderbench import protocol
from launderbench.errors import (DuplicateId, InvalidParameter, MalformedLine,
                                 MissingScore, NonFiniteScore, OrphanScore)
from launderbench.protocol import (ScoreColumns, TrialRecord, decode_ids,
                                   emit_manifest, encode_ids, join_scores,
                                   parse_manifest, parse_scores)

MANIFEST = """\
u001 bonafide - C00 audio/u001.flac
u002 spoof A17 C03 audio/u002.flac
u003 spoof A30 C00 audio/u003.flac
"""


def score_columns(*pairs):
    return ScoreColumns(encode_ids([u for u, _ in pairs]),
                        np.array([v for _, v in pairs], dtype=np.float64))


def score_text(ids, values):
    """Score file bytes of ids and values; repr() round-trips doubles."""
    return "".join(f"{u} {v!r}\n" for u, v in zip(ids, values)).encode()


def manifest_records(text):
    return list(parse_manifest(text.encode())[0])


def trial(utt="u001", label="bonafide", attack="-", codec="C00",
          path="a/b.flac"):
    return TrialRecord(utt, label, attack, codec, path)


class TestTrialRecord:
    def test_valid_bonafide(self):
        t = trial()
        assert t.label == "bonafide" and t.attack_id == "-"

    def test_valid_spoof(self):
        t = trial(label="spoof", attack="A17")
        assert t.attack_id == "A17"

    def test_hashable(self):
        assert len({trial(), trial(), trial(utt="u002")}) == 2


class TestParseManifest:
    def test_basic(self):
        rows, trials = parse_manifest(MANIFEST.encode())
        assert [r.utterance_id for r in rows] == decode_ids(trials.ids) == [
            "u001", "u002", "u003"]
        assert rows[0].label == "bonafide"
        assert rows[1].attack_id == "A17"
        assert rows[2].source_path == "audio/u003.flac"
        assert trials.bonafide.tolist() == [True, False, False]
        assert trials.order.tolist() == [0, 1, 2]

    def test_comments_and_blanks(self):
        text = ("# header\n"
                "\n"
                "u001 bonafide - C00 p1  # trailing note\n"
                "   \n"
                "u002 spoof A01 C01 p2\n")
        assert [r.utterance_id for r in parse_manifest(text.encode())[0]] == [
            "u001", "u002"]

    def test_no_trailing_newline(self):
        trials = parse_manifest(b"u001 bonafide - C00 p")[1]
        assert decode_ids(trials.ids) == ["u001"]

    def test_empty_text(self):
        for text in (b"", b"# only comments\n\n"):
            rows, trials = parse_manifest(text)
            assert list(rows) == [] and decode_ids(trials.ids) == []

    @pytest.mark.parametrize("line", ["u001 bonafide - C00",
                                      "u001 bonafide - C00 p extra"])
    def test_wrong_field_count(self, line):
        with pytest.raises(MalformedLine) as exc:
            parse_manifest((line + "\n").encode())
        assert exc.value.line_no == 1

    def test_line_number_accounts_for_comments(self):
        text = b"# one\nu001 bonafide - C00 p\n\nu002 spoof A1\n"
        with pytest.raises(MalformedLine) as exc:
            parse_manifest(text)
        assert exc.value.line_no == 4

    def test_bonafide_with_attack_is_malformed(self):
        with pytest.raises(MalformedLine) as exc:
            parse_manifest(b"u003 bonafide A17 C00 p\n")
        assert exc.value.line_no == 1
        assert "attack" in exc.value.reason

    def test_spoof_with_placeholder_is_malformed(self):
        with pytest.raises(MalformedLine):
            parse_manifest(b"u003 spoof - C00 p\n")

    def test_unknown_label_is_malformed(self):
        with pytest.raises(MalformedLine):
            parse_manifest(b"u001 real - C00 p\n")

    @pytest.mark.parametrize("line", ["u003 spoof - C00 p",
                                      "u003 bonafide A17 C00 p",
                                      "u003 real - C00 p"])
    def test_fast_path_text_invalid_on_line_3(self, line):
        # plain ASCII without '#' passes the tokenizer, so the bulk check
        # rejects it and the per-line reader names the line
        text = (f"u001 bonafide - C00 p\nu002 spoof A17 C00 p\n{line}\n"
                .encode())
        assert protocol._tokens(text, 5) is not None
        with pytest.raises(MalformedLine) as exc:
            parse_manifest(text)
        assert exc.value.line_no == 3

    def test_duplicate_id(self):
        text = b"u001 bonafide - C00 p1\nu001 spoof A01 C00 p2\n"
        with pytest.raises(DuplicateId):
            parse_manifest(text)

    def test_open_vocabulary(self):
        text = "u001 spoof mystery-vocoder weird.codec p\n"
        (t,) = manifest_records(text)
        assert t.attack_id == "mystery-vocoder"
        assert t.codec_id == "weird.codec"

    def test_tabs_accepted(self):
        (t,) = manifest_records("u001\tbonafide\t-\tC00\tp\n")
        assert t.utterance_id == "u001"

    @pytest.mark.parametrize("sep, error", [
        ("\x1f", "line 1: expected 5 fields, found 6"),
        ("\u00a0", "line 1: expected 5 fields, found 6"),
        ("\x0b", "line 2: expected 5 fields, found 1"),
        ("\r", "line 2: expected 5 fields, found 1")])
    def test_other_whitespace_splits_fields(self, sep, error):
        # whitespace other than space, tab and newline separates fields
        # or lines, though "p<sep>extra" holds no space
        text = f"u001 bonafide - C00 p{sep}extra\n".encode()
        with pytest.raises(MalformedLine) as exc:
            parse_manifest(text)
        assert str(exc.value) == error


class TestParseScores:
    def test_basic(self):
        cols = parse_scores(b"u001 1.25\nu002 -3.5\n")
        assert decode_ids(cols.ids) == ["u001", "u002"]
        assert cols.scores.dtype == np.float64
        assert cols.scores.tolist() == [1.25, -3.5]

    def test_scientific_notation(self):
        assert parse_scores(b"u001 -1.5e-3\n").scores.tolist() == [-1.5e-3]

    def test_comments(self):
        assert decode_ids(parse_scores(b"# hi\nu001 0.5 # ok\n").ids) == [
            "u001"]

    def test_empty(self):
        cols = parse_scores(b"")
        assert decode_ids(cols.ids) == [] and len(cols.scores) == 0

    def test_not_a_number(self):
        with pytest.raises(MalformedLine) as exc:
            parse_scores(b"u001 high\n")
        assert exc.value.line_no == 1

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN", "Infinity",
                                     "1e400", "-1e309"])
    def test_non_finite(self, bad):
        with pytest.raises(NonFiniteScore):
            parse_scores(f"u001 {bad}\n".encode())

    @pytest.mark.parametrize("line", ["u001", "u001 1.0 2.0"])
    def test_wrong_field_count(self, line):
        with pytest.raises(MalformedLine):
            parse_scores((line + "\n").encode())


class TestJoinScores:
    def setup_method(self):
        self.trials = parse_manifest(MANIFEST.encode())[1]
        self.pairs = [("u001", 2.0), ("u002", -1.0), ("u003", 0.5)]

    def join(self, pairs, policy="strict"):
        return join_scores(self.trials, score_columns(*pairs), policy=policy)

    def test_strict_happy_path(self):
        joined = self.join(self.pairs)
        assert decode_ids(joined.ids) == ["u001", "u002", "u003"]
        assert joined.scores.tolist() == [2.0, -1.0, 0.5]
        assert (joined.unscored, joined.orphans) == (0, 0)

    def test_strict_order_follows_trials(self):
        joined = self.join(list(reversed(self.pairs)))
        assert decode_ids(joined.ids) == ["u001", "u002", "u003"]
        assert joined.scores.tolist() == [2.0, -1.0, 0.5]

    def test_strict_missing(self):
        with pytest.raises(MissingScore) as exc:
            self.join(self.pairs[:2])
        assert exc.value.ids == ["u003"]

    def test_strict_orphan(self):
        with pytest.raises(OrphanScore) as exc:
            self.join(self.pairs + [("u999", 0.0)])
        assert exc.value.ids == ["u999"]

    def test_intersect_drops_and_warns(self):
        extra = self.pairs[:2] + [("u999", 0.0)]
        with pytest.warns(UserWarning, match="dropped 2"):
            joined = self.join(extra, policy="intersect")
        assert decode_ids(joined.ids) == ["u001", "u002"]
        assert joined.scores.tolist() == [2.0, -1.0]
        assert joined.bonafide.tolist() == [True, False]
        assert (joined.unscored, joined.orphans) == (1, 1)

    def test_intersect_clean_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            joined = self.join(self.pairs, policy="intersect")
        assert len(joined.ids) == 3

    @pytest.mark.parametrize("policy", ["strict", "intersect"])
    def test_duplicate_score_id(self, policy):
        with pytest.raises(DuplicateId):
            self.join(self.pairs + [("u001", 9.0)], policy=policy)

    # the score keys are sorted without regard to line order; the message
    # still names the earliest line that repeats an earlier one
    @pytest.mark.parametrize("policy", ["strict", "intersect"])
    @pytest.mark.parametrize("ids,repeated", [
        (["u003", "u001", "u003", "u001"], "u003"),
        (["u003", "u002", "u001", "u002", "u003"], "u002"),
        (["u001", "u003", "u002", "u003", "u001"], "u003"),
        (["u002", "u003", "u001", "u001", "u003", "u002"], "u001"),
        (["u999", "u003", "u999", "u001", "u003", "u001"], "u999"),
    ])
    def test_duplicate_names_earliest_repeat(self, ids, repeated, policy):
        with pytest.raises(DuplicateId) as exc:
            self.join([(u, 1.0) for u in ids], policy=policy)
        assert str(exc.value) == (
            f"utterance {repeated!r} is scored more than once")

    @pytest.mark.parametrize("policy", ["strict", "intersect"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_duplicate_among_many_repeats(self, seed, policy):
        rng = np.random.Generator(np.random.PCG64(seed))
        ids = [f"u{i:03d}" for i in rng.permutation(300)]
        ids = ids + [ids[i] for i in rng.permutation(300)[:200]]
        ids = [ids[i] for i in rng.permutation(len(ids))]
        seen = set()
        repeated = next(u for u in ids if u in seen or seen.add(u))
        with pytest.raises(DuplicateId) as exc:
            self.join([(u, 0.0) for u in ids], policy=policy)
        assert str(exc.value) == (
            f"utterance {repeated!r} is scored more than once")

    @pytest.mark.parametrize("policy", ["strict", "intersect"])
    def test_duplicate_orphan_score_id(self, policy):
        pairs = self.pairs + [("u999", 1.0), ("u002", 3.0), ("u999", 2.0)]
        with pytest.raises(DuplicateId, match="'u002'"):
            self.join(pairs, policy=policy)
        with pytest.raises(DuplicateId, match="'u999'"):
            self.join(self.pairs + [("u999", 1.0), ("u999", 2.0)],
                      policy=policy)

    def test_unknown_policy(self):
        with pytest.raises(InvalidParameter):
            self.join(self.pairs, policy="outer")

    def test_scored_trial_carries_record(self):
        joined = self.join(self.pairs)
        assert joined.attacks[joined.attack[1]] == "A17"
        assert joined.codecs[joined.codec[1]] == "C03"
        assert joined.bonafide.tolist() == [True, False, False]


class TestEmitManifest:
    def test_exact_text(self):
        assert emit_manifest(parse_manifest(MANIFEST.encode())[0]) == MANIFEST
        assert emit_manifest(manifest_records(MANIFEST)) == MANIFEST

    def test_empty(self):
        assert emit_manifest([]) == ""

    def test_round_trip_normalizes_whitespace(self):
        text = "u001\tbonafide\t-\tC00\tp\n"
        assert emit_manifest(parse_manifest(text.encode())[0]) == \
            "u001 bonafide - C00 p\n"


_ID_ALPHA = "abcdefghijklmnopqrstuvwxyz0123456789_."
_PATH_ALPHA = _ID_ALPHA + "/-"


@st.composite
def trial_lists(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    records = []
    for i in range(n):
        label = draw(st.sampled_from(["bonafide", "spoof"]))
        attack = "-" if label == "bonafide" else draw(
            st.text(_ID_ALPHA, min_size=1, max_size=6))
        records.append(TrialRecord(
            utterance_id=f"u{i:04d}" + draw(
                st.text(_ID_ALPHA, min_size=0, max_size=4)),
            label=label,
            attack_id=attack,
            codec_id=draw(st.text(_ID_ALPHA, min_size=1, max_size=6)),
            source_path=draw(st.text(_PATH_ALPHA, min_size=1, max_size=20)),
        ))
    return records


@given(trial_lists())
def test_emit_parse_identity(records):
    assert manifest_records(emit_manifest(records)) == records


def same_scores(a, ids, values):
    """Score columns a hold ids and bit-identical float64 values."""
    return decode_ids(a.ids) == ids and np.array_equal(
        a.scores.view(np.int64),
        np.asarray(values, dtype=np.float64).view(np.int64))


class TestEmitScores:
    def test_awkward_floats_round_trip(self):
        values = [0.1, -1 / 3, 1e-17, -3.5e300, 5e-324, 0.0, -0.0, 2.0]
        ids = [f"u{i:03d}" for i in range(len(values))]
        assert same_scores(parse_scores(score_text(ids, values)), ids,
                           values)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                max_size=20))
def test_scores_emit_parse_identity(values):
    ids = [f"u{i:04d}" for i in range(len(values))]
    assert same_scores(parse_scores(score_text(ids, values)), ids, values)


# --- the bytes-to-float cast against float() ---------------------------------

def test_bytes_cast_matches_float():
    """parse_scores reads a column of score bytes with numpy's cast to
    float64; it must give float()'s double, bit for bit."""
    rng = np.random.Generator(np.random.PCG64(23))
    doubles = rng.integers(0, 2 ** 64, 40_000, dtype=np.uint64,
                           endpoint=False).view(np.float64)
    digits = rng.integers(0, 10 ** 18, (2_000, 2)).tolist()
    exponents = rng.integers(-340, 320, 2_000).tolist()
    texts = ([repr(v) for v in doubles[np.isfinite(doubles)].tolist()]
             + [f"{a}.{b}e{e}" for (a, b), e in zip(digits, exponents)]
             + ["5e-324", "-5e-324", "1.7976931348623157e308",
                "-1.7976931348623157e308", "-0.0", "0", "1_0", "0_0.0_1",
                "+.5", "7.", "1E5", "2.2250738585072014e-308"])
    want = np.array([float(t) for t in texts]).view(np.int64)
    with np.errstate(over="ignore"):
        cast = np.array([t.encode() for t in texts], dtype="S").astype(
            np.float64)
    assert np.array_equal(cast.view(np.int64), want)
    finite = [t for t in texts if math.isfinite(float(t))]
    ids = [f"u{i}" for i in range(len(finite))]
    parsed = parse_scores("".join(f"{u} {t}\n"
                                  for u, t in zip(ids, finite)).encode())
    assert decode_ids(parsed.ids) == ids
    assert np.array_equal(parsed.scores.view(np.int64),
                          want[np.isfinite(want.view(np.float64))])


@pytest.mark.parametrize("bad", ["0x10", "--1", "1_", "1e", "1.5\x00"])
def test_refused_score_falls_to_per_line_error(bad):
    text = f"u1 0.5\nu2 {bad}\n".encode()
    assert protocol._tokens(text, 2) is not None
    with pytest.raises(MalformedLine) as per_line:
        protocol._score_lines(text)
    with pytest.raises(MalformedLine) as fast:
        parse_scores(text)
    assert str(fast.value) == str(per_line.value) == (
        f"line 2: score {bad!r} is not a number")


# --- fixed-width ids ----------------------------------------------------------

def test_long_id_keeps_join_exact():
    # one id as long as the rest of the text is kept as a bytes object,
    # not padded into a fixed width for every row
    long_id = "x" * 50_000
    ids = [f"t{i:03d}" for i in range(40)] + [long_id]
    manifest = "".join(f"{u} spoof A1 C0 p\n" for u in ids).encode()
    rows, trials = parse_manifest(manifest)
    assert trials.ids.dtype == object
    assert decode_ids(trials.ids) == ids and rows[40].utterance_id == long_id
    values = [float(i) for i in range(len(ids))]
    joined = join_scores(trials, parse_scores(score_text(ids[::-1],
                                                          values[::-1])))
    assert decode_ids(joined.ids) == ids
    assert joined.scores.tolist() == values
    with pytest.warns(UserWarning, match="1 unscored"):
        joined = join_scores(trials, parse_scores(score_text(ids[:-1],
                                                             values[:-1])),
                             "intersect")
    assert decode_ids(joined.ids) == ids[:-1]
    with pytest.raises(OrphanScore) as exc:
        join_scores(parse_manifest(manifest.split(b"\n", 1)[1])[1],
                    parse_scores(score_text(ids, values)))
    assert exc.value.ids == ["t000"]


# --- the columnar fast path against the per-line path -----------------------

# Each text is clean, using only what the fast path accepts; odd, with
# ASCII separators other than space, tab, LF and CR; or noisy, with
# comments, unicode whitespace and line breaks, and non-ASCII ids.  Each
# may carry one defect on one line: a wrong field count, a bad label, a
# label/attack mismatch, a repeated id, an id the other file lacks, or a
# score that is not a finite number.  Ids come in pairs that share a stem
# and differ in a tail: one a prefix of the other, or one ending in NUL
# or another control byte, which fixed-width bytes must keep apart.
_CLEAN = {"id": "u{}", "sep": [" ", "\t", "  ", " \t"],
          "lead": ["", "", " "], "tail": ["", "", " ", "\t"],
          "end": ["\n", "\n", "\r\n", "\r"], "other": ["   ", ""]}
_ODD = {"id": "u{}", "sep": [" ", "\t", " ", "\x1f", "\x1c"],
        "lead": ["", " "], "tail": ["", "\r", "\x0c"],
        "end": ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1d", "\x1e"],
        "other": ["   "]}
_NOISY = {"id": "\u00fc{}",
          "sep": [" ", "\t", "\u00a0", "\u2003", "\x1f", "\x0b"],
          "lead": ["", " ", "\u3000"], "tail": ["", " # note", "#", "\r"],
          "end": ["\n", "\r\n", "\x0c", "\x85", "\u2028"],
          "other": ["   ", "# a comment"]}
# ASCII text with comments, which the fast path reads: full-line, trailing,
# tight against a field, several to a line, and one holding a \x0c, which
# ends the line for the per-line path
_COMMENTED = {"id": "u{}", "sep": [" ", "\t", " # cut"],
              "lead": ["", " "],
              "tail": ["", "  # attack=x", "#tight", " #a#b # c", "#\x0cu7"],
              "end": ["\n", "\r\n", "\r"],
              "other": ["# a comment", "#", "\t## two # marks "]}
_DEFECTS = [None, None, "count", "label", "mismatch", "repeat", "stranger",
            "value"]
_TAILS = [("", "_"), ("", "_"), ("", "\x00"), ("\x00", "\x00\x00"),
          ("", "\x01"), ("\x1b", "")]
_VALUES = ["1.5", "-2e-3", "0", "-0.0", "5e-324", "7", "1_0"]
_BAD_VALUES = ["nan", "inf", "-Infinity", "1e400", "high", "0x10", "--1"]


def _fields(draw, kind, uid, defect):
    if kind == "scores":
        return [uid, draw(st.sampled_from(
            _BAD_VALUES if defect == "value" else _VALUES))]
    label = "real" if defect == "label" else draw(
        st.sampled_from(["bonafide", "spoof"]))
    attack = "-" if label == "bonafide" else "A17"
    if defect == "mismatch":
        attack = "A18" if attack == "-" else "-"
    return [uid, label, attack, draw(st.sampled_from(["C0", "C1"])), "p.flac"]


@st.composite
def texts(draw, kind):
    """Manifest or score text; ids are distinct unless repeated on purpose,
    in an order of their own."""
    style = draw(st.sampled_from([_CLEAN, _CLEAN, _ODD, _NOISY, _COMMENTED]))
    tails = draw(st.sampled_from(_TAILS))

    def ident(k):
        return style["id"].format(k // 2) + tails[k % 2]

    order = draw(st.permutations(range(draw(st.integers(0, 8)))))
    defect = draw(st.sampled_from(_DEFECTS))
    bad = draw(st.integers(0, max(len(order) - 1, 0)))
    lines = []
    for i, k in enumerate(order):
        if draw(st.integers(0, 7)) == 0:
            lines.append(draw(st.sampled_from(style["other"])))
        # a stranger comes twice, so that orphan scores repeat too
        d = defect if i == bad or (defect == "stranger" and i == bad + 1) \
            else None
        uid = {"repeat": ident(0), "stranger": "u9"}.get(d, ident(k))
        fields = _fields(draw, kind, uid, d)
        if d == "count":
            fields = fields[:-1] if draw(st.booleans()) else fields + ["x"]
        seps = [draw(st.sampled_from(style["sep"])) for _ in fields]
        body = "".join(f + sep for f, sep in zip(fields, seps[1:] + [""]))
        lines.append(draw(st.sampled_from(style["lead"])) + body
                     + draw(st.sampled_from(style["tail"])))
    ends = [draw(st.sampled_from(style["end"])) for _ in lines]
    if ends and draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends)).encode()


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except (InvalidParameter, MalformedLine, DuplicateId, NonFiniteScore,
            MissingScore, OrphanScore) as e:
        return (type(e), str(e), getattr(e, "ids", None))


def _trial_lists(trials):
    return (decode_ids(trials.ids), trials.bonafide.tolist(),
            [trials.attacks[i] for i in trials.attack.tolist()],
            [trials.codecs[i] for i in trials.codec.tolist()])


def _per_line_records(text):
    """TrialRecords of the per-line reader's fields."""
    return [TrialRecord(*row) for row in zip(*protocol._manifest_lines(text))]


def _record_lists(records):
    return ([r.utterance_id for r in records],
            [r.label == "bonafide" for r in records],
            [r.attack_id for r in records], [r.codec_id for r in records])


def _score_lists(scores):
    return decode_ids(scores.ids), scores.scores.view(np.int64).tolist()


def _per_line_scores(text):
    """Ids and score bits of the per-line reader."""
    ids, scores = protocol._score_lines(text)
    return ids, np.array(scores, dtype=np.float64).view(np.int64).tolist()


def _reference_join(records, scores, policy):
    """Dict-based join over the per-line parse, as a plain reference."""
    by_id = {}
    for u, v in zip(*scores):
        if u in by_id:
            raise DuplicateId(f"utterance {u!r} is scored more than once")
        by_id[u] = v
    trial_ids = {r.utterance_id for r in records}
    missing = [r.utterance_id for r in records if r.utterance_id not in by_id]
    orphans = [u for u in by_id if u not in trial_ids]
    if policy == "strict" and missing:
        raise MissingScore(missing)
    if policy == "strict" and orphans:
        raise OrphanScore(orphans)
    kept = [r for r in records if r.utterance_id in by_id]
    return ([r.utterance_id for r in kept],
            [by_id[r.utterance_id] for r in kept],
            len(missing), len(orphans))


@settings(max_examples=150, deadline=None)
@given(texts("manifest"))
def test_manifest_fast_path_matches_per_line(text):
    per_line = _outcome(_per_line_records, text)
    fast = _outcome(parse_manifest, text)
    if per_line[0] == "ok":
        assert fast[0] == "ok"
        rows, trials = fast[1]
        assert _trial_lists(trials) == _record_lists(per_line[1])
        assert list(rows) == per_line[1]
    else:
        assert fast == per_line

    tokens = (protocol._tokens(text, 5)
              if text.isascii() and b"#" not in text else None)
    if tokens is not None:
        starts, ends = tokens
        rows = [line.split() for _, line in protocol._content_lines(text)]
        assert [[text[s:e].decode() for s, e in zip(*row)]
                for row in zip(starts.tolist(), ends.tolist())] == rows


@settings(max_examples=100, deadline=None)
@given(texts("manifest"), texts("scores"), st.integers(1, 12),
       st.integers(1, 3))
def test_small_spans_and_chunks_agree(manifest, scores, span, chunk):
    # the tokenizer scans raw bytes a span at a time and the gather copies
    # rows a chunk at a time; neither may change what is read
    want = (_outcome(parse_manifest, manifest), _outcome(parse_scores, scores))
    with mock.patch.object(protocol, "_SPAN", span), \
            mock.patch.object(protocol, "_CHUNK", chunk):
        got = (_outcome(parse_manifest, manifest),
               _outcome(parse_scores, scores))
    if want[0][0] == "ok":
        assert got[0][0] == "ok"
        assert (list(got[0][1][0]), _trial_lists(got[0][1][1])) == (
            list(want[0][1][0]), _trial_lists(want[0][1][1]))
    else:
        assert got[0] == want[0]
    if want[1][0] == "ok":
        assert got[1][0] == "ok"
        assert _score_lists(got[1][1]) == _score_lists(want[1][1])
    else:
        assert got[1] == want[1]


@settings(max_examples=150, deadline=None)
@given(texts("scores"))
def test_score_fast_path_matches_per_line(text):
    per_line = _outcome(_per_line_scores, text)
    fast = _outcome(parse_scores, text)
    if per_line[0] == "ok":
        assert fast[0] == "ok"
        assert _score_lists(fast[1]) == per_line[1]
    else:
        assert fast == per_line


@pytest.mark.parametrize("end", ["\r\n", "\r"])
def test_cr_line_ends_read_on_fast_path(end):
    # CR ends a line as LF does, so CRLF and lone-CR files are tokenized
    # as their LF copies are, without the per-line readers
    manifest = "\n" + MANIFEST + "  \nu004 spoof A17 C00 p"
    scores = "u003 0.5\n\nu001 2.0\t\nu002 -1.0"
    with mock.patch.object(protocol, "_manifest_lines",
                           side_effect=AssertionError), \
            mock.patch.object(protocol, "_score_lines",
                              side_effect=AssertionError):
        rows, trials = parse_manifest(manifest.replace("\n", end).encode())
        cols = parse_scores(scores.replace("\n", end).encode())
    lf_rows, lf_trials = parse_manifest(manifest.encode())
    assert list(rows) == list(lf_rows)
    assert _trial_lists(trials) == _trial_lists(lf_trials)
    assert np.array_equal(trials.order, lf_trials.order)
    assert _score_lists(cols) == _score_lists(parse_scores(scores.encode()))


@pytest.mark.parametrize("span", [protocol._SPAN, 1, 5])
def test_comments_read_on_fast_path(span):
    # a comment, from '#' to the line end, separates tokens as a space
    # does, so commented ASCII files are tokenized as their uncommented
    # copies are, without the per-line readers, and a comment stays open
    # across the tokenizer's spans
    manifest = ("# full line\n" + MANIFEST.replace(".flac\n", ".flac  "
                                                  "# attack=reverb_0.6\n", 1)
                + "u004 spoof A17 C00 p#tight\r\n"
                + "  ## two # marks\nu005 spoof A17 C01 q # a # b#c\n#")
    scores = "#\nu003 0.5#x\nu001 2.0 # y # z\r# w\nu002 -1.0  #"
    with mock.patch.object(protocol, "_manifest_lines",
                           side_effect=AssertionError), \
            mock.patch.object(protocol, "_score_lines",
                              side_effect=AssertionError), \
            mock.patch.object(protocol, "_SPAN", span):
        rows, trials = parse_manifest(manifest.encode())
        cols = parse_scores(scores.encode())
    plain_rows, plain_trials = parse_manifest(
        re.sub("#[^\r\n]*", "", manifest).encode())
    assert len(rows) == 5
    assert list(rows) == list(plain_rows)
    assert _trial_lists(trials) == _trial_lists(plain_trials)
    assert np.array_equal(trials.order, plain_trials.order)
    assert _score_lists(cols) == _score_lists(
        parse_scores(re.sub("#[^\r\n]*", "", scores).encode()))


def _assert_join_matches_reference(manifest, scores, policy):
    records = _outcome(_per_line_records, manifest)
    parsed = _outcome(_per_line_scores, scores)
    if records[0] != "ok" or parsed[0] != "ok":
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = _outcome(_reference_join, records[1], parsed[1], policy)
        got = _outcome(join_scores, parse_manifest(manifest)[1],
                       parse_scores(scores), policy)
    if want[0] == "ok":
        joined = got[1]
        assert (decode_ids(joined.ids), joined.scores.view(np.int64).tolist(),
                joined.unscored, joined.orphans) == want[1]
    else:
        assert got == want


@settings(max_examples=150, deadline=None)
@given(texts("manifest"), texts("scores"),
       st.sampled_from(["strict", "intersect"]))
def test_join_matches_dict_reference(manifest, scores, policy):
    _assert_join_matches_reference(manifest, scores, policy)


# manifest ids, score ids, and the kind of their sort keys (see
# protocol._sort_keys): "u" one unsigned integer each, "S" the bytes
# cast to one width, "O" bytes objects
_WIDE = [f"{i * 7919:012d}"[::-1] for i in range(1, 40)]
_LONG = "x" * 70_000
# first byte "a", "b", then "a" again over two 4096-line blocks and a
# tail: only the blocks' greatest bytes show that the first byte varies
_BLOCKS = ([f"a{i:04d}" for i in range(4096)]
           + [f"b{i:04d}" for i in range(4096)]
           + [f"a9{i:03d}" for i in range(10)])
JOIN_KEY_CASES = {
    "wide": (_WIDE, _WIDE[::-2] + ["7" * 12], "S"),
    "long-prefix": ([f"speaker_0042_session_{i:05d}" for i in range(30)],
                    [f"speaker_0042_session_{i:05d}"
                     for i in range(40, 0, -3)], "u"),
    "prefixes": (["a", "ab", "abc", "b"], ["abc", "ab", "a", "abcd", "ba"],
                 "u"),
    "single": (["u1"], ["u1"], "u"),
    "single-orphan": (["u1"], ["u2"], "u"),
    "empty": ([], [], "u"),
    "empty-manifest": ([], ["u1", "u2"], "u"),
    "empty-scores": (["u1", "u2"], [], "u"),
    "wider-scores": (["u001", "u002", "u003"],
                     ["u003", "u001x", "u001", "u0020000000000", "u002"],
                     "S"),
    # every score id ends in the byte the manifest ids start with: the
    # manifest's padding still tells them apart
    "wider-scores-same-tail": (["a", "b"], ["aa", "ba"], "u"),
    "manifest-constant-column": (["a1", "a2", "a3"], ["a1", "b2", "a3", "a2"],
                                 "u"),
    "object-scores": (["t1", "t2", "t3"], ["t2", _LONG, "t1", "t3"], "O"),
    "object-manifest": (["t1", _LONG, "t3"], ["t3", "t1", "t4"], "O"),
    "blocks": (_BLOCKS, _BLOCKS[::-3] + ["b9999"], "u"),
}


@pytest.mark.parametrize("policy", ["strict", "intersect"])
@pytest.mark.parametrize("trial_ids,score_ids,kind", JOIN_KEY_CASES.values(),
                         ids=JOIN_KEY_CASES)
def test_join_key_edge_cases(trial_ids, score_ids, kind, policy):
    manifest = "".join(f"{u} spoof A1 C0 p.flac\n" for u in trial_ids).encode()
    scores = score_text(score_ids, [0.5 * i for i in range(len(score_ids))])
    keys = protocol._sort_keys(parse_manifest(manifest)[1].ids,
                               parse_scores(scores).ids)
    assert [k.dtype.kind for k in keys] == [kind, kind]
    _assert_join_matches_reference(manifest, scores, policy)


@pytest.mark.parametrize("pattern,count", [("LA_%07d", 600_000),
                                           ("E_%010d", 680_774)])
def test_fixed_pattern_ids_sort_as_one_word(pattern, count):
    # the bench's ids and ASVspoof 5's reach the one-uint64 key in the
    # manifest's id sort and in the join; attacks and codecs sort as uint32
    ids = [pattern % i for i in range(0, count, 4_001)] + [pattern % count]
    manifest = "".join(f"{u} spoof A17 C03 p.flac\n" for u in ids).encode()
    scores = score_text(ids[::-1], [float(i) for i in range(len(ids))])
    sort_keys, kinds = protocol._sort_keys, []

    def spy(*keys):
        out = sort_keys(*keys)
        kinds.extend(k.dtype for k in out)
        return out

    with mock.patch.object(protocol, "_sort_keys", spy):
        joined = join_scores(parse_manifest(manifest)[1],
                             parse_scores(scores))
    assert decode_ids(joined.ids) == ids
    assert kinds == [np.dtype(t) for t in (np.uint64, np.uint32, np.uint32,
                                            np.uint64, np.uint64)]
