"""Manifest and score parsing, joining, and emission."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from launderbench import protocol
from launderbench.errors import (DuplicateId, InvalidParameter, MalformedLine,
                                 MissingScore, NonFiniteScore, OrphanScore)
from launderbench.protocol import (ScoreColumns, TrialRecord, emit_manifest,
                                   emit_scores, join_scores, parse_manifest,
                                   parse_scores)

MANIFEST = """\
u001 bonafide - C00 audio/u001.flac
u002 spoof A17 C03 audio/u002.flac
u003 spoof A30 C00 audio/u003.flac
"""


def score_columns(*pairs):
    return ScoreColumns([u for u, _ in pairs],
                        np.array([v for _, v in pairs], dtype=np.float64))


def manifest_records(text):
    return [TrialRecord(*r) for r in zip(*parse_manifest(text)[0])]


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
        fields, trials = parse_manifest(MANIFEST)
        assert fields[0] == trials.ids == ["u001", "u002", "u003"]
        assert fields[1][0] == "bonafide"
        assert fields[2][1] == "A17"
        assert fields[4][2] == "audio/u003.flac"
        assert trials.bonafide.tolist() == [True, False, False]
        assert trials.index == {"u001": 0, "u002": 1, "u003": 2}

    def test_comments_and_blanks(self):
        text = ("# header\n"
                "\n"
                "u001 bonafide - C00 p1  # trailing note\n"
                "   \n"
                "u002 spoof A01 C01 p2\n")
        assert parse_manifest(text)[0][0] == ["u001", "u002"]

    def test_no_trailing_newline(self):
        assert parse_manifest("u001 bonafide - C00 p")[1].ids == ["u001"]

    def test_empty_text(self):
        for text in ("", "# only comments\n\n"):
            fields, trials = parse_manifest(text)
            assert fields == [[]] * 5 and trials.ids == []

    @pytest.mark.parametrize("line", ["u001 bonafide - C00",
                                      "u001 bonafide - C00 p extra"])
    def test_wrong_field_count(self, line):
        with pytest.raises(MalformedLine) as exc:
            parse_manifest(line + "\n")
        assert exc.value.line_no == 1

    def test_line_number_accounts_for_comments(self):
        text = "# one\nu001 bonafide - C00 p\n\nu002 spoof A1\n"
        with pytest.raises(MalformedLine) as exc:
            parse_manifest(text)
        assert exc.value.line_no == 4

    def test_bonafide_with_attack_is_malformed(self):
        with pytest.raises(MalformedLine) as exc:
            parse_manifest("u003 bonafide A17 C00 p\n")
        assert exc.value.line_no == 1
        assert "attack" in exc.value.reason

    def test_spoof_with_placeholder_is_malformed(self):
        with pytest.raises(MalformedLine):
            parse_manifest("u003 spoof - C00 p\n")

    def test_unknown_label_is_malformed(self):
        with pytest.raises(MalformedLine):
            parse_manifest("u001 real - C00 p\n")

    @pytest.mark.parametrize("line", ["u003 spoof - C00 p",
                                      "u003 bonafide A17 C00 p",
                                      "u003 real - C00 p"])
    def test_fast_path_text_invalid_on_line_3(self, line):
        # plain ASCII without '#' passes the tokenizer, so the bulk check
        # rejects it and the per-line reader names the line
        text = f"u001 bonafide - C00 p\nu002 spoof A17 C00 p\n{line}\n"
        assert protocol._columns(text, 5) is not None
        with pytest.raises(MalformedLine) as exc:
            parse_manifest(text)
        assert exc.value.line_no == 3

    def test_duplicate_id(self):
        text = "u001 bonafide - C00 p1\nu001 spoof A01 C00 p2\n"
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
        text = f"u001 bonafide - C00 p{sep}extra\n"
        with pytest.raises(MalformedLine) as exc:
            parse_manifest(text)
        assert str(exc.value) == error


class TestParseScores:
    def test_basic(self):
        cols = parse_scores("u001 1.25\nu002 -3.5\n")
        assert cols.ids == ["u001", "u002"]
        assert cols.scores.dtype == np.float64
        assert cols.scores.tolist() == [1.25, -3.5]

    def test_scientific_notation(self):
        assert parse_scores("u001 -1.5e-3\n").scores.tolist() == [-1.5e-3]

    def test_comments(self):
        assert parse_scores("# hi\nu001 0.5 # ok\n").ids == ["u001"]

    def test_empty(self):
        cols = parse_scores("")
        assert cols.ids == [] and len(cols.scores) == 0

    def test_not_a_number(self):
        with pytest.raises(MalformedLine) as exc:
            parse_scores("u001 high\n")
        assert exc.value.line_no == 1

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite(self, bad):
        with pytest.raises(NonFiniteScore):
            parse_scores(f"u001 {bad}\n")

    @pytest.mark.parametrize("line", ["u001", "u001 1.0 2.0"])
    def test_wrong_field_count(self, line):
        with pytest.raises(MalformedLine):
            parse_scores(line + "\n")


class TestJoinScores:
    def setup_method(self):
        self.trials = parse_manifest(MANIFEST)[1]
        self.pairs = [("u001", 2.0), ("u002", -1.0), ("u003", 0.5)]

    def join(self, pairs, policy="strict"):
        return join_scores(self.trials, score_columns(*pairs), policy=policy)

    def test_strict_happy_path(self):
        joined = self.join(self.pairs)
        assert joined.ids == ["u001", "u002", "u003"]
        assert joined.scores.tolist() == [2.0, -1.0, 0.5]
        assert (joined.unscored, joined.orphans) == (0, 0)

    def test_strict_order_follows_trials(self):
        joined = self.join(list(reversed(self.pairs)))
        assert joined.ids == ["u001", "u002", "u003"]
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
        assert joined.ids == ["u001", "u002"]
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
        assert emit_manifest(zip(*parse_manifest(MANIFEST)[0])) == MANIFEST
        assert emit_manifest(manifest_records(MANIFEST)) == MANIFEST

    def test_empty(self):
        assert emit_manifest([]) == ""

    def test_round_trip_normalizes_whitespace(self):
        text = "u001\tbonafide\t-\tC00\tp\n"
        assert emit_manifest(zip(*parse_manifest(text)[0])) == \
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


def same_scores(a, b):
    """Equal ids and bit-identical float64 scores."""
    return a.ids == b.ids and np.array_equal(
        np.asarray(a.scores, dtype=np.float64).view(np.int64),
        np.asarray(b.scores, dtype=np.float64).view(np.int64))


class TestEmitScores:
    def test_awkward_floats_round_trip(self):
        values = [0.1, -1 / 3, 1e-17, -3.5e300, 5e-324, 0.0, -0.0, 2.0]
        scores = score_columns(*((f"u{i:03d}", v)
                                 for i, v in enumerate(values)))
        assert same_scores(parse_scores(emit_scores(scores)), scores)

    def test_exact_text(self):
        assert emit_scores(score_columns(("u001", 1.5))) == "u001 1.5\n"

    def test_empty(self):
        assert emit_scores(score_columns()) == ""


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                max_size=20))
def test_scores_emit_parse_identity(values):
    scores = score_columns(*((f"u{i:04d}", v) for i, v in enumerate(values)))
    assert same_scores(parse_scores(emit_scores(scores)), scores)


# --- the columnar fast path against the per-line path -----------------------

# Each text is clean, using only what the fast path accepts; odd, with
# ASCII separators other than space, tab and newline; or noisy, with
# comments, unicode whitespace and line breaks, and non-ASCII ids.  Each
# may carry one defect on one line: a wrong field count, a bad label, a
# label/attack mismatch, a repeated id, an id the other file lacks, or a
# score that is not a finite number.
_CLEAN = {"id": "u{}", "sep": [" ", "\t", "  ", " \t"],
          "lead": ["", "", " "], "tail": ["", "", " ", "\t"],
          "end": ["\n"], "other": ["   ", ""]}
_ODD = {"id": "u{}", "sep": [" ", "\t", " ", "\x1f", "\x1c"],
        "lead": ["", " "], "tail": ["", "\r", "\x0c"],
        "end": ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1d", "\x1e"],
        "other": ["   "]}
_NOISY = {"id": "\u00fc{}",
          "sep": [" ", "\t", "\u00a0", "\u2003", "\x1f", "\x0b"],
          "lead": ["", " ", "\u3000"], "tail": ["", " # note", "#", "\r"],
          "end": ["\n", "\r\n", "\x0c", "\x85", "\u2028"],
          "other": ["   ", "# a comment"]}
_DEFECTS = [None, None, "count", "label", "mismatch", "repeat", "stranger",
            "value"]
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
    style = draw(st.sampled_from([_CLEAN, _CLEAN, _ODD, _NOISY]))
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
        uid = {"repeat": "u0", "stranger": "u9"}.get(d, style["id"].format(k))
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
    return "".join(line + end for line, end in zip(lines, ends))


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except (InvalidParameter, MalformedLine, DuplicateId, NonFiniteScore,
            MissingScore, OrphanScore) as e:
        return (type(e), str(e), getattr(e, "ids", None))


def _trial_lists(trials):
    return (list(trials.ids), trials.bonafide.tolist(),
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
    return list(scores.ids), scores.scores.view(np.int64).tolist()


def _reference_join(records, scores, policy):
    """Dict-based join over the per-line parse, as a plain reference."""
    by_id = {}
    for u, v in zip(scores.ids, scores.scores.tolist()):
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
            [np.float64(by_id[r.utterance_id]).view(np.int64) for r in kept],
            len(missing), len(orphans))


@settings(max_examples=150, deadline=None)
@given(texts("manifest"))
def test_manifest_fast_path_matches_per_line(text):
    per_line = _outcome(_per_line_records, text)
    fast = _outcome(parse_manifest, text)
    if per_line[0] == "ok":
        assert fast[0] == "ok"
        fields, trials = fast[1]
        assert _trial_lists(trials) == _record_lists(per_line[1])
        assert [TrialRecord(*r) for r in zip(*fields)] == per_line[1]
    else:
        assert fast == per_line

    fields = protocol._columns(text, 5)
    if fields is not None:
        rows = [line.split() for _, line in protocol._content_lines(text)]
        assert all(len(row) == 5 for row in rows)
        assert fields == [[row[i] for row in rows] for i in range(5)]


@settings(max_examples=150, deadline=None)
@given(texts("scores"))
def test_score_fast_path_matches_per_line(text):
    per_line = _outcome(protocol._score_lines, text)
    fast = _outcome(parse_scores, text)
    if per_line[0] == "ok":
        assert fast[0] == "ok"
        assert _score_lists(fast[1]) == _score_lists(per_line[1])
    else:
        assert fast == per_line


@settings(max_examples=150, deadline=None)
@given(texts("manifest"), texts("scores"),
       st.sampled_from(["strict", "intersect"]))
def test_join_matches_dict_reference(manifest, scores, policy):
    records = _outcome(_per_line_records, manifest)
    parsed = _outcome(protocol._score_lines, scores)
    if records[0] != "ok" or parsed[0] != "ok":
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = _outcome(_reference_join, records[1], parsed[1], policy)
        got = _outcome(join_scores, parse_manifest(manifest)[1],
                       parse_scores(scores), policy)
    if want[0] == "ok":
        joined = got[1]
        assert (joined.ids, joined.scores.view(np.int64).tolist(),
                joined.unscored, joined.orphans) == want[1]
    else:
        assert got == want
