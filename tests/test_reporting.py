"""Breakdown tables, worst-cell ranking, and text rendering."""

import csv
import io
import math
import warnings
from collections import namedtuple

import numpy as np
import pytest

from launderbench.errors import EmptyInput, InvalidParameter
from launderbench.metrics import (MetricConfig, ScoreSet, act_dcf, cllr, eer,
                                  min_dcf)
from launderbench.protocol import (TrialRecord, emit_manifest, join_scores,
                                   parse_manifest, parse_scores)
from launderbench.reporting import (BreakdownTable, CellMetrics, GroupKey,
                                    compute_breakdown, rank_worst, render,
                                    render_skipped)
from test_metrics import ref_act_dcf, ref_eer, ref_min_dcf

# Published per-attack and per-codec minDCF columns used as ranking
# fixtures; the expected top-5 orders are the tables' bold entries.
ATTACK_MIN_DCF = {
    "A17": 0.428, "A18": 0.865, "A19": 1.0, "A20": 0.994, "A21": 0.346,
    "A22": 0.357, "A23": 0.481, "A24": 0.268, "A25": 0.711, "A26": 0.857,
    "A27": 0.667, "A28": 0.626, "A29": 0.173, "A30": 1.0, "A31": 0.547,
    "A32": 0.766,
}
CODEC_MIN_DCF = {
    "C00": 0.383, "C01": 0.536, "C02": 0.535, "C03": 0.533, "C04": 0.627,
    "C05": 0.402, "C06": 0.573, "C07": 0.637, "C08": 0.705, "C09": 0.693,
    "C10": 0.711, "C11": 0.550,
}


Scored = namedtuple("Scored", "trial score")


def scored(utt, label, attack, codec, score):
    return Scored(TrialRecord(utt, label, attack, codec, "p"), score)


def columns(rows):
    """ScoredTrials of rows, through manifest and score text."""
    scores = "".join(f"{r.trial.utterance_id} {r.score!r}\n" for r in rows)
    manifest = emit_manifest([r.trial for r in rows])
    return join_scores(parse_manifest(manifest.encode())[1],
                       parse_scores(scores.encode()))


def fixture_scored():
    """2 attacks x 2 codecs; attack A2 overlaps bonafide, A1 does not."""
    rows = []
    i = 0
    for codec in ("C00", "C01"):
        for score in (2.0, 3.0, 4.0):
            rows.append(scored(f"b{i:03d}", "bonafide", "-", codec, score))
            i += 1
        for score in (-2.0, -1.0):
            rows.append(scored(f"s{i:03d}", "spoof", "A1", codec, score))
            i += 1
        for score in (2.5, 3.5):
            rows.append(scored(f"s{i:03d}", "spoof", "A2", codec, score))
            i += 1
    return rows


def table_of(values, axis):
    cells = {}
    for key_id, v in values.items():
        key = (GroupKey(key_id, "*") if axis == "attack"
               else GroupKey("*", key_id))
        cells[key] = CellMetrics(v, 1.0, 0.5, 10.0, 10, 10)
    return BreakdownTable(cells, MetricConfig())


class TestComputeBreakdown:
    def test_cell_population(self):
        table = compute_breakdown(columns(fixture_scored()))
        keys = set(table.cells)
        assert GroupKey("*", "*") in keys
        assert GroupKey("A1", "*") in keys
        assert GroupKey("*", "C01") in keys
        assert GroupKey("A2", "C00") in keys
        # pooled + 2 per-attack + 2 per-codec + 4 grid
        assert len(keys) == 9
        assert table.skipped == ()

    def test_single_separable_cell(self):
        rows = [scored("b1", "bonafide", "-", "C00", 5.0),
                scored("b2", "bonafide", "-", "C00", 6.0),
                scored("s1", "spoof", "A9", "C00", -1.0)]
        table = compute_breakdown(columns(rows))
        assert table.cells[GroupKey("A9", "C00")].eer == 0.0
        assert table.cells[GroupKey("A9", "C00")].min_dcf == 0.0

    @pytest.mark.parametrize("bon, spf", [
        (math.nextafter(1.0, 2.0), 1.0), (1.7e308, 1e308),
        (-1e308, -1.7e308)])
    def test_separated_edge_pair_cell(self, bon, spf):
        # the float midpoint of each pair rounds onto a score or overflows
        rows = [scored("b1", "bonafide", "-", "C00", bon),
                scored("s1", "spoof", "A1", "C00", spf)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            table = compute_breakdown(columns(rows))
        cell = table.cells[GroupKey("A1", "C00")]
        assert (cell.eer, cell.min_dcf) == (0.0, 0.0)

    def test_pooled_matches_metadata_free_metrics(self):
        rows = fixture_scored()
        table = compute_breakdown(columns(rows))
        bon = np.sort([r.score for r in rows if r.trial.label == "bonafide"])
        spf = np.sort([r.score for r in rows if r.trial.label == "spoof"])
        s = ScoreSet(bon, spf)
        cell = table.cells[GroupKey("*", "*")]
        cfg = table.config
        assert cell.eer == eer(s)
        assert cell.min_dcf == min_dcf(s, cfg)
        assert cell.act_dcf == act_dcf(s, cfg)
        assert cell.cllr == cllr(s)
        assert (cell.n_bon, cell.n_spf) == (len(bon), len(spf))

    def test_bonafide_shared_across_attacks(self):
        table = compute_breakdown(columns(fixture_scored()))
        a1 = table.cells[GroupKey("A1", "C00")]
        a2 = table.cells[GroupKey("A2", "C00")]
        assert a1.n_bon == a2.n_bon == 3
        assert table.cells[GroupKey("A1", "*")].n_bon == 6

    def test_overlapping_attack_scores_worse(self):
        table = compute_breakdown(columns(fixture_scored()))
        assert table.cells[GroupKey("A2", "*")].eer > \
            table.cells[GroupKey("A1", "*")].eer
        assert table.cells[GroupKey("A1", "*")].eer == 0.0

    def test_spoof_counts_match_manifest(self):
        rows = fixture_scored()
        table = compute_breakdown(columns(rows))
        for key, cell in table.cells.items():
            if key.attack_id == "*" or key.codec_id == "*":
                continue
            expected = sum(1 for r in rows
                           if r.trial.label == "spoof"
                           and r.trial.attack_id == key.attack_id
                           and r.trial.codec_id == key.codec_id)
            assert cell.n_spf == expected

    def test_missing_combination_is_skipped(self):
        rows = [scored("b1", "bonafide", "-", "C00", 3.0),
                scored("b2", "bonafide", "-", "C01", 3.0),
                scored("s1", "spoof", "A1", "C00", 0.0),
                scored("s2", "spoof", "A2", "C01", 0.0)]
        table = compute_breakdown(columns(rows))
        assert GroupKey("A1", "C01") in table.skipped
        assert GroupKey("A2", "C00") in table.skipped
        assert GroupKey("A1", "C01") not in table.cells

    def test_codec_without_bonafide_is_skipped(self):
        rows = [scored("b1", "bonafide", "-", "C00", 3.0),
                scored("s1", "spoof", "A1", "C00", 0.0),
                scored("s2", "spoof", "A1", "C09", 0.0)]
        table = compute_breakdown(columns(rows))
        assert GroupKey("*", "C09") in table.skipped
        assert GroupKey("A1", "C09") in table.skipped
        assert GroupKey("A1", "*") in table.cells

    def test_order_invariance(self):
        rows = fixture_scored()
        rng = np.random.Generator(np.random.PCG64(0))
        shuffled = [rows[i] for i in rng.permutation(len(rows))]
        assert compute_breakdown(columns(rows)) == \
            compute_breakdown(columns(shuffled))

    def test_axes_subsets(self):
        # the pooled-only shape holds the pooled cell and nothing else
        only_pooled = compute_breakdown(columns(fixture_scored()), grid=False)
        assert list(only_pooled.cells) == [GroupKey("*", "*")]
        assert only_pooled.skipped == ()

    def test_empty_scored(self):
        with pytest.raises(EmptyInput):
            compute_breakdown(columns([]))


def random_trials(n, seed):
    """Labels, attack ids, codec ids and scores of n trials; codec C9 holds
    spoof trials only, so every C9 cell lacks bonafide scores."""
    rng = np.random.Generator(np.random.PCG64(seed))
    attacks = np.array([f"A{i:02d}" for i in range(1, 6)])
    bonafide = rng.random(n) < 0.3
    attack = np.where(bonafide, "-", attacks[rng.integers(0, 5, n)])
    codec = np.array(["C0", "C1", "C2", "C9"])[rng.integers(0, 4, n)]
    codec[bonafide & (codec == "C9")] = "C0"
    # coarse scores, so that cells hold ties across classes
    scores = np.round(rng.normal(np.where(bonafide, 1.0, -1.0), 1.5), 2)
    return bonafide, attack, codec, scores


@pytest.mark.parametrize("axes", [(), ("attack", "codec")],
                         ids=["axes0", "axes3"])
def test_breakdown_matches_mask_reference(axes):
    # the reference's axes: none for the pooled-only shape, both for the
    # grid
    bonafide, attack, codec, scores = random_trials(20_000, 5)
    manifest = parse_manifest("".join(
        f"t{i:05d} {'bonafide' if b else 'spoof'} {a} {c} p\n"
        for i, (b, a, c) in enumerate(zip(bonafide, attack, codec)))
        .encode())[1]
    cfg = MetricConfig()
    # the second score file omits every trial of codec C2 and of attack
    # A03: the intersect join keeps both in its vocabularies but in no row,
    # so cell ids must come from the kept rows
    dropped = (codec == "C2") | (attack == "A03")
    for kept, policy in ((np.ones_like(dropped), "strict"),
                         (~dropped, "intersect")):
        score_text = "".join(f"t{i:05d} {v!r}\n" for i, v in enumerate(
            scores.tolist()) if kept[i])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            joined = join_scores(manifest, parse_scores(score_text.encode()),
                                 policy)
        table = compute_breakdown(joined, cfg, grid=bool(axes))
        reference = mask_reference(bonafide[kept], attack[kept],
                                   codec[kept], scores[kept], cfg, axes)
        assert list(table.cells) == list(reference.cells)
        assert table == reference
        if axes:
            assert GroupKey("*", "C9") in table.skipped
    assert all("C2" != k.codec_id and "A03" != k.attack_id
               for k in list(table.cells) + list(table.skipped))


def mask_reference(bonafide, attack, codec, scores, cfg, axes):
    """The table compute_breakdown should give, one boolean mask per cell;
    attack and codec ids come from the rows given."""
    attack_ids = sorted(set(attack.tolist()) - {"-"})
    codec_ids = sorted(set(codec.tolist()))
    keys = [GroupKey("*", "*")]
    if "attack" in axes:
        keys += [GroupKey(a, "*") for a in attack_ids]
    if "codec" in axes:
        keys += [GroupKey("*", c) for c in codec_ids]
    if len(axes) == 2:
        keys += [GroupKey(a, c) for a in attack_ids for c in codec_ids]
    cells, skipped = {}, []
    for key in keys:
        bon, spf = bonafide.copy(), ~bonafide
        if key.attack_id != "*":
            spf &= attack == key.attack_id
        if key.codec_id != "*":
            bon &= codec == key.codec_id
            spf &= codec == key.codec_id
        if not bon.any() or not spf.any():
            skipped.append(key)
            continue
        s = ScoreSet(np.sort(scores[bon]), np.sort(scores[spf]))
        cells[key] = CellMetrics(min_dcf(s, cfg), act_dcf(s, cfg), cllr(s),
                                 eer(s), int(bon.sum()), int(spf.sum()))
    return BreakdownTable(cells, cfg, tuple(skipped))


def oracle_rows(seed):
    """Tie-heavy scored rows: scores on a grid of halves, attacks A1-A4 and
    codecs C0-C3.  A2 scores above every bonafide score, so cut 0 is the
    best cut of its cells; A4 has one spoof; C3 holds spoof rows only.
    Seed None gives every row the same score."""
    rng = np.random.Generator(np.random.PCG64(seed or 0))
    rows = []
    for i in range(240):
        codec = f"C{rng.integers(0, 3)}"
        if i % 4 == 0:
            label, attack = "bonafide", "-"
            score = int(rng.integers(-4, 7)) / 2
        else:
            label, attack = "spoof", ("A1", "A2", "A3")[i % 3]
            score = int(rng.integers(-6, 5)) / 2 + (7 if attack == "A2" else 0)
            codec = "C3" if i % 11 == 0 else codec
        rows.append(scored(f"t{i:03d}", label, attack, codec, score))
    rows.append(scored("t999", "spoof", "A4", "C1",
                       int(rng.integers(-6, 7)) / 2))
    if seed is None:
        rows = [r._replace(score=0.0) for r in rows]
    return rows


def ref_cllr(bon, spf):
    def bits(x):   # log2(1 + e^x), plain Python
        return (max(x, 0.0) + math.log1p(math.exp(-abs(x)))) / math.log(2.0)
    return 0.5 * (sum(bits(-b) for b in bon) / len(bon)
                  + sum(bits(v) for v in spf) / len(spf))


@pytest.mark.parametrize("seed", [None, 1, 2, 3, 4, 5])
def test_breakdown_cells_match_oracles(seed):
    # an oracle independent of metrics: a plain-Python sweep over every
    # midpoint threshold, class sets picked row by row
    rows = oracle_rows(seed)
    attacks = sorted({r.trial.attack_id for r in rows} - {"-"})
    codecs = sorted({r.trial.codec_id for r in rows})
    keys = [GroupKey("*", "*")] + [GroupKey(a, "*") for a in attacks]
    keys += [GroupKey("*", c) for c in codecs]
    keys += [GroupKey(a, c) for a in attacks for c in codecs]
    for cfg in (MetricConfig(), MetricConfig(1.0, 1.0, 0.5)):
        table = compute_breakdown(columns(rows), cfg)
        assert list(table.cells) == [k for k in keys if k in table.cells]
        assert list(table.skipped) == [k for k in keys
                                       if k not in table.cells]
        for key in keys:
            bon = [r.score for r in rows if r.trial.label == "bonafide"
                   and key.codec_id in ("*", r.trial.codec_id)]
            spf = [r.score for r in rows if r.trial.label == "spoof"
                   and key.codec_id in ("*", r.trial.codec_id)
                   and key.attack_id in ("*", r.trial.attack_id)]
            if not bon or not spf:
                assert key not in table.cells
                continue
            cell = table.cells[key]
            assert (cell.n_bon, cell.n_spf) == (len(bon), len(spf))
            assert cell.min_dcf == ref_min_dcf(bon, spf, cfg), key
            assert cell.act_dcf == ref_act_dcf(bon, spf, cfg), key
            assert cell.eer == ref_eer(bon, spf), key
            assert cell.cllr == pytest.approx(ref_cllr(bon, spf), rel=1e-12)
    assert GroupKey("*", "C3") in table.skipped
    assert table.cells[GroupKey("A4", "*")].n_spf == 1


class TestRankWorst:
    def test_per_attack_fixture(self):
        table = table_of(ATTACK_MIN_DCF, "attack")
        worst = rank_worst(table, "min_dcf", 5, axis="attack")
        assert [k.attack_id for k in worst] == ["A19", "A30", "A20", "A18",
                                                "A26"]

    def test_per_codec_fixture(self):
        table = table_of(CODEC_MIN_DCF, "codec")
        worst = rank_worst(table, "min_dcf", 5, axis="codec")
        assert [k.codec_id for k in worst] == ["C10", "C08", "C09", "C07",
                                               "C04"]

    def test_tie_breaks_lexicographically(self):
        table = table_of({"A19": 1.0, "A30": 1.0, "A05": 0.2}, "attack")
        worst = rank_worst(table, "min_dcf", 2)
        assert [k.attack_id for k in worst] == ["A19", "A30"]

    def test_single_cell(self):
        table = table_of({"A17": 0.4}, "attack")
        assert rank_worst(table, "min_dcf", 1) == [GroupKey("A17", "*")]

    def test_full_k_is_total_descending_order(self):
        table = table_of(ATTACK_MIN_DCF, "attack")
        order = rank_worst(table, "min_dcf", len(ATTACK_MIN_DCF))
        values = [table.cells[k].min_dcf for k in order]
        assert values == sorted(values, reverse=True)
        assert len(order) == 16

    def test_metric_selection(self):
        cells = {GroupKey("A1", "*"): CellMetrics(0.9, 1.0, 0.5, 1.0, 5, 5),
                 GroupKey("A2", "*"): CellMetrics(0.1, 1.0, 0.5, 99.0, 5, 5)}
        table = BreakdownTable(cells, MetricConfig())
        assert rank_worst(table, "min_dcf", 1)[0].attack_id == "A1"
        assert rank_worst(table, "eer", 1)[0].attack_id == "A2"

    def test_fewer_cells_than_k(self):
        # k bounds the ranking; an axis with fewer cells gives all of them
        table = table_of({"A17": 0.4, "A18": 0.5}, "attack")
        assert rank_worst(table, "min_dcf", 3) == [GroupKey("A18", "*"),
                                                   GroupKey("A17", "*")]
        assert rank_worst(table, "min_dcf", 1, axis="codec") == []

    def test_invalid_arguments(self):
        table = table_of({"A17": 0.4}, "attack")
        with pytest.raises(InvalidParameter):
            rank_worst(table, "auc", 1)
        with pytest.raises(InvalidParameter):
            rank_worst(table, "min_dcf", 1, axis="speaker")
        with pytest.raises(InvalidParameter):
            rank_worst(table, "min_dcf", -1)

    def test_pooled_cell_not_ranked(self):
        cells = dict(table_of({"A17": 0.4}, "attack").cells)
        cells[GroupKey("*", "*")] = CellMetrics(9.9, 1.0, 0.5, 1.0, 5, 5)
        table = BreakdownTable(cells, MetricConfig())
        assert rank_worst(table, "min_dcf", 1)[0].attack_id == "A17"


def full_grid_table():
    """Complete A17..A32 x C00..C11 grid with distinct cell values."""
    cells = {}
    for i, a in enumerate(sorted(ATTACK_MIN_DCF)):
        for j, c in enumerate(sorted(CODEC_MIN_DCF)):
            v = round(0.1 + 0.004 * (16 * i + j), 3)
            cells[GroupKey(a, c)] = CellMetrics(v, v, v / 2.0,
                                                100.0 * v / 2.0, 10, 10)
    return BreakdownTable(cells, MetricConfig())


class TestRender:
    def test_grid_shape_tsv(self):
        text = render(full_grid_table(), "grid", "tsv", metric="min_dcf")
        lines = text.splitlines()
        assert len(lines) == 1 + 16
        header = lines[0].split("\t")
        assert header[0] == "attack"
        assert header[1] == "C00"
        assert header[1:] == sorted(CODEC_MIN_DCF)
        for line in lines[1:]:
            assert len(line.split("\t")) == 13

    def test_grid_values_and_formatting(self):
        table = full_grid_table()
        text = render(table, "grid", "tsv")
        row = next(ln for ln in text.splitlines()
                   if ln.startswith("A18\t"))
        fields = row.split("\t")
        expected = table.cells[GroupKey("A18", "C03")].min_dcf
        assert fields[1 + sorted(CODEC_MIN_DCF).index("C03")] == \
            f"{expected:.3f}"

    def test_grid_missing_cell_is_empty_field(self):
        cells = dict(full_grid_table().cells)
        dropped = GroupKey("A20", "C05")
        del cells[dropped]
        table = BreakdownTable(cells, MetricConfig(), skipped=(dropped,))
        text = render(table, "grid", "csv")
        row = next(ln for ln in text.splitlines() if ln.startswith("A20,"))
        assert row.split(",")[1 + sorted(CODEC_MIN_DCF).index("C05")] == ""

    def test_grid_metric_parameter(self):
        table = full_grid_table()
        dcf = render(table, "grid", "tsv", metric="min_dcf")
        eer_text = render(table, "grid", "tsv", metric="eer")
        assert dcf != eer_text
        row = next(ln for ln in eer_text.splitlines()
                   if ln.startswith("A17\t"))
        cell = table.cells[GroupKey("A17", "C00")]
        assert row.split("\t")[1] == f"{cell.eer:.3f}"

    def test_markdown_well_formed(self):
        grid = full_grid_table()
        # ids refuse only whitespace and '#', so one may hold a '|'
        piped = BreakdownTable(
            {GroupKey(k.attack_id.replace("A17", "A|17"), k.codec_id): c
             for k, c in grid.cells.items()}, grid.config)
        for table in (grid, piped):
            text = render(table, "grid", "markdown")
            lines = text.splitlines()
            assert len(lines) == 2 + 16
            assert set(lines[1].replace("|", "").split()) == {"---"}
            widths = {line.replace("\\|", "").count("|") for line in lines}
            assert widths == {14}
        assert lines[-1].startswith("| A\\|17 | ")  # '|' sorts last
        by_attack = render(table_of({"A|17": 0.5, "A18": 0.4}, "attack"),
                           "per_attack", "markdown").splitlines()
        assert {ln.replace("\\|", "").count("|") for ln in by_attack} == {9}
        assert by_attack[-1].startswith("| A\\|17 | * | ")

    def test_csv_parses_as_rectangle(self):
        text = render(full_grid_table(), "grid", "csv")
        rows = list(csv.reader(io.StringIO(text)))
        assert len(rows) == 17
        assert all(len(r) == 13 for r in rows)

    def test_deterministic(self):
        a = render(full_grid_table(), "grid", "tsv")
        b = render(full_grid_table(), "grid", "tsv")
        assert a == b

    def test_flat_layouts(self):
        table = compute_breakdown(columns(fixture_scored()))
        pooled = render(table, "pooled", "tsv")
        lines = pooled.splitlines()
        assert len(lines) == 2
        assert lines[0].split("\t")[:2] == ["attack", "codec"]
        assert lines[1].split("\t")[:2] == ["*", "*"]
        by_attack = render(table, "per_attack", "tsv")
        assert [ln.split("\t")[0] for ln in by_attack.splitlines()] == \
            ["attack", "A1", "A2"]
        by_codec = render(table, "per_codec", "csv")
        assert [ln.split(",")[1] for ln in by_codec.splitlines()] == \
            ["codec", "C00", "C01"]

    def test_flat_three_decimal_formatting(self):
        rows = [scored("b1", "bonafide", "-", "C00", 1.0),
                scored("b2", "bonafide", "-", "C00", 2.0),
                scored("b3", "bonafide", "-", "C00", 4.0),
                scored("s1", "spoof", "A1", "C00", 0.0),
                scored("s2", "spoof", "A1", "C00", 3.0)]
        table = compute_breakdown(columns(rows))
        line = render(table, "pooled", "tsv").splitlines()[1]
        assert line.split("\t")[5] == "41.667"

    def test_empty_layout_errors(self):
        table = BreakdownTable({}, MetricConfig())
        for layout in ("pooled", "per_attack", "per_codec", "grid"):
            with pytest.raises(EmptyInput):
                render(table, layout)

    def test_invalid_arguments(self):
        table = full_grid_table()
        with pytest.raises(InvalidParameter):
            render(table, "heatmap")
        with pytest.raises(InvalidParameter):
            render(table, "grid", "xlsx")
        with pytest.raises(InvalidParameter):
            render(table, "grid", "tsv", metric="auc")


class TestRenderSkipped:
    def test_lines(self):
        table = BreakdownTable({}, MetricConfig(),
                               skipped=(GroupKey("A2", "C01"),
                                        GroupKey("A1", "C00")))
        assert render_skipped(table) == "A1 C00\nA2 C01\n"

    def test_empty(self):
        assert render_skipped(BreakdownTable({}, MetricConfig())) == ""
