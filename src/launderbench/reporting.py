"""Grouped metric tables over scored trials.

Cells are addressed by (attack_id, codec_id) with "*" pooling an axis;
a table holds the pooled cell only, or also every per-attack, per-codec
and attack x codec cell.  Bonafide trials carry no attack id, so
per-attack cells share all bonafide scores of their codec restriction:
compute_breakdown groups each class's ascending rows into one pooled
group and into a group per codec, and one function scores each group
holding both classes as one metrics.block_metrics block.  A cell missing
either class is omitted from the table and listed as skipped instead of
being reported with a fabricated extreme value.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, InvalidParameter
from .metrics import MetricConfig, block_metrics, cllr_bits

POOLED = "*"
METRIC_NAMES = ("min_dcf", "act_dcf", "cllr", "eer")
LAYOUTS = ("pooled", "per_attack", "per_codec", "grid")
FORMATS = ("tsv", "csv", "markdown")


@dataclass(frozen=True)
class GroupKey:
    attack_id: str
    codec_id: str


@dataclass(frozen=True)
class CellMetrics:
    min_dcf: float
    act_dcf: float
    cllr: float
    eer: float
    n_bon: int
    n_spf: int


@dataclass(frozen=True)
class BreakdownTable:
    cells: dict
    config: MetricConfig
    skipped: tuple = ()


def _ascending(scored, grid):
    """Each class's scores ascending; for the grid also the attack codes of
    the spoof rows and the codec codes of both classes in that order."""
    if not grid:
        return (np.sort(scored.scores[scored.bonafide]),
                np.sort(scored.scores[~scored.bonafide]), None, None, None)
    bon_rows, spf_rows = (
        rows[np.argsort(scored.scores[rows])] for rows in
        (np.flatnonzero(scored.bonafide), np.flatnonzero(~scored.bonafide)))
    return (scored.scores[bon_rows], scored.scores[spf_rows],
            scored.attack[spf_rows], scored.codec[bon_rows],
            scored.codec[spf_rows])


def _score_groups(results, column, bon, spf, counts, groups, attack,
                  n_attacks, cfg):
    """Score each group of rows holding both classes as one block_metrics
    block, with its attack cells if attack codes are given, into
    results[attack code or -1, column[group]].

    bon and spf are each class's ascending scores and cllr_bits; counts
    has a row per class of its rows per group.  groups is each class's
    group codes, or None for one group: the rows as they are.  A stable
    grouping keeps each group ascending; the rows of groups lacking a
    class sort after the last block and are dropped.
    """
    scoring = np.flatnonzero((counts > 0).all(axis=0))
    n_blocks = len(scoring)
    if n_blocks == 0:
        return
    bon_order = spf_order = slice(None)
    block = 0
    if groups is not None:
        block_of = np.full(counts.shape[1], n_blocks,
                           dtype=np.min_scalar_type(n_blocks * n_attacks))
        block_of[scoring] = np.arange(n_blocks)
        bon_order, spf_order = (
            np.argsort(block_of[g], kind="stable")[:count[scoring].sum()]
            for g, count in zip(groups, counts))
        block = block_of[groups[1][spf_order]]
    parts, cells = None, ()
    if attack is not None:
        cell = block * n_attacks + attack[spf_order]
        cell_count = np.bincount(cell, minlength=n_blocks * n_attacks)
        cells = np.flatnonzero(cell_count)
        parts = (np.argsort(cell, kind="stable"),
                 np.cumsum(cell_count[cells]), cells // n_attacks)
        del cell, block   # freed before block_metrics, the peak of memory
    ends = np.cumsum(counts[:, scoring], axis=1)
    values = zip(*block_metrics(bon[0][bon_order], bon[1][bon_order], ends[0],
                                spf[0][spf_order], spf[1][spf_order], ends[1],
                                parts, cfg))
    for g in scoring.tolist():
        results[-1, column[g]] = next(values) + tuple(counts[:, g].tolist())
    for k in cells:
        b, a = divmod(int(k), n_attacks)
        g = int(scoring[b])
        results[a, column[g]] = next(values) + (int(counts[0, g]),
                                                int(cell_count[k]))


def compute_breakdown(scored, cfg: MetricConfig = MetricConfig(),
                      grid=True) -> BreakdownTable:
    """Metrics of the pooled cell, and with grid also of the per-attack,
    per-codec and attack x codec cells, of a protocol.ScoredTrials.

    Each class is sorted once and each row's Cllr term computed once.
    Cells are scored a block at a time by metrics.block_metrics, a block
    being the cells that share one set of bonafide scores, in two groupings
    of the ascending rows: one pooled group, the pooled cell with the
    attack cells, and a group per codec, the codec cell with its grid
    cells.  A cell's spoof scores are a contiguous ascending slice of a
    stable grouping of the ascending rows, so results do not depend on
    input order.
    """
    if len(scored.scores) == 0:
        raise EmptyInput("no scored trials to break down")
    bon, spf, attack, bon_codec, spf_codec = _ascending(scored, grid)
    bon = bon, cllr_bits(bon, True)
    spf = spf, cllr_bits(spf, False)
    n_attacks = len(scored.attacks)
    results = {}   # cells by (attack, codec) code, -1 pooling
    _score_groups(results, [-1], bon, spf,
                  np.array([[len(bon[0])], [len(spf[0])]]), None, attack,
                  n_attacks, cfg)
    attacks = codecs = ()
    if grid:
        counts = np.array([np.bincount(c, minlength=len(scored.codecs))
                           for c in (bon_codec, spf_codec)])
        _score_groups(results, range(len(scored.codecs)), bon, spf, counts,
                      (bon_codec, spf_codec), attack, n_attacks, cfg)
        # ids come from the kept rows, which an intersect join may have
        # emptied of some attack or codec; ascending codes are ascending ids
        attacks = np.flatnonzero(np.bincount(attack,
                                             minlength=n_attacks)).tolist()
        codecs = np.flatnonzero(counts.sum(axis=0)).tolist()

    codes = [(-1, -1)]
    codes.extend((a, -1) for a in attacks)
    codes.extend((-1, c) for c in codecs)
    codes.extend((a, c) for a in attacks for c in codecs)
    cells, skipped = {}, []
    for a, c in codes:
        key = GroupKey(POOLED if a < 0 else scored.attacks[a],
                       POOLED if c < 0 else scored.codecs[c])
        if (a, c) in results:
            cells[key] = CellMetrics(*results[a, c])
        else:
            skipped.append(key)
    return BreakdownTable(cells, cfg, tuple(skipped))


def axis_keys(table, axis):
    """Computed single-axis cells of one axis, ascending by id."""
    if axis == "attack":
        return sorted((k for k in table.cells
                       if k.attack_id != POOLED and k.codec_id == POOLED),
                      key=lambda k: k.attack_id)
    return sorted((k for k in table.cells
                   if k.codec_id != POOLED and k.attack_id == POOLED),
                  key=lambda k: k.codec_id)


def rank_worst(table: BreakdownTable, metric: str, k: int,
               axis: str = "attack") -> list:
    """Keys of the k worst (largest-metric) cells along one axis, or of
    all of them when the axis holds fewer.

    Ties order lexicographically by id so rankings are reproducible.
    """
    if metric not in METRIC_NAMES:
        raise InvalidParameter(
            f"metric must be one of {METRIC_NAMES}, got {metric!r}")
    if axis not in ("attack", "codec"):
        raise InvalidParameter(f"axis must be attack or codec, got {axis!r}")
    if k < 0:
        raise InvalidParameter("k must be nonnegative")
    keys = axis_keys(table, axis)
    keys.sort(key=lambda key: (-getattr(table.cells[key], metric),
                               (key.attack_id, key.codec_id)))
    return keys[:k]


def _format_rows(rows, fmt):
    if fmt == "markdown":
        # an escaped pipe stays inside its cell
        out = [" | ".join(str(v).replace("|", "\\|") for v in row)
               for row in rows]
        out.insert(1, " | ".join("---" for _ in rows[0]))
        return "".join(f"| {line} |\n" for line in out)
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter="\t" if fmt == "tsv" else ",",
                        lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def _flat_rows(table, keys):
    rows = [["attack", "codec", "min_dcf", "act_dcf", "cllr", "eer",
             "n_bon", "n_spf"]]
    for key in keys:
        c = table.cells[key]
        rows.append([key.attack_id, key.codec_id, f"{c.min_dcf:.3f}",
                     f"{c.act_dcf:.3f}", f"{c.cllr:.3f}", f"{c.eer:.3f}",
                     c.n_bon, c.n_spf])
    return rows


def render(table: BreakdownTable, layout: str, fmt: str = "tsv",
           metric: str = "min_dcf") -> str:
    """Text table for one layout; grid layouts show a single metric.

    Grid rows are attacks ascending and columns codecs ascending, which
    puts the uncoded condition first under C00-style naming; cells the
    table skipped render as empty fields.
    """
    if layout not in LAYOUTS:
        raise InvalidParameter(f"layout must be one of {LAYOUTS}")
    if fmt not in FORMATS:
        raise InvalidParameter(f"fmt must be one of {FORMATS}")
    if layout == "pooled":
        key = GroupKey(POOLED, POOLED)
        if key not in table.cells:
            raise EmptyInput("table holds no pooled cell")
        return _format_rows(_flat_rows(table, [key]), fmt)
    if layout in ("per_attack", "per_codec"):
        keys = axis_keys(table,
                         "attack" if layout == "per_attack" else "codec")
        if not keys:
            raise EmptyInput(f"table holds no {layout} cells")
        return _format_rows(_flat_rows(table, keys), fmt)

    if metric not in METRIC_NAMES:
        raise InvalidParameter(
            f"metric must be one of {METRIC_NAMES}, got {metric!r}")
    every = list(table.cells) + list(table.skipped)
    attacks = sorted({k.attack_id for k in every} - {POOLED})
    codecs = sorted({k.codec_id for k in every} - {POOLED})
    if not attacks or not codecs:
        raise EmptyInput("table holds no attack x codec cells")
    rows = [["attack"] + codecs]
    for a in attacks:
        row = [a]
        for c in codecs:
            cell = table.cells.get(GroupKey(a, c))
            row.append("" if cell is None else f"{getattr(cell, metric):.3f}")
        rows.append(row)
    return _format_rows(rows, fmt)


def render_skipped(table: BreakdownTable) -> str:
    """One omitted cell per line as "<attack> <codec>"."""
    keys = sorted(table.skipped, key=lambda k: (k.attack_id, k.codec_id))
    return "".join(f"{k.attack_id} {k.codec_id}\n" for k in keys)
