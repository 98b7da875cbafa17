"""Grouped metric tables over scored trials.

Cells are addressed by (attack_id, codec_id) with "*" pooling an axis.
Bonafide trials carry no attack id, so per-attack cells share all
bonafide scores of their codec restriction; a cell missing either class
is omitted from the table and listed as skipped instead of being
reported with a fabricated extreme value.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, InsufficientCells, InvalidParameter
from .metrics import MetricConfig, cell_metrics

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


def compute_breakdown(scored, cfg: MetricConfig = MetricConfig(),
                      axes=("attack", "codec")) -> BreakdownTable:
    """Evaluate metrics for the pooled cell and each requested breakdown.

    scored is a protocol.ScoredTrials.  axes = {} gives only the pooled
    cell; {"attack"} adds per-attack cells; {"codec"} adds per-codec;
    both add the full attack x codec grid.  Scores are sorted once, so
    every cell is ascending and results do not depend on input order.
    """
    if len(scored.scores) == 0:
        raise EmptyInput("no scored trials to break down")
    axes = frozenset(axes)
    if not axes <= {"attack", "codec"}:
        raise InvalidParameter(
            f"axes must be a subset of {{'attack', 'codec'}}, got {set(axes)}")

    order = np.argsort(scored.scores)
    scores, bonafide = scored.scores[order], scored.bonafide[order]
    # an attack cell holds every bonafide row, since bonafide rows carry
    # no attack; ids come from the kept rows, which an intersect join may
    # have emptied of some attack or codec
    attack_rows = codec_rows = {}
    if "attack" in axes:
        attack = scored.attack[order]
        attack_rows = {
            scored.attacks[a]: bonafide | (attack == a)
            for a in np.unique(attack[~bonafide]).tolist()}
    if "codec" in axes:
        codec = scored.codec[order]
        codec_rows = {scored.codecs[c]: codec == c
                      for c in np.unique(codec).tolist()}
    attacks, codecs = sorted(attack_rows), sorted(codec_rows)

    # an axis that was not asked for has no ids, so it adds no cells
    keys = [GroupKey(POOLED, POOLED)]
    keys.extend(GroupKey(a, POOLED) for a in attacks)
    keys.extend(GroupKey(POOLED, c) for c in codecs)
    keys.extend(GroupKey(a, c) for a in attacks for c in codecs)

    cells = {}
    skipped = []
    for key in keys:
        mask = True   # the pooled cell keeps every row
        if key.attack_id != POOLED:
            mask = attack_rows[key.attack_id]
        if key.codec_id != POOLED:
            mask = mask & codec_rows[key.codec_id]
        # one pass over the mask serves both gathers
        rows = slice(None) if mask is True else np.flatnonzero(mask)
        is_bon = bonafide[rows]
        n_bon = int(np.count_nonzero(is_bon))
        if n_bon in (0, len(is_bon)):
            skipped.append(key)
            continue
        cells[key] = CellMetrics(*cell_metrics(scores[rows], is_bon, cfg),
                                 n_bon, len(is_bon) - n_bon)
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
    """Keys of the k worst (largest-metric) cells along one axis.

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
    if len(keys) < k:
        raise InsufficientCells(
            f"asked for top {k} of {len(keys)} {axis} cells")
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
