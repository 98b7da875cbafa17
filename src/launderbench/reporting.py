"""Grouped metric tables over scored trials.

Cells are addressed by (attack_id, codec_id) with "*" pooling an axis.
Bonafide trials carry no attack id, so per-attack cells share all
bonafide scores of their codec restriction; compute_breakdown scores
each such block of cells in one metrics.block_metrics pass.  A cell
missing either class is omitted from the table and listed as skipped
instead of being reported with a fabricated extreme value.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, InsufficientCells, InvalidParameter
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


def _small(codes, n_codes):
    """codes (0 <= code < n_codes) in the smallest unsigned dtype, which a
    stable argsort groups by radix up to 16 bits."""
    return codes.astype(np.min_scalar_type(max(n_codes - 1, 0)))


def _ascending(scored, axes):
    """Each class's scores ascending, and the attack codes of the spoof
    rows and the codec codes of both classes in that order, or None where
    axes do not ask for them."""
    if not axes:
        return (np.sort(scored.scores[scored.bonafide]),
                np.sort(scored.scores[~scored.bonafide]), None, None, None)
    bon_rows, spf_rows = (
        rows[np.argsort(scored.scores[rows])] for rows in
        (np.flatnonzero(scored.bonafide), np.flatnonzero(~scored.bonafide)))
    attack = bon_codec = spf_codec = None
    if "attack" in axes:
        attack = _small(scored.attack, len(scored.attacks))[spf_rows]
    if "codec" in axes:
        codec = _small(scored.codec, len(scored.codecs))
        bon_codec, spf_codec = codec[bon_rows], codec[spf_rows]
    return (scored.scores[bon_rows], scored.scores[spf_rows], attack,
            bon_codec, spf_codec)


def _pooled_block(results, bon, spf, attack, attack_count, cfg):
    """Score the pooled cell, and the attack cells when attack codes are
    given, which hold every bonafide row, since bonafide rows carry no
    attack."""
    parts = attacks = None
    if attack is not None:
        attacks = np.flatnonzero(attack_count)
        parts = (np.argsort(attack, kind="stable"),
                 np.cumsum(attack_count[attacks]),
                 np.zeros(len(attacks), np.intp))
    values = zip(*block_metrics(*bon, [len(bon[0])], *spf, [len(spf[0])],
                                parts, cfg))
    results[-1, -1] = next(values) + (len(bon[0]), len(spf[0]))
    for a in attacks.tolist() if parts else ():
        results[a, -1] = next(values) + (len(bon[0]), int(attack_count[a]))


def _codec_blocks(results, bon, spf, bon_codec, spf_codec, bon_count,
                  spf_count, attack, n_attacks, cfg):
    """Score each codec holding both classes, with its grid cells when
    attack codes are given; the spoof rows of other codecs group after
    the last block and are dropped."""
    scoring = np.flatnonzero((bon_count > 0) & (spf_count > 0))
    n_blocks = len(scoring)
    if n_blocks == 0:
        return
    block_of = np.full(len(bon_count), n_blocks,
                       dtype=np.min_scalar_type(n_blocks * n_attacks))
    block_of[scoring] = np.arange(n_blocks)
    order = np.argsort(block_of[bon_codec], kind="stable")
    order = order[:bon_count[scoring].sum()]
    bon = bon[0][order], bon[1][order]
    order = np.argsort(block_of[spf_codec], kind="stable")
    order = order[:spf_count[scoring].sum()]
    parts = None
    if attack is not None:
        cell = block_of[spf_codec[order]] * n_attacks + attack[order]
        cell_count = np.bincount(cell, minlength=n_blocks * n_attacks)
        cells = np.flatnonzero(cell_count)
        parts = (np.argsort(cell, kind="stable"),
                 np.cumsum(cell_count[cells]), cells // n_attacks)
        del cell   # freed before block_metrics, the peak of memory
    values = zip(*block_metrics(*bon, np.cumsum(bon_count[scoring]),
                                spf[0][order], spf[1][order],
                                np.cumsum(spf_count[scoring]), parts, cfg))
    for c in scoring.tolist():
        results[-1, c] = next(values) + (int(bon_count[c]), int(spf_count[c]))
    for k in cells.tolist() if parts else ():
        b, a = divmod(k, n_attacks)
        c = int(scoring[b])
        results[a, c] = next(values) + (int(bon_count[c]), int(cell_count[k]))


def compute_breakdown(scored, cfg: MetricConfig = MetricConfig(),
                      axes=("attack", "codec")) -> BreakdownTable:
    """Evaluate metrics for the pooled cell and each requested breakdown.

    scored is a protocol.ScoredTrials.  axes = {} gives only the pooled
    cell; {"attack"} adds per-attack cells; {"codec"} adds per-codec;
    both add the full attack x codec grid.  Each class is sorted once and
    each row's Cllr term computed once.  Cells are scored a block at a time
    by metrics.block_metrics, a block being the cells that share one set of
    bonafide scores: the pooled cell with the attack cells, and each codec
    cell with its grid cells.  A cell's spoof scores are a contiguous
    ascending slice of a stable grouping of the ascending rows, so results
    do not depend on input order.
    """
    if len(scored.scores) == 0:
        raise EmptyInput("no scored trials to break down")
    axes = frozenset(axes)
    if not axes <= {"attack", "codec"}:
        raise InvalidParameter(
            f"axes must be a subset of {{'attack', 'codec'}}, got {set(axes)}")

    bon, spf, attack, bon_codec, spf_codec = _ascending(scored, axes)
    # ids come from the kept rows, which an intersect join may have emptied
    # of some attack or codec; an axis that was not asked for has no ids, so
    # it adds no cells.  Cells are found by (attack, codec) code, -1 pooling.
    attacks = codecs = attack_count = ()
    if attack is not None:
        attack_count = np.bincount(attack, minlength=len(scored.attacks))
        attacks = sorted(np.flatnonzero(attack_count).tolist(),
                         key=scored.attacks.__getitem__)
    if spf_codec is not None:
        bon_count = np.bincount(bon_codec, minlength=len(scored.codecs))
        spf_count = np.bincount(spf_codec, minlength=len(scored.codecs))
        codecs = sorted(np.flatnonzero(bon_count + spf_count).tolist(),
                        key=scored.codecs.__getitem__)
    results = {}
    if len(bon) and len(spf):
        bon = bon, cllr_bits(bon, True)
        spf = spf, cllr_bits(spf, False)
        _pooled_block(results, bon, spf, attack, attack_count, cfg)
        if spf_codec is not None:
            _codec_blocks(results, bon, spf, bon_codec, spf_codec, bon_count,
                          spf_count, attack, len(scored.attacks), cfg)

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
