"""The per-metric verdict rule of bench_compare.py, on hand-made runs,
and the host and line-count entries of its report."""

import importlib.util
import platform
from pathlib import Path

import numpy
import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_compare", Path(__file__).resolve().parents[1] / "bench_compare.py")
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)

BASE = [96, 97, 98, 99, 100, 100, 101, 102, 103, 104]   # spread ~0.04
WIDE = [50, 60, 70, 80, 100, 100, 120, 140, 150, 160]   # spread 0.75


def scaled(runs, factor):
    return [factor * r for r in runs]


@pytest.mark.parametrize("base,change,sign,bound,want", [
    # higher is better
    (BASE, scaled(BASE, 1.5), 1, 0.25, "improved"),
    (BASE, scaled(BASE, 0.6), 1, 0.25, "worse"),
    (BASE, scaled(BASE, 1.1), 1, 0.25, "within bound"),
    (BASE, scaled(BASE, 0.9), 1, 0.25, "within bound"),
    # beyond the bound but two pairs lost: 8/10 is not enough
    (BASE, scaled(BASE, 1.5)[:8] + [90, 90], 1, 0.25, "within bound"),
    # 9/10 pairs is enough
    (BASE, scaled(BASE, 1.5)[:9] + [90], 1, 0.25, "improved"),
    # beyond the bound, every pair won, but the medians differ by less
    # than the base's q3 - q1, whose spread is above the bound
    (WIDE, scaled(WIDE, 1.3), 1, 0.25, "unresolved"),
    # a wide base that the change still clears by more than q3 - q1
    (WIDE, scaled(WIDE, 3.0), 1, 0.25, "improved"),
    # a wide base, change within the bound and not separated
    (WIDE, scaled(WIDE, 1.1), 1, 0.25, "unresolved"),
    # worse beyond the bound is worse, whatever the spread
    (WIDE, scaled(WIDE, 0.5), 1, 0.25, "worse"),
    # lower is better
    (BASE, scaled(BASE, 0.6), -1, 0.1, "improved"),
    (BASE, scaled(BASE, 1.2), -1, 0.1, "worse"),
    (BASE, scaled(BASE, 1.05), -1, 0.1, "within bound"),
])
def test_verdict(base, change, sign, bound, want):
    assert bench_compare.verdict(base, change, sign, bound) == want


def test_separated_wide_base_within_bound():
    # every change run beats every base run: resolved although the base
    # spread is above the bound; the ratio is within the bound
    base = [70, 75, 80, 90, 100, 100, 110, 115, 120, 121]
    change = [122] * 10
    assert bench_compare.summary(base)["spread"] > 0.25
    assert bench_compare.separated(base, change, 1)
    assert bench_compare.verdict(base, change, 1, 0.25) == "within bound"


def test_host_records_the_software_stack():
    # digests are equal on one software stack only; the runs use this
    # interpreter, so its versions are theirs
    host = bench_compare.host()
    assert host.pop("nproc") >= 1
    assert host == {"python": platform.python_version(),
                    "numpy": numpy.__version__}


def test_host_counts_cpus_without_sched_getaffinity(monkeypatch):
    # macOS has no os.sched_getaffinity; the comparison must still start
    monkeypatch.delattr(bench_compare.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(bench_compare.os, "cpu_count", lambda: 3)
    assert bench_compare.host()["nproc"] == 3
    monkeypatch.setattr(bench_compare.os, "cpu_count", lambda: None)
    assert bench_compare.host()["nproc"] == 1


def test_src_lines_counts_each_tree(tmp_path, monkeypatch):
    # bench/run.py's rule: lines of src/launderbench/*.py, nothing deeper
    # and no other suffix
    for side, text in (("base", "a\nb\nc\n"), ("change", "a\nb")):
        package = tmp_path / side / "src" / "launderbench"
        (package / "sub").mkdir(parents=True)
        (package / "one.py").write_text(text)
        (package / "two.py").write_text("x = 1\n" * 4)
        (package / "notes.txt").write_text("not code\n")
        (package / "sub" / "deep.py").write_text("y = 2\n")
    assert bench_compare.src_lines(tmp_path / "base") == 7
    assert bench_compare.src_lines(tmp_path / "change") == 6
    # and on this tree it reads what bench/run.py records
    monkeypatch.syspath_prepend(str(bench_compare.ROOT / "bench"))
    monkeypatch.syspath_prepend(str(bench_compare.ROOT / "src"))
    run = importlib.import_module("run")
    assert bench_compare.src_lines(bench_compare.ROOT) == run.src_lines()
