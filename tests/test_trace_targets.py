"""The benchmark's tracer finds the program names it patches.

bench/tracing.py wraps functions at the names their callers look up, so a
renamed or removed name silently reads 0 in the per-layer metrics built
on it.  Only the eight cli/reporting metric names, which scoring no
longer calls, may be missing.
"""

import importlib.util
import sys
from pathlib import Path

from launderbench import cli, dsp, flacio, pipeline, reporting

_spec = importlib.util.spec_from_file_location(
    "bench_tracing",
    Path(__file__).resolve().parents[1] / "bench" / "tracing.py")
tracing = sys.modules["bench_tracing"] = importlib.util.module_from_spec(
    _spec)
_spec.loader.exec_module(tracing)

UNCALLED = {f"launderbench.{module}.{metric}"
            for module in ("cli", "reporting")
            for metric in ("min_dcf", "act_dcf", "cllr", "eer")}


def test_tracer_patches_every_other_target():
    tracer = tracing.Tracer()
    modules = {"cli": cli, "dsp": dsp, "flacio": flacio,
               "pipeline": pipeline, "reporting": reporting}
    try:
        tracing.install(tracer, modules)
        assert set(tracer.missing) <= UNCALLED
    finally:
        tracer.unpatch_all()
