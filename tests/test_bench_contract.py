"""The benchmark's traced run (bench/run.py --trace 1) exits 2 when a layer
that bench/tracing.py wraps gets no call from workloads.probe_layers().
This checks the same contract in the test suite, and that the probe's
membership query reaches the traced realizers and equivalence test."""

import importlib
import pkgutil
import sys
from pathlib import Path

import matroidlab

BENCH = Path(__file__).resolve().parent.parent / "bench"
# bench/workloads.py imports bench/oracles.py as `oracles`, the name of the
# tests' own oracle module, so these are swapped out for the test
BENCH_MODULES = ("oracles", "tracing", "workloads")


def test_traced_probe_calls_every_wrapped_layer(monkeypatch):
    for info in pkgutil.iter_modules(matroidlab.__path__):
        importlib.import_module(f"matroidlab.{info.name}")
    monkeypatch.syspath_prepend(str(BENCH))
    saved = {name: sys.modules.pop(name) for name in BENCH_MODULES if name in sys.modules}
    try:
        workloads = importlib.import_module("workloads")
        tracer = importlib.import_module("tracing").Tracer()
        tracer.install(workloads)
        try:
            workloads.probe_layers()
            assert tracer.idle_layers() == []
            # membership still realizes candidates through the public
            # realizers and compares them through the equivalence test
            metrics = tracer.metrics()
            assert metrics["templates.realized_per_member"] > 0
            assert metrics["templates.equiv_per_member"] > 0
        finally:
            tracer.uninstall()
    finally:
        for name in BENCH_MODULES:
            sys.modules.pop(name, None)
        sys.modules.update(saved)
