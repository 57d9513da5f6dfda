"""The library names the benchmark reaches into must exist.

``perfbench/spans.py`` wraps each method in its ``METHODS`` table for the
traced run and counts stored nonzeros through ``ExactMatrix.nnz``; a library
change that removes one of them breaks ``perfbench/run.py --trace 1``.  The
gauge workload calls ring methods directly, so removing one of those breaks
every run.  Every
set-up probe of the benchmark imports the library afresh, so a new
third-party import shows up in its ``setup_s``.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import ybrack as yb

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_method_resolves():
    for module, cls, method, _ in _spans().METHODS:
        owner = getattr(importlib.import_module(f"ybrack.{module}"), cls)
        assert callable(getattr(owner, method, None)), (module, cls, method)


def test_every_ring_method_the_workloads_call_resolves():
    # perfbench/workloads.py builds its gauge inputs over both truncated rings
    methods = ("mat_add", "eye", "zeros", "lift_digit_matrix", "digit_matrix", "mat_eq",
               "lift_digit", "add", "zero")
    for ring in (yb.SeriesRing(3, 2), yb.PadicRing(3, 2)):
        missing = [name for name in methods if not callable(getattr(ring, name, None))]
        assert not missing, (ring, missing)
        assert (ring.p, ring.order) == (3, 2)


def test_exact_matrix_counts_its_nonzeros():
    mat = yb.ExactMatrix.from_coordinates(yb.PrimeField(3), 2, 3, [(0, 1, 1), (1, 0, 3),
                                                                    (1, 2, 2)])
    assert mat.nnz() == 2


def test_importing_the_library_loads_only_numpy_beyond_the_standard_library():
    code = ("import sys; before = set(sys.modules); import ybrack; "
            "print(*sorted(set(sys.modules) - before))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    loaded = {name.partition(".")[0] for name in proc.stdout.split()}
    assert "ybrack" in loaded
    extra = loaded - sys.stdlib_module_names - {"numpy", "ybrack"}
    assert not extra, sorted(extra)


def test_position_data_is_a_functools_cache():
    # perfbench/run.py reads position_data.cache_info().misses after every
    # traced pass, and run_pass clears every cache spans.caches finds
    spans = _spans()
    cached = yb.indexing.position_data
    assert cached in spans.caches(yb)
    assert spans.public_functions(yb)["indexing.position_data"] is cached
    cached.cache_clear()
    rack = yb.catalog.quandle3()
    assert cached(rack, 2, 1) is cached(rack, 2, 1)
    info = cached.cache_info()
    assert (info.hits, info.misses) == (1, 1)
