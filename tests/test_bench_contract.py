"""The library names the benchmark reaches into must exist.

``perfbench/spans.py`` wraps each method in its ``METHODS`` table for the
traced run and counts stored nonzeros through ``ExactMatrix.nnz``; a library
change that removes one of them breaks ``perfbench/run.py --trace 1``.
"""

import importlib
import importlib.util
from pathlib import Path

import ybrack as yb

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_method_resolves():
    for module, cls, method, _ in _spans().METHODS:
        owner = getattr(importlib.import_module(f"ybrack.{module}"), cls)
        assert callable(getattr(owner, method, None)), (module, cls, method)


def test_exact_matrix_counts_its_nonzeros():
    mat = yb.ExactMatrix.from_coordinates(yb.PrimeField(3), 2, 3, [(0, 1, 1), (1, 0, 3),
                                                                    (1, 2, 2)])
    assert mat.nnz() == 2
