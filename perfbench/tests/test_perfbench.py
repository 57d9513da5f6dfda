"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

yb = run._import_library()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# the cheapest operations of each workload: its smallest size
SMALLEST = {
    "cohomology": lambda name: "quandle3" in name,
    "cochain_identities": lambda name: "quandle3" in name,
    "gauge": lambda name: name.endswith(("/0", "/1", "/2", "/3")),
}


def smallest(name, seed=run.DEFAULT_SEED):
    built = workloads.build(yb, name, seed)
    ops = [op for op in built.ops if SMALLEST[name](op.name)]
    assert ops, name
    return ops


def library_attributes() -> dict:
    """Every attribute of every ybrack module and of the traced classes."""
    owners = spans.modules(yb) + [
        getattr(getattr(yb, module), cls) for module, cls, _, _ in spans.METHODS]
    return {(id(owner), attr): value for owner in owners for attr, value in vars(owner).items()}


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_each_workload_passes_at_its_smallest_size(name):
    result = run.run_pass(smallest(name), spans.caches(yb))
    assert result["failures"] == []
    assert len(result["latencies"]) == len(result["answers"]) > 0


def test_seed_decides_the_gauge_order():
    first = [op.name for op in workloads.build(yb, "gauge", 1).ops]
    again = [op.name for op in workloads.build(yb, "gauge", 1).ops]
    other = [op.name for op in workloads.build(yb, "gauge", 2).ops]
    assert first == again != other
    assert sorted(first) == sorted(other)


def test_span_tree_is_consistent():
    ops = smallest("gauge") + smallest("cochain_identities")[:40]
    tracer = spans.Tracer()
    installation = spans.install(yb, tracer)
    try:
        result = run.run_pass(ops, spans.caches(yb), tracer)
    finally:
        installation.remove()
    assert result["failures"] == []
    dur, own, parent, _ = tracer.arrays()
    start = tracer.start
    end = tracer.end
    for child, par in enumerate(parent.tolist()):
        if par >= 0:
            assert start[par] <= start[child] <= end[child] <= end[par]
    assert (own >= 0).all()
    roots = parent < 0
    assert roots.sum() == len(ops)
    assert own.sum() == dur[roots].sum()
    wall_ns = result["wall_s"] * 1e9
    assert abs(own.sum() - wall_ns) <= 0.05 * wall_ns
    names = set(tracer.names)
    assert {"deformations.quasidiagonalize", "rings.mat_mul", "operators.check_ybe",
            "cochains.coboundary", "homotopy.quasidiagonal_representative"} <= names


def test_untraced_run_leaves_the_library_untouched():
    before = library_attributes()
    run.run_pass(smallest("gauge"), spans.caches(yb))
    after = library_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_tracing_is_removed_completely():
    before = library_attributes()
    installation = spans.install(yb, spans.Tracer())
    assert yb.cochains.coboundary is not before[(id(yb.cochains), "coboundary")]
    assert yb.homotopy.coboundary is yb.cochains.coboundary
    installation.remove()
    after = library_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_metric_names_match_the_spec():
    passes = [run.run_pass(smallest("cochain_identities")[:5], spans.caches(yb))]
    assert list(run.end_to_end_metrics([0.5], passes)) == [m["name"] for m in SPEC["end_to_end"]]
    layer = run.layer_metrics(spans.Tracer(), 1, 0, 0.0, 0.0)
    assert list(layer) == [m["name"] for m in SPEC["per_layer"]]


def test_tail_has_ten_samples_beyond_it():
    latencies = [float(i) for i in range(100)]
    value, percentile, beyond = run.tail(latencies)
    assert sum(t > value for t in latencies) == beyond == 10
    assert percentile == 90.0
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, 100.0, 0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "gauge",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_cli_answers_do_not_depend_on_where_the_checkout_lives(tmp_path):
    ignore = shutil.ignore_patterns("results", "__pycache__")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=ignore)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    script = (
        "import run, spans, workloads\n"
        "yb = run._import_library()\n"
        "ops = [op for w in ('cohomology', 'gauge') for op in workloads.build(yb, w, 1).ops\n"
        "       if op.name.startswith(('cli/cohomology/trivial4', 'cli/quasidiagonalize/quandle3'))]\n"
        "result = run.run_pass(ops, spans.caches(yb))\n"
        "print(len(ops), len(result['failures']))\n")
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path / "perfbench",
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["3", "0"]
