"""Run one workload of the ybrack benchmark and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the library is imported from ``src/``.  One
caller runs the workload's operations one after another (a closed loop with
one client).  A pass is the workload's full list of operations; passes
repeat while the next one is expected to end within ``--seconds`` (at least
one runs), and every ``functools`` cache in the library is cleared before
each pass, so each pass does the work of a fresh process.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced pass and reports the per-layer metrics from the
traced ones, plus the tracing overhead.  Every answer is checked against
``expected.json``; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(per-pass wall times, failures, answers digest, provenance) is printed on
the line before it and written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

DEFAULT_SEED = 1
SETUP_PROBES = 5      # fresh processes timed for setup_s; the median is reported
TAIL_BEYOND = 10      # samples required beyond the tail percentile


def _monotonic_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _import_library():
    if not (SRC / "ybrack" / "__init__.py").is_file():
        raise FileNotFoundError(f"no ybrack package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ybrack
    if Path(ybrack.__file__).resolve().parent != SRC / "ybrack":
        raise ImportError(f"imported ybrack from {ybrack.__file__}, not from {SRC}")
    return ybrack


def setup(workload: str, seed: int):
    """Import the library, build the racks and draw the inputs."""
    import spans
    import workloads
    yb = _import_library()
    built = workloads.build(yb, workload, seed)
    return yb, built, spans.caches(yb)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to the end of its set-up."""
    times = []
    for _ in range(SETUP_PROBES):
        spawned = _monotonic_ns()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        ready = json.loads(proc.stdout.strip().splitlines()[-1])["ready_ns"]
        times.append((ready - spawned) / 1e9)
    return times


def _normal(answer):
    return json.loads(json.dumps(answer, sort_keys=True))


def run_pass(ops, caches, tracer=None) -> dict:
    for cache in caches:
        cache.cache_clear()
    latencies, answers, failures = [], [], []
    started = time.perf_counter()
    for op in ops:
        span = tracer.open("op." + op.name.split("/", 1)[0]) if tracer else None
        t0 = time.perf_counter()
        error = None
        try:
            answer = op.run()
        except Exception as err:  # a raising operation counts as failed
            answer = f"raised {type(err).__name__}: {err}"
            error = traceback.format_exc(limit=4)
        latencies.append(time.perf_counter() - t0)
        if tracer:
            tracer.close(span)
        if error:
            failures.append({"op": op.name, "error": error})
        else:
            answer = _normal(answer)
            if answer != op.expect:
                failures.append({"op": op.name, "got": answer, "want": op.expect})
        answers.append([op.name, answer])
    return {"wall_s": time.perf_counter() - started, "latencies": latencies,
            "answers": answers, "failures": failures}


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest order statistic with
    at least TAIL_BEYOND samples above it, or the maximum when there are too
    few samples for that."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def end_to_end_metrics(setup_times: list[float], passes: list[dict]) -> dict:
    """Each timing is the median over passes of that pass's statistic."""
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "op_p50_ms": statistics.median(statistics.median(p["latencies"]) for p in passes) * 1e3,
        "op_tail_ms": statistics.median(tail(p["latencies"])[0] for p in passes) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_metrics(tracer, traced_passes: int, misses: int, racks_s: float,
                  overhead_s: float) -> dict:
    totals = tracer.totals()
    per_pass = 1.0 / traced_passes

    def calls(name):
        return totals.get(name, {}).get("calls", 0) * per_pass

    def self_s(name):
        return totals.get(name, {}).get("self_s", 0.0) * per_pass

    def counter(key):
        return tracer.counters.get(key, 0) * per_pass

    trips = calls("deformations.quasidiagonalize") + calls("deformations.check_family_claims")
    orders = tracer.child_count("deformations.split_non_quasidiagonal",
                                "deformations.quasidiagonalize")
    corrections = tracer.child_count("homotopy.quasidiagonal_representative",
                                     "deformations.quasidiagonalize")
    values = {
        "indexing.position_data.calls": calls("indexing.position_data"),
        "indexing.position_data.misses": misses * per_pass,
        "indexing.position_data.self_s": self_s("indexing.position_data"),
        "indexing.pair_mask.self_s": self_s("indexing.pair_mask"),
        "cochains.coboundary_matrix.calls": calls("cochains.coboundary_matrix"),
        "cochains.coboundary_matrix.self_s": self_s("cochains.coboundary_matrix"),
        "cochains.coboundary_matrix.nnz": counter("cochains.coboundary_matrix.nnz"),
        "cochains.pair_basis.self_s": self_s("cochains.pair_basis"),
        "cochains.cohomology_dim.self_s": self_s("cochains.cohomology_dim"),
        "cochains.coboundary.calls": calls("cochains.coboundary"),
        "cochains.coboundary.self_s": self_s("cochains.coboundary"),
        "cochains.partial_coboundary.calls": calls("cochains.partial_coboundary"),
        "cochains.partial_coboundary.self_s": self_s("cochains.partial_coboundary"),
        "linalg.rank.calls": calls("linalg.rank"),
        "linalg.rank.self_s": self_s("linalg.rank"),
        "linalg.rank.max_cells": tracer.counters.get("linalg.rank.max_cells", 0),
        "linalg.rank.nnz": counter("linalg.rank.nnz"),
        "linalg.submatrix.self_s": self_s("linalg.submatrix"),
        "linalg.solve.self_s": self_s("linalg.solve"),
        "chains.boundary.calls": calls("chains.boundary"),
        "chains.boundary.self_s": self_s("chains.boundary"),
        "chains.pairing.self_s": self_s("chains.pairing"),
        "homotopy.insertion_homotopy.calls": calls("homotopy.insertion_homotopy"),
        "homotopy.insertion_homotopy.self_s": self_s("homotopy.insertion_homotopy"),
        "homotopy.level_projection.self_s": self_s("homotopy.level_projection"),
        "homotopy.quasidiagonal_representative.self_s":
            self_s("homotopy.quasidiagonal_representative"),
        "rings.mat_mul.calls": calls("rings.mat_mul"),
        "rings.mat_mul.self_s": self_s("rings.mat_mul"),
        "rings.mat_kron.self_s": self_s("rings.mat_kron"),
        "rings.mat_inv.self_s": self_s("rings.mat_inv"),
        "operators.check_ybe.calls": calls("operators.check_ybe"),
        "operators.check_ybe.self_s": self_s("operators.check_ybe"),
        "operators.check_ybe.per_round_trip":
            calls("operators.check_ybe") / trips if trips else 0.0,
        "operators.gauge_conjugate.self_s": self_s("operators.gauge_conjugate"),
        "deformations.quasidiagonalize.calls": calls("deformations.quasidiagonalize"),
        "deformations.quasidiagonalize.self_s": self_s("deformations.quasidiagonalize"),
        "deformations.split_non_quasidiagonal.calls":
            calls("deformations.split_non_quasidiagonal"),
        "deformations.correction_ratio": corrections / orders if orders else 0.0,
        "deformations.check_family_claims.self_s": self_s("deformations.check_family_claims"),
        "deformations.rigidity_check.self_s": self_s("deformations.rigidity_check"),
        "racks.construct_s": racks_s,
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": self_s("cli.main"),
        "trace.spans": len(tracer.start) * per_pass,
        "trace.overhead_s": overhead_s,
    }
    return values


def provenance() -> dict:
    files = sorted((SRC / "ybrack").rglob("*.py"))
    lines = sum(len(f.read_text(encoding="utf-8").splitlines()) for f in files)
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    import numpy
    return {"git_commit": commit, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "src_lines": lines}


def measure(yb, built, caches, seconds: float, tracer=None):
    """Run passes until the next one would end after ``seconds``; with a
    tracer, every round is one untraced and one traced pass.  Returns the
    untraced passes, the traced passes and the position-data cache misses
    of the traced passes."""
    import spans
    plain, traced = [], []
    position_data = yb.indexing.position_data
    misses = 0

    def traced_pass() -> int:
        installation = spans.install(yb, tracer)
        try:
            traced.append(run_pass(built.ops, caches, tracer))
        finally:
            installation.remove()
        return position_data.cache_info().misses

    started = time.perf_counter()
    while True:
        # rounds alternate which pass goes first, so the warm-up of the very
        # first pass does not bias the tracing overhead
        if tracer and len(plain) % 2 == 0:
            misses += traced_pass()
        plain.append(run_pass(built.ops, caches))
        if tracer and len(plain) % 2 == 0:
            misses += traced_pass()
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(plain) > seconds:
            return plain, traced, misses


def run_all(args) -> int:
    """Run every workload in its own process, one after another; print each
    metric by name and unit, and fail if any answer mismatched."""
    import workloads
    ok = True
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, value in result["metrics"].items():
            print(f"  {metric:46s} {value['value']:.6g} {value['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        print(f"cannot read BENCHMARK.json: {err}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or all to run each one in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        setup(args.workload, args.seed)
        print(json.dumps({"ready_ns": _monotonic_ns()}))
        return 0

    loadavg = os.getloadavg()
    try:
        # a traced run reports no setup_s, so it spawns no set-up probes
        setup_times = [] if args.trace else measure_setup(args.workload, args.seed)
        yb, built, caches = setup(args.workload, args.seed)
    except (OSError, ImportError, RuntimeError, ValueError) as err:
        print(f"cannot set up workload {args.workload!r}: {err}", file=sys.stderr)
        return 2
    import spans
    import workloads

    tracer = spans.Tracer() if args.trace else None
    plain, traced, misses = measure(yb, built, caches, args.seconds, tracer)
    passes = plain + traced
    attempted = sum(len(p["answers"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    if tracer:
        overhead = (statistics.median(p["wall_s"] for p in traced)
                    - statistics.median(p["wall_s"] for p in plain))
        metrics = layer_metrics(tracer, len(traced), misses, built.racks_s, overhead)
    else:
        metrics = end_to_end_metrics(setup_times, plain)
    _, tail_pct, beyond = tail(plain[0]["latencies"])
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "ops_per_pass": len(built.ops),
        "pass_wall_s": [p["wall_s"] for p in plain],
        "traced_pass_wall_s": [p["wall_s"] for p in traced],
        "setup_probe_s": setup_times,
        "op_tail_percentile": tail_pct, "op_tail_samples_beyond": beyond,
        "fail_ratio": failed / attempted,
        "failures": [f for p in passes for f in p["failures"]][:10],
        "answers_digest": workloads.digest(plain[0]["answers"]),
        "metrics": metrics,
        "env": {**provenance(), "loadavg_start": loadavg},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(
        json.dumps({**record, "answers": plain[0]["answers"]}, indent=1, default=str))
    if tracer:
        Path(f"{stem}-spans.json").write_text(json.dumps(tracer.dump()))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(json.dumps({"record": record}, default=str))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
