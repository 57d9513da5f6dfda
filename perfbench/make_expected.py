"""Regenerate ``perfbench/expected.json`` from the library at hand.

    python3 perfbench/make_expected.py

Runs every cohomology query and every gauge instance once and writes the
answers.  Before writing it checks the source paper's headline
numbers, so a table that contradicts them is never produced.  Regenerate
only when a change is meant to alter answers, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run
import workloads

HEADLINE = {
    **{f"H2/{sub}/quandle3/{fld}": 9 for sub in ("full", "quasidiagonal")
       for fld in workloads.FIELD_NAMES},
    **{f"H2/{sub}/dihedral4/{fld}": 20 if fld == "F2" else 16
       for sub in ("full", "quasidiagonal") for fld in workloads.FIELD_NAMES},
    **{f"H2/{sub}/dihedral3/{fld}": 1 for sub in ("full", "quasidiagonal")
       for fld in workloads.FIELD_NAMES},
    "H3/full/dihedral3/F2": 1, "H3/full/dihedral3/F3": 2, "H3/full/dihedral3/F5": 1,
    "H3/quasidiagonal/dihedral4/F2": 96, "H3/quasidiagonal/dihedral4/Q": 64,
}


def gauge_problems(table: dict) -> dict:
    """Gauge answers that record a failure instead of a result."""
    bad = {}
    for key, answer in table.items():
        kind = key.split("/", 1)[0]
        if kind == "round_trip":
            ok = isinstance(answer, str) and " " not in answer
        elif kind == "cli":
            ok = answer["exit"] == 0
        elif key.split("/")[-2] == "asymmetric":
            # holds modulo m^2, fails at order two (f) or three (g)
            ok = answer["verdicts"][1] and not answer["exact"] and answer["claim_holds"]
            if "dihedral4-g" in key:
                ok = ok and not answer["verdicts"][2]
        else:
            ok = answer["exact"] and answer["claim_holds"]
        if not ok:
            bad[key] = answer
    return bad


def answers(ops) -> dict:
    out = {}
    for op in ops:
        out[op.name] = run._normal(op.run())
        print(op.name, out[op.name], flush=True)
    return out


def main() -> int:
    yb = run._import_library()
    table = {}
    table["cohomology"] = answers(
        workloads.build(yb, "cohomology", run.DEFAULT_SEED, expected={}).ops)
    table["gauge"] = answers([workloads.gauge_instance(yb, config, index)
                              for config in workloads.gauge_configs()
                              for index in range(config[-1])])
    dims = table["cohomology"]
    wrong = {key: (dims.get(key), want) for key, want in HEADLINE.items() if dims.get(key) != want}
    if wrong:
        print(f"headline numbers do not hold: {wrong}", file=sys.stderr)
        return 1
    bad = gauge_problems(table["gauge"])
    if bad:
        print(f"gauge instances that fail: {bad}", file=sys.stderr)
        return 1
    workloads.EXPECTED_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
