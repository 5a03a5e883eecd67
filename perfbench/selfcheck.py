"""Fast self-check of the benchmark itself, at tiny sizes.

    python3 perfbench/selfcheck.py

Runs every workload once untraced and once traced, and asserts that
every metric BENCHMARK.json names is emitted with its unit and that no
operation fails against the tiny reference.  Then it perturbs one
reference value per workload and asserts that the same run now reports
failed operations, so the output checks cannot pass vacuously.
Exits 0 when every assertion holds.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def perturb(name: str, ref: dict) -> None:
    if name == "cli_pipeline":
        # path.csv w sum, moved past its 1e-9 relative tolerance
        ref["simulate"]["path_w_sum"] *= 1 + 1e-8
    else:
        # collapse error of the first row of the first cell, moved past FLOAT_TOL
        ref[sorted(ref)[0]][0][2] += 1e-5


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in ("mm1_deep", "uniform_ladder", "cli_pipeline"):
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            res = run.run_benchmark(name, 0, 0.0, trace, profile="tiny", probes=1)
            for m in spec[kind]:
                got = res["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"] or not math.isfinite(got["value"]):
                    problems.append(f"{name} trace={int(trace)}: metric {m['name']} missing or bad: {got}")
                elif kind == "end_to_end" and got["value"] <= 0:
                    problems.append(f"{name}: end-to-end metric {m['name']} is {got['value']}")
            if res["attempted"] < 1 or res["failed"] != 0:
                problems.append(f"{name} trace={int(trace)}: {res['failed']} of {res['attempted']} operations failed")
            print(f"{name} trace={int(trace)}: {len(res['metrics'])} metrics, fail_frac {res['fail_frac']}")

        ref = run.load_reference("tiny", name, 0)
        if ref is None:
            problems.append(f"{name}: no tiny reference for seed 0")
            continue
        bad = copy.deepcopy(ref)
        perturb(name, bad)
        res = run.run_benchmark(name, 0, 0.0, False, profile="tiny", reference=bad, probes=1)
        print(f"{name} perturbed reference: fail_frac {res['fail_frac']}")
        if res["failed"] == 0:
            problems.append(f"{name}: a perturbed reference still passes every check")

    for p in problems:
        print("FAIL", p)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
