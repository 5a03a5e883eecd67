"""Paired benchmark comparison of two revisions: writes BENCH_<short-sha>.json.

    python3 tools/compare.py --base 65c8679 --pairs 10 --workloads mm1_deep cli_pipeline

Run from the root of a psdl checkout.  Both revisions are exported from
git into a temporary directory (``git archive``, so the repository gains
no worktree entry, even if the run is interrupted).  Each pair runs
``python3 perfbench/run.py --workload W --seed S --seconds N --trace 0``
once in each tree, N being BENCHMARK.json's ``run_seconds``.  The base
runs first in even pairs and HEAD, the revision measured, in odd ones.
Every ``__pycache__`` in both trees is removed before every run, and
every run has ``PYTHONDONTWRITEBYTECODE=1`` in its environment, so
neither side starts with compiled bytecode the other lacks and
``setup_s`` is always an uncached import: without it the first of
perfbench's set-up probes would write bytecode that the later ones
import, and ``setup_s`` would depend on the caller's shell.  Pair k uses
seed ``--seed`` + k on both sides.

For each workload and each end-to-end metric in BENCHMARK.json the output
holds both sides' medians and quartiles, the head/base ratio of medians,
and the number of pairs the head won (ties count for neither), plus the
attempted and failed operations of each side and the raw value of every
run.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """Write the files of rev into dest."""
    blob = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")


def clear_bytecode(tree: Path) -> None:
    for d in [p for p in tree.rglob("__pycache__") if p.is_dir()]:
        shutil.rmtree(d)


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in tree; its final JSON line."""
    clear_bytecode(tree)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("{")]
    if proc.returncode != 0 or not lines:
        sys.exit(f"compare: {' '.join(cmd)} in {tree} failed:\n{proc.stderr[-2000:]}")
    out = json.loads(lines[-1])
    return {
        "metrics": {k: v["value"] for k, v in out["metrics"].items()},
        "attempted": out["attempted"],
        "failed": out["failed"],
    }


def summary(values: list[float]) -> dict:
    q25, q50, q75 = (
        statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    )
    return {"median": q50, "q25": q25, "q75": q75}


def compare_workload(trees: dict, workload: str, args, seconds: float, metrics: list[dict]) -> dict:
    runs = []
    for k in range(args.pairs):
        seed = args.seed + k
        order = ("base", "head") if k % 2 == 0 else ("head", "base")
        run = {"pair": k, "seed": seed, "first": order[0]}
        for side in order:
            run[side] = bench(trees[side], workload, seed, seconds)
        runs.append(run)
        print(f"{workload} pair {k} (seed {seed}, {order[0]} first): "
              + ", ".join(f"{m['name']} {run['base']['metrics'][m['name']]:.4g} -> "
                          f"{run['head']['metrics'][m['name']]:.4g}" for m in metrics),
              file=sys.stderr)
    result = {"metrics": {}, "runs": runs}
    for m in metrics:
        name = m["name"]
        base = [r["base"]["metrics"][name] for r in runs]
        head = [r["head"]["metrics"][name] for r in runs]
        sign = 1.0 if m["better"] == "lower" else -1.0
        b, h = summary(base), summary(head)
        result["metrics"][name] = {
            "unit": m["unit"],
            "better": m["better"],
            "bound": m["bound"],
            "base": b,
            "head": h,
            "ratio": h["median"] / b["median"],
            "head_wins": sum(sign * (y - x) < 0.0 for x, y in zip(base, head)),
            "pairs": len(runs),
        }
    for side in ("base", "head"):
        result[f"attempted_{side}"] = sum(r[side]["attempted"] for r in runs)
        result[f"failed_{side}"] = sum(r[side]["failed"] for r in runs)
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="revision to compare against")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--workloads", nargs="+", choices=names, default=names)
    p.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")

    rev = {"base": args.base, "head": "HEAD"}
    sha = {side: _git("rev-parse", rev[side]) for side in rev}
    out_path = ROOT / f"BENCH_{sha['head'][:7]}.json"
    with tempfile.TemporaryDirectory(prefix="psdl-compare-") as tmp:
        trees = {side: Path(tmp) / side for side in ("base", "head")}
        for side, tree in trees.items():
            export(sha[side], tree)
        numpy_version = subprocess.run(
            [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        report = {
            "base": {"rev": args.base, "sha": sha["base"]},
            "head": {"rev": "HEAD", "sha": sha["head"]},
            "machine": {
                "nproc": len(os.sched_getaffinity(0)),
                "python": platform.python_version(),
                "numpy": numpy_version,
            },
            "command": "python3 perfbench/run.py --workload W --seed S "
                       f"--seconds {spec['run_seconds']:g} --trace 0",
            "pairs": args.pairs,
            "first_seed": args.seed,
            "workloads": {
                w: compare_workload(trees, w, args, spec["run_seconds"], spec["end_to_end"])
                for w in args.workloads
            },
        }
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    for w, res in report["workloads"].items():
        for name, m in res["metrics"].items():
            print(f"{w:15s} {name:12s} base {m['base']['median']:.4g} "
                  f"[{m['base']['q25']:.4g}, {m['base']['q75']:.4g}]  head {m['head']['median']:.4g} "
                  f"[{m['head']['q25']:.4g}, {m['head']['q75']:.4g}]  ratio {m['ratio']:.3f}  "
                  f"head wins {m['head_wins']}/{m['pairs']}")
        print(f"{w:15s} failed ops: base {res['failed_base']}/{res['attempted_base']}, "
              f"head {res['failed_head']}/{res['attempted_head']}")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
