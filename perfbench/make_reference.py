"""Record the reference outputs the benchmark checks against.

    python3 perfbench/make_reference.py --profile full --seeds 0-15 --out part.json
    python3 perfbench/make_reference.py --merge part-a.json part-b.json --out perfbench/reference.json

Run from the root of a checkout of the commit whose outputs define
"correct".  Each pool seed's workload inputs are run once, with the CLI
sweep on one worker, so a later --threads 2 run must reproduce the
threads-1 bytes.  The sweeps are recorded with REFERENCE_REPLICATIONS
replications; a benchmark sweep with fewer replications checks the
matching subset of cells, since a cell's inputs do not depend on the
replication count.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

REFERENCE_REPLICATIONS = {"mm1_deep": 12, "uniform_ladder": 4}
CLI_SHARED = ("profiles", "lift")  # outputs that do not depend on the seed


def _rounded(obj):
    # 12 significant digits: far inside every tolerance the checks apply
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, list):
        return [_rounded(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    return obj


def record(profile: str, name: str, seed: int) -> dict:
    workdir = ROOT / ".perfbench_out" / f"reference-{name}-{seed}"
    w = workloads.make(name, profile, seed, workdir)
    if name in REFERENCE_REPLICATIONS and profile == "full":
        w.config = dataclasses.replace(w.config, replications=REFERENCE_REPLICATIONS[name])
        w.cells = workloads.sweep_cells(w.config)
    if name == "cli_pipeline":
        w.size = {**w.size, "sweep_threads": 1}
    try:
        w.prepare()
        observed = w.observe(w.run_round())
    finally:
        w.cleanup()
        shutil.rmtree(workdir, ignore_errors=True)
    if name == "cli_pipeline":
        bad = [cmd for cmd, entry in observed.items() if entry.get("rc") != 0 or entry.get("unreadable")]
        if bad:
            raise SystemExit(f"{name} seed {seed}: commands failed: {bad}")
    return _rounded(observed)


def generate(profile: str, seeds: list[int]) -> dict:
    out: dict = {profile: {}}
    for name in workloads.WORKLOADS:
        per_seed = out[profile].setdefault(name, {})
        for seed in seeds:
            obs = record(profile, name, seed)
            if name == "cli_pipeline":
                shared = {cmd: obs.pop(cmd) for cmd in CLI_SHARED}
                if per_seed.setdefault("shared", shared) != shared:
                    raise SystemExit(f"seed-independent CLI outputs differ at seed {seed}")
            per_seed[str(seed)] = obs
            print(f"{profile} {name} seed {seed} recorded", flush=True)
    return out


def merge(parts: list[dict]) -> dict:
    out: dict = {}
    for part in parts:
        for profile, by_name in part.items():
            if profile in ("source_commit", "seed_pool"):
                continue
            for name, per_seed in by_name.items():
                dst = out.setdefault(profile, {}).setdefault(name, {})
                for key, value in per_seed.items():
                    if key in dst and dst[key] != value:
                        raise SystemExit(f"conflicting reference for {profile}/{name}/{key}")
                    dst[key] = value
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--profile", choices=tuple(workloads.PROFILES), default="full")
    ap.add_argument("--seeds", default=f"0-{workloads.SEED_POOL - 1}", help="pool seeds, as a-b or a,b,c")
    ap.add_argument("--merge", nargs="+", help="merge these partial files instead of recording")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    if args.merge:
        ref = merge([json.loads(Path(p).read_text()) for p in args.merge])
    else:
        if "-" in args.seeds:
            lo, hi = (int(v) for v in args.seeds.split("-"))
            seeds = list(range(lo, hi + 1))
        else:
            seeds = [int(v) for v in args.seeds.split(",")]
        if any(not 0 <= s < workloads.SEED_POOL for s in seeds):
            raise SystemExit(f"pool seeds lie in [0, {workloads.SEED_POOL})")
        ref = generate(args.profile, seeds)
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True).stdout.strip()
    ref = {"source_commit": sha or "unknown", "seed_pool": workloads.SEED_POOL, **ref}
    Path(args.out).write_text(json.dumps(ref, separators=(",", ":"), sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
