"""psdl benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload mm1_deep --seed 0 --seconds 25 --trace 0

Run from the root of a psdl checkout; psdl is imported from ./src.

--trace 0 times whole workload rounds with tracing off and reports the
end-to-end metrics named in BENCHMARK.json.  --trace 1 runs one untraced
round, then traced rounds, and reports the per-layer metrics, including
the tracing overhead against the untraced round.  Rounds repeat until
another one would end past --seconds (at least one runs); times are
medians over rounds.  Each round's outputs are checked against the
reference outputs in reference.json; an operation (a sweep cell or a
CLI command) that raises, exits nonzero or mismatches counts as failed.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Full results, provenance and
spans go to .perfbench_out/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import SpeedProbe, kernel, speed_factor

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
SETUP_KERNELS = 10


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def set_up(workload: str, profile: str, seed: int, workdir: Path):
    """import psdl, generate the inputs, one warm-up call.  Returns the
    workload object and the seconds it took."""
    t0 = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import psdl  # noqa: F401  (timed: the import is part of set-up)
    import workloads

    w = workloads.make(workload, profile, seed, workdir)
    w.warm_up()
    return w, time.perf_counter() - t0


def probe_setup(workload: str, profile: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
         "--profile", profile, "--setup-probe"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        _fail(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def provenance() -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    import numpy

    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
    }


def load_reference(profile: str, workload: str, seed: int):
    import workloads

    path = HERE / "reference.json"
    if not path.exists():
        return None
    by_seed = json.loads(path.read_text()).get(profile, {}).get(workload, {})
    entry = by_seed.get(str(workloads.pool_seed(seed)))
    # seed-independent CLI outputs are stored once, under "shared"
    return None if entry is None else {**by_seed.get("shared", {}), **entry}


def _tally(results: list[tuple[str, bool]], extra: dict | None = None) -> tuple[int, int]:
    extra = extra or {}
    failed = sum(1 for key, ok in results if not (ok and extra.get(key, True)))
    return len(results), failed


def _untraced_round(w, ref) -> dict:
    w.prepare()
    probe = SpeedProbe()
    with probe.sampling():
        cpu0, t0 = _cpu_seconds(), time.perf_counter()
        try:
            result = w.run_round(probe.paused)
        except Exception:  # a crashing round fails every operation in it
            traceback.print_exc()
            result = None
        wall, cpu = time.perf_counter() - t0, _cpu_seconds() - cpu0
    observed = None if result is None else w.observe(result)
    attempted, failed = _tally(w.compare(observed, ref))
    factor, kernel_s = probe.factor(), probe.kernel_seconds()
    return {
        "wall": (wall - kernel_s) * factor,
        "cpu": (cpu - kernel_s) * factor,
        "raw_wall": wall,
        "raw_cpu": cpu,
        "speed_factor": factor,
        "speed_samples": len(probe.samples),
        "attempted": attempted,
        "failed": failed,
    }


def _traced_round(w, ref) -> dict:
    import workloads
    from tracer import Tracer

    w.prepare()
    tr = Tracer()
    probe = SpeedProbe()
    try:
        with probe.sampling():
            observed, wall, extra, checks = w.run_traced(tr, probe.paused)
    except Exception:
        traceback.print_exc()
        n = len(w.compare(None, ref))
        return {"wall": None, "attempted": n, "failed": n, "layers": None, "spans": tr.spans}
    attempted, failed = _tally(w.compare(observed, ref), checks)
    return {
        # corrected like an untraced round, for the overhead ratio; the
        # span times themselves are raw
        "wall": (wall - probe.kernel_seconds()) * probe.factor(),
        "raw_wall": wall,
        "speed_factor": probe.factor(),
        "attempted": attempted,
        "failed": failed,
        "layers": workloads.layer_metrics(tr.spans, wall, extra),
        "spans": tr.spans,
    }


def _repeat(fn, seconds: float, first_elapsed: float = 0.0) -> list[dict]:
    rounds = []
    start = time.perf_counter() - first_elapsed
    while True:
        rounds.append(fn())
        elapsed = time.perf_counter() - start
        last = rounds[-1]["wall"] or 0.0
        if elapsed + last > seconds:
            return rounds


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, profile: str = "full",
                  reference=None, probes: int = SETUP_PROBES) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = OUT / f"{workload}-{os.getpid()}"
    setup_times = [probe_setup(workload, profile, seed) for _ in range(probes)]
    w, _ = set_up(workload, profile, seed, workdir)
    if reference is None:
        reference = load_reference(profile, workload, seed)
    try:
        t_start = time.perf_counter()
        if not trace:
            rounds = _repeat(lambda: _untraced_round(w, reference), seconds)
            metrics = {
                "wall_s": statistics.median(r["wall"] for r in rounds),
                "cpu_s": statistics.median(r["cpu"] for r in rounds),
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": _peak_rss_mb(),
            }
            names = spec["end_to_end"]
            spans = []
        else:
            base = _untraced_round(w, reference)
            traced = _repeat(lambda: _traced_round(w, reference), seconds, time.perf_counter() - t_start)
            ok = [r for r in traced if r["layers"] is not None]
            if ok:
                metrics = {key: statistics.median(r["layers"][key] for r in ok) for key in ok[0]["layers"]}
                metrics["trace.overhead"] = statistics.median(r["wall"] for r in ok) / base["wall"]
            else:  # every traced round crashed: its operations count as failed
                metrics = {m["name"]: 0.0 for m in spec["per_layer"]}
            rounds = [base, *traced]
            names = spec["per_layer"]
            spans = traced[-1]["spans"]
        attempted = sum(r["attempted"] for r in rounds)
        failed = sum(r["failed"] for r in rounds)
    finally:
        w.cleanup()
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in names if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    emitted = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names}
    return {
        "workload": workload,
        "seed": seed,
        "profile": profile,
        "trace": int(trace),
        "rounds": [{k: v for k, v in r.items() if k not in ("spans", "layers")} for r in rounds],
        "setup_probes_s": setup_times,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted if attempted else 1.0,
        "metrics": emitted,
        "provenance": provenance(),
        "spans": spans,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("mm1_deep", "uniform_ladder", "cli_pipeline"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", choices=("full", "tiny"), default="full", help=argparse.SUPPRESS)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "psdl" / "__init__.py").is_file():
        _fail(f"no psdl sources under {SRC}; run from the root of a psdl checkout")
    if not (ROOT / "BENCHMARK.json").is_file():
        _fail("BENCHMARK.json not found at the checkout root")

    if args.setup_probe:
        # numpy, a dependency no psdl change can speed up, is loaded before
        # timing: its import alone is about 0.15 s and drifts by a third
        # with the host's state.  Set-up is too short to sample during; the
        # speed is read from kernel passes right before and after it.
        import numpy  # noqa: F401

        workdir = OUT / f"setup-probe-{os.getpid()}"
        samples = [kernel() for _ in range(SETUP_KERNELS)]
        try:
            w, seconds = set_up(args.workload, args.profile, args.seed, workdir)
            w.cleanup()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        samples += [kernel() for _ in range(SETUP_KERNELS)]
        print(repr(seconds * speed_factor(samples)))
        return 0

    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.profile)
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = result.pop("spans")
    (results_dir / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")
    if spans:
        (results_dir / f"{stem}.spans.json").write_text(json.dumps(spans) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(result['rounds'])} rounds, provenance {json.dumps(result['provenance'], sort_keys=True)}")
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':32s} {result['fail_frac']:.6g} ratio "
          f"({result['failed']} failed of {result['attempted']} attempted)")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
