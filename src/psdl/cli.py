"""Command-line front end.

Every command reads one JSON config and writes files into an output
directory; nothing is interactive and nothing depends on wall-clock
entropy, so a fixed config and seed reproduce output bytes exactly.

Exit codes: 0 success, 2 bad configuration or usage, 3 runtime failure
inside the simulator or a numerical routine, an output file that cannot
be written, or an allocation the machine cannot make.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .engine import busy_rate_check, run
from .errors import ConfigError, SimulationError
from .harness import run_sweep
from .manifold import (
    lead_profile_product,
    lift,
    linear_deadline_profile,
    sojourn_limit_cdf,
    time_in_queue_profile,
)
from .measures import grid_quadrant_masses
from .rbm import deadline_quantile, simulate, stationary_cdf


def _out_dir(args, cfg: fileio.ConfigFile) -> Path:
    d = Path(args.out) if args.out else Path(cfg.output_dir or ".")
    try:
        d.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file where the directory or one of its parents should be
        raise ConfigError(f"cannot make the output directory {d}: {exc}") from None
    return d


def _require(
    cfg: fileio.ConfigFile, kind: str, seed_override: int | None = None, seed_key: str = "seed"
) -> dict:
    """The config's request block, with --seed-override written over its seed_key."""
    if cfg.kind != kind:
        raise ConfigError(
            f"config contains a {cfg.kind!r} request; this command needs {kind!r}"
        )
    if seed_override is None:
        return cfg.payload
    return {**cfg.payload, seed_key: seed_override}


def cmd_simulate(args) -> int:
    cfg = fileio.load_config(args.config)
    scenario = fileio.parse_scenario(_require(cfg, "scenario", args.seed_override))
    out = run(scenario)
    n_jobs = len(scenario.initial_jobs) + out.event_counts.get("arrival", 0)
    n_departures = out.event_counts.get("departure", 0)
    d = _out_dir(args, cfg)
    fileio.write_departures_csv(out, d / "departures.csv")
    fileio.write_path_csv(out, d / "path.csv")
    fileio.write_snapshots_csv(out, d / "snapshots.csv")
    summary = {
        "n_jobs": n_jobs,
        "n_departures": n_departures,
        "horizon": scenario.horizon,
        "seed": scenario.seed,
        "snapshot_times": list(scenario.snapshot_times),
        "busy_rate_check": busy_rate_check(out),
        "event_counts": out.event_counts,
        "max_z": out.max_z,
        "workload_check": out.workload_check,
    }
    fileio.write_json(summary, d / "simulate_summary.json")
    print(f"simulate: {n_jobs} jobs, {n_departures} departures -> {d}")
    return 0


def cmd_lift(args) -> int:
    cfg = fileio.load_config(args.config)
    req = fileio.parse_lift(_require(cfg, "lift"))
    meas = lift(req.joint, req.alpha, req.z)
    table = grid_quadrant_masses(meas.quadrant, req.grid)
    d = _out_dir(args, cfg)
    fileio.write_lift_csv(table, req.grid, d / "lift.csv")
    summary = {
        "method": meas.method,
        "z": meas.z,
        "alpha": meas.alpha,
        "total_mass": meas.total_mass,
        "mass_at_origin": meas.eval(0.0, -np.inf),
    }
    fileio.write_json(summary, d / "lift_summary.json")
    print(f"lift: method={meas.method} z={meas.z:g} -> {d}")
    return 0


# profile kind -> (header of its value column, the optional request fields
# it needs, its value at y); each lambda looks its function up in this
# module's globals when the profile runs
_PROFILES = {
    "lead_product": (
        "cdf", ("lam", "alpha"), lambda q, y: lead_profile_product(q.nu, q.lam, q.alpha, q.z, y)
    ),
    "time_in_queue": ("survival", (), lambda q, y: time_in_queue_profile(q.nu, q.z, y)),
    "sojourn": ("cdf", (), lambda q, y: sojourn_limit_cdf(q.nu, q.z, y)),
    "linear_deadline": ("survival", ("c",), lambda q, y: linear_deadline_profile(q.nu, q.c, q.z, y)),
}


def cmd_profiles(args) -> int:
    cfg = fileio.load_config(args.config)
    req = fileio.parse_profile(_require(cfg, "profile"))
    if req.profile not in _PROFILES:
        raise ConfigError(f"profile must be one of {tuple(_PROFILES)}, got {req.profile!r}")
    label, needs, fn = _PROFILES[req.profile]
    if any(getattr(req, k) is None for k in needs):
        raise ConfigError(f"{req.profile} profile needs {' and '.join(map(repr, needs))}")
    values = [(y, fn(req, y)) for y in req.y_values]
    d = _out_dir(args, cfg)
    fileio.write_profile_csv(values, label, d / "profile.csv")
    print(f"profiles: {req.profile} at {len(values)} points -> {d}")
    return 0


def cmd_rbm(args) -> int:
    cfg = fileio.load_config(args.config)
    req = fileio.parse_rbm(_require(cfg, "rbm", args.seed_override))
    # the stationary law first, so that a request it cannot serve writes nothing
    summary = {
        "drift": req.drift,
        "variance": req.variance,
        "quantiles": {
            fileio.format_value(q): deadline_quantile(req, q) for q in req.quantiles
        },
    }
    if req.drift < 0.0:
        summary["stationary_rate"] = req.stationary_rate
        summary["stationary_mean"] = req.variance / (2.0 * abs(req.drift))
        summary["stationary_cdf_at_mean"] = stationary_cdf(
            req, summary["stationary_mean"]
        )
    path = simulate(req, req.horizon, req.dt, req.seed)
    summary["time_average"] = path.time_average
    d = _out_dir(args, cfg)
    fileio.write_rbm_path_csv(path, d / "rbm_path.csv")
    fileio.write_json(summary, d / "rbm_summary.json")
    print(f"rbm: {path.values.size - 1} steps, time average {summary['time_average']:.6g} -> {d}")
    return 0


def cmd_sweep(args) -> int:
    cfg = fileio.load_config(args.config)
    sweep = fileio.parse_sweep(_require(cfg, "sweep", args.seed_override, "seed_base"))
    report = run_sweep(sweep, threads=args.threads)
    d = _out_dir(args, cfg)
    fileio.write_report_json(report, d / "report.json")
    fileio.write_rows_csv(report, d / "rows.csv")
    fileio.write_collapse_vs_r_csv(report, d / "collapse_vs_r.csv")
    fileio.write_profile_overlay_csv(report, d / "profile_overlay.csv")
    print(f"sweep: {len(report.rows)} rows over r={list(sweep.r_values)} -> {d}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psdl",
        description="Processor-sharing queues with soft deadlines: "
        "simulation, invariant measures, and collapse experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "simulate": (cmd_simulate, "run one scenario and write its logs"),
        "lift": (cmd_lift, "tabulate an invariant measure on a grid"),
        "profiles": (cmd_profiles, "evaluate a lead/sojourn profile"),
        "rbm": (cmd_rbm, "simulate a reflected Brownian path"),
        "sweep": (cmd_sweep, "run a collapse sweep over an r ladder"),
    }
    for name, (fn, help_text) in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", help="output directory (overrides config)")
        if name in ("simulate", "rbm", "sweep"):
            p.add_argument(
                "--seed-override", type=int, default=None, help="replace the config seed"
            )
        if name == "sweep":
            p.add_argument("--threads", type=int, default=1, help="worker processes (default: 1)")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SimulationError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"runtime error: out of memory: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # a full disk or a directory it may not write in; a failed fork names no file
        where = f"cannot write {exc.filename}: " if exc.filename else ""
        print(f"runtime error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
