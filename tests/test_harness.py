"""Sweep construction, per-snapshot metrics, aggregation, determinism."""

import concurrent.futures
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

from psdl import (
    ConfigError,
    Deterministic,
    Exponential,
    PointMeasure,
    ProductJoint,
    SweepConfig,
    build_scenario,
    collapse_error,
    lateness_fraction,
    run,
    run_sweep,
    scale_diffusion,
    sojourn_snapshot_experiment,
)
from psdl.measures import default_grid, mass_moment_chi

MM1 = ProductJoint(Exponential(1.0), Exponential(1.0))
EMPTY = PointMeasure(np.zeros(0), np.zeros(0), np.zeros(0))


def tiny_sweep(**overrides):
    kw = dict(
        joint=MM1,
        alpha=1.0,
        gamma=0.5,
        r_values=(3.0, 5.0),
        T=1.0,
        snapshot_times=(0.5, 1.0),
        replications=3,
        seed_base=77,
        sojourn_window=5.0,
    )
    kw.update(overrides)
    return SweepConfig(**kw)


def test_sweep_validation():
    with pytest.raises(ConfigError):
        tiny_sweep(r_values=(0.4,))  # r <= gamma overloads the prelimit
    with pytest.raises(ConfigError):
        tiny_sweep(snapshot_times=(0.0, 0.5))
    with pytest.raises(ConfigError):
        tiny_sweep(replications=0)
    with pytest.raises(ConfigError):
        tiny_sweep(seed_base=-1)  # numpy seeds must be nonnegative
    with pytest.raises(ConfigError):
        tiny_sweep(joint=ProductJoint(Exponential(2.0), Exponential(1.0)))  # mean != 1/alpha


def test_build_scenario_scalings():
    sweep = tiny_sweep(r_values=(10.0,), T=2.0, snapshot_times=(0.5, 2.0))
    cfg = build_scenario(sweep, 10.0, 0)
    assert cfg.horizon == pytest.approx(200.0)  # r^2 T
    assert cfg.snapshot_times == (50.0, 200.0)
    assert cfg.lead_scale == 10.0
    rate = 1.0 / cfg.interarrival.mean()
    assert rate == pytest.approx(1.0 * (1.0 - 0.5 / 10.0))  # alpha(1 - gamma/r)
    assert cfg.initial_jobs == ()
    # replication changes only the seed
    cfg2 = build_scenario(sweep, 10.0, 1)
    assert cfg2.seed != cfg.seed
    assert (cfg2.horizon, cfg2.snapshot_times) == (cfg.horizon, cfg.snapshot_times)


@pytest.mark.parametrize(
    "kind, a", [("exponential", 0.5), ("deterministic", 0.0), ("uniform", 1.0 / math.sqrt(12.0))]
)
def test_interarrival_kinds(kind, a):
    # alpha = 2: mean service 1/2, and a is the std of one limiting gap of mean 1/2
    sweep = tiny_sweep(
        joint=ProductJoint(Exponential(2.0), Exponential(1.0)),
        alpha=2.0,
        r_values=(3.0,),
        replications=1,
        interarrival_kind=kind,
    )
    rate_r = 2.0 * (1.0 - 0.5 / 3.0)
    assert build_scenario(sweep, 3.0, 0).interarrival.mean() == pytest.approx(1.0 / rate_r, rel=1e-12)
    report = run_sweep(sweep)
    assert len(report.rows) == len(sweep.snapshot_times)
    assert report.theory["interarrival_std"] == pytest.approx(a, rel=1e-12, abs=0.0)


def test_collapse_error_empty_snapshot_is_zero():
    assert collapse_error(EMPTY, 5.0, MM1, 1.0, default_grid()) == 0.0


def test_collapse_error_on_lift_samples_is_small():
    # a cloud drawn from the invariant law itself should sit near the lift
    rng = np.random.default_rng(5)
    r, n = 50.0, 100
    z = n / r
    s = rng.exponential(size=n)
    cloud = PointMeasure(
        rng.exponential(size=n),
        rng.exponential(size=n) - z * s,
        np.ones(n),
    )
    # unscaled leads carry the factor r
    unscaled = PointMeasure(cloud.residuals, cloud.leads * r, cloud.weights)
    err = collapse_error(unscaled, r, MM1, 1.0, default_grid())
    assert err <= 0.35  # statistical, bounded well away from trivial failure


def test_lateness_fraction_cases():
    assert lateness_fraction(EMPTY) is None
    pos = PointMeasure(np.array([1.0]), np.array([0.5]), np.array([1.0]))
    assert lateness_fraction(pos) == 0.0
    late = PointMeasure(np.array([1.0, 1.0]), np.array([-0.5, 0.0]), np.array([1.0, 1.0]))
    assert lateness_fraction(late) == pytest.approx(0.5)  # lead 0 is not yet late


def test_sojourn_experiment_flags():
    cfg = build_scenario(tiny_sweep(), 3.0, 0)
    out = run(cfg)
    nu = Exponential(1.0)
    # window sticking out past the horizon is refused
    s = sojourn_snapshot_experiment(out, 3.0, 1.0, 5.0, nu)
    assert s.flag == "window_exceeds_horizon"
    assert s.ks is None
    s2 = sojourn_snapshot_experiment(out, 3.0, 0.5, 2.0, nu)
    assert s2.flag in ("ok", "empty_snapshot", "no_departures", "insufficient_data")


def test_sojourn_experiment_statistic():
    sweep = tiny_sweep(r_values=(6.0,), T=2.0, snapshot_times=(1.0,), sojourn_window=30.0)
    cfg = build_scenario(sweep, 6.0, 1)
    out = run(cfg)
    s = sojourn_snapshot_experiment(out, 6.0, 1.0, 30.0, Exponential(1.0))
    if s.flag == "ok":
        assert 0.0 <= s.ks <= 1.0
        assert s.n >= 20


def test_run_sweep_shapes_and_rows():
    sweep = tiny_sweep()
    report = run_sweep(sweep)
    assert len(report.rows) == len(sweep.r_values) * sweep.replications * len(
        sweep.snapshot_times
    )
    for row in report.rows:
        assert row.collapse_error >= 0.0
        assert row.lead_profile_error <= row.collapse_error + 1e-12
        assert row.n_jobs >= 0
    # replication 0 gives one overlay row per (r, t) and grid y value
    ys = sweep.grid.y_values.tolist()
    assert [(r, t, y) for r, t, y, _, _ in report.overlays] == [
        (r, t, y) for r in sweep.r_values for t in sweep.snapshot_times for y in ys
    ]


def test_row_values_match_engine_rerun():
    sweep = tiny_sweep(r_values=(4.0,), replications=1, snapshot_times=(1.0,))
    report = run_sweep(sweep)
    row = report.rows[0]
    cfg = build_scenario(sweep, 4.0, 0)
    out = run(cfg)
    _, _, m = out.snapshot_at(16.0)  # r^2 * t
    scaled = scale_diffusion(m, 4.0)
    assert row.n_jobs == m.count
    assert row.z_scaled == pytest.approx(m.count / 4.0, abs=1e-12)
    assert row.w_scaled == pytest.approx(mass_moment_chi(scaled), abs=1e-9)


def test_report_determinism_across_threads():
    sweep = tiny_sweep()
    a = run_sweep(sweep, threads=1)
    b = run_sweep(sweep, threads=2)
    ja = json.dumps(a.to_json_dict(), sort_keys=True)
    jb = json.dumps(b.to_json_dict(), sort_keys=True)
    assert ja == jb
    assert [asdict(r) for r in a.rows] == [asdict(r) for r in b.rows]


def test_aggregate_counts():
    sweep = tiny_sweep()
    report = run_sweep(sweep)
    agg = report.aggregates
    for per_r in agg["per_r"]:
        assert per_r["n_rows"] == sweep.replications * len(sweep.snapshot_times)
        assert 0 <= per_r["n_nonempty"] <= per_r["n_rows"]
    assert len(agg["per_r_t"]) == len(sweep.r_values) * len(sweep.snapshot_times)


def test_run_sweep_caps_workers(monkeypatch):
    # a huge thread count asks for at most one worker per task and per CPU;
    # the recorder stands in for the pool, so no process starts
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    sweep = tiny_sweep(r_values=(3.0,), replications=2)
    report = run_sweep(sweep, threads=10**9)
    workers = min(2, os.cpu_count() or 1)
    assert started == ([workers] if workers > 1 else [])
    assert report.rows == run_sweep(sweep).rows


def test_import_loads_no_process_pool():
    # the pool machinery is imported by a multi-worker sweep, not by the package
    pool = {"multiprocessing", "concurrent.futures.process"}
    code = f"import sys, psdl; print(sorted({pool!r} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
