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
    HyperExponential,
    PointMeasure,
    ProductJoint,
    SweepConfig,
    Uniform,
    build_scenario,
    lateness_fraction,
    run,
    run_sweep,
    scale_diffusion,
    sojourn_limit_cdf,
    sojourn_snapshot_experiment,
)
from psdl.harness import _ks_distance
from psdl.measures import default_grid, mass_moment_chi
from state_checks import collapse_error

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
    assert tiny_sweep(r_values=(5.0, 3.0)).r_values == (5.0, 3.0)  # distinct r in any order
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


def test_ks_distance_matches_per_sample_cdf():
    # the KS is the one against sojourn_limit_cdf called on each sorted
    # sample, float for float, including at a zero sojourn
    def per_sample(samples, nu, z):
        s = np.sort(samples)
        f = np.array([sojourn_limit_cdf(nu, z, y) for y in s])
        steps = np.arange(s.size + 1) / s.size
        return float(max(np.max(steps[1:] - f), np.max(f - steps[:-1])))

    rng = np.random.default_rng(5)
    laws = (Exponential(1.0), HyperExponential((0.5, 0.5), (0.5, 2.0)), Uniform(0.0, 2.0), Deterministic(1.0))
    for nu in laws:
        for z in (1e-3, 0.37, 1.0, 2.5, 40.0):
            samples = np.append(z * rng.exponential(1.5, 60), (0.0, z, 2.0 * z))
            assert _ks_distance(samples, nu, z) == per_sample(samples, nu, z)
            for y in samples:  # one sample: the KS is max(F(y), 1 - F(y))
                assert _ks_distance(np.array([y]), nu, z) == per_sample(np.array([y]), nu, z)


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


def mixed_sweep():
    """A sweep with 3 empty snapshots and 3 KS windows among its 12 rows."""
    return tiny_sweep(r_values=(3.0, 10.0), sojourn_window=40.0)


def _median(vals):
    return float(np.median(vals)) if vals else None


def test_row_collapse_error_is_the_helpers():
    # the helper takes the invariant member's mass as count / r, as the sweep does
    sweep = mixed_sweep()
    for row in run_sweep(sweep).rows:
        out = run(build_scenario(sweep, row.r, row.replication))
        _, _, snap = out.snapshot_at(row.r * row.r * row.t)
        assert row.collapse_error == collapse_error(snap, row.r, sweep.joint, sweep.alpha, sweep.grid)


def test_report_fields_match_their_definitions():
    # each field recomputed from the rows and overlays it summarises, on a
    # sweep with both empty snapshots and KS rows, so neither filter is vacuous
    sweep = mixed_sweep()
    report = run_sweep(sweep)
    assert any(row.n_jobs == 0 for row in report.rows)
    assert any(row.sojourn_ks is not None for row in report.rows)
    per_r_t = iter(report.aggregates["per_r_t"])
    for r, per_r in zip(sweep.r_values, report.aggregates["per_r"]):
        r_rows = [row for row in report.rows if row.r == r]
        nonempty = [row for row in r_rows if row.n_jobs > 0]
        ce = [row.collapse_error for row in nonempty]
        assert per_r["n_nonempty"] == len(nonempty)
        assert per_r["median_collapse_error"] == np.median(ce)
        assert per_r["q25_collapse_error"] == np.quantile(ce, 0.25)
        assert per_r["q75_collapse_error"] == np.quantile(ce, 0.75)
        assert per_r["median_lead_profile_error"] == np.median([row.lead_profile_error for row in nonempty])
        ks = [row.sojourn_ks for row in r_rows if row.sojourn_ks is not None]
        late = [row.lateness_fraction for row in r_rows if row.lateness_fraction is not None]
        assert (per_r["median_sojourn_ks"], per_r["median_lateness_fraction"]) == (_median(ks), _median(late))
        assert per_r["mean_z_scaled"] == np.mean([row.z_scaled for row in r_rows])
        for t in sweep.snapshot_times:
            cell = next(per_r_t)
            t_rows = [row for row in r_rows if row.t == t]
            t_nonempty = [row for row in t_rows if row.n_jobs > 0]
            t_ks = [row for row in t_rows if row.sojourn_ks is not None]
            assert (cell["r"], cell["t"], cell["n_nonempty"]) == (r, t, len(t_nonempty))
            assert cell["median_collapse_error"] == _median([row.collapse_error for row in t_nonempty])
            assert cell["median_sojourn_ks"] == _median([row.sojourn_ks for row in t_ks])
            assert cell["median_sojourn_n"] == _median([row.sojourn_n for row in t_ks])
        for row in r_rows:
            if row.replication == 0:  # its overlay rows are the x = 0 row of the grid
                ov = [(emp, lim) for r_, t, _, emp, lim in report.overlays if (r_, t) == (r, row.t)]
                assert row.lead_profile_error == max(abs(emp - lim) for emp, lim in ov)
    assert next(per_r_t, None) is None


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
