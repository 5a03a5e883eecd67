"""Event-engine tests: hand-traced departures, conservation, self-checks.

The two fixed scenarios are fully traceable by hand:

* two initial jobs with residuals (2, 3), no arrivals: both share rate
  1/2 until the first departure at t=4 (each has then received 2 units);
  the survivor's remaining 1 unit finishes alone at t=5.
* one initial job with residual 1 and one arrival at t=0.5 bringing
  service 1: at t=0.5 the first job has residual 0.5; sharing at rate
  1/2 the first departs at t=1.5, the newcomer (residual 0.5 left) at 2.
"""

import math
import tracemalloc

import numpy as np
import pytest
import state_checks
from state_checks import departures, verify_dynamic_equation

import psdl.engine as engine

from psdl import (
    ConfigError,
    Deterministic,
    Exponential,
    ProductJoint,
    ScenarioConfig,
    SweepConfig,
    Uniform,
    build_scenario,
    busy_rate_check,
    mass_moment_chi,
    run,
)
from psdl.fileio import parse_scenario
from psdl.measures import default_grid

MM1 = ProductJoint(Exponential(1.0), Exponential(1.0))


def two_initial_jobs():
    return ScenarioConfig(
        interarrival=Deterministic(100.0),  # first arrival lands past the horizon
        joint=MM1,
        horizon=6.0,
        snapshot_times=(0.0, 1.0, 4.0, 5.0),
        seed=1,
        initial_jobs=((2.0, 1.0), (3.0, 4.0)),
    )


def staggered_pair():
    # exactly one arrival, at t=0.5
    return ScenarioConfig(
        interarrival=Deterministic(100.0),
        joint=ProductJoint(Deterministic(1.0), Deterministic(10.0)),
        horizon=3.0,
        snapshot_times=(0.5,),
        seed=1,
        initial_jobs=((1.0, 5.0),),
        first_interarrival=Deterministic(0.5),
    )


def test_hand_trace_two_initial_jobs():
    out = run(two_initial_jobs())
    deps = departures(out)
    assert [j.job_id for j in deps] == [0, 1]
    assert deps[0].departure_time == pytest.approx(4.0, abs=1e-9)
    assert deps[1].departure_time == pytest.approx(5.0, abs=1e-9)
    # W(0) = 5, then drains at unit rate
    t0, _, m0 = out.snapshot_at(0.0)
    assert mass_moment_chi(m0) == pytest.approx(5.0)
    _, _, m1 = out.snapshot_at(1.0)
    assert mass_moment_chi(m1) == pytest.approx(4.0)
    _, _, m5 = out.snapshot_at(5.0)
    assert m5.count == 0  # wall-clock 5 is exactly the drain time


def test_hand_trace_snapshot_marks():
    out = run(two_initial_jobs())
    _, s1, m1 = out.snapshot_at(1.0)
    # by t=1 each job received 1/2 unit of service
    assert s1 == pytest.approx(0.5)
    np.testing.assert_allclose(sorted(m1.residuals), [1.5, 2.5], atol=1e-12)
    # leads fall at unit rate: initial leads (1, 4) minus t
    np.testing.assert_allclose(sorted(m1.leads), [0.0, 3.0], atol=1e-12)


def test_hand_trace_staggered_pair():
    out = run(staggered_pair())
    deps = {j.job_id: j.departure_time for j in departures(out)}
    assert deps[0] == pytest.approx(1.5, abs=1e-9)
    assert deps[1] == pytest.approx(2.0, abs=1e-9)
    # sojourn identity: the shared stretch makes both sojourns exceed service
    for j in departures(out):
        assert j.sojourn >= j.service_req - 1e-12


def test_simultaneous_event_order():
    # the initial job finishes at t=1 exactly when the first arrival lands,
    # and a snapshot shares that instant: departure, then arrival, then
    # snapshot; at the horizon the snapshot precedes the end
    cfg = ScenarioConfig(
        interarrival=Deterministic(100.0),
        joint=ProductJoint(Deterministic(1.0), Deterministic(10.0)),
        horizon=3.0,
        snapshot_times=(1.0, 3.0),
        seed=1,
        initial_jobs=((1.0, 5.0),),
        first_interarrival=Deterministic(1.0),
    )
    out = run(cfg)
    assert out.path.kinds == (
        "init", "departure", "arrival", "snapshot", "departure", "snapshot", "end"
    )
    assert [j.departure_time for j in out.jobs] == [1.0, 2.0]
    assert out.jobs[1].service_offset == 1.0
    _, _, m1 = out.snapshot_at(1.0)
    assert (list(m1.residuals), list(m1.leads)) == ([1.0], [10.0])
    assert out.event_counts == {"init": 1, "arrival": 1, "departure": 2, "snapshot": 2, "end": 1}
    assert out.max_z == 1
    assert out.workload_check == 0.0


def test_replay_drops_the_rounding_left_when_the_system_empties():
    # services 25 orders of magnitude apart leave the compensated target sum
    # about 9e-19 off once every job has gone; the replay resets it to 0
    # at the departure that empties the system
    services = (1.4884980429188523e-08, 2.4722922862625027e-16, 3.6470322857504294e-17, 44790729192.3346, 108066137064822.81)
    cfg = ScenarioConfig(
        interarrival=Exponential(1e-30),  # no arrival before the horizon
        joint=MM1,
        horizon=1e18,
        initial_jobs=tuple((v, 0.0) for v in services),
    )
    p = run(cfg).path
    assert p.kinds == ("init", *["departure"] * 5, "end")
    assert list(p.z) == [5, 4, 3, 2, 1, 0, 0]
    assert p.w_post[-2] == p.w_pre[-1] == p.w_post[-1] == 0.0


def test_empty_scenario():
    cfg = ScenarioConfig(
        interarrival=Deterministic(100.0),
        joint=MM1,
        horizon=10.0,
        snapshot_times=(0.0, 5.0, 10.0),
        seed=3,
    )
    out = run(cfg)
    assert departures(out) == []
    for _, s, m in out.snapshots:
        assert m.count == 0 and s == 0.0
    assert busy_rate_check(out) == 0.0


def test_busy_rate_check_random_scenario():
    cfg = ScenarioConfig(
        interarrival=Exponential(1.0 / 0.9),
        joint=MM1,
        horizon=200.0,
        snapshot_times=(),
        seed=17,
    )
    out = run(cfg)
    assert busy_rate_check(out) <= 1e-9 * cfg.horizon
    assert len(departures(out)) > 50


def test_determinism_and_seed_sensitivity():
    cfg = ScenarioConfig(
        interarrival=Exponential(1.0), joint=MM1, horizon=50.0, seed=5
    )
    a, b = run(cfg), run(cfg)
    assert [j.departure_time for j in departures(a)] == [
        j.departure_time for j in departures(b)
    ]
    c = run(ScenarioConfig(interarrival=Exponential(1.0), joint=MM1, horizon=50.0, seed=6))
    assert [j.arrival_time for j in c.jobs] != [j.arrival_time for j in a.jobs]


def test_lead_slope_between_snapshots():
    cfg = ScenarioConfig(
        interarrival=Exponential(1.0),
        joint=ProductJoint(Exponential(1.0), Deterministic(7.0)),
        horizon=30.0,
        snapshot_times=(10.0, 12.5),
        seed=23,
    )
    out = run(cfg)
    _, _, m0 = out.snapshot_at(10.0)
    _, _, m1 = out.snapshot_at(12.5)
    # every job present in both snapshots lost exactly 2.5 of lead;
    # deterministic initial lead makes jobs identifiable by lead + clock
    if m0.count and m1.count:
        common = min(m0.count, m1.count)
        assert m0.leads.max() - m1.leads.max() <= 2.5 + 1e-9


def test_dynamic_equation_hand_trace():
    out = run(two_initial_jobs())
    g = default_grid()
    assert verify_dynamic_equation(out, 0.0, 1.0, g) <= 1e-9


def test_dynamic_equation_random():
    cfg = ScenarioConfig(
        interarrival=Exponential(1.2),
        joint=MM1,
        horizon=40.0,
        snapshot_times=tuple(np.linspace(0.0, 40.0, 21)),
        seed=31,
    )
    out = run(cfg)
    g = default_grid()
    for t, h in ((0.0, 2.0), (2.0, 2.0), (10.0, 4.0), (20.0, 20.0)):
        assert verify_dynamic_equation(out, t, h, g) <= 1e-9


def _transported_by_loop(out, t, h):
    """(residuals, leads) of the transported state, built job by job as
    verify_dynamic_equation did before it selected arrivals with one mask."""
    t0, s0, snap0 = out.snapshot_at(t)
    t1, s1, _ = out.snapshot_at(t + h)
    res = snap0.residuals - (s1 - s0)
    keep = res > 0.0
    parts_res, parts_lead = [res[keep]], [snap0.leads[keep] - (t1 - t0)]
    arr, svc, lead, off, _ = out.job_columns
    for u, v, l, s_in in zip(arr, svc, lead, off):
        if t0 < u <= t1:
            rem = (s_in + v) - s1
            if rem > 0.0:
                parts_res.append(np.array([rem]))
                parts_lead.append(np.array([(u + l) - t1]))
    return np.concatenate(parts_res), np.concatenate(parts_lead)


@pytest.mark.parametrize("seed", [3, 17, 40])
def test_dynamic_equation_transport_matches_job_loop(seed, monkeypatch):
    cfg = ScenarioConfig(
        interarrival=Exponential(1.1),
        joint=ProductJoint(Uniform(0.0, 2.0), Exponential(0.5)),
        horizon=30.0,
        snapshot_times=(0.0, 5.0, 5.0, 12.5, 12.5, 30.0),
        seed=seed,
        initial_jobs=((2.0, 1.0), (0.5, -3.0), (4.0, 0.0)),
    )
    out = run(cfg)
    # quadrant_distance handed back unscored: the call returns the transported state
    monkeypatch.setattr(state_checks, "quadrant_distance", lambda transported, snap, grid: transported)
    pairs = [(0.0, 5.0), (5.0, 7.5), (0.0, 30.0), (12.5, 17.5), (5.0, 25.0)]
    for t, h in pairs:
        res, lead = _transported_by_loop(out, t, h)
        m = verify_dynamic_equation(out, t, h, default_grid())
        assert m.residuals.tobytes() == res.tobytes(), (seed, t, h)
        assert m.leads.tobytes() == lead.tobytes(), (seed, t, h)
        assert m.weights.tobytes() == np.ones(res.size).tobytes()


def test_snapshot_lookup_errors():
    out = run(two_initial_jobs())
    with pytest.raises(ConfigError):
        out.snapshot_at(2.7)


def test_config_validation():
    with pytest.raises(ConfigError):
        ScenarioConfig(interarrival=Exponential(1.0), joint=MM1, horizon=0.0)
    with pytest.raises(ConfigError):
        ScenarioConfig(
            interarrival=Exponential(1.0), joint=MM1, horizon=1.0, snapshot_times=(2.0,)
        )
    with pytest.raises(ConfigError):
        ScenarioConfig(
            interarrival=Exponential(1.0),
            joint=MM1,
            horizon=1.0,
            initial_jobs=((0.0, 1.0),),
        )


def test_workload_snapshot_agrees_with_path():
    cfg = ScenarioConfig(
        interarrival=Exponential(1.0),
        joint=MM1,
        horizon=30.0,
        snapshot_times=(7.0, 19.0),
        seed=41,
    )
    out = run(cfg)
    p = out.path
    for t_snap, _, m in out.snapshots:
        idx = [i for i, t in enumerate(p.times) if t == t_snap]
        assert idx, "snapshot instants must be path events"
        assert abs(mass_moment_chi(m) - p.w_post[idx[-1]]) <= 1e-9
        assert m.count == int(p.z[idx[-1]])


def test_memory_per_admitted_job():
    # the five job columns hold float64s: this r = 160 M/M/1 sweep cell of
    # about 26k jobs (T = 1, so that the traced run takes under a second)
    # peaked at 94 bytes per admitted job, where columns of 32-byte Python
    # floats took 191
    sweep = SweepConfig(
        joint=MM1,
        alpha=1.0,
        gamma=0.5,
        r_values=(160.0,),
        T=1.0,
        snapshot_times=(0.25, 0.5, 0.75, 1.0),
        replications=1,
        seed_base=20260815,
    )
    cfg = build_scenario(sweep, 160.0, 0)
    run(cfg)  # imports made on first use stay out of the trace
    tracemalloc.start()
    try:
        out = run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = out.event_counts["arrival"]  # the cell has no initial jobs
    assert n > 20_000
    assert peak <= 120 * n, f"{peak / n:.0f} bytes per job"
    for col in out.job_columns:
        view = memoryview(col)
        assert (view.format, view.ndim, len(view)) == ("d", 1, n)


def test_path_replay_memory_per_event():
    # perfbench's cli_pipeline simulate scenario (r = 80, about 25k events):
    # the path put together from the replay's typed blocks peaked at 99
    # traced bytes per event, its log packed into typed columns at 108, and
    # a flat six-field list of Python objects at 213
    r = 80.0
    body = {
        "interarrival": {"kind": "exponential", "rate": 1.0 - 0.5 / r},
        "joint": {
            "kind": "product",
            "service": {"kind": "exponential", "rate": 1.0},
            "lead": {"kind": "exponential", "rate": 1.0 / r},
        },
        "horizon": 2.0 * r * r,
        "snapshot_times": [2.0 * r * r * k / 4.0 for k in (1, 2, 3, 4)],
        "seed": 20260815,
        "r": r,
    }
    out = run(parse_scenario(body))
    tracemalloc.start()
    try:
        path = out.path
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(path) > 20_000
    assert peak <= 120 * len(path), f"{peak / len(path):.0f} bytes per event"
    assert path.z.dtype == np.int64 and path.times.dtype == path.s.dtype == np.float64



def _busy_rate_over_the_path(p) -> float:
    """The busy-rate check over the whole path, as it was defined before
    the replay took it a block at a time."""
    dt = p.times[1:] - p.times[:-1]
    err = np.abs(p.w_pre[1:] - p.w_post[:-1] + dt)
    busy = p.z[:-1] >= 1
    return float(err[busy].max()) if busy.any() else 0.0


def _workload_check_over_the_path(out, p) -> float:
    """The largest gap between W at a snapshot and the exact sum of its residuals."""
    w = p.w_post[np.array(p.kinds) == "snapshot"]
    return max((abs(x - math.fsum(m.residuals.tolist())) for x, (_, _, m) in zip(w.tolist(), out.snapshots)), default=0.0)


def test_replay_blocks_leave_the_whole_path_checks(monkeypatch):
    # initial jobs, a first gap, snapshots at 0 and at the horizon and
    # stretches with the system empty (mean gap 2, mean service 1); event
    # counts below, at and above one replay block, and the real block size
    # over more than two blocks with a ragged last one
    cfg = ScenarioConfig(
        interarrival=Exponential(0.5),
        joint=ProductJoint(Exponential(1.0), Uniform(0.0, 2.0)),
        horizon=5000.0,
        snapshot_times=(0.0, 0.0, 2500.0, 5000.0),
        seed=8,
        initial_jobs=((1.5, -0.5), (0.25, 2.0)),
        first_interarrival=Deterministic(0.3),
    )
    whole = run(cfg).path
    n = len(whole)
    assert n > 2 * engine._REPLAY_ROWS and n % engine._REPLAY_ROWS
    assert 0 in whole.z[1:-1] and whole.kinds.count("snapshot") == 4
    want = _busy_rate_over_the_path(whole), _workload_check_over_the_path(run(cfg), whole)
    assert want[0] > 0.0
    for rows in (1, 7, n // 3, n - 1, n, n + 1, engine._REPLAY_ROWS):
        monkeypatch.setattr(engine, "_REPLAY_ROWS", rows)
        checks_first, path_first = run(cfg), run(cfg)
        assert (busy_rate_check(checks_first), checks_first.workload_check) == want, rows
        assert "path" not in checks_first.__dict__  # the checks need no path
        blocks = list(path_first.path_blocks())
        assert [len(b) for b in blocks[:-1]] == [rows] * (len(blocks) - 1) and 0 < len(blocks[-1]) <= rows
        for out in (checks_first, path_first):
            p = out.path
            for name in ("times", "z", "w_pre", "w_post", "s"):
                assert np.array_equal(getattr(p, name), getattr(whole, name)), name
                assert np.array_equal(np.concatenate([getattr(b, name) for b in blocks]), getattr(whole, name))
            assert p.kinds == whole.kinds == sum((b.kinds for b in blocks), ())
            assert (busy_rate_check(out), out.workload_check) == want, rows
