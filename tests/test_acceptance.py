"""Acceptance gates, one test per numbered criterion.

Each test computes its statistic, records a single PASS/FAIL line (shown
in the terminal summary), and asserts the gate at its stated tolerance.

Gates 7 and 10 state r -> oo limits (state-space collapse, the sojourn
snapshot principle) against fixed thresholds, so they are asserted on the
r = 80 rung of the frozen ladder rather than at r = 20.  At r = 20 a
snapshot holds only r*z ~ 15-20 atoms, and i.i.d. clouds drawn from the
exact invariant measure already score above the 0.15 collapse gate; the
250-unit sojourn window spans 250/r^2 = 0.625 scaled time units there, so
the KS measures the queue-mass drift the window-start law ignores.  At
r = 80 both estimators can reach their unchanged thresholds.  Each gate
line prints the r = 20 and r = 80 medians next to a matched i.i.d.
control: the same estimator fed draws from the exact limit object at the
engine's own sample sizes (perfect convergence by construction).
"""

import json
import math
import statistics
from dataclasses import asdict

import numpy as np
import pytest
import quadrature_oracle
from conftest import record_gate
from naive_oracle import step_simulate

from psdl import (
    Deterministic,
    Exponential,
    HyperExponential,
    LinearJoint,
    PointMassZero,
    PointMeasure,
    ProductJoint,
    RBMSpec,
    ScenarioConfig,
    SweepConfig,
    Uniform,
    busy_rate_check,
    collapse_error,
    deadline_quantile,
    default_grid,
    lead_profile_product,
    lift,
    linear_deadline_profile,
    run,
    run_sweep,
    simulate,
    sojourn_limit_cdf,
    stationary_cdf,
    time_in_queue_profile,
    verify_dynamic_equation,
)
from psdl.harness import _ks_distance

MM1 = ProductJoint(Exponential(1.0), Exponential(1.0))
EXP1 = Exponential(1.0)

# frozen reference-seed ladder: r = 5/10/20 is shared by gates 7, 8, 9, 10
# and 12; gates 7 and 10 assert their thresholds on the r = 80 rung, where
# the estimator floors sit below them (module docstring)
SEED_BASE = 20260815
SNAPSHOTS = (0.5, 1.0, 1.5, 2.0)


def _mm1_sweep(r_values: tuple[float, ...] = (5.0, 10.0, 20.0)) -> SweepConfig:
    return SweepConfig(
        joint=MM1,
        alpha=1.0,
        gamma=0.5,
        r_values=r_values,
        T=2.0,
        snapshot_times=SNAPSHOTS,
        replications=40,
        seed_base=SEED_BASE,
        sojourn_window=250.0,
    )


@pytest.fixture(scope="module")
def mm1_report():
    return run_sweep(_mm1_sweep())


@pytest.fixture(scope="module")
def mm1_r80_report():
    # seeds derive from (seed_base, r, rep): these rows are exactly the
    # r = 80 rung of the ladder above
    return run_sweep(_mm1_sweep(r_values=(80.0,)))


@pytest.fixture(scope="module")
def md1_report():
    # deterministic service: the workload-to-mass ratio doubles
    return run_sweep(
        SweepConfig(
            joint=ProductJoint(Deterministic(1.0), Exponential(1.0)),
            alpha=1.0,
            gamma=0.5,
            r_values=(20.0,),
            T=2.0,
            snapshot_times=SNAPSHOTS,
            replications=40,
            seed_base=SEED_BASE,
            sojourn_window=250.0,
        )
    )


def _gate(n: int, name: str, ok: bool, detail: str) -> None:
    line = f"CRITERION {n:2d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    record_gate(line)
    print(line)
    assert ok, line


# --- 1: engine exactness ---------------------------------------------------


def test_criterion_01_engine_exactness():
    # two initial jobs (2, 3), no arrivals: departures at 4 and 5
    out = run(
        ScenarioConfig(
            interarrival=Deterministic(100.0),
            joint=MM1,
            horizon=6.0,
            seed=1,
            initial_jobs=((2.0, 1.0), (3.0, 4.0)),
        )
    )
    dep = sorted(j.departure_time for j in out.departures())
    # residual-1 job plus a size-1 arrival at t=0.5: departures at 1.5 and 2
    out2 = run(
        ScenarioConfig(
            interarrival=Deterministic(100.0),
            joint=ProductJoint(Deterministic(1.0), Deterministic(10.0)),
            horizon=3.0,
            seed=1,
            initial_jobs=((1.0, 5.0),),
            first_interarrival=Deterministic(0.5),
        )
    )
    dep2 = sorted(j.departure_time for j in out2.departures())
    trace_err = max(
        abs(a - b) for a, b in zip(dep + dep2, (4.0, 5.0, 1.5, 2.0))
    )

    horizon = 1e3
    busy = 0.0
    for seed in range(50):
        cfg = ScenarioConfig(
            interarrival=Exponential(0.9), joint=MM1, horizon=horizon, seed=seed
        )
        busy = max(busy, busy_rate_check(run(cfg)))

    ok = (
        len(dep) == 2
        and len(dep2) == 2
        and trace_err <= 1e-9
        and busy <= 1e-9 * horizon
    )
    _gate(
        1,
        "engine exactness",
        ok,
        f"hand-trace max departure error {trace_err:.2e}; "
        f"busy-rate residual max {busy:.2e} over 50 scenarios (cap 1.0e-06)",
    )


# --- 2: state transport identity -------------------------------------------


def test_criterion_02_dynamic_equation():
    rng = np.random.default_rng(42)
    grid = default_grid()
    snaps = tuple(np.linspace(0.0, 40.0, 11))
    worst = 0.0
    for k in range(20):
        lam = 0.5 + 0.7 * rng.uniform()
        mu = 0.8 + 0.8 * rng.uniform()
        lead = Exponential(1.0) if k % 2 == 0 else Uniform(0.0, 2.0)
        cfg = ScenarioConfig(
            interarrival=Exponential(lam),
            joint=ProductJoint(Exponential(mu), lead),
            horizon=40.0,
            snapshot_times=snaps,
            seed=1000 + k,
        )
        out = run(cfg)
        for _ in range(20):
            i, j = sorted(rng.choice(len(snaps), size=2, replace=False))
            worst = max(
                worst,
                verify_dynamic_equation(out, snaps[i], snaps[j] - snaps[i], grid),
            )
    ok = worst <= 1e-9
    _gate(
        2,
        "dynamic-equation self-check",
        ok,
        f"max quadrant discrepancy {worst:.2e} over 20 scenarios x 20 (t, h) pairs (cap 1.0e-09)",
    )


# --- 3: naive oracle ---------------------------------------------------------


def test_criterion_03_naive_oracle():
    services = [
        Exponential(1.0),
        Uniform(0.5, 1.5),
        Deterministic(1.0),
        HyperExponential((0.5, 0.5), (0.5, 2.0)),
    ]
    horizon = 8.0
    accepted = 0
    seed = 0
    worst = 0.0
    sets_ok = True
    while accepted < 25 and seed < 500:
        cfg = ScenarioConfig(
            interarrival=Exponential(1.0),
            joint=ProductJoint(services[seed % len(services)], EXP1),
            horizon=horizon,
            snapshot_times=(horizon,),
            seed=3000 + seed,
        )
        seed += 1
        out = run(cfg)
        if not (1 <= len(out.jobs) <= 20):
            continue
        deps = {j.job_id: j.departure_time for j in out.departures()}
        # keep scenarios whose departures are resolvable at the step size:
        # nothing finishing within 0.01 of the horizon, either side of it
        _, _, snap = out.snapshot_at(horizon)
        if deps and min(horizon - t for t in deps.values()) <= 0.01:
            continue
        if snap.residuals.size and snap.residuals.min() <= 0.01:
            continue
        accepted += 1
        ref = step_simulate(cfg, dt=1e-4)
        sets_ok = sets_ok and set(ref) == set(deps)
        for job_id, t in deps.items():
            if job_id in ref:
                worst = max(worst, abs(ref[job_id] - t))
    ok = accepted == 25 and sets_ok and worst <= 1e-3
    _gate(
        3,
        "naive-oracle equivalence",
        ok,
        f"{accepted} scenarios; departed sets {'match' if sets_ok else 'differ'}; "
        f"max |departure delta| {worst:.2e} (cap 1.0e-03)",
    )


# --- 4: mass law -------------------------------------------------------------


def test_criterion_04_mass_law():
    families = [
        ProductJoint(EXP1, PointMassZero()),
        ProductJoint(EXP1, EXP1),
        ProductJoint(EXP1, Deterministic(1.0)),
        LinearJoint(EXP1, 1.0),
        ProductJoint(Uniform(0.0, 2.0), Uniform(0.0, 3.0)),
    ]
    worst = 0.0
    for joint in families:
        for z in (0.0, 0.5, 1.0, 2.0, 5.0):
            m = lift(joint, 1.0, z)
            worst = max(worst, abs(m.eval(0.0, -math.inf) - z))
    ok = worst <= 1e-6
    _gate(
        4,
        "manifold mass law",
        ok,
        f"max |mass - z| {worst:.2e} over 5 families x z in {{0, 0.5, 1, 2, 5}} (cap 1.0e-06)",
    )


# --- 5: closed forms vs quadrature -------------------------------------------


def test_criterion_05_closed_vs_quadrature():
    rng = np.random.default_rng(5)

    def zs(n, lo, hi):
        return lo + (hi - lo) * rng.uniform(size=n)

    def profile_err(nu, lam, z, y):
        quad = quadrature_oracle.lift(ProductJoint(nu, lam), 1.0, z)
        return abs(
            lead_profile_product(nu, lam, 1.0, z, y)
            - (quad.total_mass - quad.eval(0.0, y))
        )

    def tiq_err(nu, z, y):
        quad = quadrature_oracle.lift(ProductJoint(nu, PointMassZero()), 1.0, z)
        return abs(
            time_in_queue_profile(nu, z, y) - (quad.total_mass - quad.eval(0.0, -y))
        )

    def exp_case_err(z, y):
        auto = lift(ProductJoint(EXP1, EXP1), 1.0, z)
        quad = quadrature_oracle.lift(ProductJoint(EXP1, EXP1), 1.0, z)
        return abs(auto.eval(0.0, y) - quad.eval(0.0, y))

    def linear_err(z, y):
        quad = quadrature_oracle.lift(LinearJoint(EXP1, 1.0), 1.0, z)
        return abs(linear_deadline_profile(EXP1, 1.0, z, y) - quad.eval(0.0, y))

    fams = {
        "convolution": max(
            profile_err(Deterministic(1.0), EXP1, z, y)
            for z, y in zip(zs(50, 0.2, 4.0), zs(50, -0.5, 4.0))
        ),
        "time-in-queue": max(
            tiq_err(Uniform(0.0, 2.0), z, y)
            for z, y in zip(zs(50, 0.2, 4.0), zs(50, 0.0, 5.0))
        ),
        "exponential case": max(
            exp_case_err(z, y) for z, y in zip(zs(50, 0.2, 4.0), zs(50, -2.0, 4.0))
        ),
        "linear z<=c": max(
            linear_err(z, y) for z, y in zip(zs(50, 0.05, 1.0), zs(50, -1.5, 2.5))
        ),
        "linear z>c": max(
            linear_err(z, y) for z, y in zip(zs(50, 1.05, 3.0), zs(50, -1.5, 2.5))
        ),
        "uniform service": max(
            profile_err(Uniform(0.0, 2.0), EXP1, z, y)
            for z, y in zip(zs(50, 0.2, 4.0), zs(50, -2.0, 4.0))
        ),
    }
    worst = max(fams.values())
    ok = worst <= 1e-4
    _gate(
        5,
        "closed form vs quadrature",
        ok,
        "; ".join(f"{k} {v:.1e}" for k, v in fams.items()) + " (cap 1.0e-04 each)",
    )


# --- 6: zero lateness below threshold ----------------------------------------


def test_criterion_06_zero_lateness():
    worst = 0.0
    for nu in (EXP1, Uniform(0.0, 2.0)):
        for c in (1.0, 2.5):
            for frac in (0.1, 0.5, 1.0):
                z = frac * c
                late = z - linear_deadline_profile(nu, c, z, 0.0)
                worst = max(worst, abs(late))
                for y in (-3.0, -0.7, -1e-9):
                    worst = max(
                        worst, abs(linear_deadline_profile(nu, c, z, y) - z)
                    )
    ok = worst == 0.0
    _gate(
        6,
        "zero-lateness threshold",
        ok,
        f"late mass {worst:.1e} for z/c in {{0.1, 0.5, 1}} x 2 service laws x c in {{1, 2.5}} (must be exactly 0)",
    )


# --- 7/8: collapse ladder on the frozen sweep --------------------------------


def _per_r(report):
    return {e["r"]: e for e in report.aggregates["per_r"]}


def _control_rng(r: float) -> np.random.Generator:
    return np.random.default_rng([SEED_BASE, int(r)])


def _collapse_control(rows, r: float) -> float:
    """Median collapse error of i.i.d. clouds from the exact M/M/1 invariant
    measure, one per nonempty snapshot and matched to its atom count.

    The measure at mass z is sampled by drawing v ~ Gamma(2, 1) (service
    size-biased by itself), l ~ Exp(1) and U ~ Unif[0, z v], and placing an
    atom of weight 1/r at (v - U/z, l - U).  The cloud is handed to
    ``collapse_error`` unscaled (leads times r, unit weights), so it meets
    the same diffusion scaling and grid as an engine snapshot.
    """
    rng = _control_rng(r)
    grid = default_grid()
    errs = []
    for row in rows:
        n = row.n_jobs
        if n == 0:
            continue
        z = n / r
        v = rng.gamma(2.0, 1.0, n)
        lead = rng.exponential(1.0, n)
        u = rng.uniform(size=n)  # U = u z v
        cloud = PointMeasure(v * (1.0 - u), r * (lead - u * z * v), np.ones(n))
        errs.append(collapse_error(cloud, r, MM1, 1.0, grid))
    return statistics.median(errs)


def _sojourn_control(rows, r: float) -> float:
    """Median KS of i.i.d. draws from the exact sojourn limit law (z times an
    Exp(1) service), matched to each window's size and start mass."""
    rng = _control_rng(r)
    return statistics.median(
        _ks_distance(
            row.z_scaled * rng.exponential(1.0, row.sojourn_n),
            lambda y, z=row.z_scaled: sojourn_limit_cdf(EXP1, z, y),
        )
        for row in rows
    )


def test_criterion_07_collapse_ladder(mm1_report, mm1_r80_report):
    per_r = _per_r(mm1_report) | _per_r(mm1_r80_report)
    meds = [per_r[r]["median_collapse_error"] for r in (5.0, 10.0, 20.0, 80.0)]
    ctrl20 = _collapse_control([row for row in mm1_report.rows if row.r == 20.0], 20.0)
    ctrl80 = _collapse_control(mm1_r80_report.rows, 80.0)
    ladder_ok = all(a > b for a, b in zip(meds, meds[1:]))
    gate_ok = meds[-1] <= 0.15
    _gate(
        7,
        "state-space collapse ladder",
        ladder_ok and gate_ok,
        "median collapse error r=5/10/20/80 = "
        + "/".join(f"{m:.4f}" for m in meds)
        + f"; ladder {'decreasing' if ladder_ok else 'not decreasing'}; "
        f"matched i.i.d. control r=20/80 = {ctrl20:.4f}/{ctrl80:.4f}; "
        f"r=80 gate 0.15 {'met' if gate_ok else 'missed'}",
    )


def test_criterion_08_lead_profile_convergence(mm1_report):
    per_r = _per_r(mm1_report)
    meds = [per_r[r]["median_lead_profile_error"] for r in (5.0, 10.0, 20.0)]
    ladder_ok = meds[0] > meds[1] > meds[2]
    gate_ok = meds[2] <= 0.15
    _gate(
        8,
        "lead-profile convergence",
        ladder_ok and gate_ok,
        f"median profile error r=5/10/20 = {meds[0]:.4f}/{meds[1]:.4f}/{meds[2]:.4f}; "
        f"ladder {'decreasing' if ladder_ok else 'not decreasing'}; r=20 cap 0.15",
    )


# --- 9: one-dimensional collapse ----------------------------------------------


def test_criterion_09_slope(mm1_report, md1_report):
    s_mm1 = _per_r(mm1_report)[20.0]["slope_through_origin"]
    s_md1 = _per_r(md1_report)[20.0]["slope_through_origin"]
    ok_mm1 = abs(s_mm1 - 1.0) <= 0.10
    ok_md1 = abs(s_md1 - 2.0) <= 0.30
    _gate(
        9,
        "mass-to-workload slope",
        ok_mm1 and ok_md1,
        f"exp service: slope {s_mm1:.4f} vs 1 (cap 10%); "
        f"deterministic service: slope {s_md1:.4f} vs 2 (cap 15%)",
    )


# --- 10: sojourn snapshot -------------------------------------------------------


def _ks_rows(report, r: float):
    return [
        row
        for row in report.rows
        if row.r == r and row.t == 1.0 and row.sojourn_ks is not None
    ]


def test_criterion_10_snapshot_principle(mm1_report, mm1_r80_report):
    rows20 = _ks_rows(mm1_report, 20.0)
    rows80 = _ks_rows(mm1_r80_report, 80.0)
    ks20 = statistics.median(row.sojourn_ks for row in rows20)
    ks80 = statistics.median(row.sojourn_ks for row in rows80)
    med_n = statistics.median(row.sojourn_n for row in rows80)
    ctrl20 = _sojourn_control(rows20, 20.0)
    ctrl80 = _sojourn_control(rows80, 80.0)
    premise_ok = med_n >= 200
    gate_ok = ks80 <= 0.12
    _gate(
        10,
        "sojourn snapshot principle",
        premise_ok and gate_ok,
        f"median KS at t=1.0 r=20/80 = {ks20:.4f}/{ks80:.4f}; "
        f"matched i.i.d. control r=20/80 = {ctrl20:.4f}/{ctrl80:.4f}; "
        f"{len(rows80)} windows at r=80 (median window size {med_n:.0f}, "
        f"premise >= 200 {'met' if premise_ok else 'missed'}); "
        f"r=80 gate 0.12 {'met' if gate_ok else 'missed'}",
    )


# --- 11: reflected diffusion stationary law -------------------------------------


def test_criterion_11_rbm_stationary_law():
    spec = RBMSpec(drift=-1.0, variance=2.0)
    avgs = [simulate(spec, 1e4, 1e-3, seed).time_average() for seed in range(20)]
    mean = float(np.mean(avgs))
    mean_ok = abs(mean - 1.0) <= 0.05
    qs = np.linspace(0.01, 0.99, 25)
    rt = max(abs(stationary_cdf(spec, deadline_quantile(spec, q)) - q) for q in qs)
    rt_ok = rt <= 1e-12
    _gate(
        11,
        "reflected-diffusion stationary law",
        mean_ok and rt_ok,
        f"20-seed mean {mean:.4f} vs 1 (cap 5%); quantile round-trip error {rt:.1e} (cap 1.0e-12)",
    )


# --- 12: determinism --------------------------------------------------------------


def _report_bytes(rep) -> bytes:
    payload = dict(rep.to_json_dict())
    payload["rows"] = [asdict(row) for row in rep.rows]
    # one curve per (r, t), as the overlays were first serialized; the grid's
    # y values are in the config echo
    curves: dict = {}
    for r, t, _, e, l in rep.overlays:
        c = curves.setdefault((r, t), {"r": r, "t": t, "empirical": [], "limit": []})
        c["empirical"].append(e)
        c["limit"].append(l)
    payload["overlays"] = list(curves.values())
    return json.dumps(payload, sort_keys=True).encode()


def test_criterion_12_determinism(mm1_report):
    again = run_sweep(_mm1_sweep(), threads=2)
    a, b = _report_bytes(mm1_report), _report_bytes(again)
    ok = a == b
    _gate(
        12,
        "determinism across threads",
        ok,
        f"serialized report ({len(a)} bytes): threads 1 vs 2 "
        f"{'byte-identical' if ok else 'differ'}",
    )
