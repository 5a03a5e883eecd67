"""State-space-collapse experiments over a heavy-traffic ladder.

A sweep fixes a limit triple (joint law, alpha, gamma) and runs the
event engine along a ladder of scaling parameters r.  The r-th system
slows the arrival rate to alpha * (1 - gamma / r), so r * (1 - rho_r)
equals gamma exactly, stretches sampled leads by r, starts empty, and
runs to the unscaled horizon r^2 * T with snapshots at r^2 * t.

Each snapshot is diffusion-scaled and compared, over a fixed quadrant
grid, against the invariant-family member with the observed mass: the
collapse error.  The same matrices give the lead-profile error (their
x = 0 row).  Per snapshot the harness also records the scaled workload,
the fraction of mass already past its deadline, and a KS statistic
comparing scaled sojourns harvested from a post-snapshot window against
the sojourn limit law at the observed mass.

``run_sweep`` executes all (r, replication) cells, optionally on a
process pool; rows are assembled in a fixed order so reports are
byte-identical for any worker count.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields
from functools import partial
from itertools import product, repeat

import numpy as np

from .distributions import (
    Deterministic,
    Exponential,
    JointDistribution,
    ScalarDistribution,
    Uniform,
    check_assumptions,
    to_spec,
)
from .engine import ScenarioConfig, SimOutput, run
from .errors import ConfigError, SimulationError
from .manifold import ht_params, lift, sojourn_limit_cdf
from .measures import (
    PointMeasure,
    QuadrantGrid,
    default_grid,
    grid_quadrant_masses,
    mass_moment_chi,
    scale_diffusion,
)

__all__ = [
    "SweepConfig",
    "SweepRow",
    "SojournSample",
    "CollapseReport",
    "build_scenario",
    "lateness_fraction",
    "sojourn_snapshot_experiment",
    "run_sweep",
]

_INTERARRIVAL_KINDS = ("exponential", "deterministic", "uniform")


@dataclass(frozen=True)
class SweepConfig:
    """Ladder experiment over scaling parameters r.

    T and snapshot_times are in scaled (limit) time; sojourn_window is
    an unscaled duration appended after each snapshot for harvesting
    departures.  The joint law must be admissible for alpha.
    """

    joint: JointDistribution
    alpha: float
    gamma: float
    r_values: tuple[float, ...]
    T: float
    snapshot_times: tuple[float, ...]
    replications: int
    seed_base: int
    sojourn_window: float = 300.0
    interarrival_kind: str = "exponential"
    grid: QuadrantGrid = field(default_factory=default_grid)

    def __post_init__(self):
        if not (self.gamma > 0.0 and math.isfinite(self.gamma)):
            raise ConfigError(f"gamma must be positive, got {self.gamma}")
        rv = tuple(float(r) for r in self.r_values)
        if not rv or any(not (r > self.gamma and math.isfinite(r)) for r in rv):
            raise ConfigError("every r must exceed gamma (else the prelimit is overloaded)")
        if len(set(rv)) < len(rv):  # a repeated r would run and count its cells twice
            raise ConfigError(f"r values must be distinct, got {list(rv)}")
        object.__setattr__(self, "r_values", rv)
        if not (self.T > 0.0 and math.isfinite(self.T)):
            raise ConfigError(f"T must be positive, got {self.T}")
        ts = tuple(float(t) for t in self.snapshot_times)
        if not ts or any(not (0.0 < t <= self.T) for t in ts) or any(a >= b for a, b in zip(ts, ts[1:])):
            raise ConfigError("snapshot times must be strictly increasing and lie in (0, T]")
        object.__setattr__(self, "snapshot_times", ts)
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        if self.seed_base < 0:
            raise ConfigError(f"seed_base must be >= 0, got {self.seed_base}")
        if not (self.sojourn_window >= 0.0):
            raise ConfigError(f"sojourn_window must be >= 0, got {self.sojourn_window}")
        if self.interarrival_kind not in _INTERARRIVAL_KINDS:
            raise ConfigError(
                f"interarrival_kind must be one of {_INTERARRIVAL_KINDS}, "
                f"got {self.interarrival_kind!r}"
            )
        failed = check_assumptions(self.joint, self.alpha)
        if failed:
            names = ", ".join(f"{name} ({detail})" for name, detail in failed.items())
            raise ConfigError(f"joint law inadmissible at alpha={self.alpha}: {names}")


def _interarrival_law(kind: str, rate: float) -> ScalarDistribution:
    if kind == "exponential":
        return Exponential(rate)
    if kind == "deterministic":
        return Deterministic(1.0 / rate)
    return Uniform(0.0, 2.0 / rate)


def _scenario_seed(seed_base: int, r: float, replication: int) -> int:
    r_bits = int(np.float64(r).view(np.uint64))
    ss = np.random.SeedSequence([seed_base, r_bits, replication])
    return int(ss.generate_state(1, np.uint64)[0])


def build_scenario(sweep: SweepConfig, r: float, replication: int) -> ScenarioConfig:
    """The r-th prelimit system for one replication: slowed arrivals,
    leads stretched by r, empty start, horizon r^2 T."""
    if not (r > sweep.gamma):
        raise ConfigError(f"r must exceed gamma={sweep.gamma}, got {r}")
    rate_r = sweep.alpha * (1.0 - sweep.gamma / r)
    return ScenarioConfig(
        interarrival=_interarrival_law(sweep.interarrival_kind, rate_r),
        joint=sweep.joint,
        horizon=r * r * sweep.T,
        snapshot_times=tuple(r * r * t for t in sweep.snapshot_times),
        seed=_scenario_seed(sweep.seed_base, r, replication),
        lead_scale=r,
        r=r,
    )


def lateness_fraction(scaled_snapshot: PointMeasure) -> float | None:
    """Fraction of snapshot mass already past its deadline (lead < 0);
    None for an empty snapshot."""
    total = scaled_snapshot.total_mass
    if total <= 0.0:
        return None
    return (total - scaled_snapshot.quadrant_mass(0.0, 0.0)) / total


@dataclass(frozen=True)
class SojournSample:
    r: float
    t: float
    n: int
    ks: float | None
    z: float
    flag: str  # ok | window_exceeds_horizon | empty_snapshot | no_departures
    #     | insufficient_data | no_service_law


def _ks_distance(samples: np.ndarray, nu: ScalarDistribution, z: float) -> float:
    """KS distance of the samples from the sojourn limit law at mass z."""
    s = np.sort(np.asarray(samples, dtype=float))
    n = s.size
    f = np.array(list(map(partial(sojourn_limit_cdf, nu, z), s.tolist())))
    steps = np.arange(n + 1) / n
    return float(max(np.max(steps[1:] - f), np.max(f - steps[:-1])))


def sojourn_snapshot_experiment(
    out: SimOutput, r: float, t: float, window: float, nu: ScalarDistribution
) -> SojournSample:
    """KS statistic of scaled sojourns against the limit law.

    Departures inside the unscaled window [r^2 t, r^2 t + window] give
    sojourns; each is divided by r and the empirical CDF is compared to
    the sojourn limit law evaluated at the scaled mass observed at t.
    """
    t_lo = r * r * t
    _, _, snap = out.snapshot_at(t_lo)
    z = snap.count / r
    t_hi = t_lo + window
    if t_hi > out.config.horizon * (1.0 + 1e-12):
        return SojournSample(r, t, 0, None, z, "window_exceeds_horizon")
    if z <= 0.0:
        return SojournSample(r, t, 0, None, z, "empty_snapshot")
    soj = out.sojourns_departing(t_lo, t_hi) / r
    if soj.size == 0:
        return SojournSample(r, t, 0, None, z, "no_departures")
    if soj.size < 20:
        # too few departures for a meaningful empirical CDF
        return SojournSample(r, t, int(soj.size), None, z, "insufficient_data")
    ks = _ks_distance(soj, nu, z)
    return SojournSample(r, t, int(soj.size), ks, z, "ok")


# ---------------------------------------------------------------------------
# sweep execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    r: float
    replication: int
    t: float
    n_jobs: int
    z_scaled: float
    w_scaled: float
    collapse_error: float
    lead_profile_error: float
    lateness_fraction: float | None
    sojourn_n: int
    sojourn_ks: float | None
    sojourn_flag: str


@dataclass(frozen=True)
class CollapseReport:
    """``overlays`` holds (r, t, y, empirical, limit) rows: the empirical and
    limit lead survival at each grid y value (the x = 0 row), recorded for
    replication 0 of each (r, t)."""

    config: dict
    theory: dict
    rows: tuple[SweepRow, ...]
    overlays: tuple[tuple[float, float, float, float, float], ...]
    aggregates: dict

    def to_json_dict(self) -> dict:
        return {
            "config": self.config,
            "theory": self.theory,
            "aggregates": self.aggregates,
            "n_rows": len(self.rows),
        }


def _run_cell(sweep: SweepConfig, r_idx: int, replication: int) -> tuple[list[SweepRow], list[tuple]]:
    r = sweep.r_values[r_idx]
    out = run(build_scenario(sweep, r, replication))
    nu = getattr(sweep.joint, "service", None)  # empirical laws have no service marginal
    rows: list[SweepRow] = []
    overlays: list[tuple] = []
    ys = sweep.grid.y_values.tolist()
    for t in sweep.snapshot_times:
        _, _, snap = out.snapshot_at(r * r * t)
        scaled = scale_diffusion(snap, r) if snap.count else snap
        z = snap.count / r
        w = mass_moment_chi(scaled)
        emp = grid_quadrant_masses(scaled, sweep.grid)
        th = grid_quadrant_masses(lift(sweep.joint, sweep.alpha, z).quadrant, sweep.grid)
        diff = np.abs(emp - th)
        if nu is not None:
            sj = sojourn_snapshot_experiment(out, r, t, sweep.sojourn_window, nu)
        else:
            sj = SojournSample(r, t, 0, None, z, "no_service_law")
        rows.append(
            SweepRow(
                r=r,
                replication=replication,
                t=t,
                n_jobs=snap.count,
                z_scaled=z,
                w_scaled=w,
                collapse_error=float(diff.max()),
                lead_profile_error=float(diff[0, :].max()),
                lateness_fraction=lateness_fraction(scaled),
                sojourn_n=sj.n,
                sojourn_ks=sj.ks,
                sojourn_flag=sj.flag,
            )
        )
        if replication == 0:
            overlays += zip(repeat(r), repeat(t), ys, emp[0].tolist(), th[0].tolist())
    return rows, overlays


def _median(vals: list[float]) -> float | None:
    return float(np.median(vals)) if vals else None


def _quantile(vals: list[float], q: float) -> float | None:
    return float(np.quantile(vals, q)) if vals else None


def _slope_through_origin(zs: np.ndarray, ws: np.ndarray) -> float | None:
    denom = float(np.dot(ws, ws))
    if denom <= 0.0:
        return None
    return float(np.dot(zs, ws) / denom)


def _aggregate(sweep: SweepConfig, rows: tuple[SweepRow, ...]) -> dict:
    per_r = []
    per_r_t = []
    for r in sweep.r_values:
        r_rows = [row for row in rows if row.r == r]
        nonempty = [row for row in r_rows if row.n_jobs > 0]
        ce = [row.collapse_error for row in nonempty]
        le = [row.lead_profile_error for row in nonempty]
        zs = np.array([row.z_scaled for row in r_rows])
        ws = np.array([row.w_scaled for row in r_rows])
        ks = [row.sojourn_ks for row in r_rows if row.sojourn_ks is not None]
        late = [row.lateness_fraction for row in r_rows if row.lateness_fraction is not None]
        per_r.append(
            {
                "r": r,
                "n_rows": len(r_rows),
                "n_nonempty": len(nonempty),
                "median_collapse_error": _median(ce),
                "q25_collapse_error": _quantile(ce, 0.25),
                "q75_collapse_error": _quantile(ce, 0.75),
                "median_lead_profile_error": _median(le),
                "slope_through_origin": _slope_through_origin(zs, ws),
                "median_sojourn_ks": _median(ks),
                "median_lateness_fraction": _median(late),
                "mean_z_scaled": float(zs.mean()) if zs.size else None,
            }
        )
        for t in sweep.snapshot_times:
            t_rows = [row for row in r_rows if row.t == t]
            t_nonempty = [row.collapse_error for row in t_rows if row.n_jobs > 0]
            t_ks = [row.sojourn_ks for row in t_rows if row.sojourn_ks is not None]
            per_r_t.append(
                {
                    "r": r,
                    "t": t,
                    "n_nonempty": len(t_nonempty),
                    "median_collapse_error": _median(t_nonempty),
                    "median_sojourn_ks": _median(t_ks),
                    "median_sojourn_n": _median(
                        [float(row.sojourn_n) for row in t_rows if row.sojourn_ks is not None]
                    ),
                }
            )
    return {"per_r": per_r, "per_r_t": per_r_t}


def _json_value(v):
    return list(v) if isinstance(v, tuple) else v


def _grid_echo(grid: QuadrantGrid) -> dict:
    ys = ["-inf" if math.isinf(y) else float(y) for y in grid.y_values]
    return {"x_values": [float(x) for x in grid.x_values], "y_values": ys}


def run_sweep(sweep: SweepConfig, threads: int = 1) -> CollapseReport:
    """Execute every (r, replication) cell and assemble the report.

    threads > 1 fans cells out to a process pool of at most one worker
    per task and per CPU; row order, and hence serialized output, is
    independent of the worker count.
    """
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    r_idx, reps = zip(*product(range(len(sweep.r_values)), range(sweep.replications)))
    workers = min(threads, len(r_idx), os.cpu_count() or 1)
    if workers > 1:
        # imported here: the pool machinery loads multiprocessing, which a
        # single-process caller never needs
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

        chunk = max(1, len(r_idx) // (workers * 4))
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_run_cell, repeat(sweep), r_idx, reps, chunksize=chunk))
        except (BrokenExecutor, OSError) as exc:  # a worker died, or one could not start
            raise SimulationError(f"the sweep's worker pool failed: {exc}") from exc
    else:
        results = list(map(_run_cell, repeat(sweep), r_idx, reps))

    rows = tuple(row for cell_rows, _ in results for row in cell_rows)
    overlays = tuple(ov for _, cell_ovs in results for ov in cell_ovs)

    a = _interarrival_law(sweep.interarrival_kind, sweep.alpha).std()
    theory = ht_params(sweep.alpha, a, sweep.joint.service_std(), sweep.gamma)
    echo = {"joint": to_spec, "grid": _grid_echo}
    config_echo = {
        f.name: echo.get(f.name, _json_value)(getattr(sweep, f.name)) for f in fields(SweepConfig)
    }
    return CollapseReport(
        config=config_echo,
        theory=theory,
        rows=rows,
        overlays=overlays,
        aggregates=_aggregate(sweep, rows),
    )
