"""Event-driven processor-sharing queue with soft deadlines.

Single server, unit total rate, egalitarian processor sharing: with Z
jobs present each receives service at rate 1/Z.  Job i arrives at U_i
with service requirement v_i and initial lead l_i; its deadline is
U_i + l_i but service continues regardless (deadlines are soft, jobs
leave only when their residual service hits zero).

The engine tracks the cumulative per-job service

    S(t) = int_0^t 1/Z(s) ds   (integrand 0 while the system is empty),

which is what every job present receives per unit of time.  A job
arriving when the integral reads S_a departs exactly when S reaches
S_a + v, so the next departure is always the smallest such target in a
heap and the clock can jump event to event:

    t_dep = clock + Z * (min target - S).

At a departure S is set to the target exactly, which keeps residuals
(target - S) of the remaining jobs consistent to machine precision.
Simultaneous events are ordered departures, then arrivals, then
snapshots, then the horizon stop; ties within a class go by job id.

A snapshot at time t is the point measure {(target_i - S, deadline_i - t)}
over jobs still in service, the state descriptor the limit theory
speaks about.  The path log keeps (t, kind, Z, W, S) at every event
with the workload W = sum of residuals refreshed by exact summation,
so conservation checks need no replay.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from math import fsum

import numpy as np

from .distributions import JointDistribution, ScalarDistribution
from .errors import ConfigError, SimulationError
from .measures import PointMeasure, QuadrantGrid, grid_quadrant_masses

__all__ = [
    "ScenarioConfig",
    "JobRecord",
    "PathLog",
    "SimOutput",
    "TrafficStream",
    "run",
    "busy_rate_check",
    "verify_dynamic_equation",
]


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation run of the processor-sharing queue.

    interarrival drives a renewal arrival stream on (0, horizon];
    first_interarrival, when set, replaces the first gap only (handy
    for placing a deterministic first arrival).  joint samples the
    (service, lead) pair per arrival; sampled leads are multiplied by
    lead_scale (the r-th prelimit system stretches leads by r).
    initial_jobs are literal (service, lead) pairs present at time 0
    and are not rescaled.
    """

    interarrival: ScalarDistribution
    joint: JointDistribution
    horizon: float
    snapshot_times: tuple[float, ...] = ()
    seed: int = 0
    lead_scale: float = 1.0
    first_interarrival: ScalarDistribution | None = None
    initial_jobs: tuple[tuple[float, float], ...] = ()
    r: float = 1.0
    label: str = ""

    def __post_init__(self):
        if not (self.horizon > 0.0 and math.isfinite(self.horizon)):
            raise ConfigError(f"horizon must be positive and finite, got {self.horizon}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.interarrival.mean() <= 0.0:
            raise ConfigError("interarrival law must have positive mean")
        if not (self.lead_scale > 0.0 and math.isfinite(self.lead_scale)):
            raise ConfigError(f"lead_scale must be positive, got {self.lead_scale}")
        snaps = tuple(float(t) for t in self.snapshot_times)
        if any(not (0.0 <= t <= self.horizon) for t in snaps):
            raise ConfigError("snapshot times must lie within [0, horizon]")
        if list(snaps) != sorted(snaps):
            raise ConfigError("snapshot times must be nondecreasing")
        object.__setattr__(self, "snapshot_times", snaps)
        init = tuple((float(v), float(l)) for v, l in self.initial_jobs)
        if any(not (v > 0.0 and math.isfinite(v)) for v, _ in init):
            raise ConfigError("initial job services must be positive and finite")
        if any(not math.isfinite(l) for _, l in init):
            raise ConfigError("initial job leads must be finite")
        object.__setattr__(self, "initial_jobs", init)

    @property
    def arrival_rate(self) -> float:
        return 1.0 / self.interarrival.mean()


@dataclass
class JobRecord:
    """One job's ledger entry; departure_time stays None if it is still
    in service at the horizon."""

    job_id: int
    arrival_time: float
    service_req: float
    initial_lead: float
    service_offset: float  # value of S when the job entered
    target: float  # service_offset + service_req; departs when S hits this
    deadline: float  # arrival_time + initial_lead
    departure_time: float | None = None

    @property
    def sojourn(self) -> float | None:
        if self.departure_time is None:
            return None
        return self.departure_time - self.arrival_time

    @property
    def lateness(self) -> float | None:
        if self.departure_time is None:
            return None
        return max(0.0, self.departure_time - self.deadline)


@dataclass
class EngineState:
    """Mutable clock state while a run is in flight."""

    clock: float = 0.0
    service_integral: float = 0.0
    active: list[tuple[float, int]] = field(default_factory=list)  # heap of (target, id)

    @property
    def z(self) -> int:
        return len(self.active)

    def workload(self) -> float:
        # exact summation; a job at its departure instant contributes 0.0
        return fsum(t - self.service_integral for t, _ in self.active)


@dataclass(frozen=True)
class PathLog:
    """Event-indexed path: state just after each event."""

    times: np.ndarray
    kinds: tuple[str, ...]
    z: np.ndarray  # population on the interval following the event
    w_pre: np.ndarray  # workload just before the event
    w_post: np.ndarray  # workload just after
    s: np.ndarray  # cumulative per-job service

    def __len__(self) -> int:
        return int(self.times.size)


class TrafficStream:
    """Lazily samples (arrival_time, service, scaled lead) in a fixed
    draw order (gap, then the joint pair), shared by the event engine
    and the brute-force reference so both see identical traffic."""

    def __init__(self, config: ScenarioConfig, rng: np.random.Generator):
        self._config = config
        self._rng = rng
        self._clock = 0.0
        self._first = True

    def next(self) -> tuple[float, float, float]:
        cfg = self._config
        gap_law = cfg.first_interarrival if (self._first and cfg.first_interarrival) else cfg.interarrival
        self._first = False
        gap = gap_law.sample(self._rng)
        if not (math.isfinite(gap) and gap >= 0.0):
            raise SimulationError(f"sampled interarrival {gap!r} is not a nonnegative real")
        self._clock += gap
        v, l = cfg.joint.sample(self._rng)
        if not (math.isfinite(v) and v > 0.0):
            raise SimulationError(
                f"sampled service {v!r} at t={self._clock} is not strictly positive"
            )
        if not math.isfinite(l):
            raise SimulationError(f"sampled lead {l!r} at t={self._clock} is not finite")
        return self._clock, v, cfg.lead_scale * l


@dataclass(frozen=True)
class SimOutput:
    config: ScenarioConfig
    jobs: tuple[JobRecord, ...]
    snapshots: tuple[tuple[float, float, PointMeasure], ...]  # (t, S at t, state)
    path: PathLog

    def departures(self) -> list[JobRecord]:
        done = [j for j in self.jobs if j.departure_time is not None]
        done.sort(key=lambda j: (j.departure_time, j.job_id))
        return done

    def snapshot_at(self, t: float) -> tuple[float, float, PointMeasure]:
        """(time, S, measure) of the recorded snapshot nearest to t;
        errors unless it matches to within 1e-9."""
        if not self.snapshots:
            raise ConfigError("run recorded no snapshots")
        times = [s[0] for s in self.snapshots]
        i = min(
            range(len(times)), key=lambda k: (abs(times[k] - t), times[k])
        )
        if abs(times[i] - t) > 1e-9 * max(1.0, abs(t)):
            raise ConfigError(f"no snapshot recorded at t={t}; nearest is {times[i]}")
        return self.snapshots[i]


_PRIORITY = {"departure": 0, "arrival": 1, "snapshot": 2, "end": 3}


def run(config: ScenarioConfig) -> SimOutput:
    """Simulate one scenario to its horizon."""
    rng = np.random.default_rng(config.seed)
    stream = TrafficStream(config, rng)
    state = EngineState()
    jobs: list[JobRecord] = []

    for v, l in config.initial_jobs:
        rec = JobRecord(len(jobs), 0.0, v, l, 0.0, v, l)
        jobs.append(rec)
        heapq.heappush(state.active, (rec.target, rec.job_id))

    next_arrival = stream.next()
    snap_times = config.snapshot_times
    snap_idx = 0
    snapshots: list[tuple[float, float, PointMeasure]] = []

    times: list[float] = []
    kinds: list[str] = []
    zs: list[int] = []
    w_pre: list[float] = []
    w_post: list[float] = []
    s_vals: list[float] = []

    def record(kind: str, before: float, after: float) -> None:
        times.append(state.clock)
        kinds.append(kind)
        zs.append(state.z)
        w_pre.append(before)
        w_post.append(after)
        s_vals.append(state.service_integral)

    w0 = state.workload()
    record("init", w0, w0)

    while True:
        heap = state.active
        candidates: list[tuple[float, int, str]] = [(config.horizon, _PRIORITY["end"], "end")]
        if heap:
            t_dep = state.clock + state.z * (heap[0][0] - state.service_integral)
            candidates.append((max(t_dep, state.clock), _PRIORITY["departure"], "departure"))
        if next_arrival[0] <= config.horizon:
            candidates.append((next_arrival[0], _PRIORITY["arrival"], "arrival"))
        if snap_idx < len(snap_times):
            candidates.append((snap_times[snap_idx], _PRIORITY["snapshot"], "snapshot"))
        t_next, _, kind = min(candidates)
        t_next = max(t_next, state.clock)

        if kind == "departure":
            state.service_integral = heap[0][0]  # exact landing on the target
        elif heap and t_next > state.clock:
            advanced = state.service_integral + (t_next - state.clock) / state.z
            # drift may not overshoot the nearest target; equality leaves a
            # zero-residual job that departs in the following zero-dt event
            state.service_integral = min(advanced, heap[0][0])
        state.clock = t_next

        before = state.workload()
        if kind == "departure":
            _, jid = heapq.heappop(heap)
            jobs[jid].departure_time = state.clock
            record(kind, before, before)
        elif kind == "arrival":
            u, v, l = next_arrival
            rec = JobRecord(
                len(jobs), u, v, l, state.service_integral, state.service_integral + v, u + l
            )
            jobs.append(rec)
            heapq.heappush(heap, (rec.target, rec.job_id))
            record(kind, before, before + v)
            next_arrival = stream.next()
        elif kind == "snapshot":
            snapshots.append(
                (state.clock, state.service_integral, _snapshot_measure(state, jobs))
            )
            snap_idx += 1
            record(kind, before, before)
        else:
            record(kind, before, before)
            break

    return SimOutput(
        config=config,
        jobs=tuple(jobs),
        snapshots=tuple(snapshots),
        path=PathLog(
            times=np.array(times),
            kinds=tuple(kinds),
            z=np.array(zs, dtype=int),
            w_pre=np.array(w_pre),
            w_post=np.array(w_post),
            s=np.array(s_vals),
        ),
    )


def _snapshot_measure(state: EngineState, jobs: list[JobRecord]) -> PointMeasure:
    # a job whose residual has just hit zero belongs to the departure at
    # this same instant, not to the right-continuous state
    entries = sorted(
        (jid, target - state.service_integral)
        for target, jid in state.active
        if target - state.service_integral > 0.0
    )
    res = np.array([r for _, r in entries])
    leads = np.array([jobs[jid].deadline - state.clock for jid, _ in entries])
    return PointMeasure(res, leads, np.ones(res.size))


def busy_rate_check(out: SimOutput) -> float:
    """Max over busy inter-event intervals of |delta W + delta t|.

    With Z >= 1 on an interval the total service rate is 1, so the
    workload must drain at exactly unit rate between events.
    """
    p = out.path
    if len(p) < 2:
        return 0.0
    dt = p.times[1:] - p.times[:-1]
    err = np.abs(p.w_pre[1:] - p.w_post[:-1] + dt)
    busy = p.z[:-1] >= 1
    return float(err[busy].max()) if busy.any() else 0.0


def verify_dynamic_equation(
    out: SimOutput, t: float, h: float, grid: QuadrantGrid
) -> float:
    """Residual of the state transport identity between two snapshots.

    The state at t + h must equal the state at t translated by the
    accrued per-job service and by h in the lead coordinate (dropping
    jobs whose residual is exhausted), plus the arrivals of (t, t + h]
    similarly aged.  Returns the max quadrant-mass discrepancy on the
    grid; both t and t + h must be recorded snapshot times.
    """
    if h <= 0.0:
        raise ConfigError(f"window must be positive, got h={h}")
    t0, s0, snap0 = out.snapshot_at(t)
    t1, s1, snap1 = out.snapshot_at(t + h)
    ds, dtm = s1 - s0, t1 - t0

    res = snap0.residuals - ds
    keep = res > 0.0
    parts_res = [res[keep]]
    parts_lead = [snap0.leads[keep] - dtm]

    for j in out.jobs:
        if t0 < j.arrival_time <= t1:
            rem = j.target - s1
            if rem > 0.0:
                parts_res.append(np.array([rem]))
                parts_lead.append(np.array([j.deadline - t1]))

    res_all = np.concatenate(parts_res)
    lead_all = np.concatenate(parts_lead)
    transported = PointMeasure(res_all, lead_all, np.ones(res_all.size))

    ma = grid_quadrant_masses(transported, grid)
    mb = grid_quadrant_masses(snap1, grid)
    return float(np.abs(ma - mb).max())
