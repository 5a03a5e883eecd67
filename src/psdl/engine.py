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
speaks about.  The workload is

    W = sum of residuals = (sum of targets) - Z * S,

with the target sum kept as a compensated (Neumaier) running sum that
is reset to exactly 0 whenever the system empties.  An event therefore
costs O(log Z), the heap operation, instead of a sum over every job.
At each snapshot the exact sum of residuals is taken as a cross-check;
``SimOutput.workload_check`` is the largest gap seen.

The path log keeps (t, kind, Z, W before, W after, S) at every event,
so conservation checks need no replay.  It is kept only for callers
that read it: ``run(config)`` records it, while ``run(config,
path=False)``, as a sweep cell runs, skips it and every W it would
hold (W is then formed only at snapshots) and leaves
``SimOutput.path`` None.  Between events the targets and Z are fixed,
so the logged W falls by Z times the advance of S: the busy-rate check
still tests how S advances.  Event counts by kind and the largest Z
are counted in the loop either way.

Jobs are kept as per-job columns indexed by job id (arrival time,
service, lead, S on entry, departure time).  The columns are
``SimOutput``'s one record of the jobs; ``SimOutput.jobs`` is a
``JobRecord`` view of them, built on first read and cached beside them.

The heap holds bare targets: the loop never asks which job left.  Every
job present receives the same service S, so jobs leave in the order of
their targets, equal targets in job id order, as a heap of (target, job
id) pairs would pop them.  That order is the order of the target column
itself: S never decreases and equals each target as it is popped, and a
job enters with a target at least the S it finds, so no target pushed is
below one already popped, and one equal to it has a larger job id.
Every departure due by the horizon runs before the stop, so the
departed jobs are exactly those with target <= the final S.  The loop
therefore keeps one more column, each admitted job's target, and after
the loop the job ids of the departures, in departure order, are the
first (departure count) entries of a stable argsort of it.  A snapshot
reads the jobs in service from it as the entries above S.

An event makes no Python call besides the heap's.  Traffic arrives
through ``TrafficStream.refill`` in blocks of checked rows, which the
loop appends to the job columns and reads by index; a row that failed
its check raises only when the loop reaches it.  Departures run in an
inner loop against the next other event (the next arrival, snapshot or
the horizon, whichever is first).  The compensated add is written out
in the arrival and departure branches, the same operations in the same
order as ``_neumaier_add``.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import fsum, isfinite

import numpy as np

from .distributions import JointDistribution, ScalarDistribution
from .errors import ConfigError, SimulationError
from .measures import PointMeasure, QuadrantGrid, quadrant_distance

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


@dataclass(slots=True)
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


_BLOCK_ROWS = 256  # rows of a scalar block, and of the first vectorised one
_MAX_BLOCK_ROWS = 4096  # vectorised blocks double up to this


def _row_error(gap: float, v: float, l: float, t: float) -> SimulationError:
    """The error reading the failed row (gap, service, scaled lead)
    raises; t is the arrival time the gap gives."""
    if not (isfinite(gap) and gap >= 0.0):
        return SimulationError(f"sampled interarrival {gap!r} is not a nonnegative real")
    if not (isfinite(v) and v > 0.0):
        return SimulationError(f"sampled service {v!r} at t={t} is not strictly positive")
    return SimulationError(f"sampled lead {l!r} at t={t} is not finite")


class TrafficStream:
    """Samples rows (arrival time, service, scaled lead) in a fixed draw
    order (gap, then the joint pair), shared by the event engine and the
    brute-force reference so both see identical traffic.

    Rows come in blocks through one path, ``refill``: ``run`` reads the
    blocks it returns by index, and ``next`` returns their rows one at a
    time.  When the interarrival law and both joint marginals are scaled
    standard exponentials, a refill after the first draws a block of
    rows as one (rows, 3) array of standard exponentials times the three
    scales.  numpy fills that array in the same order as the scalar draws
    and multiplies by the scale the same way, and arrival times are a
    cumulative sum over [clock, gaps...], which adds in sequence like
    ``clock += gap``; so the stream is bit for bit the scalar one.  Every
    row of the block is checked by vectorised tests; the numpy pass over
    a one-row block took about 20 us, so the first row of such traffic
    (``first_interarrival`` may replace its gap) is a scalar block of one.
    The first vectorised block has _BLOCK_ROWS rows and each later one
    twice the rows of the one before, up to _MAX_BLOCK_ROWS: a long run
    pays the fixed numpy cost per block less often, while a short one,
    such as an r = 5 sweep cell of about 45 rows, draws one block of
    _BLOCK_ROWS, not _MAX_BLOCK_ROWS rows it would never read.

    Other laws draw up to _BLOCK_ROWS rows per refill in one Python loop,
    each row gap first, then the joint pair, checked inline.  Such a
    block also ends at the first row past the horizon: ``run`` reads no
    further, and an r = 5 sweep cell of about 45 rows would otherwise
    draw 256.  Later refills go on from there, one row at a time once
    past the horizon, so the sequence ``next`` returns does not depend
    on where blocks end.  A vectorised block keeps all its rows, which it
    has already drawn.

    A row that fails its check (a gap that is not a nonnegative real, a
    service that is not positive and finite, a scaled lead that is not
    finite) ends its block.  Its error is kept and raised by the refill
    that would return that row, so a reader sees it exactly when stepping
    the scalar draws would: rows drawn ahead and never read raise nothing.
    """

    def __init__(self, config: ScenarioConfig, rng: np.random.Generator):
        self._config = config
        self._rng = rng
        self._clock = 0.0
        self._first = True
        gap_scale = config.interarrival.exponential_scale()
        joint_scales = config.joint.exponential_scales()
        self._scales = (
            None if gap_scale is None or joint_scales is None
            else np.array((gap_scale, *joint_scales))
        )
        self._rows = _BLOCK_ROWS  # rows of the next vectorised block
        self._error: SimulationError | None = None
        self._block: tuple[list[float], list[float], list[float]] = ([], [], [])
        self._pos = 0  # next row of _block that ``next`` returns

    def refill(self) -> tuple[list[float], list[float], list[float]]:
        """The next rows, at least one, as (arrival times, services,
        scaled leads); raises the error of a failed row in their place."""
        if self._error is not None:
            raise self._error
        cfg, rng = self._config, self._rng
        if self._first or self._scales is None:
            size = 1 if self._scales is not None else _BLOCK_ROWS
            gap_law = cfg.first_interarrival if (self._first and cfg.first_interarrival) else cfg.interarrival
            self._first = False
            gap_sample, next_gap, joint_sample = gap_law.sample, cfg.interarrival.sample, cfg.joint.sample
            clock, horizon, scale = self._clock, cfg.horizon, cfg.lead_scale
            times, vs, leads = [], [], []
            for _ in range(size):
                gap = gap_sample(rng)
                gap_sample = next_gap
                v, l = joint_sample(rng)
                t, l = clock + gap, scale * l
                if not (isfinite(gap) and gap >= 0.0 and isfinite(v) and v > 0.0 and isfinite(l)):
                    self._error = _row_error(gap, v, l, t)
                    if not times:
                        raise self._error
                    break
                clock = t
                times.append(t)
                vs.append(v)
                leads.append(l)
                if t > horizon:  # ``run`` reads no row after this one
                    break
            self._clock = clock
            return times, vs, leads
        size = self._rows
        self._rows = min(2 * size, _MAX_BLOCK_ROWS)
        rows = rng.standard_exponential(3 * size).reshape(-1, 3)
        with np.errstate(over="ignore", invalid="ignore"):  # a bad row fails its check below
            rows *= self._scales
            gaps, vs, leads = rows.T
            leads *= cfg.lead_scale  # in place, so the finiteness test sees the scaled lead
            ok = np.isfinite(rows).all(axis=1) & (gaps >= 0.0) & (vs > 0.0)
            times = np.cumsum(np.concatenate(((self._clock,), gaps)))[1:]
        n = size if ok.all() else int(ok.argmin())
        if n < size:
            self._error = _row_error(*rows[n].tolist(), float(times[n]))
            if n == 0:
                raise self._error
        self._clock = float(times[n - 1])
        return times[:n].tolist(), vs[:n].tolist(), leads[:n].tolist()

    def next(self) -> tuple[float, float, float]:
        """The next row: (arrival time, service, scaled lead)."""
        times, vs, leads = self._block
        i = self._pos
        if i == len(times):
            times, vs, leads = self._block = self.refill()
            i = 0
        self._pos = i + 1
        return times[i], vs[i], leads[i]


@dataclass(frozen=True)
class SimOutput:
    config: ScenarioConfig
    # per-job columns [arrival, service, lead, S on entry, departure (NaN
    # while in service)], indexed by job id: the one record of the jobs,
    # which ``jobs`` views.  The first four are lists, the departures an
    # array.  Listed ahead of the other arrays: fields are freed in order,
    # and freeing the jobs first left about 1 MB less resident after an
    # r = 80 ``psdl simulate`` followed by ``psdl rbm``.
    job_columns: list = field(repr=False, compare=False)
    snapshots: tuple[tuple[float, float, PointMeasure], ...]  # (t, S at t, state)
    path: PathLog | None  # None when run with path=False
    # largest |running W - exact fsum of residuals| over the snapshot instants
    workload_check: float
    # departure times in the order the jobs left (nondecreasing) and the
    # matching sojourns, for window queries by bisection
    departure_times: np.ndarray
    departure_sojourns: np.ndarray
    # events by kind (init, arrival, departure, snapshot, end), keys in
    # order of first appearance
    event_counts: dict[str, int]
    max_z: int  # largest number of jobs in the system over the run

    @cached_property
    def jobs(self) -> tuple[JobRecord, ...]:
        """One record per admitted job, in job id order, built from the
        columns on first read."""
        arr, svc, lead, off, dep = self.job_columns
        return tuple(
            JobRecord(i, u, v, l, s0, s0 + v, u + l, None if math.isnan(d) else d)
            for i, (u, v, l, s0, d) in enumerate(zip(arr, svc, lead, off, dep.tolist()))
        )

    def departures(self) -> list[JobRecord]:
        done = [j for j in self.jobs if j.departure_time is not None]
        done.sort(key=lambda j: (j.departure_time, j.job_id))
        return done

    def sojourns_departing(self, t_lo: float, t_hi: float) -> np.ndarray:
        """Sojourns of the jobs departing in [t_lo, t_hi], in departure order."""
        t = self.departure_times
        lo, hi = np.searchsorted(t, t_lo, "left"), np.searchsorted(t, t_hi, "right")
        return self.departure_sojourns[lo:hi]

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


def _neumaier_add(total: float, comp: float, x: float) -> tuple[float, float]:
    """Add x to the compensated sum total + comp."""
    t = total + x
    if abs(total) >= abs(x):
        comp += (total - t) + x
    else:
        comp += (x - t) + total
    return t, comp


def run(config: ScenarioConfig, *, path: bool = True) -> SimOutput:
    """Simulate one scenario to its horizon; ``path=False`` skips the
    path log, leaving ``SimOutput.path`` None."""
    stream = TrafficStream(config, np.random.default_rng(config.seed))
    init = config.initial_jobs
    n_init = z = max_z = len(init)
    # per-job columns indexed by job id; initial jobs enter at t = 0, S = 0.
    # Traffic rows join arr/svc/lead a block at a time, so those run ahead
    # of the admitted jobs until they are cut at the end.
    arr: list[float] = [0.0] * n_init
    svc: list[float] = [v for v, _ in init]
    lead: list[float] = [l for _, l in init]
    off: list[float] = [0.0] * n_init
    targets = array("d", svc)  # the target of each admitted job

    def pull() -> int:
        """Append the next traffic rows to the columns; their new length."""
        times, vs, leads = stream.refill()
        arr.extend(times)
        svc.extend(vs)
        lead.extend(leads)
        return len(arr)

    heap = list(svc)  # the targets of the jobs in service
    heapify(heap)
    tsum = tcomp = 0.0  # compensated sum of the heap targets
    for v in svc:
        tsum, tcomp = _neumaier_add(tsum, tcomp, v)

    horizon = config.horizon
    snap_times = config.snapshot_times
    snap_idx = 0
    t_snap = snap_times[0] if snap_times else math.inf
    snapshots: list[tuple[float, float, PointMeasure]] = []
    workload_check = 0.0
    dep_times: list[float] = []  # departure times in departure order
    kinds = ["init"]  # event kinds in order of first appearance
    clock = s = 0.0

    w0 = tsum + tcomp
    # flat event log, six fields per event: t, kind, Z after, W before, W after, S
    log = [clock, "init", n_init, w0, w0, s] if path else None
    k = n_init  # job id of the next traffic row
    n_rows = pull()
    t_arr = arr[k]  # past the horizon it never fires: t_ext stops there

    while True:
        # the next event that is not a departure: arrival, snapshot or end
        t_ext = t_arr if t_arr <= t_snap else t_snap
        if horizon < t_ext:
            t_ext = horizon

        # departures up to t_ext, ties going to the departure
        while z:
            top = heap[0]
            t_dep = clock + z * (top - s)
            if t_dep < clock:
                t_dep = clock
            if t_dep > t_ext:
                break
            s = top  # exact landing on the target
            clock = t_dep
            heappop(heap)
            if not dep_times:
                kinds.append("departure")
            dep_times.append(clock)
            z -= 1
            if z:
                # _neumaier_add(tsum, tcomp, -top), inlined; top > 0
                t1 = tsum - top
                if tsum >= top or tsum <= -top:
                    c1 = tcomp + ((tsum - t1) - top)
                else:
                    c1 = tcomp + ((-top - t1) + tsum)
            else:
                t1 = c1 = 0.0  # drop the rounding left by the finished busy period
            if log is not None:
                w_pre, w_post = (tsum + tcomp) - (z + 1) * s, (t1 + c1) - z * s
                log.extend((clock, "departure", z, w_pre, w_post, s))
            tsum, tcomp = t1, c1

        if z and t_ext > clock:
            # drift may not overshoot the nearest target; equality leaves a
            # zero-residual job that departs in the following zero-dt event
            s += (t_ext - clock) / z
            if s > top:
                s = top
        clock = t_ext

        if t_arr == t_ext:
            if k == n_init:
                kinds.append("arrival")
            if z == max_z:
                max_z = z + 1
            target = s + svc[k]
            heappush(heap, target)
            targets.append(target)
            off.append(s)
            # _neumaier_add(tsum, tcomp, target), inlined; target > 0
            t1 = tsum + target
            if tsum >= target or tsum <= -target:
                c1 = tcomp + ((tsum - t1) + target)
            else:
                c1 = tcomp + ((target - t1) + tsum)
            if log is not None:
                w_pre, w_post = (tsum + tcomp) - z * s, (t1 + c1) - (z + 1) * s
                log.extend((clock, "arrival", z + 1, w_pre, w_post, s))
            tsum, tcomp = t1, c1
            z += 1
            k += 1
            if k == n_rows:
                n_rows = pull()
            t_arr = arr[k]
            continue

        w_pre = (tsum + tcomp) - z * s
        if t_snap == t_ext:
            if not snapshots:
                kinds.append("snapshot")
            snapshots.append((clock, s, _snapshot_measure(targets, arr, lead, s, clock)))
            workload_check = max(workload_check, abs(w_pre - fsum(t - s for t in heap)))
            if log is not None:
                log.extend((clock, "snapshot", z, w_pre, w_pre, s))
            snap_idx += 1
            t_snap = snap_times[snap_idx] if snap_idx < len(snap_times) else math.inf
        else:
            kinds.append("end")
            if log is not None:
                log.extend((clock, "end", z, w_pre, w_pre, s))
            break

    for col in (arr, svc, lead):
        del col[k:]  # rows drawn past the last admitted arrival
    departure_times = np.array(dep_times, dtype=float)
    # free the float per departure before the arrays below are built: it
    # cut the traced peak of an r = 160 M/M/1 sweep cell by 1.5 MB
    dep_times.clear()
    # job ids in departure order: the departed jobs' targets, sorted
    departed = np.argsort(np.frombuffer(targets), kind="stable")[: departure_times.size]
    dep = np.full(k, np.nan)
    dep[departed] = departure_times
    counts = {
        "init": 1,
        "arrival": k - n_init,
        "departure": departure_times.size,
        "snapshot": len(snapshots),
        "end": 1,
    }
    return SimOutput(
        config=config,
        snapshots=tuple(snapshots),
        path=None if log is None else PathLog(
            times=np.array(log[0::6]),
            kinds=tuple(log[1::6]),
            z=np.array(log[2::6], dtype=int),
            w_pre=np.array(log[3::6]),
            w_post=np.array(log[4::6]),
            s=np.array(log[5::6]),
        ),
        workload_check=workload_check,
        departure_times=departure_times,
        departure_sojourns=departure_times - np.array(arr, dtype=float)[departed],
        event_counts={kind: counts[kind] for kind in kinds},
        max_z=max_z,
        job_columns=[arr, svc, lead, off, dep],
    )


def _snapshot_measure(
    targets: array, arr: list[float], lead: list[float], s: float, clock: float
) -> PointMeasure:
    """The jobs in service at a snapshot, in job id order.  A job whose
    residual has just hit zero belongs to the departure at this same
    instant, not to the right-continuous state."""
    # a view of the column: it must not outlive this call, or the loop's
    # next targets.append raises BufferError; indexing by ids copies
    column = np.frombuffer(targets)
    ids = np.flatnonzero(column > s)
    res = column[ids] - s
    leads = np.array([(arr[jid] + lead[jid]) - clock for jid in ids.tolist()], dtype=float)
    return PointMeasure(res, leads, np.ones(res.size))


def busy_rate_check(out: SimOutput) -> float:
    """Max over busy inter-event intervals of |delta W + delta t|.

    With Z >= 1 on an interval the total service rate is 1, so the
    workload must drain at exactly unit rate between events.
    """
    p = out.path
    if p is None:
        raise ConfigError("busy_rate_check needs a run that kept its path log")
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

    arr, svc, lead, off = (np.asarray(c, dtype=float) for c in out.job_columns[:4])
    new = (t0 < arr) & (arr <= t1)
    arr, svc, lead, off = arr[new], svc[new], lead[new], off[new]
    rem = (off + svc) - s1  # each arrival's target less S at t1
    left = rem > 0.0

    res_all = np.concatenate([res[keep], rem[left]])
    lead_all = np.concatenate([snap0.leads[keep] - dtm, ((arr + lead) - t1)[left]])
    transported = PointMeasure(res_all, lead_all, np.ones(res_all.size))

    return quadrant_distance(transported, snap1, grid)
