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
speaks about.  The workload W, the sum of residuals, is only a
self-check, and the loop does not pay for it: it records where the
events fell (per departure the job id of the next arrival, per snapshot
its complement) and S at the horizon.  ``SimOutput.path_blocks``
replays that record, each departure at its target (jobs leave in target
order, below), and keeps

    W = (sum of targets) - Z * S,

the target sum a compensated (Neumaier) running sum reset to exactly 0
whenever the system empties.  It logs (t, kind, Z, W before, W after, S)
per event in a flat list and yields it as a typed block (a ``PathLog``,
Z int64) every _REPLAY_ROWS events: the Python floats never build up, and
a reader taking the blocks in turn, as the CSV writer does, holds one
block, not the path, which ``path`` puts end to end.  The workload check
is the largest gap at a snapshot between W and the exact sum of its
residuals.  Between events the targets and Z are fixed, so the logged W
falls by Z times the advance of S: the busy-rate check tests how S
advances, a block at a time.  A finished replay caches both checks.

Jobs are kept as per-job float64 columns indexed by job id (arrival
time, service, lead, S on entry, departure time), at 8 bytes a value
where a Python float in a list costs 32.  The columns are
``SimOutput``'s one record of the jobs; ``SimOutput.jobs`` is a
``JobRecord`` view of them, built on first read and cached beside them.

The heap holds bare targets: the loop never asks which job left.  Every
job present receives the same service S, so jobs leave in the order of
their targets, equal targets in job id order, as a heap of (target, job
id) pairs would pop them.  That order is the order of the targets by job
id: S never decreases and equals each target as it is popped, and a
job enters with a target at least the S it finds, so no target pushed is
below one already popped, and one equal to it has a larger job id.
Every departure due by the horizon runs before the stop, so the
departed jobs are exactly those with target <= the final S.  A job's
target is its S on entry plus its service, the same IEEE add the loop
makes, so the loop keeps no target column: after the loop the job ids
of the departures, in departure order, are the first (departure count)
entries of a stable argsort of the sums of the two columns, and a
snapshot reads the jobs in service from those sums as the ones above S.

An event makes no Python call besides the heap's and list appends.
The loop appends each admitted job's S on entry, each departure time
and each mark to a plain list, and packs those into their ``array``
columns at every refill, before every snapshot and after the loop; so
the pending lists never hold more than about one traffic block.
Traffic arrives through ``TrafficStream.refill`` in blocks of checked
rows.  A block's arrival times and services come as lists, which the
loop reads by its index in the block, refilling when the index runs
past the end; all three of its columns also come as float64 bytes,
which go into the job columns whole, so the leads of all-exponential
traffic never become Python floats.  A row that failed its check raises
only when the loop reaches it.  Departures run in an inner loop against
the next other event (the next arrival, or the next snapshot or the
horizon, whichever is first; that stop time changes only at snapshots).
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import chain
from math import fsum, isfinite
from struct import pack

import numpy as np

from .distributions import JointDistribution, ScalarDistribution
from .errors import ConfigError, SimulationError
from .measures import PointMeasure

__all__ = [
    "ScenarioConfig",
    "JobRecord",
    "PathLog",
    "SimOutput",
    "TrafficStream",
    "run",
    "busy_rate_check",
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
_REPLAY_ROWS = 2048  # events per block of the path replay


def _packed(values: list, typecode: str = "d") -> bytes:
    """values as the bytes of an ``array(typecode)``.  ``array.fromlist``
    converts each item through a format-string parser; packing a list of
    256 floats this way took 2.3 us against its 6.8 us (Python 3.11, a
    shared 2-vCPU x86 host)."""
    return pack(f"{len(values)}{typecode}", *values)


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

    def refill(self) -> tuple[list[float], list[float], tuple[bytes, bytes, bytes]]:
        """The next rows, at least one: their arrival times and services
        as lists, and their arrival time, service and scaled lead columns
        as the bytes of float64 arrays; raises the error of a failed row
        in their place."""
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
            return times, vs, (_packed(times), _packed(vs), _packed(leads))
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
        times, vs, leads = times[:n], vs[:n], leads[:n]
        return times.tolist(), vs.tolist(), (times.tobytes(), vs.tobytes(), leads.tobytes())

    def next(self) -> tuple[float, float, float]:
        """The next row: (arrival time, service, scaled lead)."""
        times, vs, leads = self._block
        i = self._pos
        if i == len(times):
            times, vs, columns = self.refill()
            leads = np.frombuffer(columns[2]).tolist()
            self._block = times, vs, leads
            i = 0
        self._pos = i + 1
        return times[i], vs[i], leads[i]


@dataclass(frozen=True)
class SimOutput:
    config: ScenarioConfig
    # per-job float64 columns [arrival, service, lead, S on entry,
    # departure (NaN while in service)], indexed by job id: the one record
    # of the jobs, which ``jobs`` views.  The first four are ``array``s,
    # the departures an ndarray.
    job_columns: list = field(repr=False, compare=False)
    snapshots: tuple[tuple[float, float, PointMeasure], ...]  # (t, S at t, state)
    # departure times in the order the jobs left (nondecreasing) and the
    # matching sojourns, for window queries by bisection
    departure_times: np.ndarray
    departure_sojourns: np.ndarray
    # events by kind, in the order init, arrival, departure, snapshot,
    # end; a kind that never occurred has no key
    event_counts: dict[str, int]
    max_z: int  # largest number of jobs in the system over the run
    # where the events fell: per departure the next arrival's job id k, per snapshot ~k
    event_marks: array = field(repr=False, compare=False)
    s_end: float  # S at the horizon

    @cached_property
    def jobs(self) -> tuple[JobRecord, ...]:
        """One record per admitted job, in job id order, built from the
        columns on first read."""
        arr, svc, lead, off, dep = self.job_columns
        return tuple(
            JobRecord(i, u, v, l, s0, s0 + v, u + l, None if math.isnan(d) else d)
            for i, (u, v, l, s0, d) in enumerate(zip(arr, svc, lead, off, dep.tolist()))
        )

    @cached_property
    def path(self) -> PathLog:
        """The state after each event: the replay's blocks end to end."""
        blocks = list(self.path_blocks())
        t, z, w_pre, w_post, s = (np.concatenate([getattr(b, k) for b in blocks]) for k in ("times", "z", "w_pre", "w_post", "s"))
        return PathLog(t, tuple(chain.from_iterable(b.kinds for b in blocks)), z, w_pre, w_post, s)

    @property
    def workload_check(self) -> float:
        """Largest |running W - exact fsum of residuals| over the snapshots."""
        return self._checks[0]

    @cached_property
    def _checks(self) -> tuple[float, float]:
        """(workload check, busy-rate check), cached by a finished replay."""
        for _ in self.path_blocks():
            pass
        return self.__dict__["_checks"]

    def path_blocks(self) -> Iterator[PathLog]:
        """One pass, in blocks of _REPLAY_ROWS events: the arrivals before
        each mark, the event it marks, the end; caches ``_checks`` when done."""
        arr, svc, _, off, _ = self.job_columns
        n_init = len(self.config.initial_jobs)
        # (t, S) per departure: S lands on the departing target, and jobs leave in target order
        dep_s = np.sort(np.add(off, svc))[: self.departure_times.size]
        departures, snapshots = zip(memoryview(self.departure_times), memoryview(dep_s)), iter(self.snapshots)
        tsum = tcomp = 0.0  # compensated sum of the targets in service
        for v in svc[:n_init]:
            tsum, tcomp = _neumaier_add(tsum, tcomp, v)
        w = tsum + tcomp
        # six fields per event (t, kind, Z after, W before, W after, S) in a
        # flat list behind the last event of the block before, at first a
        # stand-in with Z = 0 that the busy-rate check skips; cut into a
        # typed block every _REPLAY_ROWS events
        log, full, busy = [0.0, "", 0, 0.0, 0.0, 0.0, 0.0, "init", n_init, w, w, 0.0], 6 * _REPLAY_ROWS + 6, []
        check = 0.0
        z = j = n_init  # jobs present; the next arrival's job id
        for mark in chain(self.event_marks, (None,)):
            stop = len(arr) if mark is None else mark if mark >= 0 else ~mark
            while j < stop:
                if len(log) == full:
                    yield _cut(log, busy)
                s = off[j]
                t1, c1 = _neumaier_add(tsum, tcomp, s + svc[j])
                log.extend((arr[j], "arrival", z + 1, (tsum + tcomp) - z * s, (t1 + c1) - (z + 1) * s, s))
                tsum, tcomp = t1, c1
                z += 1
                j += 1
            if len(log) == full:
                yield _cut(log, busy)
            if mark is None:
                w = (tsum + tcomp) - z * self.s_end
                log.extend((self.config.horizon, "end", z, w, w, self.s_end))
            elif mark >= 0:
                t, s = next(departures)
                z -= 1
                # at z = 0 drop the rounding left by the finished busy period
                t1, c1 = _neumaier_add(tsum, tcomp, -s) if z else (0.0, 0.0)
                log.extend((t, "departure", z, (tsum + tcomp) - (z + 1) * s, (t1 + c1) - z * s, s))
                tsum, tcomp = t1, c1
            else:
                t, s, state = next(snapshots)
                w = (tsum + tcomp) - z * s
                check = max(check, abs(w - fsum(state.residuals.tolist())))
                log.extend((t, "snapshot", z, w, w, s))
        block = _cut(log, busy)
        self.__dict__["_checks"] = check, float(np.max(busy)) if busy else 0.0
        yield block

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
        i = min(range(len(times)), key=lambda k: (abs(times[k] - t), times[k]))
        if abs(times[i] - t) > 1e-9 * max(1.0, abs(t)):
            raise ConfigError(f"no snapshot recorded at t={t}; nearest is {times[i]}")
        return self.snapshots[i]


def _cut(log: list, busy: list) -> PathLog:
    """The events of the flat six-field replay log after its first, as a
    typed block.  Appends to ``busy`` the largest |delta W + delta t| over
    the busy intervals between the log's events, and leaves only the last
    event in the log."""
    t, z, w_pre, w_post, s = (np.frombuffer(_packed(log[i::6], c), c) for i, c in zip((0, 2, 3, 4, 5), "dqddd"))
    err = np.abs(w_pre[1:] - w_post[:-1] + (t[1:] - t[:-1]))
    on = z[:-1] >= 1
    if on.any():
        busy.append(err[on].max())
    kinds = tuple(log[7::6])
    del log[:-6]
    return PathLog(t[1:], kinds, z[1:], w_pre[1:], w_post[1:], s[1:])


def _neumaier_add(total: float, comp: float, x: float) -> tuple[float, float]:
    """Add x to the compensated sum total + comp."""
    t = total + x
    if abs(total) >= abs(x):
        comp += (total - t) + x
    else:
        comp += (x - t) + total
    return t, comp


def run(config: ScenarioConfig) -> SimOutput:
    """Simulate one scenario to its horizon."""
    stream = TrafficStream(config, np.random.default_rng(config.seed))
    init = config.initial_jobs
    n_init = z = max_z = len(init)
    # per-job float64 columns indexed by job id; initial jobs enter at
    # t = 0, S = 0.  Traffic rows join arr/svc/lead a block at a time, so
    # those run ahead of the admitted jobs until they are cut at the end.
    arr, off = array("d", bytes(8 * n_init)), array("d", bytes(8 * n_init))
    svc, lead = array("d", [v for v, _ in init]), array("d", [l for _, l in init])
    # departure times in departure order, and per departure k, per
    # snapshot ~k.  The loop appends to a pending list beside each of
    # these and ``off`` (list.append is the cheaper call), which ``flush``
    # packs into its column.
    dep_times, new_dep_times = array("d"), []
    new_offs: list[float] = []
    marks, new_marks = array("q"), []
    pending = ((dep_times, new_dep_times), (off, new_offs), (marks, new_marks))

    def flush() -> None:
        for col, new in pending:
            col.frombytes(_packed(new, col.typecode))
            new.clear()

    def pull() -> tuple[list[float], list[float]]:
        """Append the next traffic rows to the columns; returns their
        arrival times and services."""
        flush()
        times, vs, columns = stream.refill()
        for col, rows in zip((arr, svc, lead), columns):
            col.frombytes(rows)
        return times, vs

    heap = list(svc)  # the targets of the jobs in service
    heapify(heap)

    horizon = config.horizon
    snap_times = config.snapshot_times
    snap_idx = 0
    t_snap = snap_times[0] if snap_times else math.inf
    t_stop = t_snap if t_snap < horizon else horizon  # the next snapshot or the end
    snapshots: list[tuple[float, float, PointMeasure]] = []
    clock = s = 0.0
    k = n_init  # job id of the next traffic row
    times, vs = pull()
    b = 0  # its row in the block
    t_arr = times[0]  # past the horizon it never fires: t_stop comes first

    while True:
        # the next event that is not a departure: arrival, snapshot or end
        t_ext = t_arr if t_arr <= t_stop else t_stop

        # departures up to t_ext, ties going to the departure.  S never
        # passes heap[0] (the drift below clamps it there), so
        # z * (top - s) >= 0 and t_dep >= clock.
        while z:
            top = heap[0]
            t_dep = clock + z * (top - s)
            if t_dep > t_ext:
                break
            s = top  # exact landing on the target
            clock = t_dep
            heappop(heap)
            new_dep_times.append(clock)
            new_marks.append(k)
            z -= 1

        if z and t_ext > clock:
            # drift may not overshoot the nearest target, as rounding can
            # carry it to; equality leaves a zero-residual job that departs
            # in the following zero-dt event
            s += (t_ext - clock) / z
            if s > top:
                s = top
        clock = t_ext

        if t_arr == t_ext:
            if z == max_z:
                max_z = z + 1
            heappush(heap, s + vs[b])
            new_offs.append(s)
            z += 1
            k += 1
            b += 1
            try:
                t_arr = times[b]
            except IndexError:  # the end of the block
                times, vs = pull()
                b = 0
                t_arr = times[0]
            continue

        if t_snap != t_ext:
            break
        new_marks.append(~k)
        flush()
        snapshots.append((clock, s, _snapshot_measure(off, svc, arr, lead, s, clock)))
        snap_idx += 1
        t_snap = snap_times[snap_idx] if snap_idx < len(snap_times) else math.inf
        t_stop = t_snap if t_snap < horizon else horizon

    flush()
    for col in (arr, svc, lead):
        del col[k:]  # rows drawn past the last admitted arrival
    departure_times = np.frombuffer(dep_times)
    # job ids in departure order: the departed jobs' targets, sorted
    departed = np.argsort(np.add(off, svc), kind="stable")[: departure_times.size]
    dep = np.full(k, np.nan)
    dep[departed] = departure_times
    sojourns = np.frombuffer(arr)[departed]  # arrival times, made sojourns in place
    np.subtract(departure_times, sojourns, out=sojourns)
    counts = zip(("init", "arrival", "departure", "snapshot", "end"),
                 (1, k - n_init, departure_times.size, len(snapshots), 1))
    return SimOutput(
        config=config,
        snapshots=tuple(snapshots),
        departure_times=departure_times,
        departure_sojourns=sojourns,
        event_counts={kind: n for kind, n in counts if n},
        max_z=max_z,
        job_columns=[arr, svc, lead, off, dep],
        event_marks=marks,
        s_end=s,
    )


def _snapshot_measure(
    off: array, svc: array, arr: array, lead: array, s: float, clock: float
) -> PointMeasure:
    """The jobs in service at a snapshot, in job id order.  A job whose
    residual has just hit zero belongs to the departure at this same
    instant, not to the right-continuous state."""
    # views of the columns: they must not outlive this call, or the loop's
    # next frombytes into them raises BufferError; indexing by ids copies.
    # svc runs ahead of the admitted jobs by the rest of the traffic block
    targets = np.add(np.frombuffer(off), np.frombuffer(svc, count=len(off)))
    ids = np.flatnonzero(targets > s)
    res = targets[ids] - s
    leads = (np.frombuffer(arr)[ids] + np.frombuffer(lead)[ids]) - clock
    return PointMeasure(res, leads, np.ones(res.size))


def busy_rate_check(out: SimOutput) -> float:
    """Max over busy inter-event intervals of |delta W + delta t|.

    With Z >= 1 on an interval the total service rate is 1, so the
    workload must drain at exactly unit rate between events.  The replay
    takes it a block at a time and caches it, so it needs no ``path``.
    """
    return out._checks[1]
