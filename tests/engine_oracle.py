"""The per-event engine loop: the tests' oracle for ``psdl.engine.run``.

``run`` below is the loop ``psdl.engine.run`` ran before it read traffic
a block at a time and inlined the compensated add: it takes each arrival
from ``TrafficStream.next`` and adds every target through
``_neumaier_add``.  It keeps the engine's job columns, counters, event
record and ``SimOutput``, so a test can require the two to agree bit for
bit on every output field.  Its heap holds (target, job id) pairs, and
its snapshots read the jobs in service from that heap, so the engine's
recovery of job ids from a column of bare targets is checked against
code that does not share it.  It keeps the running workload sum and the
path log event by event, as the engine loop once did, and returns them
beside its ``SimOutput``: the engine replays both from its record, and a
test compares that replay with this log.  Before each departure time it
asserts the premise that lets the engine compute that time unclipped: S
never passes the smallest target in service.
"""

from __future__ import annotations

import math
from array import array
from heapq import heapify, heappop, heappush
from math import fsum

import numpy as np

from psdl.engine import PathLog, ScenarioConfig, SimOutput, TrafficStream
from psdl.measures import PointMeasure


def _neumaier_add(total: float, comp: float, x: float) -> tuple[float, float]:
    """Add x to the compensated sum total + comp."""
    t = total + x
    if abs(total) >= abs(x):
        comp += (total - t) + x
    else:
        comp += (x - t) + total
    return t, comp


def _snapshot_measure(
    heap: list[tuple[float, int]], arr: list[float], lead: list[float], s: float, clock: float
) -> PointMeasure:
    # a job whose residual has just hit zero belongs to the departure at
    # this same instant, not to the right-continuous state
    entries = sorted((jid, target - s) for target, jid in heap if target - s > 0.0)
    res = np.array([r for _, r in entries])
    leads = np.array([(arr[jid] + lead[jid]) - clock for jid, _ in entries])
    return PointMeasure(res, leads, np.ones(res.size))


def run(config: ScenarioConfig) -> tuple[SimOutput, PathLog, float]:
    """``psdl.engine.run``, one ``TrafficStream.next`` and one
    ``_neumaier_add`` call per event; returns the output, the path log
    and the workload check."""
    stream = TrafficStream(config, np.random.default_rng(config.seed))
    init = config.initial_jobs
    n_init = max_z = len(init)
    # per-job columns indexed by job id; initial jobs enter at t = 0, S = 0
    arr: list[float] = [0.0] * n_init
    svc: list[float] = [v for v, _ in init]
    lead: list[float] = [l for _, l in init]
    off: list[float] = [0.0] * n_init
    dep: list[float | None] = [None] * n_init
    heap = [(v, i) for i, v in enumerate(svc)]  # (target, job id) of the jobs in service
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
    departed: list[float] = []  # departure time, arrival time per departure
    marks: list[int] = []  # per departure the next job id k, per snapshot ~k
    clock = s = 0.0

    w0 = tsum + tcomp
    # flat event log, six fields per event: t, kind, Z after, W before, W after, S
    log = [clock, "init", n_init, w0, w0, s]
    u, v, l = stream.next()
    t_arr = u if u <= horizon else math.inf

    while True:
        z = len(heap)
        t_dep = math.inf
        if z:
            top = heap[0][0]
            # the engine's premise for t_dep >= clock without a clip: S
            # never passes the smallest target in service
            assert top >= s, (top, s)
            t_dep = clock + z * (top - s)

        # simultaneous events: departure, then arrival, snapshot, end
        if t_dep <= t_arr and t_dep <= t_snap and t_dep <= horizon:
            s = top  # exact landing on the target
            clock = t_dep
            _, jid = heappop(heap)
            dep[jid] = clock
            marks.append(len(arr))
            departed.extend((clock, arr[jid]))
            if heap:
                t1, c1 = _neumaier_add(tsum, tcomp, -top)
            else:
                t1 = c1 = 0.0  # drop the rounding left by the finished busy period
            w_pre, w_post = (tsum + tcomp) - z * s, (t1 + c1) - (z - 1) * s
            log.extend((clock, "departure", z - 1, w_pre, w_post, s))
            tsum, tcomp = t1, c1
            continue

        t_next = t_arr if t_arr <= t_snap else t_snap
        if horizon < t_next:
            t_next = horizon
        if z and t_next > clock:
            # drift may not overshoot the nearest target; equality leaves a
            # zero-residual job that departs in the following zero-dt event
            s += (t_next - clock) / z
            if s > top:
                s = top
        clock = t_next

        if t_arr == t_next:
            if z == max_z:
                max_z = z + 1
            target = s + v
            heappush(heap, (target, len(arr)))
            arr.append(u)
            svc.append(v)
            lead.append(l)
            off.append(s)
            dep.append(None)
            t1, c1 = _neumaier_add(tsum, tcomp, target)
            w_pre, w_post = (tsum + tcomp) - z * s, (t1 + c1) - (z + 1) * s
            log.extend((clock, "arrival", z + 1, w_pre, w_post, s))
            tsum, tcomp = t1, c1
            u, v, l = stream.next()
            t_arr = u if u <= horizon else math.inf
            continue

        w_pre = (tsum + tcomp) - z * s
        if t_snap == t_next:
            marks.append(~len(arr))
            snapshots.append((clock, s, _snapshot_measure(heap, arr, lead, s, clock)))
            workload_check = max(workload_check, abs(w_pre - fsum(t - s for t, _ in heap)))
            log.extend((clock, "snapshot", z, w_pre, w_pre, s))
            snap_idx += 1
            t_snap = snap_times[snap_idx] if snap_idx < len(snap_times) else math.inf
        else:
            log.extend((clock, "end", z, w_pre, w_pre, s))
            break

    counts = {
        "init": 1,
        "arrival": len(arr) - n_init,
        "departure": len(departed) // 2,
        "snapshot": len(snapshots),
        "end": 1,
    }
    departure_times = np.array(departed[0::2], dtype=float)
    out = SimOutput(
        config=config,
        snapshots=tuple(snapshots),
        departure_times=departure_times,
        departure_sojourns=departure_times - np.array(departed[1::2], dtype=float),
        event_counts={k: n for k, n in counts.items() if n},
        max_z=max_z,
        job_columns=[arr, svc, lead, off, np.array(dep, dtype=float)],  # None reads NaN
        event_marks=array("q", marks),
        s_end=s,
    )
    path = PathLog(
        times=np.array(log[0::6]),
        kinds=tuple(log[1::6]),
        z=np.array(log[2::6], dtype=int),
        w_pre=np.array(log[3::6]),
        w_post=np.array(log[4::6]),
        s=np.array(log[5::6]),
    )
    return out, path, workload_check
