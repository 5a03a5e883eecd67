"""Brute-force reference dynamics: the tests' oracle for ``psdl.engine.run``.

Forward-Euler depletion on a fixed time grid: every step of length dt,
each active job loses dt / Z of residual service.  Arrivals activate at
the first grid time at or after their arrival instant; a job whose
residual is exhausted by a step departs at that step's end.  No event
algebra is shared with the engine -- only the traffic stream is, so both
see identical arrival times and (service, lead) draws and any
disagreement beyond O(dt) points at the engine's event logic.
"""

from __future__ import annotations

import math

import numpy as np

from psdl.engine import ScenarioConfig, TrafficStream
from psdl.errors import ConfigError


def step_simulate(config: ScenarioConfig, dt: float = 1e-4) -> dict[int, float]:
    """Departure times by job id, for departures within the horizon."""
    if not (dt > 0.0):
        raise ConfigError(f"step must be positive, got {dt}")
    rng = np.random.default_rng(config.seed)
    stream = TrafficStream(config, rng)

    # same id convention as the engine: initial jobs first, then arrivals
    pending: list[tuple[int, int, float]] = []  # (activation step, id, service)
    next_id = 0
    active: list[list] = []  # [remaining, id]
    for v, _ in config.initial_jobs:
        active.append([v, next_id])
        next_id += 1
    while True:
        u, v, _ = stream.next()
        if u > config.horizon:
            break
        pending.append((int(math.ceil(u / dt)), next_id, v))
        next_id += 1

    departures: dict[int, float] = {}
    n_steps = int(math.ceil(config.horizon / dt))
    idx = 0
    for k in range(n_steps):
        while idx < len(pending) and pending[idx][0] <= k:
            _, jid, v = pending[idx]
            active.append([v, jid])
            idx += 1
        if not active:
            if idx >= len(pending):
                break
            continue
        dec = dt / len(active)
        t_end = (k + 1) * dt
        still = []
        for job in active:
            job[0] -= dec
            if job[0] <= 0.0:
                if t_end <= config.horizon:
                    departures[job[1]] = t_end
            else:
                still.append(job)
        active = still
    return departures
