"""Checks of the model's structure that the tests run and the library does not.

* ``verify_dynamic_equation``: the transport identity between two
  snapshots of one run, scored with ``quadrant_distance``;
* ``quadrant_distance``: the largest mass gap over a grid's quadrants;
* ``collapse_error``: the gap between a diffusion-scaled snapshot and the
  invariant member of mass z = count / r, as ``run_sweep`` scores a row;
* ``departures``: the departed jobs of a run as ``JobRecord``s.
"""

from __future__ import annotations

import numpy as np

from psdl import ConfigError, JobRecord, PointMeasure, lift, scale_diffusion
from psdl.measures import grid_quadrant_masses


def quadrant_distance(a, b, grid) -> float:
    """Max absolute mass discrepancy over the grid's closed quadrants.

    A pseudometric on states (point measures or quadrant functions): zero
    distance means agreement on every grid quadrant, not equality of the
    underlying measures.
    """
    return float(np.abs(grid_quadrant_masses(a, grid) - grid_quadrant_masses(b, grid)).max())


def collapse_error(snapshot: PointMeasure, r: float, joint, alpha: float, grid) -> float:
    """Distance between the diffusion-scaled snapshot and the invariant
    member of mass count / r, over the grid quadrants."""
    inv = lift(joint, alpha, snapshot.count / r)
    return quadrant_distance(scale_diffusion(snapshot, r), inv.quadrant, grid)


def departures(out) -> list[JobRecord]:
    """The jobs that left, by departure time and then job id."""
    done = [j for j in out.jobs if j.departure_time is not None]
    done.sort(key=lambda j: (j.departure_time, j.job_id))
    return done


def verify_dynamic_equation(out, t: float, h: float, grid) -> float:
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
