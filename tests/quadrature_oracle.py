"""Gauss–Kronrod lift of any joint law: the tests' oracle for the closed forms.

``lift`` below integrates the defining formula

    F_z(x, y) = alpha * int_0^inf theta([x + u/z, oo) x [y + u, oo)) du

with ``psdl.quadrature.integrate`` for every family, including those
``psdl.lift`` answers in closed form.  Each point's u-range ends where
the service or lead support does; where neither bounds it, the range is
truncated at the first doubling of max(z E[V], 1) at which the
integrand has dropped below 1e-10.  The range is cut at the service and
lead kinks and the deadline crossing, and for an unbounded service law
with z E[V] < 1 also at the doublings of z E[V] below 1: that section
decays within u ~ z E[V], between the nodes of a unit-width panel.
"""

from __future__ import annotations

import math

import numpy as np

from psdl.distributions import JointDistribution, LinearJoint
from psdl.errors import SimulationError
from psdl.manifold import InvariantMeasure, _blocked
from psdl.measures import QuadrantFunction
from psdl.quadrature import integrate

_TAIL_CUTOFF = 1e-10  # tail integrand value below which tail_cut truncates
_MAX_DOUBLINGS = 60


def tail_cut(g, start: float, n: int) -> np.ndarray:
    """Per point, the smallest doubling of ``start`` at which the
    nonincreasing tail integrand g(u, points) has dropped below
    ``_TAIL_CUTOFF``."""
    u = np.full(n, max(start, 1e-12))
    todo = np.arange(n)
    for _ in range(_MAX_DOUBLINGS):
        todo = todo[g(u[todo], todo) >= _TAIL_CUTOFF]
        if todo.size == 0:
            return u
        u[todo] *= 2.0
    raise SimulationError(
        f"integrand tail still >= {_TAIL_CUTOFF:.3e} at u = {u[todo[0]]:.3e} for {todo.size} points"
    )


def _grid_fn(joint: JointDistribution, alpha: float, z: float, tol: float):
    scale = z * joint.mean_service()
    start = max(scale, 1.0)
    su, lu = joint.service_upper(), joint.lead_upper()
    doublings = math.ceil(-math.log2(scale)) if math.isinf(su) and 0.0 < scale < 1.0 else 0
    scale_cuts = scale * 2.0 ** np.arange(doublings)
    service_breaks = np.array(joint.service_breakpoints(), dtype=float)
    lead_breaks = np.array(joint.lead_breakpoints(), dtype=float)
    c = joint.c if isinstance(joint, LinearJoint) and z != joint.c else None

    def point_fn(x, y):
        def g(u, idx):
            return joint.quadrant_survival_array(x[idx, None] + u / z, y[idx, None] + u)

        upper = np.maximum(np.minimum(z * (su - x), lu - y), 0.0)
        unbounded = np.flatnonzero(np.isinf(upper))
        if unbounded.size:
            tail = lambda u, i: g(u[:, None], unbounded[i])[:, 0]
            upper[unbounded] = tail_cut(tail, start, unbounded.size)
        cuts = [
            z * (service_breaks - x[:, None]),
            lead_breaks - y[:, None],
            np.broadcast_to(scale_cuts, (x.size, scale_cuts.size)),
        ]
        if c is not None:
            cuts.append((z * (y - c * x) / (c - z))[:, None])
        ends = upper[:, None]
        edges = np.sort(np.clip(np.hstack([np.zeros_like(ends), *cuts, ends]), 0.0, ends), axis=1)
        a, b = edges[:, :-1], edges[:, 1:]
        keep = b > a
        owner = np.nonzero(keep)[0]
        budget = (tol / alpha) / np.where(upper > 0.0, upper, 1.0)
        return alpha * integrate(g, a[keep], b[keep], owner, x.size, budget)

    return _blocked(point_fn)


def lift(joint: JointDistribution, alpha: float, z: float, tol: float = 1e-6) -> InvariantMeasure:
    """The mass-z invariant measure of (joint, alpha) by quadrature, each
    grid point to an estimated absolute error tol; method "quadrature"."""
    if z == 0.0:
        grid_fn = lambda xs, ys: np.zeros((np.size(xs), np.size(ys)))
    else:
        grid_fn = _grid_fn(joint, alpha, z, tol)
    qf = QuadrantFunction(grid_fn, alpha * z * joint.mean_service())
    return InvariantMeasure(joint, alpha, z, "quadrature", qf)
