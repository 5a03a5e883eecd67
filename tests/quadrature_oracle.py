"""Gauss–Kronrod lift of any joint law: the tests' oracle for ``psdl.lift``.

``lift`` below integrates the defining formula

    F_z(x, y) = alpha * int_0^inf theta([x + u/z, oo) x [y + u, oo)) du

with the adaptive integrator ``integrate`` for every family, both those
``psdl.lift`` answers in closed form and those it answers with its exact
two-point rule.  ``integrate`` refines all panels of all points at once:
each pass evaluates the 15 Kronrod nodes of every live panel in one call,
keeps the panels whose |K15 - G7| fits their share of the tolerance, and
bisects the rest; refinement failure raises, and the error message
carries the achieved estimate.  Each point's u-range ends where
the service or lead support does; where neither bounds it, the range is
truncated at the first doubling of max(z E[V], 1) at which the
integrand has dropped below min(1e-10, tol / 100): the part cut off is
about that value times the integrand's decay length, which reaches
z / rate for a slow exponential service phase.  The range is cut at the service and
lead kinks and the deadline crossing, and for an unbounded service law
with z E[V] < 1 also at the doublings of z E[V] below 1: that section
decays within u ~ z E[V], between the nodes of a unit-width panel.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from joint_supports import quadrant_survival_array, supports
from psdl.distributions import JointDistribution, LinearJoint
from psdl.errors import SimulationError
from psdl.manifold import InvariantMeasure, _blocked
from psdl.measures import QuadrantFunction

# Kronrod nodes on [0, 1], outermost first; every second one (0.949...,
# 0.741..., 0.405..., 0) is a 7-point Gauss node.  Weights from QUADPACK's qk15.
_XK = (0.9914553711208126, 0.9491079123427585, 0.8648644233597691, 0.7415311855993945,
       0.5860872354676911, 0.4058451513773972, 0.20778495500789848, 0.0)
_WK = (0.022935322010529224, 0.06309209262997856, 0.10479001032225019, 0.14065325971552592,
       0.1690047266392679, 0.19035057806478542, 0.20443294007529889, 0.20948214108472782)
_WG = (0.1294849661688697, 0.27970539148927664, 0.3818300505051189, 0.4179591836734694)
_NODES = np.array([-x for x in _XK[:-1]] + list(_XK[::-1]))
_K_WEIGHTS = np.array(_WK + _WK[-2::-1])
_G_WEIGHTS = np.array(_WG + _WG[-2::-1])  # on _NODES[1::2]

_MAX_PASSES = 48  # bisection depth
_MAX_LIVE = 1 << 15  # unconverged panels one call may carry into a bisection


def integrate(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a: np.ndarray,
    b: np.ndarray,
    owner: np.ndarray,
    n: int,
    budget: np.ndarray,
) -> np.ndarray:
    """Integrals over the panels [a[k], b[k]], summed per point owner[k].

    f(u, owner) is the integrand of each point owner[k] at the nodes
    u[k, :].  A panel is accepted once its |K15 - G7| is at most
    budget[owner] times its width, so a point's error stays under its
    budget times its total panel width.  Returns the n per-point sums.
    """
    total = np.zeros(n)
    cap = max(_MAX_LIVE, a.size)
    for depth in range(_MAX_PASSES + 1):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        vals = f(mid[:, None] + half[:, None] * _NODES, owner)
        k15 = half * (vals @ _K_WEIGHTS)
        err = np.abs(k15 - half * (vals[:, 1::2] @ _G_WEIGHTS))
        done = err <= budget[owner] * (b - a)
        total += np.bincount(owner[done], weights=k15[done], minlength=n)
        live = ~done
        if not live.any():
            return total
        a, b, mid, owner, err = a[live], b[live], mid[live], owner[live], err[live]
        if depth == _MAX_PASSES or 2 * a.size > cap:
            break
        a, b, owner = np.concatenate((a, mid)), np.concatenate((mid, b)), np.tile(owner, 2)
    raise SimulationError(
        f"quadrature failed to converge: {a.size} panels still above their error "
        f"share after {depth} bisections (largest estimate {err.max():.3e})"
    )


_TAIL_CUTOFF = 1e-10  # largest tail integrand value at which tail_cut truncates
_MAX_DOUBLINGS = 60


def tail_cut(g, start: float, n: int, tol: float) -> np.ndarray:
    """Per point, the smallest doubling of ``start`` at which the
    nonincreasing tail integrand g(u, points) has dropped below
    min(_TAIL_CUTOFF, tol / 100)."""
    cutoff = min(_TAIL_CUTOFF, 1e-2 * tol)
    u = np.full(n, max(start, 1e-12))
    todo = np.arange(n)
    for _ in range(_MAX_DOUBLINGS):
        todo = todo[g(u[todo], todo) >= cutoff]
        if todo.size == 0:
            return u
        u[todo] *= 2.0
    raise SimulationError(
        f"integrand tail still >= {cutoff:.3e} at u = {u[todo[0]]:.3e} for {todo.size} points"
    )


def _grid_fn(joint: JointDistribution, alpha: float, z: float, tol: float):
    scale = z * joint.mean_service()
    start = max(scale, 1.0)
    su, lu, service_kinks, lead_kinks = supports(joint)
    doublings = math.ceil(-math.log2(scale)) if math.isinf(su) and 0.0 < scale < 1.0 else 0
    scale_cuts = scale * 2.0 ** np.arange(doublings)
    service_breaks = np.array(service_kinks, dtype=float)
    lead_breaks = np.array(lead_kinks, dtype=float)
    c = joint.c if isinstance(joint, LinearJoint) and z != joint.c else None

    def point_fn(x, y):
        def g(u, idx):
            return quadrant_survival_array(joint, x[idx, None] + u / z, y[idx, None] + u)

        upper = np.maximum(np.minimum(z * (su - x), lu - y), 0.0)
        unbounded = np.flatnonzero(np.isinf(upper))
        if unbounded.size:
            tail = lambda u, i: g(u[:, None], unbounded[i])[:, 0]
            upper[unbounded] = tail_cut(tail, start, unbounded.size, tol)
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
