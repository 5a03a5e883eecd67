"""Adaptive composite Simpson integration on [a, b]: the tests' oracle.

A scalar integrator written independently of the Gauss–Kronrod one in
``quadrature_oracle``, used to check it, ``psdl.lift``'s two-point rule
and the closed forms.  The integrands
are quadrant-survival sections: bounded, piecewise smooth, with isolated
kinks or jumps at known abscissae.  The interval is first split at those
breakpoints, each cell starts from a coarse composite subdivision, and
every panel is refined by Simpson halving with the usual 1/15 Richardson
error estimate until the per-panel budget is met.  Refinement failure
raises instead of returning a bad value; the error message carries the
achieved estimate.  ``lift_mass`` evaluates one lift quadrant mass with it.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from joint_supports import supports
from psdl.distributions import JointDistribution, LinearJoint, ProductJoint
from psdl.errors import ConfigError, SimulationError

_MAX_DEPTH = 48


def _simpson(fa: float, fm: float, fb: float, h: float) -> float:
    return (fa + 4.0 * fm + fb) * h / 6.0


def _adaptive_panel(
    f: Callable[[float], float],
    a: float,
    b: float,
    fa: float,
    fm: float,
    fb: float,
    whole: float,
    tol: float,
    depth: int,
) -> float:
    """The integral over one panel, refined until its error estimate meets tol."""
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = _simpson(fa, flm, fm, m - a)
    right = _simpson(fm, frm, fb, b - m)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol or (b - a) <= 1e-14 * max(1.0, abs(a)):
        return left + right + delta / 15.0
    if depth >= _MAX_DEPTH:
        raise SimulationError(
            f"quadrature failed to converge on [{a}, {b}]: "
            f"achieved error estimate {abs(delta) / 15.0:.3e} > {tol:.3e}"
        )
    li = _adaptive_panel(f, a, m, fa, flm, fm, left, 0.5 * tol, depth + 1)
    ri = _adaptive_panel(f, m, b, fm, frm, fb, right, 0.5 * tol, depth + 1)
    return li + ri


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    *,
    tol: float = 1e-6,
    breakpoints: Sequence[float] = (),
    initial_step: float | None = None,
) -> float:
    """Integrate f over [a, b] to absolute tolerance tol.

    breakpoints inside (a, b) become hard cell boundaries so kinks and
    jumps never sit inside a Simpson panel.  initial_step bounds the
    width of the coarse panels before refinement.
    """
    if not (b >= a):
        raise ConfigError(f"bad interval [{a}, {b}]")
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ConfigError(f"tolerance must be positive and finite, got {tol}")
    if b == a:
        return 0.0
    cuts = sorted({float(c) for c in breakpoints if a < c < b})
    edges = [a, *cuts, b]

    # coarse composite subdivision inside each cell
    panels: list[tuple[float, float]] = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        n = 1
        if initial_step is not None and initial_step > 0.0:
            n = min(max(int(math.ceil((hi - lo) / initial_step)), 1), 4096)
        w = (hi - lo) / n
        panels.extend((lo + i * w, lo + (i + 1) * w) for i in range(n))

    budget = tol / len(panels)
    total = 0.0
    for lo, hi in panels:
        flo, fhi = f(lo), f(hi)
        m = 0.5 * (lo + hi)
        fm = f(m)
        whole = _simpson(flo, fm, fhi, hi - lo)
        total += _adaptive_panel(f, lo, hi, flo, fm, fhi, whole, budget, 0)
    return total


def truncation_point(
    f: Callable[[float], float],
    start: float,
    cutoff: float = 1e-10,
    max_doublings: int = 60,
) -> float:
    """Smallest doubling of ``start`` at which a nonincreasing tail
    integrand has dropped below ``cutoff``."""
    u = max(start, 1e-12)
    for _ in range(max_doublings):
        if f(u) < cutoff:
            return u
        u *= 2.0
    raise SimulationError(
        f"integrand tail still {f(u):.3e} >= {cutoff:.3e} at u = {u:.3e}"
    )


def quadrant_survival(joint: JointDistribution, v: float, l: float) -> float:
    """theta([v, oo) x [l, oo)) from the scalar marginal survivals, apart
    from the library's array quadrant survival."""
    if isinstance(joint, ProductJoint):
        return joint.service.survival(v) * (1.0 if math.isinf(l) else joint.lead.survival(l))
    if isinstance(joint, LinearJoint):
        return joint.service.survival(v if math.isinf(l) else max(v, l / joint.c))
    return sum(w for (s, t), w in zip(joint.points, joint.weights) if s >= v and t >= l)


def lift_mass(
    joint: JointDistribution, alpha: float, z: float, x: float, y: float, tol: float = 1e-6
) -> float:
    """F_z(x, y) = alpha * int_0^inf theta([x + u/z, oo) x [y + u, oo)) du,
    integrated point by point with the same kink cuts as ``psdl.lift``."""

    def g(u: float) -> float:
        return quadrant_survival(joint, x + u / z, y + u)

    su, lu, service_kinks, lead_kinks = supports(joint)
    bounds = []
    if math.isfinite(su):
        bounds.append(z * max(su - x, 0.0))
    if not math.isinf(y) and math.isfinite(lu):
        bounds.append(max(lu - y, 0.0))
    upper = min(bounds) if bounds else truncation_point(g, max(z * joint.mean_service(), 1.0))
    if upper <= 0.0:
        return 0.0
    cuts = [z * (s - x) for s in service_kinks]
    if not math.isinf(y):
        cuts.extend(l - y for l in lead_kinks)
        if isinstance(joint, LinearJoint) and z != joint.c:
            cuts.append(z * (y - joint.c * x) / (joint.c - z))
    step = z * joint.mean_service() / 50.0
    return alpha * integrate(g, 0.0, upper, tol=tol / alpha, breakpoints=cuts, initial_step=step)
