"""Equilibrium (lifted) measures and heavy-traffic limit constants.

For a joint (service, lead) law theta with arrival rate alpha, the
invariant family indexed by total mass z > 0 puts quadrant mass

    F_z(x, y) = alpha * int_0^inf theta([x + u/z, oo) x [y + u, oo)) du

on [x, oo) x [y, oo), with F_0 = 0.  States of this exact shape are the
fixed points of the critically loaded processor-sharing dynamics: the
residual coordinate is thinned at rate 1/z per unit of elapsed service
while the lead coordinate translates at unit rate.

Closed forms are installed for every independent product except a
uniform lead with a uniform or zero service (a zero or deterministic
lead, or a deterministic service, leaves tail integrals of the other
law; an exponential or mixture service or lead leaves one shifted
exponential transform of the other law per exponential part), for
exponential or mixture service with proportional lead = c * service (the
service law's tail integral along whichever of the lines x + u/z and
(y + u)/c is higher), and for empirical point sets, where each atom
contributes alpha * w_i * max(0, min(z (s_i - x), l_i - y)).  The rest,
each with a bounded service support and piecewise-linear or step
survival functions, integrate the defining formula with the two-point
Gauss–Legendre rule: the grid points are taken in blocks of 256, each
point's u-range ends where the service or lead support does (a bounded
law's support ends at its last kink) and is cut at the service and lead
kinks and the deadline crossing, and every panel between two cuts gets
the rule, which is exact on the polynomial the integrand is there.

The lead-coordinate sections of these measures are the planning
profiles: the lead-profile CDF of an independent product, the
time-in-queue tail for jobs admitted with zero initial lead, the
sojourn-time limit law, and the two-regime profile under proportional
deadlines.  ``ht_params`` collects the reflected-Brownian drift and
variance constants for the workload and queue-length limits together
with the queue/workload proportionality ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    Deterministic,
    EmpiricalJoint,
    Exponential,
    HyperExponential,
    JointDistribution,
    LinearJoint,
    PointMassZero,
    ProductJoint,
    ScalarDistribution,
)
from .errors import ConfigError
from .measures import QuadrantFunction

__all__ = [
    "InvariantMeasure",
    "lift",
    "lead_profile_product",
    "time_in_queue_profile",
    "sojourn_limit_cdf",
    "linear_deadline_profile",
    "ht_params",
]

@dataclass(frozen=True)
class InvariantMeasure:
    """The mass-z member of the invariant family for (joint, alpha)."""

    joint: JointDistribution
    alpha: float
    z: float
    method: str
    quadrant: QuadrantFunction

    def eval(self, x: float, y: float) -> float:
        """Mass of the closed quadrant [x, oo) x [y, oo); y may be -inf."""
        return self.quadrant.eval(x, y)

    @property
    def total_mass(self) -> float:
        return self.quadrant.total_mass


# ---------------------------------------------------------------------------
# closed-form builders; each returns a vectorized grid function
# ---------------------------------------------------------------------------


def _exp_parts(d: Exponential | HyperExponential) -> tuple[tuple[float, float], ...]:
    """The (weight, rate) pairs of an exponential or mixture law."""
    return tuple(zip(d.weights, d.rates)) if isinstance(d, HyperExponential) else ((1.0, d.rate),)


def _rate(s: float, name: str) -> float:
    """s, a rate formed from z; at 0 or inf (it left the float range) the
    transforms take 0 * inf, so that is a ConfigError."""
    if not 0.0 < s < math.inf:
        raise ConfigError(f"{name} = {s} leaves the float range")
    return s


def _exp_service_builder(parts, lam: ScalarDistribution, alpha: float, z: float):
    # the lift is linear in the service law: one exponential-service term per part
    def grid_fn(xs, ys):
        xs = np.asarray(xs, dtype=float)
        rates = [_rate(n / z, f"service rate {n} / z") for _, n in parts]
        return sum(
            (alpha * w) * np.exp(-n * xs)[:, None] * lam.shifted_exp_integral_array(ys, s)
            for (w, n), s in zip(parts, rates)
        )

    return grid_fn


def _exp_lead_builder(nu: ScalarDistribution, parts, alpha: float, z: float):
    # the lead survival is 1 until u = -y and a sum of exponentials after it;
    # past the split the u-integral is one shifted exponential transform per part
    def grid_fn(xs, ys):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        rates = [_rate(m * z, f"lead rate {m} * z") for _, m in parts]
        split = xs[:, None] + np.maximum(-ys, 0.0)[None, :] / z  # +inf at y = -inf
        lead = np.maximum(ys, 0.0)
        out = nu.tail_integral_array(xs)[:, None] - nu.tail_integral_array(split)
        for (w, m), s in zip(parts, rates):
            out += w * np.exp(-m * lead)[None, :] * nu.shifted_exp_integral_array(split, s)
        return alpha * z * out

    return grid_fn


def _det_lead_builder(nu: ScalarDistribution, lead_value: float, alpha: float, z: float):
    # lead fixed at lead_value: the u-integral runs while y + u <= lead_value
    def grid_fn(xs, ys):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        window = np.where(np.isneginf(ys), np.inf, np.maximum(lead_value - ys, 0.0))
        t0 = nu.tail_integral_array(xs)[:, None]
        t1 = nu.tail_integral_array(xs[:, None] + window[None, :] / z)
        return alpha * z * (t0 - t1)

    return grid_fn


def _det_service_builder(nu: Deterministic, lam: ScalarDistribution, alpha: float, z: float):
    d = nu.value

    def grid_fn(xs, ys):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        span = z * np.maximum(d - xs, 0.0)  # u-window where the service tail is 1
        neg = np.isneginf(ys)
        ysf = np.where(neg, 0.0, ys)
        t0 = lam.tail_integral_array(ysf)[None, :]
        t1 = lam.tail_integral_array(ysf[None, :] + span[:, None])
        out = alpha * (t0 - t1)
        if np.any(neg):
            out[:, neg] = alpha * span[:, None]
        return out

    return grid_fn


def _linear_builder(nu: ScalarDistribution, c: float, alpha: float, z: float):
    # lead = c * service: the quadrant holds while v >= max(x + u/z, (y + u)/c).
    # The line higher at u = 0 leads until a steeper one overtakes it at level
    # w; a line of slope 1/k running from level a to b spans k * (T(a) - T(b))
    # of the u-integral, k = z for the residual line and c for the deadline line
    def grid_fn(xs, ys):
        x = np.asarray(xs, dtype=float)[:, None]
        y = np.asarray(ys, dtype=float)[None, :]
        residual_leads = y <= c * x  # at y = -inf too
        lead0 = np.where(residual_leads, x, y / c)
        k_lead, k_other = np.where(residual_leads, z, c), np.where(residual_leads, c, z)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.where(k_lead > k_other, (y - z * x) / (c - z), np.inf)
        t_w = nu.tail_integral_array(w)
        return alpha * (k_lead * (nu.tail_integral_array(lead0) - t_w) + k_other * t_w)

    return grid_fn


_BLOCK = 256  # grid points per block: keeps the working arrays near 1 MB


def _blocked(point_fn):
    """grid_fn evaluating point_fn(x, y) on flat arrays of grid points,
    _BLOCK points at a time."""

    def grid_fn(xs, ys):
        x, y = np.meshgrid(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float), indexing="ij")
        x, y, out = x.ravel(), y.ravel(), np.empty(x.size)
        for i in range(0, x.size, _BLOCK):
            out[i : i + _BLOCK] = point_fn(x[i : i + _BLOCK], y[i : i + _BLOCK])
        return out.reshape(np.size(xs), np.size(ys))

    return grid_fn


def _empirical_builder(joint: EmpiricalJoint, alpha: float, z: float):
    # atom i stays in [x + u/z, oo) x [y + u, oo) for u up to min(z (s_i - x), l_i - y)
    s, l = np.array(joint.points).T
    w = np.array(joint.weights)

    def point_fn(x, y):
        reach = np.minimum(z * (s - x[:, None]), l - y[:, None])  # l - y = inf at y = -inf
        return alpha * (np.maximum(reach, 0.0) @ w)

    return _blocked(point_fn)


# ---------------------------------------------------------------------------
# quadrature fallback
# ---------------------------------------------------------------------------


# two-point Gauss–Legendre nodes on [-1, 1]; both weights are 1
_GAUSS2 = np.array([-1.0, 1.0]) / math.sqrt(3.0)


def _quadrature_builder(joint: ProductJoint | LinearJoint, alpha: float, z: float):
    # only bounded laws with piecewise-linear or step survivals get here, so
    # each support ends at the law's last kink
    service_breaks = np.array(joint.service.breakpoints(), dtype=float)
    c = None
    if isinstance(joint, LinearJoint):
        lead_breaks = joint.c * service_breaks
        # the deadline line c v = y crosses the residual line at one u
        c = joint.c if z != joint.c else None
    else:
        lead_breaks = np.array(joint.lead.breakpoints(), dtype=float)
    su, lu = service_breaks.max(), lead_breaks.max()

    def point_fn(x, y):
        # the u-range ends where either support does
        upper = np.maximum(np.minimum(z * (su - x), lu - y), 0.0)
        cuts = [z * (service_breaks - x[:, None]), lead_breaks - y[:, None]]
        if c is not None:
            cuts.append((z * (y - c * x) / (c - z))[:, None])
        ends = upper[:, None]
        edges = np.sort(np.clip(np.hstack([np.zeros_like(ends), *cuts, ends]), 0.0, ends), axis=1)
        a, b = edges[:, :-1], edges[:, 1:]
        keep = b > a
        owner = np.nonzero(keep)[0]
        mid, half = 0.5 * (a + b)[keep], 0.5 * (b - a)[keep]
        # every family that reaches here has a piecewise-linear or step service
        # and lead survival, so between cuts the integrand is a polynomial of
        # degree <= 2 in u, which the two-point rule integrates exactly; its
        # nodes are interior, so it never samples a survival at its jump
        u = mid[:, None] + half[:, None] * _GAUSS2
        vals = joint.quadrant_survival_array(x[owner, None] + u / z, y[owner, None] + u)
        return alpha * np.bincount(owner, weights=half * vals.sum(axis=1), minlength=x.size)

    return _blocked(point_fn)


# ---------------------------------------------------------------------------
# lift
# ---------------------------------------------------------------------------


def _closed_form(joint: JointDistribution, alpha: float, z: float):
    """(method, grid_fn) of the closed form installed for the family, or None."""
    if isinstance(joint, ProductJoint):
        nu, lam = joint.service, joint.lead
        if isinstance(lam, PointMassZero):
            return "closed_form_tiq", _det_lead_builder(nu, 0.0, alpha, z)
        if isinstance(nu, Exponential):
            return "closed_form_product", _exp_service_builder(_exp_parts(nu), lam, alpha, z)
        if isinstance(nu, Deterministic):
            return "closed_form_product", _det_service_builder(nu, lam, alpha, z)
        if isinstance(lam, Deterministic):
            return "closed_form_product", _det_lead_builder(nu, lam.value, alpha, z)
        if isinstance(nu, HyperExponential):
            return "closed_form_product", _exp_service_builder(_exp_parts(nu), lam, alpha, z)
        if isinstance(lam, (Exponential, HyperExponential)):
            return "closed_form_product", _exp_lead_builder(nu, _exp_parts(lam), alpha, z)
    if isinstance(joint, LinearJoint) and isinstance(joint.service, (Exponential, HyperExponential)):
        return "closed_form_linear", _linear_builder(joint.service, joint.c, alpha, z)
    if isinstance(joint, EmpiricalJoint):
        return "closed_form_empirical", _empirical_builder(joint, alpha, z)
    return None


def lift(joint: JointDistribution, alpha: float, z: float) -> InvariantMeasure:
    """Mass-z member of the invariant family for (joint, alpha).

    Uses the closed form installed for the family when there is one and
    the two-point Gauss rule on kink-cut panels, exact for the families
    without one, otherwise; ``method`` on the result names the path
    taken.  z = 0 gives the zero measure.
    """
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise ConfigError(f"arrival rate must be positive and finite, got {alpha}")
    if not (z >= 0.0 and math.isfinite(z)):
        raise ConfigError(f"total mass must be nonnegative and finite, got {z}")

    found = _closed_form(joint, alpha, z)
    method, grid_fn = found or ("quadrature", _quadrature_builder(joint, alpha, z))
    if z == 0.0:
        grid_fn = lambda xs, ys: np.zeros((np.size(xs), np.size(ys)))
    total = alpha * z * joint.mean_service()
    if not math.isfinite(total):
        raise ConfigError(f"total mass alpha * z * mean service = {total} leaves the float range")
    return InvariantMeasure(joint, alpha, z, method, QuadrantFunction(grid_fn, total))


# ---------------------------------------------------------------------------
# lead-coordinate profiles
# ---------------------------------------------------------------------------


def lead_profile_product(
    nu: ScalarDistribution,
    lam: ScalarDistribution,
    alpha: float,
    z: float,
    y: float,
) -> float:
    """Lead-profile CDF of the invariant measure for independent
    (service, lead): the mass with lead coordinate <= y.

    The lead marginal is absolutely continuous for z > 0, so this is
    total mass minus the quadrant mass at (0, y); tends to the total
    (z under critical normalization) as y -> +inf.
    """
    if z == 0.0:
        return 0.0
    meas = lift(ProductJoint(nu, lam), alpha, z)
    return meas.total_mass - meas.eval(0.0, y)


def time_in_queue_profile(nu: ScalarDistribution, z: float, y: float) -> float:
    """Mass of jobs whose elapsed waiting time is >= y when every job
    arrives with zero initial lead, normalized so the total mass is z.

    Equals z times the excess survival of nu at y / z; the zero-lead
    invariant state ages jobs at unit rate, so elapsed times follow the
    scaled excess-lifetime law of the service distribution.
    """
    if y < 0.0 or math.isnan(y):
        raise ConfigError(f"elapsed time must be >= 0, got {y}")
    if not (z >= 0.0 and math.isfinite(z)):
        raise ConfigError(f"total mass must be nonnegative and finite, got {z}")
    if z == 0.0:
        return 0.0
    return z * float(nu.excess_survival_array(y / z))


def sojourn_limit_cdf(nu: ScalarDistribution, z: float, y: float) -> float:
    """Limit law of the (diffusion-scaled) sojourn time of a job entering
    when the scaled queue mass sits at z: P(z * service < y)."""
    if not (z > 0.0 and math.isfinite(z)):
        raise ConfigError(f"queue mass must be positive, got {z}")
    if y <= 0.0:
        return 0.0
    # strict inequality: survival is closed, so 1 - survival is P(X < t)
    return 1.0 - nu.survival(y / z)


def linear_deadline_profile(
    nu: ScalarDistribution, c: float, z: float, y: float
) -> float:
    """Lead-profile survival (mass with lead >= y) of the invariant
    measure under proportional deadlines lead = c * service.

    For z <= c no mass sits at negative leads: every job still in the
    system is ahead of its deadline.  For z > c a residue of late mass
    appears below zero.
    """
    if not (c > 0.0 and math.isfinite(c)):
        raise ConfigError(f"deadline ratio must be positive, got {c}")
    if not (z >= 0.0 and math.isfinite(z)):
        raise ConfigError(f"total mass must be nonnegative and finite, got {z}")
    if z == 0.0:
        return 0.0
    ex = lambda t: float(nu.excess_survival_array(t))
    if z <= c:
        if y <= 0.0:
            return z
        if z == c:
            return c * ex(y / c)
        return c * ex(y / c) - (c - z) * ex(y / (c - z))
    if y <= 0.0:
        return z + (c - z) * ex(y / (c - z))
    return c * ex(y / c)


# ---------------------------------------------------------------------------
# heavy-traffic constants
# ---------------------------------------------------------------------------


def ht_params(
    alpha: float, interarrival_std: float, service_std: float, gamma: float
) -> dict:
    """Reflected-Brownian limit constants for (alpha, a, b, gamma), keyed by name.

    alpha: limiting arrival rate (service mean is 1/alpha).
    interarrival_std / service_std: limiting standard deviations of one
    interarrival time and one service time.
    gamma: limit of r * (1 - rho_r), the capacity slack rate; appears
    as the negative drift of the limiting workload.
    queue_workload_ratio: proportionality constant between the limiting
    queue mass and workload.
    workload_* / queue_*: drift and variance of the two reflected
    Brownian limits.
    """
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise ConfigError(f"arrival rate must be positive, got {alpha}")
    if interarrival_std < 0.0 or service_std < 0.0:
        raise ConfigError("standard deviations must be nonnegative")
    if gamma < 0.0:
        raise ConfigError(f"slack rate must be nonnegative, got {gamma}")
    a2, b2 = interarrival_std**2, service_std**2
    ratio = 2.0 * alpha / (1.0 + alpha**2 * b2)
    w_var = alpha * (a2 + b2)
    return dict(
        alpha=alpha,
        interarrival_std=interarrival_std,
        service_std=service_std,
        gamma=gamma,
        queue_workload_ratio=ratio,
        workload_drift=-gamma,
        workload_var=w_var,
        queue_drift=-gamma * ratio,
        queue_var=ratio**2 * w_var,
    )
