"""Equilibrium (lifted) measures and heavy-traffic limit constants.

For a joint (service, lead) law theta with arrival rate alpha, the
invariant family indexed by total mass z > 0 puts quadrant mass

    F_z(x, y) = alpha * int_0^inf theta([x + u/z, oo) x [y + u, oo)) du

on [x, oo) x [y, oo), with F_0 = 0.  States of this exact shape are the
fixed points of the critically loaded processor-sharing dynamics: the
residual coordinate is thinned at rate 1/z per unit of elapsed service
while the lead coordinate translates at unit rate.

With T the tail integral of a law, T(w) = int_w^inf P(X >= s) ds,
swapping the order of integration gives two forms for a product:

    F_z(x, y) = alpha E_V[T_lam(y) - T_lam(y + z (V - x)^+)]      (service side)
              = alpha z E_L[T_nu(x) - T_nu(x + (L - y)^+ / z)]    (lead side)

A product whose service law has an ``exp_form`` (an atom, or exponentials
past a shift: every family but the uniform) takes the service side,
where the atom leaves two lead tail integrals and each exponential part
one shifted exponential transform of the lead; a uniform service takes
the lead side, the same way round, when the lead has one.  The method is
``closed_form_tiq`` when every lead is 0.  Exponential or mixture service
with lead = c * service has one term per part (the service law's tail
integral along whichever of the lines x + u/z and (y + u)/c is higher),
and each atom of an empirical point set contributes alpha * w_i *
max(0, min(z (s_i - x), l_i - y)); a linear joint whose service is an
atom at a is the one point (a, c a).  Only uniform laws reach the rest:
uniform-by-uniform products and linear joints with a uniform service
have piecewise-linear survival functions and integrate the defining
formula with the two-point Gauss–Legendre rule.  The grid points are
taken in blocks of 256, each point's u-range ends where the service or
lead support does (at hi) and is cut at the service and lead kinks (lo
and hi) and the deadline crossing, and every panel between two cuts gets
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

from .distributions import EmpiricalJoint, JointDistribution, LinearJoint, ProductJoint, ScalarDistribution
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


def _rate(s: float, name: str) -> float:
    """s, a rate formed from z; at 0 or inf the transforms read 0 * inf."""
    if not 0.0 < s < math.inf:
        raise ConfigError(f"{name} = {s} leaves the float range")
    return s


def _service_side(form, lam: ScalarDistribution, alpha: float, z: float):
    # V = a + U, P(U >= u) = sum w e^{-m u}: the service tail is 1 while
    # u <= z (a - x)^+, spanning two lead tail integrals; past that window
    # each part leaves one shifted exponential transform of the lead
    a, parts = form

    def grid_fn(xs, ys):
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        rates = [_rate(m / z, f"service rate {m} / z") for _, m in parts]
        out = np.zeros((xs.size, ys.size))
        past = np.maximum(xs - a, 0.0)[:, None]
        # near z = 1e308 the lead's tail integral at y + span and 1 / rate
        # at y = -inf overflow; eval_grid reports a cell that is not finite
        with np.errstate(over="ignore"):
            if a > 0.0:
                span = z * np.maximum(a - xs, 0.0)[:, None]
                neg = np.isneginf(ys)
                ysf = np.where(neg, 0.0, ys)
                out = alpha * (lam.tail_integral_array(ysf)[None, :] - lam.tail_integral_array(ysf + span))
                out[:, neg] = alpha * span
                ys = ys + span
            for (w, m), s in zip(parts, rates):
                out += (alpha * w) * np.exp(-m * past) * lam.shifted_exp_integral_array(ys, s)
        return out

    return grid_fn


def _lead_side(nu: ScalarDistribution, form, alpha: float, z: float):
    # F = alpha z E_L[T_nu(x) - T_nu(x + (L - y)^+ / z)] for L = a + U: the
    # lead survival is 1 until u = a - y and a sum of exponentials after it;
    # past that split each part leaves one shifted exponential transform
    a, parts = form

    def grid_fn(xs, ys):
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        rates = [_rate(m * z, f"lead rate {m} * z") for _, m in parts]
        with np.errstate(over="ignore"):  # +inf, the split's limit, at y = -inf or a tiny z
            split = xs[:, None] + np.maximum(a - ys, 0.0)[None, :] / z
        out = nu.tail_integral_array(xs)[:, None] - nu.tail_integral_array(split)
        lead = np.maximum(ys - a, 0.0)
        for (w, m), s in zip(parts, rates):
            out += w * np.exp(-m * lead)[None, :] * nu.shifted_exp_integral_array(split, s)
        return alpha * z * out

    return grid_fn


def _linear_builder(parts, c: float, alpha: float, z: float):
    # lead = c * service: the quadrant holds while v >= max(x + u/z, (y + u)/c).
    # The line higher at u = 0 starts at level a, and a steeper one overtakes
    # it h later (h = inf if none does); a line of slope 1/k spans k * (T(lo) -
    # T(hi)) of the u-integral, k = z or c.  With each part's T(v) = (w/m) e^{-m v}
    # only h enters, formed from y - c x, not from two levels 1/z apart
    def grid_fn(xs, ys):
        x = np.asarray(xs, dtype=float)[:, None]
        y = np.asarray(ys, dtype=float)[None, :]
        residual_leads = y <= c * x  # at y = -inf too
        a = np.where(residual_leads, x, y / c)
        k_lead, k_other = np.where(residual_leads, z, c), np.where(residual_leads, c, z)
        with np.errstate(divide="ignore", invalid="ignore"):
            gap = np.where(residual_leads, (y - c * x) / (c - z), (y - c * x) / c * np.divide(z, c - z))
        h = np.where(k_lead > k_other, gap, np.inf)
        out = np.zeros(h.shape)
        for w, m in parts:
            out += (w / m) * np.exp(-m * a) * (k_other * np.exp(-m * h) - k_lead * np.expm1(-m * h))
        return alpha * out

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


def _empirical_builder(points, weights, alpha: float, z: float):
    # atom i stays in [x + u/z, oo) x [y + u, oo) for u up to min(z (s_i - x), l_i - y)
    s, l = np.array(points, dtype=float).T
    w = np.array(weights, dtype=float)

    # near z = 1e308 z (s_i - x) overflows: max(., 0) clamps -inf, and
    # eval_grid reports the +inf cells
    @np.errstate(over="ignore")
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
    # only uniform laws get here (every other family has an exp_form, and so
    # a closed form above): each survival is piecewise linear, with kinks at
    # lo and hi, and each support ends at hi
    service = joint.service
    service_breaks = np.array((service.lo, service.hi), dtype=float)
    c = None
    if isinstance(joint, LinearJoint):
        lead_breaks = joint.c * service_breaks
        # {v >= x, c v >= y} is a single service tail
        quadrant = lambda x, y: service.survival_array(np.maximum(x, y / joint.c))
        # the deadline line c v = y crosses the residual line at one u
        c = joint.c if z != joint.c else None
    else:
        lead = joint.lead
        lead_breaks = np.array((lead.lo, lead.hi), dtype=float)
        quadrant = lambda x, y: service.survival_array(x) * lead.survival_array(y)
    su, lu = service.hi, lead_breaks.max()

    # near z = 1e308 z (su - x) overflows; eval_grid reports the cells it spoils
    @np.errstate(over="ignore", invalid="ignore")
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
        # between cuts the integrand is a polynomial of degree <= 2 in u,
        # which the two-point rule integrates exactly; its nodes are
        # interior, so it never samples a survival at its jump
        u = mid[:, None] + half[:, None] * _GAUSS2
        vals = quadrant(x[owner, None] + u / z, y[owner, None] + u)
        return alpha * np.bincount(owner, weights=half * vals.sum(axis=1), minlength=x.size)

    return _blocked(point_fn)


# ---------------------------------------------------------------------------
# lift
# ---------------------------------------------------------------------------


def _closed_form(joint: JointDistribution, alpha: float, z: float):
    """(method, grid_fn) of the closed form installed for the family, or None."""
    if isinstance(joint, ProductJoint):
        service, lead = joint.service.exp_form(), joint.lead.exp_form()
        method = "closed_form_tiq" if lead == (0.0, ()) else "closed_form_product"
        if service is not None:
            return method, _service_side(service, joint.lead, alpha, z)
        if lead is not None:
            return method, _lead_side(joint.service, lead, alpha, z)
    if isinstance(joint, LinearJoint):
        form = joint.service.exp_form()
        if form is not None:
            a, parts = form
            if not parts:  # an atom at a: the one point (a, c a)
                return "closed_form_empirical", _empirical_builder(((a, joint.c * a),), (1.0,), alpha, z)
            return "closed_form_linear", _linear_builder(parts, joint.c, alpha, z)
    if isinstance(joint, EmpiricalJoint):
        return "closed_form_empirical", _empirical_builder(joint.points, joint.weights, alpha, z)
    return None


def lift(joint: JointDistribution, alpha: float, z: float) -> InvariantMeasure:
    """Mass-z member of the invariant family for (joint, alpha).

    Uses the closed form installed for the family when there is one and,
    for the uniform-only joints without one, the two-point Gauss rule on
    kink-cut panels, which is exact there; ``method`` on the result names
    the path taken.  z = 0 gives the zero measure.
    """
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise ConfigError(f"arrival rate must be positive and finite, got {alpha}")
    if not (z >= 0.0 and math.isfinite(z)):
        raise ConfigError(f"total mass must be nonnegative and finite, got {z}")

    method, grid_fn = _closed_form(joint, alpha, z) or ("quadrature", _quadrature_builder(joint, alpha, z))
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
