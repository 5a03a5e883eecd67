"""Supports, kinks and quadrant survivals of the joint laws, for the
tests' lift oracles.

The oracles integrate a joint law's quadrant survival, end each
u-integral where a support ends and cut it where a quadrant section has
a kink or a jump.  This module reads all three from the scalar laws'
survivals and parameters or the empirical atoms, so an oracle does not
share the library's description of the law it checks.
"""

from __future__ import annotations

import math

import numpy as np

from psdl.distributions import (
    Deterministic,
    EmpiricalJoint,
    Exponential,
    HyperExponential,
    JointDistribution,
    LinearJoint,
    PointMassZero,
    ProductJoint,
    ScalarDistribution,
    Uniform,
)


def scalar_support(d: ScalarDistribution) -> tuple[float, tuple[float, ...]]:
    """(supremum of the support, kinks and jumps of the survival) of a scalar law."""
    if isinstance(d, (Exponential, HyperExponential)):
        return math.inf, (0.0,)
    if isinstance(d, Deterministic):
        return d.value, (d.value,)
    if isinstance(d, Uniform):
        return d.hi, (d.lo, d.hi)
    if isinstance(d, PointMassZero):
        return 0.0, (0.0,)
    raise TypeError(f"no support described for {d!r}")


def supports(joint: JointDistribution):
    """(service supremum, lead supremum, service kinks, lead kinks) of a joint law."""
    if isinstance(joint, EmpiricalJoint):
        s, l = zip(*joint.points)
        return max(s), max(l), tuple(sorted(set(s))), tuple(sorted(set(l)))
    su, service_kinks = scalar_support(joint.service)
    if isinstance(joint, LinearJoint):
        return su, joint.c * su, service_kinks, tuple(joint.c * k for k in service_kinks)
    lu, lead_kinks = scalar_support(joint.lead)
    return su, lu, service_kinks, lead_kinks


def quadrant_survival_array(joint: JointDistribution, x, y) -> np.ndarray:
    """theta([x, oo) x [y, oo)) on broadcastable arrays x >= 0 and y; y may
    hold -inf, which leaves the service marginal survival."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if isinstance(joint, EmpiricalJoint):
        out = np.zeros(np.broadcast(x, y).shape)
        for (s, l), w in zip(joint.points, joint.weights):
            out += w * ((s >= x) & (l >= y))
        return out
    if isinstance(joint, LinearJoint):
        # {v >= x, c v >= y} is the one service tail at max(x, y / c)
        return joint.service.survival_array(np.maximum(x, y / joint.c))
    if isinstance(joint, ProductJoint):
        return joint.service.survival_array(x) * joint.lead.survival_array(y)
    raise TypeError(f"no quadrant survival described for {joint!r}")
