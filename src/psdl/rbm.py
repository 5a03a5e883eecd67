"""Reflected Brownian motion on [0, oo).

Euler scheme with reflection at the origin,

    X_{k+1} = max(X_k + drift * dt + sqrt(variance * dt) * N_k, 0),

evaluated in place with the Lindley closed form (a running sum plus a
running minimum), one _PIECE-step piece at a time: each piece is drawn,
summed and reflected in its own slice of the path, with the running sum
S restarted at the piece and the last value x the only state carried
into the next.  For negative drift the stationary law is exponential with
rate 2 |drift| / variance, which gives closed-form CDF and quantiles;
the quantile doubles as a deadline rule: the level the stationary queue
stays below with the requested probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SimulationError

__all__ = ["RBMSpec", "RBMPath", "simulate", "stationary_cdf", "deadline_quantile"]

_PIECE = 65_536  # steps per piece; the running sum S restarts at each
_MAX_FLOATS = 2.0**60  # fewer float64s stay below numpy's 2**63-byte array limit


@dataclass(frozen=True)
class RBMSpec:
    drift: float
    variance: float
    x0: float = 0.0

    def __post_init__(self):
        if not (self.variance > 0.0 and math.isfinite(self.variance)):
            raise ConfigError(f"variance must be positive, got {self.variance}")
        if not (self.x0 >= 0.0 and math.isfinite(self.x0)):
            raise ConfigError(f"x0 must be nonnegative, got {self.x0}")
        if not math.isfinite(self.drift):
            raise ConfigError(f"drift must be finite, got {self.drift}")

    @property
    def stationary_rate(self) -> float:
        if self.drift >= 0.0:
            raise ConfigError(
                f"stationary law needs negative drift, got {self.drift}"
            )
        rate = 2.0 * abs(self.drift) / self.variance
        if not 0.0 < rate < math.inf:
            raise ConfigError(f"stationary rate 2 |drift| / variance = {rate} leaves the float range")
        return rate


@dataclass(frozen=True)
class RBMPath:
    """values[k] is the path at time k * dt; time_average is values.mean()."""

    dt: float
    values: np.ndarray
    time_average: float


def simulate(spec: RBMSpec, horizon: float, dt: float, seed: int) -> RBMPath:
    """Euler path on {0, dt, ..., n dt} covering [0, horizon], in the path and
    one _PIECE-step buffer: per piece X_k = S_k + max(x, -min_{j<=k} S_j), with
    S restarted at the piece and x, the only carry, the value before it.  A
    step, value or average past the float range raises."""
    if not (horizon > 0.0 and math.isfinite(horizon)):
        raise ConfigError(f"horizon must be positive, got {horizon}")
    if not (0.0 < dt <= horizon):
        raise ConfigError(f"dt must lie in (0, horizon], got {dt}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    steps = horizon / dt  # inf once the quotient overflows
    if not steps < _MAX_FLOATS:  # n + 1 floats
        raise ConfigError(f"horizon / dt = {steps} steps, more than an array holds")
    scale = math.sqrt(spec.variance * dt)
    mu = spec.drift * dt
    if not (math.isfinite(scale) and math.isfinite(mu)):
        raise ConfigError(
            f"a step of dt = {dt} leaves the float range: "
            f"sqrt(variance * dt) = {scale}, drift * dt = {mu}"
        )
    n = int(math.ceil(steps - 1e-12))
    rng = np.random.default_rng(seed)
    values = np.empty(n + 1)
    values[0] = x = spec.x0
    low = np.empty(min(_PIECE, n))
    with np.errstate(over="ignore", invalid="ignore"):
        for pos in range(1, n + 1, _PIECE):
            s = values[pos : pos + _PIECE]
            rng.standard_normal(out=s)  # the stream of standard_normal(n)
            s *= scale
            s += mu
            np.cumsum(s, out=s)
            run = np.minimum.accumulate(s, out=low[: s.size])
            s += np.maximum(x, np.negative(run, out=run), out=run)
            x = s[-1]
        # finite only if every value is, and their sum stays in range
        average = float(values.mean())
    if not math.isfinite(average):
        raise SimulationError(f"the path or its time average leaves the float range: mean {average}")
    return RBMPath(dt=dt, values=values, time_average=average)


def stationary_cdf(spec: RBMSpec, x: float) -> float:
    """P(X_inf <= x) = 1 - exp(-2 |drift| x / variance); needs drift < 0."""
    rate = spec.stationary_rate
    if x <= 0.0:
        return 0.0
    return -math.expm1(-rate * x)


def deadline_quantile(spec: RBMSpec, q: float) -> float:
    """Level the stationary process stays below with probability q."""
    if not (0.0 <= q < 1.0):
        raise ConfigError(f"quantile level must lie in [0, 1), got {q}")
    rate = spec.stationary_rate
    return -math.log1p(-q) / rate
