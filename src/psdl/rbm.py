"""Reflected Brownian motion on [0, oo).

Euler scheme with reflection at the origin,

    X_{k+1} = max(X_k + drift * dt + sqrt(variance * dt) * N_k, 0),

evaluated with the Lindley closed form (a running sum plus a running
minimum), one _PIECE-step piece at a time, with the running sum S
restarted at each piece and the last value x the only state carried into
the next.  ``simulate`` returns an ``RBMPath`` that draws its pieces from
the seed on demand, so a reader taking them in turn, as the CSV writer
does, holds one piece, not the path.  The time average is taken as the
pieces arrive: numpy sums each piece, and the exactly rounded sum
(``math.fsum``) of those piece sums, divided by the count of values, is
the average.  For negative drift the stationary law is
exponential with rate 2 |drift| / variance, which gives closed-form CDF
and quantiles; the quantile doubles as a deadline rule: the level the
stationary queue stays below with the requested probability.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

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
    """X_k at time k dt, k <= steps: x0, then the Lindley pieces of the
    increments mu + scale N_k, N_k the seed's standard normals.  pieces()
    draws it; values and time_average each come from a draw.  The time
    average is math.fsum of x0 and each later piece's np.add.reduce sum,
    over steps + 1."""

    dt: float
    steps: int
    x0: float
    mu: float
    scale: float
    seed: int

    def pieces(self, out: np.ndarray | None = None) -> Iterator[np.ndarray]:
        """[x0], then each piece, in new arrays or in the slices of the
        path-sized array ``out``.  A piece past the float range raises
        before it is yielded; the time average is checked, and cached as
        time_average, before the last one is."""
        size, n = _PIECE, self.steps + 1
        rng, low = np.random.default_rng(self.seed), np.empty(min(size, self.steps))
        s = np.empty(1) if out is None else out[:1]
        s[0] = self.x0
        sums = [float(s[0])]
        for pos in range(1, n, size):
            yield s
            end = min(pos + size, n)  # the stream of standard_normal(steps)
            x, s = s[-1], rng.standard_normal(end - pos, out=None if out is None else out[pos:end])
            with np.errstate(over="ignore", invalid="ignore"):
                s *= self.scale
                s += self.mu
                np.cumsum(s, out=s)
                run = np.minimum.accumulate(s, out=low[: s.size])
                s += np.maximum(x, np.negative(run, out=run), out=run)
                sums.append(float(np.add.reduce(s)))
            if not np.isfinite(s).all():
                raise SimulationError(f"the path leaves the float range past step {pos - 1}")
        try:
            average = math.fsum(sums) / n
        except OverflowError:  # finite piece sums whose total is not
            average = math.inf
        if not math.isfinite(average):
            raise SimulationError(f"the path's time average leaves the float range: mean {average}")
        self.__dict__["time_average"] = average
        yield s

    @cached_property
    def values(self) -> np.ndarray:
        values = np.empty(self.steps + 1)
        for _ in self.pieces(values):
            pass
        return values

    @cached_property
    def time_average(self) -> float:
        for _ in self.pieces():
            pass
        return self.__dict__["time_average"]


def simulate(spec: RBMSpec, horizon: float, dt: float, seed: int) -> RBMPath:
    """The Euler path on {0, dt, ..., n dt} covering [0, horizon], drawn on
    demand: per piece X_k = S_k + max(x, -min_{j<=k} S_j).  A request or a
    step past the float range raises here, a value or an average past it
    when the draw reaches it."""
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
    return RBMPath(dt=dt, steps=n, x0=spec.x0, mu=mu, scale=scale, seed=seed)


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
