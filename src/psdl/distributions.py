"""Job-size and lead-time models.

Scalar families describe a single nonnegative quantity (a service
requirement or an initial lead time).  Joint laws describe the pair
(service, lead) attached to each arriving job: an independent product,
a linear coupling lead = c * service, or an empirical weighted point
set for arbitrary dependence.

Scalar survival functions use the closed convention

    survival(x) = P(X >= x),

so distributions with atoms (deterministic, the point mass at zero)
include the atom at the threshold.  The excess-lifetime transform of a
scalar law with mean m > 0 and survival S is the density S(x)/m on
[0, oo).  Each family carries its survival as ``excess_survival_array``,
next to the integrated tail and the shifted exponential transform.

``check_assumptions`` bundles the admissibility conditions a joint law
must satisfy before it can drive a heavy-traffic experiment with
arrival rate alpha: no service atom at zero, a finite (4 + p)-th
service moment, and service mean equal to 1/alpha.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .errors import ConfigError

__all__ = [
    "ScalarDistribution",
    "Exponential",
    "Deterministic",
    "Uniform",
    "HyperExponential",
    "PointMassZero",
    "JointDistribution",
    "ProductJoint",
    "LinearJoint",
    "EmpiricalJoint",
    "to_spec",
    "check_assumptions",
]


# ---------------------------------------------------------------------------
# scalar families
# ---------------------------------------------------------------------------

# Below this rate 1 - e^{-s t} is rebuilt from expm1 (its absolute error
# eps/s would pass 1e-14); at and above it the plain form keeps its bytes.
_SMALL_RATE = 1e-2
# Below this s * w the Uniform transform's ramp term s*ramp + expm1(-s*ramp),
# of order (s*ramp)^2, comes from its series (6 terms: truncation error < 1e-16).
_RAMP_SERIES_BELOW = 1e-2


def _exp_window(t: np.ndarray, s: float) -> np.ndarray:
    """int_0^t e^{-s u} du = (1 - e^{-s t}) / s on an array of t >= 0;
    t = +inf gives 1/s."""
    if s < _SMALL_RATE:
        return -np.expm1(-s * t) / s
    return (1.0 - np.exp(-s * t)) / s


class ScalarDistribution(ABC):
    """A nonnegative scalar law with closed-form moments and sampling."""

    kind: ClassVar[str]

    @abstractmethod
    def mean(self) -> float: ...

    @abstractmethod
    def moment(self, k: float) -> float:
        """k-th raw moment E[X^k] for real k >= 0."""

    @abstractmethod
    def survival(self, x: float) -> float:
        """P(X >= x); equals 1 for x <= 0."""

    @abstractmethod
    def survival_array(self, x: np.ndarray) -> np.ndarray:
        """Vectorized ``survival``; x may contain +/-inf."""

    @abstractmethod
    def sample(self, rng: np.random.Generator) -> float: ...

    def exponential_scale(self) -> float | None:
        """The scale c for which ``sample(rng)`` is exactly
        ``c * rng.standard_exponential()``, or None for a law that draws
        otherwise.  Lets callers batch draws without changing the stream."""
        return None

    @abstractmethod
    def excess_survival_array(self, x: np.ndarray) -> np.ndarray:
        """Survival of the excess-lifetime law on an array of x >= 0;
        x may contain +inf."""

    @abstractmethod
    def shifted_exp_integral_array(self, ys: np.ndarray, s: float) -> np.ndarray:
        """H(y) = int_0^inf e^{-s u} P(X >= y + u) du on an array of y
        (y = +/-inf allowed) for a rate s > 0."""

    def std(self) -> float:
        return math.sqrt(max(self.moment(2.0) - self.mean() ** 2, 0.0))

    def mass_at(self, x: float) -> float:
        """P(X = x); zero for the continuous families."""
        return 0.0

    def breakpoints(self) -> tuple[float, ...]:
        """Points where the survival function has a kink or a jump; a
        bounded law's support ends at its last one."""
        return ()

    def tail_integral_array(self, w: np.ndarray) -> np.ndarray:
        """int_w^inf P(X >= u) du on an array of real w; w may contain -inf
        (giving +inf).  Equals mean * excess_survival_array(w) for w >= 0 and
        mean - w below."""
        w = np.asarray(w, dtype=float)
        m = self.mean()
        pos = m * self.excess_survival_array(np.maximum(w, 0.0)) if m > 0.0 else np.zeros(w.shape)
        return np.where(w < 0.0, m - w, pos)


@dataclass(frozen=True)
class Exponential(ScalarDistribution):
    rate: float
    kind: ClassVar[str] = "exponential"

    def __post_init__(self):
        if not (self.rate > 0.0 and math.isfinite(self.rate)):
            raise ConfigError(f"exponential rate must be positive, got {self.rate}")

    def mean(self) -> float:
        return 1.0 / self.rate

    def moment(self, k: float) -> float:
        return math.gamma(k + 1.0) / self.rate**k

    def survival(self, x: float) -> float:
        return 1.0 if x <= 0.0 else math.exp(-self.rate * x)

    def survival_array(self, x: np.ndarray) -> np.ndarray:
        return self.excess_survival_array(x)

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(1.0 / self.rate))

    def exponential_scale(self) -> float | None:
        # numpy's exponential(scale) is scale * standard_exponential()
        return 1.0 / self.rate

    def excess_survival_array(self, x: np.ndarray) -> np.ndarray:
        return np.exp(-self.rate * np.maximum(np.asarray(x, dtype=float), 0.0))

    def shifted_exp_integral_array(self, ys: np.ndarray, s: float) -> np.ndarray:
        ys = np.asarray(ys, dtype=float)
        m = self.rate
        yn = np.minimum(ys, 0.0)
        yp = np.maximum(ys, 0.0)
        e = np.exp(s * yn)  # 0 at y = -inf
        return np.where(ys >= 0.0, np.exp(-m * yp) / (s + m), _exp_window(-yn, s) + e / (s + m))

    def breakpoints(self) -> tuple[float, ...]:
        return (0.0,)


@dataclass(frozen=True)
class Deterministic(ScalarDistribution):
    value: float
    kind: ClassVar[str] = "deterministic"

    def __post_init__(self):
        if not (self.value > 0.0 and math.isfinite(self.value)):
            raise ConfigError(f"deterministic value must be positive, got {self.value}")

    def mean(self) -> float:
        return self.value

    def moment(self, k: float) -> float:
        return self.value**k

    def survival(self, x: float) -> float:
        return 1.0 if x <= self.value else 0.0

    def survival_array(self, x: np.ndarray) -> np.ndarray:
        return np.where(np.asarray(x) <= self.value, 1.0, 0.0)

    def sample(self, rng: np.random.Generator) -> float:
        return self.value

    def excess_survival_array(self, x: np.ndarray) -> np.ndarray:
        return np.clip(1.0 - np.asarray(x, dtype=float) / self.value, 0.0, 1.0)

    def shifted_exp_integral_array(self, ys: np.ndarray, s: float) -> np.ndarray:
        up = np.maximum(self.value - np.asarray(ys, dtype=float), 0.0)  # +inf at y = -inf
        return _exp_window(up, s)

    def mass_at(self, x: float) -> float:
        return 1.0 if x == self.value else 0.0

    def breakpoints(self) -> tuple[float, ...]:
        return (self.value,)


@dataclass(frozen=True)
class Uniform(ScalarDistribution):
    lo: float
    hi: float
    kind: ClassVar[str] = "uniform"

    def __post_init__(self):
        if not (0.0 <= self.lo < self.hi and math.isfinite(self.hi)):
            raise ConfigError(f"uniform needs 0 <= lo < hi, got [{self.lo}, {self.hi}]")

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def moment(self, k: float) -> float:
        lo, hi = self.lo, self.hi
        return (hi ** (k + 1.0) - lo ** (k + 1.0)) / ((k + 1.0) * (hi - lo))

    def survival(self, x: float) -> float:
        if x <= self.lo:
            return 1.0
        if x >= self.hi:
            return 0.0
        return (self.hi - x) / (self.hi - self.lo)

    def survival_array(self, x: np.ndarray) -> np.ndarray:
        # clipped before the division, which then cannot overflow for a narrow law
        w = self.hi - self.lo
        return np.clip(self.hi - np.asarray(x, dtype=float), 0.0, w) / w

    def sample(self, rng: np.random.Generator) -> float:
        # numpy draws uniform(lo, hi) as lo + (hi - lo) * next_double, and
        # random() returns that next_double: the same value, at about a
        # third of the cost, which is mostly uniform's argument handling
        return self.lo + (self.hi - self.lo) * rng.random()

    def excess_survival_array(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        lo, hi = self.lo, self.hi
        xx = np.minimum(x, hi)
        tail = np.where(
            xx <= lo,
            (lo - xx) + 0.5 * (hi - lo),
            0.5 * np.square(hi - xx) / (hi - lo),
        )
        return np.where(x >= hi, 0.0, tail / self.mean())

    def shifted_exp_integral_array(self, ys: np.ndarray, s: float) -> np.ndarray:
        # the survival is 1 for u < a, then falls linearly to 0 over `ramp` more units
        ys = np.asarray(ys, dtype=float)
        w = self.hi - self.lo
        a = np.maximum(self.lo - ys, 0.0)  # +inf at y = -inf, where e^{-s a} is 0
        ramp = np.clip(self.hi - ys, 0.0, w)
        if s * w < _RAMP_SERIES_BELOW:
            # (t + expm1(-t)) / t^2 = 1/2 - t/6 + t^2/24 - ..., t = s * ramp
            t = s * ramp
            series = 1.0 - t / 3 * (1.0 - t / 4 * (1.0 - t / 5 * (1.0 - t / 6 * (1.0 - t / 7))))
            sloped = np.square(ramp) / (2.0 * w) * series
        elif s * s * w < math.inf:
            sloped = (s * ramp + np.expm1(-s * ramp)) / (s * s * w)
        else:  # (s * ramp)^2 / s^2 w would read inf / inf
            raise ConfigError(f"uniform transform rate {s} leaves the float range")
        return -np.expm1(-s * a) / s + np.exp(-s * a) * sloped

    def breakpoints(self) -> tuple[float, ...]:
        return (self.lo, self.hi)


@dataclass(frozen=True)
class HyperExponential(ScalarDistribution):
    """Mixture of exponentials: with probability weights[i], rate rates[i]."""

    weights: tuple[float, ...]
    rates: tuple[float, ...]
    kind: ClassVar[str] = "hyperexponential"

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
        if len(self.weights) != len(self.rates) or not self.weights:
            raise ConfigError("hyperexponential needs matching nonempty weights/rates")
        if not all(x > 0.0 and math.isfinite(x) for x in self.weights + self.rates):
            raise ConfigError("hyperexponential weights and rates must be positive and finite")
        if not (abs(sum(self.weights) - 1.0) <= 1e-9):
            raise ConfigError("hyperexponential weights must sum to 1")

    def mean(self) -> float:
        return sum(w / r for w, r in zip(self.weights, self.rates))

    def moment(self, k: float) -> float:
        g = math.gamma(k + 1.0)
        return sum(w * g / r**k for w, r in zip(self.weights, self.rates))

    def survival(self, x: float) -> float:
        if x <= 0.0:
            return 1.0
        return sum(w * math.exp(-r * x) for w, r in zip(self.weights, self.rates))

    def survival_array(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        tail = sum(w * np.exp(-r * np.maximum(x, 0.0)) for w, r in zip(self.weights, self.rates))
        return np.where(x <= 0.0, 1.0, tail)  # exactly 1, as the weights sum to 1 only within 1e-9

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(1.0 / self.rates[_pick(self.weights, rng)]))

    def excess_survival_array(self, x: np.ndarray) -> np.ndarray:
        xx = np.maximum(np.asarray(x, dtype=float), 0.0)
        tail = sum(w * np.exp(-r * xx) / r for w, r in zip(self.weights, self.rates))
        return tail / self.mean()

    def shifted_exp_integral_array(self, ys: np.ndarray, s: float) -> np.ndarray:
        return sum(
            w * Exponential(r).shifted_exp_integral_array(ys, s)
            for w, r in zip(self.weights, self.rates)
        )

    def breakpoints(self) -> tuple[float, ...]:
        return (0.0,)


@dataclass(frozen=True)
class PointMassZero(ScalarDistribution):
    """Unit mass at zero.  Valid as a lead-time law (all leads zero);
    inadmissible as a service law."""

    kind: ClassVar[str] = "pointmass_zero"

    def mean(self) -> float:
        return 0.0

    def moment(self, k: float) -> float:
        return 1.0 if k == 0.0 else 0.0

    def survival(self, x: float) -> float:
        return 1.0 if x <= 0.0 else 0.0

    def survival_array(self, x: np.ndarray) -> np.ndarray:
        return np.where(np.asarray(x) <= 0.0, 1.0, 0.0)

    def sample(self, rng: np.random.Generator) -> float:
        return 0.0

    def excess_survival_array(self, x: np.ndarray) -> np.ndarray:
        raise ConfigError("excess lifetime undefined for the point mass at zero")

    def shifted_exp_integral_array(self, ys: np.ndarray, s: float) -> np.ndarray:
        return _exp_window(np.maximum(-np.asarray(ys, dtype=float), 0.0), s)  # +inf at y = -inf

    def mass_at(self, x: float) -> float:
        return 1.0 if x == 0.0 else 0.0

    def breakpoints(self) -> tuple[float, ...]:
        return (0.0,)


def _pick(weights: tuple[float, ...], rng: np.random.Generator) -> int:
    """Index drawn with probabilities ``weights``: the first whose running
    sum exceeds one uniform draw, or the last if rounding leaves none."""
    u = rng.random()
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if u < acc:
            return i
    return len(weights) - 1


# ---------------------------------------------------------------------------
# joint laws on the half-plane (service > 0, lead real)
# ---------------------------------------------------------------------------


class JointDistribution(ABC):
    """Law of the (service, lead) pair attached to an arriving job."""

    kind: ClassVar[str]

    @abstractmethod
    def quadrant_survival_array(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Mass of the closed quadrants [x, oo) x [y, oo) on broadcastable
        arrays; x must be >= 0, y may hold -inf (giving the service
        marginal survival)."""

    @abstractmethod
    def sample(self, rng: np.random.Generator) -> tuple[float, float]: ...

    def exponential_scales(self) -> tuple[float, float] | None:
        """Scales (c_v, c_l) for which ``sample(rng)`` is exactly
        (c_v * E1, c_l * E2) with E1, E2 the next two
        ``rng.standard_exponential()`` draws, or None."""
        return None

    @abstractmethod
    def mean_service(self) -> float: ...

    @abstractmethod
    def service_moment(self, k: float) -> float: ...

    @abstractmethod
    def service_mass_at_zero(self) -> float: ...

    moment_exponent: float

    def service_std(self) -> float:
        v = self.service_moment(2.0) - self.mean_service() ** 2
        return math.sqrt(max(v, 0.0))


class _ScalarServiceJoint(JointDistribution):
    """Joint laws whose service marginal is the scalar law ``service``."""

    service: ScalarDistribution

    def mean_service(self) -> float:
        return self.service.mean()

    def service_moment(self, k: float) -> float:
        return self.service.moment(k)

    def service_mass_at_zero(self) -> float:
        return self.service.mass_at(0.0)


@dataclass(frozen=True)
class ProductJoint(_ScalarServiceJoint):
    """Independent service and lead."""

    service: ScalarDistribution
    lead: ScalarDistribution
    moment_exponent: float = 1.0
    kind: ClassVar[str] = "product"

    def __post_init__(self):
        if not (self.moment_exponent > 0.0 and math.isfinite(self.moment_exponent)):
            raise ConfigError("moment_exponent must be positive and finite")

    def quadrant_survival_array(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # every lead survival is 1 at y = -inf
        return self.service.survival_array(x) * self.lead.survival_array(y)

    def sample(self, rng: np.random.Generator) -> tuple[float, float]:
        # fixed draw order (service, then lead) keeps streams reproducible
        v = self.service.sample(rng)
        l = self.lead.sample(rng)
        return v, l

    def exponential_scales(self) -> tuple[float, float] | None:
        cv, cl = self.service.exponential_scale(), self.lead.exponential_scale()
        return None if cv is None or cl is None else (cv, cl)


@dataclass(frozen=True)
class LinearJoint(_ScalarServiceJoint):
    """Lead proportional to service: lead = c * service, c > 0."""

    service: ScalarDistribution
    c: float
    moment_exponent: float = 1.0
    kind: ClassVar[str] = "linear"

    def __post_init__(self):
        if not (self.c > 0.0 and math.isfinite(self.c)):
            raise ConfigError(f"linear coupling needs c > 0, got {self.c}")
        if not (self.moment_exponent > 0.0 and math.isfinite(self.moment_exponent)):
            raise ConfigError("moment_exponent must be positive and finite")

    def quadrant_survival_array(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # {v >= x, c v >= y} collapses to a single service tail
        return self.service.survival_array(np.maximum(x, np.asarray(y) / self.c))

    def sample(self, rng: np.random.Generator) -> tuple[float, float]:
        v = self.service.sample(rng)
        return v, self.c * v


@dataclass(frozen=True)
class EmpiricalJoint(JointDistribution):
    """Finite weighted point set {(service_i, lead_i, w_i)}, weights summing to 1."""

    points: tuple[tuple[float, float], ...]
    weights: tuple[float, ...] | None = None
    moment_exponent: float = 1.0
    kind: ClassVar[str] = "empirical"

    def __post_init__(self):
        pts = tuple((float(s), float(l)) for s, l in self.points)
        object.__setattr__(self, "points", pts)
        if not pts:
            raise ConfigError("empirical joint law needs at least one point")
        if not all(s >= 0.0 and math.isfinite(s) and math.isfinite(l) for s, l in pts):
            raise ConfigError("empirical points must be finite, with service coordinates >= 0")
        if self.weights is None:
            w = tuple(1.0 / len(pts) for _ in pts)
        else:
            w = tuple(float(x) for x in self.weights)
            if len(w) != len(pts):
                raise ConfigError("empirical weights must match points")
            if not (all(x > 0.0 and math.isfinite(x) for x in w) and abs(sum(w) - 1.0) <= 1e-9):
                raise ConfigError("empirical weights must be positive, finite and sum to 1")
        object.__setattr__(self, "weights", w)
        if not (self.moment_exponent > 0.0 and math.isfinite(self.moment_exponent)):
            raise ConfigError("moment_exponent must be positive and finite")

    def quadrant_survival_array(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # one pass per atom keeps the working set at the size of x
        out = np.zeros(np.broadcast(x, y).shape)
        for (s, l), w in zip(self.points, self.weights):
            out += w * ((s >= x) & (l >= y))
        return out

    def sample(self, rng: np.random.Generator) -> tuple[float, float]:
        return self.points[_pick(self.weights, rng)]

    def mean_service(self) -> float:
        return sum(w * s for (s, _), w in zip(self.points, self.weights))

    def service_moment(self, k: float) -> float:
        return sum(w * s**k for (s, _), w in zip(self.points, self.weights))

    def service_mass_at_zero(self) -> float:
        return sum(w for (s, _), w in zip(self.points, self.weights) if s == 0.0)


def to_spec(d: ScalarDistribution | JointDistribution) -> dict:
    """Plain-dict form of a scalar or joint law, read back by fileio's
    ``scalar_from_spec`` / ``joint_from_spec``: the kind plus every
    dataclass field, with nested laws as nested specs and tuples as lists."""
    return {"kind": d.kind, **{f.name: _plain(getattr(d, f.name)) for f in fields(d)}}


def _plain(v):
    if isinstance(v, (ScalarDistribution, JointDistribution)):
        return to_spec(v)
    if isinstance(v, tuple):
        return [_plain(x) for x in v]
    return v


# ---------------------------------------------------------------------------
# admissibility checks for heavy-traffic experiments
# ---------------------------------------------------------------------------


def check_assumptions(d: JointDistribution, alpha: float) -> dict[str, str]:
    """The admissibility checks a joint (service, lead) law fails at arrival
    rate alpha, each name mapped to its detail; empty when it passes them.

    Checks: no service atom at zero; finite (4 + p)-th service moment for
    the law's moment exponent p; service mean equal to 1/alpha (critical
    loading of the prelimit sequence).  A NaN fails every check it reaches.
    """
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise ConfigError(f"arrival rate must be positive and finite, got {alpha}")
    failed: dict[str, str] = {}
    atom = d.service_mass_at_zero()
    if not (atom == 0.0):
        failed["no_service_atom_at_zero"] = f"P(service = 0) = {atom}"
    k = 4.0 + d.moment_exponent
    try:
        mk = d.service_moment(k)
    except (OverflowError, ZeroDivisionError):  # beyond the float range
        mk = math.inf
    if not math.isfinite(mk):
        failed["service_moment_finite"] = f"E[service^{k}] = {mk}"
    m = d.mean_service()
    target = 1.0 / alpha
    if not (abs(m - target) <= 1e-9 * max(1.0, target)):
        failed["service_mean_matches_rate"] = f"mean service {m} vs 1/alpha = {target}"
    return failed
