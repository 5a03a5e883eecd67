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
    "scalar_from_spec",
    "joint_from_spec",
    "to_spec",
    "AssumptionCheck",
    "AssumptionReport",
    "check_assumptions",
]


# ---------------------------------------------------------------------------
# scalar families
# ---------------------------------------------------------------------------


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
        """Points where the survival function has a kink or a jump."""
        return ()

    def support_upper(self) -> float:
        """Supremum of the support (may be inf)."""
        return math.inf

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
        return np.where(ys >= 0.0, np.exp(-m * yp) / (s + m), (1.0 - e) / s + e / (s + m))

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
        return (1.0 - np.exp(-s * up)) / s

    def mass_at(self, x: float) -> float:
        return 1.0 if x == self.value else 0.0

    def breakpoints(self) -> tuple[float, ...]:
        return (self.value,)

    def support_upper(self) -> float:
        return self.value


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
        return np.clip((self.hi - np.asarray(x, dtype=float)) / (self.hi - self.lo), 0.0, 1.0)

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.lo, self.hi))

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
        sloped = (s * ramp + np.expm1(-s * ramp)) / (s * s * w)
        return -np.expm1(-s * a) / s + np.exp(-s * a) * sloped

    def breakpoints(self) -> tuple[float, ...]:
        return (self.lo, self.hi)

    def support_upper(self) -> float:
        return self.hi


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
        if any(w <= 0.0 for w in self.weights) or any(r <= 0.0 for r in self.rates):
            raise ConfigError("hyperexponential weights and rates must be positive")
        if abs(sum(self.weights) - 1.0) > 1e-9:
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
        ys = np.asarray(ys, dtype=float)
        up = np.where(np.isneginf(ys), np.inf, np.maximum(-ys, 0.0))
        return (1.0 - np.exp(-s * up)) / s

    def mass_at(self, x: float) -> float:
        return 1.0 if x == 0.0 else 0.0

    def breakpoints(self) -> tuple[float, ...]:
        return (0.0,)

    def support_upper(self) -> float:
        return 0.0


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


_SCALAR_KINDS: dict[str, type] = {
    c.kind: c for c in (Exponential, Deterministic, Uniform, HyperExponential, PointMassZero)
}


def _from_spec(kinds: dict[str, type], spec: dict, what: str, convert: dict):
    """Build the law named by spec["kind"] from the rest of the spec: the
    keys are the class's fields, each value goes through its converter
    in ``convert`` (or is taken as it is), and unknown keys and boolean
    values are rejected."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"{what} distribution spec must be a dict with 'kind': {spec!r}")
    kind = spec["kind"]
    cls = kinds.get(kind)
    if cls is None:
        raise ConfigError(f"unknown {what} distribution kind {kind!r}")
    flags = sorted(k for k, v in spec.items() if _has_bool(v))
    if flags:
        raise ConfigError(f"bad parameters for {kind!r}: booleans in {flags}")
    try:
        params = {k: convert[k](v) if k in convert else v for k, v in spec.items() if k != "kind"}
        return cls(**params)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for {kind!r}: {exc}") from None


def _has_bool(v) -> bool:
    return isinstance(v, bool) or (isinstance(v, (list, tuple)) and any(map(_has_bool, v)))


def scalar_from_spec(spec: dict) -> ScalarDistribution:
    """Build a scalar law from a plain dict like {"kind": "exponential", "rate": 2.0}."""
    return _from_spec(_SCALAR_KINDS, spec, "scalar", {})


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

    @abstractmethod
    def service_upper(self) -> float:
        """Supremum of the service support (may be inf)."""

    @abstractmethod
    def lead_upper(self) -> float:
        """Supremum of the lead support (may be inf)."""

    @abstractmethod
    def service_breakpoints(self) -> tuple[float, ...]:
        """Service values where quadrant sections have a kink or a jump."""

    @abstractmethod
    def lead_breakpoints(self) -> tuple[float, ...]:
        """Lead values where quadrant sections have a kink or a jump."""

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

    def service_std(self) -> float:
        return self.service.std()

    def service_upper(self) -> float:
        return self.service.support_upper()

    def service_breakpoints(self) -> tuple[float, ...]:
        return self.service.breakpoints()


@dataclass(frozen=True)
class ProductJoint(_ScalarServiceJoint):
    """Independent service and lead."""

    service: ScalarDistribution
    lead: ScalarDistribution
    moment_exponent: float = 1.0
    kind: ClassVar[str] = "product"

    def __post_init__(self):
        if self.moment_exponent <= 0.0:
            raise ConfigError("moment_exponent must be positive")

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

    def lead_upper(self) -> float:
        return self.lead.support_upper()

    def lead_breakpoints(self) -> tuple[float, ...]:
        return self.lead.breakpoints()


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
        if self.moment_exponent <= 0.0:
            raise ConfigError("moment_exponent must be positive")

    def quadrant_survival_array(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # {v >= x, c v >= y} collapses to a single service tail
        return self.service.survival_array(np.maximum(x, np.asarray(y) / self.c))

    def sample(self, rng: np.random.Generator) -> tuple[float, float]:
        v = self.service.sample(rng)
        return v, self.c * v

    def lead_upper(self) -> float:
        return self.c * self.service.support_upper()

    def lead_breakpoints(self) -> tuple[float, ...]:
        return tuple(self.c * s for s in self.service.breakpoints())


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
        if any(s < 0.0 for s, _ in pts):
            raise ConfigError("empirical service coordinates must be >= 0")
        if self.weights is None:
            w = tuple(1.0 / len(pts) for _ in pts)
        else:
            w = tuple(float(x) for x in self.weights)
            if len(w) != len(pts):
                raise ConfigError("empirical weights must match points")
            if any(x <= 0.0 for x in w) or abs(sum(w) - 1.0) > 1e-9:
                raise ConfigError("empirical weights must be positive and sum to 1")
        object.__setattr__(self, "weights", w)
        if self.moment_exponent <= 0.0:
            raise ConfigError("moment_exponent must be positive")

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

    def service_upper(self) -> float:
        return max(s for s, _ in self.points)

    def lead_upper(self) -> float:
        return max(l for _, l in self.points)

    def service_breakpoints(self) -> tuple[float, ...]:
        return tuple(sorted({s for s, _ in self.points}))

    def lead_breakpoints(self) -> tuple[float, ...]:
        return tuple(sorted({l for _, l in self.points}))


_JOINT_KINDS = {c.kind: c for c in (ProductJoint, LinearJoint, EmpiricalJoint)}
# empirical points and weights are converted by EmpiricalJoint itself
_JOINT_CONVERT = {
    "service": scalar_from_spec,
    "lead": scalar_from_spec,
    "c": float,
    "moment_exponent": float,
}


def joint_from_spec(spec: dict) -> JointDistribution:
    """Build a joint law from a plain dict; scalar components are nested specs."""
    return _from_spec(_JOINT_KINDS, spec, "joint", _JOINT_CONVERT)


def to_spec(d: ScalarDistribution | JointDistribution) -> dict:
    """Plain-dict form of a scalar or joint law, read back by
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


@dataclass(frozen=True)
class AssumptionCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class AssumptionReport:
    checks: tuple[AssumptionCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[AssumptionCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)


def check_assumptions(d: JointDistribution, alpha: float) -> AssumptionReport:
    """Admissibility of a joint (service, lead) law at arrival rate alpha.

    Checks: no service atom at zero; finite (4 + p)-th service moment for
    the law's moment exponent p; service mean equal to 1/alpha (critical
    loading of the prelimit sequence).
    """
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise ConfigError(f"arrival rate must be positive and finite, got {alpha}")
    checks: list[AssumptionCheck] = []

    atom = d.service_mass_at_zero()
    checks.append(
        AssumptionCheck(
            "no_service_atom_at_zero",
            atom == 0.0,
            f"P(service = 0) = {atom}",
        )
    )

    k = 4.0 + d.moment_exponent
    try:
        mk = d.service_moment(k)
    except (OverflowError, ZeroDivisionError):  # beyond the float range
        mk = math.inf
    checks.append(
        AssumptionCheck(
            "service_moment_finite",
            math.isfinite(mk),
            f"E[service^{k}] = {mk}",
        )
    )

    m = d.mean_service()
    target = 1.0 / alpha
    ok = abs(m - target) <= 1e-9 * max(1.0, target)
    checks.append(
        AssumptionCheck(
            "service_mean_matches_rate",
            ok,
            f"mean service {m} vs 1/alpha = {target}",
        )
    )
    return AssumptionReport(tuple(checks))
