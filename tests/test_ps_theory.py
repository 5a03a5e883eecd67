"""The engine against M/G/1 processor-sharing theory, which shares no
code with it.

With Poisson arrivals at rate rho and a service law of mean 1, the
stationary processor-sharing queue is insensitive to the law's shape:
the number in system is geometric with E[Z] = rho / (1 - rho), and a job
of service v stays v / (1 - rho) on average (Kleinrock 1967,
"Time-shared systems: a theoretical treatment"; Kelly 1979,
"Reversibility and Stochastic Networks").  Soft deadlines change
neither, since they never change who is served.

One long run per law, with its path log, gives all three: Little's law
turns the mean sojourn into E[Z], the least-squares slope of sojourn on
service through the origin estimates 1 / (1 - rho), and the share of
time the path spends at each Z estimates P(Z = n) = (1 - rho) rho^n.
Each bound is four batch-means standard errors, over consecutive
arrivals or over equal stretches of time, not a hand tolerance.
"""

import math

import numpy as np
import pytest

from psdl import (
    Deterministic,
    Exponential,
    HyperExponential,
    ProductJoint,
    ScenarioConfig,
    Uniform,
    run,
)

_JOBS = 1e5  # expected arrivals per run
_BATCHES = 20
_TAIL = 6  # P(Z = n) is checked for n < _TAIL, then P(Z >= _TAIL)


def _hyperexponential(scv: float) -> HyperExponential:
    """The mean-1 two-phase law with balanced phase means and squared
    coefficient of variation scv."""
    p = 0.5 * (1.0 + math.sqrt((scv - 1.0) / (scv + 1.0)))
    return HyperExponential((p, 1.0 - p), (2.0 * p, 2.0 * (1.0 - p)))


@pytest.fixture(
    scope="module",
    params=[
        (Exponential(1.0), 0.8),
        (Uniform(0.0, 2.0), 0.7),
        (Deterministic(1.0), 0.6),
        (_hyperexponential(5.0), 0.5),
    ],
    ids=["exp", "uniform", "det", "hyperexp"],
)
def cell(request):
    """(rho, run): one long run per law, shared by the tests of its law."""
    service, rho = request.param
    assert service.mean() == pytest.approx(1.0, rel=1e-12)
    cfg = ScenarioConfig(
        interarrival=Exponential(rho),
        joint=ProductJoint(service, Exponential(1.0)),
        horizon=_JOBS / rho,
        seed=7,
    )
    return rho, run(cfg)


def test_mean_number_and_sojourn_slope_match_mg1_ps(cell):
    rho, out = cell
    horizon = out.config.horizon
    # a 5% burn-in from the empty start; arrivals of the last 10% are
    # dropped so that every job kept has departed
    jobs = [j for j in out.jobs if 0.05 * horizon < j.arrival_time <= 0.9 * horizon]
    assert all(j.departure_time is not None for j in jobs)
    t = np.array([j.sojourn for j in jobs])
    v = np.array([j.service_req for j in jobs])
    batches = list(zip(np.array_split(t, _BATCHES), np.array_split(v, _BATCHES)))
    for estimate, want in (
        (lambda t, v: rho * t.mean(), rho / (1.0 - rho)),  # Little: E[Z] = rate * E[sojourn]
        (lambda t, v: (t @ v) / (v @ v), 1.0 / (1.0 - rho)),  # E[sojourn | v] = v / (1 - rho)
    ):
        per_batch = np.array([estimate(bt, bv) for bt, bv in batches])
        se = per_batch.std(ddof=1) / math.sqrt(_BATCHES)
        assert 4.0 * se < 0.2 * want  # the run resolves a 20% error
        assert abs(estimate(t, v) - want) <= 4.0 * se


def test_number_in_system_is_geometric(cell):
    # P(Z = n) = (1 - rho) rho^n for n < _TAIL and P(Z >= _TAIL) = rho^_TAIL,
    # each read as the share of time the path log spends there over
    # _BATCHES equal stretches of time after the 5% burn-in
    rho, out = cell
    p = out.path
    state = np.minimum(p.z[:-1], _TAIL)  # Z on the interval after each event
    time_in = np.zeros((_TAIL + 1, len(p)))
    time_in[state, np.arange(1, len(p))] = np.diff(p.times)
    cumulative = np.cumsum(time_in, axis=1)  # linear in t between events
    edges = np.linspace(0.05 * out.config.horizon, out.config.horizon, _BATCHES + 1)
    at_edges = np.array([np.interp(edges, p.times, c) for c in cumulative])
    per_batch = (np.diff(at_edges, axis=1) / np.diff(edges)).T
    n = np.arange(_TAIL)
    want = np.append((1.0 - rho) * rho**n, rho**_TAIL)
    se = per_batch.std(axis=0, ddof=1) / math.sqrt(_BATCHES)
    assert np.all(4.0 * se < 0.5 * want)  # the run resolves each share to half its size
    assert np.all(np.abs(per_batch.mean(axis=0) - want) <= 4.0 * se)
