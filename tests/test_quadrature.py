"""The adaptive Simpson oracle against hand-computable integrals, and
the Gauss–Kronrod integrator's failure mode."""

import math

import numpy as np
import pytest
import quadrature_oracle

from psdl.errors import ConfigError, SimulationError
from simpson_oracle import integrate, truncation_point


def test_polynomial_exact():
    # Simpson is exact on cubics
    assert integrate(lambda x: x**3 - 2 * x, 0.0, 2.0) == pytest.approx(0.0, abs=1e-12)


def test_exponential_tail():
    val = integrate(lambda x: math.exp(-x), 0.0, 50.0, tol=1e-10)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_breakpoint_kink():
    # |x - 1| has a kink; splitting at the breakpoint keeps Simpson honest
    val = integrate(lambda x: abs(x - 1.0), 0.0, 2.0, breakpoints=(1.0,), tol=1e-10)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_step_discontinuity_with_breakpoint():
    f = lambda x: 1.0 if x < 1.0 else 3.0
    val = integrate(f, 0.0, 2.0, breakpoints=(1.0,), tol=1e-8)
    assert val == pytest.approx(4.0, abs=1e-6)


def test_degenerate_interval():
    assert integrate(lambda x: x, 2.0, 2.0) == 0.0
    with pytest.raises(ConfigError):
        integrate(lambda x: x, 2.0, 1.0)


def test_bad_tolerance():
    # a tolerance that can never be met would refine forever
    for tol in (0.0, -1e-6, math.nan):
        with pytest.raises(ConfigError):
            integrate(lambda x: x, 0.0, 1.0, tol=tol)


def test_truncation_point_exponential():
    u = truncation_point(lambda x: math.exp(-x), 1.0, cutoff=1e-10)
    assert math.exp(-u) <= 1e-10
    assert u <= 2048.0  # doubling search should not overshoot wildly


def test_gauss_kronrod_raises_when_budget_unmet():
    # a budget no refinement can meet ends in a numerical failure, not a hang:
    # bisection doubles the live panels each pass until the cap ends it
    f = lambda u, owner: np.sqrt(u)
    one = np.ones(1)
    with pytest.raises(SimulationError, match="panels still above"):
        quadrature_oracle.integrate(f, 0.0 * one, one, np.zeros(1, dtype=int), 1, 1e-300 * one)
