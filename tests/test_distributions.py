"""Service/lead law tests: moments, survival, excess laws."""

import math

import numpy as np
import pytest

from psdl import (
    ConfigError,
    Deterministic,
    EmpiricalJoint,
    Exponential,
    HyperExponential,
    LinearJoint,
    PointMassZero,
    ProductJoint,
    Uniform,
    check_assumptions,
    joint_from_spec,
    scalar_from_spec,
    to_spec,
)
from simpson_oracle import integrate, quadrant_survival


def test_exponential_moments_and_survival():
    d = Exponential(2.0)
    assert d.mean() == pytest.approx(0.5)
    assert d.moment(2) == pytest.approx(2.0 / 4.0)  # k! / rate^k
    assert d.std() == pytest.approx(0.5)
    assert d.survival(0.0) == 1.0
    assert d.survival(1.0) == pytest.approx(math.exp(-2.0))


def test_exponential_excess_is_itself():
    # memorylessness: the equilibrium law of exp equals exp
    d = Exponential(3.0)
    xs = np.array([0.0, 0.1, 2.0])
    ref = [d.survival(x) for x in xs]
    np.testing.assert_allclose(d.excess_survival_array(xs), ref, rtol=0.0, atol=1e-15)


def test_exponential_tail_integral():
    d = Exponential(2.0)
    tail = d.tail_integral_array(np.array([0.0, 1.0, -3.0]))
    np.testing.assert_allclose(tail[:2], [0.5, math.exp(-2.0) / 2.0], rtol=1e-12)
    # below zero the survival is 1, so the integral grows linearly
    assert tail[2] == pytest.approx(3.0 + 0.5)


def test_deterministic_law():
    d = Deterministic(2.0)
    assert d.mean() == 2.0
    assert d.moment(2) == 4.0
    assert d.survival(2.0) == 1.0  # closed survival P(X >= x)
    assert d.survival(2.0000001) == 0.0
    assert d.mass_at(2.0) == 1.0
    # equilibrium law of a point mass is uniform on [0, value]
    np.testing.assert_array_equal(d.excess_survival_array(np.array([0.5, 2.0])), [0.75, 0.0])


def test_uniform_law():
    d = Uniform(1.0, 3.0)
    assert d.mean() == pytest.approx(2.0)
    assert d.moment(2) == pytest.approx(13.0 / 3.0)
    assert d.std() == pytest.approx(math.sqrt(1.0 / 3.0))
    assert d.survival(1.0) == 1.0
    assert d.survival(2.0) == pytest.approx(0.5)
    assert d.survival(3.0) == 0.0


def test_hyperexponential_law():
    d = HyperExponential((0.4, 0.6), (1.0, 2.0))
    assert d.mean() == pytest.approx(0.4 / 1.0 + 0.6 / 2.0)
    x = 0.7
    assert d.survival(x) == pytest.approx(0.4 * math.exp(-x) + 0.6 * math.exp(-2 * x))


def test_point_mass_zero():
    d = PointMassZero()
    assert d.mean() == 0.0
    assert d.mass_at(0.0) == 1.0
    assert d.survival(0.0) == 1.0
    assert d.survival(1e-12) == 0.0


def test_sample_means(rng=np.random.default_rng(7)):
    for d in (Exponential(2.0), Uniform(1.0, 3.0), HyperExponential((0.5, 0.5), (1.0, 3.0))):
        xs = np.array([d.sample(rng) for _ in range(20000)])
        assert xs.mean() == pytest.approx(d.mean(), rel=0.03)


def test_weighted_draws_pick_the_first_index_past_one_uniform():
    # one uniform u per draw picks the first index whose running weight sum
    # exceeds u; a mixture then draws its exponential with that rate
    weights, rates = (0.2, 0.3, 0.5), (1.0, 2.0, 4.0)
    points = ((1.0, 0.0), (2.0, 1.0), (3.0, 2.0))
    hyper, emp = HyperExponential(weights, rates), EmpiricalJoint(points, weights)
    got, want = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(200):
        i = int(np.searchsorted(np.cumsum(weights), want.random(), side="right"))
        assert hyper.sample(got) == float(want.exponential(1.0 / rates[i]))
        i = int(np.searchsorted(np.cumsum(weights), want.random(), side="right"))
        assert emp.sample(got) == points[i]


def test_invalid_parameters():
    with pytest.raises(ConfigError):
        Exponential(0.0)
    with pytest.raises(ConfigError):
        Uniform(3.0, 1.0)
    with pytest.raises(ConfigError):
        HyperExponential((0.5, 0.6), (1.0, 2.0))  # weights must sum to 1


def test_excess_lifetime_survival_matches_tail_integral():
    d = Uniform(0.5, 1.5)
    xs = np.array([0.0, 0.4, 1.0, 1.4])
    np.testing.assert_allclose(
        d.excess_survival_array(xs), d.tail_integral_array(xs) / d.mean(), rtol=1e-12
    )


SCALAR_LAWS = (
    Exponential(1.5),
    Deterministic(1.0),
    Uniform(0.5, 2.0),
    HyperExponential((0.3, 0.7), (0.5, 2.0)),
    PointMassZero(),
)


def test_array_helpers_match_scalars():
    xs = np.array([0.0, 0.3, 1.0, 2.5, np.inf])
    ws = np.array([-np.inf, -1.0, 0.0, 0.7, np.inf])
    ys = np.array([-np.inf, -1.5, -0.2, 0.0, 0.6, 1.7, np.inf])
    s = 0.8
    for d in SCALAR_LAWS:
        ref = np.array([d.survival(x) for x in ws])
        np.testing.assert_allclose(d.survival_array(ws), ref, rtol=0.0, atol=1e-12)
        if isinstance(d, PointMassZero):
            with pytest.raises(ConfigError):
                d.excess_survival_array(xs)
        else:
            # int_x^inf P(X >= u) du / mean, integrated pointwise like the tail below
            ref = [
                0.0
                if x == np.inf
                else integrate(
                    d.survival, x, 80.0, tol=1e-13, breakpoints=d.breakpoints(), initial_step=0.5
                )
                / d.mean()
                for x in xs
            ]
            np.testing.assert_allclose(d.excess_survival_array(xs), ref, rtol=0.0, atol=1e-12)
        # int_w^inf P(X >= u) du, integrated pointwise up to where every tail is below 1e-12
        ref = [
            math.inf
            if w == -np.inf
            else integrate(
                d.survival,
                min(w, 80.0),
                80.0,
                tol=1e-13,
                breakpoints=d.breakpoints(),
                initial_step=0.5,
            )
            for w in ws
        ]
        np.testing.assert_allclose(d.tail_integral_array(ws), ref, rtol=0.0, atol=1e-12)
        # H(y) = int_0^inf e^{-s u} P(X >= y + u) du, integrated pointwise
        ref = [
            1.0 / s
            if y == -np.inf
            else 0.0
            if y == np.inf
            else integrate(
                lambda u: math.exp(-s * u) * d.survival(y + u),
                0.0,
                60.0 / s,
                tol=1e-14,
                breakpoints=[b - y for b in d.breakpoints()],
                initial_step=0.5,
            )
            for y in ys
        ]
        np.testing.assert_allclose(
            d.shifted_exp_integral_array(ys, s), ref, rtol=0.0, atol=1e-12
        )


def test_breakpoints_list_the_kink_at_zero():
    # a survival that is not C^1 at 0 needs a cut there: the lift integrand
    # of a lead law crosses 0 inside its u-range whenever y < 0
    h = 1e-6
    for d in (*SCALAR_LAWS, Uniform(0.0, 2.0), Uniform(0.5, 1.5), Deterministic(0.2)):
        left = (d.survival(-h) - d.survival(0.0)) / h
        right = (d.survival(0.0) - d.survival(h)) / h
        if abs(right - left) > 1e-3:
            assert 0.0 in d.breakpoints(), d


def test_quadrant_survival_array_matches_scalar():
    x = np.array([0.0, 0.4, 1.0, 1.7, 3.0])
    y = np.array([-np.inf, -0.5, 0.5, 1.0, 2.2])
    hyper = HyperExponential((0.3, 0.7), (0.5, 2.0))
    joints = (
        ProductJoint(Uniform(0.5, 2.0), Exponential(1.0)),
        ProductJoint(hyper, Deterministic(1.0)),
        ProductJoint(Exponential(1.0), PointMassZero()),
        LinearJoint(Uniform(0.0, 2.0), 0.5),
        LinearJoint(Deterministic(1.0), 2.0),
        EmpiricalJoint(((1.0, 0.5), (2.0, -1.0), (0.4, 1.0)), (0.25, 0.5, 0.25)),
    )
    for j in joints:
        ref = [quadrant_survival(j, float(a), float(b)) for a in x for b in y]
        got = j.quadrant_survival_array(x[:, None], y[None, :]).ravel()
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-15, err_msg=repr(j))


def test_scalar_spec_round_trip():
    for d in (
        Exponential(2.5),
        Deterministic(1.0),
        Uniform(0.0, 2.0),
        HyperExponential((0.3, 0.7), (1.0, 4.0)),
        PointMassZero(),
    ):
        assert scalar_from_spec(to_spec(d)) == d
    with pytest.raises(ConfigError):
        scalar_from_spec({"kind": "cauchy"})


# --- joint laws ---------------------------------------------------------


def test_product_joint_quadrant():
    j = ProductJoint(Exponential(1.0), Exponential(2.0))
    got = j.quadrant_survival_array(np.array([0.5, 0.5]), np.array([1.0, -math.inf]))
    # y = -inf removes the lead constraint
    np.testing.assert_allclose(got, [math.exp(-0.5) * math.exp(-2.0), math.exp(-0.5)], rtol=1e-12)
    assert j.mean_service() == 1.0


def test_linear_joint_quadrant():
    j = LinearJoint(Exponential(1.0), 2.0)
    # deadline = c * service, so {v >= x, cv >= y} = {v >= max(x, y/c)}
    got = j.quadrant_survival_array(np.array([1.0, 1.0, 0.0]), np.array([1.0, 4.0, -3.0]))
    np.testing.assert_allclose(got[:2], [math.exp(-1.0), math.exp(-2.0)], rtol=1e-12)
    assert got[2] == 1.0


def test_empirical_joint():
    j = EmpiricalJoint(((1.0, 0.5), (2.0, -1.0)), (0.25, 0.75))
    got = j.quadrant_survival_array(np.array([1.5, 0.0]), np.array([-2.0, 0.0]))
    np.testing.assert_allclose(got, [0.75, 0.25], rtol=1e-12)
    assert j.mean_service() == pytest.approx(0.25 * 1.0 + 0.75 * 2.0)
    # an atom at service 0 is representable; admissibility checks flag it later
    atom = EmpiricalJoint(((0.0, 1.0),), (1.0,))
    assert atom.service_mass_at_zero() == 1.0
    with pytest.raises(ConfigError):
        EmpiricalJoint(((-1.0, 1.0),), (1.0,))


def test_joint_quadrant_monte_carlo():
    # sampled frequency of the quadrant matches the closed survival
    rng = np.random.default_rng(11)
    j = LinearJoint(Uniform(0.5, 1.5), 1.5)
    n = 100_000
    pts = np.array([j.sample(rng) for _ in range(n)])
    for x, y in ((0.0, 0.0), (0.8, 0.9), (1.2, 1.0)):
        p = float(j.quadrant_survival_array(x, y))
        hits = np.mean((pts[:, 0] >= x) & (pts[:, 1] >= y))
        se = math.sqrt(max(p * (1 - p), 1e-12) / n)
        assert abs(hits - p) <= 3 * se + 1e-9


def test_joint_spec_round_trip():
    for j in (
        ProductJoint(Exponential(1.0), PointMassZero()),
        LinearJoint(Exponential(2.0), 0.5),
        EmpiricalJoint(((1.0, 0.0),), (1.0,)),
    ):
        assert joint_from_spec(to_spec(j)) == j
    # a key the law's class does not have is rejected, not ignored
    product = to_spec(ProductJoint(Exponential(1.0), Exponential(1.0)))
    linear = to_spec(LinearJoint(Exponential(2.0), 0.5))
    for spec in ({**product, "c": 2.0}, {**linear, "lead": to_spec(Exponential(1.0))}):
        with pytest.raises(ConfigError):
            joint_from_spec(spec)


def test_check_assumptions_pass():
    rep = check_assumptions(ProductJoint(Exponential(1.0), Exponential(1.0)), alpha=1.0)
    assert rep.passed
    assert rep.failures() == ()


def test_check_assumptions_mean_mismatch():
    rep = check_assumptions(ProductJoint(Exponential(1.0), Exponential(1.0)), alpha=2.0)
    assert not rep.passed
    assert "service_mean_matches_rate" in [c.name for c in rep.failures()]


def test_check_assumptions_atom_at_zero():
    j = EmpiricalJoint(((1e-9, 0.0), (2.0, 0.0)), (0.5, 0.5))
    rep = check_assumptions(j, alpha=1.0 / j.mean_service())
    names = [c.name for c in rep.failures()]
    assert "no_service_atom_at_zero" not in names  # tiny but positive service is fine
    j2 = ProductJoint(PointMassZero(), Exponential(1.0))
    rep2 = check_assumptions(j2, alpha=1.0)
    assert "no_service_atom_at_zero" in [c.name for c in rep2.failures()]
