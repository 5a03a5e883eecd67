"""Invariant-measure lifts, closed forms vs quadrature, limit profiles.

Closed-form oracles used below, all hand integrals of
F_z(x, y) = alpha * int_0^inf theta([x+u/z, inf) x [y+u, inf)) du:

* product exp(1) x exp(1):  F(0, y) = z e^{-y} / (1+z) for y >= 0.
* lead cdf, det(1) lead:    mass((-inf, 0]) = int_{u<=-1} e^u du = e^{-1}.
* time in queue, exp(1):    z * exp(-y/z) (the equilibrium law of exp
  is exp again).
* linear deadlines, z > c:  z + (c-z) * excess_survival(y/(c-z)) for
  y <= 0, survival extended by 1 on nonpositive arguments.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
import quadrature_oracle
from hypothesis import example, given, settings, strategies as st

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
    ht_params,
    lead_profile_product,
    lift,
    linear_deadline_profile,
    sojourn_limit_cdf,
    time_in_queue_profile,
)
from psdl import fileio, manifold
from psdl.errors import SimulationError
from psdl.measures import default_grid
from joint_supports import scalar_support
from simpson_oracle import lift_mass

EXP1 = Exponential(1.0)
UNIF = Uniform(0.0, 2.0)
HYPER = HyperExponential((0.3, 0.7), (0.5, 2.0))
# the products whose closed form sums one shifted exponential transform per
# exponential part of the service or the lead
EXP_TYPE_PAIRS = [
    ProductJoint(UNIF, EXP1),
    ProductJoint(UNIF, HYPER),
    ProductJoint(HYPER, EXP1),
    ProductJoint(HYPER, UNIF),
    ProductJoint(HYPER, HYPER),
    ProductJoint(EXP1, UNIF),
]
EXP_TYPE_IDS = ["unif-exp", "unif-hyper", "hyper-exp", "hyper-unif", "hyper-hyper", "exp-unif"]


# --- mass law ------------------------------------------------------------


@pytest.mark.parametrize("z", [0.0, 0.5, 2.0])
@pytest.mark.parametrize(
    "joint",
    [
        ProductJoint(EXP1, PointMassZero()),
        ProductJoint(EXP1, Deterministic(1.0)),
        LinearJoint(EXP1, 1.0),
        ProductJoint(Uniform(0.5, 1.5), Uniform(0.0, 2.0)),
    ],
    ids=["exp-x-d0", "exp-x-det", "linear", "unif-x-unif"],
)
def test_lift_mass_law(joint, z):
    m = lift(joint, 1.0, z)
    assert abs(m.eval(0.0, -math.inf) - z) <= 1e-6
    assert m.total_mass == pytest.approx(z, abs=1e-9)


@pytest.mark.parametrize(
    "joint, z",
    [(ProductJoint(EXP1, UNIF), 1e300), (ProductJoint(UNIF, EXP1), 1e-300)],
    ids=["exp-unif-huge-z", "unif-exp-tiny-z"],
)
def test_lift_at_extreme_mass_is_finite(joint, z):
    # the uniform law's shifted exponential transform runs at rate 1/z and z
    m, g = lift(joint, 1.0, z), default_grid()
    table = m.quadrant.eval_grid(g.x_values, g.y_values)
    assert np.all(np.isfinite(table)) and np.all(table >= 0.0)
    assert m.eval(0.0, -math.inf) == pytest.approx(m.total_mass, rel=1e-12)
    assert m.total_mass == pytest.approx(z, rel=1e-12)


# z drives a rate the closed forms build out of the float range, where
# every grid cell once read NaN (inf * 0): the service rate / z overflows,
# the uniform transform's s^2 (hi - lo) overflows, the lead rate * z
# underflows; and a total mass alpha * z * mean past the float range
RATE_OUT_OF_RANGE = [
    (ProductJoint(Exponential(1e10), UNIF), 1e-300, "service rate"),
    (ProductJoint(EXP1, UNIF), 1e-308, "uniform transform"),
    (ProductJoint(UNIF, HyperExponential((0.5, 0.5), (0.5, 2.0))), 5e-324, "lead rate"),
    (ProductJoint(Exponential(5e-324), EXP1), 1.5, "total mass"),
    (ProductJoint(HyperExponential((0.5, 0.5), (1.0, 3.0)), PointMassZero()), 5e-324, "service rate"),
]


@pytest.mark.parametrize(
    "joint, z, name",
    RATE_OUT_OF_RANGE,
    ids=["service-rate", "uniform-square", "lead-rate", "total-mass", "zero-lead-service-rate"],
)
def test_rate_out_of_float_range_is_a_config_error(joint, z, name):
    g = default_grid()
    with pytest.raises(ConfigError, match=f"{name}.*float range"):
        lift(joint, 1.0, z).quadrant.eval_grid(g.x_values, g.y_values)


@pytest.mark.parametrize("lead", [HyperExponential((0.5, 0.5), (1.0, 3.0)), PointMassZero()], ids=["hyper", "zero"])
def test_lead_side_split_past_the_float_range_is_its_limit(lead):
    # x + (a - y)^+ / z overflows to +inf at z = 5e-324, the split's limit,
    # which once warned (and raised under the suite's warning filter)
    g = default_grid()
    m = lift(ProductJoint(UNIF, lead), 1.0, 5e-324)
    table = m.quadrant.eval_grid(g.x_values, g.y_values)
    assert np.all(table >= 0.0) and table[0, 0] == m.total_mass == 5e-324


def test_eval_reports_a_non_finite_cell():
    # the two-point fallback's u-range z (su - x) leaves the float range here
    with pytest.raises(ConfigError, match="1 of the 1 quadrant masses leave the float range"):
        lift(ProductJoint(UNIF, UNIF), 1.0, 1.7e308).eval(0.0, -math.inf)


@pytest.mark.parametrize("service", [EXP1, UNIF], ids=["exp", "unif"])
def test_narrow_uniform_lead_is_the_zero_lead(service):
    # Uniform(0, 5e-324): its survival's quotient once overflowed to be clipped
    g = default_grid()
    narrow = lift(ProductJoint(service, Uniform(0.0, 5e-324)), 1.0, 1.5).quadrant
    zero = lift(ProductJoint(service, PointMassZero()), 1.0, 1.5).quadrant
    narrow, zero = (q.eval_grid(g.x_values, g.y_values) for q in (narrow, zero))
    np.testing.assert_allclose(narrow, zero, rtol=0.0, atol=1e-15)
    np.testing.assert_array_equal(Uniform(0.0, 5e-324).survival_array([-1.0, 0.0, 5e-324, 1.0]), [1, 1, 0, 0])


def test_lift_zero_mass_is_zero_function():
    m = lift(ProductJoint(EXP1, EXP1), 1.0, 0.0)
    assert m.eval(0.0, -math.inf) == 0.0
    assert m.eval(1.0, 0.5) == 0.0


# --- closed forms against hand integrals ---------------------------------


def test_product_exp_exp_closed_form():
    z = 1.5
    m = lift(ProductJoint(EXP1, EXP1), 1.0, z)
    assert m.method == "closed_form_product"
    for y in (0.0, 0.5, 2.0):
        assert m.eval(0.0, y) == pytest.approx(z * math.exp(-y) / (1 + z), abs=1e-12)
    # residual marginal is the equilibrium (here exp) law scaled by z
    assert m.eval(0.7, -math.inf) == pytest.approx(z * math.exp(-0.7), abs=1e-12)


def test_lead_profile_product_values():
    # immediate deadlines put every limiting lead at or below 0
    assert lead_profile_product(EXP1, PointMassZero(), 1.0, 1.0, 0.0) == pytest.approx(1.0)
    # deterministic(1) lead: hand integral gives e^{-1}
    assert lead_profile_product(EXP1, Deterministic(1.0), 1.0, 1.0, 0.0) == pytest.approx(
        math.exp(-1.0), abs=1e-9
    )
    # y -> inf recovers the total mass
    assert lead_profile_product(EXP1, EXP1, 1.0, 2.0, 50.0) == pytest.approx(2.0, abs=1e-9)
    assert lead_profile_product(EXP1, EXP1, 1.0, 0.0, 1.0) == 0.0


def test_time_in_queue_profile_values():
    assert time_in_queue_profile(EXP1, 2.0, 0.0) == pytest.approx(2.0)
    assert time_in_queue_profile(EXP1, 2.0, 1.0) == pytest.approx(2.0 * math.exp(-0.5))
    assert time_in_queue_profile(EXP1, 0.0, 3.0) == 0.0
    with pytest.raises(ConfigError):
        time_in_queue_profile(EXP1, 1.0, -0.5)


def test_sojourn_limit_cdf_values():
    assert sojourn_limit_cdf(EXP1, 2.0, 0.0) == 0.0
    assert sojourn_limit_cdf(EXP1, 2.0, 2.0) == pytest.approx(1.0 - math.exp(-1.0))
    assert sojourn_limit_cdf(EXP1, 2.0, 200.0) == pytest.approx(1.0)
    # the interval is open on the right: a point mass exactly at y/z is excluded
    assert sojourn_limit_cdf(Deterministic(1.0), 1.0, 1.0) == 0.0
    with pytest.raises(ConfigError):
        sojourn_limit_cdf(EXP1, 0.0, 1.0)


def test_linear_profile_no_lateness_below_capacity():
    for z in (0.1, 0.5, 1.0):
        total = linear_deadline_profile(EXP1, 1.0, z, 0.0)
        assert total == pytest.approx(z, abs=1e-12)
        # mass strictly below lead 0 is the jump across y=0, which is none
        assert linear_deadline_profile(EXP1, 1.0, z, -1e-9) == pytest.approx(z, abs=1e-12)


def test_linear_profile_overloaded_branch():
    # z=2 > c=1, y=-1: z + (c-z) * excess_survival(1) with exp equilibrium
    v = linear_deadline_profile(EXP1, 1.0, 2.0, -1.0)
    assert v == pytest.approx(2.0 - math.exp(-1.0), abs=1e-12)
    # positive-lead side uses the c-scaled equilibrium tail
    v2 = linear_deadline_profile(EXP1, 1.0, 2.0, 0.5)
    assert v2 == pytest.approx(math.exp(-0.5), abs=1e-12)


def test_linear_profile_matches_lift():
    c, z = 1.0, 2.0
    m = lift(LinearJoint(EXP1, c), 1.0, z)
    for y in (-2.0, -1.0, -0.25, 0.0, 0.5, 1.5):
        assert linear_deadline_profile(EXP1, c, z, y) == pytest.approx(
            m.eval(0.0, y), abs=1e-6
        )


# --- generic quadrature agreement ----------------------------------------


@pytest.mark.parametrize(
    "joint,z",
    [
        (ProductJoint(EXP1, EXP1), 1.0),
        (ProductJoint(EXP1, Deterministic(1.0)), 2.0),
        (ProductJoint(Deterministic(1.0), EXP1), 0.7),
        (ProductJoint(EXP1, HYPER), 1.3),
        (LinearJoint(EXP1, 0.8), 1.7),
        *((joint, 1.2) for joint in EXP_TYPE_PAIRS),
        # z < c, z = c and z > c
        *((LinearJoint(HYPER, 1.0), z) for z in (0.6, 1.0, 1.7)),
    ],
    ids=[
        "exp-exp", "exp-det", "det-exp", "exp-hyper", "linear", *EXP_TYPE_IDS,
        "linear-hyper-below", "linear-hyper-at", "linear-hyper-above",
    ],
)
def test_closed_form_vs_quadrature(joint, z):
    closed = lift(joint, 1.0, z)
    assert closed.method.startswith("closed_form")
    quad = quadrature_oracle.lift(joint, 1.0, z)
    for x in (0.0, 0.4, 1.1):
        for y in (-math.inf, -1.0, 0.0, 0.6, 2.0):
            assert abs(closed.eval(x, y) - quad.eval(x, y)) <= 1e-4


@pytest.mark.parametrize("joint", EXP_TYPE_PAIRS, ids=EXP_TYPE_IDS)
def test_exp_type_closed_forms_match_quadrature_on_the_grid(joint):
    g = default_grid()
    for z in (1e-6, 0.05, 1.0, 6.0):
        closed = lift(joint, 1.3, z)
        assert closed.method == "closed_form_product"
        table = closed.quadrant.eval_grid(g.x_values, g.y_values)
        quad = quadrature_oracle.lift(joint, 1.3, z, tol=1e-10)
        assert np.max(np.abs(table - quad.quadrant.eval_grid(g.x_values, g.y_values))) <= 1e-9
        assert abs(closed.eval(0.0, -math.inf) - 1.3 * z * joint.mean_service()) <= 1e-12


def test_quadrature_refinement_consistency():
    joint = ProductJoint(Uniform(0.5, 1.5), Uniform(0.0, 2.0))
    coarse = quadrature_oracle.lift(joint, 1.0, 1.2, tol=1e-6)
    fine = quadrature_oracle.lift(joint, 1.0, 1.2, tol=5e-7)
    for x in (0.0, 0.6):
        for y in (-1.0, 0.3, 1.1):
            assert abs(coarse.eval(x, y) - fine.eval(x, y)) < 1e-6


@pytest.mark.parametrize("z", [1e-9, 1e-6, 1e-3])
def test_quadrature_resolves_unbounded_service_at_small_mass(z):
    # the service section decays within u ~ z, far inside the first lead panel
    m = quadrature_oracle.lift(ProductJoint(EXP1, EXP1), 1.0, z, tol=1e-12)
    closed = lift(ProductJoint(EXP1, EXP1), 1.0, z)
    for x, y in ((0.0, -math.inf), (0.0, -1.0), (0.3, 0.5)):
        assert abs(m.eval(x, y) - closed.eval(x, y)) <= 1e-12
    assert m.eval(0.0, -math.inf) == pytest.approx(z, rel=1e-9)


_EXP_TYPE = st.one_of(
    st.builds(Exponential, st.floats(0.3, 3.0)),
    st.builds(
        lambda p, r1, r2: HyperExponential((p, 1.0 - p), (r1, r2)),
        st.floats(0.1, 0.9),
        st.floats(0.3, 3.0),
        st.floats(0.3, 3.0),
    ),
)
_SCALAR = st.one_of(
    # lo = 0 and lo > 0: the first survival kink at the origin or past it
    st.builds(
        lambda lo, w: Uniform(lo, lo + w), st.just(0.0) | st.floats(0.0, 1.0), st.floats(0.2, 2.0)
    ),
    st.builds(Deterministic, st.floats(0.2, 2.0)),
    _EXP_TYPE,
)
_JOINT = st.one_of(
    st.builds(ProductJoint, _SCALAR, _SCALAR),
    st.builds(LinearJoint, _SCALAR, st.floats(0.3, 3.0)),
)


@settings(max_examples=40, deadline=None)
# a panel straddling the lead survival's kink at 0 (u = 0.8) fooled K15 - G7
@example(ProductJoint(Uniform(0.0, 2.0), EXP1), 1.0, 1.6, [(0.9, -0.8)])
@given(
    _JOINT,
    st.floats(0.5, 2.0),
    st.floats(0.05, 4.0),
    st.lists(
        st.tuples(st.floats(0.0, 3.0), st.just(-math.inf) | st.floats(-4.0, 4.0)),
        min_size=1,
        max_size=4,
    ),
)
def test_quadrature_matches_simpson_oracle(joint, alpha, z, points):
    tol = 1e-6
    m = quadrature_oracle.lift(joint, alpha, z, tol=tol)
    for x, y in points:
        assert abs(m.eval(x, y) - lift_mass(joint, alpha, z, x, y, tol)) <= 2 * tol


# services of every scalar family; z log-uniform over twelve decades
_EMPIRICAL = st.builds(
    EmpiricalJoint,
    st.lists(st.tuples(st.floats(0.05, 2.0), st.floats(-1.0, 3.0)), min_size=1, max_size=4),
)
_ANY_JOINT = st.one_of(
    st.builds(ProductJoint, _SCALAR, _SCALAR | st.just(PointMassZero())),
    st.builds(LinearJoint, _SCALAR, st.floats(0.3, 3.0)),
    _EMPIRICAL,
)


@settings(max_examples=60, deadline=None)
# the smallest z: the two-point fallback once read this total mass as 0
@example(LinearJoint(Deterministic(1.0), 0.5), 1.0, 5e-324)
@given(_ANY_JOINT, st.floats(0.1, 10.0), st.floats(-6.0, 6.0).map(lambda e: 10.0**e))
def test_lift_mass_law_over_random_joints(joint, alpha, z):
    # F(0, -inf) is the total mass alpha z E[V], and no cell of the default
    # grid is negative.  Monotonicity in x and y is not asserted: with a
    # Deterministic service, the atom branch of _service_side subtracts two
    # lead tail integrals about z apart, and below z ~ 1e-2 the table can
    # rise by more than 1e-12 of its total (ROADMAP item 12)
    m, g = lift(joint, alpha, z), default_grid()
    assert m.eval(0.0, -math.inf) == pytest.approx(alpha * z * joint.mean_service(), rel=1e-12, abs=0.0)
    assert np.all(m.quadrant.eval_grid(g.x_values, g.y_values) >= 0.0), (joint, alpha, z)


_COARSE_XS = np.array([0.0, 0.4, 1.1, 2.5])
_COARSE_YS = np.array([-math.inf, -2.0, -0.3, 0.0, 0.6, 2.2])


@settings(max_examples=50, deadline=None)
@given(
    _EXP_TYPE,
    # z on either side of c, and z == c, where the two lines never cross
    st.floats(0.3, 3.0).flatmap(lambda c: st.tuples(st.just(c), st.just(c) | st.floats(0.05, 4.0))),
)
def test_linear_closed_form_matches_oracle(service, cz):
    c, z = cz
    joint = LinearJoint(service, c)
    closed = lift(joint, 1.3, z)
    assert closed.method == "closed_form_linear"
    table = closed.quadrant.eval_grid(_COARSE_XS, _COARSE_YS)
    quad = quadrature_oracle.lift(joint, 1.3, z, tol=1e-10)
    assert np.max(np.abs(table - quad.quadrant.eval_grid(_COARSE_XS, _COARSE_YS))) <= 1e-9


def _dexpm1(t: Decimal) -> Decimal:
    """e^t - 1 to the context's precision; its series for small |t|."""
    if abs(t) >= Decimal("0.1"):
        return t.exp() - 1
    term = total = t
    k = 1
    while abs(term) > abs(total) * Decimal(10) ** -45:
        k += 1
        term = term * t / k
        total += term
    return total


def _dec(q: Fraction) -> Decimal:
    return Decimal(q.numerator) / Decimal(q.denominator)


def _exp_type_reference(parts, alpha, v0, k1, k2, h) -> float:
    """alpha * int g'(v) P(V >= v) dv to 40 digits, for V with P(V >= v) =
    sum w e^{-m v} over the (w, m) parts and g rising from 0 at v0 with
    slope k1, then k2 from v0 + h on (h None: never); exact fractions in."""
    with localcontext() as ctx:
        ctx.prec = 40
        total = Decimal(0)
        for w, m in parts:
            m = Decimal(m)
            start = Decimal(w) / m * (-m * _dec(v0)).exp()
            if h is None:
                total += start * _dec(k1)
            else:
                e = _dexpm1(-m * _dec(h))
                total += start * (_dec(k2) * (e + 1) - _dec(k1) * e)
        return float(Decimal(alpha) * total)


def _atom_lead_reference(parts, d, alpha, z, x, y) -> float:
    """alpha * E_V[min(z (V - x)^+, (d - y)^+)]: the lift of an exponential
    or mixture service V with every lead at d."""
    x, z = Fraction(x), Fraction(z)
    window = None if y == -math.inf else max(Fraction(d) - Fraction(y), Fraction(0)) / z
    return _exp_type_reference(parts, alpha, x, z, Fraction(0), window)


def _linear_reference(parts, c, alpha, z, x, y) -> float:
    """alpha * E_V[max(0, min(z (V - x), c V - y))]: the lift of lead = c V."""
    x, c, z = Fraction(x), Fraction(c), Fraction(z)
    if y == -math.inf:
        return _exp_type_reference(parts, alpha, x, z, c, None)
    y = Fraction(y)
    # g is 0 up to v0 = max(x, y / c), then follows the line that is 0 there
    # until the other line, if it is less steep, crosses it
    residual_zero = x >= y / c
    v0 = x if residual_zero else y / c
    k1, k2 = (z, c) if residual_zero else (c, z)
    h = (z * x - y) / (z - c) - v0 if k1 > k2 else None
    return _exp_type_reference(parts, alpha, v0, k1, k2, h)


def _parts(d):
    return tuple(zip(d.weights, d.rates)) if isinstance(d, HyperExponential) else ((1.0, d.rate),)


@pytest.mark.parametrize("z", [1e3, 1e6])
@pytest.mark.parametrize(
    "joint", [ProductJoint(HYPER, Deterministic(1.0)), ProductJoint(EXP1, PointMassZero())], ids=["hyper-det", "exp-zero"]
)
def test_atom_lead_lift_matches_decimal_reference(joint, z):
    # the service side's transforms at rate m / z hold where the lead side's
    # service tail-integral differences at levels 1/z apart lost 1e-12 to 1e-9
    table = lift(joint, 1.3, z).quadrant.eval_grid(_COARSE_XS, _COARSE_YS)
    d = joint.lead.mean()
    ref = [[_atom_lead_reference(_parts(joint.service), d, 1.3, z, x, y) for y in _COARSE_YS] for x in _COARSE_XS]
    np.testing.assert_allclose(table, ref, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("service", [Exponential(1.7), HYPER], ids=["exp", "hyper"])
@pytest.mark.parametrize("c", [0.4, 1.0, 2.5])
def test_linear_lift_matches_decimal_reference(service, c):
    # the per-part form takes the overtaking gap h from y - c x; differences of
    # tail integrals at levels about 1/z apart once lost up to 0.88 at z = 1e100
    for z in (1e-12, 1e-6, c, 1.0, 1e6, 1e12, 1e100):
        m = lift(LinearJoint(service, c), 1.3, z)
        assert m.method == "closed_form_linear"
        table = m.quadrant.eval_grid(_COARSE_XS, _COARSE_YS)
        ref = [[_linear_reference(_parts(service), c, 1.3, z, x, y) for y in _COARSE_YS] for x in _COARSE_XS]
        np.testing.assert_allclose(table, ref, rtol=1e-14, atol=0.0, err_msg=f"z = {z}")
    at_large_z = lift(LinearJoint(EXP1, 1.0), 1.3, 1e100).eval(0.5, 0.0)
    assert at_large_z == pytest.approx(1.3 * 1.5 * math.exp(-0.5), rel=1e-15)


def test_empirical_closed_form_matches_oracle():
    rng = np.random.default_rng(3)
    joint = EmpiricalJoint(
        tuple(zip(rng.uniform(0.1, 2.0, 12), rng.normal(0.0, 1.0, 12))),
        tuple(rng.dirichlet(np.ones(12))),
    )
    xs = np.array([0.0, 0.3, 1.1, 2.5])
    ys = np.array([-math.inf, -1.2, 0.0, 0.4, 2.0])
    for z in (0.4, 1.0, 2.7):
        m = lift(joint, 1.3, z)
        assert m.method == "closed_form_empirical"
        table = m.quadrant.eval_grid(xs, ys)
        quad = quadrature_oracle.lift(joint, 1.3, z).quadrant.eval_grid(xs, ys)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                ref = lift_mass(joint, 1.3, z, float(x), float(y), 1e-9)
                assert abs(table[i, j] - ref) <= 2e-9
                assert abs(quad[i, j] - ref) <= 2e-6
        assert m.eval(0.0, -math.inf) == pytest.approx(1.3 * z * joint.mean_service(), abs=1e-12)


def test_unreachable_tolerance_raises():
    # bisection doubles the live panels each pass until the cap ends it
    m = quadrature_oracle.lift(ProductJoint(EXP1, EXP1), 1.0, 1.0, tol=1e-300)
    with pytest.raises(SimulationError, match="panels still above"):
        m.quadrant.eval_grid(np.linspace(0.0, 5.0, 51), np.linspace(-5.0, 5.0, 101))


def test_explicit_method_mismatch():
    # the family picks the path: lift takes no method or tolerance
    for option in ({"method": "quadrature"}, {"tol": 1e-6}):
        with pytest.raises(TypeError):
            lift(ProductJoint(EXP1, EXP1), 1.0, 1.0, **option)
    with pytest.raises(ConfigError):
        lift(ProductJoint(EXP1, EXP1), 1.0, -1.0)


_FAMILIES = [EXP1, Deterministic(1.0), UNIF, HYPER, PointMassZero()]


@pytest.mark.parametrize("service", _FAMILIES, ids=lambda d: d.kind)
def test_quadrature_only_on_bounded_service(service):
    # the quadrature has no tail truncation: every unbounded service law
    # must resolve to a closed form
    joints = [ProductJoint(service, lead) for lead in _FAMILIES] + [LinearJoint(service, 0.8)]
    for joint in joints:
        m = lift(joint, 1.0, 0.7)
        if m.method == "quadrature":
            assert math.isfinite(scalar_support(joint.service)[0]), joint
        assert math.isfinite(m.eval(0.0, -math.inf))


def test_fallback_laws_end_at_their_last_kink():
    # the fallback's premise: every law of a joint that reaches it is a
    # uniform, with no mass past hi, which is where it ends the u-range
    joints = [ProductJoint(s, l) for s in _FAMILIES for l in _FAMILIES]
    joints += [LinearJoint(s, c) for s in _FAMILIES for c in (0.5, 0.8, 1.0, 2.0)]
    laws = set()
    for joint in joints:
        if lift(joint, 1.3, 1.0).method == "quadrature":
            laws.add(joint.service)
            laws.add(getattr(joint, "lead", joint.service))
    assert laws
    for d in laws:
        assert isinstance(d, Uniform), d
        past = np.nextafter(d.hi, np.inf)
        assert d.survival_array(np.array([past]))[0] == 0.0, d


@pytest.mark.parametrize("service", [Deterministic(1.0), Deterministic(0.4), PointMassZero()], ids=["det1", "det0.4", "zero"])
@pytest.mark.parametrize("c", [0.5, 0.8, 1.0, 2.0])
def test_atom_service_linear_lift_matches_oracle_on_the_grid(service, c):
    # a linear joint whose service is an atom at a is the one point (a, c a)
    joint = LinearJoint(service, c)
    g = default_grid()
    for z in (1e-6, 0.05, 0.4, 0.8, 2.0, 4.0):
        m = lift(joint, 1.3, z)
        assert m.method == "closed_form_empirical"
        table = m.quadrant.eval_grid(g.x_values, g.y_values)
        quad = quadrature_oracle.lift(joint, 1.3, z, tol=1e-10)
        err = np.max(np.abs(table - quad.quadrant.eval_grid(g.x_values, g.y_values)))
        assert err <= 1e-12, (joint, z, err)


@pytest.mark.parametrize("joint", [LinearJoint(Deterministic(1.0), 0.5), LinearJoint(PointMassZero(), 2.0)], ids=["det", "zero"])
@pytest.mark.parametrize("z", [1e308, 1.7e308])
def test_atom_service_linear_lift_at_the_float_maximum(joint, z):
    # z (a - x) overflows to -inf for x past a + 1.8, which max(., 0) clamps;
    # it once warned (and raised under the suite's warning filter)
    m, g = lift(joint, 1.0, z), default_grid()
    table = m.quadrant.eval_grid(g.x_values, g.y_values)
    assert np.all(table >= 0.0) and table[0, 0] == m.total_mass
    assert np.all(table[g.x_values > joint.service.mean()] == 0.0)  # past the atom


def test_quadrature_fallback_matches_oracle_on_the_grid():
    # every joint without a closed form has piecewise-linear or step sections,
    # so the two-point rule on the cut panels is exact up to rounding; a new
    # family reaching the fallback with a curved section fails here
    assert {d.kind for d in _FAMILIES} == set(fileio._SCALAR_KINDS)
    joints = [ProductJoint(s, l) for s in _FAMILIES for l in _FAMILIES]
    joints += [LinearJoint(s, 0.8) for s in _FAMILIES]
    fallback = [j for j in joints if lift(j, 1.3, 1.0).method == "quadrature"]
    assert fallback
    g = default_grid()
    for joint in fallback:
        for z in (1e-6, 0.05, 0.4, 0.8, 2.0, 4.0):
            m = lift(joint, 1.3, z)
            assert m.method == "quadrature"
            table = m.quadrant.eval_grid(g.x_values, g.y_values)
            quad = quadrature_oracle.lift(joint, 1.3, z, tol=1e-10)
            err = np.max(np.abs(table - quad.quadrant.eval_grid(g.x_values, g.y_values)))
            assert err <= 1e-12, (joint, z, err)


def test_eval_grid_matches_pointwise():
    m = lift(ProductJoint(EXP1, EXP1), 1.0, 1.4)
    xs = np.array([0.0, 0.5, 2.0])
    ys = np.array([-math.inf, -0.5, 0.0, 1.0])
    table = m.quadrant.eval_grid(xs, ys)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            assert table[i, j] == pytest.approx(m.eval(float(x), float(y)), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(-2.0, 3.0),
    st.floats(0.0, 2.0),
)
def test_profile_monotone_in_y_and_x(y, dy):
    m = lift(ProductJoint(EXP1, EXP1), 1.0, 1.0)
    assert m.eval(0.0, y + dy) <= m.eval(0.0, y) + 1e-12
    assert m.eval(0.5, y) <= m.eval(0.0, y) + 1e-12


def test_equilibrium_density_identity():
    # the reflected lead density at u <= 0 is alpha * survival(-u/z); at
    # u = -wz that equals the equilibrium density of the service law at w
    for nu in (EXP1, Uniform(0.5, 1.5)):
        alpha = 1.0 / nu.mean()
        for w in (0.1, 0.6, 1.2):
            h = 1e-6
            lo, hi = nu.excess_survival_array(np.array([w - h, w + h]))
            dens = (lo - hi) / (2 * h)
            assert dens == pytest.approx(alpha * nu.survival(w), abs=1e-4)


# --- heavy-traffic constants ----------------------------------------------


def test_ht_params_mm1():
    p = ht_params(1.0, 1.0, 1.0, 0.5)
    assert p["queue_workload_ratio"] == pytest.approx(1.0)
    assert p["workload_drift"] == -0.5
    assert p["workload_var"] == pytest.approx(2.0)
    assert p["queue_drift"] == pytest.approx(-0.5)
    assert p["queue_var"] == pytest.approx(2.0)


def test_ht_params_md1():
    p = ht_params(1.0, 1.0, 0.0, 0.25)
    assert p["queue_workload_ratio"] == pytest.approx(2.0)
    assert p["workload_var"] == pytest.approx(1.0)
    assert p["queue_var"] == pytest.approx(4.0)
    # identities relating queue and workload diffusions
    ratio = p["queue_workload_ratio"]
    assert p["queue_drift"] == pytest.approx(ratio * p["workload_drift"])
    assert p["queue_var"] == pytest.approx(ratio**2 * p["workload_var"])


def test_ht_params_zero_drift():
    assert ht_params(1.0, 1.0, 1.0, 0.0)["queue_drift"] == 0.0
