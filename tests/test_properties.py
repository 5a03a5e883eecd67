"""Property tests of the event engine over random laws and seeds.

Each property is a structural fact the engine must honour for any
admissible input, so hypothesis draws the interarrival law, the joint
(service, lead) law and the seed; horizons stay small to keep the suite
fast.
"""

import math
from collections import Counter
from dataclasses import replace

import engine_oracle
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from naive_oracle import step_simulate
from state_checks import departures, verify_dynamic_equation

from psdl import (
    Deterministic,
    EmpiricalJoint,
    Exponential,
    HyperExponential,
    LinearJoint,
    PointMassZero,
    ProductJoint,
    ScenarioConfig,
    SimulationError,
    Uniform,
    run,
)
from psdl import engine
from psdl.engine import _BLOCK_ROWS, _MAX_BLOCK_ROWS, TrafficStream
from psdl.harness import SweepConfig, build_scenario
from psdl.measures import default_grid

seeds = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def positive_laws(draw, lo=0.3, hi=1.5):
    """A scalar law on (0, oo) with mean in [lo, hi]."""
    m = draw(st.floats(min_value=lo, max_value=hi))
    kind = draw(st.sampled_from(("exponential", "deterministic", "uniform", "hyperexponential")))
    if kind == "exponential":
        return Exponential(1.0 / m)
    if kind == "deterministic":
        return Deterministic(m)
    if kind == "uniform":
        half = m * draw(st.floats(min_value=0.1, max_value=1.0))
        return Uniform(m - half, m + half)
    w = draw(st.floats(min_value=0.1, max_value=0.9))
    # two phases with means m/2 and m(1 - w/2)/(1 - w): overall mean m
    return HyperExponential((w, 1.0 - w), (2.0 / m, (1.0 - w) / (m * (1.0 - 0.5 * w))))


@st.composite
def joint_laws(draw):
    kind = draw(st.sampled_from(("product", "linear", "empirical")))
    if kind == "product":
        lead = draw(st.one_of(positive_laws(0.2, 3.0), st.just(PointMassZero())))
        return ProductJoint(draw(positive_laws()), lead)
    if kind == "linear":
        return LinearJoint(draw(positive_laws()), draw(st.floats(min_value=0.2, max_value=3.0)))
    pts = draw(
        st.lists(
            st.tuples(
                st.floats(min_value=0.05, max_value=2.0),
                st.floats(min_value=-1.0, max_value=3.0),
            ),
            min_size=1,
            max_size=4,
        )
    )
    return EmpiricalJoint(tuple(pts))


@st.composite
def scenarios(draw, horizon=20.0):
    return ScenarioConfig(
        interarrival=draw(positive_laws(0.6, 2.0)),
        joint=draw(joint_laws()),
        horizon=horizon,
        snapshot_times=(0.25 * horizon, horizon),
        seed=draw(seeds),
        lead_scale=draw(st.floats(min_value=0.1, max_value=50.0)),
        initial_jobs=tuple(
            draw(
                st.lists(
                    st.tuples(st.floats(min_value=0.05, max_value=3.0), st.floats(-2.0, 2.0)),
                    max_size=3,
                )
            )
        ),
    )


@st.composite
def exponential_scenarios(draw):
    """All-exponential traffic, which the stream draws in blocks, long
    enough to span several of them."""
    rate = st.floats(min_value=0.5, max_value=2.0)
    return ScenarioConfig(
        interarrival=Exponential(draw(rate)),
        joint=ProductJoint(Exponential(draw(rate)), Exponential(draw(rate))),
        horizon=800.0,
        snapshot_times=(200.0, 800.0),
        seed=draw(seeds),
        lead_scale=draw(st.floats(min_value=0.1, max_value=50.0)),
        first_interarrival=draw(st.one_of(st.none(), st.just(Deterministic(0.5)))),
        initial_jobs=tuple(
            draw(st.lists(st.tuples(st.floats(0.05, 3.0), st.floats(-2.0, 2.0)), max_size=3))
        ),
    )


def _with_t0_snapshot(cfg, t0):
    return replace(cfg, snapshot_times=(0.0, *cfg.snapshot_times)) if t0 else cfg


def _snapshot_bytes(out):
    return [
        (t, s, m.residuals.tobytes(), m.leads.tobytes(), m.weights.tobytes())
        for t, s, m in out.snapshots
    ]


_KINDS = ("init", "arrival", "departure", "snapshot", "end")


@settings(max_examples=40, deadline=None)
@given(scenarios(), st.booleans())
def test_replayed_path_agrees_with_counters(cfg, t0):
    out = run(_with_t0_snapshot(cfg, t0))
    # the loop's counters agree with the log replayed from its record
    assert out.event_counts == Counter(out.path.kinds)
    assert list(out.event_counts) == [k for k in _KINDS if k in out.path.kinds]
    assert out.max_z == int(out.path.z.max())
    assert len(out.event_marks) == out.event_counts.get("departure", 0) + len(out.snapshots)
    assert out.path is out.path  # replayed once


def _record_fields(out):
    """Every ``SimOutput`` field, floats as bytes."""
    return (
        _snapshot_bytes(out),
        out.departure_times.tobytes(),
        out.departure_sojourns.tobytes(),
        out.event_counts,
        out.max_z,
        out.jobs,
        out.event_marks,
        out.s_end,
    )


def _path_fields(p):
    return (p.times.tobytes(), p.kinds, p.z.tobytes(), p.w_pre.tobytes(), p.w_post.tobytes(), p.s.tobytes())


def _output_fields(out):
    """Every ``SimOutput`` field, floats as bytes, then the replayed path
    log and workload check."""
    return (*_record_fields(out), _path_fields(out.path), out.workload_check)


# scenarios at the engine's ties and edges, run as oracle examples
_TIE_CASES = [
    # equal initial services: equal targets from the start
    ScenarioConfig(
        interarrival=Exponential(1.0),
        joint=ProductJoint(Exponential(1.25), Exponential(0.5)),
        horizon=20.0,
        snapshot_times=(5.0, 20.0),
        seed=3,
        initial_jobs=((1.0, 0.5), (1.0, -1.0), (1.0, 2.0)),
    ),
    # a service below ulp(S)/2: target == S on entry, so the job leaves at
    # zero dt, tied with the S it found
    ScenarioConfig(
        interarrival=Exponential(1.5),
        joint=EmpiricalJoint(((1e-20, 0.5), (1.5, 1.0))),
        horizon=20.0,
        snapshot_times=(5.0, 20.0),
        seed=4,
        initial_jobs=((2.0, 0.5),),
    ),
    # duplicate atoms and deterministic gaps: jobs in service with equal targets
    ScenarioConfig(
        interarrival=Deterministic(0.75),
        joint=EmpiricalJoint(((1.0, 0.5), (1.0, 0.5), (0.5, 0.5), (0.5, 0.5))),
        horizon=20.0,
        snapshot_times=(5.0, 20.0),
        seed=19,
    ),
    # snapshots at 0 and at the horizon
    ScenarioConfig(
        interarrival=Uniform(0.5, 1.5),
        joint=ProductJoint(Exponential(1.0), Uniform(0.0, 2.0)),
        horizon=20.0,
        snapshot_times=(0.0, 20.0),
        seed=6,
        initial_jobs=((1.0, 0.5),),
    ),
    # two drifts toward the smaller target v, the second ending at 2 v, when
    # it would leave undisturbed: the rounded steps carry S past v, and the
    # clamp lands S on it, so it leaves at 2 v and not before
    ScenarioConfig(
        interarrival=Deterministic(100.0),
        joint=ProductJoint(Exponential(1.0), Exponential(1.0)),
        horizon=10.0,
        snapshot_times=(1.1084719932797815, 2 * 1.7837896981588581),
        initial_jobs=((1.7837896981588581, 0.5), (10.0, 1.0)),
    ),
]


def _with_examples(cases):
    """Each case as an explicit example (cfg, t0=False)."""

    def decorate(test):
        for cfg in reversed(cases):
            test = example(cfg, False)(test)
        return test
    return decorate


def test_tie_cases_tie():
    # each tie case holds what it is there for
    equal, tiny, dup, snaps, drift = (run(cfg) for cfg in _TIE_CASES)
    for out in (equal, dup):
        targets = [j.target for j in out.jobs]
        assert len(set(targets)) < len(targets)
        assert 0.0 in np.diff(out.departure_times)
    assert any(j.target == j.service_offset for j in tiny.jobs if j.departure_time is not None)
    assert [t for t, _, _ in snaps.snapshots] == [0.0, snaps.config.horizon]
    (t_a, s_a, _), (t_b, s_b, _) = drift.snapshots
    v = drift.jobs[0].target
    assert s_a + (t_b - t_a) / 2 > v  # the unclamped drift overshoots
    assert s_b == v and list(drift.departure_times) == [t_b]


@settings(max_examples=60, deadline=None)
@given(st.one_of(scenarios(), exponential_scenarios()), st.booleans())
@_with_examples(_TIE_CASES)
def test_engine_matches_per_event_oracle(cfg, t0):
    cfg = _with_t0_snapshot(cfg, t0)
    # the engine replays its path log and workload check from its record;
    # the oracle keeps them event by event
    want, path, workload_check = engine_oracle.run(cfg)
    assert _output_fields(run(cfg)) == (*_record_fields(want), _path_fields(path), workload_check)


def _time_scaled(law, c):
    """The law of c X for X drawn from ``law``, drawing the same variates."""
    if isinstance(law, Exponential):
        return Exponential(law.rate / c)
    if isinstance(law, Deterministic):
        return Deterministic(c * law.value)
    if isinstance(law, Uniform):
        return Uniform(c * law.lo, c * law.hi)
    if isinstance(law, HyperExponential):
        return HyperExponential(law.weights, tuple(r / c for r in law.rates))
    if isinstance(law, ProductJoint):
        return ProductJoint(_time_scaled(law.service, c), law.lead)
    if isinstance(law, LinearJoint):
        return LinearJoint(_time_scaled(law.service, c), law.c)
    assert isinstance(law, EmpiricalJoint)
    return EmpiricalJoint(tuple((c * v, l) for v, l in law.points), law.weights)


@settings(max_examples=40, deadline=None)
@given(scenarios(), st.integers(min_value=-10, max_value=10))
def test_time_scaling_scales_departures_exactly(cfg, k):
    # every engine operation is +, -, *, / or a comparison, all exact under
    # a power-of-two change of time unit: departures scale bit for bit
    c = 2.0**k
    scaled = replace(
        cfg,
        interarrival=_time_scaled(cfg.interarrival, c),
        joint=_time_scaled(cfg.joint, c),
        horizon=c * cfg.horizon,
        snapshot_times=tuple(c * t for t in cfg.snapshot_times),
        initial_jobs=tuple((c * v, l) for v, l in cfg.initial_jobs),
    )
    a = run(cfg)
    b = run(scaled)
    assert b.departure_times.tobytes() == (c * a.departure_times).tobytes()
    assert b.departure_sojourns.tobytes() == (c * a.departure_sojourns).tobytes()
    assert [(j.job_id, j.departure_time) for j in departures(b)] == [
        (j.job_id, c * j.departure_time) for j in departures(a)
    ]


@settings(max_examples=30, deadline=None)
@given(scenarios(), st.booleans(), st.data())
def test_dynamic_equation_holds_between_snapshots(cfg, t0, data):
    h = cfg.horizon
    cfg = _with_t0_snapshot(replace(cfg, snapshot_times=(0.25 * h, 0.6 * h, h)), t0)
    out = run(cfg)
    times = cfg.snapshot_times
    i = data.draw(st.integers(0, len(times) - 2))
    j = data.draw(st.integers(i + 1, len(times) - 1))
    assert verify_dynamic_equation(out, times[i], times[j] - times[i], default_grid()) == 0.0


@settings(max_examples=40, deadline=None)
@given(scenarios(), st.floats(min_value=0.01, max_value=100.0))
def test_lead_scale_leaves_departures_unchanged(cfg, c):
    # processor sharing ignores deadlines: stretching leads moves no departure
    a = run(cfg)
    b = run(replace(cfg, lead_scale=c))
    assert [(j.arrival_time, j.service_req, j.departure_time) for j in a.jobs] == [
        (j.arrival_time, j.service_req, j.departure_time) for j in b.jobs
    ]


@settings(max_examples=40, deadline=None)
@given(scenarios())
def test_running_workload_matches_exact_sum(cfg):
    out = run(cfg)
    p = out.path
    targets = np.array([j.target for j in out.jobs])
    n_init = len(cfg.initial_jobs)
    arrivals_through = np.cumsum([k == "arrival" for k in p.kinds])
    for i in range(len(p)):
        # S never decreases and lands exactly on each departing target, so
        # a job admitted by event i is in service iff target > S(t_i)
        n_post = n_init + int(arrivals_through[i])
        n_pre = n_post - (p.kinds[i] == "arrival")
        for w, n in ((p.w_pre[i], n_pre), (p.w_post[i], n_post)):
            exact = math.fsum(np.maximum(targets[:n] - p.s[i], 0.0))
            assert abs(w - exact) <= 1e-9 * max(1.0, exact)
    assert out.workload_check <= 1e-9 * max(1.0, float(p.w_post.max()))


@st.composite
def exponential_traffic(draw):
    """Exponential gaps and service with an Exponential or Uniform lead:
    about half of the draws take the vectorised all-exponential block."""
    rates = st.floats(min_value=0.05, max_value=20.0)
    lead = draw(st.one_of(rates.map(Exponential), st.just(Uniform(0.0, 2.0))))
    return Exponential(draw(rates)), ProductJoint(Exponential(draw(rates)), lead)


@settings(max_examples=40, deadline=None)
@given(
    seeds,
    st.one_of(exponential_traffic(), st.tuples(positive_laws(0.6, 2.0), joint_laws())),
    # long: every scalar refill fills its _BLOCK_ROWS rows; short: the
    # first row past the horizon ends a scalar block
    st.sampled_from((1e4, 5.0)),
    st.floats(min_value=0.1, max_value=200.0),
    st.one_of(st.none(), st.just(Deterministic(0.5)), st.just(Exponential(3.0))),
)
# all-exponential traffic with each first gap
@example(1, (Exponential(1.0), ProductJoint(Exponential(1.2), Exponential(0.5))), 1e4, 3.0, None)
@example(8, (Exponential(0.7), ProductJoint(Exponential(2.0), Exponential(0.1))), 5.0, 50.0, Deterministic(0.5))
@example(9, (Exponential(15.0), ProductJoint(Exponential(0.05), Exponential(4.0))), 1e4, 0.2, Exponential(3.0))
# every family on every coordinate, at both horizons
@example(2, (Deterministic(0.8), ProductJoint(Deterministic(0.7), Uniform(0.0, 2.0))), 5.0, 3.0, Deterministic(0.5))
@example(3, (Uniform(0.0, 2.0), ProductJoint(Uniform(0.5, 1.5), HyperExponential((0.3, 0.7), (0.5, 3.0)))), 1e4, 0.5, Exponential(3.0))
@example(4, (HyperExponential((0.3, 0.7), (0.5, 3.0)), ProductJoint(HyperExponential((0.3, 0.7), (0.5, 3.0)), Deterministic(1.5))), 5.0, 20.0, None)
@example(5, (Exponential(0.9), ProductJoint(Uniform(0.0, 2.0), PointMassZero())), 1e4, 1.0, None)
@example(6, (Deterministic(1.1), LinearJoint(Uniform(0.0, 2.0), 1.5)), 1e4, 2.0, None)
@example(7, (Uniform(0.5, 1.5), EmpiricalJoint(((0.5, 1.0), (1.5, -0.5)), (0.3, 0.7))), 5.0, 4.0, None)
def test_stream_matches_scalar_draw_order(seed, traffic, horizon, lead_scale, first):
    interarrival, joint = traffic
    cfg = ScenarioConfig(
        interarrival=interarrival,
        joint=joint,
        horizon=horizon,
        seed=seed,
        lead_scale=lead_scale,
        first_interarrival=first,
    )
    vectorised = interarrival.exponential_scale() is not None and joint.exponential_scales() is not None
    assert vectorised == (
        isinstance(interarrival, Exponential)
        and isinstance(joint, ProductJoint)
        and isinstance(joint.service, Exponential)
        and isinstance(joint.lead, Exponential)
    )
    rng = np.random.default_rng(seed)
    clock, expected = 0.0, []
    # spans several draw blocks; vectorised ones grow to the cap by row 7937
    for k in range(8000 if vectorised else 1000):
        gap_law = first if (k == 0 and first) else cfg.interarrival
        clock += gap_law.sample(rng)
        v, l = cfg.joint.sample(rng)
        expected.append((clock, v, lead_scale * l))
    stream = TrafficStream(cfg, np.random.default_rng(seed))
    assert [stream.next() for _ in expected] == expected

    stream = TrafficStream(cfg, np.random.default_rng(seed))
    if vectorised:
        # a scalar block of one, then blocks doubling from 256 rows to 4096
        assert [len(stream.refill()[0]) for _ in range(7)] == [1, 256, 512, 1024, 2048, 4096, 4096]
    else:
        sizes = [len(stream.refill()[0]) for _ in range(3)]
        # a scalar block ends at its _BLOCK_ROWS-th row or at the first row
        # past the horizon, whichever comes first
        want, n = [], 0
        for t, _, _ in expected:
            n += 1
            if n == _BLOCK_ROWS or t > horizon:
                want.append(n)
                n = 0
        assert sizes == want[:3]


def _refill_sizes(monkeypatch):
    """The rows of each refill from here on, recorded as they are drawn."""
    sizes, refill = [], TrafficStream.refill

    def counted(stream):
        rows = refill(stream)
        sizes.append(len(rows[0]))
        return rows

    monkeypatch.setattr(TrafficStream, "refill", counted)
    return sizes


# (service law, horizon): scalar blocks, and all-exponential traffic long
# enough that its blocks reach the cap, at every block size and cap below
# as well as at the module's
_BLOCK_TRAFFIC = [(Uniform(0.0, 2.0), 600.0), (Exponential(1.0), 10_000.0)]


@pytest.mark.parametrize(
    "block_rows, max_block_rows", [(1, 1), (2, 16), (7, 56), (256, 256)], ids=["1", "2", "7", "256"]
)
def test_block_size_changes_no_output(monkeypatch, block_rows, max_block_rows):
    # block boundaries decide only how many rows one refill draws, never
    # which rows the stream holds
    sizes = _refill_sizes(monkeypatch)
    for service, horizon in _BLOCK_TRAFFIC:
        cfg = ScenarioConfig(
            interarrival=Exponential(0.9),
            joint=ProductJoint(service, Exponential(1.0)),
            horizon=horizon,
            snapshot_times=(0.0, 0.25 * horizon, horizon),
            seed=17,
            lead_scale=5.0,
            first_interarrival=Deterministic(0.5),
            initial_jobs=((1.0, 0.5),),
        )
        capped = isinstance(service, Exponential)
        sizes.clear()
        want = _output_fields(run(cfg))
        assert not capped or max(sizes) == _MAX_BLOCK_ROWS
        sizes.clear()
        with monkeypatch.context() as m:
            m.setattr(engine, "_BLOCK_ROWS", block_rows)
            m.setattr(engine, "_MAX_BLOCK_ROWS", max_block_rows)
            assert _output_fields(run(cfg)) == want
        assert not capped or max(sizes) == max_block_rows


def test_short_exponential_stream_draws_one_block(monkeypatch):
    # an r = 5 M/M/1 sweep cell admits about 45 rows: after its first row
    # it draws one block of _BLOCK_ROWS, not one of _MAX_BLOCK_ROWS
    sweep = SweepConfig(
        joint=ProductJoint(Exponential(1.0), Exponential(1.0)),
        alpha=1.0,
        gamma=0.5,
        r_values=(5.0,),
        T=2.0,
        snapshot_times=(0.5, 1.0, 1.5, 2.0),
        replications=1,
        seed_base=20260815,
    )
    scenario = build_scenario(sweep, 5.0, 0)
    sizes = _refill_sizes(monkeypatch)
    out = run(scenario)
    assert 30 <= out.event_counts["arrival"] <= 60
    assert sizes == [1, 256]


@pytest.mark.parametrize("lo, hi", [(0.0, 2.0), (0.5, 1.5), (3.0, 7.25), (0.1, 0.30000000000000004)])
def test_uniform_sample_is_numpy_uniform(lo, hi):
    law, a, b = Uniform(lo, hi), np.random.default_rng(3), np.random.default_rng(3)
    assert [law.sample(a) for _ in range(20_000)] == [float(b.uniform(lo, hi)) for _ in range(20_000)]


def _overflowing_leads(horizon=1.0, service=Exponential(1.0), scaled=False):
    # leads of scale 1e308 overflow to inf whenever the standard
    # exponential draw exceeds ~1.8; when scaled, every drawn lead (of
    # scale 1e298) is finite and only lead_scale times it overflows
    return ScenarioConfig(
        interarrival=Exponential(1.0),
        joint=ProductJoint(service, Exponential(1e-298 if scaled else 1e-308)),
        horizon=horizon,
        seed=6,
        lead_scale=1e10 if scaled else 1.0,
    )


# (service, scaled): vectorised and scalar blocks, drawn or scaled overflow
_OVERFLOW_CASES = [
    (service, scaled) for service in (Exponential(1.0), Uniform(0.0, 2.0)) for scaled in (False, True)
]


def test_stream_raises_at_the_offending_row():
    # the stream must fail on the same row as the scalar draws, not when
    # the block holding it is drawn
    for service, scaled in _OVERFLOW_CASES:
        cfg = _overflowing_leads(1e4, service, scaled)
        rng = np.random.default_rng(cfg.seed)
        bad = next(
            k
            for k in range(10_000)
            if not math.isfinite(
                cfg.interarrival.sample(rng) + cfg.joint.service.sample(rng)
                + cfg.lead_scale * cfg.joint.lead.sample(rng)
            )
        )
        assert bad >= 2  # the failure lies inside a block
        stream = TrafficStream(cfg, np.random.default_rng(cfg.seed))
        for _ in range(bad):
            assert math.isfinite(stream.next()[2])
        with pytest.raises(SimulationError, match="lead"):
            stream.next()


def _stepping_raises(cfg):
    """Whether stepping ``TrafficStream.next`` up to the first row past
    the horizon raises; the error must be a lead's, drawn or scaled."""
    stream = TrafficStream(cfg, np.random.default_rng(cfg.seed))
    try:
        while stream.next()[0] <= cfg.horizon:
            pass
    except SimulationError as exc:
        assert "lead" in str(exc)
        return True
    return False


def test_run_raises_exactly_when_stepping_the_stream_would(monkeypatch):
    # run reads rows up to the first one past the horizon: a failed row
    # raises if it is that one or earlier, and not if it was only drawn
    # ahead in the same block
    for service, scaled in _OVERFLOW_CASES:
        stream = TrafficStream(_overflowing_leads(service=service, scaled=scaled), np.random.default_rng(6))
        times = []
        with pytest.raises(SimulationError, match="lead"):
            for _ in range(10_000):
                times.append(stream.next()[0])
        bad = len(times)  # index of the failed row
        assert 2 <= bad < _BLOCK_ROWS
        horizons = (
            0.5 * (times[bad - 2] + times[bad - 1]),  # the row before it is first past
            times[bad - 1],  # the failed row is the first past the horizon
            times[bad - 1] + 100.0,  # the failed row is within the horizon
        )
        # blocks start at rows 0 and 1 of exponential traffic and at row 0
        # of other laws, then every _BLOCK_ROWS rows: the failed row lies
        # inside a block, or is the first row of a refill
        starts_block = bad - 1 if isinstance(service, Exponential) else bad
        for block_rows in (_BLOCK_ROWS, starts_block):
            monkeypatch.setattr(engine, "_BLOCK_ROWS", block_rows)
            configs = [_overflowing_leads(h, service, scaled) for h in horizons]
            expected = [_stepping_raises(c) for c in configs]
            assert expected == [False, True, True]
            for c, raises in zip(configs, expected):
                if raises:
                    with pytest.raises(SimulationError, match="lead"):
                        run(c)
                else:
                    run(c)
        monkeypatch.undo()


@settings(max_examples=15, deadline=None)
@given(scenarios(horizon=8.0))
def test_engine_matches_naive_oracle(cfg):
    out = run(cfg)
    assume(1 <= len(out.jobs) <= 20)
    deps = {j.job_id: j.departure_time for j in departures(out)}
    # as in gate 3: only departures the step size can resolve, nothing
    # finishing within 0.01 of the horizon on either side
    _, _, snap = out.snapshot_at(cfg.horizon)
    assume(not deps or min(cfg.horizon - t for t in deps.values()) > 0.01)
    assume(not snap.residuals.size or snap.residuals.min() > 0.01)
    dt = 1e-4
    ref = step_simulate(cfg, dt=dt)
    assert set(ref) == set(deps)
    # each arrival activates and each departure fires up to one step late,
    # and a late event delays every other job by at most that step
    tol = dt * (len(out.path) + 1)
    for job_id, t in deps.items():
        assert ref[job_id] == pytest.approx(t, abs=tol)
