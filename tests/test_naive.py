"""Engine vs brute-force time-stepping reference on small scenarios."""

import pytest
from naive_oracle import step_simulate

from psdl import Exponential, ProductJoint, ScenarioConfig, run
from psdl.errors import ConfigError


def small_scenario(seed):
    return ScenarioConfig(
        interarrival=Exponential(1.0),
        joint=ProductJoint(Exponential(1.0), Exponential(1.0)),
        horizon=12.0,
        seed=seed,
    )


def test_departures_agree_with_engine():
    cfg = small_scenario(2)
    out = run(cfg)
    ref = step_simulate(cfg, dt=1e-4)
    exact = {j.job_id: j.departure_time for j in out.departures()}
    assert exact, "scenario should produce departures"
    assert set(ref) == set(exact)
    for job_id, t in exact.items():
        assert ref[job_id] == pytest.approx(t, abs=1e-3)


def test_bad_step():
    with pytest.raises(ConfigError):
        step_simulate(small_scenario(1), dt=0.0)
