"""Reflected random walk: blockwise recursion, stationary law, quantiles."""

import tracemalloc

import numpy as np
import pytest

from psdl import ConfigError, RBMSpec, deadline_quantile, simulate, stationary_cdf


def test_spec_validation():
    with pytest.raises(ConfigError):
        RBMSpec(drift=-1.0, variance=0.0)
    with pytest.raises(ConfigError):
        RBMSpec(drift=-1.0, variance=2.0, x0=-0.5)
    with pytest.raises(ConfigError):
        RBMSpec(drift=0.5, variance=1.0).stationary_rate  # needs negative drift


def test_blockwise_matches_direct_recursion():
    # the vectorized path must equal the one-step reflection recursion
    spec = RBMSpec(drift=-0.7, variance=1.3, x0=0.4)
    horizon, dt, seed = 2.0, 1e-3, 99
    path = simulate(spec, horizon, dt, seed)
    n = len(path.values) - 1
    rng = np.random.default_rng(seed)
    incr = spec.drift * dt + np.sqrt(spec.variance * dt) * rng.standard_normal(n)
    x = spec.x0
    ref = [x]
    for e in incr:
        x = max(x + e, 0.0)
        ref.append(x)
    np.testing.assert_allclose(path.values, ref, rtol=0, atol=1e-12)


def test_block_boundaries_do_not_change_path(monkeypatch):
    import psdl.rbm as rbm_mod

    spec = RBMSpec(drift=-0.5, variance=1.0, x0=0.2)
    whole = simulate(spec, 0.5, 1e-3, 7)
    monkeypatch.setattr(rbm_mod, "_BLOCK", 37)
    pieced = rbm_mod.simulate(spec, 0.5, 1e-3, 7)
    # same increments either way; only the summation grouping differs
    np.testing.assert_allclose(whole.values, pieced.values, rtol=0, atol=1e-12)


def test_reflection_keeps_path_nonnegative():
    path = simulate(RBMSpec(drift=-2.0, variance=0.5), 5.0, 1e-3, 3)
    assert path.values.min() >= 0.0
    assert path.times[0] == 0.0 and path.times[-1] == pytest.approx(5.0)


def test_time_average_long_run():
    spec = RBMSpec(drift=-1.0, variance=2.0)
    path = simulate(spec, 5000.0, 1e-2, 11)
    assert path.time_average() == pytest.approx(1.0, rel=0.15)  # mean = var / (2|drift|)


def test_stationary_cdf_and_quantile_round_trip():
    spec = RBMSpec(drift=-1.0, variance=2.0)
    for q in (0.0, 0.1, 0.5, 0.9, 0.999):
        x = deadline_quantile(spec, q)
        assert abs(stationary_cdf(spec, x) - q) <= 1e-12
    assert stationary_cdf(spec, -1.0) == 0.0
    with pytest.raises(ConfigError):
        deadline_quantile(spec, 1.0)


def test_seed_reproducibility():
    spec = RBMSpec(drift=-1.0, variance=2.0)
    a = simulate(spec, 1.0, 1e-3, 5)
    b = simulate(spec, 1.0, 1e-3, 5)
    np.testing.assert_array_equal(a.values, b.values)


def test_in_place_blocks_equal_the_block_expression(monkeypatch):
    # the in-place recursion must give the bits of the plain block expression,
    # with running-minimum pieces shorter than a block, not dividing it, and
    # longer than one
    import psdl.rbm as rbm_mod

    monkeypatch.setattr(rbm_mod, "_BLOCK", 37)
    spec = RBMSpec(drift=-0.5, variance=1.3, x0=0.2)
    horizon, dt, seed = 0.5, 1e-3, 7
    n = 500  # horizon / dt
    rng = np.random.default_rng(seed)
    scale, mu = np.sqrt(spec.variance * dt), spec.drift * dt
    blocks, x = [np.array([spec.x0])], spec.x0
    for pos in range(1, n + 1, 37):
        s = np.cumsum(mu + scale * rng.standard_normal(min(37, n - pos + 1)))
        blocks.append(s + np.maximum(x, -np.minimum.accumulate(s)))
        x = blocks[-1][-1]
    assert len(blocks) > 10
    for piece in (5, 64):
        monkeypatch.setattr(rbm_mod, "_PIECE", piece)
        path = rbm_mod.simulate(spec, horizon, dt, seed)
        np.testing.assert_array_equal(path.values, np.concatenate(blocks), err_msg=f"_PIECE = {piece}")
    np.testing.assert_array_equal(path.times, np.arange(n + 1) * dt)


def test_simulate_takes_the_path_and_one_piece():
    # the normals are drawn into the path: no block-sized array beside it
    simulate(RBMSpec(-0.5, 2.0), 1.0, 1e-3, 1)  # imports made on first use stay out of the trace
    tracemalloc.start()
    try:
        path = simulate(RBMSpec(-0.5, 2.0), 1000.0, 1e-3, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.values.size == 1_000_001
    assert peak <= path.values.nbytes + 1.5e6, f"peak {peak / 1e6:.2f} MB"
