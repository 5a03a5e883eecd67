"""Reflected random walk: blockwise recursion, stationary law, quantiles."""

import math
import tracemalloc

import numpy as np
import pytest

from psdl import ConfigError, RBMSpec, deadline_quantile, simulate, stationary_cdf


def piece_average(values, piece):
    # the time average's definition: value 0 alone, then runs of `piece`
    # values, each summed by numpy, their sums added exactly, over the count
    edges = [(0, 1), *((pos, pos + piece) for pos in range(1, values.size, piece))]
    return math.fsum(float(np.add.reduce(values[lo:hi])) for lo, hi in edges) / values.size


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


def test_piece_boundaries_do_not_change_path(monkeypatch):
    import psdl.rbm as rbm_mod

    spec = RBMSpec(drift=-0.5, variance=1.0, x0=0.2)
    whole = simulate(spec, 0.5, 1e-3, 7)
    monkeypatch.setattr(rbm_mod, "_PIECE", 37)
    pieced = rbm_mod.simulate(spec, 0.5, 1e-3, 7)
    # same increments either way; only the summation grouping differs
    np.testing.assert_allclose(whole.values, pieced.values, rtol=0, atol=1e-12)


def test_reflection_keeps_path_nonnegative():
    path = simulate(RBMSpec(drift=-2.0, variance=0.5), 5.0, 1e-3, 3)
    assert path.values.min() >= 0.0
    assert (path.values.size - 1) * path.dt == pytest.approx(5.0)


def test_time_average_long_run():
    spec = RBMSpec(drift=-1.0, variance=2.0)
    path = simulate(spec, 5000.0, 1e-2, 11)
    assert path.time_average == pytest.approx(1.0, rel=0.15)  # mean = var / (2|drift|)
    assert path.time_average == piece_average(path.values, 65_536)


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


def test_in_place_pieces_equal_the_piece_expression(monkeypatch):
    # the in-place recursion must give the bits of the plain per-piece Lindley
    # expression, with pieces that do not divide the path, that do, and one
    # piece longer than the path
    import psdl.rbm as rbm_mod

    spec = RBMSpec(drift=-0.5, variance=1.3, x0=0.2)
    horizon, dt, seed = 0.5, 1e-3, 7
    n = 500  # horizon / dt
    scale, mu = np.sqrt(spec.variance * dt), spec.drift * dt
    for piece in (5, 37, 64, 100, 1000):
        rng = np.random.default_rng(seed)
        pieces, x = [np.array([spec.x0])], spec.x0
        for pos in range(1, n + 1, piece):
            s = np.cumsum(mu + scale * rng.standard_normal(min(piece, n - pos + 1)))
            pieces.append(s + np.maximum(x, -np.minimum.accumulate(s)))
            x = pieces[-1][-1]
        monkeypatch.setattr(rbm_mod, "_PIECE", piece)
        path = rbm_mod.simulate(spec, horizon, dt, seed)
        np.testing.assert_array_equal(path.values, np.concatenate(pieces), err_msg=f"_PIECE = {piece}")
        assert path.time_average == piece_average(path.values, piece)


@pytest.mark.parametrize("steps", [1000, 65_536])
def test_one_piece_path_keeps_the_whole_path_expression(steps):
    # a path of at most _PIECE steps is one piece: the bits of the Lindley
    # expression over the whole path, S never restarted
    from psdl.rbm import _PIECE

    assert steps <= _PIECE
    spec, dt, seed = RBMSpec(drift=-0.5, variance=2.0, x0=0.3), 2.0**-10, 4
    path = simulate(spec, steps * dt, dt, seed)
    s = np.cumsum(spec.drift * dt + np.sqrt(spec.variance * dt) * np.random.default_rng(seed).standard_normal(steps))
    want = np.concatenate([[spec.x0], s + np.maximum(spec.x0, -np.minimum.accumulate(s))])
    np.testing.assert_array_equal(path.values, want)


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="np.longdouble is no wider than float64"
)
def test_path_tracks_a_long_double_recursion():
    # largest absolute error against the recursion in long double over the
    # same float64 increments, 1e6 steps, seeds 0-7: 2.7e-13 to 6.0e-13 with S
    # restarted every 65,536 steps, 3.6e-12 to 5.7e-12 with it restarted every 1e6
    spec, horizon, dt = RBMSpec(drift=-0.5, variance=2.0), 1000.0, 1e-3
    n, ref_piece = 1_000_000, 1024  # the reference restarts S often, so |S| stays small
    for seed in range(3):
        path = simulate(spec, horizon, dt, seed)
        inc = np.random.default_rng(seed).standard_normal(n) * np.sqrt(spec.variance * dt) + spec.drift * dt
        ref = np.empty(n + 1, dtype=np.longdouble)
        ref[0] = x = np.longdouble(spec.x0)
        for lo in range(0, n, ref_piece):
            s = np.cumsum(inc[lo : lo + ref_piece].astype(np.longdouble))
            ref[1 + lo : 1 + lo + s.size] = s + np.maximum(x, -np.minimum.accumulate(s))
            x = ref[lo + s.size]
        err = float(np.max(np.abs(path.values - ref)))
        assert err <= 1.5e-12, f"seed {seed}: max error {err:.2e}"


def test_simulate_takes_the_path_and_one_piece():
    # values is filled from one draw: the path, one piece and its running
    # minimum, no second path-sized array beside it
    simulate(RBMSpec(-0.5, 2.0), 1.0, 1e-3, 1).values  # imports made on first use stay out of the trace
    tracemalloc.start()
    try:
        path = simulate(RBMSpec(-0.5, 2.0), 1000.0, 1e-3, 1)
        path.values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.values.size == 1_000_001
    assert peak <= path.values.nbytes + 1.5e6, f"peak {peak / 1e6:.2f} MB"


# lengths about numpy's 8-value unroll, its 128-value leaves, its first
# splits and the piece boundaries, and pieces shorter than a leaf
MEAN_LENGTHS = (1, 2, 7, 8, 9, 128, 129, 130, 256, 257, 65_537, 65_538, 131_073, 1_000_001)


@pytest.mark.parametrize("piece", [5, 37, 64, 65_536])
def test_time_average_is_near_the_exactly_rounded_mean(monkeypatch, piece):
    # against the exactly rounded mean of the path's values; the largest
    # relative error read 1.8e-16 at these seeds and 3.0e-16 over seeds 0-3
    # (np.mean's: 2.1e-16)
    import psdl.rbm as rbm_mod

    monkeypatch.setattr(rbm_mod, "_PIECE", piece)
    for n in MEAN_LENGTHS if piece == 65_536 else MEAN_LENGTHS[:-1]:
        path = rbm_mod.RBMPath(dt=1e-3, steps=n - 1, x0=0.7, mu=-0.5e-3, scale=math.sqrt(2e-3), seed=piece)
        exact = math.fsum(path.values.tolist()) / n
        assert abs(path.time_average - exact) <= 1e-15 * exact, f"{n} values in pieces of {piece}"


@pytest.mark.parametrize("piece", [5, 37, 64])
def test_time_average_with_pieces_shorter_than_a_leaf(monkeypatch, piece):
    import psdl.rbm as rbm_mod

    monkeypatch.setattr(rbm_mod, "_PIECE", piece)
    for steps in (1, 6, 127, 128, 129, 1000):
        path = rbm_mod.simulate(RBMSpec(-0.5, 2.0, 0.7), steps * 2.0**-10, 2.0**-10, 3)
        assert path.steps == steps
        assert path.time_average == piece_average(path.values, piece)


def test_time_average_bits_do_not_depend_on_the_python_version():
    # cli_pipeline's full-size rbm config at its seed 3: x0 and 16 pieces,
    # whose 17 sums added left to right (a running +=, or the builtin sum
    # before Python 3.12) round to a different average
    path = simulate(RBMSpec(drift=-0.5, variance=2.0), 1000.0, 0.001, 20260818)
    assert path.time_average == float.fromhex("0x1.321a8c709b4a4p+1")
