"""Point measures on the half-plane, grids, scalings, distances."""

import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import psdl
from psdl import (
    ConfigError,
    PointMeasure,
    QuadrantFunction,
    QuadrantGrid,
    default_grid,
    mass_moment_chi,
    quadrant_distance,
    scale_diffusion,
)
from psdl.fileio import write_snapshots_csv
from psdl.measures import grid_quadrant_masses


def small_measure():
    return PointMeasure(
        np.array([2.0, 0.5, 1.0]),
        np.array([-3.0, 1.0, 0.0]),
        np.array([1.0, 1.0, 2.0]),
    )


def as_quadrant_function(m):
    """The point measure m given by its quadrant mass function."""
    return QuadrantFunction(
        lambda xs, ys: np.array([[m.quadrant_mass(x, y) for y in ys] for x in xs]),
        m.total_mass,
    )


def test_point_measure_validation():
    with pytest.raises(ConfigError):
        PointMeasure(np.array([0.0]), np.array([1.0]), np.array([1.0]))
    with pytest.raises(ConfigError):
        PointMeasure(np.array([1.0]), np.array([np.nan]), np.array([1.0]))
    with pytest.raises(ConfigError):
        PointMeasure(np.array([1.0]), np.array([1.0]), np.array([-1.0]))


def test_quadrant_mass_closed_corners():
    m = small_measure()
    assert m.total_mass == 4.0
    # thresholds are inclusive: atoms sitting exactly on the corner count
    assert m.quadrant_mass(1.0, 0.0) == pytest.approx(2.0)
    assert m.quadrant_mass(0.0, -math.inf) == pytest.approx(4.0)
    assert m.quadrant_mass(2.5, -math.inf) == 0.0


def test_scale_diffusion_moves_leads_and_mass():
    m = PointMeasure(np.array([2.0]), np.array([-3.0]), np.array([1.0]))
    s = scale_diffusion(m, 2.0)
    assert s.residuals[0] == 2.0      # residuals are not rescaled
    assert s.leads[0] == -1.5
    assert s.weights[0] == 0.5


def test_workload_moment():
    assert mass_moment_chi(small_measure()) == pytest.approx(2.0 * 1 + 0.5 * 1 + 1.0 * 2)


def test_grid_validation():
    with pytest.raises(ConfigError):
        QuadrantGrid(x_values=(0.5, 1.0), y_values=(0.0,))  # x must start at 0
    with pytest.raises(ConfigError):
        QuadrantGrid(x_values=(0.0, 1.0, 1.0), y_values=(0.0,))
    # a NaN line fails every comparison, so each position is tested
    nan = math.nan
    for xs, ys in (((0.0, nan), (0.0, 1.0)), ((0.0, 1.0), (0.0, nan)), ((0.0, 1.0), (nan, 0.0))):
        with pytest.raises(ConfigError):
            QuadrantGrid(x_values=xs, y_values=ys)
    g = QuadrantGrid(x_values=(0.0, 1.0), y_values=(-math.inf, 0.0))
    assert g.y_values[0] == -math.inf


def test_default_grid_shape():
    g = default_grid()
    assert g.x_values[0] == 0.0 and g.x_values[-1] == 5.0 and len(g.x_values) == 51
    assert g.y_values[0] == -math.inf
    assert g.y_values[1] == -5.0 and g.y_values[-1] == 5.0 and len(g.y_values) == 102


def test_separating_quadrant_distance():
    # grid containing x=1.5 fully separates unit atoms at residuals 1 and 2
    a = PointMeasure(np.array([1.0]), np.array([0.0]), np.array([1.0]))
    b = PointMeasure(np.array([2.0]), np.array([0.0]), np.array([1.0]))
    g = QuadrantGrid(x_values=(0.0, 1.5), y_values=(-math.inf,))
    assert quadrant_distance(a, b, g) == 1.0
    assert quadrant_distance(a, a, g) == 0.0


def test_distance_against_quadrant_function():
    m = small_measure()
    qf = as_quadrant_function(m)
    assert quadrant_distance(m, qf, default_grid()) == 0.0
    assert qf.eval(1.0, 0.0) == m.quadrant_mass(1.0, 0.0)


@st.composite
def measures(draw):
    n = draw(st.integers(1, 5))
    res = draw(st.lists(st.floats(0.1, 4.9), min_size=n, max_size=n))
    leads = draw(st.lists(st.floats(-4.9, 4.9), min_size=n, max_size=n))
    return PointMeasure(np.array(res), np.array(leads), np.ones(n))


@settings(max_examples=50, deadline=None)
@given(measures(), measures(), measures())
def test_quadrant_distance_pseudometric(a, b, c):
    g = default_grid()
    dab = quadrant_distance(a, b, g)
    assert dab >= 0.0
    assert dab == quadrant_distance(b, a, g)
    assert dab <= quadrant_distance(a, c, g) + quadrant_distance(c, b, g) + 1e-12


def test_grid_quadrant_masses_matrix():
    m = PointMeasure(np.array([1.0]), np.array([1.0]), np.array([1.0]))
    g = QuadrantGrid(x_values=(0.0, 2.0), y_values=(-math.inf, 0.0, 2.0))
    mat = grid_quadrant_masses(m, g)
    assert mat.shape == (2, 3)
    np.testing.assert_allclose(mat, [[1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])


# with and without a -inf row; the second leaves atoms below every y line
TABULATION_GRIDS = (
    default_grid(),
    QuadrantGrid(np.linspace(0.0, 2.0, 9), np.linspace(-1.0, 1.0, 5)),
)


def atoms_on_lines(rng, grid, n, weights):
    """n atoms, about a third of each coordinate exactly on a grid line."""

    def coords(lines, lo, hi):
        return np.where(rng.random(n) < 0.35, rng.choice(lines, n), rng.uniform(lo, hi, n))

    res = coords(grid.x_values[1:], 1e-3, 6.0)
    leads = coords(grid.y_values[np.isfinite(grid.y_values)], -6.0, 6.0)
    return PointMeasure(res, leads, weights)


@st.composite
def weighted_measures(draw, grid):
    """Up to 500 atoms with non-unit weights, some exactly on grid lines."""
    n = draw(st.integers(0, 500))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return atoms_on_lines(rng, grid, n, np.exp(rng.uniform(math.log(1e-3), math.log(1e3), n)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_grid_tabulation_matches_quadrant_mass(data):
    # each closed quadrant [x, oo) x [y, oo), atoms on its edges included
    grid = data.draw(st.sampled_from(TABULATION_GRIDS))
    m = data.draw(weighted_measures(grid))
    want = np.array([[m.quadrant_mass(x, y) for y in grid.y_values] for x in grid.x_values])
    np.testing.assert_allclose(grid_quadrant_masses(m, grid), want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n", [0, 1, 50, 198, 385, 1000])
def test_equal_weight_tabulation_is_the_running_sum(n):
    # every measure psdl builds has equal weights (1, or 1/r once scaled):
    # a quadrant holding m atoms must read the m-fold sequential sum exactly
    grid = default_grid()
    w = 1.0 / 7.0
    m = atoms_on_lines(np.random.default_rng(n), grid, n, np.full(n, w))
    counts = (
        (m.residuals[None, None, :] >= grid.x_values[:, None, None])
        & (m.leads[None, None, :] >= grid.y_values[None, :, None])
    ).sum(axis=2)
    running = np.concatenate(([0.0], np.cumsum(np.full(n, w))))
    got = grid_quadrant_masses(m, grid)
    assert got.shape == counts.shape
    assert np.array_equal(got, running[counts])


_TABLE_SHA256 = """
import hashlib, numpy as np
from psdl.measures import PointMeasure, default_grid, grid_quadrant_masses
rng = np.random.default_rng(600)
m = PointMeasure(rng.uniform(1e-3, 6.0, 600), rng.uniform(-6.0, 6.0, 600), np.full(600, 1.0 / 7.0))
table = np.ascontiguousarray(grid_quadrant_masses(m, default_grid()))
print(hashlib.sha256(table.tobytes()).hexdigest())
"""


def test_tabulation_bytes_do_not_depend_on_blas_threads():
    src = str(Path(psdl.__file__).resolve().parents[1])
    digests = set()
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", _TABLE_SHA256], env=env, check=True, capture_output=True, text=True
        )
        digests.add(out.stdout.strip())
    assert len(digests) == 1


def test_point_measure_csv_round_trip(tmp_path):
    m = small_measure()
    path = tmp_path / "m.csv"
    # the snapshot writer reads only the (time, S, measure) snapshot list
    write_snapshots_csv(SimpleNamespace(snapshots=((0.0, 0.0, m),)), path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "time_index,residual,lead,weight"
    got = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    np.testing.assert_array_equal(got[:, 0], 0.0)
    np.testing.assert_array_equal(got[:, 1], m.residuals)
    np.testing.assert_array_equal(got[:, 2], m.leads)
    np.testing.assert_array_equal(got[:, 3], m.weights)
