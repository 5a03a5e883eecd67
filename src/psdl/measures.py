"""Finite point measures on the residual/lead half-plane.

The simulator's state at a fixed time is a finite weighted point set

    {(residual_i, lead_i, w_i)}  with residual_i > 0, lead_i real,

read as a measure on [0, oo) x R.  Analytical limit objects enter as
``QuadrantFunction``s: callables returning the mass of closed quadrants
[x, oo) x [y, oo).  Both kinds of object can be tabulated on a
``QuadrantGrid`` (a finite family of quadrant corners, with y = -inf
rows giving residual half-spaces), and the working distance between two
states is the maximum absolute mass discrepancy over the grid quadrants.

A point measure is tabulated with one running sum: with the atoms in
decreasing lead order, the atoms on or above a y line are a prefix, so the
row of the running sum of x-thresholded weights at that prefix's length is
the table's column for that line.  Each entry is the sequential sum of the
weights in its quadrant, with no BLAS call, so the table does not depend on
the BLAS thread count; for equal weights (1 in engine snapshots, 1/r once
scaled) the entry of a quadrant holding m atoms is the m-fold running sum.

The diffusion scaling acts on points as (v, l, w) -> (v, l/r, w/r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError

__all__ = [
    "PointMeasure",
    "QuadrantGrid",
    "QuadrantFunction",
    "default_grid",
    "scale_diffusion",
    "mass_moment_chi",
    "grid_quadrant_masses",
    "quadrant_distance",
]


@dataclass(frozen=True)
class PointMeasure:
    """Weighted atoms (residual, lead, weight); residuals strictly positive."""

    residuals: np.ndarray
    leads: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        res = np.asarray(self.residuals, dtype=float)
        lead = np.asarray(self.leads, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if not (res.shape == lead.shape == w.shape and res.ndim == 1):
            raise ConfigError("residuals, leads, weights must be equal-length 1-d arrays")
        if res.size and not np.all(res > 0.0):
            raise ConfigError("all residuals must be strictly positive")
        if res.size and not (np.all(np.isfinite(res)) and np.all(np.isfinite(lead))):
            raise ConfigError("atom coordinates must be finite")
        if res.size and not np.all(w > 0.0):
            raise ConfigError("all weights must be strictly positive")
        object.__setattr__(self, "residuals", res)
        object.__setattr__(self, "leads", lead)
        object.__setattr__(self, "weights", w)

    @property
    def count(self) -> int:
        return int(self.residuals.size)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def quadrant_mass(self, x: float, y: float) -> float:
        if math.isnan(x) or x < 0.0:
            raise ConfigError(f"residual threshold must be >= 0, got {x}")
        if self.count == 0:
            return 0.0
        sel = (self.residuals >= x) & (self.leads >= y)
        return float(self.weights[sel].sum())


@dataclass(frozen=True)
class QuadrantGrid:
    """Corner coordinates for the working quadrant family.

    x_values: residual thresholds, strictly increasing, starting at 0.
    y_values: lead thresholds, strictly increasing; a leading -inf row
    tabulates residual half-spaces [x, oo) x R.
    """

    x_values: np.ndarray
    y_values: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.x_values, dtype=float)
        ys = np.asarray(self.y_values, dtype=float)
        if xs.size == 0 or ys.size == 0:
            raise ConfigError("quadrant grid must be nonempty")
        if xs[0] != 0.0 or np.isnan(xs).any() or np.any(np.diff(xs) <= 0.0):
            raise ConfigError("grid x values must start at 0 and increase strictly")
        if np.isnan(ys).any() or np.any(np.diff(ys) <= 0.0) or np.isposinf(ys).any():
            raise ConfigError("grid y values must increase strictly (only the first may be -inf)")
        object.__setattr__(self, "x_values", xs)
        object.__setattr__(self, "y_values", ys)


def default_grid() -> QuadrantGrid:
    """x in {0, 0.1, ..., 5.0}; y in {-inf} + {-5.0, -4.9, ..., 5.0}."""
    xs = np.linspace(0.0, 5.0, 51)
    ys = np.concatenate(([-np.inf], np.linspace(-5.0, 5.0, 101)))
    return QuadrantGrid(xs, ys)


@dataclass(frozen=True)
class QuadrantFunction:
    """An analytic measure given by its closed-quadrant mass function.

    grid_fn(xs, ys) returns the (len(xs), len(ys)) table whose entry
    (i, j) is the mass of [xs[i], oo) x [ys[j], oo); ys may hold -inf.
    """

    grid_fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    total_mass: float

    def eval(self, x: float, y: float) -> float:
        if math.isnan(x) or x < 0.0:
            raise ConfigError(f"residual threshold must be >= 0, got {x}")
        return float(self.eval_grid(np.array([x]), np.array([y]))[0, 0])

    def eval_grid(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """The table of grid_fn; a non-finite cell is a ConfigError."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        out = np.asarray(self.grid_fn(xs, ys), dtype=float)
        if out.shape != (xs.size, ys.size):
            raise ConfigError("grid_fn returned a wrong-shaped table")
        bad = out.size - np.count_nonzero(np.isfinite(out))
        if bad:
            raise ConfigError(f"{bad} of the {out.size} quadrant masses leave the float range")
        return out


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def scale_diffusion(m: PointMeasure, r: float) -> PointMeasure:
    """Diffusion-scale a snapshot taken at unscaled time r^2 t:
    residuals kept, leads divided by r, mass divided by r."""
    if not (r > 0.0 and math.isfinite(r)):
        raise ConfigError(f"scaling parameter must be positive and finite, got {r}")
    return PointMeasure(m.residuals, m.leads / r, m.weights / r)


def mass_moment_chi(m: PointMeasure) -> float:
    """First residual moment: the workload carried by the measure."""
    if m.count == 0:
        return 0.0
    return float(np.dot(m.residuals, m.weights))


def grid_quadrant_masses(
    obj: PointMeasure | QuadrantFunction, grid: QuadrantGrid
) -> np.ndarray:
    """Tabulate closed-quadrant masses on the grid; shape (n_x, n_y).

    A point measure costs one sort and one running sum over its atoms
    (n * n_x additions), whatever the number of y lines."""
    xs, ys = grid.x_values, grid.y_values
    if isinstance(obj, QuadrantFunction):
        return obj.eval_grid(xs, ys)
    # Row k of `prefix` is the x-thresholded mass of the k highest-lead
    # atoms (row 0 is zero, which also covers the empty measure).  Every
    # product is w or +0.0, so each entry is the sequential sum of the
    # selected weights.
    neg_leads = -obj.leads
    order = np.argsort(neg_leads, kind="stable")
    prefix = np.zeros((obj.count + 1, xs.size))
    np.multiply(obj.residuals[order, None] >= xs, obj.weights[order, None], out=prefix[1:])
    np.add.accumulate(prefix, axis=0, out=prefix)
    return prefix.take(np.searchsorted(neg_leads[order], -ys, "right"), axis=0).T


def quadrant_distance(
    a: PointMeasure | QuadrantFunction,
    b: PointMeasure | QuadrantFunction,
    grid: QuadrantGrid,
) -> float:
    """Max absolute mass discrepancy over the grid's closed quadrants.

    A pseudometric on states: zero distance means agreement on every
    grid quadrant, not equality of the underlying measures.
    """
    ma = grid_quadrant_masses(a, grid)
    mb = grid_quadrant_masses(b, grid)
    return float(np.abs(ma - mb).max())
