"""The row-at-a-time CSV writers: the tests' oracle for ``psdl.fileio``.

``write_csv`` sends each row through ``csv.writer`` with every cell
formatted by ``format_value``; it is the writer ``fileio`` used before it
wrote tables column-wise in blocks.  The ``write_*`` functions below build
the same rows that the row-form ``fileio.write_*`` built, under the same
headers, so a test can compare the bytes of each ``fileio`` writer with
the bytes this module writes for the same input.
"""

from __future__ import annotations

import csv
from dataclasses import astuple, fields

import numpy as np

from psdl.fileio import format_value
from psdl.harness import SweepRow
from state_checks import departures


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([format_value(v) for v in row])


def write_departures_csv(out, path) -> None:
    write_csv(
        path,
        ["id", "arrival", "sojourn", "service_req", "lateness"],
        (
            (j.job_id, j.arrival_time, j.sojourn, j.service_req, j.lateness)
            for j in departures(out)
        ),
    )


def write_path_csv(out, path) -> None:
    p = out.path
    write_csv(
        path,
        ["t", "z", "w", "s"],
        ((p.times[i], int(p.z[i]), p.w_post[i], p.s[i]) for i in range(len(p))),
    )


def write_snapshots_csv(out, path) -> None:
    def rows():
        for idx, (_, _, m) in enumerate(out.snapshots):
            for res, lead, wt in zip(m.residuals, m.leads, m.weights):
                yield (idx, res, lead, wt)

    write_csv(path, ["time_index", "residual", "lead", "weight"], rows())


def write_rows_csv(report, path) -> None:
    header = [f.name for f in fields(SweepRow)]
    write_csv(path, header, (astuple(row) for row in report.rows))


def write_collapse_vs_r_csv(report, path) -> None:
    header = [
        "r",
        "n_nonempty",
        "median_collapse_error",
        "q25_collapse_error",
        "q75_collapse_error",
        "median_lead_profile_error",
        "slope_through_origin",
    ]
    write_csv(
        path,
        header,
        (tuple(entry[k] for k in header) for entry in report.aggregates["per_r"]),
    )


def write_profile_overlay_csv(report, path) -> None:
    write_csv(path, ["r", "t", "y", "empirical_survival", "limit_survival"], report.overlays)


def write_lift_csv(table, grid, path) -> None:
    rows = (
        (x, y, table[i, j])
        for i, x in enumerate(grid.x_values)
        for j, y in enumerate(grid.y_values)
    )
    write_csv(path, ["x", "y", "mass"], rows)


def write_profile_csv(values, label, path) -> None:
    write_csv(path, ["y", label], values)


def rbm_times(rbm) -> np.ndarray:
    """The whole time column k * dt of an RBM path."""
    return np.arange(rbm.values.size, dtype=float) * rbm.dt


def write_rbm_path_csv(rbm, path) -> None:
    write_csv(path, ["t", "x"], zip(rbm_times(rbm), rbm.values))
