"""End-to-end command tests: configs in, files out, exit codes."""

import copy
import errno
import io
import json
import math
import multiprocessing
import os
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest

from psdl.cli import main

MM1_JOINT = {
    "kind": "product",
    "service": {"kind": "exponential", "rate": 1.0},
    "lead": {"kind": "exponential", "rate": 1.0},
}
LINEAR_JOINT = {"kind": "linear", "service": {"kind": "exponential", "rate": 1.0}, "c": 1.0}


def write_config(tmp_path, body, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(body))
    return str(p)


# the README scenario, and small lift, sweep and rbm requests
SCENARIO = {
    "interarrival": {"kind": "exponential", "rate": 0.9},
    "joint": {
        "kind": "product",
        "service": {"kind": "exponential", "rate": 1.0},
        "lead": {"kind": "uniform", "lo": 0.0, "hi": 2.0},
    },
    "horizon": 1000.0,
    "snapshot_times": [250.0, 500.0],
    "seed": 7,
}
LIFT = {
    "joint": MM1_JOINT,
    "alpha": 1.0,
    "z": 1.5,
    "grid": {"x_max": 2.0, "x_step": 0.5, "y_min": -2.0, "y_max": 2.0, "y_step": 0.5},
}
SWEEP = {
    "joint": MM1_JOINT,
    "alpha": 1.0,
    "gamma": 0.5,
    "r_values": [3.0],
    "T": 1.0,
    "snapshot_times": [1.0],
    "replications": 1,
    "seed_base": 9,
}
RBM = {"drift": -1.0, "variance": 2.0, "horizon": 1.0, "dt": 0.01, "seed": 4}
# a lift on the quadrature path: uniform by uniform has no closed form
UNIFORM_LIFT = {
    **LIFT,
    "joint": {
        "kind": "product",
        "service": {"kind": "uniform", "lo": 0.0, "hi": 2.0},
        "lead": {"kind": "uniform", "lo": 0.0, "hi": 2.0},
    },
}
PROFILE = {
    "profile": "lead_product",
    "nu": {"kind": "exponential", "rate": 1.0},
    "lam": {"kind": "exponential", "rate": 1.0},
    "alpha": 1.0,
    "z": 1.5,
    "y_values": [-1.0, 0.0, 1.0],
}


def scenario_config(tmp_path, **extra):
    body = {
        "schema_version": 1,
        "scenario": {
            "interarrival": {"kind": "exponential", "rate": 1.0},
            "joint": MM1_JOINT,
            "horizon": 20.0,
            "snapshot_times": [5.0, 10.0],
            "seed": 11,
            **extra,
        },
    }
    return write_config(tmp_path, body)


def test_simulate_outputs(tmp_path):
    cfg = scenario_config(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    deps = (out / "departures.csv").read_text().splitlines()
    assert deps[0] == "id,arrival,sojourn,service_req,lateness"
    path_rows = (out / "path.csv").read_text().splitlines()
    assert path_rows[0] == "t,z,w,s"
    snaps = (out / "snapshots.csv").read_text().splitlines()
    assert snaps[0] == "time_index,residual,lead,weight"
    summary = json.loads((out / "simulate_summary.json").read_text())
    assert summary["snapshot_times"] == [5.0, 10.0]
    assert summary["busy_rate_check"] <= 1e-9 * 20.0
    counts = summary["event_counts"]
    assert counts["arrival"] == summary["n_jobs"]
    assert counts["departure"] == summary["n_departures"] == len(deps) - 1
    assert (counts["snapshot"], counts["init"], counts["end"]) == (2, 1, 1)
    assert summary["max_z"] >= 1
    assert 0.0 <= summary["workload_check"] <= 1e-9


def test_simulate_with_no_departures(tmp_path):
    cfg = scenario_config(tmp_path, horizon=0.01, snapshot_times=[])
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "simulate_summary.json").read_text())
    assert summary["n_departures"] == 0
    assert "departure" not in summary["event_counts"]
    assert (out / "departures.csv").read_text().splitlines() == ["id,arrival,sojourn,service_req,lateness"]


def test_simulate_deterministic_bytes(tmp_path):
    cfg = scenario_config(tmp_path)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(d1)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(d2)]) == 0
    for name in ("departures.csv", "path.csv", "snapshots.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    d3 = tmp_path / "c"
    assert main(["simulate", "--config", cfg, "--out", str(d3), "--seed-override", "12"]) == 0
    assert (d1 / "departures.csv").read_bytes() != (d3 / "departures.csv").read_bytes()


def test_lift_grid_mass_at_origin(tmp_path):
    # immediate-deadline lead law: the (0, -inf) entry carries the full mass
    body = {
        "schema_version": 1,
        "lift": {
            "joint": {
                "kind": "product",
                "service": {"kind": "exponential", "rate": 1.0},
                "lead": {"kind": "pointmass_zero"},
            },
            "alpha": 1.0,
            "z": 2.0,
        },
    }
    cfg = write_config(tmp_path, body)
    out = tmp_path / "lift"
    assert main(["lift", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "lift_summary.json").read_text())
    assert abs(summary["mass_at_origin"] - 2.0) <= 1e-6
    assert summary["method"] == "closed_form_tiq"
    rows = (out / "lift.csv").read_text().splitlines()
    header = rows[0].split(",")
    first = rows[1].split(",")
    assert header[:2] == ["x", "y"]
    assert float(first[0]) == 0.0 and math.isinf(float(first[1]))
    assert abs(float(first[2]) - 2.0) <= 1e-6


def test_profiles_command(tmp_path):
    body = {
        "schema_version": 1,
        "profile": {
            "profile": "sojourn",
            "nu": {"kind": "exponential", "rate": 1.0},
            "z": 2.0,
            "y_values": [0.0, 2.0],
        },
    }
    cfg = write_config(tmp_path, body)
    out = tmp_path / "prof"
    assert main(["profiles", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "profile.csv").read_text().splitlines()
    assert rows[0] == "y,cdf"
    y0 = [float(v) for v in rows[1].split(",")]
    y2 = [float(v) for v in rows[2].split(",")]
    assert y0 == [0.0, 0.0]
    assert y2[1] == pytest.approx(1.0 - math.exp(-1.0))


def test_rbm_command(tmp_path):
    body = {
        "schema_version": 1,
        "rbm": {
            "drift": -1.0,
            "variance": 2.0,
            "horizon": 2.0,
            "dt": 0.001,
            "seed": 4,
            "quantiles": [0.5, 0.9],
        },
    }
    cfg = write_config(tmp_path, body)
    out = tmp_path / "rbm"
    assert main(["rbm", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "rbm_summary.json").read_text())
    assert summary["stationary_mean"] == pytest.approx(1.0)
    assert len(summary["quantiles"]) == 2


def test_sweep_command_and_thread_determinism(tmp_path):
    body = {
        "schema_version": 1,
        "sweep": {
            "joint": MM1_JOINT,
            "alpha": 1.0,
            "gamma": 0.5,
            "r_values": [3.0],
            "T": 1.0,
            "snapshot_times": [0.5, 1.0],
            "replications": 2,
            "seed_base": 9,
            "sojourn_window": 3.0,
        },
    }
    cfg = write_config(tmp_path, body)
    d1, d2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["sweep", "--config", cfg, "--out", str(d1), "--threads", "1"]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(d2), "--threads", "2"]) == 0
    for name in ("report.json", "rows.csv", "collapse_vs_r.csv", "profile_overlay.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    report = json.loads((d1 / "report.json").read_text())
    assert report["n_rows"] == 4


def test_exit_code_bad_config(tmp_path):
    cfg = write_config(tmp_path, {"schema_version": 1})  # no request block
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    cfg2 = write_config(
        tmp_path,
        {"schema_version": 2, "scenario": {}},
        name="bad_version.json",
    )
    assert main(["simulate", "--config", cfg2, "--out", str(tmp_path / "y")]) == 2
    cfg3 = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "scenario": {
                "interarrival": {"kind": "exponential", "rate": 1.0},
                "joint": MM1_JOINT,
                "horizon": 5.0,
                "typo_field": 1,
            },
        },
        name="unknown_key.json",
    )
    assert main(["simulate", "--config", cfg3, "--out", str(tmp_path / "z")]) == 2
    # valid JSON, bad values: each must exit 2, not raise
    TRUE_RATE = {"kind": "exponential", "rate": True}
    TRUE_HYPER = {"kind": "hyperexponential", "weights": [0.5, 0.5], "rates": [True, 2.0]}
    HALF_N = {"y_min": -1.0, "y_max": 1.0, "n": 2.5}
    TINY_RATE = {"kind": "exponential", "rate": 1e-200}
    HUGE_UNIFORM = {"kind": "uniform", "lo": 0.0, "hi": 1e80}
    bad = [
        ("simulate", {"scenario": {**SCENARIO, "seed": -3}}),
        ("simulate", {"scenario": {**SCENARIO, "initial_jobs": [[1.0]]}}),
        ("simulate", {"scenario": {**SCENARIO, "horizon": "x"}}),
        ("lift", {"lift": {**LIFT, "joint": {"kind": "empirical", "points": [[1.0, 2.0, 3.0]]}}}),
        ("sweep", {"sweep": {**SWEEP, "seed_base": -1}}),
        ("rbm", {"rbm": {**RBM, "seed": -1}}),
        # the joint law picks the lift path: a lift block takes no method or tol
        ("lift", {"lift": {**LIFT, "method": "quadrature"}}),
        ("lift", {"lift": {**LIFT, "tol": 1e-6}}),
        ("sweep", {"sweep": {**SWEEP, "sojourn_window": math.nan}}),
        # a key no request field has
        ("simulate", {"scenario": {**SCENARIO, "label": "r=5/rep=0"}}),
        # keys the joint law's class does not have
        ("simulate", {"scenario": {**SCENARIO, "joint": {**SCENARIO["joint"], "c": 2.0}}}),
        ("lift", {"lift": {**LIFT, "joint": {**LINEAR_JOINT, "lead": MM1_JOINT["lead"]}}}),
        # integer fields take integral numbers only, and no law takes a boolean
        ("simulate", {"scenario": {**SCENARIO, "seed": 7.5}}),
        ("simulate", {"scenario": {**SCENARIO, "seed": True}}),
        ("sweep", {"sweep": {**SWEEP, "seed_base": 9.5}}),
        ("sweep", {"sweep": {**SWEEP, "replications": True}}),
        ("sweep", {"sweep": {**SWEEP, "replications": 1.5}}),
        ("rbm", {"rbm": {**RBM, "seed": 4.5}}),
        ("rbm", {"rbm": {**RBM, "seed": False}}),
        ("profiles", {"profile": {**PROFILE, "y_values": HALF_N}}),
        ("lift", {"lift": {**LIFT, "joint": {**MM1_JOINT, "service": TRUE_RATE}}}),
        ("lift", {"lift": {**LIFT, "joint": {**LINEAR_JOINT, "c": True}}}),
        ("simulate", {"scenario": {**SCENARIO, "interarrival": TRUE_HYPER}}),
        # a (4 + p)-th service moment beyond the float range reads as infinite
        ("sweep", {"sweep": {**SWEEP, "joint": {**MM1_JOINT, "moment_exponent": 400.0}}}),
        ("sweep", {"sweep": {**SWEEP, "joint": {**MM1_JOINT, "service": TINY_RATE}}}),
        ("sweep", {"sweep": {**SWEEP, "alpha": 2e-80, "joint": {**MM1_JOINT, "service": HUGE_UNIFORM}}}),
        # an infinite total mass has no invariant measure
        ("profiles", {"profile": {**PROFILE, "profile": "time_in_queue", "z": math.inf, "y_values": [0.0, 1.0]}}),
        ("profiles", {"profile": {**PROFILE, "profile": "linear_deadline", "c": 1.0, "z": math.inf}}),
    ]
    for i, (cmd, body) in enumerate(bad):
        cfg = write_config(tmp_path, {"schema_version": 1, **body}, name=f"bad{i}.json")
        assert main([cmd, "--config", cfg, "--out", str(tmp_path / f"bad{i}")]) == 2, body
    for i, (cmd, body) in enumerate(
        [("simulate", {"scenario": SCENARIO}), ("sweep", {"sweep": SWEEP}), ("rbm", {"rbm": RBM})]
    ):
        cfg = write_config(tmp_path, {"schema_version": 1, **body}, name=f"neg{i}.json")
        argv = [cmd, "--config", cfg, "--out", str(tmp_path / f"neg{i}"), "--seed-override", "-1"]
        assert main(argv) == 2
    # lift and profiles have no seed to override
    for i, (cmd, body) in enumerate([("lift", {"lift": LIFT}), ("profiles", {"profile": PROFILE})]):
        cfg = write_config(tmp_path, {"schema_version": 1, **body}, name=f"noseed{i}.json")
        argv = [cmd, "--config", cfg, "--out", str(tmp_path / f"noseed{i}"), "--seed-override", "1"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_lead_product_profile_at_huge_mass_is_finite(tmp_path):
    block = {**PROFILE, "lam": {"kind": "uniform", "lo": 0.0, "hi": 2.0}, "z": 1e300}
    cfg = write_config(tmp_path, {"schema_version": 1, "profile": block})
    assert main(["profiles", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "profile.csv").read_text().splitlines()
    assert rows[0] == "y,cdf" and len(rows) == 4
    assert all(math.isfinite(float(row.split(",")[1])) for row in rows[1:])


@pytest.mark.parametrize("kind", ["lead_product", "time_in_queue", "sojourn", "linear_deadline"])
@pytest.mark.parametrize("y_values", [[0.0, math.nan], {"y_min": math.nan, "y_max": 1.0, "n": 3}])
def test_nan_y_value_is_a_config_error(tmp_path, capsys, kind, y_values):
    block = {**PROFILE, "profile": kind, "c": 1.0, "y_values": y_values}
    cfg = write_config(tmp_path, {"schema_version": 1, "profile": block})
    assert main(["profiles", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "NaN" in err and err.count("\n") == 1
    assert not (tmp_path / "out" / "profile.csv").exists()


def test_sweep_rejects_a_repeated_r(tmp_path, capsys):
    # each r would run twice with the same seeds and count its rows twice
    cfg = write_config(tmp_path, {"schema_version": 1, "sweep": {**SWEEP, "r_values": [5.0, 3.0, 5.0]}})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "r values must be distinct" in err
    assert not (tmp_path / "out").exists()


def test_sweep_rejects_a_repeated_snapshot_time(tmp_path, capsys):
    # a repeated t would give two identical per-(r, t) entries
    cfg = write_config(tmp_path, {"schema_version": 1, "sweep": {**SWEEP, "snapshot_times": [0.5, 1.0, 1.0]}})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "strictly increasing" in err
    assert not (tmp_path / "out").exists()


def test_inadmissible_sweep_names_each_failed_check(tmp_path, capsys):
    # Exp(1) service has mean 1, not 1/alpha = 0.5
    cfg = write_config(tmp_path, {"schema_version": 1, "sweep": {**SWEEP, "alpha": 2.0}})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "inadmissible at alpha=2.0" in err
    assert "service_mean_matches_rate (mean service 1.0 vs 1/alpha = 0.5)" in err


@pytest.mark.parametrize("cmd, key, block", [("lift", "lift", LIFT), ("sweep", "sweep", SWEEP)])
@pytest.mark.parametrize("bound, value", [("x_max", math.inf), ("y_max", math.inf), ("y_min", -math.inf)])
def test_infinite_grid_bound_is_a_config_error(tmp_path, capsys, cmd, key, block, bound, value):
    grid = {**LIFT["grid"], bound: value}
    cfg = write_config(tmp_path, {"schema_version": 1, key: {**block, "grid": grid}})
    assert main([cmd, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "finite" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "cmd, key, block, grid",
    [
        ("lift", "lift", LIFT, {"x_max": 1e300, "x_step": 1e-300}),
        ("lift", "lift", LIFT, {"y_min": -1e308, "y_max": 1e308, "y_step": 1.0}),
        ("sweep", "sweep", SWEEP, {"x_max": 1e300, "x_step": 1e-300}),
    ],
    ids=["lift-x", "lift-y", "sweep-x"],
)
def test_grid_step_count_overflow_is_a_config_error(tmp_path, capsys, cmd, key, block, grid):
    # the step count is an infinite float: exit 2, before any allocation
    cfg = write_config(tmp_path, {"schema_version": 1, key: {**block, "grid": {**LIFT["grid"], **grid}}})
    assert main([cmd, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "grid" in err and "Traceback" not in err


# laws whose parameters the cases below replace with numeric strings
HYPER = {"kind": "hyperexponential", "weights": [0.5, 0.5], "rates": [1.0, 3.0]}
EMPIRICAL = {"kind": "empirical", "points": [[1.5, 0.5]]}
UNIFORM = {"kind": "uniform", "lo": 0.0, "hi": 2.0}
STRICT_FLOAT_CASES = [
    ("lift", "lift", {**LIFT, "alpha": True}),
    ("lift", "lift", {**LIFT, "z": "1.5"}),
    ("lift", "lift", {**LIFT, "grid": {**LIFT["grid"], "y_min": True}}),
    ("lift", "lift", {**LIFT, "grid": {**LIFT["grid"], "x_step": "0.5"}}),
    ("simulate", "scenario", {**SCENARIO, "horizon": True}),
    ("simulate", "scenario", {**SCENARIO, "lead_scale": "2"}),
    ("simulate", "scenario", {**SCENARIO, "snapshot_times": [250.0, True]}),
    ("simulate", "scenario", {**SCENARIO, "initial_jobs": [[1.0, "0.5"]]}),
    ("sweep", "sweep", {**SWEEP, "gamma": True}),
    ("sweep", "sweep", {**SWEEP, "r_values": ["3"]}),
    ("sweep", "sweep", {**SWEEP, "sojourn_window": "250"}),
    ("profiles", "profile", {**PROFILE, "z": True}),
    ("profiles", "profile", {**PROFILE, "alpha": "1"}),
    ("profiles", "profile", {**PROFILE, "y_values": {"y_min": True, "y_max": 1.0, "n": 3}}),
    ("rbm", "rbm", {**RBM, "drift": True}),
    ("rbm", "rbm", {**RBM, "dt": "0.01"}),
    ("rbm", "rbm", {**RBM, "quantiles": [True]}),
    # law parameters follow the same rules as request fields
    ("simulate", "scenario", {**SCENARIO, "interarrival": {**HYPER, "rates": ["1", "3"]}}),
    ("lift", "lift", {**LIFT, "joint": {"kind": "empirical", "points": [["1.5", "0.5"]]}}),
    ("lift", "lift", {**LIFT, "joint": {**EMPIRICAL, "weights": ["1"]}}),
    ("simulate", "scenario", {**SCENARIO, "joint": {**SCENARIO["joint"], "lead": {**UNIFORM, "hi": "2"}}}),
    ("lift", "lift", {**LIFT, "joint": {**LINEAR_JOINT, "c": "1"}}),
    ("sweep", "sweep", {**SWEEP, "joint": {**MM1_JOINT, "moment_exponent": "1"}}),
]


@pytest.mark.parametrize("cmd, key, block", STRICT_FLOAT_CASES)
def test_float_fields_reject_booleans_and_strings(tmp_path, capsys, cmd, key, block):
    cfg = write_config(tmp_path, {"schema_version": 1, key: block})
    assert main([cmd, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "expected a number" in err and "Traceback" not in err


# a grid of 2**60 cells or more, or as many profile points: no array holds
# them (numpy's limit is 2**63 bytes), so exit 2 before any allocation
ARRAY_LIMIT = [
    ("lift", {"lift": {**LIFT, "grid": {**LIFT["grid"], "x_max": 1.0, "x_step": 1e-300}}}),
    ("sweep", {"sweep": {**SWEEP, "grid": {**LIFT["grid"], "x_max": 1.0, "x_step": 1e-300}}}),
    ("profiles", {"profile": {**PROFILE, "y_values": {"y_min": -1.0, "y_max": 1.0, "n": 1e20}}}),
    ("profiles", {"profile": {**PROFILE, "y_values": {"y_min": -1.0, "y_max": 1.0, "n": 1e300}}}),
]


@pytest.mark.parametrize("cmd, body", ARRAY_LIMIT, ids=["lift", "sweep", "profiles-1e20", "profiles-1e300"])
def test_count_past_the_array_limit_is_a_config_error(tmp_path, capsys, cmd, body):
    cfg = write_config(tmp_path, {"schema_version": 1, **body})
    out = tmp_path / "out"
    assert main([cmd, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def _exp(rate):
    return {"kind": "exponential", "rate": rate}


# a lift or lead_product profile whose z drives a closed form's rate out of
# the float range, which once wrote NaN masses and exited 0, and a service
# mean past it
RATE_OUT_OF_RANGE = [
    ("lift", {"lift": {**LIFT, "joint": {**SCENARIO["joint"], "service": _exp(1e10)}, "z": 1e-300}}),
    ("lift", {"lift": {**LIFT, "joint": SCENARIO["joint"], "z": 1e-308}}),
    ("lift", {"lift": {**LIFT, "joint": {**UNIFORM_LIFT["joint"], "lead": {**HYPER, "rates": [0.5, 2.0]}}, "z": 5e-324}}),
    ("profiles", {"profile": {**PROFILE, "nu": _exp(1e10), "lam": SCENARIO["joint"]["lead"], "z": 1e-300}}),
    ("lift", {"lift": {**LIFT, "joint": {**MM1_JOINT, "service": _exp(5e-324)}}}),
]


@pytest.mark.parametrize(
    "cmd, body", RATE_OUT_OF_RANGE, ids=["service-rate", "uniform-square", "lead-rate", "profile", "total-mass"]
)
def test_lift_out_of_float_range_is_a_config_error(tmp_path, capsys, cmd, body):
    cfg = write_config(tmp_path, {"schema_version": 1, **body})
    out = tmp_path / "out"
    assert main([cmd, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "float range" in err and err.count("\n") == 1
    assert not out.exists()


# lifts at z near the float maximum whose default-grid tables once held NaN
# (the two-point fallback) or inf (a mixture's transform at y = -inf) cells
# beside a finite total mass, and exited 0; and an empirical lift whose
# overflow once printed numpy's warning before the error line
NON_FINITE_LIFTS = [
    ({"kind": "product", "service": UNIFORM, "lead": UNIFORM}, 1e308),
    ({"kind": "product", "service": UNIFORM, "lead": UNIFORM}, 1.7e308),
    ({"kind": "linear", "service": UNIFORM, "c": 1.0}, 1e308),
    ({"kind": "linear", "service": UNIFORM, "c": 1.0}, 1.7e308),
    ({"kind": "product", "service": {**HYPER, "rates": [0.5, 2.0]}, "lead": _exp(1.0)}, 1e308),
    ({"kind": "empirical", "points": [[1.0, 0.5], [2.0, -1.0]]}, 1e308),
]


@pytest.mark.parametrize(
    "joint, z",
    NON_FINITE_LIFTS,
    ids=["unif-unif-1e308", "unif-unif-1.7e308", "linear-1e308", "linear-1.7e308", "hyper-exp", "empirical-1e308"],
)
def test_lift_with_non_finite_cells_is_a_config_error(tmp_path, capsys, joint, z):
    cfg = write_config(tmp_path, {"schema_version": 1, "lift": {"joint": joint, "alpha": 1.0, "z": z}})
    out = tmp_path / "out"
    assert main(["lift", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "quadrant masses leave the float range" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_atom_service_lift_at_the_float_maximum_prints_nothing(tmp_path, capsys):
    # the lead's tail integral past a service atom overflows near z = 1e308,
    # which once printed numpy's warning on stderr beside a finite table
    service = {"kind": "deterministic", "value": 1.0}
    joint = {"kind": "product", "service": service, "lead": {**HYPER, "rates": [0.5, 2.0]}}
    cfg = write_config(tmp_path, {"schema_version": 1, "lift": {"joint": joint, "alpha": 1.0, "z": 1e308}})
    assert main(["lift", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "out" / "lift.csv").exists()


def test_non_finite_law_parameter_is_a_config_error(tmp_path, capsys):
    # JSON's NaN reads as a float; a NaN lead would print nan masses
    joint = {"kind": "empirical", "points": [[1.0, float("nan")], [1.0, 2.0]]}
    cfg = write_config(tmp_path, {"schema_version": 1, "lift": {**LIFT, "joint": joint}})
    out = tmp_path / "out"
    assert main(["lift", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "finite" in err and "Traceback" not in err
    assert not out.exists()


# an output directory that names a file, or lies under one
@pytest.mark.parametrize(
    "flag, where", [("--out", "taken"), ("--out", "taken/sub"), ("output_dir", "taken")]
)
def test_output_directory_that_is_a_file_is_a_config_error(tmp_path, capsys, flag, where):
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    body = {"schema_version": 1, "rbm": RBM}
    argv = ["rbm"]
    if flag == "output_dir":
        body["output_dir"] = str(tmp_path / where)
    else:
        argv += [flag, str(tmp_path / where)]
    assert main([*argv, "--config", write_config(tmp_path, body)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1 and "Traceback" not in err
    assert taken.read_text() == "kept\n"


def test_exit_code_wrong_request_kind(tmp_path):
    cfg = scenario_config(tmp_path)
    assert main(["lift", "--config", cfg, "--out", str(tmp_path / "w")]) == 2


def test_exit_code_runtime_failure(tmp_path, monkeypatch):
    import psdl.cli as cli_mod
    from psdl.errors import SimulationError

    def boom(args):
        raise SimulationError("numerical failure")

    monkeypatch.setattr(cli_mod, "cmd_simulate", boom)
    cfg = scenario_config(tmp_path)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "v")]) == 3


# each asks for an array of over 2^47 floats, past any 64-bit address space,
# so the allocation fails at once instead of being granted lazily
TOO_LARGE = [
    ("lift", {"lift": {**LIFT, "grid": {**LIFT["grid"], "x_step": 1e-15}}}),
]


@pytest.mark.parametrize("cmd, body", TOO_LARGE, ids=["lift"])
def test_exit_code_allocation_failure(tmp_path, capsys, cmd, body):
    cfg = write_config(tmp_path, {"schema_version": 1, **body})
    assert main([cmd, "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("runtime error: out of memory") and err.count("\n") == 1
    assert "Traceback" not in err


def test_rbm_path_past_the_free_disk_exits_at_once(tmp_path, capsys):
    # 1e15 steps: rbm_path.csv, at 5 bytes a row at the least, would not fit
    # on any disk, and the path is drawn as it is written, so no allocation
    # fails; the command refuses it before making its directory
    cfg = write_config(tmp_path, {"schema_version": 1, "rbm": {**RBM, "horizon": 1e15, "dt": 1.0}})
    out = tmp_path / "new" / "out"
    start = time.perf_counter()
    assert main(["rbm", "--config", cfg, "--out", str(out)]) == 3
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err
    assert err.startswith(f"runtime error: cannot write {out / 'rbm_path.csv'}: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "new").exists()


def test_rbm_command_holds_one_piece(tmp_path):
    # tracemalloc peaks of the 1e6-step command (numpy 2.4, Python 3.11):
    # 4.2 MB drawing the path as it is written, 11.0 MB holding it whole
    cfg = write_config(tmp_path, {"schema_version": 1, "rbm": {**RBM, "horizon": 1000.0, "dt": 1e-3}})
    argv = ["rbm", "--config", cfg, "--out", str(tmp_path / "out")]
    assert main(argv) == 0  # imports and tables made on first use stay out of the trace
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "out" / "rbm_path.csv").read_bytes().count(b"\n") == 1_000_002
    assert peak < 5e6, f"peak {peak / 1e6:.2f} MB"


class _FullDisk(io.RawIOBase):
    """A raw stream whose every write fails with ENOSPC, as on a full disk."""

    def writable(self):
        return True

    def write(self, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


# rbm's first file is created and then cannot be written; simulate's first
# file cannot be created
WRITE_FAILURES = [
    ("rbm", {"rbm": RBM}, "rbm_path.csv", errno.ENOSPC),
    ("simulate", {"scenario": SCENARIO}, "departures.csv", errno.EACCES),
]


@pytest.mark.parametrize("cmd, body, name, code", WRITE_FAILURES, ids=["rbm-full", "simulate-denied"])
def test_write_failure_is_a_runtime_error(tmp_path, capsys, monkeypatch, cmd, body, name, code):
    import psdl.fileio as fileio_mod

    def failing_open(path, mode="r", **kw):
        if Path(path).name != name:
            return open(path, mode, **kw)
        if code == errno.EACCES:
            raise PermissionError(code, os.strerror(code), str(path))
        open(path, "w").close()
        return io.TextIOWrapper(io.BufferedWriter(_FullDisk()), **kw)

    monkeypatch.setattr(fileio_mod, "open", failing_open, raising=False)
    cfg = write_config(tmp_path, {"schema_version": 1, **body})
    out = tmp_path / "out"
    assert main([cmd, "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == f"runtime error: cannot write {out / name}: {os.strerror(code)}\n"
    assert list(out.iterdir()) == []


def _exit_in_worker(*args):
    """Stands in for ``harness._run_cell``: the worker process dies."""
    os._exit(1)


def _no_processes(*args, **kwargs):
    """Stands in for ``ProcessPoolExecutor`` or ``run_sweep``: no process
    can be forked."""
    raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))


def _pool_sweep_exit(tmp_path, capsys, monkeypatch) -> tuple[int, str, Path]:
    """A one-rung sweep of two cells at --threads 2: (exit code, stderr,
    output directory)."""
    import psdl.harness as harness_mod

    monkeypatch.setattr(harness_mod.os, "cpu_count", lambda: 2)  # a pool even on one CPU
    cfg = write_config(tmp_path, {"schema_version": 1, "sweep": {**SWEEP, "replications": 2}})
    out = tmp_path / "out"
    code = main(["sweep", "--config", cfg, "--out", str(out), "--threads", "2"])
    return code, capsys.readouterr().err, out


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="the patched cell reaches workers by fork")
def test_dead_sweep_worker_is_a_runtime_error(tmp_path, capsys, monkeypatch):
    import psdl.harness as harness_mod

    monkeypatch.setattr(harness_mod, "_run_cell", _exit_in_worker)
    code, err, out = _pool_sweep_exit(tmp_path, capsys, monkeypatch)
    assert code == 3
    assert err.startswith("runtime error: the sweep's worker pool failed: ") and err.count("\n") == 1
    assert not out.exists()


def test_pool_that_cannot_start_is_a_runtime_error(tmp_path, capsys, monkeypatch):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_processes)
    code, err, out = _pool_sweep_exit(tmp_path, capsys, monkeypatch)
    assert code == 3
    assert err == f"runtime error: the sweep's worker pool failed: [Errno {errno.EAGAIN}] {os.strerror(errno.EAGAIN)}\n"
    assert not out.exists()


def test_os_error_without_a_filename_names_no_file(tmp_path, capsys, monkeypatch):
    import psdl.cli as cli_mod

    monkeypatch.setattr(cli_mod, "run_sweep", _no_processes)
    cfg = write_config(tmp_path, {"schema_version": 1, "sweep": SWEEP})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"runtime error: {os.strerror(errno.EAGAIN)}\n"


# horizon / dt overflows a float, or counts more steps than an array can
# hold: a config error raised before anything is allocated
STEP_COUNT_OVERFLOW = [(1e300, 1e-10), (1e19, 1.0), (1e30, 1e-3)]


@pytest.mark.parametrize("horizon, dt", STEP_COUNT_OVERFLOW)
def test_rbm_step_count_overflow_is_a_config_error(tmp_path, capsys, horizon, dt):
    cfg = write_config(tmp_path, {"schema_version": 1, "rbm": {**RBM, "horizon": horizon, "dt": dt}})
    assert main(["rbm", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "steps" in err and err.count("\n") == 1
    assert "Traceback" not in err


# a step past the float range is a config error; a path or time average
# that leaves it is a runtime error, and neither writes a file or warns
RBM_OUT_OF_RANGE = [
    ({"drift": -1.0, "variance": 1e308, "horizon": 10.0, "dt": 5.0}, 2, "config error"),
    # every path value is finite, but their sum is not
    ({"drift": 1e303, "variance": 1.0, "horizon": 1000.0, "dt": 1.0}, 3, "runtime error"),
    # the path values themselves overflow partway
    ({"drift": 1e306, "variance": 1.0, "horizon": 1000.0, "dt": 1.0}, 3, "runtime error"),
]


@pytest.mark.parametrize("body, code, prefix", RBM_OUT_OF_RANGE, ids=["step", "average", "path"])
def test_rbm_out_of_float_range(tmp_path, capsys, body, code, prefix):
    cfg = write_config(tmp_path, {"schema_version": 1, "rbm": body})
    out = tmp_path / "out"
    assert main(["rbm", "--config", cfg, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and "float range" in err and err.count("\n") == 1
    assert not out.exists()


# the stationary law is checked before the path is drawn, so a request it
# cannot serve exits 2 and writes nothing
RBM_NO_STATIONARY_LAW = [
    # 2 |drift| / variance underflows to 0
    {"drift": -1e-300, "variance": 1e300, "horizon": 1.0, "dt": 0.5, "quantiles": [0.5]},
    # quantiles of a drift with no stationary law
    {**RBM, "drift": 0.5, "quantiles": [0.5]},
]


@pytest.mark.parametrize("body", RBM_NO_STATIONARY_LAW, ids=["rate-underflow", "nonnegative-drift"])
def test_rbm_without_a_stationary_law_writes_nothing(tmp_path, capsys, body):
    cfg = write_config(tmp_path, {"schema_version": 1, "rbm": body})
    out = tmp_path / "out"
    assert main(["rbm", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "stationary" in err and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


# configs Python cannot read as they stand: an integer past the float
# range, an integer of more digits than int() converts, nesting deeper
# than the decoder recurses, bytes that are not UTF-8, a directory and no
# file at all
UNREADABLE_CONFIGS = [
    b'{"schema_version": 1, "rbm": {"drift": -1, "variance": 2, "horizon": 1, "dt": 1%s}}' % (b"0" * 400),
    b'{"schema_version": 1, "rbm": {"drift": -%s}}' % (b"1" * 5000),
    b'{"schema_version": 1, "rbm": %s%s}' % (b"[" * 100_000, b"]" * 100_000),
    b'{"schema_version": 1, "rbm": {"drift": -1\xff}}',
    "directory",
    "missing",
]


@pytest.mark.parametrize(
    "text",
    UNREADABLE_CONFIGS,
    ids=["float-range", "int-digits", "depth", "not-utf8", "directory", "missing"],
)
def test_unreadable_config_is_a_config_error(tmp_path, capsys, text):
    cfg = tmp_path / "config.json"
    if text == "directory":
        cfg.mkdir()
    elif text != "missing":
        cfg.write_bytes(text)
    out = tmp_path / "out"
    assert main(["rbm", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


def _leaves(node, path=()):
    """Paths to every non-dict value of a JSON tree, lists and their items included."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _leaves(v, path + (k,))
        return
    yield path
    if isinstance(node, list):
        for i, v in enumerate(node):
            yield from _leaves(v, path + (i,))


FUZZ_BASES = [
    ("simulate", {"schema_version": 1, "scenario": SCENARIO, "output_dir": "out/demo"}),
    ("lift", {"schema_version": 1, "lift": LIFT}),
    ("lift", {"schema_version": 1, "lift": UNIFORM_LIFT}),
    ("sweep", {"schema_version": 1, "sweep": SWEEP}),
    ("rbm", {"schema_version": 1, "rbm": RBM}),
    ("profiles", {"schema_version": 1, "profile": PROFILE}),
]
FUZZ_VALUES = [
    -3, 0.5, "x", None, [], [1.0], {}, True, float("inf"), float("-inf"), float("nan"),
    # the edges of the float range: subnormal, tiny and huge, both signs
    5e-324, 1e-300, 1e-150, 1e150, 1e300, -1e-300, -1e300,
]
FUZZ_CASES = [
    (i, path, value)
    for i, (_, base) in enumerate(FUZZ_BASES)
    for path in _leaves(base)
    for value in FUZZ_VALUES
]


def _raises_number(old, new) -> bool:
    # a numeric leaf may not grow to another finite value, so no case runs
    # longer than its base; +/-inf and nan reach every numeric leaf
    num = (int, float)
    return isinstance(old, num) and isinstance(new, num) and math.isfinite(new) and new > old


def _fuzz_exit(case) -> tuple[int, list[str]]:
    """The exit code of one case and the files it left under its --out."""
    i, path, value = case
    cmd, body = copy.deepcopy(FUZZ_BASES[i])
    parent = body
    for key in path[:-1]:
        parent = parent[key]
    if _raises_number(parent[path[-1]], value):
        return 0, []
    parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as d:
        cfg, out = Path(d) / "config.json", Path(d) / "out"
        cfg.write_text(json.dumps(body))
        code = main([cmd, "--config", str(cfg), "--out", str(out)])
        return code, sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())


def test_cli_contract_fuzz(capsys):
    # every single-leaf case, each under the suite's RuntimeWarning filter;
    # a case that fails (exit 2 or 3) leaves no partial artifact
    failed = []
    for case in FUZZ_CASES:
        try:
            code, files = _fuzz_exit(case)
        except Exception as exc:  # noqa: BLE001 - a traceback breaks the contract
            failed.append((case, repr(exc)))
            continue
        if code not in (0, 2, 3) or (code != 0 and files):
            failed.append((case, code, files))
    capsys.readouterr()
    assert not failed, failed
