"""The three benchmark workloads, their inputs, traced replays and
output checks.

Every input comes from the benchmark seed; psdl only ever receives the
generated configs.  Seeds fold onto a pool of SEED_POOL input sets so
that each one has reference outputs, recorded from the seed commit in
reference.json.

A workload round is the unit that is timed.  ``run_round`` runs it,
``observe`` (untimed) turns its result into the shape of the stored
reference, and ``compare`` turns observed-versus-reference into one
pass/fail entry per operation (one sweep cell or one CLI command).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import statistics
import time
import traceback
from pathlib import Path

import numpy as np

import psdl
from psdl import cli, fileio
from psdl.engine import TrafficStream
from psdl.harness import SojournSample, SweepRow
from tracer import Tracer, covered_time, duration, patched, self_time, total

SEED_POOL = 16
SEED_BASE = 20260815

# lift's default tolerance: the closed-form/quadrature agreement a
# correct change may move collapse, profile and KS values by
FLOAT_TOL = 1e-6
# path.csv w may move in its last digits (running-sum engine)
PATH_W_REL = 1e-9
PATH_SAMPLES = 64

ENGINE_R_VALUES = (5, 10, 20, 40, 80, 160)
CLI_COMMANDS = ("simulate", "rbm", "profiles", "lift", "sweep")

SNAPSHOTS = (0.5, 1.0, 1.5, 2.0)

# Sizes per profile.  "full" is what the benchmark measures; "tiny" is
# the self-check's size.
PROFILES = {
    "full": {
        "mm1_deep": {"r_values": (40.0, 80.0, 160.0), "replications": 12, "snapshots": SNAPSHOTS},
        "uniform_ladder": {"r_values": (5.0, 10.0, 20.0), "replications": 4, "snapshots": SNAPSHOTS},
        "cli_pipeline": {
            "sim_r": 80.0,
            "rbm_horizon": 1000.0,
            "rbm_dt": 0.001,
            "profile_points": 41,
            "lift_grid": None,
            "sweep_r": (5.0, 10.0, 20.0),
            "sweep_replications": 40,
            "sweep_threads": 2,
        },
    },
    "tiny": {
        "mm1_deep": {"r_values": (20.0, 40.0), "replications": 1, "snapshots": SNAPSHOTS},
        "uniform_ladder": {"r_values": (5.0,), "replications": 1, "snapshots": (1.0, 2.0)},
        "cli_pipeline": {
            "sim_r": 10.0,
            "rbm_horizon": 10.0,
            "rbm_dt": 0.001,
            "profile_points": 5,
            "lift_grid": {"x_max": 2.0, "x_step": 0.5, "y_min": -2.0, "y_max": 2.0, "y_step": 1.0},
            "sweep_r": (5.0,),
            "sweep_replications": 4,
            "sweep_threads": 2,
        },
    },
}

MM1_JOINT = {
    "kind": "product",
    "service": {"kind": "exponential", "rate": 1.0},
    "lead": {"kind": "exponential", "rate": 1.0},
}
UNIFORM_JOINT = {
    "kind": "product",
    "service": {"kind": "uniform", "lo": 0.0, "hi": 2.0},
    "lead": {"kind": "exponential", "rate": 1.0},
}


def pool_seed(seed: int) -> int:
    return seed % SEED_POOL


def _close(a, b, tol: float) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= tol


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _median(vals, default=0.0) -> float:
    return float(statistics.median(vals)) if vals else default


# ---------------------------------------------------------------------------
# library sweeps: mm1_deep and uniform_ladder
# ---------------------------------------------------------------------------


class SweepWorkload:
    """run_sweep (threads=1) over one generated ladder config."""

    def __init__(self, name: str, profile: str, seed: int, workdir: Path):
        size = PROFILES[profile][name]
        joint = MM1_JOINT if name == "mm1_deep" else UNIFORM_JOINT
        self.config = psdl.SweepConfig(
            joint=psdl.joint_from_spec(joint),
            alpha=1.0,
            gamma=0.5,
            r_values=size["r_values"],
            T=2.0,
            snapshot_times=size["snapshots"],
            replications=size["replications"],
            seed_base=SEED_BASE + pool_seed(seed),
            sojourn_window=250.0,
        )
        self.cells = sweep_cells(self.config)
        self.last_rows: tuple | None = None

    def warm_up(self) -> None:
        joint = self.config.joint
        out = psdl.run(
            psdl.ScenarioConfig(
                interarrival=psdl.Exponential(0.9),
                joint=joint,
                horizon=200.0,
                snapshot_times=(100.0,),
                seed=1,
            )
        )
        out.snapshot_at(100.0)
        psdl.lift(joint, 1.0, 1.0).eval(0.5, 0.0)

    def observe(self, rows) -> dict:
        obs: dict[str, list] = {}
        for row in rows:
            obs.setdefault(f"{row.r:g}/{row.replication}", []).append(
                [row.n_jobs, row.sojourn_n, row.collapse_error, row.lead_profile_error, row.sojourn_ks]
            )
        return obs

    def run_round(self, paused=contextlib.nullcontext) -> tuple:
        self.last_rows = psdl.run_sweep(self.config, threads=1).rows
        return self.last_rows

    def compare(self, observed: dict | None, ref: dict | None) -> list[tuple[str, bool]]:
        """Exact n_jobs/sojourn_n and row count; collapse, profile and KS
        within FLOAT_TOL."""
        results = []
        for ri, rep in self.cells:
            key = cell_key(self.config, ri, rep)
            got = (observed or {}).get(key)
            want = (ref or {}).get(key)
            ok = got is not None and want is not None and len(got) == len(want)
            if ok:
                for g, w in zip(got, want):
                    ok = ok and g[0] == w[0] and g[1] == w[1]
                    ok = ok and all(_close(a, b, FLOAT_TOL) for a, b in zip(g[2:], w[2:]))
            results.append((key, ok))
        return results

    def run_traced(self, tr: Tracer, paused=contextlib.nullcontext) -> tuple[dict, float, dict, dict]:
        """Traced replay of every cell.

        Returns (observed, replay wall, extra per-layer values, extra
        per-operation checks).  The extra checks: the replay reproduces
        run_sweep's rows, and each cell's arrival stream, drawn again
        through TrafficStream after the timed replay, matches the jobs
        the engine admitted."""
        rows, streams = [], []
        t0 = time.perf_counter()
        for ri, rep in self.cells:
            cell_rows, stream = replay_cell(tr, self.config, ri, rep)
            rows.extend(cell_rows)
            streams.append(stream)
        wall = time.perf_counter() - t0
        same_rows = self.last_rows is not None and tuple(rows) == tuple(self.last_rows)
        checks = {}
        for (ri, rep), (n, arr, svc, lead) in zip(self.cells, streams):
            key = cell_key(self.config, ri, rep)
            scenario = psdl.build_scenario(self.config, self.config.r_values[ri], rep)
            ts = TrafficStream(scenario, np.random.default_rng(scenario.seed))
            tr.cell = key
            with tr.span("distributions.sample", draws=n + 1):
                draws = [ts.next() for _ in range(n + 1)]
            tr.cell = None
            redrawn = (
                n,
                math.fsum(d[0] for d in draws[:n]),
                math.fsum(d[1] for d in draws[:n]),
                math.fsum(d[2] for d in draws[:n]),
            )
            checks[key] = same_rows and redrawn == (n, arr, svc, lead)
        return self.observe(rows), wall, {}, checks

    def prepare(self) -> None:
        pass

    def cleanup(self) -> None:
        pass


def cell_key(cfg, ri: int, rep: int) -> str:
    return f"{cfg.r_values[ri]:g}/{rep}"


def sweep_cells(cfg) -> list[tuple[int, int]]:
    return [(ri, rep) for ri in range(len(cfg.r_values)) for rep in range(cfg.replications)]


def replay_cell(tr: Tracer, cfg, ri: int, rep: int) -> tuple[list, tuple]:
    """One sweep cell through the public calls harness._run_cell makes,
    one span each.  Returns the cell's rows and a digest of the jobs the
    engine admitted: (count, fsum of arrivals, services, scaled leads)."""
    r = cfg.r_values[ri]
    grid = cfg.grid
    nu = cfg.joint.service if isinstance(cfg.joint, (psdl.ProductJoint, psdl.LinearJoint)) else None
    rows = []
    tr.cell = cell_key(cfg, ri, rep)
    with tr.span("harness.cell", r=r, rep=rep):
        scenario = tr.call("harness.build_scenario", psdl.build_scenario, cfg, r, rep)
        with tr.span("engine.run", r=r) as sp:
            out = psdl.run(scenario)
            sp["events"] = len(out.path) - 1
            sp["max_z"] = int(out.path.z.max())
        for t in cfg.snapshot_times:
            _, _, snap = tr.call("engine.snapshot_at", out.snapshot_at, r * r * t)
            scaled = tr.call("measures.scale_diffusion", psdl.scale_diffusion, snap, r) if snap.count else snap
            z = snap.count / r
            w = tr.call("measures.mass_moment_chi", psdl.mass_moment_chi, scaled)
            with tr.span("measures.grid", atoms=scaled.count):
                emp = psdl.measures.grid_quadrant_masses(scaled, grid)
            with tr.span("manifold.lift", z=z) as sp:
                inv = psdl.lift(cfg.joint, cfg.alpha, z)
                sp["method"] = inv.method
            with tr.span("manifold.grid", z=z, method=inv.method):
                th = psdl.measures.grid_quadrant_masses(inv.quadrant, grid)
            diff = np.abs(emp - th)
            if nu is not None:
                with tr.span("harness.sojourn") as sp:
                    sj = psdl.sojourn_snapshot_experiment(out, r, t, cfg.sojourn_window, nu)
                    sp["n"] = sj.n
            else:
                sj = SojournSample(r, t, 0, None, z, "no_service_law")
            late = tr.call("harness.lateness_fraction", psdl.lateness_fraction, scaled)
            rows.append(
                SweepRow(
                    r=r,
                    replication=rep,
                    t=t,
                    n_jobs=snap.count,
                    z_scaled=z,
                    w_scaled=w,
                    collapse_error=float(diff.max()),
                    lead_profile_error=float(diff[0, :].max()),
                    lateness_fraction=late,
                    sojourn_n=sj.n,
                    sojourn_ks=sj.ks,
                    sojourn_flag=sj.flag,
                )
            )
    tr.cell = None
    jobs = out.jobs
    digest = (
        len(jobs),
        math.fsum(j.arrival_time for j in jobs),
        math.fsum(j.service_req for j in jobs),
        math.fsum(j.initial_lead for j in jobs),
    )
    return rows, digest


# ---------------------------------------------------------------------------
# CLI pipeline
# ---------------------------------------------------------------------------


class CliWorkload:
    """psdl.cli.main in-process: simulate, rbm, profiles, lift, sweep."""

    def __init__(self, name: str, profile: str, seed: int, workdir: Path):
        size = PROFILES[profile][name]
        self.size = size
        self.workdir = workdir
        self.out_root = workdir / "out"
        cfg_dir = workdir / "configs"
        cfg_dir.mkdir(parents=True, exist_ok=True)
        ps = pool_seed(seed)
        r = size["sim_r"]
        rate = 1.0 - 0.5 / r
        horizon = r * r * 2.0
        bodies = {
            "simulate": {
                "scenario": {
                    "interarrival": {"kind": "exponential", "rate": rate},
                    "joint": {
                        "kind": "product",
                        "service": {"kind": "exponential", "rate": 1.0},
                        "lead": {"kind": "exponential", "rate": 1.0 / r},
                    },
                    "horizon": horizon,
                    "snapshot_times": [horizon * k / 4.0 for k in (1, 2, 3, 4)],
                    "seed": SEED_BASE + ps,
                    "r": r,
                }
            },
            "rbm": {
                "rbm": {
                    "drift": -0.5,
                    "variance": 2.0,
                    "horizon": size["rbm_horizon"],
                    "dt": size["rbm_dt"],
                    "seed": SEED_BASE + ps,
                    "quantiles": [0.5, 0.9, 0.99],
                }
            },
            "profiles": {
                "profile": {
                    "profile": "lead_product",
                    "nu": {"kind": "uniform", "lo": 0.0, "hi": 2.0},
                    "lam": {"kind": "exponential", "rate": 1.0},
                    "alpha": 1.0,
                    "z": 1.0,
                    "y_values": {"y_min": -5.0, "y_max": 5.0, "n": size["profile_points"]},
                }
            },
            "lift": {
                "lift": {
                    "joint": {"kind": "linear", "service": {"kind": "uniform", "lo": 0.0, "hi": 2.0}, "c": 1.0},
                    "alpha": 1.0,
                    "z": 1.0,
                    **({"grid": size["lift_grid"]} if size["lift_grid"] else {}),
                }
            },
            "sweep": {
                "sweep": {
                    "joint": MM1_JOINT,
                    "alpha": 1.0,
                    "gamma": 0.5,
                    "r_values": list(size["sweep_r"]),
                    "T": 2.0,
                    "snapshot_times": list(SNAPSHOTS),
                    "replications": size["sweep_replications"],
                    "seed_base": SEED_BASE + ps,
                    "sojourn_window": 250.0,
                }
            },
        }
        self.configs = {}
        for cmd, body in bodies.items():
            path = cfg_dir / f"{cmd}.json"
            path.write_text(json.dumps({"schema_version": 1, **body}, indent=2))
            self.configs[cmd] = path
        self.warm_config = cfg_dir / "warm_up.json"
        warm = json.loads(json.dumps(bodies["simulate"]))
        warm["scenario"].update(horizon=50.0, snapshot_times=[25.0])
        self.warm_config.write_text(json.dumps({"schema_version": 1, **warm}))

    def _argv(self, cmd: str) -> list[str]:
        argv = [cmd, "--config", str(self.configs[cmd]), "--out", str(self.out_root / cmd)]
        if cmd == "sweep":
            argv += ["--threads", str(self.size["sweep_threads"])]
        return argv

    @staticmethod
    def _main(argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                return cli.main(argv)
            except SystemExit as exc:
                return exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crashing command fails; the pipeline goes on
                traceback.print_exc()
                return -1

    def warm_up(self) -> None:
        self._main(["simulate", "--config", str(self.warm_config), "--out", str(self.workdir / "warm_up")])

    def prepare(self) -> None:
        shutil.rmtree(self.out_root, ignore_errors=True)
        self.out_root.mkdir(parents=True)

    def run_round(self, paused=contextlib.nullcontext) -> dict:
        """Exit code per command; paused() wraps the command that runs
        worker processes."""
        codes = {}
        for cmd in CLI_COMMANDS:
            with paused() if cmd == "sweep" else contextlib.nullcontext():
                codes[cmd] = self._main(self._argv(cmd))
        return codes

    def observe(self, codes: dict) -> dict:
        obs = {}
        for cmd, rc in codes.items():
            d = self.out_root / cmd
            entry: dict = {"rc": rc}
            try:
                entry.update(getattr(self, f"_observe_{cmd}")(d))
            except (OSError, ValueError, KeyError, IndexError):
                entry["unreadable"] = True
            obs[cmd] = entry
        return obs

    @staticmethod
    def _observe_simulate(d: Path) -> dict:
        with open(d / "path.csv", newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            ws = [float(row[2]) for row in reader]
        step = max(1, len(ws) // PATH_SAMPLES)
        return {
            "departures_sha256": _sha256(d / "departures.csv"),
            "path_rows": len(ws),
            "path_w_sum": math.fsum(ws),
            "path_w_samples": [[i, ws[i]] for i in range(0, len(ws), step)],
        }

    @staticmethod
    def _observe_rbm(d: Path) -> dict:
        with open(d / "rbm_path.csv", "rb") as fh:
            rows = sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b"")) - 1
        summary = json.loads((d / "rbm_summary.json").read_text())
        return {"rows": rows, "time_average": summary["time_average"]}

    @staticmethod
    def _observe_profiles(d: Path) -> dict:
        with open(d / "profile.csv", newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            return {"values": [[float(y), float(v)] for y, v in reader]}

    @staticmethod
    def _observe_lift(d: Path) -> dict:
        with open(d / "lift.csv", newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            masses = [float(row[2]) for row in reader]
        summary = json.loads((d / "lift_summary.json").read_text())
        return {"method": summary["method"], "total_mass": summary["total_mass"], "masses": masses}

    @staticmethod
    def _observe_sweep(d: Path) -> dict:
        return {"report_sha256": _sha256(d / "report.json"), "rows_sha256": _sha256(d / "rows.csv")}

    def compare(self, observed: dict | None, ref: dict | None) -> list[tuple[str, bool]]:
        """Exit codes 0; departures.csv and the threads-2 sweep files
        byte-identical to the threads-1 reference; path.csv w within
        PATH_W_REL relative; profile and lift values within FLOAT_TOL;
        the RBM time average within 1e-9 relative."""
        results = []
        for cmd in CLI_COMMANDS:
            got = (observed or {}).get(cmd) or {}
            want = (ref or {}).get(cmd)
            ok = got.get("rc") == 0 and not got.get("unreadable") and want is not None
            if ok:
                ok = getattr(self, f"_compare_{cmd}")(got, want)
            results.append((cmd, bool(ok)))
        return results

    @staticmethod
    def _compare_simulate(got, want) -> bool:
        def close(a, b):
            return math.isclose(a, b, rel_tol=PATH_W_REL, abs_tol=PATH_W_REL)

        return (
            got["departures_sha256"] == want["departures_sha256"]
            and got["path_rows"] == want["path_rows"]
            and close(got["path_w_sum"], want["path_w_sum"])
            and len(got["path_w_samples"]) == len(want["path_w_samples"])
            and all(
                gi == wi and close(gw, ww)
                for (gi, gw), (wi, ww) in zip(got["path_w_samples"], want["path_w_samples"])
            )
        )

    @staticmethod
    def _compare_rbm(got, want) -> bool:
        return got["rows"] == want["rows"] and math.isclose(
            got["time_average"], want["time_average"], rel_tol=1e-9
        )

    @staticmethod
    def _compare_profiles(got, want) -> bool:
        return len(got["values"]) == len(want["values"]) and all(
            gy == wy and _close(gv, wv, FLOAT_TOL)
            for (gy, gv), (wy, wv) in zip(got["values"], want["values"])
        )

    @staticmethod
    def _compare_lift(got, want) -> bool:
        return (
            got["method"] == want["method"]
            and _close(got["total_mass"], want["total_mass"], FLOAT_TOL)
            and len(got["masses"]) == len(want["masses"])
            and all(_close(a, b, FLOAT_TOL) for a, b in zip(got["masses"], want["masses"]))
        )

    @staticmethod
    def _compare_sweep(got, want) -> bool:
        return got["report_sha256"] == want["report_sha256"] and got["rows_sha256"] == want["rows_sha256"]

    def run_traced(self, tr: Tracer, paused=contextlib.nullcontext) -> tuple[dict, float, dict, dict]:
        """Every command under its own span, with the library calls cli
        makes wrapped in spans.  The sweep's pool runs in child
        processes, so its cells are replayed serially afterwards to give
        harness.pool_speedup."""

        def run_info(rec, args, out):
            rec["r"] = out.config.r
            rec["events"] = len(out.path) - 1
            rec["max_z"] = int(out.path.z.max())

        def lift_info(rec, args, inv):
            rec["method"] = inv.method
            rec["z"] = inv.z

        def grid_info(rec, args, table):
            lifts = [s for s in tr.spans if s["name"] == "manifold.lift"]
            rec["method"] = lifts[-1]["method"] if lifts else None
            rec["z"] = lifts[-1]["z"] if lifts else None

        def rbm_info(rec, args, path):
            rec["steps"] = int(path.values.size - 1)

        targets = [
            (cli, "run", "engine.run", run_info),
            (cli, "busy_rate_check", "engine.busy_rate_check", None),
            (cli, "run_sweep", "harness.run_sweep", None),
            (cli, "lift", "manifold.lift", lift_info),
            (cli, "grid_quadrant_masses", "manifold.grid", grid_info),
            (cli, "lead_profile_product", "manifold.profile", None),
            (cli, "simulate", "rbm.simulate", rbm_info),
        ]
        targets += [
            (fileio, fn, "fileio.parse", None)
            for fn in ("load_config", "parse_scenario", "parse_sweep", "parse_lift", "parse_profile", "parse_rbm")
        ]
        # the lift, profile and RBM writes go through the shared CSV writer
        targets += [
            (fileio, fn, "fileio.write", None)
            for fn in (
                "write_departures_csv",
                "write_path_csv",
                "write_snapshots_csv",
                "write_rows_csv",
                "write_report_json",
                "write_collapse_vs_r_csv",
                "write_profile_overlay_csv",
                "_write_csv",
            )
        ]
        codes = {}
        t0 = time.perf_counter()
        with patched(tr, targets):
            for cmd in CLI_COMMANDS:
                tr.cell = cmd
                with tr.span(f"cli.{cmd}") as sp, paused() if cmd == "sweep" else contextlib.nullcontext():
                    codes[cmd] = self._main(self._argv(cmd))
                sp["bytes"] = sum(p.stat().st_size for p in (self.out_root / cmd).glob("*") if p.is_file())
        tr.cell = None
        wall = time.perf_counter() - t0
        observed = self.observe(codes)

        sweep_cfg = fileio.parse_sweep(json.loads(self.configs["sweep"].read_text())["sweep"])
        serial = Tracer()
        for ri, rep in sweep_cells(sweep_cfg):
            replay_cell(serial, sweep_cfg, ri, rep)
        busy = total(serial.spans, "harness.cell")
        pool_wall = total(tr.spans, "harness.run_sweep")
        return observed, wall, {"harness.pool_speedup": busy / pool_wall if pool_wall > 0 else 0.0}, {}

    def cleanup(self) -> None:
        shutil.rmtree(self.out_root, ignore_errors=True)
        shutil.rmtree(self.workdir / "warm_up", ignore_errors=True)


WORKLOADS = {"mm1_deep": SweepWorkload, "uniform_ladder": SweepWorkload, "cli_pipeline": CliWorkload}


def make(name: str, profile: str, seed: int, workdir: Path):
    return WORKLOADS[name](name, profile, seed, workdir)


# ---------------------------------------------------------------------------
# per-layer metrics from one traced round
# ---------------------------------------------------------------------------


def layer_metrics(spans: list[dict], wall: float, extra: dict) -> dict:
    m: dict[str, float] = {}
    runs = [s for s in spans if s["name"] == "engine.run"]
    m["engine.run_s"] = sum(duration(s) for s in runs)
    m["engine.events"] = sum(s["events"] for s in runs)
    m["engine.max_z"] = max((s["max_z"] for s in runs), default=0)
    for r in ENGINE_R_VALUES:
        sel = [s for s in runs if s["r"] == r]
        events = sum(s["events"] for s in sel)
        m[f"engine.us_per_event.r{r}"] = 1e6 * sum(duration(s) for s in sel) / events if events else 0.0
    m["engine.share"] = m["engine.run_s"] / wall

    m["distributions.sample_s"] = total(spans, "distributions.sample")

    m["harness.ks_s"] = total(spans, "harness.sojourn")
    m["harness.ks_samples"] = sum(s["n"] for s in spans if s["name"] == "harness.sojourn")
    m["harness.self_s"] = self_time(spans, "harness.cell")
    m["harness.pool_speedup"] = extra.get("harness.pool_speedup", 0.0)

    grids = [s for s in spans if s["name"] == "manifold.grid" and s["z"]]
    m["manifold.lift_s"] = total(spans, "manifold.lift") + total(spans, "manifold.grid")
    m["manifold.lift_calls"] = sum(1 for s in spans if s["name"] == "manifold.lift")
    m["manifold.lift_share"] = m["manifold.lift_s"] / wall
    m["manifold.grid_ms.closed_form"] = _median(
        [1e3 * duration(s) for s in grids if s["method"].startswith("closed_form")]
    )
    m["quadrature.grid_ms"] = _median([1e3 * duration(s) for s in grids if s["method"] == "quadrature"])
    m["manifold.profile_s"] = total(spans, "manifold.profile")

    m["measures.grid_s"] = total(spans, "measures.grid")
    m["measures.atoms"] = sum(s["atoms"] for s in spans if s["name"] == "measures.grid")

    rbm = [s for s in spans if s["name"] == "rbm.simulate"]
    m["rbm.simulate_s"] = sum(duration(s) for s in rbm)
    m["rbm.steps_per_s"] = sum(s["steps"] for s in rbm) / m["rbm.simulate_s"] if rbm else 0.0

    m["fileio.parse_s"] = covered_time(spans, "fileio.parse")
    cmd_spans = {s["cell"]: s for s in spans if s["name"].startswith("cli.")}
    for cmd in CLI_COMMANDS:
        in_cmd = [s for s in spans if s["cell"] == cmd]
        m[f"fileio.write_s.{cmd}"] = covered_time(in_cmd, "fileio.write")
        m[f"fileio.bytes.{cmd}"] = cmd_spans[cmd]["bytes"] if cmd in cmd_spans else 0
        m[f"cli.{cmd}_s"] = duration(cmd_spans[cmd]) if cmd in cmd_spans else 0.0
    m["fileio.write_share"] = covered_time(spans, "fileio.write") / wall
    m["cli.self_s"] = sum(self_time(spans, f"cli.{cmd}") for cmd in CLI_COMMANDS)
    return m
