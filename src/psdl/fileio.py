"""Config files and output artifacts.

One JSON config drives one CLI command.  The file carries a
schema_version, an optional output_dir, and exactly one request block:

    scenario  -> simulate     (departures.csv, path.csv, snapshots.csv)
    sweep     -> sweep        (report.json, rows.csv, collapse_vs_r.csv,
                               profile_overlay.csv)
    lift      -> lift         (lift.csv, lift_summary.json)
    profile   -> profiles     (profile.csv)
    rbm       -> rbm          (rbm_path.csv, rbm_summary.json)

Each block is read into its dataclass, whose fields are the
block's keys and whose defaults fill the keys left out, so a request is
declared once.  Unknown keys anywhere, distribution specs included, are
rejected: a typo should fail loudly, not silently fall back to a
default.  A missing field or a value of the wrong type or form raises
ConfigError as well.

Writers hand each table as columns to _write_csv, which formats and
writes it a block of rows at a time.  Floats print with 17 significant
digits and JSON is dumped with sorted keys: identical runs, identical bytes.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .distributions import JointDistribution, ScalarDistribution, joint_from_spec, scalar_from_spec
from .engine import ScenarioConfig, SimOutput
from .errors import ConfigError
from .harness import CollapseReport, SweepConfig, SweepRow
from .measures import QuadrantGrid, default_grid
from .rbm import RBMPath, RBMSpec

__all__ = [
    "ConfigFile",
    "LiftRequest",
    "ProfileRequest",
    "RBMRequest",
    "load_config",
    "parse_scenario",
    "parse_sweep",
    "parse_lift",
    "parse_profile",
    "parse_rbm",
    "format_value",
    "write_json",
    "write_departures_csv",
    "write_path_csv",
    "write_snapshots_csv",
    "write_rows_csv",
    "write_report_json",
    "write_collapse_vs_r_csv",
    "write_profile_overlay_csv",
    "write_lift_csv",
    "write_profile_csv",
    "write_rbm_path_csv",
]

_FMT = "%.17g"
_FORMATS = {"f": _FMT, "i": "%d", "u": "%d"}  # row format by numpy dtype kind
_BLOCK_ROWS = 4096  # rows formatted and written per write call
_QUOTED = ',"\r\n'  # csv.writer quotes a cell holding any of these
_REQUEST_KEYS = ("scenario", "sweep", "lift", "profile", "rbm")


def format_value(v) -> str:
    """CSV cell text: empty for None, integers and strings as they are,
    floats with 17 significant digits."""
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, str):
        return v
    return _FMT % float(v)


def _reject_unknown(d: dict, allowed: set[str], where: str) -> None:
    extra = set(d) - allowed
    if extra:
        raise ConfigError(f"unknown keys in {where}: {sorted(extra)}")


def _parser(where: str):
    """Make a parse_* function report a missing field, or a value it cannot
    convert, in the ``where`` block as ConfigError."""

    def decorate(parse):
        @functools.wraps(parse)
        def checked(*args, **kwargs):
            try:
                return parse(*args, **kwargs)
            except ConfigError:
                raise
            except KeyError as exc:
                raise ConfigError(f"{where} missing required field {exc}") from None
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value in {where}: {exc}") from None

        return checked

    return decorate


@dataclass(frozen=True)
class ConfigFile:
    schema_version: int
    output_dir: str | None
    kind: str  # which request block is present
    payload: dict


def load_config(path) -> ConfigFile:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown(raw, {"schema_version", "output_dir", *_REQUEST_KEYS}, "config root")
    version = raw.get("schema_version")
    if version != 1:
        raise ConfigError(f"unsupported schema_version {version!r}; expected 1")
    present = [k for k in _REQUEST_KEYS if k in raw]
    if len(present) != 1:
        raise ConfigError(
            f"config must contain exactly one of {_REQUEST_KEYS}, found {present or 'none'}"
        )
    kind = present[0]
    payload = raw[kind]
    if not isinstance(payload, dict):
        raise ConfigError(f"{kind!r} block must be a JSON object")
    out_dir = raw.get("output_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError("output_dir must be a string")
    return ConfigFile(1, out_dir, kind, payload)


# ---------------------------------------------------------------------------
# request parsing
# ---------------------------------------------------------------------------


def _optional(convert):
    """Converter for a field whose JSON null means None."""
    return lambda v: None if v is None else convert(v)


def _int(v) -> int:
    """An integer field: integral numbers only, never a boolean."""
    integral = isinstance(v, int) or (isinstance(v, float) and v.is_integer())
    if isinstance(v, bool) or not integral:
        raise ConfigError(f"expected an integer, got {v!r}")
    return int(v)


def _float(v) -> float:
    """A float field: numbers only, never a boolean or a numeric string."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"expected a number, got {v!r}")
    return float(v)


def _floats(values) -> tuple[float, ...]:
    return tuple(_float(v) for v in values)


def _from_payload(cls, payload: dict, where: str, convert: dict):
    """Build the request dataclass ``cls`` from its block: the accepted keys
    are the fields of ``cls``, each present key goes through its converter
    in ``convert`` (or is taken as it is), and absent keys take the field's
    default.  Float fields convert with _float() so that a JSON 300 is
    echoed in the outputs as 300.0."""
    _reject_unknown(payload, {f.name for f in fields(cls)}, where)
    return cls(**{k: convert[k](v) if k in convert else v for k, v in payload.items()})


def _initial_jobs(spec) -> tuple[tuple[float, float], ...]:
    if spec == "empty":
        return ()
    if not isinstance(spec, list):
        raise ConfigError('initial_jobs must be "empty" or a list of [service, lead] pairs')
    return tuple((_float(v), _float(l)) for v, l in spec)


@_parser("scenario")
def parse_scenario(payload: dict) -> ScenarioConfig:
    convert = {
        "interarrival": scalar_from_spec,
        "first_interarrival": _optional(scalar_from_spec),
        "joint": joint_from_spec,
        "horizon": _float,
        "snapshot_times": _floats,
        "seed": _int,
        "lead_scale": _float,
        "initial_jobs": _initial_jobs,
        "r": _float,
    }
    return _from_payload(ScenarioConfig, payload, "scenario", convert)


def _parse_grid(spec: dict | None) -> QuadrantGrid:
    if spec is None:
        return default_grid()
    allowed = {"x_max", "x_step", "y_min", "y_max", "y_step"}
    _reject_unknown(spec, allowed, "grid")
    x_max, x_step = _float(spec["x_max"]), _float(spec["x_step"])
    y_min, y_max, y_step = _float(spec["y_min"]), _float(spec["y_max"]), _float(spec["y_step"])
    if not all(map(math.isfinite, (x_max, x_step, y_min, y_max, y_step))):
        raise ConfigError("grid bounds and steps must be finite")
    if x_step <= 0 or y_step <= 0 or x_max <= 0 or y_max <= y_min:
        raise ConfigError("grid steps must be positive and y_max > y_min")
    nx = int(round(x_max / x_step))
    ny = int(round((y_max - y_min) / y_step))
    xs = np.linspace(0.0, x_max, nx + 1)
    ys = np.concatenate(([-np.inf], np.linspace(y_min, y_max, ny + 1)))
    return QuadrantGrid(xs, ys)


@_parser("sweep")
def parse_sweep(payload: dict) -> SweepConfig:
    convert = {
        "joint": joint_from_spec,
        "alpha": _float,
        "gamma": _float,
        "r_values": _floats,
        "T": _float,
        "snapshot_times": _floats,
        "replications": _int,
        "seed_base": _int,
        "sojourn_window": _float,
        "interarrival_kind": str,
        "grid": _parse_grid,
    }
    return _from_payload(SweepConfig, payload, "sweep", convert)


@dataclass(frozen=True)
class LiftRequest:
    """A lift request: the law, rate and mass, and the grid to tabulate on."""

    joint: JointDistribution
    alpha: float
    z: float
    grid: QuadrantGrid = field(default_factory=default_grid)


@_parser("lift")
def parse_lift(payload: dict) -> LiftRequest:
    convert = {
        "joint": joint_from_spec,
        "alpha": _float,
        "z": _float,
        "grid": _parse_grid,
    }
    return _from_payload(LiftRequest, payload, "lift", convert)


@dataclass(frozen=True)
class ProfileRequest:
    """A profile request; ``cli`` declares the profile kinds and the
    optional fields each one needs."""

    profile: str
    nu: ScalarDistribution
    z: float
    y_values: tuple[float, ...]
    lam: ScalarDistribution | None = None
    alpha: float | None = None
    c: float | None = None


def _y_values(spec) -> tuple[float, ...]:
    if isinstance(spec, dict):
        _reject_unknown(spec, {"y_min", "y_max", "n"}, "y_values")
        spec = np.linspace(_float(spec["y_min"]), _float(spec["y_max"]), _int(spec["n"]))
    ys = _floats(spec)
    if any(map(math.isnan, ys)):
        raise ConfigError("y_values must not contain NaN")
    return ys


@_parser("profile")
def parse_profile(payload: dict) -> ProfileRequest:
    convert = {
        "profile": str,
        "nu": scalar_from_spec,
        "z": _float,
        "y_values": _y_values,
        "lam": _optional(scalar_from_spec),
        "alpha": _optional(_float),
        "c": _optional(_float),
    }
    return _from_payload(ProfileRequest, payload, "profile", convert)


@dataclass(frozen=True)
class RBMRequest:
    drift: float
    variance: float
    horizon: float
    dt: float
    x0: float = 0.0
    seed: int = 0
    quantiles: tuple[float, ...] = ()

    @property
    def spec(self) -> RBMSpec:
        return RBMSpec(self.drift, self.variance, self.x0)


@_parser("rbm")
def parse_rbm(payload: dict) -> RBMRequest:
    convert = {
        "drift": _float,
        "variance": _float,
        "horizon": _float,
        "dt": _float,
        "x0": _float,
        "seed": _int,
        "quantiles": _floats,
    }
    return _from_payload(RBMRequest, payload, "rbm", convert)


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------


def _write_csv(path, header: list[str], columns) -> None:
    """Write equal-length columns (float arrays as %.17g, integer arrays as
    integers, others cell by cell through format_value) under a header row,
    _BLOCK_ROWS rows per write call, in csv.writer's bytes.  A cell it would
    quote (holding a comma, a double quote or a line break) raises
    ValueError, as does a table of fewer than two columns."""
    n = len(columns[0]) if columns else 0
    if len(header) != len(columns) or len(columns) < 2 or any(len(c) != n for c in columns):
        raise ValueError(f"{path}: need two or more equal-length columns, one per header name")
    kinds = [c.dtype.kind if isinstance(c, np.ndarray) else "O" for c in columns]
    row = ",".join(_FORMATS.get(k, "%s") for k in kinds) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_text(header)) + "\r\n")
        for lo in range(0, n, _BLOCK_ROWS):
            block = [c[lo : lo + _BLOCK_ROWS] for c in columns]
            cells = [b.tolist() if k in _FORMATS else _text(b) for b, k in zip(block, kinds)]
            fh.write("".join(map(row.__mod__, zip(*cells))))


def _text(values) -> list[str]:
    """format_value's cells, refusing any that csv.writer would quote."""
    cells = [format_value(v) for v in values]
    joined = "".join(cells)
    if any(ch in joined for ch in _QUOTED):
        bad = next(c for c in cells if any(ch in c for ch in _QUOTED))
        raise ValueError(f"CSV cell would need quoting: {bad!r}")
    return cells


def write_json(data: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_departures_csv(out: SimOutput, path) -> None:
    header = ["id", "arrival", "sojourn", "service_req", "lateness"]
    keys = ("job_id", "arrival_time", "sojourn", "service_req", "lateness")
    deps = out.departures()
    _write_csv(path, header, [np.array([getattr(j, k) for j in deps]) for k in keys])


def write_path_csv(out: SimOutput, path) -> None:
    # one row per event; z and w are the post-event (right-continuous) values
    p = out.path
    _write_csv(path, ["t", "z", "w", "s"], [p.times, p.z, p.w_post, p.s])


def write_snapshots_csv(out: SimOutput, path) -> None:
    # time_index is the position in the snapshot schedule; times live in the summary
    ms = [m for _, _, m in out.snapshots]
    columns = [np.repeat(np.arange(len(ms)), [m.residuals.size for m in ms])]
    for k in ("residuals", "leads", "weights"):
        columns.append(np.concatenate([getattr(m, k) for m in ms] or [[]]))
    _write_csv(path, ["time_index", "residual", "lead", "weight"], columns)


def write_rows_csv(report: CollapseReport, path) -> None:
    header = [f.name for f in fields(SweepRow)]
    _write_csv(path, header, [[getattr(row, k) for row in report.rows] for k in header])


def write_report_json(report: CollapseReport, path) -> None:
    write_json(report.to_json_dict(), path)


def write_collapse_vs_r_csv(report: CollapseReport, path) -> None:
    header = ["r", "n_nonempty", "median_collapse_error", "q25_collapse_error"]
    header += ["q75_collapse_error", "median_lead_profile_error", "slope_through_origin"]
    per_r = report.aggregates["per_r"]
    _write_csv(path, header, [[entry[k] for entry in per_r] for k in header])


def write_profile_overlay_csv(report: CollapseReport, path) -> None:
    ys = report.config["grid"]["y_values"]
    rows = [(ov.r, ov.t, *c) for ov in report.overlays for c in zip(ys, ov.empirical, ov.limit)]
    header = ["r", "t", "y", "empirical_survival", "limit_survival"]
    _write_csv(path, header, [[row[k] for row in rows] for k in range(len(header))])


def write_lift_csv(table: np.ndarray, grid: QuadrantGrid, path) -> None:
    """One row per grid node: the quadrant mass table[i, j] at (x_i, y_j)."""
    xs, ys = np.meshgrid(grid.x_values, grid.y_values, indexing="ij")
    _write_csv(path, ["x", "y", "mass"], [xs.ravel(), ys.ravel(), table.ravel()])


def write_profile_csv(values, label: str, path) -> None:
    """(y, profile value) pairs under the header y,<label>."""
    _write_csv(path, ["y", label], [[y for y, _ in values], [v for _, v in values]])


def write_rbm_path_csv(rbm: RBMPath, path) -> None:
    _write_csv(path, ["t", "x"], [rbm.times, rbm.values])
