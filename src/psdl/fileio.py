"""Config files and output artifacts.

One JSON config drives one CLI command.  The file carries a
schema_version, an optional output_dir, and exactly one request block:

    scenario  -> simulate     (departures.csv, path.csv, snapshots.csv)
    sweep     -> sweep        (report.json, rows.csv, collapse_vs_r.csv,
                               profile_overlay.csv)
    lift      -> lift         (lift.csv, lift_summary.json)
    profile   -> profiles     (profile.csv)
    rbm       -> rbm          (rbm_path.csv, rbm_summary.json)

One reader (_read) builds each block, and each law spec in it, into its
dataclass: the keys are the fields, each value goes through the reader
of its field's declared type, and defaults fill the keys left out, so a
request or a law is declared once.  A number is never a boolean or a
numeric string.  An unknown key (a typo should fail loudly), a missing
field or a value of the wrong type or form raises ConfigError.

Writers hand each table as columns to _write_csv, which writes it a
block of rows at a time.  Floats print as ``%.17g`` (format_value) and
JSON is dumped with sorted keys: identical runs, identical bytes.  A table
of numeric columns is formatted by numpy (psdl.floattext): per cell,
|x| * 10**(16 - E) with E = floor(log10 |x|) is formed as a double-double
to within 2**-47, rounded to the 17-digit N that %.17g prints unless its
fraction lies within 1e-12 of 1/2, and N's digits are laid out by %g's
rules.  Cells that test cannot settle, and values outside [1e-99, 1e99)
other than zero, are printed by ``%``, so the bytes are those of ``%``.
Any other table is formatted cell by cell through format_value.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Annotated, get_args, get_origin, get_type_hints

import numpy as np

from .distributions import (
    Deterministic,
    EmpiricalJoint,
    Exponential,
    HyperExponential,
    JointDistribution,
    LinearJoint,
    PointMassZero,
    ProductJoint,
    ScalarDistribution,
    Uniform,
)
from .engine import ScenarioConfig, SimOutput
from .errors import ConfigError
from .harness import CollapseReport, SweepConfig, SweepRow
from .measures import QuadrantGrid, default_grid
from .rbm import _MAX_FLOATS, RBMPath, RBMSpec

__all__ = [
    "ConfigFile",
    "LiftRequest",
    "ProfileRequest",
    "RBMRequest",
    "load_config",
    "scalar_from_spec",
    "joint_from_spec",
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
_BLOCK_CELLS = 16_384  # cells per write call: 1.3 MB of kernel workspace at any width
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


@dataclass(frozen=True)
class ConfigFile:
    output_dir: str | None
    kind: str  # which request block is present
    payload: dict


def load_config(path) -> ConfigFile:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:  # also past int() digits or nesting depth
        raise ConfigError(f"cannot read config {path} as JSON: {exc}") from None
    root = _object(raw, _ROOT, "config root")
    version = root.get("schema_version")
    if version != 1:
        raise ConfigError(f"unsupported schema_version {version!r}; expected 1")
    present = [k for k in _REQUEST_KEYS if k in root]
    if len(present) != 1:
        raise ConfigError(
            f"config must contain exactly one of {_REQUEST_KEYS}, found {present or 'none'}"
        )
    return ConfigFile(root.get("output_dir"), present[0], root[present[0]])


# ---------------------------------------------------------------------------
# the reader: a JSON object into a request or law dataclass
# ---------------------------------------------------------------------------


def _read(cls, obj, where: str):
    """Build the dataclass ``cls`` from the JSON object ``obj``: its keys are
    the fields of ``cls``, each value goes through the reader of its field's
    declared type (_reader), and absent keys take the field's default."""
    readers, required = _schema(cls)
    return cls(**_object(obj, readers, where, required))


@functools.cache
def _schema(cls) -> tuple[dict, tuple[str, ...]]:
    """The reader of each field of ``cls``, and the fields with no default."""
    hints = get_type_hints(cls, include_extras=True)
    readers = {f.name: _reader(hints[f.name]) for f in fields(cls)}
    required = tuple(f.name for f in fields(cls) if f.default is MISSING is f.default_factory)
    return readers, required


def _reader(tp):
    """The reader of a value declared as ``tp``: the entry in _READERS, the
    reader an ``Annotated`` type names, or for ``T | None`` the reader of T
    with null read as None.  A type with none raises KeyError."""
    if get_origin(tp) is Annotated:
        return tp.__metadata__[0]
    if type(None) in get_args(tp):
        read = _reader(next(a for a in get_args(tp) if a is not type(None)))
        return lambda v: None if v is None else read(v)
    return _READERS[tp]


def _object(obj, readers: dict, where: str, required=()) -> dict:
    """``obj``'s values, each through ``readers[key]``.  A value that is not
    a JSON object, an unknown key (a typo should fail loudly, not fall back
    to a default) or a missing required key raises ConfigError."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object, got {obj!r}")
    unknown = sorted(set(obj) - set(readers))
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {unknown}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise ConfigError(f"{where} missing required fields {missing}")
    return {k: readers[k](v) for k, v in obj.items()}


def _int(v) -> int:
    """Integral numbers only, never a boolean."""
    integral = isinstance(v, int) or (isinstance(v, float) and v.is_integer())
    if isinstance(v, bool) or not integral:
        raise ConfigError(f"expected an integer, got {v!r}")
    return int(v)


def _float(v) -> float:
    """Numbers only, never a boolean or a numeric string; a JSON 300 reads as 300.0."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"expected a number, got {v!r}")
    try:
        return float(v)
    except OverflowError:  # an integer past the float range
        raise ConfigError(f"expected a number within the float range, got {v}") from None


def _str(v) -> str:
    if not isinstance(v, str):
        raise ConfigError(f"expected a string, got {v!r}")
    return v


def _floats(v) -> tuple[float, ...]:
    if not isinstance(v, list):
        raise ConfigError(f"expected a list of numbers, got {v!r}")
    return tuple(map(_float, v))


def _pairs(v) -> tuple[tuple[float, float], ...]:
    """A list of [a, b] pairs of numbers, or "empty" for none."""
    if v == "empty":
        return ()
    if not (isinstance(v, list) and all(isinstance(p, list) and len(p) == 2 for p in v)):
        raise ConfigError(f'expected "empty" or a list of [a, b] pairs, got {v!r}')
    return tuple((_float(a), _float(b)) for a, b in v)


def _block(v) -> dict:
    if not isinstance(v, dict):
        raise ConfigError(f"a request block must be a JSON object, got {v!r}")
    return v


_GRID_KEYS = ("x_max", "x_step", "y_min", "y_max", "y_step")


def _grid(spec) -> QuadrantGrid:
    """The grid an object holding the _GRID_KEYS spans; null gives the default grid."""
    if spec is None:
        return default_grid()
    g = _object(spec, dict.fromkeys(_GRID_KEYS, _float), "grid", _GRID_KEYS)
    x_max, x_step, y_min, y_max, y_step = (g[k] for k in _GRID_KEYS)
    if not all(map(math.isfinite, (x_max, x_step, y_min, y_max, y_step))):
        raise ConfigError("grid bounds and steps must be finite")
    if x_step <= 0 or y_step <= 0 or x_max <= 0 or y_max <= y_min:
        raise ConfigError("grid steps must be positive and y_max > y_min")
    steps = (x_max / x_step, (y_max - y_min) / y_step)
    # a lift table holds (nx + 1) x (ny + 2) floats; an inf or nan count fails too
    if not (steps[0] + 1.0) * (steps[1] + 2.0) < _MAX_FLOATS:
        raise ConfigError(f"grid of {steps} steps has more cells than an array holds")
    nx, ny = (int(round(k)) for k in steps)
    xs = np.linspace(0.0, x_max, nx + 1)
    ys = np.concatenate(([-np.inf], np.linspace(y_min, y_max, ny + 1)))
    return QuadrantGrid(xs, ys)


def _y_values(spec) -> tuple[float, ...]:
    """A list of numbers, or {y_min, y_max, n} for n evenly spaced ones; no NaN."""
    if isinstance(spec, dict):
        keys = {"y_min": _float, "y_max": _float, "n": _int}
        s = _object(spec, keys, "y_values", tuple(keys))
        if not 0 <= s["n"] < _MAX_FLOATS:
            raise ConfigError(f"y_values needs 0 <= n < 2**60 (an array's size), got {s['n']}")
        spec = np.linspace(s["y_min"], s["y_max"], s["n"]).tolist()
    ys = _floats(spec)
    if any(map(math.isnan, ys)):
        raise ConfigError("y_values must not contain NaN")
    return ys


_SCALAR_KINDS = {
    c.kind: c for c in (Exponential, Deterministic, Uniform, HyperExponential, PointMassZero)
}
_JOINT_KINDS = {c.kind: c for c in (ProductJoint, LinearJoint, EmpiricalJoint)}


def scalar_from_spec(spec) -> ScalarDistribution:
    """The scalar law of a spec like {"kind": "exponential", "rate": 2.0}."""
    return _law(_SCALAR_KINDS, spec)


def joint_from_spec(spec) -> JointDistribution:
    """The joint law of a spec whose scalar components are nested specs."""
    return _law(_JOINT_KINDS, spec)


def _law(kinds: dict, spec):
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"a law spec needs a 'kind' in {sorted(kinds)}, got {spec!r}")
    return _read(kinds[kind], {k: v for k, v in spec.items() if k != "kind"}, f"{kind} law")


_READERS = {
    float: _float,
    int: _int,
    str: _str,
    tuple[float, ...]: _floats,
    tuple[tuple[float, float], ...]: _pairs,
    ScalarDistribution: scalar_from_spec,
    JointDistribution: joint_from_spec,
    QuadrantGrid: _grid,
}
_ROOT = {"schema_version": _int, "output_dir": _reader(str | None)}
_ROOT.update(dict.fromkeys(_REQUEST_KEYS, _block))


def parse_scenario(payload: dict) -> ScenarioConfig:
    return _read(ScenarioConfig, payload, "scenario")


def parse_sweep(payload: dict) -> SweepConfig:
    return _read(SweepConfig, payload, "sweep")


@dataclass(frozen=True)
class LiftRequest:
    """A lift request: the law, rate and mass, and the grid to tabulate on."""

    joint: JointDistribution
    alpha: float
    z: float
    grid: QuadrantGrid = field(default_factory=default_grid)


def parse_lift(payload: dict) -> LiftRequest:
    return _read(LiftRequest, payload, "lift")


@dataclass(frozen=True)
class ProfileRequest:
    """A profile request; ``cli`` declares the profile kinds and the
    optional fields each one needs."""

    profile: str
    nu: ScalarDistribution
    z: float
    y_values: Annotated[tuple[float, ...], _y_values]
    lam: ScalarDistribution | None = None
    alpha: float | None = None
    c: float | None = None


def parse_profile(payload: dict) -> ProfileRequest:
    return _read(ProfileRequest, payload, "profile")


@dataclass(frozen=True, kw_only=True)
class RBMRequest(RBMSpec):
    """An rbm request: the process (drift, variance, x0) and the path to draw."""

    horizon: float
    dt: float
    seed: int = 0
    quantiles: tuple[float, ...] = ()


def parse_rbm(payload: dict) -> RBMRequest:
    return _read(RBMRequest, payload, "rbm")


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------


def _write_csv(path, header: list[str], columns) -> None:
    """Write equal-length columns under a header row, _BLOCK_CELLS cells per
    write call, in csv.writer's bytes, each cell as format_value prints it.

    A table of float arrays and integer arrays within +-2**53 (where %d
    and %.17g print the same text) goes to floattext.write_table.  It takes
    each cell's 17 digits from a double-double product accurate to
    2**-47, far inside the 1e-12 window around 1/2 that it leaves to
    format_value, along with the cells whose decimal exponent log10 misread
    and the values beyond its tables (see psdl.floattext).  Any other table
    is formatted cell by cell through format_value and joined row by row.
    A cell csv.writer would quote (holding a comma, a double quote or a
    line break) raises ValueError, as does a table of fewer than two
    columns."""
    n = len(columns[0]) if columns else 0
    if len(header) != len(columns) or len(columns) < 2 or any(len(c) != n for c in columns):
        raise ValueError(f"{path}: need two or more equal-length columns, one per header name")
    kinds = [getattr(c, "dtype", np.dtype(object)).kind for c in columns]
    rows = max(1, _BLOCK_CELLS // len(columns))
    with _create(path, newline="") as fh:
        fh.write(",".join(_text(header)) + "\r\n")
        if all(k == "f" or (k in "iu" and _within_2_53(c)) for c, k in zip(columns, kinds)):
            from .floattext import write_table  # imported on first use: fileio's import skips it

            fh.flush()
            write_table(fh.buffer, columns, rows, format_value)
            return
        for lo in range(0, n, rows):
            cells = [_text(c[lo : lo + rows]) for c in columns]
            fh.write("".join(",".join(row) + "\r\n" for row in zip(*cells)))


def _within_2_53(column: np.ndarray) -> bool:
    return column.size == 0 or (-(2**53) < column.min() and column.max() < 2**53)


def _text(values) -> list[str]:
    """format_value's cells, refusing any that csv.writer would quote."""
    cells = [format_value(v) for v in values]
    joined = "".join(cells)
    if any(ch in joined for ch in _QUOTED):
        bad = next(c for c in cells if any(ch in c for ch in _QUOTED))
        raise ValueError(f"CSV cell would need quoting: {bad!r}")
    return cells


@contextlib.contextmanager
def _create(path, newline=None):
    """open(path, "w"); a failed write removes the file and names path."""
    fh = open(path, "w", newline=newline)
    try:
        with fh:
            yield fh
    except BaseException as exc:
        Path(path).unlink()
        if isinstance(exc, OSError):
            exc.filename = str(path)
        raise


def write_json(data: dict, path) -> None:
    with _create(path) as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_departures_csv(out: SimOutput, path) -> None:
    # a job still in service has departure NaN
    arr, svc, lead, _, dep = (np.asarray(c, dtype=float) for c in out.job_columns)
    ids = np.flatnonzero(~np.isnan(dep))
    ids = ids[np.lexsort((ids, dep[ids]))]  # departure order: by time, then job id
    header = ["id", "arrival", "sojourn", "service_req", "lateness"]
    columns = [arr, dep - arr, svc, np.maximum(0.0, dep - (arr + lead))]
    _write_csv(path, header, [ids, *(c[ids] for c in columns)])


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
    header = ["r", "t", "y", "empirical_survival", "limit_survival"]
    table = np.array(report.overlays, dtype=float).reshape(-1, len(header))
    _write_csv(path, header, list(table.T))


def write_lift_csv(table: np.ndarray, grid: QuadrantGrid, path) -> None:
    """One row per grid node: the quadrant mass table[i, j] at (x_i, y_j)."""
    xs, ys = np.meshgrid(grid.x_values, grid.y_values, indexing="ij")
    _write_csv(path, ["x", "y", "mass"], [xs.ravel(), ys.ravel(), table.ravel()])


def write_profile_csv(values, label: str, path) -> None:
    """(y, profile value) pairs under the header y,<label>."""
    _write_csv(path, ["y", label], list(np.array(values, dtype=float).reshape(-1, 2).T))


class _Pieces:
    """The arrays ``pieces`` yields, end to end: a numeric column of n floats
    read in consecutive slices from the start, as write_table reads one."""

    dtype = np.dtype(float)

    def __init__(self, n: int, pieces):
        self.n, self.pieces = n, pieces
        self.head = next(pieces)  # drawn, not yet read

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, s: slice) -> np.ndarray:
        parts, size = [], len(range(*s.indices(self.n)))
        while size > self.head.size:
            parts.append(self.head)
            size -= self.head.size
            self.head = next(self.pieces)
        parts.append(self.head[:size])
        self.head = self.head[size:]
        return np.concatenate(parts) if len(parts) > 1 else parts[0]


def write_rbm_path_csv(rbm: RBMPath, path) -> None:
    """The path as it is drawn, beside t = k * dt made a write block at a
    time; a value or time average past the float range removes the file."""
    n, rows = rbm.steps + 1, _BLOCK_CELLS // 2
    times = (np.arange(lo, min(lo + rows, n), dtype=float) * rbm.dt for lo in range(0, n, rows))
    _write_csv(path, ["t", "x"], [_Pieces(n, times), _Pieces(n, rbm.pieces())])
