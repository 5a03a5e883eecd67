"""The config reader, and the column-wise CSV writer against the
row-at-a-time csv.writer oracle."""

import dataclasses
import math
import os
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import csv_oracle
from state_checks import departures
from psdl import (
    ConfigError,
    Deterministic,
    Exponential,
    LinearJoint,
    ProductJoint,
    RBMSpec,
    ScenarioConfig,
    SweepConfig,
    Uniform,
    default_grid,
    lead_profile_product,
    lift,
    run,
    run_sweep,
    simulate,
)
from psdl import fileio, floattext
from psdl.measures import grid_quadrant_masses

SPECIAL_FLOATS = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 1e308, -1e308, 0.1, 1.0]
# text csv.writer writes unquoted (no delimiter, quote character or line
# break) and that a file can encode (no lone surrogates)
PLAIN_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters=',"\r\n'), max_size=6
)


def _floats():
    return st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(width=64))


def _column(kind: str, n: int):
    if kind == "float":
        return st.lists(_floats(), min_size=n, max_size=n).map(np.array)
    if kind == "int":
        ints = st.integers(-(2**63), 2**63 - 1)
        return st.lists(ints, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=np.int64))
    cell = st.one_of(
        st.none(),
        st.integers(-(2**70), 2**70),
        st.integers(-(2**63), 2**63 - 1).map(np.int64),
        _floats(),
        _floats().map(np.float64),
        PLAIN_TEXT,
    )
    return st.lists(cell, min_size=n, max_size=n)


@st.composite
def tables(draw):
    """(block, header, columns): row counts 0, 1 and around the block size."""
    block = draw(st.integers(2, 6))
    n = draw(st.sampled_from([0, 1, block - 1, block, block + 1, 2 * block + 1]))
    width = draw(st.integers(2, 4))
    kinds = draw(st.lists(st.sampled_from(["float", "int", "mixed"]), min_size=width, max_size=width))
    header = draw(st.lists(PLAIN_TEXT, min_size=width, max_size=width))
    return block, header, [draw(_column(k, n)) for k in kinds]


@settings(max_examples=300, deadline=None)
@given(tables())
def test_column_writer_matches_row_oracle(table):
    block, header, columns = table
    cells = block * len(columns)  # block rows of the table per write call
    with tempfile.TemporaryDirectory() as d, mock.patch.object(fileio, "_BLOCK_CELLS", cells):
        new, old = Path(d) / "new.csv", Path(d) / "old.csv"
        fileio._write_csv(new, header, columns)
        csv_oracle.write_csv(old, header, zip(*columns))
        assert new.read_bytes() == old.read_bytes()


# cut points of row-block partitions of n rows, ``rows`` rows being one
# write call's cells: 1-row blocks, blocks of exactly one write call with a
# ragged tail, an empty block and blocks of several write calls, random cuts
PARTITIONS = {
    "one-row": lambda n, rows: list(range(n + 1)),
    "write-block": lambda n, rows: [*range(0, n, rows), n],
    "long": lambda n, rows: [0, 2 * rows + 5, 2 * rows + 5, n],
    "random": lambda n, rows: [0, *np.sort(np.random.default_rng(3).integers(0, n, 12)).tolist(), n],
}


@pytest.mark.parametrize("partition", PARTITIONS)
def test_any_row_block_partition_matches_row_oracle(tmp_path, partition):
    # a streamed numeric table: an id column within +-2**53 beside float
    # cells of every kind; 3 write calls and a ragged tail of 4-column rows
    rows = fileio._BLOCK_CELLS // 4
    n = 3 * rows + 11
    rng = np.random.default_rng(11)
    floats = rng.integers(0, 2**64, (3, n), dtype=np.uint64).view(np.float64)
    floats[:, ::97] = np.resize(SPECIAL_FLOATS, floats[:, ::97].shape)
    columns = [rng.integers(-(2**53) + 1, 2**53, n), *floats]
    cuts = PARTITIONS[partition](n, rows)
    blocks = ([c[a:b] for c in columns] for a, b in zip(cuts, cuts[1:]))
    header = ["id", "a", "b", "c"]
    fileio._write_csv(tmp_path / "new.csv", header, blocks)
    csv_oracle.write_csv(tmp_path / "old.csv", header, zip(*columns))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("cell", ["a,b", 'say "hi"', "two\nlines", "cr\r"])
def test_cells_csv_would_quote_are_rejected(tmp_path, cell):
    # the writer never quotes: a cell csv.writer would quote raises instead
    columns = [np.array([1.0, 2.0]), ["ok", cell]]
    csv_oracle.write_csv(tmp_path / "old.csv", ["x", "label"], zip(*columns))
    assert '"' in (tmp_path / "old.csv").read_text()
    with pytest.raises(ValueError):
        fileio._write_csv(tmp_path / "new.csv", ["x", "label"], columns)
    with pytest.raises(ValueError):
        fileio._write_csv(tmp_path / "new.csv", ["x", cell], [np.zeros(1), np.zeros(1)])


def test_malformed_tables_are_rejected(tmp_path):
    with pytest.raises(ValueError):  # csv.writer would quote a lone empty cell
        fileio._write_csv(tmp_path / "a.csv", ["only"], [[None]])
    with pytest.raises(ValueError):
        fileio._write_csv(tmp_path / "a.csv", ["x", "y"], [np.zeros(3), np.zeros(2)])
    with pytest.raises(ValueError):
        fileio._write_csv(tmp_path / "a.csv", ["x", "y", "z"], [np.zeros(3), np.zeros(3)])


# the cell budget the writer tests below write under: 1024 rows per block
# of the 2-column RBM path
WRITER_BLOCK_CELLS = 2048


@pytest.fixture(scope="module")
def writer_inputs():
    """Small seeded inputs of every fileio CSV writer, keyed by writer name."""
    scenario = ScenarioConfig(
        interarrival=Exponential(0.9),
        joint=ProductJoint(Exponential(1.0), Uniform(0.0, 2.0)),
        horizon=300.0,
        snapshot_times=(0.0, 150.0, 300.0),
        seed=5,
        initial_jobs=((1.0, -0.5), (2.0, 0.0)),
    )
    out = run(scenario)
    # past two writer blocks of rows
    path = simulate(RBMSpec(drift=-0.5, variance=2.0, x0=0.3), 10.0, 1e-3, 4)
    grid = default_grid()
    table = grid_quadrant_masses(lift(LinearJoint(Uniform(0.0, 2.0), 1.0), 1.0, 1.0).quadrant, grid)
    profile = [
        (y, lead_profile_product(Uniform(0.0, 2.0), Exponential(1.0), 1.0, 1.0, y))
        for y in np.linspace(-3.0, 3.0, 13)
    ]
    report = run_sweep(
        SweepConfig(
            joint=ProductJoint(Exponential(1.0), Exponential(1.0)),
            alpha=1.0,
            gamma=0.5,
            r_values=(3.0, 5.0),
            T=1.0,
            snapshot_times=(0.5, 1.0),
            replications=3,
            seed_base=77,
            sojourn_window=5.0,
        )
    )
    assert len(path.values) > 2 * (WRITER_BLOCK_CELLS // 2)
    return {
        "write_departures_csv": (out,),
        "write_path_csv": (out,),
        "write_snapshots_csv": (out,),
        "write_rbm_path_csv": (path,),
        "write_lift_csv": (table, grid),
        "write_profile_csv": (profile, "cdf"),
        "write_rows_csv": (report,),
        "write_collapse_vs_r_csv": (report,),
        "write_profile_overlay_csv": (report,),
    }


@pytest.mark.parametrize(
    "writer",
    [
        "write_departures_csv",
        "write_path_csv",
        "write_snapshots_csv",
        "write_rbm_path_csv",
        "write_lift_csv",
        "write_profile_csv",
        "write_rows_csv",
        "write_collapse_vs_r_csv",
        "write_profile_overlay_csv",
    ],
)
def test_each_writer_matches_row_oracle(writer_inputs, tmp_path, monkeypatch, writer):
    monkeypatch.setattr(fileio, "_BLOCK_CELLS", WRITER_BLOCK_CELLS)
    args = writer_inputs[writer]
    getattr(fileio, writer)(*args, tmp_path / "new.csv")
    getattr(csv_oracle, writer)(*args, tmp_path / "old.csv")
    new = (tmp_path / "new.csv").read_bytes()
    assert new.count(b"\r\n") > 2  # a header and more than one row
    assert new == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize(
    "writer",
    [
        "write_departures_csv",
        "write_path_csv",
        "write_snapshots_csv",
        "write_rbm_path_csv",
        "write_lift_csv",
        "write_profile_csv",
        "write_profile_overlay_csv",
    ],
)
def test_numeric_tables_reach_the_float_kernel(writer_inputs, tmp_path, monkeypatch, writer):
    # a table of numbers only is handed over as numeric arrays, so the
    # vectorised formatter writes it rather than the % template
    monkeypatch.setattr(fileio, "_BLOCK_CELLS", WRITER_BLOCK_CELLS)
    calls, write_table = [], floattext.write_table

    def spy(fh, blocks, *rest):
        blocks = list(blocks)
        calls.append(blocks)
        write_table(fh, iter(blocks), *rest)

    monkeypatch.setattr(floattext, "write_table", spy)
    getattr(fileio, writer)(*writer_inputs[writer], tmp_path / "out.csv")
    assert len(calls) == 1
    columns = [c for block in calls[0] for c in block]
    assert columns and all(isinstance(c, np.ndarray) and c.dtype.kind in "fiu" for c in columns)


@pytest.mark.parametrize("cells", [2, 14, 74, 8192])
def test_rbm_time_column_is_built_per_block(tmp_path, monkeypatch, cells):
    # the writer builds t = k * dt a block at a time, the oracle the whole
    # column at once; 1, 7, 37 and 4096 rows per block of 1001 rows, and
    # 37 rows do not divide 1001
    monkeypatch.setattr(fileio, "_BLOCK_CELLS", cells)
    path = simulate(RBMSpec(drift=-0.5, variance=2.0, x0=0.3), 1.0, 1e-3, 9)
    assert len(path.values) == 1001
    fileio.write_rbm_path_csv(path, tmp_path / "new.csv")
    csv_oracle.write_rbm_path_csv(path, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_rbm_path_write_holds_no_whole_time_column():
    # tracemalloc peaks of writing a 1e6-step path (numpy 2.4, Python 3.11):
    # 3.1 MB with the time column built per block, 11.0 MB with the 8 MB
    # whole time column built for the write
    path = simulate(RBMSpec(drift=-0.5, variance=2.0), 1000.0, 1e-3, 0)
    assert path.values.size == 1_000_001

    def peak_mb(write) -> float:
        tracemalloc.start()
        try:
            write()
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    per_block = peak_mb(lambda: fileio.write_rbm_path_csv(path, os.devnull))
    whole = peak_mb(lambda: fileio._write_csv(os.devnull, ["t", "x"], [csv_oracle.rbm_times(path), path.values]))
    assert per_block < 6.0 < whole


def test_missing_values_are_empty_cells(writer_inputs, tmp_path):
    # SweepRow's optional fields (sojourn_ks here) print as empty cells
    (report,) = writer_inputs["write_rows_csv"]
    assert any(row.sojourn_ks is None for row in report.rows)
    fileio.write_rows_csv(report, tmp_path / "rows.csv")
    assert b",," in (tmp_path / "rows.csv").read_bytes()


def test_text_cells_holding_percent_signs_are_written_literally(tmp_path):
    # a table with a text column is formatted cell by cell, so no cell is
    # read as a format; its other columns are a float array, an integer
    # array past 2**53 and a list holding None
    columns = [
        ["%", "%s", "100%d", "%%"],
        np.array([1.0, 2.0, 3.0, 4.0]),
        np.array([7, -(2**62), 0, 2**60 + 1], dtype=np.int64),
        [None, 2.5, None, 3],
    ]
    header = ["label", "%s", "count", "maybe"]
    fileio._write_csv(tmp_path / "new.csv", header, columns)
    csv_oracle.write_csv(tmp_path / "old.csv", header, zip(*columns))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert b"100%d,3,0,\r\n" in (tmp_path / "new.csv").read_bytes()


def _departures_match_oracle(out, tmp_path) -> bytes:
    fileio.write_departures_csv(out, tmp_path / "new.csv")
    csv_oracle.write_departures_csv(out, tmp_path / "old.csv")
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "old.csv").read_bytes()
    return new


def test_departures_with_no_departure(tmp_path):
    cfg = ScenarioConfig(
        interarrival=Exponential(1.0),
        joint=ProductJoint(Exponential(1e-3), Exponential(1.0)),
        horizon=2.0,
        seed=3,
        initial_jobs=((50.0, 1.0),),
    )
    out = run(cfg)
    assert _departures_match_oracle(out, tmp_path) == b"id,arrival,sojourn,service_req,lateness\r\n"
    assert departures(out) == []


def test_departures_after_jobs_were_read(tmp_path):
    # reading the record view first leaves the columns the writer reads
    out = run(
        ScenarioConfig(
            interarrival=Exponential(0.9),
            joint=ProductJoint(Exponential(1.0), Uniform(0.0, 2.0)),
            horizon=200.0,
            seed=11,
        )
    )
    assert len(out.jobs) == len(out.job_columns[0]) > 100
    assert _departures_match_oracle(out, tmp_path).count(b"\r\n") > 100


def test_tied_departures_go_by_job_id(tmp_path):
    # equal services entering together leave at one instant: the heap's pop
    # order and the writer's id order must agree.  Five jobs share the
    # server, so the two of service 1 leave at t = 5 and the three of
    # service 1.5 at t = 6.5; nothing arrives before the horizon.
    out = run(
        ScenarioConfig(
            interarrival=Deterministic(100.0),
            joint=ProductJoint(Exponential(1.0), Exponential(1.0)),
            horizon=30.0,
            initial_jobs=((1.5, 2.0), (1.0, 0.5), (1.5, -1.0), (1.0, 3.0), (1.5, 0.0)),
        )
    )
    assert out.departure_times.tolist() == [5.0, 5.0, 6.5, 6.5, 6.5]
    rows = _departures_match_oracle(out, tmp_path).split(b"\r\n")[1:-1]
    assert [int(r.split(b",")[0]) for r in rows] == [1, 3, 0, 2, 4]


# ---------------------------------------------------------------------------
# the config reader
# ---------------------------------------------------------------------------

REQUESTS = (ScenarioConfig, SweepConfig, fileio.LiftRequest, fileio.ProfileRequest, fileio.RBMRequest)
LAWS = (*fileio._SCALAR_KINDS.values(), *fileio._JOINT_KINDS.values())


def test_every_field_the_reader_builds_has_a_reader():
    # a declared type with no reader fails here, not in a user's config as
    # a ConfigError
    assert (len(REQUESTS), len(fileio._SCALAR_KINDS), len(fileio._JOINT_KINDS)) == (5, 5, 3)
    for cls in (*REQUESTS, *LAWS):
        readers, required = fileio._schema(cls)
        assert list(readers) == [f.name for f in dataclasses.fields(cls)], cls
        assert all(map(callable, readers.values())) and set(required) <= set(readers)

    @dataclasses.dataclass
    class Unreadable:
        x: complex

    with pytest.raises(KeyError):
        fileio._schema(Unreadable)


def test_rbm_request_is_its_process_checked_as_read():
    body = {"drift": -1.0, "variance": 2.0, "horizon": 1.0, "dt": 0.5}
    req = fileio.parse_rbm({**body, "x0": 0.25})
    assert isinstance(req, RBMSpec) and (req.drift, req.variance, req.x0) == (-1.0, 2.0, 0.25)
    for bad in ({"variance": 0.0}, {"x0": -1.0}, {"drift": math.inf}):
        with pytest.raises(ConfigError):
            fileio.parse_rbm({**body, **bad})


def test_readme_python_quick_start_runs():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    names: dict = {}
    exec(compile(block, "README.md", "exec"), names)
    path = names["out"].path
    assert names["t"] == 500.0 and names["snap"].count == path.z[path.kinds.index("snapshot")]
    assert names["w"].size == len(path) and 0.0 < names["meas"].eval(0.5, -1.0) < 2.0


def test_readme_config_examples_parse(tmp_path):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = re.findall(r"```json\n(.*?)```", text, flags=re.S)
    assert len(examples) == 2
    parsed = {}
    for i, example in enumerate(examples):
        (tmp_path / f"{i}.json").write_text(example)
        cfg = fileio.load_config(tmp_path / f"{i}.json")
        parsed[cfg.kind] = getattr(fileio, f"parse_{cfg.kind}")(cfg.payload)
    scenario, sweep = parsed["scenario"], parsed["sweep"]
    assert scenario.joint == ProductJoint(Exponential(1.0), Uniform(0.0, 2.0))
    assert (scenario.horizon, scenario.snapshot_times, scenario.seed) == (1000.0, (250.0, 500.0), 7)
    assert sweep.r_values == (5.0, 10.0, 20.0) and sweep.replications == 40
