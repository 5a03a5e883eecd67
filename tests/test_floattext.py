"""The vectorised float kernel (psdl.floattext) against ``"%.17g" %``."""

import io
import math
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import csv_oracle
from psdl import RBMSpec, fileio, floattext, run, simulate
from psdl.fileio import format_value, parse_scenario
from test_cli import SCENARIO  # the README scenario


def assert_matches_percent(values, negated=True):
    """The kernel prints each value, and its negation, as "%.17g" % does."""
    x = np.asarray(values, dtype=float)
    if negated:
        x = np.concatenate([x, -x])
    fh = io.BytesIO()
    floattext.write_table(fh, [x], 2048, format_value)
    got = fh.getvalue().decode("ascii").split("\r\n")[:-1]
    want = ["%.17g" % v for v in x.tolist()]
    bad = [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not bad, f"{len(bad)} cells differ, e.g. {bad[:5]}"


def _bit_patterns(n, seed, exponents=(0, 2048)):
    """n random float64 bit patterns, both signs, biased exponent in the range
    (2047, the top of the default range, is inf and nan)."""
    rng = np.random.default_rng(seed)
    sign = rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
    exp = rng.integers(*exponents, n, dtype=np.uint64) << np.uint64(52)
    mantissa = rng.integers(0, 2**52, n, dtype=np.uint64)
    return (sign | exp | mantissa).view(np.float64)


def test_random_bit_patterns_over_the_whole_exponent_range():
    assert_matches_percent(_bit_patterns(1_000_000, 20261019), negated=False)


def test_random_bit_patterns_in_the_native_exponent_range():
    # biased exponents 690-1352 span 1.7e-100 to 1.1e99: nearly all native
    assert_matches_percent(_bit_patterns(300_000, 7, (690, 1353)), negated=False)


def _neighbours(values, ulps):
    """values and their 1..ulps-ulp neighbours on both sides."""
    out, up, down = [values], values, values
    for _ in range(ulps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    assert_matches_percent(_neighbours(powers, 4))


def _ties(per_k, seed):
    """Exact 17-digit ties: odd m / 2**k whose decimal significand m * 5**k
    has 18 digits, the last one 5."""
    rng = np.random.default_rng(seed)
    ties = []
    for k in range(1, 80):
        lo, hi = -(-(10**17) // 5**k), min(10**18 // 5**k, 2**53)
        if lo < hi:
            m = rng.integers(lo, hi, per_k) | 1
            ties += [int(v) / 2**k for v in m if lo <= v < hi]
    return np.array(ties)


def test_exact_ties_round_as_percent_does():
    assert "%.17g" % (10001 / 2**20) == "0.0095376968383789062"
    ties = _ties(200, 3)
    assert ties.size > 4000
    assert_matches_percent(np.concatenate([[10001 / 2**20], ties, ties * 2.0**-30]))


@pytest.mark.parametrize("boundary", [1e-5, 1e-4, 1e16, 1e17])
def test_notation_boundaries(boundary):
    near = _neighbours(np.array([boundary]), 64)
    rounded = [boundary * (1 + s * 10.0**-j) for j in range(1, 18) for s in (-1, 1)]
    assert_matches_percent(np.concatenate([near, rounded]))


def test_zeros_subnormals_and_non_finite_values():
    subnormals = _bit_patterns(1000, 11, (0, 1))
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, math.inf, -math.inf, math.nan]
    assert_matches_percent(np.concatenate([special, subnormals]))


# cells % prints (nan, a tie, a three-digit exponent, a subnormal, inf)
# between cells the kernel prints, and integers within +-2**53
MIXED = [0.5, math.nan, 1 / 3, 10001 / 2**20, -0.0, 1e-300, 12345.678, math.inf, 5e-324, 7.0, 1e200, -2.5e-7]
INTEGERS = [0, -1, 2**53 - 1, -(2**53 - 1), 10**16, 12345, 7, -40, 10**15, 3, 99, -(10**16)]


@pytest.mark.parametrize("block", [1, 2, 7])
def test_fallback_cells_mid_block(block):
    columns = [np.array(MIXED), np.array(MIXED[::-1]), np.array(INTEGERS)]
    with tempfile.TemporaryDirectory() as d, mock.patch.object(fileio, "_BLOCK_CELLS", 3 * block):
        new, old = Path(d) / "new.csv", Path(d) / "old.csv"
        fileio._write_csv(new, ["a", "b", "n"], columns)
        csv_oracle.write_csv(old, ["a", "b", "n"], zip(*columns))
        assert new.read_bytes() == old.read_bytes()


def _fallbacks(write, *args):
    """The finite nonzero cells write(*args) leaves to the % fallback of
    the kernel, which must write the table."""
    cells = []

    def recorded(v):
        if isinstance(v, float) and math.isfinite(v) and v != 0:
            cells.append(v)
        return format_value(v)

    kernel = mock.patch.object(floattext, "write_table", wraps=floattext.write_table)
    with tempfile.TemporaryDirectory() as d, kernel as spy, mock.patch.object(fileio, "format_value", recorded):
        write(*args, Path(d) / "out.csv")
    assert spy.call_count == 1
    return cells


def test_seeded_outputs_need_no_fallback():
    # a change that sent every cell to % would pass the byte tests above
    path = simulate(RBMSpec(drift=-0.5, variance=2.0), 100.0, 1e-3, 4)
    assert _fallbacks(fileio.write_rbm_path_csv, path) == []
    out = run(parse_scenario(SCENARIO))
    assert len(out.path) > 1000
    assert _fallbacks(fileio.write_path_csv, out) == []
    assert _fallbacks(fileio.write_departures_csv, out) == []


def test_format_computes_in_its_workspace():
    # one 16,384-cell block of an RBM path beside its time column: the
    # kernel's own temporaries once took about 3 MB a block, and each
    # 128 KiB array of them was mapped and unmapped at every block
    path = simulate(RBMSpec(-0.5, 2.0), 100.0, 1e-3, 1).values[:8192]
    cells = np.stack([np.arange(8192) * 1e-3, path], axis=1)
    words = np.zeros((8192, 2, floattext._FRAME), np.uint64)
    separators = np.frombuffer(bytes(4) + b",\0\0\0" + bytes(4) + b"\r\n\0\0", np.uint64)
    ws = floattext._workspace(cells.size)
    floattext._format(cells, words, separators, format_value, ws)  # the tables are made on first use
    tracemalloc.start()
    try:
        floattext._format(cells, words, separators, format_value, ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e5, f"peak {peak / 1e3:.0f} kB"
    rows = words.view(np.uint8).tobytes().translate(None, b"\0").split(b"\r\n")[:-1]
    assert rows == [b"%.17g,%.17g" % tuple(row) for row in cells.tolist()]

