"""Lift-table check of two revisions: the method and table bytes of every pair.

    python3 tools/liftcheck.py --base ca8264b

Run from the root of a psdl checkout.  Both revisions, the base and HEAD,
are exported from git into a temporary directory (``git archive``, as
``tools/compare.py`` does).  In one process per tree, ``psdl.lift`` then
tabulates, on the default grid at alpha = 1.3 and at each z in ``ZS``:

* every ``ProductJoint`` of two laws from ``LAWS`` (one or two per scalar
  family), service and lead;
* every ``LinearJoint`` with a service from ``LAWS`` and c in ``CS``.

Each table is compared bytewise between the trees.  One line per joint
gives its method on each side and whether every table's bytes match; a
joint whose bytes moved also gives the largest |base - head| over its
cells and the z values that moved.  A ConfigError is recorded in place
of the table, by its message.  The last line counts the joints whose
bytes moved and those whose method changed.  This reports only: the exit
status is 0 unless a tree's run fails, as a change that moves stated
pairs is expected to move them.  Standard library and numpy only,
besides each tree's own psdl.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from compare import _git, export  # noqa: E402

# runs in each tree: tabulates every joint at every z into an .npz, and
# prints {joint: {"method": ..., "errors": {z: message}}} as one JSON object
RUNNER = """
import json, sys
import numpy as np
from psdl import (ConfigError, Deterministic, Exponential, HyperExponential, LinearJoint,
                  PointMassZero, ProductJoint, Uniform, lift)
from psdl.measures import default_grid
LAWS = [Exponential(1.0), HyperExponential((0.5, 0.5), (0.5, 2.0)), Deterministic(1.0),
        Uniform(0.0, 2.0), Uniform(0.5, 1.5), PointMassZero()]
CS = (0.5, 1.0, 2.0)
ZS = (1e-6, 1e-3, 0.05, 1.0, 6.0, 1e3)
joints = [ProductJoint(s, l) for s in LAWS for l in LAWS]
joints += [LinearJoint(s, c) for s in LAWS for c in CS]
g = default_grid()
tables, report = {}, {}
for joint in joints:
    entry = report[repr(joint)] = {"method": None, "errors": {}}
    for z in ZS:
        try:
            m = lift(joint, 1.3, z)
            entry["method"] = m.method
            tables[f"{joint!r}|{z!r}"] = m.quadrant.eval_grid(g.x_values, g.y_values)
        except ConfigError as exc:
            entry["errors"][repr(z)] = str(exc)
np.savez(sys.argv[1], **tables)
print(json.dumps(report))
"""


def run_tree(tree: Path, out: Path) -> tuple[dict, dict]:
    """(report, tables) of RUNNER in tree, with tree's psdl."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, str(out)], cwd=tree, env=env, capture_output=True, text=True
    )
    if proc.returncode != 0:
        sys.exit(f"liftcheck: the run in {tree} failed:\n{proc.stderr[-2000:]}")
    with np.load(out) as npz:
        tables = {k: npz[k] for k in npz.files}
    return json.loads(proc.stdout.splitlines()[-1]), tables


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="revision to compare against")
    args = p.parse_args(argv)
    sha = {"base": _git("rev-parse", args.base), "head": _git("rev-parse", "HEAD")}
    with tempfile.TemporaryDirectory(prefix="psdl-liftcheck-") as tmp:
        tmp = Path(tmp)
        out = {}
        for side in sha:
            export(sha[side], tmp / side)
            out[side] = run_tree(tmp / side, tmp / f"{side}.npz")
    (base, base_tables), (head, head_tables) = out["base"], out["head"]
    print(f"liftcheck: {len(head)} joints, {sha['base'][:7]} -> {sha['head'][:7]}")
    moved = renamed = 0
    for joint in head:
        methods = f"{base[joint]['method']} -> {head[joint]['method']}"
        renamed += base[joint]["method"] != head[joint]["method"]
        keys = {k for k in (*base_tables, *head_tables) if k.startswith(f"{joint}|")}
        keys = sorted(keys, key=lambda k: float(k.split("|")[1]))
        zs, diff = [], 0.0
        for key in keys:
            b, h = base_tables.get(key), head_tables.get(key)
            if b is None or h is None or b.tobytes() != h.tobytes():
                zs.append(key.split("|")[1])
                if b is not None and h is not None:
                    diff = max(diff, float(np.max(np.abs(b - h))))
        errors = {side: out[side][0][joint]["errors"] for side in out}
        if errors["base"] != errors["head"]:
            zs.append("errors " + json.dumps(errors))
        moved += bool(zs)
        verdict = f"moved at z = {', '.join(zs)}; max |base - head| {diff:.3g}" if zs else "same"
        print(f"  {joint}: {methods}; bytes {verdict}")
    print(f"liftcheck: {moved} of {len(head)} joints moved bytes, {renamed} changed method")
    return 0


if __name__ == "__main__":
    sys.exit(main())
