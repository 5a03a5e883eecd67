"""Lift-table check of two revisions: the method and table bytes of every pair.

    python3 tools/liftcheck.py --base ca8264b

Run from the root of a psdl checkout.  Both revisions, the base and HEAD,
are exported from git into a temporary directory (``git archive``, as
``tools/compare.py`` does).  In one process per tree, ``psdl.lift`` then
tabulates, on the default grid at alpha = 1.3 and at each z in ``ZS``:

* every ``ProductJoint`` of two laws from ``LAWS`` (one or two per scalar
  family), service and lead;
* every ``LinearJoint`` with a service from ``LAWS`` and c in ``CS``.

Each law in ``LAWS`` is also tabulated on its own, on the grid's y values:
its ``survival_array``, ``tail_integral_array`` and
``shifted_exp_integral_array`` at each s in ``SS``, and, at each z, its
time-in-queue profile (at y >= 0), linear-deadline profile at each c in
``CS`` and sojourn CDF.

``ZS`` runs from the bottom of the float range (5e-324) to near its top
(1e308), where a lift's rates and u-ranges leave it.  The runner runs
under ``-W error::RuntimeWarning``, so a numpy warning that a table
raised is recorded in place of the table, by its message, as a
ConfigError is.

Each table is compared bytewise between the trees.  After a header line,
one line per joint or law whose bytes moved or whose method changed gives
its method on each side (a joint's), the tables that moved and the largest
|base - head| over their cells, and the recorded errors of each side where
they differ.  The last line counts the joints and laws whose bytes moved
and the joints whose method changed.  This reports only: the exit status
is 0 unless a tree's run fails, as a change that moves stated pairs is
expected to move them.  Standard library and numpy only, besides each
tree's own psdl.
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

# runs in each tree: tabulates every joint and law into an .npz, and prints
# {"joints" | "laws": {name: {"method": ..., "labels": [...], "errors": {label:
# message}}}} as one JSON object, a joint's labels its z values
RUNNER = """
import json, sys
import numpy as np
from psdl import (ConfigError, Deterministic, Exponential, HyperExponential, LinearJoint,
                  PointMassZero, ProductJoint, Uniform, lift)
from psdl.manifold import linear_deadline_profile, sojourn_limit_cdf, time_in_queue_profile
from psdl.measures import default_grid
LAWS = [Exponential(1.0), HyperExponential((0.5, 0.5), (0.5, 2.0)), Deterministic(1.0),
        Uniform(0.0, 2.0), Uniform(0.5, 1.5), PointMassZero()]
CS = (0.5, 1.0, 2.0)
ZS = (5e-324, 1e-6, 1e-3, 0.05, 1.0, 6.0, 1e3, 1e308)
SS = (1e-6, 0.05, 1.0, 20.0)
joints = [ProductJoint(s, l) for s in LAWS for l in LAWS]
joints += [LinearJoint(s, c) for s in LAWS for c in CS]
g = default_grid()
ys, ys_pos = g.y_values, g.y_values[g.y_values >= 0.0]
tables, report = {}, {"joints": {}, "laws": {}}

def tabulate(group, name, label, make):
    entry = report[group].setdefault(name, {"method": None, "labels": [], "errors": {}})
    entry["labels"].append(label)
    try:
        tables[f"{name}|{label}"] = np.asarray(make(), dtype=float)
    except (ConfigError, RuntimeWarning) as exc:
        entry["errors"][label] = str(exc)

def lift_table(joint, z):
    m = lift(joint, 1.3, z)
    report["joints"][repr(joint)]["method"] = m.method
    return m.quadrant.eval_grid(g.x_values, g.y_values)

for joint in joints:
    for z in ZS:
        tabulate("joints", repr(joint), f"z = {z!r}", lambda: lift_table(joint, z))
for law in LAWS:
    tab = lambda label, make: tabulate("laws", repr(law), label, make)
    tab("survival", lambda: law.survival_array(ys))
    tab("tail", lambda: law.tail_integral_array(ys))
    for s in SS:
        tab(f"transform s = {s!r}", lambda: law.shifted_exp_integral_array(ys, s))
    for z in ZS:
        tab(f"time in queue z = {z!r}", lambda: [time_in_queue_profile(law, z, y) for y in ys_pos])
        for c in CS:
            tab(f"deadline c = {c!r} z = {z!r}",
                lambda: [linear_deadline_profile(law, c, z, y) for y in ys])
        tab(f"sojourn z = {z!r}", lambda: [sojourn_limit_cdf(law, z, y) for y in ys])
np.savez(sys.argv[1], **tables)
print(json.dumps(report))
"""


def run_tree(tree: Path, out: Path) -> tuple[dict, dict]:
    """(report, tables) of RUNNER in tree, with tree's psdl."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", RUNNER, str(out)],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.exit(f"liftcheck: the run in {tree} failed:\n{proc.stderr[-2000:]}")
    with np.load(out) as npz:
        tables = {k: npz[k] for k in npz.files}
    return json.loads(proc.stdout.splitlines()[-1]), tables


def largest_gap(b: np.ndarray, h: np.ndarray) -> float:
    """max |b - h| over the cells that differ; equal infinities are no gap."""
    with np.errstate(invalid="ignore"):
        gap = np.abs(b - h)[b != h]
    return float(gap.max()) if gap.size else 0.0


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
    count = {group: len(head[group]) for group in head}
    print(f"liftcheck: {count['joints']} joints and {count['laws']} laws, {sha['base'][:7]} -> {sha['head'][:7]}")
    moved = dict.fromkeys(head, 0)
    renamed = 0
    for group, entries in head.items():
        for name, entry in entries.items():
            was = base[group][name]
            renamed += was["method"] != entry["method"]
            labels, diff = [], 0.0
            for label in entry["labels"]:
                b, h = base_tables.get(f"{name}|{label}"), head_tables.get(f"{name}|{label}")
                if b is None and h is None:
                    continue  # both raised: the messages are compared below
                if b is None or h is None or b.tobytes() != h.tobytes():
                    labels.append(label)
                    if b is not None and h is not None:
                        diff = max(diff, largest_gap(b, h))
            if was["errors"] != entry["errors"]:
                labels.append("errors " + json.dumps({"base": was["errors"], "head": entry["errors"]}))
            moved[group] += bool(labels)
            if labels or was["method"] != entry["method"]:
                verdict = f"moved at {'; '.join(labels)}; max |base - head| {diff:.3g}" if labels else "same bytes"
                method = f"{was['method']} -> {entry['method']}; " if group == "joints" else ""
                print(f"  {name}: {method}{verdict}")
    print(
        f"liftcheck: {moved['joints']} of {count['joints']} joints and {moved['laws']} of"
        f" {count['laws']} laws moved bytes, {renamed} changed method"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
