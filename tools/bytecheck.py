"""Byte check of the CLI outputs of two revisions: lists the files that differ.

    python3 tools/bytecheck.py --base d39fec2

Run from the root of a psdl checkout.  Both revisions, the base and HEAD,
are exported from git into a temporary directory (``git archive``, as
``tools/compare.py`` does).  Each tree's ``psdl.cli.main`` then runs, in
one process per tree:

* the five ``cli_pipeline`` commands (simulate, rbm, profiles, lift and
  the two-worker sweep) at seeds 0-15, with the configs that
  ``perfbench/workloads.py``'s ``CliWorkload`` writes at its full size;
* the last seed's rbm config at horizon ``LONG_RBM_HORIZON``, 1.5e6
  steps: a path half again as long as the full-size one, so that a change
  to how the rbm path is pieced or summed shows past the full-size 1e6
  steps too;
* the same config at x0 = ``EDGE_RBM_X0`` and horizon ``EDGE_RBM_HORIZON``,
  65,538 values: its last piece is one step long and every write block
  after the first starts inside a piece, and its first value is not 0, as
  it is in every job above;
* the README's scenario, and its sweep at ``--threads`` 1 and 2.

Both trees read the same config files, written once from HEAD's perfbench
and README.  Every file the commands write is compared by sha256.  The
files that differ, or that only one side wrote, are listed, as is any
command that did not exit 0 on both sides, and the exit status is then 1
(0 when every command succeeded and all bytes agree).  Each file that
differs is sized: how many of its lines differ, and the largest relative
move |a - b| / max(|a|, |b|) over the numeric cells of those lines, paired
in order.  Standard library and numpy only, besides the psdl that HEAD's
perfbench imports to write its configs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from compare import _git, export  # noqa: E402

SEEDS = range(16)
LONG_RBM_HORIZON = 1500.0
EDGE_RBM_X0, EDGE_RBM_HORIZON = 0.7, 65.537  # 65,537 steps of dt = 0.001

# runs in each tree: every (output name, argv) job through psdl.cli.main,
# printing the exit status of each as one JSON object
RUNNER = """
import contextlib, io, json, sys
from psdl.cli import main
codes = {}
for name, argv in json.load(open(sys.argv[1])):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            codes[name] = main([*argv, "--out", f"{sys.argv[2]}/{name}"])
        except Exception as exc:
            codes[name] = repr(exc)
print(json.dumps(codes))
"""


def write_jobs(head: Path, cfg_root: Path) -> list[tuple[str, list[str]]]:
    """Write every config under cfg_root from HEAD's perfbench and README;
    the (output name, argv without --out) of each command to run."""
    sys.path[:0] = [str(head / "src"), str(head / "perfbench")]
    from workloads import CLI_COMMANDS, CliWorkload

    jobs = []
    for seed in SEEDS:
        w = CliWorkload("cli_pipeline", "full", seed, cfg_root / f"seed{seed}")
        for cmd in CLI_COMMANDS:
            argv = [cmd, "--config", str(w.configs[cmd])]
            if cmd == "sweep":  # as CliWorkload runs it
                argv += ["--threads", str(w.size["sweep_threads"])]
            jobs.append((f"seed{seed}/{cmd}", argv))
    body = json.loads(Path(w.configs["rbm"]).read_text())  # the last seed's
    body["rbm"]["horizon"] = LONG_RBM_HORIZON
    long_rbm = cfg_root / "rbm_long.json"
    long_rbm.write_text(json.dumps(body))
    jobs.append(("long/rbm", ["rbm", "--config", str(long_rbm)]))
    body["rbm"].update(x0=EDGE_RBM_X0, horizon=EDGE_RBM_HORIZON)
    edge_rbm = cfg_root / "rbm_edge.json"
    edge_rbm.write_text(json.dumps(body))
    jobs.append(("edge/rbm", ["rbm", "--config", str(edge_rbm)]))
    for i, text in enumerate(re.findall(r"```json\n(.*?)```", (head / "README.md").read_text(), re.S)):
        path = cfg_root / f"readme{i}.json"
        path.write_text(text)
        if "sweep" in json.loads(text):
            jobs += [(f"readme/sweep-threads{n}", ["sweep", "--config", str(path), "--threads", str(n)])
                     for n in (1, 2)]
        else:
            jobs.append(("readme/simulate", ["simulate", "--config", str(path)]))
    return jobs


def run_tree(tree: Path, jobs_file: Path, out: Path) -> dict:
    """Exit status per job, running tree's psdl; outputs go under out."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, str(jobs_file), str(out)],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.exit(f"bytecheck: the run in {tree} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def digests(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


# JSON and CSV punctuation, read as blanks so that a split leaves the cells
_SEPARATORS = bytes.maketrans(b',:[]{}"', b"       ")


def _floats(cells: np.ndarray) -> np.ndarray:
    """The cells as floats; a cell that is not a number reads NaN."""
    try:
        return cells.astype(float)
    except ValueError:
        out = np.full(cells.size, np.nan)
        for i, cell in enumerate(cells.tolist()):
            try:
                out[i] = float(cell)
            except ValueError:
                pass
        return out


def size_difference(base: Path, head: Path) -> str:
    """How many lines of two files differ, and the largest relative move
    over the numeric cells of those lines."""
    a, b = base.read_bytes().splitlines(), head.read_bytes().splitlines()
    diff = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
    lines = len(diff) + abs(len(a) - len(b))
    old, new = (np.array(b" ".join([side[i] for i in diff]).translate(_SEPARATORS).split()) for side in (a, b))
    if len(a) != len(b) or old.shape != new.shape:
        return f"{lines} lines differ, their cells do not pair"
    moved = old != new
    x, y = _floats(old[moved]), _floats(new[moved])
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.abs(x - y) / np.maximum(np.abs(x), np.abs(y))
    return f"{lines} lines differ, largest relative move {np.nanmax(rel, initial=0.0):.3g}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="revision to compare against")
    args = p.parse_args(argv)
    sha = {"base": _git("rev-parse", args.base), "head": _git("rev-parse", "HEAD")}
    with tempfile.TemporaryDirectory(prefix="psdl-bytecheck-") as tmp:
        tmp = Path(tmp)
        trees = {side: tmp / side for side in sha}
        for side, tree in trees.items():
            export(sha[side], tree)
        jobs_file = tmp / "jobs.json"
        jobs_file.write_text(json.dumps(write_jobs(trees["head"], tmp / "configs")))
        codes, files = {}, {}
        for side, tree in trees.items():
            codes[side] = run_tree(tree, jobs_file, tmp / "out" / side)
            files[side] = digests(tmp / "out" / side)
        differ = [f"exit status of {name}: {codes['base'][name]} -> {codes['head'][name]}"
                  for name in codes["base"] if (codes["base"][name], codes["head"][name]) != (0, 0)]
        for name in sorted(files["base"].keys() | files["head"].keys()):
            base, head = files["base"].get(name), files["head"].get(name)
            if base is None or head is None:
                differ.append(f"{name}: only in {'head' if base is None else 'base'}")
            elif base != head:
                differ.append(f"{name}: {size_difference(tmp / 'out' / 'base' / name, tmp / 'out' / 'head' / name)}")
    print(f"bytecheck: {len(files['head'])} files of {len(codes['head'])} commands, "
          f"{sha['base'][:7]} -> {sha['head'][:7]}")
    for line in differ:
        print(f"  {line}")
    print("bytecheck: " + (f"{len(differ)} differences" if differ else "every file identical"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
