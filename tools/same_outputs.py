"""Check that two source trees write the same bytes for the benchmark's ops and the CLI cases.

    python3 tools/same_outputs.py --parent ../parent

For every workload of ``benchmark/workloads.py`` and every op seed of
``OP_SEEDS``, the op's command line (the workload's ``argv``) runs once with
this tree's ``src`` and once with the ``src`` of the checkout at ``--parent``,
each in its own fresh interpreter, one after the other, into the same
``--out`` directory. So does each fixed command line of ``CLI_CASES``; together
they reach every subcommand and the exit codes 2, 3 and 4.
The files a run wrote there (draws.csv, report.json, manifest.json), its
standard output, its standard error and its exit code must match byte for
byte; manifest.json records the output path, which is why both runs use the
same one. For a draws.csv that differs, the line also says whether its
coordinate columns (the header's ``n_coords``) are identical and how far
apart its frame entries are at most. In standard error, each tree's ``src`` path reads ``<src>``, so a
warning's source location compares by module and line.

An op seed s is the benchmark's op ``s mod 1000`` of workload seed
``s // 1000`` (``benchmark/run.py``: op seed = 1000 * seed + index), so it
reproduces exactly the op the benchmark runs. One line is printed per case;
the exit status is 1 if any case differs. ``benchmark/`` is only imported,
for the command lines; nothing there is written.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OP_SEEDS = (1000, 1001, 1002, 1003, 1004, 12012)
CHILD_TIMEOUT_S = 600

# Fixed CLI command lines: "{out}" is the output directory and "{inputs}" the
# directory of the files `write_inputs` makes.
CLI_CASES = {
    "sample stiefel bingham": [
        "sample", "--p", "6", "--k", "2", "--target", "bingham", "--data", "{inputs}/y.csv",
        "--sigma2", "1.0", "--lambda", "3,1", "--iters", "300", "--burn", "100", "--seed", "5",
        "--out", "{out}"],
    "sample grassmann leapfrog": [
        "sample", "--manifold", "grassmann", "--p", "5", "--k", "2", "--proposal", "leapfrog",
        "--scale", "0.05", "--iters", "150", "--burn", "50", "--seed", "4", "--out", "{out}"],
    "jacobian stiefel": [
        "jacobian", "--p", "5", "--k", "2", "--coords", "{inputs}/phi.csv", "--out", "{out}"],
    "jacobian grassmann": [
        "jacobian", "--manifold", "grassmann", "--p", "5", "--k", "2",
        "--coords", "{inputs}/psi.csv"],
    "roundtrip-check": ["roundtrip-check", "--p", "6", "--k", "2", "--out", "{out}"],
    "roundtrip-check --tol 1e-30": ["roundtrip-check", "--p", "6", "--k", "2", "--tol", "1e-30"],
    "no command": [],
    "missing required option": ["sample", "--p", "5", "--k", "2"],
    "bad dimensions sample": [
        "sample", "--p", "3", "--k", "5", "--iters", "10", "--seed", "1", "--out", "{out}"],
    "bad dimensions jacobian": ["jacobian", "--p", "2", "--k", "2", "--coords", "{inputs}/phi.csv"],
    "bad dimensions uniform-exp": [
        "uniform-exp", "--p", "3", "--k", "0", "--draws", "10", "--seed", "1", "--out", "{out}"],
    "bad dimensions bingham-exp": [
        "bingham-exp", "--p", "2", "--k", "2", "--lambda", "2,1", "--seed", "1", "--out", "{out}"],
    "bad dimensions roundtrip-check": ["roundtrip-check", "--p", "4", "--k", "4"],
    "increasing lambda": [
        "bingham-exp", "--p", "5", "--k", "2", "--lambda", "1,2", "--seed", "1", "--out", "{out}"],
    "non-numeric lambda": [
        "bingham-exp", "--p", "5", "--k", "2", "--lambda", "3,x", "--seed", "1", "--out", "{out}"],
    "non-numeric p grid": [
        "normal-approx-exp", "--k", "3", "--p-grid", "50,x", "--seed", "1", "--out", "{out}"],
    "k not below the p grid": [
        "normal-approx-exp", "--k", "3", "--p-grid", "3,50", "--seed", "1", "--out", "{out}"],
    "missing input file": ["jacobian", "--p", "5", "--k", "2", "--coords", "{inputs}/none.csv"],
    "missing config file": [
        "uniform-exp", "--config", "{inputs}/none.json", "--p", "5", "--k", "2", "--draws", "10",
        "--seed", "1", "--out", "{out}"],
    "wrong coordinate width": ["jacobian", "--p", "5", "--k", "2", "--coords", "{inputs}/psi.csv"],
}

# One op in a fresh interpreter: import the package from the given src, run the CLI.
CHILD = """
import sys
src, argv = sys.argv[1], sys.argv[2:]
sys.path.insert(0, src)
from cayley_mcmc import cli
if not cli.__file__.startswith(src):
    raise SystemExit(f"imported {cli.__file__}, not the package under {src}")
sys.exit(cli.parse_and_dispatch(argv))
"""


def child_env() -> dict:
    """The benchmark's BLAS pinning: one thread, so both trees run the same kernels."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def write_inputs(inputs: Path) -> None:
    """The CSV inputs of CLI_CASES: a 30 x 6 data matrix and coordinate rows for p=5, k=2."""
    from cayley_mcmc.cli import write_matrix_csv

    inputs.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(0)
    psi = rng.standard_normal((3, 6))
    psi *= 0.5 / np.linalg.norm(psi, axis=1, keepdims=True)  # inside the Grassmann domain
    write_matrix_csv(inputs / "y.csv", rng.standard_normal((30, 6)))
    write_matrix_csv(inputs / "phi.csv", rng.standard_normal((3, 7)))
    write_matrix_csv(inputs / "psi.csv", psi)


def run_tree(src: Path, argv: list, out: Path) -> dict:
    """Run one command line with the package under `src`; return {name: bytes} of its outputs."""
    shutil.rmtree(out, ignore_errors=True)
    proc = subprocess.run([sys.executable, "-c", CHILD, str(src), *argv], capture_output=True,
                          env=child_env(), timeout=CHILD_TIMEOUT_S, cwd=out.parent)
    outputs = {"exit code": str(proc.returncode).encode(), "stdout": proc.stdout,
               "stderr": proc.stderr.replace(str(src).encode(), b"<src>")}
    if out.is_dir():
        for path in sorted(out.rglob("*")):
            if path.is_file():
                outputs[str(path.relative_to(out))] = path.read_bytes()
    shutil.rmtree(out, ignore_errors=True)
    return outputs


def differences(ours: dict, theirs: dict) -> list:
    return sorted(name for name in ours.keys() | theirs.keys() if ours.get(name) != theirs.get(name))


def draws_difference(ours: bytes, theirs: bytes) -> str:
    """How two draws.csv files differ: in the coordinate columns, and by how much in the frames."""
    header = ours.decode().split("\n", 1)[0]
    d = int(dict(item.split("=") for item in header[2:].split())["n_coords"])
    tables = [[line.split(",") for line in text.decode().splitlines()[1:]]
              for text in (ours, theirs)]
    if len(tables[0]) != len(tables[1]) or not tables[0]:
        return f"{len(tables[0])} against {len(tables[1])} draws"
    coords = "identical" if all(a[:d] == b[:d] for a, b in zip(*tables)) else "differ"
    frames = [np.array([row[d:] for row in table], dtype=float) for table in tables]
    if frames[0].shape != frames[1].shape:
        return f"coordinate columns {coords}, frame widths differ"
    return (f"coordinate columns {coords}, frame entries differ by at most "
            f"{np.max(np.abs(frames[0] - frames[1])):.2g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="root of the other checkout (the directory holding its src/)")
    parser.add_argument("--out", type=Path, default=None,
                        help="output directory both trees write to (default: a fresh temporary one)")
    args = parser.parse_args(argv)

    parent_src = (args.parent / "src").resolve()
    if not (parent_src / "cayley_mcmc" / "__init__.py").is_file():
        parser.error(f"no cayley_mcmc package under {parent_src}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]
    import workloads

    scratch = None
    if args.out is None:
        scratch = Path(tempfile.mkdtemp(prefix="same_outputs_"))
        out = scratch / "out"
    else:
        out = args.out.resolve()
        out.parent.mkdir(parents=True, exist_ok=True)

    inputs = out.parent / "same_outputs_inputs"
    cases = [(f"{name} op seed {op_seed}",
              [str(a) for a in workload.argv(op_seed // 1000, op_seed, out)])
             for name, workload in workloads.WORKLOADS.items() for op_seed in OP_SEEDS]
    cases += [(f"cli {name}", [a.format(out=out, inputs=inputs) for a in argv_case])
              for name, argv_case in CLI_CASES.items()]
    failures = 0
    try:
        write_inputs(inputs)
        for label, argv_case in cases:
            ours = run_tree(ROOT / "src", argv_case, out)
            theirs = run_tree(parent_src, argv_case, out)
            diff = differences(ours, theirs)
            failures += bool(diff)
            status = "DIFFERS: " + ", ".join(diff) if diff else "identical"
            for name in diff:
                if name.endswith("draws.csv") and name in ours and name in theirs:
                    status += f" [{name}: {draws_difference(ours[name], theirs[name])}]"
            print(f"{label}: {status} "
                  f"({', '.join(n for n in sorted(ours) if n != 'exit code' and ours[n])}; "
                  f"exit code {ours['exit code'].decode()})", flush=True)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
    print(f"{failures} of {len(cases)} cases differ")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
