"""Check that two source trees write the same bytes for the benchmark's ops.

    python3 tools/same_outputs.py --parent ../parent

For every workload of ``benchmark/workloads.py`` and every op seed of
``OP_SEEDS``, the op's command line (the workload's ``argv``) runs once with
this tree's ``src`` and once with the ``src`` of the checkout at ``--parent``,
each in its own fresh interpreter, one after the other, into the same
``--out`` directory.
The files the op wrote there (draws.csv, report.json, manifest.json), its
standard output and its exit code must match byte for byte; manifest.json
records the output path, which is why both runs use the same one.

An op seed s is the benchmark's op ``s mod 1000`` of workload seed
``s // 1000`` (``benchmark/run.py``: op seed = 1000 * seed + index), so it
reproduces exactly the op the benchmark runs. One line is printed per op;
the exit status is 1 if any op differs. ``benchmark/`` is only imported,
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

ROOT = Path(__file__).resolve().parent.parent
OP_SEEDS = (1000, 1001, 1002, 1003, 1004, 12012)
CHILD_TIMEOUT_S = 600

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


def run_tree(src: Path, argv: list, out: Path) -> dict:
    """Run one op with the package under `src`; return {name: bytes} of its outputs."""
    shutil.rmtree(out, ignore_errors=True)
    proc = subprocess.run([sys.executable, "-c", CHILD, str(src), *argv], capture_output=True,
                          env=child_env(), timeout=CHILD_TIMEOUT_S, cwd=out.parent)
    outputs = {"exit code": str(proc.returncode).encode(), "stdout": proc.stdout}
    if out.is_dir():
        for path in sorted(out.rglob("*")):
            if path.is_file():
                outputs[str(path.relative_to(out))] = path.read_bytes()
    shutil.rmtree(out, ignore_errors=True)
    return outputs


def differences(ours: dict, theirs: dict) -> list:
    return sorted(name for name in ours.keys() | theirs.keys() if ours.get(name) != theirs.get(name))


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

    failures = 0
    try:
        for name, workload in workloads.WORKLOADS.items():
            for op_seed in OP_SEEDS:
                argv_op = [str(a) for a in workload.argv(op_seed // 1000, op_seed, out)]
                ours = run_tree(ROOT / "src", argv_op, out)
                theirs = run_tree(parent_src, argv_op, out)
                diff = differences(ours, theirs)
                failures += bool(diff)
                status = "DIFFERS: " + ", ".join(diff) if diff else "identical"
                print(f"{name} op seed {op_seed}: {status} "
                      f"({', '.join(n for n in sorted(ours) if n != 'exit code')}; "
                      f"exit code {ours['exit code'].decode()})", flush=True)
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
    print(f"{failures} of {len(workloads.WORKLOADS) * len(OP_SEEDS)} ops differ")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
