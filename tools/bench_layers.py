"""Per-layer timings of cayley_mcmc, written as one column of a BENCH json file.

Each layer in LAYERS is timed at (p, k) in {(2, 1), (50, 3), (200, 5)} on
both manifolds, as the median microseconds per call; `values_and_gradients`,
`check_frames`, `value_and_grad_fn` and `leapfrog_iteration` only on the
Bingham study's V(3,50), and `frames` and `draws_csv` only on the kept-draw
stacks of uniform-rw and grassmann-rw.

Run it for each tree, in one session on one machine, into the same file,
alternating the trees a few times:

    for round in 1 2 3 4 5; do
        python3 tools/bench_layers.py --src ../parent/src --column parent --out BENCH.json
        python3 tools/bench_layers.py --column change --out BENCH.json
    done

``--src`` names the ``src`` directory whose package is measured (default:
the one next to this script); a layer whose API a tree lacks is left out of
that tree's column. Each call appends one run to its column, and the
column's ``us`` is the median of its runs per layer: a shared host changes
speed for minutes at a time, so a single run per tree can mistake a slow
phase for a regression. The column's ``min_us`` is the minimum over its runs,
printed beside the median after each call: a layer whose processes settle
into a fast or a slow mode compares by its minimum, not by the mode count.

With ``--ops``, whole benchmark ops are timed instead, both trees in one
process, so that a process's speed mode is shared by the two:

    python3 tools/bench_layers.py --parent ../parent --ops uniform-rw grassmann-rw \
        --out BENCH.json

Both trees' packages are imported side by side (this tree's and the one
under ``<parent>/src``). Each of OP_ROUNDS rounds runs the workload's op
(``benchmark/workloads.py``: its command line at seed 1, op seed 1000 + round)
once with each tree, the order alternating from round to round, after one
untimed op per tree. Each round's ratio is the change's wall time over the
parent's; the json's ``ops`` entry of the workload keeps every round's times
and ratio, and their median and quartiles, and whether the quartiles
exclude 1.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

# Every solve is k x k: extra BLAS threads would only time the scheduler.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

LAYERS = {
    "target": "the pullback value of the uniform and of a Bingham density",
    "rows": "PullbackTarget.rows on a stack of M = 1 or M = 8 vectors, every row's value "
            "taken (uniform target); per call, not per row",
    "chain_step": "one random-walk step: a whole run_chain (burn-in, kept-draw map) divided "
                  "by its iterations (uniform target)",
    "forward": "cayley_forward_stiefel / cayley_forward_grassmann",
    "log_j": "log_jacobian_stiefel / log_jacobian_block_grassmann",
    "gradient": "the pullback gradient of the uniform and of the Bingham target",
    "value_and_gradient": "the fused pullback value and gradient of the uniform and of the "
                          "Bingham target",
    "values_and_gradients": "PullbackTarget.values_and_gradients, the stacked fused value and "
                            "gradient, on a stack of M = 1, 2 or 8 vectors of the uniform and "
                            "of the Bingham target at V(3,50); per call, not per row",
    "check_frames": "cayley.check_frames, every StiefelPoint check, on the validated frames of "
                    "a stack of M = 1, 2 or 8 vectors at V(3,50); per call, not per row",
    "value_and_grad_fn": "the Bingham density's value_and_grad_fn (value and gradient from one "
                         "stacked S Q) on the frames of a stack of M = 1, 2 or 8 vectors at "
                         "V(3,50); per call, not per row",
    "frames": "PullbackTarget.frames, the kept-draw map (one stacked forward map and one "
              "check_frames pass), on a stack of M = 2000 vectors at V(3,50) and M = 1800 at "
              "G(4,20), the kept-draw counts of uniform-rw and grassmann-rw; per call",
    "draws_csv": "experiments.write_draws_csv of the frames stacks (M = 2000 at V(3,50), "
                 "M = 1800 at G(4,20)) into a fresh directory; per call",
    "leapfrog_iteration": "one leapfrog iteration of the Bingham study (n=100, p=50, k=3, "
                          "data seed 1) from its mode, at the step burn-in adapted and the "
                          "proposal's path scale * leapfrog_steps: a run_chain of "
                          "LEAPFROG_ITERATIONS with no burn-in, divided by them",
}
SRC = Path(__file__).resolve().parent.parent / "src"
SHAPES = ((2, 1), (50, 3), (200, 5))
MANIFOLDS = ("stiefel", "grassmann")
BUDGET_S = 0.15  # time spent per measurement, after MIN_CALLS
OP_ROUNDS = 20  # alternating pairs of ops per workload with --ops
OP_SEED = 1  # workload seed of the ops
MIN_CALLS = 7
CHAIN_STEPS = 3000
STACKS = (1, 8)
FUSED_STACKS = (1, 2, 8)
FUSED_SHAPE = ("stiefel", 50, 3)
FRAMES_STACKS = (("stiefel", 50, 3, 2000), ("grassmann", 20, 4, 1800))  # manifold, p, k, M
LEAPFROG_BURN_IN = 50
LEAPFROG_ITERATIONS = 20


def median_us(fn, *args) -> float:
    """Median wall time of fn(*args) in microseconds."""
    times = []
    spent = 0.0
    while len(times) < MIN_CALLS or spent < BUDGET_S:
        start = time.perf_counter()
        fn(*args)
        elapsed = time.perf_counter() - start
        times.append(elapsed)
        spent += elapsed
    return statistics.median(times) * 1e6


def chain_step_us(sampler, target, x) -> float:
    """Time of one `run_chain` call of CHAIN_STEPS random-walk steps, per step.

    A tenth of the steps is burn-in, and every tenth step is kept, so the
    time includes the scale adaptation and the kept-draw map.
    """
    run = sampler.RunConfig(iterations=CHAIN_STEPS, burn_in=CHAIN_STEPS // 10, thin=10, seed=1)
    proposal = sampler.default_proposal(target)
    return median_us(sampler.run_chain, target, x, proposal, run) / CHAIN_STEPS


def leapfrog_iteration_us(np) -> float:
    """Time per iteration of the Bingham study's leapfrog chain at its adapted step.

    Burn-in (LEAPFROG_BURN_IN iterations from the mode) adapts the step; the
    timed chain then runs LEAPFROG_ITERATIONS at that step with no burn-in,
    over trajectories of the proposal's path length, scale * leapfrog_steps.
    """
    from cayley_mcmc import experiments, sampler
    from cayley_mcmc.cayley import ManifoldDims
    from cayley_mcmc.densities import BinghamParams, PullbackTarget, bingham_log_density

    spec = experiments.SpikedDataSpec(n=100, p=50, k=3, sigma2=1.0,
                                      lam=np.array([5.0, 3.0, 1.5]), seed=1)
    dims = ManifoldDims(spec.p, spec.k)
    Y, _ = experiments.simulate_spiked_data(spec)
    params = BinghamParams.from_data(Y, spec.sigma2, spec.lam)
    target = PullbackTarget(bingham_log_density(params), dims)
    w, vecs = np.linalg.eigh(params.S)
    mode = experiments._safe_frame(vecs[:, np.argsort(w)[::-1][: spec.k]], dims)
    init = sampler.init_from_manifold(mode)
    nominal = experiments.BINGHAM_PROPOSAL
    adapted = sampler.run_chain(target, init, nominal,
                                sampler.RunConfig(iterations=LEAPFROG_BURN_IN + 1,
                                                  burn_in=LEAPFROG_BURN_IN, seed=1)).final_scale
    steps = max(1, round(nominal.scale * nominal.leapfrog_steps / adapted))
    proposal = sampler.ProposalConfig(kind="leapfrog", scale=adapted, leapfrog_steps=steps)
    run = sampler.RunConfig(iterations=LEAPFROG_ITERATIONS, seed=2)
    return median_us(sampler.run_chain, target, init, proposal, run) / LEAPFROG_ITERATIONS


def all_rows(target, X) -> None:
    value = target.rows(X)
    for j in range(X.shape[0]):
        value(j)


def point_in_domain(np, rng, manifold: str, p: int, k: int):
    """A generic coordinate vector: A with spectral norm 0.7, b of size 0.5."""
    A = rng.standard_normal((p - k, k))
    A *= 0.7 / np.linalg.norm(A, 2)
    a_vec = A.reshape(-1, order="F")
    if manifold == "grassmann":
        return a_vec
    return np.concatenate([0.5 * rng.standard_normal(k * (k - 1) // 2), a_vec])


def measure() -> dict:
    import numpy as np

    from cayley_mcmc import experiments, sampler
    from cayley_mcmc.cayley import (
        ManifoldDims,
        cayley_forward_grassmann,
        cayley_forward_stiefel,
        check_frames,
    )
    from cayley_mcmc.densities import (
        BinghamParams,
        PullbackTarget,
        bingham_log_density,
        uniform_log_density,
    )
    from cayley_mcmc.jacobian import log_jacobian_block_grassmann, log_jacobian_stiefel

    forward = {"stiefel": cayley_forward_stiefel, "grassmann": cayley_forward_grassmann}
    log_j = {"stiefel": log_jacobian_stiefel, "grassmann": log_jacobian_block_grassmann}
    rng = np.random.default_rng(0)
    layers = {}
    for p, k in SHAPES:
        dims = ManifoldDims(p, k)
        params = BinghamParams.from_data(rng.standard_normal((3 * p, p)), 1.0,
                                         np.linspace(3.0, 1.0, k))
        for manifold in MANIFOLDS:
            uniform = PullbackTarget(uniform_log_density(manifold), dims)
            bingham = PullbackTarget(bingham_log_density(params, manifold), dims)
            x = point_in_domain(np, rng, manifold, p, k)
            coords = uniform.coords(x)
            row = {
                "target.uniform": median_us(uniform, x),
                "target.bingham": median_us(bingham, x),
                "chain_step.uniform": chain_step_us(sampler, uniform, x),
                "forward": median_us(forward[manifold], coords),
                "log_j": median_us(log_j[manifold], coords),
                "gradient.uniform": median_us(uniform.gradient, x),
                "gradient.bingham": median_us(bingham.gradient, x),
            }
            if hasattr(uniform, "value_and_gradient"):
                row["value_and_gradient.uniform"] = median_us(uniform.value_and_gradient, x)
                row["value_and_gradient.bingham"] = median_us(bingham.value_and_gradient, x)
            if hasattr(uniform, "rows"):
                for m in STACKS:
                    X = np.stack([point_in_domain(np, rng, manifold, p, k) for _ in range(m)])
                    row[f"rows.m{m}.uniform"] = median_us(all_rows, uniform, X)
            if hasattr(uniform, "values_and_gradients") and (manifold, p, k) == FUSED_SHAPE:
                # Its own generator, so that the points of every other layer match the parent's.
                fused_rng = np.random.default_rng(1)
                for m in FUSED_STACKS:
                    X = np.stack([point_in_domain(np, fused_rng, manifold, p, k)
                                  for _ in range(m)])
                    row[f"values_and_gradients.m{m}.uniform"] = median_us(
                        uniform.values_and_gradients, X)
                    row[f"values_and_gradients.m{m}.bingham"] = median_us(
                        bingham.values_and_gradients, X)
                    Q = bingham.frames(X)
                    row[f"check_frames.m{m}"] = median_us(check_frames, Q)
                    row[f"value_and_grad_fn.m{m}.bingham"] = median_us(
                        bingham.g.value_and_grad_fn, Q)
            for layer, us in row.items():
                layers[f"{layer}.{manifold}.p{p}k{k}"] = round(us, 2)
    frames_rng = np.random.default_rng(2)  # its own generator, as for the fused layers
    for manifold, p, k, m in FRAMES_STACKS:
        target = PullbackTarget(uniform_log_density(manifold), ManifoldDims(p, k))
        X = np.stack([point_in_domain(np, frames_rng, manifold, p, k) for _ in range(m)])
        Q = target.frames(X)
        layers[f"frames.m{m}.{manifold}.p{p}k{k}"] = round(median_us(target.frames, X), 2)
        batch = sampler.SampleBatch(coords_draws=X, manifold_draws=Q, acceptance_rate=0.0,
                                    final_scale=0.0, counters=None)
        with tempfile.TemporaryDirectory() as directory:
            layers[f"draws_csv.m{m}.{manifold}.p{p}k{k}"] = round(median_us(
                experiments.write_draws_csv, Path(directory) / "draws.csv", batch, manifold), 2)
    layers["leapfrog_iteration.bingham.stiefel.p50k3"] = round(leapfrog_iteration_us(np), 2)
    return layers


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity_cpus": (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                          else None),
    }


def load_tree(src: Path) -> dict:
    """The modules of the cayley_mcmc package under `src`, imported apart from any other tree's.

    A module imported earlier by the same name leaves `sys.modules` first, so
    each tree's modules hold only each other; the package imports no module
    inside a function, so its calls never reach the other tree's.
    """
    def ours():
        return {name: mod for name, mod in sys.modules.items()
                if name == "cayley_mcmc" or name.startswith("cayley_mcmc.")}

    for name in ours():
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        cli = importlib.import_module("cayley_mcmc.cli")
    finally:
        sys.path.remove(str(src))
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported {cli.__file__}, not the package under {src}")
    return ours()


def time_op(modules: dict, argv: list) -> float:
    """Wall seconds of one CLI call with one tree's modules, its stdout silenced."""
    sys.modules.update(modules)
    with open(os.devnull, "w") as sink:
        saved, sys.stdout = sys.stdout, sink
        try:
            start = time.perf_counter()
            code = modules["cayley_mcmc.cli"].parse_and_dispatch(argv)
            wall = time.perf_counter() - start
        finally:
            sys.stdout = saved
    if code != 0:
        raise SystemExit(f"{argv[0]} exited with {code}")
    return wall


def measure_ops(parent_src: Path, names: list) -> dict:
    """Per workload, OP_ROUNDS alternating pairs of op times and the change-over-parent ratios."""
    trees = {"parent": load_tree(parent_src), "change": load_tree(SRC)}
    sys.path.insert(0, str(SRC.parent / "benchmark"))
    import workloads  # read only: the ops' command lines

    results = {}
    for name in names:
        workload = workloads.WORKLOADS[name]
        times = {"parent": [], "change": []}
        with tempfile.TemporaryDirectory() as scratch:
            def run(tree, index):
                out = Path(scratch) / f"{tree}{index}"
                wall = time_op(trees[tree], workload.argv(OP_SEED, 1000 * OP_SEED + index, out))
                shutil.rmtree(out)
                return wall

            for tree in trees:
                run(tree, 0)  # untimed: first calls fill caches
            for index in range(OP_ROUNDS):
                order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
                for tree in order:
                    times[tree].append(run(tree, index))
        ratios = [c / p for c, p in zip(times["change"], times["parent"])]
        q1, median, q3 = statistics.quantiles(ratios, n=4)
        results[name] = {
            "parent_s": [round(t, 4) for t in times["parent"]],
            "change_s": [round(t, 4) for t in times["change"]],
            "ratios": [round(r, 4) for r in ratios],
            "median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "quartiles_exclude_1": q3 < 1.0 or q1 > 1.0,
            "change_faster_rounds": sum(r < 1.0 for r in ratios),
        }
        print(f"{name}: change / parent wall per round, median {median:.3f} "
              f"(quartiles {q1:.3f}-{q3:.3f}), change faster in "
              f"{results[name]['change_faster_rounds']} of {OP_ROUNDS}")
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--column", help="column name, e.g. parent or change")
    parser.add_argument("--out", required=True, type=Path, help="json file to create or update")
    parser.add_argument("--src", type=Path, default=SRC,
                        help="src directory of the tree to measure")
    parser.add_argument("--ops", nargs="+", metavar="WORKLOAD",
                        help="time these benchmark workloads' ops instead of the layers")
    parser.add_argument("--parent", type=Path, help="checkout of the parent tree (with --ops)")
    args = parser.parse_args(argv)
    doc = json.loads(args.out.read_text()) if args.out.is_file() else {}
    if args.ops:
        if args.parent is None:
            parser.error("--ops needs --parent")
        ops = doc.setdefault("ops", {})
        ops["unit"] = "seconds of wall time per op; ratio = change / parent per round"
        ops["environment"] = environment()
        ops.update(measure_ops((args.parent / "src").resolve(), args.ops))
        args.out.write_text(json.dumps(doc, indent=2) + "\n")
        return 0
    if args.column is None:
        parser.error("--column is required unless --ops is given")
    sys.path.insert(0, str(args.src.resolve()))

    doc["unit"] = "microseconds per call, median"
    doc["layers"] = LAYERS
    column = doc.setdefault("columns", {}).setdefault(args.column, {"runs": []})
    column["environment"] = environment()
    column["runs"].append(measure())
    runs = column["runs"]
    column["us"] = {layer: round(statistics.median(run[layer] for run in runs), 2)
                    for layer in runs[0]}
    column["min_us"] = {layer: min(run[layer] for run in runs) for layer in runs[0]}
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"{args.column}, {len(runs)} runs: median and minimum us per call")
    for layer, us in column["us"].items():
        print(f"  {layer:<48} {us:>12.2f} {column['min_us'][layer]:>12.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
