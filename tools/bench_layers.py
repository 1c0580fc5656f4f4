"""Per-layer timings of cayley_mcmc, written as one column of a BENCH json file.

Each layer in LAYERS is timed at (p, k) in {(2, 1), (50, 3), (200, 5)} on
both manifolds, as the median microseconds per call; `values_and_gradients`,
`check_frames`, `value_and_grad_fn` and `leapfrog_iteration` only on the
Bingham study's V(3,50).

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
phase for a regression.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
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
    "leapfrog_iteration": "one leapfrog iteration of the Bingham study (n=100, p=50, k=3, "
                          "data seed 1) from its mode, at the step burn-in adapted and the "
                          "proposal's path scale * leapfrog_steps: a run_chain of "
                          "LEAPFROG_ITERATIONS with no burn-in, divided by them",
}
SHAPES = ((2, 1), (50, 3), (200, 5))
MANIFOLDS = ("stiefel", "grassmann")
BUDGET_S = 0.15  # time spent per measurement, after MIN_CALLS
MIN_CALLS = 7
CHAIN_STEPS = 3000
STACKS = (1, 8)
FUSED_STACKS = (1, 2, 8)
FUSED_SHAPE = ("stiefel", 50, 3)
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

    from cayley_mcmc import sampler
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
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--column", required=True, help="column name, e.g. parent or change")
    parser.add_argument("--out", required=True, type=Path, help="json file to create or update")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
                        help="src directory of the tree to measure")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))

    doc = json.loads(args.out.read_text()) if args.out.is_file() else {}
    doc["unit"] = "microseconds per call, median"
    doc["layers"] = LAYERS
    column = doc.setdefault("columns", {}).setdefault(args.column, {"runs": []})
    column["environment"] = environment()
    column["runs"].append(measure())
    column["us"] = {layer: round(statistics.median(run[layer] for run in column["runs"]), 2)
                    for layer in column["runs"][0]}
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
