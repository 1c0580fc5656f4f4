"""Per-layer timings of cayley_mcmc, written as one column of a BENCH json file.

Each layer in LAYERS is timed at (p, k) in {(2, 1), (50, 3), (200, 5)} on
both manifolds, as the median microseconds per call.

Run it for each tree, in one session on one machine, into the same file,
alternating the trees a few times:

    for round in 1 2 3 4 5; do
        python3 tools/bench_layers.py --src ../parent/src --column parent --out BENCH.json
        python3 tools/bench_layers.py --column change --out BENCH.json
    done

``--src`` names the ``src`` directory whose package is measured (default:
the one next to this script); only API present in every tree is used. Each
call appends one run to its column, and the column's ``us`` is the median of
its runs per layer: a shared host changes speed for minutes at a time, so a
single run per tree can mistake a slow phase for a regression.
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
    "mh_step": "one random-walk step as run_chain calls it (uniform target)",
    "forward": "cayley_forward_stiefel / cayley_forward_grassmann",
    "log_j": "log_jacobian_stiefel / log_jacobian_block_grassmann",
    "gradient": "the pullback gradient of the uniform and of the Bingham target",
}
SHAPES = ((2, 1), (50, 3), (200, 5))
MANIFOLDS = ("stiefel", "grassmann")
BUDGET_S = 0.15  # time spent per measurement, after MIN_CALLS
MIN_CALLS = 7
CHAIN_STEPS = 3000


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
    """Median time of the step function inside one `run_chain` call."""
    original = sampler.mh_step
    times = []

    def timed(*args, **kwargs):
        start = time.perf_counter()
        result = original(*args, **kwargs)
        times.append(time.perf_counter() - start)
        return result

    sampler.mh_step = timed
    try:
        run = sampler.RunConfig(iterations=CHAIN_STEPS, burn_in=0, thin=CHAIN_STEPS, seed=1)
        sampler.run_chain(target, x, sampler.default_proposal(target), run)
    finally:
        sampler.mh_step = original
    return statistics.median(times) * 1e6


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
    from cayley_mcmc.cayley import ManifoldDims, cayley_forward_grassmann, cayley_forward_stiefel
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
                "mh_step.uniform": chain_step_us(sampler, uniform, x),
                "forward": median_us(forward[manifold], coords),
                "log_j": median_us(log_j[manifold], coords),
                "gradient.uniform": median_us(uniform.gradient, x),
                "gradient.bingham": median_us(bingham.gradient, x),
            }
            for layer, us in row.items():
                layers[f"{layer}.{manifold}.p{p}k{k}"] = round(us, 2)
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
