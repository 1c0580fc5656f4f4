"""Paired timings of this tree of cayley_mcmc against a parent tree, by layer or by op.

    python3 tools/bench_layers.py --parent ../parent --out BENCH.json
    python3 tools/bench_layers.py --parent ../parent --ops bingham-hmc uniform-rw \\
        grassmann-rw coupling --out BENCH.json

Both trees' packages are imported side by side in one process: this tree's
(the change) and the one under ``<parent>/src``. Each tree's calls are built
under its own modules from the same generator seeds. After one untimed call
per tree, each of ROUNDS rounds times every layer (or op) once per tree, back
to back, the tree that goes first alternating: a shared host changes speed
for minutes at a time, and each process settles into a fast or a slow mode.

A layer (LAYERS) is timed as the median microseconds per call over BUDGET_S
of calls, at each (p, k) of SHAPES on both manifolds unless LAYERS names its
shape or manifold; a layer whose API one tree lacks is skipped and listed.
The gradient layers (``gradient.*``, ``value_and_gradient.*`` and
``values_and_gradients.*``) run on V(k,p) only, where a pullback gradient
exists: G(k,p) targets refuse it. An op is the
workload's command line (``benchmark/workloads.py``) at workload seed
OP_SEED and op seed 1000 * OP_SEED + round, timed in wall seconds, with the
CPU seconds of the child processes it reaped (the draws writer's) and the
wall seconds spent inside the draws writer's ``kept`` (its posts to the
child) and ``write`` (the wait for the child).

The json's ``layers`` (or ``ops``) section holds, per name, each tree's
times in every round, each round's ratio change / parent, the ratios' median
and quartiles, whether the quartiles exclude 1, and the number of rounds the
change was faster.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from functools import partial
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
    "gradient": "the pullback gradient of the uniform and of the Bingham target, on V(k,p) "
                "only",
    "value_and_gradient": "the fused pullback value and gradient of the uniform and of the "
                          "Bingham target, on V(k,p) only",
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
                 "M = 1800 at G(4,20)) into a fresh directory, with no writer: every row "
                 "formatted in this one process; per call",
    "leapfrog_iteration": "one leapfrog iteration of the Bingham study (n=100, p=50, k=3, "
                          "data seed 1) from its mode, at the step burn-in adapted and the "
                          "proposal's path scale * leapfrog_steps: a run_chain of "
                          "LEAPFROG_ITERATIONS with no burn-in, divided by them",
}
SRC = Path(__file__).resolve().parent.parent / "src"
TREES = ("parent", "change")
ROUNDS = 20  # paired rounds per layer or op
SHAPES = ((2, 1), (50, 3), (200, 5))
MANIFOLDS = ("stiefel", "grassmann")
BUDGET_S = 0.15  # time spent per layer measurement, after MIN_CALLS
MIN_CALLS = 7
OP_SEED = 1  # workload seed of the ops
CHAIN_STEPS = 3000
STACKS = (1, 8)
FUSED_STACKS = (1, 2, 8)
FUSED_SHAPE = ("stiefel", 50, 3)
FRAMES_STACKS = (("stiefel", 50, 3, 2000), ("grassmann", 20, 4, 1800))  # manifold, p, k, M
LEAPFROG_BURN_IN = 50
LEAPFROG_ITERATIONS = 20


def median_us(call) -> float:
    """Median wall time of call() in microseconds."""
    times = []
    spent = 0.0
    while len(times) < MIN_CALLS or spent < BUDGET_S:
        start = time.perf_counter()
        call()
        elapsed = time.perf_counter() - start
        times.append(elapsed)
        spent += elapsed
    return statistics.median(times) * 1e6


def leapfrog_iteration_call(np, tree: dict):
    """The Bingham study's leapfrog chain at its adapted step, as one run_chain call.

    Burn-in (LEAPFROG_BURN_IN iterations from the mode) adapts the step; the
    timed chain then runs LEAPFROG_ITERATIONS at that step with no burn-in,
    over trajectories of the proposal's path length, scale * leapfrog_steps.
    """
    experiments, sampler = tree["cayley_mcmc.experiments"], tree["cayley_mcmc.sampler"]
    densities = tree["cayley_mcmc.densities"]
    spec = experiments.SpikedDataSpec(n=100, p=50, k=3, sigma2=1.0,
                                      lam=np.array([5.0, 3.0, 1.5]), seed=1)
    dims = tree["cayley_mcmc.cayley"].ManifoldDims(spec.p, spec.k)
    Y, _ = experiments.simulate_spiked_data(spec)
    params = densities.BinghamParams.from_data(Y, spec.sigma2, spec.lam)
    target = densities.PullbackTarget(densities.bingham_log_density(params), dims)
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
    return partial(sampler.run_chain, target, init, proposal, run)


def all_rows(rows, X) -> None:
    value = rows(X)
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


def layer_timers(tree: dict, scratch: Path) -> dict:
    """Per layer, a timer of one tree's call: round -> {"us": median microseconds per call}.

    A layer is left out when building its call raises AttributeError (the
    tree lacks its API); its inputs are drawn first, so the others' still match.
    """
    import numpy as np

    cayley, densities = tree["cayley_mcmc.cayley"], tree["cayley_mcmc.densities"]
    experiments, sampler = tree["cayley_mcmc.experiments"], tree["cayley_mcmc.sampler"]
    jacobian = tree["cayley_mcmc.jacobian"]
    timers = {}

    def add(name, make, per=1):
        try:
            call = make()
        except AttributeError:
            return
        timers[name] = lambda _round: {"us": median_us(call) / per}

    forward = {"stiefel": "cayley_forward_stiefel", "grassmann": "cayley_forward_grassmann"}
    log_j = {"stiefel": "log_jacobian_stiefel", "grassmann": "log_jacobian_block_grassmann"}
    rng = np.random.default_rng(0)
    for p, k in SHAPES:
        dims = cayley.ManifoldDims(p, k)
        params = densities.BinghamParams.from_data(rng.standard_normal((3 * p, p)), 1.0,
                                                   np.linspace(3.0, 1.0, k))
        for manifold in MANIFOLDS:
            at = f"{manifold}.p{p}k{k}"
            uniform = densities.PullbackTarget(densities.uniform_log_density(manifold), dims)
            bingham = densities.PullbackTarget(densities.bingham_log_density(params, manifold),
                                               dims)
            x = point_in_domain(np, rng, manifold, p, k)
            coords = uniform.coords(x)
            run = sampler.RunConfig(iterations=CHAIN_STEPS, burn_in=CHAIN_STEPS // 10, thin=10,
                                    seed=1)
            add(f"target.uniform.{at}", lambda: partial(uniform, x))
            add(f"target.bingham.{at}", lambda: partial(bingham, x))
            add(f"chain_step.uniform.{at}", lambda: partial(
                sampler.run_chain, uniform, x, sampler.default_proposal(uniform), run),
                per=CHAIN_STEPS)
            add(f"forward.{at}", lambda: partial(getattr(cayley, forward[manifold]), coords))
            add(f"log_j.{at}", lambda: partial(getattr(jacobian, log_j[manifold]), coords))
            if manifold == "stiefel":  # G(k,p) targets have no gradient
                add(f"gradient.uniform.{at}", lambda: partial(uniform.gradient, x))
                add(f"gradient.bingham.{at}", lambda: partial(bingham.gradient, x))
                add(f"value_and_gradient.uniform.{at}",
                    lambda: partial(uniform.value_and_gradient, x))
                add(f"value_and_gradient.bingham.{at}",
                    lambda: partial(bingham.value_and_gradient, x))
            for m in STACKS:
                X = np.stack([point_in_domain(np, rng, manifold, p, k) for _ in range(m)])
                add(f"rows.m{m}.uniform.{at}", lambda: partial(all_rows, uniform.rows, X))
            if (manifold, p, k) == FUSED_SHAPE:
                # Its own generator, so that the points of every other layer stay as they were.
                fused_rng = np.random.default_rng(1)
                for m in FUSED_STACKS:
                    X = np.stack([point_in_domain(np, fused_rng, manifold, p, k)
                                  for _ in range(m)])
                    add(f"values_and_gradients.m{m}.uniform.{at}",
                        lambda: partial(uniform.values_and_gradients, X))
                    add(f"values_and_gradients.m{m}.bingham.{at}",
                        lambda: partial(bingham.values_and_gradients, X))
                    add(f"check_frames.m{m}.{at}",
                        lambda: partial(cayley.check_frames, bingham.frames(X)))
                    add(f"value_and_grad_fn.m{m}.bingham.{at}",
                        lambda: partial(bingham.g.value_and_grad_fn, bingham.frames(X)))
    frames_rng = np.random.default_rng(2)  # its own generator, as for the fused layers
    for manifold, p, k, m in FRAMES_STACKS:
        at = f"m{m}.{manifold}.p{p}k{k}"
        target = densities.PullbackTarget(densities.uniform_log_density(manifold),
                                          cayley.ManifoldDims(p, k))
        X = np.stack([point_in_domain(np, frames_rng, manifold, p, k) for _ in range(m)])
        add(f"frames.{at}", lambda: partial(target.frames, X))
        add(f"draws_csv.{at}", lambda: partial(
            experiments.write_draws_csv, scratch / f"{manifold}.csv",
            sampler.SampleBatch(coords_draws=X, manifold_draws=target.frames(X),
                                acceptance_rate=0.0, final_scale=0.0, counters=None),
            manifold))
    add("leapfrog_iteration.bingham.stiefel.p50k3", lambda: leapfrog_iteration_call(np, tree),
        per=LEAPFROG_ITERATIONS)
    return timers


@contextlib.contextmanager
def seconds_inside(cls, names):
    """{name: seconds}: the wall time spent inside each method `names` of `cls` until exit.

    The methods are wrapped on the class while the block runs and put back
    after it.
    """
    spent = dict.fromkeys(names, 0.0)
    methods = {name: cls.__dict__[name] for name in names}

    def timed(name, method):
        def call(*args, **kwargs):
            start = time.perf_counter()
            result = method(*args, **kwargs)
            spent[name] += time.perf_counter() - start
            return result
        return call

    try:
        for name, method in methods.items():
            setattr(cls, name, timed(name, method))
        yield spent
    finally:
        for name, method in methods.items():
            setattr(cls, name, method)


def time_op(modules: dict, workload, scratch: Path, index: int) -> dict:
    """One op of `workload` with one tree's modules, its stdout silenced.

    Returns its wall seconds, the user and system CPU seconds of the child
    processes it reaped, and the wall seconds this process spent inside
    `DrawsWriter.kept` (the posts to the writer's child) and
    `DrawsWriter.write` (the wait for the child, and the file's copy).
    """
    out = scratch / "op"
    argv = workload.argv(OP_SEED, 1000 * OP_SEED + index, out)
    sys.modules.update(modules)
    writer = modules["cayley_mcmc.experiments"].DrawsWriter
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            seconds_inside(writer, ("kept", "write")) as inside:
        start = time.perf_counter()
        code = modules["cayley_mcmc.cli"].parse_and_dispatch(argv)
        wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if code != 0:
        raise SystemExit(f"{argv[0]} exited with {code}")
    shutil.rmtree(out)
    child_cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return {"s": wall, "child_cpu_s": child_cpu, "kept_s": inside["kept"],
            "write_s": inside["write"]}


def paired_rounds(timers: dict, rounds: int) -> tuple[dict, list]:
    """Each tree's measurements in every round, for the names both trees time.

    `timers[tree][name](round)` returns a dict of measurements. After one
    untimed call per name and tree, each round calls every name's two timers
    back to back, the parent first in even rounds and the change first in odd
    ones. Returns {name: {tree: {measurement: [value per round]}}} and the
    sorted names that only one tree has.
    """
    names = [name for name in timers["parent"] if name in timers["change"]]
    skipped = sorted(set(timers["parent"]) ^ set(timers["change"]))
    runs = {name: {tree: {} for tree in TREES} for name in names}
    for name in names:
        for tree in TREES:
            timers[tree][name](0)  # untimed: first calls fill caches
    for index in range(rounds):
        for name in names:
            for tree in (TREES if index % 2 == 0 else TREES[::-1]):
                for measurement, value in timers[tree][name](index).items():
                    runs[name][tree].setdefault(measurement, []).append(value)
        print(f"round {index + 1} of {rounds}", file=sys.stderr, flush=True)
    return runs, skipped


def summary(parent: list, change: list) -> dict:
    """The per-round ratios change / parent, their median and quartiles, and the change's wins."""
    ratios = [c / p for c, p in zip(change, parent)]
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    return {
        "ratios": [round(r, 4) for r in ratios],
        "median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
        "quartiles_exclude_1": q3 < 1.0 or q1 > 1.0,
        "change_faster_rounds": sum(r < 1.0 for r in ratios),
    }


def compare(timers: dict, unit: str) -> dict:
    """The paired rounds of every name both trees time, each summarized by its `unit` times."""
    runs, skipped = paired_rounds(timers, ROUNDS)
    results = {}
    for name, trees in runs.items():
        entry = {tree: {measurement: [round(v, 4) for v in values]
                        for measurement, values in trees[tree].items()} for tree in TREES}
        entry.update(summary(trees["parent"][unit], trees["change"][unit]))
        results[name] = entry
        print(f"{name:<48} change / parent {entry['median']:.3f} "
              f"({entry['q1']:.3f}-{entry['q3']:.3f}), "
              f"faster in {entry['change_faster_rounds']} of {len(entry['ratios'])}")
    for name in skipped:
        print(f"{name:<48} skipped: only one tree has it")
    return {"skipped": skipped, "results": results}


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
    each tree's modules hold only each other; the package imports none of its
    own modules inside a function, so its calls never reach the other tree's.
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="checkout of the parent tree, whose src is compared with this one's")
    parser.add_argument("--ops", nargs="+", metavar="WORKLOAD",
                        help="time these benchmark workloads' ops in place of the layers")
    parser.add_argument("--out", required=True, type=Path, help="json file to create or update")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    trees = {"parent": load_tree((args.parent / "src").resolve()), "change": load_tree(SRC)}
    with tempfile.TemporaryDirectory() as scratch:
        if args.ops:
            sys.path.insert(0, str(SRC.parent / "benchmark"))
            import workloads  # read only: the ops' command lines

            timers = {tree: {name: partial(time_op, modules, workloads.WORKLOADS[name],
                                           Path(scratch)) for name in args.ops}
                      for tree, modules in trees.items()}
            section = compare(timers, "s")
            section["unit"] = ("s: wall seconds per op; child_cpu_s: CPU seconds of the "
                               "op's reaped children; kept_s and write_s: wall seconds the "
                               "op spent inside DrawsWriter.kept and DrawsWriter.write; "
                               "ratio = change / parent per round")
        else:
            timers = {tree: layer_timers(modules, Path(scratch))
                      for tree, modules in trees.items()}
            section = compare(timers, "us")
            section["unit"] = ("us: median microseconds per call in one measurement; "
                               "ratio = change / parent per round")
            section["descriptions"] = LAYERS
    section["environment"] = environment()
    section["wall_s"] = round(time.perf_counter() - start, 1)
    doc = json.loads(args.out.read_text()) if args.out.is_file() else {}
    doc["ops" if args.ops else "layers"] = section
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
