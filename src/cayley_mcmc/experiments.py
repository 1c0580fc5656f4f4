"""End-to-end studies: uniform sampling, the spiked-covariance Bingham
posterior, and the normal-approximation coupling, with structured reports.

Each run is deterministic given its seed. Reports are JSON-compatible
dictionaries; retained draws go to CSV with full double precision. Nothing
written depends on wall-clock time, so re-runs with identical inputs
produce byte-identical outputs.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import tempfile
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np
from scipy import stats

from .cayley import ManifoldDims, StiefelPoint
from .densities import (
    BinghamParams,
    EntryMarginal,
    LogDensity,
    PullbackTarget,
    bingham_log_density,
    uniform_log_density,
)
from .diagnostics import (
    acf_ess,
    coupling_epsilon,
    haar_stiefel,
    ks_statistic,
    principal_angles,
)
from .sampler import (
    ProposalConfig,
    RunConfig,
    SampleBatch,
    default_proposal,
    init_from_manifold,
    run_chain,
    run_chains,
)

__all__ = [
    "SpikedDataSpec",
    "ExperimentReport",
    "simulate_spiked_data",
    "run_uniform_experiment",
    "run_bingham_experiment",
    "run_normal_approx_experiment",
    "write_draws_csv",
    "read_draws_csv",
    "write_report",
]


@dataclass(frozen=True)
class SpikedDataSpec:
    """Data-generating settings for the spiked covariance model."""

    n: int
    p: int
    k: int
    sigma2: float
    lam: np.ndarray
    seed: int = 0

    def __post_init__(self):
        lam = np.atleast_1d(np.asarray(self.lam, dtype=float))
        if self.n < 1:
            raise ValueError("n must be >= 1")
        ManifoldDims(self.p, self.k)  # the one (p, k) check
        # Written so that NaN and inf fail each test.
        if (lam.shape != (self.k,) or not np.all((0 < lam) & (lam < np.inf))
                or not np.all(np.diff(lam) < 0)):
            raise ValueError("lambda must be a strictly decreasing positive k-vector")
        if not 0 < self.sigma2 < np.inf:
            raise ValueError("sigma2 must be positive")
        object.__setattr__(self, "lam", lam)


@dataclass
class ExperimentReport:
    """Named metric table plus histogram bin data for one experiment run."""

    name: str
    config: dict
    metrics: dict
    histograms: dict = field(default_factory=dict)


def simulate_spiked_data(spec: SpikedDataSpec):
    """Draw Q_true ~ Haar and rows of Y iid N(0, sigma^2 (Q L Q^T + I))."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    Q_true = haar_stiefel(spec.p, spec.k, rng)
    Sigma = spec.sigma2 * (Q_true.Q @ np.diag(spec.lam) @ Q_true.Q.T + np.eye(spec.p))
    w, V = np.linalg.eigh(Sigma)
    root = V @ np.diag(np.sqrt(np.maximum(w, 0.0))) @ V.T
    Y = rng.standard_normal((spec.n, spec.p)) @ root
    return Y, Q_true


def _histogram(values: np.ndarray, bins: int, lo: float, hi: float) -> dict:
    counts, edges = np.histogram(values, bins=bins, range=(lo, hi))
    return {"counts": counts.tolist(), "edges": edges.tolist()}


def run_uniform_experiment(p: int, k: int, draws: int, seed: int,
                           thin: int = 10, burn_in: Optional[int] = None,
                           out_dir: Optional[str] = None) -> ExperimentReport:
    """Sample the uniform distribution on V(k,p) and compare exact marginals.

    Reports the KS distance of the top-left entry of Q against the exact
    single-entry marginal, and of the scaled first coordinate of phi
    against a standard normal.
    """
    dims = ManifoldDims(p, k)
    target = PullbackTarget(uniform_log_density("stiefel"), dims)
    burn = burn_in if burn_in is not None else max(2000, 2 * dims.d_v)
    run_cfg = RunConfig(iterations=burn + draws * thin, burn_in=burn, thin=thin, seed=seed)
    batch = run_chain(target, np.zeros(dims.d_v), default_proposal(target), run_cfg)

    entry = batch.manifold_draws[:, 0, 0]
    marginal = EntryMarginal(p)
    ks_entry = ks_statistic(entry, marginal.cdf)

    scale_first = np.sqrt(p / 2.0) if dims.n_b > 0 else np.sqrt(float(p))
    first_scaled = scale_first * batch.coords_draws[:, 0]
    ks_normal = ks_statistic(first_scaled, stats.norm.cdf)

    report = ExperimentReport(
        name="uniform",
        config={"p": p, "k": k, "draws": draws, "seed": seed, "thin": thin,
                "burn_in": burn, "iterations": run_cfg.iterations},
        metrics={
            "ks_top_left_entry": ks_entry,
            "ks_scaled_first_coordinate": ks_normal,
            "acceptance_rate": batch.acceptance_rate,
            "ess_top_left_entry": acf_ess(entry).ess,
            "n_draws": int(entry.shape[0]),
            "counters": asdict(batch.counters),
        },
        histograms={
            "top_left_entry": _histogram(entry, 40, -1.0, 1.0),
            "scaled_first_coordinate": _histogram(first_scaled, 40, -5.0, 5.0),
        },
    )
    if out_dir is not None:
        _persist(out_dir, report, batch, manifold="stiefel")
    return report


# The Bingham posterior concentrates sharply, so a random walk would need far
# more than the configured step budget to mix; leapfrog trajectories with the
# analytic pullback gradient keep the effective sample size usable. The path
# 0.02 * 20 = 0.4 is about the half-period pi / sqrt(56) of the slowest
# direction at the mode of the p = 50, k = 3 study (smallest eigenvalue 56
# of the negative Hessian); the leapfrog step is stable only below
# 2 / sqrt(856) ~ 0.068, and burn-in tunes it by dual averaging.
BINGHAM_PROPOSAL = ProposalConfig(kind="leapfrog", scale=0.02, leapfrog_steps=20)


def _safe_frame(V: np.ndarray, dims: ManifoldDims) -> StiefelPoint:
    """Orient eigenvector columns so the inverse Cayley map is well-posed."""
    W = V.copy()
    for j in range(W.shape[1]):
        if W[j, j] < 0:
            W[:, j] = -W[:, j]
    return StiefelPoint(dims=dims, Q=W)


def run_bingham_experiment(spec: SpikedDataSpec, run: RunConfig,
                           out_dir: Optional[str] = None) -> ExperimentReport:
    """Two-chain self-consistency study of the matrix Bingham posterior.

    One chain starts at the posterior mode frame (top-k eigenvectors of
    Y^T Y), the other at an independent Haar frame; agreement of their
    first-principal-angle histograms is the convergence check.
    """
    dims = ManifoldDims(spec.p, spec.k)
    Y, Q_true = simulate_spiked_data(spec)
    params = BinghamParams.from_data(Y, spec.sigma2, spec.lam)
    target = PullbackTarget(bingham_log_density(params), dims)

    w, vecs = np.linalg.eigh(params.S)
    order = np.argsort(w)[::-1][: spec.k]
    mode = _safe_frame(vecs[:, order], dims)

    rng_init = np.random.Generator(np.random.PCG64(spec.seed + 1))
    haar_init = haar_stiefel(spec.p, spec.k, rng_init)

    # Chain i is seeded run.seed + i; the two advance in lockstep.
    chains = run_chains(target, np.stack([init_from_manifold(mode), init_from_manifold(haar_init)]),
                        BINGHAM_PROPOSAL, run)
    angle_series = [np.array([principal_angles(Qd, mode.Q) for Qd in batch.manifold_draws])
                    for batch in chains]

    bins = 30
    hi = float(np.pi / 2)
    hists = [np.histogram(a[:, 0], bins=bins, range=(0.0, hi))[0] for a in angle_series]
    tv = 0.5 * float(np.sum(np.abs(hists[0] / hists[0].sum() - hists[1] / hists[1].sum())))

    diag0 = acf_ess(angle_series[0][:, 0])
    metrics = {
        "theta1_tv_between_chains": tv,
        "theta1_lag1_acf": float(diag0.acf[1]),
        "theta1_ess_chain0": diag0.ess,
        "theta1_mean_chain0": float(angle_series[0][:, 0].mean()),
        "acceptance_rates": [c.acceptance_rate for c in chains],
        "final_scales": [c.final_scale for c in chains],
        "n_draws_per_chain": int(angle_series[0].shape[0]),
        "counters": [asdict(c.counters) for c in chains],
    }
    histograms = {
        f"theta{j + 1}_chain{i}": _histogram(a[:, j], bins, 0.0, hi)
        for i, a in enumerate(angle_series) for j in range(spec.k)
    }
    report = ExperimentReport(
        name="bingham",
        config={"n": spec.n, "p": spec.p, "k": spec.k, "sigma2": spec.sigma2,
                "lambda": spec.lam.tolist(), "seed": spec.seed,
                "iterations": run.iterations, "burn_in": run.burn_in,
                "thin": run.thin, "chain_seed": run.seed},
        metrics=metrics,
        histograms=histograms,
    )
    if out_dir is not None:
        _persist(out_dir, report, chains[0], manifold="stiefel")
    return report


def run_normal_approx_experiment(k: int, p_grid, replicates: int, seed: int,
                                 out_dir: Optional[str] = None) -> ExperimentReport:
    """Tabulate the coupling error over a grid of p at fixed k.

    Emits median and 90th-percentile epsilon per p, a monotonicity verdict
    for the medians, and a pooled KS of the Gaussian-matched coordinates
    at the smallest p.
    """
    p_grid = [int(p) for p in p_grid]
    if k >= min(p_grid):
        raise ValueError("require k < min(p_grid)")
    medians, q90s = [], []
    pooled_z = []
    for pi, p in enumerate(p_grid):
        rng = np.random.Generator(np.random.PCG64(seed + 1000 * pi))
        eps = []
        for _ in range(replicates):
            res = coupling_epsilon(p, k, rng)
            eps.append(res.epsilon)
            if pi == 0:
                pooled_z.append(res.z)
        medians.append(float(np.median(eps)))
        q90s.append(float(np.quantile(eps, 0.9)))
    z_all = np.concatenate(pooled_z)
    ks_z = ks_statistic(z_all, stats.norm.cdf)
    monotone = bool(np.all(np.diff(medians) < 0))

    report = ExperimentReport(
        name="normal-approx",
        config={"k": k, "p_grid": p_grid, "replicates": replicates, "seed": seed},
        metrics={
            "epsilon_medians": medians,
            "epsilon_q90": q90s,
            "medians_strictly_decreasing": monotone,
            "ks_pooled_z_smallest_p": ks_z,
        },
        histograms={"pooled_z": _histogram(z_all, 40, -5.0, 5.0)},
    )
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_report(report, out)
    return report


# A file of at least this many numbers is written by two processes. A fork
# round trip (fork, the child's _exit, waitpid) was measured at 3.5-4.7 ms
# (10 ms at worst) in a 108 MB process after a uniform-exp op, and `repr`
# formats a float in about 0.9 us (2 vCPUs, Python 3.11). A second process
# saves half the formatting, so it pays from about 2 x 5 ms / 0.9 us = 11 000
# numbers on; the floor leaves a ten-fold margin for the copy-on-write faults
# and the appended copy: each part holds at least 50 000 numbers, about 45 ms
# of formatting.
SPLIT_FLOOR_FLOATS = 100_000


def _usable_cpus() -> int:
    """CPUs this process may run on (1 where the platform cannot tell)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def _write_rows(fh, batch: SampleBatch, rows: range) -> None:
    """Draws `rows` as CSV lines: coordinates, then flattened Q (column-major)."""
    for i in rows:
        row = np.concatenate([batch.coords_draws[i],
                              batch.manifold_draws[i].reshape(-1, order="F")])
        fh.write(",".join(map(repr, row.tolist())) + "\n")


def _write_rows_in_two_processes(fh, batch: SampleBatch, directory: Path) -> None:
    """`_write_rows` over every draw, the later half formatted by a forked child.

    The child writes rows [cut, n) to an unnamed temporary file in
    `directory` while this process writes rows [0, cut) to `fh`; the child's
    rows are then appended. The child leaves through `os._exit`, so no buffer
    it inherited (`fh`'s header, stdout) is flushed twice, and it is reaped
    on every path, this process's exceptions included.
    """
    n = batch.coords_draws.shape[0]
    cut = n // 2
    with tempfile.TemporaryFile("w+", dir=directory) as tail:
        # Python 3.12 warns at a fork in a process with threads (BLAS pools
        # here). The child calls no BLAS, only numpy copies and `repr`, and a
        # warning would change stderr, or under -W error lose the child's pid.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                _write_rows(tail, batch, range(cut, n))
                tail.flush()
                code = 0
            finally:
                os._exit(code)
        status = None
        try:
            _write_rows(fh, batch, range(cut))
            status = os.waitpid(pid, 0)[1]
        finally:
            if status is None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        if status:
            raise OSError(f"the process writing draws {cut} to {n - 1} exited with status "
                          f"{os.waitstatus_to_exitcode(status)}")
        tail.seek(0)
        shutil.copyfileobj(tail, fh)


def write_draws_csv(path, batch: SampleBatch, manifold: str) -> None:
    """One row per retained draw: coordinates, then flattened Q (column-major).

    A file of at least `SPLIT_FLOOR_FLOATS` numbers, written by a process
    that may run on two CPUs or more, is formatted by two processes; the
    bytes are the same either way.
    """
    path = Path(path)
    n, d = batch.coords_draws.shape
    p, k = batch.manifold_draws.shape[1:]
    with path.open("w") as fh:
        fh.write(f"# manifold={manifold} p={p} k={k} n_coords={d}\n")
        if n * (d + p * k) >= SPLIT_FLOOR_FLOATS and _usable_cpus() >= 2:
            _write_rows_in_two_processes(fh, batch, path.parent)
        else:
            _write_rows(fh, batch, range(n))


def read_draws_csv(path):
    """Read a draws file back into (header dict, coords array, Q array)."""
    path = Path(path)
    with path.open() as fh:
        header_line = fh.readline().strip()
        if not header_line.startswith("# "):
            raise ValueError(f"{path}: missing draws header")
        header = dict(item.split("=") for item in header_line[2:].split())
        header = {key: (val if key == "manifold" else int(val)) for key, val in header.items()}
        rows = [np.array([float(x) for x in line.split(",")]) for line in fh if line.strip()]
    d, p, k = header["n_coords"], header["p"], header["k"]
    # A file with no draws still reads as (0, d) coords and (0, p, k) frames.
    data = np.vstack(rows) if rows else np.empty((0, d + p * k))
    points = np.array([row[d:].reshape((p, k), order="F") for row in data]).reshape(-1, p, k)
    return header, data[:, :d], points


def write_report(report: ExperimentReport, out_dir) -> Path:
    """Serialize the report as pretty JSON with sorted keys."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "report.json"
    path.write_text(json.dumps(asdict(report), indent=2, sort_keys=True) + "\n")
    return path


def _persist(out_dir, report: ExperimentReport, batch: SampleBatch, manifold: str) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_report(report, out)
    write_draws_csv(out / "draws.csv", batch, manifold=manifold)
