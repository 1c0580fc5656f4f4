"""The benchmark's workloads: the CLI command of one op and the check of its outputs.

Each op is one ``cayley_mcmc.cli.parse_and_dispatch`` call. Its check reads
only what the op wrote under ``--out`` and compares it with an oracle that
does not share the op's code path. Statistical gates are tied to the op's own
measured ESS, so a short chain is judged by what it can resolve.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import special, stats

from cayley_mcmc.cayley import GrassmannCoords, ManifoldDims
from cayley_mcmc.densities import PullbackTarget, uniform_log_density
from cayley_mcmc.experiments import SpikedDataSpec, simulate_spiked_data
from cayley_mcmc.jacobian import derivative_grassmann, log_jacobian_naive

# DKW: P(KS > c / sqrt(n)) <= 2 exp(-2 c^2) = 1e-6 for n independent draws.
# Thousands of ops run per benchmark campaign, so a 1 % gate would fail some
# correct ops by chance; with MCMC draws n is the op's measured ESS.
KS_C = math.sqrt(math.log(2e6) / 2.0)
ORTHO_TOL = 1e-10
SPD_EIG_CUTOFF = 1e-12
LOG_TARGET_TOL = 1e-8
ACF_MAX_LAG = 200
TV_MERGE = 5


def ess(x) -> float:
    """n / (1 + 2 * sum of autocorrelations before the first non-positive lag).

    The same initial-positive truncation as ``diagnostics.acf_ess`` (lags up
    to 200), kept here so that the benchmark's definition does not move when
    the library's does.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    xc = x - x.mean()
    if n < 2 or not np.any(xc):
        raise ValueError("monitored scalar is constant: the chain did not move")
    spec = np.fft.rfft(xc, 2 * n)
    acov = np.fft.irfft(spec * np.conj(spec))[: min(n - 1, ACF_MAX_LAG) + 1]
    rho = acov[1:] / acov[0]
    nonpos = np.flatnonzero(rho <= 0)
    tail = rho[: nonpos[0]] if nonpos.size else rho
    return float(min(n, n / (1.0 + 2.0 * tail.sum())))


def ks(samples, cdf) -> float:
    """Kolmogorov-Smirnov distance between the sample's ECDF and `cdf`."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.shape[0]
    F = cdf(x)
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - F), np.max(F - (grid - 1.0 / n))))


def entry_cdf(p: int):
    """Exact CDF of one entry of a uniform unit vector in R^p.

    The entry's square is Beta(1/2, (p-1)/2) and its sign is symmetric; this
    is the law ``densities.EntryMarginal`` integrates numerically.
    """
    return lambda x: 0.5 + 0.5 * np.sign(x) * special.betainc(0.5, 0.5 * (p - 1), x * x)


def read_draws(out: Path, p: int, k: int, d: int):
    """Coordinates (n, d) and frames (n, p, k) from a draws.csv."""
    data = np.loadtxt(out / "draws.csv", delimiter=",", comments="#", ndmin=2)
    if data.shape[1] != d + p * k:
        raise ValueError(f"draws.csv has {data.shape[1]} columns, expected {d + p * k}")
    frames = data[:, d:].reshape(-1, k, p).transpose(0, 2, 1)  # column-major Q
    return data[:, :d], frames


def orthonormality_error(frames) -> float:
    k = frames.shape[2]
    gram = np.einsum("nij,nil->njl", frames, frames)
    return float(np.max(np.abs(gram - np.eye(k))))


def at_most(value: float, limit: float) -> dict:
    return {"value": float(value), "at_most": float(limit), "ok": bool(value <= limit)}


def at_least(value: float, limit: float) -> dict:
    return {"value": float(value), "at_least": float(limit), "ok": bool(value >= limit)}


@dataclass
class OpCheck:
    """What one op's outputs showed: the ESS of its monitored scalar and each gate."""

    ess: float
    gates: dict
    extra: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(g["ok"] for g in self.gates.values())


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[int, int, Path], list]  # (workload seed, op seed, out dir)
    iterations: int  # chain steps (burn-in included) or coupling replicates per op
    check: Callable[[Path, int], OpCheck]  # (out dir, workload seed)


# --- bingham-hmc ------------------------------------------------------------

BINGHAM = dict(n=100, p=50, k=3, sigma2=1.0, lam=(5.0, 3.0, 1.5), iters=150, burn=50)


def _bingham_argv(seed: int, op_seed: int, out: Path) -> list:
    b = BINGHAM
    return ["bingham-exp", "--n", str(b["n"]), "--p", str(b["p"]), "--k", str(b["k"]),
            "--sigma2", str(b["sigma2"]), "--lambda", ",".join(map(str, b["lam"])),
            "--iters", str(b["iters"]), "--burn", str(b["burn"]),
            "--data-seed", str(seed), "--seed", str(op_seed), "--out", str(out)]


def _bingham_mode(seed: int) -> np.ndarray:
    """Top-k eigenvectors of Y^T Y for the data the op simulates from `seed`."""
    b = BINGHAM
    spec = SpikedDataSpec(n=b["n"], p=b["p"], k=b["k"], sigma2=b["sigma2"],
                          lam=np.array(b["lam"]), seed=seed)
    Y, _ = simulate_spiked_data(spec)
    w, V = np.linalg.eigh(Y.T @ Y)
    return V[:, np.argsort(w)[::-1][: b["k"]]]


def _merge_bins(counts) -> np.ndarray:
    counts = np.asarray(counts, dtype=float)
    return np.add.reduceat(counts, np.arange(0, counts.size, TV_MERGE))


def _bingham_check(out: Path, seed: int) -> OpCheck:
    """Between-chain TV of theta_1 against twice the Cauchy-Schwarz bound on its mean.

    The report's 30-bin histograms of the two chains are merged into bins of
    TV_MERGE. For two independent histograms of m draws each over B occupied
    bins, E[TV] <= sqrt(B / (2 m)); the gate is twice that, with m the ESS of
    chain 0's theta_1 from draws.csv (chain 1 is not written out).
    """
    b = BINGHAM
    p, k = b["p"], b["k"]
    hist = json.loads((out / "report.json").read_text())["histograms"]
    _, frames = read_draws(out, p, k, ManifoldDims(p, k).d_v)
    mode = _bingham_mode(seed)
    theta1 = np.arccos(np.clip(np.abs(frames[:, :, 0] @ mode[:, 0]), 0.0, 1.0))
    m = ess(theta1)
    h0, h1 = (_merge_bins(hist[f"theta1_chain{c}"]["counts"]) for c in (0, 1))
    tv = 0.5 * float(np.sum(np.abs(h0 / h0.sum() - h1 / h1.sum())))
    occupied = int(np.count_nonzero(h0 + h1))
    return OpCheck(ess=m, gates={"theta1_tv": at_most(tv, 2.0 * math.sqrt(occupied / (2.0 * m)))})


# --- uniform-rw -------------------------------------------------------------

UNIFORM = dict(p=50, k=3, draws=2000, thin=10, burn=2000)


def _uniform_argv(seed: int, op_seed: int, out: Path) -> list:
    u = UNIFORM
    return ["uniform-exp", "--p", str(u["p"]), "--k", str(u["k"]), "--draws", str(u["draws"]),
            "--thin", str(u["thin"]), "--burn", str(u["burn"]), "--seed", str(op_seed),
            "--out", str(out)]


def _uniform_check(out: Path, seed: int) -> OpCheck:
    """KS of Q[0,0] against its exact law and of the scaled first coordinate against N(0,1)."""
    u = UNIFORM
    p, k = u["p"], u["k"]
    coords, frames = read_draws(out, p, k, ManifoldDims(p, k).d_v)
    entry = frames[:, 0, 0]
    scaled = math.sqrt(p / 2.0) * coords[:, 0]
    m_entry, m_scaled = ess(entry), ess(scaled)
    return OpCheck(ess=m_entry, gates={
        "entry_ks": at_most(ks(entry, entry_cdf(p)), KS_C / math.sqrt(m_entry)),
        "scaled_coordinate_ks": at_most(ks(scaled, stats.norm.cdf), KS_C / math.sqrt(m_scaled)),
    })


# --- grassmann-rw -----------------------------------------------------------

GRASSMANN = dict(p=20, k=4, iters=20000, burn=2000, thin=10, log_target_points=3)


def _grassmann_argv(seed: int, op_seed: int, out: Path) -> list:
    g = GRASSMANN
    return ["sample", "--manifold", "grassmann", "--target", "uniform",
            "--p", str(g["p"]), "--k", str(g["k"]), "--iters", str(g["iters"]),
            "--burn", str(g["burn"]), "--thin", str(g["thin"]), "--seed", str(op_seed),
            "--out", str(out)]


def _grassmann_check(out: Path, seed: int) -> OpCheck:
    """Every draw an orthonormal frame with SPD top block; log target equal to the naive log J.

    Also reports mean P11 - k/p, where P11 = ||Q[0,:]||^2 has mean exactly
    k/p under the uniform law on G(k,p). Not gated: the sampler's Grassmann
    "uniform" target is known not to be uniform for k >= 2.
    """
    g = GRASSMANN
    p, k = g["p"], g["k"]
    dims = ManifoldDims(p, k)
    coords, frames = read_draws(out, p, k, dims.d_g)
    top = frames[:, :k, :]
    asym = float(np.max(np.abs(top - top.transpose(0, 2, 1))))
    min_eig = float(np.min(np.linalg.eigvalsh(0.5 * (top + top.transpose(0, 2, 1)))))
    target = PullbackTarget(uniform_log_density("grassmann"), dims)
    picks = np.linspace(0, coords.shape[0] - 1, g["log_target_points"]).astype(int)
    log_target_err = max(
        abs(target(coords[i]) - log_jacobian_naive(derivative_grassmann(
            GrassmannCoords.from_vector(dims, coords[i]))))
        for i in picks)
    p11 = np.sum(frames[:, 0, :] ** 2, axis=1)
    return OpCheck(ess=ess(p11), gates={
        "orthonormality_error": at_most(orthonormality_error(frames), ORTHO_TOL),
        "top_block_asymmetry": at_most(asym, ORTHO_TOL),
        "top_block_min_eig": at_least(min_eig, SPD_EIG_CUTOFF),
        "log_target_vs_naive": at_most(log_target_err, LOG_TARGET_TOL),
    }, extra={"p11_mean_gap": float(p11.mean() - k / p)})


# --- coupling ---------------------------------------------------------------

COUPLING = dict(k=3, p_grid=(50, 200, 800), replicates=50)


def _coupling_argv(seed: int, op_seed: int, out: Path) -> list:
    c = COUPLING
    return ["normal-approx-exp", "--k", str(c["k"]), "--p-grid", ",".join(map(str, c["p_grid"])),
            "--replicates", str(c["replicates"]), "--seed", str(op_seed), "--out", str(out)]


def _coupling_check(out: Path, seed: int) -> OpCheck:
    """Medians strictly decrease in p; pooled z at the smallest p passes KS against N(0,1).

    The pooled z are replicates x d_V exactly independent standard normals,
    so the KS gate uses that count. Every replicate is an exact Haar draw,
    so the op's ESS is its replicate count.
    """
    c = COUPLING
    metrics = json.loads((out / "report.json").read_text())["metrics"]
    medians = metrics["epsilon_medians"]
    steps_up = sum(1 for a, b in zip(medians, medians[1:]) if b >= a)
    n_z = c["replicates"] * ManifoldDims(min(c["p_grid"]), c["k"]).d_v
    return OpCheck(ess=float(c["replicates"] * len(c["p_grid"])), gates={
        "median_non_decreases": at_most(steps_up, 0),
        "pooled_z_ks": at_most(metrics["ks_pooled_z_smallest_p"], KS_C / math.sqrt(n_z)),
    })


WORKLOADS = {w.name: w for w in (
    Workload("bingham-hmc", _bingham_argv, 2 * BINGHAM["iters"], _bingham_check),
    Workload("uniform-rw", _uniform_argv, UNIFORM["burn"] + UNIFORM["draws"] * UNIFORM["thin"],
             _uniform_check),
    Workload("grassmann-rw", _grassmann_argv, GRASSMANN["iters"], _grassmann_check),
    Workload("coupling", _coupling_argv, COUPLING["replicates"] * len(COUPLING["p_grid"]),
             _coupling_check),
)}
