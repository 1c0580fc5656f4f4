"""End-to-end studies: uniform sampling, the spiked-covariance Bingham
posterior, and the normal-approximation coupling, with structured reports.

Each run is deterministic given its seed. Reports are JSON-compatible
dictionaries; retained draws go to CSV with full double precision. Nothing
written depends on wall-clock time, so re-runs with identical inputs
produce byte-identical outputs.
"""

from __future__ import annotations

import json
import mmap
import os
import select
import shutil
import signal
import tempfile
import warnings
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np
import orjson
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
    "DrawsWriter",
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
    with _draws_sink(target, run_cfg, out_dir) as writer:
        batch = run_chain(target, np.zeros(dims.d_v), default_proposal(target), run_cfg,
                          writer)

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
            _persist(out_dir, report, batch, manifold="stiefel", writer=writer)
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

    with _draws_sink(target, run, out_dir) as writer:
        # Chain i is seeded run.seed + i; the two advance in lockstep.
        inits = np.stack([init_from_manifold(mode), init_from_manifold(haar_init)])
        chains = run_chains(target, inits, BINGHAM_PROPOSAL, run, writer)
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
            _persist(out_dir, report, chains[0], manifold="stiefel", writer=writer)
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


# A file of at least this many numbers is formatted by two processes. A fork
# round trip (fork, the child's _exit, waitpid) was measured at 4.1-7.6 ms
# (3.5-10 ms over earlier runs) in a 110 MB process after a uniform-exp op,
# and `_lines` formats a number in 0.07-0.16 us, 7.5-10 times faster than
# `repr` in paired timings (2 vCPUs, Python 3.11, orjson 3.8); both costs
# rise together in the host's slow phases. The child formats rows while the
# chain still runs and half of those left when it ends, so it saves between
# half and all of the formatting: it pays from between about 55 000 numbers
# (4.3 ms / 0.08 us, or 7.4 ms / 0.135 us) and twice that on. The floor sits
# in that range; every floor from 55 000 to 250 000 forks for uniform-rw
# (594 000 numbers) and grassmann-rw (259 200) and leaves bingham-hmc
# (29 700) in one process.
SPLIT_FLOOR_FLOATS = 100_000

# Kept rows per post from the chain to the writing child, and per stacked
# frame map in the child. A post is one 8-byte pipe write, and 100 rows of
# V(3,50) take about 2-4 ms to format.
KEPT_CHUNK = 100
# Numbers per orjson call in `_lines` (at least one row). Its text takes about
# 20 bytes a number, and the rows split from it as much again: blocks of 100
# V(3,50) rows raised the peak RSS of a process formatting 200 by 1.6-2.1 MB,
# blocks of 4 096 numbers (13 rows) by at most 0.15 MB, at the same speed.
FORMAT_NUMBERS = 4096
# The post that asks the child for its stop row; every other post is a count
# of stored rows. Not EOF: a child forked by another writer meanwhile holds a
# copy of this pipe's write end, which would delay the EOF until it exits.
ASK_STOP = -1


def _usable_cpus() -> int:
    """CPUs this process may run on (1 where the platform cannot tell)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def _in_two_processes(numbers: int) -> bool:
    """Whether a draws file of `numbers` numbers is formatted by a second process."""
    return numbers >= SPLIT_FLOOR_FLOATS and _usable_cpus() >= 2


def _lines(coords: np.ndarray, frames: np.ndarray):
    """The CSV line of each draw, as bytes: coordinates, then the frame flattened column-major.

    The numbers are Python's shortest round-trip `repr`. orjson prints the
    same digits 7.5-10 times faster, one call per block of at most
    FORMAT_NUMBERS numbers; the numbers it may spell differently (non-finite,
    or below 1e-4 or from 1e16 up in magnitude) are put back with `repr`.
    """
    step = max(1, FORMAT_NUMBERS // (coords.shape[1] + frames.shape[1] * frames.shape[2]))
    for start in range(0, len(coords), step):
        x, Q = coords[start:start + step], frames[start:start + step]
        block = np.concatenate([x, Q.transpose(0, 2, 1).reshape(len(Q), -1)], axis=1)
        # "[[row],[row]]": each row's text follows a "[" and ends "]," or, the last, "]]".
        # (A split at one byte is faster than one at "],[".)
        rows = [row[:-2] for row in
                orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY).split(b"[")[2:]]
        size = np.abs(block)
        # NaN fails both tests, so it is respelled too; so is 0, spelled alike.
        respell = ~((size >= 1e-4) & (size < 1e16))
        for i in np.flatnonzero(respell.any(axis=1)):
            fields = rows[i].split(b",")
            for j in np.flatnonzero(respell[i]):
                fields[j] = repr(float(block[i, j])).encode()
            rows[i] = b",".join(fields)
        for row in rows:
            yield row + b"\n"


class DrawsWriter:
    """The lines of draws.csv, formatted by a second process as a chain keeps the draws.

    `coords` (n, d) holds the draws: all of them from the start (`ready` =
    n), or, as the sink of `run_chains` (`for_chain`), the rows a chain
    keeps, each announced by `kept(r)` once stored. `frames_of(rows)` gives
    the frames of `coords[rows]` for a slice `rows`.

    With `fork`, a child forked at construction formats the rows from row 0
    on into an unnamed spool file as they are posted, every KEPT_CHUNK rows,
    and maps each block of them to frames with `frames_of`; it blocks only
    when it has caught up. Rows are independent, so a block's frames are
    the same bits as the chain's one stacked map. `write` posts ASK_STOP;
    the child then names the row it stops at, half-way through the rows it
    has not written, and goes on up to it, while this process
    formats the rows from there on from the batch's validated frames. The
    file is the header, the spool and those rows, written only once the
    child has exited with status 0. Without `fork`, `write` formats every
    row itself.

    Leaving the writer's `with` block kills and reaps a child still
    running, so a chain that raises leaves no process and no file behind.
    """

    def __init__(self, coords: np.ndarray, frames_of: Callable[[slice], np.ndarray],
                 ready: int, fork: bool):
        self.coords = coords
        self._frames_of = frames_of
        self._ready = ready
        self._pid = self._posts = self._reply = self._spool = None
        if fork:
            self._fork()

    @classmethod
    def for_chain(cls, target: PullbackTarget, run: RunConfig) -> "DrawsWriter":
        """The sink of the draws one chain of `run` keeps on `target`; no row is ready yet."""
        n, d = (run.iterations - run.burn_in) // run.thin, target.dim
        fork = _in_two_processes(n * (d + target.dims.p * target.dims.k))
        # Shared with the child, which reads each row the chain stores.
        coords = (np.frombuffer(mmap.mmap(-1, n * d * 8)).reshape(n, d) if fork
                  else np.empty((n, d)))
        return cls(coords, lambda rows: target._frames(coords[rows]), 0, fork)

    def __enter__(self) -> "DrawsWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def kept(self, count: int) -> None:
        """The first `count` rows are stored: posted at each KEPT_CHUNK and at the last row."""
        if self._posts is not None and (count % KEPT_CHUNK == 0 or count == len(self.coords)):
            self._post(count)

    def _post(self, message: int) -> None:
        try:
            os.write(self._posts, message.to_bytes(8, "little", signed=True))
        except BrokenPipeError:
            pass  # the child has died; `write` raises with its exit status

    def _fork(self) -> None:
        posts, self._posts = os.pipe()
        self._reply, reply = os.pipe()
        self._spool = tempfile.TemporaryFile()
        # Python 3.12 warns at a fork in a process with threads (BLAS pools
        # here), which would change stderr, or under -W error lose the
        # child's pid. The child's BLAS calls are tested under two threads.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                # With the parent's end closed here too, EOF means the parent is gone.
                os.close(self._posts)
                os.close(self._reply)
                self._format_posted(posts, reply)
                code = 0
            finally:
                # Flushes no buffer it inherited (stdout), runs no exit handler.
                os._exit(code)
        self._pid = pid
        os.close(posts)
        os.close(reply)

    def _format_posted(self, posts: int, reply: int) -> None:
        """The child's part: rows from 0 on as they are posted, up to the row it names.

        It names that row when ASK_STOP comes and leaves only there, or, with
        status 1, at EOF: the parent is gone.
        """
        ready, row, stop = self._ready, 0, None
        lines, block_end = None, 0
        while stop is None or row < stop:
            if stop is None and select.select([posts], [], [], 0 if row < ready else None)[0]:
                # Whole 8-byte posts: a pipe write that small is atomic.
                message = os.read(posts, 4096)
                if not message:
                    raise EOFError("the process running the chain has gone")
                posted = [int.from_bytes(message[i:i + 8], "little", signed=True)
                          for i in range(0, len(message), 8)]
                ready = max(ready, *posted)
                if posted[-1] == ASK_STOP:  # nothing is posted after it
                    stop = row + (ready - row) // 2
                    os.write(reply, stop.to_bytes(8, "little"))
                continue
            if row == block_end:
                block_end = min(ready if stop is None else stop, row + KEPT_CHUNK)
                rows = slice(row, block_end)
                lines = _lines(self.coords[rows], self._frames_of(rows))
            self._spool.write(next(lines))
            row += 1
        self._spool.flush()

    def write(self, path, batch: SampleBatch, manifold: str) -> None:
        """draws.csv at `path`: the header, then one line per draw of `batch`."""
        if batch.coords_draws is not self.coords:
            raise ValueError("the batch's draws are not the rows this writer holds")
        path = Path(path)
        d = self.coords.shape[1]
        p, k = batch.manifold_draws.shape[1:]
        header = f"# manifold={manifold} p={p} k={k} n_coords={d}\n".encode()
        if self._pid is None:
            with path.open("wb") as fh:
                fh.write(header)
                fh.writelines(_lines(self.coords, batch.manifold_draws))
            return
        self._post(ASK_STOP)
        answer = os.read(self._reply, 8)
        # In the file's directory: --out exists now, and the system's may be in RAM.
        with tempfile.TemporaryFile(dir=path.parent) as tail:
            if answer:
                stop = int.from_bytes(answer, "little")
                tail.writelines(_lines(self.coords[stop:], batch.manifold_draws[stop:]))
            status = os.waitpid(self._pid, 0)[1]
            self._pid = None
            if status or not answer:
                raise OSError(f"the process writing draws exited with status "
                              f"{os.waitstatus_to_exitcode(status)}")
            with path.open("wb") as fh:
                fh.write(header)
                for part in (self._spool, tail):
                    part.seek(0)
                    shutil.copyfileobj(part, fh)

    def close(self) -> None:
        """Kill and reap a child still running; close the pipes and the spool."""
        if self._pid is not None:
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None
        for fd in (self._posts, self._reply):
            if fd is not None:
                os.close(fd)
        self._posts = self._reply = None
        if self._spool is not None:
            self._spool.close()
            self._spool = None


def _draws_sink(target: PullbackTarget, run: RunConfig, out_dir):
    """A `DrawsWriter` for chain 0 when draws.csv is written, else a context of None."""
    return DrawsWriter.for_chain(target, run) if out_dir is not None else nullcontext()


def write_draws_csv(path, batch: SampleBatch, manifold: str,
                    writer: Optional[DrawsWriter] = None) -> None:
    """One row per retained draw: coordinates, then flattened Q (column-major).

    `writer` is the `DrawsWriter` that the chain of `batch` filled, which
    may have formatted rows already. Without one, every row is ready at
    once: a file of at least `SPLIT_FLOOR_FLOATS` numbers, written by a
    process that may run on two CPUs or more, is formatted by a child forked
    here and by this process, half each. The bytes are the same either way.
    """
    if writer is None:
        frames = batch.manifold_draws
        writer = DrawsWriter(batch.coords_draws, frames.__getitem__, len(frames),
                             _in_two_processes(batch.coords_draws.size + frames.size))
    with writer:
        writer.write(path, batch, manifold)


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


def _persist(out_dir, report: ExperimentReport, batch: SampleBatch, manifold: str,
             writer: Optional[DrawsWriter]) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_report(report, out)
    write_draws_csv(out / "draws.csv", batch, manifold=manifold, writer=writer)
