"""Command-line interface: sampling, Jacobian evaluation, and the studies.

Configuration comes from flags, optionally backed by a JSON document via
``--config`` (explicit flags win). Every run that writes files also writes a
``manifest.json`` echoing the fully resolved configuration, sufficient to
re-run it. Exit codes: 0 success, 2 usage error, 3 input error, 4 numerical
error. BLAS threads are capped by the standard variables
(OPENBLAS_NUM_THREADS, OMP_NUM_THREADS, MKL_NUM_THREADS), set before the
process starts.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional

import numpy as np

from .cayley import (
    GrassmannCoords,
    ManifoldDims,
    StiefelCoords,
    cayley_forward_grassmann,
    cayley_forward_stiefel,
    cayley_inverse_grassmann,
    cayley_inverse_stiefel,
)
from .densities import BinghamParams, PullbackTarget, bingham_log_density, uniform_log_density
from .errors import CayleyError
from .experiments import (
    ExperimentReport,
    SpikedDataSpec,
    run_bingham_experiment,
    run_normal_approx_experiment,
    run_uniform_experiment,
    write_draws_csv,
    write_report,
)
from .jacobian import (
    derivative_grassmann,
    derivative_stiefel,
    log_jacobian_block_grassmann,
    log_jacobian_block_stiefel,
    log_jacobian_naive,
)
from .sampler import RunConfig, default_proposal, run_chain

__all__ = [
    "main",
    "parse_and_dispatch",
    "read_matrix_csv",
    "write_matrix_csv",
]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_NUMERICAL = 4


class UsageError(Exception):
    pass


class InputError(Exception):
    pass


def read_matrix_csv(path):
    """Read a numeric CSV with header line `# rows=<n> cols=<p>`; every cell must be finite."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}")
    lines = text.splitlines()
    if not lines or not any(line.strip() for line in lines):
        raise InputError(f"{path}: empty input file")
    header = lines[0].strip()
    prefix = "# rows="
    if not header.startswith(prefix) or " cols=" not in header:
        raise InputError(f"{path}: malformed header {header!r}, expected '# rows=<n> cols=<p>'")
    try:
        rows_part, cols_part = header[2:].split()
        n_rows = int(rows_part.split("=")[1])
        n_cols = int(cols_part.split("=")[1])
    except (ValueError, IndexError):
        raise InputError(f"{path}: malformed header {header!r}")
    data = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != n_cols:
            raise InputError(f"{path}:{lineno}: expected {n_cols} cells, found {len(cells)}")
        try:
            row = [float(cell) for cell in cells]
        except ValueError:
            raise InputError(f"{path}:{lineno}: non-numeric cell")
        if not np.isfinite(row).all():
            raise InputError(f"{path}:{lineno}: non-finite cell")
        data.append(row)
    if len(data) != n_rows:
        raise InputError(f"{path}: header promises {n_rows} rows, found {len(data)}")
    return np.array(data, dtype=float).reshape(n_rows, n_cols)


def write_matrix_csv(path, matrix) -> None:
    """Write a matrix with the `# rows=<n> cols=<p>` header at full precision."""
    M = np.atleast_2d(np.asarray(matrix, dtype=float))
    path = Path(path)
    with path.open("w") as fh:
        fh.write(f"# rows={M.shape[0]} cols={M.shape[1]}\n")
        for row in M:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def _write_manifest(out_dir, command: str, resolved: dict) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    doc = {"command": command, "config": resolved}
    (out / "manifest.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _parse_list(value, cast):
    """A non-empty list of `cast` values, from a list or a comma-separated string."""
    kind = "integers" if cast is int else "numbers"
    if isinstance(value, (list, tuple)):
        items = [cast(x) for x in value]
    else:
        try:
            items = [cast(x) for x in str(value).split(",") if x != ""]
        except ValueError:
            raise UsageError(f"expected a comma-separated list of {kind}, got {value!r}")
    if not items:
        raise UsageError(f"expected a non-empty list of {kind}, got {value!r}")
    return items


REQUIRED = object()  # the default of a flag that the flag or --config must set

MANIFOLDS = ("stiefel", "grassmann")


class Flag(NamedTuple):
    """One option of a subcommand and its default, REQUIRED or a value.

    The config key, and the key of the resolved configuration, is `dest`
    if given, else the flag name with its dashes turned into underscores.
    """

    name: str
    type: Optional[Callable] = None
    default: Any = None
    choices: Optional[tuple] = None
    help: Optional[str] = None
    dest: Optional[str] = None

    @property
    def key(self) -> str:
        return self.dest or self.name[2:].replace("-", "_")


def _cmd_sample(cfg: dict) -> int:
    dims = ManifoldDims(cfg["p"], cfg["k"])

    if cfg["target"] == "bingham":
        if cfg["data"] is None or cfg["sigma2"] is None or cfg["lam"] is None:
            raise UsageError("bingham target requires --data, --sigma2 and --lambda")
        lam = np.array(_parse_list(cfg["lam"], float))
        # Flag values: a ValueError here is a usage error. Only the data's checks are input errors.
        BinghamParams.check_prior(cfg["sigma2"], lam)
        Y = read_matrix_csv(cfg["data"])
        if Y.shape[1] != cfg["p"]:
            raise InputError(f"data has {Y.shape[1]} columns, expected p={cfg['p']}")
        try:
            params = BinghamParams.from_data(Y, cfg["sigma2"], lam)
        except ValueError as exc:
            raise InputError(str(exc))
        if params.k != cfg["k"]:
            raise UsageError(f"--lambda has {params.k} entries, expected k={cfg['k']}")
        g = bingham_log_density(params, manifold=cfg["manifold"])
    else:
        g = uniform_log_density(manifold=cfg["manifold"])

    target = PullbackTarget(g, dims)
    proposal = default_proposal(target, kind=cfg["proposal"], scale=cfg["scale"])
    run = RunConfig(iterations=cfg["iters"], burn_in=cfg["burn"], thin=cfg["thin"], seed=cfg["seed"])
    batch = run_chain(target, np.zeros(target.dim), proposal, run)

    out = Path(cfg["out"])
    _write_manifest(out, "sample", cfg)
    write_draws_csv(out / "draws.csv", batch, manifold=cfg["manifold"])
    report = ExperimentReport(
        name="sample",
        config=cfg,
        metrics={"acceptance_rate": batch.acceptance_rate,
                 "final_scale": batch.final_scale,
                 "n_draws": int(batch.coords_draws.shape[0]),
                 "counters": asdict(batch.counters)},
    )
    write_report(report, out)
    print(f"sample: {batch.coords_draws.shape[0]} draws, "
          f"acceptance {batch.acceptance_rate:.3f}, output in {out}")
    return EXIT_OK


def _cmd_jacobian(cfg: dict) -> int:
    dims = ManifoldDims(cfg["p"], cfg["k"])
    rows = read_matrix_csv(cfg["coords"])
    expected = dims.d_v if cfg["manifold"] == "stiefel" else dims.d_g
    if rows.shape[1] != expected:
        raise InputError(
            f"coordinate rows have {rows.shape[1]} entries, expected {expected} "
            f"for {cfg['manifold']} (p={cfg['p']}, k={cfg['k']})"
        )
    print("log_jacobian_block,log_jacobian_naive")
    for row in rows:
        if cfg["manifold"] == "stiefel":
            coords = StiefelCoords.from_vector(dims, row)
            block = log_jacobian_block_stiefel(coords)
            naive = log_jacobian_naive(derivative_stiefel(coords))
        else:
            coords = GrassmannCoords.from_vector(dims, row)
            block = log_jacobian_block_grassmann(coords)
            naive = log_jacobian_naive(derivative_grassmann(coords))
        print(f"{block!r},{naive!r}")
    if cfg["out"] is not None:
        _write_manifest(cfg["out"], "jacobian", cfg)
    return EXIT_OK


def _cmd_uniform_exp(cfg: dict) -> int:
    ManifoldDims(cfg["p"], cfg["k"])  # rejects p and k before any file is written
    _write_manifest(cfg["out"], "uniform-exp", cfg)
    report = run_uniform_experiment(cfg["p"], cfg["k"], cfg["draws"], cfg["seed"],
                                    thin=cfg["thin"], burn_in=cfg["burn"], out_dir=cfg["out"])
    print(f"uniform-exp: entry KS {report.metrics['ks_top_left_entry']:.4f}, "
          f"scaled-coordinate KS {report.metrics['ks_scaled_first_coordinate']:.4f}, "
          f"output in {cfg['out']}")
    return EXIT_OK


def _cmd_bingham_exp(cfg: dict) -> int:
    ManifoldDims(cfg["p"], cfg["k"])  # rejects p and k before any file is written
    lam = np.array(_parse_list(cfg["lam"], float))
    spec = SpikedDataSpec(n=cfg["n"], p=cfg["p"], k=cfg["k"],
                          sigma2=cfg["sigma2"], lam=lam, seed=cfg["data_seed"])
    run = RunConfig(iterations=cfg["iters"], burn_in=cfg["burn"], thin=cfg["thin"],
                    seed=cfg["seed"])
    _write_manifest(cfg["out"], "bingham-exp", dict(cfg, lam=lam.tolist()))
    report = run_bingham_experiment(spec, run, out_dir=cfg["out"])
    print(f"bingham-exp: theta1 TV {report.metrics['theta1_tv_between_chains']:.4f}, "
          f"acceptance {report.metrics['acceptance_rates']}, output in {cfg['out']}")
    return EXIT_OK


def _cmd_normal_approx_exp(cfg: dict) -> int:
    p_grid = _parse_list(cfg["p_grid"], int)
    if cfg["k"] >= min(p_grid):
        raise UsageError(f"require k < min(p_grid), got k={cfg['k']}, grid {p_grid}")
    _write_manifest(cfg["out"], "normal-approx-exp", dict(cfg, p_grid=p_grid))
    report = run_normal_approx_experiment(cfg["k"], p_grid, cfg["replicates"], cfg["seed"],
                                          out_dir=cfg["out"])
    meds = ", ".join(f"{m:.4f}" for m in report.metrics["epsilon_medians"])
    print(f"normal-approx-exp: medians [{meds}], "
          f"decreasing={report.metrics['medians_strictly_decreasing']}, output in {cfg['out']}")
    return EXIT_OK


def _cmd_roundtrip_check(cfg: dict) -> int:
    dims = ManifoldDims(cfg["p"], cfg["k"])
    rng = np.random.Generator(np.random.PCG64(cfg["seed"]))
    worst_v = worst_g = 0.0
    for _ in range(cfg["instances"]):
        phi = rng.standard_normal(dims.d_v)
        back = cayley_inverse_stiefel(cayley_forward_stiefel(
            StiefelCoords.from_vector(dims, phi))).phi
        worst_v = max(worst_v, float(np.max(np.abs(back - phi))))
        psi = rng.standard_normal(dims.d_g)
        psi *= 0.9 / max(1.0, np.linalg.norm(psi))
        back_g = cayley_inverse_grassmann(cayley_forward_grassmann(
            GrassmannCoords.from_vector(dims, psi))).psi
        worst_g = max(worst_g, float(np.max(np.abs(back_g - psi))))
    ok = worst_v <= cfg["tol"] and worst_g <= cfg["tol"]
    print(f"roundtrip-check p={cfg['p']} k={cfg['k']}: "
          f"max error stiefel {worst_v:.3e}, grassmann {worst_g:.3e}, "
          f"tol {cfg['tol']:.1e} -> {'ok' if ok else 'FAIL'}")
    if cfg["out"] is not None:
        _write_manifest(cfg["out"], "roundtrip-check", cfg)
    return EXIT_OK if ok else EXIT_NUMERICAL


# Each subcommand's help, flags and handler; "missing required options"
# names flags in this order.
COMMANDS = {
    "sample": ("run one MCMC chain and write draws", (
        Flag("--manifold", default="stiefel", choices=MANIFOLDS),
        Flag("--p", int, REQUIRED),
        Flag("--k", int, REQUIRED),
        Flag("--target", default="uniform", choices=("uniform", "bingham")),
        Flag("--data", help="CSV data matrix (bingham target)"),
        Flag("--sigma2", float),
        Flag("--lambda", dest="lam", help="comma-separated eigenvalues"),
        Flag("--iters", int, REQUIRED),
        Flag("--burn", int, 0),
        Flag("--thin", int, 1),
        Flag("--scale", float),
        Flag("--proposal", default="random-walk-gaussian",
             choices=("random-walk-gaussian", "leapfrog")),
        Flag("--seed", int, REQUIRED),
        Flag("--out", default=REQUIRED),
    ), _cmd_sample),
    "jacobian": ("print block and naive log-Jacobians per coordinate row", (
        Flag("--manifold", default="stiefel", choices=MANIFOLDS),
        Flag("--p", int, REQUIRED),
        Flag("--k", int, REQUIRED),
        Flag("--coords", default=REQUIRED, help="CSV of coordinate rows"),
        Flag("--out"),
    ), _cmd_jacobian),
    "uniform-exp": ("uniform-distribution sampling study", (
        Flag("--p", int, REQUIRED),
        Flag("--k", int, REQUIRED),
        Flag("--draws", int, REQUIRED),
        Flag("--thin", int, 10),
        Flag("--burn", int, help="default max(2000, 2 dim V(k,p))"),
        Flag("--seed", int, REQUIRED),
        Flag("--out", default=REQUIRED),
    ), _cmd_uniform_exp),
    "bingham-exp": ("spiked-covariance posterior study", (
        Flag("--n", int, 100),
        Flag("--p", int, REQUIRED),
        Flag("--k", int, REQUIRED),
        Flag("--sigma2", float, 1.0),
        Flag("--lambda", default=REQUIRED, dest="lam", help="comma-separated eigenvalues"),
        Flag("--iters", int, 12000),
        Flag("--burn", int, 2000),
        Flag("--thin", int, 1),
        Flag("--data-seed", int, 0),
        Flag("--seed", int, REQUIRED),
        Flag("--out", default=REQUIRED),
    ), _cmd_bingham_exp),
    "normal-approx-exp": ("Gaussian coupling-error study", (
        Flag("--k", int, REQUIRED),
        Flag("--p-grid", default=REQUIRED, help="comma-separated grid of p values"),
        Flag("--replicates", int, 50),
        Flag("--seed", int, REQUIRED),
        Flag("--out", default=REQUIRED),
    ), _cmd_normal_approx_exp),
    "roundtrip-check": ("verify forward/inverse map consistency", (
        Flag("--p", int, REQUIRED),
        Flag("--k", int, REQUIRED),
        Flag("--instances", int, 100),
        Flag("--tol", float, 1e-10),
        Flag("--seed", int, 0),
        Flag("--out"),
    ), _cmd_roundtrip_check),
}


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree of `COMMANDS`, built once per process.

    It holds only the flags' names, types and choices; `parse_and_dispatch`
    looks each handler up in `COMMANDS` at call time.
    """
    parser = argparse.ArgumentParser(
        prog="cayley-mcmc",
        description="Euclidean-coordinate MCMC on orthogonal-frame manifolds.",
    )
    sub = parser.add_subparsers(dest="command")
    for command, (help_text, flags, _) in COMMANDS.items():
        cmd = sub.add_parser(command, help=help_text)
        cmd.add_argument("--config", default=None, help="JSON file with defaults for any flag")
        for flag in flags:
            cmd.add_argument(flag.name, dest=flag.key, type=flag.type, choices=flag.choices,
                             help=flag.help)
    return parser


def _resolve(args: argparse.Namespace) -> dict:
    """Merge flag values over an optional JSON config over the table's defaults."""
    flags = COMMANDS[args.command][1]
    config = {}
    if args.config is not None:
        try:
            config = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise InputError(f"{args.config}: {exc.strerror or exc}")
        except json.JSONDecodeError as exc:
            raise InputError(f"{args.config}: invalid JSON ({exc.msg} at line {exc.lineno})")
        if not isinstance(config, dict):
            raise InputError(f"{args.config}: config document must be a JSON object")
        unknown = set(config) - {flag.key for flag in flags}
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
    resolved = {}
    for flag in flags:
        value = getattr(args, flag.key)
        resolved[flag.key] = value if value is not None else config.get(flag.key, flag.default)
    missing = [flag.name for flag in flags
               if flag.default is REQUIRED and resolved[flag.key] in (None, REQUIRED)]
    if missing:
        raise UsageError("missing required options: " + ", ".join(missing))
    return resolved


def parse_and_dispatch(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        cfg = _resolve(args)
        return COMMANDS[args.command][2](cfg)
    except UsageError as exc:
        print(f"usage-error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InputError as exc:
        print(f"input-error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (CayleyError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical-error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        # Every other ValueError reaching here is a rejected configuration value.
        print(f"usage-error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(parse_and_dispatch())


if __name__ == "__main__":
    main()
