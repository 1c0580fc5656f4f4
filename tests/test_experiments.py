"""End-to-end studies at reduced scale, plus the draws/report file formats."""

import errno
import json
import os
import signal
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cayley_mcmc import experiments
from cayley_mcmc.cli import parse_and_dispatch
from cayley_mcmc.experiments import (
    ExperimentReport,
    SpikedDataSpec,
    read_draws_csv,
    run_bingham_experiment,
    run_normal_approx_experiment,
    run_uniform_experiment,
    simulate_spiked_data,
    write_draws_csv,
    write_report,
)
from cayley_mcmc.cayley import ManifoldDims
from cayley_mcmc.densities import PullbackTarget, uniform_log_density
from cayley_mcmc.errors import ConditioningError
from cayley_mcmc.sampler import RunConfig, RunCounters, SampleBatch, default_proposal, run_chain

BENCH = Path(__file__).resolve().parent.parent / "benchmark"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402  (read only: the benchmark's op command line and check)


class TestSpikedDataSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SpikedDataSpec(n=0, p=5, k=2, sigma2=1.0, lam=np.array([2.0, 1.0]))
        with pytest.raises(ValueError):
            SpikedDataSpec(n=10, p=5, k=2, sigma2=1.0, lam=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            SpikedDataSpec(n=10, p=5, k=2, sigma2=-1.0, lam=np.array([2.0, 1.0]))

    @pytest.mark.parametrize("sigma2,lam", [(np.nan, [2.0, 1.0]), (1.0, [np.nan, 1.0]),
                                            (1.0, [2.0, np.nan]), (np.inf, [2.0, 1.0]),
                                            (1.0, [np.inf, 1.0])])
    def test_rejects_non_finite_parameters(self, sigma2, lam):
        with pytest.raises(ValueError):
            SpikedDataSpec(n=10, p=5, k=2, sigma2=sigma2, lam=np.array(lam))


class TestSimulateSpikedData:
    def test_shapes_and_determinism(self):
        spec = SpikedDataSpec(n=30, p=8, k=2, sigma2=1.0, lam=np.array([3.0, 1.0]), seed=5)
        Y1, Q1 = simulate_spiked_data(spec)
        Y2, Q2 = simulate_spiked_data(spec)
        assert Y1.shape == (30, 8)
        assert Q1.Q.shape == (8, 2)
        assert np.array_equal(Y1, Y2)
        assert np.array_equal(Q1.Q, Q2.Q)

    def test_small_signal_limit_is_isotropic(self):
        """As the signal eigenvalues vanish, the sample covariance approaches
        sigma^2 I in operator norm."""
        spec = SpikedDataSpec(n=20000, p=5, k=2, sigma2=2.0,
                              lam=np.array([2e-4, 1e-4]), seed=6)
        Y, _ = simulate_spiked_data(spec)
        cov = Y.T @ Y / spec.n
        dev = np.linalg.norm(cov - 2.0 * np.eye(5), ord=2)
        assert dev < 0.15

    def test_covariance_matches_model(self):
        spec = SpikedDataSpec(n=60000, p=4, k=1, sigma2=1.0, lam=np.array([4.0]), seed=7)
        Y, Q = simulate_spiked_data(spec)
        Sigma = 1.0 * (Q.Q @ np.diag(spec.lam) @ Q.Q.T + np.eye(4))
        cov = Y.T @ Y / spec.n
        assert np.linalg.norm(cov - Sigma, ord=2) < 0.15


class TestUniformExperiment:
    def test_small_run_produces_metrics(self, tmp_path):
        report = run_uniform_experiment(5, 2, draws=300, seed=3, thin=2,
                                        burn_in=300, out_dir=tmp_path)
        assert 0.0 <= report.metrics["ks_top_left_entry"] <= 1.0
        assert report.metrics["n_draws"] == 300
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "draws.csv").exists()

    def test_metrics_recomputable_from_draws(self, tmp_path):
        from cayley_mcmc.densities import EntryMarginal
        from cayley_mcmc.diagnostics import ks_statistic
        report = run_uniform_experiment(5, 2, draws=200, seed=4, thin=2,
                                        burn_in=200, out_dir=tmp_path)
        _, _, points = read_draws_csv(tmp_path / "draws.csv")
        ks = ks_statistic(points[:, 0, 0], EntryMarginal(5).cdf)
        assert ks == pytest.approx(report.metrics["ks_top_left_entry"], abs=1e-12)


class TestBinghamExperiment:
    def test_reduced_scale_run(self, tmp_path):
        spec = SpikedDataSpec(n=40, p=10, k=2, sigma2=1.0,
                              lam=np.array([4.0, 2.0]), seed=8)
        run = RunConfig(iterations=600, burn_in=200, seed=9)
        report = run_bingham_experiment(spec, run, out_dir=tmp_path)
        m = report.metrics
        assert 0.0 <= m["theta1_tv_between_chains"] <= 1.0
        assert len(m["acceptance_rates"]) == 2
        assert len(m["final_scales"]) == 2 and all(s > 0 for s in m["final_scales"])
        written = json.loads((tmp_path / "report.json").read_text())["metrics"]
        assert written["final_scales"] == m["final_scales"]
        assert m["n_draws_per_chain"] == 400
        assert "theta1_chain0" in report.histograms
        assert "theta2_chain1" in report.histograms

    # Op seeds s = 1000 * data seed + index whose two chains disagreed under the
    # 5-step Robbins-Monro leapfrog: the Haar-start chain had not reached the mode.
    @pytest.mark.parametrize("op_seed", [6036, 7033, 10010, 10017, 12012, 12030, 12041])
    def test_benchmark_op_passes_its_check(self, tmp_path, capsys, op_seed):
        """bingham-exp with the benchmark's command line passes the benchmark's check."""
        out = tmp_path / "op"
        assert parse_and_dispatch(workloads._bingham_argv(op_seed // 1000, op_seed, out)) == 0
        check = workloads._bingham_check(out, op_seed // 1000)
        assert check.ok, check.gates

    def test_posterior_concentrates_near_mode(self):
        spec = SpikedDataSpec(n=200, p=8, k=1, sigma2=1.0,
                              lam=np.array([6.0]), seed=10)
        run = RunConfig(iterations=800, burn_in=300, seed=11)
        report = run_bingham_experiment(spec, run)
        assert report.metrics["theta1_mean_chain0"] < np.pi / 4


class TestNormalApproxExperiment:
    def test_medians_and_verdict(self):
        report = run_normal_approx_experiment(2, (20, 60), replicates=30, seed=12)
        meds = report.metrics["epsilon_medians"]
        assert len(meds) == 2
        assert report.metrics["medians_strictly_decreasing"] == (meds[1] < meds[0])

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError):
            run_normal_approx_experiment(5, (4, 50), replicates=5, seed=0)

    def test_deterministic_given_seed(self):
        r1 = run_normal_approx_experiment(2, (15, 30), replicates=10, seed=13)
        r2 = run_normal_approx_experiment(2, (15, 30), replicates=10, seed=13)
        assert r1.metrics == r2.metrics


class TestFileFormats:
    def _batch(self, run=RunConfig(iterations=60, burn_in=20, seed=14)):
        from cayley_mcmc.cayley import ManifoldDims
        from cayley_mcmc.densities import PullbackTarget, uniform_log_density
        from cayley_mcmc.sampler import ProposalConfig, run_chain
        target = PullbackTarget(uniform_log_density(), ManifoldDims(5, 2))
        return run_chain(target, np.zeros(target.dim), ProposalConfig(scale=0.4), run)

    def test_draws_round_trip_exactly(self, tmp_path):
        batch = self._batch()
        path = tmp_path / "draws.csv"
        write_draws_csv(path, batch, manifold="stiefel")
        header, coords, points = read_draws_csv(path)
        assert header == {"manifold": "stiefel", "p": 5, "k": 2, "n_coords": 7}
        assert np.array_equal(coords, batch.coords_draws)
        assert np.array_equal(points, batch.manifold_draws)

    def test_draws_round_trip_with_no_draws(self, tmp_path):
        """A thinning interval past the run keeps no draws; the file still reads with its shapes."""
        batch = self._batch(RunConfig(iterations=10, burn_in=2, thin=20, seed=14))
        path = tmp_path / "draws.csv"
        write_draws_csv(path, batch, manifold="stiefel")
        header, coords, points = read_draws_csv(path)
        assert header == {"manifold": "stiefel", "p": 5, "k": 2, "n_coords": 7}
        assert coords.shape == (0, 7) and points.shape == (0, 5, 2)
        assert np.array_equal(coords, batch.coords_draws)
        assert np.array_equal(points, batch.manifold_draws)

    @staticmethod
    def _per_row_oracle(batch, manifold):
        """The bytes of the one-process writer: header, then one joined `repr` line per draw."""
        n, d = batch.coords_draws.shape
        p, k = batch.manifold_draws.shape[1:]
        text = f"# manifold={manifold} p={p} k={k} n_coords={d}\n"
        for i in range(n):
            row = np.concatenate([batch.coords_draws[i],
                                  batch.manifold_draws[i].reshape(-1, order="F")])
            text += ",".join(map(repr, row.tolist())) + "\n"
        return text.encode()

    @staticmethod
    def _synthetic(n, p=5, k=2, seed=0):
        """n draws of V(k,p)'s shapes; the writer reads no more than the arrays."""
        rng = np.random.default_rng(seed)
        d = p * k - k * (k + 1) // 2
        return SampleBatch(rng.standard_normal((n, d)), rng.standard_normal((n, p, k)),
                           acceptance_rate=0.5, final_scale=0.1,
                           counters=RunCounters(steps=n, accepts=n, domain_exits=0, target_rows=n))

    @staticmethod
    def _count_forks(monkeypatch):
        forks = []
        real_fork = os.fork

        def fork():
            pid = real_fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        return forks

    @pytest.mark.parametrize("n", [0, 1, 2, 7])
    @pytest.mark.parametrize("floor", ["real", 1])
    def test_writer_matches_the_per_row_oracle(self, tmp_path, monkeypatch, n, floor):
        """Without a writer this process formats every row: it never forks, whatever the floor."""
        if floor != "real":
            monkeypatch.setattr(experiments, "SPLIT_FLOOR_FLOATS", floor)
            monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
        forks = self._count_forks(monkeypatch)
        batch = self._synthetic(n, seed=n)
        path = tmp_path / "draws.csv"
        write_draws_csv(path, batch, manifold="stiefel")
        assert path.read_bytes() == self._per_row_oracle(batch, "stiefel")
        assert forks == []
        assert [f.name for f in tmp_path.iterdir()] == ["draws.csv"]

    @pytest.mark.usefixtures("deadline")
    @pytest.mark.parametrize("n,splits", [(4, False), (5, True)])
    def test_floor_counts_the_numbers_in_the_file(self, tmp_path, monkeypatch, n, splits):
        """A row of V(2,5) holds 7 coordinates and 10 frame entries: 5 rows reach a floor of 85."""
        monkeypatch.setattr(experiments, "SPLIT_FLOOR_FLOATS", 85)
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
        forks = self._count_forks(monkeypatch)
        target, run = _uniform_chain("stiefel", 5, 2, n)
        batch = _stream(tmp_path / "draws.csv", target, run, "stiefel")
        assert (tmp_path / "draws.csv").read_bytes() == self._per_row_oracle(batch, "stiefel")
        assert len(forks) == int(splits)

    def _above_the_floor(self):
        """A V(3,50) batch past the real floor, with awkward doubles in both halves."""
        rows = experiments.SPLIT_FLOOR_FLOATS // (144 + 150) + 3
        batch = self._synthetic(rows, p=50, k=3, seed=9)
        special = [-0.0, 5e-324, 1e-05, 0.1, 1e16, -1.5e300]
        for i in (0, rows // 2 - 1, rows // 2, rows - 1):
            batch.coords_draws[i, :6] = special
            batch.manifold_draws[i, -1, :] = special[:3]
            batch.manifold_draws[i, 0, :] = special[3:]
        return batch

    def test_writer_above_the_real_floor_matches_the_oracle(self, tmp_path, monkeypatch):
        """Without a writer, a file past the floor is formatted in this process too."""
        forks = self._count_forks(monkeypatch)
        batch = self._above_the_floor()
        path = tmp_path / "draws.csv"
        write_draws_csv(path, batch, manifold="stiefel")
        assert path.read_bytes() == self._per_row_oracle(batch, "stiefel")
        assert forks == []
        assert [f.name for f in tmp_path.iterdir()] == ["draws.csv"]

    def test_one_cpu_writes_in_one_process(self, tmp_path, monkeypatch):
        """A chain's writer past the real floor forks no child on one CPU."""
        def no_fork():
            raise AssertionError("forked on one CPU")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "fork", no_fork)
        target, run = _uniform_chain("stiefel", 50, 3, 400)
        assert 400 * (target.dim + 150) >= experiments.SPLIT_FLOOR_FLOATS
        batch = _stream(tmp_path / "draws.csv", target, run, "stiefel")
        assert (tmp_path / "draws.csv").read_bytes() == self._per_row_oracle(batch, "stiefel")

    def test_report_json_excludes_runtime(self, tmp_path):
        report = ExperimentReport(name="x", config={"a": 1}, metrics={"m": 2.0})
        path = write_report(report, tmp_path)
        doc = json.loads(path.read_text())
        assert doc["name"] == "x"
        assert "runtime" not in json.dumps(doc)

    def test_report_writing_is_stable(self, tmp_path):
        report = ExperimentReport(name="x", config={"b": 2, "a": 1}, metrics={})
        p1 = write_report(report, tmp_path / "one")
        p2 = write_report(report, tmp_path / "two")
        assert p1.read_text() == p2.read_text()


# Any double, by its bits (NaN payloads included), or by hypothesis's floats,
# which favour subnormals, infinities and the edges of the exponent range.
_DOUBLES = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64))),
    st.floats(width=64))
# Where orjson's spelling and repr's meet: below 1e-4 and from 1e16 up, repr
# writes an exponent.
_EDGES = [float(np.nextafter(1e-4, 0)), 1e-4, 9999999999999998.0, 1e16, 0.0, -0.0, 5e-324]


class TestLines:
    """`_lines`, the one formatter of draws.csv, against the per-row `repr` oracle."""

    @staticmethod
    def _assert_oracle_lines(coords, frames):
        batch = SampleBatch(coords, frames, acceptance_rate=0.5, final_scale=0.1,
                            counters=RunCounters(steps=0, accepts=0, domain_exits=0,
                                                 target_rows=0))
        expected = TestFileFormats._per_row_oracle(batch, "stiefel").splitlines(True)[1:]
        assert list(experiments._lines(coords, frames)) == expected

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.just(7 + 10)),
                      elements=_DOUBLES))
    def test_any_doubles_match_repr(self, block):
        """A V(2,5) row: 7 coordinates, then a 5 x 2 frame flattened column-major."""
        m = len(block)
        frames = block[:, 7:].reshape(m, 2, 5).transpose(0, 2, 1)
        self._assert_oracle_lines(block[:, :7].copy(), frames.copy())

    def test_edge_values_in_several_rows_and_columns(self, monkeypatch):
        """Respelled numbers in different columns of several rows, over three orjson calls."""
        monkeypatch.setattr(experiments, "FORMAT_NUMBERS", 8 * 17)
        rng = np.random.default_rng(5)
        m = 20
        coords, frames = rng.standard_normal((m, 7)), rng.standard_normal((m, 5, 2))
        edges = _EDGES + [-x for x in _EDGES] + [np.nan, np.inf, -np.inf, 7.48e-05, 4.3e-06]
        for n, x in enumerate(edges):
            row, col = n % m, (3 * n) % 17
            if col < 7:
                coords[row, col] = x
            else:
                frames[row, (col - 7) % 5, (col - 7) // 5] = x
        coords[m - 2, [0, 3, 6]] = [1e-300, -2e20, 3e-5]
        self._assert_oracle_lines(coords, frames)

    @pytest.mark.parametrize("p,k,rows_per_call", [(5, 2, 4096 // 17), (50, 3, 13), (80, 60, 1)])
    def test_at_most_format_numbers_per_call(self, monkeypatch, p, k, rows_per_call):
        """orjson formats FORMAT_NUMBERS numbers at a time, or one row past that width."""
        dumps, shapes = orjson.dumps, []

        def recording(block, option):
            shapes.append(block.shape)
            return dumps(block, option=option)

        monkeypatch.setattr(orjson, "dumps", recording)
        monkeypatch.setattr(experiments, "FORMAT_NUMBERS", 4096)
        m, d = 2 * rows_per_call + 1, p * k - k * (k + 1) // 2
        rng = np.random.default_rng(6)
        self._assert_oracle_lines(rng.standard_normal((m, d)), rng.standard_normal((m, p, k)))
        assert shapes == [(rows_per_call, d + p * k)] * 2 + [(1, d + p * k)]


def _uniform_chain(manifold, p, k, n_keep):
    """A uniform target and a run of one burn-in step per kept draw, thinning 1."""
    target = PullbackTarget(uniform_log_density(manifold), ManifoldDims(p, k))
    return target, RunConfig(iterations=2 * n_keep, burn_in=n_keep, seed=n_keep)


def _stream(path, target, run, manifold):
    """The chain's draws.csv through its streamed writer, as `sample` writes it; the batch."""
    with experiments.DrawsWriter(target, run) as writer:
        batch = run_chain(target, np.zeros(target.dim), default_proposal(target), run,
                          sink=writer)
        write_draws_csv(path, batch, manifold, writer=writer)
    return batch


def _rows_of_this_process(monkeypatch):
    """The row counts this process formats, one entry per `_lines` call made here."""
    counts, lines, parent = [], experiments._lines, os.getpid()

    def recording(coords, frames):
        if os.getpid() == parent:
            counts.append(len(coords))
        return lines(coords, frames)

    monkeypatch.setattr(experiments, "_lines", recording)
    return counts


@pytest.fixture
def deadline():
    """A writer that waits forever on its child fails its test after 60 s instead."""
    def expire(signum, frame):
        raise TimeoutError("the test outlived its 60 s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.usefixtures("deadline")
class TestStreamedDraws:
    """draws.csv formatted by a child while the chain runs equals the per-row oracle."""

    oracle = staticmethod(TestFileFormats._per_row_oracle)

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)

    # Kept counts past the real floor, a multiple of the chunk (100) or not.
    @pytest.mark.parametrize("manifold,p,k,n_keep", [
        ("stiefel", 50, 3, 400), ("stiefel", 50, 3, 437),
        ("grassmann", 20, 4, 700), ("grassmann", 20, 4, 733)])
    def test_file_equals_the_oracle_past_the_floor(self, tmp_path, monkeypatch, manifold, p, k,
                                                   n_keep):
        forks = TestFileFormats._count_forks(monkeypatch)
        target, run = _uniform_chain(manifold, p, k, n_keep)
        assert n_keep * (target.dim + p * k) >= experiments.SPLIT_FLOOR_FLOATS
        batch = _stream(tmp_path / "draws.csv", target, run, manifold)
        assert len(forks) == 1
        assert (tmp_path / "draws.csv").read_bytes() == self.oracle(batch, manifold)
        assert list(tmp_path.iterdir()) == [tmp_path / "draws.csv"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("manifold,p,k", [("stiefel", 50, 3), ("grassmann", 20, 4)])
    def test_fewer_rows_than_one_chunk(self, tmp_path, monkeypatch, manifold, p, k):
        monkeypatch.setattr(experiments, "SPLIT_FLOOR_FLOATS", 1)
        forks = TestFileFormats._count_forks(monkeypatch)
        target, run = _uniform_chain(manifold, p, k, experiments.KEPT_CHUNK // 2 + 7)
        batch = _stream(tmp_path / "draws.csv", target, run, manifold)
        assert len(forks) == 1
        assert (tmp_path / "draws.csv").read_bytes() == self.oracle(batch, manifold)

    @pytest.mark.parametrize("slow", ["child", "chain"])
    def test_this_process_formats_no_row(self, tmp_path, monkeypatch, slow):
        """The child formats every row, whether it lags the chain or waits on it.

        A slow child sleeps 0.2 s before each block, so the chain ends long
        before the child has caught up; a slow chain sleeps 2 ms at each row.
        """
        lines, parent = experiments._lines, os.getpid()

        def slow_lines(coords, frames):
            if os.getpid() != parent:
                time.sleep(0.2)
            return lines(coords, frames)

        kept = experiments.DrawsWriter.kept

        def slow_kept(writer, count):
            time.sleep(0.002)
            kept(writer, count)

        if slow == "child":
            monkeypatch.setattr(experiments, "_lines", slow_lines)
        else:
            monkeypatch.setattr(experiments.DrawsWriter, "kept", slow_kept)
        ours = _rows_of_this_process(monkeypatch)
        forks = TestFileFormats._count_forks(monkeypatch)
        target, run = _uniform_chain("stiefel", 50, 3, 437)
        batch = _stream(tmp_path / "draws.csv", target, run, "stiefel")
        assert (tmp_path / "draws.csv").read_bytes() == self.oracle(batch, "stiefel")
        assert len(forks) == 1 and ours == []

    def test_the_child_exits_by_itself_after_the_last_row(self, tmp_path):
        """Once the chain has posted its last row, the child ends with status 0, before `write`."""
        target, run = _uniform_chain("stiefel", 50, 3, 437)
        with experiments.DrawsWriter(target, run) as writer:
            batch = run_chain(target, np.zeros(target.dim), default_proposal(target), run,
                              sink=writer)
            pid, writer._pid = writer._pid, None
            assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
            write_draws_csv(tmp_path / "draws.csv", batch, "stiefel", writer=writer)
        assert (tmp_path / "draws.csv").read_bytes() == self.oracle(batch, "stiefel")

    @pytest.mark.parametrize("floor", ["real", 1])
    def test_a_batch_of_other_draws_is_refused(self, tmp_path, monkeypatch, floor):
        """A writer writes only the rows its chain stored, with a child or without one."""
        if floor != "real":
            monkeypatch.setattr(experiments, "SPLIT_FLOOR_FLOATS", floor)
        forks = TestFileFormats._count_forks(monkeypatch)
        target, run = _uniform_chain("stiefel", 5, 2, 7)
        batch = run_chain(target, np.zeros(target.dim), default_proposal(target), run)
        writer = experiments.DrawsWriter(target, run)
        with pytest.raises(ValueError,
                           match="^the batch's draws are not the rows this writer holds$"):
            write_draws_csv(tmp_path / "draws.csv", batch, "stiefel", writer=writer)
        assert len(forks) == (0 if floor == "real" else 1)
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                        or len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                        reason="needs sched_setaffinity and two usable CPUs")
    def test_the_child_runs_pinned_to_one_of_our_cpus(self, tmp_path):
        """The child gets our highest-numbered CPU alone; our own affinity is left as it was."""
        ours = os.sched_getaffinity(0)
        target, run = _uniform_chain("stiefel", 50, 3, 437)
        with experiments.DrawsWriter(target, run) as writer:
            # Before the first post the child is alive, blocked on the pipe.
            assert os.sched_getaffinity(writer._pid) == {max(ours)}
            assert os.sched_getaffinity(0) == ours
            batch = run_chain(target, np.zeros(target.dim), default_proposal(target), run,
                              sink=writer)
            write_draws_csv(tmp_path / "draws.csv", batch, "stiefel", writer=writer)
        assert os.sched_getaffinity(0) == ours
        assert (tmp_path / "draws.csv").read_bytes() == self.oracle(batch, "stiefel")

    @pytest.mark.parametrize("failure", ["raises", "missing"])
    def test_a_child_that_cannot_be_pinned_writes_the_same_bytes(self, tmp_path, monkeypatch,
                                                                  failure):
        """A pin that fails (a changed cpuset, or no sched_setaffinity) leaves the child unpinned."""
        pinned = []

        def refuse(pid, cpus):
            pinned.append(pid)
            raise OSError(errno.EINVAL, "Invalid argument")

        if failure == "raises":
            monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
        else:
            monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        forks = TestFileFormats._count_forks(monkeypatch)
        target, run = _uniform_chain("stiefel", 50, 3, 437)
        with experiments.DrawsWriter(target, run) as writer:
            if hasattr(os, "sched_getaffinity"):
                assert os.sched_getaffinity(writer._pid) == os.sched_getaffinity(0)
            batch = run_chain(target, np.zeros(target.dim), default_proposal(target), run,
                              sink=writer)
            write_draws_csv(tmp_path / "draws.csv", batch, "stiefel", writer=writer)
        assert pinned == (forks if failure == "raises" else [])
        assert len(forks) == 1
        assert (tmp_path / "draws.csv").read_bytes() == self.oracle(batch, "stiefel")

    def test_two_writers_alive_at_once(self, tmp_path, monkeypatch):
        """The second writer's child inherits the first's post pipe; the first still exits."""
        forks = TestFileFormats._count_forks(monkeypatch)
        target, run = _uniform_chain("stiefel", 50, 3, 437)
        with experiments.DrawsWriter(target, run) as first, \
                experiments.DrawsWriter(target, run) as second:
            for name, writer in (("first.csv", first), ("second.csv", second)):
                batch = run_chain(target, np.zeros(target.dim), default_proposal(target), run,
                                  sink=writer)
                write_draws_csv(tmp_path / name, batch, "stiefel", writer=writer)
                assert (tmp_path / name).read_bytes() == self.oracle(batch, "stiefel")
        assert len(forks) == 2


@pytest.mark.usefixtures("deadline")
class TestStreamedDrawsErrors:
    """A failing chain or child leaves no process, no spool and no draws.csv."""

    SAMPLE = ["sample", "--p", "50", "--k", "3", "--iters", "600", "--burn", "200",
              "--seed", "1", "--out"]

    @pytest.fixture
    def spool_dir(self, tmp_path, monkeypatch):
        """The directory of unnamed temporary files, to show that none is left."""
        spool = tmp_path / "spool"
        spool.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(spool))
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
        return spool

    @staticmethod
    def _fail_after(monkeypatch, calls, error):
        """PullbackTarget.rows raises `error` at its call `calls`, with draws kept already."""
        rows, seen = PullbackTarget.rows, []

        def failing(target, X):
            seen.append(1)
            if len(seen) == calls:
                raise error
            return rows(target, X)

        monkeypatch.setattr(PullbackTarget, "rows", failing)

    def _assert_nothing_left(self, forks, spool_dir):
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert list(spool_dir.iterdir()) == []

    @pytest.mark.parametrize("error", [ConditioningError("S is singular"), KeyboardInterrupt()])
    def test_sample_failing_mid_chain(self, tmp_path, monkeypatch, capsys, spool_dir, error):
        """`sample` makes --out only after the chain, as before the writer streamed."""
        forks = TestFileFormats._count_forks(monkeypatch)
        self._fail_after(monkeypatch, 150, error)
        out = tmp_path / "out"
        if isinstance(error, KeyboardInterrupt):
            with pytest.raises(KeyboardInterrupt):
                parse_and_dispatch(self.SAMPLE + [str(out)])
        else:
            assert parse_and_dispatch(self.SAMPLE + [str(out)]) == 4
            assert "S is singular" in capsys.readouterr().err
        assert not out.exists()
        self._assert_nothing_left(forks, spool_dir)

    def test_uniform_exp_failing_mid_chain(self, tmp_path, monkeypatch, capsys, spool_dir):
        """uniform-exp writes its manifest first, as before; no draws.csv or report follows."""
        forks = TestFileFormats._count_forks(monkeypatch)
        self._fail_after(monkeypatch, 150, ConditioningError("S is singular"))
        out = tmp_path / "out"
        argv = ["uniform-exp", "--p", "50", "--k", "3", "--draws", "400", "--thin", "1",
                "--burn", "100", "--seed", "2", "--out", str(out)]
        assert parse_and_dispatch(argv) == 4
        assert [f.name for f in out.iterdir()] == ["manifest.json"]
        self._assert_nothing_left(forks, spool_dir)

    def test_a_child_whose_chain_process_is_gone_leaves(self, spool_dir):
        """EOF on the post pipe, as when the chain's process dies, ends the child, status 1."""
        target, run = _uniform_chain("stiefel", 50, 3, 437)
        with experiments.DrawsWriter(target, run) as writer:
            os.close(writer._posts)
            writer._posts = None
            pid, writer._pid = writer._pid, None
            assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_failing_format_in_one_process_leaves_no_file(self, tmp_path, monkeypatch,
                                                           spool_dir):
        """Below the fork floor this process formats every row; failing at row 51 leaves no file."""
        lines = experiments._lines

        def fail_at_row_51(coords, frames):
            for row, line in enumerate(lines(coords, frames), 1):
                if row == 51:
                    raise MemoryError("format failed")
                yield line

        monkeypatch.setattr(experiments, "_lines", fail_at_row_51)
        forks = TestFileFormats._count_forks(monkeypatch)
        target, run = _uniform_chain("stiefel", 50, 3, 100)
        with pytest.raises(MemoryError, match="format failed"):
            _stream(tmp_path / "draws.csv", target, run, "stiefel")
        assert forks == []
        assert [f.name for f in tmp_path.iterdir()] == ["spool"]

    @pytest.mark.parametrize("failing_block", [1, 2])
    def test_a_failing_child_raises_os_error(self, tmp_path, monkeypatch, spool_dir,
                                             failing_block):
        """The child fails at its first block, or at its second, which it reaches 0.2 s in."""
        lines, parent, blocks = experiments._lines, os.getpid(), []

        def fail_in_child(coords, frames):
            if os.getpid() != parent:
                blocks.append(1)
                if len(blocks) == failing_block:
                    raise MemoryError("child failed")
                time.sleep(0.2)
            return lines(coords, frames)

        monkeypatch.setattr(experiments, "_lines", fail_in_child)
        forks = TestFileFormats._count_forks(monkeypatch)
        target, run = _uniform_chain("stiefel", 50, 3, 437)
        with pytest.raises(OSError, match="exited with status 1"):
            _stream(tmp_path / "draws.csv", target, run, "stiefel")
        assert [f.name for f in tmp_path.iterdir()] == ["spool"]
        self._assert_nothing_left(forks, spool_dir)
