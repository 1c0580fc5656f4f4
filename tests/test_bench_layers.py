"""tools/bench_layers.py: the paired rounds, their summary and the side-by-side trees."""

from __future__ import annotations

import importlib.util
import os
import shutil
import statistics
import subprocess
import sys
import textwrap
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_layers.py"

# The tool pins the BLAS thread variables when imported; keep them out of this process's
# environment, which later tests pass on to their subprocesses.
with mock.patch.dict(os.environ):
    _spec = importlib.util.spec_from_file_location("bench_layers", TOOL)
    bench_layers = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(bench_layers)


def stub_timers(log: list, times: dict) -> dict:
    """Timers that log (name, tree, round) and return times[tree][name](round) as us."""
    def timer(name, tree, index):
        log.append((name, tree, index))
        return {"us": times[tree][name](index)}

    return {tree: {name: (lambda index, name=name, tree=tree: timer(name, tree, index))
                   for name in times[tree]} for tree in times}


class TestPairedRounds:
    def test_the_tree_that_goes_first_alternates(self):
        log = []
        one = {"a": lambda index: 1.0, "b": lambda index: 1.0}
        bench_layers.paired_rounds(stub_timers(log, {"parent": one, "change": one}), 4)
        untimed = [(name, tree, 0) for name in "ab" for tree in ("parent", "change")]
        assert log[:4] == untimed
        for index in range(4):
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            assert log[4 + 4 * index: 8 + 4 * index] == [
                (name, tree, index) for name in "ab" for tree in order]
        assert len(log) == 20

    def test_each_tree_keeps_its_own_times_per_round(self):
        times = {"parent": {"a": lambda index: 2.0 + index},
                 "change": {"a": lambda index: 10.0 + index}}
        runs, skipped = bench_layers.paired_rounds(stub_timers([], times), 3)
        assert runs == {"a": {"parent": {"us": [2.0, 3.0, 4.0]},
                              "change": {"us": [10.0, 11.0, 12.0]}}}
        assert skipped == []

    def test_a_layer_that_one_tree_lacks_is_skipped_and_listed(self):
        log = []
        times = {"parent": {"a": lambda index: 1.0, "b": lambda index: 1.0},
                 "change": {"a": lambda index: 1.0, "c": lambda index: 1.0}}
        runs, skipped = bench_layers.paired_rounds(stub_timers(log, times), 2)
        assert list(runs) == ["a"]
        assert skipped == ["b", "c"]
        assert {name for name, _, _ in log} == {"a"}

    def test_the_ratio_is_change_over_parent(self, monkeypatch):
        monkeypatch.setattr(bench_layers, "ROUNDS", 4)
        times = {"parent": {"a": lambda index: 2.0 * (index + 1)},
                 "change": {"a": lambda index: 1.0 * (index + 1)}}
        section = bench_layers.compare(stub_timers([], times), "us")
        entry = section["results"]["a"]
        assert entry["ratios"] == [0.5] * 4
        assert entry["parent"] == {"us": [2.0, 4.0, 6.0, 8.0]}
        assert entry["change"] == {"us": [1.0, 2.0, 3.0, 4.0]}
        assert entry["change_faster_rounds"] == 4
        assert section["skipped"] == []


class TestSummary:
    def test_median_and_quartiles_are_those_of_statistics_quantiles(self):
        rng = np.random.default_rng(0)
        for n in (4, 5, 20):
            parent = rng.uniform(1.0, 2.0, n).tolist()
            change = rng.uniform(1.0, 2.0, n).tolist()
            ratios = [c / p for c, p in zip(change, parent)]
            q1, median, q3 = statistics.quantiles(ratios, n=4)
            got = bench_layers.summary(parent, change)
            assert got["ratios"] == [round(r, 4) for r in ratios]
            assert (got["q1"], got["median"], got["q3"]) == (
                round(q1, 4), round(median, 4), round(q3, 4))
            assert got["median"] == round(statistics.median(ratios), 4)
            assert got["quartiles_exclude_1"] == (q3 < 1.0 or q1 > 1.0)
            assert got["change_faster_rounds"] == sum(r < 1.0 for r in ratios)

    @pytest.mark.parametrize("change, excludes", [
        ([0.8, 0.9, 0.85, 0.95, 0.9], True),
        ([1.1, 1.2, 1.05, 1.3, 1.2], True),
        ([0.8, 1.2, 0.9, 1.1, 1.0], False),
    ])
    def test_quartiles_exclude_1_only_when_both_lie_on_one_side(self, change, excludes):
        assert bench_layers.summary([1.0] * 5, change)["quartiles_exclude_1"] is excludes


def test_parent_is_required(capsys):
    with pytest.raises(SystemExit) as exit_info:
        bench_layers.main(["--out", "unused.json"])
    assert exit_info.value.code == 2
    assert "--parent" in capsys.readouterr().err


def test_each_loaded_tree_reaches_its_own_code(tmp_path):
    """Two copies of src side by side; only the second's ManifoldDims message has a sentinel.

    `load_tree` rewrites `sys.modules`, so the trees are loaded in a fresh
    interpreter. `SpikedDataSpec` (in `experiments`) reaches `ManifoldDims`
    (in `special_matrices`) through each tree's own imports.
    """
    for name in ("a", "b"):
        shutil.copytree(ROOT / "src", tmp_path / name / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    edited = tmp_path / "b" / "src" / "cayley_mcmc" / "special_matrices.py"
    text = edited.read_text()
    assert text.count("require 1 <= k < p") == 1
    edited.write_text(text.replace("require 1 <= k < p", "sentinel: require 1 <= k < p"))
    script = textwrap.dedent(f"""
        import sys
        from pathlib import Path
        sys.path.insert(0, {str(TOOL.parent)!r})
        import bench_layers

        trees = {{name: bench_layers.load_tree(Path({str(tmp_path)!r}) / name / "src")
                 for name in ("a", "b")}}
        for name in ("a", "b", "a"):
            try:
                trees[name]["cayley_mcmc.experiments"].SpikedDataSpec(
                    n=10, p=3, k=3, sigma2=1.0, lam=[3.0, 2.0, 1.0])
            except ValueError as error:
                print(name, trees[name]["cayley_mcmc.experiments"].__file__, error)
    """)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=env, timeout=120, check=True)
    lines = result.stdout.splitlines()
    assert len(lines) == 3
    for line, name in zip(lines, ("a", "b", "a")):
        tree, path, message = line.split(" ", 2)
        assert tree == name
        assert Path(path).is_relative_to(tmp_path / name / "src")
        assert message.startswith("sentinel: ") is (name == "b")


class TestSecondsInside:
    def test_each_method_sums_its_calls_and_is_put_back(self):
        class Sink:
            def slow(self, seconds):
                time.sleep(seconds)
                return seconds

            def fast(self):
                return 1

        slow, fast = Sink.slow, Sink.fast
        sink = Sink()
        with bench_layers.seconds_inside(Sink, ("slow", "fast")) as spent:
            assert [sink.slow(0.01) for _ in range(3)] == [0.01] * 3
            assert sink.fast() == 1
        assert 0.03 <= spent["slow"] < 1.0
        assert 0.0 < spent["fast"] < 0.01
        assert (Sink.slow, Sink.fast) == (slow, fast)

    def test_an_error_inside_the_block_puts_the_methods_back(self):
        class Sink:
            def method(self):
                return 1

        method = Sink.method
        with pytest.raises(KeyError):
            with bench_layers.seconds_inside(Sink, ("method",)):
                raise KeyError("op")
        assert Sink.method is method


def test_an_op_records_the_seconds_inside_the_draws_writer(tmp_path, monkeypatch):
    """A forked writer's op: its posts and its write are timed, and the child's CPU is read."""
    from cayley_mcmc import cli, experiments  # noqa: F401  (time_op calls cli from modules)

    class Workload:
        @staticmethod
        def argv(seed, op_seed, out):
            # 1 200 kept rows of V(3,50): 352 800 numbers, past the two-process floor.
            return ["sample", "--p", "50", "--k", "3", "--iters", "1300", "--burn", "100",
                    "--seed", str(op_seed), "--out", str(out)]

    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    forks = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "cayley_mcmc" or name.startswith("cayley_mcmc.")}
    kept, write = experiments.DrawsWriter.kept, experiments.DrawsWriter.write
    times = bench_layers.time_op(modules, Workload, tmp_path, 0)
    assert len(forks) == 1
    assert set(times) == {"s", "child_cpu_s", "kept_s", "write_s"}
    assert 0.0 < times["kept_s"] and 0.0 < times["write_s"]
    assert times["kept_s"] + times["write_s"] < times["s"]
    assert times["child_cpu_s"] > 0.0
    assert (experiments.DrawsWriter.kept, experiments.DrawsWriter.write) == (kept, write)
    assert not (tmp_path / "op").exists()
