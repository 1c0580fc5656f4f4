"""Tests of the benchmark itself: span arithmetic, the tracer, and each op check.

    python3 -m pytest benchmark/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import tracing  # noqa: E402
import workloads  # noqa: E402
from cayley_mcmc import cli  # noqa: E402


def span(name, start, end, parent=-1):
    return (name, start, end, parent, 0, None)


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        span("cli.root", 0.0, 10.0),
        span("sampler.a", 1.0, 4.0, parent=0),
        span("sampler.b", 3.0, 6.0, parent=0),   # overlaps a on [3, 4]
        span("sampler.c", 8.0, 12.0, parent=0),  # clipped to the root's end
        span("jacobian.d", 1.5, 2.0, parent=1),
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - (5 + 2), 2.5, 3.0, 4.0, 0.5])


def test_union_length():
    assert tracing.union_length([]) == 0.0
    assert tracing.union_length([(0, 1), (2, 3), (0.5, 2.5)]) == pytest.approx(3.0)
    assert tracing.union_length([(0, 4), (1, 2)]) == pytest.approx(4.0)


def run_cli(workload, tmp_path, seed=1, index=0):
    out = tmp_path / "op"
    argv = workload.argv(seed, 1000 * seed + index, out)
    assert cli.parse_and_dispatch(argv) == 0
    return out


def test_tracer_records_nested_spans_and_restores_the_program(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.COUPLING, "replicates", 3)
    original = cli.parse_and_dispatch
    with tracing.Tracer() as tracer:
        run_cli(workloads.WORKLOADS["coupling"], tmp_path)
    assert cli.parse_and_dispatch is original
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names[0] == "cli.parse_and_dispatch" and tracer.spans[0][tracing.PARENT] == -1
    assert names.count("diagnostics.haar_stiefel_coupled") == 9
    assert names.count("cayley.cayley_inverse_stiefel") == 9
    profile = tracing.OpProfile(tracer.spans)
    assert profile.layer_self_s["cli"] > 0.0
    assert sum(tracing.self_times(tracer.spans)) == pytest.approx(
        tracer.spans[0][tracing.END] - tracer.spans[0][tracing.START])


def test_traced_counts_repeat_exactly(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.GRASSMANN, "iters", 300)
    monkeypatch.setitem(workloads.GRASSMANN, "burn", 100)
    counts = []
    for _ in range(2):
        with tracing.Tracer() as tracer:
            run_cli(workloads.WORKLOADS["grassmann-rw"], tmp_path)
        counts.append(dict(tracing.OpProfile(tracer.spans).calls))
    assert counts[0] == counts[1]
    assert counts[0]["jacobian._log_jacobian_lowrank"] > 0


def rewrite_draws(out: Path, edit) -> None:
    """Apply `edit(rows)` to the numeric rows of draws.csv, keeping its header."""
    lines = (out / "draws.csv").read_text().splitlines()
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    edit(rows)
    body = "\n".join(",".join(repr(float(x)) for x in row) for row in rows)
    (out / "draws.csv").write_text(lines[0] + "\n" + body + "\n")


def test_grassmann_check_rejects_a_non_orthonormal_frame(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.GRASSMANN, "iters", 600)
    monkeypatch.setitem(workloads.GRASSMANN, "burn", 100)
    out = run_cli(workloads.WORKLOADS["grassmann-rw"], tmp_path)
    good = workloads._grassmann_check(out, 1)
    assert good.ok, good.gates
    d = workloads.ManifoldDims(20, 4).d_g

    def stretch_one_frame(rows):
        rows[3, d:] *= 1.0 + 1e-6

    rewrite_draws(out, stretch_one_frame)
    bad = workloads._grassmann_check(out, 1)
    assert not bad.ok and not bad.gates["orthonormality_error"]["ok"]


def test_uniform_check_rejects_a_wrong_entry_law(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.UNIFORM, "draws", 300)
    monkeypatch.setitem(workloads.UNIFORM, "burn", 500)
    out = run_cli(workloads.WORKLOADS["uniform-rw"], tmp_path)
    good = workloads._uniform_check(out, 1)
    assert good.ok, good.gates
    d = workloads.ManifoldDims(50, 3).d_v
    rng = np.random.default_rng(0)

    def replace_entry(rows):
        rows[:, d] = rng.uniform(0.4, 0.6, rows.shape[0])  # Q[0,0] is column d

    rewrite_draws(out, replace_entry)
    bad = workloads._uniform_check(out, 1)
    assert not bad.gates["entry_ks"]["ok"] and bad.gates["scaled_coordinate_ks"]["ok"]


def test_coupling_check_rejects_rising_medians_and_a_large_ks(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.COUPLING, "replicates", 10)
    out = run_cli(workloads.WORKLOADS["coupling"], tmp_path)
    assert workloads._coupling_check(out, 1).ok
    path = out / "report.json"
    report = json.loads(path.read_text())
    report["metrics"]["epsilon_medians"][2] = report["metrics"]["epsilon_medians"][1]
    report["metrics"]["ks_pooled_z_smallest_p"] = 0.2
    path.write_text(json.dumps(report))
    bad = workloads._coupling_check(out, 1)
    assert not bad.gates["median_non_decreases"]["ok"]
    assert not bad.gates["pooled_z_ks"]["ok"]


def test_bingham_check_rejects_chains_that_disagree(tmp_path):
    """Synthetic op output: chain 0 near the mode with iid angles, chain 1 elsewhere."""
    seed, n = 1, 400
    p, k = workloads.BINGHAM["p"], workloads.BINGHAM["k"]
    d = workloads.ManifoldDims(p, k).d_v
    mode = workloads._bingham_mode(seed)
    theta = np.random.default_rng(0).uniform(0.05, 0.3, n)
    frames = np.repeat(mode[None], n, axis=0)
    frames[:, :, 0] = np.cos(theta)[:, None] * mode[:, 0] + np.sin(theta)[:, None] * mode[:, 1]
    rows = np.hstack([np.zeros((n, d)), frames.transpose(0, 2, 1).reshape(n, -1)])
    out = tmp_path / "op"
    out.mkdir()
    (out / "draws.csv").write_text(
        "# header\n" + "\n".join(",".join(repr(float(x)) for x in r) for r in rows) + "\n")
    edges = np.linspace(0.0, np.pi / 2, 31)
    chain0 = np.histogram(theta, bins=edges)[0].tolist()

    def write_report(chain1):
        hist = {"theta1_chain0": {"counts": chain0}, "theta1_chain1": {"counts": chain1}}
        (out / "report.json").write_text(json.dumps({"histograms": hist}))

    write_report(chain0)
    assert workloads._bingham_check(out, seed).ok
    write_report([0] * 25 + [n // 5] * 5)
    bad = workloads._bingham_check(out, seed)
    assert not bad.ok and bad.gates["theta1_tv"]["value"] == pytest.approx(1.0)


def test_ess_matches_the_library_definition():
    from cayley_mcmc.diagnostics import acf_ess

    rng = np.random.default_rng(3)
    x = np.empty(3000)
    x[0] = 0.0
    for t in range(1, x.size):
        x[t] = 0.9 * x[t - 1] + rng.standard_normal()
    assert workloads.ess(x) == pytest.approx(acf_ess(x).ess, rel=1e-9)
    with pytest.raises(ValueError):
        workloads.ess(np.ones(10))


def test_metric_names_match_benchmark_json(tmp_path, monkeypatch):
    import run as bench_run

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    monkeypatch.setitem(workloads.COUPLING, "replicates", 3)
    with tracing.Tracer() as tracer:
        run_cli(workloads.WORKLOADS["coupling"], tmp_path)
    layer = tracing.layer_metrics([tracing.OpProfile(tracer.spans)], ess_per_op=9.0,
                                  wall_untraced=0.1, wall_traced=0.11, p11_gap=0.0)
    assert list(layer) == [m["name"] for m in spec["per_layer"]]
    records = [{"ok": True, "ess": 9.0, "wall_s": 0.1}, {"ok": False, "wall_s": 0.3}]
    e2e = bench_run.end_to_end(workloads.WORKLOADS["coupling"], records, [0.028] * 3,
                                 [1.0, 1.2, 1.1], [0.028] * 4, 100.0)
    assert {m["name"] for m in spec["end_to_end"]} <= set(e2e)
    assert e2e["ok_share"] == 0.5 and e2e["failed_share"] == 0.5 and e2e["setup_s"] == 1.1


def test_reference_kernel_runs_for_its_share_of_the_measured_time(monkeypatch):
    import run as bench_run

    monkeypatch.setattr(bench_run, "reference_seconds", lambda: 0.01)
    refs = []
    bench_run.top_up_reference(refs, 0.0)
    assert refs == [0.01]
    bench_run.top_up_reference(refs, 1.0)
    assert len(refs) == 20 and sum(refs) >= bench_run.REF_SHARE * 1.0
