"""The benchmark's own tests: exact counts, span structure, metric names.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads

sys.path.insert(0, str(run.SRC))


def _traced(workload, seed, op_dir):
    tracer = spans.Tracer(run.clock)
    result = run.run_operation(workloads.WORKLOADS[workload](seed), op_dir,
                               tracer, op_id=7)
    assert result["problems"] == []
    return tracer, result


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_two_runs_give_identical_counts(workload, tmp_path):
    counts = []
    for attempt in range(2):
        _, result = _traced(workload, 3, tmp_path / str(attempt))
        counts.append({name: result["layers"][name] for name in spans.EXACT_COUNTS})
    assert counts[0] == counts[1]


def test_spans_nest_and_self_times_fit_in_the_wall(tmp_path):
    tracer, result = _traced("scatter3d", 1, tmp_path / "op")
    by_id = {span[spans.SID]: span for span in tracer.spans}
    roots = [span for span in tracer.spans if span[spans.PARENT] == -1]
    assert [root[spans.NAME] for root in roots] == [spans.OP_SPAN]
    for span in tracer.spans:
        assert span[spans.OP] == 7
        assert span[spans.T0] <= span[spans.T1]
        if span is roots[0]:
            continue
        parent = by_id[span[spans.PARENT]]
        assert parent[spans.T0] <= span[spans.T0]
        assert span[spans.T1] <= parent[spans.T1]
    own = spans.self_times(tracer.spans)
    assert min(own.values()) >= 0.0
    assert sum(own.values()) <= result["wall_s"]
    layers = {span[spans.NAME].split(".")[0] for span in tracer.spans}
    assert {"grid", "solver", "observables", "scattering", "snapshots",
            "geometry", "config", "cli"} <= layers


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_inputs_follow_the_seed():
    for make in workloads.WORKLOADS.values():
        assert make(5) == make(5)
        assert make(5) != make(6)


def test_checks_reject_wrong_ray_verdicts(tmp_path):
    calls = workloads.rays(0)
    for call, trapped in zip(calls, (0, 2)):
        (tmp_path / call.run).mkdir()
        (tmp_path / call.run / "manifest.json").write_text(
            json.dumps({"counts": {"trapped_at_horizon": trapped}}))
    assert len(workloads.check(calls[0], tmp_path)) == 1
    assert len(workloads.check(calls[1], tmp_path)) == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for source in run.ROOT.joinpath("perfbench").glob("*.py"):
        shutil.copy(source, bench)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rays", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
