#!/usr/bin/env python3
"""dnls benchmark: four workloads of CLI calls, timed end to end or traced.

Usage, from the repository root:

    python3 perfbench/run.py --workload evolve3d --seed 0 --seconds 25 --trace 0

Each operation runs every CLI call of the workload through ``dnls.cli.main``
in a child process forked from this one, so that the child's peak resident
memory belongs to that operation alone. Operations repeat until ``--seconds``
have passed. ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced operations and prints the per-layer metrics
and the tracing overhead. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

# One process, one FFT worker and single-threaded BLAS/OpenMP, set before
# numpy is imported so that the numbers measure the program, not the
# scheduler.
THREAD_VARS = {
    "DNLS_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
os.environ.update(THREAD_VARS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

clock = time.perf_counter

# Set-up is timed at least this many times in an untraced run.
MIN_SETUPS = 5
# A child that runs longer than this is killed and its operation fails.
CHILD_LIMIT_S = 120

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


# ----------------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------------


def in_child(fn) -> dict:
    """Run ``fn()`` in a forked child; return its JSON result and peak RSS.

    The child's peak resident set starts from this process's, which holds
    only imports, so it is the same baseline for every operation.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    start = clock()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        # The child never returns into the caller: whatever happens, it
        # reports through the pipe and exits here.
        try:
            os.close(read_fd)
            signal.alarm(CHILD_LIMIT_S)
            try:
                payload = fn()
            except BaseException:  # the parent counts it as a failed operation
                payload = {"problems": [traceback.format_exc()]}
            with os.fdopen(write_fd, "w") as fh:
                json.dump(payload, fh)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        data = fh.read()
    _, status, usage = os.wait4(pid, 0)
    result = json.loads(data) if data else {
        "problems": [f"child ended without a result (wait status {status})"]}
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    result["elapsed_s"] = clock() - start
    return result


def _write_configs(calls, op_dir: Path) -> None:
    op_dir.mkdir(parents=True)
    for call in calls:
        if call.config:
            (op_dir / f"{call.run}.ini").write_text(call.config)


def run_operation(calls, op_dir: Path, tracer=None, op_id=0, spans_path=None):
    """Run one operation: every CLI call, then the output checks."""
    import dnls.cli

    _write_configs(calls, op_dir)

    def body():
        codes = []
        for call in calls:
            if tracer is not None:
                tracer.label = call.label
            codes.append(dnls.cli.main(call.argv(op_dir)))
            if codes[-1] != 0:
                break
        return codes

    start = clock()
    if tracer is None:
        codes = body()
    else:
        with spans.installed(tracer):
            codes = tracer.operation(op_id, body)
    wall = clock() - start

    problems = [f"{call.command} {call.label}: exit code {code}"
                for call, code in zip(calls, codes) if code != 0]
    if not problems:
        for call in calls:
            problems += workloads.check(call, op_dir)
    output_bytes = sum(p.stat().st_size for p in op_dir.rglob("*")
                       if p.is_file() and p.suffix != ".ini")
    result = {"wall_s": wall, "problems": problems}
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer.spans, wall, output_bytes)
        if spans_path is not None:
            tracer.write(spans_path)
    return result


def setup_once(calls, op_dir: Path) -> dict:
    """Time the builders the CLI runs before its first step, ray step or scan."""
    from dnls.config import parse_config
    from dnls.geometry import check_control
    from dnls.grid import weight_tables
    from dnls.observables import standard_monitors
    from dnls.rays import sample_ensemble

    _write_configs(calls, op_dir)
    start = clock()
    for call in calls:
        cfg = parse_config(op_dir / f"{call.run}.ini")
        if call.command == "scatter":
            continue
        spec = cfg.grid_spec()
        metric, damping = cfg.build_geometry(spec)
        check_control(metric, damping, cfg.geometry.g_tol, cfg.geometry.a_min)
        if call.command == "rays":
            sample_ensemble(spec.dim, cfg.rays.count, cfg.rays.sample_radius,
                            seed=cfg.run.seed, mode=cfg.rays.sampling)
            continue
        obs = cfg.observables
        standard_monitors(
            metric, damping, weight_tables(spec),
            record_every=obs.record_every,
            interaction_every=obs.interaction_every,
            local_radius=obs.local_radius,
            cutoff=cfg.cutoff(spec),
            cutoff_exponents=obs.cutoff_exponents,
            nonlinearity=cfg.solver.nonlinearity,
            g_tol=cfg.geometry.g_tol,
            a_min=cfg.geometry.a_min,
        )
    return {"setup_s": clock() - start}


# ----------------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------------


def _command(*argv) -> str | None:
    try:
        done = subprocess.run(argv, capture_output=True, text=True, timeout=20,
                              check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout


def _cpu() -> dict:
    info = {"model": None, "l2": None, "l3": None}
    keys = {"Model name": "model", "L2 cache": "l2", "L3 cache": "l3"}
    for line in (_command("lscpu") or "").splitlines():
        key, _, value = line.partition(":")
        if key.strip() in keys:
            info[keys[key.strip()]] = value.strip()
    return info


def _source() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = dirty = None
    if (ROOT / ".git").exists():
        head = _command("git", "-C", str(ROOT), "rev-parse", "HEAD")
        status = _command("git", "-C", str(ROOT), "status", "--porcelain",
                          "--untracked-files=no")
        commit = head.strip() if head else None
        dirty = bool(status.strip()) if status is not None else None
    return {"git_commit": commit, "git_dirty": dirty,
            "src_sha256": digest.hexdigest()}


def provenance(workload: str, seed: int) -> dict:
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": _cpu(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {key: os.environ.get(key) for key in THREAD_VARS},
        **_source(),
    }


# ----------------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------------


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile above the median with >= 10 samples beyond it."""
    q = math.floor(100.0 * (1.0 - 10.0 / n)) if n else 0
    return q if q > 50 else None


def measure(workload: str, seed: int, seconds: float, trace: bool,
            work: Path) -> dict:
    """Repeat operations until ``seconds`` have passed.

    Untraced runs time one set-up after each operation, so that set-up and
    operations sample the same stretch of the host's load. Traced runs
    alternate untraced and traced operations.
    """
    calls = workloads.WORKLOADS[workload](seed)
    setup, ops = [], []
    spans_path = WORK / f"spans-{workload}-seed{seed}.jsonl"
    deadline = clock() + seconds
    while (clock() < deadline or not ops or (trace and len(ops) < 2)
           or (not trace and len(setup) < MIN_SETUPS)):
        op_dir = work / f"op{len(ops)}"
        traced = trace and len(ops) % 2 == 1
        tracer = spans.Tracer(clock) if traced else None
        keep_spans = spans_path if len(ops) == 1 else None
        ops.append(in_child(lambda: run_operation(calls, op_dir, tracer,
                                                  len(ops), keep_spans)))
        ops[-1]["traced"] = traced
        shutil.rmtree(op_dir, ignore_errors=True)
        if not trace:
            setup.append(in_child(lambda: setup_once(calls, op_dir)))
            shutil.rmtree(op_dir, ignore_errors=True)
    return {"setup": setup, "ops": ops}


def _median(values) -> float:
    """Median, or 0 when every operation crashed (the run is then incorrect)."""
    return float(np.median(values)) if len(values) else 0.0


def _timed(ops) -> list[dict]:
    """The operations whose outputs passed their checks, or all when none did."""
    return [op for op in ops if not op["problems"]] or ops


def summarize(workload: str, seed: int, trace: bool, measured: dict) -> dict:
    ops, setup = measured["ops"], measured["setup"]
    failed = [op for op in ops if op["problems"]]
    untraced = [op.get("wall_s", op["elapsed_s"])
                for op in _timed([op for op in ops if not op["traced"]])]
    traced = [op for op in _timed([op for op in ops if op["traced"]])
              if "layers" in op]
    problems = [p for op in failed + setup for p in op.get("problems", ())]

    report = {
        "workload": workload,
        "seed": seed,
        "attempted": len(ops),
        "failed": len(failed),
        "error_rate": len(failed) / len(ops),
        "problems": problems[:10],
    }
    q = tail_percentile(len(untraced))
    report["wall_s"] = {
        "samples": len(untraced),
        "p50": _median(untraced),
        "tail_percentile": q,
        "tail": float(np.percentile(untraced, q)) if q else None,
        "each": [round(wall, 4) for wall in untraced],
    }
    metrics: dict[str, dict] = {}
    if not trace:
        values = {
            "wall_s": _median(untraced),
            "setup_s": _median([rep["setup_s"] for rep in setup
                                if "setup_s" in rep]),
            "peak_rss_mb": _median([op["peak_rss_mb"] for op in ops]),
        }
        report["setup_s"] = {"samples": len(setup), "p50": values["setup_s"]}
        report["peak_rss_mb"] = {"p50": values["peak_rss_mb"],
                                 "max": max(op["peak_rss_mb"] for op in ops)}
        for name, value in values.items():
            metrics[name] = {"value": value, "unit": END_TO_END_UNITS[name]}
        return {"report": report, "metrics": metrics, "problems": problems}

    layers = {name: _median([op["layers"][name] for op in traced])
              for name in spans.PER_LAYER_UNITS if name not in spans.TRACE_METRICS}
    traced_wall = _median([op["wall_s"] for op in traced])
    layers["trace.traced_wall_s"] = traced_wall
    layers["trace.untraced_wall_s"] = _median(untraced)
    layers["trace.overhead_s"] = traced_wall - _median(untraced)
    report["traced_samples"] = len(traced)
    report["counts"] = {name: layers[name] for name in spans.EXACT_COUNTS}
    report["shares"] = {layer: layers[f"{layer}.share"] for layer in spans.LAYERS}
    report["trace_overhead_s"] = layers["trace.overhead_s"]
    for name, unit in spans.PER_LAYER_UNITS.items():
        metrics[name] = {"value": layers[name], "unit": unit}
    return {"report": report, "metrics": metrics, "problems": problems}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dnls" / "__init__.py").is_file():
        print(f"perfbench: no dnls sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dnls.cli  # noqa: F401  (imported once here, not in every child)

    print("provenance: " + json.dumps(provenance(args.workload, args.seed)))
    work = WORK / f"work-{os.getpid()}"
    try:
        measured = measure(args.workload, args.seed, args.seconds,
                           bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    summary = summarize(args.workload, args.seed, bool(args.trace), measured)
    report = summary["report"]
    for key, value in report.items():
        print(f"{key}: {json.dumps(value)}")
    print(json.dumps({
        "correct": not summary["problems"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": summary["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
