import dataclasses
import json
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from dnls.cli import EXIT_CONFIG, EXIT_OK, EXIT_STABILITY, EXIT_VERDICT, main
from dnls.observables import BoundCheckReport, InteractionReport
from dnls.snapshots import Snapshot, load_snapshot, read_snapshot, write_snapshot

from conftest import grid_snapshots
from reference import write_snapshot_v1

TINY_1D = """\
[grid]
dim = 1
n = 64
box_half_length = 10.0

[geometry]
preset = identity
damping_radius = 3.0

[solver]
dt = 0.005
duration = 0.1

[observables]
local_radius = 2.0

[scattering]
snapshot_every = 5

[run]
seed = 1
"""

RAYS_UNCONTROLLED = """\
[grid]
dim = 2
n = 32
box_half_length = 12.0

[geometry]
preset = uncontrolled_bump
metric_amplitude = -0.95
metric_radius = 2.0
damping_radius = 2.0

[rays]
count = 48
sample_radius = 2.0
horizon = 25.0
dt = 0.002

[run]
seed = 7
"""


def _write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_check_geometry_identity_exits_zero(tmp_path, capsys):
    cfg = _write(tmp_path, TINY_1D)
    assert main(["check-geometry", "--config", cfg, "--strict"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["control"]["satisfied"] is True
    assert out["coercivity_constant"] == 1.0


def test_check_geometry_strict_fails_on_violation(tmp_path):
    cfg = _write(tmp_path, RAYS_UNCONTROLLED)
    assert main(["check-geometry", "--config", cfg, "--quiet"]) == EXIT_OK
    assert main(["check-geometry", "--config", cfg, "--strict", "--quiet"]) \
        == EXIT_VERDICT


def test_bad_config_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, TINY_1D + "\n[solver]\n")  # duplicate section
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) \
        == EXIT_CONFIG
    assert main(["simulate", "--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_simulate_refuses_a_zero_record_cadence(tmp_path, capsys):
    cfg = _write(tmp_path, TINY_1D.replace("local_radius = 2.0",
                                           "local_radius = 2.0\nrecord_every = 0"))
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "record_every" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_refuses_a_cutoff_that_misses_the_damping(tmp_path, capsys):
    cfg = _write(tmp_path, "[grid]\ndim = 2\nn = 64\nbox_half_length = 12.0\n"
                 "[geometry]\npreset = conformal_bump\ndamping_radius = 4.0\n"
                 "[observables]\ncutoff_flat_radius = 1.0\n")
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "[observables] cutoff must equal 1" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_tiny_run_completes_quickly(tmp_path):
    cfg = _write(tmp_path, TINY_1D)
    out = tmp_path / "run1"
    start = time.perf_counter()
    assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) \
        == EXIT_OK
    assert time.perf_counter() - start < 5.0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "complete"
    files = set(manifest["files"])
    for required in ("config.ini", "series_mass.csv", "series_energy.csv",
                     "series_mass_law_residual.csv", "reports.json", "lambda.csv"
                     .replace("lambda.csv", "series_lambda.csv")):
        assert required in files, required
    for name in files:
        assert (out / name).exists()
    assert manifest["snapshots"]
    reports = json.loads((out / "reports.json").read_text())
    assert reports["mass_law_max_residual"] < 1e-5  # damped run: O(dt^2) trapezoid
    assert reports["energy_lambda_bound"]["passed"] is True
    # the two check reports are written from their dataclasses
    for key, report in (("energy_lambda_bound", BoundCheckReport),
                        ("interaction_inequality", InteractionReport)):
        assert set(reports[key]) == {f.name for f in dataclasses.fields(report)}


def test_simulate_reports_only_the_sparse_virial_cadence(tmp_path, monkeypatch):
    # two records are too few for the virial rate: the run reports it; any
    # other error of that step is raised, not written into reports.json
    import dnls.observables

    sparse = TINY_1D.replace("local_radius = 2.0", "local_radius = 2.0\nrecord_every = 100")
    cfg = _write(tmp_path, sparse)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"]) == EXIT_OK
    reports = json.loads((tmp_path / "o" / "reports.json").read_text())
    assert "needs >= 3 records" in reports["morawetz_rate"]["error"]

    def broken(*args, **kwargs):
        raise RuntimeError("virial rate step failed")

    monkeypatch.setattr(dnls.observables, "morawetz_rate_residual", broken)
    with pytest.raises(RuntimeError, match="virial rate step failed"):
        main(["simulate", "--config", _write(tmp_path, TINY_1D), "--out",
              str(tmp_path / "p"), "--quiet"])


def _read_series(path):
    from dnls.observables import ObservableSeries

    times, values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).T
    return ObservableSeries(path.stem.removeprefix("series_"), times, values)


def test_reports_json_is_run_reports_of_the_written_series(tmp_path):
    # reports.json is the control report plus observables.run_reports of the
    # series the run wrote (%.17g reads back to the same bits)
    from dnls import config, geometry, grid, observables
    from dnls.cli import _control_report_dict

    out = tmp_path / "o"
    assert main(["simulate", "--config", _write(tmp_path, TINY_1D), "--out",
                 str(out), "--quiet"]) == EXIT_OK
    cfg = config.parse_config(out / "config.ini")
    metric, damping = cfg.build_geometry()
    control = geometry.check_control(metric, damping, cfg.geometry.g_tol,
                                     cfg.geometry.a_min)
    series = {s.name: s for s in map(_read_series, sorted(out.glob("series_*.csv")))}
    reports = observables.run_reports(series, metric, damping,
                                      grid.weight_tables(metric.spec))
    expected = {"control": _control_report_dict(control), **reports.payload}
    assert json.loads((out / "reports.json").read_text()) \
        == json.loads(json.dumps(expected))
    assert list(reports.series) == ["mass_law_residual", "energy_law_residual",
                                    "lambda", "morawetz_rate_residual",
                                    "l4_accumulator"]
    for name, written in reports.series.items():
        assert np.array_equal(series[name].values, written.values), name
        assert np.array_equal(series[name].times, written.times), name


def test_simulate_records_the_control_warning_first(tmp_path):
    # the CLI, not the solver, records the control violation, ahead of the
    # warnings the run raises
    wide = TINY_1D.replace("preset = identity", "preset = uncontrolled_bump")
    wide = wide.replace("[solver]", "[initial_data]\nwidth = 3.0\n\n[solver]")
    out = tmp_path / "o"
    assert main(["simulate", "--config", _write(tmp_path, wide), "--out", str(out),
                 "--quiet"]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "complete"
    control, shell = manifest["warnings"]
    assert control == ("geometry violates the exterior control condition; "
                       "decay diagnostics are not expected to hold")
    assert shell.startswith("boundary-shell mass fraction")


def test_a_horizon_not_a_whole_number_of_steps_exits_2(tmp_path, capsys):
    short = RAYS_UNCONTROLLED.replace("horizon = 25.0", "horizon = 0.01")
    short = short.replace("dt = 0.002", "dt = 0.05")
    out = tmp_path / "o"
    assert main(["rays", "--config", _write(tmp_path, short), "--out", str(out)]) \
        == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "[rays] horizon = 0.01 is not a whole number" in err[0]
    assert not out.exists()


def test_simulate_builds_the_preset_once(tmp_path, monkeypatch):
    import dnls.config

    calls = []
    original = dnls.config.build_preset

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(dnls.config, "build_preset", counted)
    cfg = _write(tmp_path, TINY_1D)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"]) == EXIT_OK
    assert calls == ["identity"]


TABLE_FREE = """\
[grid]
dim = 2
n = 32
box_half_length = 12.0

[geometry]
preset = {preset}

[solver]
dt = 0.01
duration = 0.05

[rays]
count = 4
sample_radius = 2.0
horizon = 1.0
dt = 0.01

[run]
seed = 1
"""


@pytest.mark.parametrize("preset", ["identity", "conformal_bump",
                                    "anisotropic_bump", "uncontrolled_bump"])
def test_runs_never_build_the_metric_table(tmp_path, monkeypatch, preset):
    # the package uses G only through its structure, p and v: no run expands
    # it into the generic d x d arrays of G or dG/dx, on or off the grid
    import dnls.config
    from dnls.geometry import MetricField

    def refuse(self, points):
        raise AssertionError("a run expanded the metric into its d x d table")

    metrics = []
    original = dnls.config.build_preset

    def kept(*args, **kwargs):
        pair = original(*args, **kwargs)
        metrics.append(pair[0])
        return pair

    monkeypatch.setattr(dnls.config, "build_preset", kept)
    monkeypatch.setattr(MetricField, "eval_metric", refuse)
    monkeypatch.setattr(MetricField, "eval_metric_grad", refuse)
    cfg = _write(tmp_path, TABLE_FREE.format(preset=preset))
    for sub in ("simulate", "check-geometry", "rays"):
        assert main([sub, "--config", cfg, "--out", str(tmp_path / sub),
                     "--quiet"]) == EXIT_OK
    assert len(metrics) == 3


def test_simulate_leaves_the_reference_weight_tables_unbuilt(tmp_path, monkeypatch):
    # the interaction uses only the kernel transforms, not the grad|x| table
    import dnls.grid

    built = []
    original = dnls.grid.weight_tables

    def kept(spec):
        built.append(original(spec))
        return built[-1]

    monkeypatch.setattr(dnls.grid, "weight_tables", kept)
    cfg = _write(tmp_path, TABLE_FREE.format(preset="conformal_bump"))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"]) == EXIT_OK
    (tables,) = built
    # beyond the closed-form fields the run builds only the kernel spectra
    fields = {f.name for f in dataclasses.fields(tables)}
    assert set(vars(tables)) - fields == {"grad_rho_hat"}


def test_simulate_builds_div_G_grad_a_once(tmp_path, monkeypatch):
    # the energy law's mass-term monitor and the energy/lambda bound share
    # the run's div(G grad a) table
    import dnls.geometry

    built = []
    original = dnls.geometry.real_derivatives

    def counted(table, metric):
        built.append(metric)
        return original(table, metric)

    monkeypatch.setattr(dnls.geometry, "real_derivatives", counted)
    cfg = _write(tmp_path, TABLE_FREE.format(preset="conformal_bump"))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"]) == EXIT_OK
    assert len(built) == 1


def test_simulate_outputs_are_deterministic(tmp_path):
    cfg = _write(tmp_path, TINY_1D)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2), "--quiet"]) == 0
    for name in ("series_mass.csv", "series_energy.csv", "series_virial.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_simulate_resume_from_snapshot(tmp_path):
    cfg = _write(tmp_path, TINY_1D)
    out1 = tmp_path / "first"
    assert main(["simulate", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    snap = out1 / manifest["snapshots"][-1]
    field, t = read_snapshot(snap)
    assert t == pytest.approx(0.1)
    out2 = tmp_path / "resumed"
    assert main(["simulate", "--config", cfg, "--out", str(out2), "--quiet",
                 "--resume", str(snap)]) == 0
    manifest2 = json.loads((out2 / "manifest.json").read_text())
    assert manifest2["final_time"] == pytest.approx(0.2)


RESUME_2D = """\
[grid]
dim = 2
n = 32
box_half_length = 8.0

[geometry]
preset = identity
damping_radius = 3.0

[solver]
dt = 0.01
duration = 0.12

[observables]
record_every = 3
interaction_every = 3
local_radius = 2.0

[scattering]
snapshot_every = 2

[run]
seed = 3
"""

# the series run_reports derives from the monitors: integrals from the run's
# start, which a resumed run moves
_DERIVED = {"mass_law_residual", "energy_law_residual", "lambda",
            "morawetz_rate_residual", "l4_accumulator"}


def _monitor_series(run_dir) -> dict:
    return {path.stem.removeprefix("series_"): _read_series(path)
            for path in sorted(run_dir.glob("series_*.csv"))
            if path.stem.removeprefix("series_") not in _DERIVED}


def test_resume_continues_the_step_index(tmp_path):
    # resumed from its step-4 snapshot, the run numbers its steps 5, 6, ...
    # and keeps the cadences of the straight run: records at 6, 9, 12 and
    # snapshots at 6, 8, 10, 12 (not at 7, 10, 13 and 6, 8, ... counted
    # from 0), and the series agree on the common steps
    cfg = _write(tmp_path, RESUME_2D)
    straight, resumed = tmp_path / "straight", tmp_path / "resumed"
    assert main(["simulate", "--config", cfg, "--out", str(straight), "--quiet"]) == 0
    names = json.loads((straight / "manifest.json").read_text())["snapshots"]
    assert [load_snapshot(straight / name).step for name in names] == [0, 2, 4, 6, 8,
                                                                     10, 12]
    start = straight / names[2]
    assert main(["simulate", "--config", cfg, "--out", str(resumed), "--quiet",
                 "--resume", str(start)]) == 0
    manifest = json.loads((resumed / "manifest.json").read_text())
    assert manifest["steps"] == 16
    assert [load_snapshot(resumed / name).step
            for name in manifest["snapshots"]] == [4, 6, 8, 10, 12, 14, 16]
    for name in manifest["snapshots"][1:5]:
        snapshot = load_snapshot(resumed / name)
        twin = load_snapshot(straight / names[snapshot.step // 2])
        assert snapshot.t == twin.t
        assert np.max(np.abs(snapshot.values - twin.values)) <= 1e-12 * np.max(
            np.abs(twin.values))
    ahead, behind = _monitor_series(straight), _monitor_series(resumed)
    assert sorted(ahead) == sorted(behind) and "mass" in ahead
    t = {step: ahead["mass"].times[k] for k, step in enumerate((0, 3, 6, 9, 12))}
    for name, series in behind.items():
        assert list(series.times[:4]) == [load_snapshot(start).t, t[6], t[9], t[12]]
        want = ahead[name].values[2:]
        assert np.max(np.abs(series.values[1:4] - want)) <= 1e-12 * max(
            np.max(np.abs(want)), 1e-300)


def test_resume_refuses_a_snapshot_of_another_config(tmp_path, capsys):
    cfg = _write(tmp_path, TINY_1D)
    first = tmp_path / "first"
    assert main(["simulate", "--config", cfg, "--out", str(first), "--quiet"]) == 0
    snap = first / json.loads((first / "manifest.json").read_text())["snapshots"][1]
    other = _write(tmp_path, TINY_1D.replace("duration = 0.1", "duration = 0.2"),
                   "other.ini")
    capsys.readouterr()
    out = tmp_path / "resumed"
    assert main(["simulate", "--config", other, "--out", str(out), "--quiet",
                 "--resume", str(snap)]) == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "config hash" in err[0]
    assert not out.exists()


def test_version_1_snapshots_are_refused_by_scatter_and_resume(tmp_path, capsys):
    # a run's snapshots rewritten as v1 files (no checksum): dnls scatter and
    # simulate --resume each exit 2 on one line naming the version, and write
    # no output
    cfg = _write(tmp_path, TINY_1D)
    run_dir = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(run_dir), "--quiet"]) == 0
    names = json.loads((run_dir / "manifest.json").read_text())["snapshots"]
    for name in names:
        field, t = read_snapshot(run_dir / name)
        write_snapshot_v1(run_dir / name, field, t)
    resumed = tmp_path / "resumed"
    for argv in (["scatter", "--manifest", str(run_dir / "manifest.json"), "--quiet"],
                 ["simulate", "--config", cfg, "--out", str(resumed), "--quiet",
                  "--resume", str(run_dir / names[1])]):
        capsys.readouterr()
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "unsupported snapshot version 1" in err[0]
    assert not (run_dir / "scatter").exists()
    assert not resumed.exists()


def test_scatter_on_mixed_layouts_or_a_checksum_mismatch_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, TINY_1D)
    run_dir = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(run_dir), "--quiet"]) == 0
    snap = run_dir / json.loads((run_dir / "manifest.json").read_text())["snapshots"][1]
    original = snap.read_bytes()
    field, t = read_snapshot(snap)
    write_snapshot(snap, Snapshot(t, 5, field.spec, field.values, False))
    changed = bytearray(original)
    changed[-3] ^= 0x01
    for data, message in ((snap.read_bytes(), "band and grid layouts"),
                          (bytes(changed), "checksum mismatch")):
        snap.write_bytes(data)
        capsys.readouterr()
        assert main(["scatter", "--manifest", str(run_dir / "manifest.json"),
                     "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and message in err[0]
    assert not (run_dir / "scatter").exists()


def test_runs_without_dealiasing_write_grid_snapshots(tmp_path):
    cfg = _write(tmp_path, TINY_1D.replace("duration = 0.1",
                                           "duration = 0.1\ndealias = false"))
    run_dir = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(run_dir), "--quiet"]) == 0
    assert main(["scatter", "--manifest", str(run_dir / "manifest.json"),
                 "--quiet"]) == EXIT_OK
    names = json.loads((run_dir / "manifest.json").read_text())["snapshots"]
    for path in [run_dir / name for name in names] + [run_dir / "scatter" / "u_plus.dnls"]:
        assert not load_snapshot(path).band
        assert path.stat().st_size == 80 + 16 * 64


def test_simulate_resume_from_a_missing_snapshot_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, TINY_1D)
    missing = tmp_path / "nowhere.dnls"
    out = tmp_path / "resumed"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet",
                 "--resume", str(missing)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(missing) in err and len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_simulate_stability_abort_exits_3(tmp_path):
    # the controlled run blows up after its boundary-shell warning, the
    # uncontrolled one in the linear substep after its control warning: the
    # manifest keeps every warning raised before the abort, then the abort
    unstable = TINY_1D.replace("preset = identity", "preset = conformal_bump\nmetric_amplitude = -0.9\nmetric_radius = 2.0")
    unstable = unstable.replace("dt = 0.005", "dt = 0.2")
    unstable = unstable.replace("duration = 0.1", "duration = 20.0")
    uncontrolled = TINY_1D.replace("preset = identity", "preset = uncontrolled_bump")
    uncontrolled = uncontrolled.replace(
        "dt = 0.005", "dt = 5.0\ninner_perturbation_steps = 4")
    uncontrolled = uncontrolled.replace("duration = 0.1", "duration = 20.0")
    for text, before_abort in (
        (unstable, ["boundary-shell mass fraction"]),
        (uncontrolled, ["geometry violates the exterior control condition"]),
    ):
        cfg = _write(tmp_path, text, "unstable.ini")
        out = tmp_path / "boom"
        code = main(["simulate", "--config", cfg, "--out", str(out), "--quiet"])
        assert code == EXIT_STABILITY
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "incomplete"
        *raised, abort = manifest["warnings"]
        assert abort == manifest["error"]
        assert len(raised) == len(before_abort)
        assert all(w.startswith(p) for w, p in zip(raised, before_abort))


def test_simulate_abort_keeps_the_snapshots_taken_before_it(tmp_path, monkeypatch):
    # snapshots are written as they are taken: a run that aborts at step 12
    # leaves those of steps 0, 5 and 10, each the one a full run writes
    import dnls.solver
    from dnls.errors import StabilityError

    cfg = _write(tmp_path, TINY_1D)
    full, aborted = tmp_path / "full", tmp_path / "aborted"
    assert main(["simulate", "--config", cfg, "--out", str(full), "--quiet"]) == 0
    step = dnls.solver.step

    def failing_step(state, propagator, **kwargs):
        if state.step + 1 == 12:
            raise StabilityError("injected at step 12")
        return step(state, propagator, **kwargs)

    monkeypatch.setattr(dnls.solver, "step", failing_step)
    code = main(["simulate", "--config", cfg, "--out", str(aborted), "--quiet"])
    assert code == EXIT_STABILITY
    manifest = json.loads((aborted / "manifest.json").read_text())
    assert manifest["status"] == "incomplete"
    assert manifest["error"] == "injected at step 12"
    kept = manifest["snapshots"]
    assert kept == [f"snap_{i:06d}.dnls" for i in range(3)]
    assert set(kept) <= set(manifest["files"])
    for name, t in zip(kept, (0.0, 0.025, 0.05)):
        field, stored_t = read_snapshot(aborted / name)
        assert stored_t == pytest.approx(t)
        assert (aborted / name).read_bytes() == (full / name).read_bytes()


def test_rays_stability_abort_exits_3(tmp_path, capsys):
    # the ray flow of a metric amplitude of 1e300 overflows in its first step
    huge = RAYS_UNCONTROLLED.replace("preset = uncontrolled_bump",
                                     "preset = conformal_bump")
    huge = huge.replace("metric_amplitude = -0.95", "metric_amplitude = 1e300")
    huge = huge.replace("horizon = 25.0", "horizon = 1.0")
    cfg = _write(tmp_path, huge)
    out = tmp_path / "rays"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the overflow itself
        code = main(["rays", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == EXIT_STABILITY
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("stability abort: ")


@pytest.mark.parametrize("command, old, new", [
    ("simulate", "metric_radius = 2.0", "metric_radius = 1e-300"),  # was ZeroDivisionError
    ("rays", "seed = 7", "seed = -1"),                              # was numpy's ValueError
    ("rays", "sample_radius = 2.0", "sample_radius = nan"),         # was exit 3
])
def test_inputs_that_would_fail_in_the_run_exit_2_on_one_line(
        tmp_path, capsys, command, old, new):
    assert old in RAYS_UNCONTROLLED
    cfg = _write(tmp_path, RAYS_UNCONTROLLED.replace(old, new))
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error: ")
    assert not out.exists()


def test_rays_uncontrolled_strict_exit_and_csv(tmp_path):
    cfg = _write(tmp_path, RAYS_UNCONTROLLED)
    out = tmp_path / "rays"
    code = main(["rays", "--config", cfg, "--out", str(out), "--strict", "--quiet"])
    assert code == EXIT_VERDICT
    rows = (out / "rays.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    assert header[-5:] == ["fate", "t_exit", "t_first_hit", "time_in_control",
                           "hamiltonian_drift"]
    fates = [line.split(",")[4] for line in rows[1:]]
    assert fates.count("trapped_at_horizon") >= 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["counts"]["trapped_at_horizon"] >= 1
    assert manifest["exterior_control_holds"] is False


def test_scatter_from_manifest(tmp_path):
    cfg = _write(tmp_path, TINY_1D)
    run_dir = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(run_dir), "--quiet"]) == 0
    out = tmp_path / "scatter"
    code = main(["scatter", "--manifest", str(run_dir / "manifest.json"),
                 "--out", str(out), "--quiet"])
    assert code == EXIT_OK
    report = json.loads((out / "scatter_report.json").read_text())
    assert "0.5" in report["verdicts"]
    assert (out / "cauchy_s0.5.csv").exists()
    assert (out / "u_plus.dnls").exists()
    field, t = read_snapshot(out / "u_plus.dnls")
    assert t == pytest.approx(0.1)
    # cauchy matrix is symmetric with zero diagonal
    rows = (out / "cauchy_s0.5.csv").read_text().strip().splitlines()[1:]
    matrix = np.array([[float(v) for v in row.split(",")[1:]] for row in rows])
    assert np.allclose(matrix, matrix.T)
    assert np.all(np.diag(matrix) == 0.0)


def test_scatter_orders_snapshots_by_their_times(tmp_path):
    # the manifest may list the snapshots in any order
    cfg = _write(tmp_path, TINY_1D)
    run_dir = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(run_dir), "--quiet"]) == 0
    manifest_path = run_dir / "manifest.json"
    assert main(["scatter", "--manifest", str(manifest_path), "--quiet",
                 "--out", str(tmp_path / "in_order")]) == EXIT_OK
    manifest = json.loads(manifest_path.read_text())
    names = manifest["snapshots"]
    manifest["snapshots"] = names[1::2] + names[::-2]
    manifest_path.write_text(json.dumps(manifest))
    assert main(["scatter", "--manifest", str(manifest_path), "--quiet",
                 "--out", str(tmp_path / "shuffled")]) == EXIT_OK
    for name in ("cauchy_s0.5.csv", "series_mismatch_s0.5.csv", "u_plus.dnls",
                 "scatter_report.json"):
        assert ((tmp_path / "in_order" / name).read_bytes()
                == (tmp_path / "shuffled" / name).read_bytes())


def test_scatter_loads_each_listed_snapshot_once(tmp_path, monkeypatch):
    # one load_snapshot per listed file, in the manifest's order, and no
    # other read of a snapshot: ordering them costs no pass over the headers
    import builtins

    import dnls.snapshots

    cfg = _write(tmp_path, TINY_1D)
    run_dir = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(run_dir), "--quiet"]) == 0
    manifest_path = run_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    names = manifest["snapshots"][::-1]
    manifest["snapshots"] = names
    manifest_path.write_text(json.dumps(manifest))
    loaded, opened = [], []
    load, real_open = dnls.snapshots.load_snapshot, builtins.open

    def counted_load(path):
        loaded.append(Path(path).name)
        return load(path)

    def logged_open(file, mode="r", *args, **kwargs):
        if str(file).endswith(".dnls") and "r" in mode:
            opened.append(Path(file).name)
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(dnls.snapshots, "load_snapshot", counted_load)
    monkeypatch.setattr(builtins, "open", logged_open)
    assert main(["scatter", "--manifest", str(manifest_path), "--quiet"]) == EXIT_OK
    monkeypatch.undo()
    assert loaded == opened == names


def test_scatter_refuses_a_snapshot_of_another_config(tmp_path, capsys):
    # snap_000002.dnls replaced by the one of a longer run (same time, same
    # step, another config hash): exit 2 on one line, no outputs
    cfg = _write(tmp_path, TINY_1D)
    other = _write(tmp_path, TINY_1D.replace("duration = 0.1", "duration = 0.2"),
                   "other.ini")
    run_dir, other_dir = tmp_path / "run", tmp_path / "other"
    assert main(["simulate", "--config", cfg, "--out", str(run_dir), "--quiet"]) == 0
    assert main(["simulate", "--config", other, "--out", str(other_dir),
                 "--quiet"]) == 0
    (run_dir / "snap_000002.dnls").write_bytes(
        (other_dir / "snap_000002.dnls").read_bytes())
    assert load_snapshot(run_dir / "snap_000002.dnls").t == pytest.approx(0.05)
    capsys.readouterr()
    assert main(["scatter", "--manifest", str(run_dir / "manifest.json"),
                 "--quiet"]) == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "snap_000002.dnls" in err[0] and "config hash" in err[0]
    assert not (run_dir / "scatter").exists()


def test_scatter_needs_snapshots(tmp_path):
    no_snaps = TINY_1D.replace("snapshot_every = 5", "snapshot_every = 0")
    cfg = _write(tmp_path, no_snaps)
    run_dir = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(run_dir), "--quiet"]) == 0
    code = main(["scatter", "--manifest", str(run_dir / "manifest.json"), "--quiet"])
    assert code == EXIT_CONFIG


def _scatter_on_manifest(tmp_path, capsys, manifest) -> tuple[int, str]:
    """Exit code and standard error of ``dnls scatter`` on ``manifest``,
    written beside a valid config.ini."""
    (tmp_path / "config.ini").write_text(TINY_1D)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    code = main(["scatter", "--manifest", str(path), "--quiet"])
    return code, capsys.readouterr().err


def test_scatter_refuses_a_manifest_that_is_not_an_object(tmp_path, capsys):
    code, err = _scatter_on_manifest(tmp_path, capsys, [])
    assert code == EXIT_CONFIG
    assert "JSON object" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("names", ["abc", ["snap_0.dnls", 1, "snap_2.dnls"]])
def test_scatter_refuses_snapshots_that_are_not_a_list_of_names(
        tmp_path, capsys, names):
    code, err = _scatter_on_manifest(tmp_path, capsys, {"snapshots": names})
    assert code == EXIT_CONFIG
    assert "list of file names" in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "scatter").exists()


def test_scatter_on_a_truncated_snapshot_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, TINY_1D)
    run_dir = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(run_dir), "--quiet"]) == 0
    manifest = json.loads((run_dir / "manifest.json").read_text())
    snap = run_dir / manifest["snapshots"][1]
    snap.write_bytes(snap.read_bytes()[:40])
    capsys.readouterr()
    code = main(["scatter", "--manifest", str(run_dir / "manifest.json"), "--quiet"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(snap) in err and "truncated" in err
    assert len(err.strip().splitlines()) == 1


def test_scatter_on_repeated_snapshot_times_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, TINY_1D)
    run_dir = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(run_dir), "--quiet"]) == 0
    manifest_path = run_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["snapshots"] = manifest["snapshots"][:1] * 3
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["scatter", "--manifest", str(manifest_path), "--quiet"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(manifest_path) in err and "strictly increasing" in err
    assert not (run_dir / "scatter").exists()


def test_scatter_strict_fails_on_non_monotone_pullbacks(tmp_path):
    # synthesize snapshots whose pullbacks move away from the final state
    from dnls.config import parse_config_text
    from dnls.grid import Field, GridSpec
    from dnls.scattering import free_evolve
    from dnls.snapshots import write_snapshot
    import numpy as np

    cfg = parse_config_text(TINY_1D)
    spec = cfg.grid_spec()
    base = cfg.initial_field(spec)
    bumped = Field(base.values * 2.0, spec)
    run_dir = tmp_path / "fake"
    run_dir.mkdir()
    (run_dir / "config.ini").write_text(cfg.to_text())
    names = []
    for i, snapshot in enumerate(grid_snapshots(
            [(t, free_evolve(w, t)) for t, w in [(0.0, base), (0.5, bumped),
                                                 (1.0, base)]])):
        name = f"snap_{i:06d}.dnls"
        write_snapshot(run_dir / name, snapshot)
        names.append(name)
    manifest = {"snapshots": names, "config_hash": cfg.config_hash()}
    (run_dir / "manifest.json").write_text(json.dumps(manifest))
    code = main(["scatter", "--manifest", str(run_dir / "manifest.json"),
                 "--strict", "--quiet", "--out", str(tmp_path / "sc")])
    assert code == EXIT_VERDICT


def test_scatter_default_output_preserves_run_manifest(tmp_path):
    cfg = _write(tmp_path, TINY_1D)
    run_dir = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(run_dir), "--quiet"]) == 0
    before = (run_dir / "manifest.json").read_bytes()
    assert main(["scatter", "--manifest", str(run_dir / "manifest.json"),
                 "--quiet"]) == EXIT_OK
    assert (run_dir / "manifest.json").read_bytes() == before
    assert (run_dir / "scatter" / "scatter_report.json").exists()


# -- atomic writes -----------------------------------------------------------------


def test_failed_manifest_rewrite_keeps_the_previous_manifest(tmp_path, monkeypatch):
    from dnls import cli

    run = cli._RunDir(tmp_path / "run", "rays", "abc123", 1)
    run.path("rays.csv").write_text("x0_0,fate\n")

    def broken_dump(obj, fh, **kwargs):
        fh.write('{"status": "comp')  # a partial document, then the crash
        raise RuntimeError("disk full")

    monkeypatch.setattr(cli.json, "dump", broken_dump)
    with pytest.raises(RuntimeError, match="disk full"):
        run.finalize(extra={"counts": {"escaped": 1}})
    monkeypatch.undo()

    manifest = json.loads((run.dir / "manifest.json").read_text())
    assert manifest["status"] == "incomplete"
    assert manifest["config_hash"] == "abc123"
    assert sorted(p.name for p in run.dir.iterdir()) == ["manifest.json", "rays.csv"]


def test_failed_series_write_leaves_no_file(tmp_path):
    from dnls import cli

    run = cli._RunDir(tmp_path / "run", "simulate", "abc123", 1)
    with pytest.raises(TypeError):
        cli._write_series_csv(run, "mass", [0.0, 0.1], [1.0, "not a number"])
    assert sorted(p.name for p in run.dir.iterdir()) == ["manifest.json"]
