"""Command-line entry point: simulate, rays, check-geometry, scatter.

Exit codes: 0 success, 2 configuration error or unreadable input file (a
snapshot that fails its checksum, a resume from or a scan over another
configuration's snapshot, a scan over snapshots of mixed grids or layouts),
3 stability abort, 4 negative verdict under --strict. Each run owns its
output directory and writes a manifest.json listing every file produced plus
the config hash; partial outputs after an abort are flagged
status=incomplete.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import warnings
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from . import config, geometry, grid, observables, scattering, snapshots, solver
from .errors import ConfigError, DomainError, GridMismatchError, StabilityError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STABILITY = 3
EXIT_VERDICT = 4

_FLOAT_FMT = "%.17g"


class _InputError(Exception):
    """An input file the command cannot use (exit 2 with the message)."""


def _fmt(x: float) -> str:
    return _FLOAT_FMT % x


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_json(path: Path, payload: dict) -> None:
    with snapshots.atomic_open(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _tool_versions() -> dict:
    return {
        "package": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }


class _RunDir:
    """Output directory plus the manifest bookkeeping."""

    def __init__(self, out_dir: Path, subcommand: str, config_hash: str, seed: int):
        self.dir = out_dir
        self.dir.mkdir(parents=True, exist_ok=True)
        self.files: list[str] = []
        self.warnings: list[str] = []
        self.manifest = {
            "created_utc": _utc_now(),
            "tool": _tool_versions(),
            "subcommand": subcommand,
            "config_hash": config_hash,
            "seed": seed,
            "status": "incomplete",
            "files": self.files,
            "warnings": self.warnings,
        }
        self.write_manifest()

    def path(self, name: str) -> Path:
        if name not in self.files:
            self.files.append(name)
        return self.dir / name

    def write_manifest(self) -> None:
        _write_json(self.dir / "manifest.json", self.manifest)

    def write_config(self, cfg: config.RunConfig) -> None:
        with snapshots.atomic_open(self.path("config.ini")) as fh:
            fh.write(cfg.to_text())

    def finalize(self, status: str = "complete", extra: dict | None = None) -> None:
        self.manifest["status"] = status
        if extra:
            self.manifest.update(extra)
        self.write_manifest()


def _write_series_csv(run: _RunDir, name: str, times, values) -> None:
    with snapshots.atomic_open(run.path(f"series_{name}.csv"), newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "value"])
        for t, v in zip(times, values):
            writer.writerow([_fmt(t), _fmt(v)])


def _write_matrix_csv(run: _RunDir, name: str, times, matrix) -> None:
    with snapshots.atomic_open(run.path(name), newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [_fmt(t) for t in times])
        for t, row in zip(times, matrix):
            writer.writerow([_fmt(t)] + [_fmt(v) for v in row])


def _control_report_dict(report) -> dict:
    return {
        "satisfied": bool(report.satisfied),
        "violation_count": report.violation_count,
        "delta0": None if np.isinf(report.delta0) else report.delta0,
        "support_count": report.support_count,
    }


def _configured(args):
    """The parsed ``--config``, its (metric, damping) and their control report."""
    cfg = config.parse_config(args.config)
    metric, damping = cfg.build_geometry()
    control = geometry.check_control(metric, damping, cfg.geometry.g_tol,
                                     cfg.geometry.a_min)
    return cfg, metric, damping, control


def _load_snapshot(path, config_hash: str) -> snapshots.Snapshot:
    """The snapshot stored at ``path``; a file that does not read, or that
    records a config hash other than ``config_hash`` (a file written
    without one records none), is an input error."""
    try:
        snapshot = snapshots.load_snapshot(path)
    except (OSError, DomainError) as exc:
        raise _InputError(f"cannot read snapshot: {exc}") from exc
    if snapshot.config_hash not in (None, config_hash):
        raise _InputError(
            f"snapshot {path} was written under config hash "
            f"{snapshot.config_hash[:12]}, not this run's {config_hash[:12]}")
    return snapshot


def _cmd_check_geometry(args) -> int:
    cfg, metric, damping, report = _configured(args)
    payload = {
        "preset": cfg.geometry.preset,
        "control": _control_report_dict(report),
        "coercivity_constant": geometry.coercivity_constant(metric),
        "gradient_bound_constant_eps_0.01":
            geometry.gradient_bound_constant(damping, 0.01),
    }
    if args.out:
        run = _RunDir(Path(args.out), "check-geometry", cfg.config_hash(),
                      cfg.run.seed)
        _write_json(run.path("geometry_report.json"), payload)
        run.finalize()
    if not args.quiet:
        print(json.dumps(payload, indent=2, sort_keys=True))
    if args.strict and not report.satisfied:
        return EXIT_VERDICT
    return EXIT_OK


def _cmd_rays(args) -> int:
    # deferred: only this command traces rays, and a process that imports the
    # CLI before it forks its runs (perfbench/run.py) should not carry the tracer
    from .rays import sample_ensemble, verify_exterior_control

    cfg, metric, damping, control = _configured(args)
    spec = metric.spec
    x0, xi0 = sample_ensemble(
        spec.dim, cfg.rays.count, cfg.rays.sample_radius,
        seed=cfg.run.seed, mode=cfg.rays.sampling,
    )
    escape_radius = cfg.resolved_escape_radius(metric, damping)
    summary = verify_exterior_control(
        metric, damping, x0, xi0,
        horizon=cfg.rays.horizon, dt=cfg.rays.dt,
        escape_radius=escape_radius, a_min=cfg.geometry.a_min,
    )
    run = _RunDir(Path(args.out), "rays", cfg.config_hash(), cfg.run.seed)
    run.write_config(cfg)
    with snapshots.atomic_open(run.path("rays.csv"), newline="") as fh:
        writer = csv.writer(fh)
        dim = spec.dim
        header = (
            [f"x0_{j}" for j in range(dim)]
            + [f"xi0_{j}" for j in range(dim)]
            + ["fate", "t_exit", "t_first_hit", "time_in_control",
               "hamiltonian_drift"]
        )
        writer.writerow(header)
        for i, fate in enumerate(summary.fates):
            writer.writerow(
                [_fmt(v) for v in summary.x0[i]]
                + [_fmt(v) for v in summary.xi0[i]]
                + [fate.kind, _fmt(fate.t_exit), _fmt(fate.t_first_hit),
                   _fmt(fate.time_in_control), _fmt(fate.hamiltonian_drift)]
            )
    run.finalize(extra={
        "counts": summary.counts,
        "exterior_control_holds": summary.exterior_control_holds,
        "escape_radius": escape_radius,
        "control": _control_report_dict(control),
    })
    if not args.quiet:
        print(f"ray ensemble: {summary.counts} (escape radius {escape_radius:g})")
    if args.strict and not summary.exterior_control_holds:
        return EXIT_VERDICT
    return EXIT_OK


def _cmd_simulate(args) -> int:
    cfg, metric, damping, control = _configured(args)
    spec = metric.spec
    config_hash = cfg.config_hash()
    if args.resume:
        # the run continues the stored step index
        start = _load_snapshot(args.resume, config_hash)
        if start.spec != spec:
            raise ConfigError(
                f"snapshot grid {start.spec} does not match configured grid {spec}"
            )
        u0, t0, step0 = start.field, start.t, start.step
        del start
    else:
        u0, t0, step0 = cfg.initial_field(spec), 0.0, 0
    run = _RunDir(Path(args.out), "simulate", config_hash, cfg.run.seed)
    run.write_config(cfg)
    if not control.satisfied:
        run.warnings.append("geometry violates the exterior control condition; "
                            "decay diagnostics are not expected to hold")
    tables = grid.weight_tables(spec)

    monitors = observables.standard_monitors(
        metric, damping, tables,
        record_every=cfg.observables.record_every,
        interaction_every=cfg.observables.interaction_every,
        local_radius=cfg.observables.local_radius,
        cutoff=cfg.cutoff(spec),
        cutoff_exponents=cfg.observables.cutoff_exponents,
        nonlinearity=cfg.solver.nonlinearity,
        g_tol=cfg.geometry.g_tol,
        a_min=cfg.geometry.a_min,
    )

    # each snapshot is written, and named in the manifest, as it is taken, so
    # an abort keeps every snapshot before it
    snapshot_files: list[str] = []
    run.manifest["snapshots"] = snapshot_files

    def store(snapshot: snapshots.Snapshot) -> None:
        name = f"snap_{len(snapshot_files):06d}.dnls"
        snapshots.write_snapshot(run.path(name), snapshot, config_hash=config_hash)
        snapshot_files.append(name)
        run.write_manifest()

    abort = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = solver.simulate(
                u0, metric, damping, cfg.solver,
                monitors=monitors,
                snapshot_every=cfg.scattering.snapshot_every,
                t0=t0,
                snapshot_sink=store,
                step0=step0,
            )
        except StabilityError as exc:
            abort = str(exc)
    run.warnings.extend(str(w.message) for w in caught)
    if abort is not None:
        run.warnings.append(abort)
        run.finalize(status="incomplete", extra={"error": abort})
        if not args.quiet:
            print(f"stability abort: {abort}", file=sys.stderr)
        return EXIT_STABILITY

    for name, series in result.series.items():
        _write_series_csv(run, name, series.times, series.values)
    reports = observables.run_reports(result.series, metric, damping, tables)
    for name, series in reports.series.items():
        _write_series_csv(run, name, series.times, series.values)
    _write_json(run.path("reports.json"),
                {"control": _control_report_dict(control), **reports.payload})

    run.finalize(extra={
        "final_time": result.state.t,
        "steps": result.state.step,
        "boundary_mass_warned": result.boundary_mass_warned,
    })
    if not args.quiet:
        print(
            f"simulate: {result.state.step} steps to t={result.state.t:g}; "
            f"outputs in {run.dir}"
        )
    if args.strict and not control.satisfied:
        return EXIT_VERDICT
    return EXIT_OK


def _cmd_scatter(args) -> int:
    manifest_path = Path(args.manifest)
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise _InputError(f"cannot read manifest: {exc}") from exc
    snapshot_names = manifest.get("snapshots", []) if isinstance(manifest, dict) else None
    if not (isinstance(snapshot_names, list)
            and all(isinstance(name, str) for name in snapshot_names)):
        raise _InputError(f"cannot read manifest {manifest_path}: expected a JSON "
                          "object whose \"snapshots\" is a list of file names")
    base = manifest_path.parent
    cfg = config.parse_config(base / "config.ini")
    config_hash = cfg.config_hash()
    if len(snapshot_names) < 3:
        raise _InputError(
            f"manifest lists {len(snapshot_names)} snapshots; scatter needs >= 3 "
            "(set [scattering] snapshot_every > 0 in the simulate run)")
    # read one at a time, in the manifest's order and as the files hold
    # them: the scan keeps each one's pullback coefficients only, and orders
    # them by time
    stored = (_load_snapshot(base / name, config_hash) for name in snapshot_names)
    try:
        report = scattering.extract_profile(
            stored, cfg.scattering.s_values, cfg.scattering.tol_mono
        )
    except (DomainError, GridMismatchError) as exc:
        raise _InputError(
            f"cannot scan the snapshots of {manifest_path}: {exc}") from exc

    # default to a subdirectory so the simulate manifest is never clobbered
    out_dir = Path(args.out) if args.out else base / "scatter"
    run = _RunDir(out_dir, "scatter", config_hash, cfg.run.seed)
    for s in report.s_values:
        _write_matrix_csv(run, f"cauchy_s{s:g}.csv", report.times, report.cauchy[s])
        _write_series_csv(run, f"mismatch_s{s:g}", report.times, report.mismatch[s])
    snapshots.write_snapshot(run.path("u_plus.dnls"), report.u_plus,
                             config_hash=config_hash)
    payload = {
        "s_values": list(report.s_values),
        "verdicts": {f"{s:g}": bool(v) for s, v in report.verdicts.items()},
        "final_mismatch": {f"{s:g}": report.final_mismatch[s] for s in report.s_values},
    }
    _write_json(run.path("scatter_report.json"), payload)
    run.finalize(extra={"scatter": payload})
    if not args.quiet:
        print(json.dumps(payload["verdicts"], indent=2, sort_keys=True))
    if args.strict and not all(report.verdicts.values()):
        return EXIT_VERDICT
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "rays": _cmd_rays,
    "check-geometry": _cmd_check_geometry,
    "scatter": _cmd_scatter,
}


def _add_command(sub, name: str, help: str, out_help: str | None = None,
                 source: tuple[str, str] = ("--config", "run configuration file")):
    """Subcommand ``name`` with its input flag ``source``, ``--out`` (required
    unless ``out_help`` describes what it defaults to), ``--strict`` and
    ``--quiet``."""
    p = sub.add_parser(name, help=help)
    flag, flag_help = source
    p.add_argument(flag, required=True, help=flag_help)
    p.add_argument("--out", required=out_help is None,
                   help=out_help or "output directory")
    p.add_argument("--strict", action="store_true",
                   help="nonzero exit on negative verdicts")
    p.add_argument("--quiet", action="store_true")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dnls",
        description="Damped variable-coefficient cubic NLS workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_sim = _add_command(sub, "simulate", "advance the PDE and record observables")
    p_sim.add_argument("--resume", help="snapshot file to resume from")
    _add_command(sub, "rays", "classify a Hamiltonian ray ensemble")
    _add_command(sub, "check-geometry", "validate the control condition",
                 out_help="optional output directory")
    _add_command(sub, "scatter", "scattering analysis from a run manifest",
                 out_help="output directory (default: run directory)",
                 source=("--manifest",
                         "manifest.json of a simulate run with snapshots"))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _InputError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG
    except StabilityError as exc:  # simulate handles its own, to flag its run
        print(f"stability abort: {exc}", file=sys.stderr)
        return EXIT_STABILITY


if __name__ == "__main__":
    sys.exit(main())
