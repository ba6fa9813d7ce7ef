"""The benchmark's workloads: INI configs made from a seed, and output checks.

Each workload is one operation made of ``dnls`` CLI calls. The seed picks the
initial data (or the ray ensemble); it never changes grid sizes, step counts
or cadences, so the work per operation is the same on every seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Mass-law residual allowed, relative to the initial mass. The observed
# residual is about 1e-4 on evolve3d (trapezoid over two records) and 3e-5
# on observe2d.
MASS_LAW_REL_BOUND = 1e-3
# Criterion 3: the two forms of the energy law agree to this gap.
TWO_FORM_GAP_BOUND = 1e-9
# Criterion 10: the final mismatch stays below this share of ||u_plus||_{H^0.5}.
MISMATCH_SHARE_BOUND = 0.1


@dataclass(frozen=True)
class Call:
    """One CLI call of an operation.

    ``run`` is the output directory of a simulate or rays call, and the
    simulate run a scatter call reads. ``label`` names the preset and
    ``checks`` the output checks run on the call (see ``CHECKS``).
    """

    command: str
    label: str
    run: str
    checks: tuple[str, ...]
    config: str = ""

    def argv(self, op_dir: Path) -> list[str]:
        run_dir = op_dir / self.run
        if self.command == "scatter":
            return ["scatter", "--manifest", str(run_dir / "manifest.json"),
                    "--quiet"]
        return [self.command, "--config", str(op_dir / f"{self.run}.ini"),
                "--out", str(run_dir), "--quiet"]


def _ini(sections: dict) -> str:
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in values.items())
        lines.append("")
    return "\n".join(lines)


def _gaussian(rng, amplitude, width, offset, momentum) -> dict:
    return {
        "kind": "gaussian",
        "amplitude": repr(float(rng.uniform(*amplitude))),
        "width": repr(float(rng.uniform(*width))),
        "center_offset": repr(float(rng.uniform(*offset))),
        "momentum": repr(float(rng.uniform(*momentum))),
    }


def evolve3d(seed: int) -> list[Call]:
    """Damped, controlled 48^3 runs on both non-identity flux structures."""
    calls = []
    for preset in ("conformal_bump", "anisotropic_bump"):
        rng = np.random.default_rng([seed, len(calls)])
        config = _ini({
            "grid": {"dim": 3, "n": 48, "box_half_length": 12.0},
            "geometry": {"preset": preset, "metric_amplitude": -0.95,
                         "metric_radius": 2.0, "damping_radius": 4.0},
            "initial_data": _gaussian(rng, (0.12, 0.18), (1.3, 1.7),
                                      (-0.5, 0.5), (0.0, 0.5)),
            "solver": {"dt": 0.02, "duration": 0.08},
            "observables": {"record_every": 1000, "interaction_every": 1000},
            "run": {"seed": seed},
        })
        calls.append(Call("simulate", preset, preset, ("complete", "laws"), config))
    return calls


def observe2d(seed: int) -> list[Call]:
    """Identity metric with ball damping (criteria 2-4), every monitor every step."""
    rng = np.random.default_rng(seed)
    config = _ini({
        "grid": {"dim": 2, "n": 128, "box_half_length": 12.0},
        "geometry": {"preset": "identity", "damping_radius": 4.0},
        "initial_data": _gaussian(rng, (0.4, 0.6), (0.8, 1.2), (-0.5, 0.5),
                                  (0.0, 1.0)),
        "solver": {"dt": 0.01, "duration": 1.0},
        "observables": {"record_every": 1, "interaction_every": 1},
        "run": {"seed": seed},
    })
    return [Call("simulate", "identity", "identity",
                 ("complete", "laws", "two_form_gap"), config)]


def scatter3d(seed: int) -> list[Call]:
    """Identity 48^3 run with nine written snapshots, then the scattering scan."""
    rng = np.random.default_rng(seed)
    config = _ini({
        "grid": {"dim": 3, "n": 48, "box_half_length": 12.0},
        "geometry": {"preset": "identity", "damping_radius": 4.0},
        "initial_data": _gaussian(rng, (0.12, 0.18), (1.3, 1.7), (-0.5, 0.5),
                                  (0.0, 0.5)),
        "solver": {"dt": 0.1, "duration": 1.6},
        "observables": {"record_every": 1000, "interaction_every": 1000},
        "scattering": {"snapshot_every": 2},
        "run": {"seed": seed},
    })
    return [Call("simulate", "identity", "identity", ("complete",), config),
            Call("scatter", "identity", "identity", ("scattering",))]


def rays(seed: int) -> list[Call]:
    """Criterion-9 pair: the trapping uncontrolled bump and its controlled twin."""
    calls = []
    for preset, damping_radius in (("uncontrolled_bump", 2.0),
                                   ("conformal_bump", 3.0)):
        config = _ini({
            "grid": {"dim": 2, "n": 32, "box_half_length": 12.0},
            "geometry": {"preset": preset, "metric_amplitude": -0.95,
                         "metric_radius": 2.0, "damping_radius": damping_radius},
            "rays": {"count": 64, "sample_radius": 2.0, "horizon": 10.0,
                     "dt": 0.01},
            "run": {"seed": seed},
        })
        expect = "traps" if preset == "uncontrolled_bump" else "no_traps"
        calls.append(Call("rays", preset, preset, (expect,), config))
    return calls


WORKLOADS = {
    "evolve3d": evolve3d,
    "observe2d": observe2d,
    "scatter3d": scatter3d,
    "rays": rays,
}


# ----------------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------------


def _first_value(csv_path: Path) -> float:
    with open(csv_path) as fh:
        fh.readline()
        return float(fh.readline().split(",")[1])


def _complete(run_dir: Path) -> list[str]:
    status = json.loads((run_dir / "manifest.json").read_text())["status"]
    return [] if status == "complete" else [f"manifest status {status}"]


def _reports(run_dir: Path) -> dict:
    return json.loads((run_dir / "reports.json").read_text())


def _laws(run_dir: Path) -> list[str]:
    reports = _reports(run_dir)
    problems = []
    if not reports["energy_lambda_bound"]["passed"]:
        problems.append("energy/lambda bound failed")
    mass0 = _first_value(run_dir / "series_mass.csv")
    residual = reports["mass_law_max_residual"] / mass0
    if not residual <= MASS_LAW_REL_BOUND:
        problems.append(f"mass-law residual {residual:.3g} of M(0)")
    return problems


def _two_form_gap(run_dir: Path) -> list[str]:
    gap = _reports(run_dir)["energy_law_two_form_gap"]
    return [] if gap < TWO_FORM_GAP_BOUND else [f"energy-law two-form gap {gap:.3g}"]


def _scattering(run_dir: Path) -> list[str]:
    from dnls.grid import sobolev_norm
    from dnls.snapshots import read_snapshot

    report = json.loads((run_dir / "scatter" / "scatter_report.json").read_text())
    problems = [f"Cauchy verdict false at s={s}"
                for s, ok in report["verdicts"].items() if not ok]
    u_plus, _ = read_snapshot(run_dir / "scatter" / "u_plus.dnls")
    limit = MISMATCH_SHARE_BOUND * sobolev_norm(u_plus, 0.5)
    mismatch = report["final_mismatch"]["0.5"]
    if not mismatch < limit:
        problems.append(f"final H^0.5 mismatch {mismatch:.3g} >= {limit:.3g}")
    return problems


def _trapped(run_dir: Path) -> int:
    return json.loads((run_dir / "manifest.json").read_text())["counts"][
        "trapped_at_horizon"]


def _traps(run_dir: Path) -> list[str]:
    return [] if _trapped(run_dir) >= 1 else ["no ray trapped"]


def _no_traps(run_dir: Path) -> list[str]:
    trapped = _trapped(run_dir)
    return [] if trapped == 0 else [f"{trapped} rays trapped under control"]


CHECKS = {
    "complete": _complete,
    "laws": _laws,
    "two_form_gap": _two_form_gap,
    "scattering": _scattering,
    "traps": _traps,
    "no_traps": _no_traps,
}


def check(call: Call, op_dir: Path) -> list[str]:
    """Problems found in the outputs of one successful call; empty when correct."""
    return [f"{call.command} {call.label}: {problem}"
            for name in call.checks for problem in CHECKS[name](op_dir / call.run)]
