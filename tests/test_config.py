from pathlib import Path

import numpy as np
import pytest

from dnls.config import RunConfig, parse_config, parse_config_text
from dnls.errors import ConfigError
from dnls.grid import GridSpec

MINIMAL = """\
[grid]
dim = 2
n = 64
box_half_length = 10.0
"""


def test_minimal_config_fills_defaults():
    cfg = parse_config_text(MINIMAL)
    assert cfg.grid.n == 64
    assert cfg.geometry.preset == "conformal_bump"
    assert cfg.solver.dealias is True
    metric, damping = cfg.build_geometry()
    assert metric.amplitude == 0.3  # the preset's defaults
    assert damping.radius == 4.0
    assert cfg.scattering.s_values == (0.0, 0.25, 0.5, 0.75, 0.9)


def test_solver_section_is_the_solver_config():
    from dnls.solver import SolverConfig

    assert parse_config_text(MINIMAL).solver == SolverConfig(dt=0.01, duration=1.0)


def test_config_roundtrip_is_lossless():
    cfg = parse_config_text(MINIMAL)
    text = cfg.to_text()
    again = parse_config_text(text)
    assert again.to_text() == text
    assert again.config_hash() == cfg.config_hash()


def test_ball_must_fit_in_box():
    bad = MINIMAL + "\n[observables]\nlocal_radius = 12.0\n"
    with pytest.raises(ConfigError, match="inside the box"):
        parse_config_text(bad)


def test_duplicate_key_rejected_with_location():
    bad = "[grid]\nn = 64\nn = 32\n"
    with pytest.raises(ConfigError, match=r"line\s+3.*already exists"):
        parse_config_text(bad)


def test_unknown_key_rejected_with_location():
    bad = MINIMAL + "\n[solver]\ntimestep = 0.1\n"
    with pytest.raises(ConfigError, match="timestep"):
        parse_config_text(bad)


def test_unknown_section_rejected():
    bad = MINIMAL + "\n[plotting]\nstyle = fancy\n"
    with pytest.raises(ConfigError, match="plotting"):
        parse_config_text(bad)


def test_malformed_line_reports_position():
    bad = "[grid]\nthis is not a key value pair\n"
    with pytest.raises(ConfigError, match="line"):
        parse_config_text(bad)


def test_type_errors_carry_location():
    bad = MINIMAL.replace("n = 64", "n = sixty-four")
    with pytest.raises(ConfigError, match=r"\[grid\] n"):
        parse_config_text(bad)


def test_bad_preset_rejected():
    bad = MINIMAL + "\n[geometry]\npreset = moebius\n"
    with pytest.raises(ConfigError, match="preset"):
        parse_config_text(bad)


@pytest.mark.parametrize("section, key, value", [
    ("observables", "record_every", 0),
    ("observables", "interaction_every", 0),
    ("scattering", "snapshot_every", -1),
])
def test_cadences_validated(section, key, value):
    bad = MINIMAL + f"\n[{section}]\n{key} = {value}\n"
    with pytest.raises(ConfigError, match=rf"\[{section}\] .*{key}"):
        parse_config_text(bad)


@pytest.mark.parametrize("section, key, value, message", [
    ("solver", "duration", "nan", "duration must be finite"),   # was ValueError
    ("solver", "duration", "inf", "duration must be finite"),   # was OverflowError
    ("solver", "dt", "1e-300", "exceeds the cap"),              # asked 5e297 steps
    ("solver", "dt", "inf", "dt must be positive and finite"),
    ("rays", "horizon", "nan", "must be finite"),
    ("rays", "horizon", "inf", "must be finite"),
    ("rays", "dt", "nan", "dt must be positive and finite"),
    ("rays", "dt", "1e-300", "exceeds the cap"),
])
def test_run_lengths_are_finite_and_capped(section, key, value, message):
    from dnls.grid import MAX_STEPS

    bad = MINIMAL + f"\n[{section}]\n{key} = {value}\n"
    with pytest.raises(ConfigError, match=rf"\[{section}\] .*{message}"):
        parse_config_text(bad)
    # the cap itself is a run the config accepts
    at_cap = {"solver": f"dt = 1e-6\nduration = {MAX_STEPS * 1e-6!r}",
              "rays": f"dt = 1e-6\nhorizon = {MAX_STEPS * 1e-6!r}"}[section]
    parse_config_text(MINIMAL + f"\n[{section}]\n{at_cap}\n")


@pytest.mark.parametrize("section, lines", [
    # each ran to another time than asked, without a message
    pytest.param("solver", "duration = 1.0\ndt = 0.3", id="ended_at_0.9"),
    pytest.param("solver", "duration = 0.05\ndt = 0.03", id="ended_at_0.06"),
    pytest.param("solver", "duration = 1.0\ndt = 0.003", id="ended_at_0.999"),
    # took no step, so every ray read controlled
    pytest.param("rays", "horizon = 0.01\ndt = 0.05", id="no_ray_step"),
])
def test_run_lengths_not_a_whole_number_of_steps_are_refused(section, lines):
    with pytest.raises(ConfigError,
                       match=rf"\[{section}\] .* is not a whole number of steps"):
        parse_config_text(MINIMAL + f"\n[{section}]\n{lines}\n")


@pytest.mark.parametrize("section, lines", [
    # 6.999999999999999 and 2.9999999999999996 steps
    pytest.param("solver", "duration = 0.7\ndt = 0.1", id="7_steps"),
    pytest.param("solver", "duration = -0.3\ndt = 0.1", id="3_steps_backward"),
    pytest.param("solver", "duration = 0.01\ndt = 0.01", id="one_step"),
    pytest.param("rays", "horizon = 0.3\ndt = 0.1", id="3_ray_steps"),
    pytest.param("rays", "horizon = 0.002\ndt = 0.002", id="one_ray_step"),
])
def test_run_lengths_a_whole_number_of_steps_to_rounding_pass(section, lines):
    parse_config_text(MINIMAL + f"\n[{section}]\n{lines}\n")


@pytest.mark.parametrize("section, line, message", [
    # each ended in a traceback or an abort once the run started
    pytest.param("geometry", "metric_radius = 1e-300",
                 r"\[geometry\] metric bump radius", id="metric_radius_underflows"),
    pytest.param("rays", "escape_radius = 0", r"\[rays\] escape_radius",
                 id="escape_radius_zero"),
    pytest.param("rays", "escape_radius = -1", r"\[rays\] escape_radius",
                 id="escape_radius_negative"),
    pytest.param("rays", "escape_radius = 3.0", r"\[rays\] escape_radius",
                 id="escape_radius_inside_the_support"),
    pytest.param("run", "seed = -1", r"\[run\] seed must be >= 0", id="seed_negative"),
    pytest.param("rays", "sample_radius = nan", r"\[rays\] sample_radius must be finite",
                 id="sample_radius_nan"),
    pytest.param("initial_data", "width = 0", r"\[initial_data\] width",
                 id="width_zero"),
    pytest.param("initial_data", "width = nan", r"\[initial_data\] width must be finite",
                 id="width_nan"),
    pytest.param("initial_data", "amplitude = nan",
                 r"\[initial_data\] amplitude must be finite", id="amplitude_nan"),
    pytest.param("initial_data", "momentum = inf",
                 r"\[initial_data\] momentum must be finite", id="momentum_inf"),
    pytest.param("initial_data", "k_scale = 0", r"\[initial_data\] .*k_scale",
                 id="k_scale_zero"),
])
def test_inputs_that_would_fail_in_the_run_are_refused(section, line, message):
    with pytest.raises(ConfigError, match=message):
        parse_config_text(MINIMAL + f"\n[{section}]\n{line}\n")


@pytest.mark.parametrize("line", [
    # a nan slack made every monotone-tail verdict true
    pytest.param("tol_mono = nan", id="tol_mono_nan"),
    pytest.param("tol_mono = inf", id="tol_mono_inf"),
    pytest.param("tol_mono = -0.01", id="tol_mono_negative"),
    pytest.param("s_values = 0.5, nan", id="s_values_nan"),
    pytest.param("s_values = inf", id="s_values_inf"),
])
def test_scattering_settings_that_are_not_finite_are_refused(line):
    key = line.split(" = ")[0]
    with pytest.raises(ConfigError, match=rf"\[scattering\] {key} must be finite"):
        parse_config_text(MINIMAL + f"\n[scattering]\n{line}\n")


def test_a_nan_tol_mono_exits_2_through_the_cli(tmp_path, capsys):
    from dnls.cli import EXIT_CONFIG, main

    path = tmp_path / "run.ini"
    path.write_text(MINIMAL + "\n[scattering]\ntol_mono = nan\n")
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "[scattering] tol_mono must be finite" in err[0]
    assert not out.exists()


def test_valid_config_text_and_hash_are_unchanged():
    # the refusals add no key and change no default
    cfg = parse_config_text(MINIMAL)
    assert cfg.config_hash() == (
        "a4ae773c3d53bcd6d1f8304e5cdf43e43ec586a17ba91eb625aab057e7ff0039")
    assert parse_config_text(MINIMAL + "\n[rays]\nescape_radius = 4.5\n"
                             ).rays.escape_radius == 4.5


def test_scheme_key_rejected_with_location():
    # Strang splitting is the only integrator; the key that chose it is gone
    bad = MINIMAL + "\n[solver]\ndt = 0.01\nscheme = strang\n"
    with pytest.raises(ConfigError, match=r"unknown key 'scheme' in \[solver\] \(line 8\)"):
        parse_config_text(bad)


def test_out_dir_key_rejected_with_location():
    # a run's output directory is the required --out flag; the key is gone
    bad = MINIMAL + "\n[run]\nseed = 3\nout_dir = runs/out\n"
    with pytest.raises(ConfigError, match=r"unknown key 'out_dir' in \[run\] \(line 8\)"):
        parse_config_text(bad)


def test_cutoff_exponent_range_validated():
    bad = MINIMAL + "\n[observables]\ncutoff_exponents = 0, 1.5\n"
    with pytest.raises(ConfigError, match="cutoff_exponents"):
        parse_config_text(bad)


def test_uncontrolled_preset_resolves_shifted_damping():
    cfg = parse_config_text(MINIMAL + "\n[geometry]\npreset = uncontrolled_bump\n")
    metric, damping = cfg.build_geometry()
    # the preset's defaults: a damping ball of the metric's radius, centred
    # one unit clear of the metric bump
    assert damping.radius == metric.radius == 2.0
    assert damping.center[0] == 5.0
    assert damping.reach == 7.0


def test_build_geometry_reuses_validated_pair_until_config_changes():
    cfg = parse_config_text(MINIMAL)
    metric, damping = cfg.build_geometry()
    assert cfg.build_geometry(cfg.grid_spec()) == (metric, damping)
    assert cfg.build_geometry()[0] is metric
    cfg.geometry.metric_amplitude = -0.5
    rebuilt, _ = cfg.build_geometry()
    assert rebuilt is not metric
    assert rebuilt.amplitude == -0.5
    coarse = GridSpec(2, 32, 10.0)
    on_coarse, _ = cfg.build_geometry(coarse)
    assert on_coarse.spec == coarse
    assert on_coarse.perturbation.shape == (32, 32)


def test_initial_field_kinds():
    cfg = parse_config_text(
        MINIMAL + "\n[initial_data]\nkind = gaussian\namplitude = 0.25\n"
        "width = 1.5\nmomentum = 1.0\n"
    )
    spec = cfg.grid_spec()
    u = cfg.initial_field(spec)
    assert np.abs(u.values).max() == pytest.approx(0.25, rel=1e-12)
    cfg2 = parse_config_text(
        MINIMAL + "\n[initial_data]\nkind = smooth_random\namplitude = 0.1\n"
    )
    u2 = cfg2.initial_field(spec)
    assert u2.l2_norm() == pytest.approx(0.1, rel=1e-12)
    cfg3 = parse_config_text(MINIMAL)
    cfg3.initial_data.kind = "vortex"
    with pytest.raises(ConfigError):
        cfg3.initial_field(spec)


def test_config_file_not_found(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path / "missing.ini")


def test_cutoff_radii_resolution():
    cfg = parse_config_text(MINIMAL)
    flat, support = cfg.resolved_cutoff_radii(cfg.build_geometry()[1])
    assert flat == pytest.approx(4.5)  # damping radius 4 + 0.5
    assert flat < support < cfg.grid.box_half_length
    chi = cfg.cutoff()
    assert chi.max() == 1.0
    assert chi.min() == 0.0
    # a switched-off damping has no support, yet the default cutoff still
    # clears the ball the config describes
    off = parse_config_text(MINIMAL + "\n[geometry]\ndamping_amplitude = 0.0\n")
    _, damping = off.build_geometry()
    assert damping.support_radius == 0.0
    assert off.resolved_cutoff_radii(damping) == (flat, support)


def test_default_cutoff_covers_an_annulus_damping():
    # the default flat radius comes from the annulus' outer radius, not from
    # the ball radius the annulus ignores
    cfg = parse_config_text(
        "[grid]\ndim = 2\nn = 64\nbox_half_length = 12.0\n"
        "[geometry]\npreset = conformal_bump\ndamping_shape = annulus\n"
        "damping_inner_radius = 3.0\ndamping_outer_radius = 6.0\n"
    )
    spec = cfg.grid_spec()
    _, damping = cfg.build_geometry(spec)
    assert cfg.resolved_cutoff_radii(damping) == (6.5, 9.25)
    chi = cfg.cutoff(spec)
    assert np.all(chi[damping.table > 0.0] == 1.0)


NARROW_CUTOFF = """\
[grid]
dim = 2
n = 64
box_half_length = 12.0

[geometry]
preset = conformal_bump
damping_radius = 4.0

[observables]
cutoff_flat_radius = 1.0
"""


def test_cutoff_must_cover_the_damping():
    # chi = 1 on B(0, 1) only, while a > a_min out to radius 4: the far field
    # (1 - chi) u would not solve the free equation
    with pytest.raises(ConfigError, match=r"\[observables\] cutoff must equal 1 "
                       r"on the damping support \(max deviation 5\.40"):
        parse_config_text(NARROW_CUTOFF)
    # a flat ball that misses only a rim where a <= a_min passes, and so does
    # one that holds the damping ball
    parse_config_text(NARROW_CUTOFF.replace("= 1.0", "= 3.99"))
    cfg = parse_config_text(NARROW_CUTOFF.replace("= 1.0", "= 4.0"))
    chi = cfg.cutoff()
    _, damping = cfg.build_geometry()
    assert np.all(chi[damping.table > cfg.geometry.a_min] == 1.0)
    # the cover is asked only where the damping is active
    parse_config_text(NARROW_CUTOFF.replace("damping_radius = 4.0",
                                            "damping_amplitude = 0.0"))


@pytest.mark.parametrize("line", ["damping_amplitude = inf",
                                  "damping_radius = -1.0",
                                  "damping_radius = 0.0",
                                  "damping_radius = inf"])
def test_bad_damping_rejected(line):
    with pytest.raises(ConfigError, match=r"\[geometry\] damping"):
        parse_config_text(MINIMAL + f"\n[geometry]\n{line}\n")


def test_nan_geometry_values_take_the_preset_defaults():
    cfg = parse_config_text(MINIMAL + "\n[geometry]\ndamping_amplitude = nan\n"
                            "metric_amplitude = auto\n")
    metric, damping = cfg.build_geometry()
    assert damping.amplitude == 1.0 and metric.amplitude == 0.3
    assert np.all(np.isfinite(damping.table))


def test_metric_radius_is_left_to_the_preset():
    # nan (or auto) takes the preset default, as every other geometry value
    for value in ("nan", "auto"):
        cfg = parse_config_text(MINIMAL + f"\n[geometry]\nmetric_radius = {value}\n")
        metric, damping = cfg.build_geometry()
        assert metric.radius == 2.0
        assert damping.radius == 4.0
    # the identity preset has no bump, so its radius need not fit the box,
    # and its default damping radius does not follow it
    cfg = parse_config_text(
        "[grid]\ndim = 2\nn = 64\nbox_half_length = 12.0\n"
        "[geometry]\npreset = identity\nmetric_radius = 20.0\n"
    )
    metric, damping = cfg.build_geometry()
    assert metric.is_identity
    assert damping.radius == 4.0
    # a bump must still fit
    with pytest.raises(ConfigError, match=r"\[geometry\] metric bump radius"):
        parse_config_text(
            "[grid]\ndim = 2\nn = 64\nbox_half_length = 12.0\n"
            "[geometry]\npreset = conformal_bump\nmetric_radius = 20.0\n"
        )


def test_readme_example_parses():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = readme.split("```ini\n")[1:]
    assert len(blocks) == 1
    cfg = parse_config_text(blocks[0].split("```")[0], source="README.md")
    assert cfg.geometry.metric_amplitude == -0.5
    assert cfg.solver.duration == 10.0
