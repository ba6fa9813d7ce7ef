"""Run configuration: INI-style sections of key = value pairs.

Files are parsed strictly: unknown sections or keys, duplicate keys and
malformed lines are rejected with the offending location. A parsed RunConfig
serializes back to text losslessly (all keys written with their resolved
values), and the sha256 of that canonical text is the run's config hash.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, field, fields as dc_fields, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DnlsError, DomainError
from .geometry import (
    DampingField,
    MetricField,
    build_preset,
    cutoff_field,
    default_escape_radius,
)
from .grid import Field, GridSpec, step_count
from .observables import smooth_random_field
from .solver import SolverConfig

__all__ = ["RunConfig", "parse_config", "parse_config_text"]


@dataclass
class GridSection:
    dim: int = 2
    n: int = 128
    box_half_length: float = 12.0


@dataclass
class GeometrySection:
    preset: str = "conformal_bump"
    # the keys up to damping_center_offset go to geometry.build_preset;
    # nan = the preset's default
    metric_amplitude: float = np.nan
    metric_radius: float = 2.0
    damping_amplitude: float = 1.0
    damping_shape: str = "ball"
    damping_radius: float = np.nan
    damping_inner_radius: float = 0.0
    damping_outer_radius: float = 0.0
    damping_center_offset: float = np.nan
    g_tol: float = 1e-12
    a_min: float = 1e-8


@dataclass
class InitialDataSection:
    kind: str = "gaussian"        # gaussian | smooth_random
    amplitude: float = 0.5
    width: float = 1.0
    center_offset: float = 0.0
    momentum: float = 0.0
    k_scale: float = 2.0


@dataclass
class ObservablesSection:
    record_every: int = 1
    interaction_every: int = 10
    local_radius: float = 2.0
    cutoff_flat_radius: float = np.nan     # nan = damping support + 0.5
    cutoff_support_radius: float = np.nan  # nan = midway to the box edge
    cutoff_exponents: tuple = (0.0, 0.5)


@dataclass
class ScatteringSection:
    s_values: tuple = (0.0, 0.25, 0.5, 0.75, 0.9)
    snapshot_every: int = 0
    tol_mono: float = 0.05


@dataclass
class RaysSection:
    count: int = 64
    sampling: str = "random"
    sample_radius: float = 3.0
    horizon: float = 100.0
    dt: float = 0.001
    escape_radius: float = np.nan  # nan = 1.5 * max support + 5


@dataclass
class RunSection:
    seed: int = 0


@dataclass
class RunConfig:
    grid: GridSection = field(default_factory=GridSection)
    geometry: GeometrySection = field(default_factory=GeometrySection)
    initial_data: InitialDataSection = field(default_factory=InitialDataSection)
    solver: SolverConfig = field(default_factory=SolverConfig)
    observables: ObservablesSection = field(default_factory=ObservablesSection)
    scattering: ScatteringSection = field(default_factory=ScatteringSection)
    rays: RaysSection = field(default_factory=RaysSection)
    run: RunSection = field(default_factory=RunSection)
    # (config_hash(), spec) and the (metric, damping) pair built for them
    _built_geometry: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    # -- resolved values -----------------------------------------------------

    def resolved_cutoff_radii(self, damping: DampingField) -> tuple[float, float]:
        """(flat, support) radii of the cutoff; by default flat clears the
        reach of the built ``damping`` (its shape's, also at zero amplitude)
        by 0.5 and support lies midway from there to the box edge."""
        L = self.grid.box_half_length
        flat = self.observables.cutoff_flat_radius
        if np.isnan(flat):
            flat = damping.reach + 0.5
        support = self.observables.cutoff_support_radius
        if np.isnan(support):
            support = flat + 0.5 * (L - flat)
        return float(flat), float(support)

    def resolved_escape_radius(self, metric: MetricField,
                               damping: DampingField) -> float:
        if not np.isnan(self.rays.escape_radius):
            return self.rays.escape_radius
        return default_escape_radius(metric, damping)

    # -- builders --------------------------------------------------------------

    def grid_spec(self) -> GridSpec:
        return GridSpec(self.grid.dim, self.grid.n, self.grid.box_half_length)

    def build_geometry(self, spec: GridSpec | None = None):
        """(MetricField, DampingField) of the configured preset on ``spec``.

        The pair built last is handed out again while the config text and the
        grid are unchanged, so validating a config and then running it builds
        the preset once; any edit after validation changes the hash and
        rebuilds. A caller that also needs the grid takes ``metric.spec``, so
        the tables cached on the grid are computed once per run.
        """
        spec = spec or self.grid_spec()
        key = (self.config_hash(), spec)
        if self._built_geometry is not None and self._built_geometry[0] == key:
            return self._built_geometry[1]
        params = dict(vars(self.geometry))
        preset = params.pop("preset")
        del params["g_tol"], params["a_min"]
        params = {k: v for k, v in params.items() if v == v}  # drop the nans
        built = build_preset(preset, spec, params)
        self._built_geometry = (key, built)
        return built

    def initial_field(self, spec: GridSpec | None = None) -> Field:
        spec = spec or self.grid_spec()
        ic = self.initial_data
        if ic.kind == "gaussian":
            r2 = spec.squared_distance(
                (ic.center_offset,) + (0.0,) * (spec.dim - 1))
            values = ic.amplitude * np.exp(-r2 / (2.0 * ic.width**2))
            if ic.momentum != 0.0:
                values = values * np.exp(1j * ic.momentum * spec.coords[0])
            return Field(values.astype(np.complex128), spec)
        if ic.kind == "smooth_random":
            f = smooth_random_field(spec, seed=self.run.seed, k_scale=ic.k_scale)
            return Field(ic.amplitude * f.values, spec)
        raise ConfigError(f"[initial_data] unknown kind {ic.kind!r}")

    def cutoff(self, spec: GridSpec | None = None) -> np.ndarray:
        metric, damping = self.build_geometry(spec)
        return cutoff_field(metric.spec, *self.resolved_cutoff_radii(damping))

    # -- serialization ---------------------------------------------------------

    def to_text(self) -> str:
        lines = []
        for section_name in _SECTIONS:
            section = getattr(self, section_name)
            lines.append(f"[{section_name}]")
            for f in dc_fields(section):
                value = getattr(section, f.name)
                lines.append(f"{f.name} = {_format_value(value)}")
            lines.append("")
        return "\n".join(lines)

    def config_hash(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()

    # -- validation --------------------------------------------------------------

    def validate(self) -> "RunConfig":
        g = self.grid
        try:
            spec = GridSpec(g.dim, g.n, g.box_half_length)
        except DomainError as exc:
            raise ConfigError(f"[grid] {exc}") from exc
        L = g.box_half_length
        geo = self.geometry
        obs = self.observables
        if obs.record_every < 1 or obs.interaction_every < 1:
            raise ConfigError(
                "[observables] record_every and interaction_every must be >= 1, "
                f"got {obs.record_every} and {obs.interaction_every}"
            )
        radius = obs.local_radius
        if not 0.0 < radius < L:
            raise ConfigError(
                f"[observables] local_radius = {radius} must lie inside the box "
                f"(0, {L}) so that balls fit in the box"
            )
        # the preset name and metric_radius are left to build_preset and
        # MetricField: nan means the preset default, and the identity preset
        # has no bump to fit
        try:
            metric, damping = self.build_geometry(spec)
        except DnlsError as exc:
            raise ConfigError(f"[geometry] {exc}") from exc
        ic = self.initial_data
        for key in ("amplitude", "width", "center_offset", "momentum", "k_scale"):
            if not np.isfinite(getattr(ic, key)):
                raise ConfigError(f"[initial_data] {key} must be finite, got "
                                  f"{getattr(ic, key)}")
        if not (ic.width > 0 and ic.k_scale > 0):
            raise ConfigError("[initial_data] width and k_scale must be positive, "
                              f"got {ic.width} and {ic.k_scale}")
        if self.run.seed < 0:
            raise ConfigError(f"[run] seed must be >= 0, got {self.run.seed}")
        flat, support = self.resolved_cutoff_radii(damping)
        if not 0.0 < flat < support < L:
            raise ConfigError(
                f"[observables] cutoff radii (flat={flat}, support={support}) must "
                f"satisfy 0 < flat < support < {L}"
            )
        # the far field (1 - chi) u solves the free equation only where a = 0;
        # chi is exactly 1 on the flat ball, so one that holds supp a covers it
        if flat < damping.support_radius:
            chi = cutoff_field(spec, flat, support)
            active = damping.table > geo.a_min
            deviation = float(np.max(np.abs(chi[active] - 1.0), initial=0.0))
            if deviation > 1e-12:
                raise ConfigError(
                    "[observables] cutoff must equal 1 on the damping support "
                    f"(max deviation {deviation:.3e} at flat={flat})"
                )
        try:  # the parsed keys were set one by one; re-run the checks
            replace(self.solver)
        except DomainError as exc:
            raise ConfigError(f"[solver] {exc}") from exc
        if self.scattering.snapshot_every < 0:
            raise ConfigError("[scattering] snapshot_every must be >= 0, got "
                              f"{self.scattering.snapshot_every}")
        for s in self.scattering.s_values:
            if not 0 <= s < np.inf:
                raise ConfigError(
                    f"[scattering] s_values must be finite and >= 0, got {s}")
        # a nan slack would pass every monotone-tail verdict
        if not 0 <= self.scattering.tol_mono < np.inf:
            raise ConfigError("[scattering] tol_mono must be finite and >= 0, got "
                              f"{self.scattering.tol_mono}")
        for s in obs.cutoff_exponents:
            if not 0.0 <= s < 1.0:
                raise ConfigError(
                    f"[observables] cutoff_exponents must lie in [0, 1), got {s}"
                )
        r = self.rays
        if r.count < 1 or r.sample_radius <= 0:
            raise ConfigError("[rays] count and sample_radius must be positive")
        if not np.isfinite(r.sample_radius):
            raise ConfigError(f"[rays] sample_radius must be finite, got {r.sample_radius}")
        # nan takes the default, which clears the support by construction
        reach = max(metric.support_radius, damping.support_radius)
        if not (np.isnan(r.escape_radius) or r.escape_radius > reach):
            raise ConfigError(f"[rays] escape_radius = {r.escape_radius} must exceed "
                              f"the coefficient support {reach}")
        try:
            step_count(r.horizon, r.dt, "horizon")
        except DomainError as exc:
            raise ConfigError(f"[rays] {exc}") from exc
        if r.sampling not in ("random", "lattice"):
            raise ConfigError(f"[rays] sampling must be random or lattice, got {r.sampling!r}")
        return self


# the [section] names in file order: RunConfig's init fields
_SECTIONS = tuple(f.name for f in dc_fields(RunConfig) if f.init)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ", ".join(repr(float(v)) for v in value)
    return str(value)


def _parse_value(text: str, target_type, location: str):
    text = text.strip()
    try:
        if target_type is bool:
            lowered = text.lower()
            if lowered in ("true", "yes", "on", "1"):
                return True
            if lowered in ("false", "no", "off", "0"):
                return False
            raise ValueError(f"not a boolean: {text!r}")
        if target_type is int:
            return int(text)
        if target_type is float:
            if text.lower() in ("auto", "nan"):
                return float("nan")
            return float(text)
        if target_type is tuple:
            if not text:
                return ()
            return tuple(float(part) for part in text.split(","))
        return text
    except ValueError as exc:
        raise ConfigError(f"{location}: {exc}") from exc


def _find_line(text: str, key: str) -> int | None:
    for i, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith(key) and "=" in stripped:
            candidate = stripped.split("=", 1)[0].strip()
            if candidate == key:
                return i
    return None


def parse_config_text(text: str, source: str = "<string>") -> RunConfig:
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";"), strict=True
    )
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(f"{source}: {exc}") from exc

    cfg = RunConfig()
    for section_name in parser.sections():
        if section_name not in _SECTIONS:
            raise ConfigError(
                f"{source}: unknown section [{section_name}] "
                f"(line {_find_line(text, '[' + section_name) or '?'})"
            )
        section = getattr(cfg, section_name)
        types = {f.name: type(getattr(section, f.name)) for f in dc_fields(section)}
        for key, raw in parser.items(section_name):
            if key not in types:
                line = _find_line(text, key)
                raise ConfigError(
                    f"{source}: unknown key {key!r} in [{section_name}]"
                    + (f" (line {line})" if line else "")
                )
            value = _parse_value(raw, types[key], f"{source}: [{section_name}] {key}")
            setattr(section, key, value)
    return cfg.validate()


def parse_config(path: str | Path) -> RunConfig:
    """Parse and validate a configuration file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(path.read_text(), source=str(path))
