"""In-memory span tracer for the dnls benchmark, and the per-layer metrics.

The tracer wraps public functions at each module boundary of the ``dnls``
package from the outside (the package itself is not modified). Each span has
a name, start, end, parent span and operation id; spans stay in memory and
are written out only when a run ends. A span also carries the value of the
FFT counter at its start and end, so FFT counts are attributed exactly to the
span that caused them.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
from collections import defaultdict

import numpy as np

# Span tuple layout.
SID, PARENT, NAME, T0, T1, OP, LABEL, FFT0, FFT1, INFO, ERR = range(11)

OP_SPAN = "bench.op"

# Spans that own the time they cover when layer shares are computed. The
# primitives (FFTs, band limiting, closed-form coefficient evaluators) are
# charged to the layer that called them.
PRIMITIVES = frozenset({
    "grid.fft", "grid.ifft", "grid.band_limit",
    "geometry.eval_metric", "geometry.eval_metric_grad", "geometry.eval_damping",
})

LAYERS = ("grid", "solver", "observables", "scattering", "snapshots", "rays",
          "geometry", "config", "cli")

PRESETS = ("identity", "conformal_bump", "anisotropic_bump")

# Every monitor the full standard bundle can contain, in bundle order.
MONITORS = ("mass", "energy", "damping_mass", "damping_energy", "mass_lapGa",
            "energy_flux_alt", "virial", "virial_rhs", "lambda_density", "l4",
            "h1_sq", "supp_a_h1", "interaction", "morawetz_proxy", "local_energy",
            "local_mass", "cutoff_hs_0", "cutoff_hs_0.5", "commutator_l2_sq")

RESIDUAL_FUNCTIONS = ("mass_law_residual", "energy_law_residual",
                      "energy_law_residual_flux_form", "morawetz_rate_residual",
                      "lambda_accumulator", "energy_lambda_bound_check",
                      "l4_accumulator", "interaction_inequality_check")

# Bytes one complex128 transform reads and writes per point (computed, not
# measured: 16 bytes in, 16 bytes out).
FFT_BYTES_PER_POINT = 32


class Tracer:
    """Records spans around patched callables; see :func:`installed`."""

    def __init__(self, clock):
        self.clock = clock
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.next_id = 0
        self.op = 0
        self.label = ""
        self.fft_calls = 0

    def wrap(self, name, fn, info=None, fft=False):
        """Return ``fn`` wrapped in a span called ``name``.

        ``info(args, kwargs, result)`` runs after the span closes and stores
        one value with it; ``fft`` counts the call on the FFT counter.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.next_id
            tracer.next_id += 1
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.stack.append(sid)
            fft0 = tracer.fft_calls
            if fft:
                tracer.fft_calls += 1
            result = err = None
            t0 = tracer.clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                err = type(exc).__name__
                raise
            finally:
                t1 = tracer.clock()
                tracer.stack.pop()
                value = info(args, kwargs, result) if info and err is None else None
                tracer.spans.append((sid, parent, name, t0, t1, tracer.op,
                                     tracer.label, fft0, tracer.fft_calls, value,
                                     err))

        return traced

    def operation(self, op_id, fn):
        """Run ``fn()`` inside the root span of operation ``op_id``."""
        self.op = op_id
        return self.wrap(OP_SPAN, fn)()

    def write(self, path):
        keys = ("id", "parent", "name", "start", "end", "op", "label",
                "fft_start", "fft_end", "info", "error")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _points(args, kwargs, result):
    return int(np.size(args[1]))


def _file_size(args, kwargs, result):
    return os.path.getsize(args[0])


def _state_step(args, kwargs, result):
    return int(args[0].step)


def _ray_work(args, kwargs, result):
    """(rays, useful ray-steps) of one ensemble, read from its fates.

    A ray is useful until its fate is final: an escaped ray up to the step
    at which it left, any other ray up to the horizon.
    """
    dt = kwargs["dt"]
    steps = int(round(kwargs["horizon"] / dt))
    live = 0
    for fate in result.fates:
        if fate.kind == "escaped":
            live += min(steps, int(np.floor(fate.t_exit / dt)) + 1)
        else:
            live += steps
    return [len(result.fates), live]


@contextlib.contextmanager
def installed(tracer):
    """Patch every traced boundary of ``dnls`` for the duration of the block.

    Names a module imports from another are patched where they are looked
    up, e.g. ``dnls.config.build_preset`` and ``dnls.scattering.sobolev_norm``.
    """
    import dnls.cli
    import dnls.config
    import dnls.geometry
    import dnls.grid
    import dnls.observables
    import dnls.rays
    import dnls.scattering
    import dnls.snapshots
    import dnls.solver

    saved = []

    def patch(owner, attr, name, **options):
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, **options))

    grid_spec = dnls.grid.GridSpec
    patch(grid_spec, "fft", "grid.fft", info=_points, fft=True)
    patch(grid_spec, "ifft", "grid.ifft", info=_points, fft=True)
    patch(grid_spec, "band_limit", "grid.band_limit")
    patch(dnls.grid, "weight_tables", "grid.weight_tables")

    for attr, name in (("step", "solver.step"),
                       ("linear_substep", "solver.linear_substep"),
                       ("nonlinear_damping_substep", "solver.nonlinear_substep"),
                       ("simulate", "solver.simulate")):
        patch(dnls.solver, attr, name)

    original_monitors = dnls.observables.standard_monitors

    def traced_monitors(*args, **kwargs):
        monitors = original_monitors(*args, **kwargs)
        for mon in monitors:
            mon.fn = tracer.wrap(f"observables.monitor.{mon.name}", mon.fn,
                                 info=_state_step)
        return monitors

    saved.append((dnls.observables, "standard_monitors", original_monitors))
    dnls.observables.standard_monitors = tracer.wrap(
        "observables.build", functools.wraps(original_monitors)(traced_monitors))
    for attr in RESIDUAL_FUNCTIONS:
        patch(dnls.observables, attr, "observables.residuals")

    for attr, name in (("free_pullback", "scattering.pullback"),
                       ("free_evolve", "scattering.free_evolve"),
                       ("cauchy_scan", "scattering.cauchy_scan"),
                       ("extract_profile", "scattering.extract_profile"),
                       ("sobolev_norm", "scattering.sobolev_norm")):
        patch(dnls.scattering, attr, name)

    patch(dnls.snapshots, "write_snapshot", "snapshots.write", info=_file_size)
    patch(dnls.snapshots, "read_snapshot", "snapshots.read", info=_file_size)

    patch(dnls.rays, "verify_exterior_control", "rays.verify", info=_ray_work)
    patch(dnls.rays, "hamiltonian", "rays.hamiltonian")

    metric_field = dnls.geometry.MetricField
    patch(metric_field, "eval_metric", "geometry.eval_metric")
    patch(metric_field, "eval_metric_grad", "geometry.eval_metric_grad")
    patch(dnls.geometry.DampingField, "eval_damping", "geometry.eval_damping")
    patch(dnls.config, "build_preset", "geometry.build_preset")
    patch(dnls.geometry, "check_control", "geometry.check_control")

    patch(dnls.config, "parse_config", "config.parse")
    patch(dnls.cli, "main", "cli.main")
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ----------------------------------------------------------------------------
# per-layer metrics of one traced operation
# ----------------------------------------------------------------------------


def _duration(span) -> float:
    return span[T1] - span[T0]


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    own = {span[SID]: _duration(span) for span in spans}
    for span in spans:
        if span[PARENT] in own:
            own[span[PARENT]] -= _duration(span)
    return own


def layer_shares(spans, wall: float) -> dict[str, float]:
    """Share of ``wall`` charged to each layer.

    Time goes to the innermost enclosing span that is not a primitive, and
    from there to that span's layer (the name prefix).
    """
    by_id = {span[SID]: span for span in spans}

    def owner(span):
        while span[NAME] in PRIMITIVES:
            span = by_id[span[PARENT]]
        return span

    charged = defaultdict(float)
    for span in spans:
        if span[NAME] in PRIMITIVES:
            continue
        charged[span[SID]] += _duration(span)
        if span[PARENT] in by_id:
            charged[owner(by_id[span[PARENT]])[SID]] -= _duration(span)
    shares = dict.fromkeys(LAYERS, 0.0)
    for sid, seconds in charged.items():
        layer = by_id[sid][NAME].split(".", 1)[0]
        if layer in shares:
            shares[layer] += seconds / wall
    return shares


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, wall: float, output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one operation, named ``<module>.<metric>``."""
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[NAME]].append(span)
    by_id = {span[SID]: span for span in spans}
    own = self_times(spans)

    def total(name):
        return sum(_duration(s) for s in by_name[name])

    def ffts(some):
        return sum(s[FFT1] - s[FFT0] for s in some)

    def parent_name(span):
        parent = by_id.get(span[PARENT])
        return parent[NAME] if parent else None

    def outermost(names):
        return [s for name in names for s in by_name[name]
                if parent_name(s) not in names]

    m: dict[str, float] = {}
    transforms = by_name["grid.fft"] + by_name["grid.ifft"]
    fft_points = sum(s[INFO] for s in transforms)
    m["grid.fft_calls"] = len(transforms)
    m["grid.fft_points"] = fft_points
    m["grid.fft_bytes_computed"] = FFT_BYTES_PER_POINT * fft_points
    m["grid.fft_s"] = sum(_duration(s) for s in transforms)
    m["grid.band_limit_calls"] = len(by_name["grid.band_limit"])
    for preset in PRESETS:
        steps = [s for s in by_name["solver.step"] if s[LABEL] == preset]
        m[f"grid.fft_per_step.{preset}"] = _ratio(ffts(steps), len(steps))

    monitor_spans = [s for s in spans if s[NAME].startswith("observables.monitor.")]
    records = defaultdict(float)
    for s in monitor_spans:
        records[(s[PARENT], s[INFO])] += _duration(s)
    record_ms = [1e3 * v for v in records.values()]
    m["grid.fft_per_record"] = _ratio(ffts(monitor_spans), len(records))
    scans = {s[SID] for s in by_name["scattering.cauchy_scan"]}
    cauchy_evals = sum(1 for s in by_name["scattering.sobolev_norm"]
                       if s[PARENT] in scans)
    m["grid.fft_per_cauchy_eval"] = _ratio(
        ffts(by_name["scattering.cauchy_scan"]), cauchy_evals)
    m["grid.weight_tables_s"] = total("grid.weight_tables")

    step_time = total("solver.step")
    m["solver.steps"] = len(by_name["solver.step"])
    for preset in PRESETS:
        step_ms = [1e3 * _duration(s) for s in by_name["solver.step"]
                   if s[LABEL] == preset]
        m[f"solver.step_ms_p50.{preset}"] = _pct(step_ms, 50)
        m[f"solver.step_ms_p95.{preset}"] = _pct(step_ms, 95)
    m["solver.linear_substep_s"] = total("solver.linear_substep")
    m["solver.nonlinear_substep_s"] = total("solver.nonlinear_substep")
    m["solver.band_limit_s"] = total("grid.band_limit")
    m["solver.loop_self_s"] = sum(own[s[SID]] for s in by_name["solver.simulate"])
    m["solver.stability_aborts"] = sum(
        1 for s in by_name["solver.simulate"] if s[ERR] == "StabilityError")

    m["observables.record_calls"] = len(records)
    m["observables.record_ms_p50"] = _pct(record_ms, 50)
    m["observables.record_ms_p95"] = _pct(record_ms, 95)
    for name in MONITORS:
        calls = by_name[f"observables.monitor.{name}"]
        m[f"observables.monitor.{name}_ms"] = _ratio(
            1e3 * sum(_duration(s) for s in calls), len(calls))
    m["observables.build_s"] = total("observables.build")
    m["observables.residuals_s"] = sum(
        _duration(s) for s in outermost(("observables.residuals",)))
    m["observables.record_to_step_ratio"] = _ratio(sum(records.values()), step_time)

    extract = total("scattering.extract_profile")
    scan_in_extract = sum(_duration(s) for s in by_name["scattering.cauchy_scan"]
                          if parent_name(s) == "scattering.extract_profile")
    pullbacks = outermost(("scattering.pullback", "scattering.free_evolve"))
    m["scattering.extract_profile_s"] = extract
    m["scattering.cauchy_scan_s"] = total("scattering.cauchy_scan")
    m["scattering.mismatch_s"] = extract - scan_in_extract
    m["scattering.pullback_calls"] = len(pullbacks)
    m["scattering.pullback_s"] = sum(_duration(s) for s in pullbacks)
    m["scattering.sobolev_calls"] = len(by_name["scattering.sobolev_norm"])
    m["scattering.sobolev_s"] = total("scattering.sobolev_norm")
    m["scattering.cauchy_evals"] = cauchy_evals

    for kind in ("write", "read"):
        calls = by_name[f"snapshots.{kind}"]
        m[f"snapshots.{kind}_calls"] = len(calls)
        m[f"snapshots.bytes_{'written' if kind == 'write' else 'read'}"] = sum(
            s[INFO] for s in calls)
        m[f"snapshots.{kind}_s"] = sum(_duration(s) for s in calls)

    verify = by_name["rays.verify"]
    ensemble_steps = attempted = live = 0
    for s in verify:
        steps = sum(1 for h in by_name["rays.hamiltonian"] if h[PARENT] == s[SID]) - 1
        rays, useful = s[INFO]
        ensemble_steps += steps
        attempted += steps * rays
        live += useful
    m["rays.verify_s"] = total("rays.verify")
    m["rays.hamiltonian_calls"] = len(by_name["rays.hamiltonian"])
    m["rays.ray_steps_attempted"] = attempted
    m["rays.live_ray_steps"] = live
    m["rays.live_fraction"] = _ratio(live, attempted)
    m["rays.step_us"] = _ratio(1e6 * m["rays.verify_s"], ensemble_steps)

    m["geometry.build_preset_s"] = total("geometry.build_preset")
    m["geometry.check_control_s"] = total("geometry.check_control")
    evals = outermost(("geometry.eval_metric",))
    m["geometry.eval_metric_calls"] = len(evals)
    m["geometry.eval_metric_s"] = sum(_duration(s) for s in evals)
    m["geometry.eval_metric_grad_s"] = total("geometry.eval_metric_grad")
    m["geometry.eval_damping_s"] = total("geometry.eval_damping")

    m["config.parse_s"] = total("config.parse")
    m["cli.self_s"] = sum(own[s[SID]] for s in by_name["cli.main"])
    m["cli.output_bytes"] = output_bytes

    for layer, share in layer_shares(spans, wall).items():
        m[f"{layer}.share"] = share
    return m


def _unit(name: str) -> str:
    if "fft_bytes_computed" in name:
        return "B-computed"
    for kind, unit in (("fft_per_step", "FFT/step"), ("fft_per_record", "FFT/record"),
                       ("fft_per_cauchy_eval", "FFT/eval")):
        if kind in name:
            return unit
    if "_ms" in name:
        return "ms"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("share", "ratio", "fraction")):
        return "ratio"
    if "bytes" in name:
        return "B"
    return "count"


TRACE_METRICS = ("trace.traced_wall_s", "trace.untraced_wall_s", "trace.overhead_s")

# Every per-layer metric a traced run prints, with its unit.
PER_LAYER_UNITS = {name: _unit(name)
                   for name in [*layer_metrics([], 1.0, 0), *TRACE_METRICS]}

# Counts that repeat exactly for the same inputs. The output size is left
# out: the manifest stores a timestamp.
EXACT_COUNTS = tuple(name for name, unit in PER_LAYER_UNITS.items()
                     if unit not in ("s", "ms", "us", "ratio")
                     and name != "cli.output_bytes")
