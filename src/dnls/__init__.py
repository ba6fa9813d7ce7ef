"""Pseudo-spectral workbench for the damped defocusing cubic NLS
i u_t + div(G grad u) + i a u = |u|^2 u on a periodic box."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DnlsError,
    DomainError,
    GridMismatchError,
    InvalidMetricError,
    SamplingError,
    SeriesAlignmentError,
    StabilityError,
)
from .grid import (
    Field,
    GridSpec,
    WeightTables,
    gradient,
    sobolev_norm,
    weight_tables,
)
from .geometry import (
    ControlReport,
    DampingField,
    MetricField,
    build_preset,
    check_control,
    coercivity_constant,
    cutoff_field,
    gradient_bound_constant,
)
from .solver import (
    Monitor,
    Propagator,
    SimulationResult,
    SimulationState,
    SolverConfig,
    cfl_suggestion,
    linear_substep,
    nonlinear_damping_substep,
    simulate,
    step,
)
from .observables import ObservableSeries
from .config import RunConfig, parse_config, parse_config_text
from .snapshots import read_snapshot, write_snapshot
