"""Motion and scaling design for distance-based rigid formations.

The package splits into graph/rigidity primitives, offset-parameter
design, the control law with distance schedules, a fixed-step
simulator with steady-state estimators, and scenario I/O plus a CLI.
"""

from .control import (
    ControllerConfig,
    ScalingSchedule,
    control_law,
)
from .errors import (
    DegenerateAlignment,
    DegenerateShape,
    Divergence,
    EdgeCollapse,
    FormsimError,
    InsufficientDecay,
    PositivityError,
    RigidityError,
    SchemaError,
    Unreachable,
    ZeroEdge,
)
from .motion import (
    MotionParameters,
    ReferenceShape,
    induced_velocities,
    induced_velocity_matrix,
    motion_spaces,
    rotation_field,
    rotation_params,
    scaling_params,
    translation_params,
)
from .rigidity import (
    Framework,
    RigidityReport,
    SensingGraph,
    rigidity_matrix,
    rigidity_report,
)
from .scenario import (
    Scenario,
    bundled_scenario_path,
    load_scenario,
    parse_scenario,
    write_trajectory_csv,
)
from .simulate import (
    Perturbation,
    SimConfig,
    SteadyStateReport,
    Trajectory,
    apply_perturbation,
    decay_rate_fit,
    integrate,
    integrate_batch,
    perturb_to_error_norm,
    steady_state_report,
)

__version__ = "0.1.0"
