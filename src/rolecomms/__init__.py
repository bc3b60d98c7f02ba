"""Speaker/listener role coordination for decentralized two-agent teams.

Library layout:

- numerics: pinned RNG, Gaussian sampling, small eigensolvers
- discrete_roles: exact speaker/listener policies on finite spaces
- linear_roles: role allocations, stability, rotation, and variance analysis
  for linear feedback teams
- potential_field: the one potential-field velocity law both agents act with
- table_sim: the two-agent table-carrying game with implicit and explicit
  communication; its game loop holds the table's kinematics and collision
  test
- bench: seeded, paired Monte-Carlo experiment harness
- codec: the one strict JSON codec, for bench configs, environment files
  and system files
- cli: `rolecomms` command-line entry point
"""

from .bench import (
    BenchmarkConfig,
    BenchmarkReport,
    Condition,
    compare_conditions,
    run_benchmark,
)
from .discrete_roles import (
    interdependence_demo,
    listener_policy_exact,
    listener_posterior,
    speaker_policy_exact,
)
from .linear_roles import (
    DynamicAlternating,
    SpeakerListener,
    SpeakerSpeaker,
    TeamLinearSystem,
    expected_kl,
    noisy_listener_action,
    optimal_variances,
    role_gain,
    rotation_action,
    rotation_converges,
    stability_report,
)
from .numerics import Rng, derive_seed, eig2x2, eig_general, gaussian
from .potential_field import FieldParams, agent_velocity
from .table_sim import (
    Environment,
    KnownRadius,
    Limits,
    SimOutcome,
    Strategy,
    UnknownRadius,
    Workspace,
    corrupt,
    generate_environment,
    infer_obstacle,
    run_game,
)

__version__ = "0.1.0"
