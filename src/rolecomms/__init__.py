"""Speaker/listener role coordination for decentralized two-agent teams.

Library layout:

- numerics: pinned RNG, Gaussian sampling, eigenvalues of small matrices
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

The package root re-exports nothing: import each name from its module, as in
`from rolecomms.table_sim import run_game`. numpy loads on first use: with
`linear_roles` or `discrete_roles`, `numerics.eigenvalues`, or a game with
channel noise.
"""

__version__ = "0.1.0"
