"""Deterministic simulator for decentralized stochastic minimax optimization.

Five consensus strategies (exact diffusion, EXTRA, and three
gradient-tracking variants) drive coupled descent/ascent iterates over a
network of agents, with a switching variance-reduced gradient estimator
covering STORM, PAGE, and Loopless SARAH as special cases.
"""

from .engine import EngineConfig, MetricsSeries, run_and_measure
from .errors import ConfigError, DegenerateModeError, DivergenceError, \
    NotPSDError
from .estimator import Draws, GraceParams, GraceState, draw, \
    estimator_error, init_estimator, update_estimator
from .harness import RunConfig, config_from_dict, load_config, \
    run_experiment, sweep, write_outputs
from .mixing import MixingMatrix, Topology, build_graph, eigh_symmetric, \
    metropolis_weights, mixing_for_topology
from .problems import ProblemConstants, QuadraticMinimaxProblem, \
    SinPLProblem, make_quadratic_problem, make_sinpl_problem, \
    maximizer_oracle
from .schedules import ScheduleMode, ScheduleSpec, schedule_for_mode, \
    shrink_to_valid, validate_conditions
from .strategies import SQRT_STRATEGIES, StrategyKind, StrategyOps, \
    build_strategy
from .transform import TransformBundle, build_transform_bundle, \
    coupled_error_norms

__version__ = "0.1.0"
