"""Simulator and strategy library for the online server-renting problem."""

from .core import (
    CapacityConfig,
    Job,
    JobSequence,
    PlacementTrace,
    SequenceStats,
    ServerRecord,
    compute_stats,
    read_sequence_csv,
    validate_trace,
    write_sequence_csv,
)
from .engine import (
    ArrivalView,
    Decision,
    InfeasiblePlacementError,
    RunResult,
    ServerView,
    simulate,
)
from .strategies import (
    BestFit,
    FirstFit,
    Harmonic,
    ModifiedFirstFit,
    ModifiedNextFit,
    MoveToFront,
    NextFit,
    build_strategy,
)
from .bounds import (
    BoundEntry,
    BoundReport,
    brute_force_opt,
    build_report,
    check_mnf_bound,
    check_mtf_bound,
    check_nf_bound,
    check_universal_bounds,
    lower_bound,
)
from .generators import (
    AdversaryParams,
    SplitMix64,
    UniformParams,
    adversary_ratio_bound,
    gen_adversarial,
    gen_uniform,
)
from .bench import AggregateRow, ExperimentSpec, run_experiment

__version__ = "0.1.0"
