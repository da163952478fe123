"""Nonparametric contextual-bandit laboratory.

Implements the SACB smoothness-adaptive policy, the ABSE successive
elimination policy it hands off to, the local-polynomial and
polynomial-projection machinery both depend on, a library of payoff
instances and property verifiers, and a deterministic, seed-reproducible
simulation harness with a CLI front end.
"""

import os
import sys

# The process pool is the only parallelism: banditlab's BLAS work is
# LAPACK on stacks of small matrices, where helper threads gain nothing,
# while the OpenBLAS builds bundled with numpy and scipy each start a
# helper thread that spins through the rest of the import.  Set before any
# submodule imports numpy; a value already in the environment wins, and a
# caller that imported numpy first keeps numpy's own setting.  OpenBLAS
# reads the variable once, as it loads; run_meta.json records the value
# numpy's copy read (None: unset, so OpenBLAS's default).
_numpy_openblas_threads = os.environ.get("OPENBLAS_NUM_THREADS")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
if "numpy" not in sys.modules:
    _numpy_openblas_threads = os.environ["OPENBLAS_NUM_THREADS"]

__version__ = "0.1.0"

from .errors import (
    BanditLabError,
    HorizonTooSmallError,
    IllConditionedError,
    InsufficientGridError,
    InvalidBaseError,
    InvalidGapError,
    InvalidRegimeError,
    OutOfDomainError,
    StateDesyncError,
    ValidationError,
)
from .locpoly import (
    PolynomialEstimate,
    enumerate_multi_indices,
    fit_local_polynomial,
    window_fits,
)
from .projection import Box, brute_force_projection, project_to_polynomial
from .partition import (
    Partition,
    SacbLevels,
    build_partition,
    locate_bin,
    mesh_points,
    qadic_boxes,
    sacb_levels,
)
from .instances import (
    ProblemInstance,
    PropertyReport,
    bump,
    check_holder,
    check_margin,
    check_self_similarity,
    impossibility_exponent,
    make_lower_bound_family,
    make_power_payoff,
    make_setting_one,
    make_setting_two,
    minimax_exponent,
)
from .abse import AbseConfig, AbsePolicy
from .sacb import SacbConfig, SacbPolicy
from .policies import FixedArmPolicy, OraclePolicy, PolicySpec
from .sim import ExperimentSummary, RegretTrace, run_episode, run_experiment, summarize

__all__ = [name for name in dir() if not name.startswith("_")]
