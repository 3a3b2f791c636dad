"""Solvers for a nonlinear time-fractional diffusion equation and the
adjoint-based conjugate gradient identification of its two boundary fluxes."""

from .cgm import CgmReport, InverseProblem, Observations, StopReason, cost, gradient, run_cgm
from .fracops import L1Weights, caputo_left_apply, caputo_right_via_reversal, l1_weights, mittag_leffler
from .materials import Constant, PlasticityModel, RambergOsgood, Tabulated, validate_class_K
from .mesh import BoundaryFlux, BoundaryTrace, Edge, Field, Grid, trace_norm
from .solver import (
    Direction,
    GridOperator,
    LinearProblemSpec,
    NonlinearProblem,
    PicardConfig,
    SolveReport,
    SolverError,
    solve_linear,
    solve_nonlinear,
    solve_sensitivity,
)

__all__ = [
    "BoundaryFlux",
    "BoundaryTrace",
    "CgmReport",
    "Constant",
    "InverseProblem",
    "Observations",
    "StopReason",
    "cost",
    "gradient",
    "run_cgm",
    "Direction",
    "Edge",
    "Field",
    "Grid",
    "GridOperator",
    "L1Weights",
    "LinearProblemSpec",
    "NonlinearProblem",
    "PicardConfig",
    "PlasticityModel",
    "RambergOsgood",
    "SolveReport",
    "SolverError",
    "Tabulated",
    "caputo_left_apply",
    "caputo_right_via_reversal",
    "l1_weights",
    "mittag_leffler",
    "solve_linear",
    "solve_nonlinear",
    "solve_sensitivity",
    "trace_norm",
    "validate_class_K",
]

__version__ = "0.1.0"
