"""Solvers for a nonlinear time-fractional diffusion equation and the
adjoint-based conjugate gradient identification of its two boundary fluxes."""

from .cgm import CgmReport, Observations, StopReason, cost, gradient, run_cgm
from .fracops import L1Weights, l1_weights, mittag_leffler
from .materials import Constant, PlasticityModel, RambergOsgood, Tabulated, validate_class_K
from .mesh import BoundaryFlux, BoundaryTrace, Edge, Field, Grid, trace_norm
from .solver import (
    GridOperator,
    NonlinearProblem,
    PicardConfig,
    SolveReport,
    SolverError,
    solve_nonlinear,
    solve_sensitivity,
)

__all__ = [
    "BoundaryFlux",
    "BoundaryTrace",
    "CgmReport",
    "Constant",
    "Observations",
    "StopReason",
    "cost",
    "gradient",
    "run_cgm",
    "Edge",
    "Field",
    "Grid",
    "GridOperator",
    "L1Weights",
    "NonlinearProblem",
    "PicardConfig",
    "PlasticityModel",
    "RambergOsgood",
    "SolveReport",
    "SolverError",
    "Tabulated",
    "l1_weights",
    "mittag_leffler",
    "solve_nonlinear",
    "solve_sensitivity",
    "trace_norm",
    "validate_class_K",
]

__version__ = "0.1.0"
