"""Equilibrium solutions of time-inconsistent deterministic LQ control.

Costs here are weighted by two-time kernels K(t, s) whose dependence on the
evaluation time t (hyperbolic and other non-exponential discounting) makes
plans drift as time advances.  The library computes the intra-personal
equilibrium: the feedback law no instantaneous deviation from which gives a
first-order cost improvement.  It solves the associated Riccati equation
with nonlocal correction term, assembles the quadratic value function and
feedback law, and verifies the defining equilibrium properties numerically.
"""

from .auxiliary import (AuxiliarySolution, PhiSolution, solve_auxiliary,
                        solve_phi, solve_psi)
from .errors import (AssumptionError, ConsistencyError, ConvergenceError,
                     ProblemFileError, TilqError)
from .grid import TimeGrid, build_grid, quadrature
from .local import (ExponentialSum, fit_exponential_sum, local_expansion,
                    solve_local)
from .policy import (EquilibriumSolution, Trajectory, cost,
                     error_function_closed, error_function_direct, feedback,
                     grad_value, simulate_control, simulate_equilibrium,
                     solve_equilibrium, value)
from .problem import (BaseCosts, Dimensions, DiscountKernel, DynamicsField,
                      ProblemSpec, TerminalField, TwoTimeField,
                      ValidationReport, exponential_kernel, hyperbolic_kernel,
                      make_discounted, make_kernel, quasi_hyperbolic_kernel,
                      tabulated_kernel, time_consistent_projection, validate)
from .problem_io import (LoadedProblem, load_problem, load_shipped_problem,
                         parse_problem, shipped_problem_names,
                         shipped_problem_path)
from .riccati import (RiccatiSolution, SolveOptions, classical_riccati,
                      gamma_from_p, solve_equilibrium_riccati)
from .verification import (SpikeReport, UniquenessProbe, VerificationReport,
                           VerifyOptions, bellman_residual,
                           hjb_integral_residual, hjb_residual_sup,
                           run_spike_check, run_verification,
                           spike_limit_analytic, spike_quotient,
                           uniqueness_probe)

__version__ = "0.1.0"

__all__ = [
    "AssumptionError", "AuxiliarySolution", "BaseCosts", "ConsistencyError",
    "ConvergenceError", "Dimensions", "DiscountKernel", "DynamicsField",
    "EquilibriumSolution", "ExponentialSum", "LoadedProblem", "PhiSolution",
    "ProblemFileError", "ProblemSpec", "RiccatiSolution", "SolveOptions",
    "SpikeReport", "TerminalField", "TilqError", "TimeGrid", "Trajectory",
    "TwoTimeField", "UniquenessProbe", "ValidationReport", "VerificationReport",
    "VerifyOptions", "bellman_residual", "build_grid", "classical_riccati",
    "cost", "error_function_closed", "error_function_direct",
    "exponential_kernel", "feedback", "fit_exponential_sum", "gamma_from_p",
    "grad_value", "hjb_integral_residual", "hjb_residual_sup",
    "hyperbolic_kernel", "load_problem", "load_shipped_problem",
    "local_expansion", "make_discounted", "make_kernel", "parse_problem",
    "quadrature", "quasi_hyperbolic_kernel", "run_spike_check",
    "run_verification", "shipped_problem_names", "shipped_problem_path",
    "simulate_control", "simulate_equilibrium", "solve_auxiliary",
    "solve_equilibrium", "solve_equilibrium_riccati", "solve_local",
    "solve_phi", "solve_psi", "spike_limit_analytic", "spike_quotient",
    "tabulated_kernel", "time_consistent_projection", "uniqueness_probe",
    "validate", "value",
]
