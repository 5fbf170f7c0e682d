"""Projected Nesterov-Kaczmarz reconstruction of stellar population-kinematic
distribution functions from IFU datacubes.

The top level exports the names of the README's library example plus the
template reader and the command-line entry point; everything else is
imported from its own module (``pnkr.forward``, ``pnkr.solver``, ...).
"""

__version__ = "0.1.0"

from .templates import kernel_theta_integrals, read_template_grid
from .forward import build_forward_system, synthesize_datacube
from .mock import add_noise, default_components, evaluate_ground_truth
from .solver import SolveData, SolverConfig, run
from .diagnostics import moment_maps
from .presets import preset_basis, preset_template

__all__ = [
    "__version__",
    "kernel_theta_integrals",
    "read_template_grid",
    "build_forward_system",
    "synthesize_datacube",
    "add_noise",
    "default_components",
    "evaluate_ground_truth",
    "SolveData",
    "SolverConfig",
    "run",
    "moment_maps",
    "preset_basis",
    "preset_template",
    "main",
]


def __getattr__(name):  # main loads on first use, so `python -m pnkr.cli` finds no pnkr.cli imported
    if name != "main":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .cli import main
    return main
