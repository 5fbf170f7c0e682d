"""Built-in problem sizes: the production grid and two shrunken variants.

Every preset pins all grid counts, the observed wavelength window, and
the template tabulation nodes, so a preset name alone reproduces a
problem instance exactly.  ``paper_scale`` is the production size and
takes hours to solve; ``desk_scale`` runs a full pipeline in minutes and
``tiny`` in seconds, which is what the test-suite exercises.
"""

from __future__ import annotations

import numpy as np

from .grid_basis import AxisGrid, DiscreteBasis, geometric_axis, make_basis, uniform_axis
from .templates import TemplateGrid, build_template_grid

PRESET_NAMES = ("paper_scale", "desk_scale", "tiny")

# template tabulation covers every preset's (z, t) domain with margin
_TEMPLATE_Z_RANGE = (-2.7, 0.4)
_TEMPLATE_T_RANGE = (0.01, 14.3)
_TEMPLATE_V_MAX = 1100.0

# observed wavelength window [nm], shared by every preset
_LAMBDA_RANGE = (480.0, 570.0)

_SPATIAL = {"paper_scale": 26, "desk_scale": 13, "tiny": 4}
_THETA = {"paper_scale": (27, 7, 19), "desk_scale": (15, 5, 9), "tiny": (5, 3, 3)}
_CHANNELS = {"paper_scale": 687, "desk_scale": 96, "tiny": 8}
_TEMPLATE_NODES = {"paper_scale": (9, 19), "desk_scale": (7, 9), "tiny": (5, 6)}


def _check_name(name: str) -> str:
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
    return name


def preset_axes(name: str) -> dict[str, AxisGrid]:
    """The five axis grids of a preset, keyed ``x1, x2, v, z, t`` in basis order."""
    _check_name(name)
    n_spatial = _SPATIAL[name]
    n_v, n_z, n_t = _THETA[name]
    t_axis = uniform_axis if name == "tiny" else geometric_axis
    return {
        "x1": uniform_axis(-1.0, 1.0, n_spatial),
        "x2": uniform_axis(-1.0, 1.0, n_spatial),
        "v": uniform_axis(-1000.0, 1000.0, n_v),
        "z": uniform_axis(-2.66, 0.36, n_z),
        "t": t_axis(0.015, 14.25, n_t),
    }


def preset_window(name: str) -> tuple[float, float, int]:
    """The observed wavelength window ``(lambda_min, lambda_max, count)`` of a preset."""
    return (*_LAMBDA_RANGE, _CHANNELS[_check_name(name)])


def preset_basis(name: str, s: int, beta: float = 0.0) -> DiscreteBasis:
    """The discretization of a preset at smoothness ``s``."""
    x1, x2, v, z, t = preset_axes(name).values()
    return make_basis(s, (x1, x2), (v, z, t), beta=beta)


def preset_template(name: str) -> TemplateGrid:
    """The tabulated template library sized for a preset."""
    n_z, n_t = _TEMPLATE_NODES[_check_name(name)]
    return build_template_grid(
        *preset_window(name),
        _TEMPLATE_V_MAX,
        np.linspace(*_TEMPLATE_Z_RANGE, n_z),
        np.geomspace(*_TEMPLATE_T_RANGE, n_t) if name == "paper_scale" else np.linspace(*_TEMPLATE_T_RANGE, n_t),
    )
