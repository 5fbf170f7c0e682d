"""Built-in problem sizes: the production grid and two shrunken variants.

Every preset pins all grid counts, the observed wavelength window, and
the template tabulation nodes, so a preset name alone reproduces a
problem instance exactly.  ``paper_scale`` is the production size and
takes hours to solve; ``desk_scale`` runs a full pipeline in minutes and
``tiny`` in seconds, which is what the test-suite exercises.
"""

from __future__ import annotations

import numpy as np

from .grid_basis import AxisSpec, DiscreteBasis, GridSpec, make_basis
from .templates import TemplateGrid, build_template_grid

PRESET_NAMES = ("paper_scale", "desk_scale", "tiny")

# template tabulation covers every preset's (z, t) domain with margin
_TEMPLATE_Z_RANGE = (-2.7, 0.4)
_TEMPLATE_T_RANGE = (0.01, 14.3)
_TEMPLATE_V_MAX = 1100.0

_SPATIAL = {"paper_scale": 26, "desk_scale": 13, "tiny": 4}
_THETA = {"paper_scale": (27, 7, 19), "desk_scale": (15, 5, 9), "tiny": (5, 3, 3)}
_CHANNELS = {"paper_scale": 687, "desk_scale": 96, "tiny": 8}
_TEMPLATE_NODES = {"paper_scale": (9, 19), "desk_scale": (7, 9), "tiny": (5, 6)}


def _check_name(name: str) -> str:
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
    return name


def preset_grid_spec(name: str) -> GridSpec:
    """The full grid specification of a preset, ready to format or build."""
    _check_name(name)
    n_spatial = _SPATIAL[name]
    n_v, n_z, n_t = _THETA[name]
    t_spacing = "uniform" if name == "tiny" else "geometric"
    axes = {
        "x1": AxisSpec(name="x1", spacing="uniform", min=-1.0, max=1.0, count=n_spatial),
        "x2": AxisSpec(name="x2", spacing="uniform", min=-1.0, max=1.0, count=n_spatial),
        "v": AxisSpec(name="v", spacing="uniform", min=-1000.0, max=1000.0, count=n_v),
        "z": AxisSpec(name="z", spacing="uniform", min=-2.66, max=0.36, count=n_z),
        "t": AxisSpec(name="t", spacing=t_spacing, min=0.015, max=14.25, count=n_t),
    }
    return GridSpec(axes=axes, lambda_min=480.0, lambda_max=570.0, lambda_count=_CHANNELS[name])


def preset_basis(name: str, s: int, beta: float = 0.0) -> DiscreteBasis:
    """The discretization of a preset at smoothness ``s``."""
    grids = preset_grid_spec(name).axis_grids()
    return make_basis(
        s,
        (grids["x1"], grids["x2"]),
        (grids["v"], grids["z"], grids["t"]),
        beta=beta,
    )


def preset_template(name: str) -> TemplateGrid:
    """The tabulated template library sized for a preset."""
    spec = preset_grid_spec(_check_name(name))
    n_z, n_t = _TEMPLATE_NODES[name]
    return build_template_grid(
        spec.lambda_min,
        spec.lambda_max,
        spec.lambda_count,
        _TEMPLATE_V_MAX,
        np.linspace(*_TEMPLATE_Z_RANGE, n_z),
        np.geomspace(*_TEMPLATE_T_RANGE, n_t) if name == "paper_scale" else np.linspace(*_TEMPLATE_T_RANGE, n_t),
    )
