"""Synthetic ground truth, observational noise, and datacube files.

The mock galaxy is a mixture of separable components: an exponential
spatial profile (or a curved ridge for stream-like components), a
Gaussian line-of-sight velocity distribution whose mean and dispersion
vary with position, and a Gaussian population blob in metallicity-age
space.  Components are renormalized on the discrete lattice so that each
one carries exactly its nominal mass fraction and the total mass is 1.

Samples live at the spatial sites shared by both basis families, so the
evaluated lattice values are directly the coefficient vector u* and the
noise-free datacube is one matrix product away.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forward import ForwardSystem, sample_norm
from .grid_basis import DiscreteBasis, _open_binary, _validated_nodes, _write_binary, axis_weights

__all__ = [
    "ComponentSpec",
    "NoisySet",
    "DataCube",
    "default_components",
    "ground_truth_parts",
    "evaluate_ground_truth",
    "add_noise",
    "write_datacube",
    "read_datacube",
]


@dataclass(frozen=True, eq=False)
class ComponentSpec:
    """One galactic component of the mock mixture.

    The spatial profile is an exponential disk
    ``exp(-sqrt((x1/scale_x1)^2 + (x2/scale_x2)^2))`` unless
    ``ridge_radius`` is set, in which case it is a circular ridge of the
    given radius and Gaussian width, modulated along the ridge by a
    von Mises factor ``exp(ridge_kappa * cos(theta - ridge_angle))``.
    The line-of-sight velocity distribution at a position is Gaussian
    with mean ``v_amp * tanh(x1 / v_turnover)`` (the sign of ``v_amp``
    sets the rotation direction) and dispersion
    ``sigma0 + sigma_amp * exp(-(x1 / sigma_scale)^2)``.  The population
    factor is an axis-aligned Gaussian blob in ``(z, t)``.

    Attributes
    ----------
    mass_fraction : float
        Share of the total stellar mass, in [0, 1].
    sigma0, sigma_amp : float
        Dispersion floor and excess amplitude; the floor keeps
        ``sigma_v >= 10`` km/s so the velocity grid resolves every
        component.
    """

    name: str
    mass_fraction: float
    scale_x1: float
    scale_x2: float
    v_amp: float
    v_turnover: float
    sigma0: float
    sigma_amp: float
    sigma_scale: float
    z_mean: float
    z_width: float
    t_mean: float
    t_width: float
    ridge_radius: float | None = None
    ridge_width: float | None = None
    ridge_kappa: float = 0.0
    ridge_angle: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.mass_fraction <= 1.0:
            raise ValueError("mass_fraction must lie in [0, 1]")
        if self.sigma0 < 10.0:
            raise ValueError("dispersion floor sigma0 must be >= 10 km/s")
        if self.sigma_amp < 0.0:
            raise ValueError("sigma_amp must be nonnegative")
        if self.z_width <= 0.0 or self.t_width <= 0.0:
            raise ValueError("population widths must be positive")
        if self.ridge_radius is not None and (self.ridge_width is None or self.ridge_width <= 0.0):
            raise ValueError("a ridge component needs a positive ridge_width")

    def spatial_density(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """Unnormalized surface density on the grid ``x1 (x) x2``."""
        X1 = np.asarray(x1, dtype=float)[:, None]
        X2 = np.asarray(x2, dtype=float)[None, :]
        if self.ridge_radius is None:
            return np.exp(-np.sqrt((X1 / self.scale_x1) ** 2 + (X2 / self.scale_x2) ** 2))
        rad = np.sqrt(X1**2 + X2**2)
        theta = np.arctan2(X2, X1)
        ring = np.exp(-0.5 * ((rad - self.ridge_radius) / self.ridge_width) ** 2)
        return ring * np.exp(self.ridge_kappa * np.cos(theta - self.ridge_angle))

    def mean_velocity(self, x1: np.ndarray) -> np.ndarray:
        return self.v_amp * np.tanh(np.asarray(x1, dtype=float) / self.v_turnover)

    def dispersion(self, x1: np.ndarray) -> np.ndarray:
        x1 = np.asarray(x1, dtype=float)
        return self.sigma0 + self.sigma_amp * np.exp(-((x1 / self.sigma_scale) ** 2))


def default_components() -> tuple[ComponentSpec, ...]:
    """Thin disk, counter-rotating thick disk, and a faint stream.

    Mass fractions 0.70 / 0.29 / 0.01.  The disks rotate in opposite
    directions with mean velocities separated by more than twice the
    largest dispersion over the inner disk plane, which makes the
    line-of-sight velocity distribution bimodal there.
    """
    thin = ComponentSpec(
        name="thin_disk",
        mass_fraction=0.70,
        scale_x1=0.55,
        scale_x2=0.12,
        v_amp=330.0,
        v_turnover=0.18,
        sigma0=60.0,
        sigma_amp=40.0,
        sigma_scale=0.3,
        z_mean=-0.1,
        z_width=0.3,
        t_mean=3.5,
        t_width=1.8,
    )
    thick = ComponentSpec(
        name="thick_disk",
        mass_fraction=0.29,
        scale_x1=0.7,
        scale_x2=0.45,
        v_amp=-180.0,
        v_turnover=0.25,
        sigma0=110.0,
        sigma_amp=30.0,
        sigma_scale=0.4,
        z_mean=-1.0,
        z_width=0.35,
        t_mean=10.0,
        t_width=2.2,
    )
    stream = ComponentSpec(
        name="stream",
        mass_fraction=0.01,
        scale_x1=1.0,
        scale_x2=1.0,
        v_amp=-300.0,
        v_turnover=0.3,
        sigma0=35.0,
        sigma_amp=0.0,
        sigma_scale=1.0,
        z_mean=-1.9,
        z_width=0.18,
        t_mean=7.5,
        t_width=1.2,
        ridge_radius=0.72,
        ridge_width=0.06,
        ridge_kappa=2.5,
        ridge_angle=1.75,
    )
    return (thin, thick, stream)


def _gauss(x: np.ndarray, mean, width) -> np.ndarray:
    return np.exp(-0.5 * ((x - mean) / width) ** 2) / (np.sqrt(2.0 * np.pi) * width)


def ground_truth_parts(components, basis: DiscreteBasis) -> list[np.ndarray]:
    """Per-component coefficient tensors, each normalized to its fraction.

    Every component is evaluated at the 5D site lattice and rescaled so
    that its discrete mass (coefficients against the basis integral
    weights) equals its nominal mass fraction exactly.
    """
    fractions = np.array([c.mass_fraction for c in components], dtype=float)
    if abs(fractions.sum() - 1.0) > 1e-9:
        raise ValueError(f"component mass fractions sum to {fractions.sum()}, expected 1")
    sites = [g.centers for g in basis.grids]
    weights = [axis_weights(g, basis.s) for g in basis.grids]
    x1, x2, v, z, t = sites
    parts = []
    for comp in components:
        rho = comp.spatial_density(x1, x2)
        mu = comp.mean_velocity(x1)
        sig = comp.dispersion(x1)
        vfac = _gauss(v[None, :], mu[:, None], sig[:, None])
        zfac = _gauss(z, comp.z_mean, comp.z_width)
        tfac = _gauss(t, comp.t_mean, comp.t_width)
        field = np.einsum("ab,ac,d,e->abcde", rho, vfac, zfac, tfac, optimize=True)
        mass = np.einsum("abcde,a,b,c,d,e->", field, *weights, optimize=True)
        if mass <= 0.0:
            raise ValueError(f"component {comp.name!r} has zero mass on this grid")
        parts.append(field * (comp.mass_fraction / mass))
    return parts


def evaluate_ground_truth(components, basis: DiscreteBasis) -> np.ndarray:
    """Flat nonnegative coefficient vector of the mixture, unit mass."""
    total = sum(ground_truth_parts(components, basis))
    return np.ascontiguousarray(total).reshape(-1)


@dataclass(frozen=True, eq=False)
class NoisySet:
    """Clean and perturbed datacube samples with realized noise norms.

    ``delta_r[r-1]`` is the noise norm of channel ``r`` in the data
    space metric, and ``delta**2 == sum(delta_r**2)``.
    """

    y_clean: np.ndarray
    y_noisy: np.ndarray
    sigma_map: np.ndarray
    delta_r: np.ndarray
    delta: float


def add_noise(system: ForwardSystem, y_clean: np.ndarray, level: float, seed: int) -> NoisySet:
    """Perturb every sample with Gaussian noise of std ``level * |value|``.

    Channel ``r`` draws from its own counter-based stream keyed by
    ``(seed, r)``, so the result is independent of evaluation order and
    reproducible bitwise.
    """
    y_clean = np.asarray(y_clean, dtype=float)
    if y_clean.ndim != 2 or y_clean.shape[0] != system.N:
        raise ValueError(f"datacube has shape {y_clean.shape}, expected ({system.N}, R)")
    if not 0.0 <= level < np.inf:
        raise ValueError(f"noise level must be finite and nonnegative, got noise={level}")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    sigma = level * np.abs(y_clean)
    y_noisy = np.empty_like(y_clean)
    R = y_clean.shape[1]
    for r in range(1, R + 1):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, r])))
        y_noisy[:, r - 1] = y_clean[:, r - 1] + sigma[:, r - 1] * rng.standard_normal(system.N)
    delta_r = np.atleast_1d(sample_norm(system, y_noisy - y_clean))
    return NoisySet(
        y_clean=y_clean,
        y_noisy=y_noisy,
        sigma_map=sigma,
        delta_r=delta_r,
        delta=float(np.sqrt(np.sum(delta_r**2))),
    )


# -- datacube files ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DataCube:
    """Spatially sampled spectra plus the metadata a solve needs.

    ``samples`` holds one row per spatial site in position-major order
    (second spatial index fastest) and one column per wavelength
    channel.
    """

    x1_nodes: np.ndarray
    x2_nodes: np.ndarray
    lambda_obs: np.ndarray
    samples: np.ndarray
    delta_r: np.ndarray
    seed: int

    @property
    def n_sites(self) -> int:
        return (self.x1_nodes.size - 1) * (self.x2_nodes.size - 1)

    @property
    def R(self) -> int:
        return self.lambda_obs.size


def write_datacube(cube: DataCube, path) -> None:
    """Serialize a datacube in the PNKD binary layout."""
    n1 = cube.x1_nodes.size - 1
    n2 = cube.x2_nodes.size - 1
    R = cube.R
    if cube.samples.shape != (n1 * n2, R):
        raise ValueError(f"sample block has shape {cube.samples.shape}, expected ({n1 * n2}, {R})")
    if cube.delta_r.shape != (R,):
        raise ValueError(f"delta_r has shape {cube.delta_r.shape}, expected ({R},)")
    if not (0 <= cube.seed < 2**64 and cube.seed == int(cube.seed)):
        raise ValueError(f"seed={cube.seed} must be a whole number in [0, 2**64) to fit the datacube seed field")
    # payload order: channel, then second spatial index, then first
    payload = cube.samples.T.reshape(R, n1, n2).transpose(0, 2, 1)
    seed = np.array([cube.seed], dtype=np.uint64)
    header = (cube.x1_nodes.size, cube.x2_nodes.size, R)
    _write_binary(path, b"PNKD", "datacube", header, cube.x1_nodes, cube.x2_nodes, cube.lambda_obs, payload, cube.delta_r, seed)


def read_datacube(path) -> DataCube:
    """Read a PNKD file back into a :class:`DataCube`.

    Raises ``ValueError`` for a wrong magic or version, for x1 or x2
    nodes that are not at least two, finite and strictly increasing
    (naming the axis), and for a file cut before the end of its seed.
    """
    with _open_binary(path, b"PNKD", 3, "datacube") as ((Nx1, Nx2, R), read):
        x1_nodes = _validated_nodes(read(Nx1), "datacube x1")
        x2_nodes = _validated_nodes(read(Nx2), "datacube x2")
        lambda_obs = read(R)
        n1, n2 = Nx1 - 1, Nx2 - 1
        payload = read(R * n1 * n2)
        delta_r = read(R)
        seed = int(read(1, "<u8")[0])
    samples = payload.reshape(R, n2, n1).transpose(0, 2, 1).reshape(R, n1 * n2).T
    return DataCube(
        x1_nodes=x1_nodes,
        x2_nodes=x2_nodes,
        lambda_obs=lambda_obs,
        samples=np.ascontiguousarray(samples),
        delta_r=delta_r,
        seed=seed,
    )
