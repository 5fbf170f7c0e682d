"""Time pnkr sweeps in the paper_scale discrepancy-principle tail.

    python3 studies/paper_tail.py CACHE_DIR [SWEEPS]

Solves library paper_scale DP (s=1, beta=1, tau=1.2, 1% noise, seed 0 for
the noise and the sweep order) to sweep 400 once, and keeps u_k, u_km1
and k_R in CACHE_DIR/state.npz.  Every run then loads that state, times
SWEEPS further sweeps (default 8) through ``pnkr.solver.sweeps``, history
rows included, and prints the sweeps, updates and seconds.  The state is
only arrays, so checkouts of different versions can time the same tail:
run a copy of this file from inside each checkout with one CACHE_DIR.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from pnkr.forward import build_forward_system, synthesize_datacube  # noqa: E402
from pnkr.mock import add_noise, default_components, evaluate_ground_truth  # noqa: E402
from pnkr.presets import preset_basis, preset_template  # noqa: E402
from pnkr.solver import SolverConfig, SolverState, resolve_omega, sweeps  # noqa: E402
from pnkr.templates import kernel_theta_integrals  # noqa: E402

START = 400


def main(cache: str, count: str = "8") -> int:
    basis = preset_basis("paper_scale", 1, 1.0)
    system = build_forward_system(basis, kernel_theta_integrals(preset_template("paper_scale"), basis))
    noisy = add_noise(system, synthesize_datacube(system, evaluate_ground_truth(default_components(), basis)), 0.01, 0)
    config = SolverConfig(variant="pnkr", s=1, beta=1.0, tau=1.2, max_loops=START, seed=0)
    omega = resolve_omega(config, system)
    path = Path(cache) / "state.npz"
    if not path.exists():
        state = SolverState(np.zeros(system.N * system.L), np.zeros(system.N * system.L))
        for _ in sweeps(state, config, noisy, system, omega):
            pass
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, u_k=state.u_k, u_km1=state.u_km1, k_R=state.k_R)
    saved = np.load(path)
    state = SolverState(saved["u_k"].copy(), saved["u_km1"].copy(), int(saved["k_R"]))
    config.max_loops = state.k_R + int(count) - 1
    system.Psi_inv_G, system.Phi_inv_Q  # set-up products, outside the timing
    t0 = time.perf_counter()
    rows = list(sweeps(state, config, noisy, system, omega))
    seconds = time.perf_counter() - t0
    print(f"sweeps {len(rows)} from {int(saved['k_R'])}, updates {sum(row.updates for row in rows)}, seconds {seconds:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
