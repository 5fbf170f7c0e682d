import dataclasses

import numpy as np
import pytest

import pnkr.grid_basis
from pnkr.grid_basis import AxisGrid, geometric_axis, make_basis, uniform_axis
from pnkr.presets import preset_basis, preset_template
from pnkr.templates import (
    C_LIGHT,
    build_template_grid,
    kernel_eval,
    kernel_theta_integrals,
    read_template_grid,
    synth_continuum,
    synth_ssp,
    write_template_grid,
)

from _oracles import theta_full_integral, theta_integral_dense


def paper_population_nodes():
    z = np.linspace(-2.66, 0.36, 7)
    t = np.geomspace(0.015, 14.25, 19)
    return z, t


def tiny_template():
    zg = uniform_axis(-2.66, 0.36, 3)
    tg = uniform_axis(0.015, 14.25, 3)
    return build_template_grid(480.0, 570.0, 8, 1000.0, zg.nodes, tg.nodes), zg, tg


# -- synthetic library -------------------------------------------------------


def test_synth_ssp_deterministic_and_positive():
    lam = np.linspace(470.0, 580.0, 1201)
    z, t = paper_population_nodes()
    S1 = synth_ssp(lam[:, None, None], z[None, :, None], t[None, None, :])
    S2 = synth_ssp(lam[:, None, None], z[None, :, None], t[None, None, :])
    np.testing.assert_array_equal(S1, S2)
    assert S1.min() > 0.0


def test_synth_ssp_line_depths_monotone_in_z():
    # equivalent width of the absorption features grows with metallicity
    lam = np.linspace(480.0, 570.0, 4001)
    zs = np.linspace(-2.66, 0.36, 9)
    t = 3.0
    ews = []
    for z in zs:
        S = synth_ssp(lam, z, t)
        C = synth_continuum(lam, t)
        ews.append(np.trapezoid(1.0 - S / C, lam))
    diffs = np.diff(ews)
    assert np.all(diffs > 0)


def test_synth_ssp_range_errors():
    with pytest.raises(ValueError):
        synth_ssp(500.0, -5.0, 1.0)
    with pytest.raises(ValueError):
        synth_ssp(500.0, 0.0, -1.0)
    with pytest.raises(ValueError):
        synth_continuum(-1.0, 1.0)


# -- lattice construction ----------------------------------------------------


def test_extended_lattice_numbers_at_survey_scale():
    z, t = paper_population_nodes()
    tg = build_template_grid(480.0, 570.0, 687, 1000.0, z, t)
    assert tg.R == 687
    assert tg.obs_start == 14
    assert tg.R_ext == 687 + 28
    assert tg.S.shape == (715, 7, 19)
    # log-uniform lattice
    ratios = np.diff(np.log(tg.lambda_nodes.nodes))
    np.testing.assert_allclose(ratios, tg.dln, rtol=0, atol=5e-13)
    # observed slice spans the requested window
    assert tg.lambda_obs[0] == pytest.approx(480.0, rel=1e-12)
    assert tg.lambda_obs[-1] == pytest.approx(570.0, rel=1e-12)


def test_lattice_covers_all_velocities():
    tg, _, _ = tiny_template()
    lext = tg.lambda_nodes.nodes
    for v in (-1000.0, 1000.0):
        shifted = tg.lambda_obs / (1.0 + v / C_LIGHT)
        assert shifted.min() >= lext[0]
        assert shifted.max() <= lext[-1]


def test_build_template_grid_validation():
    z, t = paper_population_nodes()
    with pytest.raises(ValueError):
        build_template_grid(570.0, 480.0, 10, 100.0, z, t)
    with pytest.raises(ValueError):
        build_template_grid(480.0, 570.0, 1, 100.0, z, t)
    with pytest.raises(ValueError):
        build_template_grid(480.0, 570.0, 10, -5.0, z, t)
    with pytest.raises(ValueError):
        build_template_grid(480.0, 570.0, 10, 100.0, z[::-1], t)
    # non-finite nodes or window would give a table the template reader refuses
    with pytest.raises(ValueError, match="z nodes must be finite"):
        build_template_grid(480.0, 570.0, 10, 100.0, np.r_[z[:-1], np.nan], t)
    with pytest.raises(ValueError, match="t nodes must be finite"):
        build_template_grid(480.0, 570.0, 10, 100.0, z, np.r_[np.nan, t[1:]])
    with pytest.raises(ValueError, match="lambda_max < inf"):
        build_template_grid(480.0, np.inf, 10, 100.0, z, t)


# -- kernel evaluation -------------------------------------------------------


def test_kernel_eval_rest_frame_identity():
    tg, zg, tg_ax = tiny_template()
    sl = slice(tg.obs_start, tg.obs_start + tg.R)
    k = kernel_eval(tg, 0.0, tg.z_nodes[1], tg.t_nodes[2], tg.lambda_obs)
    np.testing.assert_allclose(k, tg.S[sl, 1, 2], rtol=1e-13)


def test_kernel_eval_shifted_node_identity():
    # lam = node_j * (1 + v/c) looks up exactly S[node_j] / (1 + v/c)
    tg, _, _ = tiny_template()
    v = 700.0
    fac = 1.0 + v / C_LIGHT
    j = tg.obs_start + 3
    val = kernel_eval(tg, v, tg.z_nodes[0], tg.t_nodes[1], np.array([tg.lambda_nodes.nodes[j] * fac]))
    assert val[0] == pytest.approx(tg.S[j, 0, 1] / fac, rel=1e-13)


def test_kernel_eval_bilinear_population_midpoint():
    tg, _, _ = tiny_template()
    zmid = 0.5 * (tg.z_nodes[0] + tg.z_nodes[1])
    tmid = 0.5 * (tg.t_nodes[1] + tg.t_nodes[2])
    lam = tg.lambda_obs[:4]
    got = kernel_eval(tg, 0.0, zmid, tmid, lam)
    sl = slice(tg.obs_start, tg.obs_start + 4)
    expected = 0.25 * (tg.S[sl, 0, 1] + tg.S[sl, 0, 2] + tg.S[sl, 1, 1] + tg.S[sl, 1, 2])
    np.testing.assert_allclose(got, expected, rtol=1e-13)


def test_kernel_eval_hard_range_errors():
    tg, _, _ = tiny_template()
    with pytest.raises(ValueError, match="extended template lattice"):
        kernel_eval(tg, 50000.0, 0.0, 1.0, tg.lambda_obs)
    with pytest.raises(ValueError, match="tabulated template rectangle"):
        kernel_eval(tg, 0.0, 5.0, 1.0, tg.lambda_obs[:1])
    with pytest.raises(ValueError, match="tabulated template rectangle"):
        kernel_eval(tg, 0.0, 0.0, 100.0, tg.lambda_obs[:1])


def test_doppler_energy_conservation():
    # trapezoid integral of the kernel over the observed window equals the
    # rest-frame integral of the template over the shifted window
    z, t = paper_population_nodes()
    tg = build_template_grid(480.0, 570.0, 1300, 1000.0, z, t)
    rng = np.random.default_rng(11)
    for _ in range(10):
        v = rng.uniform(-1000.0, 1000.0)
        zz = rng.uniform(z[0], z[-1])
        tt = rng.uniform(t[0], t[-1])
        k = kernel_eval(tg, v, zz, tt, tg.lambda_obs)
        lhs = np.trapezoid(k, tg.lambda_obs)
        fac = 1.0 + v / C_LIGHT
        lam_rest = np.geomspace(tg.lambda_obs[0] / fac, tg.lambda_obs[-1] / fac, 30001)
        rhs = np.trapezoid(kernel_eval(tg, 0.0, zz, tt, lam_rest), lam_rest)
        assert abs(lhs - rhs) <= 1e-4 * abs(rhs)


# -- kernel integrals --------------------------------------------------------


@pytest.mark.parametrize("s", [0, 1])
def test_theta_integrals_match_dense_oracle(s):
    tmpl, zg, tg_ax = tiny_template()
    vg = uniform_axis(-1000.0, 1000.0, 5)
    basis = make_basis(s, (uniform_axis(-1, 1, 4), uniform_axis(-1, 1, 4)), (vg, zg, tg_ax))
    Q = kernel_theta_integrals(tmpl, basis)
    assert Q.shape == (basis.L, tmpl.R)
    rng = np.random.default_rng(5)
    for _ in range(6):
        l = int(rng.integers(0, basis.L))
        r = int(rng.integers(0, tmpl.R))
        ref = theta_integral_dense(tmpl, basis, l, r, points=400)
        assert Q[l, r] == pytest.approx(ref, rel=2e-5, abs=1e-12)


@pytest.mark.parametrize("s", [0, 1])
def test_theta_integrals_partition_of_unity(s):
    # summing the table over basis functions recovers the full Theta
    # integral of the kernel for each channel
    tmpl, zg, tg_ax = tiny_template()
    vg = uniform_axis(-1000.0, 1000.0, 5)
    basis = make_basis(s, (uniform_axis(-1, 1, 4), uniform_axis(-1, 1, 4)), (vg, zg, tg_ax))
    Q = kernel_theta_integrals(tmpl, basis)
    rng = np.random.default_rng(17)
    for r in rng.choice(tmpl.R, size=5, replace=False):
        ref = theta_full_integral(tmpl, basis, int(r), points=3000)
        assert abs(Q[:, int(r)].sum() - ref) <= 1e-8 * abs(ref)


def test_theta_integrals_s0_is_cell_average_times_volume():
    tmpl, zg, tg_ax = tiny_template()
    vg = uniform_axis(-1000.0, 1000.0, 5)
    basis = make_basis(0, (uniform_axis(-1, 1, 4), uniform_axis(-1, 1, 4)), (vg, zg, tg_ax))
    Q = kernel_theta_integrals(tmpl, basis)
    # cell (1, 0, 1), channel 2: compare against a flat cube average
    nzc, ntc = zg.n_cells, tg_ax.n_cells
    l = (1 * nzc + 0) * ntc + 1
    vol = vg.widths[1] * zg.widths[0] * tg_ax.widths[1]
    vq = np.linspace(vg.nodes[1], vg.nodes[2], 1200)
    zq = np.linspace(zg.nodes[0], zg.nodes[1], 80)
    tq = np.linspace(tg_ax.nodes[1], tg_ax.nodes[2], 80)
    from _oracles import kernel_on_grid

    K = kernel_on_grid(tmpl, vq, zq, tq, tmpl.lambda_obs[2])
    avg = np.trapezoid(np.trapezoid(np.trapezoid(K, tq, axis=2), zq, axis=1), vq, axis=0) / vol
    assert Q[l, 2] == pytest.approx(avg * vol, rel=5e-5)


def test_theta_integrals_geometric_age_axis():
    # non-uniform age spacing goes through the same machinery
    zg = uniform_axis(-2.66, 0.36, 3)
    tg_ax = geometric_axis(0.015, 14.25, 4)
    tmpl = build_template_grid(480.0, 570.0, 12, 800.0, zg.nodes, tg_ax.nodes)
    vg = uniform_axis(-800.0, 800.0, 4)
    basis = make_basis(1, (uniform_axis(-1, 1, 3), uniform_axis(-1, 1, 3)), (vg, zg, tg_ax))
    Q = kernel_theta_integrals(tmpl, basis)
    l, r = 7, 5
    ref = theta_integral_dense(tmpl, basis, l, r, points=400)
    assert Q[l, r] == pytest.approx(ref, rel=2e-5)


@pytest.mark.parametrize("s", [0, 1])
def test_theta_integrals_converged_against_eight_point_rule(s, monkeypatch):
    # the velocity integrand carries the non-polynomial Doppler factor; the
    # default rule must already agree with a much higher-order one
    tmpl = preset_template("tiny")
    basis = preset_basis("tiny", s)
    Q = kernel_theta_integrals(tmpl, basis)
    monkeypatch.setattr(pnkr.grid_basis, "_GAUSS_RULE", np.polynomial.legendre.leggauss(8))
    Q8 = kernel_theta_integrals(tmpl, basis)
    assert np.abs(Q - Q8).max() <= 1e-13 * np.abs(Q8).max()


# -- binary file round-trip --------------------------------------------------


def test_pnkt_round_trip(tmp_path):
    tg, _, _ = tiny_template()
    path = tmp_path / "templates.pnkt"
    write_template_grid(tg, path)
    back = read_template_grid(path)
    np.testing.assert_array_equal(back.S, tg.S)
    np.testing.assert_array_equal(back.lambda_nodes.nodes, tg.lambda_nodes.nodes)
    np.testing.assert_array_equal(back.z_nodes, tg.z_nodes)
    np.testing.assert_array_equal(back.t_nodes, tg.t_nodes)
    assert back.R == tg.R
    assert back.obs_start == tg.obs_start
    assert back.dln == tg.dln
    assert back.lambda_obs_range == tg.lambda_obs_range
    # byte-identical re-serialization
    path2 = tmp_path / "again.pnkt"
    write_template_grid(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_pnkt_layout(tmp_path):
    # the documented layout, built by hand: magic, the <u4 words version 1,
    # R_ext, nz, nt, R and obs_start, then <f8 dln, the observed range, the
    # lambda, z and t nodes and S in (lambda, z, t) order
    tg, _, _ = tiny_template()
    path = tmp_path / "templates.pnkt"
    write_template_grid(tg, path)
    header = np.array([1, tg.R_ext, tg.z_nodes.size, tg.t_nodes.size, tg.R, tg.obs_start], dtype="<u4")
    fields = (tg.dln, tg.lambda_obs_range, tg.lambda_nodes.nodes, tg.z_nodes, tg.t_nodes, tg.S)
    body = b"".join(np.asarray(field, dtype="<f8").tobytes() for field in fields)
    assert path.read_bytes() == b"PNKT" + header.tobytes() + body


def test_pnkt_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.pnkt"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        read_template_grid(path)


# one invalid field per case, and the start of the error that must name it
PNKT_BAD_FIELDS = {
    "lambda": (lambda tg: dataclasses.replace(tg, lambda_nodes=AxisGrid(tg.lambda_nodes.nodes[::-1])), "template file lambda nodes"),
    "z": (lambda tg: dataclasses.replace(tg, z_nodes=tg.z_nodes[[1, 0, *range(2, tg.z_nodes.size)]]), "template file z nodes"),
    "t": (lambda tg: dataclasses.replace(tg, t_nodes=np.where(tg.t_nodes > 5.0, np.nan, tg.t_nodes)), "template file t nodes"),
    "dln-zero": (lambda tg: dataclasses.replace(tg, dln=0.0), "template file dln"),
    "dln-nan": (lambda tg: dataclasses.replace(tg, dln=np.nan), "template file dln"),
    "obs_start": (lambda tg: dataclasses.replace(tg, obs_start=tg.R_ext - tg.R + 1), "template file obs_start"),
}


@pytest.mark.parametrize("corrupt,message", PNKT_BAD_FIELDS.values(), ids=PNKT_BAD_FIELDS.keys())
def test_pnkt_rejects_invalid_contents_naming_the_field(tmp_path, corrupt, message):
    # read unchecked, two swapped z nodes of the tiny preset give a finite Q 1.2% off
    tg, _, _ = tiny_template()
    path = tmp_path / "templates.pnkt"
    write_template_grid(corrupt(tg), path)
    with pytest.raises(ValueError, match=message):
        read_template_grid(path)


# bytes kept of a PNKT file: 4-byte magic, six 4-byte header words, dln,
# the two-value observed range, then lam_ext (8 bytes per node)
PNKT_CUTS = {"in-header": 10, "before-dln": 28, "in-obs-range": 40, "in-lam_ext": 76}


@pytest.mark.parametrize("keep", PNKT_CUTS.values(), ids=PNKT_CUTS.keys())
def test_pnkt_rejects_truncated_file(tmp_path, keep):
    tg, _, _ = tiny_template()
    path = tmp_path / "templates.pnkt"
    write_template_grid(tg, path)
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(ValueError, match="template file truncated"):
        read_template_grid(path)
