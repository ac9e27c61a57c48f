"""The independent reference against closed forms; imports no spinscan."""

import numpy as np

import reference as ref

D_UEV = 14.4
G_PROBE = 2.0023


def test_exchange_anchor_j_at_3_angstrom():
    # Acceptance criterion 1: J(3 A) = 20.34 meV.
    assert abs(ref.exchange_j(3.0) / 1000.0 - 20.34) < 0.005


def test_zero_field_resonances_at_d_over_h():
    h = ref.probe_hamiltonians(np.zeros((1, 3)), np.zeros((1, 3)))
    f_minus, f_plus = ref.resonances(h)
    f0 = D_UEV / ref.H_UEV_PER_GHZ
    assert abs(f_minus[0] - f0) < 1e-6 and abs(f_plus[0] - f0) < 1e-6


def test_axial_field_closed_form():
    # Acceptance criterion 3: |D +/- g mu_B Bz| / h in an axial field.
    bz = np.random.default_rng(3).uniform(-2.0, 2.0, 100)
    b = np.column_stack([np.zeros(100), np.zeros(100), bz])
    f_minus, f_plus = ref.resonances(ref.probe_hamiltonians(b, np.zeros((100, 3))))
    e_z = G_PROBE * ref.MU_B_UEV_PER_T * bz
    want = np.sort(np.abs([D_UEV - e_z, D_UEV + e_z]), axis=0) / ref.H_UEV_PER_GHZ
    assert np.max(np.abs(f_minus - want[0]) / want[0]) < 1e-10
    assert np.max(np.abs(f_plus - want[1]) / want[1]) < 1e-10


def test_stray_field_on_axis_and_in_plane():
    site, spin, r = np.zeros((1, 3)), np.array([[0.0, 0.0, 0.5]]), 7.0
    scale = 2.0 * ref.MU0_MU_B_OVER_4PI / r**3
    on_axis = ref.stray_field(np.array([[0.0, 0.0, r]]), site, spin, 2.0)[0]
    in_plane = ref.stray_field(np.array([[r, 0.0, 0.0]]), site, spin, 2.0)[0]
    np.testing.assert_allclose(on_axis, [0.0, 0.0, -2.0 * 0.5 * scale], rtol=1e-14)
    np.testing.assert_allclose(in_plane, [0.0, 0.0, 0.5 * scale], rtol=1e-14, atol=0)


def test_axial_kernel_gives_the_upper_branch_shift_of_a_ferromagnet():
    ii, jj = np.meshgrid(np.arange(3), np.arange(3))
    sites = np.column_stack([3.0 * ii.ravel(), 3.0 * jj.ravel(), np.zeros(9)])
    spins = np.tile([0.0, 0.0, 0.5], (9, 1))
    tips = np.array([[1.0, 2.0, 4.0], [3.0, 3.0, 5.0], [6.5, 0.2, 3.5]])
    _, f_plus = ref.scan_resonances(tips, sites, spins, 2.0, "exchange")
    shift = ref.axial_kernel(tips, sites, "exchange") @ spins[:, 2]
    np.testing.assert_allclose(f_plus - D_UEV / ref.H_UEV_PER_GHZ, shift, rtol=1e-12)


def test_shot_noise_sigma_matches_the_fisher_sum():
    baseline, contrast, fwhm, step = 1e5, 0.1, 0.1, 0.02
    u = step * np.arange(-100, 101)
    gamma = fwhm / 2.0
    mean = baseline * (1.0 - contrast * gamma**2 / (u**2 + gamma**2))
    d_mean = baseline * contrast * 2.0 * gamma**2 * u / (u**2 + gamma**2) ** 2
    sigma = 1.0 / np.sqrt(np.sum(d_mean**2 / mean))
    assert abs(ref.shot_noise_center_sigma(baseline, contrast, fwhm, step) / sigma - 1) < 0.1
