"""Spin operators, Hamiltonian builders, and resonance extraction.

Frozen numbers were produced by independent closed-form evaluation
(ladder-operator matrix elements, two-level perturbation theory, the
exchange asymptotic formula evaluated with numpy on separate scripts)
and serve as regression anchors.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinscan import (
    CONSTANTS,
    ProbeSpec,
    ScanConfig,
    SpinTexture,
    eigensolve,
    exchange_constant,
    exchange_pair_hamiltonian,
    probe_resonances,
    spin_operators,
    zeeman_hamiltonian,
    zfs_hamiltonian,
)
from spinscan.scan import _batch_effective_fields, _batch_hamiltonians
from spinscan.spincore import _batch_resonances, _field_resonances

D_UEV = 14.4
F_ZERO_FIELD = 3.481904508602282  # D / h in GHz


# ---------------------------------------------------------------- operators


def test_spin_half_matrices():
    ops = spin_operators(0.5)
    assert ops.dim == 2
    assert np.allclose(ops.sz, [[0.5, 0], [0, -0.5]])
    assert np.allclose(ops.sx, [[0, 0.5], [0.5, 0]])
    assert np.allclose(ops.sy, [[0, -0.5j], [0.5j, 0]])


def test_spin_one_matrices():
    ops = spin_operators(1.0)
    r2 = 1 / np.sqrt(2)
    assert np.allclose(ops.sz, np.diag([1.0, 0.0, -1.0]))
    assert np.allclose(ops.sx, [[0, r2, 0], [r2, 0, r2], [0, r2, 0]])


def test_spin_operators_reject_bad_s():
    with pytest.raises(ValueError):
        spin_operators(0.7)
    with pytest.raises(ValueError):
        spin_operators(0.0)


@settings(deadline=None)
@given(st.sampled_from([0.5, 1.0, 1.5, 2.0]))
def test_su2_algebra_and_casimir(s):
    ops = spin_operators(s)
    # [Sx, Sy] = i Sz and cyclic permutations, elementwise to 1e-12.
    for a, b, c in [(ops.sx, ops.sy, ops.sz),
                    (ops.sy, ops.sz, ops.sx),
                    (ops.sz, ops.sx, ops.sy)]:
        comm = a @ b - b @ a
        assert np.max(np.abs(comm - 1j * c)) < 1e-12
    casimir = ops.sx @ ops.sx + ops.sy @ ops.sy + ops.sz @ ops.sz
    assert np.max(np.abs(casimir - s * (s + 1) * np.eye(ops.dim))) < 1e-12


def test_hermiticity():
    ops = spin_operators(1.5)
    for m in (ops.sx, ops.sy, ops.sz):
        assert np.max(np.abs(m - m.conj().T)) < 1e-15


# ------------------------------------------------------------- hamiltonians


def test_zfs_eigenvalues():
    # D (Sz^2 - S(S+1)/3) for spin 1: eigenvalues -2D/3, D/3, D/3.
    h = zfs_hamiltonian(ProbeSpec(d_zfs=D_UEV))
    vals = np.sort(np.linalg.eigvalsh(h))
    assert np.allclose(vals, [-2 * D_UEV / 3, D_UEV / 3, D_UEV / 3], atol=1e-12)
    assert abs(np.trace(h)) < 1e-12


def test_zeeman_linearity(rng):
    ops = spin_operators(1.0)
    b1 = rng.normal(size=3)
    b2 = rng.normal(size=3)
    h12 = zeeman_hamiltonian(2.0, 0.3 * b1 + 1.7 * b2, ops)
    h = 0.3 * zeeman_hamiltonian(2.0, b1, ops) + 1.7 * zeeman_hamiltonian(2.0, b2, ops)
    assert np.max(np.abs(h12 - h)) < 1e-12


def test_zeeman_axial_scale():
    # g mu_B Bz Sz: the m = +1 diagonal element is g mu_B Bz in ueV.
    ops = spin_operators(1.0)
    h = zeeman_hamiltonian(2.0, (0.0, 0.0, 1.0), ops)
    assert h[0, 0] == pytest.approx(2.0 * CONSTANTS.mu_b, rel=1e-12)


def test_exchange_pair_spin_half_multiplet():
    # J S1.S2 on two spin-1/2: J/4 triplet (x3), -3J/4 singlet.
    o = spin_operators(0.5)
    h = exchange_pair_hamiltonian(8.0, o, o)
    vals = np.sort(np.linalg.eigvalsh(h))
    assert np.allclose(vals, [-6.0, 2.0, 2.0, 2.0], atol=1e-12)


# ------------------------------------------------------------ exchange J(r)


def test_exchange_frozen_values():
    # J(r) = 1.641 E0 (r/aB)^2.5 exp(-2 r/aB), E0 = Rydberg by default.
    assert exchange_constant(3.0) == pytest.approx(20344.34852, rel=1e-8)
    assert exchange_constant(4.0) == pytest.approx(953.663964, rel=1e-8)
    assert exchange_constant(5.0) == pytest.approx(38.04303426, rel=1e-8)
    assert exchange_constant(6.0) == pytest.approx(1.370354742, rel=1e-8)
    assert exchange_constant(2.0) == pytest.approx(323303.8647, rel=1e-8)
    assert exchange_constant(np.sqrt(34.0)) == pytest.approx(2.417009099, rel=1e-8)


def test_exchange_hartree_prefactor_doubles():
    assert exchange_constant(3.0, prefactor="hartree") == pytest.approx(
        40688.69705, rel=1e-8
    )
    assert exchange_constant(3.0, prefactor="hartree") == pytest.approx(
        2 * exchange_constant(3.0, prefactor="rydberg"), rel=1e-12
    )


def test_exchange_array_input():
    r = np.array([3.0, 4.0, 5.0])
    j = exchange_constant(r)
    assert j.shape == (3,)
    assert np.allclose(j, [20344.34852, 953.663964, 38.04303426], rtol=1e-8)


def test_exchange_asymptotic_decay_constant():
    # At large r the decade ratio J(r + aB/2) / J(r) approaches 1/e.
    r = 50.0
    ratio = exchange_constant(r + CONSTANTS.bohr_radius / 2) / exchange_constant(r)
    assert ratio == pytest.approx(np.exp(-1.0), rel=0.02)


def test_exchange_warns_below_validity():
    with pytest.warns(UserWarning):
        exchange_constant(1.5)


def test_exchange_rejects_nonpositive():
    with pytest.raises(ValueError):
        exchange_constant(0.0)
    with pytest.raises(ValueError):
        exchange_constant(np.array([3.0, -1.0]))


def test_exchange_rejects_unknown_prefactor():
    with pytest.raises(ValueError):
        exchange_constant(3.0, prefactor="bogus")


# -------------------------------------------------------------- stray field


def stray_field(r_vec, spin_vec, g):
    """Stray field (tesla) at r_vec of a classical spin at the origin: the
    scan's field sum over a one-site texture."""
    spin = np.asarray(spin_vec, dtype=float)
    mag = np.linalg.norm(spin)
    tex = SpinTexture([[0.0, 0.0, 0.0]], [spin / mag], mag, g)
    b_stray, _, _ = _batch_effective_fields(np.array([r_vec], dtype=float), tex, "rydberg")
    return b_stray[0]


def test_stray_field_on_axis():
    # Spin 1/2 along +z seen from 10 A above: anti-parallel field of
    # magnitude (mu0/4pi) g mu_B * 2 * S / r^3 = 1.8548 mT * 0.5 * 2 / 1000.
    b = stray_field((0.0, 0.0, 10.0), (0.0, 0.0, 0.5), g=2.0)
    assert b[0] == 0.0 and b[1] == 0.0
    assert b[2] == pytest.approx(-1.8548020166697095e-3, rel=1e-10)


def test_stray_field_in_plane():
    # Viewed side-on the field is parallel to the spin at half magnitude.
    b = stray_field((10.0, 0.0, 0.0), (0.0, 0.0, 0.5), g=2.0)
    assert b[2] == pytest.approx(0.5 * 1.8548020166697095e-3, rel=1e-10)


@settings(deadline=None)
@given(st.floats(2.0, 50.0), st.floats(0.1, 4.0))
def test_stray_field_inverse_cube(r, kappa):
    b1 = np.array(stray_field((0.0, 0.0, r), (0.0, 0.0, 0.5), g=2.0))
    b2 = np.array(stray_field((0.0, 0.0, kappa * r), (0.0, 0.0, 0.5), g=2.0))
    assert np.allclose(b2, b1 / kappa**3, rtol=1e-9, atol=1e-30)


def test_stray_field_spin_flip_antisymmetry(rng):
    r_vec = rng.normal(size=3) * 5 + np.array([0, 0, 12.0])
    s_vec = rng.normal(size=3)
    b_plus = np.array(stray_field(r_vec, s_vec, g=2.0))
    b_minus = np.array(stray_field(r_vec, -s_vec, g=2.0))
    assert np.allclose(b_plus, -b_minus, rtol=1e-12)


# ------------------------------------------------------------- eigensolving


def test_eigensolve_invariants(rng):
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    h = (a + a.conj().T) / 2
    dec = eigensolve(h)
    assert np.all(np.diff(dec.eigenvalues) >= -1e-12)
    resid = h @ dec.eigenvectors - dec.eigenvectors * dec.eigenvalues
    assert np.max(np.abs(resid)) < 1e-10
    gram = dec.eigenvectors.conj().T @ dec.eigenvectors
    assert np.max(np.abs(gram - np.eye(5))) < 1e-10


def test_eigensolve_rejects_non_hermitian():
    with pytest.raises(ValueError):
        eigensolve(np.array([[0.0, 1.0], [0.0, 0.0]]))


# --------------------------------------------------------------- resonances


def test_zero_field_resonances():
    h = zfs_hamiltonian(ProbeSpec(d_zfs=D_UEV))
    pair = probe_resonances(h)
    assert pair.f_minus == pytest.approx(F_ZERO_FIELD, abs=1e-6)
    assert pair.f_plus == pytest.approx(F_ZERO_FIELD, abs=1e-6)


def test_axial_field_closed_form(rng):
    # With B = Bz zhat the levels are D(m^2 - 2/3) + g mu_B Bz m, so the
    # two transitions from m = 0 are |D +/- g mu_B Bz| / h exactly.
    probe = ProbeSpec(d_zfs=D_UEV, g=2.0023)
    ops = spin_operators(1.0)
    for _ in range(100):
        bz = rng.uniform(-2.0, 2.0)
        h = zfs_hamiltonian(probe) + zeeman_hamiltonian(probe.g, (0, 0, bz), ops)
        pair = probe_resonances(h)
        e_z = probe.g * CONSTANTS.mu_b * bz
        expect = np.sort(np.abs([D_UEV - e_z, D_UEV + e_z])) / CONSTANTS.h_planck
        assert pair.f_minus == pytest.approx(expect[0], rel=1e-10)
        assert pair.f_plus == pytest.approx(expect[1], rel=1e-10)


def test_transverse_field_perturbation_theory():
    # Second-order perturbation theory for H = D(Sz^2 - 2/3) + eps Sx:
    # f_plus = (D + 2 eps^2 / D) / h, f_minus = (D + eps^2 / D) / h.
    probe = ProbeSpec(d_zfs=D_UEV, g=2.0)
    ops = spin_operators(1.0)
    eps = 1e-3 * D_UEV
    bx = eps / (probe.g * CONSTANTS.mu_b)
    h = zfs_hamiltonian(probe) + zeeman_hamiltonian(probe.g, (bx, 0, 0), ops)
    pair = probe_resonances(h)
    f_plus_pt = (D_UEV + 2 * eps**2 / D_UEV) / CONSTANTS.h_planck
    f_minus_pt = (D_UEV + eps**2 / D_UEV) / CONSTANTS.h_planck
    assert pair.f_plus == pytest.approx(f_plus_pt, abs=1e-9)
    assert pair.f_minus == pytest.approx(f_minus_pt, abs=1e-9)
    split_pt = (eps**2 / D_UEV) / CONSTANTS.h_planck
    assert pair.f_plus - pair.f_minus == pytest.approx(split_pt, rel=1e-2)


def test_resonances_ordering_under_random_fields(rng):
    probe = ProbeSpec(d_zfs=D_UEV)
    ops = spin_operators(1.0)
    for _ in range(50):
        b = rng.normal(size=3) * 0.5
        h = zfs_hamiltonian(probe) + zeeman_hamiltonian(probe.g, b, ops)
        pair = probe_resonances(h)
        assert 0.0 <= pair.f_minus <= pair.f_plus


def test_probe_spec_validation():
    with pytest.raises(ValueError):
        ProbeSpec(d_zfs=0.0)
    with pytest.raises(ValueError):
        ProbeSpec(d_zfs=-1.0)


# --------------------------------------------------- closed-form resonances


def _eigh_resonances(e_vec, d_zfs):
    """eigh's (f_minus, f_plus) of D (Sz^2 - 2/3) + e . S, and the scale
    max(f_plus, D/h) the closed form is held to."""
    cfg = ScanConfig(mode="exchange", probe=ProbeSpec(d_zfs=d_zfs))
    f_minus, f_plus = _batch_resonances(_batch_hamiltonians(None, e_vec, cfg))
    return f_minus, f_plus, np.maximum(f_plus, d_zfs / CONSTANTS.h_planck)


def _energy_regimes(d_zfs):
    """Energy vectors (ueV) by regime, for a probe of splitting d_zfs."""
    rng = np.random.default_rng(7)
    mags = np.geomspace(1e-12, 1e4, 49)
    zero = np.zeros_like(mags)
    phi = rng.uniform(0.0, 2.0 * np.pi, mags.size)
    dirs = rng.normal(size=(mags.size, 3))
    # |e_z| at D (1 + offset) puts m = 0 on one of m = +-1.  A transverse
    # field of 1e-13 D or less splits the pair by less than the tolerance;
    # 1e-6 D or more mixes the pair enough for rounding to resolve its labels.
    offset, perp = np.meshgrid(
        [0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6, 1e-3, -1e-3],
        [0.0, 1e-300, 1e-20, 1e-13, 1e-6, 1e-4, 1e-2])
    e_z = d_zfs * (1.0 + offset.ravel()) * rng.choice([-1.0, 1.0], offset.size)
    e_perp = d_zfs * perp.ravel()
    azimuth = rng.uniform(0.0, 2.0 * np.pi, offset.size)
    return {
        "zero": np.zeros((1, 3)),
        "axial": np.column_stack([zero, zero, mags * rng.choice([-1.0, 1.0], mags.size)]),
        "transverse": np.column_stack([mags * np.cos(phi), mags * np.sin(phi), zero]),
        "random": mags[:, None] * dirs / np.linalg.norm(dirs, axis=1)[:, None],
        "crossing": np.column_stack(
            [e_perp * np.cos(azimuth), e_perp * np.sin(azimuth), e_z]),
    }


@pytest.mark.parametrize("regime", ["zero", "axial", "transverse", "random", "crossing"])
@pytest.mark.parametrize("d_zfs", [D_UEV, 0.1, 0.3, 1e4])
def test_closed_form_resonances_match_eigh(regime, d_zfs):
    # |e| from 1e-12 to 1e4 ueV, on and off the axis and at the m = 0 /
    # m = +-1 crossing.  At D = 0.1 and 0.3 ueV and |e_z| = D, the closed
    # form evaluated in ueV, not in units of the largest energy, loses
    # the pair's weights to rounding and gives f- = f+.
    e_vec = _energy_regimes(d_zfs)[regime]
    want_minus, want_plus, scale = _eigh_resonances(e_vec, d_zfs)
    got_minus, got_plus = _field_resonances(e_vec, d_zfs)
    assert np.max(np.abs(got_minus - want_minus) / scale) <= 1e-12
    assert np.max(np.abs(got_plus - want_plus) / scale) <= 1e-12


def test_closed_form_resonances_span_the_float_range():
    # Each pixel is scaled by its largest energy, so no square or cube of
    # a field or a splitting near the ends of the float range overflows.
    e_vec = np.array([[1e300, 0.0, 0.0], [0.0, 0.0, -1e300], [1e-300, 1e-300, 1e-300],
                      [0.0, 0.0, 0.0], [3e150, -2e150, 1e150]])
    for d_zfs in (1e-300, D_UEV, 1e300):
        want_minus, want_plus, scale = _eigh_resonances(e_vec, d_zfs)
        got_minus, got_plus = _field_resonances(e_vec, d_zfs)
        assert np.max(np.abs(got_minus - want_minus) / scale) <= 1e-12
        assert np.max(np.abs(got_plus - want_plus) / scale) <= 1e-12


def test_exact_crossing_labels_differ_only_by_the_pair_splitting():
    # At |e_z| = D exactly, a transverse field of 1e-12 to 1e-8 D mixes
    # m = 0 and m = -1 almost equally: their m = 0 weights differ by about
    # e_perp / D, below what rounding resolves (about eps D / e_perp), in
    # eigh and in the closed form alike.  Either may take either member of
    # the pair as the reference, and f+ then moves by the splitting f-.
    e_perp = D_UEV * np.geomspace(1e-12, 1e-8, 41)
    e_vec = np.column_stack([e_perp, np.zeros_like(e_perp), np.full_like(e_perp, D_UEV)])
    want_minus, want_plus, scale = _eigh_resonances(e_vec, D_UEV)
    got_minus, got_plus = _field_resonances(e_vec, D_UEV)
    assert np.max(np.abs(got_minus - want_minus) / scale) <= 1e-12
    assert np.all(np.abs(got_plus - want_plus) <= want_minus + 1e-12 * scale)
