"""Unit system and physical constants.

Frozen reference values below were computed independently from the SI
seed constants (exact by definition in the 2019 SI) and cross-checked
against published CODATA tables; they are regression anchors, not
tunable parameters.
"""

import pytest

from spinscan import CONSTANTS


def test_planck_constant_uev_per_ghz():
    # h = 6.62607015e-34 J s expressed in ueV / GHz.
    assert CONSTANTS.h_planck == pytest.approx(4.135667696923859, rel=1e-12)


def test_bohr_magneton_uev_per_tesla():
    # mu_B = 9.2740100783e-24 J/T expressed in ueV / T.
    assert CONSTANTS.mu_b == pytest.approx(57.88381806035002, rel=1e-12)


def test_zero_field_resonance_frequency():
    # D = 14.4 ueV maps to 3.4819 GHz, the zero-field probe resonance.
    f = 14.4 / CONSTANTS.h_planck
    assert f == pytest.approx(3.481904508602282, rel=1e-12)


def test_stray_prefactor_per_bohr_magneton():
    # (mu0 / 4 pi) mu_B in T A^3: field of one mu_B moment at 1 A.
    assert CONSTANTS.stray_prefactor_per_mu_b == pytest.approx(
        0.9274010083348547, rel=1e-12
    )
    # g = 2 convention doubles it.
    assert CONSTANTS.mu0_over_4pi_moment == pytest.approx(
        1.8548020166697095, rel=1e-12
    )


def test_dipole_energy_prefactor():
    # (mu0 / 4 pi) mu_B^2 in ueV A^3.
    assert CONSTANTS.dipole_energy_prefactor == pytest.approx(
        53.681511235439885, rel=1e-12
    )


def test_atomic_scale_constants():
    assert CONSTANTS.rydberg == pytest.approx(13.605693122994, rel=1e-12)
    assert CONSTANTS.hartree == pytest.approx(2 * 13.605693122994, rel=1e-12)
    assert CONSTANTS.bohr_radius == pytest.approx(0.529177210903, rel=1e-12)


def test_default_g_factor():
    assert CONSTANTS.g_e_default == pytest.approx(2.0023, abs=1e-12)


def test_constants_frozen():
    with pytest.raises(Exception):
        CONSTANTS.h_planck = 1.0
