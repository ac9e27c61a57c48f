"""Physical constants shared by all modules.

Internal unit system: lengths in angstrom, energies in micro-eV, magnetic
fields in tesla, frequencies in GHz.  In these units every quantity the
simulator handles is O(0.1)..O(1e7), which keeps the exponential tail of
the exchange coupling well away from float underflow.

Constants are CODATA-2018 values, hard-coded (no runtime lookup).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Constants", "CONSTANTS"]

# CODATA-2018 SI seeds the internal-unit table is derived from.
_E_CHARGE_C = 1.602176634e-19       # elementary charge, C (exact)
_H_PLANCK_JS = 6.62607015e-34       # Planck constant, J s (exact)
_MU_B_J_PER_T = 9.2740100783e-24    # Bohr magneton, J/T
_MU0_SI = 1.25663706212e-6          # vacuum permeability, N/A^2


@dataclass(frozen=True)
class Constants:
    """CODATA-2018 constants expressed in the internal unit system."""

    # Planck constant, ueV per GHz: energy / h_planck is a frequency.
    h_planck: float = _H_PLANCK_JS / _E_CHARGE_C * 1e15

    # Bohr magneton, ueV per tesla.
    mu_b: float = _MU_B_J_PER_T / _E_CHARGE_C * 1e6

    # Default electron g-factor; every operation still takes g explicitly.
    g_e_default: float = 2.0023

    # Stray-field prefactor for a g = 2 moment of one Bohr magneton:
    # 2 * mu_B * (mu0 / 4 pi), expressed in T * A^3 (1 m^3 = 1e30 A^3).
    mu0_over_4pi_moment: float = (
        2.0 * _MU_B_J_PER_T * (_MU0_SI / (4.0 * math.pi)) * 1e30
    )

    # Rydberg energy (e^2 / 2 a_B in Gaussian units), eV.
    rydberg: float = 13.605693122994

    # Hartree energy (e^2 / a_B), eV; exactly twice the Rydberg.
    hartree: float = 2.0 * 13.605693122994

    # Bohr radius, angstrom.
    bohr_radius: float = 0.529177210903

    @property
    def stray_prefactor_per_mu_b(self) -> float:
        """(mu0 / 4 pi) * mu_B in T * A^3, i.e. per unit g and unit moment."""
        return self.mu0_over_4pi_moment / 2.0

    @property
    def dipole_energy_prefactor(self) -> float:
        """(mu0 / 4 pi) * mu_B^2 in ueV * A^3 (pair coupling per g1 g2)."""
        return self.stray_prefactor_per_mu_b * self.mu_b


CONSTANTS = Constants()
