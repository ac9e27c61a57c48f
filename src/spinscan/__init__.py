"""Scanning spin-defect magnetometry simulator.

Simulates the full measurement chain of an all-optical Angstrom-scale
magnetic imaging protocol: a spin-1 probe defect raster-scanned over a
classical sample spin texture, coupled through dipolar stray fields and
a distance-dependent exchange interaction; synthetic photoluminescence
readout with Lorentzian fitting; and regularized linear inversion of
resonance maps back to per-site moments.
"""

from .constants import CONSTANTS
from .fileio import TextureParseError, load_texture, save_texture
from .reconstruct import (
    ConditioningReport,
    ForwardOperator,
    ReconstructionResult,
    build_forward,
    conditioning_report,
    lcurve,
    solve_tikhonov,
)
from .scan import (
    Grid,
    IsoScanMap,
    PairModeResult,
    ResonanceMap,
    ScanConfig,
    SweepCurve,
    distance_sweep,
    effective_fields_at,
    pair_mode_resonance,
    probe_hamiltonian_at,
    scan_constant_height,
    scan_iso_frequency,
)
from .spectrum import (
    FitResult,
    PeakFit,
    Spectrum,
    SpectrumConfig,
    fit_lorentzians,
    measure_map,
    synthesize,
)
from .spincore import (
    EigenDecomposition,
    ProbeSpec,
    ResonancePair,
    SpinOperatorSet,
    eigensolve,
    exchange_constant,
    exchange_pair_hamiltonian,
    probe_resonances,
    spin_operators,
    zeeman_hamiltonian,
    zfs_hamiltonian,
)
from .texture import Lattice, SampleSite, SpinTexture, apply_pattern, build_lattice

__version__ = "0.1.0"
