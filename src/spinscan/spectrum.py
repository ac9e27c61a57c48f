"""Optical readout emulation: synthetic spectra and Lorentzian fitting.

A spectrum is photoluminescence counts versus drive frequency.  On
resonance the counts dip by a Lorentzian contrast; off resonance they sit
at the baseline.  Counts are Poisson draws from the mean curve using a
counter-based generator keyed by (seed, point index), so any execution
order or parallel split reproduces the same spectrum bit for bit.

Fitting is a damped Gauss-Newton (Levenberg-Marquardt) iteration on the
mean model with an analytic Jacobian; no external optimizer is involved.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .scan import ResonanceMap
from .spincore import ResonancePair

__all__ = [
    "SpectrumConfig",
    "Spectrum",
    "PeakFit",
    "FitResult",
    "synthesize",
    "fit_lorentzians",
    "measure_map",
    "lorentzian_model",
]

_MASK64 = 0xFFFFFFFFFFFFFFFF

# Key offset separating the upper-branch window stream from the lower one
# when a pixel is measured as two disjoint spectra (64-bit golden ratio).
_BRANCH_KEY_OFFSET = 0x9E3779B97F4A7C15

_STEP_TOL = 1e-9          # relative step size declaring convergence
_MAX_ITER = 200
_WINDOW_HALF_WIDTHS = 20.0  # measurement window half-width in linewidths

# Largest Poisson mean numpy's sampler accepts (its POISSON_LAM_MAX).
_MAX_BASELINE_COUNTS = float(
    np.iinfo(np.int64).max - 10.0 * np.sqrt(np.iinfo(np.int64).max)
)


@dataclass(frozen=True)
class SpectrumConfig:
    """Synthetic readout parameters.

    Frequencies in GHz.  baseline_counts is the mean photon number per
    point; noiseless=True returns the mean curve itself (the infinite
    baseline limit) instead of Poisson draws.
    """

    f_start: float = 2.5
    f_stop: float = 4.5
    f_step: float = 0.02
    linewidth_fwhm: float = 0.1
    contrast: float = 0.1
    baseline_counts: float = 1e5
    seed: int = 0
    noiseless: bool = False

    def __post_init__(self):
        if self.f_step <= 0:
            raise ValueError(f"f_step must be positive, got {self.f_step}")
        if self.f_stop <= self.f_start:
            raise ValueError("f_stop must exceed f_start")
        if not 0.0 <= self.contrast < 1.0:
            raise ValueError(f"contrast must be in [0, 1), got {self.contrast}")
        if not 0.0 < self.baseline_counts <= _MAX_BASELINE_COUNTS:
            raise ValueError(
                "baseline_counts must be positive, finite and at most "
                f"{_MAX_BASELINE_COUNTS:.6g} (numpy's Poisson limit), "
                f"got {self.baseline_counts}"
            )
        if self.linewidth_fwhm <= 0:
            raise ValueError("linewidth_fwhm must be positive")


@dataclass(frozen=True)
class Spectrum:
    """Frequencies (GHz, strictly increasing) and photon counts per point.

    Counts are integer-valued floats for noisy spectra and real-valued
    means in the noiseless mode.
    """

    frequencies: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        if self.frequencies.shape != self.counts.shape:
            raise ValueError("frequencies and counts must have equal length")
        if np.any(np.diff(self.frequencies) <= 0):
            raise ValueError("frequencies must be strictly increasing")
        if np.any(self.counts < 0):
            raise ValueError("counts must be non-negative")


@dataclass(frozen=True)
class PeakFit:
    """One fitted Lorentzian dip: center/fwhm in GHz, contrast, stderr."""

    center: float
    fwhm: float
    contrast: float
    center_stderr: float


@dataclass(frozen=True)
class FitResult:
    """Fit outcome: peaks sorted by center, residual norm, convergence."""

    peaks: tuple
    baseline: float
    residual_norm: float
    converged: bool
    n_iter: int


def _lorentzian(u: np.ndarray, gamma: float) -> np.ndarray:
    """Peak-normalized Lorentzian with half-width gamma at offset u."""
    return gamma**2 / (u**2 + gamma**2)


def _mean_curve(freqs: np.ndarray, centers, cfg: SpectrumConfig) -> np.ndarray:
    gamma = cfg.linewidth_fwhm / 2.0
    dip = np.zeros_like(freqs)
    for f0 in centers:
        dip += cfg.contrast * _lorentzian(freqs - f0, gamma)
    return cfg.baseline_counts * (1.0 - dip)


def _poisson_counts(means: np.ndarray, seed: int) -> np.ndarray:
    """Per-point Poisson draws keyed by (seed, point index)."""
    key_hi = np.uint64(seed & _MASK64)
    counts = np.empty_like(means)
    for i, mu in enumerate(means):
        gen = np.random.Generator(
            np.random.Philox(key=np.array([key_hi, np.uint64(i)], dtype=np.uint64))
        )
        counts[i] = gen.poisson(mu)
    return counts


def _synthesize_window(
    f_start: float, f_stop: float, centers, cfg: SpectrumConfig, seed: int
) -> Spectrum:
    n = int(np.floor((f_stop - f_start) / cfg.f_step + 1e-9)) + 1
    freqs = f_start + cfg.f_step * np.arange(n)
    means = _mean_curve(freqs, centers, cfg)
    counts = means if cfg.noiseless else _poisson_counts(means, seed)
    return Spectrum(frequencies=freqs, counts=counts)


def synthesize(resonances: ResonancePair, cfg: SpectrumConfig) -> Spectrum:
    """Synthesize the readout spectrum of a resonance pair over cfg's window."""
    centers = [resonances.f_minus, resonances.f_plus]
    inside = [c for c in centers if cfg.f_start <= c <= cfg.f_stop]
    if not inside and cfg.contrast > 0:
        warnings.warn(
            f"resonances ({centers[0]:.4g}, {centers[1]:.4g}) GHz lie outside "
            f"the sweep window [{cfg.f_start:g}, {cfg.f_stop:g}] GHz; "
            "the spectrum is flat",
            stacklevel=2,
        )
    return _synthesize_window(cfg.f_start, cfg.f_stop, centers, cfg, cfg.seed)


def lorentzian_model(theta: np.ndarray, freqs: np.ndarray):
    """Dip model and its analytic Jacobian.

    theta = [baseline, center_1, fwhm_1, contrast_1, center_2, ...].
    model = b (1 - sum_k c_k L(f - f0_k; w_k)) with L peak-normalized.
    Returns (model (n,), jacobian (n, len(theta))).
    """
    b = theta[0]
    n_peaks = (len(theta) - 1) // 3
    n = freqs.size
    dip = np.zeros(n)
    jac = np.zeros((n, len(theta)))
    for k in range(n_peaks):
        f0, w, c = theta[1 + 3 * k : 4 + 3 * k]
        gamma = abs(w) / 2.0
        u = freqs - f0
        denom = u**2 + gamma**2
        lor = gamma**2 / denom
        dip += c * lor
        w_sign = 1.0 if w >= 0 else -1.0
        jac[:, 1 + 3 * k] = -b * c * 2.0 * gamma**2 * u / denom**2
        jac[:, 2 + 3 * k] = -b * c * gamma * u**2 / denom**2 * w_sign
        jac[:, 3 + 3 * k] = -b * lor
    model = b * (1.0 - dip)
    jac[:, 0] = 1.0 - dip
    return model, jac


def _initial_guess(
    spec: Spectrum, n_peaks: int, guesses: Optional[Sequence] = None
) -> np.ndarray:
    """Parameter vector start: supplied peak guesses or deepest local minima."""
    counts = spec.counts.astype(float)
    freqs = spec.frequencies
    baseline = float(np.percentile(counts, 90))
    f_step = float(np.median(np.diff(freqs)))

    if guesses is not None:
        if len(guesses) != n_peaks:
            raise ValueError(
                f"need {n_peaks} initial peak guesses, got {len(guesses)}"
            )
        centers = [g[0] for g in guesses]
        widths = [g[1] for g in guesses]
        contrasts = [g[2] for g in guesses]
    else:
        # Moving-average smoothing suppresses shot noise before the
        # greedy deepest-minimum search.  Edge padding keeps the window
        # ends from reading as spurious minima.
        kernel = np.ones(5) / 5.0
        smooth = np.convolve(np.pad(counts, 2, mode="edge"), kernel, mode="valid")
        exclusion = max(3, counts.size // 30)
        order = np.argsort(smooth)
        picked: list[int] = []
        for idx in order:
            if all(abs(idx - p) > exclusion for p in picked):
                picked.append(int(idx))
            if len(picked) == n_peaks:
                break
        # Degenerate spectra (fewer minima than peaks): pad near the last.
        while len(picked) < n_peaks:
            picked.append(min(counts.size - 1, picked[-1] + exclusion))
        centers = [float(freqs[i]) for i in picked]
        width0 = max(5.0 * f_step, 2.0 * f_step)
        widths = [width0] * n_peaks
        contrasts = [
            float(np.clip(1.0 - smooth[i] / max(baseline, 1e-300), 1e-3, 0.99))
            for i in picked
        ]

    # Overlapping starts make the Jacobian rank-deficient; spread them by
    # one frequency step.
    centers = sorted(centers)
    for k in range(1, n_peaks):
        if centers[k] - centers[k - 1] < 0.5 * f_step:
            centers[k] = centers[k - 1] + f_step

    theta = [baseline]
    for f0, w, c in zip(centers, widths, contrasts):
        theta.extend([f0, w, c])
    return np.array(theta)


def fit_lorentzians(
    spec: Spectrum, n_peaks: int, initial_guess: Optional[Sequence] = None
) -> FitResult:
    """Least-squares fit of n_peaks Lorentzian dips plus a flat baseline.

    initial_guess, when given, is a sequence of (center, fwhm, contrast)
    triples.  Damped Gauss-Newton with an analytic Jacobian; convergence
    when the relative step falls below 1e-9, cap 200 iterations.
    Non-convergence is flagged and the best iterate returned.
    """
    if n_peaks < 1:
        raise ValueError(f"n_peaks must be >= 1, got {n_peaks}")
    if spec.counts.size < 5 * n_peaks:
        raise ValueError(
            f"spectrum has {spec.counts.size} points; "
            f"need at least {5 * n_peaks} for {n_peaks} peaks"
        )
    freqs = spec.frequencies
    counts = spec.counts.astype(float)
    theta = _initial_guess(spec, n_peaks, initial_guess)

    model, jac = lorentzian_model(theta, freqs)
    resid = model - counts
    cost = float(resid @ resid)
    lam = 1e-3
    converged = False
    n_iter = 0
    for n_iter in range(1, _MAX_ITER + 1):
        hess = jac.T @ jac
        grad = jac.T @ resid
        accepted = False
        for _ in range(25):
            damped = hess + lam * np.diag(np.maximum(np.diag(hess), 1e-12))
            try:
                step = np.linalg.solve(damped, -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = theta + step
            model_t, jac_t = lorentzian_model(trial, freqs)
            resid_t = model_t - counts
            cost_t = float(resid_t @ resid_t)
            if cost_t <= cost:
                accepted = True
                break
            lam *= 10.0
            if lam > 1e14:
                break
        if not accepted:
            break
        rel_step = np.linalg.norm(step) / max(np.linalg.norm(theta), 1e-300)
        theta, model, jac, resid, cost = trial, model_t, jac_t, resid_t, cost_t
        lam = max(lam * 0.3, 1e-12)
        if rel_step < _STEP_TOL:
            converged = True
            break

    # Standard errors from the quadratic model at the optimum.
    dof = max(counts.size - theta.size, 1)
    sigma2 = cost / dof
    try:
        cov = sigma2 * np.linalg.pinv(jac.T @ jac)
        center_err = [
            float(np.sqrt(max(cov[1 + 3 * k, 1 + 3 * k], 0.0)))
            for k in range(n_peaks)
        ]
    except np.linalg.LinAlgError:
        center_err = [float("nan")] * n_peaks

    peaks = sorted(
        (
            PeakFit(
                center=float(theta[1 + 3 * k]),
                fwhm=float(abs(theta[2 + 3 * k])),
                contrast=float(theta[3 + 3 * k]),
                center_stderr=center_err[k],
            )
            for k in range(n_peaks)
        ),
        key=lambda p: p.center,
    )
    if converged and not all(
        freqs[0] <= p.center <= freqs[-1] for p in peaks
    ):
        converged = False
    return FitResult(
        peaks=tuple(peaks),
        baseline=float(theta[0]),
        residual_norm=float(np.sqrt(cost)),
        converged=converged,
        n_iter=n_iter,
    )


def _measure_pixel(
    f_minus: float, f_plus: float, cfg: SpectrumConfig, seed: int
):
    """Measure one pixel's branch pair; returns (fitted pair, error)."""
    half = _WINDOW_HALF_WIDTHS * cfg.linewidth_fwhm
    sep = f_plus - f_minus
    truth = (f_minus, f_plus)
    guess = lambda c: (c, cfg.linewidth_fwhm, cfg.contrast)  # noqa: E731

    try:
        if sep <= cfg.f_step:
            # Branches unresolved at this step size: one merged dip.
            spec = _synthesize_window(
                f_minus - half, f_plus + half, truth, cfg, seed
            )
            fit = fit_lorentzians(spec, 1, [guess(0.5 * (f_minus + f_plus))])
            fitted = (fit.peaks[0].center, fit.peaks[0].center)
        elif sep <= 2.0 * half:
            # Both branches inside one window: joint two-dip fit.
            spec = _synthesize_window(
                f_minus - half, f_plus + half, truth, cfg, seed
            )
            fit = fit_lorentzians(spec, 2, [guess(f_minus), guess(f_plus)])
            fitted = (fit.peaks[0].center, fit.peaks[1].center)
        else:
            # Far-separated branches: one window per branch.  The other
            # branch's dip is negligible that far outside its window.
            centers = []
            for branch, f0 in enumerate(truth):
                branch_seed = (seed + branch * _BRANCH_KEY_OFFSET) & _MASK64
                spec = _synthesize_window(
                    f0 - half, f0 + half, truth, cfg, branch_seed
                )
                fit = fit_lorentzians(spec, 1, [guess(f0)])
                centers.append(fit.peaks[0].center)
            fitted = tuple(centers)
    except (ValueError, np.linalg.LinAlgError):
        return (np.nan, np.nan), np.inf

    error = max(abs(fitted[0] - f_minus), abs(fitted[1] - f_plus))
    return fitted, error


def measure_map(rmap: ResonanceMap, cfg: SpectrumConfig):
    """Emulate readout of every map pixel: synthesize, fit, compare.

    The window per pixel is auto-sized to +/- 20 linewidths around each
    true branch (joint when the branches are closer than that).  The
    per-pixel seed is cfg.seed XOR the row-major pixel index, making the
    result independent of any pixel execution order.  Returns the fitted
    map (field channels dropped) and an error map holding the worse
    branch deviation |fitted - true| per pixel; failed fits hold inf.
    """
    fitted_minus = np.empty_like(rmap.f_minus)
    fitted_plus = np.empty_like(rmap.f_plus)
    error = np.empty_like(rmap.f_minus)
    for iy in range(rmap.ny):
        for ix in range(rmap.nx):
            pixel_index = iy * rmap.nx + ix
            seed = (cfg.seed ^ pixel_index) & _MASK64
            (fm, fp), err = _measure_pixel(
                float(rmap.f_minus[iy, ix]), float(rmap.f_plus[iy, ix]), cfg, seed
            )
            fitted_minus[iy, ix] = fm
            fitted_plus[iy, ix] = fp
            error[iy, ix] = err
    fitted = ResonanceMap(
        x0=rmap.x0,
        y0=rmap.y0,
        step=rmap.step,
        nx=rmap.nx,
        ny=rmap.ny,
        height=rmap.height,
        mode=rmap.mode,
        f_minus=fitted_minus,
        f_plus=fitted_plus,
    )
    return fitted, error
