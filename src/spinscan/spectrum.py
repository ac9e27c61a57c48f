"""Optical readout emulation: synthetic spectra and Lorentzian fitting.

A spectrum is photoluminescence counts versus drive frequency.  On
resonance the counts dip by a Lorentzian contrast; off resonance they sit
at the baseline.  Counts are Poisson draws from the mean curve.  Each
measurement window draws all its points in one call from its own
counter-based Philox stream, keyed (seed, stream): stream = 2 pixel +
branch in a map (branch 0 for a merged or joint window) and 0 for
synthesize.  Any execution order or block split therefore reproduces
the same spectra bit for bit, and no two seeds share a stream.

Fitting is a damped Gauss-Newton (Levenberg-Marquardt) iteration on the
mean model with an analytic Jacobian; no external optimizer is involved.
One loop, _fit_block, fits stacked windows of equal length and peak
count, each window with its own damping and accept/reject.
fit_lorentzians is its one-window call; measure_map runs it in blocks
bounded by the scan's _BLOCK_BYTES.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .scan import _BLOCK_BYTES, ResonanceMap, _points
from .spincore import ResonancePair

__all__ = [
    "SpectrumConfig",
    "Spectrum",
    "PeakFit",
    "FitResult",
    "synthesize",
    "fit_lorentzians",
    "measure_map",
]

_MASK64 = 0xFFFFFFFFFFFFFFFF

# Levenberg-Marquardt schedule: damping starts at _LAM_START, grows 10x per
# failed try (up to _MAX_TRIES tries, or until a rejected step takes it
# past _LAM_MAX) and shrinks 0.3x per accepted step, floored at _LAM_MIN.
_STEP_TOL = 1e-9          # relative step size declaring convergence
_MAX_ITER = 200
_MAX_TRIES = 25
_LAM_START = 1e-3
_LAM_MAX = 1e14
_LAM_MIN = 1e-12
_WINDOW_HALF_WIDTHS = 20.0  # measurement window half-width in linewidths

# Largest readout window (points), checked before any window is built:
# a two-dip fit's working set, about eight (7, n) float64 Jacobians, then
# stays near 45 MB.
_MAX_WINDOW_POINTS = 100_000

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
        values = (self.f_start, self.f_stop, self.f_step, self.linewidth_fwhm)
        if not np.all(np.isfinite(values)):
            raise ValueError(
                "spectrum f_start, f_stop, f_step and linewidth_fwhm must be "
                f"finite, got {values}"
            )
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
        # This window, or the widest measure_map window: a joint window of
        # two branches 2 half-widths apart.
        span = max(self.f_stop - self.f_start,
                   4.0 * _WINDOW_HALF_WIDTHS * self.linewidth_fwhm)
        if span / self.f_step + 1 > _MAX_WINDOW_POINTS:
            raise ValueError(
                f"readout windows up to {span:g} GHz wide at f_step = "
                f"{self.f_step:g} GHz exceed the {_MAX_WINDOW_POINTS} point budget"
            )


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
    """Mean counts at freqs (..., n) with dips at centers (..., k)."""
    gamma = cfg.linewidth_fwhm / 2.0
    centers = np.asarray(centers, dtype=float)
    dip = np.zeros(np.broadcast_shapes(freqs.shape, centers.shape[:-1] + (1,)))
    for k in range(centers.shape[-1]):
        dip += cfg.contrast * _lorentzian(freqs - centers[..., k, None], gamma)
    return cfg.baseline_counts * (1.0 - dip)


def _poisson_counts(means: np.ndarray, seed: int, stream: int) -> np.ndarray:
    """One window's Poisson draws from the Philox stream keyed (seed, stream)."""
    key = np.array([seed & _MASK64, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).poisson(means).astype(float)


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
    n = int(_points(cfg.f_start, cfg.f_stop, cfg.f_step))
    freqs = cfg.f_start + cfg.f_step * np.arange(n)
    means = _mean_curve(freqs, centers, cfg)
    if np.any(means < 0):
        depth = 1.0 - means.min() / cfg.baseline_counts
        raise ValueError(
            f"the dips overlap to a summed contrast of {depth:.4g} > 1, giving "
            "negative mean counts; lower the contrast"
        )
    counts = means if cfg.noiseless else _poisson_counts(means, cfg.seed, 0)
    return Spectrum(frequencies=freqs, counts=counts)


def _batch_model(theta: np.ndarray, freqs: np.ndarray):
    """Dip model and its analytic Jacobian for stacked windows.

    theta (B, P) rows are [baseline, center_1, fwhm_1, contrast_1,
    center_2, ...] and freqs (B, n) the windows' points.  model =
    b (1 - sum_k c_k L(f - f0_k; w_k)) with L peak-normalized.  Returns
    (model (B, n), jacobian (B, P, n)); the points stay on the last axis,
    so sums over them are row-wise reductions.
    """
    b = theta[:, 0, None]
    n_peaks = (theta.shape[1] - 1) // 3
    dip = np.zeros(freqs.shape)
    jac = np.empty((theta.shape[0], theta.shape[1], freqs.shape[1]))
    for k in range(n_peaks):
        f0, w, c = (theta[:, j, None] for j in range(1 + 3 * k, 4 + 3 * k))
        gamma = np.abs(w) / 2.0
        u = freqs - f0
        denom = u**2 + gamma**2
        lor = gamma**2 / denom
        dip += c * lor
        w_sign = np.where(w >= 0, 1.0, -1.0)
        jac[:, 1 + 3 * k] = -b * c * 2.0 * gamma**2 * u / denom**2
        jac[:, 2 + 3 * k] = -b * c * gamma * u**2 / denom**2 * w_sign
        jac[:, 3 + 3 * k] = -b * lor
    jac[:, 0] = 1.0 - dip
    return b * (1.0 - dip), jac


def _initial_guess(
    spec: Spectrum, n_peaks: int, guesses: Optional[Sequence] = None
) -> np.ndarray:
    """Parameter vector start: supplied peak guesses or deepest local minima."""
    counts = spec.counts.astype(float)
    freqs = spec.frequencies

    if guesses is not None:
        if len(guesses) != n_peaks:
            raise ValueError(
                f"need {n_peaks} initial peak guesses, got {len(guesses)}"
            )
        centers = [g[0] for g in guesses]
        widths = [g[1] for g in guesses]
        contrasts = [g[2] for g in guesses]
    else:
        baseline = float(np.percentile(counts, 90))
        f_step = float(np.median(np.diff(freqs)))
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
        widths = [5.0 * f_step] * n_peaks
        contrasts = [
            float(np.clip(1.0 - smooth[i] / max(baseline, 1e-300), 1e-3, 0.99))
            for i in picked
        ]
    return _start_theta(counts, freqs, centers, widths, contrasts)


def _start_theta(counts, freqs, centers, widths, contrasts) -> np.ndarray:
    """Start vectors (..., 1 + 3k) of windows (..., n) from peak guesses.

    centers (..., k) are sorted; widths and contrasts broadcast against
    them.  The baseline starts at the 90th percentile of the counts.
    """
    f_step = np.median(np.diff(freqs, axis=-1), axis=-1)
    # Overlapping starts make the Jacobian rank-deficient; spread them by
    # one frequency step.
    centers = np.sort(np.asarray(centers, dtype=float), axis=-1)
    for k in range(1, centers.shape[-1]):
        close = centers[..., k] - centers[..., k - 1] < 0.5 * f_step
        centers[..., k] = np.where(
            close, centers[..., k - 1] + f_step, centers[..., k]
        )
    theta = np.empty(centers.shape[:-1] + (1 + 3 * centers.shape[-1],))
    theta[..., 0] = np.percentile(counts, 90, axis=-1)
    theta[..., 1::3] = centers
    theta[..., 2::3] = widths
    theta[..., 3::3] = contrasts
    return theta


def fit_lorentzians(
    spec: Spectrum, n_peaks: int, initial_guess: Optional[Sequence] = None
) -> FitResult:
    """Least-squares fit of n_peaks Lorentzian dips plus a flat baseline.

    initial_guess, when given, is a sequence of (center, fwhm, contrast)
    triples.  One window of _fit_block: convergence when the relative
    step falls below 1e-9, cap 200 iterations.  Non-convergence is
    flagged and the best iterate returned; standard errors come from
    the Gauss-Newton matrix at that iterate.
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
    theta, cost, hess, n_iter, converged = (
        a[0] for a in _fit_block(freqs[None], counts[None], theta[None])
    )

    # Standard errors from the quadratic model at the optimum.
    try:
        var = np.diag(cost / max(counts.size - theta.size, 1) * np.linalg.pinv(hess))
    except np.linalg.LinAlgError:
        var = np.full(theta.size, np.nan)
    stderr = np.sqrt(np.maximum(var[1::3], 0.0))
    peaks = sorted(
        (
            PeakFit(center=float(c), fwhm=float(abs(w)), contrast=float(a),
                    center_stderr=float(e))
            for c, w, a, e in zip(theta[1::3], theta[2::3], theta[3::3], stderr)
        ),
        key=lambda p: p.center,
    )
    inside = all(freqs[0] <= p.center <= freqs[-1] for p in peaks)
    return FitResult(
        peaks=tuple(peaks),
        baseline=float(theta[0]),
        residual_norm=float(np.sqrt(cost)),
        converged=bool(converged and inside),
        n_iter=int(n_iter),
    )


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum of a * b over the last axis, one row-wise reduction per row."""
    return np.sum(a * b, axis=-1)


def _normal_equations(jac: np.ndarray, resid: np.ndarray):
    """Gauss-Newton matrices (B, P, P) and gradients (B, P) of stacked
    Jacobians (B, P, n) and residuals (B, n)."""
    hess = np.empty(jac.shape[:2] + jac.shape[1:2])
    for i in range(jac.shape[1]):
        hess[:, i] = _row_dot(jac[:, i, None], jac)
    return hess, _row_dot(jac, resid[:, None])


def _solve_damped(damped: np.ndarray, rhs: np.ndarray):
    """Stacked solve of damped (B, P, P) against rhs (B, P).

    A singular system fails only its own window: it gets a NaN step and
    a True flag in the returned mask, and _fit_block retries it with
    more damping.
    """
    singular = np.zeros(len(rhs), dtype=bool)
    try:
        return np.linalg.solve(damped, rhs[..., None])[..., 0], singular
    except np.linalg.LinAlgError:
        step = np.full(rhs.shape, np.nan)
        for i in range(len(rhs)):
            try:
                step[i] = np.linalg.solve(damped[i], rhs[i])
            except np.linalg.LinAlgError:
                singular[i] = True
        return step, singular


def _fit_block(freqs: np.ndarray, counts: np.ndarray, theta: np.ndarray):
    """Levenberg-Marquardt on stacked windows of one length and peak count.

    freqs and counts are (B, n), theta the (B, P) start vectors.  Each
    window keeps its own damping and accept/reject: an iteration tries
    damped steps until one does not raise the cost, and the window stops
    when its relative step falls below _STEP_TOL (converged), after
    _MAX_ITER iterations, or when no try is accepted.  All sums over
    points are row-wise reductions, so a window's result does not depend
    on which other windows share its block.

    Returns, per window, the last accepted parameters (B, P), their
    cost (B,) and Gauss-Newton matrix (B, P, P), the index of the
    iteration the window stopped in (B,) and the converged mask (B,).
    """
    theta = theta.copy()
    n_win, n_par = theta.shape
    model, jac = _batch_model(theta, freqs)
    resid = model - counts
    cost = _row_dot(resid, resid)
    hess, grad = _normal_equations(jac, resid)
    lam = np.full(n_win, _LAM_START)
    n_iter = np.ones(n_win, dtype=int)
    tries = np.zeros(n_win, dtype=int)
    done = np.zeros(n_win, dtype=bool)
    converged = np.zeros(n_win, dtype=bool)
    diag = np.arange(n_par)
    live = np.arange(n_win)
    while live.size:
        damped = hess[live]
        damped[:, diag, diag] += lam[live, None] * np.maximum(
            damped[:, diag, diag], 1e-12
        )
        step, singular = _solve_damped(damped, -grad[live])
        tried, step = live[~singular], step[~singular]
        model_t, jac_t = _batch_model(theta[tried] + step, freqs[tried])
        resid_t = model_t - counts[tried]
        cost_t = _row_dot(resid_t, resid_t)
        ok = cost_t <= cost[tried]

        acc, step = tried[ok], step[ok]
        rel_step = np.sqrt(_row_dot(step, step)) / np.maximum(
            np.sqrt(_row_dot(theta[acc], theta[acc])), 1e-300
        )
        theta[acc] += step
        cost[acc] = cost_t[ok]
        hess[acc], grad[acc] = _normal_equations(jac_t[ok], resid_t[ok])
        lam[acc] = np.maximum(lam[acc] * 0.3, _LAM_MIN)
        converged[acc] = rel_step < _STEP_TOL
        done[acc] = converged[acc] | (n_iter[acc] == _MAX_ITER)
        n_iter[acc[~done[acc]]] += 1
        tries[acc] = 0

        rejected = tried[~ok]
        failed = np.concatenate([live[singular], rejected])
        lam[failed] *= 10.0
        tries[failed] += 1
        done[failed] = tries[failed] == _MAX_TRIES
        done[rejected] |= lam[rejected] > _LAM_MAX
        live = live[~done[live]]
    return theta, cost, hess, n_iter, converged


def _fit_windows(
    f_start: np.ndarray,
    n_points: int,
    truth: np.ndarray,
    guesses: np.ndarray,
    streams: np.ndarray,
    cfg: SpectrumConfig,
):
    """Synthesize and fit a block of windows of equal length and peak count.

    f_start (B,) GHz; truth (B, 2) the resonances the spectra hold;
    guesses (B, k) the start centres; streams (B,) the Philox stream of
    each window.  Returns the fitted centres (B, k), sorted, and a mask
    of the windows whose synthesis succeeded (the others hold NaN).
    """
    freqs = f_start[:, None] + cfg.f_step * np.arange(n_points)
    means = _mean_curve(freqs, truth, cfg)
    ok = ~np.any(np.diff(freqs, axis=1) <= 0, axis=1)
    if cfg.noiseless:
        counts = means
        ok &= ~np.any(counts < 0, axis=1)
    else:
        counts = np.empty_like(means)
        for i, stream in enumerate(streams):
            try:
                counts[i] = _poisson_counts(means[i], cfg.seed, int(stream))
            except ValueError:  # a negative mean (overlapping deep dips)
                ok[i] = False
    centers = np.full(guesses.shape, np.nan)
    if np.any(ok):
        freqs, counts = freqs[ok], counts[ok]
        theta = _start_theta(
            counts, freqs, guesses[ok], cfg.linewidth_fwhm, cfg.contrast
        )
        theta = _fit_block(freqs, counts, theta)[0]
        centers[ok] = np.sort(theta[:, 1::3], axis=1)
    return centers, ok


def measure_map(rmap: ResonanceMap, cfg: SpectrumConfig):
    """Emulate readout of every map pixel: synthesize, fit, compare.

    The window per pixel is auto-sized to +/- 20 linewidths around each
    true branch.  Branches closer than one frequency step share one
    window and one merged dip; branches within 40 linewidths share one
    window with a joint two-dip fit; farther branches get one window
    each.  A window's counts come from the Philox stream (cfg.seed,
    2 pixel + branch), pixel the row-major index and branch 0 for a
    shared window, so the result is independent of any execution order.
    All windows are fitted together, grouped by length and peak count,
    in blocks whose working set stays within _BLOCK_BYTES.

    Returns the fitted map and an error map holding the worse branch
    deviation |fitted - true| per pixel.
    Pixels whose window could not be synthesized or fitted (too few
    points, negative mean counts, non-finite resonances) hold NaN
    resonances and an infinite error.
    """
    f_minus = rmap.f_minus.ravel()
    f_plus = rmap.f_plus.ravel()
    half = _WINDOW_HALF_WIDTHS * cfg.linewidth_fwhm
    finite = np.isfinite(f_minus) & np.isfinite(f_plus)
    sep = np.zeros(f_minus.shape)
    sep[finite] = f_plus[finite] - f_minus[finite]
    split = sep > 2.0 * half
    joint = ~split & (sep > cfg.f_step)

    # Windows in stream order: branch 0 of every pixel, branch 1 of split
    # pixels.  A window spans [lo - half, hi + half].
    pixel = np.repeat(np.flatnonzero(finite), 2)
    branch = np.tile([0, 1], pixel.size // 2)
    keep = (branch == 0) | split[pixel]
    pixel, branch = pixel[keep], branch[keep]
    lo = np.where(branch == 1, f_plus[pixel], f_minus[pixel])
    hi = np.where(split[pixel] & (branch == 0), f_minus[pixel], f_plus[pixel])
    n_peaks = np.where(joint[pixel], 2, 1)
    n_points = _points(lo - half, hi + half, cfg.f_step).astype(np.int64)
    truth = np.column_stack([f_minus[pixel], f_plus[pixel]])
    guesses = np.column_stack([lo, hi])
    guesses[n_peaks == 1, 0] = 0.5 * (lo + hi)[n_peaks == 1]

    # Fitted (lower, upper) centre per window; a one-dip window repeats it.
    fit = np.full((pixel.size, 2), np.nan)
    fitted_ok = np.zeros(pixel.size, dtype=bool)
    key = 2 * n_points + n_peaks
    order = np.argsort(key, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(key[order])) + 1):
        if group.size == 0:
            continue
        k, n = int(n_peaks[group[0]]), int(n_points[group[0]])
        if n < 5 * k:
            continue  # too few points to fit k dips
        # A block's working set is about eight of its (rows, 1 + 3k, n)
        # float64 Jacobians; keep it within _BLOCK_BYTES.
        rows = max(1, _BLOCK_BYTES // (64 * (1 + 3 * k) * n))
        for start in range(0, group.size, rows):
            w = group[start : start + rows]
            centers, fitted_ok[w] = _fit_windows(
                lo[w] - half, n, truth[w], guesses[w, :k], 2 * pixel[w] + branch[w],
                cfg,
            )
            fit[w] = centers[:, [0, k - 1]]

    fitted_minus = np.full(f_minus.shape, np.nan)
    fitted_plus = np.full(f_plus.shape, np.nan)
    first = branch == 0
    fitted_minus[pixel[first]] = fit[first, 0]
    fitted_plus[pixel[first]] = fit[first, 1]
    fitted_plus[pixel[~first]] = fit[~first, 0]
    failed = ~finite
    failed[pixel[~fitted_ok]] = True
    error = np.maximum(np.abs(fitted_minus - f_minus), np.abs(fitted_plus - f_plus))
    fitted_minus[failed] = np.nan
    fitted_plus[failed] = np.nan
    error[failed] = np.inf

    shape = rmap.f_minus.shape
    fitted = replace(
        rmap,
        f_minus=fitted_minus.reshape(shape),
        f_plus=fitted_plus.reshape(shape),
    )
    return fitted, error.reshape(shape)
