"""Optical readout emulation: synthetic spectra and Lorentzian fitting.

A spectrum is photoluminescence counts versus drive frequency.  On
resonance the counts dip by a Lorentzian contrast; off resonance they sit
at the baseline.  Counts are Poisson draws from the mean curve.  Each
measurement window draws all its points in one call from its own
counter-based Philox stream, keyed (seed, stream): stream = 2 pixel +
branch in a map (branch 0 for a merged or joint window) and 0 for
synthesize.  Any execution order or block split therefore reproduces
the same spectra bit for bit, and no two seeds share a stream.

Fitting is variable projection (Golub & Pereyra 1973): the model
b (1 - sum_k c_k L_k) is linear in b and b c_k, so each window's
baseline and contrasts are solved in closed form and a damped
Gauss-Newton (Levenberg-Marquardt) iteration with Kaufman's Jacobian
moves only the centres and widths, whose standard errors come from the
same projected matrix; no external optimizer is involved.  One loop,
_fit_block, fits stacked windows of equal length and peak count, each
window with its own damping and accept/reject.  fit_lorentzians is its
one-window call; measure_map runs it in blocks bounded by
texture._BLOCK_BYTES, every block in one workspace allocated per call.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .scan import ResonanceMap, _points
from .spincore import ResonancePair
from .texture import _BLOCK_BYTES

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

# Levenberg-Marquardt schedule of the centres and widths: damping starts
# at _LAM_START, grows 10x per failed try (up to _MAX_TRIES tries, or until
# a rejected step takes it past _LAM_MAX) and shrinks 0.3x per accepted
# step, floored at _LAM_MIN.
_STEP_TOL = 1e-9          # relative step size declaring convergence
_MAX_ITER = 200
_MAX_TRIES = 25
_LAM_START = 1e-3
_LAM_MAX = 1e14
_LAM_MIN = 1e-12
_WINDOW_HALF_WIDTHS = 20.0  # measurement window half-width in linewidths
# Narrowest linewidth in frequency steps: a dip a tenth of a step wide can
# fall between two points at under 1% of its depth, and a far narrower one
# squares to 0 and turns the dip at its centre into 0/0.
_MIN_LINEWIDTH_STEPS = 0.1

# Largest readout window (points), checked before any window is built:
# a two-dip fit's working set, 6 + 3k = 12 float64 planes of its points
# (see measure_map) and, measured with tracemalloc, about one more for
# the Poisson draws and numpy's buffers, then stays near 11 MB.
_MAX_WINDOW_POINTS = 100_000

# Largest Poisson mean numpy's sampler accepts (its POISSON_LAM_MAX).
_MAX_BASELINE_COUNTS = float(np.iinfo(np.int64).max - 10.0 * np.sqrt(np.iinfo(np.int64).max))


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
            raise ValueError("spectrum f_start, f_stop, f_step and linewidth_fwhm must be "
                             f"finite, got {values}")
        if self.f_step <= 0:
            raise ValueError(f"f_step must be positive, got {self.f_step}")
        if self.f_stop <= self.f_start:
            raise ValueError("f_stop must exceed f_start")
        if not 0.0 <= self.contrast < 1.0:
            raise ValueError(f"contrast must be in [0, 1), got {self.contrast}")
        if not 0.0 < self.baseline_counts <= _MAX_BASELINE_COUNTS:
            raise ValueError("baseline_counts must be positive, finite and at most "
                             f"{_MAX_BASELINE_COUNTS:.6g} (numpy's Poisson limit), "
                             f"got {self.baseline_counts}")
        if not self.linewidth_fwhm >= _MIN_LINEWIDTH_STEPS * self.f_step:
            raise ValueError(f"linewidth_fwhm must be at least {_MIN_LINEWIDTH_STEPS:g} "
                             f"f_step = {_MIN_LINEWIDTH_STEPS * self.f_step:g} GHz, "
                             f"got {self.linewidth_fwhm:g}")
        # This window, or the widest measure_map window: a joint window of
        # two branches 2 half-widths apart.
        span = max(self.f_stop - self.f_start,
                   4.0 * _WINDOW_HALF_WIDTHS * self.linewidth_fwhm)
        if span / self.f_step + 1 > _MAX_WINDOW_POINTS:
            raise ValueError(f"readout windows up to {span:g} GHz wide at f_step = "
                             f"{self.f_step:g} GHz exceed the {_MAX_WINDOW_POINTS} "
                             "point budget")


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
        if not (np.all(np.isfinite(self.frequencies)) and np.all(np.isfinite(self.counts))):
            raise ValueError("frequencies and counts must be finite")
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


def _basis(alpha: np.ndarray, freqs: np.ndarray, out: np.ndarray):
    """Dip planes of stacked windows and their derivatives, one plane each.

    alpha (..., 2k) rows are [center_1, fwhm_1, center_2, ...] and freqs
    (..., n) the windows' points.  Returns dips (k, ..., n), the planes
    L_k = g_k^2 / ((f - f0_k)^2 + g_k^2) peak-normalized (g_k = |w_k| / 2)
    of the basis phi = [1, L_1 ... L_k], and dphi (2k, ..., n), the
    derivatives [dL_1/df0_1, dL_1/dw_1, dL_2/df0_2, ...] of Kaufman's
    Jacobian: views of out (1 + 3k, ..., n), whose last plane is scratch.
    """
    k = alpha.shape[-1] // 2
    dips, dphi, denom2 = out[:k], out[k : 3 * k], out[3 * k]
    w = np.moveaxis(alpha[..., 1::2], -1, 0)[..., None]
    gamma = np.abs(w) / 2.0
    # dphi holds u = f - f0 and u^2, and dips the denominators, until they
    # become the derivatives and the dips.
    u, u2 = dphi[0::2], dphi[1::2]
    np.subtract(freqs, np.moveaxis(alpha[..., 0::2], -1, 0)[..., None], out=u)
    np.multiply(u, u, out=u2)
    np.add(u2, gamma**2, out=dips)
    for i in range(k):
        np.multiply(dips[i], dips[i], out=denom2)
        u[i] /= denom2
        u2[i] /= denom2
    np.divide(gamma**2, dips, out=dips)
    u *= 2.0 * gamma**2
    u2 *= gamma * np.where(w >= 0, 1.0, -1.0)
    return dips, dphi


def _mean_curve(freqs: np.ndarray, centers, cfg: SpectrumConfig,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """Mean counts at freqs (..., n) with dips at centers (..., k), in
    out[0] of out (2, ..., n), whose other plane is scratch."""
    centers = np.moveaxis(np.asarray(centers, dtype=float), -1, 0)[..., None]
    shape = np.broadcast_shapes(freqs.shape, centers.shape[1:])
    mean, dip = np.empty((2,) + shape) if out is None else out
    gamma2 = np.square(cfg.linewidth_fwhm / 2.0)
    mean[...] = 0.0
    for center in centers:  # the dip planes of _basis, without derivatives
        np.subtract(freqs, center, out=dip)
        dip *= dip
        dip += gamma2
        np.divide(gamma2, dip, out=dip)
        dip *= cfg.contrast
        mean += dip
    np.subtract(1.0, mean, out=mean)
    mean *= cfg.baseline_counts
    return mean


def _poisson_counts(means: np.ndarray, seed: int, streams,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
    """Poisson draws of each window of means (B, n), into out, which may
    be means, from the Philox stream keyed (seed, stream), stream its entry
    of streams (B,).  One generator is re-keyed per window, which draws
    what a fresh one would."""
    bitgen = np.random.Philox(key=np.array([seed & _MASK64, 0], dtype=np.uint64))
    gen, state = np.random.Generator(bitgen), bitgen.state
    counts = np.empty(means.shape) if out is None else out
    for i, stream in enumerate(streams):
        state["state"]["key"][1] = stream
        bitgen.state = state
        counts[i] = gen.poisson(means[i])
    return counts


def synthesize(resonances: ResonancePair, cfg: SpectrumConfig) -> Spectrum:
    """Synthesize the readout spectrum of a resonance pair over cfg's window."""
    centers = [resonances.f_minus, resonances.f_plus]
    if not np.all(np.isfinite(centers)):
        raise ValueError(f"resonances must be finite, got ({centers[0]}, {centers[1]}) GHz")
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
    counts = means if cfg.noiseless else _poisson_counts(means[None], cfg.seed, [0])[0]
    return Spectrum(frequencies=freqs, counts=counts)


def _initial_guess(
    spec: Spectrum, n_peaks: int, guesses: Optional[Sequence] = None
) -> np.ndarray:
    """Start centres and widths: supplied peak guesses or deepest local minima."""
    counts, freqs = spec.counts.astype(float), spec.frequencies
    f_step = float(np.median(np.diff(freqs)))
    if guesses is not None:
        if len(guesses) != n_peaks:
            raise ValueError(f"need {n_peaks} initial peak guesses, got {len(guesses)}")
        centers, widths = [g[0] for g in guesses], [g[1] for g in guesses]
        # Widths outside these bounds over- or underflow the dip planes.  The
        # floor forgives the points' rounding (at most 2 ulp a step), so a
        # linewidth SpectrumConfig accepts also starts a fit.
        lo = _MIN_LINEWIDTH_STEPS * (f_step - 2.0 * np.spacing(np.abs(freqs).max()))
        hi, w = _MAX_WINDOW_POINTS * f_step, np.abs(widths)
        if not (np.all(np.isfinite(centers)) and np.all((lo <= w) & (w <= hi))):
            raise ValueError("initial guess centres must be finite and |fwhm| within "
                             f"[{lo:g}, {hi:g}] GHz, got {guesses}")
    else:
        # Moving-average smoothing suppresses shot noise before the
        # greedy deepest-minimum search.  Edge padding keeps the window
        # ends from reading as spurious minima.
        smooth = np.convolve(np.pad(counts, 2, mode="edge"), np.ones(5) / 5.0, mode="valid")
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
    # Starts go in centre order, each width with its centre.  Overlapping
    # ones make the Jacobian rank-deficient; spread them by one step.
    order = np.argsort(centers, kind="stable")
    centers = np.asarray(centers, dtype=float)[order]
    for k in range(1, n_peaks):
        if centers[k] - centers[k - 1] < 0.5 * f_step:
            centers[k] = centers[k - 1] + f_step
    return np.column_stack([centers, np.asarray(widths, dtype=float)[order]]).ravel()


def fit_lorentzians(
    spec: Spectrum, n_peaks: int, initial_guess: Optional[Sequence] = None
) -> FitResult:
    """Least-squares fit of n_peaks Lorentzian dips plus a flat baseline.

    initial_guess, when given, is a sequence of (center, fwhm, contrast)
    triples, finite centres and |fwhm| within [0.1, 100,000] median
    frequency steps; only the centres and widths start the fit, since the
    baseline and contrasts are solved, not iterated.  One window of
    _fit_block: convergence when the relative step of the centres and
    widths falls below 1e-9, cap 200 iterations.  Non-convergence is
    flagged and the best iterate returned.  Centre standard errors come
    from its projected Gauss-Newton matrix: the full matrix's Schur
    complement over the baseline and contrasts (Golub & Pereyra 1973).
    """
    if n_peaks < 1:
        raise ValueError(f"n_peaks must be >= 1, got {n_peaks}")
    if spec.counts.size < 5 * n_peaks:
        raise ValueError(f"spectrum has {spec.counts.size} points; "
                         f"need at least {5 * n_peaks} for {n_peaks} peaks")
    if not np.any(spec.counts):
        raise ValueError(f"spectrum has no counts at any of its {spec.counts.size} "
                         "points, so no dip to fit; raise baseline_counts")
    freqs, counts = spec.frequencies, spec.counts.astype(float)
    alpha = _initial_guess(spec, n_peaks, initial_guess)
    alpha, coef, cost, n_iter, converged, hess = (
        a[0] for a in _fit_block(freqs[None], counts[None], alpha[None]))
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero baseline
        contrasts = -coef[1:] / coef[0]
    try:
        var = np.diag(cost / max(counts.size - 1 - 3 * n_peaks, 1) * np.linalg.pinv(hess))
    except np.linalg.LinAlgError:
        var = np.full(alpha.size, np.nan)
    stderr = np.sqrt(np.maximum(var[0::2], 0.0))
    peaks = sorted((PeakFit(center=float(c), fwhm=float(abs(w)), contrast=float(a),
                            center_stderr=float(e))
                    for c, w, a, e in zip(alpha[0::2], alpha[1::2], contrasts, stderr)),
                   key=lambda p: p.center)
    inside = all(freqs[0] <= p.center <= freqs[-1] for p in peaks)
    return FitResult(peaks=tuple(peaks), baseline=float(coef[0]),
                     residual_norm=float(np.sqrt(cost)),
                     converged=bool(converged and inside), n_iter=int(n_iter))


def _gram(a: np.ndarray, b: np.ndarray, prod: np.ndarray) -> np.ndarray:
    """Row-wise inner products (B, p, q) of the planes a (p, B, n) and
    b (q, B, n) of stacked windows, each product formed in prod (B, n);
    a symmetric one (a is b) sums each entry once and mirrors it."""
    out = np.empty((a.shape[1], len(a), len(b)))
    for i in range(len(a)):
        for j in range(i if a is b else 0, len(b)):
            np.add.reduce(np.multiply(a[i], b[j], out=prod), axis=-1, out=out[:, i, j])
            if a is b:
                out[:, j, i] = out[:, i, j]
    return out


def _solve(mat: np.ndarray, rhs: np.ndarray):
    """Stacked solve of mat (B, m, m) against rhs (B, m, r); a singular
    system fails only its own window, with a NaN solution and a True flag
    in the returned mask."""
    singular = np.zeros(len(rhs), dtype=bool)
    try:
        return np.linalg.solve(mat, rhs), singular
    except np.linalg.LinAlgError:
        out = np.full(rhs.shape, np.nan)
        for i in range(len(rhs)):
            try:
                out[i] = np.linalg.solve(mat[i], rhs[i])
            except np.linalg.LinAlgError:
                singular[i] = True
        return out, singular


def _project(alpha: np.ndarray, freqs: np.ndarray, counts: np.ndarray,
             count_sums: np.ndarray, planes: np.ndarray):
    """Variable projection of stacked windows at centres and widths alpha.

    The coefficients coef (B, 1 + k) = [b, -b c_1, ...] solve the Gram
    system (phi^T phi) coef = phi^T y, and the residual phi coef - y has
    Kaufman's Jacobian (I - P) dphi coef, P the projection onto the span
    of phi's planes; products with phi's ones plane are row sums, exact
    since x * 1.0 == x, so count_sums (B,) holds those of counts.  planes
    (2 + 3k, B, n) take the dips, derivatives, residual and products.
    Returns coef, the cost (B,), and the Gauss-Newton matrices (B, 2k, 2k)
    and gradients (B, 2k, 1) of alpha; a window with a singular Gram
    matrix gets NaN in all four.
    """
    k, n = alpha.shape[1] // 2, freqs.shape[1]
    dips, dphi = _basis(alpha, freqs, planes[: 3 * k + 1])
    resid, prod = planes[3 * k :]
    gram = np.empty((len(alpha), 1 + k, 1 + k))
    gram[:, 0, 0] = n
    np.add.reduce(dips, axis=-1, out=gram[:, 0, 1:].T)
    gram[:, 1:, 0] = gram[:, 0, 1:]
    gram[:, 1:, 1:] = _gram(dips, dips, prod)
    rhs = np.empty((len(alpha), 1 + k, 1 + 2 * k))
    rhs[:, 0, 0] = count_sums
    np.add.reduce(dphi, axis=-1, out=rhs[:, 0, 1:].T)
    rhs[:, 1:, :1] = _gram(dips, counts[None], prod)
    rhs[:, 1:, 1:] = _gram(dips, dphi, prod)
    sol = _solve(gram, rhs)[0]
    np.subtract(sol[:, 0, :1], counts, out=resid)
    dphi -= sol[:, 0, 1:].T[..., None]
    for i in range(k):
        resid += np.multiply(sol[:, 1 + i, :1], dips[i], out=prod)
        for j in range(len(dphi)):
            dphi[j] -= np.multiply(sol[:, 1 + i, 1 + j, None], dips[i], out=prod)
    dphi *= np.repeat(sol[:, 1:, 0].T, 2, axis=0)[..., None]
    hess, grad = _gram(dphi, dphi, prod), _gram(dphi, resid[None], prod)
    cost = np.add.reduce(np.multiply(resid, resid, out=prod), axis=-1)
    return sol[..., 0], cost, hess, grad


def _work_planes(k: int) -> int:
    """Planes per window of _fit_block's workspace: trial points and
    counts, k dips, 2k derivatives, the residual and a product plane."""
    return 4 + 3 * k


def _fit_block(freqs: np.ndarray, counts: np.ndarray, alpha: np.ndarray,
               work: Optional[np.ndarray] = None):
    """Levenberg-Marquardt on the centres and widths of stacked windows
    of one length and peak count, the linear coefficients projected out.

    freqs and counts are (B, n), alpha the (B, 2k) start vectors and
    work a flat float64 array of _work_planes(k) planes of them.  Each
    window keeps its own damping and accept/reject: an iteration tries
    damped steps until one does not raise the cost, and the window stops
    when its relative step falls below _STEP_TOL (converged), after
    _MAX_ITER iterations, or when no try is accepted.  A singular Gram
    matrix rejects a trial, and at the start leaves the window with a NaN
    cost and no iteration.  All sums over points are row-wise
    reductions, so a window's result does not depend on its block.

    Returns, per window, the last accepted centres and widths (B, 2k),
    their coefficients (B, 1 + k) and cost (B,), the index of the
    iteration the window stopped in (B,), the converged mask (B,) and
    their Gauss-Newton matrix (B, 2k, 2k).
    """
    alpha = alpha.copy()
    (n_win, n_par), n = alpha.shape, freqs.shape[1]
    n_planes = _work_planes(n_par // 2)
    if work is None:
        work = np.empty(n_planes * n_win * n)
    count_sums = np.add.reduce(counts, axis=-1)

    def project(tried, alpha_t):
        planes = work[: n_planes * len(tried) * n].reshape(n_planes, len(tried), n)
        # The block's own points and counts when every window is tried, else
        # copies in the first two planes (tried is in range; take's default
        # mode would copy through a temporary).
        trial = (freqs, counts) if len(tried) == n_win else (
            np.take(a, tried, axis=0, out=p, mode="clip") for a, p in zip((freqs, counts), planes))
        return _project(alpha_t, *trial, count_sums[tried], planes[2:])

    coef, cost, hess, grad = project(np.arange(n_win), alpha)
    lam = np.full(n_win, _LAM_START)
    n_iter = np.ones(n_win, dtype=int)
    tries = np.zeros(n_win, dtype=int)
    done, converged = np.zeros((2, n_win), dtype=bool)
    diag = np.arange(n_par)
    live = np.flatnonzero(np.isfinite(cost))
    while live.size:
        damped = hess[live]
        damped[:, diag, diag] += lam[live, None] * np.maximum(damped[:, diag, diag], 1e-12)
        step, singular = _solve(damped, -grad[live])
        tried, step = live[~singular], step[~singular, :, 0]
        coef_t, cost_t, hess_t, grad_t = project(tried, alpha[tried] + step)
        ok = cost_t <= cost[tried]

        acc, step = tried[ok], step[ok]
        rel_step = np.sqrt(np.add.reduce(step * step, axis=-1)) / np.maximum(
            np.sqrt(np.add.reduce(alpha[acc] * alpha[acc], axis=-1)), 1e-300)
        alpha[acc] += step
        coef[acc], cost[acc] = coef_t[ok], cost_t[ok]
        hess[acc], grad[acc] = hess_t[ok], grad_t[ok]
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
    return alpha, coef, cost, n_iter, converged, hess


def _fit_windows(f_start: np.ndarray, n_points: int, truth: np.ndarray,
                 guesses: np.ndarray, streams: np.ndarray, cfg: SpectrumConfig,
                 work: np.ndarray):
    """Synthesize and fit a block of windows of equal length and peak count.

    f_start (B,) GHz; truth (B, 2) the resonances the spectra hold;
    guesses (B, k) the start centres; streams (B,) the Philox stream of
    each window; work a flat float64 array of 2 + _work_planes(k) planes
    of B windows: their points and counts, then the fit's.  Returns the
    fitted centres (B, k), sorted, and a mask of the windows whose
    synthesis and fit succeeded (the others hold NaN): a negative mean or
    a singular start fails a window.
    """
    size = len(f_start) * n_points
    planes = work[: 3 * size].reshape(3, len(f_start), n_points)
    freqs, counts = planes[0], planes[1]
    np.multiply(cfg.f_step, np.arange(n_points), out=freqs)
    freqs += f_start[:, None]
    _mean_curve(freqs, truth, cfg, out=planes[1:])
    ok = np.all(freqs[:, 1:] > freqs[:, :-1], axis=1) & np.all(counts >= 0, axis=1)
    centers = np.full(guesses.shape, np.nan)
    if np.any(ok):
        if not ok.all():
            freqs, counts = freqs[ok], counts[ok]
        if not cfg.noiseless:
            _poisson_counts(counts, cfg.seed, streams[ok], out=counts)
        # The guesses are sorted, and a joint window's two lie more than
        # f_step apart, so no start needs _initial_guess's spread.
        alpha = np.repeat(guesses[ok], 2, axis=1)
        alpha[:, 1::2] = cfg.linewidth_fwhm
        alpha, _, cost = _fit_block(freqs, counts, alpha, work[2 * size :])[:3]
        fitted = np.isfinite(cost)
        centers[ok] = np.where(fitted[:, None], np.sort(alpha[:, 0::2], axis=1), np.nan)
        ok[ok] = fitted
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
    in blocks whose working set, views of one workspace allocated per
    call, stays within _BLOCK_BYTES.

    Returns the fitted map and an error map holding the worse branch
    deviation |fitted - true| per pixel.
    Pixels whose window could not be synthesized or fitted (too few
    points, negative mean counts, non-finite resonances) hold NaN
    resonances and an infinite error.
    """
    true = np.column_stack([rmap.f_minus.ravel(), rmap.f_plus.ravel()])
    half = _WINDOW_HALF_WIDTHS * cfg.linewidth_fwhm
    finite = np.all(np.isfinite(true), axis=1)
    sep = np.zeros(len(true))
    sep[finite] = true[finite, 1] - true[finite, 0]
    split = sep > 2.0 * half
    joint = ~split & (sep > cfg.f_step)

    # Windows in stream order: branch 0 of every pixel, branch 1 of split
    # pixels.  A window spans [lo - half, hi + half].
    pixel = np.repeat(np.flatnonzero(finite), 2)
    branch = np.tile([0, 1], pixel.size // 2)
    keep = (branch == 0) | split[pixel]
    pixel, branch = pixel[keep], branch[keep]
    lo = true[pixel, branch]
    hi = true[pixel, 1 - (split[pixel] & (branch == 0))]
    n_peaks = np.where(joint[pixel], 2, 1)
    n_points = _points(lo - half, hi + half, cfg.f_step).astype(np.int64)
    guesses = np.column_stack([lo, hi])
    guesses[n_peaks == 1, 0] = 0.5 * (lo + hi)[n_peaks == 1]

    # Fitted (lower, upper) centre per window; a one-dip window repeats it.
    fit = np.full((pixel.size, 2), np.nan)
    fitted_ok = np.zeros(pixel.size, dtype=bool)
    key = 2 * n_points + n_peaks
    blocks = []
    # Not np.unique, whose first call imports numpy.ma: with numpy.ma loaded
    # the readout benchmark's jobs ran 7-14% slower.
    for group in (np.flatnonzero(key == u) for u in sorted(set(key.tolist()))):
        k, n = int(n_peaks[group[0]]), int(n_points[group[0]])
        if n < 5 * k:
            continue  # too few points to fit k dips
        # A block's working set, one view of the call's workspace, is
        # 2 + _work_planes(k) = 6 + 3k float64 planes of n points per
        # window (its points and counts, then the fit's); keep it within
        # _BLOCK_BYTES.
        rows = max(1, _BLOCK_BYTES // (8 * (2 + _work_planes(k)) * n))
        blocks += [(group[start : start + rows], k, n) for start in range(0, group.size, rows)]
    work = np.empty(max(((2 + _work_planes(k)) * w.size * n for w, k, n in blocks), default=0))
    for w, k, n in blocks:
        centers, fitted_ok[w] = _fit_windows(lo[w] - half, n, true[pixel[w]], guesses[w, :k],
                                             2 * pixel[w] + branch[w], cfg, work)
        fit[w] = centers[:, [0, k - 1]]

    fitted = np.full_like(true, np.nan)
    fitted[pixel[branch == 0]] = fit[branch == 0]
    fitted[pixel[branch == 1], 1] = fit[branch == 1, 0]
    failed = ~finite
    failed[pixel[~fitted_ok]] = True
    error = np.max(np.abs(fitted - true), axis=1)
    fitted[failed] = np.nan
    error[failed] = np.inf

    shape = rmap.f_minus.shape
    f_minus, f_plus = fitted.T.copy().reshape((2,) + shape)
    return replace(rmap, f_minus=f_minus, f_plus=f_plus), error.reshape(shape)
