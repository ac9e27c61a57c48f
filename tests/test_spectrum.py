"""Synthetic readout spectra and the Lorentzian dip fitter.

The fitter quality bar (95/100 seeds within 5 MHz at default SNR) was
established with an independent Monte Carlo before freezing; the dip
planes' derivatives and the full model's Jacobian are checked against
central finite differences.  The batched variable-projection fit is
checked bit for bit against _vp_fit, the same iteration written one
window at a time, and within stated tolerances against _oracle_fit, the
Levenberg-Marquardt loop on all 1 + 3k parameters (_batch_model) that it
replaced, centre standard errors included.
"""

import sys
import tracemalloc

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from spinscan import scan, spectrum
from spinscan import (
    ResonancePair,
    ScanConfig,
    Spectrum,
    SpectrumConfig,
    fit_lorentzians,
    measure_map,
    scan_constant_height,
    synthesize,
)
F0 = 3.481904508602282


# ---------------------------------------------------------------- synthesis


def test_window_geometry():
    cfg = SpectrumConfig(f_start=2.5, f_stop=4.5, f_step=0.02, noiseless=True)
    spec = synthesize(ResonancePair(F0, F0), cfg)
    assert spec.frequencies.size == 101
    assert spec.frequencies[0] == 2.5
    assert spec.frequencies[-1] == pytest.approx(4.5)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=1.0, max_value=3000.0),
    st.floats(min_value=1e-5, max_value=0.1),
    st.integers(min_value=1, max_value=20_000),
)
@example(2500.0, 1e-4, 2000)
def test_window_keeps_its_commensurate_stop(f_start, f_step, n):
    # At THz frequencies f_stop - f_start rounds by far more than 1e-9 of
    # a 0.1 MHz step; the window still ends at f_stop, in synthesize and
    # in measure_map's array count alike.
    f_stop = f_start + n * f_step
    cfg = SpectrumConfig(f_start=f_start, f_stop=f_stop, f_step=f_step,
                         linewidth_fwhm=f_step, noiseless=True)
    spec = synthesize(ResonancePair(f_start, f_start), cfg)
    assert spec.frequencies.size == n + 1
    assert spec.frequencies[-1] == pytest.approx(f_stop, abs=0.5 * f_step)
    assert scan._points(np.array([f_start]), np.array([f_stop]), f_step) == [n + 1]


def test_noiseless_minimum_at_center():
    # The mean curve dips exactly at the resonance; a coincident pair
    # doubles the dip depth.
    cfg = SpectrumConfig(f_start=F0 - 1.0, f_stop=F0 + 1.0, f_step=0.004,
                         noiseless=True)
    spec = synthesize(ResonancePair(F0, F0), cfg)
    i = np.argmin(spec.counts)
    assert spec.frequencies[i] == pytest.approx(F0, abs=0.004)
    assert spec.counts.max() <= cfg.baseline_counts
    assert spec.counts.min() == pytest.approx(
        cfg.baseline_counts * (1.0 - 2 * cfg.contrast), rel=1e-4
    )


def test_two_resonances_two_minima():
    cfg = SpectrumConfig(f_start=2.8, f_stop=4.3, f_step=0.01, noiseless=True)
    spec = synthesize(ResonancePair(3.2, 3.9), cfg)
    c = spec.counts
    interior_minima = [
        spec.frequencies[i]
        for i in range(1, c.size - 1)
        if c[i] < c[i - 1] and c[i] < c[i + 1]
    ]
    assert len(interior_minima) == 2
    assert interior_minima[0] == pytest.approx(3.2, abs=0.01)
    assert interior_minima[1] == pytest.approx(3.9, abs=0.01)


def test_zero_contrast_flat():
    cfg = SpectrumConfig(contrast=0.0, noiseless=True)
    spec = synthesize(ResonancePair(3.0, 3.5), cfg)
    assert np.all(spec.counts == cfg.baseline_counts)


def test_fit_refuses_a_spectrum_without_counts():
    # A baseline far below one count draws no photons: there is no dip to
    # fit, and no contrast to report.
    spec = synthesize(ResonancePair(3.3, 3.6), SpectrumConfig(baseline_counts=1e-6))
    assert not spec.counts.any()
    with pytest.raises(ValueError, match="no counts"):
        fit_lorentzians(spec, 2)


def test_poisson_statistics():
    # Counts are Poisson(1e5) off resonance: the sample mean over the
    # flat window must agree with the baseline within 4 sigma.
    cfg = SpectrumConfig(contrast=0.0, seed=11)
    spec = synthesize(ResonancePair(3.0, 3.5), cfg)
    n = spec.counts.size
    sigma_mean = np.sqrt(cfg.baseline_counts / n)
    assert abs(spec.counts.mean() - cfg.baseline_counts) < 4 * sigma_mean
    assert np.all(spec.counts == np.round(spec.counts))


def test_seed_determinism_and_sensitivity():
    cfg = SpectrumConfig(seed=42)
    pair = ResonancePair(3.2, 3.9)
    a = synthesize(pair, cfg)
    b = synthesize(pair, cfg)
    assert np.array_equal(a.counts, b.counts)
    c = synthesize(pair, SpectrumConfig(seed=43))
    assert not np.array_equal(a.counts, c.counts)


def test_warns_when_resonances_outside_window():
    cfg = SpectrumConfig(f_start=2.5, f_stop=3.0, noiseless=True)
    with pytest.warns(UserWarning):
        synthesize(ResonancePair(10.0, 12.0), cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        SpectrumConfig(f_step=0.0)
    with pytest.raises(ValueError):
        SpectrumConfig(f_start=4.0, f_stop=3.0)
    with pytest.raises(ValueError):
        SpectrumConfig(contrast=1.0)
    with pytest.raises(ValueError):
        SpectrumConfig(baseline_counts=0.0)
    # numpy's Poisson sampler refuses means above about 9.2e18.
    for bad in (float("nan"), float("inf"), 1e30):
        with pytest.raises(ValueError, match="Poisson limit"):
            SpectrumConfig(baseline_counts=bad)
    SpectrumConfig(baseline_counts=9e18)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["f_start", "f_stop", "f_step", "linewidth_fwhm"])
def test_config_rejects_non_finite_window(name, bad):
    with pytest.raises(ValueError, match="must be finite"):
        SpectrumConfig(**{name: bad})


@pytest.mark.parametrize("window", [
    dict(f_start=3.0, f_stop=4.0, f_step=1e-12),  # its own window
    dict(f_step=1e-5),                            # 2 GHz: 200,001 points
    dict(f_step=1e-4, linewidth_fwhm=0.2),        # measure_map's: 16 GHz
])
def test_config_window_point_budget(window):
    with pytest.raises(ValueError, match=f"{spectrum._MAX_WINDOW_POINTS} point budget"):
        SpectrumConfig(**window)
    # 20,001 points, and 80,001 in measure_map's widest window.
    SpectrumConfig(f_step=1e-4)


def test_config_linewidth_floor():
    # A dip whose half-width squares to 0 would put 0/0 in the mean curve.
    for bad in (1e-200, 0.0, -0.1, 0.0019):
        with pytest.raises(ValueError, match="linewidth_fwhm must be at least 0.1 f_step"):
            SpectrumConfig(linewidth_fwhm=bad)
    SpectrumConfig(linewidth_fwhm=0.002)
    SpectrumConfig(f_step=0.6, linewidth_fwhm=0.1)


@pytest.mark.parametrize("noiseless", [False, True])
def test_synthesize_names_negative_mean_counts(noiseless):
    # Two coincident dips of contrast 0.6 take the mean below zero.
    cfg = SpectrumConfig(contrast=0.6, noiseless=noiseless)
    with pytest.raises(ValueError, match="contrast of 1.2 > 1, giving negative mean"):
        synthesize(ResonancePair(3.4, 3.4), cfg)


@pytest.mark.parametrize("pair", [(np.nan, np.nan), (3.4, np.inf), (-np.inf, 3.4)])
def test_synthesize_refuses_non_finite_resonances(pair):
    # Refused before the window test, which would warn that they lie
    # outside it (warnings are errors in this suite).
    cfg = SpectrumConfig(f_start=2.0, f_stop=4.0)
    with pytest.raises(ValueError, match="resonances must be finite"):
        synthesize(ResonancePair(*pair), cfg)


def test_spectrum_validation():
    with pytest.raises(ValueError):
        Spectrum(frequencies=np.array([1.0, 1.0]), counts=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        Spectrum(frequencies=np.array([1.0, 2.0]), counts=np.array([1.0, -1.0]))
    with pytest.raises(ValueError, match="frequencies and counts must have equal length"):
        Spectrum(frequencies=np.array([1.0, 2.0, 3.0]), counts=np.array([1.0, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["frequencies", "counts"])
def test_spectrum_refuses_non_finite_data(field, bad):
    # NaN fails both the increasing and the non-negative comparison, so
    # only an explicit check keeps it out of the fit.
    data = dict(frequencies=np.linspace(3.0, 4.0, 11), counts=np.full(11, 1e5))
    data[field][4] = bad
    with pytest.raises(ValueError, match="frequencies and counts must be finite"):
        Spectrum(**data)


# ------------------------------------------------------------------ fitting


def _basis(alpha, freqs):
    """spectrum._basis of the windows freqs (B, n) in a workspace of their
    own: the dip planes and their derivatives."""
    return spectrum._basis(alpha, freqs, np.empty((1 + 3 * (alpha.shape[-1] // 2),) + freqs.shape))


def _batch_model(theta, freqs):
    """Dip model and its analytic Jacobian over all 1 + 3k parameters.

    theta (B, P) rows are [baseline, center_1, fwhm_1, contrast_1,
    center_2, ...] and freqs (B, n) the windows' points.  model =
    b (1 - sum_k c_k L_k).  Returns (model (B, n), jacobian (P, B, n)).
    """
    b, c = theta[:, 0, None], theta[:, 3::3].T[..., None]
    dips, dphi = _basis(np.delete(theta, np.s_[::3], axis=1), freqs)
    jac = np.empty(theta.shape[1:] + freqs.shape)
    jac[0] = 1.0 - np.sum(c * dips, axis=0)
    jac[1::3] = -b * c * dphi[0::2]
    jac[2::3] = -b * c * dphi[1::2]
    jac[3::3] = -b * dips
    return b * jac[0], jac


def _worst_fd_error(f, jac, x):
    """Largest error, relative to each column's scale, of the Jacobian
    columns jac[i] of f against central differences at x."""
    worst = 0.0
    for i in range(len(x)):
        h = 1e-6 * max(abs(x[i]), 1e-3)
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        fd = (f(xp) - f(xm)) / (2 * h)
        scale = max(np.max(np.abs(fd)), np.max(np.abs(jac[i])), 1e-10)
        worst = max(worst, np.max(np.abs(fd - jac[i])) / scale)
    return worst


def test_jacobian_matches_finite_differences(rng):
    # The derivative planes of spectrum._basis, which Kaufman's Jacobian
    # in the fit is built from, and the full model's Jacobian built on them.
    freqs = np.linspace(3.0, 4.0, 60)[None]
    worst = 0.0
    for _ in range(100):
        theta = np.concatenate([
            [1e5 * rng.uniform(0.5, 2.0)],
            *[
                [rng.uniform(3.1, 3.9), rng.uniform(0.05, 0.3), rng.uniform(0.02, 0.3)]
                for _ in range(2)
            ],
        ])
        jac = _batch_model(theta[None], freqs)[1][:, 0]
        worst = max(worst, _worst_fd_error(
            lambda t: _batch_model(t[None], freqs)[0][0], jac, theta))
        # Each dip moves with its own centre and width only.
        alpha = np.delete(theta, np.s_[::3])
        ddips = np.zeros((alpha.size, alpha.size // 2, freqs.shape[1]))
        own = np.arange(alpha.size)
        ddips[own, own // 2] = _basis(alpha[None], freqs)[1][:, 0]
        worst = max(worst, _worst_fd_error(
            lambda a: _basis(a[None], freqs)[0][:, 0], ddips, alpha))
    assert worst < 1e-6


def _dot(a, b):
    """Sum of a * b over the last axis, one row-wise reduction per row."""
    return np.add.reduce(a * b, axis=-1)


def _plain_gram(a, b):
    """Row-wise inner products (B, p, q) of the planes a (p, B, n) and
    b (q, B, n): every entry a multiply and a row-wise reduction, with no
    shortcut for symmetric products or ones planes."""
    out = np.empty((len(a), len(b), a.shape[1]))
    for i in range(len(a)):
        out[i] = _dot(a[i], b)
    return out.transpose(2, 0, 1)


def _lm_start(spec, n_peaks, guesses):
    """The Levenberg-Marquardt start [b, f0_1, w_1, c_1, ...]: the
    90th-percentile baseline, the centres and widths of _initial_guess,
    and the guessed contrasts or else the smoothed depths at the start
    centres, deepest first (the order the minimum search picks them in)."""
    counts, freqs = spec.counts.astype(float), spec.frequencies
    alpha = spectrum._initial_guess(spec, n_peaks, guesses)
    baseline = np.percentile(counts, 90)
    if guesses is not None:
        contrasts = [g[2] for g in guesses]
    else:
        smooth = np.convolve(np.pad(counts, 2, mode="edge"), np.ones(5) / 5.0, mode="valid")
        depth = 1.0 - smooth[np.searchsorted(freqs, alpha[0::2])] / max(baseline, 1e-300)
        contrasts = np.sort(np.clip(depth, 1e-3, 0.99))[::-1]
    theta = np.empty(1 + 3 * n_peaks)
    theta[0], theta[1::3], theta[2::3], theta[3::3] = (
        baseline, alpha[0::2], alpha[1::2], contrasts)
    return theta


def _oracle_fit(spec, n_peaks, initial_guess=None):
    """Oracle: Levenberg-Marquardt on all 1 + 3k parameters [b, f0_1, w_1,
    c_1, ...], one spectrum at a time, with the fit's damping schedule.

    Returns (theta, cost, n_iter, converged) at the last accepted point;
    converged does not yet drop fits whose centres left the window.
    """
    if spec.counts.size < 5 * n_peaks:
        raise ValueError(f"{spec.counts.size} points are too few for {n_peaks} peaks")
    freqs, counts = spec.frequencies[None], spec.counts[None].astype(float)

    def evaluate(theta):
        model, jac = _batch_model(theta[None], freqs)
        resid = model - counts
        return _dot(resid, resid)[0], _plain_gram(jac, jac)[0], _dot(jac, resid)[:, 0]

    theta = _lm_start(spec, n_peaks, initial_guess)
    cost, hess, grad = evaluate(theta)
    lam = spectrum._LAM_START
    converged = False
    for n_iter in range(1, spectrum._MAX_ITER + 1):
        accepted = False
        for _ in range(spectrum._MAX_TRIES):
            damped = hess + lam * np.diag(np.maximum(np.diag(hess), 1e-12))
            try:
                step = np.linalg.solve(damped, -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = evaluate(theta + step)
            if trial[0] <= cost:
                accepted = True
                break
            lam *= 10.0
            if lam > spectrum._LAM_MAX:
                break
        if not accepted:
            break
        rel_step = np.linalg.norm(step) / max(np.linalg.norm(theta), 1e-300)
        theta = theta + step
        cost, hess, grad = trial
        lam = max(lam * 0.3, spectrum._LAM_MIN)
        if rel_step < spectrum._STEP_TOL:
            converged = True
            break
    return theta, cost, n_iter, converged


def _vp_fit(freqs, counts, alpha):
    """The variable-projection loop of _fit_block, one window at a time.

    Each evaluation solves the window's own Gram system for the
    coefficients [b, -b c_1, ...] and the projections of the basis
    derivatives, and builds Kaufman's Jacobian (I - P) dphi coef with the
    ones plane of phi written out; every sum over points is a product and
    a row-wise reduction (_dot, _plain_gram).
    Returns (alpha, coef, cost, n_iter, converged, hess), hess the
    Gauss-Newton matrix J^T J of the centres and widths; coef, cost and
    hess are NaN when the start's Gram matrix is singular.
    """
    freqs, counts = freqs[None], counts[None].astype(float)

    def evaluate(alpha):
        dips, dphi = _basis(alpha[None], freqs)
        phi = np.concatenate([np.ones((1,) + freqs.shape), dips])
        rhs = np.concatenate([_plain_gram(phi, counts[None]),
                              _plain_gram(dphi, phi).transpose(0, 2, 1)], axis=2)[0]
        try:
            sol = np.linalg.solve(_plain_gram(phi, phi)[0], rhs)
        except np.linalg.LinAlgError:
            return None
        coef, proj = sol[:, 0], sol[:, 1:]
        resid = coef[0] - counts
        jac = dphi - proj[0, :, None, None]
        for i in range(1, coef.size):
            resid += coef[i] * phi[i]
            for j in range(len(jac)):
                jac[j] -= proj[i, j] * phi[i]
        jac *= np.repeat(coef[1:], 2)[:, None, None]
        return coef, _dot(resid, resid)[0], _plain_gram(jac, jac)[0], _dot(jac, resid)[:, 0]

    start = evaluate(alpha)
    if start is None:
        return (alpha, np.full(alpha.size // 2 + 1, np.nan), np.nan, 1, False,
                np.full((alpha.size, alpha.size), np.nan))
    coef, cost, hess, grad = start
    lam = spectrum._LAM_START
    converged = False
    for n_iter in range(1, spectrum._MAX_ITER + 1):
        accepted = False
        for _ in range(spectrum._MAX_TRIES):
            damped = hess + lam * np.diag(np.maximum(np.diag(hess), 1e-12))
            try:
                step = np.linalg.solve(damped, -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = evaluate(alpha + step)
            if trial is not None and trial[1] <= cost:
                accepted = True
                break
            lam *= 10.0
            if lam > spectrum._LAM_MAX:
                break
        if not accepted:
            break
        rel_step = np.sqrt(_dot(step, step)) / max(np.sqrt(_dot(alpha, alpha)), 1e-300)
        alpha = alpha + step
        coef, cost, hess, grad = trial
        lam = max(lam * 0.3, spectrum._LAM_MIN)
        if rel_step < spectrum._STEP_TOL:
            converged = True
            break
    return alpha, coef, cost, n_iter, converged, hess


def _fit_cases():
    """(name, spectrum, n_peaks, initial_guess) of every fit the tests below run."""
    for seed in range(100):
        one = synthesize(ResonancePair(F0, F0), SpectrumConfig(seed=seed))
        yield f"one-dip-{seed}", one, 1, None
        cfg = SpectrumConfig(f_start=2.5, f_stop=4.6, seed=seed)
        yield f"two-dip-{seed}", synthesize(ResonancePair(3.2, 3.9), cfg), 2, None
    one = synthesize(ResonancePair(F0, F0), SpectrumConfig(noiseless=True))
    yield "noiseless-one-dip", one, 1, None
    cfg = SpectrumConfig(f_start=2.8, f_stop=4.3, noiseless=True)
    yield "noiseless-two-dip", synthesize(ResonancePair(3.2, 3.9), cfg), 2, None
    yield "two-dips-on-one", one, 2, [(F0, 0.1, 0.1), (F0, 0.1, 0.1)]
    # Two dips half a linewidth apart: ill-conditioned.
    cfg = SpectrumConfig(f_start=1.4, f_stop=5.45, seed=3)
    yield "half-linewidth-pair", synthesize(ResonancePair(3.40, 3.45), cfg), 2, None
    with pytest.warns(UserWarning, match="outside"):
        flat = synthesize(ResonancePair(10.0, 12.0),
                          SpectrumConfig(f_start=2.5, f_stop=3.0, seed=8))
    yield "flat", flat, 1, None


# Cases where the oracle stops elsewhere: on "two-dips-on-one" (a noiseless
# single dip fitted with two) the projected fit reaches a cost of about 0,
# and on "half-linewidth-pair" the oracle stops at the iteration cap while
# the projected fit converges, lower.
_ORACLE_STOPS_ELSEWHERE = {"two-dips-on-one", "half-linewidth-pair"}


def test_fit_lorentzians_matches_oracle():
    for name, spec, n_peaks, guesses in _fit_cases():
        fit = fit_lorentzians(spec, n_peaks, guesses)
        alpha = spectrum._initial_guess(spec, n_peaks, guesses)
        cost = _vp_fit(spec.frequencies, spec.counts, alpha)[2]
        theta, want_cost, _, converged = _oracle_fit(spec, n_peaks, guesses)
        if name in _ORACLE_STOPS_ELSEWHERE:
            assert cost <= want_cost, name
            continue
        # Both stop within the step tolerance of the same minimum.
        centers = np.sort(theta[1::3])
        got = np.array([p.center for p in fit.peaks])
        np.testing.assert_allclose(got, centers, rtol=0.0, atol=1e-8, err_msg=name)
        if want_cost >= 1e-6:
            assert cost <= want_cost * (1.0 + 1e-10), name
        freqs = spec.frequencies
        inside = np.all((freqs[0] <= centers) & (centers <= freqs[-1]))
        assert fit.converged == (converged and inside), name


def test_fit_lorentzians_matches_one_window_loop():
    for name, spec, n_peaks, guesses in _fit_cases():
        fit = fit_lorentzians(spec, n_peaks, guesses)
        freqs = spec.frequencies
        alpha = spectrum._initial_guess(spec, n_peaks, guesses)
        alpha, coef, cost, n_iter, converged, hess = _vp_fit(freqs, spec.counts, alpha)
        order = np.argsort(alpha[0::2], kind="stable")
        centers = alpha[0::2][order]
        assert [p.center for p in fit.peaks] == centers.tolist(), name
        assert fit.n_iter == n_iter, name
        inside = np.all((freqs[0] <= centers) & (centers <= freqs[-1]))
        assert fit.converged == (converged and inside), name
        # Standard errors: sigma^2 pinv of the loop's own Kaufman matrix of
        # the centres and widths, bit for bit.
        sigma2 = cost / max(freqs.size - 1 - 3 * n_peaks, 1)
        got = np.array([p.center_stderr for p in fit.peaks])
        want = np.sqrt(np.diag(sigma2 * np.linalg.pinv(hess)))[0::2]
        np.testing.assert_array_equal(got, want[order], err_msg=name)
        if name in _ORACLE_STOPS_ELSEWHERE:
            continue  # neither matrix is resolved in float64 there
        # That matrix is the Schur complement over the baseline and
        # contrasts of J^T J of all 1 + 3k parameters, summed row-wise.
        theta = np.empty(1 + 3 * n_peaks)
        theta[0], theta[1::3], theta[2::3] = coef[0], alpha[0::2], alpha[1::2]
        theta[3::3] = -coef[1:] / coef[0]
        jac = _batch_model(theta[None], freqs[None])[1]
        want = np.sqrt(np.diag(sigma2 * np.linalg.pinv(_plain_gram(jac, jac)[0])))
        np.testing.assert_allclose(got, want[1::3][order], rtol=1e-12, atol=0.0,
                                   err_msg=name)


def test_noiseless_fit_exact():
    cfg = SpectrumConfig(noiseless=True)
    spec = synthesize(ResonancePair(F0, F0), cfg)
    fit = fit_lorentzians(spec, 1)
    assert fit.converged
    assert fit.peaks[0].center == pytest.approx(F0, abs=1e-9)
    assert fit.peaks[0].fwhm == pytest.approx(cfg.linewidth_fwhm, rel=1e-6)
    assert fit.peaks[0].contrast == pytest.approx(2 * cfg.contrast, rel=1e-6)
    assert fit.baseline == pytest.approx(cfg.baseline_counts, rel=1e-9)


def test_noiseless_two_peak_fit_exact():
    cfg = SpectrumConfig(f_start=2.8, f_stop=4.3, noiseless=True)
    fit = fit_lorentzians(synthesize(ResonancePair(3.2, 3.9), cfg), 2)
    assert fit.converged
    assert fit.peaks[0].center == pytest.approx(3.2, abs=1e-8)
    assert fit.peaks[1].center == pytest.approx(3.9, abs=1e-8)


def test_monte_carlo_single_peak():
    # >= 95/100 seeds land within 5 MHz at default SNR; typical run is
    # 100/100 with sub-MHz median error.
    pair = ResonancePair(F0, F0)
    errs = []
    for seed in range(100):
        cfg = SpectrumConfig(seed=seed)
        fit = fit_lorentzians(synthesize(pair, cfg), 1)
        errs.append(abs(fit.peaks[0].center - F0))
    errs = np.array(errs)
    assert np.sum(errs < 5e-3) >= 95
    assert np.median(errs) < 2e-3


def test_monte_carlo_two_peaks():
    pair = ResonancePair(3.2, 3.9)
    hits = 0
    for seed in range(100):
        cfg = SpectrumConfig(f_start=2.5, f_stop=4.6, seed=seed)
        fit = fit_lorentzians(synthesize(pair, cfg), 2)
        if (abs(fit.peaks[0].center - 3.2) < 5e-3
                and abs(fit.peaks[1].center - 3.9) < 5e-3):
            hits += 1
    assert hits >= 95


def test_fit_reports_positive_stderr():
    cfg = SpectrumConfig(seed=5)
    fit = fit_lorentzians(synthesize(ResonancePair(F0, F0), cfg), 1)
    assert fit.peaks[0].center_stderr > 0
    # The stderr should be of the right scale: between 0.01 and 10 MHz.
    assert 1e-5 < fit.peaks[0].center_stderr < 1e-2


def test_overlapping_initial_guesses_are_separated():
    # Exactly coincident guesses would make two Jacobian column blocks
    # identical (singular normal equations); the fitter perturbs them by
    # one frequency step and still converges on a merged dip.
    cfg = SpectrumConfig(noiseless=True)
    spec = synthesize(ResonancePair(F0, F0), cfg)
    fit = fit_lorentzians(spec, 2, initial_guess=[(F0, 0.1, 0.1), (F0, 0.1, 0.1)])
    assert fit.converged
    assert fit.peaks[0].center == pytest.approx(F0, abs=0.05)
    assert fit.peaks[1].center == pytest.approx(F0, abs=0.05)
    assert fit.residual_norm < 1.0


def test_fit_argument_validation():
    cfg = SpectrumConfig(noiseless=True)
    spec = synthesize(ResonancePair(F0, F0), cfg)
    with pytest.raises(ValueError):
        fit_lorentzians(spec, 0)
    with pytest.raises(ValueError):
        fit_lorentzians(spec, 2, initial_guess=[(3.4, 0.1, 0.1)])
    short = Spectrum(frequencies=np.linspace(3.0, 4.0, 9), counts=np.full(9, 1e5))
    with pytest.raises(ValueError, match="spectrum has 9 points; need at least 10 for 2 peaks"):
        fit_lorentzians(short, 2)


_ONE_GHZ = SpectrumConfig(f_start=3.0, f_stop=4.0, seed=2)


def test_initial_guess_sorts_each_width_with_its_centre():
    spec = synthesize(ResonancePair(F0, F0), _ONE_GHZ)
    alpha = spectrum._initial_guess(spec, 2, [(3.7, 0.3, 0.1), (3.3, 0.05, 0.1)])
    assert alpha.tolist() == [3.3, 0.05, 3.7, 0.3]


@pytest.mark.parametrize("center, fwhm", [
    (F0, 0.0), (F0, 1e-100), (F0, 0.0019), (F0, -0.0019),  # under 0.1 steps
    (F0, 1e100), (F0, -1e100), (F0, 2001.0),               # over 100,000 steps
    (F0, np.inf), (F0, np.nan), (np.inf, 0.1), (-np.inf, 0.1), (np.nan, 0.1),
])
def test_fit_refuses_an_unusable_initial_guess(center, fwhm):
    # Such starts overflow or divide 0 by 0 in the dip planes, or carry a
    # NaN through, and end in NaN fits.
    spec = synthesize(ResonancePair(F0, F0), _ONE_GHZ)
    with pytest.raises(ValueError, match=r"initial guess centres must be finite and \|fwhm\|"):
        fit_lorentzians(spec, 1, [(center, fwhm, 0.1)])


@pytest.mark.parametrize("fwhm", [0.002, -0.002, 0.1, 1e3, -1e3])
def test_fit_converges_from_any_guess_width_within_bounds(fwhm):
    fit = fit_lorentzians(synthesize(ResonancePair(F0, F0), _ONE_GHZ), 1, [(F0, fwhm, 0.1)])
    assert fit.converged
    assert fit.peaks[0].center == pytest.approx(F0, abs=5e-3)


# ------------------------------------------------------------- map emulation


@pytest.fixture(scope="module")
def small_map(request):
    fm = request.getfixturevalue("fm_5x5")
    cfg = ScanConfig(height=4.0, x_range=(0.0, 6.0), y_range=(0.0, 6.0),
                     step=1.5, mode="exchange")
    return scan_constant_height(cfg, fm)


def test_measure_map_noiseless_identity(small_map):
    fitted, err = measure_map(small_map, SpectrumConfig(noiseless=True))
    assert np.max(err) < 1e-6
    assert np.max(np.abs(fitted.f_plus - small_map.f_plus)) < 1e-6
    assert np.max(np.abs(fitted.f_minus - small_map.f_minus)) < 1e-6


def test_measure_map_noisy_accuracy_and_determinism(small_map):
    cfg = SpectrumConfig(seed=123)
    fitted_a, err_a = measure_map(small_map, cfg)
    fitted_b, err_b = measure_map(small_map, cfg)
    assert np.array_equal(fitted_a.f_plus, fitted_b.f_plus)
    assert np.array_equal(err_a, err_b)
    # Median per-pixel error well under half a linewidth.
    assert np.median(err_a) < 5e-3
    assert np.all(np.isfinite(err_a))
    # A different base seed produces different draws.
    fitted_c, _ = measure_map(small_map, SpectrumConfig(seed=124))
    assert not np.array_equal(fitted_a.f_plus, fitted_c.f_plus)


def test_measure_map_merged_branches():
    # Degenerate pair (zero-field-like pixel): both branches fitted to
    # the same single dip.
    from spinscan.scan import ResonanceMap

    rmap = ResonanceMap(
        x0=0.0, y0=0.0, step=1.0, nx=1, ny=1, height=4.0, mode="exchange",
        f_minus=np.array([[F0]]), f_plus=np.array([[F0]]),
    )
    fitted, err = measure_map(rmap, SpectrumConfig(seed=9))
    assert fitted.f_minus[0, 0] == fitted.f_plus[0, 0]
    assert err[0, 0] < 5e-3


# ------------------------------------------------------ batched map readout


def _row_map(f_minus, f_plus):
    from spinscan.scan import ResonanceMap

    f_minus = np.asarray(f_minus, dtype=float)[None, :]
    f_plus = np.asarray(f_plus, dtype=float)[None, :]
    return ResonanceMap(x0=0.0, y0=0.0, step=1.0, nx=f_minus.size, ny=1,
                        height=4.0, mode="exchange", f_minus=f_minus, f_plus=f_plus)


def _fresh_poisson(means, seed, stream):
    """A window's draws from a fresh generator on its Philox stream."""
    key = np.array([seed & spectrum._MASK64, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).poisson(means).astype(float)


def _lm_centers(freqs, counts, guesses):
    theta = _oracle_fit(Spectrum(freqs, counts), len(guesses), guesses)[0]
    return np.sort(theta[1::3])


def _vp_centers(freqs, counts, guesses):
    if np.any(counts < 0):
        raise ValueError("negative mean counts")
    alpha = np.ravel([g[:2] for g in guesses])  # sorted centres, > f_step apart
    alpha, _, cost = _vp_fit(freqs, counts, alpha)[:3]
    return np.sort(alpha[0::2]) if np.isfinite(cost) else np.full(len(guesses), np.nan)


def _oracle_measure(rmap, cfg, fit_centers):
    """measure_map rebuilt window by window, each window's draws from a
    fresh generator and its centres from fit_centers(freqs, counts,
    guesses)."""
    half = spectrum._WINDOW_HALF_WIDTHS * cfg.linewidth_fwhm
    guess = lambda c: (c, cfg.linewidth_fwhm, cfg.contrast)  # noqa: E731

    def fit(lo, hi, truth, stream, guesses):
        n = int(np.floor((hi - lo) / cfg.f_step + 1e-9)) + 1
        if n < 5 * len(guesses):
            raise ValueError(f"{n} points are too few for {len(guesses)} peaks")
        freqs = lo + cfg.f_step * np.arange(n)
        means = spectrum._mean_curve(freqs, truth, cfg)
        counts = means if cfg.noiseless else _fresh_poisson(means, cfg.seed, stream)
        centers = fit_centers(freqs, counts, guesses)
        return centers[0], centers[-1]

    fitted, error = [], []
    for p, (fm, fp) in enumerate(zip(rmap.f_minus.ravel(), rmap.f_plus.ravel())):
        sep, truth = fp - fm, (fm, fp)
        try:
            if sep <= cfg.f_step:
                pair = fit(fm - half, fp + half, truth, 2 * p, [guess(0.5 * (fm + fp))])
            elif sep <= 2 * half:
                pair = fit(fm - half, fp + half, truth, 2 * p, [guess(fm), guess(fp)])
            else:
                pair = tuple(fit(f0 - half, f0 + half, truth, 2 * p + b, [guess(f0)])[0]
                             for b, f0 in enumerate(truth))
            if np.isnan(pair).any():
                raise ValueError("singular start")
        except ValueError:
            fitted.append((np.nan, np.nan))
            error.append(np.inf)
            continue
        fitted.append(pair)
        error.append(max(abs(pair[0] - fm), abs(pair[1] - fp)))
    return np.array(fitted), np.array(error)


# Merged (equal branches), joint (branches 0.1-1.9 GHz apart) and split
# (4.2-8 GHz apart) pixels, plus a nearly merged pair and a NaN pixel.
_BRANCH_GAPS = [0.0, 0.0, 0.05, 0.3, 1.0, 1.9, 3.0, 4.2, 8.0, 0.02]
MIXED = _row_map([F0 - g / 2 for g in _BRANCH_GAPS] + [np.nan],
                 [F0 + g / 2 for g in _BRANCH_GAPS] + [F0])


@pytest.mark.parametrize("cfg", [
    SpectrumConfig(seed=3),
    SpectrumConfig(seed=3, noiseless=True),
    # Deep dips: overlapping branches drive the mean counts negative.
    SpectrumConfig(seed=5, contrast=0.7),
    SpectrumConfig(seed=5, contrast=0.7, noiseless=True),
])
def test_measure_map_matches_per_window_fits(cfg):
    fitted, error = measure_map(MIXED, cfg)
    got = np.column_stack([fitted.f_minus.ravel(), fitted.f_plus.ravel()])
    error = error.ravel()
    # The one-window loop runs the same iteration with the same sums on
    # the same draws: equal bits, NaN resonances and infinite errors at
    # the same pixels.
    want, want_error = _oracle_measure(MIXED, cfg, _vp_centers)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(error, want_error)
    assert np.isinf(error[-1])  # the NaN pixel
    # The Levenberg-Marquardt oracle stops within its step tolerance of
    # the same minima and fails the same pixels.  Its step test is
    # relative to a vector holding the 1e5-count baseline, so on the
    # ill-conditioned pair half a linewidth apart it stops up to 2e-8 GHz
    # short.
    want, want_error = _oracle_measure(MIXED, cfg, _lm_centers)
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    np.testing.assert_array_equal(np.isinf(error), np.isinf(want_error))
    tol = np.where(np.append(_BRANCH_GAPS, np.nan) == 0.05, 5e-8, 1e-8)[:, None]
    finite = np.isfinite(want)
    assert np.all((np.abs(got - want) <= tol)[finite])


def test_measure_map_marks_short_windows_failed():
    # At a 0.6 GHz step these joint windows have 8 and 9 points, too few
    # for two dips, in both paths.
    rmap = _row_map([F0 - 0.35, F0 - 0.5], [F0 + 0.35, F0 + 0.5])
    cfg = SpectrumConfig(seed=2, f_step=0.6)
    fitted, error = measure_map(rmap, cfg)
    want, want_error = _oracle_measure(rmap, cfg, _vp_centers)
    assert np.all(np.isinf(want_error)) and np.all(np.isinf(error))
    assert np.all(np.isnan(want)) and np.all(np.isnan(fitted.f_plus))


def test_measure_map_skips_short_windows_beside_fitted_ones():
    # At a 0.01 GHz step and a 0.001 GHz linewidth, branches 0.03 GHz apart
    # get 8-point joint windows, fewer than the 10 two dips need; merged
    # (0.005 GHz) and split (0.5 and 1.0 GHz) pixels of the same map fit.
    gaps = [0.005, 0.03, 0.5, 1.0, 0.03]
    rmap = _row_map([F0 - g / 2 for g in gaps], [F0 + g / 2 for g in gaps])
    cfg = SpectrumConfig(seed=4, f_step=0.01, linewidth_fwhm=0.001)
    fitted, error = measure_map(rmap, cfg)
    short = np.array(gaps) == 0.03
    assert np.all(np.isinf(error.ravel()[short]))
    assert np.all(np.isnan(fitted.f_minus.ravel()[short]))
    assert np.all(np.isnan(fitted.f_plus.ravel()[short]))
    assert np.all(np.isfinite(error.ravel()[~short]))
    want, want_error = _oracle_measure(rmap, cfg, _vp_centers)
    got = np.column_stack([fitted.f_minus.ravel(), fitted.f_plus.ravel()])
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(error.ravel(), want_error)


@pytest.fixture(scope="module")
def window_block():
    """Twelve equal-length windows per peak count, as measure_map builds them."""
    cfg = SpectrumConfig(seed=17)
    half = spectrum._WINDOW_HALF_WIDTHS * cfg.linewidth_fwhm
    offsets = np.linspace(-0.3, 0.3, 12)
    single = dict(f_start=F0 + offsets - half, n_points=201,
                  truth=np.column_stack([F0 + offsets, F0 + offsets + 5.0]),
                  guesses=(F0 + offsets)[:, None], streams=2 * np.arange(12))
    lo, hi = F0 + offsets - 0.6, F0 + offsets + 0.6
    joint = dict(f_start=lo - half, n_points=261, truth=np.column_stack([lo, hi]),
                 guesses=np.column_stack([lo, hi]), streams=2 * np.arange(12) + 1)
    return cfg, (single, joint)


def _fit_windows(windows, cfg):
    """spectrum._fit_windows of windows in a workspace of their own."""
    planes = 2 + spectrum._work_planes(windows["guesses"].shape[1])
    work = np.empty(planes * len(windows["f_start"]) * windows["n_points"])
    return spectrum._fit_windows(**windows, cfg=cfg, work=work)


@settings(max_examples=25, deadline=None)
@given(order=st.permutations(range(12)),
       cuts=st.lists(st.integers(min_value=1, max_value=11), max_size=4))
def test_batched_fits_independent_of_block_split_and_order(window_block, order, cuts):
    cfg, groups = window_block
    order = np.array(order)
    for windows in groups:
        whole, ok = _fit_windows(windows, cfg)
        assert ok.all()
        parts = np.split(order, sorted(set(cuts)))
        pieced = np.empty_like(whole)
        for part in parts:
            sub = {k: (v[part] if isinstance(v, np.ndarray) else v)
                   for k, v in windows.items()}
            pieced[part] = _fit_windows(sub, cfg)[0]
        assert np.array_equal(pieced, whole)


def _block_inputs(windows, cfg):
    """The points, draws and start vectors _fit_windows fits for windows."""
    freqs = windows["f_start"][:, None] + cfg.f_step * np.arange(windows["n_points"])
    means = spectrum._mean_curve(freqs, windows["truth"], cfg)
    counts = np.array([_fresh_poisson(m, cfg.seed, s)
                       for m, s in zip(means, windows["streams"])])
    alpha = np.repeat(windows["guesses"], 2, axis=1)
    alpha[:, 1::2] = cfg.linewidth_fwhm
    return freqs, counts, alpha


def test_poisson_draws_match_a_fresh_generator_per_window(window_block):
    cfg, groups = window_block
    for seed in (0, 17, -1, 2**70 + 5):
        for windows in groups:
            freqs, want, _ = _block_inputs(windows, SpectrumConfig(seed=seed))
            means = spectrum._mean_curve(freqs, windows["truth"], cfg)
            got = spectrum._poisson_counts(means, seed, windows["streams"])
            assert np.array_equal(got, want)


def test_fit_block_matches_one_window_loop(window_block):
    cfg, groups = window_block
    for windows in groups:
        freqs, counts, alpha = _block_inputs(windows, cfg)
        block = spectrum._fit_block(freqs, counts, alpha)
        for i in range(len(freqs)):
            # Centres and widths, coefficients, cost, iterations, converged
            # flag and Gauss-Newton matrix.
            want = _vp_fit(freqs[i], counts[i], alpha[i])
            assert len(block) == len(want) == 6
            for got, expected in zip(block, want):
                assert np.array_equal(got[i], expected)


def test_singular_gram_fails_only_its_window(window_block):
    # A zero start width on a centre between points gives the window an
    # all-zero basis column: its Gram matrix is singular.  It alone fails,
    # and its neighbours keep their bits.
    cfg, (single, joint) = window_block
    for windows in (single, joint):
        freqs, counts, alpha = _block_inputs(windows, cfg)
        whole = spectrum._fit_block(freqs, counts, alpha)
        alpha[5, 1] = 0.0
        alpha[5, 0] = freqs[5, 100] + 0.3 * cfg.f_step
        broken = spectrum._fit_block(freqs, counts, alpha)
        assert np.isnan(broken[2][5]) and np.isnan(broken[1][5]).all()
        assert not broken[4][5]
        others = np.arange(len(freqs)) != 5
        for got, want in zip(broken, whole):
            assert np.array_equal(got[others], want[others])


def test_measure_map_independent_of_block_budget(monkeypatch):
    cfg = SpectrumConfig(seed=4)
    fitted, error = measure_map(MIXED, cfg)
    monkeypatch.setattr(spectrum, "_BLOCK_BYTES", 1)  # one window per block
    fitted_1, error_1 = measure_map(MIXED, cfg)
    assert np.array_equal(fitted.f_plus, fitted_1.f_plus, equal_nan=True)
    assert np.array_equal(fitted.f_minus, fitted_1.f_minus, equal_nan=True)
    assert np.array_equal(error, error_1, equal_nan=True)


def test_seeds_do_not_share_streams():
    # Seed s keyed pixel p by s XOR p, so seeds 0 and 1 measured two
    # identical pixels with the same two streams, swapped.
    rmap = _row_map([3.0, 3.0], [3.9, 3.9])
    a, _ = measure_map(rmap, SpectrumConfig(seed=0))
    b, _ = measure_map(rmap, SpectrumConfig(seed=1))
    assert not np.array_equal(a.f_plus[0], b.f_plus[0, ::-1])
    assert not np.array_equal(a.f_plus[0], b.f_plus[0])


def test_measure_map_holds_its_block_budget():
    # Merged pixels (one-dip windows of 201 points) and joint ones (two-dip
    # windows of 226 points, blocks of 48).  One call's traced peak, its
    # outputs aside, is its one workspace, which the joint blocks fill to
    # _BLOCK_BYTES, plus a stated slack: three of numpy's 64 KiB ufunc
    # buffers (for broadcast operands) and the blocks' small matrices, and
    # 32 float64 per window for the per-map vectors.
    gaps = np.repeat([0.0, 0.5], 60)
    rmap = _row_map(F0 - gaps / 2, F0 + gaps / 2)
    cfg = SpectrumConfig(seed=3)
    measure_map(rmap, cfg)  # first-call imports and caches are not the call's
    tracemalloc.start()
    try:
        _, error = measure_map(rmap, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = peak - 3 * error.nbytes
    slack = 3 * 8 * 8192 + 32 * 8 * gaps.size
    assert 0.9 * spectrum._BLOCK_BYTES <= held <= spectrum._BLOCK_BYTES + slack, (held, slack)


@pytest.mark.skipif(sys.platform != "linux", reason="counts Linux minor page faults")
def test_repeat_measure_map_takes_few_page_faults(fm_5x5):
    # The benchmark's readout map.  Blocks that allocated their own planes
    # took 5,300-6,500 minor faults a call: glibc handed the freed heap top
    # back to the kernel between blocks, and the next block faulted it in
    # again.  One workspace per call is faulted in once.
    resource = pytest.importorskip("resource")
    cfg = ScanConfig(height=4.0, x_range=(0.0, 12.0), y_range=(0.0, 12.0), step=0.75)
    rmap = scan_constant_height(cfg, fm_5x5, workers=1)
    assert rmap.f_plus.shape == (17, 17)
    readout = SpectrumConfig(seed=1)
    measure_map(rmap, readout)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    measure_map(rmap, readout)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 1000, faults
