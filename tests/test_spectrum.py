"""Synthetic readout spectra and the Lorentzian dip fitter.

The fitter quality bar (95/100 seeds within 5 MHz at default SNR) was
established with an independent Monte Carlo before freezing; Jacobian
correctness is checked against central finite differences.  The batched
Levenberg-Marquardt loop is checked against _oracle_fit, the same
iteration written one spectrum at a time.
"""

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


@pytest.mark.parametrize("noiseless", [False, True])
def test_synthesize_names_negative_mean_counts(noiseless):
    # Two coincident dips of contrast 0.6 take the mean below zero.
    cfg = SpectrumConfig(contrast=0.6, noiseless=noiseless)
    with pytest.raises(ValueError, match="contrast of 1.2 > 1, giving negative mean"):
        synthesize(ResonancePair(3.4, 3.4), cfg)


def test_spectrum_validation():
    with pytest.raises(ValueError):
        Spectrum(frequencies=np.array([1.0, 1.0]), counts=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        Spectrum(frequencies=np.array([1.0, 2.0]), counts=np.array([1.0, -1.0]))


# ------------------------------------------------------------------ fitting


def test_jacobian_matches_finite_differences(rng):
    freqs = np.linspace(3.0, 4.0, 60)

    def model(theta):
        return spectrum._batch_model(theta[None], freqs[None])[0][0]

    worst = 0.0
    for _ in range(100):
        theta = np.concatenate([
            [1e5 * rng.uniform(0.5, 2.0)],
            *[
                [rng.uniform(3.1, 3.9), rng.uniform(0.05, 0.3), rng.uniform(0.02, 0.3)]
                for _ in range(2)
            ],
        ])
        jac = spectrum._batch_model(theta[None], freqs[None])[1][0]
        for i in range(len(theta)):
            h = 1e-6 * max(abs(theta[i]), 1e-3)
            tp = theta.copy()
            tp[i] += h
            tm = theta.copy()
            tm[i] -= h
            fd = (model(tp) - model(tm)) / (2 * h)
            scale = max(np.max(np.abs(fd)), np.max(np.abs(jac[i])), 1e-10)
            worst = max(worst, np.max(np.abs(fd - jac[i])) / scale)
    assert worst < 1e-6


def _oracle_fit(spec, n_peaks, initial_guess=None):
    """Oracle: the Levenberg-Marquardt loop of _fit_block, one spectrum at
    a time, with its sums over points taken by the same row-wise
    reductions (_row_dot, _normal_equations).

    Returns (theta, cost, hess, n_iter, converged) at the last accepted
    point; converged does not yet drop fits whose centres left the window.
    """
    if spec.counts.size < 5 * n_peaks:
        raise ValueError(f"{spec.counts.size} points are too few for {n_peaks} peaks")
    freqs, counts = spec.frequencies[None], spec.counts[None].astype(float)

    def evaluate(theta):
        model, jac = spectrum._batch_model(theta[None], freqs)
        resid = model - counts
        hess, grad = spectrum._normal_equations(jac, resid)
        return spectrum._row_dot(resid, resid)[0], hess[0], grad[0]

    def norm(v):
        return np.sqrt(spectrum._row_dot(v, v))

    theta = spectrum._initial_guess(spec, n_peaks, initial_guess)
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
        rel_step = norm(step) / max(norm(theta), 1e-300)
        theta = theta + step
        cost, hess, grad = trial
        lam = max(lam * 0.3, spectrum._LAM_MIN)
        if rel_step < spectrum._STEP_TOL:
            converged = True
            break
    return theta, cost, hess, n_iter, converged


def _fit_cases():
    """(spectrum, n_peaks, initial_guess) of every fit the tests below run."""
    for seed in range(100):
        yield synthesize(ResonancePair(F0, F0), SpectrumConfig(seed=seed)), 1, None
        cfg = SpectrumConfig(f_start=2.5, f_stop=4.6, seed=seed)
        yield synthesize(ResonancePair(3.2, 3.9), cfg), 2, None
    one = synthesize(ResonancePair(F0, F0), SpectrumConfig(noiseless=True))
    yield one, 1, None
    cfg = SpectrumConfig(f_start=2.8, f_stop=4.3, noiseless=True)
    yield synthesize(ResonancePair(3.2, 3.9), cfg), 2, None
    yield one, 2, [(F0, 0.1, 0.1), (F0, 0.1, 0.1)]
    # Two dips half a linewidth apart: ill-conditioned, stops at the cap.
    cfg = SpectrumConfig(f_start=1.4, f_stop=5.45, seed=3)
    yield synthesize(ResonancePair(3.40, 3.45), cfg), 2, None
    with pytest.warns(UserWarning, match="outside"):
        flat = synthesize(ResonancePair(10.0, 12.0),
                          SpectrumConfig(f_start=2.5, f_stop=3.0, seed=8))
    yield flat, 1, None


def test_fit_lorentzians_matches_oracle():
    for spec, n_peaks, guesses in _fit_cases():
        fit = fit_lorentzians(spec, n_peaks, guesses)
        theta, cost, hess, n_iter, converged = _oracle_fit(spec, n_peaks, guesses)
        order = np.argsort(theta[1::3], kind="stable")
        centers = theta[1::3][order]
        assert [p.center for p in fit.peaks] == centers.tolist()
        assert fit.n_iter == n_iter
        freqs = spec.frequencies
        inside = np.all((freqs[0] <= centers) & (centers <= freqs[-1]))
        assert fit.converged == (converged and inside)
        # Standard errors: sigma^2 pinv(J^T J) at the optimum, with J^T J
        # summed row-wise as the fit sums it (a BLAS product differs by about
        # 1e-9 relative on the ill-conditioned two-dip fits).
        sigma2 = cost / max(freqs.size - theta.size, 1)
        want = np.sqrt(np.diag(sigma2 * np.linalg.pinv(hess))[1::3][order])
        got = np.array([p.center_stderr for p in fit.peaks])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


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


def _oracle_measure(rmap, cfg):
    """measure_map rebuilt window by window on _oracle_fit."""
    half = spectrum._WINDOW_HALF_WIDTHS * cfg.linewidth_fwhm
    guess = lambda c: (c, cfg.linewidth_fwhm, cfg.contrast)  # noqa: E731

    def fit(lo, hi, truth, stream, guesses):
        n = int(np.floor((hi - lo) / cfg.f_step + 1e-9)) + 1
        freqs = lo + cfg.f_step * np.arange(n)
        means = spectrum._mean_curve(freqs, truth, cfg)
        counts = (means if cfg.noiseless
                  else spectrum._poisson_counts(means, cfg.seed, stream))
        theta = _oracle_fit(Spectrum(freqs, counts), len(guesses), guesses)[0]
        centers = np.sort(theta[1::3])
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
    want, want_error = _oracle_measure(MIXED, cfg)
    got = np.column_stack([fitted.f_minus.ravel(), fitted.f_plus.ravel()])
    error = error.ravel()
    # The oracle runs the same iteration with the same sums: equal bits,
    # NaN resonances and infinite errors at the same pixels.
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(error, want_error)
    assert np.isinf(error[-1])  # the NaN pixel


def test_measure_map_marks_short_windows_failed():
    # At a 0.6 GHz step these joint windows have 8 and 9 points, too few
    # for two dips, in both paths.
    rmap = _row_map([F0 - 0.35, F0 - 0.5], [F0 + 0.35, F0 + 0.5])
    cfg = SpectrumConfig(seed=2, f_step=0.6)
    fitted, error = measure_map(rmap, cfg)
    want, want_error = _oracle_measure(rmap, cfg)
    assert np.all(np.isinf(want_error)) and np.all(np.isinf(error))
    assert np.all(np.isnan(want)) and np.all(np.isnan(fitted.f_plus))


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


@settings(max_examples=25, deadline=None)
@given(order=st.permutations(range(12)),
       cuts=st.lists(st.integers(min_value=1, max_value=11), max_size=4))
def test_batched_fits_independent_of_block_split_and_order(window_block, order, cuts):
    cfg, groups = window_block
    order = np.array(order)
    for windows in groups:
        whole, ok = spectrum._fit_windows(**windows, cfg=cfg)
        assert ok.all()
        parts = np.split(order, sorted(set(cuts)))
        pieced = np.empty_like(whole)
        for part in parts:
            sub = {k: (v[part] if isinstance(v, np.ndarray) else v)
                   for k, v in windows.items()}
            pieced[part] = spectrum._fit_windows(**sub, cfg=cfg)[0]
        assert np.array_equal(pieced, whole)


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
