import dataclasses
import gc
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from kmiter import regularization
from kmiter.errors import ConfigError, DegenerateComplementError, ModeOverflowError
from kmiter.iterations import build_factors, fixed_point
from kmiter.problems import Elliptic, Parabolic, elliptic_dt_solution_at
from kmiter.regularization import (
    BoundPoint,
    CutoffSelection,
    NoiseSpec,
    RegularizerPlan,
    SourceCondition,
    add_noise,
    candidate_cutoffs,
    choose_h,
    error_bound_curve,
    measure_eps_prime,
    power_source_function,
    regularized_fixed_point,
    select_n_star,
    smooth,
    smoothing_bound,
    source_constant,
)
from kmiter.spectral import (
    from_coeffs,
    make_custom_spectrum,
    make_sine_spectrum_1d,
    make_sine_spectrum_rect,
    norm_s,
    scale_weights,
    sub,
    unit_mode,
    zeros,
)

import oracles


class TestAddNoise:
    def test_exact_norm(self):
        m = make_sine_spectrum_1d(12, 1.0)
        v = from_coeffs(m, np.linspace(1.0, 0.1, 12))
        for scale in (0.0, 0.5, -0.5):
            ns = NoiseSpec(eps=1e-3, seed=4, norm_scale=scale)
            out = add_noise(v, ns)
            assert norm_s(sub(out, v), scale) == pytest.approx(1e-3, rel=1e-12)

    def test_deterministic(self):
        m = make_sine_spectrum_1d(6, 1.0)
        v = zeros(m)
        ns = NoiseSpec(eps=0.1, seed=123)
        np.testing.assert_array_equal(
            add_noise(v, ns).coeffs, add_noise(v, ns).coeffs
        )

    def test_seeds_differ(self):
        m = make_sine_spectrum_1d(6, 1.0)
        v = zeros(m)
        a = add_noise(v, NoiseSpec(eps=0.1, seed=1))
        b = add_noise(v, NoiseSpec(eps=0.1, seed=2))
        assert not np.array_equal(a.coeffs, b.coeffs)
        assert norm_s(a, 0.0) == pytest.approx(norm_s(b, 0.0), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigError):
            NoiseSpec(eps=0.0, seed=0)
        with pytest.raises(ConfigError):
            NoiseSpec(eps=-1.0, seed=0)
        for seed in (-1, 1.5, 2.0, "3", None):
            with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
                NoiseSpec(eps=0.1, seed=seed)
        assert NoiseSpec(eps=0.1, seed=np.int64(7)).seed == 7


class TestSmooth:
    def setup_method(self):
        self.m = make_sine_spectrum_1d(3, 1.0)  # lambdas pi, 2pi, 3pi
        self.v = from_coeffs(self.m, [1.0, 2.0, 3.0])

    def test_wide_window_is_identity(self):
        out = smooth(self.v, 1.0 / (4.0 * math.pi))
        np.testing.assert_array_equal(out.coeffs, self.v.coeffs)

    def test_narrow_window_zeroes_everything(self):
        out = smooth(self.v, 1.0 / 3.0)  # 1/h = 3 < pi
        np.testing.assert_array_equal(out.coeffs, 0.0)

    def test_threshold_keeps_first_mode_only(self):
        out = smooth(self.v, 0.2)  # 1/h = 5: pi <= 5 < 2 pi
        np.testing.assert_array_equal(out.coeffs, [1.0, 0.0, 0.0])

    def test_validation(self):
        with pytest.raises(ConfigError):
            smooth(self.v, 0.0)
        with pytest.raises(ConfigError):
            smooth(self.v, -1.0)


class TestChooseH:
    def test_halving_point(self):
        # eps = ||f||_r^2 / 2^r makes the bracket exactly 1
        for r in (0.5, 1.0, 2.0):
            f_norm = 1.7
            eps = f_norm**2 / 2.0**r
            assert choose_h(eps, r, f_norm) == pytest.approx(1.0, rel=1e-12)

    def test_reference_value(self):
        assert choose_h(0.25, 1.0, 1.0) == pytest.approx(oracles.INV_SQRT3, rel=1e-14)

    def test_vanishing_noise_shrinks_h(self):
        hs = [choose_h(eps, 1.0, 1.0) for eps in (1e-2, 1e-4, 1e-6, 1e-8)]
        assert all(b < a for a, b in zip(hs, hs[1:]))
        assert hs[-1] < 1e-3

    def test_oversized_eps_rejected(self):
        with pytest.raises(ConfigError):
            choose_h(1.0, 1.0, 1.0)
        with pytest.raises(ConfigError):
            choose_h(2.0, 1.0, 1.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            choose_h(0.1, -1.0, 1.0)
        with pytest.raises(ConfigError):
            choose_h(0.0, 1.0, 1.0)
        with pytest.raises(ConfigError):
            choose_h(0.1, 1.0, 0.0)


class TestSmoothingBound:
    def test_degenerate_exponent_limit(self):
        # s -> 0 collapses the bound to 4 eps
        assert smoothing_bound(1e-3, 1.0, 1e-9, 1.0) == pytest.approx(
            4e-3, rel=1e-6
        )

    def test_reference_value(self):
        assert smoothing_bound(1e-4, 1.0, 0.5, 1.0) == pytest.approx(0.04, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigError):
            smoothing_bound(1e-4, 0.5, 0.5, 1.0)  # r > s fails
        with pytest.raises(ConfigError):
            smoothing_bound(1e-4, 1.0, 0.0, 1.0)  # s > 0 fails
        with pytest.raises(ConfigError):
            smoothing_bound(0.0, 1.0, 0.5, 1.0)

    def test_bound_verifies_on_synthetic_data(self):
        # f with coefficients (1+lambda^2)^{-(r+1)/2} / j, squared data error
        # eps: the smoothed noisy datum must satisfy the s-norm bound
        r, s = 1.0, 0.5
        m = make_sine_spectrum_1d(64, 1.0)
        lam = m.eigenvalues
        j = np.arange(1, 65)
        f = from_coeffs(m, (1.0 + lam * lam) ** (-(r + 1.0) / 2.0) / j)
        f_norm_r = norm_s(f, r)
        eps = 1e-4  # squared-error budget, well below ||f||_r^2
        assert eps < f_norm_r**2
        bound = smoothing_bound(eps, r, s, f_norm_r)
        h_star = choose_h(eps, r, f_norm_r)
        for seed in range(10):
            f_eps = add_noise(f, NoiseSpec(eps=math.sqrt(eps), seed=seed))
            err_sq = norm_s(sub(f, smooth(f_eps, h_star)), s) ** 2
            assert err_sq <= bound


class TestRegularizedFixedPoint:
    def test_full_retention_equals_fixed_point(self):
        m = make_sine_spectrum_1d(4, 1.0)
        fac = build_factors(
            Elliptic(T=1.0, f=zeros(m), g=from_coeffs(m, [1.0, 0.5, 0.25, 0.125]))
        )
        n = 2.0 * m.lambda_max
        out = regularized_fixed_point(fac, fac.z, n)
        assert out.coeffs.tobytes() == fixed_point(fac).coeffs.tobytes()

    def test_empty_retention_returns_data_term(self):
        m = make_sine_spectrum_1d(4, 1.0)
        fac = build_factors(Elliptic(T=1.0, f=zeros(m), g=unit_mode(m, 1)))
        z_eps = from_coeffs(m, [0.3, 0.1, -0.2, 0.05])
        out = regularized_fixed_point(fac, z_eps, 0.5 * math.pi)
        np.testing.assert_array_equal(out.coeffs, z_eps.coeffs)

    def test_partial_retention(self):
        # modes at pi and 3pi, cutoff 5 sits between pi and 2pi
        m = make_sine_spectrum_1d(3, 1.0)
        g = from_coeffs(m, [1.0, 0.0, 1.0])
        fac = build_factors(Elliptic(T=1.0, f=zeros(m), g=g))
        out = regularized_fixed_point(fac, fac.z, 5.0)
        assert out.coeffs[0] == pytest.approx(oracles.COSH_PI, rel=1e-12)
        assert out.coeffs[1] == 0.0
        assert out.coeffs[2] == pytest.approx(oracles.INV_COSH_3PI, rel=1e-12)

    def test_degenerate_retained_mode_rejected(self):
        m = make_custom_spectrum([1.0, 40.0])
        fac = build_factors(Parabolic(T=1.0, f=from_coeffs(m, [1.0, 1.0])))
        with pytest.raises(DegenerateComplementError):
            regularized_fixed_point(fac, fac.z, 50.0)
        # cutting below the degenerate mode is the advertised way out
        out = regularized_fixed_point(fac, fac.z, 10.0)
        assert math.isfinite(out.coeffs[1])

    def test_overflow_refused_as_in_fixed_point(self):
        # z / (1 - F) = 1e200 / sech(300)^2 passes the 1e300 guard at mode 2:
        # both fixed points refuse it, and neither warns on the way
        m = make_custom_spectrum([1.0, 2.0, 300.0])
        fac = build_factors(Elliptic(T=1.0, f=zeros(m), g=from_coeffs(m, [1.0, 1.0, 1e200])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for solve in (lambda: fixed_point(fac), lambda: regularized_fixed_point(fac, fac.z, 1e3)):
                with pytest.raises(ModeOverflowError) as err:
                    solve()
                assert err.value.mode_indices == (2,)
            # the cutoff drops the mode, and z passes unchanged there
            out = regularized_fixed_point(fac, fac.z, 100.0)
            assert out.coeffs[2] == fac.z.coeffs[2]


class TestCandidateCutoffs:
    def test_sine_spectrum_grid(self):
        m = make_sine_spectrum_1d(3, 1.0)
        np.testing.assert_allclose(
            candidate_cutoffs(m),
            [0.5 * math.pi, 1.5 * math.pi, 2.5 * math.pi, 4.5 * math.pi],
            rtol=1e-14,
        )

    def test_collapses_duplicate_eigenvalues(self):
        # the square has an exact double eigenvalue; one midpoint, not two
        from kmiter.spectral import make_sine_spectrum_rect

        m = make_sine_spectrum_rect(2, 2, 1.0, 1.0)
        grid = candidate_cutoffs(m)
        assert grid.size == 3 + 1  # 3 distinct eigenvalues
        assert np.all(np.diff(grid) > 0.0)

    def test_adjacent_float_eigenvalues(self):
        # the midpoint of two adjacent floats rounds up to the upper one, which
        # would retain both; the lower one keeps exactly the first mode
        a = np.nextafter(1.0, 2.0)
        m = make_custom_spectrum([a, np.nextafter(a, 2.0), 3.0])
        grid = candidate_cutoffs(m)
        assert grid.tolist() == [0.5 * a, a, 0.5 * (np.nextafter(a, 2.0) + 3.0), 4.5]
        assert np.searchsorted(m.eigenvalues, grid, side="right").tolist() == [0, 1, 2, 3]
        fac = build_factors(Parabolic(T=0.01, f=zeros(m)))
        plan = RegularizerPlan(n=1.0, eps_prime=1e-3, source=SourceCondition(1.0, lambda lam: lam, 0.0))
        assert [p.retained for p in error_bound_curve(plan, fac)] == [0, 1, 2, 3]


def _elliptic_plan(T=0.5, n_modes=6, q=1.0, eps=1e-5, seed=0, G=None):
    """Small noisy elliptic instance with a known clean trace; the source
    weight is ``G``, or ``power_source_function(q)`` if None."""
    m = make_sine_spectrum_1d(n_modes, 1.0)
    g = from_coeffs(m, 1.0 / np.arange(1, n_modes + 1) ** 2)
    clean = Elliptic(T=T, f=zeros(m), g=g)
    s = -0.5
    g_eps = add_noise(g, NoiseSpec(eps=eps, seed=seed, norm_scale=s))
    noisy = Elliptic(T=T, f=zeros(m), g=g_eps)
    fac_c = build_factors(clean)
    fac_n = build_factors(noisy)
    phibar = elliptic_dt_solution_at(clean, T)
    G = power_source_function(q) if G is None else G
    source = SourceCondition(M=source_constant(phibar, G, s), G=G, s=s)
    eps_prime = measure_eps_prime(fac_c, fac_n, s)
    plan = RegularizerPlan(n=1.0, eps_prime=eps_prime, source=source)
    return plan, fac_n, phibar


class TestErrorBoundCurve:
    def test_zero_noise_full_retention_bound_vanishes(self):
        plan, fac, phibar = _elliptic_plan(eps=1e-12)
        clean_plan = RegularizerPlan(n=1.0, eps_prime=0.0, source=plan.source)
        top = 2.0 * fac.model.lambda_max
        (pt,) = error_bound_curve(clean_plan, fac, candidates=[top])
        assert pt.tail_bound == 0.0
        assert pt.bound == 0.0
        assert pt.retained == fac.model.n_modes

    def test_retained_zero_complement_bound_is_inf_without_noise(self):
        # sech(800)^2 underflows to exactly 0, so full retention has no
        # fixed point; with eps_prime = 0 the bound must still read inf,
        # not 0 * inf = nan
        m = make_custom_spectrum([1.0, 2.0, 3.0, 800.0])
        fac = build_factors(Elliptic(T=1.0, f=zeros(m), g=zeros(m)))
        source = SourceCondition(M=1.0, G=lambda lam: lam, s=-0.5)
        plan = RegularizerPlan(n=1.0, eps_prime=0.0, source=source)
        (pt,) = error_bound_curve(plan, fac, candidates=[1000.0])
        assert pt.retained == 4
        assert pt.amplification == math.inf
        assert pt.bound == math.inf

    def test_candidates_must_be_positive(self):
        plan, fac, _ = _elliptic_plan()
        for bad in ([], [0.0], [-1.0, 2.0], [1.0, math.nan]):
            with pytest.raises(ConfigError):
                error_bound_curve(plan, fac, candidates=bad)
            with pytest.raises(ConfigError):
                select_n_star(plan, fac, candidates=bad)

    def test_source_weight_checked_where_modes_are_dropped(self):
        m = make_custom_spectrum([1.0, 2.0])
        fac = build_factors(Elliptic(T=1.0, f=zeros(m), g=zeros(m)))
        for bad in (0.0, -1.0, math.inf, math.nan):
            src = SourceCondition(M=1.0, G=lambda lam, bad=bad: 1.0 if lam < 1.2 else bad, s=0.0)
            plan = RegularizerPlan(n=1.0, eps_prime=0.0, source=src)
            with pytest.raises(ConfigError, match=r"G\(1\.5\)"):
                error_bound_curve(plan, fac, candidates=[0.5, 1.5, 3.0])
            with pytest.raises(ConfigError, match=r"G\(1\.5\)"):
                select_n_star(plan, fac, candidates=[0.5, 1.5, 3.0])
            # full retention never evaluates G
            (pt,) = error_bound_curve(plan, fac, candidates=[3.0])
            assert pt.tail_bound == 0.0

    def test_monotone_ingredients(self):
        plan, fac, phibar = _elliptic_plan()
        curve = error_bound_curve(plan, fac, phibar_reference=phibar)
        tails = [p.tail_bound for p in curve]
        amps = [p.amplification for p in curve]
        assert all(b <= a for a, b in zip(tails, tails[1:]))
        assert all(b >= a for a, b in zip(amps, amps[1:]))

    def test_measured_error_below_bound_everywhere(self):
        for seed in range(5):
            plan, fac, phibar = _elliptic_plan(seed=seed)
            curve = error_bound_curve(plan, fac, phibar_reference=phibar)
            for p in curve:
                assert p.true_error <= p.bound * (1.0 + 1e-12) + 1e-15

    def test_alternate_diagnostics_present_but_inert(self):
        plan, fac, _ = _elliptic_plan()
        curve = error_bound_curve(plan, fac)
        for p in curve:
            if p.retained:
                assert p.lambda_retained_max is not None
                assert p.bound == pytest.approx(
                    p.tail_bound + plan.eps_prime * p.amplification
                )
            else:
                assert p.lambda_retained_max is None


def _unscaled_errors(plan, fac, reference, kept):
    """The measured errors from squares taken without a scale, and those squares."""
    w = scale_weights(fac.model, 0.5 * plan.source.s)
    with np.errstate(all="ignore"):
        drop_sq = (w * (fac.z.coeffs - reference.coeffs)) ** 2
        ret_sq = (w * (fac.z.coeffs / fac.complements - reference.coeffs)) ** 2
    prefix = np.concatenate(([0.0], np.cumsum(ret_sq)))
    suffix = np.concatenate((np.cumsum(drop_sq[::-1])[::-1], [0.0]))
    return np.sqrt(prefix[kept] + suffix[kept]), np.concatenate((drop_sq, ret_sq))


def _scaled_instance(z, ref, s):
    """Elliptic factors of complement above 0.8 with z and the reference replaced."""
    m = make_sine_spectrum_1d(len(z), 1.0)
    fac = build_factors(Elliptic(T=0.01, f=zeros(m), g=zeros(m)))
    fac = dataclasses.replace(fac, z=from_coeffs(m, z))
    source = SourceCondition(M=1.0, G=power_source_function(1.0), s=s)
    return RegularizerPlan(n=1.0, eps_prime=1e-3, source=source), fac, from_coeffs(m, ref)


_SPREAD = st.one_of(
    st.just(0.0),
    st.builds(math.ldexp, st.floats(0.5, 1.0) | st.floats(-1.0, -0.5), st.integers(-250, 500)),
)


class TestMeasuredErrorScale:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.tuples(_SPREAD, _SPREAD), min_size=1, max_size=12),
        st.sampled_from([-0.5, 0.0, 0.5]),
    )
    def test_bits_unchanged_where_no_square_over_or_underflows(self, pairs, s):
        # values up to 2**500 take the scale, values from 2**-250 on keep
        # normal squares after it: the scaled errors are the unscaled bits
        z, ref = (list(c) for c in zip(*pairs))
        plan, fac, reference = _scaled_instance(z, ref, s)
        curve = error_bound_curve(plan, fac, phibar_reference=reference)
        want, squares = _unscaled_errors(plan, fac, reference, [p.retained for p in curve])
        nonzero = squares[squares != 0.0]
        assume(np.all(np.isfinite(nonzero)) and np.all(nonzero >= np.finfo(float).tiny))
        assert np.all(np.isfinite(want))
        got = np.array([p.true_error for p in curve])
        assert got.tobytes() == want.tobytes()

    def test_errors_past_the_square_overflow_scale_exactly(self):
        # z and the reference times 2**600: every square overflows, and every
        # measured error is the unscaled one times 2**600, bit for bit
        rng = np.random.default_rng(3)
        z, ref = rng.standard_normal(9), rng.standard_normal(9)
        plan, fac, reference = _scaled_instance(z, ref, -0.5)
        small = [p.true_error for p in error_bound_curve(plan, fac, phibar_reference=reference)]
        plan, fac, reference = _scaled_instance(np.ldexp(z, 600), np.ldexp(ref, 600), -0.5)
        big = [p.true_error for p in error_bound_curve(plan, fac, phibar_reference=reference)]
        assert np.all(np.isinf(_unscaled_errors(plan, fac, reference, np.arange(10))[0]))
        assert big == [math.ldexp(e, 600) for e in small]


class TestSelectNStar:
    def test_no_noise_retains_everything(self):
        plan, fac, _ = _elliptic_plan()
        quiet = RegularizerPlan(n=1.0, eps_prime=0.0, source=plan.source)
        sel = select_n_star(quiet, fac)
        grid = candidate_cutoffs(fac.model)
        assert sel.n_star == pytest.approx(grid[-1])
        assert sel.bound_at_star == 0.0

    def test_zero_source_retains_nothing(self):
        plan, fac, _ = _elliptic_plan()
        src = SourceCondition(M=0.0, G=plan.source.G, s=plan.source.s)
        loud = RegularizerPlan(n=1.0, eps_prime=1e-3, source=src)
        sel = select_n_star(loud, fac)
        grid = candidate_cutoffs(fac.model)
        assert sel.n_star == pytest.approx(grid[0])

    def test_crossing_isolates_two_modes(self):
        # G(lambda) = lambda with M = 1; amplification for elliptic T = 1 is
        # cosh(lambda_max_retained)^2.  eps' = 0.01 makes the two terms cross
        # between the second and third eigenvalues.
        m = make_custom_spectrum([1.0, 2.0, 3.0, 4.0])
        fac = build_factors(Elliptic(T=1.0, f=zeros(m), g=zeros(m)))
        source = SourceCondition(M=1.0, G=lambda lam: lam, s=-0.5)
        plan = RegularizerPlan(n=1.0, eps_prime=0.01, source=source)
        sel = select_n_star(plan, fac)
        assert sel.n_star == pytest.approx(2.5)
        curve = error_bound_curve(plan, fac)
        assert curve[sel.index].retained == 2

    def test_tie_prefers_smaller_cutoff(self):
        # flat bound landscape: zero source and zero noise make every
        # candidate identical, so the first (smallest) must win
        m = make_custom_spectrum([1.0, 2.0])
        fac = build_factors(Elliptic(T=1.0, f=zeros(m), g=zeros(m)))
        src = SourceCondition(M=0.0, G=lambda lam: lam, s=0.0)
        plan = RegularizerPlan(n=1.0, eps_prime=0.0, source=src)
        sel = select_n_star(plan, fac)
        assert sel.index == 0


class TestSourceHelpers:
    def test_power_source_function(self):
        G = power_source_function(1.0)
        assert G(math.pi) == pytest.approx(oracles.SQRT_1_PLUS_PI2, rel=1e-14)
        # equal exponents give equal weights
        assert power_source_function(1) == G and power_source_function(2.0) != G
        with pytest.raises(ConfigError):
            power_source_function(0.0)

    def test_source_constant_definition(self):
        m = make_sine_spectrum_1d(3, 1.0)
        phibar = from_coeffs(m, [1.0, 0.5, 0.25])
        G = power_source_function(2.0)
        s = -0.5
        got = source_constant(phibar, G, s)
        w = scale_weights(m, s)
        g = (1.0 + m.eigenvalues**2) ** 1.0
        expected = math.sqrt(float(np.sum(w * (g * phibar.coeffs) ** 2)))
        assert got == pytest.approx(expected, rel=1e-14)

    def test_source_constant_past_square_overflow(self):
        # (G phibar)^2 overflows from about 1.3e154 on; M itself is finite
        m = make_sine_spectrum_1d(3, 1.0)
        phibar = from_coeffs(m, [1e200, -3e199, 0.0])
        G = power_source_function(2.0)
        w = scale_weights(m, -0.5)
        g = (1.0 + m.eigenvalues**2) ** 1.0
        expected = 1e200 * math.sqrt(float(np.sum(w * (g * phibar.coeffs / 1e200) ** 2)))
        assert source_constant(phibar, G, -0.5) == pytest.approx(expected, rel=1e-14)

    def test_source_constant_past_float_max_is_silent_and_refused(self):
        # G phibar = 1e10 * 1e307 overflows: M reads inf with no warning, and
        # the source condition refuses it
        m = make_custom_spectrum([1.0, 1e10])
        G = power_source_function(1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            M = source_constant(from_coeffs(m, [1.0, 1e307]), G, 0.0)
        assert not math.isfinite(M)
        with pytest.raises(ConfigError, match="^M must be a non-negative finite real"):
            SourceCondition(M=M, G=G, s=0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.floats(-1e100, 1e100).filter(lambda x: x == 0.0 or abs(x) >= 1e-100),
            min_size=1,
            max_size=12,
        ),
        st.sampled_from([-1.0, -0.5, 0.0, 0.5]),
        st.sampled_from([0.5, 1.0, 2.0]),
    )
    def test_source_constant_bits_unchanged_where_square_fits(self, coeffs, s, q):
        # the power-of-two scaling is exact: where no square over- or
        # underflows, the direct formula and the scaled one give the same bits
        m = make_sine_spectrum_1d(len(coeffs), 1.0)
        phibar = from_coeffs(m, coeffs)
        G = power_source_function(q)
        g = np.asarray([G(x) for x in m.eigenvalues])
        direct = float(np.sqrt(np.sum(scale_weights(m, s) * (g * phibar.coeffs) ** 2)))
        assert source_constant(phibar, G, s) == direct

    def test_overflowing_source_weight_refused_in_both_places(self):
        # (1 + lambda^2)^2 at lambda = 1e100 overflows a float: the Python
        # power raises OverflowError instead of returning inf
        m = make_custom_spectrum([1.0, 2.0, 1e100])
        G = power_source_function(4.0)
        with pytest.raises(ConfigError, match=r"^G\(1e\+100\) overflows a float$"):
            source_constant(from_coeffs(m, [1.0, 0.5, 1e-300]), G, -0.5)
        fac = build_factors(Elliptic(T=1e-101, f=zeros(m), g=zeros(m)))
        plan = RegularizerPlan(n=1.0, eps_prime=0.0, source=SourceCondition(M=1.0, G=G, s=-0.5))
        with pytest.raises(ConfigError, match=r"^G\(5e\+99\) overflows a float$"):
            error_bound_curve(plan, fac)
        with pytest.raises(ConfigError, match=r"^G\(5e\+99\) overflows a float$"):
            select_n_star(plan, fac)

    def test_source_weights_agree_bitwise_scalar_and_array(self):
        # one numpy power for a float and for an array: G(x) is the array
        # weight at x bit for bit, up to the last lambda before G overflows
        ladder = np.geomspace(1e-3, 1e300, 3001)
        for q in (0.5, 1.0, 2.0, 3.0, 4.0):
            G = power_source_function(q)

            def finite(bits):
                try:
                    return bool(G(float(np.int64(bits).view(np.float64))))
                except OverflowError:
                    return False

            # bisect the bit patterns (monotone for positive floats) for the
            # last lambda with a finite weight
            lo, hi = int(ladder.view(np.int64)[0]), int(ladder.view(np.int64)[-1])
            assert finite(lo) and not finite(hi)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if finite(mid) else (lo, mid)
            top = float(np.int64(lo).view(np.float64))
            xs = np.append(ladder[ladder < top], top)
            g = regularization._source_weights(G, xs)
            assert [G(x) for x in xs.tolist()] == g.tolist()
            assert all(type(G(x)) is float for x in xs[::500].tolist())
            past = math.nextafter(top, math.inf)
            msg = rf"^G\({re.escape(repr(past))}\) overflows a float$"
            with pytest.raises(ConfigError, match=msg):
                regularization._source_weights(G, np.append(xs, [past, 1e300]))

    def test_source_weight_of_an_infinite_square_overflows(self):
        # at lambda = 1e200, 1 + lambda^2 is already inf: the weight is
        # refused as an overflow, in all three places
        m = make_custom_spectrum([1.0, 2.0, 1e200])
        G = power_source_function(1.0)
        with pytest.raises(ConfigError, match=r"^G\(1e\+200\) overflows a float$"):
            source_constant(from_coeffs(m, [1.0, 0.5, 1e-300]), G, -0.5)
        fac = build_factors(Elliptic(T=1e-201, f=zeros(m), g=zeros(m)))
        plan = RegularizerPlan(n=1.0, eps_prime=0.0, source=SourceCondition(M=1.0, G=G, s=-0.5))
        for run in (error_bound_curve, select_n_star):
            with pytest.raises(ConfigError, match=r"^G\(5e\+199\) overflows a float$"):
                run(plan, fac)

    def test_custom_source_weight_called_once_per_truncating_candidate(self):
        plan, fac, phibar = _elliptic_plan(n_modes=40)
        want_curve = error_bound_curve(plan, fac, phibar_reference=phibar)
        calls = []

        def G(lam, G0=plan.source.G):
            calls.append(lam)
            return G0(lam)

        plan = dataclasses.replace(plan, source=dataclasses.replace(plan.source, G=G))
        truncating = [p.n for p in want_curve if p.retained < fac.model.n_modes]
        assert len(truncating) == 40
        for _ in range(2):  # nothing is kept between calls
            calls.clear()
            curve = error_bound_curve(plan, fac, phibar_reference=phibar)
            assert calls == truncating
            calls.clear()
            sel = select_n_star(plan, fac)
            assert calls == truncating
            # G0 on Python floats gives the bits of the array weight
            assert curve == want_curve and all(type(p) is BoundPoint for p in curve)
            assert sel.bound_at_star == curve[sel.index].bound
        grid = [p.n for p in curve[::2]]
        truncating = [p.n for p in curve[::2] if p.retained < fac.model.n_modes]
        calls.clear()
        custom = select_n_star(plan, fac, candidates=grid)
        assert calls == truncating
        calls.clear()
        assert error_bound_curve(plan, fac, candidates=grid)[custom.index].bound == custom.bound_at_star
        assert calls == truncating

    def test_unhashable_source_weight(self):
        class Weight:
            __hash__ = None  # unhashable, like a dataclass with eq and no frozen

            def __init__(self):
                self.calls = 0

            def __call__(self, lam):
                self.calls += 1
                return 1.0 + lam

        G = Weight()
        with pytest.raises(TypeError):
            hash(G)
        m = make_custom_spectrum([1.0, 2.0])
        phibar = from_coeffs(m, [1.0, 0.5])
        fac = build_factors(Elliptic(T=1.0, f=zeros(m), g=zeros(m)))
        plan = RegularizerPlan(n=1.0, eps_prime=0.0, source=SourceCondition(M=2.0, G=G, s=0.0))
        for want_calls in (2 + 2, 8):  # nothing is kept: a second round calls G again
            assert source_constant(phibar, G, 0.0) == math.sqrt(2.0**2 + 1.5**2)
            assert [p.tail_bound for p in error_bound_curve(plan, fac)] == [2.0 / 1.5, 2.0 / 2.5, 0.0]
            assert G.calls == want_calls

    def test_refused_source_weight_is_refused_again(self):
        m = make_custom_spectrum([1.0, 2.0])
        fac = build_factors(Elliptic(T=1.0, f=zeros(m), g=zeros(m)))
        results = [math.nan, 1.0]
        src = SourceCondition(M=1.0, G=lambda lam: results[0], s=0.0)
        plan = RegularizerPlan(n=1.0, eps_prime=0.0, source=src)
        for _ in range(2):
            with pytest.raises(ConfigError, match=r"^G\(0\.5\) = nan is not a positive finite value$"):
                error_bound_curve(plan, fac)
        for _ in range(2):
            with pytest.raises(ConfigError, match=r"^G\(1\.0\) = nan is not a positive finite value$"):
                source_constant(from_coeffs(m, [1.0, 0.5]), src.G, 0.0)
        results.reverse()  # G now returns 1.0: nothing refused was kept
        assert [p.tail_bound for p in error_bound_curve(plan, fac)] == [1.0, 1.0, 0.0]
        assert source_constant(from_coeffs(m, [1.0, 0.5]), src.G, 0.0) == math.sqrt(1.25)

    def test_source_constant_refuses_what_the_curve_refuses(self):
        m = make_custom_spectrum([1.0, 2.0])
        phibar = from_coeffs(m, [1.0, 0.0])
        for bad in (0.0, -1.0, math.inf, math.nan):
            G = lambda lam, bad=bad: 1.0 if lam < 1.5 else bad  # noqa: E731
            msg = r"^G\(2\.0\) = .* is not a positive finite value$"
            with pytest.raises(ConfigError, match=msg):
                source_constant(phibar, G, 0.0)

    def test_measure_eps_prime_is_z_distance(self):
        plan, fac, _ = _elliptic_plan()
        assert measure_eps_prime(fac, fac, -0.5) == 0.0

    def test_plan_validation(self):
        src = SourceCondition(M=1.0, G=lambda lam: lam, s=0.0)
        with pytest.raises(ConfigError):
            RegularizerPlan(n=0.0, eps_prime=0.0, source=src)
        with pytest.raises(ConfigError):
            RegularizerPlan(n=1.0, eps_prime=-1.0, source=src)
        for bad in (math.inf, math.nan):
            with pytest.raises(ConfigError):
                RegularizerPlan(n=1.0, eps_prime=bad, source=src)
        with pytest.raises(ConfigError):
            SourceCondition(M=-1.0, G=lambda lam: lam, s=0.0)


# ---------------------------------------------------------------------------
# the one-pass bound curve against a per-candidate reference


def _reference_curve(plan, fac, reference, grid):
    """Per-candidate evaluation: O(N) work and one fixed point per cutoff."""
    lam, comp = fac.model.eigenvalues, fac.complements
    rows = []
    for n in grid.tolist():
        retained = lam <= n
        k = int(np.count_nonzero(retained))
        tail = plan.source.M / float(plan.source.G(n)) if k < lam.size else 0.0
        if not k:
            amp = 1.0
        elif np.any(comp[retained] == 0.0):
            amp = math.inf
        else:
            with np.errstate(divide="ignore", over="ignore"):
                amp = max(1.0, float(np.max(1.0 / comp[retained])))
        bound = math.inf if amp == math.inf else tail + plan.eps_prime * amp
        try:
            d = (regularized_fixed_point(fac, fac.z, n) - reference).coeffs
            # scaled by a power of two, so that a finite error past 1.3e154
            # does not read inf from an overflowing square
            e = int(np.frexp(np.max(np.abs(d)))[1])
            err = math.ldexp(norm_s(from_coeffs(fac.model, np.ldexp(d, -e)), plan.source.s), e)
        except DegenerateComplementError:
            err = math.inf
        lam_max = float(lam[retained][-1]) if k else None
        rows.append((float(n), k, lam_max, tail, amp, bound, err))
    return rows


def _reference_selection(grid, bounds):
    best = None
    for i, b in enumerate(bounds):
        if not math.isnan(b) and (best is None or b < bounds[best]):
            best = i
    return CutoffSelection(n_star=float(grid[best]), bound_at_star=bounds[best], index=best)


@st.composite
def _spectra(draw):
    kind = draw(st.sampled_from(["sine1d", "rect", "custom"]))
    if kind == "sine1d":
        return make_sine_spectrum_1d(draw(st.integers(1, 40)), draw(st.sampled_from([0.5, 1.0])))
    if kind == "rect":
        lx = draw(st.sampled_from([1.0, 2.0]))
        ly = draw(st.sampled_from([1.0, 2.0, 1.5]))  # lx == ly gives exact ties
        return make_sine_spectrum_rect(draw(st.integers(1, 6)), draw(st.integers(1, 6)), lx, ly)
    gaps = draw(st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0, 7.0]), min_size=1, max_size=30))
    return make_custom_spectrum(1.0 + np.cumsum(gaps))  # zero gaps are exact ties


@st.composite
def _candidate_grids(draw, model):
    lam = model.eigenvalues
    picks = draw(st.lists(st.integers(0, lam.size - 1), min_size=1, max_size=12))
    shift = st.sampled_from([-1.0, 0.0, 1.0, 0.5])
    grid = []
    for j in picks:
        how = draw(shift)
        if how == 0.5:
            grid.append(0.5 * float(lam[j]))
        else:  # the eigenvalue itself, or the next float below or above it
            grid.append(float(np.nextafter(lam[j], lam[j] + how)) if how else float(lam[j]))
    return grid


class TestOnePassCurveMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        model=_spectra(),
        family=st.sampled_from(["elliptic", "parabolic"]),
        gamma=st.sampled_from([1.0, 1.8]),
        reach=st.sampled_from([0.5, 5.0, 40.0, 380.0, 600.0]),
        eps_prime=st.sampled_from([0.0, 1e-9, 1e-3, 1.0]),
        M=st.sampled_from([0.0, 1e-3, 1.0, 50.0]),
        q=st.sampled_from([0.5, 1.0, 2.0]),
        s=st.sampled_from([-0.5, 0.0, 0.5]),
        custom_grid=st.booleans(),
        near_reference=st.booleans(),
    )
    def test_matches_per_candidate_loop(
        self, data, model, family, gamma, reach, eps_prime, M, q, s, custom_grid,
        near_reference,
    ):
        # reach = T * lambda_max; at 600 the elliptic complements sech^2
        # underflow (subnormal, then exactly zero) at the top of the spectrum;
        # parabolic gamma > 1 puts complements above 1, below the floor
        lam_max = model.lambda_max
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        g = from_coeffs(model, rng.standard_normal(model.n_modes))
        if family == "elliptic":
            spec = Elliptic(T=reach / lam_max, f=zeros(model), g=g)
        else:
            spec = Parabolic(T=reach / lam_max**2, f=g, gamma=gamma)
        fac = build_factors(spec)
        reference = from_coeffs(model, rng.standard_normal(model.n_modes))
        if near_reference:
            # a trace decaying over 12 decades and a z whose fixed point is
            # that trace up to 1e-9: the measured error is then tiny next to
            # the leading terms of its sums, where cancellation would show
            trace = rng.standard_normal(model.n_modes) * np.logspace(0, -12, model.n_modes)
            noisy = trace + 1e-9 * rng.standard_normal(model.n_modes)
            reference = from_coeffs(model, trace)
            fac = dataclasses.replace(fac, z=from_coeffs(model, fac.complements * noisy))
        source = SourceCondition(M=M, G=power_source_function(q), s=s)
        plan = RegularizerPlan(n=1.0, eps_prime=eps_prime, source=source)
        grid = candidate_cutoffs(model)
        candidates = None
        if custom_grid:
            candidates = data.draw(_candidate_grids(model))
            grid = np.sort(np.asarray(candidates))

        curve = error_bound_curve(plan, fac, phibar_reference=reference, candidates=candidates)
        want = _reference_curve(plan, fac, reference, grid)
        assert [
            (p.n, p.retained, p.lambda_retained_max, p.tail_bound, p.amplification, p.bound)
            for p in curve
        ] == [row[:6] for row in want]
        got_err = np.array([p.true_error for p in curve])
        want_err = np.array([row[6] for row in want])
        np.testing.assert_array_equal(np.isinf(got_err), np.isinf(want_err))
        fin = np.isfinite(want_err)
        assert np.all(np.abs(got_err[fin] - want_err[fin]) <= 1e-13 * want_err[fin])

        sel = select_n_star(plan, fac, candidates=candidates)
        assert sel == _reference_selection(grid, [row[5] for row in want])
        assert sel.bound_at_star == curve[sel.index].bound


@st.composite
def _near_tie_spectra(draw):
    """Ascending spectra with exact ties, adjacent floats and, near the float
    max, midpoints whose sum overflows."""
    if draw(st.booleans()):
        lx = draw(st.sampled_from([1.0, 2.0]))
        ly = draw(st.sampled_from([1.0, 2.0, 1.5]))  # lx == ly gives exact ties
        return make_sine_spectrum_rect(draw(st.integers(1, 8)), draw(st.integers(1, 8)), lx, ly)
    top = np.finfo(float).max
    lam = [draw(st.sampled_from([1e-300, 1.0, 8e307]))]
    for step in draw(st.lists(st.sampled_from(["tie", "ulp", "2ulp", "grow"]), max_size=30)):
        x = lam[-1]
        if step == "ulp":
            x = np.nextafter(x, top)
        elif step == "2ulp":
            x = np.nextafter(np.nextafter(x, top), top)
        elif step == "grow":
            x = min(1.25 * x, top)
        lam.append(float(x))
    return make_custom_spectrum(lam)


class TestDefaultGridCounts:
    @settings(max_examples=200, deadline=None)
    @given(model=_near_tie_spectra(), parabolic=st.booleans())
    def test_counts_are_group_ends(self, model, parabolic):
        lam = model.eigenvalues
        grid, kept = regularization._default_grid(lam)
        assert grid.tobytes() == candidate_cutoffs(model).tobytes()
        assert kept.tolist() == np.searchsorted(lam, grid, side="right").tolist()
        # 0, the end of every group of equal eigenvalues, and N, once each
        ends = np.flatnonzero(np.append(lam[1:] != lam[:-1], True)) + 1
        assert kept.tolist() == [0] + ends.tolist()

        if parabolic:  # lambda^2 overflows near the float max; the heat factor is then 0
            fac = build_factors(Parabolic(T=1.0, f=zeros(model)))
        else:
            fac = build_factors(Elliptic(T=1e-3 / float(lam[-1]), f=zeros(model), g=zeros(model)))
        plan = RegularizerPlan(n=1.0, eps_prime=1e-3, source=SourceCondition(0.0, lambda lam: lam, 0.0))
        assert [p.retained for p in error_bound_curve(plan, fac)] == kept.tolist()


class TestCollectorPause:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_restores_collector_state(self, enabled):
        plan, fac, phibar = _elliptic_plan(n_modes=8)
        was = gc.isenabled()
        try:
            if enabled:
                gc.enable()
            else:
                gc.disable()
            error_bound_curve(plan, fac, phibar_reference=phibar)
            assert gc.isenabled() is enabled
        finally:
            if was:
                gc.enable()
            else:
                gc.disable()

    def test_no_collection_while_building_points(self):
        # a tuple subclass stays tracked, so 4097 new points would set off
        # young collections every 700 allocations
        plan, fac, phibar = _elliptic_plan(T=0.05, n_modes=4096, eps=1e-3)
        starts = []

        def count(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.collect()
        gc.callbacks.append(count)
        try:
            curve = error_bound_curve(plan, fac, phibar_reference=phibar)
        finally:
            gc.callbacks.remove(count)
        assert len(curve) == 4097
        assert starts == []


# ---------------------------------------------------------------------------
# the curve against the frozen-dataclass build it replaced


def _bits(values):
    """Type and repr of each field: repr tells -0.0, inf, nan and None apart."""
    return [(type(v), repr(v)) for v in values]


def _assert_same_points(curve, want):
    assert [f.name for f in dataclasses.fields(oracles.BoundPoint)] == list(BoundPoint._fields)
    assert len(curve) == len(want)
    for got, ref in zip(curve, want):
        assert type(got) is BoundPoint
        assert _bits(got) == _bits(dataclasses.astuple(ref))


def _curve_case(name, n_modes):
    """Plan, factors, reference and candidates of one named comparison case."""
    if name == "degenerate":
        # sech(800)^2 underflows to 0; a -0.0 complement is degenerate too
        m = make_custom_spectrum([1.0, 2.0, 3.0, 800.0])
        fac = build_factors(Elliptic(T=1.0, f=zeros(m), g=from_coeffs(m, [1.0, -2.0, 0.5, 0.0])))
        comp = np.where(m.eigenvalues == 2.0, -0.0, fac.complements)
        fac = dataclasses.replace(fac, complements=comp)
        source = SourceCondition(M=1.0, G=lambda lam: lam, s=-0.5)
        plan = RegularizerPlan(n=1.0, eps_prime=1e-3, source=source)
        return plan, fac, from_coeffs(m, [1.0, 1.0, 1.0, 1.0]), None
    plan, fac, phibar = _elliptic_plan(T=0.05, n_modes=n_modes, eps=1e-3)
    if name == "below the spectrum":
        lam0 = float(fac.model.eigenvalues[0])
        return plan, fac, phibar, [0.25 * lam0, np.nextafter(lam0, 0.0), 0.5 * lam0]
    if name == "signed zeros":
        # M = -0.0 and eps' = -0.0 pass validation and give -0.0 tails and
        # bounds; a reference equal to the fixed point gives 0.0 errors
        source = SourceCondition(M=-0.0, G=plan.source.G, s=plan.source.s)
        plan = RegularizerPlan(n=1.0, eps_prime=-0.0, source=source)
        return plan, fac, fixed_point(fac), None
    return plan, fac, phibar, None


class TestCurveMatchesDataclassOracle:
    @pytest.mark.parametrize("with_reference", [True, False])
    @pytest.mark.parametrize(
        "name, n_modes",
        [
            ("default grid", 1),
            ("default grid", 2),
            ("default grid", 4096),
            ("below the spectrum", 1),
            ("below the spectrum", 4096),
            ("signed zeros", 2),
            ("degenerate", None),
        ],
    )
    def test_field_by_field(self, name, n_modes, with_reference):
        plan, fac, reference, candidates = _curve_case(name, n_modes)
        reference = reference if with_reference else None
        curve = error_bound_curve(plan, fac, phibar_reference=reference, candidates=candidates)
        want = oracles.error_bound_curve(plan, fac, reference, candidates)
        _assert_same_points(curve, want)
        if name == "below the spectrum":
            assert all(p.retained == 0 and p.lambda_retained_max is None for p in curve)
        if name == "degenerate":
            assert any(p.bound == math.inf for p in curve)
        if name == "signed zeros":
            assert "-0.0" in {repr(p.tail_bound) for p in curve[:-1]}
            assert "-0.0" in {repr(p.bound) for p in curve}
        if not with_reference:
            assert all(p.true_error is None for p in curve)

    def test_defaults_and_immutability(self):
        p = BoundPoint(n=1.5, tail_bound=2.0, amplification=1.0, bound=2.5)
        assert (p.true_error, p.retained, p.lambda_retained_max) == (None, 0, None)
        assert p == (1.5, 2.0, 1.0, 2.5, None, 0, None)
        assert len(p) == 7
        n, tail, *_ = p
        assert (n, tail) == (1.5, 2.0)
        assert p._replace(retained=3).retained == 3
        assert p._asdict()["bound"] == 2.5
        for field in BoundPoint._fields:
            with pytest.raises(AttributeError):
                setattr(p, field, 0.0)
