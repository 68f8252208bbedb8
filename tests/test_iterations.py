import dataclasses
import math
import sys
import warnings
from fractions import Fraction
from typing import Optional

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import kmiter.iterations
from kmiter.errors import ConfigError, DegenerateComplementError, ModeOverflowError, ResonanceError
from kmiter.iterations import (
    CheckpointRecord,
    IterationFactors,
    IterationReport,
    IterationSchedule,
    StoppingRule,
    build_factors,
    check_operator_conditions,
    default_scale,
    fixed_point,
    iterate_closed_form,
    iterate_stepwise,
    report_closed_form,
    run_schedule,
)
from kmiter.problems import (
    OVERFLOW_LIMIT,
    Elliptic,
    Hyperbolic,
    Parabolic,
    elliptic_dt_solution_at,
    hyperbolic_solution_dt0,
    parabolic_backward_trace,
)
from kmiter.regularization import regularized_fixed_point
from kmiter.spectral import (
    SpectralVec,
    from_coeffs,
    make_custom_spectrum,
    make_sine_spectrum_1d,
    norm_s,
    scale_weights,
    unit_mode,
    zeros,
)

import oracles


def elliptic_unit(k=1, n=3, T=1.0):
    m = make_sine_spectrum_1d(n, 1.0)
    return Elliptic(T=T, f=zeros(m), g=unit_mode(m, k))


class TestBuildFactors:
    def test_elliptic_first_mode(self):
        fac = build_factors(elliptic_unit())
        assert fac.kind == "elliptic"
        assert fac.factors[0] == pytest.approx(oracles.TANH_PI_SQ, rel=1e-14)
        assert fac.complements[0] == pytest.approx(oracles.SECH_PI_SQ, rel=1e-14)
        assert fac.z.coeffs[0] == pytest.approx(oracles.INV_COSH_PI, rel=1e-14)
        assert fac.gamma is None and fac.gamma_strict_status is None

    def test_elliptic_complement_sums_to_one(self):
        fac = build_factors(elliptic_unit(n=8))
        np.testing.assert_allclose(fac.factors + fac.complements, 1.0, rtol=1e-14)

    def test_elliptic_complement_positive_far_out(self):
        # direct 1 - tanh^2 would round to zero long before this
        m = make_custom_spectrum([50.0, 200.0, 300.0])
        fac = build_factors(Elliptic(T=1.0, f=zeros(m), g=zeros(m)))
        assert np.all(fac.complements > 0.0)
        assert fac.complements[2] == pytest.approx(4.0 * math.exp(-600.0), rel=1e-12)

    def test_parabolic_gamma_two(self):
        m = make_sine_spectrum_1d(3, 1.0)
        f = unit_mode(m, 1)
        fac = build_factors(Parabolic(T=0.0625, f=f, gamma=2.0))
        assert fac.factors[0] == pytest.approx(
            oracles.ONE_MINUS_2EXP_NEG_PI2_16, rel=1e-13
        )
        np.testing.assert_allclose(fac.z.coeffs, 2.0 * f.coeffs, rtol=1e-15)
        assert fac.gamma == 2.0

    def test_parabolic_strict_status(self):
        # lambda_min^2 T > ln 2 and gamma below exp(lambda_min^2 T): holds
        m = make_custom_spectrum([1.0])
        assert (
            build_factors(Parabolic(T=1.0, f=zeros(m), gamma=1.0)).gamma_strict_status
            == "holds"
        )
        # same geometry, gamma above the strict limit e^1 but below 2e^1
        assert (
            build_factors(Parabolic(T=1.0, f=zeros(m), gamma=2.9)).gamma_strict_status
            == "violated"
        )
        # lambda_min^2 T < ln 2: the strict threshold is not a real number
        assert (
            build_factors(Parabolic(T=0.5, f=zeros(m), gamma=1.0)).gamma_strict_status
            == "unverified"
        )

    def test_zero_data_zero_affine_term(self):
        m = make_sine_spectrum_1d(4, 1.0)
        z = zeros(m)
        for spec in (
            Elliptic(T=1.0, f=z, g=z),
            Hyperbolic(T=1.0 / math.pi, f=z, g=z),
            Parabolic(T=0.1, f=z),
        ):
            np.testing.assert_array_equal(build_factors(spec).z.coeffs, 0.0)

    def test_hyperbolic_variants(self):
        m = make_custom_spectrum([2.0])
        f = from_coeffs(m, [0.5])
        g = from_coeffs(m, [1.0])
        p = Hyperbolic(T=1.0, f=f, g=g)
        lam, T = 2.0, 1.0
        sn, cs = math.sin(lam * T), math.cos(lam * T)
        fac = build_factors(p)
        assert fac.factors[0] == pytest.approx(cs * cs, rel=1e-15)
        assert fac.complements[0] == pytest.approx(sn * sn, rel=1e-15)
        assert fac.z.coeffs[0] == pytest.approx(
            -cs * sn * lam * 0.5 + lam * sn * 1.0, rel=1e-14
        )

    def test_default_scale(self):
        assert default_scale("elliptic") == -0.5
        assert default_scale("hyperbolic") == 0.0
        assert default_scale("parabolic") == 0.0

    def test_multipliers_never_expand(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            lam = np.sort(rng.uniform(0.3, 40.0, size=6))
            m = make_custom_spectrum(lam)
            T = float(rng.uniform(0.05, 2.0))
            z = zeros(m)
            assert np.max(np.abs(build_factors(Elliptic(T=T, f=z, g=z)).factors)) <= 1.0
            try:
                h = Hyperbolic(T=T, f=z, g=z)
            except Exception:
                h = None
            if h is not None:
                assert np.max(np.abs(build_factors(h).factors)) <= 1.0
            gamma = float(rng.uniform(0.2, 1.9))
            fac = build_factors(Parabolic(T=T, f=z, gamma=gamma))
            assert np.max(np.abs(fac.factors)) <= 1.0
            # the displayed F rounds to 1 once the complement drops below
            # machine epsilon, but strict contraction is carried by the
            # complement itself: 1 - F > 0 and F > -1 per mode
            assert np.all(fac.complements > 0.0) or T * lam[-1] ** 2 > 700
            assert np.all(fac.factors > -1.0)


    def test_elliptic_phase_past_the_float_max_is_refused(self):
        m = make_custom_spectrum([1.0, 8e307])
        one = from_coeffs(m, [1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=r"mode positions \[1\] \(eigenvalues \[8e\+307\]\)"):
                build_factors(Elliptic(T=100.0, f=one, g=one))


class TestFixedPoint:
    def test_elliptic_matches_dt_trace(self):
        for k, expected in ((1, oracles.COSH_PI), (2, oracles.COSH_2PI), (3, oracles.COSH_3PI)):
            spec = elliptic_unit(k)
            fp = fixed_point(build_factors(spec))
            assert fp.coeffs[k - 1] == pytest.approx(expected, rel=1e-12)
            ref = elliptic_dt_solution_at(spec, spec.T)
            np.testing.assert_allclose(fp.coeffs, ref.coeffs, rtol=1e-12)

    def test_parabolic_matches_backward_trace(self):
        m = make_sine_spectrum_1d(4, 1.0)
        f = from_coeffs(m, [1.0, -0.3, 0.2, 0.05])
        spec = Parabolic(T=0.0625, f=f)
        fp = fixed_point(build_factors(spec))
        np.testing.assert_allclose(
            fp.coeffs, parabolic_backward_trace(spec).coeffs, rtol=1e-12
        )
        assert fp.coeffs[0] / f.coeffs[0] == pytest.approx(
            oracles.EXP_PI2_16, rel=1e-13
        )

    def test_hyperbolic_matches_velocity(self):
        m = make_custom_spectrum([1.0, 2.2, 4.5])
        f = from_coeffs(m, [0.4, 0.0, -0.9])
        g = from_coeffs(m, [0.1, 1.0, 0.3])
        spec = Hyperbolic(T=1.0, f=f, g=g)
        np.testing.assert_allclose(
            fixed_point(build_factors(spec)).coeffs,
            hyperbolic_solution_dt0(spec).coeffs,
            rtol=1e-12,
        )

    def test_zero_affine_term(self):
        m = make_sine_spectrum_1d(3, 1.0)
        z = zeros(m)
        fp = fixed_point(build_factors(Elliptic(T=1.0, f=z, g=z)))
        np.testing.assert_array_equal(fp.coeffs, 0.0)

    def test_degenerate_complement_raises(self):
        # exp(-lambda^2 T) underflows to exactly zero: multiplier rounds to 1
        m = make_custom_spectrum([1.0, 40.0])
        fac = build_factors(Parabolic(T=1.0, f=zeros(m)))
        assert fac.complements[1] == 0.0
        with pytest.raises(DegenerateComplementError) as err:
            fixed_point(fac)
        assert err.value.mode_indices == (1,)


class TestClosedFormIterate:
    def test_zero_steps_returns_start(self):
        fac = build_factors(elliptic_unit())
        phi0 = from_coeffs(fac.model, [4.0, 5.0, 6.0])
        out = iterate_closed_form(fac, phi0, 0)
        np.testing.assert_array_equal(out.coeffs, phi0.coeffs)

    def test_single_mode_thousand_steps(self):
        m = make_custom_spectrum([math.pi])
        fac = build_factors(Elliptic(T=1.0, f=zeros(m), g=unit_mode(m, 1)))
        phi = iterate_closed_form(fac, zeros(m), 1000)
        assert phi.coeffs[0] == pytest.approx(
            oracles.COSH_PI_TIMES_1M_TANH_PI_2000, rel=1e-12
        )
        rel = abs(phi.coeffs[0] - oracles.COSH_PI) / oracles.COSH_PI
        assert rel == pytest.approx(oracles.TANH_PI_2000, rel=1e-10)

    def test_parabolic_limit_is_backward_value(self):
        m = make_sine_spectrum_1d(1, 1.0)
        f = unit_mode(m, 1)
        fac = build_factors(Parabolic(T=0.0625, f=f, gamma=2.0))
        phi = iterate_closed_form(fac, zeros(m), 10**9)
        assert phi.coeffs[0] == pytest.approx(oracles.EXP_PI2_16, rel=1e-12)

    def test_degenerate_mode_grows_linearly(self):
        m = make_custom_spectrum([1.0, 40.0])
        f = from_coeffs(m, [1.0, 1e-3])
        fac = build_factors(Parabolic(T=1.0, f=f))
        phi0 = from_coeffs(m, [0.0, 7.0])
        out = iterate_closed_form(fac, phi0, 10)
        # mode 1 has F exactly 1: phi_k = phi0 + k z
        assert out.coeffs[1] == pytest.approx(7.0 + 10 * 1e-3, rel=1e-14)

    @pytest.mark.parametrize(
        "family, modes",
        [
            # (1 - F^k)/(1 - F) g_j passes the float max at modes 2-5
            ("elliptic", (1, 2, 3, 4)),
            # gamma f_j summed over 1e9 steps, on every mode
            ("parabolic", tuple(range(64))),
        ],
    )
    def test_overflowing_iterate_is_refused_with_its_modes(self, family, modes):
        m = make_sine_spectrum_1d(64, 1.0)
        big = from_coeffs(m, np.full(64, 1e307))
        spec = Elliptic(T=1.0, f=zeros(m), g=big) if family == "elliptic" else Parabolic(T=1.0, f=big)
        fac = build_factors(spec)
        runs = (
            lambda: iterate_closed_form(fac, zeros(m), 10**9),
            lambda: report_closed_form(fac, zeros(m), IterationSchedule(checkpoints=(10**9,))),
        )
        for run in runs:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ModeOverflowError, match="iterate overflows") as info:
                    run()
            assert info.value.mode_indices == modes

    def test_finite_iterate_past_1e300_is_kept(self):
        m = make_sine_spectrum_1d(64, 1.0)
        fac = build_factors(Elliptic(T=1.0, f=zeros(m), g=from_coeffs(m, np.full(64, 1e304))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            phi = iterate_closed_form(fac, zeros(m), 10**9).coeffs
        assert np.isfinite(phi).all() and phi.max() > 1e307

    def test_negative_steps_rejected(self):
        fac = build_factors(elliptic_unit())
        with pytest.raises(ConfigError):
            iterate_closed_form(fac, zeros(fac.model), -1)

    def test_model_mismatch_rejected(self):
        fac = build_factors(elliptic_unit())
        with pytest.raises(ConfigError):
            iterate_closed_form(fac, zeros(make_sine_spectrum_1d(5, 1.0)), 3)


class TestStepwise:
    def test_zero_problem_stops_immediately(self):
        m = make_sine_spectrum_1d(4, 1.0)
        z = zeros(m)
        fac = build_factors(Elliptic(T=1.0, f=z, g=z))
        rep = iterate_stepwise(fac, zeros(m), IterationSchedule(checkpoints=(10, 100)))
        assert rep.final_k == 1
        assert len(rep.records) == 1
        assert rep.records[0].successive_diff == 0.0
        np.testing.assert_array_equal(rep.records[0].iterate.coeffs, 0.0)

    def test_agrees_with_closed_form(self):
        m = make_sine_spectrum_1d(16, 1.0)
        rng = np.random.default_rng(11)
        g = from_coeffs(m, rng.standard_normal(16))
        fac = build_factors(Elliptic(T=1.0, f=zeros(m), g=g))
        sched = IterationSchedule(checkpoints=(1, 10, 100, 1000), mode="stepwise")
        rep = iterate_stepwise(fac, zeros(m), sched)
        for rec in rep.records:
            exact = iterate_closed_form(fac, zeros(m), rec.k)
            np.testing.assert_allclose(rec.iterate.coeffs, exact.coeffs, rtol=1e-10)

    def test_successive_diff_telescopes(self):
        # single mode: diff ratio between consecutive steps is exactly |F|
        m = make_custom_spectrum([math.pi])
        fac = build_factors(Elliptic(T=1.0, f=zeros(m), g=unit_mode(m, 1)))
        sched = IterationSchedule(
            checkpoints=tuple(range(1, 8)), mode="stepwise"
        )
        rep = iterate_stepwise(fac, zeros(m), sched)
        diffs = [r.successive_diff for r in rep.records]
        ratios = np.array(diffs[1:]) / np.array(diffs[:-1])
        np.testing.assert_allclose(ratios, fac.factors[0], rtol=1e-12)
        # first difference is |1 - F| |phibar - phi0| in the iteration norm
        phibar = fixed_point(fac)
        expected = (1.0 - fac.factors[0]) * norm_s(phibar, -0.5)
        assert diffs[0] == pytest.approx(expected, rel=1e-12)

    def test_inf_in_phi0_reads_nan_without_a_warning(self):
        # F = 1.0 on the second mode, so each difference there is inf - inf
        m = make_custom_spectrum([0.5, 30.0])
        fac = build_factors(Elliptic(T=1.0, f=zeros(m), g=from_coeffs(m, [1.0, 1.0])))
        phi0 = from_coeffs(m, [0.0, math.inf])
        sched = IterationSchedule(checkpoints=(1, 2), mode="stepwise")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = iterate_stepwise(fac, phi0, sched)
        assert [(r.k, r.successive_diff != r.successive_diff, r.residual != r.residual)
                for r in got.records] == [(1, True, True), (2, True, True)]
        with np.errstate(invalid="ignore"):
            stepwise_reports_identical(got, ref_stepwise(fac, phi0, sched))

    @pytest.mark.parametrize("mode", ["stepwise", "closed_form"])
    def test_inf_in_phi0_under_a_zero_complement(self, mode):
        # 1 - F is exactly 0 on the second parabolic mode: 0 * inf there
        m = make_custom_spectrum([0.5, 30.0])
        fac = build_factors(Parabolic(T=1.0, f=from_coeffs(m, [1.0, 1.0])))
        sched = IterationSchedule(checkpoints=(1, 5), mode=mode)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            last = run_schedule(fac, from_coeffs(m, [math.inf, math.inf]), sched).records[-1]
        assert last.iterate.coeffs.tolist() == [math.inf, math.inf]
        assert last.successive_diff != last.successive_diff and last.residual != last.residual

    def test_tolerance_stop(self):
        fac = build_factors(elliptic_unit())
        sched = IterationSchedule(
            checkpoints=(1, 10**6),
            mode="stepwise",
            stop=StoppingRule(max_steps=10**6, successive_diff_tol=1e-6),
        )
        rep = iterate_stepwise(fac, zeros(fac.model), sched)
        assert rep.termination_reason == "tolerance"
        assert rep.final_k < 10**6
        assert rep.records[-1].k == rep.final_k
        assert rep.records[-1].successive_diff < 1e-6


class TestReports:
    def test_closed_form_report_matches_stepwise(self):
        m = make_sine_spectrum_1d(8, 1.0)
        rng = np.random.default_rng(5)
        g = from_coeffs(m, rng.standard_normal(8))
        fac = build_factors(Elliptic(T=1.0, f=zeros(m), g=g))
        ref = fixed_point(fac)
        sched_cf = IterationSchedule(checkpoints=(1, 5, 50))
        sched_sw = IterationSchedule(checkpoints=(1, 5, 50), mode="stepwise")
        rep_cf = report_closed_form(fac, zeros(m), sched_cf, reference=ref)
        rep_sw = iterate_stepwise(fac, zeros(m), sched_sw, reference=ref)
        assert [r.k for r in rep_cf.records] == [r.k for r in rep_sw.records]
        for a, b in zip(rep_cf.records, rep_sw.records):
            assert a.successive_diff == pytest.approx(b.successive_diff, rel=1e-10)
            assert a.residual == pytest.approx(b.residual, rel=1e-10)
            assert a.error_vs_reference == pytest.approx(
                b.error_vs_reference, rel=1e-10
            )

    def test_final_step_recorded_when_budget_extends(self):
        fac = build_factors(elliptic_unit())
        for mode in ("closed_form", "stepwise"):
            sched = IterationSchedule(
                checkpoints=(10,), mode=mode, stop=StoppingRule(max_steps=500)
            )
            rep = run_schedule(fac, zeros(fac.model), sched)
            assert [r.k for r in rep.records] == [10, 500], mode
            assert rep.final_k == 500

    def test_run_schedule_dispatch(self):
        fac = build_factors(elliptic_unit())
        phi0 = zeros(fac.model)
        a = run_schedule(fac, phi0, IterationSchedule(checkpoints=(25,)))
        b = run_schedule(
            fac, phi0, IterationSchedule(checkpoints=(25,), mode="stepwise")
        )
        np.testing.assert_allclose(
            a.records[-1].iterate.coeffs, b.records[-1].iterate.coeffs, rtol=1e-12
        )

    def test_schedule_validation(self):
        with pytest.raises(ConfigError):
            IterationSchedule(checkpoints=())
        with pytest.raises(ConfigError):
            IterationSchedule(checkpoints=(5, 5))
        with pytest.raises(ConfigError):
            IterationSchedule(checkpoints=(10, 2))
        with pytest.raises(ConfigError):
            IterationSchedule(checkpoints=(0,))
        with pytest.raises(ConfigError):
            IterationSchedule(checkpoints=(10,), stop=StoppingRule(max_steps=5))
        with pytest.raises(ConfigError):
            StoppingRule(max_steps=0)
        with pytest.raises(ConfigError):
            StoppingRule(max_steps=1, successive_diff_tol=-1.0)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: IterationSchedule(checkpoints=(10.7, 20)),
            lambda: IterationSchedule(checkpoints=("a",)),
            lambda: StoppingRule(max_steps=10.7),
            lambda: StoppingRule(max_steps=10, successive_diff_tol="x"),
            lambda: StoppingRule(max_steps=10, scale=[1]),
        ],
    )
    def test_schedule_values_of_the_wrong_type_refused(self, build):
        with pytest.raises(ConfigError, match="must be"):
            build()

    def test_integral_float_step_counts_are_ints(self):
        sched = IterationSchedule(checkpoints=(10.0, 20), stop=StoppingRule(max_steps=20.0))
        assert sched.checkpoints == (10, 20) and sched.stop.max_steps == 20
        assert all(type(k) is int for k in (*sched.checkpoints, sched.stop.max_steps))


# ---------------------------------------------------------------------------
# bitwise references: the runners as they were before log F, the norm
# weights and the step buffers were hoisted out of their loops


def ref_pow_with_complement(F, comp, k):
    if k == 0:
        return np.ones_like(F), np.zeros_like(F)
    Fk = np.empty_like(F)
    omFk = np.empty_like(F)
    pos = F >= 0.0
    if np.any(pos):
        with np.errstate(divide="ignore"):
            t = k * np.log1p(-comp[pos])
        Fk[pos] = np.exp(t)
        omFk[pos] = -np.expm1(t)
    neg = ~pos
    if np.any(neg):
        with np.errstate(divide="ignore"):
            t = k * np.log1p(-(1.0 + F[neg]))
        mag = np.exp(t)
        if k % 2 == 0:
            Fk[neg] = mag
            omFk[neg] = -np.expm1(t)
        else:
            Fk[neg] = -mag
            omFk[neg] = 1.0 + mag
    return Fk, omFk


def ref_scaled_norm(model, coeffs, s):
    if s == 0.0:
        return float(np.linalg.norm(coeffs))
    return float(np.linalg.norm(scale_weights(model, 0.5 * s) * coeffs))


def ref_rel_error(coeffs, ref: Optional[SpectralVec]):
    if ref is None:
        return None
    err = float(np.linalg.norm(coeffs - ref.coeffs))
    base = float(np.linalg.norm(ref.coeffs))
    return err / base if base > 0.0 else err


def ref_iterate_closed_form(fac, phi0, k):
    if k == 0:
        return phi0.coeffs.copy()
    Fk, omFk = ref_pow_with_complement(fac.factors, fac.complements, k)
    comp = fac.complements
    safe = np.where(comp == 0.0, 1.0, comp)
    geom = np.where(comp == 0.0, float(k), omFk / safe)
    return Fk * phi0.coeffs + geom * fac.z.coeffs


def ref_stepwise(fac, phi0, schedule, reference=None):
    stop = schedule.stop
    s = stop.scale if stop.scale is not None else default_scale(fac.kind)
    model, F, z = fac.model, fac.factors, fac.z.coeffs
    records = []

    def snapshot(k, phi, diff):
        records.append(CheckpointRecord(
            k=k, iterate=SpectralVec(phi.copy(), model), successive_diff=diff,
            residual=ref_scaled_norm(model, (F * phi + z) - phi, s),
            error_vs_reference=ref_rel_error(phi, reference),
        ))

    phi = phi0.coeffs.copy()
    final_k, reason = stop.max_steps, "max_steps"
    for k in range(1, stop.max_steps + 1):
        new = F * phi + z
        diff = ref_scaled_norm(model, new - phi, s)
        phi = new
        if k in schedule.checkpoints:
            snapshot(k, phi, diff)
        if diff == 0.0 or (stop.successive_diff_tol > 0.0 and diff < stop.successive_diff_tol):
            final_k = k
            reason = "max_steps" if k == stop.max_steps else "tolerance"
            if k not in schedule.checkpoints:
                snapshot(k, phi, diff)
            break
    # the last step of the budget is recorded like a tolerance stop
    if final_k == stop.max_steps and records[-1].k != final_k:
        snapshot(final_k, phi, diff)
    return IterationReport(fac.kind, s, tuple(records), final_k, reason)


def ref_closed_form(fac, phi0, schedule, reference=None):
    stop = schedule.stop
    s = stop.scale if stop.scale is not None else default_scale(fac.kind)
    model = fac.model
    w = fac.z.coeffs - fac.complements * phi0.coeffs
    checkpoints = list(schedule.checkpoints)
    if checkpoints[-1] != stop.max_steps:
        checkpoints.append(stop.max_steps)
    tol = stop.successive_diff_tol

    def diff_at(k):
        Fkm1, _ = ref_pow_with_complement(fac.factors, fac.complements, k - 1)
        return ref_scaled_norm(model, Fkm1 * w, s)

    records = []
    final_k, reason, prev = stop.max_steps, "max_steps", 0
    for k in checkpoints:
        if tol > 0.0 and diff_at(k) < tol:
            # the first step below tol since the previous checkpoint, which
            # was not below it; the difference never grows with k, so bisect
            lo, hi = prev, k
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if diff_at(mid) < tol else (mid, hi)
            k = final_k = hi
            reason = "max_steps" if k == stop.max_steps else "tolerance"
        Fk, _ = ref_pow_with_complement(fac.factors, fac.complements, k)
        phi = ref_iterate_closed_form(fac, phi0, k)
        records.append(CheckpointRecord(
            k=k, iterate=SpectralVec(phi, model), successive_diff=diff_at(k),
            residual=ref_scaled_norm(model, Fk * w, s),
            error_vs_reference=ref_rel_error(phi, reference),
        ))
        if k == final_k:
            break
        prev = k
    return IterationReport(fac.kind, s, tuple(records), final_k, reason)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return np.array_equal(a, b) and a.tobytes() == b.tobytes()


def assert_reports_identical(got: IterationReport, want: IterationReport, past_overflow=False):
    """Same records bit for bit.  With ``past_overflow``, a norm that
    ``want`` reads as inf because its sum of squares overflowed may be
    finite in ``got``, and then past 1e150, as such a norm is for N below
    10^4."""
    assert (got.kind, got.scale, got.final_k, got.termination_reason) == (
        want.kind, want.scale, want.final_k, want.termination_reason
    )
    assert [r.k for r in got.records] == [r.k for r in want.records]
    for a, b in zip(got.records, want.records):
        assert same_bits(a.iterate.coeffs, b.iterate.coeffs), f"iterate at k={a.k}"
        for name in ("successive_diff", "residual", "error_vs_reference"):
            x, y = getattr(a, name), getattr(b, name)
            overflowed = past_overflow and y == math.inf and 1e150 < x < math.inf
            assert x == y or overflowed, f"{name} at k={a.k}"


@st.composite
def factor_cases(draw, most_modes=24, scaled=False):
    """Factors of all three families, with F < 0 (parabolic gamma above
    exp(lambda_min^2 T)) and exactly zero complements (elliptic T lambda_max
    up to 600, parabolic lambda_max^2 T up to 800) among the draws.

    Past 24 modes the spectrum is a sine spectrum.  ``scaled`` multiplies
    the data and phi0, but not the reference, by one of 1e-200, 1e-160,
    1e-155, 1e-3, 1 and 1e150, one per case or one per mode, so that
    squares under- and overflow."""
    n = draw(st.integers(1, most_modes))
    if n > 24 or draw(st.booleans()):
        m = make_sine_spectrum_1d(n, draw(st.floats(0.5, 20.0)))
    else:
        lam = draw(st.lists(st.floats(0.05, 60.0), min_size=n, max_size=n, unique=True))
        m = make_custom_spectrum(sorted(lam))
    lam_max = float(m.eigenvalues[-1])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 1.0
    if scaled:
        scales = np.array([1e-200, 1e-160, 1e-155, 1e-3, 1.0, 1e150])
        scale = rng.choice(scales, n) if draw(st.booleans()) else draw(st.sampled_from(scales))
    data = lambda: from_coeffs(m, scale * rng.standard_normal(n))  # noqa: E731
    coeffs = lambda: from_coeffs(m, rng.standard_normal(n))  # noqa: E731
    kind = draw(st.sampled_from(["elliptic", "hyperbolic", "parabolic"]))
    if kind == "elliptic":
        spec = Elliptic(T=draw(st.floats(0.1, 600.0)) / lam_max, f=data(), g=data())
    elif kind == "hyperbolic":
        try:
            spec = Hyperbolic(T=draw(st.floats(0.05, 3.0)), f=data(), g=data())
        except ResonanceError:
            assume(False)
    else:
        gamma = draw(st.floats(0.05, 2.0))
        if gamma > 1.0 and draw(st.booleans()):  # F < 0 on the lowest mode
            T = draw(st.floats(0.01, 0.99)) * math.log(gamma) / float(m.eigenvalues[0]) ** 2
        else:
            T = draw(st.floats(1e-3, 800.0)) / lam_max**2
        spec = Parabolic(T=T, f=data(), gamma=gamma)
    fac = build_factors(spec)
    phi0 = data() if draw(st.booleans()) else zeros(m)
    reference = draw(st.sampled_from([None, "random", "zero"]))
    reference = {None: None, "random": coeffs(), "zero": zeros(m)}[reference]
    return fac, phi0, reference


def schedules(draw, mode, most):
    cps = sorted(draw(st.lists(st.integers(1, most), min_size=1, max_size=6, unique=True)))
    stop = StoppingRule(
        max_steps=cps[-1] + draw(st.integers(0, 40)),
        successive_diff_tol=draw(st.one_of(st.just(0.0), st.floats(1e-12, 1.0))),
        scale=draw(st.sampled_from([None, -0.5, 0.0, 0.5, 1.0])),
    )
    return IterationSchedule(checkpoints=tuple(cps), mode=mode, stop=stop)


def fixed_point_outcome(fac, retained):
    """What the fixed point with F set to 0 off ``retained`` must give, from
    Python floats mode by mode: the retained degenerate modes refused, else
    the modes past the 1e300 guard refused, else z / (1 - F) on the
    retained modes and z on the others."""
    z, comp = fac.z.coeffs.tolist(), fac.complements.tolist()
    degenerate = [j for j, keep in enumerate(retained) if keep and comp[j] == 0.0]
    if degenerate:
        return DegenerateComplementError, tuple(degenerate)
    want = [z[j] / comp[j] if keep else z[j] for j, keep in enumerate(retained)]
    past = [j for j, x in enumerate(want) if not abs(x) <= OVERFLOW_LIMIT]
    if past:
        return ModeOverflowError, tuple(past)
    return None, np.array(want).tobytes()


def solve_outcome(solve):
    try:
        return None, solve().coeffs.tobytes()
    except (DegenerateComplementError, ModeOverflowError) as err:
        return type(err), err.mode_indices


def exact_condition_terms(fac, c):
    """Per mode, in exact rationals on the stored F, 1 - F and c: the terms
    (condition 1, condition 2, non-expansive); and the size
    max_j comp_j (|1 - c| + (1 + c) |F_j|) of their rounding."""
    c = Fraction(c)
    terms, size = [], Fraction(0)
    for F, comp in zip(fac.factors.tolist(), fac.complements.tolist()):
        F, comp = Fraction(F), Fraction(comp)
        t1 = comp * ((1 - c) - (1 + c) * F)
        terms.append((t1, t1 / (2 * c), abs(F) - 1))
        size = max(size, comp * (abs(1 - c) + (1 + c) * abs(F)))
    return terms, size


def violations(rep):
    return rep.condition1_violation, rep.condition2_violation, rep.nonexpansive_violation


def subnormal_complement_case():
    """Elliptic T = 360 on the one eigenvalue 1: F = 1.0 and the complement
    sech^2(360) = 8.12892320967e-313 is subnormal, so every condition term
    rounds to the absolute 2^-1074 grid."""
    m = make_custom_spectrum([1.0])
    return build_factors(Elliptic(T=360.0, f=zeros(m), g=zeros(m))), zeros(m), None


class TestOperatorConditions:
    """T = F(A) is diagonal, so each check's supremum over unit vectors is
    its largest per-mode term: comp ((1 - c) - (1 + c) F) for condition (1),
    the same over 2c for condition (2), and |F| - 1, with comp = 1 - F."""

    def test_elliptic_condition_one_with_c_one(self):
        fac = build_factors(elliptic_unit(n=10))
        rep = check_operator_conditions(fac, c=1.0)
        assert rep.condition1_holds
        assert rep.condition2_holds
        assert rep.nonexpansive
        assert rep.max_violation <= 0.0

    def test_parabolic_gamma_two_breaks_condition_one(self):
        m = make_sine_spectrum_1d(3, 1.0)
        fac = build_factors(Parabolic(T=0.0625, f=zeros(m), gamma=2.0))
        assert fac.factors[0] < 0.0
        rep = check_operator_conditions(fac, c=1.0)
        assert not rep.condition1_holds
        F = fac.factors[0]
        expected = (1.0 - F) ** 2 - (1.0 - F * F)
        assert rep.condition1_violation == pytest.approx(expected, rel=1e-12)
        assert rep.worst_mode == 0
        assert expected > 0.17  # decisively broken, not a rounding artifact
        # the same factors remain non-expansive regardless
        assert rep.nonexpansive

    def test_conditions_one_and_two_are_proportional(self):
        # algebra: term1 = 2c term2 per mode, so the two verdicts agree
        m = make_sine_spectrum_1d(6, 1.0)
        for gamma, c in ((2.0, 1.0), (1.0, 1.0), (1.5, 2.5), (1.5, 0.3)):
            fac = build_factors(Parabolic(T=0.0625, f=zeros(m), gamma=gamma))
            rep = check_operator_conditions(fac, c=c)
            assert rep.condition1_violation == pytest.approx(
                2.0 * c * rep.condition2_violation, rel=1e-12, abs=1e-15
            )
            assert rep.condition1_holds == rep.condition2_holds

    def test_nan_violation_is_never_dropped(self):
        m = make_sine_spectrum_1d(4, 1.0)
        fac = build_factors(Elliptic(T=0.5, f=zeros(m), g=unit_mode(m, 1)))
        F = fac.factors.copy()
        F[[1, 3]] = math.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = check_operator_conditions(dataclasses.replace(fac, factors=F), c=1.0)
        assert not (rep.nonexpansive or rep.condition1_holds or rep.condition2_holds)
        assert math.isnan(rep.max_violation)
        assert rep.worst_mode == 1

    @given(factor_cases(), st.floats(1e-3, 1e3))
    @example(subnormal_complement_case(), 0.5625)
    @example(subnormal_complement_case(), 40.0)
    @settings(max_examples=200, deadline=None)
    def test_violations_are_the_exact_per_mode_maxima(self, case, c):
        """Each violation is within rounding of the exact maximum.

        Every float operation gives x (1 + d) + e with |d| <= u = 2^-53 and
        |e| <= 2^-1075, e nonzero only for a subnormal product or quotient
        (sums are exact there).  The check takes b = comp (r - F) with
        r = (1 - c)/(1 + c), then t1 = b (1 + c) and t2 = b h with
        h = (1 + 1/c)/2.  The d terms add up to a few u times
        comp (|r| + |F|) (1 + c), which is ``size``, and at most
        2u size / c for t2; with c >= 1e-3 that is below 1e-12 size.  The e
        of b is carried by the factor (1 + c) or h, and the last product
        adds its own: ((1 + c)(1 + 2u) + 1) 2^-1075 <= (1 + c) 2^-1074 for
        t1, and (1 + h) 2^-1074 for t2.  The slack is the sum of both parts,
        taken in exact rationals so that it does not underflow.  |F| - 1 is
        one subtraction of two floats, off by at most u.
        """
        fac = case[0]
        terms, size = exact_condition_terms(fac, c)
        rep = check_operator_conditions(fac, c)
        rel, grid, cq = Fraction(1e-12) * size, Fraction(2) ** -1074, Fraction(c)
        slacks = (rel + (1 + cq) * grid, rel + (1 + (1 + 1 / cq) / 2) * grid, Fraction(1e-15))
        for k, (got, slack) in enumerate(zip(violations(rep), slacks)):
            assert abs(Fraction(got) - max(t[k] for t in terms)) <= slack
        assert rep.max_violation == max(violations(rep))
        largest = max(max(t) for t in terms)
        assert largest - max(terms[rep.worst_mode]) <= max(1e-12 * size, 1e-15)

    @given(factor_cases())
    @settings(max_examples=100, deadline=None)
    def test_elliptic_and_hyperbolic_hold_at_c_one_without_tolerance(self, case):
        fac = case[0]
        assume(fac.kind != "parabolic")
        assert max(violations(check_operator_conditions(fac, 1.0))) <= 0.0

    @given(factor_cases(), st.sampled_from([1e-300, 1e300, sys.float_info.max]))
    @settings(max_examples=100, deadline=None)
    def test_extreme_c_reads_the_exact_verdicts_without_warnings(self, case, c):
        fac = case[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = check_operator_conditions(fac, c)
        terms, _ = exact_condition_terms(fac, c)
        verdicts = (rep.condition1_holds, rep.condition2_holds, rep.nonexpansive)
        for k, (got, holds) in enumerate(zip(violations(rep), verdicts)):
            exact = max(t[k] for t in terms)
            assert not math.isnan(got)
            near_tol = abs(exact - Fraction(rep.tol)) <= Fraction(rep.tol) / 10**6
            assert holds == (exact <= rep.tol) or near_tol

    @given(
        factor_cases(),
        st.floats(0.1, 10.0),
        st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_samples_never_exceed_the_exact_violations(self, case, c, s, seed):
        # the sampled sums of tests/oracles.py, on samples of unit s-norm
        fac = case[0]
        m = fac.model
        rep = check_operator_conditions(fac, c)
        rng = np.random.default_rng(seed)
        unit = lambda x: (1.0 / norm_s(x, s)) * x  # noqa: E731
        samples = [unit(from_coeffs(m, rng.standard_normal(m.n_modes))) for _ in range(8)]
        sampled = oracles.condition_violations(fac, samples, c, s)[:3]
        assert all(v <= e + 1e-12 for v, e in zip(sampled, violations(rep)))
        # a unit mode reads its own term
        for j, term in enumerate(exact_condition_terms(fac, c)[0]):
            got = oracles.condition_violations(fac, [unit(unit_mode(m, j + 1))], c, s)[:3]
            assert all(abs(Fraction(g) - t) <= 1e-12 for g, t in zip(got, term))

    def test_sample_validation(self):
        fac = build_factors(elliptic_unit())
        for c in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ConfigError, match="c must be positive"):
                check_operator_conditions(fac, c)
        # samples and a norm index cannot change a supremum: no such arguments
        with pytest.raises(TypeError):
            check_operator_conditions(fac, [unit_mode(fac.model, 1)], 1.0)
        with pytest.raises(TypeError):
            check_operator_conditions(fac, 1.0, scale=0.0)


class TestFixedPointKernel:
    """The fixed point and the cutoff fixed point are one quotient with one
    refusal rule, bit for bit against a per-mode reference."""

    @settings(max_examples=300, deadline=None)
    @given(case=factor_cases(scaled=True), data=st.data())
    def test_quotient_or_refusal(self, case, data):
        fac = case[0]
        lam = fac.model.eigenvalues
        n = data.draw(st.one_of(
            st.sampled_from(lam.tolist()),  # a cutoff on an eigenvalue retains it
            st.floats(1e-3, 2.0).map(lambda r: r * float(lam[-1])),
        ))
        retained = (lam <= n).tolist()
        assert solve_outcome(lambda: regularized_fixed_point(fac, fac.z, n)) == (
            fixed_point_outcome(fac, retained)
        )
        assert solve_outcome(lambda: fixed_point(fac)) == (
            fixed_point_outcome(fac, [True] * lam.size)
        )


class TestToleranceStop:
    """The closed form stops on the step the stepwise runner stops on."""

    def test_tolerance_stop_between_checkpoints(self):
        # both modes stop on step 4104, between the checkpoints 1000 and 10000
        m = make_sine_spectrum_1d(8, 1.0)
        fac = build_factors(Elliptic(T=1.0, f=from_coeffs(m, np.full(8, 1 / 8)), g=zeros(m)))
        reports = [
            run_schedule(fac, zeros(m), IterationSchedule(
                checkpoints=(10, 100, 1000, 10000), mode=mode,
                stop=StoppingRule(max_steps=10000, successive_diff_tol=1.1e-3),
            ))
            for mode in ("stepwise", "closed_form")
        ]
        for rep in reports:
            assert (rep.final_k, rep.termination_reason) == (4104, "tolerance")
            assert [r.k for r in rep.records] == [10, 100, 1000, 4104]
            assert rep.records[-1].successive_diff < 1.1e-3
        stepwise, closed = reports
        for a, b in zip(stepwise.records, closed.records):
            assert a.successive_diff == pytest.approx(b.successive_diff, rel=1e-10)
            assert a.residual == pytest.approx(b.residual, rel=1e-10)
            np.testing.assert_allclose(a.iterate.coeffs, b.iterate.coeffs, rtol=1e-10)

    @given(factor_cases(most_modes=12), st.data())
    @settings(max_examples=100, deadline=None)
    def test_tolerance_stops_both_modes_on_one_step(self, case, data):
        fac, phi0, _ = case
        budget = data.draw(st.integers(1, 600))
        cps = data.draw(st.lists(st.integers(1, budget), min_size=1, max_size=4, unique=True))
        scale = data.draw(st.sampled_from([None, -0.5, 0.0, 1.0]))
        every = IterationSchedule(
            checkpoints=tuple(range(1, budget + 1)), stop=StoppingRule(budget, scale=scale)
        )
        # each step's difference, literal and analytic; a tolerance between
        # the two (or within 1e-12 relative of either) may split the modes
        stepwise = iterate_stepwise(fac, phi0, dataclasses.replace(every, mode="stepwise"))
        literal = [r.successive_diff for r in stepwise.records]
        analytic = [r.successive_diff for r in report_closed_form(fac, phi0, every).records]
        positive = [d for d in literal + analytic if 0.0 < d < math.inf]
        assume(positive)
        tol = data.draw(st.sampled_from(positive)) * data.draw(st.floats(0.5, 2.0))
        for a, b in zip(literal, analytic):
            assume(not (min(a, b) * (1 - 1e-12) <= tol <= max(a, b) * (1 + 1e-12)))
        stop = StoppingRule(budget, successive_diff_tol=tol, scale=scale)
        got = [
            run_schedule(fac, phi0, IterationSchedule(tuple(sorted(cps)), mode, stop))
            for mode in ("stepwise", "closed_form")
        ]
        sw, cf = got
        assert (sw.final_k, sw.termination_reason) == (cf.final_k, cf.termination_reason)
        assert [r.k for r in sw.records] == [r.k for r in cf.records]


class TestBitwiseAgainstReference:
    @given(factor_cases(most_modes=400, scaled=True), st.data())
    @settings(max_examples=200, deadline=None)
    def test_stepwise(self, case, data):
        fac, phi0, reference = case
        sched = schedules(data.draw, "stepwise", 2000)
        got = iterate_stepwise(fac, phi0, sched, reference)
        with np.errstate(over="ignore"):  # the reference's squares overflow past 1.3e154
            want = ref_stepwise(fac, phi0, sched, reference)
        assert_reports_identical(got, want, past_overflow=True)
        assert got.records[-1].k == got.final_k

    @given(factor_cases(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_closed_form(self, case, data):
        fac, phi0, reference = case
        sched = schedules(data.draw, "closed_form", data.draw(st.sampled_from([300, 10**6, 10**9])))
        got = report_closed_form(fac, phi0, sched, reference)
        assert_reports_identical(got, ref_closed_form(fac, phi0, sched, reference))
        assert got.records[-1].k == got.final_k
        for k in (0, 1, 2, 3, sched.checkpoints[-1]):
            got = iterate_closed_form(fac, phi0, k).coeffs
            assert same_bits(got, ref_iterate_closed_form(fac, phi0, k)), f"k={k}"

    def test_cases_reach_negative_factors_and_zero_complements(self):
        m = make_custom_spectrum([0.1, 1.0, 30.0])
        fac = build_factors(Parabolic(T=1.0, f=unit_mode(m, 1), gamma=1.9))
        assert fac.factors[0] < 0.0 and fac.complements[2] == 0.0
        phi0 = from_coeffs(m, [1.0, -2.0, 3.0])
        for k in range(0, 6):
            assert same_bits(
                iterate_closed_form(fac, phi0, k).coeffs, ref_iterate_closed_form(fac, phi0, k)
            )
        sched = IterationSchedule(checkpoints=(1, 2, 3, 4, 5, 7, 10**9))
        assert_reports_identical(
            report_closed_form(fac, phi0, sched), ref_closed_form(fac, phi0, sched)
        )

    @pytest.mark.parametrize("scale", [None, 0.0, 1.0])
    def test_norm_weights_taken_once_per_call(self, monkeypatch, scale):
        calls = []

        def counting(model, s):
            calls.append(s)
            return scale_weights(model, s)

        monkeypatch.setattr(kmiter.iterations, "scale_weights", counting)
        m = make_sine_spectrum_1d(32, 1.0)
        fac = build_factors(Elliptic(T=0.05, f=zeros(m), g=unit_mode(m, 2)))
        stop = StoppingRule(max_steps=200, scale=scale)
        for mode, runner in (("stepwise", iterate_stepwise), ("closed_form", report_closed_form)):
            calls.clear()
            sched = IterationSchedule(checkpoints=(1, 10, 100, 200), mode=mode, stop=stop)
            runner(fac, zeros(m), sched, fixed_point(fac))
            assert len(calls) <= 1, (mode, calls)

    @staticmethod
    def count_full_steps(monkeypatch):
        """The number of np.subtract calls, one per step that takes its norm."""
        calls = []
        subtract = np.subtract

        def counting(*args, **kwargs):
            calls.append(None)
            return subtract(*args, **kwargs)

        monkeypatch.setattr(np, "subtract", counting)
        return calls

    @pytest.mark.parametrize("scale", [None, 0.0, 1.0])
    def test_norm_taken_at_few_steps(self, monkeypatch, scale):
        m = make_sine_spectrum_1d(64, 1.0)
        rng = np.random.default_rng(3)
        g = from_coeffs(m, rng.standard_normal(64))
        fac = build_factors(Elliptic(T=0.05, f=zeros(m), g=g))
        sched = IterationSchedule(
            checkpoints=(10, 100, 200), mode="stepwise", stop=StoppingRule(max_steps=200, scale=scale)
        )
        calls = self.count_full_steps(monkeypatch)
        got = iterate_stepwise(fac, zeros(m), sched)
        assert 4 <= len(calls) <= 6
        monkeypatch.undo()
        assert_reports_identical(got, ref_stepwise(fac, zeros(m), sched))

    # Parabolic with gamma = 1, T = 1 over lambda = (0.1, 3): F is about
    # (0.00995, 0.99988), so mode 1 decays a hundredfold per step and mode 2
    # barely; z = f and phi0 = 0.  Full steps: step 1, the last step, and
    # each step whose witness test fails.
    @pytest.mark.parametrize(
        "f, tol, budget, full, final_k",
        [
            # the witness (mode 1) squares to 0 at step 8 while mode 2 does not
            ((2e-150, 1e-150), 0.0, 50, 3, 50),
            # every square underflows at step 8: diff == 0.0 stops the run
            ((2e-150, 0.0), 0.0, 50, 2, 8),
            # step 2: the witness is below tol, the norm (mode 2) is not;
            # mode 2 then decays to the tolerance stop
            ((2.0, 1.0), 0.9, 1000, 3, 855),
        ],
    )
    def test_witness_edges(self, monkeypatch, f, tol, budget, full, final_k):
        m = make_custom_spectrum([0.1, 3.0])
        fac = build_factors(Parabolic(T=1.0, f=from_coeffs(m, f), gamma=1.0))
        stop = StoppingRule(max_steps=budget, successive_diff_tol=tol)
        sched = IterationSchedule(checkpoints=(budget,), mode="stepwise", stop=stop)
        calls = self.count_full_steps(monkeypatch)
        got = iterate_stepwise(fac, zeros(m), sched)
        assert (len(calls), got.final_k) == (full, final_k)
        monkeypatch.undo()
        assert_reports_identical(got, ref_stepwise(fac, zeros(m), sched))


class TestNormOverflow:
    """A norm whose sum of squares overflows is finite and leaks no warning:
    the runs with data 1e160 read 2^600 times the runs with data 2^-600
    times that, bit for bit, in both modes."""

    def test_eigenvalue_past_square_overflow(self):
        # lambda^2 overflows at 1e200; the scale weights are inf or 0 there
        # and no runner warns
        m = make_custom_spectrum([1.0, 2.0, 1e200])
        fac = build_factors(Elliptic(T=1.0, f=zeros(m), g=from_coeffs(m, [1.0, 1.0, 0.0])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert scale_weights(m, -0.5)[2] == 0.0 and scale_weights(m, 0.5)[2] == math.inf
            sched = IterationSchedule(checkpoints=(1, 5))
            for run in (report_closed_form, iterate_stepwise):
                assert [r.k for r in run(fac, zeros(m), sched).records] == [1, 5]
            report = check_operator_conditions(fac, 1.0)
        assert report.nonexpansive and report.condition1_holds

    @pytest.mark.parametrize("run", [report_closed_form, iterate_stepwise])
    def test_zero_difference_under_an_infinite_weight(self, run):
        # at s = 1 the weight of lambda = 1e200 is inf; that mode never
        # moves, so its terms are zero, not inf * 0 = NaN
        m = make_custom_spectrum([1.0, 1e200])
        fac = build_factors(Elliptic(T=1.0, f=zeros(m), g=from_coeffs(m, [1.0, 0.0])))
        mode = "stepwise" if run is iterate_stepwise else "closed_form"
        sched = IterationSchedule(checkpoints=(1, 5), mode=mode, stop=StoppingRule(5, scale=1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records = run(fac, zeros(m), sched).records
        one = make_custom_spectrum([1.0])
        fac1 = build_factors(Elliptic(T=1.0, f=zeros(one), g=from_coeffs(one, [1.0])))
        want = run(fac1, zeros(one), sched).records
        for a, b in zip(records, want):
            assert (a.k, a.successive_diff, a.residual) == (b.k, b.successive_diff, b.residual)

    @pytest.mark.parametrize("mode", ["stepwise", "closed_form"])
    @pytest.mark.parametrize("with_reference", [False, True])
    def test_norms_past_square_overflow(self, mode, with_reference):
        m = make_sine_spectrum_1d(64, 1.0)
        g = 1e160 * np.random.default_rng(0).standard_normal(64)
        sched = IterationSchedule(checkpoints=(1, 10), mode=mode)
        reports = []
        for data in (g, np.ldexp(g, -600)):
            spec = Elliptic(T=0.5, f=zeros(m), g=from_coeffs(m, data))
            fac = build_factors(spec)
            reference = fixed_point(fac) if with_reference else None
            reports.append(run_schedule(fac, zeros(m), sched, reference))
        big, small = reports
        assert [r.k for r in big.records] == [r.k for r in small.records] == [1, 10]
        for a, b in zip(big.records, small.records):
            assert math.isfinite(a.successive_diff) and a.successive_diff > 1e154
            assert a.successive_diff == math.ldexp(b.successive_diff, 600)
            assert a.residual == math.ldexp(b.residual, 600)
            assert a.error_vs_reference == b.error_vs_reference

    @pytest.mark.parametrize("mode", ["stepwise", "closed_form"])
    def test_weighted_difference_past_the_float_max(self, mode):
        # at s = 1 the weight of mode j is sqrt(1 + (j pi)^2), so a
        # difference near 1e307 weighs past the float max: the norm is inf
        # and no overflow warning leaks
        m = make_sine_spectrum_1d(64, 1.0)
        fac = build_factors(Elliptic(T=0.01, f=zeros(m), g=from_coeffs(m, np.full(64, 1e307))))
        sched = IterationSchedule(checkpoints=(1, 2), mode=mode, stop=StoppingRule(2, scale=1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records = run_schedule(fac, zeros(m), sched).records
        assert [(r.k, r.successive_diff, r.residual) for r in records] == [
            (1, math.inf, math.inf), (2, math.inf, math.inf)
        ]


class TestAffineTermOverflow:
    """A z past the float max is refused with its modes, without a numpy
    warning.  A finite z past 1e300 is kept: see
    TestNormOverflow::test_weighted_difference_past_the_float_max."""

    @pytest.mark.parametrize(
        "family, modes",
        [
            # lambda_j sin(lambda_j T) passes 1.8e308 / 1e307 from j = 14 on
            ("hyperbolic", tuple(range(13, 64))),
            # lambda_j tanh(lambda_j T) sech(lambda_j T) does so from j = 15 on
            ("elliptic", tuple(range(14, 64))),
            # gamma f_j = 1.9e308 on every mode
            ("parabolic", tuple(range(64))),
        ],
    )
    def test_overflowing_z_is_refused_with_its_modes(self, family, modes):
        m = make_sine_spectrum_1d(64, 1.0)
        big = from_coeffs(m, np.full(64, 1e307))
        spec = {
            "hyperbolic": lambda: Hyperbolic(T=0.01, f=zeros(m), g=big),
            "elliptic": lambda: Elliptic(T=0.01, f=big, g=zeros(m)),
            "parabolic": lambda: Parabolic(T=0.01, f=10.0 * big, gamma=1.9),
        }[family]()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModeOverflowError) as info:
                build_factors(spec)
        assert info.value.mode_indices == modes
        assert "affine term z" in str(info.value)

    def test_opposite_overflows_are_refused_not_nan(self):
        # both hyperbolic terms overflow, with opposite signs, at 45 modes
        # (inf - inf) and one of them at 15 more
        m = make_sine_spectrum_1d(64, 1.0)
        spec = Hyperbolic(
            T=0.01, f=from_coeffs(m, np.full(64, 1e308)), g=from_coeffs(m, np.full(64, 1e308))
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModeOverflowError) as info:
                build_factors(spec)
        assert len(info.value.mode_indices) == 60


def stepwise_reports_identical(got: IterationReport, want: IterationReport):
    """Same records bit for bit, NaN and signed zeros included."""
    assert (got.kind, got.scale, got.final_k, got.termination_reason) == (
        want.kind, want.scale, want.final_k, want.termination_reason
    )
    assert [r.k for r in got.records] == [r.k for r in want.records]
    for a, b in zip(got.records, want.records):
        assert a.iterate.coeffs.tobytes() == b.iterate.coeffs.tobytes(), f"iterate at k={a.k}"
        for name in ("successive_diff", "residual", "error_vs_reference"):
            x, y = getattr(a, name), getattr(b, name)
            assert x == y or (x != x and y != y), f"{name} at k={a.k}"


def spy_sizes(monkeypatch, name):
    """The size of the first argument of every np.<name> call."""
    sizes = []
    ufunc = getattr(np, name)

    def recording(*args, **kwargs):
        sizes.append(np.size(args[0]))
        return ufunc(*args, **kwargs)

    monkeypatch.setattr(np, name, recording)
    return sizes


class TestExactShortcuts:
    """The stepwise runner multiplies only up to the last mode with F != 1,
    and a power is evaluated only off the arguments where exp is exactly 0;
    every output keeps its bits."""

    # tanh(lambda)^2 rounds to 1.0 from lambda = 19 on (T = 1)
    SUFFIX = (0.5, 1.0, 2.0, 30.0, 40.0, 50.0, 60.0, 70.0)

    @staticmethod
    def unit_run(lam, phi0, budget=60):
        m = make_custom_spectrum(lam)
        g = from_coeffs(m, np.linspace(1.0, 2.0, len(lam)))
        fac = build_factors(Elliptic(T=1.0, f=zeros(m), g=g))
        sched = IterationSchedule(checkpoints=(1, 7, budget), mode="stepwise")
        phi0 = from_coeffs(m, phi0)
        with np.errstate(invalid="ignore"):  # inf - inf in the differences
            return fac, iterate_stepwise(fac, phi0, sched), ref_stepwise(fac, phi0, sched)

    @pytest.mark.parametrize(
        "lam, phi0, units",
        [
            # a unit suffix holding inf, -inf, NaN and -0.0
            (SUFFIX, [0.1, -0.2, 0.3, math.inf, -math.inf, math.nan, -0.0, 5.0], 5),
            # the same suffix with finite values, so that steps are cleared
            (SUFFIX, [0.1, -0.2, 0.3, 1e300, -1e-300, 0.0, -0.0, 5.0], 5),
            # F == 1.0 on every mode: the head is empty
            ((30.0, 40.0, 50.0), [-0.0, 1.0, -2.0], 3),
            # no unit mode
            ((0.1, 0.2, 0.3), [-0.0, 1.0, -2.0], 0),
        ],
    )
    def test_stepwise_matches_reference_bitwise(self, lam, phi0, units):
        fac, got, want = self.unit_run(lam, phi0)
        assert np.count_nonzero(fac.factors == 1.0) == units
        assert (fac.factors[len(lam) - units:] == 1.0).all()
        stepwise_reports_identical(got, want)

    @staticmethod
    def schedule_factors(family):
        """The factors of the benchmark's schedule workload: sine spectrum,
        N = 16384, data of no matter."""
        m = make_sine_spectrum_1d(16384, 1.0)
        lam_max = float(m.eigenvalues[-1])
        one = from_coeffs(m, np.ones(16384))
        return build_factors({
            "elliptic": lambda: Elliptic(T=100.0 / lam_max, f=zeros(m), g=one),
            "hyperbolic": lambda: Hyperbolic(T=1.0 / math.pi, f=one, g=one),
            "parabolic": lambda: Parabolic(T=600.0 / lam_max**2, f=one, gamma=1.0),
        }[family]())

    @pytest.mark.parametrize(
        "family, engaged_from",
        [("hyperbolic", 1000), ("elliptic", None), ("parabolic", None)],
    )
    def test_vanished_powers_skipped_where_most_arguments_are_dead(
        self, monkeypatch, family, engaged_from
    ):
        fac = self.schedule_factors(family)
        log_factor = kmiter.iterations._log_factor(fac)
        n = fac.factors.size
        for k in (10, 100, 1000, 10**4, 10**5, 10**6, 10**9):
            want = np.exp(k * log_factor[0])
            sizes = spy_sizes(monkeypatch, "exp")
            power = kmiter.iterations._factor_power(*log_factor, k)
            Fk, _ = kmiter.iterations._power(*log_factor, k)
            monkeypatch.undo()
            engaged = engaged_from is not None and k >= engaged_from
            assert all((size < n) == engaged for size in sizes), (k, sizes)
            assert same_bits(power, want) and same_bits(Fk, want)

    def test_elliptic_cleared_steps_multiply_only_the_head(self, monkeypatch):
        fac = self.schedule_factors("elliptic")
        n = fac.factors.size
        head = int(np.flatnonzero(fac.factors != 1.0)[-1]) + 1
        assert 0.18 * n < head < 0.2 * n
        assert (fac.factors[head:] == 1.0).all()
        sched = IterationSchedule(checkpoints=(10, 100, 200), mode="stepwise")
        full = spy_sizes(monkeypatch, "subtract")  # one call per step that takes its norm
        multiplies = spy_sizes(monkeypatch, "multiply")
        got = iterate_stepwise(fac, zeros(fac.model), sched)
        monkeypatch.undo()
        assert set(multiplies) == {head, n}
        assert multiplies.count(head) == 200 - len(full) >= 190
        assert_reports_identical(got, ref_stepwise(fac, zeros(fac.model), sched))


class TestExp:
    """kmiter.iterations._exp is np.exp bit for bit on every mix of
    arguments, on both sides of its gate."""

    @pytest.mark.parametrize("dead_share", [0.0, 0.1, 0.24, 0.25, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_bitwise_np_exp(self, monkeypatch, dead_share, seed):
        rng = np.random.default_rng(seed)
        n = 4096
        dead = int(dead_share * n)
        pools = [
            np.array([-math.inf, -1e300, -1e6, -800.0, -746.0000001]),  # exp is +0.0
            np.array([math.nan, -746.0, -745.2, -745.1, -744.5, -720.0, -708.5]),
            np.array([-700.0, -30.0, -1.0, -1e-300, -0.0, 0.0, 0.5, 700.0]),
        ]
        live = n - dead
        t = np.concatenate([
            rng.choice(pools[0], dead),
            rng.choice(pools[1], live // 3),
            rng.choice(pools[2], live - live // 3),
        ])
        t = rng.permutation(t)
        sizes = spy_sizes(monkeypatch, "exp")
        got = kmiter.iterations._exp(t)
        monkeypatch.undo()
        want = np.exp(t)
        assert got.tobytes() == want.tobytes()
        assert np.isnan(got).sum() == np.isnan(t).sum()
        assert sizes == [n if dead_share < 0.25 else live]

    def test_empty(self):
        assert kmiter.iterations._exp(np.empty(0)).shape == (0,)
