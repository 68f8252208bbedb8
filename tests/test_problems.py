import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from kmiter import problems as kp
from kmiter.errors import ConfigError, ModeOverflowError, ResonanceError, describe_modes
from kmiter.iterations import build_factors
from kmiter.problems import (
    OVERFLOW_LIMIT,
    Elliptic,
    Hyperbolic,
    Parabolic,
    TrajectoryNormSpec,
    elliptic_dt_solution_at,
    elliptic_solution_at,
    elliptic_trajectory,
    hyperbolic_solution_at,
    hyperbolic_solution_dt0,
    hyperbolic_trajectory,
    illposedness_demo,
    parabolic_backward_trace,
    parabolic_solution_at,
    parabolic_trajectory_from_terminal,
    trajectory_norm,
)
from kmiter.spectral import (
    SpectralVec,
    from_coeffs,
    make_custom_spectrum,
    make_sine_spectrum_1d,
    norm_s,
    unit_mode,
    zeros,
)

import oracles


def sine_model(n=3, length=1.0):
    return make_sine_spectrum_1d(n, length)


class TestEllipticTraces:
    def test_zero_data_gives_zero_solution(self):
        m = sine_model()
        p = Elliptic(T=1.0, f=zeros(m), g=zeros(m))
        for t in (0.0, 0.5, 1.0):
            np.testing.assert_array_equal(elliptic_solution_at(p, t).coeffs, 0.0)
            np.testing.assert_array_equal(elliptic_dt_solution_at(p, t).coeffs, 0.0)

    def test_displacement_from_initial_position(self):
        # u(t) = cosh(lambda t) f per mode
        m = sine_model()
        p = Elliptic(T=1.0, f=unit_mode(m, 1), g=zeros(m))
        u1 = elliptic_solution_at(p, 1.0)
        assert u1.coeffs[0] == pytest.approx(oracles.COSH_PI, rel=1e-14)
        assert u1.coeffs[1] == 0.0

    def test_dt_trace_from_initial_velocity(self):
        # du/dt(T) = cosh(lambda T) g per mode, for each of the first modes
        m = sine_model()
        for k, expected in ((1, oracles.COSH_PI), (2, oracles.COSH_2PI), (3, oracles.COSH_3PI)):
            p = Elliptic(T=1.0, f=zeros(m), g=unit_mode(m, k))
            tr = elliptic_dt_solution_at(p, 1.0)
            assert tr.coeffs[k - 1] == pytest.approx(expected, rel=1e-13)
            off = np.delete(tr.coeffs, k - 1)
            np.testing.assert_array_equal(off, 0.0)

    def test_dt_trace_from_initial_position(self):
        # du/dt(t) = lambda sinh(lambda t) f
        m = sine_model()
        p = Elliptic(T=1.0, f=unit_mode(m, 1), g=zeros(m))
        tr = elliptic_dt_solution_at(p, 1.0)
        assert tr.coeffs[0] == pytest.approx(oracles.PI_SINH_PI, rel=1e-14)

    def test_time_outside_interval_rejected(self):
        m = sine_model()
        p = Elliptic(T=1.0, f=zeros(m), g=zeros(m))
        with pytest.raises(ConfigError):
            elliptic_solution_at(p, -0.1)
        with pytest.raises(ConfigError):
            elliptic_solution_at(p, 1.5)

    def test_mismatched_data_models_rejected(self):
        with pytest.raises(ConfigError):
            Elliptic(T=1.0, f=zeros(sine_model(3)), g=zeros(sine_model(4)))

    def test_overflow_guard(self):
        m = make_custom_spectrum([800.0])
        p = Elliptic(T=1.0, f=unit_mode(m, 1), g=zeros(m))
        with pytest.raises(ModeOverflowError) as err:
            elliptic_solution_at(p, 1.0)
        assert err.value.mode_indices == (0,)

    def test_untouched_modes_stay_zero_where_cosh_overflows(self):
        # cosh(lambda_j) overflows from j = 227 on, lambda_j sinh(lambda_j) from
        # j = 225; a mode without data has a zero trace there, not inf * 0 = nan
        m = sine_model(300)
        p = Elliptic(T=1.0, f=zeros(m), g=unit_mode(m, 1))
        du = elliptic_dt_solution_at(p, 1.0).coeffs
        assert du[0] == pytest.approx(oracles.COSH_PI, rel=1e-13)
        np.testing.assert_array_equal(du[1:], 0.0)
        u = elliptic_solution_at(p, 1.0).coeffs
        assert u[0] * math.pi == pytest.approx(oracles.PI_SINH_PI / math.pi, rel=1e-13)
        np.testing.assert_array_equal(u[1:], 0.0)

    def test_zero_data_keep_their_sign(self):
        m = sine_model(300)
        neg = from_coeffs(m, np.full(300, -0.0))
        p = Elliptic(T=1.0, f=neg, g=neg)
        for t in (0.0, 1.0):
            for trace in (elliptic_solution_at(p, t), elliptic_dt_solution_at(p, t)):
                np.testing.assert_array_equal(trace.coeffs, 0.0)
                assert np.all(np.signbit(trace.coeffs))

    def test_mode_with_data_still_overflows(self):
        m = sine_model(300)
        p = Elliptic(T=1.0, f=zeros(m), g=unit_mode(m, 300))
        with pytest.raises(ModeOverflowError) as err:
            elliptic_dt_solution_at(p, 1.0)
        assert err.value.mode_indices == (299,)
        p = Elliptic(T=1.0, f=unit_mode(m, 250), g=zeros(m))
        with pytest.raises(ModeOverflowError) as err:
            elliptic_solution_at(p, 1.0)
        assert err.value.mode_indices == (249,)


class TestHyperbolicTraces:
    def test_zero_data(self):
        m = make_custom_spectrum([1.0, 2.0])
        p = Hyperbolic(T=1.0, f=zeros(m), g=zeros(m))
        np.testing.assert_array_equal(hyperbolic_solution_dt0(p).coeffs, 0.0)

    def test_unit_displacement_velocity(self):
        # du/dt(0) = lambda g / sin(lambda T) with f = 0
        m = make_custom_spectrum([1.0])
        p = Hyperbolic(T=1.0, f=zeros(m), g=unit_mode(m, 1))
        v = hyperbolic_solution_dt0(p)
        assert v.coeffs[0] == pytest.approx(oracles.INV_SIN_1, rel=1e-14)

    def test_consistent_data_zero_velocity(self):
        # g = cos(lambda T) f is what u(t) = cos(At) f produces: velocity 0
        m = make_custom_spectrum([1.0, 2.0])
        f = from_coeffs(m, [1.0, -0.5])
        g = from_coeffs(m, np.cos(m.eigenvalues * 1.0) * f.coeffs)
        p = Hyperbolic(T=1.0, f=f, g=g)
        np.testing.assert_allclose(
            hyperbolic_solution_dt0(p).coeffs, 0.0, atol=1e-15
        )

    def test_solution_interpolates_data(self):
        m = make_custom_spectrum([1.0, 2.5])
        f = from_coeffs(m, [0.3, -0.7])
        g = from_coeffs(m, [0.1, 0.2])
        p = Hyperbolic(T=1.0, f=f, g=g)
        np.testing.assert_allclose(hyperbolic_solution_at(p, 0.0).coeffs, f.coeffs, atol=1e-14)
        np.testing.assert_allclose(hyperbolic_solution_at(p, 1.0).coeffs, g.coeffs, atol=1e-14)

    def test_resonant_time_rejected(self):
        # lambda T = pi exactly for the first sine mode at T = 1
        m = sine_model()
        with pytest.raises(ResonanceError) as err:
            Hyperbolic(T=1.0, f=zeros(m), g=zeros(m))
        assert 0 in err.value.mode_indices

    def test_near_resonance_tolerance_adjustable(self):
        m = make_custom_spectrum([math.pi - 1e-10, 10.0])
        with pytest.raises(ResonanceError):
            Hyperbolic(T=1.0, f=zeros(m), g=zeros(m))
        # loosening the tolerance to zero admits the same configuration
        p = Hyperbolic(T=1.0, f=zeros(m), g=zeros(m), resonance_tol=0.0)
        assert p.T == 1.0

    def test_phase_past_the_float_max_is_refused(self):
        # lambda T = 8e309 is no phase: refused with the mode, not sin(inf)
        m = make_custom_spectrum([1.0, 8e307])
        one = from_coeffs(m, [1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=r"mode positions \[1\] \(eigenvalues \[8e\+307\]\)"):
                Hyperbolic(T=100.0, f=one, g=one)


class TestParabolicTraces:
    def test_zero_initial_state(self):
        m = sine_model()
        np.testing.assert_array_equal(parabolic_solution_at(zeros(m), 0.3).coeffs, 0.0)

    def test_forward_decay_factor(self):
        m = sine_model()
        out = parabolic_solution_at(unit_mode(m, 1), 0.0625)
        assert out.coeffs[0] == pytest.approx(oracles.EXP_NEG_PI2_16, rel=1e-14)

    def test_backward_of_forward_roundtrip(self):
        # stays within rel 1e-12 while lambda_max^2 T <= 30
        m = sine_model(5)
        T = 30.0 / m.lambda_max**2
        rng = np.random.default_rng(42)
        u0 = from_coeffs(m, rng.standard_normal(m.n_modes))
        f = parabolic_solution_at(u0, T)
        back = parabolic_backward_trace(Parabolic(T=T, f=f))
        np.testing.assert_allclose(back.coeffs, u0.coeffs, rtol=1e-12)

    def test_backward_trace_overflow(self):
        m = make_custom_spectrum([30.0])
        p = Parabolic(T=1.0, f=unit_mode(m, 1))
        with pytest.raises(ModeOverflowError):
            parabolic_backward_trace(p)

    def test_gamma_validation(self):
        m = sine_model()
        with pytest.raises(ConfigError):
            Parabolic(T=1.0, f=zeros(m), gamma=0.0)
        with pytest.raises(ConfigError):
            Parabolic(T=1.0, f=zeros(m), gamma=-2.0)
        # bound is 2 exp(lambda_1^2 T); pick T small so it is checkable
        m1 = make_custom_spectrum([1.0])
        T = 0.01
        limit = 2.0 * math.exp(T)
        Parabolic(T=T, f=zeros(m1), gamma=limit * 0.999)
        with pytest.raises(ConfigError):
            Parabolic(T=T, f=zeros(m1), gamma=limit * 1.001)

    def test_negative_time_rejected(self):
        m = sine_model()
        with pytest.raises(ConfigError):
            parabolic_solution_at(zeros(m), -0.1)

    def test_eigenvalue_past_square_overflow(self):
        # lambda^2 overflows to inf at 8e307: the heat factor is exp(-inf) = 0
        # and the backward value overflows, all without a RuntimeWarning
        m = make_custom_spectrum([1.0, 8e307])
        p = Parabolic(T=1.0, f=from_coeffs(m, [1.0, 1.0]))
        comp = build_factors(p).complements
        assert comp[0] == np.exp(-1.0) and comp[1] == 0.0
        out = parabolic_solution_at(p.f, 0.5)
        assert out.coeffs.tolist() == [np.exp(-0.5), 0.0]
        with pytest.raises(ModeOverflowError) as err:
            parabolic_backward_trace(p)
        assert err.value.mode_indices == (1,)
        with pytest.raises(ModeOverflowError) as err:
            parabolic_trajectory_from_terminal(p)(np.array([0.0, 0.5]))
        assert err.value.mode_indices == (1,)

    def test_forward_at_time_zero_is_u0_past_square_overflow(self):
        # lambda^2 = inf times t = 0 is no decay at all, not NaN
        u0 = from_coeffs(make_custom_spectrum([8e307]), [1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert parabolic_solution_at(u0, 0.0).coeffs.tolist() == [1.0]

    def test_terminal_time_reads_the_datum_past_square_overflow(self):
        # u(T) = f = 1; only du/dt = -lambda^2 f overflows, and is named
        m = make_custom_spectrum([8e307])
        traj = parabolic_trajectory_from_terminal(Parabolic(T=1.0, f=from_coeffs(m, [1.0])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModeOverflowError, match="backward heat time derivative"):
                traj(np.array([1.0]))
        u, du = kp._parabolic(Parabolic(T=1.0, f=from_coeffs(m, [1.0])), np.array([1.0]))
        assert u.tolist() == [[1.0]] and du.tolist() == [[-math.inf]]


class TestBoundedRefusals:
    def test_overflow_message_at_2048_modes(self):
        # exp(lambda^2 T) overflows on every mode: the message stays short,
        # the error still carries every position
        m = sine_model(2048)
        p = Parabolic(T=100.0, f=from_coeffs(m, np.ones(2048)))
        with pytest.raises(ModeOverflowError) as err:
            parabolic_backward_trace(p)
        assert err.value.mode_indices == tuple(range(2048))
        msg = str(err.value)
        assert len(msg) < 300
        assert "2048 mode positions in [0, 2047], first 8: [0, 1, 2, 3, 4, 5, 6, 7]" in msg

    def test_resonance_message_lists_shown_eigenvalues_only(self):
        # lambda_j T = j pi: every sine mode is resonant at T = 1
        m = sine_model(1000)
        with pytest.raises(ResonanceError) as err:
            Hyperbolic(T=1.0, f=zeros(m), g=zeros(m))
        assert err.value.mode_indices == tuple(range(1000))
        assert len(str(err.value)) < 500

    def test_few_positions_listed_in_full(self):
        assert describe_modes([3, 5]) == "mode positions [3, 5]"
        assert describe_modes(np.array([1]), [10.0, 20.0]) == (
            "mode positions [1] (eigenvalues [20.0])"
        )
        assert describe_modes(range(2, 11)) == (
            "9 mode positions in [2, 10], first 8: [2, 3, 4, 5, 6, 7, 8, 9]"
        )


class TestTrajectoryNorms:
    def test_zero_trajectory(self):
        m = sine_model()
        p = Elliptic(T=1.0, f=zeros(m), g=zeros(m))
        tn = TrajectoryNormSpec(which="Ve")
        assert trajectory_norm(p, elliptic_trajectory(p), tn) == 0.0

    def test_constant_trajectory_energy(self):
        # constant u = e_1, du = 0: integrand is ||e_1||_1^2 = 1 + pi^2
        m = sine_model()
        p = Elliptic(T=1.0, f=zeros(m), g=zeros(m))
        e1 = unit_mode(m, 1).coeffs
        traj = lambda ts: (np.tile(e1, (ts.size, 1)), np.zeros((ts.size, m.n_modes)))
        got = trajectory_norm(p, traj, TrajectoryNormSpec(which="Ve"))
        assert got == pytest.approx(oracles.SQRT_1_PLUS_PI2, rel=1e-13)
        got_sup = trajectory_norm(p, traj, TrajectoryNormSpec(which="Vh"))
        assert got_sup == pytest.approx(oracles.SQRT_1_PLUS_PI2, rel=1e-14)

    def test_parabolic_trajectory_norm_finite(self):
        m = sine_model(4)
        u0 = from_coeffs(m, [1.0, 0.5, 0.25, 0.125])
        T = 0.0625
        p = Parabolic(T=T, f=parabolic_solution_at(u0, T))
        got = trajectory_norm(
            p, parabolic_trajectory_from_terminal(p), TrajectoryNormSpec(which="Vp")
        )
        assert math.isfinite(got) and got > 0.0

    def test_quadrature_spec_validation(self):
        with pytest.raises(ConfigError):
            TrajectoryNormSpec(which="bogus")
        with pytest.raises(ConfigError):
            TrajectoryNormSpec(which="Ve", quadrature_points=1)


class TestIllPosednessDemo:
    def test_data_norm_normalized(self):
        m = sine_model(6)
        for kind, T in (("elliptic", 1.0), ("hyperbolic", 1.0 / math.pi), ("parabolic", 0.0625)):
            for k in (1, 3, 6):
                rec = illposedness_demo(kind, m, T, k)
                assert rec.data_norm == pytest.approx(1.0, rel=1e-12)

    def test_elliptic_growth_across_modes(self):
        m = sine_model(3)
        r1 = illposedness_demo("elliptic", m, 1.0, 1)
        r3 = illposedness_demo("elliptic", m, 1.0, 3)
        assert r3.solution_norm / r1.solution_norm > 100.0

    def test_parabolic_overflow_flagged(self):
        m = make_custom_spectrum([1.0, 50.0])
        rec = illposedness_demo("parabolic", m, 1.0, 2)
        assert rec.overflow
        assert rec.solution_norm == math.inf

    @pytest.mark.parametrize("kind", ["elliptic", "hyperbolic", "parabolic"])
    def test_zero_datum_mode_past_square_overflow(self, kind):
        # mode 2 has lambda^2 = inf and no datum: its terms are zero, not
        # inf * 0 = NaN, and it never trips the guard
        m = make_custom_spectrum([1.0, 1e200])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = illposedness_demo(kind, m, 0.5, 1)
        assert not rec.overflow and math.isfinite(rec.solution_norm)
        alone = illposedness_demo(kind, make_custom_spectrum([1.0]), 0.5, 1)
        assert rec.solution_norm == alone.solution_norm
        if kind == "parabolic":
            assert rec.solution_norm == pytest.approx(1.4656, rel=1e-4)

    @staticmethod
    def bits(rec):
        return [x.hex() if isinstance(x, float) else x for x in dataclasses.astuple(rec)]

    @pytest.mark.parametrize("kind", ["elliptic", "hyperbolic", "parabolic"])
    @pytest.mark.parametrize("n, ks", [(64, range(1, 65)), (512, (1, 2, 256, 511, 512))])
    def test_rows_match_the_whole_model_bitwise(self, kind, n, ks):
        # the other modes only add exact zeros; T as in `kmiter demo-illposed`
        m = sine_model(n)
        T = 1.0 / math.pi if kind == "hyperbolic" else 1.0
        recs = [illposedness_demo(kind, m, T, k) for k in ks]
        want = [oracles.illposedness_row_on_whole_model(kind, m, T, k) for k in ks]
        assert [self.bits(r) for r in recs] == [self.bits(r) for r in want]
        if kind == "parabolic":
            assert any(r.overflow for r in recs) and not all(r.overflow for r in recs)

    @pytest.mark.parametrize("kind", ["elliptic", "hyperbolic", "parabolic"])
    def test_each_row_is_a_one_mode_problem(self, monkeypatch, kind):
        seen = []

        def recording(spec, traj, tn):
            seen.append(spec.model.n_modes)
            return trajectory_norm(spec, traj, tn)

        monkeypatch.setattr(kp, "trajectory_norm", recording)
        m = sine_model(40)
        for k in (1, 17, 40):
            illposedness_demo(kind, m, 1.0 / math.pi, k)
        assert seen == [1, 1, 1]

    def test_only_a_resonant_mode_refuses_its_row(self):
        # sin(pi * 1) is below the resonance tolerance; sin(1) and sin(5) are not
        m = make_custom_spectrum([1.0, math.pi, 5.0])
        for k in (1, 3):
            rec = illposedness_demo("hyperbolic", m, 1.0, k)
            assert rec.mode_index == k and math.isfinite(rec.solution_norm)
        with pytest.raises(ResonanceError) as err:
            illposedness_demo("hyperbolic", m, 1.0, 2)
        assert err.value.mode_indices == (1,)
        assert describe_modes([1], m.eigenvalues) in str(err.value)
        assert "mode positions [0]" not in str(err.value)

    def test_unknown_kind_rejected(self):
        m = sine_model()
        with pytest.raises(ConfigError):
            illposedness_demo("spherical", m, 1.0, 1)

    def test_mode_out_of_range(self):
        m = sine_model()
        with pytest.raises(ConfigError):
            illposedness_demo("elliptic", m, 1.0, 99)


class TestHyperbolicTrajectory:
    def test_endpoints_match_data(self):
        m = make_custom_spectrum([1.0, 2.5])
        f = from_coeffs(m, [1.0, 0.2])
        g = from_coeffs(m, [-0.4, 0.9])
        p = Hyperbolic(T=1.0, f=f, g=g)
        traj = hyperbolic_trajectory(p)
        (u0, uT), (du0, _) = traj(np.array([0.0, 1.0]))
        np.testing.assert_allclose(u0, f.coeffs, atol=1e-14)
        np.testing.assert_allclose(uT, g.coeffs, atol=1e-14)
        np.testing.assert_allclose(
            du0, hyperbolic_solution_dt0(p).coeffs, atol=1e-14
        )


# ---------------------------------------------------------------------------
# Reference: the closed forms evaluated one time at a time, each time as two
# validated vectors, and the norm loop over them with norm_s.  The
# evaluators and the blocked norm must reproduce these.  Where the per-time
# code let numpy warn on overflow, the reference ignores the warning, so an
# overflow surfaces as the guard's error or an infinite norm on both sides.


def ref_guard(coeffs, what):
    bad = np.flatnonzero(~np.isfinite(coeffs) | (np.abs(coeffs) > OVERFLOW_LIMIT))
    if bad.size:
        raise ModeOverflowError(what, mode_indices=tuple(bad.tolist()))
    return coeffs


def ref_times_datum(multiplier, datum):
    return np.where(datum == 0.0, datum, multiplier * datum)


def ref_check_time(spec, t):
    t = float(t)
    if not (0.0 <= t <= spec.T):
        raise ConfigError(f"t = {t!r} outside [0, T] with T = {spec.T!r}")
    return t


def ref_elliptic_solution_at(spec, t):
    t = ref_check_time(spec, t)
    lam = spec.model.eigenvalues
    with np.errstate(over="ignore", invalid="ignore"):
        c = ref_times_datum(np.cosh(lam * t), spec.f.coeffs) + ref_times_datum(
            np.sinh(lam * t) / lam, spec.g.coeffs
        )
    return SpectralVec(ref_guard(c, "elliptic solution"), spec.model)


def ref_elliptic_dt_solution_at(spec, t):
    t = ref_check_time(spec, t)
    lam = spec.model.eigenvalues
    with np.errstate(over="ignore", invalid="ignore"):
        c = ref_times_datum(lam * np.sinh(lam * t), spec.f.coeffs) + ref_times_datum(
            np.cosh(lam * t), spec.g.coeffs
        )
    return SpectralVec(ref_guard(c, "elliptic time derivative"), spec.model)


def ref_hyperbolic_solution_at(spec, t):
    t = ref_check_time(spec, t)
    lam = spec.model.eigenvalues
    phi = hyperbolic_solution_dt0(spec).coeffs
    with np.errstate(over="ignore", invalid="ignore"):
        c = np.cos(lam * t) * spec.f.coeffs + np.sin(lam * t) / lam * phi
    return SpectralVec(ref_guard(c, "hyperbolic solution"), spec.model)


def ref_parabolic_backward_trace(spec):
    lam = spec.model.eigenvalues
    with np.errstate(over="ignore", invalid="ignore"):
        c = np.exp(lam * lam * spec.T) * spec.f.coeffs
    c[spec.f.coeffs == 0.0] = 0.0
    return SpectralVec(ref_guard(c, "backward heat value"), spec.model)


def ref_elliptic_trajectory(spec):
    return lambda t: (ref_elliptic_solution_at(spec, t), ref_elliptic_dt_solution_at(spec, t))


def ref_hyperbolic_trajectory(spec):
    phi = hyperbolic_solution_dt0(spec)
    lam = spec.model.eigenvalues

    def traj(t):
        with np.errstate(over="ignore", invalid="ignore"):
            u = np.cos(lam * t) * spec.f.coeffs + np.sin(lam * t) / lam * phi.coeffs
            du = -lam * np.sin(lam * t) * spec.f.coeffs + np.cos(lam * t) * phi.coeffs
        return SpectralVec(u, spec.model), SpectralVec(du, spec.model)

    return traj


def ref_parabolic_trajectory(spec):
    lam = spec.model.eigenvalues
    lam2 = lam * lam

    def traj(t):
        t = ref_check_time(spec, t)
        with np.errstate(over="ignore", invalid="ignore"):
            u = np.exp(lam2 * (spec.T - t)) * spec.f.coeffs
            u[spec.f.coeffs == 0.0] = 0.0
            u = ref_guard(u, "backward heat trajectory")
            return SpectralVec(u, spec.model), SpectralVec(-lam2 * u, spec.model)

    return traj


def ref_trajectory_norm(spec, traj, tn):
    ts = np.linspace(0.0, spec.T, tn.quadrature_points)
    dt_scale = 0.0 if tn.which in ("Ve", "Vh") else -1.0
    vals = np.empty(ts.size)
    with np.errstate(over="ignore"):
        for i, t in enumerate(ts):
            u, du = traj(float(t))
            # numpy squares: a finite norm past 1.3e154 squares to inf
            vals[i] = np.float64(norm_s(u, 1.0)) ** 2 + np.float64(norm_s(du, dt_scale)) ** 2
        if tn.which == "Vh":
            return float(np.sqrt(np.max(vals)))
        return float(np.sqrt(np.trapezoid(vals, ts)))


FAMILIES = {
    "elliptic": (ref_elliptic_trajectory, elliptic_trajectory, "Ve"),
    "hyperbolic": (ref_hyperbolic_trajectory, hyperbolic_trajectory, "Vh"),
    "parabolic": (ref_parabolic_trajectory, parabolic_trajectory_from_terminal, "Vp"),
}
# mode counts around the block boundaries of trajectory_norm: 257 times fit
# one block up to N = 127, and from N = 2**14 + 1 on a block is one time
SMALL_N = st.integers(1, 12) | st.sampled_from([126, 127, 128, 129, 255, 256, 257])
LARGE_N = st.sampled_from([2**14, 2**14 + 1, 2**15 - 1, 2**15, 2**15 + 1, 40000])


def outcome(fn, *args):
    """``("value", x)`` or ``("overflow", mode_indices)``."""
    try:
        return "value", fn(*args)
    except ModeOverflowError as exc:
        return "overflow", exc.mode_indices


def overflowed(fn, *args):
    """The norm, or ``inf`` when it overflows or raises ModeOverflowError."""
    kind, val = outcome(fn, *args)
    return math.inf if kind == "overflow" or not math.isfinite(val) else val


@st.composite
def problems(draw):
    kind = draw(st.sampled_from(sorted(FAMILIES)))
    quad = draw(st.sampled_from([2, 3, 257]))
    n = draw(SMALL_N if quad == 257 else SMALL_N | LARGE_N)
    if draw(st.booleans()):
        model = make_sine_spectrum_1d(n, draw(st.sampled_from([1.0, math.pi, 10.0])))
    else:
        lam = draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n)) if n <= 12 else (
            np.random.default_rng(n).uniform(1e-3, 1e3, n)
        )
        model = make_custom_spectrum(np.sort(lam))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def datum():
        c = rng.standard_normal(n) * 10.0 ** draw(st.sampled_from([-300, -3, 0, 3, 150, 299]))
        zero = rng.random(n) < draw(st.sampled_from([0.0, 0.5, 0.99, 1.0]))
        c[zero] = np.where(rng.random(n) < 0.5, 0.0, -0.0)[zero]
        return from_coeffs(model, c)

    # lambda_max T around 710 (elliptic) or lambda_max^2 T around 700
    # (parabolic) is where the closed forms start to overflow
    reach = draw(st.sampled_from([1e-3, 1.0, 50.0, 700.0, 720.0, 2000.0]))
    lam_max = model.lambda_max
    T = reach / (lam_max * lam_max if kind == "parabolic" else lam_max)
    if kind == "elliptic":
        spec = Elliptic(T=T, f=datum(), g=datum())
    elif kind == "hyperbolic":
        try:
            spec = Hyperbolic(T=T, f=datum(), g=datum())
        except ResonanceError:
            assume(False)
    else:
        spec = Parabolic(T=T, f=datum())
    return kind, spec, TrajectoryNormSpec(FAMILIES[kind][2], quadrature_points=quad)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestAgainstPerTimeReference:
    @given(problems(), st.floats(0.0, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_traces_bitwise(self, case, frac):
        kind, spec, _ = case
        times = (0.0, frac * spec.T, spec.T)
        calls = {
            "elliptic": [(elliptic_solution_at, ref_elliptic_solution_at, (spec, t)) for t in times]
            + [(elliptic_dt_solution_at, ref_elliptic_dt_solution_at, (spec, t)) for t in times],
            "hyperbolic": [
                (hyperbolic_solution_at, ref_hyperbolic_solution_at, (spec, t)) for t in times
            ],
            "parabolic": [(parabolic_backward_trace, ref_parabolic_backward_trace, (spec,))],
        }[kind]
        for new, ref, args in calls:
            got, want = outcome(new, *args), outcome(ref, *args)
            assert got[0] == want[0]
            if got[0] == "overflow":
                assert got[1] == want[1]
            else:
                assert same_bits(got[1].coeffs, want[1].coeffs)

    @given(problems())
    @settings(max_examples=150, deadline=None)
    def test_trajectory_norm(self, case):
        kind, spec, tn = case
        ref_provider, provider, _ = FAMILIES[kind]
        want = overflowed(lambda: ref_trajectory_norm(spec, ref_provider(spec), tn))
        got = overflowed(lambda: trajectory_norm(spec, provider(spec), tn))
        if math.isinf(want):
            assert math.isinf(got)
        else:
            assert got == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_provider_rows_are_the_traces(self):
        m = make_custom_spectrum([1.0, 2.5, 4.0])
        f, g = from_coeffs(m, [1.0, -0.0, 0.3]), from_coeffs(m, [0.0, 2.0, -1.0])
        ts = np.array([0.0, 0.25, 1.0])
        e = Elliptic(T=1.0, f=f, g=g)
        u, du = elliptic_trajectory(e)(ts)
        assert u.shape == du.shape == (3, 3)
        for row, t in enumerate(ts):
            assert same_bits(u[row], elliptic_solution_at(e, t).coeffs)
            assert same_bits(du[row], elliptic_dt_solution_at(e, t).coeffs)
        h = Hyperbolic(T=1.0, f=f, g=g)
        u, _ = hyperbolic_trajectory(h)(ts)
        for row, t in enumerate(ts):
            assert same_bits(u[row], hyperbolic_solution_at(h, t).coeffs)
        p = Parabolic(T=1.0, f=f)
        u, _ = parabolic_trajectory_from_terminal(p)(ts)
        assert same_bits(u[0], parabolic_backward_trace(p).coeffs)

    @given(problems(), st.floats(0.0, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_single_row_traces_are_the_two_half_evaluator(self, case, frac):
        # a single-row trace evaluates only the half it returns: its bits,
        # signed zeros and refusal are those of the half the two-half
        # evaluator gives at that time, under the same guard
        kind, spec, _ = case

        def result(fn):
            try:
                return "value", fn().tobytes()
            except ModeOverflowError as exc:
                return "overflow", str(exc), exc.mode_indices

        def two_half(evaluate, half, what, t):
            return lambda: kp._guard_overflow(evaluate(spec, t)[half][0], what)

        times = (0.0, frac * spec.T, spec.T)
        pairs = {
            "elliptic": [
                (lambda t=t: elliptic_solution_at(spec, t).coeffs,
                 two_half(kp._elliptic, 0, "elliptic solution", t)) for t in times
            ] + [
                (lambda t=t: elliptic_dt_solution_at(spec, t).coeffs,
                 two_half(kp._elliptic, 1, "elliptic time derivative", t)) for t in times
            ],
            "parabolic": [
                (lambda: parabolic_backward_trace(spec).coeffs,
                 two_half(kp._parabolic, 0, "backward heat value", 0.0))
            ],
        }.get(kind, [])  # the hyperbolic trace keeps the two-half evaluator
        for single, both in pairs:
            assert result(single) == result(both)

    def test_hyperbolic_velocity_once_per_provider(self, monkeypatch):
        n = 512  # 2**15 // 512 = 64 times per block: 257 times take 5 blocks
        m = make_sine_spectrum_1d(n, 1.0)
        data = from_coeffs(m, np.random.default_rng(0).standard_normal(n))
        spec, tn = Hyperbolic(T=1.0 / math.pi, f=data, g=data), TrajectoryNormSpec("Vh")
        calls = []
        dt0 = kp.hyperbolic_solution_dt0
        monkeypatch.setattr(kp, "hyperbolic_solution_dt0", lambda sp: calls.append(sp) or dt0(sp))
        traj = hyperbolic_trajectory(spec)
        assert calls == []
        norm = trajectory_norm(spec, traj, tn)
        assert len(calls) == 1
        assert trajectory_norm(spec, traj, tn) == norm and len(calls) == 1
        # the velocity is still refused at the first call, not when built
        m = make_custom_spectrum([1.0, 2.0])
        p = Hyperbolic(T=1.0, f=zeros(m), g=from_coeffs(m, [0.0, 1e300]))
        traj = hyperbolic_trajectory(p)
        for _ in range(2):
            with pytest.raises(ModeOverflowError, match="^hyperbolic initial velocity") as err:
                traj(np.array([0.0, 0.5]))
            assert err.value.mode_indices == (1,)

    def test_provider_rejects_times_outside(self):
        m = make_custom_spectrum([1.0])
        p = Parabolic(T=1.0, f=unit_mode(m, 1))
        with pytest.raises(ConfigError, match="t = 1.5 outside"):
            parabolic_trajectory_from_terminal(p)(np.array([0.0, 1.5]))
        with pytest.raises(ConfigError, match="nan"):
            parabolic_trajectory_from_terminal(p)(np.array([math.nan]))

    def test_provider_names_modes_over_all_times(self):
        # cosh(800 t) f passes 1e300 from t of about 0.86 on, cosh(1000 t) f
        # from about 0.69 on: the block from 0.5 to 1 names both modes
        m = make_custom_spectrum([1.0, 800.0, 1000.0])
        p = Elliptic(T=1.0, f=from_coeffs(m, [1.0, 1.0, 1.0]), g=zeros(m))
        with pytest.raises(ModeOverflowError) as err:
            elliptic_trajectory(p)(np.linspace(0.5, 1.0, 5))
        assert err.value.mode_indices == (1, 2)
        elliptic_trajectory(p)(np.array([0.0, 0.5]))

    def test_hyperbolic_trajectory_is_guarded(self):
        m = make_custom_spectrum([1.0, 2.0])
        p = Hyperbolic(T=1.0, f=from_coeffs(m, [0.0, 1e300]), g=from_coeffs(m, [0.0, 0.0]))
        with pytest.raises(ModeOverflowError) as err:
            hyperbolic_trajectory(p)(np.array([0.0, 0.5]))
        assert err.value.mode_indices == (1,)

    def test_vp_weights_before_squaring(self):
        # du/dt = -lambda^2 u = -1e156 squares past float max, but its
        # weighted square lambda^4 u^2 / (1 + lambda^2) is about 1e306
        m = make_custom_spectrum([1e3])
        p = Parabolic(T=1e-12, f=from_coeffs(m, [1e150]))
        tn = TrajectoryNormSpec("Vp", quadrature_points=3)
        want = ref_trajectory_norm(p, ref_parabolic_trajectory(p), tn)
        assert math.isfinite(want)
        got = trajectory_norm(p, parabolic_trajectory_from_terminal(p), tn)
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_block_memory_is_o_of_n(self):
        n = 16384
        m = make_sine_spectrum_1d(n, 1.0)
        data = from_coeffs(m, np.random.default_rng(0).standard_normal(n))
        lam_max = m.lambda_max
        specs = [
            (Elliptic(T=1.0 / lam_max, f=data, g=data), elliptic_trajectory, "Ve"),
            (Hyperbolic(T=1.0 / math.pi, f=data, g=data), hyperbolic_trajectory, "Vh"),
            (Parabolic(T=1.0 / lam_max**2, f=data), parabolic_trajectory_from_terminal, "Vp"),
        ]
        for spec, provider, which in specs:
            traj, tn = provider(spec), TrajectoryNormSpec(which)
            tracemalloc.start()
            try:
                norm = trajectory_norm(spec, traj, tn)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert math.isfinite(norm)
            assert peak < 8 * 2**20, (which, peak)
