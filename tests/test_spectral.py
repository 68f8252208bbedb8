import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from kmiter.errors import ConfigError, EvaluationError, ModelMismatchError
from kmiter.spectral import (
    CustomBasis,
    Sine1D,
    SineRect2D,
    SpectralVec,
    SpectrumModel,
    apply_spectral_function,
    axpy,
    from_coeffs,
    inner,
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


class TestSineSpectrum1D:
    def test_unit_interval_three_modes(self):
        m = make_sine_spectrum_1d(3, 1.0)
        np.testing.assert_allclose(
            m.eigenvalues, [math.pi, 2 * math.pi, 3 * math.pi], rtol=1e-15
        )
        assert m.basis == Sine1D(length=1.0)
        np.testing.assert_array_equal(m.mode_index_map, [[1], [2], [3]])

    def test_length_two(self):
        m = make_sine_spectrum_1d(1, 2.0)
        np.testing.assert_allclose(m.eigenvalues, [oracles.HALF_PI], rtol=1e-15)

    def test_fifth_eigenvalue(self):
        m = make_sine_spectrum_1d(5, 1.0)
        assert m.eigenvalues[4] == pytest.approx(oracles.FIVE_PI, rel=1e-15)
        assert m.lambda_max == pytest.approx(oracles.FIVE_PI, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ConfigError):
            make_sine_spectrum_1d(0, 1.0)
        with pytest.raises(ConfigError):
            make_sine_spectrum_1d(3, -1.0)
        with pytest.raises(ConfigError):
            make_sine_spectrum_1d(3, math.inf)


class TestSineSpectrumRect:
    def test_single_mode(self):
        m = make_sine_spectrum_rect(1, 1, 1.0, 1.0)
        np.testing.assert_allclose(m.eigenvalues, [oracles.PI_SQRT2], rtol=1e-15)
        np.testing.assert_array_equal(m.mode_index_map, [[1, 1]])
        assert m.basis == SineRect2D(lx=1.0, ly=1.0, nx=1, ny=1)

    def test_two_by_one(self):
        m = make_sine_spectrum_rect(2, 1, 1.0, 1.0)
        np.testing.assert_allclose(
            m.eigenvalues, [oracles.PI_SQRT2, oracles.PI_SQRT5], rtol=1e-15
        )
        np.testing.assert_array_equal(m.mode_index_map, [[1, 1], [2, 1]])

    def test_two_by_two(self):
        m = make_sine_spectrum_rect(2, 2, 1.0, 1.0)
        assert m.n_modes == 4
        assert m.eigenvalues[0] == pytest.approx(oracles.PI_SQRT2, rel=1e-15)
        assert m.eigenvalues[-1] == pytest.approx(oracles.TWO_PI_SQRT2, rel=1e-15)
        assert np.all(np.diff(m.eigenvalues) >= 0.0)

    def test_tie_break_is_lexicographic(self):
        # On a square the (1,2) and (2,1) eigenvalues coincide exactly.
        m = make_sine_spectrum_rect(2, 2, 1.0, 1.0)
        assert m.mode_index_map[1].tolist() == [1, 2]
        assert m.mode_index_map[2].tolist() == [2, 1]


class TestModeIndexMap:
    @staticmethod
    def model(table):
        return SpectrumModel(np.array([1.0, 2.0]), CustomBasis(), mode_index_map=table)

    @pytest.mark.parametrize(
        "table",
        [((1, 2), (3, 4)), [[1, 2], [3, 4]], np.array([[1, 2], [3, 4]]), [[1.0, 2], ["3", 4]]],
    )
    def test_stored_as_a_read_only_int64_array(self, table):
        m = self.model(table)
        idx = m.mode_index_map
        assert isinstance(idx, np.ndarray) and idx.dtype == np.int64
        assert idx.tolist() == [[1, 2], [3, 4]]
        assert not idx.flags.writeable
        with pytest.raises(ValueError):
            idx[0, 0] = 5
        other = self.model([[1, 2], [3, 4]])
        assert m == other and hash(m) == hash(other)

    def test_kept_apart_from_the_callers_array(self):
        table = np.array([[1, 2], [3, 4]])
        m = self.model(table)
        table[0, 0] = 7
        assert table.flags.writeable
        assert m.mode_index_map.tolist() == [[1, 2], [3, 4]]
        assert m != self.model(table)

    @pytest.mark.parametrize(
        "table", [((1,), (2, 3)), (1, 2), ((1,),), (("a",), (2,)), ((), ()), ((2**70,), (1,))]
    )
    def test_not_one_integer_row_per_mode(self, table):
        with pytest.raises(ConfigError, match="mode_index_map"):
            self.model(table)

    def test_builders_match_the_python_loops(self):
        assert make_sine_spectrum_1d(300, 1.0).mode_index_map.tolist() == [[j] for j in range(1, 301)]
        rect = make_sine_spectrum_rect(4, 3, 1.0, 2.0)
        assert sorted(rect.mode_index_map.tolist()) == [[j, k] for j in range(1, 5) for k in range(1, 4)]


class TestCustomSpectrum:
    def test_basic(self):
        m = make_custom_spectrum([1.0, 2.5, 7.0])
        np.testing.assert_array_equal(m.eigenvalues, [1.0, 2.5, 7.0])
        assert m.basis == CustomBasis()
        np.testing.assert_array_equal(m.mode_index_map, [[1], [2], [3]])

    def test_rejects_unsorted(self):
        with pytest.raises(ConfigError):
            make_custom_spectrum([2.0, 1.0])

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            make_custom_spectrum([0.0, 1.0])
        with pytest.raises(ConfigError):
            make_custom_spectrum([-3.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ConfigError):
            make_custom_spectrum([1.0, math.nan])


class TestModelSemantics:
    def test_eigenvalues_read_only(self):
        m = make_sine_spectrum_1d(3, 1.0)
        with pytest.raises(ValueError):
            m.eigenvalues[0] = 5.0

    def test_per_mode_memory_is_two_arrays(self):
        # eigenvalues and mode map are 0.5 MB each at 65536 modes; a Python
        # object per mode would retain several times that
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            m = make_sine_spectrum_1d(65536, 1.0)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert m.n_modes == 65536
        assert retained < 1.5 * 2**20

    def test_value_equality_and_hash(self):
        a = make_sine_spectrum_1d(3, 1.0)
        b = make_sine_spectrum_1d(3, 1.0)
        c = make_sine_spectrum_1d(3, 2.0)
        assert a == b
        assert hash(a) == hash(b)
        assert a != c

    def test_vector_coeffs_read_only(self):
        v = unit_mode(make_sine_spectrum_1d(3, 1.0), 1)
        with pytest.raises(ValueError):
            v.coeffs[0] = 2.0


class TestVectors:
    def setup_method(self):
        self.model = make_sine_spectrum_1d(3, 1.0)

    def test_zeros_and_unit_mode(self):
        np.testing.assert_array_equal(zeros(self.model).coeffs, [0.0, 0.0, 0.0])
        np.testing.assert_array_equal(unit_mode(self.model, 2).coeffs, [0.0, 1.0, 0.0])

    def test_unit_mode_bounds(self):
        with pytest.raises(ConfigError):
            unit_mode(self.model, 0)
        with pytest.raises(ConfigError):
            unit_mode(self.model, 4)

    def test_from_coeffs_length_check(self):
        with pytest.raises(ModelMismatchError):
            from_coeffs(self.model, [1.0, 2.0])

    def test_operator_sugar(self):
        v = from_coeffs(self.model, [1.0, 2.0, 3.0])
        w = from_coeffs(self.model, [1.0, 0.0, -1.0])
        np.testing.assert_array_equal((v + w).coeffs, [2.0, 2.0, 2.0])
        np.testing.assert_array_equal((v - w).coeffs, [0.0, 2.0, 4.0])
        np.testing.assert_array_equal((2.0 * v).coeffs, [2.0, 4.0, 6.0])
        np.testing.assert_array_equal((-v).coeffs, [-1.0, -2.0, -3.0])


class TestScaleNorm:
    def test_unit_coefficient_l2(self):
        m = make_sine_spectrum_1d(3, 1.0)
        assert norm_s(from_coeffs(m, [1.0, 0.0, 0.0]), 0.0) == 1.0

    @pytest.mark.parametrize("s", [0.0, -0.5])
    def test_finite_past_the_square_overflow(self, s):
        # the sum of squares of coefficients near 1e160 overflows; the norm
        # is that of the sample scaled by 2**-600, scaled back exactly
        m = make_sine_spectrum_1d(64, 1.0)
        g = 1e160 * np.random.default_rng(0).standard_normal(64)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = norm_s(from_coeffs(m, g), s)
            small = norm_s(from_coeffs(m, np.ldexp(g, -600)), s)
        assert math.isfinite(got)
        assert got == math.ldexp(small, 600)

    @pytest.mark.parametrize("s", [0.0, -0.5])
    def test_nonzero_below_the_square_underflow(self, s):
        # the sum of squares of coefficients near 1e-160 falls below the
        # smallest normal float; the norm is that of the sample scaled by
        # 2**600, scaled back exactly
        m = make_sine_spectrum_1d(64, 1.0)
        g = 1e-160 * np.random.default_rng(0).standard_normal(64)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = norm_s(from_coeffs(m, g), s)
            big = norm_s(from_coeffs(m, np.ldexp(g, 600)), s)
        assert got == math.ldexp(big, -600)
        assert norm_s(1e-200 * unit_mode(m, 1), 0.0) == 1e-200
        assert norm_s(zeros(m), s) == 0.0

    @given(
        st.lists(st.floats(-1e150, 1e150), min_size=1, max_size=40),
        st.sampled_from([0.0, -1.0, -0.5, 0.5, 1.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_bits_of_linalg_norm_where_the_sum_is_finite(self, coeffs, s):
        m = make_sine_spectrum_1d(len(coeffs), 1.0)
        c = np.asarray(coeffs)
        weighted = c if s == 0.0 else scale_weights(m, 0.5 * s) * c
        with np.errstate(over="ignore"):
            want = float(np.linalg.norm(weighted))
        # a nonzero sum below the smallest normal float (2**-1022) is taken
        # at a power-of-two scale: test_nonzero_below_the_square_underflow
        assume(math.isfinite(want) and (want >= 2.0**-511 or not weighted.any()))
        assert repr(norm_s(from_coeffs(m, c), s)) == repr(want)

    def test_zero_coefficient_under_an_infinite_weight(self):
        # (1 + lambda^2)^(s/2) is inf at lambda = 1e200 for s > 0; a zero
        # coefficient there is a zero term, a nonzero one still gives inf
        m = make_custom_spectrum([1.0, 1e200])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert norm_s(from_coeffs(m, [1.0, 0.0]), 1.0) == math.sqrt(2.0)
            assert norm_s(from_coeffs(m, [1.0, 0.0]), 0.5) == 2.0**0.25
            assert norm_s(from_coeffs(m, [1.0, 1e-300]), 0.5) == math.inf

    def test_index_one(self):
        m = make_custom_spectrum([math.pi])
        assert norm_s(from_coeffs(m, [1.0]), 1.0) == pytest.approx(
            oracles.SQRT_1_PLUS_PI2, rel=1e-14
        )

    def test_index_minus_half(self):
        m = make_custom_spectrum([math.pi])
        assert norm_s(from_coeffs(m, [1.0]), -0.5) == pytest.approx(
            oracles.INV_FOURTH_ROOT_1_PLUS_PI2, rel=1e-14
        )

    def test_scale_weights_index_zero(self):
        m = make_sine_spectrum_1d(4, 1.0)
        np.testing.assert_array_equal(scale_weights(m, 0.0), np.ones(4))

    def test_negative_index_shrinks_high_modes(self):
        m = make_sine_spectrum_1d(8, 1.0)
        w = scale_weights(m, -1.0)
        assert np.all(np.diff(w) < 0.0)


class TestArithmetic:
    def setup_method(self):
        self.model = make_sine_spectrum_1d(2, 1.0)

    def test_inner_orthogonal(self):
        v = from_coeffs(self.model, [1.0, 0.0])
        w = from_coeffs(self.model, [0.0, 1.0])
        assert inner(v, w) == 0.0

    def test_axpy(self):
        v = from_coeffs(self.model, [1.0, 1.0])
        w = from_coeffs(self.model, [1.0, 0.0])
        np.testing.assert_array_equal(axpy(2.0, v, w).coeffs, [3.0, 2.0])

    def test_sub_self(self):
        v = from_coeffs(self.model, [1.0, 2.0])
        np.testing.assert_array_equal(sub(v, v).coeffs, [0.0, 0.0])

    def test_model_mismatch_rejected(self):
        other = make_sine_spectrum_1d(2, 2.0)
        v = from_coeffs(self.model, [1.0, 2.0])
        w = from_coeffs(other, [1.0, 2.0])
        with pytest.raises(ModelMismatchError):
            inner(v, w)
        with pytest.raises(ModelMismatchError):
            axpy(1.0, v, w)
        with pytest.raises(ModelMismatchError):
            sub(v, w)


class TestApplySpectralFunction:
    def test_identity_map(self):
        m = make_sine_spectrum_1d(3, 1.0)
        v = from_coeffs(m, [1.0, -2.0, 0.5])
        out = apply_spectral_function(m, lambda lam: 1.0, v)
        np.testing.assert_array_equal(out.coeffs, v.coeffs)

    def test_multiply_by_lambda(self):
        m = make_sine_spectrum_1d(2, 1.0)
        v = from_coeffs(m, [1.0, 1.0])
        out = apply_spectral_function(m, lambda lam: lam, v)
        np.testing.assert_allclose(out.coeffs, [math.pi, 2 * math.pi], rtol=1e-15)

    def test_tanh_squared(self):
        m = make_sine_spectrum_1d(1, 1.0)
        v = from_coeffs(m, [1.0])
        out = apply_spectral_function(m, lambda lam: np.tanh(lam) ** 2, v)
        assert out.coeffs[0] == pytest.approx(oracles.TANH_PI_SQ, rel=1e-14)

    def test_scalar_only_callable(self):
        # a function that cannot take arrays must still work modewise
        m = make_sine_spectrum_1d(3, 1.0)
        v = from_coeffs(m, [1.0, 1.0, 1.0])
        out = apply_spectral_function(m, lambda lam: math.exp(-float(lam)), v)
        np.testing.assert_allclose(out.coeffs, np.exp(-m.eigenvalues), rtol=1e-15)

    def test_nonfinite_values_rejected(self):
        m = make_sine_spectrum_1d(3, 1.0)
        v = from_coeffs(m, [1.0, 1.0, 1.0])
        with pytest.raises(EvaluationError) as err:
            apply_spectral_function(m, lambda lam: np.where(lam > 4, np.nan, 1.0), v)
        assert err.value.mode_indices == (1, 2)

    def test_model_mismatch(self):
        m = make_sine_spectrum_1d(2, 1.0)
        other = make_sine_spectrum_1d(2, 3.0)
        v = from_coeffs(other, [1.0, 1.0])
        with pytest.raises(ModelMismatchError):
            apply_spectral_function(m, lambda lam: lam, v)
