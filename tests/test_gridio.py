import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from kmiter.errors import ConfigError
from kmiter.gridio import (
    GridFunction,
    ingest_grid,
    make_grid_function,
    read_grid_csv,
    render_grid,
    synth_data,
    write_grid_csv,
)
from kmiter.spectral import (
    Sine1D,
    from_coeffs,
    make_custom_spectrum,
    make_sine_spectrum_1d,
    make_sine_spectrum_rect,
    unit_mode,
)

import oracles


def grid_1d(n=129, length=1.0):
    return np.linspace(0.0, length, n)


class TestGridFunction:
    def test_boundary_trace_enforced(self):
        x = grid_1d(17)
        vals = np.sin(math.pi * x)
        vals[0] = 1e-6  # violates the zero-trace requirement
        with pytest.raises(ConfigError):
            make_grid_function((x,), vals)
        with pytest.warns(UserWarning):
            make_grid_function((x,), vals, boundary="warn")

    def test_two_dim_frame_checked(self):
        x = grid_1d(9)
        v = np.zeros((9, 9))
        v[0, 4] = 1e-3
        with pytest.raises(ConfigError):
            make_grid_function((x, x), v)

    def test_axis_validation(self):
        with pytest.raises(ConfigError):
            GridFunction(axes=(np.array([0.0, 0.5, 0.4]),), values=np.zeros(3))
        with pytest.raises(ConfigError):
            GridFunction(axes=(np.array([0.0, 0.1, 0.5]),), values=np.zeros(3))
        with pytest.raises(ConfigError):
            GridFunction(axes=(grid_1d(5),), values=np.zeros(4))
        with pytest.raises(ConfigError):
            GridFunction(axes=(grid_1d(5),), values=np.full(5, np.nan))


class TestCsvExchange:
    def test_roundtrip_1d(self, tmp_path):
        x = grid_1d(33)
        gf = make_grid_function((x,), np.sin(math.pi * x) * 0.7)
        path = tmp_path / "wave.csv"
        write_grid_csv(gf, path)
        back = read_grid_csv(path)
        np.testing.assert_array_equal(back.axes[0], gf.axes[0])
        np.testing.assert_array_equal(back.values, gf.values)

    def test_roundtrip_2d_with_shuffled_rows(self, tmp_path):
        x = grid_1d(9)
        y = grid_1d(7, length=2.0)
        vals = np.outer(np.sin(math.pi * x), np.sin(math.pi * y / 2.0))
        gf = make_grid_function((x, y), vals)
        path = tmp_path / "sheet.csv"
        write_grid_csv(gf, path)
        lines = path.read_text().strip().split("\n")
        header, rows = lines[0], lines[1:]
        rows.reverse()
        path.write_text("\n".join([header] + rows) + "\n")
        back = read_grid_csv(path)
        np.testing.assert_allclose(back.values, gf.values, rtol=1e-15)

    def test_header_required(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("0.0,0.0\n0.5,1.0\n1.0,0.0\n")
        with pytest.raises(ConfigError):
            read_grid_csv(p)

    def test_duplicate_x_rejected(self, tmp_path):
        p = tmp_path / "dup.csv"
        p.write_text("x,value\n0.0,0.0\n0.5,1.0\n0.5,2.0\n1.0,0.0\n")
        with pytest.raises(ConfigError):
            read_grid_csv(p)

    def test_incomplete_2d_grid_rejected(self, tmp_path):
        p = tmp_path / "holes.csv"
        p.write_text("x,y,value\n0.0,0.0,0.0\n0.0,1.0,0.0\n1.0,0.0,0.0\n")
        with pytest.raises(ConfigError):
            read_grid_csv(p)

    def test_non_numeric_rejected(self, tmp_path):
        p = tmp_path / "text.csv"
        p.write_text("x,value\n0.0,zero\n")
        with pytest.raises(ConfigError):
            read_grid_csv(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(ConfigError):
            read_grid_csv(p)


    def test_non_utf8_byte_refused_with_its_offset(self, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes("x,value\n0.0,0.0\n0.5,caf\u00e9\n1.0,0.0\n".encode("latin-1"))
        msg = r"latin1\.csv: byte 0xe9 at offset 23 is not valid utf-8$"
        with pytest.raises(ConfigError, match=msg):
            read_grid_csv(p)

    @pytest.mark.parametrize("quote", ["", '"'])
    def test_field_over_the_csv_limit_refused_with_its_line(self, tmp_path, quote):
        digits = "1" + "0" * 139999
        p = tmp_path / "long.csv"
        p.write_text(f"x,value\n0.0,0.0\n0.5,{quote}{digits}{quote}\n1.0,0.0\n")
        msg = r"long\.csv:3: field larger than field limit \(131072\)$"
        with pytest.raises(ConfigError, match=msg) as info:
            read_grid_csv(p)
        assert len(str(info.value)) < 200 + len(str(p))

# Files the row-by-row reader accepts, and files it refuses; the whole-file
# reader must return the same grid or raise the same message on each.
GOOD_CSV = {
    "shuffled": "x,value\n0.5,1.0\n1.0,0.0\n0.0,0.0\n0.25,0.7\n0.75,-0.7\n",
    "crlf": "x,value\r\n0.0,0.0\r\n0.5,1.0\r\n1.0,0.0\r\n",
    "cr": "x,value\r0.0,0.0\r0.5,1.0\r1.0,0.0",
    "blank lines": "x,value\n\n0.0,0.0\n\r\n0.5,1.0\n\n1.0,0.0\n\n",
    "padded": "X , Value \n 0.0 , 0.0\n\t0.5,\u20031.0 \n1.0 ,0.0\n",
    "underscored": "x,value\n0.0,0.0\n0.5,1_000.5\n1.0,0_0.0\n",
    "quoted": '"x","value"\n"0.0","0.0"\n"0.5",1.0\n1.0,"0.0"\n',
    "quoted line break": 'x,value\n0.0,"0.0\n"\n0.5,1.0\n1.0,0.0\n',
    "no final newline": "x,value\n0.0,0.0\n0.5,1e-3\n1.0,0.0",
    "2-d shuffled crlf": "x,y,value\r\n1,1,0\r\n0,0,0\r\n0.5,0.5,2.5\r\n0,1,0\r\n0.5,0,0\r\n"
    "1,0.5,0\r\n0,0.5,0\r\n1,0,0\r\n0.5,1,0\r\n",
}
BAD_CSV = {
    "empty": "",
    "header only": "x,value\n",
    "header and blank lines": "x,value\n\n\r\n",
    "wrong header": "a,b\n0.0,0.0\n",
    "blank first line": "\nx,value\n0.0,0.0\n",
    "short row": "x,value\n0.0,0.0\n0.5\n1.0,0.0\n",
    "trailing comma after blank": "x,value\n0.0,0.0\n\n0.5,1.0,\n",
    "word": "x,value\n0.0,zero\n",
    "bad float before short row": "x,value\n0.0,abc\n0.5\n",
    "short row before bad float": "x,value\n0.5\n0.0,abc\n",
    "double underscore": "x,value\n0.0,1__0\n",
    "quoted comma": 'x,value\n"0,5",1.0\n',
    "short row after quoted line break": 'x,value\n"0.0\n",0.0\n0.5\n',
    "crlf short row": "x,value\r\n0.0,0.0\r\n0.5\r\n",
    "duplicate x": "x,value\n0.0,0.0\n0.5,1.0\n0.5,2.0\n1.0,0.0\n",
    "incomplete 2-d": "x,y,value\n0.0,0.0,0.0\n0.0,1.0,0.0\n1.0,0.0,0.0\n",
    "infinite value": "x,value\n0.0,0.0\n0.5,inf\n1.0,0.0\n",
    "boundary trace": "x,value\n0.0,1.0\n0.5,1.0\n1.0,0.0\n",
}


def read_outcome(read, path):
    try:
        gf = read(path)
    except ConfigError as exc:
        return "refused", str(exc)
    return "read", [a.tolist() for a in gf.axes], gf.values.tolist()


@st.composite
def grid_functions(draw):
    """Uniform axes of 2 to 12 samples and arbitrary finite values."""
    sizes = draw(st.lists(st.integers(2, 12), min_size=1, max_size=2))
    axes = tuple(
        np.linspace(start, start + span, n)
        for n, start, span in zip(
            sizes,
            draw(st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=2)),
            draw(st.lists(st.sampled_from([1e-3, 1.0, math.pi, 1e3]), min_size=2, max_size=2)),
        )
    )
    finite = st.floats(allow_nan=False, allow_infinity=False)
    values = draw(arrays(float, tuple(sizes), elements=finite))
    return GridFunction(axes=axes, values=values)


class TestCsvAgainstRowLoop:
    """The whole-file reader and writer against the row-by-row loops in oracles.py."""

    @pytest.mark.parametrize("name", GOOD_CSV)
    def test_reads_what_the_loop_reads(self, tmp_path, name):
        path = tmp_path / "grid.csv"
        path.write_text(GOOD_CSV[name], newline="")
        want = read_outcome(oracles.read_grid_csv, path)
        assert want[0] == "read"
        assert read_outcome(read_grid_csv, path) == want

    @pytest.mark.parametrize("name", BAD_CSV)
    def test_refuses_what_the_loop_refuses(self, tmp_path, name):
        path = tmp_path / "grid.csv"
        path.write_text(BAD_CSV[name], newline="")
        want = read_outcome(oracles.read_grid_csv, path)
        assert want[0] == "refused"
        assert read_outcome(read_grid_csv, path) == want

    @given(grid_functions())
    @settings(max_examples=60, deadline=None)
    def test_writes_the_bytes_of_csv_writer(self, tmp_path_factory, gf):
        directory = tmp_path_factory.mktemp("csv")
        write_grid_csv(gf, directory / "new.csv")
        oracles.write_grid_csv(gf, directory / "loop.csv")
        assert (directory / "new.csv").read_bytes() == (directory / "loop.csv").read_bytes()


class TestIngest:
    def test_first_basis_function(self):
        m = make_sine_spectrum_1d(3, 1.0)
        x = grid_1d(129)
        gf = make_grid_function((x,), math.sqrt(2.0) * np.sin(math.pi * x))
        c = ingest_grid(gf, m).coeffs
        assert np.max(np.abs(c - [1.0, 0.0, 0.0])) < 1e-4

    def test_zero_samples(self):
        m = make_sine_spectrum_1d(3, 1.0)
        gf = make_grid_function((grid_1d(65),), np.zeros(65))
        np.testing.assert_array_equal(ingest_grid(gf, m).coeffs, 0.0)

    def test_out_of_band_mode_is_invisible(self):
        m = make_sine_spectrum_1d(3, 1.0)
        x = grid_1d(257)
        gf = make_grid_function((x,), np.sin(4.0 * math.pi * x))
        c = ingest_grid(gf, m).coeffs
        assert np.max(np.abs(c)) < 1e-4

    def test_nyquist_guard(self):
        m = make_sine_spectrum_1d(8, 1.0)
        gf = make_grid_function((grid_1d(16),), np.zeros(16))
        with pytest.raises(ConfigError):
            ingest_grid(gf, m)  # needs 17 samples for 8 modes

    def test_domain_span_checked(self):
        m = make_sine_spectrum_1d(3, 1.0)
        x = np.linspace(0.0, 0.9, 65)
        gf = make_grid_function((x,), np.zeros(65))
        with pytest.raises(ConfigError):
            ingest_grid(gf, m)

    def test_2d_product_mode(self):
        m = make_sine_spectrum_rect(3, 3, 1.0, 1.0)
        x = grid_1d(65)
        sx = math.sqrt(2.0) * np.sin(2.0 * math.pi * x)
        sy = math.sqrt(2.0) * np.sin(math.pi * x)
        gf = make_grid_function((x, x), np.outer(sx, sy))
        v = ingest_grid(gf, m)
        want = np.zeros(9)
        want[m.mode_index_map.tolist().index([2, 1])] = 1.0
        assert np.max(np.abs(v.coeffs - want)) < 1e-3

    def test_dimension_mismatch(self):
        m = make_sine_spectrum_rect(2, 2, 1.0, 1.0)
        gf = make_grid_function((grid_1d(65),), np.zeros(65))
        with pytest.raises(ConfigError):
            ingest_grid(gf, m)

    def test_custom_basis_has_no_samples(self):
        m = make_custom_spectrum([1.0, 2.0])
        gf = make_grid_function((grid_1d(65),), np.zeros(65))
        with pytest.raises(ConfigError):
            ingest_grid(gf, m)


class TestRender:
    def test_roundtrip_1d(self):
        m = make_sine_spectrum_1d(8, 1.0)
        v = from_coeffs(m, np.linspace(1.0, -0.5, 8))
        back = ingest_grid(render_grid(v), m)
        assert np.max(np.abs(back.coeffs - v.coeffs)) < 1e-4

    def test_roundtrip_2d(self):
        m = make_sine_spectrum_rect(3, 2, 1.0, 2.0)
        rng = np.random.default_rng(8)
        v = from_coeffs(m, rng.standard_normal(m.n_modes))
        back = ingest_grid(render_grid(v), m)
        assert np.max(np.abs(back.coeffs - v.coeffs)) < 1e-4

    def test_boundary_is_exactly_zero(self):
        m = make_sine_spectrum_1d(4, 1.0)
        gf = render_grid(unit_mode(m, 2), points_per_axis=33)
        assert abs(gf.values[0]) < 1e-12 and abs(gf.values[-1]) < 1e-12

    def test_resolution_validation(self):
        m = make_sine_spectrum_1d(2, 1.0)
        with pytest.raises(ConfigError):
            render_grid(unit_mode(m, 1), points_per_axis=1)


class TestSynthData:
    def test_unit_mode(self):
        m = make_sine_spectrum_1d(3, 1.0)
        np.testing.assert_array_equal(
            synth_data("unit_mode", m, k=2).coeffs, [0.0, 1.0, 0.0]
        )

    def test_parabolic_terminal_diffusion_constants(self):
        m = make_sine_spectrum_1d(3, 1.0)
        e1 = unit_mode(m, 1)
        fast = synth_data("parabolic_terminal", m, u0=e1, T=0.0625, a2=8.0)
        slow = synth_data("parabolic_terminal", m, u0=e1, T=0.0625, a2=2.0)
        assert fast.coeffs[0] == pytest.approx(oracles.EXP_NEG_PI2_128, rel=1e-13)
        assert slow.coeffs[0] == pytest.approx(oracles.EXP_NEG_PI2_32, rel=1e-13)

    def test_parabolic_terminal_validation(self):
        m = make_sine_spectrum_1d(3, 1.0)
        with pytest.raises(ConfigError):
            synth_data("parabolic_terminal", m, u0=[1, 0, 0], T=0.0625)
        with pytest.raises(ConfigError):
            synth_data("parabolic_terminal", m, u0=unit_mode(m, 1), T=0.1, a2=0.0)
        other = make_sine_spectrum_1d(4, 1.0)
        with pytest.raises(ConfigError):
            synth_data("parabolic_terminal", m, u0=unit_mode(other, 1), T=0.1)

    def test_piecewise_profile_deterministic_and_nontrivial(self):
        m = make_sine_spectrum_1d(16, 1.0)
        a = synth_data("piecewise_profile", m)
        b = synth_data("piecewise_profile", m)
        np.testing.assert_array_equal(a.coeffs, b.coeffs)
        # the square-wave part injects energy well past the first mode
        assert np.max(np.abs(a.coeffs[8:])) > 1e-3

    def test_piecewise_profile_2d(self):
        m = make_sine_spectrum_rect(4, 4, 1.0, 1.0)
        v = synth_data("piecewise_profile", m)
        assert v.coeffs.size == 16
        assert np.any(v.coeffs != 0.0)

    def test_unknown_generator(self):
        m = make_sine_spectrum_1d(3, 1.0)
        with pytest.raises(ConfigError):
            synth_data("lightning_bolt", m)

    def test_unexpected_parameters_rejected(self):
        m = make_sine_spectrum_1d(3, 1.0)
        with pytest.raises(ConfigError):
            synth_data("unit_mode", m, k=1, flavor="spicy")


# ---------------------------------------------------------------------------
# reference: the dense (points x modes) sine-matrix quadrature and rendering


def dense_sine_matrix(a, length, n):
    j = np.arange(1, n + 1)
    return math.sqrt(2.0 / length) * np.sin(np.outer(a, j * (math.pi / length)))


def dense_ingest(gf, m, absolute=False):
    # absolute=True sums |f phi| instead of f phi: the scale of the
    # quadrature's rounding error, which cancellation in f phi does not shrink
    b = m.basis
    f = np.abs if absolute else (lambda a: a)
    if gf.ndim == 1:
        x = gf.axes[0]
        return np.trapezoid(f(gf.values)[:, None] * f(dense_sine_matrix(x, b.length, m.n_modes)), x, axis=0)
    x, y = gf.axes
    bx = np.trapezoid(f(gf.values)[:, :, None] * f(dense_sine_matrix(x, b.lx, b.nx))[:, None, :], x, axis=0)
    table = np.trapezoid(bx[:, :, None] * f(dense_sine_matrix(y, b.ly, b.ny))[:, None, :], y, axis=0)
    return np.array([table[j - 1, k - 1] for (j, k) in m.mode_index_map])


def assert_ingest_matches_dense(gf, m):
    # each coefficient to 1e-13 of its own rounding scale; a bound relative
    # to |want| fails on rounding alone when random samples cancel
    want = dense_ingest(gf, m)
    got = ingest_grid(gf, m).coeffs
    assert np.all(np.abs(got - want) <= 1e-13 * dense_ingest(gf, m, absolute=True))


def dense_render(v, gf):
    m, b = v.model, v.model.basis
    if gf.ndim == 1:
        return dense_sine_matrix(gf.axes[0], b.length, m.n_modes) @ v.coeffs
    table = np.zeros((b.nx, b.ny))
    for c, (j, k) in zip(v.coeffs, m.mode_index_map):
        table[j - 1, k - 1] = c
    bx = dense_sine_matrix(gf.axes[0], b.lx, b.nx)
    by = dense_sine_matrix(gf.axes[1], b.ly, b.ny)
    return bx @ table @ by.T


@st.composite
def sine_models(draw):
    length = draw(st.sampled_from([1.0, 2.5, math.pi]))
    if draw(st.booleans()):
        return make_sine_spectrum_1d(draw(st.integers(1, 40)), length)
    nx, ny = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    return make_sine_spectrum_rect(nx, ny, length, draw(st.sampled_from([1.0, 0.5, 3.0])))


def axis_counts(m):
    return (m.n_modes,) if isinstance(m.basis, Sine1D) else (m.basis.nx, m.basis.ny)


def axis_lengths(m):
    return (m.basis.length,) if isinstance(m.basis, Sine1D) else (m.basis.lx, m.basis.ly)


class TestAgainstDenseQuadrature:
    @given(sine_models(), st.data(), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_ingest(self, m, data, seed):
        # samples at the Nyquist guard 2n + 1 (odd), one above (even), or
        # well above, with boundary samples up to the trace tolerance
        rng = np.random.default_rng(seed)
        axes = []
        for n, length in zip(axis_counts(m), axis_lengths(m)):
            extra = data.draw(st.one_of(st.just(0), st.just(1), st.integers(2, 300)))
            axes.append(np.linspace(0.0, length, 2 * n + 1 + extra))
        vals = rng.standard_normal(tuple(a.size for a in axes))
        for axis in range(vals.ndim):
            ends = np.moveaxis(vals, axis, 0)
            ends[[0, -1]] = rng.uniform(-1e-12, 1e-12, ends[[0, -1]].shape)
        assert_ingest_matches_dense(make_grid_function(axes, vals), m)

    def test_ingest_cancelling_coefficient(self):
        # random samples whose one coefficient cancels to ~5e-4 of the
        # quadrature's terms, which sum to ~1.3 in absolute value
        m = make_sine_spectrum_1d(1, math.pi)
        rng = np.random.default_rng(14007)
        x = np.linspace(0.0, math.pi, 193)
        vals = rng.standard_normal(x.size)
        vals[[0, -1]] = rng.uniform(-1e-12, 1e-12, 2)
        gf = make_grid_function((x,), vals)
        assert abs(dense_ingest(gf, m)[0]) < 1e-3 * dense_ingest(gf, m, absolute=True)[0]
        assert_ingest_matches_dense(gf, m)

    @given(sine_models(), st.data(), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_render(self, m, data, seed):
        # p - 1 < n folds modes onto their aliases on the grid
        n = data.draw(st.sampled_from(axis_counts(m)))
        p = data.draw(st.sampled_from([p for p in (2, 3, n, n + 1, n + 2) if p >= 2] + [None]))
        v = from_coeffs(m, np.random.default_rng(seed).standard_normal(m.n_modes))
        gf = render_grid(v, points_per_axis=p)
        want = dense_render(v, gf)
        # the dense matrix leaves sin(j pi) rounding at x = L, where the DST is exact
        assert np.max(np.abs(gf.values - want)) <= 1e-12 * np.sum(np.abs(v.coeffs))


class TestExactRoundTrip:
    @pytest.mark.parametrize(
        "m",
        [
            make_sine_spectrum_1d(1, 1.0),
            make_sine_spectrum_1d(8, 2.5),
            make_sine_spectrum_1d(1024, 1.0),
            make_sine_spectrum_rect(16, 5, 1.0, 2.0),
        ],
        ids=["n1", "n8", "n1024", "rect16x5"],
    )
    def test_ingest_inverts_render(self, m):
        # DST-I is orthogonal on the grid, so only rounding separates them
        v = from_coeffs(m, np.random.default_rng(m.n_modes).standard_normal(m.n_modes))
        back = ingest_grid(render_grid(v), m).coeffs
        assert np.linalg.norm(back - v.coeffs) <= 1e-12 * np.linalg.norm(v.coeffs)
