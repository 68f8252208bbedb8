"""Grid-sampled functions: ingestion, rendering, and synthetic data.

The spectral models with sine bases have explicit eigenfunctions, so a
function sampled on a uniform grid over the domain can be turned into
coefficients by trapezoid quadrature against the basis, and coefficients
can be rendered back to samples.  On such grids both directions are a DST-I
per axis, computed with the real FFT in O(N log N) time and O(N) memory.
Both live here, together with the CSV exchange format (`x,value` for one
dimension, `x,y,value` for a rectangle, header row required) and the named
synthetic data generators used by the benchmark harness.

Grid functions represent members of the zero-trace spaces, so their
boundary samples must vanish (within 1e-12); the readers accept a policy
flag deciding whether a violated trace is an error or just a warning.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import itertools
import math
import warnings
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, config_number
from .problems import parabolic_solution_at
from .spectral import Sine1D, SineRect2D, SpectralVec, SpectrumModel, unit_mode, zeros

__all__ = [
    "GridFunction",
    "make_grid_function",
    "read_grid_csv",
    "write_grid_csv",
    "ingest_grid",
    "render_grid",
    "synth_data",
]

TRACE_TOL = 1e-12


@dataclasses.dataclass(frozen=True)
class GridFunction:
    """Samples of a function on a uniform grid over (0, L) or a rectangle.

    ``axes`` holds one or two strictly ascending, uniformly spaced sample
    coordinate arrays; ``values`` has shape ``(len(x),)`` or
    ``(len(x), len(y))``.  Use :func:`make_grid_function` or
    :func:`read_grid_csv` so the zero-trace condition is checked.
    """

    axes: tuple[np.ndarray, ...]
    values: np.ndarray

    def __post_init__(self):
        axes = tuple(np.asarray(a, dtype=float) for a in self.axes)
        if len(axes) not in (1, 2):
            raise ConfigError("GridFunction supports one or two axes")
        for a in axes:
            if a.ndim != 1 or a.size < 2:
                raise ConfigError("each axis needs at least two samples")
            d = np.diff(a)
            if np.any(d <= 0.0):
                raise ConfigError("axis samples must be strictly ascending")
            if not np.allclose(d, d[0], rtol=1e-9, atol=1e-12 * (a[-1] - a[0])):
                raise ConfigError("axis samples must be uniformly spaced")
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != tuple(a.size for a in axes):
            raise ConfigError(
                f"values of shape {vals.shape} do not match axes of sizes "
                f"{tuple(a.size for a in axes)}"
            )
        if not np.all(np.isfinite(vals)):
            raise ConfigError("values must be finite")
        for a in axes:
            a.setflags(write=False)
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "values", vals)

    @property
    def ndim(self) -> int:
        return len(self.axes)


def _check_trace(gf: GridFunction, boundary: str) -> GridFunction:
    if boundary not in ("error", "warn"):
        raise ConfigError(f"boundary policy must be 'error' or 'warn', got {boundary!r}")
    ends = [np.moveaxis(gf.values, axis, 0)[[0, -1]] for axis in range(gf.ndim)]
    worst = float(max(np.max(np.abs(e)) for e in ends))
    if worst > TRACE_TOL:
        msg = (
            f"boundary samples reach {worst:.3e}, above the zero-trace "
            f"tolerance {TRACE_TOL:g}"
        )
        if boundary == "error":
            raise ConfigError(msg)
        warnings.warn(msg, stacklevel=3)
    return gf


def make_grid_function(
    axes: Sequence[np.ndarray], values: np.ndarray, boundary: str = "error"
) -> GridFunction:
    """Validated constructor enforcing the zero-trace condition per policy."""
    return _check_trace(GridFunction(axes=tuple(axes), values=values), boundary)


# ---------------------------------------------------------------------------
# CSV exchange


def _csv_rows(path, text: str) -> tuple[list, list, set]:
    """The header row, the data fields in row order and the set of data-row
    widths of a CSV text, with blank rows dropped, as :mod:`csv` reads them.

    A text :mod:`csv` refuses, such as one with a field longer than
    ``csv.field_size_limit()``, is refused naming the line it stopped on."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise ConfigError(f"{path}:{reader.line_num}: {exc}") from None
    body = list(filter(None, rows[1:]))
    return rows[0], list(itertools.chain.from_iterable(body)), set(map(len, body))


def _bad_row(path, text: str, ndim: int) -> ConfigError:
    """The refusal of the first data row that is not ``ndim + 1`` numbers.

    Runs only once the whole-file parse has failed, to name the line."""
    reader = csv.reader(io.StringIO(text, newline=""))
    next(reader)
    for lineno, row in enumerate(reader, start=2):
        if row and len(row) != ndim + 1:
            return ConfigError(f"{path}:{lineno}: expected {ndim + 1} fields")
        for v in row:
            try:
                float(v)
            except ValueError as exc:
                return ConfigError(f"{path}:{lineno}: {exc}")
    raise AssertionError("the CSV parse failed, but every row holds numbers")


def read_grid_csv(path, boundary: str = "error") -> GridFunction:
    """Read `x,value` or `x,y,value` rows (header required) into a GridFunction.

    Rows may come in any order; the grid must be complete (every (x, y)
    combination present exactly once in two dimensions).  Blank lines are
    skipped, and each field is read as Python's ``float`` reads it.
    """
    with open(path, newline="") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(
                f"{path}: byte 0x{exc.object[exc.start]:02x} at offset {exc.start} "
                f"is not valid {exc.encoding}"
            ) from None
    if not text:
        raise ConfigError(f"{path}: empty file, expected a header row")
    header, fields, widths = _csv_rows(path, text)
    header = [h.strip().lower() for h in header]
    if header == ["x", "value"]:
        ndim = 1
    elif header == ["x", "y", "value"]:
        ndim = 2
    else:
        raise ConfigError(
            f"{path}: header must be 'x,value' or 'x,y,value', got {header!r}"
        )
    if not widths:
        raise ConfigError(f"{path}: no data rows")
    if widths != {ndim + 1}:
        raise _bad_row(path, text, ndim)
    try:
        data = np.fromiter(map(float, fields), float, len(fields)).reshape(-1, ndim + 1)
    except ValueError:
        raise _bad_row(path, text, ndim) from None
    if ndim == 1:
        order = np.argsort(data[:, 0])
        x = data[order, 0]
        if np.unique(x).size != x.size:
            raise ConfigError(f"{path}: duplicate x samples")
        return make_grid_function((x,), data[order, 1], boundary)
    xs = np.unique(data[:, 0])
    ys = np.unique(data[:, 1])
    if xs.size * ys.size != data.shape[0]:
        raise ConfigError(
            f"{path}: {data.shape[0]} rows do not fill a {xs.size} x {ys.size} grid"
        )
    values = np.full((xs.size, ys.size), np.nan)
    xi = np.searchsorted(xs, data[:, 0])
    yi = np.searchsorted(ys, data[:, 1])
    values[xi, yi] = data[:, 2]
    if np.any(np.isnan(values)):
        raise ConfigError(f"{path}: grid is incomplete (some (x, y) pairs missing)")
    return make_grid_function((xs, ys), values, boundary)


def write_grid_csv(gf: GridFunction, path) -> None:
    """Write a GridFunction in the `x,value` / `x,y,value` exchange format.

    Each field is ``repr`` of a float, and every line ends in ``\\r\\n``,
    as :func:`csv.writer` writes them.
    """
    reprs = [list(map(float.__repr__, a.tolist())) for a in gf.axes]
    values = map(float.__repr__, gf.values.ravel().tolist())
    if gf.ndim == 1:
        header, columns = "x,value", (reprs[0], values)
    else:
        (xs, ys), ny = reprs, gf.axes[1].size
        x_column = np.repeat(np.array(xs, dtype=object), ny).tolist()
        header, columns = "x,y,value", (x_column, ys * len(xs), values)
    lines = map(",".join, zip(*columns))
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n" + "\r\n".join(lines) + "\r\n")


# ---------------------------------------------------------------------------
# sine transforms against the bases (DST-I through the real FFT)


def _axis_against_interval(a: np.ndarray, length: float, what: str) -> None:
    tol = 1e-9 * length
    if abs(a[0]) > tol or abs(a[-1] - length) > tol:
        raise ConfigError(
            f"{what} axis spans [{a[0]:g}, {a[-1]:g}] but the model domain is "
            f"[0, {length:g}]"
        )


def _sine_axes(model: SpectrumModel) -> tuple[tuple[float, int], ...]:
    """``(domain length, mode count)`` per axis of a sine-basis model."""
    basis = model.basis
    if isinstance(basis, Sine1D):
        return ((basis.length, model.n_modes),)
    if isinstance(basis, SineRect2D):
        return ((basis.lx, basis.nx), (basis.ly, basis.ny))
    raise ConfigError("this model has no known eigenfunctions to sample against")


def _default_points(axes: tuple[tuple[float, int], ...]) -> int:
    return max(257, 4 * max(n for _, n in axes) + 1)


def _mode_positions(model: SpectrumModel) -> tuple[np.ndarray, ...]:
    """Position of each mode's coefficient in the (nx[, ny]) table."""
    return tuple(model.mode_index_map.T - 1)


def _dst_analysis(v: np.ndarray, n: int) -> np.ndarray:
    """``S_j = sum_i v[..., i] sin(pi j i / (P - 1))``, ``j = 1..n``, along the last axis.

    ``S_j = -Im(rfft)[j] / 2`` for the odd extension of length 2(P - 1),
    whose real-only terms hold the end samples, so those enter as zero.
    """
    odd = np.concatenate([v[..., :-1], -v[..., :0:-1]], axis=-1)
    return -0.5 * np.fft.rfft(odd).imag[..., 1 : n + 1]


def _dst_synthesis(c: np.ndarray, p: int) -> np.ndarray:
    """``sum_j c[..., j - 1] sin(pi j i / (p - 1))`` for ``i = 0..p-1``, along the last axis.

    The irfft of ``-i (p - 1) c`` (length 2(p - 1)).  Each mode is folded
    onto its alias j mod 2(p - 1), negated above p - 1, so any p >= 2 works;
    aliases 0 and p - 1 vanish on the grid, and irfft drops them.
    """
    m = 2 * (p - 1)
    alias = np.arange(1, c.shape[-1] + 1) % m
    flip = alias > p - 1
    spectrum = np.zeros(c.shape[:-1] + (p,))
    np.add.at(spectrum, (..., np.where(flip, m - alias, alias)), np.where(flip, -c, c))
    return np.fft.irfft(-1j * (p - 1) * spectrum, n=m)[..., :p]


def _transform_axes(table: np.ndarray, transform, sizes, scales) -> np.ndarray:
    """Apply ``scale * transform(., size)`` along each axis in turn."""
    for axis, (size, scale) in enumerate(zip(sizes, scales)):
        table = np.moveaxis(scale * transform(np.moveaxis(table, axis, -1), size), -1, axis)
    return table


def ingest_grid(gf: GridFunction, model: SpectrumModel) -> SpectralVec:
    """Coefficients of a sampled function by trapezoid quadrature.

    Requires at least ``2 * n + 1`` samples along an axis carrying n modes
    (Nyquist guard) and a grid spanning the model's domain.  The basis
    vanishes at both ends, so the rule is ``sqrt(2/L) h`` times a DST-I of
    the samples per axis, O(P log P) by the real FFT.  Samples are taken to
    lie exactly at ``x0 + i h``, ``h = (x[-1] - x[0]) / (P - 1)``: on a grid
    uniform only to the rtol 1e-9 :class:`GridFunction` accepts, the result
    can differ from quadrature at the actual nodes by ~``j pi 1e-9`` relative.
    """
    axes = _sine_axes(model)
    if gf.ndim != len(axes):
        raise ConfigError(f"grid has {gf.ndim} axes but the model domain has {len(axes)}")
    for a, (length, n), what in zip(gf.axes, axes, "xy"):
        if a.size < 2 * n + 1:
            raise ConfigError(
                f"resolution {a.size} is below the Nyquist guard {2 * n + 1} "
                f"for {n} modes along an axis"
            )
        _axis_against_interval(a, length, what)
    h = [(a[-1] - a[0]) / (a.size - 1) for a in gf.axes]
    scales = [math.sqrt(2.0 / length) * h_i for (length, _), h_i in zip(axes, h)]
    table = _transform_axes(gf.values, _dst_analysis, [n for _, n in axes], scales)
    return SpectralVec(table[_mode_positions(model)], model)


def render_grid(v: SpectralVec, points_per_axis: Optional[int] = None) -> GridFunction:
    """Evaluate a coefficient vector back to samples on a uniform grid.

    The default resolution comfortably exceeds the Nyquist guard.  The
    samples are a DST-I per axis, which :func:`ingest_grid` inverts exactly,
    so ``ingest_grid(render_grid(v), model)`` returns v up to rounding.
    """
    model = v.model
    axes = _sine_axes(model)
    p = _default_points(axes) if points_per_axis is None else int(points_per_axis)
    if p < 2:
        raise ConfigError("points_per_axis must be at least 2")
    table = np.zeros([n for _, n in axes])
    table[_mode_positions(model)] = v.coeffs
    scales = [math.sqrt(2.0 / length) for length, _ in axes]
    values = _transform_axes(table, _dst_synthesis, [p] * len(axes), scales)
    grid = tuple(np.linspace(0.0, length, p) for length, _ in axes)
    return GridFunction(axes=grid, values=values)


# ---------------------------------------------------------------------------
# synthetic data generators


def _profile_1d(xi: np.ndarray, smooth_amplitude, rough_amplitude, rough_frequency):
    smooth = 16.0 * xi**2 * (1.0 - xi) ** 2
    rough = np.sign(np.sin(2.0 * math.pi * rough_frequency * xi))
    return smooth_amplitude * smooth + rough_amplitude * rough


def synth_data(name: str, model: SpectrumModel, **params) -> SpectralVec:
    """Named data generators for experiments.

    ``zero()``
        The zero vector.
    ``unit_mode(k)``
        Unit coefficient on the k-th mode position.
    ``parabolic_terminal(u0, T, a2=1.0)``
        Terminal state of the forward heat flow started at ``u0`` (a
        SpectralVec), with the diffusion constant absorbed into an
        effective horizon ``T / a2``.
    ``piecewise_profile(smooth_amplitude=1.0, rough_amplitude=0.3,
    rough_frequency=4, resolution=None)``
        A smooth quartic bump plus a square-wave component, sampled on the
        model's domain and ingested by quadrature.  The boundary samples
        are set exactly to zero, and the same profile is used as a product
        over both axes on a rectangle.
    """
    if name == "zero":
        _no_extras(name, params)
        return zeros(model)

    if name == "unit_mode":
        try:
            k = params.pop("k")
        except KeyError:
            raise ConfigError("unit_mode needs a mode position k") from None
        _no_extras(name, params)
        return unit_mode(model, config_number(k, "unit_mode k", int))

    if name == "parabolic_terminal":
        try:
            u0 = params.pop("u0")
            T = config_number(params.pop("T"), "parabolic_terminal T")
        except KeyError as exc:
            raise ConfigError(f"parabolic_terminal needs {exc}") from None
        a2 = config_number(params.pop("a2", 1.0), "parabolic_terminal a2")
        _no_extras(name, params)
        if not isinstance(u0, SpectralVec):
            raise ConfigError("parabolic_terminal needs u0 as a SpectralVec")
        if u0.model != model:
            raise ConfigError("u0 lives over a different model")
        if not (a2 > 0.0):
            raise ConfigError(f"a2 must be positive, got {a2!r}")
        return parabolic_solution_at(u0, T / a2)

    if name == "piecewise_profile":
        def param(key, default, kind=float):
            return config_number(params.pop(key, default), f"{name} {key}", kind)

        smooth_amplitude = param("smooth_amplitude", 1.0)
        rough_amplitude = param("rough_amplitude", 0.3)
        rough_frequency = param("rough_frequency", 4, int)
        resolution = params.pop("resolution", None)
        _no_extras(name, params)
        axes = _sine_axes(model)
        if resolution is None:
            p = _default_points(axes)
        else:
            p = config_number(resolution, "piecewise_profile resolution", int)
        grid = tuple(np.linspace(0.0, length, p) for length, _ in axes)
        profiles = [
            _profile_1d(x / length, smooth_amplitude, rough_amplitude, rough_frequency)
            for x, (length, _) in zip(grid, axes)
        ]
        vals = functools.reduce(np.multiply.outer, profiles)
        for axis in range(vals.ndim):
            np.moveaxis(vals, axis, 0)[[0, -1]] = 0.0
        return ingest_grid(GridFunction(axes=grid, values=vals), model)

    raise ConfigError(f"unknown data generator {name!r}")


def _no_extras(name: str, params: dict) -> None:
    if params:
        raise ConfigError(f"{name} got unexpected parameters {sorted(params)}")
