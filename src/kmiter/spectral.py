"""Discrete spectral models and Hilbert scale arithmetic.

A positive self-adjoint operator with known discrete spectrum is represented
here by the finite list of its eigenvalues; functions live as coefficient
vectors against the corresponding orthonormal eigenbasis.  All heavier
machinery in the package (problem traces, fixed-point iterations, cutoff
regularization) reduces to diagonal arithmetic on these coefficients, so this
module is deliberately small and strict about validation.

The scale norm of index ``s`` is

    ||v||_s = ( sum_j (1 + lambda_j^2)^s  c_j^2 )^(1/2),

so ``s = 0`` recovers the plain L2 norm of the coefficients, positive ``s``
weights high modes up, negative ``s`` weights them down.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Sequence, Union

import numpy as np

from .errors import ConfigError, EvaluationError, ModelMismatchError, describe_modes

__all__ = [
    "Sine1D",
    "SineRect2D",
    "CustomBasis",
    "SpectrumModel",
    "SpectralVec",
    "make_sine_spectrum_1d",
    "make_sine_spectrum_rect",
    "make_custom_spectrum",
    "zeros",
    "unit_mode",
    "from_coeffs",
    "scale_weights",
    "norm_s",
    "inner",
    "axpy",
    "sub",
    "apply_spectral_function",
]


# ---------------------------------------------------------------------------
# basis descriptors


@dataclasses.dataclass(frozen=True)
class Sine1D:
    """Dirichlet sine basis sqrt(2/L) sin(j pi x / L) on the interval (0, L)."""

    length: float


@dataclasses.dataclass(frozen=True)
class SineRect2D:
    """Tensor sine basis on the rectangle (0, lx) x (0, ly).

    Mode (j, k) has eigenvalue sqrt((j pi / lx)^2 + (k pi / ly)^2) for the
    square root of the Dirichlet Laplacian.
    """

    lx: float
    ly: float
    nx: int
    ny: int


@dataclasses.dataclass(frozen=True)
class CustomBasis:
    """Abstract spectrum with no attached eigenfunctions.

    Grid ingestion and rendering are unavailable for models carrying this
    descriptor; coefficient-level work is unaffected.
    """


BasisDescriptor = Union[Sine1D, SineRect2D, CustomBasis]


# ---------------------------------------------------------------------------
# models and vectors


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclasses.dataclass(frozen=True, eq=False)
class SpectrumModel:
    """Finite spectral model of a positive operator.

    Attributes
    ----------
    eigenvalues : ndarray
        Strictly positive eigenvalues in ascending order (read-only).
    basis : Sine1D | SineRect2D | CustomBasis
        What the eigenfunctions are, if anything is known about them.
    mode_index_map : ndarray
        For each position in ``eigenvalues``, the originating multi-index
        (row ``[j]`` in one dimension, ``[j, k]`` on a rectangle).  Given as
        any (modes x d) table of integers; stored as a read-only (modes x d)
        int64 array, with no Python object per mode.  Over a sine basis each
        row must index its table: 1..n_modes (``Sine1D``), or 1..nx and
        1..ny (``SineRect2D``).
    """

    eigenvalues: np.ndarray
    basis: BasisDescriptor
    mode_index_map: np.ndarray

    def __post_init__(self):
        lam = _readonly(np.atleast_1d(self.eigenvalues))
        if lam.ndim != 1 or lam.size == 0:
            raise ConfigError("eigenvalues must be a non-empty 1-d array")
        if not np.all(np.isfinite(lam)):
            raise ConfigError("eigenvalues must be finite")
        if np.any(lam <= 0.0):
            bad = int(np.argmax(lam <= 0.0))
            raise ConfigError(
                f"eigenvalues must be strictly positive; entry {bad} is {lam[bad]!r}"
            )
        if np.any(np.diff(lam) < 0.0):
            raise ConfigError("eigenvalues must be sorted in ascending order")
        object.__setattr__(self, "eigenvalues", lam)
        try:
            # a float array's NaN or out-of-range entry casts silently; the check below refuses it
            with np.errstate(invalid="ignore"):
                idx = np.array(self.mode_index_map, dtype=np.int64)  # copied, not frozen in place
            values = np.array(self.mode_index_map, dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError("mode_index_map must be a table of integer multi-indices") from None
        if idx.ndim != 2 or idx.shape[0] != lam.size or idx.shape[1] == 0:
            raise ConfigError("mode_index_map must have one entry per eigenvalue")
        fractional = (idx != values).any(axis=1)
        if fractional.any():
            bad = int(np.argmax(fractional))
            raise ConfigError(
                f"mode_index_map must be a table of integer multi-indices; mode position "
                f"{bad} is {values[bad].tolist()}"
            )
        if isinstance(self.basis, (Sine1D, SineRect2D)):
            # gridio reads each mode's coefficient off the (nx[, ny]) table at these indices
            top = [lam.size] if isinstance(self.basis, Sine1D) else [self.basis.nx, self.basis.ny]
            name = type(self.basis).__name__
            if idx.shape[1] != len(top):
                raise ConfigError(
                    f"a {name} mode_index_map has {len(top)} column(s); mode position 0 "
                    f"has {idx.shape[1]}"
                )
            outside = ((idx < 1) | (idx > top)).any(axis=1)
            if outside.any():
                bad = int(np.argmax(outside))
                raise ConfigError(
                    f"mode_index_map entry {idx[bad].tolist()} at mode position {bad} is "
                    f"outside the {name} table {' x '.join(f'1..{n}' for n in top)}"
                )
        idx.setflags(write=False)
        object.__setattr__(self, "mode_index_map", idx)

    @property
    def n_modes(self) -> int:
        return int(self.eigenvalues.size)

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, SpectrumModel):
            return NotImplemented
        return (
            self.basis == other.basis
            and np.array_equal(self.mode_index_map, other.mode_index_map)
            and np.array_equal(self.eigenvalues, other.eigenvalues)
        )

    def __hash__(self):
        # safe: both arrays are made read-only in __post_init__
        return hash((self.basis, self.mode_index_map.tobytes(), self.eigenvalues.tobytes()))

    def __repr__(self):
        lam = self.eigenvalues
        return (
            f"SpectrumModel(n_modes={self.n_modes}, basis={self.basis!r}, "
            f"lambda=[{lam[0]:.6g}..{lam[-1]:.6g}])"
        )


@dataclasses.dataclass(frozen=True, eq=False)  # eq/hash written by hand below
class SpectralVec:
    """Coefficient vector against a model's eigenbasis."""

    coeffs: np.ndarray
    model: SpectrumModel

    def __post_init__(self):
        c = _readonly(np.atleast_1d(self.coeffs))
        if c.shape != self.model.eigenvalues.shape:
            raise ModelMismatchError(
                f"coefficient vector of length {c.size} does not fit a model "
                f"with {self.model.n_modes} modes"
            )
        object.__setattr__(self, "coeffs", c)

    # Small operator sugar; the functional API below is the primary surface.
    def __add__(self, other):
        return axpy(1.0, other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __neg__(self):
        return SpectralVec(-self.coeffs, self.model)

    def __mul__(self, a):
        return SpectralVec(float(a) * self.coeffs, self.model)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, SpectralVec):
            return NotImplemented
        return self.model == other.model and np.array_equal(
            self.coeffs, other.coeffs
        )

    def __hash__(self):
        # safe: coeffs is made read-only in __post_init__
        return hash((self.coeffs.tobytes(), self.model))

    def __repr__(self):
        return f"SpectralVec(n={self.coeffs.size}, norm0={norm_s(self, 0.0):.6g})"


# ---------------------------------------------------------------------------
# constructors


def make_sine_spectrum_1d(n_modes: int, length: float) -> SpectrumModel:
    """Spectrum of sqrt(-d^2/dx^2) with Dirichlet conditions on (0, length).

    Eigenvalues are ``j * pi / length`` for ``j = 1..n_modes`` with the
    orthonormal eigenfunctions ``sqrt(2/length) sin(j pi x / length)``.
    """
    n_modes = int(n_modes)
    if n_modes < 1:
        raise ConfigError(f"n_modes must be at least 1, got {n_modes}")
    if not (length > 0.0) or not math.isfinite(length):
        raise ConfigError(f"length must be positive and finite, got {length!r}")
    j = np.arange(1, n_modes + 1, dtype=float)
    lam = j * (math.pi / length)
    idx = np.arange(1, n_modes + 1)[:, None]
    return SpectrumModel(eigenvalues=lam, basis=Sine1D(length=float(length)), mode_index_map=idx)


def make_sine_spectrum_rect(nx: int, ny: int, lx: float, ly: float) -> SpectrumModel:
    """Spectrum of the square-root Dirichlet Laplacian on (0, lx) x (0, ly).

    Keeps the ``nx * ny`` modes with indices ``1 <= j <= nx``, ``1 <= k <= ny``,
    sorted by ascending eigenvalue; exact ties fall back to lexicographic
    order of ``(j, k)`` so the layout is reproducible.
    """
    nx, ny = int(nx), int(ny)
    if nx < 1 or ny < 1:
        raise ConfigError(f"mode counts must be at least 1, got nx={nx}, ny={ny}")
    for name, val in (("lx", lx), ("ly", ly)):
        if not (val > 0.0) or not math.isfinite(val):
            raise ConfigError(f"{name} must be positive and finite, got {val!r}")
    jj, kk = np.meshgrid(np.arange(1, nx + 1), np.arange(1, ny + 1), indexing="ij")
    jj = jj.ravel()
    kk = kk.ravel()
    lam = np.hypot(jj * (math.pi / lx), kk * (math.pi / ly))
    order = np.lexsort((kk, jj, lam))
    idx = np.stack([jj[order], kk[order]], axis=1)
    return SpectrumModel(
        eigenvalues=lam[order],
        basis=SineRect2D(lx=float(lx), ly=float(ly), nx=nx, ny=ny),
        mode_index_map=idx,
    )


def make_custom_spectrum(eigenvalues: Sequence[float]) -> SpectrumModel:
    """Model over explicitly given eigenvalues with no eigenfunction data."""
    lam = np.asarray(eigenvalues, dtype=float)
    idx = np.arange(1, lam.size + 1)[:, None]
    return SpectrumModel(eigenvalues=lam, basis=CustomBasis(), mode_index_map=idx)


def zeros(model: SpectrumModel) -> SpectralVec:
    return SpectralVec(np.zeros(model.n_modes), model)


def unit_mode(model: SpectrumModel, j: int) -> SpectralVec:
    """Unit coefficient vector for the 1-based mode position ``j``."""
    j = int(j)
    if not 1 <= j <= model.n_modes:
        raise ConfigError(f"mode position {j} outside 1..{model.n_modes}")
    c = np.zeros(model.n_modes)
    c[j - 1] = 1.0
    return SpectralVec(c, model)


def from_coeffs(model: SpectrumModel, coeffs: Sequence[float]) -> SpectralVec:
    return SpectralVec(np.asarray(coeffs, dtype=float), model)


# ---------------------------------------------------------------------------
# arithmetic


def _require_same_model(a: SpectralVec, b: SpectralVec, what: str) -> None:
    if a.model is not b.model and a.model != b.model:
        raise ModelMismatchError(f"{what} requires operands over the same spectrum model")


def scale_weights(model: SpectrumModel, s: float) -> np.ndarray:
    """Weights (1 + lambda_j^2)^s of the scale norm of index ``s``."""
    lam = model.eigenvalues
    with np.errstate(over="ignore"):  # lambda^2 is inf from about 1.3e154 on
        return np.power(1.0 + lam * lam, float(s))


_SQRT_NORMAL_MIN = 2.0**-511  # the square root of the smallest normal float


def _scaled_l2(v: np.ndarray) -> float:
    """||v||_2 taken at one exact power-of-two scale, the largest |v| in
    [0.5, 1): no square of a finite v overflows, and its largest does not
    underflow."""
    e = int(np.frexp(np.max(np.abs(v)))[1])
    u = np.ldexp(v, -e)
    return float(np.ldexp(math.sqrt(u.dot(u)), e))


def _l2(v: np.ndarray) -> float:
    """||v||_2 in np.linalg.norm's own arithmetic, sqrt(v.dot(v)).  A sum of
    squares that overflows (from |v| of about 1.3e154 on) is taken again by
    :func:`_scaled_l2`, so a finite v below the float max has a finite
    norm; every finite sum keeps its bits, also one that underflows (the
    stepwise runner stops on a difference of exactly zero)."""
    with np.errstate(over="ignore"):
        ss = v.dot(v)
        return math.sqrt(ss) if ss != math.inf else _scaled_l2(v)


def _weigher(w: np.ndarray) -> Callable:
    """v -> v * w per mode (into ``out`` if given) for weights ``w`` of
    :func:`scale_weights`, a zero v_j a zero term also under an infinite w_j
    (lambda_j^2 = inf at a positive index), not inf * 0 = NaN."""
    if np.isfinite(w).all():
        return lambda v, out=None: np.multiply(v, w, out=out)
    return lambda v, out=None: np.multiply(v, np.where(v == 0.0, 0.0, w), out=out)


def norm_s(v: SpectralVec, s: float) -> float:
    """Scale norm ||v||_s; ``s = 0`` is the plain L2 norm of the coefficients.

    Bitwise ``np.linalg.norm`` of the weighted coefficients wherever their
    sum of squares is finite and not below the smallest normal float; past
    that (from about 1.3e154 on), or below it for a nonzero vector (under
    about 1.5e-154), the sum is taken at one exact power-of-two scale, so
    the norm of a finite weighted vector is finite and that of a nonzero
    one is nonzero.  Only a weighted coefficient that itself overflows
    gives inf; a zero coefficient is a zero term, also under an infinite
    weight.
    """
    with np.errstate(over="ignore"):
        c = v.coeffs if s == 0.0 else _weigher(scale_weights(v.model, 0.5 * s))(v.coeffs)
    r = _l2(c)
    # r < 2**-511 exactly when the sum of squares is below 2**-1022
    return _scaled_l2(c) if r < _SQRT_NORMAL_MIN and c.any() else r


def inner(v: SpectralVec, w: SpectralVec) -> float:
    """L2 (index zero) inner product of two vectors over one model."""
    _require_same_model(v, w, "inner")
    return float(np.dot(v.coeffs, w.coeffs))


def axpy(a: float, v: SpectralVec, w: SpectralVec) -> SpectralVec:
    """Return ``a * v + w``."""
    _require_same_model(v, w, "axpy")
    return SpectralVec(float(a) * v.coeffs + w.coeffs, v.model)


def sub(v: SpectralVec, w: SpectralVec) -> SpectralVec:
    """Return ``v - w``."""
    _require_same_model(v, w, "sub")
    return SpectralVec(v.coeffs - w.coeffs, v.model)


def apply_spectral_function(
    model: SpectrumModel, F: Callable[[float], float], v: SpectralVec
) -> SpectralVec:
    """Apply the operator function F(A): multiply mode j by ``F(lambda_j)``.

    ``F`` may be a numpy-vectorized callable or a plain scalar function; both
    are accepted.  Any non-finite value of ``F`` raises
    :class:`~kmiter.errors.EvaluationError` naming the offending mode
    positions (zero-based).
    """
    if v.model is not model and v.model != model:
        raise ModelMismatchError(
            "apply_spectral_function requires the vector to live over `model`"
        )
    lam = model.eigenvalues
    vals = None
    try:
        candidate = np.asarray(F(lam), dtype=float)
    except Exception:
        candidate = None
    if candidate is not None and candidate.shape == lam.shape:
        vals = candidate
    elif candidate is not None and candidate.shape == ():
        vals = np.full(lam.shape, float(candidate))
    if vals is None:
        vals = np.array([float(F(x)) for x in lam])
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise EvaluationError(
            f"spectral function returned non-finite values at "
            f"{describe_modes(bad, lam)}",
            mode_indices=tuple(bad.tolist()),
        )
    return SpectralVec(vals * v.coeffs, model)
