"""Model evolution problems, their closed-form traces, and ill-posedness demos.

Three families are covered, all posed over a discrete spectral model of a
positive operator A:

* ``Elliptic``: (d^2/dt^2 - A^2) u = 0 with Cauchy data u(0) = f,
  du/dt(0) = g; the interesting unknown is the Neumann trace du/dt(T).
* ``Hyperbolic``: (d^2/dt^2 + A^2) u = 0 with u(0) = f, u(T) = g; the
  unknown is the initial velocity du/dt(0).
* ``Parabolic``: (d/dt + A^2) u = 0 run backwards, i.e. the terminal state
  u(T) = f is given and u(0) is sought.  ``gamma`` is the relaxation weight
  used by the reconstruction iteration.

Every mode decouples, so each problem has an explicit per-mode solution.
Those closed forms are the reference oracle for the iteration machinery and
also power the ill-posedness demonstrations: a unit wiggle in the data blows
up by cosh(lambda T), 1/|sin(lambda T)| or exp(lambda^2 T) depending on the
family.

A trajectory provider maps a 1-D array of Q times to two (Q x N) arrays, u
and du/dt; ``trajectory_norm`` calls it on blocks of ``max(1, 2**15 // N)``
times, so a norm costs O(Q N) time and O(N) memory per block.

Magnitudes beyond ``OVERFLOW_LIMIT`` (1e300) raise
:class:`~kmiter.errors.ModeOverflowError` naming the modes (for a provider,
those past it at any of its times), rather than propagating infinities.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable, Tuple

import numpy as np

from .errors import ConfigError, ModeOverflowError, ResonanceError, describe_modes
from .spectral import (
    SpectralVec, SpectrumModel, _weigher, make_custom_spectrum, norm_s, scale_weights, unit_mode,
)

__all__ = [
    "Elliptic",
    "Hyperbolic",
    "Parabolic",
    "ProblemSpec",
    "TrajectoryNormSpec",
    "elliptic_solution_at",
    "elliptic_dt_solution_at",
    "elliptic_trajectory",
    "hyperbolic_solution_at",
    "hyperbolic_solution_dt0",
    "hyperbolic_trajectory",
    "parabolic_solution_at",
    "parabolic_backward_trace",
    "parabolic_trajectory_from_terminal",
    "trajectory_norm",
    "IllPosednessRecord",
    "illposedness_demo",
]

RESONANCE_TOL = 1e-8
OVERFLOW_LIMIT = 1e300


def _guard_overflow(coeffs: np.ndarray, what: str) -> np.ndarray:
    bad = ~np.isfinite(coeffs) | (np.abs(coeffs) > OVERFLOW_LIMIT)
    bad = np.flatnonzero(np.atleast_2d(bad).any(axis=0))
    if bad.size:
        raise ModeOverflowError(
            f"{what} exceeds the {OVERFLOW_LIMIT:.0e} overflow guard at "
            f"{describe_modes(bad)}",
            mode_indices=tuple(bad.tolist()),
        )
    return coeffs


def _require_T(T: float) -> float:
    T = float(T)
    if not (T > 0.0) or not math.isfinite(T):
        raise ConfigError(f"T must be positive and finite, got {T!r}")
    return T


def _phases(model: SpectrumModel, T: float) -> np.ndarray:
    """lambda_j T per mode; a ConfigError names the modes past the float max."""
    lam = model.eigenvalues
    try:
        with np.errstate(over="raise"):
            return lam * T
    except FloatingPointError:
        with np.errstate(over="ignore"):
            bad = np.flatnonzero(np.isinf(lam * T))
        raise ConfigError(
            f"lambda T passes the float max at {describe_modes(bad, lam)} with T = {T!r}"
        ) from None


def _resonance_error(tol: float, bad, eigenvalues: np.ndarray) -> ResonanceError:
    return ResonanceError(
        f"|sin(lambda T)| <= {tol:g} at {describe_modes(bad, eigenvalues)}; the problem is "
        "posed too close to a resonant time",
        mode_indices=bad,
    )


# ---------------------------------------------------------------------------
# problem records


class _OverDataModel:
    """A problem lives over the spectrum model of its datum f."""

    @property
    def model(self) -> SpectrumModel:
        return self.f.model


@dataclasses.dataclass(frozen=True)
class Elliptic(_OverDataModel):
    """Cauchy problem for (d^2/dt^2 - A^2) u = 0 on (0, T).

    ``f`` is u(0) and ``g`` is du/dt(0), both as spectral coefficient
    vectors over one model.
    """

    T: float
    f: SpectralVec
    g: SpectralVec

    def __post_init__(self):
        object.__setattr__(self, "T", _require_T(self.T))
        if self.f.model != self.g.model:
            raise ConfigError("f and g must live over the same spectrum model")


@dataclasses.dataclass(frozen=True)
class Hyperbolic(_OverDataModel):
    """Dirichlet problem for (d^2/dt^2 + A^2) u = 0: u(0) = f, u(T) = g.

    Construction fails with :class:`~kmiter.errors.ResonanceError` when some
    ``|sin(lambda_j T)|`` does not exceed ``resonance_tol``, because the
    boundary data then cannot determine that mode.
    """

    T: float
    f: SpectralVec
    g: SpectralVec
    resonance_tol: float = RESONANCE_TOL

    def __post_init__(self):
        object.__setattr__(self, "T", _require_T(self.T))
        if self.f.model != self.g.model:
            raise ConfigError("f and g must live over the same spectrum model")
        sines = np.sin(_phases(self.model, self.T))
        bad = np.flatnonzero(np.abs(sines) <= self.resonance_tol)
        if bad.size:
            raise _resonance_error(self.resonance_tol, bad, self.model.eigenvalues)


@dataclasses.dataclass(frozen=True)
class Parabolic(_OverDataModel):
    """Backward heat problem for (d/dt + A^2) u = 0 with terminal state f.

    ``gamma`` weights the reconstruction iteration; validity requires
    ``0 < gamma < 2 exp(lambda_min^2 T)``, which keeps every iteration
    multiplier inside the open unit interval in magnitude.
    """

    T: float
    f: SpectralVec
    gamma: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "T", _require_T(self.T))
        gamma = float(self.gamma)
        if not (gamma > 0.0) or not math.isfinite(gamma):
            raise ConfigError(f"gamma must be positive and finite, got {gamma!r}")
        lam_min = float(self.f.model.eigenvalues[0])
        with np.errstate(over="ignore"):
            limit = 2.0 * math.exp(min(lam_min * lam_min * self.T, 709.0))
        if gamma >= limit:
            raise ConfigError(
                f"gamma = {gamma:g} is out of range: need gamma < "
                f"2 exp(lambda_min^2 T) = {limit:g}"
            )
        object.__setattr__(self, "gamma", gamma)


ProblemSpec = Elliptic | Hyperbolic | Parabolic


# ---------------------------------------------------------------------------
# closed-form solutions: each family's evaluator (spec, ts) -> (U, dU) gives
# u and du/dt at the times ts as unguarded (times x modes) arrays


def _check_times(spec: ProblemSpec, ts) -> np.ndarray:
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    outside = ~((ts >= 0.0) & (ts <= spec.T))
    if outside.any():
        raise ConfigError(f"t = {float(ts[outside][0])!r} outside [0, T] with T = {spec.T!r}")
    return ts


def _times_datum(multiplier: np.ndarray, datum: np.ndarray) -> np.ndarray:
    """``multiplier * datum`` per mode, keeping a zero datum (and its sign).

    A mode the datum does not touch has a zero term, not an inf * 0
    artifact; only modes with actual content can overflow.
    """
    return np.where(datum == 0.0, datum, multiplier * datum)


def _elliptic_cosh_sinh(spec: Elliptic, ts) -> Tuple[np.ndarray, np.ndarray]:
    x = _check_times(spec, ts)[:, None] * spec.model.eigenvalues
    with np.errstate(over="ignore"):  # reported by _guard_overflow
        return np.cosh(x), np.sinh(x)


def _elliptic_u(spec: Elliptic, ch: np.ndarray, sh: np.ndarray) -> np.ndarray:
    """u = cosh(At) f + sinh(At) A^{-1} g from cosh and sinh of At."""
    # the inf * 0 products that _times_datum discards need not warn either
    with np.errstate(over="ignore", invalid="ignore"):
        return _times_datum(ch, spec.f.coeffs) + _times_datum(
            sh / spec.model.eigenvalues, spec.g.coeffs
        )


def _elliptic_du(spec: Elliptic, ch: np.ndarray, sh: np.ndarray) -> np.ndarray:
    """du/dt = A sinh(At) f + cosh(At) g from cosh and sinh of At."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _times_datum(spec.model.eigenvalues * sh, spec.f.coeffs) + _times_datum(
            ch, spec.g.coeffs
        )


def _elliptic(spec: Elliptic, ts) -> Tuple[np.ndarray, np.ndarray]:
    """u = cosh(At) f + sinh(At) A^{-1} g and du/dt = A sinh(At) f + cosh(At) g."""
    ch, sh = _elliptic_cosh_sinh(spec, ts)
    return _elliptic_u(spec, ch, sh), _elliptic_du(spec, ch, sh)


def _hyperbolic(spec: Hyperbolic, ts, phi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """u = cos(At) f + sin(At) A^{-1} phi and du/dt = -A sin(At) f + cos(At) phi,
    for the initial velocity phi."""
    lam, f = spec.model.eigenvalues, spec.f.coeffs
    x = _check_times(spec, ts)[:, None] * lam
    cs, sn = np.cos(x), np.sin(x)
    with np.errstate(over="ignore", invalid="ignore"):
        return cs * f + sn / lam * phi, -lam * sn * f + cs * phi


def _parabolic_u(spec: Parabolic, ts) -> np.ndarray:
    """u = exp(A^2 (T - t)) f, so u(T) = f, also where lambda^2 = inf (its
    exponent at t = T is 0, not inf * 0); a zero datum gives +0."""
    s = spec.T - _check_times(spec, ts)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        lam2 = spec.model.eigenvalues * spec.model.eigenvalues
        x = np.multiply(lam2, s, out=np.zeros((s.size, lam2.size)), where=s != 0.0)
        return np.where(spec.f.coeffs == 0.0, 0.0, np.exp(x) * spec.f.coeffs)


def _parabolic(spec: Parabolic, ts) -> Tuple[np.ndarray, np.ndarray]:
    """u of :func:`_parabolic_u` and du/dt = -A^2 u, zero where u is."""
    u = _parabolic_u(spec, ts)
    with np.errstate(over="ignore", invalid="ignore"):
        return u, np.negative(_times_datum(spec.model.eigenvalues * spec.model.eigenvalues, u))


def elliptic_solution_at(spec: Elliptic, t: float) -> SpectralVec:
    """u(t) = cosh(At) f + sinh(At) A^{-1} g, evaluated per mode."""
    u = _elliptic_u(spec, *_elliptic_cosh_sinh(spec, float(t)))
    return SpectralVec(_guard_overflow(u[0], "elliptic solution"), spec.model)


def elliptic_dt_solution_at(spec: Elliptic, t: float) -> SpectralVec:
    """Time derivative of the elliptic solution: A sinh(At) f + cosh(At) g."""
    du = _elliptic_du(spec, *_elliptic_cosh_sinh(spec, float(t)))
    return SpectralVec(_guard_overflow(du[0], "elliptic time derivative"), spec.model)


def hyperbolic_solution_dt0(spec: Hyperbolic) -> SpectralVec:
    """Initial velocity reproducing u(T) = g: per mode
    ``lambda (g - cos(lambda T) f) / sin(lambda T)``."""
    lam = spec.model.eigenvalues
    s = np.sin(lam * spec.T)
    with np.errstate(over="ignore", invalid="ignore"):
        c = lam * (spec.g.coeffs - np.cos(lam * spec.T) * spec.f.coeffs) / s
    return SpectralVec(_guard_overflow(c, "hyperbolic initial velocity"), spec.model)


def hyperbolic_solution_at(spec: Hyperbolic, t: float) -> SpectralVec:
    """u(t) = cos(At) f + sin(At) A^{-1} du/dt(0)."""
    u, _ = _hyperbolic(spec, float(t), hyperbolic_solution_dt0(spec).coeffs)
    return SpectralVec(_guard_overflow(u[0], "hyperbolic solution"), spec.model)


def parabolic_solution_at(u0: SpectralVec, t: float) -> SpectralVec:
    """Forward heat semigroup: coefficients exp(-lambda^2 t) of u0."""
    t = float(t)
    if t < 0.0:
        raise ConfigError(f"forward evolution needs t >= 0, got {t!r}")
    if t == 0.0:  # exp(-lambda^2 t) is 1, also where lambda^2 = inf
        return u0
    lam = u0.model.eigenvalues
    with np.errstate(over="ignore"):  # lambda^2 = inf gives exp(-inf) = 0
        return SpectralVec(np.exp(-lam * lam * t) * u0.coeffs, u0.model)


def parabolic_backward_trace(spec: Parabolic) -> SpectralVec:
    """Exact backward value u(0) = exp(A^2 T) f.

    Raises :class:`~kmiter.errors.ModeOverflowError` once any magnitude
    passes 1e300; with lambda^2 T around 700 this happens no matter how small
    the datum is, which is the severe ill-posedness made concrete.
    """
    u = _parabolic_u(spec, 0.0)
    return SpectralVec(_guard_overflow(u[0], "backward heat value"), spec.model)


# ---------------------------------------------------------------------------
# trajectories and energy norms

TrajectoryProvider = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]
_BLOCK_VALUES = 2**15  # trajectory_norm passes max(1, this // N) times per call


def _guarded(evaluate, spec: ProblemSpec, what: str, what_dt: str) -> TrajectoryProvider:
    def traj(ts):
        u, du = evaluate(spec, ts)
        return _guard_overflow(u, what), _guard_overflow(du, what_dt)

    return traj


def elliptic_trajectory(spec: Elliptic) -> TrajectoryProvider:
    """Provider ts -> (u, du/dt) for the elliptic Cauchy solution."""
    return _guarded(_elliptic, spec, "elliptic solution", "elliptic time derivative")


def hyperbolic_trajectory(spec: Hyperbolic) -> TrajectoryProvider:
    """Provider ts -> (u, du/dt) for the vibration solution.

    The initial velocity is computed at the first call and kept for the
    next; one that overflows raises at every call.
    """
    velocity = functools.cache(lambda: hyperbolic_solution_dt0(spec).coeffs)
    return _guarded(
        lambda spec, ts: _hyperbolic(spec, ts, velocity()),
        spec, "hyperbolic solution", "hyperbolic velocity",
    )


def parabolic_trajectory_from_terminal(spec: Parabolic) -> TrajectoryProvider:
    """Provider ts -> (u, du/dt) with u(T) = f, so u(t) = exp(A^2(T-t)) f.

    Evaluation near t = 0 overflows (and raises) exactly when the backward
    trace itself does.
    """
    return _guarded(
        _parabolic, spec, "backward heat trajectory", "backward heat time derivative"
    )


@dataclasses.dataclass(frozen=True)
class TrajectoryNormSpec:
    """Which solution-space norm to evaluate, and at what time resolution.

    ``which`` selects between the energy norms of the three problem
    families:

    * ``"Ve"``: (integral of ||u||_1^2 + ||du/dt||_0^2)^(1/2)
    * ``"Vh"``: max over samples of (||u||_1^2 + ||du/dt||_0^2)^(1/2)
    * ``"Vp"``: (integral of ||u||_1^2 + ||du/dt||_{-1}^2)^(1/2)
    """

    which: str
    quadrature_points: int = 257

    def __post_init__(self):
        if self.which not in ("Ve", "Vh", "Vp"):
            raise ConfigError(f"unknown trajectory norm {self.which!r}")
        if int(self.quadrature_points) < 2:
            raise ConfigError("quadrature_points must be at least 2")
        object.__setattr__(self, "quadrature_points", int(self.quadrature_points))


def trajectory_norm(spec: ProblemSpec, traj: TrajectoryProvider, tn: TrajectoryNormSpec) -> float:
    """Evaluate the selected energy norm of a trajectory on [0, T].

    Time integrals use the composite trapezoid rule on a uniform grid of
    ``tn.quadrature_points`` samples; the sup-type ``Vh`` norm is the max
    over the same grid.  ``traj`` is called on blocks of
    ``max(1, 2**15 // N)`` times.
    """
    ts = np.linspace(0.0, spec.T, tn.quadrature_points)
    # weighted before squaring, as in norm_s: a du/dt past 1e154 under the
    # "Vp" weight (1 + lambda^2)^-1 does not overflow, and a zero value is a
    # zero term under an infinite weight
    w_u = _weigher(scale_weights(spec.model, 0.5))
    w_du = _weigher(scale_weights(spec.model, 0.0 if tn.which in ("Ve", "Vh") else -0.5))
    rows = max(1, _BLOCK_VALUES // spec.model.n_modes)
    vals = np.empty(ts.size)
    with np.errstate(over="ignore"):  # a norm past float max is inf
        for i in range(0, ts.size, rows):
            u, du = traj(ts[i : i + rows])
            x, y = w_u(u), w_du(du)
            vals[i : i + rows] = np.einsum("ij,ij->i", x, x) + np.einsum("ij,ij->i", y, y)
        if tn.which == "Vh":
            return float(np.sqrt(np.max(vals)))
        return float(np.sqrt(np.trapezoid(vals, ts)))


# ---------------------------------------------------------------------------
# ill-posedness demonstrations


@dataclasses.dataclass(frozen=True)
class IllPosednessRecord:
    """One row of an ill-posedness demonstration.

    ``data_norm`` is 1 by construction (the perturbation is normalized in
    the data-space norm); ``solution_norm`` is the energy norm of the
    resulting solution trajectory, or ``inf`` with ``overflow`` set when the
    response is too large to evaluate.
    """

    kind: str
    mode_index: int
    data_norm: float
    solution_norm: float
    overflow: bool = False


def illposedness_demo(kind: str, model: SpectrumModel, T: float, k: int) -> IllPosednessRecord:
    """Drive problem ``kind`` with a normalized unit of data in mode ``k``.

    The data perturbation lives in the natural data space of the family
    (index -1/2 for the elliptic Neumann datum, +1 for the hyperbolic
    displacement datum, 0 for the parabolic terminal state), so
    ``data_norm == 1`` for every k; ``solution_norm`` grows without bound as
    k increases, which is the whole point of the demonstration.

    The modes decouple, so the row is the one-mode problem of mode k: the
    others would only add exact zeros.  A call costs O(quadrature points)
    whatever the size of ``model``, and a table of all N rows O(N).  A
    hyperbolic row raises :class:`~kmiter.errors.ResonanceError` only when
    mode k itself is resonant, naming position k - 1 of ``model``.
    """
    if kind not in ("elliptic", "hyperbolic", "parabolic"):
        raise ConfigError(f"unknown problem kind {kind!r}")
    k = int(k)
    if not 1 <= k <= model.n_modes:
        raise ConfigError(f"mode index {k} outside 1..{model.n_modes}")
    T = _require_T(T)

    data_scale = {"elliptic": -0.5, "hyperbolic": 1.0, "parabolic": 0.0}[kind]
    e_k = unit_mode(make_custom_spectrum(model.eigenvalues[k - 1 : k]), 1)
    data = (1.0 / norm_s(e_k, data_scale)) * e_k
    zero = 0.0 * e_k

    if kind == "elliptic":
        prob, traj, which = Elliptic(T=T, f=zero, g=data), elliptic_trajectory, "Ve"
    elif kind == "hyperbolic":
        try:
            prob = Hyperbolic(T=T, f=zero, g=data)
        except ResonanceError:  # named as mode k of ``model``, not of the one-mode model
            raise _resonance_error(RESONANCE_TOL, [k - 1], model.eigenvalues) from None
        traj, which = hyperbolic_trajectory, "Vh"
    else:
        prob, traj, which = Parabolic(T=T, f=data), parabolic_trajectory_from_terminal, "Vp"
    try:
        sol = trajectory_norm(prob, traj(prob), TrajectoryNormSpec(which=which))
    except ModeOverflowError:
        return IllPosednessRecord(
            kind=kind, mode_index=k, data_norm=1.0, solution_norm=math.inf, overflow=True
        )
    # A squared norm can overflow even when every mode value passes the
    # per-mode guard; an infinite result is still an overflow for callers.
    return IllPosednessRecord(
        kind=kind, mode_index=k, data_norm=1.0, solution_norm=float(sol),
        overflow=not math.isfinite(sol),
    )
