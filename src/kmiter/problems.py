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

Magnitudes beyond ``OVERFLOW_LIMIT`` (1e300) raise
:class:`~kmiter.errors.ModeOverflowError` naming the modes, rather than
silently propagating infinities.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Tuple

import numpy as np

from .errors import ConfigError, ModeOverflowError, ResonanceError, describe_modes
from .spectral import SpectralVec, SpectrumModel, norm_s, unit_mode

__all__ = [
    "RESONANCE_TOL",
    "OVERFLOW_LIMIT",
    "Elliptic",
    "Hyperbolic",
    "Parabolic",
    "ProblemSpec",
    "TrajectoryNormSpec",
    "elliptic_solution_at",
    "elliptic_dt_solution_at",
    "hyperbolic_solution_at",
    "hyperbolic_solution_dt0",
    "parabolic_solution_at",
    "parabolic_backward_trace",
    "elliptic_trajectory",
    "hyperbolic_trajectory",
    "parabolic_trajectory_from_terminal",
    "trajectory_norm",
    "IllPosednessRecord",
    "illposedness_demo",
]

RESONANCE_TOL = 1e-8
OVERFLOW_LIMIT = 1e300


def _guard_overflow(coeffs: np.ndarray, what: str) -> np.ndarray:
    bad = np.flatnonzero(~np.isfinite(coeffs) | (np.abs(coeffs) > OVERFLOW_LIMIT))
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


# ---------------------------------------------------------------------------
# problem records


@dataclasses.dataclass(frozen=True)
class Elliptic:
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

    @property
    def model(self) -> SpectrumModel:
        return self.f.model


@dataclasses.dataclass(frozen=True)
class Hyperbolic:
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
        sines = np.sin(self.model.eigenvalues * self.T)
        bad = np.flatnonzero(np.abs(sines) <= self.resonance_tol)
        if bad.size:
            raise ResonanceError(
                f"|sin(lambda T)| <= {self.resonance_tol:g} at "
                f"{describe_modes(bad, self.model.eigenvalues)}; the problem is "
                "posed too close to a resonant time",
                mode_indices=tuple(bad.tolist()),
            )

    @property
    def model(self) -> SpectrumModel:
        return self.f.model


@dataclasses.dataclass(frozen=True)
class Parabolic:
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

    @property
    def model(self) -> SpectrumModel:
        return self.f.model


ProblemSpec = Elliptic | Hyperbolic | Parabolic


# ---------------------------------------------------------------------------
# closed-form traces


def _times_datum(multiplier: np.ndarray, datum: np.ndarray) -> np.ndarray:
    """``multiplier * datum`` per mode, keeping a zero datum (and its sign).

    A mode the datum does not touch has a zero term, not an inf * 0
    artifact; only modes with actual content can overflow.
    """
    return np.where(datum == 0.0, datum, multiplier * datum)


def _check_time(spec, t: float) -> float:
    t = float(t)
    if not (0.0 <= t <= spec.T):
        raise ConfigError(f"t = {t!r} outside [0, T] with T = {spec.T!r}")
    return t


def elliptic_solution_at(spec: Elliptic, t: float) -> SpectralVec:
    """u(t) = cosh(At) f + sinh(At) A^{-1} g, evaluated per mode."""
    t = _check_time(spec, t)
    lam = spec.model.eigenvalues
    # overflow is reported by _guard_overflow; the inf * 0 products that
    # _times_datum discards need not warn either
    with np.errstate(over="ignore", invalid="ignore"):
        c = _times_datum(np.cosh(lam * t), spec.f.coeffs) + _times_datum(
            np.sinh(lam * t) / lam, spec.g.coeffs
        )
    return SpectralVec(_guard_overflow(c, "elliptic solution"), spec.model)


def elliptic_dt_solution_at(spec: Elliptic, t: float) -> SpectralVec:
    """Time derivative of the elliptic solution: A sinh(At) f + cosh(At) g."""
    t = _check_time(spec, t)
    lam = spec.model.eigenvalues
    with np.errstate(over="ignore", invalid="ignore"):
        c = _times_datum(lam * np.sinh(lam * t), spec.f.coeffs) + _times_datum(
            np.cosh(lam * t), spec.g.coeffs
        )
    return SpectralVec(_guard_overflow(c, "elliptic time derivative"), spec.model)


def hyperbolic_solution_dt0(spec: Hyperbolic) -> SpectralVec:
    """Initial velocity reproducing u(T) = g: per mode
    ``lambda (g - cos(lambda T) f) / sin(lambda T)``."""
    lam = spec.model.eigenvalues
    s = np.sin(lam * spec.T)
    c = lam * (spec.g.coeffs - np.cos(lam * spec.T) * spec.f.coeffs) / s
    return SpectralVec(_guard_overflow(c, "hyperbolic initial velocity"), spec.model)


def hyperbolic_solution_at(spec: Hyperbolic, t: float) -> SpectralVec:
    """u(t) = cos(At) f + sin(At) A^{-1} du/dt(0)."""
    t = _check_time(spec, t)
    lam = spec.model.eigenvalues
    phi = hyperbolic_solution_dt0(spec).coeffs
    c = np.cos(lam * t) * spec.f.coeffs + np.sin(lam * t) / lam * phi
    return SpectralVec(_guard_overflow(c, "hyperbolic solution"), spec.model)


def parabolic_solution_at(u0: SpectralVec, t: float) -> SpectralVec:
    """Forward heat semigroup: coefficients exp(-lambda^2 t) of u0."""
    t = float(t)
    if t < 0.0:
        raise ConfigError(f"forward evolution needs t >= 0, got {t!r}")
    lam = u0.model.eigenvalues
    return SpectralVec(np.exp(-lam * lam * t) * u0.coeffs, u0.model)


def parabolic_backward_trace(spec: Parabolic) -> SpectralVec:
    """Exact backward value u(0) = exp(A^2 T) f.

    Raises :class:`~kmiter.errors.ModeOverflowError` once any magnitude
    passes 1e300; with lambda^2 T around 700 this happens no matter how small
    the datum is, which is the severe ill-posedness made concrete.
    """
    lam = spec.model.eigenvalues
    with np.errstate(over="ignore", invalid="ignore"):
        c = np.exp(lam * lam * spec.T) * spec.f.coeffs
    # a mode the datum does not touch has a zero backward value, not an
    # inf * 0 artifact; only modes with actual content can overflow
    c[spec.f.coeffs == 0.0] = 0.0
    return SpectralVec(_guard_overflow(c, "backward heat value"), spec.model)


# ---------------------------------------------------------------------------
# trajectories and energy norms

TrajectoryProvider = Callable[[float], Tuple[SpectralVec, SpectralVec]]


def elliptic_trajectory(spec: Elliptic) -> TrajectoryProvider:
    """Provider t -> (u(t), du/dt(t)) for the elliptic Cauchy solution."""

    def traj(t: float):
        return elliptic_solution_at(spec, t), elliptic_dt_solution_at(spec, t)

    return traj


def hyperbolic_trajectory(spec: Hyperbolic) -> TrajectoryProvider:
    """Provider t -> (u(t), du/dt(t)) for the vibration solution."""
    phi = hyperbolic_solution_dt0(spec)
    lam = spec.model.eigenvalues

    def traj(t: float):
        u = np.cos(lam * t) * spec.f.coeffs + np.sin(lam * t) / lam * phi.coeffs
        du = -lam * np.sin(lam * t) * spec.f.coeffs + np.cos(lam * t) * phi.coeffs
        return SpectralVec(u, spec.model), SpectralVec(du, spec.model)

    return traj


def parabolic_trajectory_from_terminal(spec: Parabolic) -> TrajectoryProvider:
    """Provider t -> (u(t), du/dt(t)) with u(T) = f, so u(t) = exp(A^2(T-t)) f.

    Evaluation near t = 0 overflows (and raises) exactly when the backward
    trace itself does.
    """
    lam = spec.model.eigenvalues
    lam2 = lam * lam

    def traj(t: float):
        t = float(t)
        if not (0.0 <= t <= spec.T):
            raise ConfigError(f"t = {t!r} outside [0, T] with T = {spec.T!r}")
        with np.errstate(over="ignore", invalid="ignore"):
            u = np.exp(lam2 * (spec.T - t)) * spec.f.coeffs
        u[spec.f.coeffs == 0.0] = 0.0
        u = _guard_overflow(u, "backward heat trajectory")
        return SpectralVec(u, spec.model), SpectralVec(-lam2 * u, spec.model)

    return traj


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
    over the same grid.
    """
    ts = np.linspace(0.0, spec.T, tn.quadrature_points)
    dt_scale = 0.0 if tn.which in ("Ve", "Vh") else -1.0
    vals = np.empty(ts.size)
    for i, t in enumerate(ts):
        u, du = traj(float(t))
        vals[i] = norm_s(u, 1.0) ** 2 + norm_s(du, dt_scale) ** 2
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
    """
    if kind not in ("elliptic", "hyperbolic", "parabolic"):
        raise ConfigError(f"unknown problem kind {kind!r}")
    k = int(k)
    if not 1 <= k <= model.n_modes:
        raise ConfigError(f"mode index {k} outside 1..{model.n_modes}")
    T = _require_T(T)

    data_scale = {"elliptic": -0.5, "hyperbolic": 1.0, "parabolic": 0.0}[kind]
    e_k = unit_mode(model, k)
    data = (1.0 / norm_s(e_k, data_scale)) * e_k
    zero = 0.0 * e_k

    try:
        if kind == "elliptic":
            prob = Elliptic(T=T, f=zero, g=data)
            tn = TrajectoryNormSpec(which="Ve")
            sol = trajectory_norm(prob, elliptic_trajectory(prob), tn)
        elif kind == "hyperbolic":
            prob = Hyperbolic(T=T, f=zero, g=data)
            tn = TrajectoryNormSpec(which="Vh")
            sol = trajectory_norm(prob, hyperbolic_trajectory(prob), tn)
        else:
            prob = Parabolic(T=T, f=data)
            tn = TrajectoryNormSpec(which="Vp")
            sol = trajectory_norm(prob, parabolic_trajectory_from_terminal(prob), tn)
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
