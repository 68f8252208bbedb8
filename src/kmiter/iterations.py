"""Affine spectral fixed-point iterations and their convergence diagnostics.

Each reconstruction problem in :mod:`kmiter.problems` reduces, mode by mode,
to iterating an affine map

    phi  ->  F(A) phi + z,

where the multiplier function F depends on the family:

* elliptic:    F(lambda) = tanh(lambda T)^2
* hyperbolic:  F(lambda) = cos(lambda T)^2
* parabolic:   F(lambda) = 1 - gamma exp(-lambda^2 T)

All multipliers stay strictly inside (-1, 1) for valid problems, so the map
is non-expansive with the unique fixed point z / (1 - F) per mode, which is
exactly the unknown trace of the underlying problem.  Because F can sit
extremely close to 1, the complement 1 - F is computed and stored in a
cancellation-safe form, and k-step powers go through log1p/expm1 so that
quantities like 1 - F^k remain accurate for k up to 1e9 and beyond.

Closed-form evaluation (geometric sum) and literal stepwise iteration are
both provided; they agree to rounding and the stepwise path exists mainly to
validate the recursion and the stopping rules.  Each report takes the norm
weights and the reference norm once, and a closed-form report also log|F|;
a closed-form checkpoint then costs two exp and one expm1 over the modes
plus a few elementwise passes.  When a quarter or more of the arguments
k log|F| lie below -746, where exp is exactly +0.0, a power is evaluated
only off those zeros.  A step is two elementwise passes, phi *= F and
phi += z, the multiply skipping the suffix of modes where F is exactly
1.0, unless it is recorded or may stop the run; only those take the norm
of the difference, at four elementwise passes and one dot product, all
through buffers allocated once (see :func:`iterate_stepwise` for how a
step is shown unable to stop the run).  Norms stay finite past
the square overflow at about 1.3e154.  Memory is O(N).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np

from .errors import (
    ConfigError,
    DegenerateComplementError,
    ModeOverflowError,
    config_number,
    describe_modes,
)
from .problems import Elliptic, Hyperbolic, Parabolic, ProblemSpec, _guard_overflow, _phases
from .spectral import SpectralVec, SpectrumModel, _l2, _weigher, scale_weights

__all__ = [
    "IterationFactors",
    "StoppingRule",
    "IterationSchedule",
    "CheckpointRecord",
    "IterationReport",
    "ConditionReport",
    "build_factors",
    "default_scale",
    "fixed_point",
    "iterate_closed_form",
    "iterate_stepwise",
    "report_closed_form",
    "run_schedule",
    "check_operator_conditions",
]


# ---------------------------------------------------------------------------
# factors


@dataclasses.dataclass(frozen=True)
class IterationFactors:
    """Per-mode multipliers and affine term of one reconstruction iteration.

    Attributes
    ----------
    kind : str
        One of ``"elliptic"``, ``"hyperbolic"``, ``"parabolic"``.
    factors : ndarray
        F(lambda_j), the per-mode multipliers.
    complements : ndarray
        1 - F(lambda_j), computed without cancellation (sech^2, sin^2, or
        gamma exp(-lambda^2 T) directly).
    z : SpectralVec
        Affine term of the iteration.
    T : float
        Time horizon of the underlying problem.
    gamma : float or None
        Relaxation weight; parabolic only.
    gamma_strict_status : str or None
        Parabolic only.  Whether gamma also satisfies the stricter bound
        gamma < 2 exp(tilde_lambda^2 T) with
        tilde_lambda^2 = lambda_min^2 - ln(2)/T, under which the energy
        inequality with c = 1 is guaranteed: one of ``"holds"``,
        ``"violated"`` (convergence still holds, the inequality is simply
        not guaranteed), or ``"unverified"`` when lambda_min^2 T < ln 2 and
        tilde_lambda is not a real number.
    """

    kind: str
    factors: np.ndarray
    complements: np.ndarray
    z: SpectralVec
    T: float
    gamma: Optional[float] = None
    gamma_strict_status: Optional[str] = None

    @property
    def model(self) -> SpectrumModel:
        return self.z.model


def _sech(x: np.ndarray) -> np.ndarray:
    em = np.exp(-x)
    return 2.0 * em / (1.0 + em * em)


def _strict_gamma_status(gamma: float, lam_min: float, T: float) -> str:
    lam2T = lam_min * lam_min * T
    if lam2T < math.log(2.0):
        return "unverified"
    # 2 exp(tilde^2 T) with tilde^2 = lam_min^2 - ln(2)/T collapses to exp(lam2T).
    limit = math.exp(min(lam2T, 709.0))
    return "holds" if gamma < limit else "violated"


def build_factors(spec: ProblemSpec) -> IterationFactors:
    """Assemble the per-mode multipliers F and affine term z for a problem,
    over the model its data lives over.

    The hyperbolic z_j = lambda_j sin(lambda_j T) (g_j - cos(lambda_j T) f_j)
    makes the fixed point the initial velocity.  A z that overflows the
    float range raises :class:`~kmiter.errors.ModeOverflowError` naming its
    modes; every finite z is kept as computed.  An elliptic or hyperbolic
    lambda T past the float max raises :class:`~kmiter.errors.ConfigError`
    naming its modes.
    """
    model = spec.model
    lam = model.eigenvalues
    T = spec.T
    parabolic = {}

    # the products of z may pass the float max; _finite_term refuses them
    if isinstance(spec, Elliptic):
        kind = "elliptic"
        x = _phases(model, T)
        th = np.tanh(x)
        sech = _sech(x)
        F = th * th
        comp = sech * sech
        with np.errstate(over="ignore", invalid="ignore"):
            z = lam * th * sech * spec.f.coeffs + sech * spec.g.coeffs
    elif isinstance(spec, Hyperbolic):
        kind = "hyperbolic"
        x = _phases(model, T)
        sn, cs = np.sin(x), np.cos(x)
        F = cs * cs
        comp = sn * sn
        with np.errstate(over="ignore", invalid="ignore"):
            z = -cs * sn * lam * spec.f.coeffs + lam * sn * spec.g.coeffs
    elif isinstance(spec, Parabolic):
        kind = "parabolic"
        with np.errstate(over="ignore"):  # lambda^2 = inf gives exp(-inf) = 0
            comp = spec.gamma * np.exp(-lam * lam * T)
        F = 1.0 - comp
        with np.errstate(over="ignore"):
            z = spec.gamma * spec.f.coeffs
        parabolic = {
            "gamma": spec.gamma,
            "gamma_strict_status": _strict_gamma_status(spec.gamma, float(lam[0]), T),
        }
    else:
        raise ConfigError(f"unsupported problem type {type(spec).__name__}")
    return IterationFactors(
        kind=kind, factors=F, complements=comp,
        z=SpectralVec(_finite_term(z, "affine term z"), model), T=T, **parabolic,
    )


def _finite_term(v: np.ndarray, what: str) -> np.ndarray:
    """v itself, or a ModeOverflowError naming the modes where it is not
    finite (a product past the float max, or inf - inf)."""
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        raise ModeOverflowError(
            f"{what} overflows the float range at {describe_modes(bad)}",
            mode_indices=tuple(bad.tolist()),
        )
    return v


def default_scale(kind: str) -> float:
    """Norm index of the iteration space: -1/2 for elliptic, 0 otherwise."""
    return -0.5 if kind == "elliptic" else 0.0


# ---------------------------------------------------------------------------
# powers of the multiplier, complement-aware


def _log_factor(fac: IterationFactors) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """(log|F|, F < 0) per mode, the mask None when no F is negative.  For
    F >= 0, log1p(-comp) keeps full precision out of the stored complement;
    for F < 0 the magnitude goes through log1p(-(1 + F)), the sum being
    exact for F in [-1, 0]."""
    neg = fac.factors < 0.0
    with np.errstate(divide="ignore"):
        logF = np.log1p(-np.where(neg, 1.0 + fac.factors, fac.complements))
    return logF, (neg if neg.any() else None)


# np.exp(t) is exactly +0.0 for every t below this, -inf included (the
# least subnormal is exp(-744.44), and exp(t) rounds to 0 below -745.13)
_EXP_ZERO_BELOW = -746.0
# From this share of such arguments on, exp is taken only on the others.
# numpy leaves its vector path below about -708.  On 16,384 values the
# masked path wins from a tenth of such arguments scattered near -800, and
# only from about two thirds in one block far below.  The sine-spectrum
# elliptic and parabolic powers up to k = 1e9 reach at most 15 %, in one
# block; the hyperbolic ones 48-99.8 %, scattered, from k = 1000 on.
_EXP_SKIP_SHARE = 0.25


def _exp(t: np.ndarray) -> np.ndarray:
    """np.exp(t) bit for bit.  When a quarter or more of t lies below -746,
    exp is evaluated only off those exact zeros; a NaN stays NaN."""
    dead = t < _EXP_ZERO_BELOW
    if np.count_nonzero(dead) < _EXP_SKIP_SHARE * t.size:
        return np.exp(t)
    live = np.flatnonzero(~dead)
    out = np.zeros_like(t)
    out[live] = np.exp(t[live])
    return out


def _factor_power(logF: np.ndarray, neg: Optional[np.ndarray], k: int) -> np.ndarray:
    """F^k per mode: exp(k log|F|), negated where F < 0 and k is odd."""
    if k == 0:
        return np.ones_like(logF)
    Fk = _exp(k * logF)
    if k % 2 and neg is not None:
        np.negative(Fk, out=Fk, where=neg)
    return Fk


def _power(logF: np.ndarray, neg: Optional[np.ndarray], k: int) -> tuple[np.ndarray, np.ndarray]:
    """(F^k, 1 - F^k) per mode for k >= 1, accurate also when F is nearly 1,
    with k log|F| taken once.

    1 - F^k = -expm1(k log|F|); where F < 0 and k is odd, F^k = -|F|^k and
    1 - F^k = 1 + |F|^k instead.
    """
    t = k * logF  # log of |F|^k, in [-inf, 0]
    Fk = _exp(t)
    omFk = np.negative(np.expm1(t, out=t), out=t)
    if k % 2 and neg is not None:
        np.negative(Fk, out=Fk, where=neg)
        np.subtract(1.0, Fk, out=omFk, where=neg)
    return Fk, omFk


def _safe_complement(comp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The divisor of every z / (1 - F): the complement with its exact zeros
    (-0.0 too) replaced by 1, and the mask of those degenerate modes."""
    degenerate = comp == 0.0
    return np.where(degenerate, 1.0, comp), degenerate


# ---------------------------------------------------------------------------
# fixed point and iterates


def fixed_point(fac: IterationFactors) -> SpectralVec:
    """The unique fixed point z / (1 - F) per mode.

    Raises :class:`~kmiter.errors.DegenerateComplementError` on modes where
    the stored complement is exactly zero (the multiplier has rounded to 1;
    no fixed point is representable there) and
    :class:`~kmiter.errors.ModeOverflowError` when the quotient passes the
    1e300 guard.
    """
    return _fixed_point(fac, fac.z.coeffs)


def _fixed_point(fac: IterationFactors, z: np.ndarray, retained=True) -> SpectralVec:
    """The fixed point of phi -> F phi + z with F set to 0 off the
    ``retained`` modes (a mask, or True for all): z / (1 - F) on them, z on
    the others.  Refused where :func:`fixed_point` documents."""
    safe, degenerate = _safe_complement(fac.complements)
    degenerate = np.flatnonzero(degenerate & retained)
    if degenerate.size:
        raise DegenerateComplementError(
            f"1 - F is exactly zero at {describe_modes(degenerate)}; "
            "the fixed point does not exist there (consider a spectral cutoff "
            "below those modes)",
            mode_indices=tuple(degenerate.tolist()),
        )
    with np.errstate(over="ignore"):
        c = np.divide(z, safe, out=z.copy(), where=retained)
    return SpectralVec(_guard_overflow(c, "fixed point"), fac.model)


def iterate_closed_form(fac: IterationFactors, phi0: SpectralVec, k: int) -> SpectralVec:
    """Exact k-step iterate via the geometric sum, without stepping.

    Per mode, phi_k = F^k phi0 + (1 - F^k)/(1 - F) z; on modes where the
    complement is exactly zero the geometric factor degenerates to k and the
    iterate is phi0 + k z, which is the correct limit.  An iterate that
    overflows the float range raises :class:`~kmiter.errors.ModeOverflowError`
    naming its modes.
    """
    if phi0.model != fac.model:
        raise ConfigError("phi0 must live over the model of the factors")
    k = int(k)
    if k < 0:
        raise ConfigError(f"step count must be non-negative, got {k}")
    if k == 0:
        return SpectralVec(phi0.coeffs.copy(), fac.model)
    _, phi = _iterate(fac, phi0, k, _log_factor(fac), _safe_complement(fac.complements))
    return SpectralVec(phi, fac.model)


def _iterate(fac, phi0, k, log_factor, divisor) -> tuple[np.ndarray, np.ndarray]:
    """(F^k, phi_k) for k >= 1 from the per-report :func:`_log_factor` and
    :func:`_safe_complement`, at O(N) cost and memory.  Only after an
    overflow is the iterate scanned, and its non-finite modes refused; an
    inf or NaN in phi0 carries through as IEEE arithmetic has it."""
    try:
        with np.errstate(over="raise", invalid="ignore"):
            return _affine_power(fac, phi0, k, log_factor, divisor)
    except FloatingPointError:
        pass
    with np.errstate(over="ignore", invalid="ignore"):
        Fk, phi = _affine_power(fac, phi0, k, log_factor, divisor)
    return Fk, _finite_term(phi, "iterate")


def _affine_power(fac, phi0, k, log_factor, divisor) -> tuple[np.ndarray, np.ndarray]:
    Fk, omFk = _power(*log_factor, k)
    safe, degenerate = divisor
    geom = np.divide(omFk, safe, out=omFk)
    np.copyto(geom, float(k), where=degenerate)
    phi = Fk * phi0.coeffs
    phi += np.multiply(geom, fac.z.coeffs, out=geom)
    return Fk, phi


# ---------------------------------------------------------------------------
# schedules and reports


@dataclasses.dataclass(frozen=True)
class StoppingRule:
    """Termination policy: a hard step budget plus an optional diff tolerance.

    ``successive_diff_tol`` is compared against ||phi_k - phi_{k-1}|| in the
    scale norm of index ``scale`` (``None`` means the default norm of the
    iteration space, -1/2 for elliptic and 0 otherwise); zero disables the
    tolerance and the budget alone terminates the run.
    """

    max_steps: int
    successive_diff_tol: float = 0.0
    scale: Optional[float] = None

    def __post_init__(self):
        max_steps = config_number(self.max_steps, "max_steps", int)
        if max_steps < 1:
            raise ConfigError("max_steps must be at least 1")
        object.__setattr__(self, "max_steps", max_steps)
        if not (config_number(self.successive_diff_tol, "successive_diff_tol") >= 0.0):
            raise ConfigError("successive_diff_tol must be non-negative")
        if self.scale is not None:
            object.__setattr__(self, "scale", config_number(self.scale, "scale"))


@dataclasses.dataclass(frozen=True)
class IterationSchedule:
    """Which step counts to record and how to run them.

    ``checkpoints`` must be ascending positive integers; ``mode`` selects the
    closed-form evaluator (default, exact at any k) or the literal stepwise
    recursion.  The stopping rule defaults to a budget equal to the last
    checkpoint.
    """

    checkpoints: tuple[int, ...]
    mode: str = "closed_form"
    stop: Optional[StoppingRule] = None

    def __post_init__(self):
        cps = tuple(
            config_number(k, f"checkpoints[{i}]", int) for i, k in enumerate(self.checkpoints)
        )
        if len(cps) == 0:
            raise ConfigError("checkpoints must be non-empty")
        if cps[0] < 1 or any(b <= a for a, b in zip(cps, cps[1:])):
            raise ConfigError("checkpoints must be strictly ascending and >= 1")
        object.__setattr__(self, "checkpoints", cps)
        if self.mode not in ("closed_form", "stepwise"):
            raise ConfigError(f"unknown schedule mode {self.mode!r}")
        stop = self.stop if self.stop is not None else StoppingRule(max_steps=cps[-1])
        if stop.max_steps < cps[-1]:
            raise ConfigError(
                f"max_steps = {stop.max_steps} is below the last checkpoint {cps[-1]}"
            )
        object.__setattr__(self, "stop", stop)


@dataclasses.dataclass(frozen=True)
class CheckpointRecord:
    """State of the iteration after k steps.

    ``successive_diff`` is ||phi_k - phi_{k-1}|| and ``residual`` is
    ||T phi_k - phi_k||, both in the report's scale norm.
    ``error_vs_reference`` is the L2-relative error against the supplied
    reference trace (absolute if the reference is zero), or None when no
    reference was given.
    """

    k: int
    iterate: SpectralVec
    successive_diff: float
    residual: float
    error_vs_reference: Optional[float] = None


@dataclasses.dataclass(frozen=True)
class IterationReport:
    kind: str
    scale: float
    records: tuple[CheckpointRecord, ...]
    final_k: int
    termination_reason: str  # "max_steps" or "tolerance"


def _report(kind, s, records, final_k, stop) -> IterationReport:
    reason = "max_steps" if final_k == stop.max_steps else "tolerance"
    return IterationReport(kind, s, tuple(records), final_k, reason)


def _scale_norm(model: SpectrumModel, s: float):
    """(v -> ||v|| in the scale norm of index s, overwriting v with the
    weighted v; the weights), the weights taken once and None for s == 0."""
    if s == 0.0:
        return _l2, None
    weights = scale_weights(model, 0.5 * s)
    weigh = np.errstate(over="ignore")(_weigher(weights))  # a product past the float max is inf
    return (lambda v: _l2(weigh(v, out=v))), weights


def _error_vs(reference: Optional[SpectralVec]):
    """coeffs -> L2-relative error against the reference (absolute if the
    reference is zero), or None without one; its norm is taken once."""
    if reference is None:
        return lambda coeffs: None
    base = _l2(reference.coeffs)
    base = base if base > 0.0 else 1.0  # err / 1.0 is err
    return lambda coeffs: _l2(coeffs - reference.coeffs) / base


# an inf or NaN in phi0 makes inf - inf or 0 * inf, which reads NaN as in IEEE
@np.errstate(invalid="ignore")
def iterate_stepwise(
    fac: IterationFactors,
    phi0: SpectralVec,
    schedule: IterationSchedule,
    reference: Optional[SpectralVec] = None,
) -> IterationReport:
    """Run the literal recursion phi <- F phi + z, recording checkpoints.

    The step the run ends on is recorded too, checkpoint or not, so the
    last record is at ``final_k`` as in :func:`report_closed_form`.  Stops
    early once the successive difference drops below the tolerance
    (when one is set); if the budget and the tolerance trigger on the same
    step, the budget wins and the reason reads ``"max_steps"``.  An exactly
    stationary iterate (diff == 0) always stops, tolerance or not, since
    no further step can change anything.

    Only a step that may stop the run or is recorded needs the norm of
    d = phi_k - phi_(k-1).  Step 1, each checkpoint and the last step of
    the budget take it; so does any step that one witness mode cannot
    clear.  The witness is the mode j of largest |w_j d_j| at the last
    full step (w the norm weights, 1 for s = 0).  Its iterate a is carried
    as a Python float through b = F_j a + z_j and x = (b - a) w_j, which
    are the array's own IEEE operations on mode j, so x is that step's
    weighted difference bit for bit.  The norm squared is a sum of
    non-negative rounded terms, one of them x*x, and rounding is monotone,
    so diff >= sqrt(x*x); a sum taken again at a scale is at least
    max |w d| >= |x|.  Hence 0 < x*x < inf with sqrt(x*x) >= tol
    proves diff != 0 and not diff < tol: such a step cannot stop the run,
    and it is two elementwise passes, phi *= F then phi += z.  A witness
    square that underflows to 0, overflows to inf or is NaN fails the test
    and the step is taken in full.  Every output is bitwise that of taking
    the norm on every step.

    On the modes where F is exactly 1.0, F phi is phi bit for bit (inf,
    NaN and -0.0 included), so such a step multiplies only up to the last
    mode with F != 1.0.  On a sorted spectrum the unit modes are a suffix:
    81 % of 16384 sine modes for an elliptic problem with lambda_max T =
    100.  Full steps multiply every mode.
    """
    if phi0.model != fac.model:
        raise ConfigError("phi0 must live over the model of the factors")
    stop = schedule.stop
    s = stop.scale if stop.scale is not None else default_scale(fac.kind)
    F, z, tol, budget = fac.factors, fac.z.coeffs, stop.successive_diff_tol, stop.max_steps
    (norm, weights), error = _scale_norm(fac.model, s), _error_vs(reference)
    wanted = set(schedule.checkpoints)
    full = {1, budget, *wanted}

    records: list[CheckpointRecord] = []

    def snapshot(k, phi, diff):
        records.append(CheckpointRecord(
            k=k, iterate=SpectralVec(phi.copy(), fac.model), successive_diff=diff,
            residual=norm((F * phi + z) - phi), error_vs_reference=error(phi),
        ))

    # two iterate buffers swapped every full step, plus one for the difference
    phi = phi0.coeffs.copy()
    new, d = np.empty_like(phi), np.empty_like(phi)
    # F phi is phi bit for bit where F == 1.0, so a cleared step multiplies
    # only the head up to the last other mode
    off_unit = np.flatnonzero(F != 1.0)
    m = int(off_unit[-1]) + 1 if off_unit.size else 0
    head_F, head, head_new = F[:m], phi[:m], new[:m]
    for k in range(1, budget + 1):
        if k not in full:
            b = Fj * a + zj
            x = (b - a) * wj
            a, q = b, x * x
            if 0.0 < q < math.inf and math.sqrt(q) >= tol:
                np.multiply(head_F, head, out=head)
                phi += z
                continue
        np.multiply(F, phi, out=new)
        new += z
        diff = norm(np.subtract(new, phi, out=d))
        phi, new = new, phi
        head, head_new = head_new, head
        last = k == budget or diff == 0.0 or (tol > 0.0 and diff < tol)
        if last or k in wanted:
            snapshot(k, phi, diff)
        if last:
            break
        j = int(np.abs(d, out=d).argmax())  # d holds the weighted difference
        a, Fj, zj = float(phi[j]), float(F[j]), float(z[j])
        wj = 1.0 if weights is None else float(weights[j])
    return _report(fac.kind, s, records, k, stop)


# an inf or NaN in phi0 makes inf - inf or 0 * inf, which reads NaN as in IEEE
@np.errstate(invalid="ignore")
def report_closed_form(
    fac: IterationFactors,
    phi0: SpectralVec,
    schedule: IterationSchedule,
    reference: Optional[SpectralVec] = None,
) -> IterationReport:
    """Same report shape as :func:`iterate_stepwise`, via closed forms.

    Uses the telescoping identity phi_k - phi_{k-1} = F^{k-1} (z - (1-F)
    phi0) so successive differences and residuals come out exact at any k,
    which is what makes million-step tables affordable.  Unlike the
    stepwise runner this one never cuts the schedule short on a diff of
    exactly zero: the analytic per-step difference underflows long before
    the iterate stops improving, and every requested checkpoint is cheap
    to evaluate directly.

    The tolerance stops the run on the first step whose difference drops
    below it, as in the stepwise runner.  The difference ||F^{k-1} w|| is
    non-increasing in k (|F| <= 1 per mode, and exp, products and the sum
    of squares all round monotonically), so once a checkpoint (or the last
    step of the budget) reads below the tolerance, a bisection over the
    steps since the previous checkpoint finds that first step in
    O(N log k), and the run ends there.
    """
    if phi0.model != fac.model:
        raise ConfigError("phi0 must live over the model of the factors")
    stop = schedule.stop
    s = stop.scale if stop.scale is not None else default_scale(fac.kind)
    w = fac.z.coeffs - fac.complements * phi0.coeffs  # first-step displacement
    tol = stop.successive_diff_tol
    log_factor, divisor = _log_factor(fac), _safe_complement(fac.complements)
    norm, error = _scale_norm(fac.model, s)[0], _error_vs(reference)

    def diff_at(k):  # ||phi_k - phi_(k-1)||, one row of O(N) work
        Fkm1 = _factor_power(*log_factor, k - 1)
        return norm(np.multiply(Fkm1, w, out=Fkm1))

    records: list[CheckpointRecord] = []
    final_k, prev = stop.max_steps, 0
    for k in sorted({*schedule.checkpoints, stop.max_steps}):  # never a (K x N) array
        diff = diff_at(k)
        if tol > 0.0 and diff < tol:
            lo = prev  # step prev is not below tol (there is no step 0), step k is
            while k - lo > 1:
                mid = (lo + k) // 2
                mid_diff = diff_at(mid)
                if mid_diff < tol:
                    k, diff = mid, mid_diff
                else:
                    lo = mid
            final_k = k
        Fk, phi = _iterate(fac, phi0, k, log_factor, divisor)
        records.append(CheckpointRecord(
            k=k, iterate=SpectralVec(phi, fac.model), successive_diff=diff,
            residual=norm(np.multiply(Fk, w, out=Fk)), error_vs_reference=error(phi),
        ))
        if final_k == k:
            break
        prev = k
    return _report(fac.kind, s, records, final_k, stop)


def run_schedule(
    fac: IterationFactors,
    phi0: SpectralVec,
    schedule: IterationSchedule,
    reference: Optional[SpectralVec] = None,
) -> IterationReport:
    """Dispatch to the evaluator selected by ``schedule.mode``."""
    if schedule.mode == "stepwise":
        return iterate_stepwise(fac, phi0, schedule, reference)
    return report_closed_form(fac, phi0, schedule, reference)


# ---------------------------------------------------------------------------
# operator-condition checks


@dataclasses.dataclass(frozen=True)
class ConditionReport:
    """Outcome of the energy inequalities and non-expansivity for the
    linear part T = F(A) of the iteration.

    Condition (1): ||(I-T)x||^2 <= c (||x||^2 - ||Tx||^2).
    Condition (2): <(I-T)x, x>  >= (c+1)/(2c) ||(I-T)x||^2.
    Non-expansivity: ||Tx|| <= ||x||.
    T is diagonal, so in any scale norm the supremum of each signed
    violation (positive = broken) over unit x is its largest per-mode term:
    comp ((1 - c) - (1 + c) F) for (1), the same over 2c for (2), and
    |F| - 1, with comp = 1 - F.  A check holds when its violation is at
    most ``tol``, which a NaN term never is.  ``worst_mode`` is the
    zero-based position of the largest term over the three checks (the
    first NaN if any, the lowest position on a tie).
    """

    nonexpansive: bool
    condition1_holds: bool
    condition2_holds: bool
    max_violation: float
    condition1_violation: float
    condition2_violation: float
    nonexpansive_violation: float
    worst_mode: int
    c: float
    tol: float


def check_operator_conditions(
    fac: IterationFactors, c: float, *, tol: float = 1e-12
) -> ConditionReport:
    """The two energy inequalities and non-expansivity, read exactly off the
    factors per mode as :class:`ConditionReport` describes; ``c`` must be
    positive and finite.

    Condition (1)'s term is taken as (1 + c) comp (r - F) with
    r = (1 - c)/(1 + c): sign-exact at c = 1 (r = 0), and no inf * 0 at
    any c.  Condition (2)'s is comp (r - F) (1 + 1/c)/2.  A term past the
    float max reads -inf or inf.
    """
    c = float(c)
    if not (0.0 < c < math.inf):
        raise ConfigError(f"c must be positive and finite, got {c!r}")
    F = fac.factors
    base = fac.complements * ((1.0 - c) / (1.0 + c) - F)
    with np.errstate(over="ignore"):
        terms = (base * (1.0 + c), base * (0.5 + 0.5 / c), np.abs(F) - 1.0)
    worst = np.maximum(np.maximum(terms[0], terms[1]), terms[2])
    j = int(np.argmax(worst))  # the first NaN, if any
    v1, v2, vn = (float(t.max()) for t in terms)
    return ConditionReport(
        nonexpansive=vn <= tol,
        condition1_holds=v1 <= tol,
        condition2_holds=v2 <= tol,
        max_violation=float(worst[j]),
        condition1_violation=v1,
        condition2_violation=v2,
        nonexpansive_violation=vn,
        worst_mode=j,
        c=c,
        tol=tol,
    )
